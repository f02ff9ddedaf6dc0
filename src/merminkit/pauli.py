"""Exact tensor-product algebra of Pauli operators on small qubit registers.

A word is a tensor product of single-qubit letters drawn from
``{I, s1, s2, s3}`` together with a complex prefactor; a sum keeps at most
one coefficient per letter pattern.  Coefficients live in plain complex
doubles: every coefficient produced by the operator identities handled here
is a small integer times a power of i, so the arithmetic stays bit-exact in
practice.  ``TOL_ALG`` only guards zero pruning.

Letter codes: 0 = identity, 1..3 = the three Pauli matrices.  Basis vectors
of n qubits are indexed by packed integers with qubit 1 in the most
significant bit and e1 -> bit 0, e2 -> bit 1.  A word is stored as the pair
``(x, z)`` of n-bit masks laid out the same way, with I = (0, 0),
s1 = (1, 0), s2 = (1, 1), s3 = (0, 1) per qubit, i.e. ``i^|x&z| X^x Z^z``
(Aaronson & Gottesman, PRA 70, 052328, 2004): a product is an XOR of masks
times a power of i counted by popcounts, and the word sends basis index
``k`` to ``k ^ x`` with phase ``i^|x&z| (-1)^|z&k|``.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .states import StateVector

TOL_ALG = 1e-12

# per-qubit code x | z << 1 of each letter; the map is its own inverse
_CODE = (0, 1, 3, 2)
_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def word_key(letters: Iterable[int]) -> tuple[int, int]:
    """The ``(x, z)`` bitmask pair of a letter pattern."""
    x = z = 0
    for letter in letters:
        code = _CODE[letter]
        x = (x << 1) | (code & 1)
        z = (z << 1) | (code >> 1)
    return x, z


def _key_letters(key: tuple[int, int], n: int) -> tuple[int, ...]:
    """The letter pattern of an ``(x, z)`` pair on n qubits."""
    x, z = key
    return tuple(_CODE[(x >> b & 1) | (z >> b & 1) << 1] for b in range(n - 1, -1, -1))


def _product(ka: tuple[int, int], kb: tuple[int, int]) -> tuple[tuple[int, int], complex]:
    """Key and phase of the word product ``s_a * s_b``."""
    (xa, za), (xb, zb) = ka, kb
    xc, zc = xa ^ xb, za ^ zb
    power = ((xa & za).bit_count() + (xb & zb).bit_count()
             - (xc & zc).bit_count() + 2 * (za & xb).bit_count())
    return (xc, zc), _I_POW[power % 4]


@dataclass(frozen=True)
class PauliWord:
    """A single tensor word ``coeff * s_{j1} x ... x s_{jn}``."""

    letters: tuple[int, ...]
    coeff: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("word needs at least one letter")
        if any(letter not in (0, 1, 2, 3) for letter in self.letters):
            raise ValueError(f"letters must be in 0..3, got {self.letters}")
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "coeff", complex(self.coeff))

    @property
    def n(self) -> int:
        return len(self.letters)

    def apply_to_basis(self, index: int) -> tuple[complex, int]:
        """Act on a packed basis index; returns (phase, new index).

        Single-letter action: s1 swaps e1/e2; s2 swaps with phases +-i
        (e1 -> i e2, e2 -> -i e1); s3 keeps the vector, negating e2.
        """
        if not 0 <= index < (1 << self.n):
            raise ValueError(f"basis index {index} out of range for {self.n} qubits")
        x, z = word_key(self.letters)
        power = (x & z).bit_count() + 2 * (z & index).bit_count()
        return self.coeff * _I_POW[power % 4], index ^ x

    def __mul__(self, other: "PauliWord") -> "PauliWord":
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} != {other.n}")
        key, phase = _product(word_key(self.letters), word_key(other.letters))
        return PauliWord(_key_letters(key, self.n), self.coeff * other.coeff * phase)


class PauliSum:
    """A normalized linear combination of Pauli words on n qubits."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        if n < 1:
            raise ValueError("qubit count must be >= 1")
        self.n = n
        self._terms: dict[tuple[int, int], complex] = {}
        if terms:
            for key, coeff in terms.items():
                if abs(coeff) > TOL_ALG:
                    self._terms[key] = complex(coeff)

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

    @classmethod
    def from_words(cls, words: Iterable[PauliWord]) -> "PauliSum":
        words = list(words)
        if not words:
            raise ValueError("cannot infer qubit count from an empty word list")
        n = words[0].n
        acc: dict[tuple[int, int], complex] = {}
        for w in words:
            if w.n != n:
                raise ValueError(f"qubit counts differ: {w.n} != {n}")
            key = word_key(w.letters)
            acc[key] = acc.get(key, 0j) + w.coeff
        return cls(n, acc)

    # -- views -------------------------------------------------------------

    def words(self) -> list[PauliWord]:
        """Terms as words, sorted by letter pattern."""
        return [PauliWord(letters, coeff) for letters, coeff in self.terms()]

    def terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        """(letters, coeff) pairs, sorted by letter pattern."""
        return iter(sorted((_key_letters(key, self.n), coeff)
                           for key, coeff in self._terms.items()))

    def coefficient(self, letters: Iterable[int]) -> complex:
        return self._terms.get(word_key(letters), 0j)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient_vector(self, letter_order: list[tuple[int, ...]]) -> np.ndarray:
        """Coefficients as a dense vector over an explicit word ordering."""
        return np.array([self.coefficient(ls) for ls in letter_order], dtype=complex)

    # -- arithmetic ----------------------------------------------------------

    def _check_n(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} != {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_n(other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, 0j) + coeff
        return PauliSum(self.n, acc)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return NotImplemented
        return PauliSum(self.n, {k: scalar * c for k, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PauliSum):
            return PauliSum(self.n, {k: other * c for k, c in self._terms.items()})
        self._check_n(other)
        acc: dict[tuple[int, int], complex] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key, phase = _product(ka, kb)
                acc[key] = acc.get(key, 0j) + ca * cb * phase
        return PauliSum(self.n, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, tuple(self.terms())))

    def allclose(self, other: "PauliSum", tol: float = TOL_ALG) -> bool:
        self._check_n(other)
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0j) - other._terms.get(k, 0j)) <= tol for k in keys
        )

    def commutes(self, other: "PauliSum") -> bool:
        """True iff the commutator normalizes to the empty sum.

        Two words anticommute iff their symplectic product
        ``|xa&zb ^ za&xb|`` is odd, and then contribute ``2 a b s_a s_b``;
        commuting pairs cancel, so only anticommuting pairs are multiplied.
        """
        self._check_n(other)
        acc: dict[tuple[int, int], complex] = {}
        for (xa, za), ca in self._terms.items():
            for (xb, zb), cb in other._terms.items():
                if ((xa & zb) ^ (za & xb)).bit_count() & 1:
                    key, phase = _product((xa, za), (xb, zb))
                    acc[key] = acc.get(key, 0j) + 2 * ca * cb * phase
        return PauliSum(self.n, acc).is_zero()

    def apply(self, v: StateVector) -> StateVector:
        """Linear action on a state vector, term by term; no normalization."""
        if v.n != self.n:
            raise ValueError(f"qubit counts differ: {self.n} != {v.n}")
        parity = np.zeros(1, dtype=bool)  # popcount parity of every index
        for _ in range(self.n):
            parity = np.concatenate([parity, ~parity])
        index = np.arange(1 << self.n)
        out = np.zeros(1 << self.n, dtype=complex)
        for (x, z), coeff in self._terms.items():
            amps = np.where(parity[index & z], -v.amps, v.amps)
            out[index ^ x] += coeff * _I_POW[(x & z).bit_count() % 4] * amps
        return StateVector(self.n, out)

    def __repr__(self) -> str:
        return f"PauliSum({render_sum(self)!r})"


def sigma(*letters: int, coeff: complex = 1.0) -> PauliSum:
    """Single-word sum ``coeff * s_{j1} x ... x s_{jn}``."""
    return PauliSum.from_words([PauliWord(tuple(letters), coeff)])


def identity(n: int) -> PauliSum:
    return sigma(*([0] * n))


# -- text form ---------------------------------------------------------------
#
# Words render as "s(j1,...,jn)" with an optional leading complex coefficient
# ("2*", "-s(...)", "1.5i*", "(1+2i)*"); sums join terms with " + " / " - ".

_WORD_RE = re.compile(r"^s\((\d(?:,\d)*)\)$")


def _fmt_real(x: float) -> str:
    return f"{x:.15g}"


def _render_coeff(c: complex) -> str:
    if c.imag == 0:
        return _fmt_real(c.real)
    if c.real == 0:
        if c.imag == 1:
            return "i"
        if c.imag == -1:
            return "-i"
        return _fmt_real(c.imag) + "i"
    sign = "+" if c.imag > 0 else "-"
    return f"({_fmt_real(c.real)}{sign}{_fmt_real(abs(c.imag))}i)"


def render_word(letters: tuple[int, ...], coeff: complex = 1.0) -> str:
    base = "s(" + ",".join(str(j) for j in letters) + ")"
    text = _render_coeff(coeff)
    if text == "1":
        return base
    if text == "-1":
        return "-" + base
    return text + "*" + base


def render_sum(s: PauliSum) -> str:
    if s.is_zero():
        return "0"
    parts: list[str] = []
    for letters, coeff in s.terms():
        if parts:
            if coeff.imag == 0 and coeff.real < 0:
                parts.append(" - " + render_word(letters, -coeff))
                continue
            parts.append(" + " + render_word(letters, coeff))
        else:
            parts.append(render_word(letters, coeff))
    return "".join(parts)


def _parse_coeff(text: str) -> complex:
    text = text.strip().replace(" ", "")
    if text in ("", "+"):
        return 1.0 + 0j
    if text == "-":
        return -1.0 + 0j
    try:
        coeff = complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"bad coefficient {text!r}") from exc
    if cmath.isnan(coeff):  # NaN compares False with every bound, so no later guard sees it
        raise ValueError(f"coefficient {text!r} is not a number")
    return coeff


def _split_terms(text: str) -> list[str]:
    chunks: list[str] = []
    depth = 0
    start = 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and pos > start:
            if text[pos - 1] in "eE" and text[pos - 2 : pos - 1].isdigit():
                continue  # exponent sign
            chunks.append(text[start:pos])
            start = pos
    chunks.append(text[start:])
    return [c for c in chunks if c.strip()]


def parse_sum(text: str, n: int | None = None) -> PauliSum:
    """Parse the textual sum grammar back into a PauliSum."""
    text = text.strip()
    if text == "0":
        if n is None:
            raise ValueError("parsing '0' needs an explicit qubit count")
        return PauliSum.zero(n)
    words: list[PauliWord] = []
    for chunk in _split_terms(text.replace(" ", "")):
        sign = 1.0
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if "*" in chunk:
            coeff_text, word_text = chunk.rsplit("*", 1)
            coeff = _parse_coeff(coeff_text)
        else:
            coeff, word_text = 1.0 + 0j, chunk
        m = _WORD_RE.match(word_text)
        if m is None:
            raise ValueError(f"bad term {chunk!r}; expected [coeff*]s(j1,...,jn)")
        letters = tuple(int(j) for j in m.group(1).split(","))
        # negation, not a product: 0 * inf in a product would be a NaN part
        words.append(PauliWord(letters, coeff if sign > 0 else -coeff))
    s = PauliSum.from_words(words)
    if n is not None and s.n != n:
        raise ValueError(f"expected {n} qubits, parsed {s.n}")
    return s
