"""Exact tensor-product algebra of Pauli operators on small qubit registers.

A word is a tensor product of single-qubit letters drawn from
``{I, s1, s2, s3}`` together with a complex prefactor; a sum keeps at most
one coefficient per letter pattern.  Coefficients live in plain complex
doubles: every coefficient produced by the operator identities handled here
is a small integer times a power of i, so the arithmetic stays bit-exact in
practice.  ``TOL_ALG`` only guards zero pruning.

Letter codes: 0 = identity, 1..3 = the three Pauli matrices.  Basis vectors
of n qubits are indexed by packed integers with qubit 1 in the most
significant bit and e1 -> bit 0, e2 -> bit 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .states import StateVector

TOL_ALG = 1e-12

# single-qubit multiplication table: (p, q) -> (letter, phase)
_MUL: dict[tuple[int, int], tuple[int, complex]] = {}
for _p in range(4):
    _MUL[(0, _p)] = (_p, 1.0 + 0j)
    _MUL[(_p, 0)] = (_p, 1.0 + 0j)
    _MUL[(_p, _p)] = (0, 1.0 + 0j)
for _a, _b, _c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    _MUL[(_a, _b)] = (_c, 1j)
    _MUL[(_b, _a)] = (_c, -1j)


def _pack(letters: Iterable[int]) -> int:
    key = 0
    for letter in letters:
        key = (key << 2) | letter
    return key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple((key >> (2 * (n - 1 - a))) & 3 for a in range(n))


def _letter_product(la, lb) -> tuple[list[int], complex]:
    """Letters and phase of the word product ``s_la * s_lb``."""
    letters = []
    phase = 1.0 + 0j
    for p, q in zip(la, lb):
        letter, factor = _MUL[(p, q)]
        letters.append(letter)
        phase *= factor
    return letters, phase


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
        n = self.n
        if not 0 <= index < (1 << n):
            raise ValueError(f"basis index {index} out of range for {n} qubits")
        phase = self.coeff
        out = index
        for a, letter in enumerate(self.letters):
            bit_pos = n - 1 - a
            bit = (index >> bit_pos) & 1
            if letter == 1:
                out ^= 1 << bit_pos
            elif letter == 2:
                out ^= 1 << bit_pos
                phase *= -1j if bit else 1j
            elif letter == 3 and bit:
                phase = -phase
        return phase, out

    def __mul__(self, other: "PauliWord") -> "PauliWord":
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} != {other.n}")
        letters, phase = _letter_product(self.letters, other.letters)
        return PauliWord(tuple(letters), self.coeff * other.coeff * phase)


class PauliSum:
    """A normalized linear combination of Pauli words on n qubits."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[int, complex] | None = None):
        if n < 1:
            raise ValueError("qubit count must be >= 1")
        self.n = n
        self._terms: dict[int, complex] = {}
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
        acc: dict[int, complex] = {}
        for w in words:
            if w.n != n:
                raise ValueError(f"qubit counts differ: {w.n} != {n}")
            key = _pack(w.letters)
            acc[key] = acc.get(key, 0j) + w.coeff
        return cls(n, acc)

    # -- views -------------------------------------------------------------

    def words(self) -> list[PauliWord]:
        """Terms as words, sorted by packed letter pattern."""
        return [
            PauliWord(_unpack(key, self.n), coeff)
            for key, coeff in sorted(self._terms.items())
        ]

    def terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        for key, coeff in sorted(self._terms.items()):
            yield _unpack(key, self.n), coeff

    def coefficient(self, letters: Iterable[int]) -> complex:
        return self._terms.get(_pack(letters), 0j)

    def num_terms(self) -> int:
        return len(self._terms)

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
        acc: dict[int, complex] = {}
        n = self.n
        right = [(_unpack(kb, n), cb) for kb, cb in other._terms.items()]
        for ka, ca in self._terms.items():
            la = _unpack(ka, n)
            for lb, cb in right:
                letters, phase = _letter_product(la, lb)
                key = _pack(letters)
                acc[key] = acc.get(key, 0j) + ca * cb * phase
        return PauliSum(n, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))))

    def allclose(self, other: "PauliSum", tol: float = TOL_ALG) -> bool:
        self._check_n(other)
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0j) - other._terms.get(k, 0j)) <= tol for k in keys
        )

    def commutes(self, other: "PauliSum") -> bool:
        """True iff the commutator normalizes to the empty sum."""
        return (self * other - other * self).is_zero()

    def apply(self, v: StateVector) -> StateVector:
        """Linear action on a state vector, term by term; no normalization."""
        if v.n != self.n:
            raise ValueError(f"qubit counts differ: {self.n} != {v.n}")
        out = np.zeros(1 << self.n, dtype=complex)
        for key, coeff in self._terms.items():
            word = PauliWord(_unpack(key, self.n), coeff)
            for index in range(1 << self.n):
                amp = v.amps[index]
                if amp != 0:
                    phase, new_index = word.apply_to_basis(index)
                    out[new_index] += phase * amp
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
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"bad coefficient {text!r}") from exc


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
        words.append(PauliWord(letters, sign * coeff))
    s = PauliSum.from_words(words)
    if n is not None and s.n != n:
        raise ValueError(f"expected {n} qubits, parsed {s.n}")
    return s
