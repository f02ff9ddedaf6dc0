"""Exact tensor-product algebra of Pauli operators on small qubit registers.

A word is a tensor product of single-qubit letters drawn from
``{I, s1, s2, s3}`` together with a complex prefactor; a sum keeps at most
one coefficient per letter pattern.  Coefficients live in plain complex
doubles: every coefficient produced by the operator identities handled here
is a small integer times a power of i, so the arithmetic stays bit-exact in
practice.  A sum drops a term only when its coefficient is exactly zero; a NaN
is kept.  ``TOL_ALG`` is the relative zero test of a commutator, the default
of ``allclose`` and the bound below which ``parse_sum`` refuses a coefficient.

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
import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .states import StateVector

TOL_ALG = 1e-12

# per-qubit code x | z << 1 of each letter; the map is its own inverse
_CODE = (0, 1, 3, 2)
_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
# (-1) ** popcount of every byte, read-only: the sign rule of the x/z form
_BYTE_SIGNS = np.array([1 - 2 * (b.bit_count() & 1) for b in range(256)], dtype=np.int64)
_BYTE_SIGNS.setflags(write=False)


def parity_sign(v: np.ndarray, bits: int) -> np.ndarray:
    """(-1) ** popcount of each int64 0 <= v < 2**bits: one table lookup per byte."""
    sign = _BYTE_SIGNS[v if bits <= 8 else v & 0xFF]
    for shift in range(8, bits, 8):
        sign = sign * _BYTE_SIGNS[v >> shift & 0xFF]
    return sign


@functools.cache
def _indices(n: int) -> np.ndarray:
    """Read-only ``arange(2**n)``, the packed basis indices of n qubits."""
    index = np.arange(1 << n)
    index.setflags(write=False)
    return index


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
    """A linear combination of Pauli words on n qubits, no coefficient exactly 0."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        if n < 1:
            raise ValueError("qubit count must be >= 1")
        self.n = n
        self._terms: dict[tuple[int, int], complex] = {
            key: complex(coeff) for key, coeff in (terms or {}).items() if coeff != 0}

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

    def terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        """(letters, coeff) pairs, sorted by letter pattern."""
        return iter(sorted((_key_letters(key, self.n), coeff)
                           for key, coeff in self._terms.items()))

    def keyed_terms(self) -> dict[tuple[int, int], complex]:
        """A fresh ``(x, z) -> coeff`` dict of the terms, unsorted and letters-free."""
        return dict(self._terms)

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
        return PauliSum(self.n, {k: scalar * c for k, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PauliSum):
            return self.__rmul__(other)
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
        """True iff every word's commutator coefficient is zero.

        Two words anticommute iff their symplectic product
        ``|xa&zb ^ za&xb|`` is odd, and then contribute ``2 a b s_a s_b``;
        commuting pairs cancel, so only anticommuting pairs are multiplied.
        A word's coefficient counts as zero when its modulus is at most
        ``TOL_ALG`` times the summed moduli of its contributions, so the
        answer does not change when either operator is rescaled.
        """
        self._check_n(other)
        acc: dict[tuple[int, int], tuple[complex, float]] = {}
        for (xa, za), ca in self._terms.items():
            for (xb, zb), cb in other._terms.items():
                if ((xa & zb) ^ (za & xb)).bit_count() & 1:
                    key, phase = _product((xa, za), (xb, zb))
                    term = ca * cb * phase  # the common factor 2 cancels in the test
                    total, scale = acc.get(key, (0j, 0.0))
                    acc[key] = (total + term, scale + abs(term))
        return all(abs(total) <= TOL_ALG * scale for total, scale in acc.values())

    def apply(self, v: StateVector) -> StateVector:
        """Linear action on a state vector, term by term; no normalization.

        A term whose phase is real or imaginary scales the real and imaginary
        parts as floats, swapped for an imaginary one, so that no 0 * inf
        forms: an infinite amplitude keeps a zero part zero.
        """
        if v.n != self.n:
            raise ValueError(f"qubit counts differ: {self.n} != {v.n}")
        index = _indices(self.n)
        pairs = v.amps.view(float).reshape(-1, 2)
        out = np.zeros(1 << self.n, dtype=complex)
        for (x, z), coeff in self._terms.items():
            phase = coeff * _I_POW[(x & z).bit_count() % 4]
            sign = parity_sign(index & z, self.n)
            if phase.real and phase.imag:
                term = (phase * sign) * v.amps
            else:
                parts = pairs * (sign * (phase.real or phase.imag))[:, None]
                if not phase.real:  # times i: (re, im) -> (-im, re)
                    parts = parts[:, ::-1] * (-1.0, 1.0)
                term = parts.view(complex)[:, 0]
            out += term[index ^ x]  # index ^ x is its own inverse
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

# one term: a sign (required after the first term), an optional coefficient and
# "*", then the word; a coefficient is parenthesized, or a run without "()*+-"
# whose only signs follow an exponent's e
_TERM_RE = re.compile(r"(?P<sign>[+-]?)"
                      r"(?:(?P<coeff>\([^()]*\)|(?:[^()*+eE-]|[eE][+-]?)+)\*)?"
                      r"s\((?P<word>\d(?:,\d)*)\)")


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
    first, *rest = (render_word(letters, coeff) for letters, coeff in s.terms())
    # a later term's leading "-" becomes its joiner, which parse_sum requires
    return first + "".join(" - " + t[1:] if t[0] == "-" else " + " + t for t in rest)


def _parse_coeff(text: str) -> complex:
    text = text.strip().replace(" ", "")
    try:
        coeff = complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"bad coefficient {text!r}") from exc
    if cmath.isnan(coeff):  # NaN compares False with every bound, so no later guard sees it
        raise ValueError(f"coefficient {text!r} is not a number")
    return coeff


def parse_sum(text: str, n: int | None = None) -> PauliSum:
    """Parse the textual sum grammar back into a PauliSum; whitespace is ignored."""
    text = "".join(text.split())
    if text == "0":
        if n is None:
            raise ValueError("parsing '0' needs an explicit qubit count")
        return PauliSum.zero(n)
    sums: dict[tuple[int, ...], complex] = {}  # the written terms of each word, summed
    pos = 0
    while pos == 0 or pos < len(text):  # at least one term
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and not m["sign"]):
            raise ValueError(f"bad term at {text[pos:]!r}; expected "
                             "[+-][coeff*]s(j1,...,jn), with a sign before every later term")
        coeff_text, pos = m["coeff"], m.end()
        if coeff_text is None:
            coeff = 1.0 + 0j
        else:
            coeff = _parse_coeff(coeff_text)
            if 0 < math.hypot(coeff.real, coeff.imag) <= TOL_ALG:  # too small to be meant exactly
                raise ValueError(f"coefficient {coeff_text!r} is at most {TOL_ALG:g}")
        letters = tuple(int(j) for j in m["word"].split(","))
        # negation, not a product: 0 * inf in a product would be a NaN part
        sums[letters] = sums.get(letters, 0j) + (-coeff if m["sign"] == "-" else coeff)
    for letters, total in sums.items():
        modulus = math.hypot(total.real, total.imag)  # where abs() would raise, this is inf
        if modulus == math.inf and cmath.isfinite(total):
            raise ValueError(f"the terms of {render_word(letters)} sum to {total:.3g}, "
                             "whose modulus is beyond the float range")
        # an inexact cancellation is refused as float residue; an exact one is zero
        if total != 0 and not modulus > TOL_ALG:
            raise ValueError(f"the terms of {render_word(letters)} sum to {total:.3g}, "
                             f"which is nonzero but not above {TOL_ALG:g}")
    s = PauliSum.from_words([PauliWord(letters, total) for letters, total in sums.items()])
    if n is not None and s.n != n:
        raise ValueError(f"expected {n} qubits, parsed {s.n}")
    return s
