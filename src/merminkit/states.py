"""Amplitude vectors for GHZ, Dicke, and symmetrized Dicke states.

Constructors follow the non-normalized conventions used throughout the
package; expectation values divide by the squared norm where needed.  Basis
words (j1,...,jn) with jk in {1,2} pack into integers with j=1 -> bit 0,
j=2 -> bit 1 and qubit 1 in the most significant position.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def pack_basis_word(word: Sequence[int]) -> int:
    """Packed index of a basis word such as (1,2,1)."""
    index = 0
    for j in word:
        if j not in (1, 2):
            raise ValueError(f"basis letters must be 1 or 2, got {word}")
        index = (index << 1) | (j - 1)
    return index


def unpack_basis_word(index: int, n: int) -> tuple[int, ...]:
    return tuple(((index >> (n - 1 - a)) & 1) + 1 for a in range(n))


class StateVector:
    """Complex amplitudes over the 2^n packed basis; immutable once built."""

    # _unit: the ``unit_scaled`` twin and _norm_sq: ``norm_sq``, each made on first use
    __slots__ = ("n", "amps", "_unit", "_norm_sq")

    def __init__(self, n: int, amps: Iterable[complex]):
        if n < 1:
            raise ValueError("qubit count must be >= 1")
        # np.array copies, so the caller keeps its own array
        arr = np.array(list(amps) if not isinstance(amps, np.ndarray) else amps,
                       dtype=complex)
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "_unit", None)
        object.__setattr__(self, "_norm_sq", None)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through __init__, which the slot-state
        # restore cannot (it writes slots); the cached twin and norm are remade
        return StateVector, (self.n, self.amps)

    @property
    def norm_sq(self) -> float:
        if self._norm_sq is None:
            object.__setattr__(self, "_norm_sq", float(np.vdot(self.amps, self.amps).real))
        return self._norm_sq

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.amps) <= tol))

    def allclose(self, other: "StateVector", tol: float = 1e-12) -> bool:
        return self.n == other.n and bool(
            np.all(np.abs(self.amps - other.amps) <= tol)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.amps, other.amps))

    def __repr__(self) -> str:
        # Python complex numbers, whose repr does not depend on the numpy version
        nonzero = {i: a for i, a in enumerate(self.amps.tolist()) if a != 0}
        return f"StateVector(n={self.n}, nonzero={nonzero})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "amps": [[float(a.real), float(a.imag)] for a in self.amps],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StateVector":
        return cls(int(data["n"]), [complex(re, im) for re, im in data["amps"]])


def unit_scaled(v: StateVector) -> StateVector:
    """v times the power of two that brings its largest amplitude into [0.5, 1).

    The factor is exact, so ratios such as <v, M v> / <v, v> keep every bit,
    while the squared norm of the result can neither underflow nor overflow.
    ``ldexp`` scales the real and imaginary parts, so a subnormal largest
    amplitude needs no unrepresentable factor.  The result is made once per
    state and kept on it (a state never changes); a refused state keeps nothing.
    """
    if v._unit is not None:
        return v._unit
    top = float(np.abs(v.amps).max())
    exp = math.frexp(top)[1]
    # a NaN or infinite part makes top non-finite, but so can finite parts that overflow
    if not math.isfinite(top):
        if not np.isfinite(v.amps).all():
            raise ValueError("state has a non-finite amplitude")
        exp = math.frexp(float(np.max(np.abs(v.amps * 0.5))))[1] + 1  # half cannot overflow
    if top == 0:
        raise ValueError("state is identically zero")
    object.__setattr__(v, "_unit", StateVector(
        v.n, np.ldexp(v.amps.view(float), -exp).view(complex)))
    return v._unit


def check_qubit_count(n: int) -> None:
    """Refuse any qubit count other than the supported 3 and 4."""
    if n not in (3, 4):
        raise ValueError(f"unsupported qubit count {n}; expected 3 or 4")


def ghz(n: int) -> StateVector:
    """GHZ state: unit amplitudes on e_{1,...,1} and e_{2,...,2}."""
    check_qubit_count(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1
    amps[(1 << n) - 1] = 1
    return StateVector(n, amps)


def dicke(n: int, m: int) -> StateVector:
    """Dicke state of degree m: unit amplitudes on all weight-m basis words."""
    check_qubit_count(n)
    if not 1 <= m <= n // 2:
        raise ValueError(f"degree {m} out of range 1..{n // 2} for {n} qubits")
    amps = np.zeros(1 << n, dtype=complex)
    for index in range(1 << n):
        if bin(index).count("1") == m:
            amps[index] = 1
    return StateVector(n, amps)


# Basis pairs (b, conjugate of b) receiving each coefficient, listed in the
# order the coefficients are numbered for each supported (n, m) family.
_SYM_PAIRS: dict[tuple[int, int], list[tuple[int, int]]] = {
    (3, 1): [(0b100, 0b011), (0b010, 0b101), (0b001, 0b110)],
    (4, 1): [(0b1000, 0b0111), (0b0100, 0b1011), (0b0010, 0b1101), (0b0001, 0b1110)],
    (4, 2): [(0b0011, 0b1100), (0b0101, 0b1010), (0b0110, 0b1001)],
}


def sym_coeff_count(n: int, m: int) -> int:
    if (n, m) not in _SYM_PAIRS:
        raise ValueError(f"no symmetrized Dicke family for (n, m) = ({n}, {m})")
    return len(_SYM_PAIRS[(n, m)])


def sym_dicke(n: int, m: int, coeffs: Sequence[complex] | None = None) -> StateVector:
    """Symmetrized Dicke state: each coefficient weights a conjugate basis pair.

    Coefficients must all be nonzero; omitting them uses all ones, in which
    case the result is the plain symmetrization of ``dicke(n, m)``.
    """
    pairs = _SYM_PAIRS.get((n, m))
    if pairs is None:
        raise ValueError(f"no symmetrized Dicke family for (n, m) = ({n}, {m})")
    if coeffs is None:
        coeffs = [1.0] * len(pairs)
    coeffs = [complex(c) for c in coeffs]
    if len(coeffs) != len(pairs):
        raise ValueError(
            f"expected {len(pairs)} coefficients for (n, m) = ({n}, {m}), "
            f"got {len(coeffs)}"
        )
    if any(c == 0 for c in coeffs):
        raise ValueError("all coefficients must be nonzero")
    amps = np.zeros(1 << n, dtype=complex)
    for (b, b_conj), c in zip(pairs, coeffs):
        amps[b] += c
        amps[b_conj] += c
    return StateVector(n, amps)


# The paper's state catalog: u = GHZ, v<n><m> = Dicke, a trailing ~ marks the
# symmetrized Dicke family, the only one that takes pair weights.  Builders
# resolve the constructors by global name at call time.
_CATALOG = {
    "u3": lambda coeffs: ghz(3),
    "u4": lambda coeffs: ghz(4),
    "v31": lambda coeffs: dicke(3, 1),
    "v41": lambda coeffs: dicke(4, 1),
    "v42": lambda coeffs: dicke(4, 2),
    "v31~": lambda coeffs: sym_dicke(3, 1, coeffs),
    "v41~": lambda coeffs: sym_dicke(4, 1, coeffs),
    "v42~": lambda coeffs: sym_dicke(4, 2, coeffs),
}
CATALOG_IDS = tuple(_CATALOG)
STATE_ALIASES = {"ghz3": "u3", "ghz4": "u4"}


def catalog_state(state_id: str, coeffs=None) -> StateVector:
    """Build a catalog state by id or alias; only ``~`` ids accept ``coeffs``."""
    key = STATE_ALIASES.get(state_id, state_id)
    if key not in _CATALOG:
        raise ValueError(f"unknown state id {state_id!r}; expected one of "
                         f"{CATALOG_IDS + tuple(STATE_ALIASES)}")
    if coeffs is not None and not key.endswith("~"):
        raise ValueError(f"state {state_id!r} takes no coefficients")
    return _CATALOG[key](coeffs)


def exchange_flip(v: StateVector) -> StateVector:
    """Move each amplitude to its e1<->e2 complement, index mask ^ i == mask - i."""
    return StateVector(v.n, v.amps[::-1])


def is_exchange_symmetric(v: StateVector, tol: float = 1e-12) -> bool:
    return exchange_flip(v).allclose(v, tol=tol)
