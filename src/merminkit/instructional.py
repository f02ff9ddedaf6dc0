"""Local instructional-set satisfiability for Mermin devices.

Each particle carries a pair of dichotomic values (xi_a, eta_a); a device
experiment built from an s1/s2 tensor word turns into the product of the
matching values, and a commuting operator set turns into a system of exact
integer equations.  Systems are solved by exhaustive enumeration of all 4^n
assignments, so verdicts are unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from . import eigenops

_CHUNK = 1 << 18  # assignments processed per numpy block

# integer-exact checks for "poly(value) == target": compare cleared denominators
_POLY_CHECKS = {
    "f3": lambda v, t: -(v ** 3) + 7 * v == 6 * t,
    "f4": lambda v, t: -(v ** 3) + 28 * v == 24 * t,
}


@dataclass(frozen=True)
class Assignment:
    """One instructional set: per-qubit values xi_a, eta_a in {-1, 1}."""

    xi: tuple[int, ...]
    eta: tuple[int, ...]

    def __post_init__(self):
        if len(self.xi) != len(self.eta):
            raise ValueError("xi and eta lengths differ")
        if any(v not in (-1, 1) for v in self.xi + self.eta):
            raise ValueError("entries must be -1 or 1")

    @property
    def n(self) -> int:
        return len(self.xi)

    @classmethod
    def from_index(cls, index: int, n: int) -> "Assignment":
        # bit k of index: k < n -> xi_{k+1}, else eta_{k-n+1}; bit 0 means +1
        values = [1 - 2 * ((index >> k) & 1) for k in range(2 * n)]
        return cls(tuple(values[:n]), tuple(values[n:]))

    def to_index(self) -> int:
        index = 0
        for k, v in enumerate(self.xi + self.eta):
            if v == -1:
                index |= 1 << k
        return index


@dataclass(frozen=True)
class Equation:
    """``poly(value of expr) == target`` with value substitution xi/eta for s1/s2."""

    expr: PauliSum
    target: int
    poly: str | None = None

    def __post_init__(self):
        if self.poly is not None and self.poly not in _POLY_CHECKS:
            raise ValueError(f"unknown polynomial {self.poly!r}")
        _monomials_of(self.expr)  # validates letters and coefficients


@dataclass
class InstructionalSystem:
    n: int
    equations: list[Equation]

    def __post_init__(self):
        for eq in self.equations:
            if eq.expr.n != self.n:
                raise ValueError(
                    f"equation on {eq.expr.n} qubits in a {self.n}-qubit system"
                )


@dataclass
class SolveReport:
    solutions: list[Assignment]
    count: int
    witness_values: dict[str, list[int]] | None = None


@dataclass
class DeviceVerdict:
    device: str
    explainable: bool
    report: SolveReport
    certificate: list[int] | None


def _monomials_of(expr: PauliSum) -> list[tuple[int, tuple[int, ...]]]:
    """Integer-coefficient monomials (coeff, letters); rejects I/s3 letters."""
    monomials = []
    for letters, coeff in expr.terms():
        if any(j not in (1, 2) for j in letters):
            raise ValueError(
                "expression contains identity or s3 letters; "
                "only s1/s2 words have an instructional value"
            )
        if abs(coeff.imag) > 1e-9 or abs(coeff.real - round(coeff.real)) > 1e-9:
            raise ValueError(f"coefficient {coeff} is not an integer")
        monomials.append((int(round(coeff.real)), letters))
    return monomials


def evaluate(expr: PauliSum, assignment: Assignment) -> int:
    """Value of an s1/s2 word sum under an instructional set."""
    if expr.n != assignment.n:
        raise ValueError(f"qubit counts differ: {expr.n} != {assignment.n}")
    signs = np.array([assignment.xi + assignment.eta], dtype=np.int64)
    return int(_values_block(expr, signs, expr.n)[0])


def _values_block(expr: PauliSum, signs: np.ndarray, n: int) -> np.ndarray:
    """Vectorized evaluate over a block of assignments (rows of +-1 signs)."""
    total = np.zeros(signs.shape[0], dtype=np.int64)
    for coeff, letters in _monomials_of(expr):
        prod = np.ones(signs.shape[0], dtype=np.int64)
        for a, j in enumerate(letters):
            col = a if j == 1 else n + a
            prod *= signs[:, col]
        total += coeff * prod
    return total


def solve(system: InstructionalSystem) -> SolveReport:
    """Exhaustively enumerate all 4^n assignments in lexicographic order."""
    n = system.n
    if n > 16:
        raise ValueError(f"enumeration over 4^{n} assignments refused (n > 16)")
    total = 1 << (2 * n)
    solutions: list[Assignment] = []
    xi_prod: list[int] = []
    eta_prod: list[int] = []
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        indices = np.arange(start, stop, dtype=np.int64)
        bits = (indices[:, None] >> np.arange(2 * n)) & 1
        signs = (1 - 2 * bits).astype(np.int64)
        mask = np.ones(len(indices), dtype=bool)
        for eq in system.equations:
            values = _values_block(eq.expr, signs, n)
            if eq.poly is None:
                mask &= values == eq.target
            else:
                mask &= _POLY_CHECKS[eq.poly](values, eq.target)
            if not mask.any():
                break
        for index in indices[mask]:
            a = Assignment.from_index(int(index), n)
            solutions.append(a)
            xi_prod.append(int(np.prod(a.xi)))
            eta_prod.append(int(np.prod(a.eta)))
    return SolveReport(
        solutions=solutions,
        count=len(solutions),
        witness_values={"xi_product": xi_prod, "eta_product": eta_prod},
    )


def parity_certificate(system: InstructionalSystem) -> list[int] | None:
    """Subset of product-form equations whose product forces +1 == -1.

    Works over GF(2) on the exponent vectors of the monomials, tracking the
    sign of the product of targets.  Returns equation indices, or None when
    no such subset exists or when some equation is not a single monomial.
    """
    n = system.n
    exponents = []
    negatives = []
    for eq in system.equations:
        monomials = _monomials_of(eq.expr)
        if eq.poly is not None or len(monomials) != 1 or monomials[0][0] not in (-1, 1):
            return None
        if eq.target not in (-1, 1):
            return None
        coeff, letters = monomials[0]
        vec = np.zeros(2 * n, dtype=np.int8)
        for a, j in enumerate(letters):
            vec[a if j == 1 else n + a] ^= 1
        exponents.append(vec)
        negatives.append(1 if eq.target * coeff == -1 else 0)
    e = np.array(exponents, dtype=np.int8)
    t = np.array(negatives, dtype=np.int8)
    # kernel of e^T over GF(2): subsets whose combined exponents all vanish
    m = e.T.copy() % 2
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if len(hits) == 0:
            continue
        p = r + int(hits[0])
        m[[r, p]] = m[[p, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    for fc in free:
        x = np.zeros(cols, dtype=np.int8)
        x[fc] = 1
        for row, pc in enumerate(pivots):
            x[pc] = m[row, fc]
        if int(x @ t) % 2 == 1:
            return [int(i) for i in np.nonzero(x)[0]]
    return None


# -- device catalog -----------------------------------------------------------


def _eq(words_or_sum, target: int, poly: str | None = None) -> Equation:
    if isinstance(words_or_sum, PauliSum):
        expr = words_or_sum
    else:
        expr = eigenops.word_sum(words_or_sum)
    return Equation(expr=expr, target=target, poly=poly)


def _sigma_eq(letters: tuple[int, ...], target: int) -> Equation:
    return _eq((letters,), target)


def _build_devices() -> dict[str, InstructionalSystem]:
    devices: dict[str, InstructionalSystem] = {}

    ghz3_eqs = [_sigma_eq((1, 1, 1), 1)] + [
        _sigma_eq(w, -1) for w in eigenops.GHZ3_FACTOR_WORDS
    ]
    devices["u3"] = InstructionalSystem(3, ghz3_eqs)
    devices["u3-last3"] = InstructionalSystem(3, ghz3_eqs[1:])

    corners = {0: (1, 1, 1, 1), 1: (2, 2, 2, 2)}
    for k in range(8):
        corner = corners[k % 2]
        factors = (eigenops.GHZ4_FACTORIZATIONS_X if k % 2 == 0
                   else eigenops.GHZ4_FACTORIZATIONS_Y)[k // 2]
        eqs = [_sigma_eq(corner, 1)] + [_sigma_eq(w, -1) for w in factors]
        devices[f"u4-{k + 1}"] = InstructionalSystem(4, eqs)

    devices["v31~"] = InstructionalSystem(
        3, [_sigma_eq((1, 1, 1), 1), _eq(eigenops.tau3(), 1)]
    )
    devices["v31~-relaxed"] = InstructionalSystem(
        3, [_sigma_eq((1, 1, 1), 1), _eq(eigenops.tau3(), 1, poly="f3")]
    )

    devices["v41~"] = InstructionalSystem(
        4,
        [_sigma_eq((1, 1, 1, 1), 1)]
        + [_eq(eigenops.tau4_i(i), 0) for i in (1, 2, 3)]
        + [_sigma_eq((2, 2, 2, 2), -1)],
    )

    for i in (1, 2, 3, 4):
        for j in (1, 2):
            devices[f"v42~-{i}-{j}"] = InstructionalSystem(
                4,
                [
                    _sigma_eq((1, 1, 1, 1), 1),
                    _eq(eigenops.tau4_ij(i, j), 1),
                    _sigma_eq((2, 2, 2, 2), 1),
                ],
            )
    return devices


_DEVICES = _build_devices()


def devices() -> list[str]:
    return sorted(_DEVICES)


def device_system(device_id: str) -> InstructionalSystem:
    try:
        return _DEVICES[device_id]
    except KeyError:
        raise ValueError(
            f"unknown device {device_id!r}; known devices: {', '.join(devices())}"
        ) from None


def system_verdict(label: str, system: InstructionalSystem) -> DeviceVerdict:
    """Solve a system; explainable iff any assignment works."""
    report = solve(system)
    return DeviceVerdict(
        device=label,
        explainable=report.count > 0,
        report=report,
        certificate=parity_certificate(system),
    )


def device_verdict(device_id: str) -> DeviceVerdict:
    """The verdict for a built-in device system."""
    return system_verdict(device_id, device_system(device_id))
