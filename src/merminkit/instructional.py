"""Local instructional-set satisfiability for Mermin devices.

Each particle carries a pair of dichotomic values (xi_a, eta_a); a device
experiment built from an s1/s2 tensor word turns into the product of the
matching values, and a commuting operator set turns into a system of exact
integer equations.  An assignment is its 2n-bit index and a monomial is the
mask of the bits it multiplies, so its sign is set by the parity of their AND.
Systems are solved by exhaustive enumeration of all 4^n assignments, so
verdicts are unconditional.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliSum, parity_sign, sigma
from . import eigenops

_CHUNK = 1 << 18  # assignments processed per numpy block
# largest absolute coefficient sum of an expression: it bounds the value v,
# and -v**3 + 28 v, the widest check below, fits in int64 for |v| < 2**21
MAX_COEFF_SUM = 1 << 20

# integer-exact checks for "poly(value) == target", poly None meaning the value
# itself; the cubics compare cleared denominators
_POLY_CHECKS = {
    None: lambda v, t: v == t,
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
    monomials: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.poly not in _POLY_CHECKS:
            raise ValueError(f"unknown polynomial {self.poly!r}")
        # the (coeff, mask) form that solve and parity_certificate read
        object.__setattr__(self, "monomials", tuple(_monomial_masks(self.expr)))


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


@dataclass(eq=False)
class SolveReport:
    """The solutions of a system as ascending ``Assignment.from_index`` indices."""

    n: int
    indices: np.ndarray

    @property
    def count(self) -> int:
        return len(self.indices)

    @property
    def solutions(self) -> list[Assignment]:
        return [Assignment.from_index(i, self.n) for i in self.indices.tolist()]

    @property
    def witness_values(self) -> dict[str, list[int]]:
        """The products of all xi and of all eta values of each solution."""
        xi_bits = self.indices & ((1 << self.n) - 1)
        return {"xi_product": parity_sign(xi_bits, self.n).tolist(),
                "eta_product": parity_sign(self.indices >> self.n, self.n).tolist()}


@dataclass
class DeviceVerdict:
    device: str
    report: SolveReport
    certificate: list[int] | None

    @property
    def explainable(self) -> bool:
        """True iff any assignment satisfies the system."""
        return self.report.count > 0


def _monomial_masks(expr: PauliSum) -> list[tuple[int, int]]:
    """Integer-coefficient monomials (coeff, mask); rejects I/s3 letters.

    The mask is in the ``Assignment.from_index`` layout.  Also refuses
    coefficients whose magnitudes sum above MAX_COEFF_SUM, so the int64
    evaluation and polynomial checks never wrap.
    """
    n = expr.n
    terms = list(expr.terms())
    total = sum(abs(coeff) for _, coeff in terms)
    if not total <= MAX_COEFF_SUM:
        raise ValueError(f"coefficient magnitudes sum to {total:g}, above the "
                         f"exact-evaluation limit {MAX_COEFF_SUM}")
    monomials = []
    for letters, coeff in terms:
        if any(j not in (1, 2) for j in letters):
            raise ValueError(
                "expression contains identity or s3 letters; "
                "only s1/s2 words have an instructional value"
            )
        if coeff.imag != 0 or coeff.real != round(coeff.real):
            raise ValueError(f"coefficient {coeff} is not an integer")
        mask = sum(1 << (a if j == 1 else n + a) for a, j in enumerate(letters))
        monomials.append((int(coeff.real), mask))
    return monomials


def _values(monomials, indices: np.ndarray) -> np.ndarray:
    """Value of (coeff, mask) monomials at each assignment index."""
    total = np.zeros(len(indices), dtype=np.int64)
    for coeff, mask in monomials:
        total += coeff * parity_sign(indices & mask, mask.bit_length())
    return total


def evaluate(expr: PauliSum, assignment: Assignment) -> int:
    """Value of an s1/s2 word sum under an instructional set."""
    if expr.n != assignment.n:
        raise ValueError(f"qubit counts differ: {expr.n} != {assignment.n}")
    index = np.array([assignment.to_index()], dtype=np.int64)
    return int(_values(_monomial_masks(expr), index)[0])


def solve(system: InstructionalSystem) -> SolveReport:
    """Exhaustively enumerate all 4^n assignments in lexicographic order."""
    n = system.n
    if n > 16:
        raise ValueError(f"enumeration over 4^{n} assignments refused (n > 16)")
    total = 1 << (2 * n)
    hits = []
    for start in range(0, total, _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        for eq in system.equations:
            values = _values(eq.monomials, indices)
            indices = indices[_POLY_CHECKS[eq.poly](values, eq.target)]
            if not len(indices):
                break
        hits.append(indices)
    return SolveReport(n=n, indices=np.concatenate(hits))


def parity_certificate(system: InstructionalSystem) -> list[int] | None:
    """Subset of product-form equations whose product forces +1 == -1.

    Works over GF(2) on the exponent vectors of the monomials, tracking the
    sign of the product of targets.  Returns equation indices, or None when
    no such subset exists or when some equation is not a single monomial.
    """
    rows = []
    for eq in system.equations:
        monomials = eq.monomials
        if (eq.poly is not None or eq.target not in (-1, 1)
                or len(monomials) != 1 or monomials[0][0] not in (-1, 1)):
            return None
        coeff, mask = monomials[0]
        rows.append((mask, eq.target * coeff == -1))
    # Incremental elimination, keyed by leading bit.  Each reduced row keeps
    # the equations it combines and the parity of their negative signs; the
    # first equation that reduces to zero with odd parity closes a certificate.
    reduced: dict[int, tuple[int, int, bool]] = {}
    for k, (vec, odd) in enumerate(rows):
        used = 1 << k
        while vec:
            lead = vec.bit_length() - 1
            if lead not in reduced:
                reduced[lead] = (vec, used, odd)
                break
            row_vec, row_used, row_odd = reduced[lead]
            vec, used, odd = vec ^ row_vec, used ^ row_used, odd ^ row_odd
        else:
            if odd:
                return [i for i in range(k + 1) if used >> i & 1]
    return None


# -- device catalog -----------------------------------------------------------


@functools.cache
def _build_devices() -> dict[str, InstructionalSystem]:
    """Each device is a selection of one catalog eigen-row's operators.

    An equation targets its operator's row eigenvalue.  The ``relaxed``
    operator t is checked through f3 instead, against the row eigenvalue of
    f3(t).
    """
    rows = {state_id: eigenops.catalog_basis(state_id) for state_id in eigenops.STATE_IDS}
    gammas = {state_id: dict(zip(row.operators, row.eigenvalues))
              for state_id, row in rows.items()}

    def device(state_id: str, operators, relaxed=None) -> InstructionalSystem:
        gamma = gammas[state_id]
        return InstructionalSystem(rows[state_id].state.n, [
            Equation(op, int(gamma[eigenops.f3(op)]), "f3") if op is relaxed
            else Equation(op, int(gamma[op])) for op in operators])

    u3, v31, v41 = (rows[state_id].operators for state_id in ("u3", "v31~", "v41~"))
    devices = {"u3": device("u3", u3), "u3-last3": device("u3", u3[1:]),
               "v31~": device("v31~", v31),
               "v31~-relaxed": device("v31~", v31, relaxed=v31[1]),
               "v41~": device("v41~", v41)}
    for i in (1, 2, 3, 4):
        for j in (1, 2):
            tau = eigenops.tau4_ij(i, j)
            devices[f"u4-{2 * i + j - 2}"] = device(
                "u4", [sigma(*(j,) * 4)] + [sigma(*w) for w, _ in tau.terms()])
            devices[f"v42~-{i}-{j}"] = device(
                "v42~", [sigma(1, 1, 1, 1), tau, sigma(2, 2, 2, 2)])
    return devices


def devices() -> list[str]:
    return sorted(_build_devices())


def device_system(device_id: str) -> InstructionalSystem:
    try:
        return _build_devices()[device_id]
    except KeyError:
        raise ValueError(
            f"unknown device {device_id!r}; known devices: {', '.join(devices())}"
        ) from None


def system_verdict(label: str, system: InstructionalSystem) -> DeviceVerdict:
    """Solve a system; explainable iff any assignment works."""
    return DeviceVerdict(
        device=label,
        report=solve(system),
        certificate=parity_certificate(system),
    )


def device_verdict(device_id: str) -> DeviceVerdict:
    """The verdict for a built-in device system."""
    return system_verdict(device_id, device_system(device_id))
