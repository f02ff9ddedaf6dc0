"""Commuting eigenoperator sets for GHZ and symmetrized Dicke states.

The candidate operators are linear combinations of tensor words using only
s1 and s2 letters with an even number of s2 factors; every exchange-symmetric
state is mapped by such words onto conjugate basis pairs with real phases,
which is what makes the eigenproblem a small linear system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .pauli import TOL_ALG, PauliSum, PauliWord, identity, sigma
from .states import StateVector, catalog_state, is_exchange_symmetric

TOL_RANK = 1e-9

# -- named operators ----------------------------------------------------------

# the six two-s2 words of four qubits, in candidate-word order
_TAU4_WORDS = ((1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1),
               (2, 1, 1, 2), (2, 1, 2, 1), (2, 2, 1, 1))

_TAU4_I_WORDS = {
    1: ((1, 1, 2, 2), (2, 2, 1, 1)),
    2: ((1, 2, 1, 2), (2, 1, 2, 1)),
    3: ((1, 2, 2, 1), (2, 1, 1, 2)),
}

_TAU4_IJ_WORDS = {
    (1, 1): ((1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1)),
    (1, 2): ((2, 1, 1, 2), (2, 1, 2, 1), (2, 2, 1, 1)),
    (2, 1): ((1, 1, 2, 2), (2, 1, 1, 2), (2, 1, 2, 1)),
    (2, 2): ((1, 2, 1, 2), (1, 2, 2, 1), (2, 2, 1, 1)),
    (3, 1): ((1, 2, 1, 2), (2, 1, 1, 2), (2, 2, 1, 1)),
    (3, 2): ((1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 2, 1)),
    (4, 1): ((1, 2, 2, 1), (2, 1, 2, 1), (2, 2, 1, 1)),
    (4, 2): ((1, 1, 2, 2), (1, 2, 1, 2), (2, 1, 1, 2)),
}

# Triples of two-s2 words whose product equals -s(1,1,1,1) (x list) or
# -s(2,2,2,2) (y list); the n=3 analogue is the single triple for -s(1,1,1).
GHZ3_FACTOR_WORDS = ((1, 2, 2), (2, 1, 2), (2, 2, 1))

GHZ4_FACTORIZATIONS_X = (
    ((1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1)),
    ((1, 1, 2, 2), (2, 1, 1, 2), (2, 1, 2, 1)),
    ((1, 2, 1, 2), (2, 1, 1, 2), (2, 2, 1, 1)),
    ((1, 2, 2, 1), (2, 1, 2, 1), (2, 2, 1, 1)),
)

GHZ4_FACTORIZATIONS_Y = (
    ((2, 1, 1, 2), (2, 1, 2, 1), (2, 2, 1, 1)),
    ((1, 2, 1, 2), (1, 2, 2, 1), (2, 2, 1, 1)),
    ((1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 2, 1)),
    ((1, 1, 2, 2), (1, 2, 1, 2), (2, 1, 1, 2)),
)


def word_sum(words) -> PauliSum:
    """Unit-coefficient sum of the given letter tuples."""
    return PauliSum.from_words([PauliWord(w) for w in words])


def tau3() -> PauliSum:
    return word_sum(((1, 2, 2), (2, 1, 2), (2, 2, 1)))


def tau4() -> PauliSum:
    return word_sum(_TAU4_WORDS)


def tau4_i(i: int) -> PauliSum:
    if i not in _TAU4_I_WORDS:
        raise ValueError(f"pair index must be 1..3, got {i}")
    return word_sum(_TAU4_I_WORDS[i])


def tau4_ij(i: int, j: int) -> PauliSum:
    if (i, j) not in _TAU4_IJ_WORDS:
        raise ValueError(f"no operator for (i, j) = ({i}, {j})")
    return word_sum(_TAU4_IJ_WORDS[(i, j)])


def tensor_insert(letter: int, position: int, inner: PauliSum) -> PauliSum:
    """Tensor a single-qubit letter at a 1-based position into an operator."""
    if not 1 <= position <= inner.n + 1:
        raise ValueError(f"position {position} out of range")
    words = []
    for letters, coeff in inner.terms():
        ls = list(letters)
        ls.insert(position - 1, letter)
        words.append(PauliWord(tuple(ls), coeff))
    return PauliSum.from_words(words)


# -- polynomials --------------------------------------------------------------


def f3(t: PauliSum) -> PauliSum:
    """Degree-3 polynomial (-t^3 + 7 t) / 6."""
    return (1.0 / 6.0) * (-1.0 * (t * t * t) + 7.0 * t)


def f4(t: PauliSum) -> PauliSum:
    """Degree-3 polynomial (-t^3 + 28 t) / 24."""
    return (1.0 / 24.0) * (-1.0 * (t * t * t) + 28.0 * t)


# -- candidate words and the eigenproblem -------------------------------------


def candidate_words(n: int) -> list[tuple[int, ...]]:
    """All letter patterns over {s1, s2} with an even number of s2 factors.

    Sorted lexicographically, the order ``PauliSum.terms`` uses.
    """
    return [
        letters
        for letters in product((1, 2), repeat=n)
        if sum(1 for j in letters if j == 2) % 2 == 0
    ]


@dataclass
class EigenBasis:
    """A commuting set of operators sharing one eigenvector."""

    state: StateVector
    operators: list[PauliSum]
    eigenvalues: list[float]

    def __len__(self) -> int:
        return len(self.operators)


def _rref(matrix: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form with partial pivoting; returns (rows, pivots)."""
    m = matrix.astype(complex).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        p = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[p, c]) <= tol:
            continue
        m[[r, p]] = m[[p, r]]
        m[r] = m[r] / m[r, c]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _null_space(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Kernel basis (rows), canonicalized as the RREF of the kernel space."""
    rref, pivots = _rref(matrix, tol)
    cols = matrix.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=complex)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for row, pc in enumerate(pivots):
            basis[k, pc] = -rref[row, fc]
    if len(basis):
        basis, _ = _rref(basis, tol)
    return basis


def eigen_basis(v: StateVector) -> EigenBasis:
    """Solve C v = gamma v over the span of the candidate words.

    Stacks the vectors w v as columns of a matrix A, finds all coefficient
    vectors c with A c parallel to v (kernel of A projected orthogonal to v),
    and reads each eigenvalue off as <v, A c> / <v, v>.  The returned basis is
    the reduced row-echelon form of the solution space over the candidate
    word ordering, so it is deterministic.  The solve runs on v times the
    power of two that brings its largest amplitude into [0.5, 1): that
    factor is exact, so the absolute ``TOL_RANK`` decides rank the same way
    at every scale.
    """
    top = float(np.max(np.abs(v.amps)))
    if not is_exchange_symmetric(v, tol=TOL_ALG * top):
        raise ValueError("state is not symmetric under the e1<->e2 exchange")
    if v.norm_sq == 0:
        raise ValueError("state is identically zero")
    n = v.n
    u = StateVector(n, v.amps * 2.0 ** -math.frexp(top)[1])
    words = candidate_words(n)
    a = np.column_stack([sigma(*w).apply(u).amps for w in words])
    overlap = u.amps.conj() @ a / u.norm_sq
    b = a - np.outer(u.amps, overlap)
    kernel = _null_space(b, TOL_RANK)
    # kernels of valid inputs are real spans; drop roundoff dust
    kernel = np.where(np.abs(kernel.imag) <= TOL_RANK, kernel.real, kernel)
    operators: list[PauliSum] = []
    eigenvalues: list[float] = []
    for coeff_vec in kernel:
        picked = [PauliWord(w, c) for w, c in zip(words, coeff_vec)
                  if abs(c) > TOL_ALG]
        op = PauliSum.from_words(picked) if picked else PauliSum.zero(n)
        gamma = complex(overlap @ coeff_vec)
        if abs(gamma.imag) > TOL_ALG:
            raise ValueError(f"eigenvalue {gamma} is not real")
        operators.append(op)
        eigenvalues.append(float(gamma.real))
    return EigenBasis(state=v, operators=operators, eigenvalues=eigenvalues)


def in_span(op: PauliSum, basis: EigenBasis, tol: float = 1e-9) -> bool:
    """Whether an operator lies in the coefficient span of a discovered basis."""
    words = candidate_words(basis.state.n)
    target = op.coefficient_vector(words)
    if not len(basis.operators):
        return bool(np.all(np.abs(target) <= tol))
    mat = np.array([b.coefficient_vector(words) for b in basis.operators]).T
    coeffs, residual, _, _ = np.linalg.lstsq(mat, target, rcond=None)
    return bool(np.linalg.norm(mat @ coeffs - target) <= tol)


# -- the catalog of known rows ------------------------------------------------

# hard-coded (operators, eigenvalues) rows, keyed by states.catalog_state ids
_CATALOG_ROWS = {
    "u3": lambda: ([sigma(1, 1, 1)] + [sigma(*w) for w in GHZ3_FACTOR_WORDS],
                   [1.0, -1.0, -1.0, -1.0]),
    "v31~": lambda: ([sigma(1, 1, 1), tau3()], [1.0, 1.0]),
    "u4": lambda: ([sigma(1, 1, 1, 1)] + [sigma(*w) for w in _TAU4_WORDS]
                   + [sigma(2, 2, 2, 2)], [1.0] + [-1.0] * 6 + [1.0]),
    "v41~": lambda: ([sigma(1, 1, 1, 1)] + [tau4_i(i) for i in (1, 2, 3)]
                     + [sigma(2, 2, 2, 2)], [1.0, 0.0, 0.0, 0.0, -1.0]),
    "v42~": lambda: ([sigma(1, 1, 1, 1)]
                     + [tau4_ij(i, j) for i in (1, 2, 3, 4) for j in (1, 2)]
                     + [sigma(2, 2, 2, 2)], [1.0] * 10),
}
STATE_IDS = tuple(_CATALOG_ROWS)


def catalog_basis(state_id: str, coeffs=None) -> EigenBasis:
    """The hard-coded commuting eigenoperator set for a catalog state."""
    if state_id not in _CATALOG_ROWS:
        raise ValueError(f"no catalog row for {state_id!r}; known rows: {STATE_IDS}")
    state = catalog_state(state_id, coeffs)
    ops, gammas = _CATALOG_ROWS[state_id]()
    return EigenBasis(state=state, operators=ops, eigenvalues=gammas)


# -- operator identities ------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool


def verify_identities() -> list[IdentityCheck]:
    """Check every product and polynomial identity used by the device analysis."""
    checks: list[IdentityCheck] = []

    def add(name: str, lhs: PauliSum, rhs: PauliSum) -> None:
        checks.append(IdentityCheck(name, lhs == rhs))

    s111 = sigma(1, 1, 1)
    s1111 = sigma(1, 1, 1, 1)
    s2222 = sigma(2, 2, 2, 2)

    a, b, c = (sigma(*w) for w in GHZ3_FACTOR_WORDS)
    add("s(1,1,1) == -s(1,2,2)*s(2,1,2)*s(2,2,1)", s111, -1.0 * (a * b * c))

    for words in GHZ4_FACTORIZATIONS_X:
        p, q, r = (sigma(*w) for w in words)
        name = "s(1,1,1,1) == -" + "*".join(
            "s(" + ",".join(map(str, w)) + ")" for w in words
        )
        add(name, s1111, -1.0 * (p * q * r))
    for words in GHZ4_FACTORIZATIONS_Y:
        p, q, r = (sigma(*w) for w in words)
        name = "s(2,2,2,2) == -" + "*".join(
            "s(" + ",".join(map(str, w)) + ")" for w in words
        )
        add(name, s2222, -1.0 * (p * q * r))

    prod = identity(4)
    for w in _TAU4_WORDS:
        prod = prod * sigma(*w)
    add("s(1,1,1,1)*s(2,2,2,2) == product of all six two-s2 words",
        s1111 * s2222, prod)

    add("f3(tau3) == s(1,1,1)", f3(tau3()), s111)
    for i in (1, 2, 3, 4):
        add(f"f3(tau4_{i}1) == s(1,1,1,1)", f3(tau4_ij(i, 1)), s1111)
        add(f"f3(tau4_{i}2) == s(2,2,2,2)", f3(tau4_ij(i, 2)), s2222)
    add("f4(tau4) == s(1,1,1,1) + s(2,2,2,2)", f4(tau4()), s1111 + s2222)

    add("tau4_1 + tau4_2 + tau4_3 == tau4",
        tau4_i(1) + tau4_i(2) + tau4_i(3), tau4())
    for i in (1, 2, 3, 4):
        add(f"tau4_{i}1 + tau4_{i}2 == tau4", tau4_ij(i, 1) + tau4_ij(i, 2), tau4())

    for i in (1, 2, 3):
        t = tau4_i(i)
        add(f"tau4_{i}^3 == 4*tau4_{i}", t * t * t, 4.0 * t)
        add(f"s(1,1,1,1)*s(2,2,2,2) == -1 + tau4_{i}^2/2",
            s1111 * s2222, -1.0 * identity(4) + 0.5 * (t * t))
        add(f"f3(tau4_{i}) == tau4_{i}/2", f3(t), 0.5 * t)
        add(f"f4(tau4_{i}) == tau4_{i}", f4(t), t)

    add("s(1,1,1,1) + s(2,2,2,2) == -tau4_1*tau4_2*tau4_3/4",
        s1111 + s2222, -0.25 * (tau4_i(1) * tau4_i(2) * tau4_i(3)))

    return checks
