"""Commuting eigenoperator sets for GHZ and symmetrized Dicke states.

The candidate operators are linear combinations of tensor words using only
s1 and s2 letters with an even number of s2 factors; every exchange-symmetric
state is mapped by such words onto conjugate basis pairs with real phases,
which is what makes the eigenproblem a small linear system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product, starmap

import numpy as np

from .pauli import TOL_ALG, PauliSum, PauliWord, identity, render_word, sigma, word_key
from .states import (StateVector, catalog_state, check_qubit_count,
                     is_exchange_symmetric, unit_scaled)

TOL_RANK = 1e-9

# -- named operators ----------------------------------------------------------

# the six two-s2 words of four qubits, in candidate-word order
_TAU4_WORDS = ((1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1),
               (2, 1, 1, 2), (2, 1, 2, 1), (2, 2, 1, 1))

# tau4_i: a word of the first three and its s1<->s2 complement
_TAU4_I_WORDS = {i: (w, tuple(3 - j for j in w))
                 for i, w in enumerate(_TAU4_WORDS[:3], start=1)}

# tau4_ij: the words with letter j at qubit i, in candidate-word order
_TAU4_IJ_WORDS = {(i, j): tuple(w for w in _TAU4_WORDS if w[i - 1] == j)
                  for i in (1, 2, 3, 4) for j in (1, 2)}

# The words of tau3, whose product is -s(1,1,1).  The n=4 analogues are the
# words of each tau4_ij, whose product is -s(j,j,j,j).
GHZ3_FACTOR_WORDS = ((1, 2, 2), (2, 1, 2), (2, 2, 1))


def word_sum(words) -> PauliSum:
    """Unit-coefficient sum of the given letter tuples."""
    return PauliSum.from_words([PauliWord(w) for w in words])


def tau3() -> PauliSum:
    return word_sum(GHZ3_FACTOR_WORDS)


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
    p = position - 1
    return PauliSum.from_words([PauliWord(ls[:p] + (letter,) + ls[p:], coeff)
                                for ls, coeff in inner.terms()])


# -- polynomials --------------------------------------------------------------


# the cubics f(t) = (a t - t^3) / b of the device analysis, by name: (a, b)
CUBICS = {"f3": (7, 6), "f4": (28, 24)}


def _cubic(name: str, t: PauliSum) -> PauliSum:
    a, b = CUBICS[name]
    return (1.0 / b) * (-1.0 * (t * t * t) + a * t)


def f3(t: PauliSum) -> PauliSum:
    """The cubic ``CUBICS["f3"]`` of t."""
    return _cubic("f3", t)


def f4(t: PauliSum) -> PauliSum:
    """The cubic ``CUBICS["f4"]`` of t."""
    return _cubic("f4", t)


# -- candidate words and the eigenproblem -------------------------------------


def candidate_words(n: int) -> list[tuple[int, ...]]:
    """All letter patterns over {s1, s2} with an even number of s2 factors.

    Sorted lexicographically, the order ``PauliSum.terms`` uses.
    """
    return [
        letters
        for letters in product((1, 2), repeat=n)
        if letters.count(2) % 2 == 0
    ]


@dataclass(frozen=True)
class EigenBasis:
    """A commuting set of operators sharing one eigenvector; frozen for ``sign_rows``."""

    state: StateVector
    operators: list[PauliSum]
    eigenvalues: list[float]

    def __len__(self) -> int:
        return len(self.operators)

    @functools.cached_property
    def sign_rows(self) -> np.ndarray:
        """The state's first support sign row, then each later one's half difference from it."""
        signs = _word_signs(self.state.n)[:1 << (self.state.n - 1)][_support(self.state)]
        rows = np.concatenate((signs[:1], (signs[1:] - signs[0]) // 2))
        rows.setflags(write=False)
        return rows


def _rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Exact reduced row-echelon form of linearly independent integer rows.

    Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968): each step
    divides by the previous pivot exactly, so every entry stays an integer and
    every pivot ends equal to the last one, here made positive.  Returns
    (rows, pivots).
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    prev, c = 1, 0
    for r in range(len(m)):
        while not any(row[c] for row in m[r:]):
            c += 1
        p = next(i for i in range(r, len(m)) if m[i][c])
        m[r], m[p] = m[p], m[r]
        top, piv = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r:
                m[i] = [(piv * a - row[c] * b) // prev for a, b in zip(row, top)]
        pivots.append(c)
        prev, c = piv, c + 1
    if prev < 0:
        m = [[-a for a in row] for row in m]
    return m, pivots


@functools.cache
def _word_signs(n: int) -> np.ndarray:
    """Read-only int chi[k, w] = +-1 with w e_k = chi[k, w] e_~k, from ``PauliSum.apply``.

    Rows are basis indices k, columns the ``candidate_words(n)``.
    """
    ones = StateVector(n, np.ones(1 << n))
    chi = np.column_stack([sigma(*w).apply(ones).amps[::-1].real
                           for w in candidate_words(n)]).astype(int)
    chi.setflags(write=False)
    return chi


@functools.cache
def _candidate_keys(n: int) -> tuple[tuple[int, int], ...]:
    """The ``(x, z)`` keys of ``candidate_words(n)``, in that order."""
    return tuple(map(word_key, candidate_words(n)))


def _support(v: StateVector) -> np.ndarray:
    """The pairs {k, ~k} above ``TOL_RANK`` in ``unit_scaled(v)``, an exact rescale."""
    check_qubit_count(v.n)
    u = unit_scaled(v)
    if not is_exchange_symmetric(u, tol=TOL_ALG * float(np.max(np.abs(u.amps)))):
        raise ValueError("state is not symmetric under the e1<->e2 exchange")
    big = np.abs(u.amps) > TOL_RANK
    return (big | big[::-1])[:1 << (v.n - 1)]


def eigen_basis(v: StateVector) -> EigenBasis:
    """Solve C v = gamma v over the span of the candidate words.

    With v[~k] = v[k] and w e_k = chi[k, w] e_~k (``_word_signs``), C = sum
    c_w w fixes v with eigenvalue gamma exactly when sum_w c_w chi[k, w] =
    gamma at every k in the support of v, so a row depends on the support
    alone.  One row per conjugate pair {k, ~k} leaves a Hadamard matrix H
    (H H^T = 2^(n-1) I), so the solutions are c = H^T y with y = gamma on the
    support and free off it: the span of the summed support rows (gamma = 1)
    and the rows off the support (gamma = 0).  The basis is the exact RREF of
    those integer rows over the candidate word order, so it is deterministic.
    """
    on = _support(v)
    words = candidate_words(v.n)
    signs = _word_signs(v.n)[:len(on)]
    rows, pivots = _rref([(on @ signs).tolist()] + signs[~on].tolist())
    first = signs[on][0].tolist()
    operators: list[PauliSum] = []
    eigenvalues: list[float] = []
    for row, p in zip(rows, pivots):
        operators.append(PauliSum.from_words(
            PauliWord(w, c / row[p]) for w, c in zip(words, row) if c))
        eigenvalues.append(sum(s * c for s, c in zip(first, row)) / row[p])
    return EigenBasis(state=v, operators=operators, eigenvalues=eigenvalues)


def _eigenvalues(basis: EigenBasis, ops):
    """Yield each operator's eigenvalue on ``basis.state``, or None where it does not fix it.

    The test of ``eigen_basis``, exact: sign rows differ by 0 or +-2, so the
    ``math.fsum`` (Shewchuk, DCG 18, 1997) of each half difference over c * 2^-e,
    in [-2, 2) so that no sum overflows, is zero exactly when the exact sum is.
    An operator of another qubit count, the zero operator too, fixes no state,
    and neither does one with a NaN or infinite coefficient.
    """
    n, rows, keys = basis.state.n, basis.sign_rows, _candidate_keys(basis.state.n)
    rests = [op.keyed_terms() for op in ops]  # what is left is not a candidate word
    parts = np.array([[r.pop(k, 0j) for k in keys] for r in rests]).view(float)
    largest = np.abs(parts).max(axis=1)
    bad = ~np.isfinite(largest)  # a NaN or infinite coefficient
    np.copyto(parts, 0.0, where=bad[:, None])  # their sums are not read; zeros keep them quiet
    exps = np.frexp(largest)[1] - 1
    terms = rows * np.ldexp(parts, -exps[:, None]).view(complex)[:, None]
    for op, rest, b, e, op_terms in zip(ops, rests, bad.tolist(), exps.tolist(),
                                        terms.view(float).tolist()):
        sums = [complex(math.fsum(row[::2]), math.fsum(row[1::2])) for row in op_terms]
        fixes = op.n == n and not rest and not b and not any(sums[1:])
        yield sums[0] * 2.0 ** e if fixes else None


def in_span(op: PauliSum, basis: EigenBasis) -> bool:
    """Whether op fixes ``basis.state``: lies in the span of its eigen-rows, exactly."""
    return next(_eigenvalues(basis, [op])) is not None


# -- the catalog of known rows ------------------------------------------------

_CATALOG_ROWS = {
    "u3": lambda: [sigma(1, 1, 1)] + [sigma(*w) for w in GHZ3_FACTOR_WORDS],
    "v31~": lambda: [sigma(1, 1, 1), tau3()],
    "u4": lambda: [sigma(*w) for w in ((1, 1, 1, 1), *_TAU4_WORDS, (2, 2, 2, 2))],
    "v41~": lambda: [sigma(1, 1, 1, 1), *map(tau4_i, (1, 2, 3)), sigma(2, 2, 2, 2)],
    "v42~": lambda: [sigma(1, 1, 1, 1), *starmap(tau4_ij, _TAU4_IJ_WORDS),
                     sigma(2, 2, 2, 2)],
}
STATE_IDS = tuple(_CATALOG_ROWS)


def catalog_basis(state_id: str, coeffs=None) -> EigenBasis:
    """The hard-coded commuting eigenoperator set for a catalog state."""
    if state_id not in _CATALOG_ROWS:
        raise ValueError(f"no catalog row for {state_id!r}; known rows: {STATE_IDS}")
    state = catalog_state(state_id, coeffs)
    basis = EigenBasis(state, _CATALOG_ROWS[state_id](), [])
    basis.eigenvalues.extend(g.real for g in _eigenvalues(basis, basis.operators))
    return basis


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

    factorizations = [((1, 1, 1), GHZ3_FACTOR_WORDS)] + [
        ((j,) * 4, _TAU4_IJ_WORDS[(i, j)]) for j in (1, 2) for i in (1, 2, 3, 4)]
    for ghz, words in factorizations:
        p, q, r = (sigma(*w) for w in words)
        add(f"{render_word(ghz)} == -" + "*".join(map(render_word, words)),
            sigma(*ghz), -1.0 * (p * q * r))

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
