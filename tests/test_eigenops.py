"""Tests for eigenoperator discovery, the catalog rows, and the identities."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from merminkit import cli
from merminkit import eigenops as eo
from merminkit.pauli import PauliSum, identity, render_sum, sigma
from merminkit.states import StateVector, dicke, sym_coeff_count

from conftest import kron_word, random_nonzero_coeffs, sum_matrix

# dimension of the full eigenoperator space found for each catalog state;
# the balanced four-qubit row lists ten operators but they satisfy the
# pair-sum relations, so the span (and hence the solver output) is rank 6
EXPECTED_DIMS = {"u3": 4, "v31~": 2, "u4": 8, "v41~": 5, "v42~": 6}


def span_coefficients(basis, op, tol=1e-9):
    words = eo.candidate_words(basis.state.n)
    mat = np.array([b.coefficient_vector(words) for b in basis.operators]).T
    target = op.coefficient_vector(words)
    coeffs, *_ = np.linalg.lstsq(mat, target, rcond=None)
    assert np.linalg.norm(mat @ coeffs - target) <= tol, render_sum(op)
    return coeffs


class TestCandidateWords:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_and_parity(self, n):
        words = eo.candidate_words(n)
        assert len(words) == 1 << (n - 1)
        for w in words:
            assert all(j in (1, 2) for j in w)
            assert w.count(2) % 2 == 0
        assert words == sorted(words)


class TestCatalogRows:
    @pytest.mark.parametrize("state_id", eo.STATE_IDS)
    def test_operators_fix_state_with_listed_eigenvalues(self, state_id):
        basis = eo.catalog_basis(state_id)
        v = basis.state
        for op, gamma in zip(basis.operators, basis.eigenvalues):
            out = op.apply(v)
            assert np.max(np.abs(out.amps - gamma * v.amps)) == 0.0

    @pytest.mark.parametrize("state_id", eo.STATE_IDS)
    def test_operators_pairwise_commute(self, state_id):
        ops = eo.catalog_basis(state_id).operators
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                assert a.commutes(b)

    @pytest.mark.parametrize("state_id", ["u3", "v31~", "u4", "v41~"])
    def test_rows_linearly_independent(self, state_id):
        basis = eo.catalog_basis(state_id)
        words = eo.candidate_words(basis.state.n)
        mat = np.array([op.coefficient_vector(words) for op in basis.operators])
        assert np.linalg.matrix_rank(mat) == len(basis.operators)

    def test_balanced_row_rank_is_six(self):
        # the ten listed operators obey tau4_i1 + tau4_i2 == tau4 for every i
        basis = eo.catalog_basis("v42~")
        words = eo.candidate_words(4)
        mat = np.array([op.coefficient_vector(words) for op in basis.operators])
        assert np.linalg.matrix_rank(mat) == 6

    def test_eigenvalue_lists(self):
        assert eo.catalog_basis("u3").eigenvalues == [1, -1, -1, -1]
        assert eo.catalog_basis("v31~").eigenvalues == [1, 1]
        assert eo.catalog_basis("u4").eigenvalues == [1, -1, -1, -1, -1, -1, -1, 1]
        assert eo.catalog_basis("v41~").eigenvalues == [1, 0, 0, 0, -1]
        assert eo.catalog_basis("v42~").eigenvalues == [1] * 10

    def test_random_coefficients_keep_eigenvalues(self, rng):
        for state_id, (n, m) in (("v31~", (3, 1)), ("v41~", (4, 1)),
                                 ("v42~", (4, 2))):
            for k in range(20):
                coeffs = random_nonzero_coeffs(
                    rng, sym_coeff_count(n, m), complex_valued=(k % 2 == 0)
                )
                basis = eo.catalog_basis(state_id, coeffs)
                for op, gamma in zip(basis.operators, basis.eigenvalues):
                    out = op.apply(basis.state)
                    assert np.max(np.abs(out.amps - gamma * basis.state.amps)) == 0.0

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            eo.catalog_basis("u5")


class TestEigenBasisSolver:
    @pytest.mark.parametrize("state_id", eo.STATE_IDS)
    def test_dimension(self, state_id):
        basis = eo.eigen_basis(eo.catalog_state(state_id))
        assert len(basis) == EXPECTED_DIMS[state_id]

    @pytest.mark.parametrize("state_id", eo.STATE_IDS)
    def test_solutions_satisfy_eigen_equation(self, state_id):
        basis = eo.eigen_basis(eo.catalog_state(state_id))
        v = basis.state
        for op, gamma in zip(basis.operators, basis.eigenvalues):
            out = op.apply(v)
            assert np.max(np.abs(out.amps - gamma * v.amps)) < 1e-12

    @pytest.mark.parametrize("state_id", eo.STATE_IDS)
    def test_span_contains_catalog_with_matching_eigenvalues(self, state_id):
        basis = eo.eigen_basis(eo.catalog_state(state_id))
        catalog = eo.catalog_basis(state_id)
        for op, gamma in zip(catalog.operators, catalog.eigenvalues):
            assert eo.in_span(op, basis)
            coeffs = span_coefficients(basis, op)
            combined = float(np.real(coeffs @ np.array(basis.eigenvalues)))
            assert abs(combined - gamma) < 1e-9

    def test_ghz3_basis_is_the_word_basis(self):
        basis = eo.eigen_basis(eo.catalog_state("u3"))
        assert [render_sum(op) for op in basis.operators] == [
            "s(1,1,1)", "s(1,2,2)", "s(2,1,2)", "s(2,2,1)"
        ]
        assert basis.eigenvalues == [1, -1, -1, -1]

    def test_w_family_basis(self, rng):
        for coeffs in ((1, 1, 1), (1, 2, 5), tuple(random_nonzero_coeffs(rng, 3))):
            basis = eo.eigen_basis(eo.catalog_state("v31~", coeffs))
            assert len(basis) == 2
            assert [render_sum(op) for op in basis.operators] == [
                "s(1,1,1)", "s(1,2,2) + s(2,1,2) + s(2,2,1)"
            ]
            assert basis.eigenvalues == pytest.approx([1, 1], abs=1e-12)

    def test_dimension_stable_over_random_coefficients(self, rng):
        for state_id, (n, m) in (("v31~", (3, 1)), ("v41~", (4, 1)),
                                 ("v42~", (4, 2))):
            for _ in range(5):
                coeffs = random_nonzero_coeffs(rng, sym_coeff_count(n, m))
                basis = eo.eigen_basis(eo.catalog_state(state_id, coeffs))
                assert len(basis) == EXPECTED_DIMS[state_id]

    def test_pairwise_commute(self):
        for state_id in eo.STATE_IDS:
            ops = eo.eigen_basis(eo.catalog_state(state_id)).operators
            for i, a in enumerate(ops):
                for b in ops[i + 1:]:
                    assert a.commutes(b)

    def test_rejects_non_symmetric_state(self):
        with pytest.raises(ValueError):
            eo.eigen_basis(dicke(4, 1))


@pytest.mark.parametrize("n", [3, 4])
def test_word_signs_match_the_kronecker_oracle(n):
    # every candidate word sends e_k to chi[k, w] e_~k, with ~k = all bits flipped
    chi = eo._word_signs(n)
    assert not chi.flags.writeable
    flip = (1 << n) - 1
    for col, w in enumerate(eo.candidate_words(n)):
        matrix = kron_word(w)
        for k in range(1 << n):
            expected = np.zeros(1 << n, dtype=complex)
            expected[flip ^ k] = chi[k, col]
            assert np.array_equal(matrix[:, k], expected), (w, k)


def _random_symmetric_state(rng, n):
    """Complex amplitudes on a random nonempty set of conjugate pairs {k, ~k}."""
    half = 1 << (n - 1)
    reps = [k for k in range(half) if rng.random() < 0.5] or [int(rng.integers(half))]
    amps = np.zeros(1 << n, dtype=complex)
    for k, c in zip(reps, random_nonzero_coeffs(rng, len(reps))):
        amps[k] = amps[(1 << n) - 1 - k] = c
    return StateVector(n, amps)


def test_eigen_basis_depends_on_the_support_alone():
    rng = np.random.default_rng(20261018)
    for trial in range(200):
        v = _random_symmetric_state(rng, 3 + trial % 2)
        support = StateVector(v.n, (v.amps != 0).astype(float))
        basis, reference = eo.eigen_basis(v), eo.eigen_basis(support)
        assert basis.operators == reference.operators, trial
        assert basis.eigenvalues == reference.eigenvalues, trial


def _fraction_rref(rows):
    """Gauss-Jordan over Fractions; returns the nonzero rows and their pivots."""
    m = [[Fraction(a) for a in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _exact_kernel(matrix, cols):
    """RREF of the kernel of an integer matrix, in exact rationals."""
    rref, pivots = _fraction_rref(matrix)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        row = [Fraction(0)] * cols
        row[fc] = Fraction(1)
        for r, pc in zip(rref, pivots):
            row[pc] = -r[fc]
        basis.append(row)
    return _fraction_rref(basis)[0]


def test_integer_rref_matches_the_fraction_rref():
    # full-row-rank integer rows, some with zero columns to skip
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 200:
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        m = rng.integers(-3, 4, size=(rows, cols))
        m[:, rng.random(cols) < 0.2] = 0
        if np.linalg.matrix_rank(m) < rows:
            continue
        reduced, pivots = eo._rref(m.tolist())
        expected, expected_pivots = _fraction_rref(m.tolist())
        assert pivots == expected_pivots
        assert all(row[p] > 0 for row, p in zip(reduced, pivots))
        assert [[Fraction(a, row[p]) for a in row]
                for row, p in zip(reduced, pivots)] == expected
        checked += 1


def _pair_supports():
    """Every exchange-symmetric 0/1 state at n = 3, 4: one per nonempty pair set."""
    for n in (3, 4):
        half = 1 << (n - 1)
        for mask in range(1, 1 << half):
            amps = np.zeros(1 << n)
            for k in range(half):
                if mask >> k & 1:
                    amps[k] = amps[(1 << n) - 1 - k] = 1
            yield StateVector(n, amps), bin(mask).count("1")


_SUPPORTS = list(_pair_supports())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pair_sign_rows_form_a_hadamard_matrix(n):
    # rows k and ~k of the sign table agree, and the first half is H with
    # H H^T = 2^(n-1) I, so the rows that eigen_basis reduces are independent
    chi = eo._word_signs(n)
    half = 1 << (n - 1)
    assert np.array_equal(chi[:half], chi[::-1][:half])
    h = chi[:half]
    assert np.array_equal(h @ h.T, half * np.eye(half, dtype=int))


def test_eigen_basis_equals_the_exact_kernel_on_every_support():
    assert [sum(1 for v, _ in _SUPPORTS if v.n == n) for n in (3, 4)] == [15, 255]
    for v, size in _SUPPORTS:
        basis = eo.eigen_basis(v)
        words = eo.candidate_words(v.n)
        assert len(basis) == (1 << (v.n - 1)) - size + 1
        chi = eo._word_signs(v.n)[v.amps != 0]
        kernel = _exact_kernel((chi[1:] - chi[0]).tolist(), len(words))
        assert [op.coefficient_vector(words).tolist() for op in basis.operators] == [
            [complex(float(a)) for a in row] for row in kernel]
        assert basis.eigenvalues == [
            float(sum(s * a for s, a in zip(chi[0].tolist(), row))) for row in kernel]


def test_zero_eigenvalues_are_positive_zero():
    zeros = [g for v, _ in _SUPPORTS for g in eo.eigen_basis(v).eigenvalues if g == 0]
    assert zeros
    assert all(math.copysign(1.0, g) == 1.0 for g in zeros)


@pytest.mark.parametrize("state_id,nm", [("v31~", (3, 1)), ("v41~", (4, 1)),
                                        ("v42~", (4, 2))])
def test_eigenops_cli_never_prints_negative_zero(capsys, state_id, nm):
    # tiny pair weights fall below TOL_RANK and shrink the support
    rng = np.random.default_rng(20261018)
    count = sym_coeff_count(*nm)
    for _ in range(12):
        coeffs = [float(rng.choice([1e-12, 0.5, -1.5, 2.0])) for _ in range(count)]
        argv = ["eigenops", "--state", state_id,
                "--coeffs=" + ",".join(map(repr, coeffs))]
        assert cli.main(argv) == 0
        assert "-0.0" not in capsys.readouterr().out, argv


@pytest.mark.parametrize("small", [(1e-9 + 3e-13, 1e-9 - 3e-13),
                                   (1e-9 - 3e-13, 1e-9 + 3e-13)])
def test_a_pair_counts_when_either_amplitude_clears_the_rank_threshold(small):
    # the two amplitudes pass the exchange check at TOL_ALG * max, but only
    # one of them is above TOL_RANK, in either half of the basis
    amps = np.zeros(16)
    amps[0] = amps[15] = 0.75
    amps[1], amps[14] = small
    reference = np.zeros(16)
    reference[[0, 15, 1, 14]] = 0.75
    basis, expected = eo.eigen_basis(StateVector(4, amps)), eo.eigen_basis(
        StateVector(4, reference))
    assert basis.operators == expected.operators
    assert basis.eigenvalues == expected.eigenvalues


# rank decisions must not move when the state is rescaled or rephased
_SCALED_STATES = [("u3", None), ("u4", None), ("v31~", (1, 2 + 1j, 5)),
                  ("v41~", (1, 2, 3, 4)), ("v42~", (1, 2, 3)), ("v42~", (1, -2, 0.5j))]


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("state_id,coeffs", _SCALED_STATES)
def test_eigen_basis_invariant_under_scale_and_phase(state_id, coeffs, scale):
    v = eo.catalog_state(state_id, coeffs)
    reference = eo.eigen_basis(v)
    assert len(reference) == EXPECTED_DIMS[state_id]
    for phi in (0.0, 0.7, np.pi / 2, 2.5, np.pi):
        scaled = StateVector(v.n, scale * np.exp(1j * phi) * v.amps)
        basis = eo.eigen_basis(scaled)
        assert len(basis) == len(reference)
        assert np.max(np.abs(np.subtract(basis.eigenvalues,
                                         reference.eigenvalues))) <= 1e-12


@pytest.mark.parametrize("scale", [1e-13, 1e-12, 1e-8, 1.0, 1e4, 1e12])
def test_non_symmetric_state_rejected_at_every_scale(scale):
    with pytest.raises(ValueError):
        eo.eigen_basis(StateVector(4, scale * dicke(4, 1).amps))


class TestTauOperators:
    def test_factorizability(self):
        # each three-word operator is a single letter on one qubit tensored
        # with a three-qubit tau on the rest: the plain one for the s1 slot,
        # its s1<->s2 exchange partner for the s2 slot
        tau3_swapped = sigma(2, 1, 1) + sigma(1, 2, 1) + sigma(1, 1, 2)
        for i in (1, 2, 3, 4):
            assert eo.tau4_ij(i, 1) == eo.tensor_insert(1, i, eo.tau3())
            assert eo.tau4_ij(i, 2) == eo.tensor_insert(2, i, tau3_swapped)

    def test_tau4_is_all_two_s2_words(self):
        words = [w for w in eo.candidate_words(4) if w.count(2) == 2]
        assert eo.tau4() == eo.word_sum(words)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            eo.tau4_i(4)
        with pytest.raises(ValueError):
            eo.tau4_ij(5, 1)
        with pytest.raises(ValueError):
            eo.tensor_insert(1, 9, eo.tau3())

    def test_tensor_insert_accepts_positions_one_to_n_plus_one(self):
        inner = sigma(1, 2, coeff=3.0)
        assert eo.tensor_insert(3, 1, inner) == sigma(3, 1, 2, coeff=3.0)
        assert eo.tensor_insert(3, 3, inner) == sigma(1, 2, 3, coeff=3.0)
        for position in (0, 4):
            with pytest.raises(ValueError, match=f"^position {position} out of range$"):
                eo.tensor_insert(3, position, inner)


class TestPolynomials:
    def test_f3_of_tau3(self):
        assert eo.f3(eo.tau3()) == sigma(1, 1, 1)

    def test_f3_f4_of_tau4_i(self):
        for i in (1, 2, 3):
            assert eo.f3(eo.tau4_i(i)) == 0.5 * eo.tau4_i(i)
            assert eo.f4(eo.tau4_i(i)) == eo.tau4_i(i)

    def test_f4_of_tau4(self):
        assert eo.f4(eo.tau4()) == sigma(1, 1, 1, 1) + sigma(2, 2, 2, 2)

    def test_cubics_of_a_multiple_of_the_identity(self):
        # f(c I) = (a c - c^3) / b I for each (a, b) of the one table
        assert eo.CUBICS == {"f3": (7, 6), "f4": (28, 24)}
        for f, (a, b) in ((eo.f3, eo.CUBICS["f3"]), (eo.f4, eo.CUBICS["f4"])):
            for c in (1.0, 2.0, -3.0, 4.0):
                assert f(c * identity(3)) == ((a * c - c ** 3) / b) * identity(3)

    def test_f3_on_factorizable_operators(self):
        for i in (1, 2, 3, 4):
            assert eo.f3(eo.tau4_ij(i, 1)) == sigma(1, 1, 1, 1)
            assert eo.f3(eo.tau4_ij(i, 2)) == sigma(2, 2, 2, 2)


class TestIdentitySuite:
    def test_all_identities_pass(self):
        checks = eo.verify_identities()
        failed = [c.name for c in checks if not c.ok]
        assert failed == []
        assert len(checks) == 38

    def test_square_identity_has_positive_sign(self):
        two_s2 = [w for w in eo.candidate_words(4) if w.count(2) == 2]
        prod = sigma(0, 0, 0, 0)
        for w in two_s2:
            prod = prod * sigma(*w)
        assert prod == sigma(1, 1, 1, 1) * sigma(2, 2, 2, 2)

    def test_identities_match_dense_oracle(self):
        # spot-check one product identity through the Kronecker route
        lhs = sum_matrix(sigma(1, 1, 1))
        rhs = -(sum_matrix(sigma(1, 2, 2)) @ sum_matrix(sigma(2, 1, 2))
                @ sum_matrix(sigma(2, 2, 1)))
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("scale", [1e-200, 1e-310, 5e-324, 1e200, 1e300])
def test_eigen_basis_at_scales_where_the_squared_norm_fails(scale):
    # the squared norm underflows to 0 or overflows to inf at these scales
    reference = eo.eigen_basis(eo.catalog_state("v41~"))
    basis = eo.eigen_basis(eo.catalog_state("v41~", [scale] * 4))
    assert basis.operators == reference.operators
    assert basis.eigenvalues == reference.eigenvalues


@pytest.mark.parametrize("extra", [sigma(3, 3, 3), sigma(0, 0, 0), sigma(1, 1, 2)])
def test_in_span_refuses_terms_outside_the_candidate_words(extra):
    basis = eo.eigen_basis(eo.catalog_state("u3"))
    assert eo.in_span(sigma(1, 1, 1), basis)
    assert not eo.in_span(sigma(1, 1, 1) + extra, basis)


# -- in_span and the catalog eigenvalues, read off the sign table --------------


@pytest.mark.parametrize("factor", [1e6, 1e12, 2.0 ** -40, 1j])
@pytest.mark.parametrize("state_id", eo.STATE_IDS)
def test_in_span_holds_at_every_scale_and_phase(state_id, factor):
    solved = eo.eigen_basis(eo.catalog_state(state_id))
    catalog = eo.catalog_basis(state_id)
    for op in catalog.operators:
        assert eo.in_span(factor * op, solved), render_sum(op)
        assert eo.in_span(factor * op, catalog), render_sum(op)


def test_a_tiny_multiple_of_an_outside_operator_stays_outside():
    basis = eo.eigen_basis(eo.catalog_state("v31~"))
    assert not eo.in_span(sigma(1, 2, 2), basis)
    assert not eo.in_span(1e-10 * sigma(1, 2, 2), basis)


@pytest.mark.parametrize("c", [1e-13, 2.0 ** -1000, 5e-324, 1e300])
def test_in_span_answers_alike_at_every_coefficient_scale(c):
    # 1e-13 and 2^-1000 were once pruned to the zero operator, which is in span
    basis = eo.catalog_basis("v31~")
    assert not eo.in_span(c * sigma(1, 2, 2), basis)
    assert eo.in_span(c * eo.tau3(), basis)


def _in_exact_span(op, basis, rank):
    """Whether op adds nothing to the rank of basis.operators, over Fractions."""
    words = sorted({ls for s in (op, *basis.operators) for ls, _ in s.terms()})
    assert all(b.coefficient(w).imag == 0 for b in basis.operators for w in words)
    rows = [[Fraction(b.coefficient(w).real) for w in words] for b in basis.operators]
    extra = [[Fraction(part(op.coefficient(w))) for w in words]
             for part in (lambda c: c.real, lambda c: c.imag)]
    return len(_fraction_rref(rows + extra)[1]) == rank


def _span_corpus(rng, basis):
    """Integer combinations of the rows, each plus one candidate word, every word."""
    words = eo.candidate_words(basis.state.n)
    combos = []
    for _ in range(3):
        op = 0.0 * basis.operators[0]
        for k, row in zip(rng.integers(-3, 4, len(basis)), basis.operators):
            op = op + float(k) * row
        combos.append(op)
    picks = rng.integers(len(words), size=len(combos))
    return (combos + [op + sigma(*words[i]) for op, i in zip(combos, picks)]
            + [sigma(*w) for w in words])


def test_in_span_agrees_with_an_exact_rank_test():
    rng = np.random.default_rng(20261019)
    fours = [v for v, _ in _SUPPORTS if v.n == 4]
    states = [v for v, _ in _SUPPORTS if v.n == 3] + [
        fours[i] for i in rng.choice(len(fours), 25, replace=False)]
    verdicts = []
    for v in states:
        basis = eo.eigen_basis(v)
        words = eo.candidate_words(v.n)
        rank = len(_fraction_rref([[Fraction(b.coefficient(w).real) for w in words]
                                   for b in basis.operators])[1])
        for op in _span_corpus(rng, basis):
            verdict = eo.in_span(op, basis)
            assert verdict == _in_exact_span(op, basis, rank), render_sum(op)
            verdicts.append(verdict)
    assert len(states) == 40 and 0 < sum(verdicts) < len(verdicts)


def test_catalog_zero_eigenvalues_are_positive_zero():
    zeros = [g for g in eo.catalog_basis("v41~").eigenvalues if g == 0]
    assert len(zeros) == 3
    assert all(math.copysign(1.0, g) == 1.0 for g in zeros)


@pytest.mark.parametrize("n", [2, 5])
def test_eigen_basis_refuses_an_unsupported_qubit_count(n):
    amps = np.zeros(1 << n)
    amps[0] = amps[-1] = 1
    with pytest.raises(ValueError, match="unsupported qubit count"):
        eo.eigen_basis(StateVector(n, amps))


@pytest.mark.parametrize("state_id", eo.STATE_IDS)
def test_in_span_on_a_hand_built_basis_matches_the_solved_basis(state_id):
    state = eo.catalog_state(state_id)
    hand, solved = eo.EigenBasis(state, [], []), eo.eigen_basis(state)
    # every catalog op, those of the other qubit count too
    ops = [op for sid in eo.STATE_IDS for op in eo.catalog_basis(sid).operators]
    verdicts = [eo.in_span(op, hand) for op in ops]
    assert verdicts == [eo.in_span(op, solved) for op in ops]
    assert 0 < sum(verdicts) < len(ops)


def test_basis_is_frozen_and_caches_read_only_sign_rows():
    basis = eo.eigen_basis(eo.catalog_state("v42~"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.state = eo.catalog_state("u4")
    rows = basis.sign_rows
    assert basis.sign_rows is rows and not rows.flags.writeable
    assert rows.shape == (3, 8) and set(rows[1:].ravel().tolist()) <= {-1, 0, 1}


@pytest.mark.parametrize("state_id", eo.STATE_IDS)
def test_operators_of_the_other_qubit_count_are_never_in_span(state_id):
    n = eo.catalog_state(state_id).n
    other = 7 - n  # 3 <-> 4
    ops = [PauliSum.zero(other), sigma(*(1,) * other), sigma(*(2,) * other),
           2.5 * sigma(*(1,) * other) - sigma(*(2,) * other)]
    for basis in (eo.eigen_basis(eo.catalog_state(state_id)), eo.catalog_basis(state_id)):
        assert [eo.in_span(op, basis) for op in ops] == [False] * len(ops)
        # the zero operator of the state's own qubit count fixes it, at eigenvalue 0
        assert eo.in_span(PauliSum.zero(n), basis)


@pytest.mark.parametrize("state_id", ["u3", "v31~"])
@pytest.mark.parametrize("coeff", [math.inf, -math.inf, complex(1, math.nan), math.nan])
def test_a_non_finite_coefficient_fixes_no_state(state_id, coeff):
    # u3 has one support pair, so its single sign row leaves no difference to test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis in (eo.eigen_basis(eo.catalog_state(state_id)), eo.catalog_basis(state_id)):
            for op in (sigma(1, 1, 1, coeff=coeff), 0 * sigma(1, 1, 1, coeff=coeff),
                       sigma(1, 1, 1) + sigma(2, 2, 1, coeff=coeff)):
                assert not eo.in_span(op, basis), render_sum(op)
            # a finite operator beside it in one call keeps its eigenvalue
            values = list(eo._eigenvalues(basis, [sigma(1, 1, 1, coeff=coeff),
                                                  sigma(1, 1, 1)]))
            assert values[0] is None and values[1] == 1
