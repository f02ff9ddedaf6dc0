"""Tests for eigenoperator discovery, the catalog rows, and the identities."""

import numpy as np
import pytest

from merminkit import eigenops as eo
from merminkit.pauli import PauliSum, render_sum, sigma
from merminkit.states import StateVector, dicke, sym_coeff_count

from conftest import random_nonzero_coeffs, sum_matrix

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


class TestPolynomials:
    def test_f3_of_tau3(self):
        assert eo.f3(eo.tau3()) == sigma(1, 1, 1)

    def test_f3_f4_of_tau4_i(self):
        for i in (1, 2, 3):
            assert eo.f3(eo.tau4_i(i)) == 0.5 * eo.tau4_i(i)
            assert eo.f4(eo.tau4_i(i)) == eo.tau4_i(i)

    def test_f4_of_tau4(self):
        assert eo.f4(eo.tau4()) == sigma(1, 1, 1, 1) + sigma(2, 2, 2, 2)

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
