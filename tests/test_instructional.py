"""Tests for instructional-set evaluation, exhaustive solving, certificates."""

import numpy as np
import pytest

from merminkit import eigenops as eo
from merminkit import instructional as ins
from merminkit.pauli import sigma

# hand-expanded instructional polynomials, written out independently of the
# tau -> mu substitution they are checked against
HAND_MU = {
    "mu3": lambda x, e: x[0]*e[1]*e[2] + e[0]*x[1]*e[2] + e[0]*e[1]*x[2],
    "mu4": lambda x, e: (x[0]*x[1]*e[2]*e[3] + x[0]*e[1]*x[2]*e[3]
                         + x[0]*e[1]*e[2]*x[3] + e[0]*x[1]*x[2]*e[3]
                         + e[0]*x[1]*e[2]*x[3] + e[0]*e[1]*x[2]*x[3]),
    "mu4_1": lambda x, e: x[0]*x[1]*e[2]*e[3] + e[0]*e[1]*x[2]*x[3],
    "mu4_2": lambda x, e: x[0]*e[1]*x[2]*e[3] + e[0]*x[1]*e[2]*x[3],
    "mu4_3": lambda x, e: x[0]*e[1]*e[2]*x[3] + e[0]*x[1]*x[2]*e[3],
    "mu4_11": lambda x, e: x[0]*(x[1]*e[2]*e[3] + e[1]*x[2]*e[3] + e[1]*e[2]*x[3]),
    "mu4_12": lambda x, e: e[0]*(x[1]*x[2]*e[3] + x[1]*e[2]*x[3] + e[1]*x[2]*x[3]),
    "mu4_21": lambda x, e: x[1]*(x[0]*e[2]*e[3] + e[0]*x[2]*e[3] + e[0]*e[2]*x[3]),
    "mu4_22": lambda x, e: e[1]*(x[0]*x[2]*e[3] + x[0]*e[2]*x[3] + e[0]*x[2]*x[3]),
    "mu4_31": lambda x, e: x[2]*(x[0]*e[1]*e[3] + e[0]*x[1]*e[3] + e[0]*e[1]*x[3]),
    "mu4_32": lambda x, e: e[2]*(x[0]*x[1]*e[3] + x[0]*e[1]*x[3] + e[0]*x[1]*x[3]),
    "mu4_41": lambda x, e: x[3]*(x[0]*e[1]*e[2] + e[0]*x[1]*e[2] + e[0]*e[1]*x[2]),
    "mu4_42": lambda x, e: e[3]*(x[0]*x[1]*e[2] + x[0]*e[1]*x[2] + e[0]*x[1]*x[2]),
}

MU_EXPRESSIONS = {
    "mu3": eo.tau3(),
    "mu4": eo.tau4(),
    "mu4_1": eo.tau4_i(1),
    "mu4_2": eo.tau4_i(2),
    "mu4_3": eo.tau4_i(3),
    **{f"mu4_{i}{j}": eo.tau4_ij(i, j) for i in (1, 2, 3, 4) for j in (1, 2)},
}


def all_assignments(n):
    return [ins.Assignment.from_index(i, n) for i in range(1 << (2 * n))]


class TestAssignment:
    def test_index_round_trip(self):
        for n in (3, 4):
            for i in range(1 << (2 * n)):
                assert ins.Assignment.from_index(i, n).to_index() == i

    def test_bit_zero_is_xi1_plus(self):
        a = ins.Assignment.from_index(0, 3)
        assert a.xi == (1, 1, 1) and a.eta == (1, 1, 1)
        a = ins.Assignment.from_index(1, 3)
        assert a.xi == (-1, 1, 1) and a.eta == (1, 1, 1)
        a = ins.Assignment.from_index(1 << 3, 3)
        assert a.xi == (1, 1, 1) and a.eta == (-1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ins.Assignment((1, 2), (1, 1))
        with pytest.raises(ValueError):
            ins.Assignment((1,), (1, 1))


class TestEvaluate:
    def test_single_word_product(self):
        a = ins.Assignment((1, 1, -1), (1, 1, 1))
        assert ins.evaluate(sigma(1, 1, 1), a) == -1

    def test_mu3_at_all_ones(self):
        a = ins.Assignment((1, 1, 1), (1, 1, 1))
        assert ins.evaluate(eo.tau3(), a) == 3

    def test_mu4_1_at_all_ones(self):
        a = ins.Assignment((1,) * 4, (1,) * 4)
        assert ins.evaluate(eo.tau4_i(1), a) == 2

    def test_rejects_identity_and_s3_letters(self):
        a = ins.Assignment((1, 1), (1, 1))
        with pytest.raises(ValueError):
            ins.evaluate(sigma(0, 1), a)
        with pytest.raises(ValueError):
            ins.evaluate(sigma(3, 1), a)

    def test_rejects_non_integer_coefficients(self):
        a = ins.Assignment((1, 1), (1, 1))
        with pytest.raises(ValueError):
            ins.evaluate(0.5 * sigma(1, 1), a)

    def test_matches_hand_polynomials_on_all_assignments(self):
        for name, expr in MU_EXPRESSIONS.items():
            hand = HAND_MU[name]
            for a in all_assignments(expr.n):
                assert ins.evaluate(expr, a) == hand(a.xi, a.eta), name


class TestSolve:
    def test_ghz3_subsystem_has_eight_solutions(self):
        report = ins.solve(ins.device_system("u3-last3"))
        assert report.count == 8

    def test_ghz3_full_system_unsatisfiable(self):
        assert ins.solve(ins.device_system("u3")).count == 0

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ghz4_systems_unsatisfiable(self, k):
        assert ins.solve(ins.device_system(f"u4-{k}")).count == 0

    @pytest.mark.parametrize("target,count", [(1, 24), (-3, 8), (2, 0)])
    def test_mu3_level_sets(self, target, count):
        system = ins.InstructionalSystem(3, [ins.Equation(eo.tau3(), target)])
        report = ins.solve(system)
        assert report.count == count
        assert all(p == -1 for p in report.witness_values["xi_product"])

    def test_w_family_device_unsatisfiable(self):
        assert ins.solve(ins.device_system("v31~")).count == 0
        assert ins.solve(ins.device_system("v31~-relaxed")).count == 0

    def test_relaxed_polynomial_level_set(self):
        # f3(value) == 1 alone picks up the value-1 and value-(-3) sets
        system = ins.InstructionalSystem(
            3, [ins.Equation(eo.tau3(), 1, poly="f3")]
        )
        report = ins.solve(system)
        assert report.count == 24 + 8
        assert all(p == -1 for p in report.witness_values["xi_product"])

    def test_unbalanced_four_qubit_device_has_64_solutions(self):
        report = ins.solve(ins.device_system("v41~"))
        assert report.count == 64
        for a in report.solutions:
            assert ins.evaluate(sigma(1, 1, 1, 1), a) == 1
            assert ins.evaluate(sigma(2, 2, 2, 2), a) == -1
            for i in (1, 2, 3):
                assert ins.evaluate(eo.tau4_i(i), a) == 0

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("j", [1, 2])
    def test_balanced_four_qubit_devices_unsatisfiable(self, i, j):
        assert ins.solve(ins.device_system(f"v42~-{i}-{j}")).count == 0

    def test_balanced_devices_with_two_operators_also_unsatisfiable(self):
        pairs = [(i, j) for i in (1, 2, 3, 4) for j in (1, 2)]
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                system = ins.InstructionalSystem(
                    4,
                    [
                        ins.Equation(sigma(1, 1, 1, 1), 1),
                        ins.Equation(eo.tau4_ij(*pairs[a]), 1),
                        ins.Equation(eo.tau4_ij(*pairs[b]), 1),
                        ins.Equation(sigma(2, 2, 2, 2), 1),
                    ],
                )
                assert ins.solve(system).count == 0, (pairs[a], pairs[b])

    def test_solutions_listed_in_lexicographic_order(self):
        report = ins.solve(ins.device_system("u3-last3"))
        indices = [a.to_index() for a in report.solutions]
        assert indices == sorted(indices)

    def test_witness_products_match_solutions(self):
        report = ins.solve(ins.device_system("v41~"))
        assert report.witness_values == {
            "xi_product": [int(np.prod(a.xi)) for a in report.solutions],
            "eta_product": [int(np.prod(a.eta)) for a in report.solutions],
        }

    def test_deterministic(self):
        r1 = ins.solve(ins.device_system("v41~"))
        r2 = ins.solve(ins.device_system("v41~"))
        assert r1.solutions == r2.solutions

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            ins.solve(ins.InstructionalSystem(17, []))


class TestRandomLinearCombinations:
    def test_invertible_combinations_keep_the_solution_set(self, rng):
        # integer-invertible recombinations of the five-equation system are
        # equivalent systems, so the 64 solutions must be identical
        base = ins.device_system("v41~")
        exprs = [eq.expr for eq in base.equations]
        targets = np.array([eq.target for eq in base.equations])
        reference = ins.solve(base).solutions
        trials = 0
        while trials < 50:
            k = rng.integers(-3, 4, size=(5, 5))
            if abs(np.linalg.det(k)) < 0.5:
                continue
            trials += 1
            combined = []
            for row, target in zip(k, k @ targets):
                expr = None
                for weight, e in zip(row, exprs):
                    if weight == 0:
                        continue
                    term = float(weight) * e
                    expr = term if expr is None else expr + term
                if expr is None:
                    expr = 0.0 * exprs[0]
                combined.append(ins.Equation(expr, int(target)))
            report = ins.solve(ins.InstructionalSystem(4, combined))
            assert report.solutions == reference


class TestParityCertificate:
    def test_ghz3_certificate_uses_all_four_equations(self):
        cert = ins.parity_certificate(ins.device_system("u3"))
        assert cert == [0, 1, 2, 3]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ghz4_certificates(self, k):
        cert = ins.parity_certificate(ins.device_system(f"u4-{k}"))
        assert cert == [0, 1, 2, 3]

    def test_satisfiable_subsystem_has_no_certificate(self):
        assert ins.parity_certificate(ins.device_system("u3-last3")) is None

    def test_sum_form_equations_yield_none(self):
        assert ins.parity_certificate(ins.device_system("v31~")) is None

    def test_soundness_on_all_devices(self):
        for device in ins.devices():
            verdict = ins.device_verdict(device)
            if verdict.certificate is not None:
                assert verdict.report.count == 0, device
                # verify the certificate directly: multiplying the certified
                # equations must force an even-power product to equal -1
                system = ins.device_system(device)
                sign = 1
                exponents = np.zeros(2 * system.n, dtype=int)
                for idx in verdict.certificate:
                    eq = system.equations[idx]
                    ((coeff, letters),) = ins._monomials_of(eq.expr)
                    sign *= eq.target * coeff
                    for a, j in enumerate(letters):
                        exponents[a if j == 1 else system.n + a] += 1
                assert np.all(exponents % 2 == 0)
                assert sign == -1

    def test_completeness_on_random_product_systems(self, rng):
        # product-form systems are linear over GF(2): unsatisfiable exactly
        # when some subset of equations multiplies out to +1 == -1
        for _ in range(150):
            n = int(rng.integers(2, 5))
            equations = [
                ins.Equation(int(rng.choice([-1, 1]))
                             * sigma(*(int(j) for j in rng.integers(1, 3, size=n))),
                             int(rng.choice([-1, 1])))
                for _ in range(int(rng.integers(1, 10)))
            ]
            system = ins.InstructionalSystem(n, equations)
            certificate = ins.parity_certificate(system)
            assert (certificate is None) == (ins.solve(system).count > 0)


class TestDeviceVerdicts:
    def test_catalog(self):
        expected = {
            "u3": (False, 0),
            "u3-last3": (True, 8),
            "v31~": (False, 0),
            "v31~-relaxed": (False, 0),
            "v41~": (True, 64),
        }
        expected.update({f"u4-{k}": (False, 0) for k in range(1, 9)})
        expected.update({
            f"v42~-{i}-{j}": (False, 0) for i in (1, 2, 3, 4) for j in (1, 2)
        })
        assert set(expected) == set(ins.devices())
        for device, (explainable, count) in expected.items():
            verdict = ins.device_verdict(device)
            assert verdict.explainable is explainable, device
            assert verdict.report.count == count, device

    def test_unknown_device(self):
        with pytest.raises(ValueError):
            ins.device_verdict("u7")


class TestLightParity:
    def test_red_green_parity_restatement(self):
        # each experiment value is the product of its three lamp values, so
        # value == 1 exactly when the number of -1 lamps is even
        words = [(1, 1, 1)] + list(eo.GHZ3_FACTOR_WORDS)
        for a in all_assignments(3):
            for letters in words:
                lamps = [
                    a.xi[q] if j == 1 else a.eta[q]
                    for q, j in enumerate(letters)
                ]
                value = ins.evaluate(sigma(*letters), a)
                greens = sum(1 for lamp in lamps if lamp == -1)
                assert value == (1 if greens % 2 == 0 else -1)
