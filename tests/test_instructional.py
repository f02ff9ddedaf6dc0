"""Tests for instructional-set evaluation, exhaustive solving, certificates."""

import dataclasses
import hashlib
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from merminkit import eigenops as eo
from merminkit import instructional as ins
from merminkit.pauli import PauliSum, parse_sum, sigma
from merminkit.states import StateVector, catalog_state

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
                    ((letters, coeff),) = eq.expr.terms()
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


# -- an enumeration oracle that never calls ins.evaluate ------------------------

ORACLE_POLYS = {
    None: lambda v: v,
    "f3": lambda v: Fraction(-v ** 3 + 7 * v, 6),
    "f4": lambda v: Fraction(-v ** 3 + 28 * v, 24),
}


def hand_value(expr, a):
    """Sum of coeff times the product of xi (s1) or eta (s2) per qubit."""
    total = 0
    for letters, coeff in expr.terms():
        term = int(round(coeff.real))
        for q, j in enumerate(letters):
            term *= a.xi[q] if j == 1 else a.eta[q]
        total += term
    return total


def oracle_solutions(system):
    return [a for a in all_assignments(system.n)
            if all(ORACLE_POLYS[eq.poly](hand_value(eq.expr, a)) == eq.target
                   for eq in system.equations)]


def random_sum(rng, n):
    words = {tuple(int(j) for j in rng.integers(1, 3, size=n))
             for _ in range(int(rng.integers(1, 5)))}
    terms = [float(rng.choice([-3, -2, -1, 1, 2, 3])) * sigma(*w) for w in words]
    expr = terms[0]
    for term in terms[1:]:
        expr = expr + term
    return expr


class TestIndexLayout:
    def test_solve_matches_hand_enumeration_on_random_systems(self, rng):
        satisfiable = 0
        for _ in range(120):
            n = int(rng.integers(2, 5))
            equations = []
            for _ in range(int(rng.integers(1, 4))):
                expr = random_sum(rng, n)
                poly = [None, None, "f3", "f4"][int(rng.integers(0, 4))]
                # a target the expression reaches, or a random small one
                reached = ORACLE_POLYS[poly](hand_value(
                    expr, ins.Assignment.from_index(int(rng.integers(0, 4 ** n)), n)))
                if reached.denominator == 1 and rng.random() < 0.75:
                    target = int(reached) * int(rng.choice([-1, 1]))
                else:
                    target = int(rng.integers(-3, 4))
                equations.append(ins.Equation(expr, target, poly=poly))
            system = ins.InstructionalSystem(n, equations)
            expected = oracle_solutions(system)
            report = ins.solve(system)
            assert report.solutions == expected
            assert report.count == len(expected)
            assert report.witness_values == {
                "xi_product": [int(np.prod(a.xi)) for a in expected],
                "eta_product": [int(np.prod(a.eta)) for a in expected],
            }
            satisfiable += bool(expected)
        assert satisfiable >= 30

    def test_solve_matches_hand_enumeration_on_two_byte_indices(self):
        # 2n = 10 and 12 index bits, so every sign reads two bytes of the table
        rng = np.random.default_rng(20261019)
        satisfiable = 0
        for n in (5, 5, 6, 6):
            equations = []
            for _ in range(2):
                expr = random_sum(rng, n)
                a = ins.Assignment.from_index(int(rng.integers(0, 4 ** n)), n)
                equations.append(ins.Equation(expr, hand_value(expr, a)))
            system = ins.InstructionalSystem(n, equations)
            expected = oracle_solutions(system)
            report = ins.solve(system)
            assert report.solutions == expected
            assert report.witness_values == {
                "xi_product": [int(np.prod(a.xi)) for a in expected],
                "eta_product": [int(np.prod(a.eta)) for a in expected],
            }
            satisfiable += bool(expected)
        assert satisfiable >= 2

    def test_mask_bits_follow_from_index(self):
        # s(1,2) multiplies xi_1 (bit 0) and eta_2 (bit n + 1 = 3)
        report = ins.solve(ins.InstructionalSystem(2, [ins.Equation(sigma(1, 2), -1)]))
        assert report.indices.tolist() == [i for i in range(16)
                                           if ((i >> 0) ^ (i >> 3)) & 1]

    def test_ten_qubit_single_equation(self):
        n = 10
        report = ins.solve(ins.InstructionalSystem(n, [ins.Equation(sigma(*[1] * n), 1)]))
        assert report.count == 1 << (2 * n - 1)
        first, second, last = (ins.Assignment.from_index(i, n)
                               for i in report.indices[[0, 1, -1]].tolist())
        assert first == ins.Assignment((1,) * n, (1,) * n)
        assert second == ins.Assignment((-1, -1) + (1,) * (n - 2), (1,) * n)
        assert last == ins.Assignment((-1,) * n, (-1,) * n)
        witness = report.witness_values
        assert len(witness["xi_product"]) == len(witness["eta_product"]) == report.count
        assert set(witness["xi_product"]) == {1}
        assert sum(witness["eta_product"]) == 0


# -- devices are selections of the catalog eigen-rows ---------------------------


@pytest.mark.parametrize("device", ins.devices())
def test_device_equations_hold_on_their_catalog_state(device):
    """Each operator has the device's state as an eigenvector, and the target
    is its eigenvalue, passed through the equation's polynomial if any."""
    state = catalog_state(device.split("-")[0])
    for eq in ins.device_system(device).equations:
        image = eq.expr.apply(state)
        gamma = complex(np.vdot(state.amps, image.amps)) / state.norm_sq
        assert image.allclose(StateVector(state.n, gamma * state.amps)), device
        assert abs(gamma - round(gamma.real)) < 1e-12, device
        assert ORACLE_POLYS[eq.poly](round(gamma.real)) == eq.target, device


def test_relaxed_device_checks_tau3_through_f3():
    equations = ins.device_system("v31~-relaxed").equations
    assert [(eq.expr, eq.poly) for eq in equations] == [(sigma(1, 1, 1), None),
                                                       (eo.tau3(), "f3")]


class TestCoefficientSumLimit:
    @pytest.mark.parametrize("expr", ["12582912*s(1,1,1)", "1e30*s(1,1,1)",
                                      "1e999*s(1,1,1)", "1048575*s(1,1,1) - 2*s(2,2,1)"])
    def test_equation_refuses_large_coefficient_sums(self, expr):
        # 12582912: int64 wraps -v^3 + 7v to 6 * 14680064, which solved to 32
        # spurious solutions; 1e30 overflowed int64 with a bare OverflowError
        with pytest.raises(ValueError, match="coefficient magnitudes sum to"):
            ins.Equation(parse_sum(expr), 14680064, poly="f3")

    def test_evaluate_refuses_large_coefficient_sums(self):
        with pytest.raises(ValueError, match="coefficient magnitudes sum to"):
            ins.evaluate(parse_sum("1e30*s(1,1,1)"), ins.Assignment.from_index(0, 3))

    def test_largest_allowed_sum_is_exact(self):
        v = ins.MAX_COEFF_SUM
        target = ORACLE_POLYS["f4"](v)
        assert target.denominator == 1
        expr = parse_sum(f"{v - 1}*s(1,1,1) + s(2,2,1)")
        system = ins.InstructionalSystem(3, [ins.Equation(expr, int(target), poly="f4")])
        expected = oracle_solutions(system)
        assert len(expected) == 16
        assert ins.solve(system).solutions == expected


# -- one compiled (coeff, mask) form per equation --------------------------------

_NO_SOLUTIONS = hashlib.sha256(b"").hexdigest()

# (explainable, count, certificate, sha256 of the comma-joined solution indices)
DEVICE_VERDICTS = {
    "u3": (False, 0, [0, 1, 2, 3], _NO_SOLUTIONS),
    "u3-last3": (True, 8, None,
                 "56f2bf55430303fda0ba4b659354828d974d5551d15d37f9d10b5983cbcdb726"),
    "v31~": (False, 0, None, _NO_SOLUTIONS),
    "v31~-relaxed": (False, 0, None, _NO_SOLUTIONS),
    "v41~": (True, 64, None,
             "f07e5fb57ad62b7e3cbebcf0a471a6553e93775877279b963003db2fa35510c8"),
    **{f"u4-{k}": (False, 0, [0, 1, 2, 3], _NO_SOLUTIONS) for k in range(1, 9)},
    **{f"v42~-{i}-{j}": (False, 0, None, _NO_SOLUTIONS)
       for i in (1, 2, 3, 4) for j in (1, 2)},
}


def test_device_verdicts_read_only_the_compiled_monomials(monkeypatch):
    # the devices are built at import; solving them must not derive any
    # equation's monomials again
    assert set(ins.devices()) == set(DEVICE_VERDICTS)

    def derived_again(expr):
        raise AssertionError("monomials derived outside Equation")

    monkeypatch.setattr(ins, "_monomial_masks", derived_again)
    for device, (explainable, count, certificate, digest) in DEVICE_VERDICTS.items():
        verdict = ins.device_verdict(device)
        indices = ",".join(map(str, verdict.report.indices.tolist()))
        assert verdict.explainable is explainable, device
        assert verdict.report.count == count, device
        assert verdict.certificate == certificate, device
        assert hashlib.sha256(indices.encode()).hexdigest() == digest, device


@pytest.mark.parametrize("device", ins.devices())
def test_compiled_monomials_match_their_derivation(device):
    for eq in ins.device_system(device).equations:
        assert eq.monomials == tuple(ins._monomial_masks(eq.expr)), device


def _two_step_monomial_masks(expr):
    """The earlier compiler, verbatim: letter monomials, then their masks."""

    def monomials_of(expr):
        terms = list(expr.terms())
        total = sum(abs(coeff) for _, coeff in terms)
        if not total <= ins.MAX_COEFF_SUM:
            raise ValueError(f"coefficient magnitudes sum to {total:g}, above the "
                             f"exact-evaluation limit {ins.MAX_COEFF_SUM}")
        monomials = []
        for letters, coeff in terms:
            if any(j not in (1, 2) for j in letters):
                raise ValueError(
                    "expression contains identity or s3 letters; "
                    "only s1/s2 words have an instructional value"
                )
            if coeff.imag != 0 or coeff.real != round(coeff.real):
                raise ValueError(f"coefficient {coeff} is not an integer")
            monomials.append((int(coeff.real), letters))
        return monomials

    n = expr.n
    return [(coeff, sum(1 << (a if j == 1 else n + a) for a, j in enumerate(letters)))
            for coeff, letters in monomials_of(expr)]


def _compiled(compile_, expr):
    """The compiler's monomials, or the type and message of its refusal."""
    try:
        return tuple(compile_(expr))
    except ValueError as exc:
        return type(exc), str(exc)


def _seeded_word_sums(count=600):
    rng = np.random.default_rng(2300)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        words = [tuple(int(j) for j in rng.integers(1, 3, size=n))
                 for _ in range(int(rng.integers(1, 9)))]
        coeffs = rng.integers(-7, 8, size=len(words))
        yield sum((int(c) * sigma(*w) for w, c in zip(words, coeffs)),
                  PauliSum.zero(n))


def test_one_step_compiler_matches_the_two_step_form():
    expressions = [eq.expr for device in ins.devices()
                   for eq in ins.device_system(device).equations]
    seeded = list(_seeded_word_sums())
    assert sum(not expr.is_zero() for expr in seeded) >= 500
    # the three tau3 level sets (targets 1, -3 and 2) share one expression
    expressions += [eo.tau3()] + seeded
    for expr in expressions:
        want = _compiled(_two_step_monomial_masks, expr)
        assert _compiled(ins._monomial_masks, expr) == want, expr
        assert ins.Equation(expr, 1).monomials == want, expr


@pytest.mark.parametrize("text", ["s(0,1,1)", "s(3,1,1)", "0.5*s(1,1,1)",
                                  "2097152*s(1,2,2)"])
def test_one_step_compiler_refuses_with_the_two_step_messages(text):
    expr = parse_sum(text)
    want = _compiled(_two_step_monomial_masks, expr)
    assert want[0] is ValueError
    assert _compiled(ins._monomial_masks, expr) == want
    with pytest.raises(ValueError) as refused:
        ins.Equation(expr, 1)
    assert str(refused.value) == want[1]
    with pytest.raises(ValueError) as refused:
        ins.evaluate(expr, ins.Assignment.from_index(0, 3))
    assert str(refused.value) == want[1]


def test_explainable_is_read_from_the_report():
    assert "explainable" not in {f.name for f in dataclasses.fields(ins.DeviceVerdict)}
    for device in ("u3", "u3-last3", "v41~"):
        verdict = ins.device_verdict(device)
        assert verdict.explainable is (verdict.report.count > 0), device


def test_equal_equations_compare_and_hash_equal():
    a, b = ins.Equation(eo.tau3(), 1, "f3"), ins.Equation(eo.tau3(), 1, "f3")
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == ("Equation(expr=PauliSum('s(1,2,2) + s(2,1,2) + s(2,2,1)'), "
                       "target=1, poly='f3')")
    assert a != ins.Equation(eo.tau3(), 1)


class TestExactIntegerCoefficients:
    @pytest.mark.parametrize("text", ["0.9999999999*s(1,1,1)", "(1+1e-17i)*s(1,1,1)"])
    def test_near_integers_are_refused(self, text):
        expr = parse_sum(text)
        with pytest.raises(ValueError, match="is not an integer"):
            ins.Equation(expr, 1)
        with pytest.raises(ValueError, match="is not an integer"):
            ins.evaluate(expr, ins.Assignment.from_index(0, 3))

    def test_integer_valued_float_is_accepted(self):
        eq = ins.Equation(parse_sum("-3.0*s(1,1,1)"), -3)
        assert eq.monomials == ((-3, 0b111),)
        assert ins.evaluate(eq.expr, ins.Assignment.from_index(0, 3)) == -3
        assert ins.solve(ins.InstructionalSystem(3, [eq])).count == 32


def test_unknown_polynomial_is_refused():
    with pytest.raises(ValueError, match="^unknown polynomial 'f5'$"):
        ins.Equation(expr=sigma(1, 1, 1), target=1, poly="f5")


def test_evaluate_refuses_an_assignment_of_another_qubit_count():
    with pytest.raises(ValueError, match=r"^qubit counts differ: 3 != 4$"):
        ins.evaluate(sigma(1, 1, 1), ins.Assignment((1,) * 4, (1,) * 4))


def test_a_system_refuses_an_equation_of_another_qubit_count():
    with pytest.raises(ValueError, match=r"^equation on 4 qubits in a 3-qubit system$"):
        ins.InstructionalSystem(3, [ins.Equation(sigma(1, 1, 1), 1),
                                    ins.Equation(sigma(1, 1, 1, 1), 1)])


def test_a_modulus_beyond_the_float_range_is_refused_by_the_sum_limit():
    # the coefficient is kept, and its modulus reads as inf instead of raising
    with pytest.raises(ValueError, match="coefficient magnitudes sum to inf"):
        ins.Equation(sigma(1, 1, 1, coeff=1.7e308 + 1.7e308j), 1)


@pytest.mark.parametrize("poly", ["f3", "f4"])
def test_the_exact_cubic_check_agrees_with_the_operator_cubic(poly):
    # on c * s(1,1,1) the value is +-c and f(c s) = f(c) s, since s^3 = s
    cubic = {"f3": eo.f3, "f4": eo.f4}[poly]
    for c in range(1, 9):
        f_c = cubic(c * sigma(1, 1, 1)).coefficient((1, 1, 1)).real
        for target in {int(f_c), int(f_c) + 1, -int(f_c)}:
            equation = ins.Equation(c * sigma(1, 1, 1), target, poly)
            system = ins.InstructionalSystem(3, [equation])
            # the value is c at 32 assignments and -c at the other 32; f is odd
            expected = 32 * ((f_c == target) + (-f_c == target))
            assert ins.solve(system).count == expected, (c, target)


def _product_system_with_a_redundant_equation(rng, n):
    """One or three distinct single-word equations that a hidden assignment
    satisfies, a further satisfied one anywhere among them, and a last
    equation on the product of the one or three words with the sign that
    contradicts them.

    The values of three s1/s2 words multiply to the value of the word with s1
    where an odd number of them has it, as xi1 eta2 eta3 * eta1 xi2 eta3 *
    eta1 eta2 xi3 = xi1 xi2 xi3.  The further word is neither one of those
    words nor their product, so no product of the others gives it.  Returns
    the system and the index of the further equation.
    """
    hidden = ins.Assignment.from_index(int(rng.integers(0, 1 << 2 * n)), n)
    all_words = list(product((1, 2), repeat=n))
    while True:
        picks = rng.choice(len(all_words), size=int(rng.choice([1, 3])), replace=False)
        words = [all_words[k] for k in sorted(picks.tolist())]
        last = tuple(1 if column.count(1) % 2 else 2 for column in zip(*words))
        others = [w for w in all_words if w not in words and w != last]
        if others:
            break
    redundant = others[int(rng.integers(0, len(others)))]

    def satisfied(word):
        expr = float(rng.choice([-1, 1])) * sigma(*word)
        return ins.Equation(expr, ins.evaluate(expr, hidden))

    equations = [satisfied(w) for w in words]
    at = int(rng.integers(0, len(words) + 1))
    equations.insert(at, satisfied(redundant))
    closing = sigma(*last)
    equations.append(ins.Equation(closing, -ins.evaluate(closing, hidden)))
    return ins.InstructionalSystem(n, equations), at


def test_a_certificate_leaves_out_a_redundant_equation(rng):
    for n in (2, 3, 4):
        for _ in range(12):
            system, redundant = _product_system_with_a_redundant_equation(rng, n)
            certificate = ins.parity_certificate(system)
            assert certificate is not None
            assert redundant not in certificate
            assert len(certificate) < len(system.equations)
            mask, sign = 0, 1
            for k in certificate:
                eq = system.equations[k]
                ((coeff, word_mask),) = eq.monomials
                mask ^= word_mask
                sign *= coeff * eq.target
            assert mask == 0 and sign == -1
            assert ins.solve(system).count == 0
            assert oracle_solutions(system) == []


class TestWorkBudget:
    @staticmethod
    def single_monomial(n, count=1):
        words = [(1,) * n, (2, 2) + (1,) * (n - 2), (1,) + (2, 2) + (1,) * (n - 3)]
        return ins.InstructionalSystem(n, [ins.Equation(sigma(*w), 1) for w in words[:count]])

    def test_twelve_qubits_still_run(self):
        n = 12
        assert (1 << 2 * n) <= ins.MAX_WORK
        report = ins.solve(self.single_monomial(n))
        assert report.count == 1 << (2 * n - 1)
        assert report.indices[[0, 1, -1]].tolist() == [0, 3, (1 << 2 * n) - 1]

    @pytest.mark.parametrize("n,equations", [(16, 1), (16, 0), (14, 1), (13, 2)])
    def test_refused_before_enumerating(self, monkeypatch, n, equations):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration began")

        monkeypatch.setattr(ins.np, "arange", no_enumeration)
        monomials = max(1, equations)
        with pytest.raises(ValueError) as refused:
            ins.solve(self.single_monomial(n, equations))
        assert str(refused.value) == (
            f"enumeration of 4^{n} assignments x {monomials} monomials refused "
            f"(above the work budget {ins.MAX_WORK})")

    def test_the_budget_counts_every_monomial_of_every_equation(self, monkeypatch):
        # two equations of one and two monomials on 3 qubits: work 4^3 x 3
        system = ins.InstructionalSystem(3, [
            ins.Equation(sigma(1, 1, 1), 1),
            ins.Equation(sigma(1, 2, 2) + sigma(2, 1, 2), 0)])
        monkeypatch.setattr(ins, "MAX_WORK", 64 * 3)
        assert ins.solve(system).indices.tolist() == sorted(
            a.to_index() for a in oracle_solutions(system))
        monkeypatch.setattr(ins, "MAX_WORK", 64 * 3 - 1)
        with pytest.raises(ValueError, match="x 3 monomials refused"):
            ins.solve(system)

    def test_every_catalog_device_is_within_budget(self):
        for device in ins.devices():
            system = ins.device_system(device)
            work = 4 ** system.n * sum(len(eq.monomials) for eq in system.equations)
            assert work <= ins.MAX_WORK, device
