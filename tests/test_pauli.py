"""Tests for the tensor-word algebra: products, actions, text form."""

import math
import re
import warnings

import numpy as np
import pytest

from merminkit import eigenops, instructional
from merminkit.cli import _parse_coeff_list
from merminkit.eigenops import tau3, tau4, tau4_i, tau4_ij
from merminkit.pauli import (
    PauliSum,
    PauliWord,
    identity,
    parity_sign,
    parse_sum,
    render_sum,
    sigma,
)
from merminkit.states import StateVector, ghz, pack_basis_word, sym_dicke

from conftest import kron_word, sum_matrix


def basis_vector(index, n):
    e = np.zeros(1 << n, dtype=complex)
    e[index] = 1
    return e


class TestWordApply:
    def test_sigma1_swaps_basis_vectors(self):
        assert PauliWord((1,)).apply_to_basis(0) == (1, 1)
        assert PauliWord((1,)).apply_to_basis(1) == (1, 0)

    def test_sigma2_phases(self):
        assert PauliWord((2,)).apply_to_basis(0) == (1j, 1)
        assert PauliWord((2,)).apply_to_basis(1) == (-1j, 0)

    def test_sigma3_keeps_index(self):
        assert PauliWord((3,)).apply_to_basis(0) == (1, 0)
        assert PauliWord((3,)).apply_to_basis(1) == (-1, 1)

    def test_identity_word_is_trivial(self):
        index = pack_basis_word((1, 2, 1))
        assert PauliWord((0, 0, 0)).apply_to_basis(index) == (1, index)

    def test_sigma22_on_e22(self):
        # frozen from the Kronecker oracle: phase (-i)(-i) = -1, index e_{1,1}
        word = PauliWord((2, 2))
        phase, out = word.apply_to_basis(pack_basis_word((2, 2)))
        assert (phase, out) == (-1, pack_basis_word((1, 1)))
        oracle = kron_word((2, 2)) @ basis_vector(pack_basis_word((2, 2)), 2)
        expected = np.zeros(4, dtype=complex)
        expected[out] = phase
        assert np.array_equal(oracle, expected)

    def test_matches_kron_oracle_exhaustively_n2(self):
        import itertools

        for letters in itertools.product(range(4), repeat=2):
            word = PauliWord(letters)
            matrix = kron_word(letters)
            for index in range(4):
                phase, out = word.apply_to_basis(index)
                assert np.array_equal(matrix @ basis_vector(index, 2),
                                      phase * basis_vector(out, 2))

    def test_matches_kron_oracle_random_n4(self, rng):
        for _ in range(40):
            letters = tuple(rng.integers(0, 4, size=4))
            index = int(rng.integers(0, 16))
            phase, out = PauliWord(letters).apply_to_basis(index)
            assert np.array_equal(
                kron_word(letters) @ basis_vector(index, 4),
                phase * basis_vector(out, 4),
            )

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            PauliWord((1, 1)).apply_to_basis(4)

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            PauliWord((1, 4))


class TestProducts:
    def test_single_qubit_table_matches_oracle(self):
        from conftest import SIGMA

        for p in range(4):
            for q in range(4):
                product = PauliWord((p,)) * PauliWord((q,))
                assert np.allclose(
                    product.coeff * kron_word(product.letters), SIGMA[p] @ SIGMA[q]
                )

    def test_two_qubit_products_match_oracle_exhaustively(self):
        import itertools

        words = list(itertools.product(range(4), repeat=2))
        for la in words:
            for lb in words:
                product = PauliWord(la) * PauliWord(lb)
                assert np.array_equal(product.coeff * kron_word(product.letters),
                                      kron_word(la) @ kron_word(lb))

    def test_squares_are_identity(self):
        for p in (1, 2, 3):
            assert sigma(p) * sigma(p) == sigma(0)

    def test_distinct_nonidentity_letters_anticommute(self):
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                if p == q:
                    continue
                anti = sigma(p) * sigma(q) + sigma(q) * sigma(p)
                assert anti.is_zero()

    def test_sigma111_squared(self):
        w = sigma(1, 1, 1)
        assert w * w == identity(3)

    def test_ghz3_product_identity(self):
        lhs = sigma(1, 2, 2) * sigma(2, 1, 2) * sigma(2, 2, 1)
        assert -1.0 * lhs == sigma(1, 1, 1)

    def test_tau41_cubed(self):
        t = tau4_i(1)
        assert t * t * t == 4.0 * t

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigma(1, 1) * sigma(1, 1, 1)

    def test_random_products_match_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = random_sum(rng, n)
            b = random_sum(rng, n)
            assert np.allclose(sum_matrix(a * b), sum_matrix(a) @ sum_matrix(b),
                               atol=1e-12)


def random_sum(rng, n, max_terms=8):
    words = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        letters = tuple(int(j) for j in rng.integers(0, 4, size=n))
        coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        words.append(PauliWord(letters, coeff))
    return PauliSum.from_words(words)


class TestAddAndScale:
    def test_tau4_pairs_sum_to_tau4(self):
        assert tau4_i(1) + tau4_i(2) + tau4_i(3) == tau4()

    def test_tau4_ij_pairs_sum_to_tau4(self):
        for i in (1, 2, 3, 4):
            assert tau4_ij(i, 1) + tau4_ij(i, 2) == tau4()

    def test_additive_inverse_cancels(self, rng):
        a = random_sum(rng, 3)
        assert (a + (-1.0) * a).is_zero()

    def test_zero_terms_pruned(self):
        s = sigma(1, 2, coeff=1e-15)
        assert s.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigma(1, 1) + sigma(1, 1, 1)


class TestCommutes:
    def test_sigma111_commutes_with_tau3(self):
        assert sigma(1, 1, 1).commutes(tau3())

    def test_single_qubit_s1_s2_do_not_commute(self):
        assert not sigma(1).commutes(sigma(2))

    def test_self_commutation(self, rng):
        a = random_sum(rng, 3)
        assert a.commutes(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_commutator(self, n):
        # coefficients in {+-1, +-i} give a mix of commuting and
        # anticommuting sums
        rng = np.random.default_rng(300 + n)
        phases = (1, -1, 1j, -1j)
        seen = set()
        for _ in range(200):
            a, b = (PauliSum.from_words(
                PauliWord(tuple(int(j) for j in rng.integers(0, 4, size=n)),
                          phases[int(rng.integers(4))])
                for _ in range(int(rng.integers(1, 4)))) for _ in range(2))
            ma, mb = sum_matrix(a), sum_matrix(b)
            dense = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
            assert a.commutes(b) == dense, (render_sum(a), render_sum(b))
            seen.add(dense)
        assert seen == {True, False}

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            sigma(1, 1).commutes(sigma(1, 1, 1))

    def test_answer_does_not_change_when_both_operators_are_rescaled(self):
        # the commutator's 2e-14 coefficient is below TOL_ALG in absolute terms
        assert not (1e-7 * sigma(1)).commutes(1e-7 * sigma(2))
        # an exact-zero rule would read this pair's 6.9e-18j residue as nonzero
        a = 0.1 * sigma(1) + 0.3 * sigma(3)
        assert a.commutes(0.7 * a)
        ops = eigenops.catalog_basis("v42~").operators
        for scale in (1e-8, 1e8, 1j):
            scaled = [scale * op for op in ops]
            for i, sa in enumerate(scaled):
                for sb in scaled[i + 1:]:
                    assert sa.commutes(sb), (scale, sa, sb)

    @pytest.mark.parametrize("n", [3, 4])
    def test_even_s2_words_all_commute(self, n):
        from merminkit.eigenops import candidate_words

        words = candidate_words(n)
        for i, wa in enumerate(words):
            for wb in words[i + 1:]:
                assert sigma(*wa).commutes(sigma(*wb)), (wa, wb)


class TestApply:
    def test_sigma111_fixes_ghz3(self):
        u3 = ghz(3)
        assert sigma(1, 1, 1).apply(u3) == u3

    def test_empty_sum_gives_zero_vector(self):
        out = PauliSum.zero(3).apply(ghz(3))
        assert out.is_zero()

    def test_tau3_fixes_sym_dicke_125(self):
        v = sym_dicke(3, 1, (1, 2, 5))
        out = tau3().apply(v)
        assert np.array_equal(out.amps, v.amps)
        oracle = sum_matrix(tau3()) @ v.amps
        assert np.array_equal(oracle, out.amps)

    def test_random_apply_matches_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = random_sum(rng, n)
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            v = StateVector(n, amps)
            assert np.allclose(a.apply(v).amps, sum_matrix(a) @ amps, atol=1e-12)

    def test_apply_is_product_homomorphism(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            a = random_sum(rng, n)
            b = random_sum(rng, n)
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            v = StateVector(n, amps)
            assert np.allclose(
                (a * b).apply(v).amps, a.apply(b.apply(v)).amps, atol=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigma(1, 1).apply(ghz(3))


class TestAlgebraProperties:
    def test_associativity(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            a, b, c = (random_sum(rng, n) for _ in range(3))
            assert ((a * b) * c).allclose(a * (b * c), tol=1e-9)

    def test_distributivity(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            a, b, c = (random_sum(rng, n) for _ in range(3))
            assert (a * (b + c)).allclose(a * b + a * c, tol=1e-9)


class TestTextForm:
    def test_render_simple(self):
        assert render_sum(sigma(1, 2, 2)) == "s(1,2,2)"
        assert render_sum(-1.0 * sigma(1, 2, 2)) == "-s(1,2,2)"
        assert render_sum(tau3()) == "s(1,2,2) + s(2,1,2) + s(2,2,1)"
        assert render_sum(PauliSum.zero(2)) == "0"

    def test_render_coefficients(self):
        assert render_sum(2.0 * sigma(0, 3)) == "2*s(0,3)"
        assert render_sum(sigma(1, coeff=1j)) == "i*s(1)"
        assert render_sum(sigma(1, coeff=1 + 2j)) == "(1+2i)*s(1)"
        assert render_sum(sigma(1, 1) - 2.0 * sigma(2, 2)) == "s(1,1) - 2*s(2,2)"

    def test_parse_round_trip(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            s = random_sum(rng, n)
            assert parse_sum(render_sum(s), n=n).allclose(s, tol=1e-9)

    def test_parse_examples(self):
        assert parse_sum("s(1,2,2)") == sigma(1, 2, 2)
        assert parse_sum("-2.5*s(0,3)") == -2.5 * sigma(0, 3)
        assert parse_sum("i*s(1)+s(2)") == sigma(1, coeff=1j) + sigma(2)
        assert parse_sum("(1-2i)*s(2,1)") == sigma(2, 1, coeff=1 - 2j)
        assert parse_sum("0", n=3).is_zero()

    @pytest.mark.parametrize("text", ["nan*s(1,1,1)", "-nan*s(1,1)",
                                      "(1+nani)*s(1,1,1)", "s(1,1) + nan*s(2,2)"])
    def test_nan_coefficient_refused(self, text):
        with pytest.raises(ValueError, match="not a number"):
            parse_sum(text)

    @pytest.mark.parametrize("text,expected", [("1e999*s(1,1,1)", (math.inf, 0.0)),
                                               ("-1e999*s(1,1,1)", (-math.inf, 0.0)),
                                               ("1e999i*s(1,1,1)", (0.0, math.inf))])
    def test_infinite_coefficient_has_no_nan_part(self, text, expected):
        # the term's sign must not multiply a 0 part into 0 * inf = NaN
        ((_, coeff),) = parse_sum(text).terms()
        assert (coeff.real, coeff.imag) == expected

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_sum("s(1,5)")
        with pytest.raises(ValueError):
            parse_sum("nonsense")
        with pytest.raises(ValueError):
            parse_sum("s(1,1) + s(1,1,1)")
        with pytest.raises(ValueError):
            parse_sum("s(1,1)", n=3)


@pytest.mark.parametrize("text",
                         ["1e-13*s(1,1,1)", "-1e-12*s(1,2)", "s(1,1) + 1e-13i*s(2,2)"])
def test_parse_refuses_coefficients_that_would_be_pruned(text):
    with pytest.raises(ValueError, match="is at most 1e-12"):
        parse_sum(text)


def test_parse_keeps_exact_cancellation_and_small_kept_coefficients():
    assert parse_sum("s(1,1) - s(1,1)").is_zero()
    ((_, coeff),) = parse_sum("2e-12*s(1,1)").terms()
    assert coeff == 2e-12


@pytest.mark.parametrize("text", ["0.1*s(1,1,1) + 0.2*s(1,1,1) - 0.3*s(1,1,1)",
                                  "s(2,2) + 0.1i*s(1,1) + 0.2i*s(1,1) - 0.3i*s(1,1)",
                                  "1e999*s(1,1,1) - 1e999*s(1,1,1)"])
def test_parse_refuses_terms_that_cancel_inexactly(text):
    with pytest.raises(ValueError, match="nonzero but not above 1e-12"):
        parse_sum(text)


def test_parse_keeps_exact_cancellation_of_several_terms():
    assert parse_sum("0.5*s(1,1,1) + 0.25*s(1,1,1) - 0.75*s(1,1,1)").is_zero()
    ((letters, coeff),) = parse_sum("0.5*s(1,2) + 0.25*s(1,2) + s(3,3) - s(3,3)").terms()
    assert (letters, coeff) == ((1, 2), 0.75)


@pytest.mark.parametrize("text", ["(1.7e308+1.7e308i)*s(1,1,1)",
                                  "(1e308+1e308i)*s(1,1) + (0.7e308+0.7e308i)*s(1,1)"])
def test_parse_refuses_a_modulus_beyond_the_float_range(text):
    with pytest.raises(ValueError, match="beyond the float range"):
        parse_sum(text)


@pytest.mark.parametrize("text,expected", [("1.E+3*s(1,1)", 1000 * sigma(1, 1)),
                                           ("5.e-1i*s(1,2)", sigma(1, 2, coeff=0.5j)),
                                           ("s(1,1) - 1.E-1*s(2,2)",
                                            sigma(1, 1) - 0.1 * sigma(2, 2))])
def test_parse_reads_an_exponent_sign_after_a_trailing_point(text, expected):
    assert parse_sum(text) == expected


@pytest.mark.parametrize("text", ["*s(1,1,1)", "-*s(1,1)", "s(1)+*s(2)"])
def test_parse_refuses_an_empty_coefficient(text):
    with pytest.raises(ValueError, match="bad term"):
        parse_sum(text)


@pytest.mark.parametrize("text,rest", [("--s(1)", "'--s(1)'"), ("s(1)+-s(2)", "'+-s(2)'"),
                                       ("s(1)s(2)", "'s(2)'"), ("s(1,1) + 2 * s(2)x", "'x'"),
                                       ("", "''")])
def test_parse_error_quotes_the_text_from_the_failing_term(text, rest):
    with pytest.raises(ValueError, match=f"^bad term at {re.escape(rest)};") as info:
        parse_sum(text)
    assert "\n" not in str(info.value)


def test_parse_ignores_whitespace_anywhere():
    text = "2*s(1,2,2) - 1.5e-1i*s(2,1,2) + (1-2i)*s(2,2,1)"
    expected = parse_sum(text)
    for k in range(len(text) + 1):
        for blank in ("\t", "\n", " \r\n "):
            assert parse_sum(text[:k] + blank + text[k:]) == expected, (k, blank)


@pytest.mark.parametrize("chunk", ["1.E+3", ".5", "5.", "1_000", "2i", "-i", "(1+2i)",
                                   "1e-3i", "-2.5e+2"])
def test_every_coeffs_chunk_is_a_term_coefficient(chunk):
    (coeff,) = _parse_coeff_list(chunk)
    assert parse_sum(f"{chunk}*s(1,1)") == sigma(1, 1, coeff=coeff)


def test_catalog_rows_and_device_expressions_round_trip_exactly():
    ops = [eq.expr for d in instructional.devices()
           for eq in instructional.device_system(d).equations]
    for state_id in eigenops.STATE_IDS:
        ops += eigenops.catalog_basis(state_id).operators
        ops += eigenops.eigen_basis(eigenops.catalog_state(state_id)).operators
    for op in ops:
        assert parse_sum(render_sum(op), n=op.n) == op, render_sum(op)


def test_render_sum_round_trips_seeded_complex_sums():
    # parts exact in 15 significant digits, so the rendered text holds every bit
    rng = np.random.default_rng(20261019)

    def part():
        return float(f"{rng.uniform(-10, 10):.15g}e{rng.integers(-6, 7)}")

    def coeff():
        kind = rng.integers(5)
        if kind == 0:
            return complex(rng.choice([1, -1, 1j, -1j]))
        return complex(part() if kind != 2 else 0.0, part() if kind != 1 else 0.0)

    negative_imaginary_later = 0
    for _ in range(400):
        n = int(rng.integers(1, 5))
        keys = rng.choice(4 ** n, size=int(rng.integers(1, min(7, 4 ** n + 1))), replace=False)
        s = PauliSum.from_words(
            PauliWord(tuple(int(k) // 4 ** b % 4 for b in range(n)), coeff()) for k in keys)
        negative_imaginary_later += any(c.imag < 0 for _, c in list(s.terms())[1:])
        text = render_sum(s)
        assert "+ -" not in text
        assert parse_sum(text, n) == s, text
    assert negative_imaginary_later > 100


@pytest.mark.parametrize("make, message", [
    (lambda: PauliWord(()), "word needs at least one letter"),
    (lambda: PauliSum.from_words([]), "cannot infer qubit count from an empty word list"),
    (lambda: parse_sum("0"), "parsing '0' needs an explicit qubit count"),
], ids=["empty-word", "no-words", "zero-without-n"])
def test_refusals_without_a_qubit_count(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# -- the byte table of parity signs -------------------------------------------


@pytest.mark.parametrize("bits", [3, 8, 9, 16])
def test_parity_sign_on_every_value_below_two_to_the_bits(bits):
    got = parity_sign(np.arange(1 << bits, dtype=np.int64), bits)
    assert got.dtype == np.int64
    assert got.tolist() == [(-1) ** bin(k).count("1") for k in range(1 << bits)]


def test_parity_sign_on_seeded_four_byte_values():
    # solve refuses n > 16, so its indices and masks stay below 2**32
    values = np.random.default_rng(20261019).integers(0, 1 << 32, 20000, dtype=np.int64)
    assert parity_sign(values, 32).tolist() == [
        (-1) ** bin(k).count("1") for k in values.tolist()]


def test_apply_on_nine_qubits_matches_the_kronecker_oracle():
    # nine qubits give a second index byte, read by a second table lookup
    rng = np.random.default_rng(20261019)
    letters = [tuple(int(j) for j in rng.integers(0, 4, 9)) for _ in range(3)]
    s = PauliSum.from_words(PauliWord(w, c) for w, c in zip(letters, (1.0, -2j, 0.5 + 1j)))
    v = StateVector(9, rng.standard_normal(512) + 1j * rng.standard_normal(512))
    assert np.allclose(s.apply(v).amps, sum_matrix(s) @ v.amps, rtol=0, atol=1e-12)


# -- apply without complex products for real and imaginary phases ----------------


I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def complex_product_apply(s, v):
    """The parent revision's ``PauliSum.apply``, a complex product per term, as it was."""
    index = np.arange(1 << s.n)
    minus = -v.amps
    out = np.zeros(1 << s.n, dtype=complex)
    for (x, z), coeff in s.keyed_terms().items():
        amps = np.where(parity_sign(index & z, s.n) < 0, minus, v.amps)
        out[index ^ x] += coeff * I_POW[(x & z).bit_count() % 4] * amps
    return out


def seeded_states(n, rng, count):
    """Seeded complex states, a quarter of their parts signed zeros."""
    for _ in range(count):
        parts = rng.standard_normal(2 << n)
        zeros = rng.random(2 << n) < 0.25
        parts[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        yield StateVector(n, parts.view(complex))


def library_operators():
    """Every catalog and solved operator, and seeded sums whose phases are real,
    imaginary or neither."""
    ops = []
    for state_id in eigenops.STATE_IDS:
        ops += eigenops.catalog_basis(state_id).operators
        ops += eigenops.eigen_basis(eigenops.catalog_state(state_id)).operators
    rng = np.random.default_rng(20261022)
    for n in (3, 4):
        for kind in (1.0, 1j, 1.0 + 1j):
            for _ in range(10):
                words = [PauliWord(tuple(int(j) for j in rng.integers(0, 4, n)),
                                   complex(rng.uniform(-2, 2)) * kind) for _ in range(3)]
                ops.append(PauliSum.from_words(words))
    return ops


def test_apply_is_bit_equal_to_the_complex_product_on_finite_input():
    rng = np.random.default_rng(20261023)
    checked = 0
    for op in library_operators():
        states = [ghz(op.n), *seeded_states(op.n, rng, 4)]
        for v in states:
            assert op.apply(v).amps.tobytes() == complex_product_apply(op, v).tobytes()
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("letters, amp, index, image", [
    ((1, 1, 1), complex(math.inf, 0.0), 7, complex(math.inf, 0.0)),
    ((1, 1, 1), complex(0.0, -math.inf), 7, complex(0.0, -math.inf)),
    ((2, 2, 2), complex(math.inf, 0.0), 7, complex(0.0, -math.inf)),
    ((3, 1, 2), complex(-math.inf, 0.0), 3, complex(0.0, -math.inf)),
], ids=["real-phase", "real-phase-imag-amp", "imag-phase", "imag-phase-signed"])
def test_an_infinite_amplitude_keeps_its_zero_part(letters, amp, index, image):
    amps = np.zeros(8, dtype=complex)
    amps[0] = amp
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0 * inf on the way
        out = sigma(*letters).apply(StateVector(3, amps)).amps
    assert out[index].real == image.real and out[index].imag == image.imag
    assert np.count_nonzero(out) == 1
