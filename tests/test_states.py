"""Tests for state constructors and the exchange-flip symmetry."""

import copy
import math
import pickle
from math import comb

import numpy as np
import pytest

from merminkit import bounds, eigenops
from merminkit.states import (
    CATALOG_IDS,
    StateVector,
    catalog_state,
    dicke,
    exchange_flip,
    ghz,
    is_exchange_symmetric,
    pack_basis_word,
    sym_coeff_count,
    sym_dicke,
    unit_scaled,
    unpack_basis_word,
)

from conftest import random_nonzero_coeffs


class TestBasisPacking:
    def test_qubit_one_is_most_significant(self):
        assert pack_basis_word((2, 1, 1)) == 0b100
        assert pack_basis_word((1, 1, 2)) == 0b001

    def test_round_trip(self):
        for index in range(16):
            assert pack_basis_word(unpack_basis_word(index, 4)) == index

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            pack_basis_word((1, 0, 2))


class TestGhz:
    @pytest.mark.parametrize("n", [3, 4])
    def test_two_unit_amplitudes(self, n):
        v = ghz(n)
        assert v.amps[0] == 1
        assert v.amps[(1 << n) - 1] == 1
        assert np.count_nonzero(v.amps) == 2

    def test_exchange_symmetric(self):
        for n in (3, 4):
            assert exchange_flip(ghz(n)) == ghz(n)

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            ghz(2)


class TestDicke:
    @pytest.mark.parametrize("n,m", [(3, 1), (4, 1), (4, 2)])
    def test_weight_m_support(self, n, m):
        v = dicke(n, m)
        assert np.count_nonzero(v.amps) == comb(n, m)
        for index in range(1 << n):
            weight = bin(index).count("1")
            assert v.amps[index] == (1 if weight == m else 0)

    def test_w_state_layout(self):
        v = dicke(3, 1)
        for word in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
            assert v.amps[pack_basis_word(word)] == 1

    def test_not_exchange_symmetric_when_unbalanced(self):
        assert exchange_flip(dicke(4, 1)) != dicke(4, 1)
        assert not is_exchange_symmetric(dicke(3, 1))

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            dicke(3, 2)
        with pytest.raises(ValueError):
            dicke(4, 0)


class TestSymDicke:
    def test_w_family_all_ones(self):
        v = sym_dicke(3, 1)
        for word in ((1, 1, 2), (1, 2, 1), (2, 1, 1),
                     (2, 2, 1), (2, 1, 2), (1, 2, 2)):
            assert v.amps[pack_basis_word(word)] == 1
        assert np.count_nonzero(v.amps) == 6

    def test_w_family_pair_layout(self):
        v = sym_dicke(3, 1, (1, 2, 5))
        expected = {0b100: 1, 0b011: 1, 0b010: 2, 0b101: 2, 0b001: 5, 0b110: 5}
        for index in range(8):
            assert v.amps[index] == expected.get(index, 0)

    def test_four_qubit_degree_one_layout(self):
        # direct construction: coefficient k weights the pair whose
        # representative has e2 on qubit k
        v = sym_dicke(4, 1, (1, 2, 3, 4))
        expected = {
            0b1000: 1, 0b0111: 1,
            0b0100: 2, 0b1011: 2,
            0b0010: 3, 0b1101: 3,
            0b0001: 4, 0b1110: 4,
        }
        for index in range(16):
            assert v.amps[index] == expected.get(index, 0)

    def test_balanced_family_with_unit_coeffs_is_plain_dicke(self):
        assert sym_dicke(4, 2, (1, 1, 1)) == dicke(4, 2)

    def test_w_symmetrization_is_state_plus_flip(self):
        v = dicke(3, 1)
        combined = StateVector(3, v.amps + exchange_flip(v).amps)
        assert sym_dicke(3, 1) == combined

    def test_flip_invariant_for_random_coeffs(self, rng):
        for n, m in ((3, 1), (4, 1), (4, 2)):
            for k in range(20):
                coeffs = random_nonzero_coeffs(
                    rng, sym_coeff_count(n, m), complex_valued=(k % 2 == 0)
                )
                v = sym_dicke(n, m, coeffs)
                assert exchange_flip(v) == v

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            sym_dicke(3, 1, (1, 0, 1))

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            sym_dicke(4, 1, (1, 2, 3))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            sym_dicke(4, 3)
        with pytest.raises(ValueError):
            sym_coeff_count(5, 1)


class TestCatalog:
    def test_every_id_and_alias_builds(self):
        expected = {
            "u3": ghz(3), "u4": ghz(4), "ghz3": ghz(3), "ghz4": ghz(4),
            "v31": dicke(3, 1), "v41": dicke(4, 1), "v42": dicke(4, 2),
            "v31~": sym_dicke(3, 1), "v41~": sym_dicke(4, 1), "v42~": sym_dicke(4, 2),
        }
        assert set(CATALOG_IDS) | {"ghz3", "ghz4"} == set(expected)
        for state_id, state in expected.items():
            assert catalog_state(state_id) == state, state_id
        for alias, state_id in (("ghz3", "u3"), ("ghz4", "u4")):
            assert np.array_equal(catalog_state(alias).amps,
                                  catalog_state(state_id).amps)
        assert catalog_state("v42~", (1, 2, 3)) == sym_dicke(4, 2, (1, 2, 3))
        for bad_id, coeffs in (("u5", None), ("ghz3", (1, 2)), ("v31", (1, 1, 1))):
            with pytest.raises(ValueError):
                catalog_state(bad_id, coeffs)
        # the per-module names are the one catalog, restricted to their rows
        assert eigenops.catalog_state is bounds.bound_state is catalog_state
        assert set(eigenops.STATE_IDS) | set(bounds.BOUND_STATE_IDS) <= set(CATALOG_IDS)
        with pytest.raises(ValueError):
            eigenops.catalog_basis("v31")


class TestExchangeFlip:
    def test_moves_amplitudes_to_complement(self, rng):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = StateVector(3, amps)
        flipped = exchange_flip(v)
        for index in range(8):
            assert flipped.amps[7 ^ index] == amps[index]

    def test_involution(self, rng):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v = StateVector(4, amps)
        assert exchange_flip(exchange_flip(v)) == v


class TestStateVector:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateVector(3, np.zeros(4))

    def test_immutable(self):
        v = ghz(3)
        with pytest.raises(AttributeError):
            v.n = 4
        with pytest.raises(ValueError):
            v.amps[0] = 5

    def test_input_array_is_copied(self):
        amps = np.ones(8, dtype=complex)
        v = StateVector(3, amps)
        amps[0] = 5
        assert np.array_equal(v.amps, np.ones(8))

    def test_json_round_trip(self, rng):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = StateVector(3, amps)
        assert StateVector.from_json_dict(v.to_json_dict()) == v

    def test_allclose_admits_a_difference_exactly_at_its_tolerance(self):
        assert StateVector(1, [1e-12, 0]).allclose(StateVector(1, [0, 0]))

    def test_repr_writes_python_complex_numbers(self):
        # numpy scalars would print as np.complex128(1+0j) under numpy 2
        assert repr(ghz(3)) == "StateVector(n=3, nonzero={0: (1+0j), 7: (1+0j)})"

    def test_norm_sq(self):
        assert dicke(3, 1).norm_sq == 3.0
        assert ghz(4).norm_sq == 2.0

    @pytest.mark.parametrize("state_id", CATALOG_IDS)
    def test_norm_sq_is_kept_once_per_state(self, state_id):
        u = unit_scaled(catalog_state(state_id))
        fresh = float(np.vdot(u.amps, u.amps).real)
        assert u.norm_sq is u.norm_sq
        assert np.float64(u.norm_sq).tobytes() == np.float64(fresh).tobytes()

    @pytest.mark.parametrize("make", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_rebuild_an_equal_immutable_state(self, make):
        v = sym_dicke(3, 1, [1, 2 + 1j, 5])
        unit_scaled(v), v.norm_sq  # fill the caches, which a copy does not carry
        w = make(v)
        assert type(w) is StateVector and w == v
        assert w.amps.tobytes() == v.amps.tobytes()
        assert w._unit is None and w._norm_sq is None
        assert not w.amps.flags.writeable
        with pytest.raises(ValueError):
            w.amps[0] = 5
        with pytest.raises(AttributeError, match="immutable"):
            w.n = 4
        assert unit_scaled(w).amps.tobytes() == unit_scaled(v).amps.tobytes()


class TestUnitScaled:
    @pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e-200, 0.75, 1.0, 3.0, 1e200, 1e307])
    def test_one_exact_power_of_two(self, scale, rng):
        parts = rng.standard_normal(16) * scale  # real and imaginary parts
        u = unit_scaled(StateVector(3, parts.view(complex)))
        assert 0.5 <= np.max(np.abs(u.amps)) < 1.0
        # same mantissas, and one exponent shift on every nonzero part
        mantissas, exponents = np.frexp(u.amps.view(float))
        assert np.array_equal(mantissas, np.frexp(parts)[0])
        assert len(set((exponents - np.frexp(parts)[1])[parts != 0].tolist())) == 1

    def test_zero_state_refused(self):
        with pytest.raises(ValueError, match="identically zero"):
            unit_scaled(StateVector(3, np.zeros(8)))

    @pytest.mark.parametrize("state_id", CATALOG_IDS)
    def test_a_state_in_range_keeps_every_bit(self, state_id):
        v = catalog_state(state_id)  # largest amplitude 1, so halved once
        u = unit_scaled(v)
        assert u.amps.tobytes() == (v.amps * 0.5).tobytes()
        assert unit_scaled(u).amps.tobytes() == u.amps.tobytes()
        for factor in (0.5, 0.75, 0.999):
            w = StateVector(v.n, v.amps * factor)
            assert unit_scaled(w).amps.tobytes() == w.amps.tobytes()

    @pytest.mark.parametrize("power", [-1000, -600, -1, 1, 3, 600, 1023])
    def test_power_of_two_scaled_states_get_a_fresh_equal_copy(self, power, rng):
        parts = rng.uniform(0.25, 0.6, 16) * rng.choice([-1.0, 1.0], 16)
        parts[:2] = 0.875, 0.0  # the largest modulus, in range; all parts stay normal
        u = StateVector(3, parts.view(complex))
        v = StateVector(3, np.ldexp(parts, power).view(complex))
        got = unit_scaled(v)
        assert got is not v and got is not u
        assert got.amps.tobytes() == u.amps.tobytes()


def test_finite_parts_whose_modulus_overflows_scale_like_a_smaller_copy(rng):
    coeffs = [1.7e308 + 1.7e308j, 1, 1]  # the modulus of the first is beyond the float range
    big = sym_dicke(3, 1, coeffs)
    small = sym_dicke(3, 1, [c * 2.0 ** -1000 for c in coeffs])
    assert unit_scaled(big).amps.tobytes() == unit_scaled(small).amps.tobytes()
    assert len(eigenops.eigen_basis(big)) == len(eigenops.eigen_basis(small)) == 4
    for _ in range(5):
        x, y = (v / np.linalg.norm(v, axis=1, keepdims=True)
                for v in rng.standard_normal((2, 3, 3)))
        setting = bounds.MeasurementSetting(x, y)
        assert bounds.expectation(big, setting) == bounds.expectation(small, setting)


def fresh_rescale(v):
    """v's amplitudes times 2**-e, e the frexp exponent of the largest modulus, by hand."""
    pairs = v.amps.view(float).reshape(-1, 2).tolist()
    top = max(math.hypot(re, im) for re, im in pairs)
    if math.isfinite(top):
        exp = math.frexp(top)[1]
    else:  # the halves' modulus is finite, and its exponent one less
        exp = math.frexp(max(math.hypot(re / 2, im / 2) for re, im in pairs))[1] + 1
    return np.ldexp(v.amps.view(float), -exp).view(complex)


def rescale_cases():
    rng = np.random.default_rng(20261020)
    cases = {sid: catalog_state(sid) for sid in CATALOG_IDS}
    for scale in (5e-324, 1e-310, 1e308):
        parts = rng.uniform(-1.5, 1.5, 16) * scale
        cases[f"scale-{scale:g}"] = StateVector(3, parts.view(complex))
    cases["modulus-overflow"] = sym_dicke(3, 1, [1.7e308 + 1.7e308j, 1, 1])
    return cases


class TestUnitScaledOncePerState:
    @pytest.mark.parametrize("case", list(rescale_cases()))
    def test_one_twin_per_state_equal_to_a_fresh_rescale(self, case):
        v = rescale_cases()[case]
        u = unit_scaled(v)
        assert u is unit_scaled(v) and u is not v
        assert u.amps.tobytes() == fresh_rescale(v).tobytes()
        assert v.amps.tobytes() == rescale_cases()[case].amps.tobytes()  # v is untouched

    @pytest.mark.parametrize("amp, message", [
        (0.0, "identically zero"),
        (complex(np.nan, 0.0), "non-finite"),
        (complex(0.0, -np.inf), "non-finite"),
    ], ids=["zero", "nan", "inf"])
    def test_a_refused_state_is_refused_on_every_call(self, amp, message):
        amps = np.zeros(8, dtype=complex)
        amps[3] = amp
        v = StateVector(3, amps)
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                unit_scaled(v)

    @pytest.mark.parametrize("state_id", bounds.BOUND_STATE_IDS)
    def test_one_state_reused_for_many_settings_reads_as_a_fresh_one(self, state_id):
        v = catalog_state(state_id)
        n = v.n
        rng = np.random.default_rng(20261021)
        for k in range(200):
            x, y = (w / np.linalg.norm(w, axis=1, keepdims=True)
                    for w in rng.standard_normal((2, n, 3)))
            setting = (bounds.MeasurementSetting(x, y) if k % 2 else
                       bounds.MeasurementSetting.uniform(n, x[0], y[0]))
            got = bounds.expectation(v, setting)
            want = bounds.expectation(catalog_state(state_id), setting)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("amp", [complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)],
                         ids=["nan", "inf-imag", "minus-inf-real"])
@pytest.mark.parametrize("call", [
    lambda v: bounds.maximize(v, starts=2),
    lambda v: bounds.expectation(v, bounds.MeasurementSetting.pauli12(3)),
    lambda v: eigenops.eigen_basis(v),
], ids=["maximize", "expectation", "eigen_basis"])
def test_non_finite_amplitude_is_refused_by_every_numeric_path(call, amp):
    amps = np.ones(8, dtype=complex)
    amps[[2, 5]] = amp  # a conjugate pair, so the state stays exchange symmetric
    with pytest.raises(ValueError, match="^state has a non-finite amplitude$"):
        call(StateVector(3, amps))
