"""Tests for dense Mermin operators, closed-form expectations, and maxima."""

import hashlib
import math
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from scipy.optimize import minimize

from merminkit import bounds as bd
from merminkit.states import StateVector, dicke, ghz, sym_coeff_count, sym_dicke
from merminkit.states import unit_scaled

from conftest import kron_word, random_nonzero_coeffs, random_unit_vector


def random_setting(n, rng):
    return bd.MeasurementSetting(
        np.array([random_unit_vector(rng) for _ in range(n)]),
        np.array([random_unit_vector(rng) for _ in range(n)]),
    )


def collinear_max(state_id, tries=40, seed=5):
    """Best |mu| over the two-variable collinear landscapes, via multistart."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for sign in (1, -1):
        for flip in (1.0, -1.0):
            def objective(angles):
                x3, y3 = math.cos(angles[0]), math.cos(angles[1])
                return -flip * bd.collinear_mu(state_id, sign, x3, y3)

            for _ in range(tries):
                res = minimize(
                    objective, rng.uniform(0, math.pi, size=2),
                    method="Nelder-Mead",
                    options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
                )
                best = max(best, -res.fun)
    return best


class TestMerminTerms:
    def test_three_qubit_pattern(self):
        assert bd.mermin_terms(3) == [
            (1, (0, 0, 0)), (-1, (0, 1, 1)), (-1, (1, 0, 1)), (-1, (1, 1, 0)),
        ]

    def test_four_qubit_pattern(self):
        terms = bd.mermin_terms(4)
        assert [sign for sign, _ in terms] == [1, -1, -1, -1, -1, -1, -1, 1]
        assert terms[0][1] == (0, 0, 0, 0)
        assert terms[-1][1] == (1, 1, 1, 1)

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            bd.mermin_terms(5)


class TestMerminOperator:
    def test_pauli12_fixes_ghz3(self):
        m = bd.mermin_operator(3, bd.MeasurementSetting.pauli12(3))
        u3 = ghz(3)
        assert np.allclose(m @ u3.amps, 4 * u3.amps)

    def test_pauli12_fixes_ghz4(self):
        m = bd.mermin_operator(4, bd.MeasurementSetting.pauli12(4))
        u4 = ghz(4)
        assert np.allclose(m @ u4.amps, 8 * u4.amps)

    def test_equal_observables_collapse_to_one_word(self):
        # with X = Y the three negative terms equal the positive one
        setting = bd.MeasurementSetting.uniform(3, (1, 0, 0), (1, 0, 0))
        m = bd.mermin_operator(3, setting)
        assert np.allclose(m, -2.0 * kron_word((1, 1, 1)))

    def test_hermitian(self, rng):
        for n in (3, 4):
            m = bd.mermin_operator(n, random_setting(n, rng))
            assert np.allclose(m, m.conj().T)

    def test_norm_bounds(self, rng):
        for n, bound in ((3, 4.0), (4, 8.0)):
            for _ in range(30):
                m = bd.mermin_operator(n, random_setting(n, rng))
                assert np.linalg.svd(m, compute_uv=False)[0] <= bound + 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    def test_equals_literal_kron_build(self, n):
        # the signed sum of mermin_terms words, each a chain of np.kron
        rng = np.random.default_rng(4100 + n)
        for _ in range(100):
            setting = random_setting(n, rng)
            xs = [bd.observable(v) for v in setting.x]
            ys = [bd.observable(v) for v in setting.y]
            expected = np.zeros((2**n, 2**n), dtype=complex)
            for sign, pattern in bd.mermin_terms(n):
                term = np.eye(1, dtype=complex)
                for a, which in enumerate(pattern):
                    term = np.kron(term, ys[a] if which else xs[a])
                expected += sign * term
            assert np.array_equal(bd.mermin_operator(n, setting), expected)

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            bd.MeasurementSetting(np.ones((3, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            bd.mermin_operator(4, bd.MeasurementSetting.pauli12(3))


class TestExpectation:
    def test_ghz3_saturates(self):
        assert bd.expectation(ghz(3), bd.MeasurementSetting.pauli12(3)) == 4.0

    def test_ghz4_saturates(self):
        assert bd.expectation(ghz(4), bd.MeasurementSetting.pauli12(4)) == 8.0

    def test_symmetrized_states_annihilated_at_pauli12(self, rng):
        from merminkit.states import sym_coeff_count

        for n, m in ((3, 1), (4, 1), (4, 2)):
            for _ in range(20):
                coeffs = random_nonzero_coeffs(rng, sym_coeff_count(n, m))
                v = sym_dicke(n, m, coeffs)
                assert abs(bd.expectation(v, bd.MeasurementSetting.pauli12(n))) < 1e-12

    def test_balanced_dicke_annihilated_at_pauli12(self):
        assert bd.expectation(dicke(4, 2), bd.MeasurementSetting.pauli12(4)) == 0.0

    def test_real_for_random_states_and_settings(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 5))
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            v = StateVector(n, amps)
            setting = random_setting(n, rng)
            m = bd.mermin_operator(n, setting)
            raw = complex(np.vdot(v.amps, m @ v.amps)) / v.norm_sq
            assert abs(raw.imag) < 1e-9
            assert bd.expectation(v, setting) == pytest.approx(raw.real)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            bd.expectation(StateVector(3, np.zeros(8)),
                           bd.MeasurementSetting.pauli12(3))


class TestRestrictedMu:
    def test_z_axis_values(self):
        z = (0.0, 0.0, 1.0)
        assert bd.restricted_mu("v31", z, z) == 2.0
        assert bd.restricted_mu("v41", z, z) == 4.0

    def test_orthogonal_plane_vectors_vanish_for_balanced_state(self):
        assert bd.restricted_mu("v42", (1, 0, 0), (0, 1, 0)) == 0.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            bd.restricted_mu("v31", (0, 0, 2), (0, 0, 1))

    def test_unknown_state(self):
        with pytest.raises(ValueError):
            bd.restricted_mu("u3", (0, 0, 1), (0, 0, 1))

    @pytest.mark.parametrize("state_id,n", [("v31", 3), ("v41", 4), ("v42", 4)])
    def test_matches_dense_expectation(self, state_id, n, rng):
        v = bd.bound_state(state_id)
        for _ in range(60):
            x = random_unit_vector(rng)
            y = random_unit_vector(rng)
            setting = bd.MeasurementSetting.uniform(n, x, y)
            assert bd.restricted_mu(state_id, x, y) == pytest.approx(
                bd.expectation(v, setting), abs=1e-9
            )


class TestCollinearMu:
    def test_origin_vanishes(self):
        assert bd.collinear_mu("v31", 1, 0.0, 0.0) == 0.0

    def test_w_state_optimum_value(self):
        value = bd.collinear_mu("v31", 1, bd.W_OPT_X3, -bd.W_OPT_Y3)
        assert abs(value) == pytest.approx(bd.EXACT_BOUNDS["v31"], abs=1e-12)

    def test_balanced_state_edge_value(self):
        assert bd.collinear_mu("v42", 1, 1.0, 0.0) == 6.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bd.collinear_mu("v31", 1, 1.5, 0.0)
        with pytest.raises(ValueError):
            bd.collinear_mu("v31", 2, 0.5, 0.0)

    def test_consistent_with_restricted_on_collinear_settings(self, rng):
        for state_id in ("v31", "v41", "v42"):
            for _ in range(40):
                x3, y3 = rng.uniform(-1, 1, size=2)
                phi = rng.uniform(0, 2 * math.pi)
                for sign, psi in ((1, phi), (-1, phi + math.pi)):
                    rx = math.sqrt(1 - x3 * x3)
                    ry = math.sqrt(1 - y3 * y3)
                    x = (rx * math.cos(phi), rx * math.sin(phi), x3)
                    y = (ry * math.cos(psi), ry * math.sin(psi), y3)
                    assert bd.collinear_mu(state_id, sign, x3, y3) == pytest.approx(
                        bd.restricted_mu(state_id, x, y), abs=1e-12
                    )


class TestContour:
    def test_reflection_between_sign_branches(self):
        for state_id in ("v31", "v41", "v42"):
            plus = bd.contour(state_id, 1, 21)
            minus = bd.contour(state_id, -1, 21)
            assert np.max(np.abs(minus.values - plus.values[:, ::-1])) == 0.0

    def test_w_state_grid_maximum(self):
        grid = bd.contour("v31", 1, 201)
        assert abs(grid.values).max() == pytest.approx(
            bd.EXACT_BOUNDS["v31"], abs=0.01
        )

    def test_balanced_state_attains_six_on_the_orbit(self):
        grid = bd.contour("v42", 1, 201)
        axis = grid.axis
        assert abs(grid.values).max() == pytest.approx(6.0, abs=1e-9)
        for x3, y3 in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
            i = int(np.argmin(np.abs(axis - x3)))
            j = int(np.argmin(np.abs(axis - y3)))
            assert abs(grid.values[i, j]) == pytest.approx(6.0, abs=1e-9)
        # interior orbit points: each sign branch picks up one diagonal
        # orientation, the other shows up mirrored on the opposite branch
        r = 1 / math.sqrt(2)
        assert abs(bd.collinear_mu("v42", 1, r, -r)) == pytest.approx(6.0, abs=1e-9)
        assert abs(bd.collinear_mu("v42", -1, r, r)) == pytest.approx(6.0, abs=1e-9)
        i = int(np.argmin(np.abs(axis - r)))
        j = int(np.argmin(np.abs(axis + r)))
        assert abs(grid.values[i, j]) == pytest.approx(6.0, abs=0.01)

    def test_axis_is_symmetric(self):
        axis = bd.contour("v31", 1, 11).axis
        assert np.array_equal(axis, -axis[::-1])

    def test_csv_lines(self):
        grid = bd.contour("v31", 1, 3)
        lines = bd.contour_csv_lines(grid)
        assert lines[0] == "x3,y3,mu"
        assert len(lines) == 1 + 9
        assert lines[1].split(",")[:2] == ["-1", "-1"]

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            bd.contour("v31", 1, 1)

    @pytest.mark.parametrize("resolution", [1, 0])
    def test_hand_built_grid_below_two_samples_refused(self, resolution):
        # the axis once divided 0 by 0 and wrote nan,nan,0 with a RuntimeWarning
        grid = bd.ContourGrid(state_id="v31", sign=1, resolution=resolution,
                              values=np.zeros((resolution, resolution)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for read in (lambda: grid.axis, lambda: bd.contour_csv_rows(grid),
                         lambda: bd.contour_csv_lines(grid)):
                with pytest.raises(ValueError, match="^resolution must be at least 2$"):
                    read()

    def test_resolution_above_limit_refused(self):
        # refused before any grid is allocated
        for resolution in (bd.MAX_RESOLUTION + 1, 10**6):
            with pytest.raises(ValueError, match="refused"):
                bd.contour("v31", 1, resolution)

    @staticmethod
    def per_cell_csv(grid):
        lines = ["x3,y3,mu"]
        for i, x3 in enumerate(grid.axis):
            for j, y3 in enumerate(grid.axis):
                lines.append(f"{x3:.6g},{y3:.6g},{grid.values[i, j]:.6g}")
        return lines

    @pytest.mark.parametrize("state_id", ["v31", "v41", "v42"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_csv_matches_per_cell_format(self, state_id, sign):
        grid = bd.contour(state_id, sign, 201)
        assert bd.contour_csv_lines(grid) == self.per_cell_csv(grid)

    @pytest.mark.parametrize("resolution", sorted({*range(2, 61), *(
        k * bd.CSV_BLOCK_ROWS + d for k, d in ((1, -1), (1, 0), (1, 1), (2, 1)))}))
    def test_csv_blocks_match_per_cell_format(self, resolution):
        # short grids, and grids one row either side of a block boundary
        grid = bd.contour("v41", -1, resolution)
        assert bd.contour_csv_lines(grid) == self.per_cell_csv(grid)

    @pytest.mark.parametrize("state_id, sign, resolution",
                             [("v42", 1, 201), ("v31", -1, 401)])
    def test_csv_lines_are_the_streamed_text(self, state_id, sign, resolution):
        grid = bd.contour(state_id, sign, resolution)
        streamed, count = hashlib.sha256(), 0
        for row in bd.contour_csv_rows(grid):
            streamed.update(row.encode())
            count += row.count("\n")
        lines = bd.contour_csv_lines(grid)
        assert len(lines) == count == 1 + resolution * resolution
        joined = hashlib.sha256(("\n".join(lines) + "\n").encode())
        assert joined.hexdigest() == streamed.hexdigest()

    def test_csv_lines_hold_no_whole_grid_text(self):
        # the traced peak stays within a block of text of the lines themselves
        grid = bd.contour("v42", 1, 201)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            lines = bd.contour_csv_lines(grid)
            size, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(lines) == 1 + 201 * 201
        assert peak < size + 0.25e6, (size, peak)

    def test_csv_formats_edge_values(self):
        values = np.array([[-0.0, 1e-7, 123456.7],
                           [0.0, -1e-7, -123456.7],
                           [1234567.0, 0.1 + 0.2, -2.5e-300]])
        grid = bd.ContourGrid(state_id="v31", sign=1, resolution=3, values=values)
        lines = bd.contour_csv_lines(grid)
        assert lines == self.per_cell_csv(grid)
        assert lines[1:4] == ["-1,-1,-0", "-1,0,1e-07", "-1,1,123457"]


def test_csv_formats_non_finite_and_extreme_values():
    # NaN, infinities, a negative zero, the smallest subnormal and values near
    # the float limits format as they do cell by cell
    values = np.array([[np.nan, np.inf, -np.inf],
                       [-0.0, 5e-324, 1e300],
                       [-1e300, -5e-324, 0.0]])
    grid = bd.ContourGrid(state_id="v42", sign=-1, resolution=3, values=values)
    lines = bd.contour_csv_lines(grid)
    assert lines == TestContour.per_cell_csv(grid)
    assert lines[1:] == ["-1,-1,nan", "-1,0,inf", "-1,1,-inf",
                         "0,-1,-0", "0,0,4.94066e-324", "0,1,1e+300",
                         "1,-1,-1e+300", "1,0,-4.94066e-324", "1,1,0"]


def csv_mu_column(values):
    """The mu column that ``contour_csv_lines`` writes for ``values``, laid out
    row-major in a square grid padded with zeros, beside ``'%.6g' %`` of each
    value as the grid's ``tolist()`` gives it."""
    values = np.asarray(values).ravel()
    r = max(2, math.isqrt(values.size - 1) + 1)
    cells = np.zeros(r * r, values.dtype)
    cells[:values.size] = values
    grid = bd.ContourGrid(state_id="v31", sign=1, resolution=r, values=cells.reshape(r, r))
    got = [line.rpartition(",")[2] for line in bd.contour_csv_lines(grid)[1:]]
    return got, ["%.6g" % v for v in cells.tolist()]


def test_csv_values_match_percent_format_on_a_million_seeded_doubles():
    # both signs over decimal exponents -330..330 (subnormals, overflow to
    # inf) and densely over the exponents formatted without the % fallback
    rng = np.random.default_rng(20261020)
    for lo, hi in ((-330, 330), (-330, 330), (-18, 24), (-18, 24)):
        with np.errstate(over="ignore"):
            values = 10.0 ** rng.uniform(lo, hi, 250_000)
        values *= rng.choice([-1.0, 1.0], values.size)
        got, want = csv_mu_column(values)
        assert got == want


def test_csv_values_match_percent_format_next_to_decimal_ties():
    # the doubles nearest to 7-digit decimals ending in 5, and their neighbours:
    # the values whose 6-digit rounding a float error could flip
    rng = np.random.default_rng(5)
    digits = rng.integers(100_000, 1_000_000, 30_000) * 10 + 5
    exponents = rng.integers(-22, 28, digits.size)
    ties = np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())])
    values = np.concatenate((ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)))
    got, want = csv_mu_column(np.concatenate((values, -values)))
    assert got == want


def test_csv_values_match_percent_format_around_powers_of_ten():
    # where log10 can round across an integer and give an exponent one too high
    powers = np.array([float(f"1e{e}") for e in range(-330, 310)])
    values = np.concatenate([powers] + [np.nextafter(powers, target) for target in (0.0, np.inf)]
                            + [np.nextafter(np.nextafter(powers, 0.0), 0.0)])
    got, want = csv_mu_column(np.concatenate((values, -values)))
    assert got == want


@pytest.mark.parametrize("value, text", [
    (1000005.0, "1e+06"), (1000015.0, "1.00002e+06"), (1234565.0, "1.23456e+06"),
    (0.0000123456, "1.23456e-05"), (0.000123456, "0.000123456"),
    (999999.4, "999999"), (999999.5, "1e+06"), (99999.95, "99999.9"), (9.999995, "10"),
    (0.0, "0"), (math.nan, "nan"), (math.inf, "inf")])
def test_csv_formats_ties_and_style_switches(value, text):
    # exact ties round half to even; each style switch falls where % puts it
    got, want = csv_mu_column([value, -value])
    assert got[:2] == want[:2] == [text, text if math.isnan(value) else "-" + text]


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_csv_formats_other_dtypes_as_their_python_values(dtype):
    rng = np.random.default_rng(7)
    if dtype is np.float32:
        values = rng.standard_normal(10_000) * 10.0 ** rng.integers(-45, 38, 10_000)
    else:
        values = np.concatenate((rng.integers(-2**63, 2**63 - 1, 10_000, dtype=np.int64),
                                 [0, 1, -1, 999_999, 1_000_005, 2**53 + 1, -2**63, 2**63 - 1]))
    got, want = csv_mu_column(values.astype(dtype))
    assert got == want


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4, 4), (9,), (3, 3, 1)])
def test_csv_refuses_values_that_are_not_resolution_squared(shape):
    grid = bd.ContourGrid(state_id="v31", sign=1, resolution=3, values=np.zeros(shape))
    for write in (bd.contour_csv_rows, bd.contour_csv_lines):
        with pytest.raises(ValueError) as info:
            write(grid)
        assert str(shape) in str(info.value) and "(3, 3)" in str(info.value)


def test_csv_refuses_complex_values():
    # a cast to float would write the real parts and drop the imaginary ones
    grid = bd.ContourGrid(state_id="v31", sign=1, resolution=2, values=np.ones((2, 2), complex))
    with pytest.raises(TypeError):
        bd.contour_csv_lines(grid)


@pytest.mark.parametrize("resolution", [201, 60])
def test_csv_block_size_changes_no_byte(monkeypatch, resolution):
    grid = bd.contour("v42", -1, resolution)

    def lines_and_digest():
        streamed = hashlib.sha256()
        for text in bd.contour_csv_rows(grid):
            streamed.update(text.encode())
        return bd.contour_csv_lines(grid), streamed.hexdigest()

    default = bd.CSV_BLOCK_ROWS
    monkeypatch.setattr(bd, "CSV_BLOCK_ROWS", 24)
    reference = lines_and_digest()
    for rows in sorted({1, 7, default, 201}):
        monkeypatch.setattr(bd, "CSV_BLOCK_ROWS", rows)
        assert lines_and_digest() == reference


class TestMaximize:
    def test_w_state_uniform(self):
        result = bd.maximize(bd.bound_state("v31"), mode="uniform",
                             target=bd.EXACT_BOUNDS["v31"])
        assert result.gap < 1e-6
        assert abs(abs(result.setting.x[0][2]) - bd.W_OPT_X3) < 1e-4
        assert abs(abs(result.setting.y[0][2]) - bd.W_OPT_Y3) < 1e-4

    def test_deterministic_under_fixed_seed(self):
        a = bd.maximize(bd.bound_state("v31"), mode="uniform", seed=11)
        b = bd.maximize(bd.bound_state("v31"), mode="uniform", seed=11)
        assert a.value == b.value
        assert np.array_equal(a.setting.x, b.setting.x)
        assert np.array_equal(a.setting.y, b.setting.y)

    def test_value_is_expectation_at_returned_setting(self):
        result = bd.maximize(bd.bound_state("v42"), mode="uniform")
        assert result.value == abs(
            bd.expectation(bd.bound_state("v42"), result.setting)
        )

    def test_value_respects_operator_norm(self):
        result = bd.maximize(ghz(3), mode="uniform")
        assert 0.0 <= result.value <= 4.0 + 1e-9

    def test_uniform_never_beats_collinear_for_dicke_states(self):
        for state_id in ("v31", "v41", "v42"):
            uniform = bd.maximize(bd.bound_state(state_id), mode="uniform")
            assert uniform.value <= collinear_max(state_id) + 1e-6

    def test_general_vs_uniform_on_w_state(self):
        uniform = bd.maximize(bd.bound_state("v31"), mode="uniform")
        general = bd.maximize(bd.bound_state("v31"), mode="general")
        assert general.value >= uniform.value - 1e-9
        assert general.value - uniform.value < 1e-5

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            bd.maximize(ghz(3), mode="global")

    @pytest.mark.parametrize("starts", [0, -1])
    def test_starts_below_one_rejected(self, starts):
        with pytest.raises(ValueError, match="starts"):
            bd.maximize(ghz(3), mode="uniform", starts=starts)

    @pytest.mark.parametrize("mode,starts",
                             [("general", 16), ("uniform", 16), ("uniform", 1)])
    def test_trust_signals(self, mode, starts):
        result = bd.maximize(bd.bound_state("v41"), mode=mode, starts=starts)
        assert result.starts == starts
        assert result.sweeps >= 1
        assert 1 <= result.basin_hits <= 2 * starts

    @pytest.mark.parametrize("n,bound", [(3, 4.0), (4, 8.0)])
    def test_non_symmetric_state(self, n, bound):
        rng = np.random.default_rng(20261018 + n)
        v = StateVector(n, rng.standard_normal(1 << n)
                        + 1j * rng.standard_normal(1 << n))
        uniform = bd.maximize(v, mode="uniform")
        general = bd.maximize(v, mode="general")
        # no sampled uniform setting may beat the uniform optimum
        sampled = max(
            abs(bd.expectation(v, bd.MeasurementSetting.uniform(
                n, random_unit_vector(rng), random_unit_vector(rng))))
            for _ in range(1000)
        )
        assert uniform.value >= sampled - 1e-9
        assert general.value >= uniform.value - 1e-9
        assert general.value <= bound + 1e-9
        for result in (uniform, general):
            assert result.value == abs(bd.expectation(v, result.setting))


class TestFastPath:
    def test_tensor_contraction_matches_dense_expectation(self, rng):
        for state in (ghz(3), dicke(3, 1), dicke(4, 2), sym_dicke(4, 1)):
            n = state.n
            tensor = bd._pauli_expectation_tensor(state)
            for _ in range(10):
                setting = random_setting(n, rng)
                zs = [setting.x[a] + 1j * setting.y[a] for a in range(n)]
                fast = float(np.real(np.einsum(bd._EINSUM_SUBS[n], tensor, *zs)))
                assert fast == pytest.approx(bd.expectation(state, setting),
                                             abs=1e-9)


# flat directions of the tangent Hessian at each catalog winner (its orbit)
CATALOG_ORBIT_DIM = {
    ("u3", "general"): 2, ("u4", "general"): 3, ("v31", "general"): 1,
    ("v41", "general"): 1, ("v42", "general"): 4,
    ("u3", "uniform"): 0, ("u4", "uniform"): 0, ("v31", "uniform"): 1,
    ("v41", "uniform"): 1, ("v42", "uniform"): 1,
}


def einsum_value(tensor, x, y, sign):
    """sign * mu per row through the literal _EINSUM_SUBS contraction."""
    n = x.shape[1]
    return np.array([
        s * float(np.real(np.einsum(bd._EINSUM_SUBS[n], tensor,
                                    *(xr[a] + 1j * yr[a] for a in range(n)))))
        for xr, yr, s in zip(x, y, sign)
    ])


class TestNewtonPolish:
    @staticmethod
    def setup_rows(n, mode, seed, rows=3):
        rng = np.random.default_rng(seed)
        v = StateVector(n, rng.standard_normal(1 << n)
                        + 1j * rng.standard_normal(1 << n))
        tensor = bd._pauli_expectation_tensor(v)
        if mode == "uniform":
            tensor = bd._symmetrized(tensor)
        x = bd._random_units(rng, (rows, n, 3))
        y = bd._random_units(rng, (rows, n, 3))
        if mode == "uniform":
            x[:] = x[:, :1]
            y[:] = y[:, :1]
        sign = rng.choice([1.0, -1.0], size=rows)
        return tensor, x, y, sign

    @staticmethod
    def moved_value(tensor, x, y, sign, frames, step):
        """sign * mu after moving every sphere of every row by the tangent
        ``step`` along its frame and renormalizing."""
        # a uniform step (one frame, m = 1) broadcasts over the qubits
        dz = np.einsum("jpar,ap->raj", frames, step.reshape(frames.shape[2], 4))
        new_x, new_y = x + dz.real, y + dz.imag
        new_x = new_x / np.linalg.norm(new_x, axis=-1, keepdims=True)
        new_y = new_y / np.linalg.norm(new_y, axis=-1, keepdims=True)
        return einsum_value(tensor, new_x, new_y, sign)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mode", ["general", "uniform"])
    def test_model_matches_finite_differences(self, n, mode):
        tensor, x, y, sign = self.setup_rows(n, mode, 7300 + n)
        value, grad, hess, frames = bd._tangent_model(bd._pair_stack(tensor), x + 1j * y,
                                                      sign, mode == "uniform")
        dim = 4 if mode == "uniform" else 4 * n
        assert grad.shape == (3, dim) and hess.shape == (3, dim, dim)
        assert np.allclose(value, einsum_value(tensor, x, y, sign), atol=1e-12)
        # the frames are orthonormal and tangent to their unit vectors
        basis = np.concatenate((frames[:, :2].real, frames[:, 2:].imag), axis=2)
        m = frames.shape[2]
        units = np.concatenate((x[:, :m], y[:, :m]), axis=1).transpose(2, 1, 0)
        assert np.allclose(np.einsum("jpar,jqar->pqar", basis, basis),
                           np.eye(2)[:, :, None, None], atol=1e-14)
        assert np.allclose(np.einsum("jpar,jar->par", basis, units), 0, atol=1e-14)

        def f(step):
            return self.moved_value(tensor, x, y, sign, frames, step)

        eye = np.eye(dim)
        h = 1e-5
        fd_grad = np.stack([(f(h * e) - f(-h * e)) / (2 * h) for e in eye], axis=1)
        assert np.allclose(grad, fd_grad, atol=1e-7)
        h = 1e-4
        fd_hess = np.empty_like(hess)
        for i, j in product(range(dim), repeat=2):
            ei, ej = h * eye[i], h * eye[j]
            fd_hess[:, i, j] = (f(ei + ej) - f(ei - ej) - f(ej - ei)
                                + f(-ei - ej)) / (4 * h * h)
        assert np.allclose(hess, fd_hess, atol=1e-5 * max(1.0, np.abs(hess).max()))

    @pytest.mark.parametrize("n,mode", [(3, "general"), (4, "general"),
                                        (3, "uniform"), (4, "uniform")])
    def test_newton_steps_never_lower_a_row(self, n, mode, monkeypatch):
        tensor, x, y, sign = self.setup_rows(n, mode, 7400 + n, rows=24)
        previous = einsum_value(tensor, x, y, sign)
        for cap in range(1, 6):
            monkeypatch.setattr(bd, "NEWTON_CAP", cap)
            zc = x + 1j * y
            values, steps = bd._newton_polish(bd._pair_stack(tensor), zc, sign,
                                              mode == "uniform", 1e-15)
            xc, yc = zc.real, zc.imag
            assert steps <= cap
            current = einsum_value(tensor, xc, yc, sign)
            assert np.allclose(values, current, atol=1e-12)
            assert np.all(current >= previous - 1e-12)
            previous = current

    def test_a_singular_solve_keeps_the_settings_and_stops(self, monkeypatch):
        tensor, x, y, sign = self.setup_rows(3, "general", 7500, rows=4)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        zc = x + 1j * y
        values, steps = bd._newton_polish(bd._pair_stack(tensor), zc, sign,
                                          False, 1e-15)
        xc, yc = zc.real, zc.imag
        assert steps == 0
        assert np.array_equal(xc, x) and np.array_equal(yc, y)
        assert np.allclose(values, einsum_value(tensor, x, y, sign), atol=1e-12)

    def test_sweeps_left_needs_a_rate(self):
        assert bd._sweeps_left(1e-8, math.inf, 1e-15) == 0.0
        assert bd._sweeps_left(1e-7, 1e-8, 1e-15) == math.inf
        assert bd._sweeps_left(1e-8, 1e-7, 1e-15) == pytest.approx(7.0)

    def test_slow_uniform_seed_converges(self):
        # one start here escapes the mu = 0 critical point slowly; the polish
        # must not wait for it
        result = bd.maximize(bd.bound_state("v42"), mode="uniform",
                             seed=bd.DEFAULT_SEED + 2, target=bd.EXACT_BOUNDS["v42"])
        assert result.sweeps < 600
        assert result.gap < 1e-12

    @pytest.mark.parametrize("state_id,mode", [("v31", "general"), ("v42", "uniform")])
    def test_polished_gap_over_seeds(self, state_id, mode):
        for k in range(6):
            result = bd.maximize(bd.bound_state(state_id), mode=mode,
                                 seed=bd.DEFAULT_SEED + k,
                                 target=bd.EXACT_BOUNDS[state_id])
            assert result.gap < 1e-12, k

    @pytest.mark.parametrize("state_id,mode", sorted(CATALOG_ORBIT_DIM))
    def test_hessian_trust_signal(self, state_id, mode):
        result = bd.maximize(bd.bound_state(state_id), mode=mode)
        assert result.curvature < 0
        assert result.orbit_dim == CATALOG_ORBIT_DIM[state_id, mode]
        assert result.newton_steps >= 0

    def test_polished_run_is_bit_deterministic(self):
        a = bd.maximize(bd.bound_state("v31"), mode="general", seed=5)
        b = bd.maximize(bd.bound_state("v31"), mode="general", seed=5)
        assert a.newton_steps > 0
        assert (a.value, a.sweeps, a.newton_steps, a.basin_hits, a.curvature) == (
            b.value, b.sweeps, b.newton_steps, b.basin_hits, b.curvature)
        assert np.array_equal(a.setting.x, b.setting.x)
        assert np.array_equal(a.setting.y, b.setting.y)

    def test_starts_above_cap_refused(self):
        with pytest.raises(ValueError, match="refused"):
            bd.maximize(ghz(3), starts=bd.MAX_STARTS + 1)


# scales at which the squared norm of a catalog state underflows or overflows
_EXTREME_SCALES = [1e-200, 1e-160, 2.0 ** -540, 1e160, 1e200]


class TestRescaledStates:
    @pytest.mark.parametrize("scale", _EXTREME_SCALES)
    def test_maximize_reaches_the_exact_bound(self, scale):
        for state_id, target in bd.EXACT_BOUNDS.items():
            v = bd.bound_state(state_id)
            result = bd.maximize(StateVector(v.n, scale * v.amps), target=target)
            assert result.gap < 1e-12, state_id

    @pytest.mark.parametrize("scale", _EXTREME_SCALES)
    def test_expectation_matches_the_unscaled_state(self, scale, rng):
        for n, m in ((3, 1), (4, 1), (4, 2)):
            v = sym_dicke(n, m, random_nonzero_coeffs(rng, sym_coeff_count(n, m)))
            setting = random_setting(n, rng)
            scaled = bd.expectation(StateVector(n, scale * v.amps), setting)
            assert scaled == pytest.approx(bd.expectation(v, setting), abs=1e-12)

    def test_power_of_two_scales_change_no_bit(self):
        v = dicke(3, 1)
        reference = bd.maximize(v)
        for exponent in (-1060, -600, 600, 1000):
            result = bd.maximize(StateVector(3, 2.0 ** exponent * v.amps))
            assert result.value == reference.value
            assert np.array_equal(result.setting.x, reference.setting.x)
            assert np.array_equal(result.setting.y, reference.setting.y)


def qubit_matrices(tensor):
    """Per qubit a, T with axis a moved last as (3, -1), as maximize builds them."""
    return [np.moveaxis(tensor, a, -1).reshape(3, -1) for a in range(tensor.ndim)]


def einsum_open(tensor, zr, a):
    """One row's T contracted with every zr[b] except b = a, via np.einsum."""
    n = tensor.ndim
    others = [b for b in range(n) if b != a]
    subs = "abcd"[:n] + "".join("," + "abcd"[b] for b in others) + "->" + "abcd"[a]
    return np.einsum(subs, tensor, *(zr[b] for b in others))


def sweep_setup(n, seed, rows=12, mode="general"):
    """A seeded non-symmetric state's tensor and random unit starts z."""
    rng = np.random.default_rng(seed)
    v = StateVector(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    tensor = bd._pauli_expectation_tensor(v)
    z = bd._random_units(rng, (rows, n, 3)) + 1j * bd._random_units(rng, (rows, n, 3))
    if mode == "uniform":
        tensor = bd._symmetrized(tensor)
        z[:] = z[:, :1]
    return tensor, z


def maximize_shift(tensor):
    n = tensor.ndim
    return n * (n - 1) * 2.0 ** ((n - 2) / 2) * float(np.linalg.norm(tensor))


def unit(vector):
    return vector / np.linalg.norm(vector)


class TestSweepKernels:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_seesaw_sweep_matches_einsum_reference(self, n, s):
        tensor, z = sweep_setup(n, 8100 + n)
        sign = np.full(len(z), s)
        expected, expected_values = z.copy(), []
        # each row on its own; each qubit jumps with the others fixed
        for zr in expected:
            for a in range(n):
                c = s * einsum_open(tensor, zr, a)
                zr[a] = unit(c.real) - 1j * unit(c.imag)
            expected_values.append(np.linalg.norm(c.real) + np.linalg.norm(c.imag))
        values = bd._seesaw_sweep(qubit_matrices(tensor), z, sign)
        assert np.allclose(z, expected, rtol=0, atol=1e-13)
        assert np.allclose(values, expected_values, rtol=0, atol=1e-13)
        # which is the value at the new setting
        assert np.allclose(values, einsum_value(tensor, z.real, z.imag, sign),
                           rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_power_sweep_matches_einsum_reference(self, n, s):
        tensor, z = sweep_setup(n, 8200 + n, mode="uniform")
        sign = np.full(len(z), s)
        shift = maximize_shift(tensor)
        start = z.copy()
        values = bd._power_sweep(tensor.reshape(3, -1), z, sign, shift)
        assert np.allclose(values, einsum_value(tensor, start.real, start.imag, sign),
                           rtol=0, atol=1e-13)
        for zr, new in zip(start, z):
            c = s * einsum_open(tensor, zr, n - 1)
            step = unit(n * c.real + shift * zr[-1].real) - 1j * unit(
                n * c.imag - shift * zr[-1].imag)
            assert np.allclose(new, step[None], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 4])
    def test_no_seesaw_update_lowers_a_row(self, n):
        tensor, z = sweep_setup(n, 8300 + n, rows=24)
        sign = np.repeat([1.0, -1.0], 12)
        previous = einsum_value(tensor, z.real, z.imag, sign)
        for _ in range(5):
            for a, matrix in enumerate(qubit_matrices(tensor)):
                bd._set_along(z, a, sign[:, None] * bd._contract_except(matrix, z, a))
                current = einsum_value(tensor, z.real, z.imag, sign)
                assert np.all(current >= previous - 1e-12)
                previous = current

    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_tensor_keeps_every_row(self, n):
        tensor, z = sweep_setup(n, 8400 + n)
        tensor = np.zeros_like(tensor)
        sign = np.repeat([1.0, -1.0], 6)
        start = z.copy()
        assert np.array_equal(bd._seesaw_sweep(qubit_matrices(tensor), z, sign),
                              np.zeros(len(z)))
        assert np.array_equal(z, start)
        _, z = sweep_setup(n, 8400 + n, mode="uniform")
        start = z.copy()
        bd._power_sweep(tensor.reshape(3, -1), z, sign, 0.0)
        assert np.array_equal(z, start)

    def test_zero_part_keeps_its_row_only(self):
        _, z = sweep_setup(3, 8450, rows=3)
        start = z.copy()
        # rows: both parts zero, real part zero, neither
        w = np.array([[0, 0, 0], [3j, 0, 4j], [1, 2, 2 + 2j]])
        norms = bd._set_along(z, 1, w)
        assert np.array_equal(norms, [[0, 0], [0, 5], [3, 2]])
        assert np.array_equal(z[0], start[0])
        assert np.array_equal(z[1, 1], start[1, 1].real + [-0.6j, 0, -0.8j])
        assert np.array_equal(z[2, 1], [1 / 3, 2 / 3, 2 / 3 - 1j])
        assert np.array_equal(z[:, [0, 2]], start[:, [0, 2]])

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mode", ["general", "uniform"])
    def test_settings_stay_unit_rows(self, n, mode):
        tensor, z = sweep_setup(n, 8500 + n, mode=mode)
        sign = np.repeat([1.0, -1.0], 6)
        for _ in range(20):
            if mode == "uniform":
                bd._power_sweep(tensor.reshape(3, -1), z, sign, maximize_shift(tensor))
            else:
                bd._seesaw_sweep(qubit_matrices(tensor), z, sign)
            for part in (z.real, z.imag):
                norms = np.linalg.norm(part, axis=-1)
                assert np.allclose(norms, 1.0, rtol=0, atol=1e-14)


# the first-order kernels as they were before the sweeps moved onto one complex
# array; the kernels above must reproduce them bit for bit


def old_contract_except(tensor, z, a):
    rows = z.shape[0]
    others = [b for b in range(z.shape[1]) if b != a]
    out = z[:, others[0]] @ np.moveaxis(tensor, a, -1).reshape(3, -1)
    for b in others[1:]:
        out = (z[:, b, None, :] @ out.reshape(rows, 3, -1))[:, 0]
    return out


def old_unit_or_keep(new, old):
    norm = np.linalg.norm(new, axis=-1, keepdims=True)
    return np.where(norm > 0, new / np.where(norm > 0, norm, 1.0), old)


def old_seesaw_sweep(tensor, x, y, sign):
    for a in range(x.shape[1]):
        c = sign[:, None] * old_contract_except(tensor, x + 1j * y, a)
        x[:, a] = old_unit_or_keep(c.real, x[:, a])
        y[:, a] = old_unit_or_keep(-c.imag, y[:, a])
    return np.linalg.norm(c.real, axis=1) + np.linalg.norm(c.imag, axis=1)


def old_power_sweep(tensor, x, y, sign, shift):
    n = x.shape[1]
    z = x + 1j * y
    c = sign[:, None] * old_contract_except(tensor, z, n - 1)
    value = np.einsum("rj,rj->r", c, z[:, -1]).real
    x[:] = old_unit_or_keep(n * c.real + shift * x[:, -1], x[:, -1])[:, None]
    y[:] = old_unit_or_keep(-n * c.imag + shift * y[:, -1], y[:, -1])[:, None]
    return value


def seeded_state_n4():
    rng = np.random.default_rng(8600)
    return StateVector(4, rng.standard_normal(16) + 1j * rng.standard_normal(16))


class TestSweepBitIdentity:
    @pytest.mark.parametrize("mode", ["general", "uniform"])
    @pytest.mark.parametrize("state", ["u3", "v31", "v42", "random4"])
    def test_matches_separate_part_kernels(self, state, mode):
        v = seeded_state_n4() if state == "random4" else bd.bound_state(state)
        n, starts = v.n, 16
        tensor = bd._pauli_expectation_tensor(v)
        # the starts maximize draws
        rng = np.random.default_rng(bd.DEFAULT_SEED)
        x = bd._random_units(rng, (2 * starts, n, 3))
        y = bd._random_units(rng, (2 * starts, n, 3))
        sign = np.repeat([1.0, -1.0], starts)
        if mode == "uniform":
            tensor = bd._symmetrized(tensor)
            x[:], y[:] = x[:, :1], y[:, :1]
        z = x + 1j * y
        shift = maximize_shift(tensor)
        for _ in range(50):
            if mode == "uniform":
                old = old_power_sweep(tensor, x, y, sign, shift)
                new = bd._power_sweep(tensor.reshape(3, -1), z, sign, shift)
            else:
                old = old_seesaw_sweep(tensor, x, y, sign)
                new = bd._seesaw_sweep(qubit_matrices(tensor), z, sign)
            assert np.array_equal(new, old)
            assert np.array_equal(z.real, x) and np.array_equal(z.imag, y)


class TestOneRowTangentModel:
    @pytest.mark.parametrize("mode", ["general", "uniform"])
    @pytest.mark.parametrize("state_id", bd.CLOSED_FORM_IDS)
    def test_one_row_equals_its_row_of_the_batch(self, state_id, mode):
        # maximize models its winner alone, and a polish block can shrink to one row
        v = bd.bound_state(state_id)
        n, rows, uniform = v.n, 8, mode == "uniform"
        tensor = bd._pauli_expectation_tensor(v)
        if uniform:
            tensor = bd._symmetrized(tensor)
        rng = np.random.default_rng(9950 + n)
        x = bd._random_units(rng, (rows, n, 3))
        y = bd._random_units(rng, (rows, n, 3))
        if uniform:
            x[:], y[:] = x[:, :1], y[:, :1]
        sign = rng.choice([1.0, -1.0], size=rows)
        value, grad, hess, frames = bd._tangent_model(bd._pair_stack(tensor), x + 1j * y,
                                                      sign, uniform)
        for r in range(rows):
            one = bd._tangent_model(bd._pair_stack(tensor), x[r:r + 1] + 1j * y[r:r + 1],
                                    sign[r:r + 1], uniform)
            assert one[0].tobytes() == value[r:r + 1].tobytes(), r
            assert one[1].tobytes() == grad[r:r + 1].tobytes(), r
            assert one[2].tobytes() == hess[r:r + 1].tobytes(), r
            assert one[3].tobytes() == frames[..., r:r + 1].tobytes(), r


class TestBlockAndLayoutBitIdentity:
    @pytest.mark.parametrize("mode", ["general", "uniform"])
    @pytest.mark.parametrize("state_id", bd.BOUND_STATE_IDS)
    def test_polish_block_size_changes_no_bit(self, monkeypatch, state_id, mode):
        """Rows are polished independently, so the block size moves no bit.

        A block left with one active row models it beside a twin copy, by
        the same batched matrix product as a larger block
        (``TestOneRowTangentModel``), so this holds at every block size.
        """
        v = bd.bound_state(state_id)
        reference = bd.maximize(v, mode=mode)
        for rows in (64, 128):
            monkeypatch.setattr(bd, "POLISH_ROWS", rows)
            result = bd.maximize(v, mode=mode)
            assert result.value == reference.value
            assert result.setting.x.tobytes() == reference.setting.x.tobytes()
            assert result.setting.y.tobytes() == reference.setting.y.tobytes()
            for field in ("sweeps", "basin_hits", "newton_steps", "orbit_dim"):
                assert getattr(result, field) == getattr(reference, field)
            assert result.curvature == reference.curvature

    @pytest.mark.parametrize("n", [3, 4])
    def test_tensor_matches_a_freshly_planned_einsum(self, n):
        literal = {3: "ABC,aAE,bBF,cCG,EFG->abc", 4: "ABCD,aAE,bBF,cCG,dDH,EFGH->abcd"}
        rng = np.random.default_rng(8700 + n)
        for _ in range(5):
            v = StateVector(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
            u = unit_scaled(v)
            psi = u.amps.reshape((2,) * n)
            expected = np.einsum(literal[n], psi.conj(), *([bd._PAULI] * n), psi,
                                 optimize=True).real / u.norm_sq
            assert bd._pauli_expectation_tensor(v).tobytes() == expected.tobytes()

    def test_masked_set_along_matches_unit_or_keep(self):
        _, z = sweep_setup(4, 8800, rows=96)
        rng = np.random.default_rng(8801)
        w = rng.standard_normal((96, 3)) + 1j * rng.standard_normal((96, 3))
        w[::5] = w[::5].real  # zero imaginary part
        w[1::7] = 1j * w[1::7].imag  # zero real part
        w[2::11] = 0
        w[3] = [1e-170, 0, -1e-170j]  # parts whose squares underflow to zero
        w[4, 1] = np.nan
        for a in range(4):
            start = z.copy()
            norms = bd._set_along(z, a, w)
            assert np.array_equal(z.real[:, a], old_unit_or_keep(w.real, start.real[:, a]))
            assert np.array_equal(z.imag[:, a], old_unit_or_keep(-w.imag, start.imag[:, a]))
            assert np.array_equal(z[:, [b for b in range(4) if b != a]],
                                  start[:, [b for b in range(4) if b != a]])
            assert np.array_equal(norms, np.stack((np.linalg.norm(w.real, axis=1),
                                                   np.linalg.norm(w.imag, axis=1)), 1),
                                  equal_nan=True)


# the uniform model as it was before it contracted one pair: the per-qubit
# model over every pair, tied by the chain rule


def old_uniform_model(tensor, x, y, sign):
    rows, n, _ = x.shape
    first, second, others = bd._pair_layout(n)
    z = x.T + 1j * y.T
    paired = bd._pair_stack(tensor)
    rest = z[:, others[:, 0]]
    for k in range(1, n - 2):
        rest = (rest[:, None] * z[:, others[:, k]]).reshape(-1, len(first), rows)
    blocks = sign * (paired @ rest.transpose(1, 0, 2)).reshape(-1, 3, 3, rows)
    c = np.concatenate((np.sum(blocks[:1] * z[None, None, :, 1], axis=2),
                        np.sum(blocks[:n - 1] * z[None, :, None, 0], axis=1)))
    c = c.transpose(1, 0, 2)
    frames = np.concatenate((bd._tangent_frames(x.T), 1j * bd._tangent_frames(y.T)), axis=1)
    grad = np.sum(frames * c[:, None], axis=0).real
    radial = np.stack((np.sum(x.T * c.real, axis=0), -np.sum(y.T * c.imag, axis=0)))
    half = np.einsum("jpqr,jkqr->pkqr", frames[:, :, first], blocks.transpose(1, 2, 0, 3))
    pair_hess = np.einsum("pkqr,ksqr->psqr", half, frames[:, :, second]).real
    hess = np.zeros((n, 4, n, 4, rows))
    hess[first, :, second] = pair_hess.transpose(2, 0, 1, 3)
    hess[second, :, first] = pair_hess.transpose(2, 1, 0, 3)
    qubit, coord = np.divmod(np.arange(4 * n), 4)
    hess[qubit, coord, qubit, coord] -= np.repeat(radial, 2, axis=0)[coord, qubit]
    value = radial.sum(axis=(0, 1)) / n
    grad, frames = grad.sum(axis=1), frames[:, :, :1]
    hess = hess.sum(axis=(0, 2))
    return value, grad.T, hess.transpose(2, 0, 1), frames


def frobenius_shift(tensor):
    """The shift maximize took before: ||T||_F in place of sigma_max."""
    n = tensor.ndim
    return n * (n - 1) * 2.0 ** ((n - 2) / 2) * float(np.linalg.norm(tensor))


def euclidean_hessian_norm(tensor, x, y):
    """Spectral norm of the Hessian of mu in (x, y) at one uniform point.

    With A = n(n-1) T(z^(n-2)) and dz = dx + i dy, the second derivative is
    Re A(dz, dz) = dx.Re A dx - dy.Re A dy - 2 dx.Im A dy.
    """
    n = tensor.ndim
    z = x + 1j * y
    subs = "abcd"[:n] + "".join("," + a for a in "abcd"[2:n]) + "->ab"
    a = n * (n - 1) * np.einsum(subs, tensor, *([z] * (n - 2)))
    hess = np.block([[a.real, -a.imag], [-a.imag, -a.real]])
    return np.linalg.norm(hess, 2)


class TestUniformAscent:
    @pytest.mark.parametrize("n", [3, 4])
    def test_shift_between_hessian_and_frobenius_bounds(self, n):
        rng = np.random.default_rng(9100 + n)
        for _ in range(4):
            v = StateVector(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
            tensor = bd._symmetrized(bd._pauli_expectation_tensor(v))
            shift = bd._ascent_shift(tensor)
            assert shift <= frobenius_shift(tensor)
            x = bd._random_units(rng, (300, 3))
            y = bd._random_units(rng, (300, 3))
            # half the points on the spheres, where the bound is tightest
            x[150:] *= rng.uniform(0, 1, (150, 1))
            y[150:] *= rng.uniform(0, 1, (150, 1))
            largest = max(euclidean_hessian_norm(tensor, xr, yr) for xr, yr in zip(x, y))
            assert 0 < largest <= shift

    @pytest.mark.parametrize("state", ["random3", "random4", *bd.BOUND_STATE_IDS])
    def test_power_sweeps_at_the_shift_never_lower_a_row(self, state):
        if state.startswith("random"):
            n = int(state[-1])
            tensor, z = sweep_setup(n, 9200 + n, rows=32, mode="uniform")
        else:
            n = bd.bound_state(state).n
            tensor = bd._symmetrized(bd._pauli_expectation_tensor(bd.bound_state(state)))
            _, z = sweep_setup(n, 9210, rows=32, mode="uniform")
        sign = np.repeat([1.0, -1.0], 16)
        matrix, shift = tensor.reshape(3, -1).astype(complex), bd._ascent_shift(tensor)
        previous = einsum_value(tensor, z.real, z.imag, sign)
        for _ in range(50):
            assert np.allclose(bd._power_sweep(matrix, z, sign, shift), previous,
                               rtol=0, atol=1e-12)
            current = einsum_value(tensor, z.real, z.imag, sign)
            assert np.all(current >= previous - 1e-12)
            previous = current

    @pytest.mark.parametrize("state", ["random3", "random4", *bd.BOUND_STATE_IDS])
    def test_uniform_model_matches_the_chain_rule_sum(self, state):
        if state.startswith("random"):
            n = int(state[-1])
            tensor, x, y, sign = TestNewtonPolish.setup_rows(n, "uniform", 9300 + n, rows=40)
        else:
            n = bd.bound_state(state).n
            tensor = bd._symmetrized(bd._pauli_expectation_tensor(bd.bound_state(state)))
            _, x, y, sign = TestNewtonPolish.setup_rows(n, "uniform", 9310, rows=40)
        new = bd._tangent_model(bd._pair_stack(tensor), x + 1j * y, sign, True)
        old = old_uniform_model(tensor, x, y, sign)
        for got, want in zip(new, old):
            assert got.shape == want.shape
            scale = max(1.0, np.abs(want).max())
            assert np.allclose(got, want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("make, pattern", [
    (lambda: bd.MeasurementSetting(np.ones((3, 2)), np.ones((3, 2))),
     r"^x must have shape \(3, 3\), got \(3, 2\)$"),
    (lambda: bd.restricted_mu("v31", (1.0, 0.0), (0.0, 1.0, 0.0)), "^x must be a 3-vector$"),
    (lambda: bd.restricted_mu("v31", (1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)),
     "^y must be a 3-vector$"),
], ids=["setting-shape", "restricted-x", "restricted-y"])
def test_vectors_of_the_wrong_shape_are_refused(make, pattern):
    with pytest.raises(ValueError, match=pattern):
        make()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("make, pattern", [
    (lambda bad: bd.MeasurementSetting.uniform(3, (bad, 0.0, 0.0), (0.0, 1.0, 0.0)),
     r"^x rows must be unit vectors, got norms "),
    (lambda bad: bd.MeasurementSetting.uniform(4, (0.0, 0.0, 1.0), (0.0, bad, 0.0)),
     r"^y rows must be unit vectors, got norms "),
    (lambda bad: bd.restricted_mu("v31", (bad, 0.0, 0.0), (0.0, 1.0, 0.0)),
     "^x must be a unit vector$"),
    (lambda bad: bd.restricted_mu("v42", (0.0, 0.0, 1.0), (0.0, 0.0, bad)),
     "^y must be a unit vector$"),
    (lambda bad: bd.collinear_mu("v31", 1, bad, 0.0), r"^x3 and y3 must lie in \[-1, 1\]$"),
    (lambda bad: bd.collinear_mu("v41", -1, np.zeros(3), np.array([0.5, bad, 0.0])),
     r"^x3 and y3 must lie in \[-1, 1\]$"),
], ids=["setting-x", "setting-y", "restricted-x", "restricted-y", "collinear-scalar",
        "collinear-array"])
def test_non_finite_entries_are_refused_in_one_line(make, pattern, bad):
    with pytest.raises(ValueError, match=pattern) as info:
        make(bad)
    assert "\n" not in str(info.value)


# -- the broadcast-chain oracle of the parent revision, copied literally ---------


def broadcast_mermin_operator(n, setting):
    """The broadcast-product build that the gather table replaced, as it was."""
    if setting.n != n:
        raise ValueError(f"setting is for {setting.n} qubits, expected {n}")
    factors = np.stack((setting.x, setting.y), 1) @ bd._PAULI.reshape(3, 4)
    factors = factors.reshape(n, 2, 2, 2)
    signs, patterns = zip(*bd.mermin_terms(n))
    signs, last_letters = np.reshape(signs, (-1, 1, 1)), np.array([p[-1] for p in patterns])
    words = factors[0]
    for a in range(1, n - 1):
        words = (words[:, None, :, None, :, None]
                 * factors[a][None, :, None, :, None, :]).reshape((2 << a,) * 3)
    last = factors[n - 1][last_letters]
    words = words[:, :, None, :, None] * last[:, None, :, None, :]
    signed = signs * words.reshape(len(signs), 1 << n, -1)
    return np.add.reduce(signed, axis=0)


def linalg_unit_rows(vectors, n, label):
    arr = np.asarray(vectors, dtype=float)
    if arr.shape != (n, 3):
        raise ValueError(f"{label} must have shape ({n}, 3), got {arr.shape}")
    norms = np.linalg.norm(arr, axis=1)
    if not np.all(np.abs(norms - 1.0) <= bd.TOL_UNIT):
        raise ValueError(f"{label} rows must be unit vectors, got norms {norms}")
    return arr


def tiled_uniform_rows(n, x, y):
    """The rows the parent's ``MeasurementSetting.uniform`` checked, or its error."""
    x, y = (np.tile(np.asarray(v, dtype=float), (n, 1)) for v in (x, y))
    return linalg_unit_rows(x, len(x), "x"), linalg_unit_rows(y, len(x), "y")


def linalg_expectation(v, setting):
    top = float(np.max(np.abs(v.amps)))
    u = np.ldexp(v.amps.view(float), -math.frexp(top)[1]).view(complex)
    m = broadcast_mermin_operator(v.n, setting)
    value = complex(np.vdot(u, m @ u)) / float(np.real(np.vdot(u, u)))
    assert abs(value.imag) <= 1e-9
    return float(value.real)


def linalg_restricted_mu(state_id, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for label, vec in (("x", x), ("y", y)):
        if vec.shape != (3,):
            raise ValueError(f"{label} must be a 3-vector")
        if not abs(np.linalg.norm(vec) - 1.0) <= bd.TOL_UNIT:
            raise ValueError(f"{label} must be a unit vector")
    d = float(x[0] * y[0] + x[1] * y[1])
    return bd._mu_poly(state_id, float(x[2]), float(y[2]), d)


def float_bytes(value):
    return np.float64(value).tobytes()  # tells -0.0 from 0.0


def axis_rows(rng, n):
    """n rows of +-e_j whose other two entries are 0.0 or -0.0, at random."""
    rows = rng.choice([0.0, -0.0], (n, 3))
    rows[np.arange(n), rng.integers(0, 3, n)] = rng.choice([1.0, -1.0], n)
    return rows


class TestGatherTableBitIdentity:
    @pytest.mark.parametrize("n", [3, 4])
    def test_seeded_settings(self, n):
        rng = np.random.default_rng(9900 + n)
        for _ in range(200):
            setting = random_setting(n, rng)
            got = bd.mermin_operator(n, setting)
            assert got.tobytes() == broadcast_mermin_operator(n, setting).tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_axis_aligned_settings_with_signed_zeros(self, n):
        rng = np.random.default_rng(9910 + n)
        for _ in range(200):
            setting = bd.MeasurementSetting(axis_rows(rng, n), axis_rows(rng, n))
            got = bd.mermin_operator(n, setting)
            assert got.tobytes() == broadcast_mermin_operator(n, setting).tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_layout_is_read_only(self, n):
        for table in bd._mermin_layout(n):
            assert not table.flags.writeable

    @pytest.mark.parametrize("state_id", ["u3", "u4", "v31", "v41", "v42"])
    def test_expectation_on_seeded_uniform_settings(self, state_id):
        v = bd.bound_state(state_id)
        rng = np.random.default_rng(9920)
        for _ in range(60):
            x, y = random_unit_vector(rng), random_unit_vector(rng)
            setting = bd.MeasurementSetting.uniform(v.n, x, y)
            assert setting.x.tobytes() == tiled_uniform_rows(v.n, x, y)[0].tobytes()
            assert float_bytes(bd.expectation(v, setting)) == float_bytes(
                linalg_expectation(v, setting))

    @pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (4, 2)])
    def test_expectation_on_weighted_states(self, n, m):
        rng = np.random.default_rng(9930 + 10 * n + m)
        for _ in range(20):
            v = sym_dicke(n, m, random_nonzero_coeffs(rng, sym_coeff_count(n, m)))
            setting = random_setting(n, rng)
            assert float_bytes(bd.expectation(v, setting)) == float_bytes(
                linalg_expectation(v, setting))

    @pytest.mark.parametrize("state_id", bd.CLOSED_FORM_IDS)
    def test_restricted_mu_on_seeded_settings(self, state_id):
        rng = np.random.default_rng(9940)
        for _ in range(200):
            x, y = random_unit_vector(rng), random_unit_vector(rng)
            for a, b in ((x, y), (axis_rows(rng, 1)[0], y), (list(x), tuple(y))):
                assert float_bytes(bd.restricted_mu(state_id, a, b)) == float_bytes(
                    linalg_restricted_mu(state_id, a, b))


def refusal(make):
    """The one-line ValueError message of ``make()``, or None if it returns."""
    try:
        make()
    except ValueError as exc:
        assert "\n" not in str(exc)
        return str(exc)
    return None


UNIT = (0.0, 0.6, 0.8)
BAD_VECTORS = {
    "nan": (math.nan, 0.0, 1.0),
    "inf": (0.0, math.inf, 0.0),
    "minus-inf": (0.0, 0.0, -math.inf),
    "shape-2": (1.0, 0.0),
    "shape-1x3": ((0.0, 0.0, 1.0),),
    "long": (0.6, 0.8, 1e-4),
    "short": (0.6, 0.8 - 1e-9, 0.0),
    "zero": (0.0, 0.0, 0.0),
}


class TestLeanUnitChecks:
    @pytest.mark.parametrize("bad", BAD_VECTORS, ids=list(BAD_VECTORS))
    @pytest.mark.parametrize("n", [3, 4])
    def test_uniform_refuses_as_the_tiled_rows_did(self, n, bad):
        vec = BAD_VECTORS[bad]
        for x, y in ((vec, UNIT), (UNIT, vec)):
            got = refusal(lambda: bd.MeasurementSetting.uniform(n, x, y))
            assert got == refusal(lambda: tiled_uniform_rows(n, x, y))
            if bad == "shape-1x3":  # np.tile flattens a (1, 3) row into (n, 3) rows
                assert got is None
                setting = bd.MeasurementSetting.uniform(n, x, y)
                tx, ty = tiled_uniform_rows(n, x, y)
                assert setting.x.tobytes() == tx.tobytes()
                assert setting.y.tobytes() == ty.tobytes()
            else:
                assert got is not None

    @pytest.mark.parametrize("bad", BAD_VECTORS, ids=list(BAD_VECTORS))
    @pytest.mark.parametrize("n", [3, 4])
    def test_setting_refuses_as_linalg_norm_did(self, n, bad):
        vec, rows = np.asarray(BAD_VECTORS[bad]), np.array([UNIT] * n)
        if vec.shape == (3,):
            vec = np.concatenate((rows[1:], vec[None]))  # the last row is bad
        for x, y in ((vec, rows), (rows, vec)):
            got = refusal(lambda: bd.MeasurementSetting(x, y))
            assert got is not None
            m = len(x)
            assert got == refusal(lambda: (linalg_unit_rows(x, m, "x"),
                                           linalg_unit_rows(y, m, "y")))

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_of_the_wrong_width_are_refused(self, n):
        rows, short = np.array([UNIT] * n), np.zeros((n, 2))
        assert refusal(lambda: bd.MeasurementSetting(short, rows)) == (
            f"x must have shape ({n}, 3), got ({n}, 2)")
        assert refusal(lambda: bd.MeasurementSetting(rows, short)) == (
            f"y must have shape ({n}, 3), got ({n}, 2)")

    @pytest.mark.parametrize("bad", BAD_VECTORS, ids=list(BAD_VECTORS))
    def test_restricted_mu_refuses_as_linalg_norm_did(self, bad):
        vec = BAD_VECTORS[bad]
        for x, y in ((vec, UNIT), (UNIT, vec)):
            got = refusal(lambda: bd.restricted_mu("v41", x, y))
            assert got is not None
            assert got == refusal(lambda: linalg_restricted_mu("v41", x, y))

    def test_decisions_at_the_tolerance_match_linalg_norm(self):
        rng = np.random.default_rng(9950)
        directions = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])]
        directions += [random_unit_vector(rng) for _ in range(6)]
        verdicts = set()
        for edge in (1.0 - bd.TOL_UNIT, 1.0 + bd.TOL_UNIT):
            scales = [edge]
            for _ in range(3):
                scales = [np.nextafter(scales[0], 0.0), *scales, np.nextafter(scales[-1], 2.0)]
            for u in directions:
                for scale in scales:
                    vec = u * scale
                    expected = abs(np.linalg.norm(vec) - 1.0) <= bd.TOL_UNIT
                    verdicts.add(bool(expected))
                    assert (refusal(lambda: bd.restricted_mu("v31", vec, UNIT))
                            is None) == expected
                    rows = np.array([UNIT, vec, UNIT])
                    row_ok = bool(np.all(
                        np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= bd.TOL_UNIT))
                    assert (refusal(lambda: bd.MeasurementSetting(rows, rows))
                            is None) == row_ok
                    assert (refusal(lambda: bd.MeasurementSetting.uniform(3, vec, UNIT))
                            is None) == row_ok
        assert verdicts == {True, False}  # the grid straddles the tolerance


# -- settings hold private read-only rows --------------------------------------


class TestPrivateReadOnlyRows:
    def test_changing_the_callers_arrays_leaves_a_setting_as_checked(self):
        v = bd.bound_state("v31")
        rng = np.random.default_rng(9960)
        x = np.array([random_unit_vector(rng) for _ in range(3)])
        y = np.array([random_unit_vector(rng) for _ in range(3)])
        ux, uy = random_unit_vector(rng), random_unit_vector(rng)
        settings = [bd.MeasurementSetting(x, y), bd.MeasurementSetting.uniform(3, ux, uy)]
        before = [(s.x.tobytes(), s.y.tobytes(), float_bytes(bd.expectation(v, s)))
                  for s in settings]
        for arr in (x, y, ux, uy):
            arr[...] = 0.0
            arr[..., 2] = 5.0
        for s, (sx, sy, mu) in zip(settings, before):
            assert (s.x.tobytes(), s.y.tobytes()) == (sx, sy)
            assert float_bytes(bd.expectation(v, s)) == mu

    @pytest.mark.parametrize("make", [
        lambda: bd.MeasurementSetting(np.eye(3), np.eye(3)[::-1]),
        lambda: bd.MeasurementSetting.uniform(4, (0.0, 0.6, 0.8), (1.0, 0.0, 0.0)),
        lambda: bd.MeasurementSetting.pauli12(3),
    ], ids=["general", "uniform", "pauli12"])
    def test_rows_are_not_writeable(self, make):
        s = make()
        for rows in (s.x, s.y):
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 0.5

    @pytest.mark.parametrize("mode", bd.MODES)
    def test_a_maximize_result_keeps_no_optimizer_array_alive(self, mode):
        result = bd.maximize(bd.bound_state("v31"), mode=mode, starts=3)
        for rows in (result.setting.x, result.setting.y):
            assert rows.base is None  # owns its data: no view of the (rows, n, 3) starts
            assert rows.shape == (3, 3) and not rows.flags.writeable


def seeded_starts(v, starts=32):
    """The tensor, starts and signs maximize draws for ``v`` at DEFAULT_SEED."""
    n = v.n
    rng = np.random.default_rng(bd.DEFAULT_SEED)
    z = (bd._random_units(rng, (2 * starts, n, 3))
         + 1j * bd._random_units(rng, (2 * starts, n, 3)))
    return bd._pauli_expectation_tensor(v), z, np.repeat([1.0, -1.0], starts)


class TestExtrapolationJump:
    @pytest.mark.parametrize("state_id", ["v31", "v41"])
    def test_no_row_falls_and_a_rejecting_row_keeps_its_bytes(self, state_id):
        tensor, z, sign = seeded_starts(bd.bound_state(state_id))
        matrices = [m.astype(complex) for m in qubit_matrices(tensor)]
        origin = z.copy()
        accepted = rejected = 0
        for sweep in range(1, 61):
            values = bd._seesaw_sweep(matrices, z, sign)
            if sweep % bd.EXTRAPOLATE_EVERY:
                continue
            start, start_values = z.copy(), values.copy()
            before = einsum_value(tensor, z.real, z.imag, sign)
            bd._jump(matrices[-1], z, origin, sign, values)
            after = einsum_value(tensor, z.real, z.imag, sign)
            assert np.all(after >= before - 1e-12)
            assert np.all(values >= start_values)
            took = values > start_values
            assert np.array_equal(origin, start)
            assert z[~took].tobytes() == start[~took].tobytes()
            assert values[~took].tobytes() == start_values[~took].tobytes()
            assert np.all(np.any(z[took] != start[took], axis=(1, 2)))
            assert np.allclose(values[took], after[took], rtol=0, atol=1e-12)
            for part in (z.real, z.imag):
                assert np.allclose(np.linalg.norm(part, axis=-1), 1.0, rtol=0, atol=1e-14)
            accepted += np.count_nonzero(took)
            rejected += np.count_nonzero(~took)
        assert accepted and rejected

    def test_a_proposal_part_of_zero_or_non_finite_norm_keeps_its_row(self):
        tensor, z, sign = seeded_starts(bd.bound_state("v31"), starts=3)
        matrices = [m.astype(complex) for m in qubit_matrices(tensor)]
        origin = z + 0.25 * (bd._random_units(np.random.default_rng(8900), z.shape) - z)
        # z + s (z - origin) has a zero x part for origin x = (1 + 1/s) x; on
        # the unit vector e1 the step's rounding leaves it exactly zero
        e1, back = np.array([1.0, 0.0, 0.0]), 1.0 + 1.0 / bd.EXTRAPOLATE_STEP
        z[0, 1], origin[0, 1] = e1 + 1j * z[0, 1].imag, back * e1 + 1j * origin[0, 1].imag
        z[1, 2], origin[1, 2] = z[1, 2].real + 1j * e1, origin[1, 2].real + 1j * back * e1
        proposal = z + bd.EXTRAPOLATE_STEP * (z - origin)
        assert not proposal[0, 1].real.any() and not proposal[1, 2].imag.any()
        origin[2, 0, 1] = complex(math.nan, 0.0)
        origin[3, 2, 2] = complex(math.inf, 0.0)
        start = z.copy()
        values = np.full(len(z), -math.inf)  # every proposal that can be made is taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bd._jump(matrices[-1], z, origin, sign, values)
        assert z[:4].tobytes() == start[:4].tobytes()
        assert np.all(values[:4] == -math.inf)
        assert np.all(np.any(z[4:] != start[4:], axis=(1, 2)))
        assert np.allclose(values[4:], einsum_value(tensor, z[4:].real, z[4:].imag, sign[4:]),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["general", "uniform"])
    @pytest.mark.parametrize("state_id", ["v31", "v41"])
    def test_one_seed_gives_identical_bytes(self, state_id, mode):
        a, b = (bd.maximize(bd.bound_state(state_id), mode=mode, seed=bd.DEFAULT_SEED + 3)
                for _ in range(2))
        assert a.value.hex() == b.value.hex() and a.curvature.hex() == b.curvature.hex()
        assert a.setting.x.tobytes() == b.setting.x.tobytes()
        assert a.setting.y.tobytes() == b.setting.y.tobytes()
        for field in ("sweeps", "basin_hits", "newton_steps", "orbit_dim"):
            assert getattr(a, field) == getattr(b, field)

    @pytest.mark.parametrize("state_id", ["v31", "v41"])
    def test_jumps_cut_general_sweeps_and_keep_every_basin(self, monkeypatch, state_id):
        v, target = bd.bound_state(state_id), bd.EXACT_BOUNDS[state_id]
        jumping = bd.maximize(v, target=target)
        monkeypatch.setattr(bd, "EXTRAPOLATE_EVERY", bd.SWEEP_CAP + 1)
        walking = bd.maximize(v, target=target)
        assert jumping.sweeps < walking.sweeps
        assert jumping.basin_hits >= walking.basin_hits
        assert jumping.gap < 1e-12 and walking.gap < 1e-12

    @pytest.mark.parametrize("state_id", ["v31", "v41"])
    def test_a_jump_sweep_never_hands_over(self, monkeypatch, state_id):
        seesaw, jump, sweeps_left = bd._seesaw_sweep, bd._jump, bd._sweeps_left
        jumped, judged_after_jump = [False], []

        def sweep(*args):
            jumped[0] = False
            return seesaw(*args)

        def jump_and_mark(*args):
            jumped[0] = True
            jump(*args)

        def judge(*args):
            judged_after_jump.append(jumped[0])
            return sweeps_left(*args)

        monkeypatch.setattr(bd, "_seesaw_sweep", sweep)
        monkeypatch.setattr(bd, "_jump", jump_and_mark)
        monkeypatch.setattr(bd, "_sweeps_left", judge)
        for offset in range(8):
            bd.maximize(bd.bound_state(state_id), seed=bd.DEFAULT_SEED + offset)
        assert judged_after_jump and not any(judged_after_jump)

    @pytest.mark.parametrize("state_id", bd.BOUND_STATE_IDS)
    def test_uniform_mode_never_jumps(self, monkeypatch, state_id):
        v = bd.bound_state(state_id)
        reference = bd.maximize(v, mode="uniform")
        monkeypatch.setattr(bd, "EXTRAPOLATE_EVERY", 1)
        monkeypatch.setattr(bd, "_jump", None)  # calling it would fail
        result = bd.maximize(v, mode="uniform")
        assert result.value == reference.value and result.sweeps == reference.sweeps
        assert result.setting.x.tobytes() == reference.setting.x.tobytes()
        assert result.setting.y.tobytes() == reference.setting.y.tobytes()
