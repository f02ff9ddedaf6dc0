"""Bell-Mermin operator expectations over dichotomic settings and their maxima.

Observables are parameterized by real unit 3-vectors in the Pauli basis
(X = x1 s1 + x2 s2 + x3 s3), which makes them Hermitian and unitary at once.
This module is deliberately dense-matrix based so that it forms a route
independent of the symbolic algebra in :mod:`merminkit.pauli`.

The maximizer works on the real tensor T of Pauli-word expectations, in
which mu is multilinear in the per-qubit z_a = x_a + i y_a: general settings
are found by a batched see-saw over the qubits, uniform ones by a shifted
power ascent on the symmetrized tensor.  Every reported value is the
dense-matrix expectation at the setting found.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain, permutations, product

import numpy as np

from .states import StateVector, catalog_state

TOL_UNIT = 1e-10
DEFAULT_SEED = 0x4D45524D

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# the catalog states with a known exact bound; built by states.catalog_state
BOUND_STATE_IDS = ("u3", "u4", "v31", "v41", "v42")
bound_state = catalog_state

# exact optimum of |mu| over all settings, per catalog state
EXACT_BOUNDS = {
    "u3": 4.0,
    "u4": 8.0,
    "v31": math.sqrt(738.0 * math.sqrt(41.0) - 3974.0) / 9.0,
    "v41": 4.5,
    "v42": 6.0,
}

# optimal |x3|, |y3| for the W state; signs form the orbit (s*a, t*b)
W_OPT_X3 = math.sqrt(3.0 * math.sqrt(41.0) - 13.0) / (3.0 * math.sqrt(2.0))
W_OPT_Y3 = math.sqrt(5.0 * math.sqrt(41.0) - 27.0) / math.sqrt(6.0)


def _as_unit_rows(vectors, n: int, label: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.shape != (n, 3):
        raise ValueError(f"{label} must have shape ({n}, 3), got {arr.shape}")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(np.abs(norms - 1.0) > TOL_UNIT):
        raise ValueError(f"{label} rows must be unit vectors, got norms {norms}")
    return arr


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """Per-qubit unit 3-vectors defining the dichotomic observables X_a, Y_a."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.x).shape[0]
        object.__setattr__(self, "x", _as_unit_rows(self.x, n, "x"))
        object.__setattr__(self, "y", _as_unit_rows(self.y, n, "y"))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def uniform(cls, n: int, x, y) -> "MeasurementSetting":
        """One (x, y) pair shared by all qubits."""
        return cls(np.tile(np.asarray(x, dtype=float), (n, 1)),
                   np.tile(np.asarray(y, dtype=float), (n, 1)))

    @classmethod
    def pauli12(cls, n: int) -> "MeasurementSetting":
        """The restricted setting X_a = s1, Y_a = s2."""
        return cls.uniform(n, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

    def to_json_dict(self) -> dict:
        return {"x": self.x.tolist(), "y": self.y.tolist()}


def observable(vector) -> np.ndarray:
    """2x2 Hermitian-unitary matrix sum(v_j s_j) for a unit 3-vector."""
    v = np.asarray(vector, dtype=float)
    return np.tensordot(v, _PAULI, axes=(0, 0))


def mermin_terms(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Signed X/Y patterns of the degree-n operator (0 -> X, 1 -> Y).

    Patterns use an even number of Y slots; the sign is +1 when that number
    is divisible by four and -1 otherwise.
    """
    if n not in (3, 4):
        raise ValueError(f"unsupported qubit count {n}; expected 3 or 4")
    terms = []
    for pattern in product((0, 1), repeat=n):
        ys = sum(pattern)
        if ys % 2 == 0:
            terms.append((1 if ys % 4 == 0 else -1, pattern))
    return terms


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, without np.kron's generic set-up."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def mermin_operator(n: int, setting: MeasurementSetting) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the signed sum of X/Y tensor words."""
    if setting.n != n:
        raise ValueError(f"setting is for {setting.n} qubits, expected {n}")
    # per-qubit observables: row a is sum_j v_aj s_j, as in ``observable``
    factors = (np.tensordot(setting.x, _PAULI, axes=(1, 0)),
               np.tensordot(setting.y, _PAULI, axes=(1, 0)))
    total = np.zeros((1 << n, 1 << n), dtype=complex)
    for sign, pattern in mermin_terms(n):
        term = factors[pattern[0]][0]
        for a in range(1, n):
            term = _kron(term, factors[pattern[a]][a])
        total += sign * term
    return total


def expectation(v: StateVector, setting: MeasurementSetting) -> float:
    """Normalized expectation <v, M v> / <v, v>; real for Hermitian M."""
    if v.norm_sq == 0:
        raise ValueError("state is identically zero")
    m = mermin_operator(v.n, setting)
    value = complex(np.vdot(v.amps, m @ v.amps)) / v.norm_sq
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation {value} is not real")
    return float(value.real)


# -- fast evaluation used by the optimizer -------------------------------------

# contraction of T with one z per qubit; tests check the tensor against it
_EINSUM_SUBS = {3: "abc,a,b,c->", 4: "abcd,a,b,c,d->"}
_LETTERS = "abcd"  # tensor axes, one per qubit
_BRA, _KET = "ABCD", "EFGH"  # basis indices of the bra and ket, one per qubit

SWEEP_CAP = 5000
TOL_GAIN = 1e-15  # stop once no row gains more than this, relative to max |mu|
TOL_BASIN = 1e-9  # rows this close to the best value count as basin hits


def _pauli_expectation_tensor(v: StateVector) -> np.ndarray:
    """Tensor T[j1..jn] = <v, s_{j1..jn} v> / <v, v> over letters 1..3.

    The expectation of any X/Y tensor word is multilinear in the per-qubit
    3-vectors, and the whole signed sum contracts against z_a = x_a + i y_a:
    mu = Re T[j1..jn] z_{1,j1} ... z_{n,jn}.
    """
    n = v.n
    psi = v.amps.reshape((2,) * n)
    paulis = ",".join(_LETTERS[a] + _BRA[a] + _KET[a] for a in range(n))
    subs = f"{_BRA[:n]},{paulis},{_KET[:n]}->{_LETTERS[:n]}"
    tensor = np.einsum(subs, psi.conj(), *([_PAULI] * n), psi, optimize=True)
    return tensor.real / v.norm_sq


def _contract_except(tensor: np.ndarray, z: np.ndarray, a: int) -> np.ndarray:
    """Row-wise T contracted with every z[:, b] except b = a; shape (rows, 3)."""
    rows = z.shape[0]
    others = [b for b in range(z.shape[1]) if b != a]
    # axis a moves last; the others are contracted front to back
    out = z[:, others[0]] @ np.moveaxis(tensor, a, -1).reshape(3, -1)
    for b in others[1:]:
        out = (z[:, b, None, :] @ out.reshape(rows, 3, -1))[:, 0]
    return out


def _random_units(rng: np.random.Generator, shape) -> np.ndarray:
    """Seeded unit 3-vectors along the last axis, uniform on the sphere."""
    draw = rng.standard_normal(shape)
    return draw / np.linalg.norm(draw, axis=-1, keepdims=True)


def _unit_or_keep(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Rows of ``new`` scaled to unit norm; a zero row keeps the ``old`` row."""
    norm = np.linalg.norm(new, axis=-1, keepdims=True)
    return np.where(norm > 0, new / np.where(norm > 0, norm, 1.0), old)


def _symmetrized(tensor: np.ndarray) -> np.ndarray:
    """Average of the tensor over all permutations of its axes."""
    perms = list(permutations(range(tensor.ndim)))
    return sum(tensor.transpose(p) for p in perms) / len(perms)


def _seesaw_sweep(tensor, x, y, sign):
    """One pass of exact per-qubit updates; returns sign * mu per row.

    With the other qubits fixed, sign * mu = Re(c . x_a) - Im(c . y_a) for the
    sign-scaled contraction c, which the unit vectors along Re c and -Im c
    maximize at |Re c| + |Im c|.
    """
    for a in range(x.shape[1]):
        c = sign[:, None] * _contract_except(tensor, x + 1j * y, a)
        x[:, a] = _unit_or_keep(c.real, x[:, a])
        y[:, a] = _unit_or_keep(-c.imag, y[:, a])
    return np.linalg.norm(c.real, axis=1) + np.linalg.norm(c.imag, axis=1)


def _power_sweep(tensor, x, y, sign, shift):
    """One shifted power step on a symmetric tensor with z shared by all qubits.

    Returns sign * mu per row at the setting the step started from; the
    gradient of mu in (x, y) is (Re g, -Im g) with g = n T(z, ..., z, .).
    """
    n = x.shape[1]
    z = x + 1j * y
    c = sign[:, None] * _contract_except(tensor, z, n - 1)
    value = np.einsum("rj,rj->r", c, z[:, -1]).real
    x[:] = _unit_or_keep(n * c.real + shift * x[:, -1], x[:, -1])[:, None]
    y[:] = _unit_or_keep(-n * c.imag + shift * y[:, -1], y[:, -1])[:, None]
    return value


@dataclass
class BoundResult:
    """Outcome of a maximization run over measurement settings.

    ``starts`` is the number of starts per sign branch, ``sweeps`` the number
    of ascent sweeps run, and ``basin_hits`` the number of rows (over both
    branches) that ended within TOL_BASIN of the best value.
    """

    value: float
    setting: MeasurementSetting
    target: float | None = None
    starts: int | None = None
    sweeps: int | None = None
    basin_hits: int | None = None

    @property
    def gap(self) -> float | None:
        return None if self.target is None else abs(self.value - self.target)


def maximize(
    v: StateVector,
    mode: str = "general",
    seed: int = DEFAULT_SEED,
    starts: int = 64,
    target: float | None = None,
) -> BoundResult:
    """Largest |mu| over settings via a batched, seeded multistart ascent.

    Each of ``starts`` seeded random unit-vector starts runs once per sign
    branch (maximizing mu and -mu), all as rows of one array.  General mode
    is a see-saw: each qubit's (x, y) in turn jumps to its exact optimum with
    the others fixed.  Uniform mode is a shifted power ascent on the
    symmetrized tensor, so states that are not permutation symmetric are
    handled too.  Sweeps stop when no row gains more than TOL_GAIN relative
    to the largest |mu|, or at SWEEP_CAP.  The run is bit-deterministic for a
    fixed seed; ties keep the earliest row.  The reported value is the
    dense-matrix |mu| at the winning setting.
    """
    if mode not in ("uniform", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    n = v.n
    if n not in (3, 4):
        raise ValueError(f"unsupported qubit count {n}; expected 3 or 4")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    tensor = _pauli_expectation_tensor(v)
    rng = np.random.default_rng(seed)
    rows = 2 * starts
    x = _random_units(rng, (rows, n, 3))
    y = _random_units(rng, (rows, n, 3))
    sign = np.repeat([1.0, -1.0], starts)
    if mode == "uniform":
        tensor = _symmetrized(tensor)
        # bounds the Hessian of mu in (x, y) over |x|, |y| <= 1, where
        # |z| <= sqrt(2): a shift this large makes every step an ascent
        shift = n * (n - 1) * 2.0 ** ((n - 2) / 2) * float(np.linalg.norm(tensor))
        x[:] = x[:, :1]
        y[:] = y[:, :1]
        sweep = partial(_power_sweep, tensor, x, y, sign, shift)
    else:
        sweep = partial(_seesaw_sweep, tensor, x, y, sign)

    values = sweep()
    sweeps = 1
    while sweeps < SWEEP_CAP:
        previous, values = values, sweep()
        sweeps += 1
        if np.max(values - previous) <= TOL_GAIN * max(1.0, np.max(np.abs(values))):
            break

    best = int(np.argmax(values))
    setting = MeasurementSetting(x[best], y[best])
    # report the dense-matrix value at the winning setting
    value = abs(expectation(v, setting))
    return BoundResult(
        value=value, setting=setting, target=target, starts=starts, sweeps=sweeps,
        basin_hits=int(np.count_nonzero(values >= values[best] - TOL_BASIN)),
    )


# -- closed forms for the uniform-setting Dicke expectations -------------------


def _mu_poly(state_id: str, x3, y3, d):
    """Shared polynomial in (x3, y3, d) with d = x1 y1 + x2 y2; scalars or arrays."""
    # products, not **: numpy's array pow can differ at y3 and -y3, which
    # would break the exact mirror between the two sign branches
    x2, y2 = x3 * x3, y3 * y3
    if state_id == "v31":
        return -3.0 * x2 * x3 + 5.0 * x3 * y2 - 4.0 * d * y3
    if state_id == "v41":
        return -4.0 * (x2 * x2 + y2 * y2) + 12.0 * x2 * y2 - 12.0 * d * x3 * y3
    if state_id == "v42":
        return (6.0 * (x2 * x2 + y2 * y2) - 16.0 * x2 * y2
                - 4.0 * d * d + 16.0 * d * x3 * y3)
    raise ValueError(f"no closed form for state {state_id!r}")


def restricted_mu(state_id: str, x, y) -> float:
    """Closed-form expectation for identical X, Y on every qubit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for label, vec in (("x", x), ("y", y)):
        if vec.shape != (3,):
            raise ValueError(f"{label} must be a 3-vector")
        if abs(np.linalg.norm(vec) - 1.0) > TOL_UNIT:
            raise ValueError(f"{label} must be a unit vector")
    d = float(x[0] * y[0] + x[1] * y[1])
    return _mu_poly(state_id, float(x[2]), float(y[2]), d)


def collinear_mu(state_id: str, sign: int, x3, y3):
    """Expectation with the in-plane projections of x and y collinear.

    The substitution d = sign * sqrt(1-x3^2) sqrt(1-y3^2) reduces the closed
    form to a two-variable landscape on [-1, 1]^2.  ``x3`` and ``y3`` may be
    scalars or arrays of one shape.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if np.any(np.abs(x3) > 1) or np.any(np.abs(y3) > 1):
        raise ValueError("x3 and y3 must lie in [-1, 1]")
    d = sign * np.sqrt(1.0 - x3 * x3) * np.sqrt(1.0 - y3 * y3)
    return _mu_poly(state_id, x3, y3, d)


MAX_RESOLUTION = 2001  # samples per axis; the grid holds resolution^2 floats


def _grid_axis(resolution: int) -> np.ndarray:
    """``resolution`` evenly spaced samples of [-1, 1], exactly symmetric."""
    return (2.0 * np.arange(resolution) - (resolution - 1)) / (resolution - 1)


@dataclass
class ContourGrid:
    """Samples of the collinear landscape on a uniform square grid."""

    state_id: str
    sign: int
    resolution: int
    values: np.ndarray  # row-major, rows indexed by x3

    @property
    def axis(self) -> np.ndarray:
        return _grid_axis(self.resolution)


def contour(state_id: str, sign: int, resolution: int) -> ContourGrid:
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution {resolution} refused (above {MAX_RESOLUTION})")
    axis = _grid_axis(resolution)
    values = collinear_mu(state_id, sign,
                          *np.meshgrid(axis, axis, indexing="ij", sparse=True))
    return ContourGrid(state_id=state_id, sign=sign, resolution=resolution,
                       values=values)


def contour_csv_rows(grid: ContourGrid) -> Iterator[list[str]]:
    """The header, then each grid row's ``x3,y3,mu`` lines at 6 significant digits."""
    yield ["x3,y3,mu"]
    # each axis label is formatted once; one row at a time keeps the Python
    # floats of the whole grid from being alive together
    labels = [f"{a:.6g}," for a in grid.axis.tolist()]
    for x3, row in zip(labels, grid.values):
        yield [f"{x3}{y3}{mu:.6g}" for y3, mu in zip(labels, row.tolist())]


def contour_csv_lines(grid: ContourGrid) -> list[str]:
    """Every line of ``contour_csv_rows``, header first."""
    return list(chain.from_iterable(contour_csv_rows(grid)))
