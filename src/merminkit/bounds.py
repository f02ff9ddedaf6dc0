"""Bell-Mermin operator expectations over dichotomic settings and their maxima.

Observables are parameterized by real unit 3-vectors in the Pauli basis
(X = x1 s1 + x2 s2 + x3 s3), which makes them Hermitian and unitary at once.
This module is deliberately dense-matrix based so that it forms a route
independent of the symbolic algebra in :mod:`merminkit.pauli`.

The maximizer works on the real tensor T of Pauli-word expectations, in
which mu is multilinear in the per-qubit z_a = x_a + i y_a: general settings
are found by a batched see-saw over the qubits, uniform ones by a shifted
power ascent on the symmetrized tensor, and both are polished by damped
Riemannian Newton steps on the product of spheres.  Every reported value is
the dense-matrix expectation at the setting found.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, islice, permutations, product

import numpy as np

from .states import StateVector, catalog_state, check_qubit_count, unit_scaled

TOL_UNIT = 1e-10
DEFAULT_SEED = 0x4D45524D
MODES = ("uniform", "general")

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

bound_state = catalog_state

# exact optimum of |mu| over all settings, per catalog state with a known bound
EXACT_BOUNDS = {
    "u3": 4.0,
    "u4": 8.0,
    "v31": math.sqrt(738.0 * math.sqrt(41.0) - 3974.0) / 9.0,
    "v41": 4.5,
    "v42": 6.0,
}
BOUND_STATE_IDS = tuple(EXACT_BOUNDS)

# optimal |x3|, |y3| for the W state; signs form the orbit (s*a, t*b)
W_OPT_X3 = math.sqrt(3.0 * math.sqrt(41.0) - 13.0) / (3.0 * math.sqrt(2.0))
W_OPT_Y3 = math.sqrt(5.0 * math.sqrt(41.0) - 27.0) / math.sqrt(6.0)


def _as_unit_rows(vectors, n: int, label: str) -> np.ndarray:
    """A private, read-only float copy of ``vectors``, checked to be n unit 3-vectors."""
    arr = np.array(vectors, dtype=float)
    if arr.shape != (n, 3):
        raise ValueError(f"{label} must have shape ({n}, 3), got {arr.shape}")
    # summed as np.add.reduce sums 3 entries, so np.linalg.norm's norm, bit for bit
    for a, b, c in arr.tolist():
        if not abs(math.sqrt((a * a + b * b) + c * c) - 1.0) <= TOL_UNIT:  # NaN fails too
            norms = np.sqrt(np.add.reduce(arr * arr, axis=1))
            raise ValueError(f"{label} rows must be unit vectors, got norms {norms}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """Per-qubit unit 3-vectors defining the dichotomic observables X_a, Y_a.

    ``x`` and ``y`` are private read-only (n, 3) copies of the rows given, so
    changing the caller's arrays later leaves the checked setting as it was.
    """

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
        return cls(np.asarray(x, dtype=float).reshape(1, -1).repeat(n, 0),
                   np.asarray(y, dtype=float).reshape(1, -1).repeat(n, 0))

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
    check_qubit_count(n)
    terms = []
    for pattern in product((0, 1), repeat=n):
        ys = sum(pattern)
        if ys % 2 == 0:
            terms.append((1 if ys % 4 == 0 else -1, pattern))
    return terms


def mermin_operator(n: int, setting: MeasurementSetting) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the signed sum of X/Y tensor words."""
    if setting.n != n:
        raise ValueError(f"setting is for {setting.n} qubits, expected {n}")
    # rows 2a and 2a + 1 are qubit a's X and Y, each made as ``observable`` makes it
    rows = np.empty((2 * n, 3), dtype=complex)
    rows[0::2], rows[1::2] = setting.x, setting.y
    factors = (rows @ _PAULI.reshape(3, 4)).reshape(n, 8)
    head, last = _mermin_layout(n)
    # every product of one entry per qubit but the last, left to right as in np.kron
    prefix = factors[0]
    for a in range(1, n - 1):
        prefix = (prefix[:, None] * factors[a]).ravel()
    words = prefix[head]
    words *= np.concatenate((factors[n - 1], -factors[n - 1]))[last]  # in place
    return np.add.reduce(words, axis=0)


@cache
def _mermin_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only gather tables of the signed words of ``mermin_terms(n)``.

    Qubit a's 8 factor entries are 4 p + 2 r + c for letter p, row bit r and
    column bit c.  Entry (r, c) of even word w is the Kronecker-ordered product
    ``head[w, r, c]`` of one entry per qubit but the last, times entry
    ``last[w, r, c]`` of the last qubit's 8 entries followed by their 8
    negations: a word of sign -1 reads the negations.  w runs over the letters
    of the first n - 1 qubits in the order of product(), and the last letter is
    their parity.
    """
    signs, patterns = zip(*mermin_terms(n))
    m = n - 1
    # digits (p r c) per qubit regrouped as letters, row bits, column bits; the
    # last qubit's row and column bits are the lowest of each index
    head = np.arange(8 ** m).reshape((2, 2, 2) * m).transpose(
        [i for k in range(3) for i in range(k, 3 * m, 3)])
    last = np.arange(16).reshape(2, 2, 2, 2)[[(1 - s) // 2 for s in signs],
                                             [p[-1] for p in patterns]]
    head, last = (t.reshape(1 << m, 1 << n, 1 << n) for t in np.broadcast_arrays(
        head.reshape(1 << m, 1 << m, 1, 1 << m, 1), last[:, None, :, None, :]))
    head.flags.writeable = last.flags.writeable = False
    return head, last


def expectation(v: StateVector, setting: MeasurementSetting) -> float:
    """Normalized expectation <v, M v> / <v, v>; real for Hermitian M."""
    u = unit_scaled(v)
    m = mermin_operator(v.n, setting)
    value = complex(np.vdot(u.amps, m @ u.amps)) / u.norm_sq
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation {value} is not real")
    return float(value.real)


# -- fast evaluation used by the optimizer -------------------------------------

# contraction of T with one z per qubit; tests check the tensor against it
_EINSUM_SUBS = {3: "abc,a,b,c->", 4: "abcd,a,b,c,d->"}
_LETTERS = "abcd"  # tensor axes, one per qubit
_BRA, _KET = "ABCD", "EFGH"  # basis indices of the bra and ket, one per qubit

SWEEP_CAP = 5000  # first-order sweeps at most
TOL_COARSE = 1e-6  # first-order phase ends once no row gains more, relative
TOL_GAIN = 1e-15  # stop once no row gains more than this, relative to max |mu|
TOL_BASIN = 1e-9  # rows this close to the best value count as basin hits
NEWTON_CAP = 20  # Newton steps at most
POLISH_SWEEPS = 16  # about what a Newton polish costs, in first-order sweeps
POLISH_ROWS = 32  # rows polished together; bounds the Hessians held at once
DAMPING = 1e-9  # Newton shift, relative to the largest Hessian entry
TOL_FLAT = 1e-6  # Hessian eigenvalues this small, relative, lie along the orbit
MAX_STARTS = 4096  # starts per sign branch; rows hold 2 * starts settings


def _pauli_expectation_tensor(v: StateVector) -> np.ndarray:
    """Tensor T[j1..jn] = <v, s_{j1..jn} v> / <v, v> over letters 1..3.

    The expectation of any X/Y tensor word is multilinear in the per-qubit
    3-vectors, and the whole signed sum contracts against z_a = x_a + i y_a:
    mu = Re T[j1..jn] z_{1,j1} ... z_{n,jn}.
    """
    n = v.n
    u = unit_scaled(v)
    psi = u.amps.reshape((2,) * n)
    paulis = ",".join(_LETTERS[a] + _BRA[a] + _KET[a] for a in range(n))
    subs = f"{_BRA[:n]},{paulis},{_KET[:n]}->{_LETTERS[:n]}"
    tensor = np.einsum(subs, psi.conj(), *([_PAULI] * n), psi,
                       optimize=_tensor_path(subs, n))
    return tensor.real / u.norm_sq


@cache
def _tensor_path(subs: str, n: int) -> list:
    """The einsum path ``optimize=True`` plans for the tensor; shapes alone decide it."""
    psi = np.zeros((2,) * n, dtype=complex)
    return np.einsum_path(subs, psi, *([_PAULI] * n), psi, optimize=True)[0]


def _contract_except(matrix: np.ndarray, z: np.ndarray, a: int) -> np.ndarray:
    """Row-wise T contracted with every z[:, b] except b = a; shape (rows, 3)."""
    others = [b for b in range(z.shape[1]) if b != a]
    # matrix is T with axis a moved last, as (3, -1); the others go front to back
    out = z[:, others[0]] @ matrix
    for b in others[1:]:
        out = (z[:, b, None, :] @ out.reshape(len(z), 3, -1))[:, 0]
    return out


def _random_units(rng: np.random.Generator, shape) -> np.ndarray:
    """Seeded unit 3-vectors along the last axis, uniform on the sphere."""
    draw = rng.standard_normal(shape)
    return draw / np.linalg.norm(draw, axis=-1, keepdims=True)


def _set_along(z: np.ndarray, a: int, w: np.ndarray) -> np.ndarray:
    """Set z[:, a] to the unit rows along Re w and -Im w; a zero one keeps its row."""
    parts = np.conj(w).view(float).reshape(-1, 3, 2).transpose(1, 2, 0).copy()  # rows last
    squares = parts * parts  # summed as np.linalg.norm sums them, bit for bit
    norm = np.sqrt(squares[0] + squares[1] + squares[2])
    ok = True if norm.min() > 0 else norm > 0  # false at a zero or NaN part; a mask is slow
    np.divide(parts, norm, out=parts, where=ok)
    np.copyto(z.view(float).reshape(*z.shape, 2)[:, a].transpose(1, 2, 0), parts, where=ok)
    return norm.T


def _symmetrized(tensor: np.ndarray) -> np.ndarray:
    """Average of the tensor over all permutations of its axes."""
    perms = list(permutations(range(tensor.ndim)))
    return sum(tensor.transpose(p) for p in perms) / len(perms)


def _ascent_shift(tensor: np.ndarray) -> float:
    """A shift that makes every ``_power_sweep`` on the symmetric tensor an ascent.

    It bounds the Hessian of mu in (x, y) over |x|, |y| <= 1, where
    |z|^2 <= 2: with M the 9 x 3^(n-2) unfolding of T, |D^2 mu (d, d)| =
    n(n-1) |Re (dz (x) dz)^T M z^(x)(n-2)| <= n(n-1) sigma_max(M)
    2^((n-2)/2) |d|^2.  sigma_max is the root of the largest eigenvalue of
    the 9 x 9 Gram matrix M M^T.
    """
    n = tensor.ndim
    unfolded = tensor.reshape(9, -1)
    largest = np.linalg.eigvalsh(unfolded @ unfolded.T)[-1]
    return n * (n - 1) * 2.0 ** ((n - 2) / 2) * math.sqrt(max(largest, 0.0))


def _seesaw_sweep(matrices, z, sign):
    """One pass of exact per-qubit updates of z; returns sign * mu per row.

    With the other qubits fixed, sign * mu = Re(c . x_a) - Im(c . y_a) for the
    sign-scaled contraction c, which the unit vectors along Re c and -Im c
    maximize at |Re c| + |Im c|.  ``matrices[a]`` is the matrix of ``_contract_except``.
    """
    for a, matrix in enumerate(matrices):
        norm = _set_along(z, a, sign[:, None] * _contract_except(matrix, z, a))
    return norm[:, 0] + norm[:, 1]


def _power_sweep(matrix, z, sign, shift):
    """One shifted power step on a symmetric tensor with z shared by all qubits.

    Updates z and returns sign * mu per row at the setting the step started
    from; the gradient of mu in (x, y) is (Re g, -Im g) with g = n T(z, ..., z, .).
    """
    n = z.shape[1]
    c = sign[:, None] * _contract_except(matrix, z, n - 1)
    value = np.einsum("rj,rj->r", c, z[:, -1]).real
    _set_along(z, n - 1, n * c + shift * np.conj(z[:, -1]))
    z[:, :-1] = z[:, -1:]
    return value


# -- second-order polish on the product of spheres -----------------------------


def _tangent_frames(u: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames (3, 2, ...) of unit 3-vectors ``u`` (3, ...).

    The two columns are the first two of the Householder reflection
    I - v v^T / (1 + |u3|), v = u + s e3 (s the sign of u3, +1 at 0), which
    sends e3 to -s u; so they are orthonormal and orthogonal to u without a
    cross product.
    """
    v = u.copy()
    v[2] += np.where(u[2] >= 0, 1.0, -1.0)
    frames = -v[:, None] * (v[None, :2] / (1.0 + np.abs(u[2])))
    frames[0, 0] += 1.0
    frames[1, 1] += 1.0
    return frames


@cache
def _pair_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Qubit pairs a < b as two index arrays, and the other qubits of each pair."""
    pairs = list(combinations(range(n), 2))
    others = [[c for c in range(n) if c not in pair] for pair in pairs]
    first, second = np.array(pairs).T
    return first, second, np.array(others)


def _pair_stack(tensor: np.ndarray) -> np.ndarray:
    """T with the axes of each ``_pair_layout`` pair first, as complex (pairs, 9, -1)."""
    first, second, others = _pair_layout(tensor.ndim)
    return np.stack([tensor.transpose((a, b, *o)).reshape(9, -1)
                     for a, b, o in zip(first, second, others)], dtype=complex)


def _tangent_model(paired, x, y, sign, uniform: bool):
    """Value, Riemannian gradient and Hessian of sign * mu per row.

    Tangent coordinates are, per qubit a, two along the frame Bx_a of x_a
    then two along By_a (4n in all).  With c_a the tensor contracted with
    every z_b except b = a, and C_ab with a and b both left open, the
    gradient is Re(F_a^T c_a) for F_a = [Bx_a, i By_a] and block (a, b) of
    the Hessian is Re(F_a^T C_ab F_b); same-qubit blocks are zero, since mu
    is linear in each z_a.  Each sphere adds -(u . grad_u) I on its own
    diagonal, the Euclidean-to-Riemannian correction.  With ``uniform`` the
    qubits share one (x, y) whose 4 coordinates move them all, so by the
    chain rule the gradient sums over the qubits and the Hessian over every
    block; the tensor is symmetric there, so every C_ab is the one C of the
    first pair and the sums are n Re(F^T c) and n(n-1) Re(F^T C F) - n
    diag(radial).  Returns the values (rows,), gradients (rows, 4m),
    Hessians (rows, 4m, 4m) and the frames F (3, 4, m, rows), m = 1 if
    ``uniform``.  ``paired`` is ``_pair_stack(tensor)``.
    """
    rows, n, _ = x.shape
    if rows == 1:
        # one column would make ``paired @ rest`` a matrix-vector product,
        # which rounds differently; a twin row keeps the batched product's bits
        twin = _tangent_model(paired, np.repeat(x, 2, axis=0), np.repeat(y, 2, axis=0),
                              np.repeat(sign, 2), uniform)
        return *(part[:1] for part in twin[:3]), twin[3][..., :1]
    # rows last, so that each elementwise step runs over every row at once
    z = x.T + 1j * y.T  # (3, n, rows)
    if uniform:
        # the qubits share one setting, every C_ab is the C of pair (0, 1)
        # and every c_a is C z
        x, y, z = x[:, :1], y[:, :1], z[:, :1]
        rest = z[:, 0]
        for _ in range(n - 3):
            rest = (rest[:, None] * z[:, 0]).reshape(-1, rows)
        blocks = sign * (paired[0] @ rest).reshape(1, 3, 3, rows)
        c = np.sum(blocks * z[None, None, :, 0], axis=2).transpose(1, 0, 2)  # (3, 1, rows)
        first = second = slice(None)
    else:
        first, second, others = _pair_layout(n)
        rest = z[:, others[:, 0]]
        for k in range(1, n - 2):
            rest = (rest[:, None] * z[:, others[:, k]]).reshape(-1, len(first), rows)
        blocks = sign * (paired @ rest.transpose(1, 0, 2)).reshape(-1, 3, 3, rows)  # C_ab
        # c_0 = C_01 z_1 and c_a = C_0a^T z_0
        c = np.concatenate((np.sum(blocks[:1] * z[None, None, :, 1], axis=2),
                            np.sum(blocks[:n - 1] * z[None, :, None, 0], axis=1)))
        c = c.transpose(1, 0, 2)  # (3, n, rows)
    frames = np.concatenate((_tangent_frames(x.T), 1j * _tangent_frames(y.T)), axis=1)
    grad = np.sum(frames * c[:, None], axis=0).real  # (4, m, rows)
    radial = np.stack((np.sum(x.T * c.real, axis=0), -np.sum(y.T * c.imag, axis=0)))
    # Re(F_a^T C_ab F_b) for every pair; einsum keeps no product temporaries
    half = np.einsum("jpqr,jkqr->pkqr", frames[:, :, first], blocks.transpose(1, 2, 0, 3))
    pair_hess = np.einsum("pkqr,ksqr->psqr", half, frames[:, :, second]).real
    # mu is homogeneous of degree n, so u . grad = n mu
    if uniform:
        grad, value = n * grad, radial.sum(axis=(0, 1))
        hess = n * (n - 1) * pair_hess[:, :, 0]
        hess[range(4), range(4)] -= n * np.repeat(radial[:, 0], 2, axis=0)
    else:
        hess = np.zeros((n, 4, n, 4, rows))
        hess[first, :, second] = pair_hess.transpose(2, 0, 1, 3)
        hess[second, :, first] = pair_hess.transpose(2, 1, 0, 3)
        qubit, coord = np.divmod(np.arange(4 * n), 4)
        hess[qubit, coord, qubit, coord] -= np.repeat(radial, 2, axis=0)[coord, qubit]
        value = radial.sum(axis=(0, 1)) / n
    m = grad.shape[1]
    return (value, grad.transpose(2, 1, 0).reshape(rows, 4 * m),
            hess.reshape(4 * m, 4 * m, rows).transpose(2, 0, 1), frames)


def _retract(x, y, frames, step):
    """Settings moved by tangent ``step`` along ``frames``, back on the spheres."""
    moves = step.reshape(x.shape[0], -1, 4).transpose(2, 1, 0)
    # an m = 1 frame moves every qubit alike
    moved = (x + 1j * y).T + np.sum(frames * moves, axis=1)
    new = np.stack((moved.real, moved.imag))
    new /= np.linalg.norm(new, axis=1, keepdims=True)
    return new[0].T, new[1].T


def _newton_polish(paired, x, y, sign, uniform: bool, tol: float):
    """Damped Newton steps until no row gains more than ``tol``.

    Each step solves (delta I - H) step = grad, where delta = DAMPING *
    max|H| only keeps the solve regular along the flat orbit directions, in
    which the gradient has no component.  A row takes its step only if that
    raises its value, and retires once a step gains it ``tol`` or less: a
    rejected step would be proposed again unchanged.  Updates x and y in place;
    returns the values and the number of steps (``paired`` as in ``_tangent_model``).
    """
    values, grad, hess, frames = _tangent_model(paired, x, y, sign, uniform)
    diag = np.arange(grad.shape[1])
    active = np.arange(values.size)
    steps = 0
    while active.size and steps < NEWTON_CAP:
        largest = np.maximum(hess.max(axis=(1, 2)), -hess.min(axis=(1, 2)))  # max|H|
        system = -hess
        system[:, diag, diag] += DAMPING * np.maximum(1.0, largest)[:, None]
        try:
            step = np.linalg.solve(system, grad[..., None])
        except np.linalg.LinAlgError:  # an exactly singular row: keep the settings
            break
        new_x, new_y = _retract(x[active], y[active], frames, step)
        new_values, grad, hess, frames = _tangent_model(
            paired, new_x, new_y, sign[active], uniform)
        steps += 1
        gain = new_values - values[active]
        up = gain > 0
        moved = active[up]
        x[moved], y[moved], values[moved] = new_x[up], new_y[up], new_values[up]
        # only rows that moved by more than tol go on, from their new model
        going = gain > tol
        active, grad, hess = active[going], grad[going], hess[going]
        frames = frames[..., going]
    return values, steps


def _sweeps_left(gain: float, last: float, target: float) -> float:
    """First-order sweeps until the gain falls to ``target`` at rate gain / last.

    With no earlier gain (``last`` infinite) the rate is unknown and this is
    0, so that one more sweep measures it.
    """
    rate = gain / last
    if rate >= 1.0:
        return math.inf
    return math.log(target / gain) / math.log(rate) if rate > 0.0 else 0.0


def _curvature_signal(hess: np.ndarray) -> tuple[int, float]:
    """Orbit dimension and largest remaining eigenvalue of one tangent Hessian.

    Eigenvalues within TOL_FLAT of the largest |eigenvalue| count as flat
    (along the orbit of optima); the curvature is the largest of the rest,
    or 0.0 if every eigenvalue is flat.
    """
    eig = np.linalg.eigvalsh(hess)
    flat = np.abs(eig) <= TOL_FLAT * np.max(np.abs(eig))
    curved = eig[~flat]
    return int(np.count_nonzero(flat)), float(curved.max()) if curved.size else 0.0


@dataclass
class BoundResult:
    """Outcome of a maximization run over measurement settings.

    ``starts`` is the number of starts per sign branch, ``sweeps`` the number
    of first-order sweeps run, ``newton_steps`` the number of Newton steps
    after them, and ``basin_hits`` the number of rows (over both branches)
    that ended within TOL_BASIN of the best value.  ``orbit_dim`` and
    ``curvature`` read the tangent Hessian at the winner: the number of flat
    directions (the orbit of optima through it) and the largest remaining
    eigenvalue, which is negative at a strict local maximum up to the orbit.
    """

    value: float
    setting: MeasurementSetting
    target: float | None = None
    starts: int | None = None
    sweeps: int | None = None
    basin_hits: int | None = None
    newton_steps: int | None = None
    orbit_dim: int | None = None
    curvature: float | None = None

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
    branch (maximizing mu and -mu), all as rows of one array.  A first-order
    phase runs until no row gains more than TOL_COARSE relative to the
    largest |mu| and the per-sweep rate of that gain leaves more than
    POLISH_SWEEPS sweeps to TOL_GAIN, or until SWEEP_CAP sweeps.  General
    mode is a see-saw: each qubit's (x, y) in turn jumps to its exact
    optimum with the others fixed.  Uniform mode is a shifted power ascent
    on the symmetrized tensor, so states that are not permutation symmetric
    are handled too.  Unless that phase already met TOL_GAIN, damped
    Riemannian Newton steps then polish every row until none gains more
    than TOL_GAIN.  The run is bit-deterministic for a fixed seed; ties keep
    the earliest row.  The reported value is the dense-matrix |mu| at the
    winning setting.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n = v.n
    check_qubit_count(n)
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    if starts > MAX_STARTS:
        raise ValueError(f"starts {starts} refused (above {MAX_STARTS})")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    tensor = _pauli_expectation_tensor(v)
    rng = np.random.default_rng(seed)
    rows = 2 * starts
    z = _random_units(rng, (rows, n, 3)) + 1j * _random_units(rng, (rows, n, 3))
    x, y = z.real, z.imag  # views; the sweeps update z in place
    sign = np.repeat([1.0, -1.0], starts)
    uniform = mode == "uniform"
    # the sweep matrices are complex once per call, not cast in every contraction
    if uniform:
        tensor = _symmetrized(tensor)
        shift = _ascent_shift(tensor)
        z[:] = z[:, :1]
        sweep = partial(_power_sweep, tensor.reshape(3, -1).astype(complex), z, sign, shift)
    else:
        matrices = [np.moveaxis(tensor, a, -1).reshape(3, -1).astype(complex)
                    for a in range(n)]
        sweep = partial(_seesaw_sweep, matrices, z, sign)

    values = sweep()
    sweeps = 1
    gain = scale = math.inf
    while sweeps < SWEEP_CAP:
        previous, values = values, sweep()
        sweeps += 1
        scale = max(1.0, np.abs(values).max())
        last, gain = gain, (values - previous).max()
        if gain <= TOL_GAIN * scale:
            break
        # hand over once converging, unless the sweeps left cost less than a polish
        if (gain <= TOL_COARSE * scale
                and _sweeps_left(gain, last, TOL_GAIN * scale) > POLISH_SWEEPS):
            break
    newton_steps = 0
    paired = _pair_stack(tensor)
    if gain > TOL_GAIN * scale:
        # rows are independent; blocks keep the Hessians and their solves small,
        # and a uniform Hessian has n^2 times fewer entries than a general one
        size = POLISH_ROWS * n * n if uniform else POLISH_ROWS
        for block in range(0, rows, size):
            part = slice(block, block + size)
            values[part], steps = _newton_polish(paired, x[part], y[part], sign[part],
                                                 uniform, TOL_GAIN * scale)
            newton_steps = max(newton_steps, steps)

    best = int(np.argmax(values))
    at_best = slice(best, best + 1)
    hess = _tangent_model(paired, x[at_best], y[at_best], sign[at_best], uniform)[2]
    orbit_dim, curvature = _curvature_signal(hess[0])
    setting = MeasurementSetting(x[best], y[best])
    # report the dense-matrix value at the winning setting
    value = abs(expectation(v, setting))
    return BoundResult(
        value=value, setting=setting, target=target, starts=starts, sweeps=sweeps,
        basin_hits=int(np.count_nonzero(values >= values[best] - TOL_BASIN)),
        newton_steps=newton_steps, orbit_dim=orbit_dim, curvature=curvature,
    )


# -- closed forms for the uniform-setting Dicke expectations -------------------

CLOSED_FORM_IDS = ("v31", "v41", "v42")


def _mu_poly(state_id: str, x3, y3, d):
    """Shared polynomial in (x3, y3, d) with d = x1 y1 + x2 y2; scalars or arrays."""
    if state_id not in CLOSED_FORM_IDS:
        raise ValueError(f"no closed form for state {state_id!r}")
    # products, not **: numpy's array pow can differ at y3 and -y3, which
    # would break the exact mirror between the two sign branches
    x2, y2 = x3 * x3, y3 * y3
    if state_id == "v31":
        return -3.0 * x2 * x3 + 5.0 * x3 * y2 - 4.0 * d * y3
    if state_id == "v41":
        return -4.0 * (x2 * x2 + y2 * y2) + 12.0 * x2 * y2 - 12.0 * d * x3 * y3
    return (6.0 * (x2 * x2 + y2 * y2) - 16.0 * x2 * y2
            - 4.0 * d * d + 16.0 * d * x3 * y3)


def restricted_mu(state_id: str, x, y) -> float:
    """Closed-form expectation for identical X, Y on every qubit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for label, vec in (("x", x), ("y", y)):
        if vec.shape != (3,):
            raise ValueError(f"{label} must be a 3-vector")
        if not abs(math.sqrt(vec.dot(vec)) - 1.0) <= TOL_UNIT:  # np.linalg.norm's; NaN fails
            raise ValueError(f"{label} must be a unit vector")
    (x1, x2, x3), (y1, y2, y3) = x.tolist(), y.tolist()
    return _mu_poly(state_id, x3, y3, x1 * y1 + x2 * y2)


def collinear_mu(state_id: str, sign: int, x3, y3):
    """Expectation with the in-plane projections of x and y collinear.

    The substitution d = sign * sqrt(1-x3^2) sqrt(1-y3^2) reduces the closed
    form to a two-variable landscape on [-1, 1]^2.  ``x3`` and ``y3`` may be
    scalars or arrays of one shape.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not (np.all(np.abs(x3) <= 1) and np.all(np.abs(y3) <= 1)):  # NaN fails too
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


def contour_csv_rows(grid: ContourGrid) -> Iterator[str]:
    """The header, then each grid row's ``x3,y3,mu`` lines at 6 significant
    digits, as text with every line ending in a newline."""
    yield "x3,y3,mu\n"
    # axis labels are formatted once and each row in one % call on a template of
    # them; one row at a time keeps the floats of the whole grid from being alive
    labels = [f"{a:.6g}," for a in grid.axis.tolist()]
    for x3, row in zip(labels, grid.values):
        yield (x3 + f"%.6g\n{x3}".join(labels) + "%.6g\n") % tuple(row.tolist())


CSV_BLOCK_ROWS = 24  # rows of text joined and split at once by contour_csv_lines


def contour_csv_lines(grid: ContourGrid) -> list[str]:
    """Every line of ``contour_csv_rows``, header first.

    The rows are joined and split a block at a time, so at most one block of
    text is alive beside the lines, never the text of the whole grid.
    """
    rows = contour_csv_rows(grid)
    lines = []
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        lines += "".join(block).split("\n")
        lines.pop()  # the empty string after the block's last newline
    return lines
