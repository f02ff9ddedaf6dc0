"""Workload inputs and passes for the merminkit benchmark.

A workload is a fixed input set built from the workload seed, plus a pass
function that runs every input once through merminkit's public functions and
checks each output at the tolerance the acceptance suite uses.  Seed 0
reproduces the acceptance-suite inputs exactly.

Every call into the package goes through a module attribute (``bd.maximize``,
not a name imported from it), so that the tracer can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from merminkit import bounds as bd
from merminkit import cli
from merminkit import eigenops as eo
from merminkit import instructional as ins
from merminkit import pauli
from merminkit import states

COEFF_SEED = 20260808  # the acceptance suite's coefficient and setting seed
SYM_FAMILIES = {"v31~": (3, 1), "v41~": (4, 1), "v42~": (4, 2)}

# solved eigen_basis dimensions and catalog eigenvalues (criterion 1)
SOLVED_DIM = {"u3": 4, "v31~": 2, "u4": 8, "v41~": 5, "v42~": 6}
CATALOG_GAMMAS = {
    "u3": [1, -1, -1, -1],
    "v31~": [1, 1],
    "u4": [1, -1, -1, -1, -1, -1, -1, 1],
    "v41~": [1, 0, 0, 0, -1],
    "v42~": [1] * 10,
}

# built-in device verdicts (criterion 3): (explainable, count, certificate)
DEVICE_VERDICTS = {
    "u3": (False, 0, [0, 1, 2, 3]),
    "u3-last3": (True, 8, None),
    "v31~": (False, 0, None),
    "v31~-relaxed": (False, 0, None),
    "v41~": (True, 64, None),
    **{f"u4-{k}": (False, 0, [0, 1, 2, 3]) for k in range(1, 9)},
    **{f"v42~-{i}-{j}": (False, 0, None) for i in (1, 2, 3, 4) for j in (1, 2)},
}
TAU3_LEVEL_SETS = ((1, 24), (-3, 8), (2, 0))  # (target, solution count)
CLI_MAX_SOLUTIONS = 10  # the CLI's default --max-solutions

CONTOUR_STATES = ("v31", "v41", "v42")
CONTOUR_RES = 201
ORACLE_SETTINGS = 200  # uniform settings per Dicke state (criterion 5)


class Checks:
    """Counts every check; a miss or an exception is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def check(self, name: str, ok, detail="") -> None:
        self.attempted += 1
        if not ok:
            self._miss(f"{name}: {detail}" if detail != "" else name)

    def _miss(self, text: str) -> None:
        self.failed += 1
        if len(self.misses) < 20:
            self.misses.append(text)

    @contextlib.contextmanager
    def step(self, name: str):
        """Run a block; an exception in it counts as one failed check."""
        try:
            yield
        except Exception as exc:  # a failing operation must not end the run
            self.attempted += 1
            self._miss(f"{name}: {type(exc).__name__}: {exc}")


def _nonzero_coeffs(rng, count):
    out = []
    while len(out) < count:
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(c) >= 0.25:
            out.append(c)
    return out


def _unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _coeff_text(coeffs) -> str:
    """The CLI's --coeffs text, with every float written exactly."""
    return ",".join(f"{c.real!r}{c.imag:+.17g}i" for c in coeffs)


def maximize_seed(seed: int) -> int:
    return (bd.DEFAULT_SEED + seed) & 0xFFFFFFFF


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- bound-search ---------------------------------------------------------------


def bound_search_inputs(seed: int) -> dict:
    return {"seed": maximize_seed(seed)}


def bound_search_pass(inp: dict, chk: Checks) -> None:
    uniform = {}
    for sid in bd.BOUND_STATE_IDS:
        target = bd.EXACT_BOUNDS[sid]
        results = {}
        for mode in ("general", "uniform"):
            with chk.step(f"maximize {sid} {mode}"):
                state = bd.bound_state(sid)
                r = bd.maximize(state, mode=mode, seed=inp["seed"], target=target)
                chk.check(f"gap {sid} {mode}", r.gap < 1e-6, r.value)
                results[mode] = r
        if len(results) == 2:
            g, u = results["general"].value, results["uniform"].value
            chk.check(f"general >= uniform {sid}", g >= u - 1e-9, (g, u))
            chk.check(f"general ~ uniform {sid}", abs(g - u) < 1e-5, (g, u))
            uniform[sid] = results["uniform"].setting
    # optimum locations of the uniform runs (criterion 4)
    if "v31" in uniform:
        x3, y3 = abs(uniform["v31"].x[0][2]), abs(uniform["v31"].y[0][2])
        chk.check("v31 optimum", abs(x3 - bd.W_OPT_X3) < 1e-4
                  and abs(y3 - bd.W_OPT_Y3) < 1e-4, (x3, y3))
    if "v41" in uniform:
        half_sqrt3 = math.sqrt(3.0) / 2.0
        x3, y3 = abs(uniform["v41"].x[0][2]), abs(uniform["v41"].y[0][2])
        chk.check("v41 optimum", abs(x3 - half_sqrt3) < 1e-4
                  and abs(y3 - half_sqrt3) < 1e-4, (x3, y3))
    if "v42" in uniform:
        x3, y3 = uniform["v42"].x[0][2], uniform["v42"].y[0][2]
        r = 1.0 / math.sqrt(2.0)
        orbit = [(1, 0), (-1, 0), (0, 1), (0, -1), (r, r), (r, -r), (-r, r), (-r, -r)]
        chk.check("v42 optimum",
                  min(math.hypot(x3 - a, y3 - b) for a, b in orbit) < 1e-4, (x3, y3))


def bound_search_warmup(inp: dict, chk: Checks) -> None:
    """Finish the optimizer's lazy set-up without running a whole pass."""
    bd.maximize(bd.bound_state("u3"), mode="uniform", seed=inp["seed"], starts=1)


# -- exact-catalog --------------------------------------------------------------


def exact_catalog_inputs(seed: int) -> dict:
    rng = np.random.default_rng(COEFF_SEED + seed)
    coeffs = {sid: None for sid in eo.STATE_IDS}
    for sid, (n, m) in SYM_FAMILIES.items():
        coeffs[sid] = _nonzero_coeffs(rng, states.sym_coeff_count(n, m))
    return {
        "coeffs": coeffs,
        "devices": sorted(DEVICE_VERDICTS),
        "cli_eigenops": ["eigenops", "--state", "v42~",
                         "--coeffs=" + _coeff_text(coeffs["v42~"])],
        "cli_instr": ["instr", "--device", "v41~"],
    }


def _check_state(sid: str, coeffs, chk: Checks):
    state = eo.catalog_state(sid, coeffs)
    solved = eo.eigen_basis(state)
    chk.check(f"{sid} solved dimension", len(solved) == SOLVED_DIM[sid], len(solved))
    catalog = eo.catalog_basis(sid, coeffs)
    chk.check(f"{sid} catalog eigenvalues",
              catalog.eigenvalues == CATALOG_GAMMAS[sid], catalog.eigenvalues)
    v = catalog.state
    for k, (op, gamma) in enumerate(zip(catalog.operators, catalog.eigenvalues)):
        chk.check(f"{sid} catalog op {k} in solved span", eo.in_span(op, solved))
        residual = float(np.max(np.abs(op.apply(v).amps - gamma * v.amps)))
        chk.check(f"{sid} catalog op {k} eigen-relation", residual < 1e-12, residual)
    ops = catalog.operators
    for i, a in enumerate(ops):
        for j in range(i + 1, len(ops)):
            chk.check(f"{sid} catalog ops {i},{j} commute", a.commutes(ops[j]))
    for k, op in enumerate(solved.operators):
        back = pauli.parse_sum(pauli.render_sum(op), n=state.n)
        chk.check(f"{sid} solved op {k} round trip", back.allclose(op, tol=1e-9))
    return solved


def exact_catalog_pass(inp: dict, chk: Checks) -> None:
    solved = {}
    for sid in eo.STATE_IDS:
        with chk.step(f"eigen-basis {sid}"):
            solved[sid] = _check_state(sid, inp["coeffs"][sid], chk)

    with chk.step("identities"):
        checks = eo.verify_identities()
        chk.check("38 identities", len(checks) == 38, len(checks))
        chk.check("identities ok", all(c.ok for c in checks),
                  [c.name for c in checks if not c.ok])

    for device in inp["devices"]:
        with chk.step(f"device {device}"):
            verdict = ins.device_verdict(device)
            got = (verdict.explainable, verdict.report.count, verdict.certificate)
            chk.check(f"device {device} verdict", got == DEVICE_VERDICTS[device], got)
    for target, count in TAU3_LEVEL_SETS:
        with chk.step(f"tau3 level set {target}"):
            system = ins.InstructionalSystem(3, [ins.Equation(eo.tau3(), target)])
            report = ins.solve(system)
            chk.check(f"tau3 = {target} count", report.count == count, report.count)
            chk.check(f"tau3 = {target} xi products",
                      all(p == -1 for p in report.witness_values["xi_product"]))

    with chk.step("cli eigenops"):
        code, out, err = _run_cli(inp["cli_eigenops"])
        chk.check("cli eigenops exit", code == 0, err.strip())
        doc = json.loads(out)
        chk.check("cli eigenops dimension", doc["dimension"] == SOLVED_DIM["v42~"],
                  doc["dimension"])
        if "v42~" in solved:
            expected = [pauli.render_sum(op) for op in solved["v42~"].operators]
            chk.check("cli eigenops operators", doc["operators"] == expected)
            gammas = solved["v42~"].eigenvalues
            chk.check("cli eigenops eigenvalues", len(doc["eigenvalues"]) == len(gammas)
                      and all(abs(a - b) <= 1e-12
                              for a, b in zip(doc["eigenvalues"], gammas)))
    with chk.step("cli instr"):
        code, out, err = _run_cli(inp["cli_instr"])
        chk.check("cli instr exit", code == 0, err.strip())
        doc = json.loads(out)
        explainable, count, certificate = DEVICE_VERDICTS["v41~"]
        got = (doc["explainable"], doc["count"], doc["certificate"],
               len(doc["solutions"]))
        chk.check("cli instr verdict",
                  got == (explainable, count, certificate, CLI_MAX_SOLUTIONS), got)


# -- landscape ------------------------------------------------------------------


def landscape_inputs(seed: int) -> dict:
    rng = np.random.default_rng(COEFF_SEED + seed)
    settings = {}
    for sid in CONTOUR_STATES:
        settings[sid] = [(_unit_vector(rng), _unit_vector(rng))
                         for _ in range(ORACLE_SETTINGS)]
    return {"settings": settings}


def landscape_pass(inp: dict, chk: Checks) -> None:
    for sid in CONTOUR_STATES:
        with chk.step(f"contour {sid}"):
            grids = {}
            for sign in (1, -1):
                grid = bd.contour(sid, sign, CONTOUR_RES)
                lines = bd.contour_csv_lines(grid)
                chk.check(f"contour csv {sid} {sign}",
                          len(lines) == CONTOUR_RES ** 2 + 1 and lines[0] == "x3,y3,mu"
                          and lines[1].startswith("-1,-1,"), len(lines))
                grids[sign] = grid.values
            mirror = float(np.max(np.abs(grids[-1] - grids[1][:, ::-1])))
            chk.check(f"contour mirror {sid}", mirror <= 1e-12, mirror)
        with chk.step(f"oracle {sid}"):
            state = bd.bound_state(sid)
            for k, (x, y) in enumerate(inp["settings"][sid]):
                closed = bd.restricted_mu(sid, x, y)
                setting = bd.MeasurementSetting.uniform(state.n, x, y)
                dense = bd.expectation(state, setting)
                chk.check(f"oracle {sid} setting {k}", abs(closed - dense) <= 1e-9,
                          (closed, dense))


WORKLOADS = {
    "bound-search": (bound_search_inputs, bound_search_pass, bound_search_warmup),
    "exact-catalog": (exact_catalog_inputs, exact_catalog_pass, exact_catalog_pass),
    "landscape": (landscape_inputs, landscape_pass, landscape_pass),
}


def build_inputs(name: str, seed: int) -> dict:
    return WORKLOADS[name][0](seed)
