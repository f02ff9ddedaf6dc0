"""In-memory spans around merminkit's public functions, and per-layer metrics.

The tracer never edits the package: while a traced pass runs it replaces the
public functions listed in ``TRACED`` with wrappers, in every merminkit module
that binds them (so ``cli.main`` calling ``eigenops.eigen_basis`` is traced as
well), and puts the originals back afterwards.  Inner helpers that run in hot
loops (``collinear_mu`` inside ``contour``, the optimizer's objective) are not
wrapped, because a span per call would cost more than the call.

A span is ``[name, label, start, end, parent, pass_id, value]``.  ``label``
names the input class (state family, mode, device) and ``value`` carries a
count taken from the result (basis dimension, assignments, gap).
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import sys
import time

import numpy as np

from merminkit import bounds, cli, eigenops, instructional, pauli, states

NAME, LABEL, START, END, PARENT, PASS, VALUE = range(7)


def state_family(v) -> str:
    """u<n> for GHZ support, v<n><m> for weight-m (and n-m) support."""
    weights = {bin(int(i)).count("1") for i in np.flatnonzero(v.amps)}
    if weights <= {0, v.n}:
        return f"u{v.n}"
    return f"v{v.n}{min(weights)}"


def _state_arg(args, kwargs):
    return args[0] if args else kwargs["v"]


def _basis_label(args, kwargs):
    family = state_family(_state_arg(args, kwargs))
    return family if family.startswith("u") else family + "sym"


def _maximize_label(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "general")
    return f"{state_family(_state_arg(args, kwargs))}.{mode}"


@functools.lru_cache(maxsize=1)
def _device_names():
    return {id(instructional.device_system(d)): d.replace("~", "sym")
            for d in instructional.devices()}


def _system_label(args, kwargs):
    system = args[0] if args else kwargs["system"]
    return _device_names().get(id(system), "custom")


def _solve_counts(result, args, kwargs):
    system = args[0] if args else kwargs["system"]
    return (4 ** system.n, result.count)


# (span name, owner, attribute, labeler, value taken from the result)
TRACED = (
    ("states.build", states, "ghz", None, None),
    ("states.build", states, "dicke", None, None),
    ("states.build", states, "sym_dicke", None, None),
    ("pauli.apply", pauli.PauliSum, "apply", None, None),
    ("pauli.commutes", pauli.PauliSum, "commutes", None, None),
    ("pauli.roundtrip", pauli, "render_sum", None, None),
    ("pauli.roundtrip", pauli, "parse_sum", None, None),
    ("eigenops.eigen_basis", eigenops, "eigen_basis", _basis_label,
     lambda r, a, k: len(r)),
    ("eigenops.catalog_basis", eigenops, "catalog_basis", None, None),
    ("eigenops.in_span", eigenops, "in_span", None, None),
    ("eigenops.verify_identities", eigenops, "verify_identities", None, None),
    ("instructional.device_verdict", instructional, "device_verdict", None, None),
    ("instructional.solve", instructional, "solve", _system_label, _solve_counts),
    ("instructional.certificate", instructional, "parity_certificate", None, None),
    ("bounds.maximize", bounds, "maximize", _maximize_label,
     lambda r, a, k: r.gap),
    ("bounds.expectation", bounds, "expectation", None, None),
    ("bounds.restricted_mu", bounds, "restricted_mu", None, None),
    ("bounds.contour", bounds, "contour", None, None),
    ("bounds.contour_csv", bounds, "contour_csv_lines", None, None),
    ("cli.main", cli, "main", None, None),
)

LAYERS = ("states", "pauli", "eigenops", "instructional", "bounds", "cli", "bench")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = -1
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, labeler, valuer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = labeler(args, kwargs) if labeler else None
            idx = len(spans)
            span = [name, label, 0.0, 0.0, stack[-1] if stack else -1,
                    self.pass_id, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if valuer:
                span[VALUE] = valuer(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "merminkit" or n.startswith("merminkit.")]
        for name, owner, attr, labeler, valuer in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, labeler, valuer)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def run_pass(self, pass_id: int, fn, *args) -> float:
        """Run one pass inside a root span; returns its wall seconds."""
        self.pass_id = pass_id
        idx = len(self.spans)
        self._wrap("bench.pass", fn, None, None)(*args)
        return self.spans[idx][END] - self.spans[idx][START]

    def dump(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "label": s[LABEL],
                    "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "pass": s[PASS], "value": s[VALUE],
                }) + "\n")


# per-layer metric -> (span name, label or None for every label, unit scale)
TIMED = {
    "states.build_us": ("states.build", None, 1e6),
    "pauli.apply_ms": ("pauli.apply", None, 1e3),
    "pauli.commutes_ms": ("pauli.commutes", None, 1e3),
    "pauli.roundtrip_ms": ("pauli.roundtrip", None, 1e3),
    "eigenops.in_span_ms": ("eigenops.in_span", None, 1e3),
    "eigenops.verify_identities_ms": ("eigenops.verify_identities", None, 1e3),
    "instructional.solve_ms": ("instructional.solve", None, 1e3),
    "instructional.solve_ms.v41sym": ("instructional.solve", "v41sym", 1e3),
    "instructional.certificate_ms": ("instructional.certificate", None, 1e3),
    "bounds.contour_ms": ("bounds.contour", None, 1e3),
    "bounds.contour_csv_ms": ("bounds.contour_csv", None, 1e3),
    "bounds.expectation_ms": ("bounds.expectation", None, 1e3),
    "bounds.restricted_mu_us": ("bounds.restricted_mu", None, 1e6),
    "cli.main_ms": ("cli.main", None, 1e3),
    **{f"eigenops.eigen_basis_ms.{f}": ("eigenops.eigen_basis", f, 1e3)
       for f in ("u3", "v31sym", "u4", "v41sym", "v42sym")},
    **{f"bounds.maximize_s.{s}.{m}": ("bounds.maximize", f"{s}.{m}", 1.0)
       for s in ("u3", "u4", "v31", "v41", "v42") for m in ("general", "uniform")},
}
# exact counts per pass, which repeat exactly for a given program and seed
COUNTS = {
    "basis_dim": "eigenops.basis_dim",
    "assignments": "instructional.assignments",
    "solutions": "instructional.solutions",
    "spans": "trace.spans",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-pass figures, each the median over the traced passes.

    Function metrics are the inclusive time per pass spent in that function's
    calls; ``<layer>.self_ms`` is the time per pass spent in the layer's own
    code, with the time of the traced calls it made taken out.  ``bench`` is
    the benchmark's own checking code.
    """
    per_pass = collections.defaultdict(collections.Counter)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    for idx, s in enumerate(spans):
        acc = per_pass[s[PASS]]
        dur = s[END] - s[START]
        acc[s[NAME].split(".")[0] + ".self"] += dur - child_time[idx]
        acc[s[NAME], None] += dur
        if s[LABEL] is not None:
            acc[s[NAME], s[LABEL]] += dur
        acc["spans"] += 1
        if s[NAME] == "eigenops.eigen_basis":
            acc["basis_dim"] += s[VALUE]
        elif s[NAME] == "instructional.solve":
            acc["assignments"] += s[VALUE][0]
            acc["solutions"] += s[VALUE][1]

    def median(key, scale=1.0):
        return statistics.median(acc[key] for acc in per_pass.values()) * scale

    out = {metric: median((name, label), scale)
           for metric, (name, label, scale) in TIMED.items()}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = median(f"{layer}.self", 1e3)
    gaps = [s[VALUE] for s in spans
            if s[NAME] == "bounds.maximize" and s[VALUE] is not None]
    out["bounds.gap_max"] = max(gaps) if gaps else 0.0
    for count in ("basis_dim", "assignments", "solutions", "spans"):
        out[COUNTS[count]] = median(count)
    return out
