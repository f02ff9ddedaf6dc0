"""Run one merminkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bound-search --seed 0 --seconds 30 --trace 0

Run it from the root of a merminkit checkout; the package is imported from
``src/`` there.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off and each pass
timed against the host-speed reference of reference.py; with
``--trace 1`` they are the per-layer ones from a traced run.  Spans and the
full run record go to ``.perfbench/`` in the checkout.  See README.md here.
"""

import os
import sys

# One process generates the load; pin its BLAS pool before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("bound-search", "exact-catalog", "landscape")
SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 120
CHILD_CODE = ("import sys, merminkit.cli, workloads; "
              "workloads.build_inputs(sys.argv[1], int(sys.argv[2]))")
IMPORT_GROUPS = ("merminkit", "scipy", "numpy")


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_times_ms(stderr: str) -> dict:
    """Cumulative -X importtime per group, counting only outermost modules."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cum)))
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    stack = []  # (depth, groups on the path from the root); rows are post-order
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        above = stack[-1][1] if stack else frozenset()
        mine = {g for g in IMPORT_GROUPS if name == g or name.startswith(g + ".")}
        for group in mine - above:
            totals[group] += cum / 1e3
        stack.append((depth, above | mine))
    return totals


def measure_setup(workload: str, seed: int, importtime: bool):
    """Median wall time of fresh interpreters that import and build inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", CHILD_CODE, workload, str(seed)]
    walls, imports = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            fail(f"set-up interpreter exited {proc.returncode}: {tail[0]}")
        if importtime:
            imports.append(import_times_ms(proc.stderr))
    medians = {g: statistics.median(d[g] for d in imports) for g in IMPORT_GROUPS
               } if importtime else {}
    return statistics.median(walls), medians


def timed_loop(seconds: float, run_once) -> list:
    """Run until the next run would end past ``seconds``; at least once."""
    samples = []
    t0 = time.perf_counter()
    while True:
        samples.append(run_once())
        if time.perf_counter() - t0 + statistics.median(samples) > seconds:
            return samples


def tail_percentile(samples):
    """Highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p * n / 100)  # nearest rank
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def unit_of(name: str) -> str:
    for part in name.split("."):
        for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                             ("_mb", "MB"), ("_ref", "ref")):
            if part.endswith(suffix):
                return unit
    return "abs" if name == "bounds.gap_max" else "count"


def main() -> None:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "merminkit", "__init__.py")):
        fail(f"no merminkit sources under {SRC}; run from a merminkit checkout")
    sys.path[:0] = [SRC, HERE]

    import numpy
    import scipy

    import merminkit
    import reference
    import workloads

    if not os.path.abspath(merminkit.__file__).startswith(SRC + os.sep):
        fail(f"merminkit imported from {merminkit.__file__}, not from {SRC}")

    make_inputs, run_pass, warm_up = workloads.WORKLOADS[args.workload]
    conditions = {
        "workload": args.workload,
        "seed": args.seed,
        "maximize_seed": workloads.maximize_seed(args.seed),
        "coeff_seed": workloads.COEFF_SEED + args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, one process, passes back to back",
        "reference": None if args.trace else {
            "period_s": reference.PERIOD_S, "block_share": reference.BLOCK_SHARE,
            "min_block_s": reference.MIN_BLOCK_S},
    }

    setup_s, import_ms = measure_setup(args.workload, args.seed, bool(args.trace))
    inputs = make_inputs(args.seed)
    checks = workloads.Checks()
    warm_up(inputs, workloads.Checks())  # lazy set-up, neither timed nor checked

    def untraced():
        t0 = time.perf_counter()
        run_pass(inputs, checks)
        return time.perf_counter() - t0

    os.makedirs(OUT_DIR, exist_ok=True)
    t_start = time.perf_counter()
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        plain, traced = [], []

        def pair():
            plain.append(untraced())
            tr.install()
            try:
                traced.append(tr.run_pass(len(traced), run_pass, inputs, checks))
            finally:
                tr.uninstall()
            return plain[-1] + traced[-1]

        timed_loop(args.seconds, pair)
        samples = traced
        metrics = tracer.layer_metrics(tr.spans)
        for group in IMPORT_GROUPS:
            metrics[f"setup.import_ms.{group}"] = import_ms[group]
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.untraced_pass_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics[
            "trace.untraced_pass_s"]
        tr.dump(os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"), t_start)
    else:
        samples = []

        def against_reference():
            t0 = time.perf_counter()
            clock.start()
            run_pass(inputs, checks)
            clock.stop()
            samples.append(clock.wall)
            return time.perf_counter() - t0

        with reference.RefClock(reference.Reference()) as clock:
            timed_loop(args.seconds, against_reference)
        kernel_s = clock.kernel_s()
        metrics = {
            "setup_s": setup_s,
            "pass_ref": statistics.fmean(samples) / kernel_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    p, tail = tail_percentile(samples)
    fail_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    summary = {
        **conditions,
        "passes": len(samples),
        "pass_s_median": statistics.median(samples),
        "pass_s_tail": None if p is None else {"percentile": p, "value": tail},
        "fail_rate": fail_rate,
        "misses": checks.misses,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**summary, "pass_samples_s": samples,
                   "kernel_s": None if args.trace else kernel_s,
                   "metrics": metrics}, fh, indent=1)
    for miss in checks.misses:
        print(f"perfbench: check failed: {miss}", file=sys.stderr)
    tail_text = "n/a (fewer than 20 passes)" if p is None else f"p{p:g} {tail:.6g} s"
    print(f"# {args.workload} seed={args.seed} passes={len(samples)} "
          f"pass_s median={summary['pass_s_median']:.6g} s tail={tail_text} "
          f"fail_rate={fail_rate:.6g} ({checks.failed}/{checks.attempted})")
    print("# conditions " + json.dumps(conditions))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
