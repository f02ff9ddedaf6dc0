"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a merminkit checkout.  Runs every workload in
``BENCHMARK.json`` at minimal length, untraced and traced, and fails (exit
code 1) unless each run exits 0, prints every metric that ``BENCHMARK.json``
names for its mode with a numeric value and a unit, and has no failed check.
A minimal bound-search run still makes one full pass (two when traced), so
the whole script takes a few minutes.
"""

import json
import subprocess
import sys


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                                     "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            missing = [m for m in expected[trace] if m not in metrics]
            bad = [m for m in expected[trace] if m in metrics and not (
                isinstance(metrics[m]["value"], (int, float)) and metrics[m]["unit"])]
            if missing or bad:
                problems.append(f"{where}: missing {missing}, malformed {bad}")
            if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                                f"checks failed: {proc.stderr.strip()}")
            print(f"{where}: {len(metrics)} metrics, "
                  f"{result['failed']}/{result['attempted']} checks failed", flush=True)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
