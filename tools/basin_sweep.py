"""Per-seed counters of the ten acceptance ``maximize`` calls, as JSON.

    python3 tools/basin_sweep.py --out new.json
    python3 tools/basin_sweep.py --out new.json --compare old.json

merminkit is imported from ``src/`` of the checkout that holds this script.
Each call (the five states of ``bounds.BOUND_STATE_IDS`` in both modes, 64
starts, the exact bound as target) runs at every maximize seed DEFAULT_SEED +
0..40, and its sweeps, newton_steps, basin_hits and gap are written out,
with per-call sums and the largest gap as a summary.  ``--compare`` also lists
every (call, seed) whose basin_hits or gap differs from the older file, then
each call's summed sweeps and basin_hits and largest gap on both sides.  Only
the stdlib and merminkit are used; this is a tool, not a test.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from merminkit import bounds  # noqa: E402

FIELDS = ("sweeps", "newton_steps", "basin_hits", "gap")
MODES = ("general", "uniform")
SEEDS = 41  # maximize seed offsets 0..40


def sweep() -> dict:
    """Counters per call name ("v31 general") and seed offset."""
    calls = {}
    for sid in bounds.BOUND_STATE_IDS:
        state = bounds.bound_state(sid)
        for mode in MODES:
            rows = []
            for offset in range(SEEDS):
                r = bounds.maximize(state, mode=mode, seed=bounds.DEFAULT_SEED + offset,
                                    target=bounds.EXACT_BOUNDS[sid])
                rows.append({"seed": offset, **{f: getattr(r, f) for f in FIELDS}})
            calls[f"{sid} {mode}"] = rows
    return calls


def summary(calls: dict) -> dict:
    """Summed sweeps, newton_steps and basin_hits and the largest gap, per call."""
    out = {name: {"sweeps": sum(r["sweeps"] for r in rows),
                  "newton_steps": sum(r["newton_steps"] for r in rows),
                  "basin_hits": sum(r["basin_hits"] for r in rows),
                  "gap_max": max(r["gap"] for r in rows)}
           for name, rows in calls.items()}
    out["all"] = {key: (max if key == "gap_max" else sum)(s[key] for s in out.values())
                  for key in ("sweeps", "newton_steps", "basin_hits", "gap_max")}
    return out


def compare(old: dict, new: dict) -> list[str]:
    """One line per (call, seed) whose basin_hits or gap changed, then the totals."""
    lines = []
    for name, rows in new["calls"].items():
        before = {r["seed"]: r for r in old["calls"].get(name, [])}
        for r in rows:
            b = before.get(r["seed"])
            if b is None:
                lines.append(f"{name} +{r['seed']}: not in the older file")
            elif b["basin_hits"] != r["basin_hits"] or b["gap"] != r["gap"]:
                lines.append(f"{name} +{r['seed']}: basin_hits {b['basin_hits']} -> "
                             f"{r['basin_hits']}, gap {b['gap']:.3g} -> {r['gap']:.3g}")
    for name, s in new["summary"].items():
        b = old["summary"].get(name, {})
        lines.append(f"{name}: sweeps {b.get('sweeps')} -> {s['sweeps']}, basin_hits "
                     f"{b.get('basin_hits')} -> {s['basin_hits']}, gap_max "
                     f"{b.get('gap_max', float('nan')):.3g} -> {s['gap_max']:.3g}")
    return lines


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the JSON here instead of stdout")
    p.add_argument("--compare", metavar="OLD.json", help="list changes from OLD.json")
    args = p.parse_args()
    calls = sweep()
    result = {"seeds": SEEDS, "summary": summary(calls), "calls": calls}
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        print("\n".join(compare(old, result)), file=sys.stderr if not args.out else sys.stdout)


if __name__ == "__main__":
    main()
