"""Command-line entry point: every catalog operation with JSON/CSV output.

Machine-readable output goes to stdout; anything meant for humans goes to
stderr.  Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from importlib import metadata

from . import bounds, eigenops, instructional, states
from .pauli import _parse_coeff, parse_sum, render_sum


def _version() -> str:
    try:
        return metadata.version("merminkit")
    except metadata.PackageNotFoundError:
        return "0.1.0"


def _quantize(obj):
    """Round floats to 15 significant digits so output re-serializes identically."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def emit(payload: dict) -> None:
    json.dump(_quantize(payload), sys.stdout, indent=2)
    sys.stdout.write("\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one stderr line; argparse's exit 2 is reserved."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_coeff_list(text: str | None):
    if text is None:
        return None
    coeffs = []
    for chunk in text.split(","):
        if chunk.strip() in ("", "+", "-"):
            raise ValueError(f"missing coefficient in {text!r}")
        coeff = _parse_coeff(chunk)
        if not cmath.isfinite(coeff):
            raise ValueError(f"coefficient {chunk.strip()!r} is not finite")
        coeffs.append(coeff)
    return coeffs


def _cmd_state(args) -> int:
    state = states.catalog_state(args.id, _parse_coeff_list(args.coeffs))
    emit(state.to_json_dict())
    return 0


def _cmd_eigenops(args) -> int:
    coeffs = _parse_coeff_list(args.coeffs)
    if args.catalog:
        basis = eigenops.catalog_basis(args.state, coeffs)
    else:
        basis = eigenops.eigen_basis(eigenops.catalog_state(args.state, coeffs))
    emit(
        {
            "state": args.state,
            "source": "catalog" if args.catalog else "solved",
            "dimension": len(basis),
            "operators": [render_sum(op) for op in basis.operators],
            "eigenvalues": basis.eigenvalues,
        }
    )
    return 0


def _cmd_identities(args) -> int:
    checks = eigenops.verify_identities()
    all_ok = all(c.ok for c in checks)
    emit(
        {
            "identities": [{"name": c.name, "ok": c.ok} for c in checks],
            "all_ok": all_ok,
        }
    )
    if not all_ok:
        print("identity verification failed", file=sys.stderr)
        return 2
    return 0


def _read_system(path: str) -> instructional.InstructionalSystem:
    """Equations from a JSON list of {expr, target[, poly]} objects."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, list) or not spec:
        raise ValueError("system file must hold a non-empty JSON list of equations")
    equations = []
    for k, entry in enumerate(spec):
        if not (isinstance(entry, dict) and isinstance(entry.get("expr"), str)
                and type(entry.get("target")) is int
                and isinstance(entry.get("poly"), (str, type(None)))):
            raise ValueError(f"equation {k} needs a string 'expr', an integer "
                             "'target' and an optional string 'poly'")
        equations.append(instructional.Equation(
            expr=parse_sum(entry["expr"]), target=entry["target"],
            poly=entry.get("poly"),
        ))
    return instructional.InstructionalSystem(equations[0].expr.n, equations)


def _cmd_instr(args) -> int:
    if args.max_solutions < 0:
        raise ValueError(f"max-solutions must be >= 0, got {args.max_solutions}")
    if args.system_file is not None:
        verdict = instructional.system_verdict(
            args.system_file, _read_system(args.system_file))
    else:
        verdict = instructional.device_verdict(args.device)
    shown = verdict.report.solutions[: args.max_solutions]
    emit(
        {
            "device": verdict.device,
            "explainable": verdict.explainable,
            "count": verdict.report.count,
            "solutions": [
                {"xi": list(a.xi), "eta": list(a.eta)} for a in shown
            ],
            "certificate": verdict.certificate,
        }
    )
    return 0


def _cmd_bounds(args) -> int:
    state = bounds.bound_state(args.state)
    result = bounds.maximize(
        state,
        mode=args.mode,
        seed=args.seed,
        starts=args.starts,
        target=bounds.EXACT_BOUNDS[args.state],
    )
    emit(
        {
            "state": args.state,
            "mode": args.mode,
            "seed": args.seed,
            "value": result.value,
            "target": result.target,
            "gap": result.gap,
            "setting": result.setting.to_json_dict(),
        }
    )
    return 0


def _cmd_contour(args) -> int:
    sign = 1 if args.sign == "+" else -1
    grid = bounds.contour(args.state, sign, args.res)
    lines = bounds.contour_csv_lines(grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    emit(
        {
            "state": args.state,
            "sign": args.sign,
            "resolution": args.res,
            "out": args.out,
            "max_abs_mu": float(abs(grid.values).max()),
        }
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="merminkit", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"merminkit {_version()}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("state", help="print a catalog state as JSON amplitudes")
    p.add_argument("--id", required=True,
                   choices=states.CATALOG_IDS + tuple(states.STATE_ALIASES))
    p.add_argument("--coeffs", help="comma-separated complex pair weights, "
                                    "e.g. '1,2+1i,5'")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("eigenops", help="solve or print a commuting eigenoperator set")
    p.add_argument("--state", required=True, choices=list(eigenops.STATE_IDS))
    p.add_argument("--coeffs")
    p.add_argument("--catalog", action="store_true",
                   help="print the hard-coded set instead of solving")
    p.set_defaults(func=_cmd_eigenops)

    p = sub.add_parser("identities", help="verify the operator identity suite")
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("instr", help="solve an instructional-set system")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--device", choices=instructional.devices())
    group.add_argument("--system-file",
                       help="JSON list of {expr, target[, poly]} equations")
    p.add_argument("--max-solutions", type=int, default=10)
    p.set_defaults(func=_cmd_instr)

    p = sub.add_parser("bounds", help="maximize |mu| over measurement settings")
    p.add_argument("--state", required=True, choices=list(bounds.BOUND_STATE_IDS))
    p.add_argument("--mode", choices=("uniform", "general"), default="general")
    p.add_argument("--seed", type=int, default=bounds.DEFAULT_SEED)
    p.add_argument("--starts", type=int, default=64)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("contour", help="sample a collinear landscape to CSV")
    p.add_argument("--state", required=True, choices=("v31", "v41", "v42"))
    p.add_argument("--sign", required=True, choices=("+", "-"))
    p.add_argument("--res", type=int, default=101)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contour)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"merminkit: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
