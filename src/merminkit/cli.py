"""Command-line entry point: every catalog operation with JSON/CSV output.

Machine-readable output goes to stdout; anything meant for humans goes to
stderr.  Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys

from . import bounds, eigenops, instructional, states
from .pauli import _parse_coeff, parse_sum, render_sum


class _VersionAction(argparse.Action):
    """``--version``, with the version looked up only when the flag is given."""

    def __call__(self, parser, namespace, values, option_string=None):
        from importlib import metadata  # only --version pays for this import
        try:
            version = metadata.version("merminkit")
        except metadata.PackageNotFoundError:
            version = "0.1.0"
        print(f"merminkit {version}")
        parser.exit()


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
    sys.stdout.flush()  # so that a closed stdout raises here, not at shutdown


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one stderr line; argparse's exit 2 is reserved."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_coeff_list(text: str | None):
    if text is None:
        return None
    coeffs = []
    for chunk in text.split(","):
        coeff = _parse_coeff(chunk)
        if not cmath.isfinite(coeff):
            raise ValueError(f"coefficient {chunk.strip()!r} is not finite")
        coeffs.append(coeff)
    return coeffs


def _cmd_state(args) -> dict:
    return states.catalog_state(args.id, _parse_coeff_list(args.coeffs)).to_json_dict()


def _cmd_eigenops(args) -> dict:
    coeffs = _parse_coeff_list(args.coeffs)
    if args.catalog:
        basis = eigenops.catalog_basis(args.state, coeffs)
    else:
        basis = eigenops.eigen_basis(states.catalog_state(args.state, coeffs))
    return {
        "state": args.state,
        "source": "catalog" if args.catalog else "solved",
        "dimension": len(basis),
        "operators": [render_sum(op) for op in basis.operators],
        "eigenvalues": basis.eigenvalues,
    }


def _cmd_identities(args) -> dict:
    checks = eigenops.verify_identities()
    return {
        "identities": [{"name": c.name, "ok": c.ok} for c in checks],
        "all_ok": all(c.ok for c in checks),
    }


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


def _cmd_instr(args) -> dict:
    if args.max_solutions < 0:
        raise ValueError(f"max-solutions must be >= 0, got {args.max_solutions}")
    if args.system_file is not None:
        verdict = instructional.system_verdict(
            args.system_file, _read_system(args.system_file))
    else:
        verdict = instructional.device_verdict(args.device)
    report = verdict.report
    shown = [instructional.Assignment.from_index(i, report.n)
             for i in report.indices[: args.max_solutions].tolist()]
    return {
        "device": verdict.device,
        "explainable": verdict.explainable,
        "count": report.count,
        "solutions": [{"xi": list(a.xi), "eta": list(a.eta)} for a in shown],
        "certificate": verdict.certificate,
    }


def _cmd_bounds(args) -> dict:
    state = states.catalog_state(args.state)
    result = bounds.maximize(
        state,
        mode=args.mode,
        seed=args.seed,
        starts=args.starts,
        target=bounds.EXACT_BOUNDS[args.state],
    )
    return {
        "state": args.state,
        "mode": args.mode,
        "seed": args.seed,
        "value": result.value,
        "target": result.target,
        "gap": result.gap,
        "setting": result.setting.to_json_dict(),
    }


def _cmd_contour(args) -> dict:
    sign = 1 if args.sign == "+" else -1
    grid = bounds.contour(args.state, sign, args.res)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(bounds.contour_csv_rows(grid))
    return {
        "state": args.state,
        "sign": args.sign,
        "resolution": args.res,
        "out": args.out,
        "max_abs_mu": float(abs(grid.values).max()),
    }


@functools.cache  # one parser per process; each parse_args fills a fresh namespace
def build_parser() -> _Parser:
    parser = _Parser(prog="merminkit", description=__doc__)
    parser.add_argument("--version", action=_VersionAction, nargs=0,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("state", help="print a catalog state as JSON amplitudes")
    p.add_argument("--id", required=True,
                   choices=states.CATALOG_IDS + tuple(states.STATE_ALIASES))
    p.add_argument("--coeffs", help="comma-separated complex pair weights, "
                                    "e.g. '1,2+1i,5'")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("eigenops", help="solve or print a commuting eigenoperator set")
    p.add_argument("--state", required=True, choices=eigenops.STATE_IDS)
    p.add_argument("--coeffs")
    p.add_argument("--catalog", action="store_true",
                   help="print the hard-coded set instead of solving")
    p.set_defaults(func=_cmd_eigenops)

    p = sub.add_parser("identities", help="verify the operator identity suite")
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("instr", help="solve an instructional-set system")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--device", help="a built-in device; an unknown name is "
                                        "refused with the list of known devices")
    group.add_argument("--system-file",
                       help="JSON list of {expr, target[, poly]} equations")
    p.add_argument("--max-solutions", type=int, default=10)
    p.set_defaults(func=_cmd_instr)

    p = sub.add_parser("bounds", help="maximize |mu| over measurement settings")
    p.add_argument("--state", required=True, choices=bounds.BOUND_STATE_IDS)
    p.add_argument("--mode", choices=bounds.MODES, default="general")
    p.add_argument("--seed", type=int, default=bounds.DEFAULT_SEED)
    p.add_argument("--starts", type=int, default=64)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("contour", help="sample a collinear landscape to CSV")
    p.add_argument("--state", required=True, choices=bounds.CLOSED_FORM_IDS)
    p.add_argument("--sign", required=True, choices=("+", "-"))
    p.add_argument("--res", type=int, default=101)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contour)

    return parser


def main(argv=None) -> int:
    """Parse argv, run its handler, emit the payload; return the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.func(args)
        emit(payload)
    except BrokenPipeError:  # the reader left: end quietly, and flush to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"merminkit: error: {exc}", file=sys.stderr)
        return 1
    if payload.get("all_ok") is False:  # only identities reports all_ok
        print("identity verification failed", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
