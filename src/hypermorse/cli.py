"""Command-line interface.

Subcommands:
  eval       evaluate one kernel at one parameter point
  verify     run an identity suite and write a JSON report
  calibrate  run convention calibration and write the record
  grid       sweep a kernel over a grid and write a CSV table

Exit codes: 0 all pass, 1 identity failure, 2 usage or configuration error,
3 calibration failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import CalibrationAmbiguous, HypermorseError, InvalidGrid


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_complex_pair(text: str) -> complex:
    re, im = _parse_pair(text)
    return complex(re, im)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermorse",
        description="Kernels of the hyperbolic magnetic and Morse-potential "
                    "Schrodinger operators, with identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one kernel at one point")
    p_eval.add_argument("--kernel", required=True, choices=harness.KERNEL_IDS)
    p_eval.add_argument("--k", type=float, default=0.0, help="magnetic/coupling constant")
    p_eval.add_argument("--mu", type=_parse_complex_pair, metavar="RE,IM",
                        help="spectral parameter")
    p_eval.add_argument("--lambda", dest="lam", type=float, help="Morse coupling > 0")
    p_eval.add_argument("--z", type=_parse_pair, metavar="X,Y", help="half-plane point")
    p_eval.add_argument("--zp", type=_parse_pair, metavar="X,Y", help="half-plane point")
    p_eval.add_argument("--X", type=float, help="Morse position")
    p_eval.add_argument("--Xp", type=float, help="Morse position")
    p_eval.add_argument("--t", type=float, help="heat time > 0")
    p_eval.add_argument("--b", type=float, help="wave-kernel variable")

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("--suite", required=True,
                          choices=sorted(harness.SUITES) + ["all"])
    p_verify.add_argument("--tol-file", help="JSON file of per-identity tolerance overrides")
    p_verify.add_argument("--report", required=True, help="output JSON report path")

    p_cal = sub.add_parser("calibrate", help="run convention calibration")
    p_cal.add_argument("--out", required=True, help="output JSON record path")

    p_grid = sub.add_parser("grid", help="evaluate a kernel over a grid")
    p_grid.add_argument("--kernel", required=True, choices=harness.KERNEL_IDS)
    p_grid.add_argument("--spec", required=True,
                        help="key=value spec file; ranged axes use lo:hi:count")
    p_grid.add_argument("--out", required=True, help="output CSV path")
    return parser


def _cmd_eval(args) -> int:
    # eval_kernel names a parameter the kernel needs and the command line left out
    params = {name: value for name, value in vars(args).items()
              if value is not None and name not in ("command", "kernel")}
    try:
        res = harness.eval_kernel(args.kernel, params)
    except (HypermorseError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    v = complex(res.value)
    print(f"value_re = {v.real:.17g}")
    print(f"value_im = {v.imag:.17g}")
    print(f"err_estimate = {res.err_estimate:.3g}")
    print(f"n_evals = {res.n_evals}")
    print(f"converged = {res.converged}")
    return 0


def _cmd_verify(args) -> int:
    overrides = None
    if args.tol_file:
        try:
            with open(args.tol_file) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read tolerance file: {exc}", file=sys.stderr)
            return 2
    try:
        record, reports = harness.run_suite(args.suite, overrides)
    except CalibrationAmbiguous as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {
        "suite": args.suite,
        "calibration": record.to_dict() if record else None,
        "reports": [r.to_dict() for r in reports],
    }
    with open(args.report, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.identity_id}: max_rel_err={r.max_rel_err:.3e} "
              f"(tol {r.tolerance:g}, {r.runtime_ms:.0f} ms)")
        if not r.passed:
            print(f"     worst point: {r.worst_point}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_calibrate(args) -> int:
    try:
        record = harness.calibrate_spectral_mapping(args.out)
    except CalibrationAmbiguous as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return 3
    print(record.to_json())
    return 0


def _parse_grid_spec(path: str):
    """key=value lines; ranged axes written lo:hi:count become grid axes."""
    params: dict = {}
    grid: dict = {}
    kernel = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidGrid(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "lambda":
                key = "lam"
            if key == "kernel":
                kernel = value
                continue
            try:
                if ":" in value:
                    pieces = value.split(":")
                    if len(pieces) != 3:
                        raise InvalidGrid(f"{path}:{lineno}: ranged axis needs lo:hi:count")
                    grid[key] = (float(pieces[0]), float(pieces[1]), int(pieces[2]))
                elif "," in value:
                    a, b = value.split(",", 1)
                    params[key] = (float(a), float(b))
                else:
                    params[key] = float(value)
            except ValueError as exc:
                raise InvalidGrid(f"{path}:{lineno}: {key} = {value!r} is not a number") from exc
    return kernel, params, grid


def _cmd_grid(args) -> int:
    try:
        kernel_from_file, params, grid = _parse_grid_spec(args.spec)
        if kernel_from_file not in (None, args.kernel):
            raise InvalidGrid(f"{args.spec} is a {kernel_from_file} spec, not {args.kernel}")
        n = harness.grid_eval(args.kernel, params, grid, args.out)
    except (InvalidGrid, OSError) as exc:
        print(f"grid error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {n} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"eval": _cmd_eval, "verify": _cmd_verify, "calibrate": _cmd_calibrate,
                "grid": _cmd_grid}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
