"""Calling the program with a generated point, and checking what came back.

``call`` is the only place the benchmark hands inputs to the package: it
passes the point's generated arguments through unchanged (a Morse point's
four numbers become the package's own ``MorseConfig``).  ``outcomes`` turns a
result into one row per evaluated point (a grid yields one per CSV row) and
``check`` compares each row against its independent reference at the
tolerance ``harness.TOLERANCES`` gives the matching identity.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional

import reference as ref
from workloads import Point, grid_nodes

# Conventions the calibration must select (README "Calibrated conventions").
EXPECTED_CALIBRATION = {
    "mapping_id": ("C", "mapping_C"),
    "whittaker_index_convention": ("order_imu", "whittaker_order_imu"),
    "morse_wave_variant": ("primary", "wave_primary"),
}


def call(hm, point: Point, grid_path: Optional[str] = None):
    """Evaluate one point with package ``hm``; returns the raw result."""
    op, a = point.op, point.args
    if op == "harness.eval_kernel":
        return hm.harness.eval_kernel(a[0], dict(a[1]))
    if op == "harness.grid_eval":
        return hm.harness.grid_eval(a[0], dict(a[1]), dict(a[2]), grid_path)
    if op == "harness.calibrate_spectral_mapping":
        return hm.harness.calibrate_spectral_mapping()
    if op.startswith("specfun."):
        return getattr(hm.specfun, op.split(".", 1)[1])(*a)
    if op.startswith("mkernels."):
        lam, k, X, Xp, last = a
        cfg = hm.mkernels.MorseConfig(lam=lam, k=k, X=X, Xp=Xp)
        return getattr(hm.mkernels, op.split(".", 1)[1])(cfg, last)
    raise ValueError(f"unknown op {op!r}")


@dataclass
class Outcome:
    """One evaluated point: the parameters its reference needs, the value
    (or calibration record), the convergence flag and any error raised."""

    point: Point
    params: object
    value: object
    converged: bool
    error: str = ""


def _read_grid(point: Point, path: str) -> List[Outcome]:
    kernel, params, grid = point.args
    axes = list(grid)
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            p = dict(params)
            for name in axes:
                v = float(row[name])
                if "." in name:
                    key, comp = name.split(".")
                    x, y = p[key]
                    p[key] = (v, y) if comp == "x" else (x, v)
                else:
                    p[name] = v
            if row["error"]:
                out.append(Outcome(point, p, None, False, row["error"]))
            else:
                out.append(Outcome(point, p, complex(float(row["re"]), float(row["im"])),
                                   row["converged"] == "True"))
    return out


def outcomes(point: Point, result, error: str = "",
             grid_path: Optional[str] = None) -> List[Outcome]:
    if point.op == "harness.grid_eval":
        if error:
            return [Outcome(point, p, None, False, error)
                    for p in grid_nodes(point.args[1], point.args[2])]
        return _read_grid(point, grid_path)
    params = point.args[1] if point.op == "harness.eval_kernel" else point.args
    if error:
        return [Outcome(point, params, None, False, error)]
    if hasattr(result, "converged"):
        return [Outcome(point, params, complex(result.value), bool(result.converged))]
    if point.op == "harness.calibrate_spectral_mapping":
        return [Outcome(point, params, result, True)]
    return [Outcome(point, params, complex(result), True)]


def _reference(o: Outcome):
    """(reference value, error scale) for one outcome."""
    op, p = o.point.op, o.params
    if op in ("harness.eval_kernel", "harness.grid_eval"):
        kernel = o.point.args[0]
        if kernel == "hres":
            return ref.hres(p["k"], p["mu"], p["z"], p["zp"]), 0.0
        if kernel == "hwave":
            return ref.hwave(p["k"], p["b"], p["z"], p["zp"]), 0.0
        if kernel == "hheat":
            return ref.hheat(p["t"], p["k"], p["z"], p["zp"]), 0.0
        if kernel == "mres":
            return ref.mres(p["lam"], p["k"], p["mu"], p["X"], p["Xp"]), 0.0
        if kernel == "mwave":
            args = (p["lam"], p["k"], p["b"], p["X"], p["Xp"])
            return ref.mwave(*args), ref.mwave_scale(*args)
    if op.startswith("specfun."):
        return ref.specfun(op, p), ref.specfun_scale(op, p)
    if op == "mkernels.resolvent_integral":
        lam, k, X, Xp, mu = p
        return ref.mres(lam, k, mu, X, Xp), 0.0
    raise ValueError(f"no reference for {o.point.kind}")


def _check_calibration(record, tol: float) -> float:
    """Largest residual of the expected winners; inf if a winner differs."""
    worst = 0.0
    for field, (winner, residual_key) in EXPECTED_CALIBRATION.items():
        if getattr(record, field) != winner:
            return math.inf
        worst = max(worst, float(record.residuals[residual_key]))
    return worst if worst <= tol else math.inf


def check(outcomes_: List[Outcome], tolerances: dict):
    """Yield (outcome, status, rel_err) for each outcome; status is "ok",
    "raised", "unconverged" (the value meets its reference but the program
    flagged converged=False) or "missed".  rel_err is None for the
    calibration record and inf for a raised point.  A heat-kernel point and
    its Hartman-Watson oracle point (same arguments) are each other's
    reference."""
    partner = {}
    for o in outcomes_:
        if o.point.op in _HEAT_PAIR:
            partner.setdefault(o.point.args, {})[o.point.op] = o
    for o in outcomes_:
        if o.error:
            yield o, "raised", math.inf
            continue
        tol = tolerances[o.point.check]
        if o.point.op == "harness.calibrate_spectral_mapping":
            ok = math.isfinite(_check_calibration(o.value, tol))
            yield o, "ok" if ok else "missed", None
            continue
        if o.point.op in _HEAT_PAIR:
            other = partner[o.point.args].get(_HEAT_PAIR[o.point.op])
            if other is None or other.error:
                yield o, "missed", math.inf
                continue
            err = ref.rel_err(o.value, other.value)
        else:
            r, scale = _reference(o)
            err = ref.rel_err(o.value, r, scale)
        yield o, ("missed" if not err <= tol else "ok" if o.converged else "unconverged"), err


_HEAT_PAIR = {"mkernels.heat_kernel": "mkernels.hartman_watson_heat_oracle",
              "mkernels.hartman_watson_heat_oracle": "mkernels.heat_kernel"}
