#!/usr/bin/env python3
"""Per-point cost of the point kinds of the `transverse`, `grid_sweep` and
`closed_random` benchmark rounds.

For the calibration, the Morse resolvent integral (the `transverse` round's
20 strata), the Morse heat kernel and its Hartman-Watson oracle (its two heat
points), and for every node of the `hheat` and `mwave` grids of the first
`grid_sweep` round at seeds 1 and 2 (all read from perfbench/workloads.py) it
prints, as one JSON object, the best-of-N in-process wall time of each point
in ms and its n_evals, the machine-independent count.  The calibration's
n_evals is the sum over the transmutation integrals it computes.  Each grid
of those rounds is also timed as one `harness.grid_eval` call writing into a
temporary directory ("grid_eval": kernel, best ms and rows per grid).

"closed_random" holds, for each point kind of the first CLOSED_ROUNDS
`closed_random` rounds at seeds 1 and 2 (`hwave.int`, `mres`,
`specfun.gauss_2f1.pfaff`, ...), the number of points and the median, mean
and maximum of each point's best-of-N in-process wall time in microseconds;
the maximum names the kinds that set `closed_random`'s tail.

"gauss_2f1" holds the traffic of specfun.gauss_2f1, the calls made from
outside it (a Pfaff step's inner call is not counted), for one `transverse`
round (its seed only shuffles the order) and the first `closed_random` and
`grid_sweep` rounds at seeds 1 and 2, each point run once as the benchmark
runs it: per round, the scalar and the array calls, the array entries, and
how many scalar arguments and array entries each region takes (direct, log,
pfaff, zero for z = 0, raised where none is reliable).  A change to the
region policy can cite its traffic from here.

Run from the repository root:

    python3 scripts/bench_points.py

Wall times depend on the machine and its load; compare runs taken on the
same machine, one after the other.
"""
import itertools
import json
import math
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hypermorse  # noqa: E402
from checks import call  # noqa: E402  the benchmark's call of a point
from hypermorse import harness, mkernels, specfun  # noqa: E402
from hypermorse.errors import HypermorseError  # noqa: E402
from hypermorse.mkernels import MorseConfig  # noqa: E402
from workloads import HEAT_STRATA, RES_STRATA, grid_nodes, rounds  # noqa: E402  the rounds' points

REPEATS = 5  # calls per point; the best counts
SEEDS = (1, 2)  # of the grid_sweep and closed_random rounds
CLOSED_ROUNDS = 100  # closed_random rounds per seed


def best_of(fn):
    """(best wall time in ms, last result) over REPEATS calls of fn."""
    best, out = math.inf, None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


def calibration_evals() -> int:
    """n_evals summed over the calibration's transmutation integrals."""
    total = 0
    real = {name: getattr(harness, name) for name in ("hyp_resolvent_integral", "morse_resolvent_integral")}

    def counted(fn):
        def wrapper(*args, **kwargs):
            nonlocal total
            res = fn(*args, **kwargs)
            total += res.n_evals
            return res
        return wrapper

    try:
        for name, fn in real.items():
            setattr(harness, name, counted(fn))
        harness.calibrate_spectral_mapping()
    finally:
        for name, fn in real.items():
            setattr(harness, name, fn)
    return total


def gauss_2f1_traffic(points, grid_path: str) -> dict:
    """Outer gauss_2f1 calls while the points run, scalar and array, and the
    regions their arguments take, by specfun._region's pick."""
    kinds = ("direct", "log", "pfaff", "zero", "raised")
    counts = {"scalar": dict.fromkeys(("calls",) + kinds, 0),
              "array": dict.fromkeys(("calls", "entries") + kinds, 0)}
    real_f, real_region, depth, shape = specfun.gauss_2f1, specfun._region, 0, "scalar"

    def gauss_2f1(a, b, c, z):
        nonlocal depth, shape
        depth += 1
        try:
            if depth == 1:
                shape = "array" if isinstance(z, np.ndarray) and z.ndim else "scalar"
                counts[shape]["calls"] += 1
                if shape == "array":
                    counts[shape]["entries"] += z.size
            return real_f(a, b, c, z)
        finally:
            depth -= 1

    def region(*args):
        kind = "raised"
        try:
            group = real_region(*args)
            kind = "zero" if group is None else group.__name__.strip("_").split("_")[0]
            return group
        finally:
            if depth == 1:
                counts[shape][kind] += 1

    specfun.gauss_2f1, specfun._region = gauss_2f1, region
    try:
        for point in points:
            try:
                call(hypermorse, point, grid_path)
            except HypermorseError:
                pass  # a point that raises still made its calls
    finally:
        specfun.gauss_2f1, specfun._region = real_f, real_region
    return counts


def closed_kinds() -> dict:
    """Per closed_random point kind: points, and the median, mean and maximum over
    them of the best-of-REPEATS microseconds, over CLOSED_ROUNDS rounds of each seed."""
    us = {}
    for seed in SEEDS:
        it = rounds("closed_random", seed)
        for _ in range(CLOSED_ROUNDS):
            for point in next(it):
                ms, _ = best_of(lambda: call(hypermorse, point))
                us.setdefault(point.kind, []).append(1e3 * ms)
    return {kind: {"points": len(v), "median_us": round(float(np.median(v)), 2),
                   "mean_us": round(float(np.mean(v)), 2), "max_us": round(float(np.max(v)), 2)}
            for kind, v in sorted(us.items())}


def main() -> int:
    ms, _ = best_of(harness.calibrate_spectral_mapping)
    out = {"repeats": REPEATS, "calibrate": {"best_ms": round(ms, 3), "n_evals": calibration_evals()}}

    kinds = {"mres_integral": [], "mheat": [], "hw_oracle": []}
    for i, (two_k, alpha, dist) in enumerate(RES_STRATA):
        cfg = MorseConfig(1.0, two_k / 2.0, 0.0, (-1.0) ** i * dist)
        kinds["mres_integral"].append(best_of(lambda: mkernels.resolvent_integral(cfg, -1j * alpha)))
    for i, (two_k, t, dist) in enumerate(HEAT_STRATA):
        cfg = MorseConfig(1.0, two_k / 2.0, 0.0, (-1.0) ** i * dist)
        kinds["mheat"].append(best_of(lambda: mkernels.heat_kernel(cfg, t)))
        kinds["hw_oracle"].append(best_of(lambda: mkernels.hartman_watson_heat_oracle(cfg, t)))
    grids = {"kernel": [], "best_ms": [], "rows": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        for seed in SEEDS:
            for point in next(rounds("grid_sweep", seed)):
                kernel, params, grid = point.args
                if kernel in ("hheat", "mwave"):
                    kinds.setdefault(kernel, [])
                    for node in grid_nodes(params, grid):
                        kinds[kernel].append(best_of(lambda: harness.eval_kernel(kernel, node)))
                ms, rows = best_of(lambda: harness.grid_eval(kernel, dict(params), dict(grid),
                                                             path))
                for key, value in zip(grids, (kernel, round(ms, 3), rows)):
                    grids[key].append(value)
    for kind, runs in kinds.items():
        out[kind] = {"best_ms": [round(ms, 3) for ms, _ in runs],
                     "n_evals": [res.n_evals for _, res in runs],
                     "sum_best_ms": round(sum(ms for ms, _ in runs), 3)}
    out["grid_eval"] = grids
    out["closed_random"] = closed_kinds()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        traffic = {"transverse": gauss_2f1_traffic(next(rounds("transverse", 1)), path)}
        for workload, seed in itertools.product(("closed_random", "grid_sweep"), SEEDS):
            traffic[f"{workload}.seed{seed}"] = gauss_2f1_traffic(next(rounds(workload, seed)), path)
    out["gauss_2f1"] = traffic
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
