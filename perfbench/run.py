#!/usr/bin/env python3
"""hypermorse benchmark.

    python3 perfbench/run.py --workload closed_random --seed 1 --seconds 15 --trace 0

Runs one seeded workload closed loop, with one caller on one thread: each
point is sent only after the previous one returned.  It times whole rounds of
points until ``--seconds`` of timed work have accumulated, checks every
timed point against an independent reference outside the timed region, and
prints as its last line one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
See README.md in this directory for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
INIT = os.path.join(SRC, "hypermorse", "__init__.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
WINDOW_S = 1.0             # timed seconds per latency window
CHECK_BATCH = 512          # outcomes checked together, outside the timed region
TAIL_BEYOND = 10           # samples beyond the reported tail percentile
MAX_LISTED_FAILURES = 200

# A fresh interpreter imports the package and its CLI and evaluates one
# closed-form point: everything a user pays before the first result.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import hypermorse, hypermorse.cli
hypermorse.harness.eval_kernel("hres", {{"k": 0.5, "mu": -0.9j, "z": (0.0, 1.0), "zp": (0.5, 2.0)}})
print(time.perf_counter() - t0)
"""


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import hypermorse
    import hypermorse.cli  # noqa: F401  (its import is part of set-up)
    if os.path.abspath(hypermorse.__file__) != INIT:
        raise SystemExit(f"benchmark: imported {hypermorse.__file__}, expected {INIT}")
    return hypermorse


def measure_setup():
    """Median wall time of SETUP_REPEATS fresh interpreters doing the set-up."""
    code = _SETUP_CODE.format(src=SRC)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


class Results:
    """Latency windows and reference-check outcomes of the timed points.

    Latencies are kept for the open window only, so memory does not grow
    with the length of the run or with the program's speed."""

    def __init__(self, tolerances):
        self.tolerances = tolerances
        self.windows = []           # (rows, timed wall, p50, tail, tail percentile)
        self.by_kind = defaultdict(lambda: [0, 0.0, 0, 0, 0.0])  # calls, s, rows, failed, worst
        self.attempted = 0
        self.failed = 0             # raised, unconverged or missed
        self.wrong = 0              # raised or missed: the output itself is wrong
        self.min_digits = math.inf
        self.failures = []
        self.pending = []
        self._lat = []              # per-row latencies of the open window
        self._rows = 0
        self._wall = 0.0

    def add(self, point, latency, rows):
        kind = self.by_kind[point.kind]
        kind[0] += 1
        kind[1] += latency
        self._lat.append(latency / len(rows))
        self._rows += len(rows)
        self.pending.extend(rows)

    def add_wall(self, wall, last=False):
        """Account timed wall time; close the window once it holds WINDOW_S.
        A short last window is kept only when it is the run's only one."""
        self._wall += wall
        if self._wall >= WINDOW_S or (last and not self.windows and self._lat):
            value, pct = tail(self._lat)
            self.windows.append((self._rows, self._wall, statistics.median(self._lat), value, pct))
            self._lat, self._rows, self._wall = [], 0, 0.0

    def summary(self):
        """(points per second, p50, tail, tail percentile) over the windows.

        Throughput is rows over wall time.  The host alternates for seconds
        at a time between a fast and a slow state (the same short call runs
        up to 1.6x slower), and the median of all latencies jumps between the
        two states' medians; the per-window median averaged over the windows
        follows the share of time spent in each instead.  The tail is the
        median of the per-window tails."""
        rows, wall, p50, tails, pcts = zip(*self.windows)
        return (sum(rows) / sum(wall), statistics.fmean(p50), statistics.median(tails),
                statistics.median(pcts))

    def flush(self):
        for o, status, err in checks.check(self.pending, self.tolerances):
            self.attempted += 1
            kind = self.by_kind[o.point.kind]
            kind[2] += 1
            if err is not None:
                kind[4] = max(kind[4], err)
                if math.isfinite(err):      # a point without a value has no digits to count
                    self.min_digits = min(self.min_digits, -math.log10(max(err, 1e-16)))
            if status == "ok":
                continue
            self.failed += 1
            self.wrong += status != "unconverged"
            kind[3] += 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                what = o.error or (f"converged=False, rel_err {err:.3e}" if status == "unconverged"
                                   else f"rel_err {err:.3e}")
                self.failures.append((o.point.kind, o.params, what))
        self.pending = []


def run_rounds(hm, workload, seed, seconds, results=None, max_rounds=None):
    """Time whole rounds until ``seconds`` of timed work have accumulated
    (or, for the untraced replay of a traced run, until ``max_rounds``).
    Returns (timed wall seconds, rounds run).  With ``results`` the points
    are checked; without, they are only timed."""
    gen = workloads.rounds(workload, seed)
    wall = 0.0
    n_rounds = 0
    perf = time.perf_counter
    while (wall < seconds) if max_rounds is None else (n_rounds < max_rounds):
        rnd = next(gen)
        raw = []
        t_round = perf()
        for i, point in enumerate(rnd):
            path = os.path.join(WORK, f"grid_{i}.csv")
            t0 = perf()
            try:
                res, err = checks.call(hm, point, path), ""
            except Exception as exc:  # a failing point is counted, not fatal
                res, err = None, f"{type(exc).__name__}: {exc}"
            raw.append((point, perf() - t0, res, err, path))
        dt = perf() - t_round
        wall += dt
        n_rounds += 1
        if results is None:
            continue
        for point, lat, res, err, path in raw:
            results.add(point, lat, checks.outcomes(point, res, err, path))
        results.add_wall(dt)
        if len(results.pending) >= CHECK_BATCH:
            results.flush()
    if results is not None:
        results.add_wall(0.0, last=True)
        results.flush()
    return wall, n_rounds


def tail(latencies):
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it.  Below 2 * TAIL_BEYOND samples that
    percentile would not lie above the median, so the maximum is reported."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(results, wall, setup_s):
    rows = results.attempted
    rate, p50, t_val, t_pct = results.summary()
    print(f"points: {rows} checked, timed wall {wall:.3f} s, {len(results.windows)} windows; "
          f"point_tail_ms at the median window's p{t_pct:.2f}")
    print("window rates: " + " ".join(f"{r / w:.6g}" for r, w, *_ in results.windows))
    print("window p50_ms: " + " ".join(f"{1e3 * p:.6g}" for _, _, p, *_ in results.windows))
    metrics = {
        "points_per_s": (rate, "1/s"),
        "point_p50_ms": (1e3 * p50, "ms"),
        "point_tail_ms": (1e3 * t_val, "ms"),
        "pass_frac": (1.0 - results.failed / rows, "1"),
        "accuracy_digits": (results.min_digits if math.isfinite(results.min_digits) else 0.0,
                            "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics


def report(results):
    print("kind                            calls  mean_ms     rows  worst_rel_err  failed")
    for kind, (calls, secs, rows, failed, worst) in sorted(results.by_kind.items()):
        print(f"{kind:30s} {calls:6d} {1e3 * secs / calls:8.3f} {rows:8d}   "
              f"{worst:12.3e}  {failed}")
    for kind, params, what in results.failures:
        print(f"FAILED {kind} {params!r}: {what}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(INIT):
        raise SystemExit(f"benchmark: package sources not found at {INIT}")
    setup_s, setup_samples = measure_setup()
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    hm = import_program()
    tolerances = dict(hm.harness.TOLERANCES)

    probe_records = probes.run(hm, tolerances)
    for name, failed, note in probe_records:
        print(f"probe {name}: {'FAIL' if failed else 'ok'} - {note}")
    probe_failed = sum(1 for _, failed, _ in probe_records if failed)

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    results = Results(tolerances)
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(hm)
            try:
                wall, n_rounds = run_rounds(hm, args.workload, args.seed, args.seconds, results)
            finally:
                tracer.uninstall()
            # the same rounds again, untraced: the difference is the tracing overhead
            replay_wall, _ = run_rounds(hm, args.workload, args.seed, 0.0, max_rounds=n_rounds)
            tracing.print_spans(tracer)
            metrics = tracing.per_layer_metrics(tracer, wall - replay_wall, probe_failed)
        else:
            wall, _ = run_rounds(hm, args.workload, args.seed, args.seconds, results)
            metrics = end_to_end(results, wall, setup_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    report(results)
    print(json.dumps({
        "correct": results.wrong == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
