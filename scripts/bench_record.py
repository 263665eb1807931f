#!/usr/bin/env python3
"""Write BENCH_<n>.json at the repository root: one record of what this
checkout costs, for a change to cite next to its parent's record taken on
the same machine.

    python3 scripts/bench_record.py 27

The record holds:

  head          git HEAD, and whether the working tree differs from it;
  host          the CPU count and the load averages before and after the runs;
  src_lines     the line count of each src/hypermorse/*.py module;
  workloads     per benchmark workload, the result line (the last, a JSON
                object) of `perfbench/run.py --trace 0` at seeds 1-3 and of
                one `--trace 1` run at seed 1, each of SECONDS timed seconds;
  bench_points  the JSON object that scripts/bench_points.py prints;
  digests       the lines that scripts/output_digest.py prints;
  suites_s      the seconds of harness.run_suite(name) for each suite, all
                in one fresh interpreter, in SUITES order;
  tier1         the wall seconds and the summary line of the tier-1 run,
                `python -m pytest -q --continue-on-collection-errors` with
                src/ on PYTHONPATH.

Everything runs as a subprocess of this checkout, one at a time, and nothing
under perfbench/ changes.  It takes about five minutes.  Wall times depend on the machine and its load (see "host").
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("closed_random", "grid_sweep", "transverse")
SEEDS = (1, 2, 3)  # of the untraced runs; the traced run takes the first
SECONDS = 15  # timed seconds per benchmark run, as the benchmark runs it
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))

_SUITE_TIMES = """\
import json, time
from hypermorse import harness
out = {}
for name in harness.SUITES:
    t0 = time.perf_counter()
    harness.run_suite(name)
    out[name] = round(time.perf_counter() - t0, 4)
print(json.dumps(out))
"""


def run(*args: str, check: bool = True) -> str:
    """The stdout of one command run from the repository root."""
    return subprocess.run(args, cwd=ROOT, env=ENV, check=check, capture_output=True, text=True).stdout


def last_json(text: str):
    return json.loads(text.strip().splitlines()[-1])


def workload_runs(workload: str) -> dict:
    def bench(seed: int, trace: int):
        return last_json(run(sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                             str(seed), "--seconds", str(SECONDS), "--trace", str(trace)))

    return {"untraced": {str(seed): bench(seed, 0) for seed in SEEDS}, "traced_seed1": bench(SEEDS[0], 1)}


def tier1() -> dict:
    t0 = time.perf_counter()
    out = run(sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", check=False)
    return {"wall_s": round(time.perf_counter() - t0, 3), "summary": out.strip().splitlines()[-1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the record's number: BENCH_<n>.json")
    args = parser.parse_args()
    record = {
        "head": run("git", "rev-parse", "HEAD").strip(),
        "tree_differs_from_head": bool(run("git", "status", "--porcelain", "--untracked-files=no").strip()),
        "host": {"cpus": os.cpu_count(), "loadavg_before": os.getloadavg()},
        "src_lines": {p.name: len(p.read_text().splitlines())
                      for p in sorted((ROOT / "src" / "hypermorse").glob("*.py"))},
        "workloads": {w: workload_runs(w) for w in WORKLOADS},
        "bench_points": json.loads(run(sys.executable, "scripts/bench_points.py")),
        "digests": run(sys.executable, "scripts/output_digest.py").strip().splitlines(),
        "suites_s": last_json(run(sys.executable, "-c", _SUITE_TIMES)),
        "tier1": tier1(),
    }
    record["host"]["loadavg_after"] = os.getloadavg()
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
