#!/usr/bin/env python3
"""One SHA-256 digest per source of the package's outputs on the benchmark's
inputs (all read from perfbench/workloads.py), so that a change which should
not move any output can show that it did not: run it at both commits and
compare the lines.

Sources, each a count of records and their digest:

  closed_random  every point of the first CLOSED_ROUNDS rounds at seeds 1-3:
                 the value's float hex, err_estimate, n_evals and converged
                 of a kernel result, or the type and message of the error;
  grid_sweep     the CSV bytes of every grid of the first GRID_ROUNDS rounds
                 at seeds 1-5;
  transverse     one round (seed 1), each point as in closed_random and the
                 calibration record as JSON;
  suite          run_suite("all"): the calibration record and each report
                 without its runtime_ms.

After these four totals, one line per closed_random point kind (its
records, `specfun.bessel.J` say) and one per suite report
(`suite.<identity_id>`), sorted by name, so that a change can name which
outputs moved.

Run from the repository root (a few seconds; nothing is written outside a
temporary directory):

    python3 scripts/output_digest.py
"""
import hashlib
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hypermorse  # noqa: E402
from checks import call  # noqa: E402  the benchmark's call of a point
from hypermorse import harness  # noqa: E402
from hypermorse.errors import HypermorseError  # noqa: E402
from workloads import rounds  # noqa: E402

CLOSED_SEEDS, CLOSED_ROUNDS = (1, 2, 3), 100
GRID_SEEDS, GRID_ROUNDS = (1, 2, 3, 4, 5), 20


def _hex(v) -> str:
    v = complex(v)
    return f"{v.real.hex()},{v.imag.hex()}"


def record(result) -> str:
    """One point's output as text: every bit of its value and bookkeeping."""
    if isinstance(result, HypermorseError):
        return f"{type(result).__name__}: {result}"
    if isinstance(result, harness.CalibrationRecord):
        return result.to_json()
    if hasattr(result, "converged"):
        return (f"{_hex(result.value)} {float(result.err_estimate).hex()} {result.n_evals}"
                f" {result.converged}")
    return _hex(result)


def points(workload: str, seeds, n_rounds: int):
    for seed in seeds:
        it = rounds(workload, seed)
        for _ in range(n_rounds):
            yield from next(it)


def outcome(point, grid_path: str) -> str:
    try:
        result = call(hypermorse, point, grid_path)
    except HypermorseError as exc:
        return record(exc)
    if point.op == "harness.grid_eval":
        return pathlib.Path(grid_path).read_bytes().decode()
    return record(result)


def digest(lines) -> tuple:
    h, n = hashlib.sha256(), 0
    for line in lines:
        h.update(line.encode() + b"\n")
        n += 1
    return n, h.hexdigest()


def suite_lines():
    """(name, line) for the calibration record (no name) and each report of run_suite("all")."""
    rec, reports = harness.run_suite("all")
    yield None, rec.to_json()
    for r in reports:
        doc = r.to_dict()
        del doc["runtime_ms"]
        yield f"suite.{r.identity_id}", json.dumps(doc, sort_keys=True, default=str)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        kinds = {}  # the lines of each closed_random point kind and suite report

        def named(pairs):
            for name, line in pairs:
                if name:
                    kinds.setdefault(name, []).append(line)
                yield line

        sources = {
            "closed_random": named((p.kind, outcome(p, path))
                                   for p in points("closed_random", CLOSED_SEEDS, CLOSED_ROUNDS)),
            "grid_sweep": (outcome(p, path) for p in points("grid_sweep", GRID_SEEDS, GRID_ROUNDS)),
            "transverse": (outcome(p, path) for p in points("transverse", (1,), 1)),
            "suite": named(suite_lines()),
        }
        for name, lines in sources.items():
            n, sha = digest(lines)
            print(f"{name:14s} {n:6d} {sha}")
        for name in sorted(kinds):
            n, sha = digest(kinds[name])
            print(f"{name:40s} {n:6d} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
