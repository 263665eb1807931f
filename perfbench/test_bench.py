"""Tests of the benchmark's own inputs, checks and tracing.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import itertools
import json
import math
import os
import types

import pytest

import checks
import reference
import run
import tracing
import workloads

ROUNDS = {"closed_random": 40, "grid_sweep": 20, "transverse": 3}


def _take(workload, seed, n=None):
    return list(itertools.islice(workloads.rounds(workload, seed), n or ROUNDS[workload]))


@pytest.fixture(scope="module")
def hm():
    return run.import_program()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _take(workload, 7) == _take(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    a, b = _take(workload, 1, 1)[0], _take(workload, 2, 1)[0]
    assert sorted(p.kind for p in a) == sorted(p.kind for p in b)
    if workload == "transverse":        # a fixed design in seeded order
        assert a != b and sorted(map(repr, a)) == sorted(map(repr, b))
        return
    args_a = {repr(p.args) for p in a if p.args}
    assert not args_a & {repr(p.args) for p in b if p.args}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_timed_input_lies_in_the_supported_region(workload):
    for seed in range(5):
        for rnd in _take(workload, seed):
            for p in rnd:
                assert workloads.in_region(p), p


def test_region_predicate_rejects_the_probed_holes():
    outside = [
        workloads.Point("hres", "harness.eval_kernel",
                        ("hres", {"k": 0.5, "mu": -0.9j, "z": (0.0, 1.0), "zp": (0.0, 1.22)}), ""),
        workloads.Point("hheat", "harness.eval_kernel",
                        ("hheat", {"k": 0.3, "t": 1.0, "z": (0.0, 1.0), "zp": (0.5, 2.0)}), ""),
        workloads.Point("mres", "harness.eval_kernel",
                        ("mres", {"k": 0.0, "lam": 1.0, "mu": -0.9j, "X": 0.0, "Xp": 3.0}), ""),
        workloads.Point("hres", "harness.eval_kernel",
                        ("hres", {"k": 0.5, "mu": complex(math.nan, -0.9), "z": (0.0, 1.0),
                                  "zp": (0.5, 2.0)}), ""),
        workloads.Point("K", "specfun.bessel", ("K", 1e-4, 2.3), ""),
    ]
    assert not any(workloads.in_region(p) for p in outside)


class _Recorder:
    """Stands in for the package: records every call and its arguments."""

    def __init__(self):
        self.calls = []

        def rec(name):
            return lambda *a, **kw: self.calls.append((name, a, kw)) or 0.0

        self.harness = types.SimpleNamespace(
            eval_kernel=rec("harness.eval_kernel"), grid_eval=rec("harness.grid_eval"),
            calibrate_spectral_mapping=rec("harness.calibrate_spectral_mapping"))
        self.specfun = types.SimpleNamespace(**{n: rec(f"specfun.{n}") for n in (
            "log_gamma", "gauss_2f1", "kummer_1f1", "bessel", "whittaker")})
        self.mkernels = types.SimpleNamespace(
            MorseConfig=lambda **kw: ("MorseConfig", kw),
            **{n: rec(f"mkernels.{n}") for n in (
                "resolvent_integral", "heat_kernel", "hartman_watson_heat_oracle")})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_program_receives_only_the_generated_values(workload):
    fake = _Recorder()
    points = [p for rnd in _take(workload, 3, 2) for p in rnd]
    for p in points:
        checks.call(fake, p, "grid.csv")
    assert len(fake.calls) == len(points)
    for p, (name, args, kwargs) in zip(points, fake.calls):
        assert name == p.op and not kwargs
        if p.op == "harness.grid_eval":
            assert args == p.args + ("grid.csv",)
        elif p.op.startswith("mkernels."):
            lam, k, X, Xp, last = p.args
            assert args == (("MorseConfig", {"lam": lam, "k": k, "X": X, "Xp": Xp}), last)
        else:
            assert args == p.args


def _reference_outcomes(rnd):
    """Outcomes whose values are the references themselves."""
    out = []
    for p in rnd:
        o = checks.outcomes(p, 0j)[0]
        o.value = complex(checks._reference(o)[0])
        out.append(o)
    return out


def test_corrupted_value_counts_toward_fail_frac(hm):
    rnd = _take("closed_random", 5, 1)[0]
    tolerances = hm.harness.TOLERANCES
    clean = run.Results(tolerances)
    clean.add(rnd[0], 1e-3, _reference_outcomes(rnd))
    clean.flush()
    assert (clean.attempted, clean.failed, clean.wrong) == (len(rnd), 0, 0)

    corrupted = _reference_outcomes(rnd)
    victim = next(o for o in corrupted if o.point.kind == "specfun.bessel.I")
    victim.value *= 1.0 + 1e-9          # far above the 1e-11 oracle tolerance
    unconverged = next(o for o in corrupted if o.point.kind == "hres")
    unconverged.converged = False       # right value, but flagged unconverged
    bad = run.Results(tolerances)
    bad.add(rnd[0], 1e-3, corrupted)
    bad.add_wall(1.0, last=True)
    bad.flush()
    assert (bad.failed, bad.wrong) == (2, 1)
    metrics = run.end_to_end(bad, 1.0, 0.1)
    assert metrics["pass_frac"][0] == pytest.approx(1.0 - 2.0 / len(rnd))


def test_tail_needs_ten_samples_beyond():
    xs = list(range(1, 31))
    assert run.tail(xs) == (20, 100.0 * 20 / 30)
    assert run.tail(xs[:12]) == (12, 100.0)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.per_layer_spec()]
    res = run.Results({})
    res.windows = [(2, 1.0, 1e-3, 2e-3, 100.0)]
    res.attempted, res.min_digits = 2, 12.0
    e2e = run.end_to_end(res, 1.0, 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_trace_counts_nested_evaluations_and_uninstalls(hm):
    original = hm.mkernels._hyp_heat_kernel
    tracer = tracing.Tracer()
    tracer.install(hm)
    try:
        assert hm.mkernels._hyp_heat_kernel is not original
        res = hm.mkernels.heat_kernel(hm.mkernels.MorseConfig(1.0, 0.0, 0.0, 0.4), 0.8)
    finally:
        tracer.uninstall()
    assert hm.mkernels._hyp_heat_kernel is original
    stat = tracer.stats["mkernels.heat_kernel"]
    assert stat.n_evals == res.n_evals
    assert stat.points > res.n_evals                  # inner heat integrals are counted
    assert tracer.root_counts()["points"] == stat.points
    assert tracer.stats["hkernels.heat_kernel"].calls > 1
    assert stat.self_s <= stat.total_s


def test_probes_cover_the_named_holes():
    names = {p[0] for p in __import__("probes").PROBES}
    assert {"hheat.k0.3", "hwave.b6.k0.3", "hres_integral.k0.3", "hres.rho0.2", "mres.Xp3",
            "hres.nan_mu"} <= names


def test_references_agree_with_mpmath():
    import mpmath
    z, zp, k, mu = (0.1, 0.8), (0.6, 1.7), 0.37, 0.3 - 0.9j
    s = 0.5 + 1j * mu
    c2 = ((z[0] - zp[0]) ** 2 + (z[1] + zp[1]) ** 2) / (4 * z[1] * zp[1])
    closed = (mpmath.gamma(s - k) * mpmath.gamma(s + k) / (4 * mpmath.pi * mpmath.gamma(2 * s))
              * mpmath.power(c2, -s) * mpmath.hyp2f1(s - k, s + k, 2 * s, 1 / mpmath.mpf(c2)))
    assert reference.rel_err(reference.hres(k, mu, z, zp),
                             complex(closed) * reference._phase(k, z, zp)) < 1e-12
    assert reference.rel_err(reference._whittaker_w_real(0.3, 0.7, 1.5),
                             complex(mpmath.whitw(0.3, 0.7, 1.5))) < 1e-13
