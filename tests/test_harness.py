"""Tests for calibration, identity suites, and grid evaluation."""
import cmath
import json
import math

import numpy as np
import pytest

from hypermorse import harness, mkernels, specfun
from hypermorse.errors import (CalibrationAmbiguous, DomainError, GammaPole, InvalidGrid,
                               MissingParameter, NonFiniteInput)
from hypermorse.geometry import HalfPlanePoint
from hypermorse.harness import (
    IdentityReport,
    apply_halfplane_generator,
    calibrate_spectral_mapping,
    check_bessel_product,
    check_hyperbolic_heat_pde,
    check_hyperbolic_resolvent,
    check_morse_heat_hw_oracle,
    check_morse_heat_pde,
    eval_kernel,
    grid_eval,
    run_suite,
)
from hypermorse.hkernels import SpectralParam, heat_kernel
from hypermorse.mkernels import MorseConfig
from hypermorse.quad import QuadratureResult


@pytest.fixture(scope="module")
def record():
    return calibrate_spectral_mapping()


def _unconverged(real):
    """real, its result marked converged=False."""
    def wrapper(*args):
        res = real(*args)
        res.converged = False
        return res
    return wrapper


def _nan_at_pair(monkeypatch, zp):
    """Make the hyperbolic transmutation integral return a converged NaN at
    every point whose second point is zp."""
    real = harness.hyp_resolvent_integral

    def integral(sp, k, z, zp_, *args):
        if (zp_.x, zp_.y) == zp:
            return QuadratureResult(complex(math.nan, 0.0), 0.0, 1, True)
        return real(sp, k, z, zp_, *args)

    monkeypatch.setattr(harness, "hyp_resolvent_integral", integral)


class TestCalibration:
    def test_selected_conventions(self, record):
        assert record.mapping_id == "C"
        assert record.whittaker_index_convention == "order_imu"
        assert record.morse_wave_variant == "primary"

    def test_winner_residual_small(self, record):
        assert record.residuals["mapping_C"] < 1e-6
        assert record.residuals["whittaker_order_imu"] < 1e-6
        assert record.residuals["wave_primary"] < 1e-6

    def test_rejected_candidates_fail_loudly(self, record):
        # the non-selected mappings are off at order one, not marginally
        assert record.residuals["mapping_A"] > 1e-1
        assert record.residuals["mapping_B"] > 1e-1
        assert record.residuals["whittaker_order_mu"] > 1e-1
        assert record.residuals["wave_alternate"] > 1e-1

    def test_flagged_variant_rescaled_residual_recorded(self, record):
        # the alternative variant is exactly -1/2 of the truth at k = 0
        assert record.residuals["wave_alternate_k0_rescaled"] < 1e-9

    def test_idempotent(self, record):
        second = calibrate_spectral_mapping()
        assert second.mapping_id == record.mapping_id
        assert second.whittaker_index_convention == record.whittaker_index_convention
        assert second.morse_wave_variant == record.morse_wave_variant
        assert second.residuals == record.residuals

    def test_cost_pinned(self, monkeypatch):
        # the hyperbolic integral reads only mu, so it runs once per (mu, pair),
        # not once per mapping as well; the Morse integral once per mu, in 1-2
        # 2F1 calls.  Counts, so they do not depend on the machine.
        counts = dict.fromkeys(("hyp", "morse", "2f1"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "hyp_resolvent_integral",
                            counted("hyp", harness.hyp_resolvent_integral))
        monkeypatch.setattr(harness, "morse_resolvent_integral",
                            counted("morse", harness.morse_resolvent_integral))
        monkeypatch.setattr(specfun, "gauss_2f1", counted("2f1", specfun.gauss_2f1))
        assert calibrate_spectral_mapping().mapping_id == "C"
        assert counts["hyp"] == 6 and counts["morse"] == 2 and counts["2f1"] <= 18

    def test_nan_integral_fails(self, monkeypatch):
        # max(worst, nan) keeps the old worst: a NaN at one point must count
        # as an infinite residual, not let the mapping through
        _nan_at_pair(monkeypatch, (0.5, 2.0))
        with pytest.raises(CalibrationAmbiguous, match="mapping"):
            calibrate_spectral_mapping()

    def test_unconverged_integral_fails(self, monkeypatch):
        # an unconverged transmutation integral is no reference for the mapping
        monkeypatch.setattr(harness, "hyp_resolvent_integral", _unconverged(harness.hyp_resolvent_integral))
        with pytest.raises(CalibrationAmbiguous, match="mapping"):
            calibrate_spectral_mapping()

    def test_tie_is_ambiguous(self):
        with pytest.raises(CalibrationAmbiguous, match="spectral mapping selection not unique"):
            harness._unique_winner({"A": 0.5, "B": 1e-12, "C": 1e-12}, 1e-6, "spectral mapping")

    @pytest.mark.parametrize("mu", [-0.8j, -1.5j, 0.4 - 1.1j])
    def test_mapping_candidates(self, mu):
        # each candidate's mu' gives SpectralParam the candidate's exponent s
        expect = {"A": (1 - 1j * mu) / 2, "B": 0.5 - 1j * mu, "C": 0.5 + 1j * mu}
        assert set(harness._MAPPINGS) == set(expect)
        for name, to_mu in harness._MAPPINGS.items():
            assert SpectralParam(to_mu(mu)).s == pytest.approx(expect[name], rel=1e-15)

    @pytest.mark.parametrize("mu", [-0.7j, -1.1j])
    def test_whittaker_order_candidates(self, mu):
        # order_mu is the Whittaker product at order nu = mu, reached as the
        # shipped closed form (order i mu') at mu' = -i mu:
        # Gamma(nu + 1/2) / Gamma(1 + 2 nu) e^{-(X + X')/2} W_{0,nu}(2 e^{X'}) M_{0,nu}(2 e^X)
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.3)
        expect = cmath.exp(specfun.log_gamma(mu + 0.5) - specfun.log_gamma(1.0 + 2.0 * mu)) \
            * math.exp(-0.15) * specfun.whittaker("W", 0.0, mu, 2.0 * math.exp(0.3)) \
            * specfun.whittaker("M", 0.0, mu, 2.0)
        assert harness._WHITTAKER_ORDERS["order_mu"](mu) == -1j * mu
        assert abs(mkernels.resolvent_closed(cfg, -1j * mu) - expect) <= 1e-14 * abs(expect)


class TestReports:
    def test_identity_report_round_trip(self):
        rep = IdentityReport("x", "grid", 1e-9, {"a": 1}, True, 1e-6, 12.5, 10, 0)
        assert json.loads(json.dumps(rep.to_dict())) == rep.to_dict()

    def test_reports_serialize_as_plain_json(self):
        import json as jsonmod
        # quadrature-backed checks produce numpy scalars internally; the
        # reports must still be strict-JSON clean
        _, reports = run_suite("morse_wave")
        text = jsonmod.dumps([r.to_dict() for r in reports])
        for r in jsonmod.loads(text):
            assert isinstance(r["passed"], bool)
            assert isinstance(r["max_rel_err"], float)

    def test_unknown_wave_form_and_path(self):
        with pytest.raises(DomainError, match="unknown wave-kernel form 'v'"):
            harness.wave_form_radial("v", 0.5, np.array([2.0]), 0.5)
        with pytest.raises(ValueError, match="unknown path 'nope'"):
            harness.check_morse_wave_bessel("nope")

    def test_run_suite_unknown(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_suite_determinism(self):
        _, r1 = run_suite("hyperbolic_forms")
        _, r2 = run_suite("hyperbolic_forms")
        assert r1[0].max_rel_err == r2[0].max_rel_err
        assert r1[0].worst_point == r2[0].worst_point

    def test_quadrature_suite_determinism(self):
        # quadrature-backed identities are panel-order deterministic too
        _, r1 = run_suite("morse_wave")
        _, r2 = run_suite("morse_wave")
        assert [r.max_rel_err for r in r1] == [r.max_rel_err for r in r2]

    def test_run_all_attaches_calibration(self):
        record, reports = run_suite("all")
        assert record is not None and record.mapping_id == "C"
        names = {r.identity_id for r in reports}
        # one report per registered identity across every suite
        assert {"hyperbolic_forms", "hyperbolic_resolvent", "hyperbolic_heat_pde",
                "morse_wave_bessel_phi1", "morse_wave_bessel_alternate",
                "morse_wave_bessel_fourier", "morse_wave_phi1_fourier_half_k",
                "morse_resolvent", "morse_heat_hw_oracle", "morse_heat_pde", "whittaker_product",
                "bessel_product", "specfun_oracle"} == names
        assert all(r.passed for r in reports)

    def test_unconverged_oracle_is_a_point_error(self, monkeypatch):
        # one unconverged inner theta array makes its oracle point an error, not a pass
        real, calls = mkernels.theta_hw, []

        def theta(r, tau, abs_tol):
            res = real(r, tau, abs_tol)
            res.converged = bool(calls)
            calls.append(r)
            return res

        monkeypatch.setattr(mkernels, "theta_hw", theta)
        rep = check_morse_heat_hw_oracle()
        assert rep.n_point_errors == 1 and not rep.passed
        assert rep.worst_point["error"].startswith("NotConverged")

    @pytest.mark.parametrize("name, check", [
        ("morse_resolvent_integral", check_bessel_product),
        ("hyp_resolvent_integral", check_hyperbolic_resolvent),
        ("hyp_heat_kernel", check_hyperbolic_heat_pde),
        ("morse_heat_kernel", check_morse_heat_pde),
    ])
    def test_unconverged_integral_is_a_point_error(self, monkeypatch, name, check):
        # the same converged rule in every check that reads an integral's value
        monkeypatch.setattr(harness, name, _unconverged(getattr(harness, name)))
        rep = check()
        assert not rep.passed and rep.n_point_errors == rep.n_points > 0
        assert rep.worst_point["error"].startswith("NotConverged")

    def test_nan_residual_is_a_point_error(self, monkeypatch):
        # nan > worst is False, so a NaN residual must be recorded explicitly:
        # a failed point that names itself
        _nan_at_pair(monkeypatch, (0.5, 2.0))
        rep = check_hyperbolic_resolvent()
        assert not rep.passed and math.isinf(rep.max_rel_err)
        assert rep.n_point_errors == 12  # 3 mu x 4 k at that pair
        assert rep.worst_point["zp"] == (0.5, 2.0)
        assert rep.worst_point["error"].startswith("non-finite residual")

    def test_morse_heat_pde_measures_zero_shift(self):
        # the heat kernel solves dq/dt = (d^2/dX^2 + 2 k lam e^X - lam^2 e^{2X}) q
        # with no spectral shift, also at k >= 1.5 where the oracle gives up
        rep = check_morse_heat_pde()
        assert rep.passed and rep.n_points == 6 and rep.n_point_errors == 0

    def test_morse_heat_pde_sees_spectral_shift(self, monkeypatch):
        # the kernel of the operator shifted by -1/4 solves the shifted equation:
        # a shift fitted from the first sample passed it at 1.8e-7
        real = mkernels.heat_kernel
        monkeypatch.setattr("hypermorse.harness.morse_heat_kernel",
                            lambda cfg, t: real(cfg, t).scaled(math.exp(-0.25 * t)))
        rep = check_morse_heat_pde()
        assert not rep.passed and rep.max_rel_err > 1e-2

    def test_morse_heat_pde_sees_wrong_potential(self, monkeypatch):
        # a kernel of the operator with the opposite sign of k fails the check
        real = mkernels.heat_kernel
        monkeypatch.setattr("hypermorse.harness.morse_heat_kernel",
                            lambda cfg, t: real(MorseConfig(cfg.lam, -cfg.k, cfg.X, cfg.Xp), t))
        rep = check_morse_heat_pde()
        assert not rep.passed and rep.max_rel_err > 1e-2

    def test_tolerance_override_forces_failure(self):
        _, reports = run_suite("hyperbolic_forms", {"hyperbolic_forms": 1e-20})
        assert not reports[0].passed
        # the failure names a reproducible worst point
        assert {"two_k", "rho", "b"} <= set(reports[0].worst_point)

    def test_override_touches_only_its_identity(self):
        _, reports = run_suite("morse_wave", {"morse_wave_bessel_fourier": 1e-20})
        for r in reports:
            if r.identity_id == "morse_wave_bessel_fourier":
                assert r.tolerance == 1e-20 and not r.passed
            else:
                assert r.tolerance == harness.TOLERANCES[r.identity_id] and r.passed

    @pytest.mark.parametrize("tols", [
        {"hyperbolic_form": 1e-3},  # misspelt: must not leave the default in force silently
        {"calibration": 1e-3},
        {"hyperbolic_forms": "1e-9"},
        {"hyperbolic_forms": True},
        {"hyperbolic_forms": -1e-9},
        {"hyperbolic_forms": math.nan},
        {"hyperbolic_forms": math.inf},
        [("hyperbolic_forms", 1e-9)],
    ])
    def test_bad_overrides_raise_before_any_check(self, monkeypatch, tols):
        ran = []
        monkeypatch.setitem(harness.SUITES, "hyperbolic_forms", (lambda: ran.append(1),))
        monkeypatch.setattr(harness, "calibrate_spectral_mapping", lambda: ran.append(1))
        for suite in ("hyperbolic_forms", "all"):
            with pytest.raises(ValueError):
                run_suite(suite, tols)
        assert not ran

    def test_each_check_runs_once(self, monkeypatch):
        calls = {}

        def counted(name, check):
            def wrapper():
                calls[name] = calls.get(name, 0) + 1
                return check()
            return wrapper

        for suite, checks in harness.SUITES.items():
            monkeypatch.setitem(harness.SUITES, suite,
                                tuple(counted((suite, i), c) for i, c in enumerate(checks)))
        _, reports = run_suite("morse_wave")
        assert calls == {("morse_wave", i): 1 for i in range(4)} and len(reports) == 4
        calls.clear()
        _, reports = run_suite("all")
        assert calls == {(suite, i): 1 for suite, checks in harness.SUITES.items()
                         for i in range(len(checks))}
        assert len(reports) == len(calls) == 13


class TestGenerator:
    def test_pde_residual_sample(self):
        # spot check outside the suite: t=0.7, k=1 at the documented sample
        rep = check_hyperbolic_heat_pde()
        assert rep.passed

    def test_wrong_sign_breaks_pde(self):
        # flipping the first-order term's sign must wreck the residual; this
        # pins the operator/phase pairing the package documents
        z, zp, t, k = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.3, 1.4), 0.7, 1.0
        ht = 0.02

        def h_of_t(tt):
            return heat_kernel(tt, k, z, zp).value

        dt = (-h_of_t(t + 2 * ht) + 8 * h_of_t(t + ht) - 8 * h_of_t(t - ht)
              + h_of_t(t - 2 * ht)) / (12 * ht)

        def h_of_z(x, y):
            return heat_kernel(t, k, HalfPlanePoint(x, y), zp).value

        good = apply_halfplane_generator(h_of_z, z, k)
        flipped = apply_halfplane_generator(h_of_z, z, -k)  # sign of 2iky d_x flips
        assert abs(dt - good) / abs(dt) < 1e-3
        assert abs(dt - flipped) / abs(dt) > 0.5

    def test_stencils_exact_on_low_degree_polynomials(self):
        # the five-point first derivative is exact through degree 4, the
        # second through degree 5; only rounding is left
        p = lambda x: 0.3 - 1.2 * x + 0.7 * x ** 2 + 0.25 * x ** 3 - 0.4 * x ** 4 + 0.1 * x ** 5
        d1 = lambda x: -1.2 + 1.4 * x + 0.75 * x ** 2 - 1.6 * x ** 3 + 0.5 * x ** 4
        d2 = lambda x: 1.4 + 1.5 * x - 4.8 * x ** 2 + 2.0 * x ** 3
        quartic = lambda x: p(x) - 0.1 * x ** 5
        for c, h in ((0.0, 0.1), (0.8, 0.05), (-1.3, 0.2)):
            assert harness._d1(quartic, c, h) == pytest.approx(d1(c) - 0.5 * c ** 4, rel=1e-12,
                                                               abs=1e-12)
            assert harness._d2(p, c, h, p(c)) == pytest.approx(d2(c), rel=1e-10, abs=1e-10)
        # a quintic's fifth derivative is what the first-derivative stencil misses
        assert abs(harness._d1(p, 0.0, 0.1) - d1(0.0)) > 1e-7


_ONE_NODE_PER_KERNEL = [
    ("hres", {"k": 0.5, "mu": (0.3, -0.9), "z": (0.0, 1.0), "zp": (0.5, 2.0)}),
    # a key the kernel does not read, such as a "form" or a non-finite t, is ignored
    ("hwave", {"k": 0.5, "b": 2.5, "z": (0.0, 1.0), "zp": (0.5, 2.0), "form": "ii", "t": math.nan}),
    ("hheat", {"k": 0.5, "t": 0.8, "z": (0.0, 1.0), "zp": (0.5, 2.0)}),
    ("mres", {"k": 0.5, "lam": 1.0, "mu": (0.3, -0.9), "X": 0.0, "Xp": 0.35}),
    ("mheat", {"k": 0.5, "lam": 1.0, "X": 0.0, "Xp": 0.35, "t": 0.8}),
    ("mwave", {"k": 0.0, "lam": 1.0, "X": 0.0, "Xp": 0.35, "b": 1.2}),
    ("mwave", {"k": 0.5, "lam": 1.0, "X": 0.0, "Xp": 0.35, "b": 1.2}),
]

# (kernel, key, value): a parameter of the wrong form at a node of _ONE_NODE_PER_KERNEL
_WRONG_FORMS = [
    ("hres", "z", 1.0),
    ("hres", "z", (0.0, 1.0, 2.0)),
    ("hres", "zp", (0.5, "2")),
    ("hres", "mu", "abc"),
    ("hres", "mu", [0.3, -0.9]),
    ("hres", "mu", (0.3j, -0.9)),
    ("hheat", "k", (0.1, 0.2)),
    ("hheat", "t", 1j),
    ("mres", "mu", None),
    ("mwave", "Xp", None),
    ("mheat", "lam", "1"),
]


class TestEvalKernel:
    def test_hres_matches_api(self):
        from hypermorse.hkernels import SpectralParam, resolvent_closed
        params = {"k": 0.5, "mu": -0.9j, "z": (0.0, 1.0), "zp": (0.5, 2.0)}
        got = eval_kernel("hres", params)
        expect = resolvent_closed(SpectralParam(-0.9j), 0.5,
                                  HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.5, 2.0))
        assert got.value == expect

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            eval_kernel("nope", {})

    @pytest.mark.parametrize("kernel, params", _ONE_NODE_PER_KERNEL)
    def test_each_kernel_is_its_direct_call(self, kernel, params):
        from hypermorse import hkernels
        p = params
        z, zp = (HalfPlanePoint(*p.get(name, (0.0, 1.0))) for name in ("z", "zp"))
        cfg = MorseConfig(p["lam"], p["k"], p["X"], p["Xp"]) if "lam" in p else None

        def closed(value):
            return QuadratureResult(value, 0.0, 0, True)

        direct = {
            "hres": lambda: closed(hkernels.resolvent_closed(SpectralParam(complex(*p["mu"])), p["k"], z, zp)),
            "hwave": lambda: closed(hkernels.wave_kernel(p["k"], p["b"], z, zp)),
            "hheat": lambda: hkernels.heat_kernel(p["t"], p["k"], z, zp),
            "mres": lambda: closed(mkernels.resolvent_closed(cfg, complex(*p["mu"]))),
            "mheat": lambda: mkernels.heat_kernel(cfg, p["t"]),
            "mwave": lambda: (mkernels.wave_kernel_fourier(cfg, p["b"]) if p["k"]
                              else closed(mkernels.wave_kernel_bessel0(cfg, p["b"]))),
        }
        got, expect = eval_kernel(kernel, params), direct[kernel]()
        assert (got.value, got.err_estimate, got.n_evals, got.converged) == \
            (expect.value, expect.err_estimate, expect.n_evals, True)

    def test_gamma_pole_at_two_s(self):
        # mu = i/2 puts 2s = 1 + 2 i mu on the pole at 0, while s -+ k are not poles
        params = {"k": 0.3, "mu": 0.5j, "z": (0.0, 1.0), "zp": (0.5, 2.0)}
        with pytest.raises(GammaPole, match="log_gamma pole at z=0j"):
            eval_kernel("hres", params)

    def test_gamma_pole_at_two_nu_on_mres(self):
        # mu = i puts 1 + 2 nu = -1 (nu = i mu) on a pole, as the 2s pole of hres
        params = {"k": 0, "lam": 1, "mu": 1j, "X": 0, "Xp": 0.3}
        with pytest.raises(GammaPole, match=r"log_gamma pole at z=\(-1"):
            eval_kernel("mres", params)

    def test_missing_parameter_is_named(self):
        with pytest.raises(MissingParameter, match="needs X$"):
            eval_kernel("mwave", {"k": 0, "lam": 1, "Xp": 0.3, "b": 1})

    def test_nan_mu_rejected_on_hres(self, monkeypatch):
        # with gauss_2f1 removed, only a check ahead of every series passes
        monkeypatch.setattr(mkernels.specfun, "gauss_2f1", None)
        params = {"k": 0.5, "mu": complex(math.nan, -0.9), "z": (0.0, 1.0), "zp": (0.5, 2.0)}
        with pytest.raises(NonFiniteInput, match="mu"):
            eval_kernel("hres", params)

    def test_infinite_position_rejected_on_mres(self):
        params = {"k": 0.5, "lam": 1.0, "mu": -0.9j, "X": math.inf, "Xp": 0.0}
        with pytest.raises(NonFiniteInput, match="X=inf"):
            eval_kernel("mres", params)

    @pytest.mark.parametrize("kernel, key, value", _WRONG_FORMS)
    def test_wrong_form_is_a_domain_error(self, monkeypatch, kernel, key, value):
        # named before any kernel runs; these escaped as TypeError or ValueError
        monkeypatch.setattr(harness, "_evaluate", None)
        params = dict(dict(_ONE_NODE_PER_KERNEL)[kernel], **{key: value})
        with pytest.raises(DomainError, match=f"parameter {key}="):
            eval_kernel(kernel, params)

    def test_wrong_form_is_named_before_a_non_finite_value(self):
        params = {"k": 0.5, "t": math.nan, "z": 1.0, "zp": (0.5, 2.0)}
        with pytest.raises(DomainError, match="parameter z=1.0 is not a pair of real numbers"):
            eval_kernel("hheat", params)

    def test_non_finite_rejected_at_the_kernel_entry_points(self):
        from hypermorse.hkernels import SpectralParam
        with pytest.raises(NonFiniteInput, match="mu"):
            SpectralParam(complex(0.3, math.inf))
        with pytest.raises(NonFiniteInput, match="lam"):
            mkernels.MorseConfig(lam=math.nan, k=0.0, X=0.0, Xp=0.3)
        with pytest.raises(NonFiniteInput, match="zp"):
            eval_kernel("hheat", {"t": 1.0, "k": 0.0, "z": (0.0, 1.0), "zp": (0.0, math.nan)})


class TestGridEval:
    def test_single_point_bit_exact(self, tmp_path):
        out = tmp_path / "grid.csv"
        params = {"k": 0.0, "z": (0.0, 1.0), "zp": (0.0, 2.0)}
        n = grid_eval("hheat", params, {"t": (0.5, 0.5, 1)}, str(out))
        assert n == 1
        import csv as csvmod
        with out.open() as fh:
            row = list(csvmod.DictReader(fh))[0]
        direct = eval_kernel("hheat", {**params, "t": 0.5})
        assert float.fromhex(row["re_hex"]) == complex(direct.value).real
        assert float.fromhex(row["im_hex"]) == complex(direct.value).imag

    def test_heat_monotone_in_distance(self, tmp_path):
        # k = 0 heat kernel decreases with separation at fixed t
        out = tmp_path / "grid.csv"
        params = {"k": 0.0, "lam": 1.0, "X": 0.0}
        grid_eval("mheat", params, {"t": (0.5, 0.5, 1), "Xp": (0.1, 1.2, 5)}, str(out))
        import csv as csvmod
        with out.open() as fh:
            vals = [float(r["re"]) for r in csvmod.DictReader(fh)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_error_recorded_in_row(self, tmp_path):
        out = tmp_path / "grid.csv"
        # mu on the wrong half-plane: per-point failure, run continues
        params = {"k": 0.0, "lam": 1.0, "X": 0.0, "Xp": 0.3, "mu": 0.5j}
        n = grid_eval("mres", params, {"Xp": (0.2, 0.4, 2)}, str(out))
        assert n == 2  # closed form fine at these points, so no errors here
        params_bad = {"k": 0.0, "z": (0.0, 1.0), "zp": (0.0, 1.0)}
        n = grid_eval("hres", {**params_bad, "mu": -0.8j}, {"k": (0.0, 0.5, 2)}, str(out))
        import csv as csvmod
        with out.open() as fh:
            rows = list(csvmod.DictReader(fh))
        assert n == 2
        assert all("DiagonalSingularity" in r["error"] for r in rows)

    def test_component_axis_heat_monotone_in_distance(self, tmp_path):
        # half-plane heat kernel at k = 0 decreases with separation at fixed t
        out = tmp_path / "grid.csv"
        params = {"k": 0.0, "z": (0.0, 1.0), "zp": (0.0, 1.05)}
        grid_eval("hheat", params, {"t": (0.5, 0.5, 1), "zp.y": (1.1, 3.0, 8)}, str(out))
        import csv as csvmod
        with out.open() as fh:
            vals = [float(r["re"]) for r in csvmod.DictReader(fh)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_thousand_point_grid_walltime(self, tmp_path):
        import time
        out = tmp_path / "grid.csv"
        params = {"k": 0.0, "z": (0.0, 1.0), "zp": (0.0, 1.5)}
        t0 = time.perf_counter()
        n = grid_eval("hheat", params, {"t": (0.1, 1.0, 10), "zp.y": (1.1, 3.0, 100)}, str(out))
        elapsed = time.perf_counter() - t0
        assert n == 1000
        assert elapsed < 60.0

    @pytest.mark.parametrize("kernel, params, axes, missing", [
        ("mwave", {"k": 0.0, "lam": 1.0, "Xp": 0.3}, {"b": (0.5, 1.0, 2)}, "X"),
        ("hres", {"k": 0.0, "lam": 1.0, "X": 0.0, "Xp": 0.3}, {"mu": (1.0, 2.0, 2)}, "z, zp"),
        ("hheat", {"z": (0.0, 1.0), "zp": (0.0, 2.0)}, {"t": (0.5, 1.0, 2)}, "k"),
    ])
    def test_missing_parameter_is_invalid_before_any_point(self, tmp_path, kernel, params, axes, missing):
        out = tmp_path / "grid.csv"
        with pytest.raises(InvalidGrid, match=f"needs {missing},"):
            grid_eval(kernel, params, axes, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("axis", [(1.5, 2.0), (1.5, 2.0, 0), (1.5, 2.0, "three"),
                                      (1.5, 2.0, None), (1.5, 2.0, 2, 4), (1.5, 2.0, math.inf),
                                      (1.5, 2.0, math.nan), (1.5, 2.0, 2.7), ("one", 2.0, 2),
                                      (None, 2.0, 2)])
    def test_malformed_axis_with_every_parameter(self, tmp_path, axis):
        # every parameter given, so only the axis check can stop the grid
        params = {"k": 0.5, "t": 0.8, "z": (0.0, 1.0), "zp": (0.0, 1.0)}
        out = tmp_path / "grid.csv"
        with pytest.raises(InvalidGrid, match=r"axis 'zp.y' needs \(start, stop, count\)"):
            grid_eval("hheat", params, {"zp.y": axis}, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("kernel, params, axes, named", [
        ("hres", {"k": 0.5, "mu": (math.nan, -0.9), "z": (0.0, 1.0), "zp": (0.5, 2.0)},
         {"zp.y": (1.5, 2.0, 3)}, "mu"),
        ("mwave", {"k": 0.5, "lam": math.inf, "X": 0.1, "Xp": -0.3}, {"b": (1.5, 2.0, 3)}, "lam"),
        ("hheat", {"k": 0.5, "z": (0.0, 1.0), "zp": (0.3, 1.5)}, {"t": (0.5, math.nan, 3)}, "t"),
    ])
    def test_non_finite_group_value_names_each_node(self, tmp_path, kernel, params, axes, named):
        # the group's array call raises a typed error; each node's eval_kernel
        # then names the parameter in its row
        out = tmp_path / "grid.csv"
        assert grid_eval(kernel, params, axes, str(out)) == 3
        assert [r["error"].split("=")[0] for r in self._rows(out)] == \
            [f"NonFiniteInput: parameter {named}"] * 3

    def test_component_axis_counts_as_its_parameter(self, tmp_path):
        params = {"k": 0.0, "t": 0.5, "z": (0.0, 1.0), "zp": (0.0, 1.0)}
        assert grid_eval("hheat", params, {"zp.y": (1.5, 2.0, 2)}, str(tmp_path / "grid.csv")) == 2

    @pytest.mark.parametrize("kernel, params", _ONE_NODE_PER_KERNEL)
    def test_one_node_row_is_eval_kernel(self, tmp_path, kernel, params):
        # a one-node grid is eval_kernel at its node, bit for bit
        out = tmp_path / "grid.csv"
        assert grid_eval(kernel, params, {"k": (params["k"], params["k"], 1)}, str(out)) == 1
        (row,) = self._rows(out)
        expect = eval_kernel(kernel, params)
        value = complex(expect.value)
        assert (row["re_hex"], row["im_hex"], row["converged"], row["error"]) == \
            (value.real.hex(), value.imag.hex(), str(expect.converged), "")

    def test_complex_pair_mu(self, tmp_path):
        # a spec's "mu = re,im" arrives as a pair
        out = tmp_path / "grid.csv"
        params = {"k": 0.5, "mu": (0.0, -0.9), "z": (0.0, 1.0), "zp": (0.5, 2.0)}
        grid_eval("hres", params, {"k": (0.5, 0.5, 1)}, str(out))
        import csv as csvmod
        with out.open() as fh:
            row = list(csvmod.DictReader(fh))[0]
        direct = eval_kernel("hres", {**params, "mu": -0.9j})
        assert float.fromhex(row["re_hex"]) == complex(direct.value).real

    @staticmethod
    def _rows(path):
        import csv as csvmod
        with open(path, newline="") as fh:
            return list(csvmod.DictReader(fh))

    @staticmethod
    def _node(params, row, axes):
        """The parameters of a CSV row (its decimal coordinates round-trip)."""
        point = dict(params)
        for name in axes:
            harness._apply_axis(point, name, float(row[name]))
        return point

    def _against_eval(self, tmp_path, kernel, params, axes, rel):
        """Each grid row against eval_kernel at its node: the hex values within
        rel (0: bit for bit), the flag equal; returns the rows."""
        out = tmp_path / "grid.csv"
        assert grid_eval(kernel, params, axes, str(out)) == math.prod(c for *_, c in axes.values())
        rows = self._rows(out)
        for row in rows:
            assert row["error"] == ""
            direct = complex(eval_kernel(kernel, self._node(params, row, axes)).value)
            got = complex(float.fromhex(row["re_hex"]), float.fromhex(row["im_hex"]))
            assert abs(got - direct) <= rel * abs(direct)
            assert row["converged"] == "True"
        return rows

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 1.5])
    def test_hheat_rows_bit_identical_to_eval_kernel(self, tmp_path, k):
        # the 9 nodes share (k, t): one sum, each row cut at its own s_max
        params = {"k": k, "t": 0.8, "z": (0.0, 1.1), "zp": (0.0, 1.0)}
        self._against_eval(tmp_path, "hheat", params,
                           {"zp.x": (0.3, 0.9, 3), "zp.y": (0.6, 1.6, 3)}, 0.0)

    def test_hres_rows_within_1e14(self, tmp_path):
        # one profile call on the array of c2: a few ulps from the scalar path
        params = {"k": 0.7, "mu": (0.3, -1.1), "z": (0.1, 0.9), "zp": (-0.4, 1.0)}
        self._against_eval(tmp_path, "hres", params, {"zp.y": (0.6, 2.4, 8)}, 1e-14)

    @pytest.mark.parametrize("k", [0.5, -1.0, 1.3])
    def test_mwave_rows_within_1e13(self, tmp_path, k):
        # one periodic sum from the largest row's n: a few ulps from eval_kernel
        params = {"k": k, "lam": 1.3, "X": 0.1}
        self._against_eval(tmp_path, "mwave", params,
                           {"b": (0.9, 2.6, 3), "Xp": (-0.5, -0.2, 3)}, 1e-13)

    def test_hres_diagonal_node_falls_back_per_node(self, tmp_path):
        # the group's array call raises, so each node runs on its own: the
        # diagonal node records its error, the others their eval_kernel values
        out = tmp_path / "grid.csv"
        params = {"k": 0.5, "mu": -0.9j, "z": (0.0, 1.0), "zp": (0.0, 1.0)}
        assert grid_eval("hres", params, {"zp.y": (0.5, 1.5, 3)}, str(out)) == 3
        rows = self._rows(out)
        assert "DiagonalSingularity" in rows[1]["error"] and rows[1]["converged"] == "False"
        for row in (rows[0], rows[2]):
            direct = eval_kernel("hres", self._node(params, row, ["zp.y"])).value
            assert row["error"] == "" and float.fromhex(row["re_hex"]) == direct.real

    def test_mwave_one_group_across_k_and_lam(self, tmp_path, monkeypatch):
        # each row of the Fourier sum reads its own k and lam: the 6 nodes at
        # k != 0 are one call, the 2 at k = 0 run alone (the J0 closed form)
        calls = []
        real = harness.wave_kernel_fourier

        def counted(cfg, b):
            calls.append(len(cfg) if isinstance(cfg, list) else 1)
            return real(cfg, b)

        monkeypatch.setattr(harness, "wave_kernel_fourier", counted)
        params = {"X": 0.1, "Xp": -0.3, "b": 1.5}
        rows = self._against_eval(tmp_path, "mwave", params,
                                  {"k": (-0.5, 1.0, 4), "lam": (0.8, 1.6, 2)}, 1e-13)
        assert calls[0] == 6 and calls.count(6) == 1 and len(rows) == 8

    def test_one_group_per_t(self, tmp_path, monkeypatch):
        calls = []
        real = harness.hyp_heat_kernel

        def counted(t, k, z, zp, *args):
            calls.append((t, len(z) if isinstance(z, list) else 1))
            return real(t, k, z, zp, *args)

        monkeypatch.setattr(harness, "hyp_heat_kernel", counted)
        params = {"k": 0.5, "z": (0.0, 1.0), "zp": (0.2, 1.0)}
        grid_eval("hheat", params, {"t": (0.5, 1.0, 2), "zp.y": (1.5, 2.5, 3)},
                  str(tmp_path / "grid.csv"))
        assert calls == [(0.5, 3), (1.0, 3)]

    def test_domain_errors_are_rows(self, tmp_path):
        # t <= 0 and y <= 0 raise DomainError, a HypermorseError: a row each
        out = tmp_path / "grid.csv"
        params = {"k": 0.5, "z": (0.0, 1.0), "zp": (0.3, 1.5)}
        assert grid_eval("hheat", params, {"t": (-1.0, 1.0, 3)}, str(out)) == 3
        assert [r["error"].split(":")[0] for r in self._rows(out)] == ["DomainError"] * 2 + [""]
        params = {"k": 0.5, "mu": (0.0, -0.9), "z": (0.0, 1.0), "zp": (0.5, 2.0)}
        assert grid_eval("hres", params, {"zp.y": (-1.0, 2.0, 4)}, str(out)) == 4
        assert [r["error"].split(":")[0] for r in self._rows(out)] == ["DomainError"] * 2 + [""] * 2

    @pytest.mark.parametrize("kernel, axis", [
        ("hheat", "zp.q"), ("hheat", "k.x"), ("hheat", "t.y"), ("hheat", "w.x"), ("hres", "mu.x"),
    ])
    def test_bad_component_axis_is_invalid_before_any_point(self, tmp_path, kernel, axis):
        # a component of a scalar parameter, or of a complex mu given as a number
        out = tmp_path / "grid.csv"
        params = {"k": 0.0, "t": 0.5, "mu": -0.9j, "z": (0.0, 1.0), "zp": (0.0, 1.0)}
        with pytest.raises(InvalidGrid, match=f"axis '{axis}' must address .x or .y"):
            grid_eval(kernel, params, {axis: (1.5, 2.0, 2)}, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("kernel, key, value", _WRONG_FORMS)
    def test_wrong_form_is_invalid_before_any_point(self, tmp_path, monkeypatch, kernel, key, value):
        monkeypatch.setattr(harness, "_evaluate", None)
        params = dict(dict(_ONE_NODE_PER_KERNEL)[kernel], **{key: value})
        out, axis = tmp_path / "grid.csv", "t" if key == "k" else "k"  # hheat's k is the key
        with pytest.raises(InvalidGrid, match=f"parameter {key}="):
            grid_eval(kernel, params, {axis: (0.5, 0.5, 2)}, str(out))
        assert not out.exists()

    def test_non_finite_value_names_each_node(self, tmp_path):
        # a NaN shared by a group is no array call: each node's eval_kernel
        # names it in its row
        out = tmp_path / "grid.csv"
        params = {"k": 0.5, "t": 0.8, "z": (math.nan, 1.0), "zp": (0.3, 1.5)}
        assert grid_eval("hheat", params, {"zp.y": (1.5, 2.0, 3)}, str(out)) == 3
        assert all(r["error"].startswith("NonFiniteInput: parameter z=") for r in self._rows(out))

    def test_shorter_grid_over_longer_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        params = {"k": 0.0, "t": 0.5, "z": (0.0, 1.0), "zp": (0.0, 1.0)}
        grid_eval("hheat", params, {"zp.y": (1.5, 3.0, 40)}, str(out))
        grid_eval("hheat", params, {"zp.y": (1.5, 2.0, 2)}, str(out))
        text = out.read_text()
        assert len(text.splitlines()) == 3 and text.endswith("\n")
        assert [float(r["zp.y"]) for r in self._rows(out)] == [1.5, 2.0]

    def test_written_in_place_like_open_w(self, tmp_path):
        # created 0o666 less the umask; a symlink is written through and a
        # hard link keeps seeing the file
        import os
        import stat
        params = {"k": 0.0, "t": 0.5, "z": (0.0, 1.0), "zp": (0.0, 1.0)}
        target, link, hard = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "hard.csv"
        mask = os.umask(0o027)
        try:
            grid_eval("hheat", params, {"zp.y": (1.5, 3.0, 5)}, str(target))
        finally:
            os.umask(mask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        link.symlink_to(target)
        os.link(target, hard)
        grid_eval("hheat", params, {"zp.y": (1.5, 2.0, 2)}, str(link))
        assert link.is_symlink() and len(self._rows(target)) == 2
        assert hard.read_text() == target.read_text() and hard.stat().st_ino == target.stat().st_ino

    def test_devices_and_fifos_are_written_not_cut(self, tmp_path):
        import os
        import threading
        params = {"k": 0.0, "t": 0.5, "z": (0.0, 1.0), "zp": (0.0, 1.0)}
        assert grid_eval("hheat", params, {"zp.y": (1.5, 2.0, 2)}, os.devnull) == 2
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
        reader.start()
        try:
            assert grid_eval("hheat", params, {"zp.y": (1.5, 2.0, 2)}, str(fifo)) == 2
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive() and len(got[0].splitlines()) == 3

    def test_file_untouched_while_the_nodes_run(self, tmp_path, monkeypatch):
        # every row is formatted before the file is opened: a process killed
        # during the sweep leaves the older file whole
        # (120 rows pass any write buffer; hwave runs node by node)
        out = tmp_path / "grid.csv"
        params = {"k": 0.5, "z": (0.0, 1.0), "zp": (0.5, 1.5)}
        grid_eval("hwave", params, {"b": (2.0, 3.0, 200)}, str(out))
        before, seen = out.read_bytes(), []
        real = harness.eval_kernel

        def watching(kernel_id, p):
            seen.append(out.read_bytes() == before)
            return real(kernel_id, p)

        monkeypatch.setattr(harness, "eval_kernel", watching)
        grid_eval("hwave", params, {"b": (2.5, 3.5, 120)}, str(out))
        assert seen == [True] * 120 and len(self._rows(out)) == 120

    def test_exception_leaves_the_rows_written(self, tmp_path, monkeypatch):
        # a non-kernel error stops the sweep: the file holds the header and
        # the rows before it, none of an older, longer file
        out = tmp_path / "grid.csv"
        params = {"k": 0.0, "lam": 1.0, "X": 0.0}
        grid_eval("mheat", params, {"t": (0.5, 0.5, 1), "Xp": (0.1, 1.2, 6)}, str(out))
        real, seen = harness.eval_kernel, []

        def failing(kernel_id, p):
            seen.append(p)
            if len(seen) == 3:
                raise RuntimeError("stop")
            return real(kernel_id, p)

        monkeypatch.setattr(harness, "eval_kernel", failing)
        with pytest.raises(RuntimeError):
            grid_eval("mheat", params, {"t": (0.5, 0.5, 1), "Xp": (0.1, 1.2, 6)}, str(out))
        assert [float(r["Xp"]) for r in self._rows(out)] == [p["Xp"] for p in seen[:2]]

    def test_invalid_grid(self, tmp_path):
        with pytest.raises(InvalidGrid):
            grid_eval("hheat", {}, {}, str(tmp_path / "x.csv"))
        with pytest.raises(InvalidGrid):
            grid_eval("hheat", {}, {"t": (0.5, 1.0)}, str(tmp_path / "x.csv"))
        with pytest.raises(InvalidGrid):
            grid_eval("nope", {}, {"t": (0.5, 1.0, 2)}, str(tmp_path / "x.csv"))
