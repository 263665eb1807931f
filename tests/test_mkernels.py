"""Tests for the Morse-potential kernel module."""
import math
import time

import numpy as np
import pytest

from hypermorse import mkernels, quad, specfun
from hypermorse.errors import (
    CancellationLimit,
    ConvergenceViolated,
    DiagonalSingularity,
    GammaPole,
    HypermorseError,
    NonFiniteInput,
    NotConverged,
    OutsideSupport,
    Phi1OutsideDisc,
    UnsupportedK,
)
from hypermorse.geometry import HalfPlanePoint
from hypermorse.hkernels import SpectralParam, heat_kernel as heat_kernel_h, \
    resolvent_integral as resolvent_integral_h, wave_kernel as wave_kernel_h
from hypermorse.mkernels import (
    MorseConfig,
    hartman_watson_heat_oracle,
    heat_kernel,
    resolvent_closed,
    resolvent_integral,
    theta_hw,
    wave_aux_z,
    wave_kernel_bessel0,
    wave_kernel_fourier,
    wave_kernel_phi1,
)
from hypermorse.harness import ALT_VARIANT_K0_SCALE, wave_kernel_phi1_alt


def relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


CFG0 = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(1.5))
CFG_HALF = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=0.2)


class TestAuxiliaries:
    def test_support_identity(self):
        # 4 y y' cosh^2(|X-X'|/2) = (y+y')^2 exactly
        rng = np.random.default_rng(31)
        for _ in range(25):
            X, Xp = rng.uniform(-1.5, 1.5, size=2)
            y, yp = math.exp(X), math.exp(Xp)
            lhs = 4 * y * yp * math.cosh((X - Xp) / 2) ** 2
            assert relerr(lhs, (y + yp) ** 2) < 1e-13

    def test_z_vanishes_at_edge(self):
        assert wave_aux_z(CFG_HALF, CFG_HALF.rho_m) == 0.0

    def test_z_matches_direct_formula(self):
        b = 1.7
        z = float(wave_aux_z(CFG0, b))
        direct = math.sqrt(4 * CFG0.y * CFG0.yp * math.cosh(b / 2) ** 2
                           - (CFG0.y + CFG0.yp) ** 2)
        assert relerr(z, direct) < 1e-12

    def test_z_equals_alt_variant_y5(self):
        # Z of the winning variant equals Y5 of the alternative one
        b = 1.4
        ch = math.cosh((CFG_HALF.X - CFG_HALF.Xp) / 2)
        y5 = 2 * math.exp((CFG_HALF.X + CFG_HALF.Xp) / 2) \
            * math.sqrt(math.cosh(b / 2) ** 2 - ch ** 2)
        assert relerr(float(wave_aux_z(CFG_HALF, b)), y5) < 1e-13

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MorseConfig(lam=-1.0, k=0.0, X=0.0, Xp=0.1)


class TestBessel0Path:
    def test_support_edge_value(self):
        assert wave_kernel_bessel0(CFG0, CFG0.rho_m) == pytest.approx(0.5)

    def test_small_coupling_limit(self):
        cfg = MorseConfig(lam=1e-9, k=0.0, X=0.0, Xp=0.3)
        for b in [0.5, 1.5, 3.0]:
            assert wave_kernel_bessel0(cfg, b) == pytest.approx(0.5, abs=1e-9)

    def test_explicit_value(self):
        cfg = MorseConfig(lam=2.0, k=0.0, X=0.0, Xp=0.0)
        got = wave_kernel_bessel0(cfg, 1.0)
        expect = 0.5 * specfun.bessel("J", 0.0, 2.0 * math.sqrt(2 * math.cosh(1.0) - 2))
        assert relerr(got, expect) < 1e-14

    def test_below_support_raises(self):
        with pytest.raises(OutsideSupport):
            wave_kernel_bessel0(MorseConfig(1.0, 0.0, 0.0, 0.4), 0.1)

    def test_wrong_k_raises(self):
        with pytest.raises(UnsupportedK):
            wave_kernel_bessel0(CFG_HALF, 1.0)


class TestPhi1Path:
    def test_k0_reduces_to_bessel(self):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(1.5))
        for b in [0.6, 1.2, 2.4]:
            got = wave_kernel_phi1(cfg, b)
            expect = wave_kernel_bessel0(cfg, b)
            assert relerr(got, expect) < 1e-10
            assert abs(got.imag) < 1e-12

    def test_continuity_at_support_edge_k0(self):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.4)
        val = wave_kernel_phi1(cfg, cfg.rho_m + 1e-7)
        assert val.real == pytest.approx(0.5, abs=1e-4)

    def test_half_k_matches_fourier(self):
        cfg = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=0.2)
        b = 0.85  # inside the convergence window
        got = wave_kernel_phi1(cfg, b)
        oracle = wave_kernel_fourier(cfg, b)
        assert relerr(got, oracle.value) < 1e-6

    def test_k1_matches_fourier(self):
        cfg = MorseConfig(lam=1.0, k=1.0, X=0.1, Xp=0.3)
        b = 0.95
        got = wave_kernel_phi1(cfg, b)
        oracle = wave_kernel_fourier(cfg, b)
        assert relerr(got, oracle.value) < 1e-4

    def test_negative_k_reflection(self):
        cfg_p = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=0.2)
        cfg_m = MorseConfig(lam=1.0, k=-0.5, X=0.0, Xp=0.2)
        b = 0.8
        got = wave_kernel_phi1(cfg_m, b)
        oracle = wave_kernel_fourier(cfg_m, b)
        assert relerr(got, oracle.value) < 1e-6
        # both are real; reflection relates them through lam -> -lam
        assert abs(got.imag) < 1e-9

    def test_deep_derivative_orders_match_fourier(self):
        # 2|k| = 1-4 sinh-weighted derivatives from one Cauchy circle, across the window
        for two_k in (1, 2, 3, 4):
            cfg = MorseConfig(lam=1.0, k=two_k / 2.0, X=0.0, Xp=0.2)
            bstar = 2.0 * math.acosh(2.0 / math.sqrt(3.0) * math.cosh(cfg.rho_m / 2.0))
            for frac in (0.1, 0.55, 0.9):
                b = cfg.rho_m + frac * (bstar - cfg.rho_m)
                got, oracle = wave_kernel_phi1(cfg, b), wave_kernel_fourier(cfg, b).value
                assert relerr(got, oracle) < 1e-9, (two_k, frac)

    def test_outside_disc_raises(self):
        cfg = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=0.0)
        with pytest.raises(Phi1OutsideDisc):
            wave_kernel_phi1(cfg, 3.0)  # window ends at b* = ln 3 for X = X'
        cfg = MorseConfig(lam=1.0, k=2.0, X=0.0, Xp=0.2)
        bstar = 2.0 * math.acosh(2.0 / math.sqrt(3.0) * math.cosh(cfg.rho_m / 2.0))
        with pytest.raises(Phi1OutsideDisc):
            wave_kernel_phi1(cfg, 1.001 * bstar)

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedK):
            wave_kernel_phi1(MorseConfig(1.0, 0.3, 0.0, 0.2), 1.0)
        with pytest.raises(UnsupportedK):
            wave_kernel_phi1(MorseConfig(1.0, 2.5, 0.0, 0.2), 1.0)


def _window_end(rho):
    # b* with cosh(b*/2) = (2/sqrt 3) cosh(rho/2), where the Phi1 series window ends
    return 2.0 * math.acosh(2.0 / math.sqrt(3.0) * math.cosh(rho / 2.0))


class TestWindowDerivative:
    """(d / (sinh(b/2) db))^n = (1/2 d/dw)^n on content(d), d = cosh(b/2) - cosh(rho/2)."""

    RHO = 4.0

    def _mid(self, frac=0.5):
        return self.RHO + frac * (_window_end(self.RHO) - self.RHO)

    def test_order_zero_evaluates_once_at_offset(self):
        calls = []

        def content(d):
            calls.append(d)
            return 3.0 * d

        b = self._mid()
        got = mkernels._window_derivative(content, b, 0, self.RHO)
        d0 = math.cosh(b / 2.0) - math.cosh(self.RHO / 2.0)
        assert len(calls) == 1
        assert got == pytest.approx(3.0 * d0, rel=1e-14)
        # next to the edge the offset is formed without cancellation
        # (cosh(b/2) - cosh(rho/2) subtracted directly is off by about 1e-7 here)
        b = self.RHO * (1.0 + 1e-10)
        near = mkernels._window_derivative(lambda d: d, b, 0, self.RHO)
        assert near == pytest.approx(math.sinh(self.RHO / 2.0) * (b - self.RHO) / 2.0, rel=1e-9)

    def test_cubic_every_order(self):
        b = self._mid()
        d0 = math.cosh(b / 2.0) - math.cosh(self.RHO / 2.0)
        expect = (1.5 * d0 ** 2, 1.5 * d0, 0.75, 0.0)
        for n, e in zip((1, 2, 3, 4), expect):
            got = mkernels._window_derivative(lambda d: d ** 3, b, n, self.RHO)
            assert abs(got - e) < 1e-12 * max(1.0, abs(e)), n

    def test_exponential_every_order(self):
        # exact up to rounding: the n!/(2r)^n weight amplifies eps * max|content|
        a = 2.0 + 1.0j
        d_end = (2.0 / math.sqrt(3.0) - 1.0) * math.cosh(self.RHO / 2.0)
        for frac in (0.1, 0.55, 0.9):
            b = self._mid(frac)
            d0 = math.cosh(b / 2.0) - math.cosh(self.RHO / 2.0)
            r = 0.5 * min(d0, d_end - d0)
            for n in (1, 2, 3, 4):
                got = mkernels._window_derivative(lambda d: np.exp(a * d), b, n, self.RHO)
                rounding = 2.2e-16 * math.factorial(n) / (2.0 * r) ** n * abs(np.exp(a * (d0 + r)))
                assert abs(got - (a / 2.0) ** n * np.exp(a * d0)) < 8.0 * rounding, (frac, n)

    def test_is_the_sinh_weighted_operator_in_b(self):
        # content = cosh^2(b/2) - cosh^2(rho/2): one sinh-weighted b-derivative
        # gives cosh(b/2), two give 1/2
        w_rho = math.cosh(self.RHO / 2.0)
        b = self._mid(0.3)
        first = mkernels._window_derivative(lambda d: d * (d + 2.0 * w_rho), b, 1, self.RHO)
        second = mkernels._window_derivative(lambda d: d * (d + 2.0 * w_rho), b, 2, self.RHO)
        assert relerr(first, math.cosh(b / 2.0)) < 1e-13
        assert relerr(second, 0.5) < 1e-13

    def test_one_circle_inside_window_for_every_order(self):
        w_rho = math.cosh(self.RHO / 2.0)
        d_end = (2.0 / math.sqrt(3.0) - 1.0) * w_rho
        for frac in (0.05, 0.5, 0.95):
            b = self._mid(frac)
            d0 = math.cosh(b / 2.0) - w_rho
            sizes = set()
            for n in (1, 2, 3, 4):
                nodes = []
                mkernels._window_derivative(lambda d: nodes.append(d) or 1.0, b, n, self.RHO)
                sizes.add(len(nodes))
                r = abs(nodes[0] - d0)
                assert all(abs(abs(d - d0) - r) < 1e-12 for d in nodes)
                # the circle keeps its own radius from the support edge and the window end
                assert min(abs(d) for d in nodes) >= r * (1.0 - 1e-9)
                assert min(abs(d - d_end) for d in nodes) >= r * (1.0 - 1e-9)
            assert len(sizes) == 1, frac

    def test_past_window_raises_before_evaluating(self):
        calls = []
        bstar = _window_end(self.RHO)
        for b in (1.001 * bstar, 1.1 * bstar):
            for n in (1, 2, 3, 4):
                with pytest.raises(Phi1OutsideDisc):
                    mkernels._window_derivative(lambda d: calls.append(d) or 1.0, b, n, self.RHO)
        assert calls == []
        # order 0 is the content itself and has no window to leave
        assert mkernels._window_derivative(lambda d: 2.0, 1.1 * bstar, 0, self.RHO) == 2.0


class TestAlternateVariantPath:
    def test_k0_is_minus_two_times_true_kernel(self):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(1.5))
        for b in [0.8, 1.5]:
            raw_alt = wave_kernel_phi1_alt(cfg, b)
            truth = wave_kernel_bessel0(cfg, b)
            assert relerr(raw_alt, -2.0 * truth) < 1e-10

    def test_k0_calibrated_matches(self):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(1.5))
        for b in [0.8, 1.5, 2.2]:
            cal = ALT_VARIANT_K0_SCALE * wave_kernel_phi1_alt(cfg, b)
            truth = wave_kernel_bessel0(cfg, b)
            assert relerr(cal, truth) < 1e-10

    @pytest.mark.parametrize("k, b, exc", [
        (0.3, 1.0, UnsupportedK),  # 2k not an integer
        (0.5, 0.2, OutsideSupport),  # b = rho
        (-0.5, 1.01 * _window_end(0.2), Phi1OutsideDisc),  # past b*
    ])
    def test_raises_as_the_production_series(self, k, b, exc):
        cfg = MorseConfig(1.0, k, 0.0, 0.2)
        for fn in (wave_kernel_phi1, wave_kernel_phi1_alt):
            with pytest.raises(exc):
                fn(cfg, b)

    def test_half_k_deviation_is_b_dependent(self):
        # the flagged variant is NOT a constant multiple of the true kernel
        cfg = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=0.0)
        ratios = []
        for b in [0.45, 0.6, 0.8]:
            raw_alt = wave_kernel_phi1_alt(cfg, b)
            truth = wave_kernel_fourier(cfg, b).value
            ratios.append(raw_alt / truth)
        spread = max(abs(r - ratios[0]) for r in ratios)
        assert spread > 0.5


class TestFourierPath:
    def test_list_call_with_no_converged_row_is_not_converged(self):
        # past the node budget (lam Z in the thousands) no row converges; the
        # list form's converged is then False, never a truthy list of flags
        from hypermorse.harness import _converged
        cfg = MorseConfig(2000.0, 0.5, 0.0, 0.3)
        res = wave_kernel_fourier([cfg, cfg], [6.0, 6.5])
        assert res.converged is False and res.converged_rows == [False, False]
        with pytest.raises(NotConverged):
            _converged(res)
        one = wave_kernel_fourier(cfg, 6.0)
        assert one.converged is False and type(one.value) is complex

    def test_k0_equals_bessel(self):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(1.5))
        for b in [0.6, 1.2, 2.8]:
            got = wave_kernel_fourier(cfg, b)
            assert got.converged
            assert relerr(got.value, wave_kernel_bessel0(cfg, b)) < 1e-8

    def test_lam_to_zero_limit_k0(self):
        # the transported kernel tends to the d'Alembert value 1/2
        cfg = MorseConfig(lam=1e-8, k=0.0, X=0.0, Xp=0.3)
        got = wave_kernel_fourier(cfg, 1.2)
        assert got.value.real == pytest.approx(0.5, abs=1e-7)

    def test_values_are_real(self):
        for cfg in [CFG_HALF, MorseConfig(1.0, 1.0, 0.0, 0.25), MorseConfig(1.0, 1.5, -0.1, 0.2)]:
            v = wave_kernel_fourier(cfg, 1.4).value
            assert abs(v.imag) < 1e-10 * max(1.0, abs(v.real))

    def test_generic_k_supported(self):
        cfg = MorseConfig(lam=1.0, k=0.37, X=0.0, Xp=0.2)
        v = wave_kernel_fourier(cfg, 1.0)
        assert v.converged

    # (lam, k, X, X', b): the adaptive GK15 values this path once gave, and
    # mpmath at 30 digits of int_0^{pi/2} 2 Re g(Z cos theta) dtheta
    @pytest.mark.parametrize("args, gk, ref", [
        ((8.0, 1.0, 0.0, 0.5, 3.0), -5.45404902340289e-2, -0.054540490234028619901),
        ((20.0, 1.0, 0.0, 0.5, 4.0), 2.85181878133370e-2, 0.028518187813338907463),
    ])
    def test_large_lam_z(self, args, gk, ref):
        # lam Z = 43 and 186: the sum starts from lam Z / 4 intervals
        res = wave_kernel_fourier(MorseConfig(*args[:4]), args[4])
        assert res.converged and res.value.imag == 0.0
        assert abs(res.value - gk) < 1e-12
        assert abs(res.value - ref) <= res.err_estimate
        assert res.n_evals < 250

    def test_exactly_real(self):
        # the fold theta <-> pi - theta pairs conjugate halves: Im is 0, not
        # merely small
        for cfg, b in [(CFG_HALF, 1.4), (MorseConfig(1.3, -1.5, 0.2, -0.3), 2.5),
                       (MorseConfig(0.7, 0.37, -0.4, 0.3), 3.9)]:
            assert wave_kernel_fourier(cfg, b).value.imag == 0.0

    def test_past_the_node_budget(self):
        # lam Z = 1.1e4 needs more nodes than the sum's budget holds: the
        # call returns its last level unconverged instead of raising
        res = wave_kernel_fourier(MorseConfig(2000.0, 1.0, 0.0, 0.5), 3.0)
        assert res.converged is False
        assert res.n_evals <= quad._PERIODIC_MAX_NODES
        assert math.isfinite(res.value.real) and res.err_estimate > 0

    def test_one_sum_reuses_nodes(self):
        # n0 = ceil(lam Z / 4) + 8 endpoint nodes, then each doubling adds
        # its midpoints only: n_evals is n + 1 at the last level n
        cfg = MorseConfig(8.0, 1.0, 0.0, 0.5)
        res = wave_kernel_fourier(cfg, 3.0)
        n0 = math.ceil(8.0 * float(wave_aux_z(cfg, 3.0)) / 4.0) + 8
        assert res.n_evals - 1 in {n0 * 2 ** j for j in range(1, 6)}


class TestResolventClosed:
    def test_k0_bessel_product_reduction(self):
        # closed form equals 2 I_nu(lam y) K_nu(lam y') under nu = i mu
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(1.3))
        for alpha in [0.7, 1.2]:
            got = resolvent_closed(cfg, -1j * alpha)
            expect = 2.0 * specfun.bessel("I", alpha, cfg.lam * cfg.y) \
                * specfun.bessel("K", alpha, cfg.lam * cfg.yp)
            assert relerr(got, expect) < 1e-10

    def test_symmetric_in_positions(self):
        a = resolvent_closed(MorseConfig(1.0, 0.5, -0.2, 0.5), -0.8j)
        b = resolvent_closed(MorseConfig(1.0, 0.5, 0.5, -0.2), -0.8j)
        assert relerr(a, b) < 1e-14

    @pytest.mark.parametrize("k", [-0.5, -1.0])
    def test_negative_k_matches_integral(self, k):
        # the Whittaker index is the signed k; with |k| the k < 0 closed form
        # would return the k > 0 resolvent (0.400 against 0.179 here)
        cfg = MorseConfig(lam=1.0, k=k, X=0.2, Xp=-0.5)
        mu = -1.05j
        integ = resolvent_integral(cfg, mu)
        assert integ.converged
        assert relerr(resolvent_closed(cfg, mu), integ.value) < 1e-10


class TestResolventClosedArray:
    # the heat line of the benchmark's k = 1/2 heat point, and at k = 1 a line
    # and points off it; W's two M terms cancel little at both (kappa < 5)
    @pytest.mark.parametrize("args, mu", [
        ((1.0, 0.5, 0.0, -0.5), np.arange(0.0, 7.0, 0.25) - 0.75j),
        ((1.0, 1.0, 0.0, 0.3), np.concatenate([np.arange(0.0, 7.0, 0.25) - 1.25j,
                                               [0.3 - 0.9j, -2.0 + 0.4j, 1.5 - 2.2j]])),
    ])
    def test_matches_scalar_loop(self, args, mu):
        cfg = MorseConfig(*args)
        got = resolvent_closed(cfg, mu)
        assert got.shape == mu.shape
        for value, m in zip(got, mu):
            assert relerr(value, resolvent_closed(cfg, m)) <= 1e-14

    def test_bound_state_inside_array_raises(self):
        # k = 1: the first pole nu = i mu = k - 1/2 sits at mu = -i/2
        cfg = MorseConfig(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(GammaPole):
            resolvent_closed(cfg, np.array([0.3 - 0.9j, -0.5j, 1.0 - 1.25j]))

    # nu = i mu: nu - k + 1/2 = 0 and -2, 1 + 2 nu = -1 and 0, each the only pole
    @pytest.mark.parametrize("k, mu", [(1.0, -0.5j), (0.3, 2.2j), (0.0, 1j), (0.3, 0.5j)])
    def test_each_gamma_pole_raises_with_log_gamma_message(self, k, mu):
        cfg = MorseConfig(1.0, k, 0.0, 0.3)
        for m in (mu, np.array([0.3 - 0.9j, mu])):
            with pytest.raises(GammaPole, match="log_gamma pole at z="):
                resolvent_closed(cfg, m)

    def test_non_finite_mu_named_before_any_series(self, monkeypatch):
        # with the gamma and Whittaker functions removed, only a check ahead of them passes
        monkeypatch.setattr(specfun, "log_gamma", None)
        monkeypatch.setattr(specfun, "whittaker", None)
        cfg = MorseConfig(1.0, 0.5, 0.0, 0.3)
        for mu in (complex(math.nan, -1.0), np.array([0.3 - 0.9j, complex(math.nan, -1.0)]),
                   np.array([complex(math.inf, -1.0)])):
            with pytest.raises(NonFiniteInput, match="mu="):
                resolvent_closed(cfg, mu)


class TestResolventIntegral:
    def test_diagonal_raises(self):
        with pytest.raises(DiagonalSingularity, match="X != X'"):
            resolvent_integral(MorseConfig(1.0, 0.5, 0.2, 0.2 + 1e-9), -1.3j)

    def test_k0_matches_closed(self):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.3)
        mu = -0.7j
        got = resolvent_integral(cfg, mu)
        expect = resolvent_closed(cfg, mu)
        assert relerr(got.value, expect) < 1e-5

    def test_half_k_matches_closed(self):
        cfg = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=0.3)
        mu = -1.2j
        got = resolvent_integral(cfg, mu)
        expect = resolvent_closed(cfg, mu)
        assert relerr(got.value, expect) < 1e-4

    def test_decay_precondition(self):
        with pytest.raises(ConvergenceViolated):
            resolvent_integral(MorseConfig(1.0, 1.0, 0.0, 0.3), -0.3j)

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("X, Xp", [(0.0, 0.35), (0.35, 0.0)])
    @pytest.mark.parametrize("mu", [-1.2j, 0.4 - 1.1j])
    def test_rotated_contour_matches_closed(self, k, lam, X, Xp, mu):
        cfg = MorseConfig(lam=lam, k=k, X=X, Xp=Xp)
        got = resolvent_integral(cfg, mu)
        assert got.converged
        assert relerr(got.value, resolvent_closed(cfg, mu)) < 1e-10

    def test_converges_near_decay_bound(self):
        # alpha = 0.735 at k = 0, near the decay bound, where the tail decays
        # too slowly for a sweep along the real axis to finish
        cfg = MorseConfig(lam=1.0077535156730204, k=0.0, X=0.1905807548607078,
                          Xp=0.5581692726900779)
        got = resolvent_integral(cfg, -0.735j)
        assert got.converged
        assert relerr(got.value, resolvent_closed(cfg, -0.735j)) < 1e-10

    @pytest.mark.parametrize("Xp", [-0.4, 0.4])
    def test_half_k_phase_continued_where_re_u_is_negative(self, Xp):
        # at complex mu the sum visits x < 0, where u + i(y + y') crosses the
        # negative real axis far out on the contour; the principal-branch
        # phase there misses the closed form
        cfg = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=Xp)
        got = resolvent_integral(cfg, 0.3 - 1.05j)
        assert got.converged
        assert relerr(got.value, resolvent_closed(cfg, 0.3 - 1.05j)) < 1e-10

    # values of the transmutation integral from the GK15 head in asinh(u/d)
    # plus the two rotated tail rays that the hyperbola contour replaced; each
    # also lies within 7e-10 of a 40-digit mpmath closed form
    @pytest.mark.parametrize("args, mu, ref", [
        ((0.1, 0.5, 0.0, 0.3), -0.9j, 0.9236889391783404),
        ((5.0, 1.0, 0.0, 0.3), -1.2j, 0.049118777118445034),
        ((1.0, 0.0, 0.0, 1e-6), -0.9j, 0.7136602655848148),
        ((1.0, 0.5, 0.0, -1e-3), -0.9j, 0.9640675721593809),
        ((1.0, 1.0, 0.0, 3.0), -0.9j, 3.1807047815277225e-08),
        ((1.0, 1.5, -2.0, 2.0), -1.2j, 0.005367313483243926),
        ((1.0, 0.0, 0.0, 0.3), -0.05j, 0.6478498964713352),  # near each decay bound
        ((1.0, 0.5, 0.0, -0.3), -0.05j, 8.085966666788494),
        ((1.0, 1.0, 0.0, 0.3), -0.55j, 9.326032738149909),
        ((1.0, 2.0, 0.0, -0.3), -1.55j, 6.0306243990640205),
        ((1.0, 0.5, 0.0, 0.35), 3 - 0.9j, -0.16188705551454277 - 0.1566432919362594j),
        ((1.0, 0.5, 0.0, 0.35), -8 - 0.9j, -0.0404327248146015 - 0.0802628926815873j),
    ])
    def test_matches_the_three_piece_integral(self, args, mu, ref):
        got = resolvent_integral(MorseConfig(*args), mu)
        assert got.converged
        assert relerr(got.value, ref) < 1e-9

    @pytest.mark.parametrize("args, mu", [((1.0, 0.5, 0.0, 0.35), -0.9j),
                                          ((1.0, 2.0, 0.0, -0.3), -1.7j)])
    def test_real_s_fold_is_the_two_sided_sum(self, args, mu):
        # at real s the fold is 2 Re f(x) on x >= 0; a real part of mu at
        # 1e-200 makes s complex, so the sum takes f(x) + f(-x) on two rows
        cfg = MorseConfig(*args)
        one, two = resolvent_integral(cfg, mu), resolvent_integral(cfg, 1e-200 + mu)
        assert one.converged and two.converged and one.n_evals < two.n_evals <= 2 * one.n_evals
        assert one.value.imag == 0.0 and abs(two.value.imag) < 1e-15 * abs(two.value)
        assert relerr(one.value, two.value) < 1e-14

    def test_unconverged_sum_is_flagged(self, monkeypatch):
        # a profile too noisy for two trapezoid levels to agree runs into the
        # node budget and must come back converged=False
        real_2f1, rng = specfun.gauss_2f1, np.random.default_rng(3)

        def noisy(a, b, c, z):
            return real_2f1(a, b, c, z) * (1.0 + 1e-6 * rng.standard_normal(np.shape(z)))

        monkeypatch.setattr(specfun, "gauss_2f1", noisy)
        assert not resolvent_integral(MorseConfig(1.0, 0.5, 0.0, 0.35), -0.9j).converged

    # two of the slower resolvent points of the benchmark's transverse workload
    @pytest.mark.parametrize("args, mu, n_evals, n_2f1", [((1.0, 0.0, 0.0, 0.35), -0.84j, 98, 2),
                                                          ((1.0, 0.5, 0.0, -0.5), -0.95j, 99, 2)])
    def test_cost_pinned(self, monkeypatch, args, mu, n_evals, n_2f1):
        # each trapezoid call is one 2F1 call, the first holding two levels;
        # at real s each node is one entry of it; the counts do not depend on
        # the machine
        real_2f1, calls = specfun.gauss_2f1, []

        def counted(*a, **kw):
            calls.append(1)
            return real_2f1(*a, **kw)

        monkeypatch.setattr(specfun, "gauss_2f1", counted)
        cfg = MorseConfig(*args)
        res = resolvent_integral(cfg, mu)
        assert res.converged and res.n_evals == n_evals
        assert len(calls) == n_2f1
        assert relerr(res.value, resolvent_closed(cfg, mu)) < 1e-10

    def test_cost_over_the_transverse_strata(self, monkeypatch):
        # the 20 resolvent points of the benchmark's transverse round at
        # (2k, alpha, |X - X'|), X = 0 and X' on alternate sides: 23 2F1
        # calls on 1,129 entries in all, at most 2 calls a point, and 46
        # tables of 100,559 cells, each summed once on its first guess of
        # rows (the log region's guess needs its margin for coefficient
        # growth, the direct tables none); counts, so they do not depend on
        # the machine
        strata = ((0, 0.84, 0.35), (1, 0.95, 0.5), (2, 1.05, 0.4), (0, 1.2, 0.33),
                  (1, 1.25, 0.45)) + tuple(
            (i % 3, 1.3 + 0.0125 * i, 0.35 + 0.1 * (i % 3 + i // 3 % 2) / 2) for i in range(15))
        real_2f1, entries = specfun.gauss_2f1, []
        real_sums, tables = specfun._table_sums, []

        def counted(a, b, c, z):
            entries.append(np.size(z))
            return real_2f1(a, b, c, z)

        def table(terms, head, z, n, terminating=None):
            # a second pass over a table's short entries gets the same terms
            tables.append((terms, n * z.size))
            return real_sums(terms, head, z, n, terminating)

        monkeypatch.setattr(specfun, "gauss_2f1", counted)
        monkeypatch.setattr(specfun, "_table_sums", table)
        for i, (two_k, alpha, dist) in enumerate(strata):
            cfg, calls = MorseConfig(1.0, two_k / 2.0, 0.0, (-1.0) ** i * dist), len(entries)
            got = resolvent_integral(cfg, -1j * alpha)
            assert got.converged and len(entries) - calls <= 2
            assert relerr(got.value, resolvent_closed(cfg, -1j * alpha)) < 5e-14
        assert len(entries) <= 23 and sum(entries) <= 1129
        assert len({id(terms) for terms, _ in tables}) == len(tables)
        assert sum(cells for _, cells in tables) <= 100559

    @pytest.mark.parametrize("lam", [0.1, 5.0])
    def test_coupling_extremes(self, lam):
        # the sum is cut where lam c (cosh x - 1) = 45: far out in x at
        # lam = 0.1, and at lam = 5 the closed form is the less accurate value
        cfg = MorseConfig(lam=lam, k=0.0, X=0.0, Xp=0.3)
        got = resolvent_integral(cfg, -0.9j)
        assert got.converged
        if lam == 5.0:
            # 2 K_nu(lam e^X') I_nu(lam), nu = 0.9, by mpmath at 60 digits; the
            # closed form's W = M + M cancellation at 2 lam e^X' = 13.5 leaves
            # it 1.9e-9 off here, the integral 5e-15 or less
            assert relerr(got.value, 0.02921443113951495857829) < 1e-13
        else:
            assert relerr(got.value, resolvent_closed(cfg, -0.9j)) < 1e-14

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    def test_near_decay_bound(self, k):
        # alpha = 0.55: for k = 1 that is 0.05 above the bound Im mu < -(|k| - 1/2)
        cfg = MorseConfig(lam=1.0, k=k, X=0.0, Xp=0.3)
        got = resolvent_integral(cfg, -0.55j)
        assert got.converged
        assert relerr(got.value, resolvent_closed(cfg, -0.55j)) < 1e-13

    def test_small_coupling_large_k(self):
        cfg = MorseConfig(lam=0.2, k=2.0, X=0.0, Xp=0.5)
        got = resolvent_integral(cfg, -1.8j)
        assert got.converged
        assert relerr(got.value, resolvent_closed(cfg, -1.8j)) < 1e-13

    def test_alpha_0735_probe_point(self):
        # the benchmark's mres_integral.alpha0.735 probe point, near the decay
        # bound at k = 0
        cfg = MorseConfig(lam=1.0077535156730204, k=0.0, X=0.1905807548607078,
                          Xp=0.5581692726900779)
        got = resolvent_integral(cfg, -0.735j)
        assert got.converged
        assert relerr(got.value, resolvent_closed(cfg, -0.735j)) < 1e-13

    def test_nearly_coincident_points(self):
        # d = |y - y'| = 1e-3: the sum runs out to x = 12.1
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.001)
        got = resolvent_integral(cfg, -0.9j)
        assert got.converged
        assert relerr(got.value, resolvent_closed(cfg, -0.9j)) < 1e-13

    def test_support_lower_limit_irrelevant(self):
        # partial transmutation integrals from 0 and from |X-X'| coincide:
        # the wave kernel vanishes identically below its support radius
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.3)
        alpha = 0.9
        nodes, weights = np.polynomial.legendre.leggauss(40)

        def partial(lo, hi):
            total = 0.0
            for plo, phi_ in zip(np.linspace(lo, hi, 60)[:-1], np.linspace(lo, hi, 60)[1:]):
                x = 0.5 * (phi_ - plo) * nodes + 0.5 * (phi_ + plo)
                vals = [math.exp(-alpha * b) * wave_kernel_bessel0(cfg, b)
                        if b >= cfg.rho_m else 0.0 for b in x]
                total += 0.5 * (phi_ - plo) * float(np.dot(weights, vals))
            return total

        b_hi = cfg.rho_m + 4.0
        from_zero = partial(0.0, cfg.rho_m) + partial(cfg.rho_m, b_hi)
        assert partial(0.0, cfg.rho_m) == 0.0  # dead zone contributes nothing
        assert abs(from_zero - partial(cfg.rho_m, b_hi)) < 1e-12


class TestHeatKernel:
    def test_k0_direct_bessel_oracle(self):
        # spec-scale point where the direct b-sweep stays inside the J range
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.3)
        t = 0.5
        got = heat_kernel(cfg, t)

        nodes, weights = np.polynomial.legendre.leggauss(40)
        total = 0.0
        b_max = math.acosh(((29.0 / cfg.lam) ** 2 + (cfg.y + cfg.yp) ** 2)
                           / (4 * cfg.y * cfg.yp))  # keep J args <= 29
        edges = np.linspace(cfg.rho_m, b_max, 120)
        for lo, hi in zip(edges[:-1], edges[1:]):
            x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            vals = [math.exp(-b * b / (4 * t)) / (4 * math.pi * t) ** 1.5
                    * wave_kernel_bessel0(cfg, b) * b for b in x]
            total += 0.5 * (hi - lo) * float(np.dot(weights, vals))
        assert relerr(got.value, total) < 1e-6

    def test_half_k_real(self):
        cfg = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=0.3)
        got = heat_kernel(cfg, 0.8)
        assert abs(got.value.imag) < 1e-8 * abs(got.value.real)

    def test_generic_k_matches_hartman_watson(self):
        cfg = MorseConfig(lam=1.0, k=0.3, X=0.0, Xp=math.log(1.3))
        t = 1.0
        oracle = hartman_watson_heat_oracle(cfg, t)
        hk = heat_kernel(cfg, t)
        assert relerr(oracle.value, hk.value) < 1e-3

    @pytest.mark.parametrize("noise", [0.0, 1e-6])
    def test_resolvent_bookkeeping(self, monkeypatch, noise):
        # n_evals counts the closed resolvents on the line, one array call per
        # trapezoid call, and resolvents too noisy for the halving gap to
        # settle end in converged=False; the noise is drawn in node order
        real, calls = mkernels.resolvent_closed, []
        rng = np.random.default_rng(7)

        def counted(cfg, mu):
            calls.extend(mu)
            return real(cfg, mu) * (1.0 + noise * rng.standard_normal(mu.size))

        monkeypatch.setattr(mkernels, "resolvent_closed", counted)
        got = heat_kernel(MorseConfig(1.0, 0.0, 0.0, 0.3), 0.8)
        assert got.n_evals == len(calls)
        assert got.converged == (noise == 0.0)

    # a long time, a large coupling and a strongly negative k, where the
    # oracle is good to about 1e-12
    @pytest.mark.parametrize("args, t, tol", [((1.0, 0.0, 0.0, 0.3), 3.0, 1e-9),
                                              ((2.0, 0.0, 0.0, 1.2), 1.0, 1e-9),
                                              ((1.0, -3.0, 0.0, 0.3), 3.0, 1e-7)])
    def test_matches_oracle_off_the_suite_grid(self, args, t, tol):
        cfg = MorseConfig(*args)
        got, oracle = heat_kernel(cfg, t), hartman_watson_heat_oracle(cfg, t)
        assert got.converged and oracle.converged
        assert relerr(got.value, oracle.value) < tol
        assert abs(got.value - oracle.value) <= got.err_estimate + oracle.err_estimate

    def test_large_argument_error_is_covered(self):
        # at Morse argument 2 lam e^X' = 20 the two M terms of W cancel and
        # amplify round-off about 1e9-fold; the error estimate must cover it
        cfg = MorseConfig(1.0, 0.0, 0.0, math.log(10.0))
        got, oracle = heat_kernel(cfg, 1.0), hartman_watson_heat_oracle(cfg, 1.0)
        err = abs(got.value - oracle.value)
        assert err <= got.err_estimate + oracle.err_estimate
        assert not got.converged or err <= max(1e-13, 1e-8 * abs(got.value))

    def test_beyond_closed_form_range_raises(self):
        # 2 lam e^X' = 40.2 is past the closed resolvent's series cutoff
        with pytest.raises(HypermorseError):
            heat_kernel(MorseConfig(1.0, 0.0, 2.5, 3.0), 0.5)


class TestHartmanWatsonOracle:
    # the raw xi-integral over [0, sqrt(190 tau)] by mpmath at 40 digits, the
    # same float endpoints and parameters:
    #   mp.quad(lambda x: mp.exp(-x*x/(2*tau) - r*mp.cosh(x)) * mp.sinh(x)
    #           * mp.sin(mp.pi*x/tau), mp.linspace(0, math.sqrt(190*tau), 40))
    @pytest.mark.parametrize("r, tau, ref", [(0.5528, 0.35, 1.453598923022123631288007e-9),
                                             (2.0, 0.5, 5.825509850300051170652472e-4)])
    def test_theta_inner_vs_mpmath(self, r, tau, ref):
        pref = r / math.sqrt(2 * math.pi ** 3 * tau) * math.exp(math.pi ** 2 / (2 * tau))
        got = theta_hw(np.array([r]), tau, 1e-17 * pref)
        # the integrand's own round-off adds up to eps e^{-r} int_0^inf
        # e^{-xi^2/(2 tau)} sinh xi dxi, the floor theta_hw keeps to
        floor = np.finfo(float).eps * math.exp(-r) * math.sqrt(math.pi * tau / 2) \
            * math.exp(tau / 2) * math.erf(math.sqrt(tau / 2))
        assert got.converged
        assert abs(got.value[0] / pref - ref) <= got.err_estimate[0] / pref + floor

    @pytest.mark.parametrize("r, tau", [([0.5, 0.6], 0.5), ([1e-3, 20.0], 1.2)])
    def test_rows_are_the_single_calls(self, r, tau):
        # each row of one array call, its row flag included, is its one-row call
        both = theta_hw(np.array(r), tau, 1e-14)
        for i, ri in enumerate(r):
            row, one = both.row(i), theta_hw(np.array([ri]), tau, 1e-14).row(0)
            assert (row.value, row.err_estimate, row.converged) == \
                (one.value, one.err_estimate, one.converged)

    def test_matches_heat_kernel_k0(self):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(1.3))
        t = 1.0
        oracle = hartman_watson_heat_oracle(cfg, t)
        hk = heat_kernel(cfg, t)
        assert relerr(oracle.value, hk.value) < 1e-4

    def test_matches_heat_kernel_half_k(self):
        cfg = MorseConfig(lam=1.0, k=0.5, X=0.0, Xp=math.log(1.3))
        t = 0.9
        oracle = hartman_watson_heat_oracle(cfg, t)
        hk = heat_kernel(cfg, t)
        assert relerr(oracle.value, hk.value) < 1e-3

    def test_coupling_derivative_consistency(self):
        # the central difference d/d lam at step h matches its Richardson
        # extrapolation from steps h and h/2: the oracle is smooth in the
        # coupling, down to the accuracy of its nested integrals
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.3)
        t = 1.0
        h = 1e-3

        def q(lam):
            return hartman_watson_heat_oracle(MorseConfig(lam, 0.0, 0.0, 0.3), t).value.real

        fd = (q(1.0 + h) - q(1.0 - h)) / (2 * h)
        fd2 = (q(1.0 + h / 2) - q(1.0 - h / 2)) / h
        rich = (4 * fd2 - fd) / 3
        assert relerr(fd, rich) < 1e-4

    def test_long_time_same_sign_small(self):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.3)
        q_heat = heat_kernel(cfg, 3.0).value.real
        q_oracle = hartman_watson_heat_oracle(cfg, 3.0).value.real
        assert q_heat > 0 and q_oracle > 0
        assert q_heat < 0.01 and q_oracle < 0.01

    # the two heat points of the benchmark's transverse workload: (lam, k, X, X'), t
    @pytest.mark.parametrize("args, t, heat_evals, oracle_evals", [((1.0, 0.0, 0.0, 0.4), 0.8, 27, 3601),
                                                                   ((1.0, 0.5, 0.0, -0.5), 1.4, 21, 3894)])
    def test_cost_pinned(self, monkeypatch, args, t, heat_evals, oracle_evals):
        # the outer trapezoid sum makes one theta_hw call per trapezoid call
        # (two levels in the first, one in each later call): here two calls
        # on 31 outer nodes, and the double integral takes 3,601 and 3,894
        # evaluations; the heat kernel's line integral 27 and 21 closed
        # resolvents; the counts do not depend on the machine
        real, inner_evals = mkernels.theta_hw, []

        def theta(r, tau, abs_tol):
            res = real(r, tau, abs_tol)
            inner_evals.append(res.n_evals)
            return res

        monkeypatch.setattr(mkernels, "theta_hw", theta)
        cfg = MorseConfig(*args)
        oracle, heat = hartman_watson_heat_oracle(cfg, t), heat_kernel(cfg, t)
        assert oracle.converged and heat.converged
        assert oracle.n_evals == oracle_evals and heat.n_evals == heat_evals
        # xi in [0, log 45): 16 nodes at h = 1/4, then 15 midpoints at h = 1/8
        assert len(inner_evals) == 2 and oracle.n_evals - sum(inner_evals) == 16 + 15
        assert relerr(oracle.value, heat.value) < 1e-13

    def test_inner_bookkeeping_propagates(self, monkeypatch):
        # one unconverged theta array turns the oracle unconverged, and the
        # inner evaluations are part of its n_evals; the outer nodes are the
        # trapezoid levels' in xi = log u - x0 over [0, log 45) (the left cut,
        # damping e^{-45}, sets the half-width here): h = 1/2 and 1/4 in the
        # first call, then one level of midpoints per call
        real, inner_evals = mkernels.theta_hw, []

        def theta(r, tau, abs_tol):
            res = real(r, tau, abs_tol)
            res.converged = bool(inner_evals)
            inner_evals.append(res.n_evals)
            return res

        monkeypatch.setattr(mkernels, "theta_hw", theta)
        got = hartman_watson_heat_oracle(MorseConfig(1.0, 0.0, 0.0, 0.4), 0.8)
        assert not got.converged
        xi_max = math.log(45.0)
        levels = [len(np.arange(0.0, xi_max, 0.25))] + [
            len(np.arange(h / 2.0, xi_max, h)) for h in 0.25 / 2.0 ** np.arange(len(inner_evals) - 1)]
        assert got.n_evals - sum(inner_evals) == sum(levels)

    def test_pair_at_unit_k(self):
        # k = 1, where the outer weight's growth e^{(2k-1)u} meets theta's decay
        cfg = MorseConfig(1.0, 1.0, 0.0, math.log(1.3))
        oracle, heat = hartman_watson_heat_oracle(cfg, 1.2), heat_kernel(cfg, 1.2)
        assert oracle.converged and heat.converged
        assert relerr(oracle.value, heat.value) <= 1e-12

    def test_right_cut_stays_finite(self):
        # lam (y + y') = 8.6 puts 45 lam (y + y') = 388 past where e^{2ku}
        # overflows at k = 1; the right cut follows the integrand's decay
        cfg = MorseConfig(2.0, 1.0, 0.0, 1.2)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            oracle = hartman_watson_heat_oracle(cfg, 1.0)
        assert oracle.converged
        assert relerr(oracle.value, heat_kernel(cfg, 1.0).value) < 1e-10

    def test_small_coupling(self):
        # lam = 1e-3: r = 2 lam e^{(X+X')/2} / sinh u is small already at
        # u ~ 1, where sinh u is not yet e^u / 2; the right cut must not fall
        # short of the integrand there
        cfg = MorseConfig(1e-3, 0.0, 0.0, 0.3)
        oracle, heat = hartman_watson_heat_oracle(cfg, 1.0), heat_kernel(cfg, 1.0)
        assert oracle.converged and heat.converged
        assert relerr(oracle.value, heat.value) < 1e-12

    def test_round_off_tail_raises(self):
        # k = 2, t = 0.7: theta's round-off floor times the outer weight tops
        # the outer tolerance in the tail, which must raise, not be summed
        with pytest.raises(CancellationLimit, match="round-off"):
            hartman_watson_heat_oracle(MorseConfig(1.0, 2.0, 0.0, 0.5), 0.7)

    def test_large_argument_converges(self):
        # Morse argument 2 lam e^X' = 20, where the heat kernel's W loses
        # digits; the oracle's weights do not.  Reference: mpmath at 40 digits,
        # q = (i / 8 pi^2) mp.quad(f, mp.linspace(-12, 12, 25)) with
        # f(s) = mu e^{-t mu^2} R(mu), mu = s - i c, R the closed resolvent
        # from mp.gamma, mp.whitw and mp.whitm; c = 1/4 and c = 3/4 agree to
        # 35 digits
        cfg = MorseConfig(1.0, 0.0, 0.0, math.log(10.0))
        ref = 5.24097725174855876792657460957e-7
        got = hartman_watson_heat_oracle(cfg, 1.0)
        assert got.converged
        assert abs(got.value - ref) <= got.err_estimate

    @pytest.mark.parametrize("k, t", [(1.0, 0.7), (1.7, 1.0)])
    def test_large_k_ends_visibly(self, k, t):
        # past k = 1 the outer weight grows faster than theta decays, so the
        # tolerance a tail node needs falls below theta's round-off floor.
        # The oracle must still end quickly: converged and right, or
        # converged=False, or CancellationLimit.
        cfg = MorseConfig(lam=1.0, k=k, X=0.0, Xp=math.log(1.3))
        t0 = time.perf_counter()
        try:
            oracle = hartman_watson_heat_oracle(cfg, t)
        except CancellationLimit as exc:
            assert "round-off" in str(exc)
            oracle = None
        assert time.perf_counter() - t0 < 30.0
        if oracle is not None and oracle.converged:
            assert relerr(oracle.value, heat_kernel(cfg, t).value) < 1e-3


class TestSingleProfilePath:
    def test_production_kernels_use_closed_form_profile(self, monkeypatch):
        # every production integrand evaluates the radial wave profile in
        # closed form: no hypergeometric series and no Chebyshev branch
        def forbidden(*args, **kwargs):
            raise AssertionError("production path left the closed-form profile")

        monkeypatch.setattr(specfun, "gauss_2f1", forbidden)
        monkeypatch.setattr(specfun, "chebyshev_t", forbidden)
        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.5, 2.0)
        assert heat_kernel_h(1.0, 0.3, z, zp).converged
        assert resolvent_integral_h(SpectralParam(-0.9j), 0.3, z, zp).converged
        assert wave_kernel_h(0.3, 6.0, z, zp) != 0
        assert wave_kernel_fourier(CFG_HALF, 1.0).converged
        assert heat_kernel(MorseConfig(1.0, 0.3, 0.0, 0.3), 0.8).converged


class TestNonFiniteInput:
    """A NaN or infinite t or b is named at each kernel's entry (MorseConfig names the rest)."""

    @pytest.mark.parametrize("call, named", [
        (lambda: wave_kernel_fourier(CFG_HALF, math.nan), "b=nan"),
        (lambda: wave_kernel_fourier([CFG_HALF, CFG_HALF], [1.0, math.inf]), "b=inf"),
        (lambda: wave_kernel_bessel0(CFG0, math.nan), "b=nan"),
        (lambda: mkernels.wave_kernel_phi1(CFG_HALF, math.inf), "b=inf"),
        (lambda: heat_kernel(CFG_HALF, math.nan), "t=nan"),
        (lambda: hartman_watson_heat_oracle(CFG_HALF, math.inf), "t=inf"),
    ])
    def test_named(self, call, named):
        with pytest.raises(NonFiniteInput, match=named):
            call()
