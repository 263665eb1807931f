"""Tests for the adaptive quadrature module."""
import math

import numpy as np
import pytest

from hypermorse import quad
from hypermorse.errors import TailDivergence
from hypermorse.quad import (
    QuadConfig,
    QuadratureResult,
    integrate_finite,
    integrate_semiinfinite,
    integrate_sqrt_endpoint,
    trapezoid_even,
)

CFG = QuadConfig()


def composite_gauss(f, a, b, panels):
    """Independent fixed-rule oracle: composite 15-node Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(15)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * np.sum(weights * f(x))
    return total


class TestIntegrateFinite:
    def test_constant(self):
        res = integrate_finite(lambda x: np.ones_like(x, dtype=complex), 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_sin(self):
        res = integrate_finite(lambda x: np.sin(x) + 0j, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_vs_fixed_rule_oracle(self):
        f = lambda x: np.exp(-x * x) + 0j
        res = integrate_finite(f, 0.0, 3.0)
        # oracle at two resolutions, the finer one the reference
        coarse = composite_gauss(f, 0.0, 3.0, 8)
        fine = composite_gauss(f, 0.0, 3.0, 16)
        assert abs(coarse - fine) < 1e-13  # oracle self-consistent
        assert abs(res.value - fine) < 1e-12

    def test_error_estimate_honest(self):
        f = lambda x: np.cos(7.3 * x) * np.exp(x) + 0j
        res = integrate_finite(f, 0.0, 2.0)
        exact = composite_gauss(f, 0.0, 2.0, 64)
        assert abs(res.value - exact) <= max(10 * res.err_estimate, 1e-13)

    def test_nonconvergence_flag(self, monkeypatch):
        monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 3)
        cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-300)
        f = lambda x: np.cos(40.0 * x) / np.sqrt(np.abs(x) + 1e-12) + 0j
        res = integrate_finite(f, 0.0, 1.0, cfg)
        assert not res.converged
        assert res.err_estimate > 0

    def test_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0)

    def test_one_integrand_call_per_bisection(self):
        # the first panel's 15 nodes, then both halves of each bisection in one
        # call of 30; the panels and their sums do not change
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.cos(7.3 * x) * np.exp(x) + 0j

        res = integrate_finite(f, 0.0, 2.0)
        assert res.converged and len(sizes) > 2
        assert sizes == [15] + [30] * (len(sizes) - 1)
        assert res.n_evals == sum(sizes)
        exact = composite_gauss(f, 0.0, 2.0, 64)
        assert abs(res.value - exact) <= max(10 * res.err_estimate, 1e-13)

    def test_abs_tol_below_running_sum_rounding(self):
        # a Hartman-Watson theta integrand (r = 0.5528, tau = 0.35) whose first
        # panel error is 0.1 but whose target is 1.45e-18: a running error sum
        # rounds at ~1e-17, so only the exact re-sum from the panels stops it
        # inside the 4,000-split budget (120,015 evaluations)
        r, tau = 0.5528, 0.35

        def f(xi):
            return (np.exp(-xi * xi / (2 * tau) - r * np.cosh(xi)) * np.sinh(xi)
                    * np.sin(math.pi * xi / tau)).astype(complex)

        res = integrate_finite(f, 0.0, math.sqrt(190.0 * tau),
                               QuadConfig(rel_tol=1e-9, abs_tol=8e-20))
        assert res.converged
        assert res.n_evals < 2_000
        # mpmath at 40 digits over the same float endpoints and parameters
        ref = 1.453598923022123631288007e-9
        # err_estimate bounds the quadrature error; the integrand's own
        # round-off adds up to eps e^{-r} int_0^inf e^{-xi^2/(2 tau)} sinh xi
        # dxi (the floor theta_hw keeps to), 5.0e-17 here
        floor = np.finfo(float).eps * math.exp(-r) * math.sqrt(math.pi * tau / 2) \
            * math.exp(tau / 2) * math.erf(math.sqrt(tau / 2))
        assert abs(res.value - ref) <= res.err_estimate + floor


class TestIntegrateSemiinfinite:
    def test_exponential(self):
        res = integrate_semiinfinite(lambda x: np.exp(-x) + 0j, 0.0)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_moment(self):
        res = integrate_semiinfinite(lambda x: x * np.exp(-x * x / 4) + 0j, 0.0)
        assert res.value == pytest.approx(2.0, rel=1e-10)

    def test_shifted_start(self):
        res = integrate_semiinfinite(lambda x: np.exp(-x) + 0j, 2.5)
        assert res.value == pytest.approx(math.exp(-2.5), rel=1e-10)

    def test_tail_divergence_raises(self):
        with pytest.raises(TailDivergence):
            integrate_semiinfinite(lambda x: np.exp(0.2 * x) + 0j, 0.0)


class TestIntegrateSqrtEndpoint:
    def test_exponential_inverse_sqrt(self):
        # int_0^inf e^-b b^(-1/2) db = sqrt(pi)
        res = integrate_sqrt_endpoint(lambda b: np.exp(-b) + 0j, 0.0)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_shifted_endpoint_closed_form(self):
        # int_1^inf e^-b (b-1)^(-1/2) db = e^-1 sqrt(pi)  (b = 1 + u^2)
        res = integrate_sqrt_endpoint(lambda b: np.exp(-b) + 0j, 1.0)
        assert res.value == pytest.approx(math.exp(-1) * math.sqrt(math.pi), rel=1e-10)

    def test_cosh_weight_vs_clipped_oracle(self):
        # int_rho^inf b e^{-b^2/4} (cosh^2(b/2) - cosh^2(rho/2))^(-1/2) db at rho=1.
        # The clipped oracle must start ~1e-13 above rho: the omitted sliver
        # carries ~sqrt(clip) of mass, so a 1e-8 clip alone costs ~1e-4.
        rho = 1.0
        g = lambda b: b * np.exp(-b * b / 4) + 0j
        m = lambda b: np.cosh(b / 2) ** 2
        res = integrate_sqrt_endpoint(g, rho, m=m)

        def full(b):
            return g(b) / np.sqrt(np.cosh(b / 2) ** 2 - np.cosh(rho / 2) ** 2)

        clipped = 0.0 + 0.0j
        edges = [1e-13 * 10 ** j for j in range(14)] + [2.0, 12.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            clipped += composite_gauss(full, rho + lo, rho + hi, 60)
        assert abs(res.value - clipped) / abs(clipped) < 1e-6

    def test_stable_dm_matches_direct(self):
        rho = 0.7
        g = lambda b: np.exp(-b) + 0j
        m = lambda b: np.cosh(b / 2) ** 2
        dm = lambda u: np.sinh((2 * rho + u * u) / 2) * np.sinh(u * u / 2)
        r1 = integrate_sqrt_endpoint(g, rho, m=m)
        r2 = integrate_sqrt_endpoint(g, rho, dm=dm)
        assert abs(r1.value - r2.value) / abs(r2.value) < 1e-9


def _even_rows(*fns):
    """trapezoid_even integrand of one row per function of x."""
    return lambda x, rows: np.array([fns[i](x) for i in rows])


# Integrals with known values through each integrator: |true - value| must lie
# within err_estimate wherever converged=True.  Algebraic tails are left out:
# integrate_semiinfinite's tail allowance is the last panel's magnitude, no
# bound for them until it comes from the observed panel decay ratio.
class TestKnownIntegrals:
    @pytest.mark.parametrize("f, a, b, true", [
        (lambda x: np.exp(-x * x), 0.0, 3.0, math.sqrt(math.pi) / 2 * math.erf(3.0)),
        (lambda x: x * np.sin(20.0 * x), 0.0, math.pi, -math.pi / 20.0),
        (lambda x: np.cos(50.0 * x), 0.0, 1.0, math.sin(50.0) / 50.0),
        (lambda x: np.exp(x) * np.cos(7.3 * x), 0.0, 2.0,
         ((np.exp(2.0 * (1 + 7.3j)) - 1.0) / (1 + 7.3j)).real),
    ])
    def test_finite(self, f, a, b, true):
        res = integrate_finite(lambda x: f(x) + 0j, a, b)
        assert res.converged and abs(res.value - true) <= res.err_estimate

    @pytest.mark.parametrize("f, a, true", [
        (lambda x: np.exp(-x * x), 0.0, math.sqrt(math.pi) / 2),
        (lambda x: np.exp(-x * x), 1.5, math.sqrt(math.pi) / 2 * math.erfc(1.5)),
        (lambda x: np.exp(-x), 0.0, 1.0),
        (lambda x: x * np.exp(-2.0 * x), 0.0, 0.25),
        (lambda x: np.exp(-x) * np.sin(3.0 * x), 0.0, 0.3),
    ])
    def test_semiinfinite(self, f, a, true):
        res = integrate_semiinfinite(lambda x: f(x) + 0j, a)
        assert res.converged and abs(res.value - true) <= res.err_estimate

    @pytest.mark.parametrize("g, a, true", [
        # int_a^inf g(b) (b - a)^{-1/2} db
        (lambda b: np.exp(-b), 1.0, math.sqrt(math.pi) / math.e),
        (lambda b: np.exp(-2.0 * b) * np.cos(3.0 * b), 0.0,
         (math.sqrt(math.pi) / np.sqrt(2.0 - 3.0j)).real),
        (lambda b: np.exp(-b * b), 0.0, math.gamma(0.25) / 2.0),
    ])
    def test_sqrt_endpoint(self, g, a, true):
        res = integrate_sqrt_endpoint(lambda b: g(b) + 0j, a)
        assert res.converged and abs(res.value - true) <= res.err_estimate

    def test_trapezoid_rows(self):
        # int_0^inf of a Gaussian, a Gaussian-damped cosine and sech x (an
        # exponential tail), one trapezoid array; the Gaussian's levels agree
        # to the bit one rounding off sqrt(pi)/2, so its err_estimate must not
        # fall to 0
        rows = _even_rows(lambda x: np.exp(-x * x), lambda x: np.exp(-x * x) * np.cos(5.0 * x),
                          lambda x: 1.0 / np.cosh(x))
        true = [math.sqrt(math.pi) / 2, math.sqrt(math.pi) / 2 * math.exp(-6.25), math.pi / 2]
        res = trapezoid_even(rows, 40.0, [1e-14] * 3, 1e-10)
        assert res.converged and res.n_evals < 3 * 1000
        assert np.all(np.abs(res.value - true) <= res.err_estimate)
        assert abs(res.value[0] - true[0]) > 0

    def test_trapezoid_err_floor_at_zero_noise(self):
        # noise = 0 leaves only the eps |T| floor: still a bound, and no wider
        # than a few roundings
        res = trapezoid_even(_even_rows(lambda x: np.exp(-x * x)), 40.0, [1e-14], 1e-10, 0.0)
        err = abs(res.value[0] - math.sqrt(math.pi) / 2)
        assert res.converged and 0 < err <= res.err_estimate[0] <= 4 * np.finfo(float).eps

    def test_trapezoid_unresolved_row(self):
        # a row too narrow for the node budget leaves the result unconverged
        # while the other row keeps its own value
        rows = _even_rows(lambda x: np.exp(-x * x), lambda x: np.exp(-1e6 * x * x))
        res = trapezoid_even(rows, 6.0, [1e-14, 1e-14], 1e-12)
        assert not res.converged
        assert abs(res.value[0] - math.sqrt(math.pi) / 2) <= res.err_estimate[0]

    def test_trapezoid_one_call_per_level(self):
        # the first call holds levels h0 and h0/2: x = 0 and the multiples of
        # h0, then the odd multiples of h0/2; each later level is one call on
        # its new midpoints only
        calls = []

        def f(x, rows):
            calls.append(x.copy())
            return np.exp(-9.0 * x * x)[None, :]

        res = trapezoid_even(f, 6.0, 1e-14, 1e-12)
        assert res.converged and len(calls) >= 2
        np.testing.assert_array_equal(calls[0], np.concatenate([np.arange(12) * 0.5,
                                                                np.arange(12) * 0.5 + 0.25]))
        for level, x in enumerate(calls[1:], start=2):
            assert np.all(np.abs(x / 0.5 * 2 ** level % 2 - 1) == 0)  # odd multiples of h
        assert res.n_evals == sum(x.size for x in calls)

    def test_trapezoid_budget_counts_the_first_call(self, monkeypatch):
        # the first call's two levels hold 8 nodes on [0, 2): a budget of 8
        # admits it, one of 7 makes no call and leaves the result unconverged
        calls = []

        def f(x, rows):
            calls.append(x.size)
            return np.exp(-x * x)[None, :]

        monkeypatch.setattr(quad, "_TRAP_MAX_NODES", 8)
        res = trapezoid_even(f, 2.0, 1e-14, 1e-12)
        assert calls == [8] and res.n_evals == 8
        monkeypatch.setattr(quad, "_TRAP_MAX_NODES", 7)
        res = trapezoid_even(f, 2.0, 1e-14, 1e-12)
        assert calls == [8] and res.n_evals == 0 and not res.converged


class TestProperties:
    def test_linearity(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            c = rng.normal(size=4)
            f = lambda x: (c[0] * np.sin(x) + c[1] * x * x) + 0j
            g = lambda x: (c[2] * np.exp(-x) + c[3] * np.cos(2 * x)) + 0j
            alpha, beta = rng.normal(size=2)
            combo = lambda x: alpha * f(x) + beta * g(x)
            va = integrate_finite(combo, 0.0, 2.0).value
            vb = alpha * integrate_finite(f, 0.0, 2.0).value + beta * integrate_finite(g, 0.0, 2.0).value
            assert abs(va - vb) < 1e-9 * max(1.0, abs(vb))

    def test_determinism_bit_identical(self):
        f = lambda x: np.exp(-x) * np.cos(3 * x) + 0j
        r1 = integrate_semiinfinite(f, 0.0)
        r2 = integrate_semiinfinite(f, 0.0)
        assert r1.value == r2.value
        assert r1.err_estimate == r2.err_estimate
        assert r1.n_evals == r2.n_evals

    def test_converged_respects_tolerance_invariant(self):
        f = lambda x: np.exp(-x * x) + 0j
        res = integrate_finite(f, 0.0, 3.0, CFG)
        assert res.converged
        assert res.err_estimate <= res.tolerance_bound(CFG)

    def test_invariant_holds_for_cancelling_tail(self):
        # heavy cancellation: |integral| is ~160x smaller than the summed
        # panel magnitudes, so panel-relative accuracy cannot certify the
        # requested relative tolerance and the flag must say so honestly
        f = lambda x: np.exp(-x / 4) * np.cos(10 * x) + 0j
        res = integrate_semiinfinite(f, 0.0, CFG)
        exact = 0.25 / (0.25 ** 2 + 100.0)
        assert not res.converged
        assert res.err_estimate > res.tolerance_bound(CFG)
        # the value itself is still good to the reported estimate
        assert abs(res.value - exact) < 2 * res.err_estimate


class TestQuadConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=-1)
        with pytest.raises(ValueError):
            QuadConfig(abs_tol=0.0)

    def test_result_dataclass(self):
        r = QuadratureResult(1 + 2j, 1e-12, 30, True)
        assert r.value == 1 + 2j
