"""Tests for the trapezoid quadrature module."""
import math

import numpy as np
import pytest

from hypermorse import quad
from hypermorse.quad import (
    QuadratureResult,
    trapezoid_even,
    trapezoid_periodic,
)

EPS = np.finfo(float).eps


def _rows(*fns):
    """Trapezoid integrand of one row per function of x."""
    return lambda x, rows: np.array([fns[i](x) for i in rows])


# Integrals with known values through each sum: |true - value| must lie
# within err_estimate wherever converged=True.
class TestKnownIntegrals:
    # int_0^pi e^{a cos theta} dtheta = pi I_0(a); noise: e^{a cos theta} carries
    # the exponent's round-off, about eps a, on top of its own ulp
    @pytest.mark.parametrize("a, true", [
        (0.5, 3.3410315447358524329), (1.0, 3.9774632605064226373), (2.0, 7.1615284390502566621),
        (5.0, 85.57658120576333456), (20.0, 136842380.49208179562),
        (50.0, 9.2128894235980254559e+20),
    ])
    def test_periodic_bessel_i0(self, a, true):
        res = trapezoid_periodic(_rows(lambda th: np.exp(a * np.cos(th))), math.pi, 4, 1e-14,
                                 1e-12, EPS * (1.0 + a))
        assert res.converged and abs(res.value[0] - true) <= res.err_estimate[0]

    # int_0^pi cos(x cos theta) dtheta = pi J_0(x); the phase x cos theta
    # carries about eps x
    @pytest.mark.parametrize("x, true", [
        (0.1, 3.133743579331014542), (1.0, 2.4039394306344129983), (5.0, -0.55793671206239174539),
        (10.0, -0.77262999085534575677), (20.0, 0.52472345846067714631),
        (30.0, -0.27133302272355981077), (45.5, 0.27701336647828657951),
        (60.0, -0.28736714773680157854),
    ])
    def test_periodic_bessel_j0(self, x, true):
        res = trapezoid_periodic(_rows(lambda th: np.cos(x * np.cos(th))), math.pi, 4, 1e-14,
                                 1e-12, EPS * (1.0 + x))
        assert res.converged and abs(res.value[0] - true) <= res.err_estimate[0]

    def test_trapezoid_rows(self):
        # int_0^inf of a Gaussian, a Gaussian-damped cosine and sech x (an
        # exponential tail), one trapezoid array; the Gaussian's levels agree
        # to the bit one rounding off sqrt(pi)/2, so its err_estimate must not
        # fall to 0
        rows = _rows(lambda x: np.exp(-x * x), lambda x: np.exp(-x * x) * np.cos(5.0 * x),
                     lambda x: 1.0 / np.cosh(x))
        true = [math.sqrt(math.pi) / 2, math.sqrt(math.pi) / 2 * math.exp(-6.25), math.pi / 2]
        res = trapezoid_even(rows, 40.0, [1e-14] * 3, 1e-10)
        assert res.converged and res.n_evals < 3 * 1000
        assert np.all(np.abs(res.value - true) <= res.err_estimate)
        assert abs(res.value[0] - true[0]) > 0

    def test_trapezoid_err_floor_at_zero_noise(self):
        # noise = 0 leaves only the eps |T| floor: still a bound, and no wider
        # than a few roundings
        res = trapezoid_even(_rows(lambda x: np.exp(-x * x)), 40.0, [1e-14], 1e-10, 0.0)
        err = abs(res.value[0] - math.sqrt(math.pi) / 2)
        assert res.converged and 0 < err <= res.err_estimate[0] <= 4 * np.finfo(float).eps

    def test_trapezoid_unresolved_row(self):
        # a row too narrow for the node budget leaves the result unconverged
        # while the other row keeps its own value
        rows = _rows(lambda x: np.exp(-x * x), lambda x: np.exp(-1e6 * x * x))
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


class TestTrapezoidPeriodic:
    def test_one_call_per_level_reuses_nodes(self):
        # the first call holds levels n0 and 2 n0: the n0 + 1 endpoint nodes,
        # then the n0 midpoints; each later call the odd multiples of the new
        # step only
        calls = []

        def f(th, rows):
            calls.append(th.copy())
            return np.exp(np.cos(th))[None, :]

        res = trapezoid_periodic(f, math.pi, 3, 1e-14, 1e-12)
        assert res.converged and len(calls) >= 2
        np.testing.assert_array_equal(calls[0], np.concatenate([np.arange(4) * (math.pi / 3),
                                                                np.arange(1, 6, 2) * (math.pi / 6)]))
        for level, th in enumerate(calls[1:], start=2):
            n = 3 * 2 ** level
            np.testing.assert_array_equal(th, np.arange(1, n, 2) * (math.pi / n))
        assert res.n_evals == sum(th.size for th in calls)

    def test_rows_match_single_row_calls(self):
        # two rows in one call stop on their own: each equals its single-row
        # call bit for bit, and n_evals is the sum over the rows
        fns = (lambda th: np.exp(np.cos(th)), lambda th: np.cos(30.0 * np.cos(th)))
        both = trapezoid_periodic(_rows(*fns), math.pi, 4, [1e-14, 1e-14], 1e-12, 32 * EPS)
        single = [trapezoid_periodic(_rows(fn), math.pi, 4, 1e-14, 1e-12, 32 * EPS) for fn in fns]
        assert both.converged and all(res.converged for res in single)
        assert single[0].n_evals != single[1].n_evals
        assert both.n_evals == sum(res.n_evals for res in single)
        for r, res in enumerate(single):
            assert both.value[r] == res.value[0] and both.err_estimate[r] == res.err_estimate[0]

    def test_abs_tol_per_row(self):
        # one integrand twice, with a loose and a tight abs_tol: the loose row
        # stops sooner, and each row equals its single-row call bit for bit
        fn = lambda th: np.cos(100.0 * np.cos(th))
        both = trapezoid_periodic(_rows(fn, fn), math.pi, 4, [1e-6, 1e-12], 1e-300, 100 * EPS)
        single = [trapezoid_periodic(_rows(fn), math.pi, 4, tol, 1e-300, 100 * EPS)
                  for tol in (1e-6, 1e-12)]
        assert both.converged and single[0].n_evals < single[1].n_evals
        assert both.n_evals == single[0].n_evals + single[1].n_evals
        for r, res in enumerate(single):
            assert both.value[r] == res.value[0] and both.err_estimate[r] == res.err_estimate[0]
        assert both.err_estimate[1] <= 1e-12 < both.err_estimate[0] <= 1e-6

    def test_noise_per_row(self):
        # one integrand twice, each row with its own noise: each row equals its
        # single-row call bit for bit, and the noisy row's floor, above the
        # tolerance, leaves only that row unconverged
        fn = lambda th: np.cos(100.0 * np.cos(th))
        noise = [100 * EPS, 1e-9]
        both = trapezoid_periodic(_rows(fn, fn), math.pi, 4, [1e-14, 1e-14], 1e-12, noise)
        for r, nz in enumerate(noise):
            one = trapezoid_periodic(_rows(fn), math.pi, 4, 1e-14, 1e-12, nz)
            assert both.value[r] == one.value[0] and both.err_estimate[r] == one.err_estimate[0]
            assert both.converged_rows[r] == one.converged
        assert not both.converged and both.converged_rows == [True, False]

    def test_node_budget(self):
        # n0 far past the budget is cut to leave room for one doubling; a
        # result that needs more levels than fit comes back unconverged
        res = trapezoid_periodic(_rows(lambda th: np.cos(1e5 * np.cos(th))), math.pi, 10 ** 9,
                                 1e-14, 1e-12)
        assert not res.converged and res.n_evals <= quad._PERIODIC_MAX_NODES
        assert math.isfinite(res.value[0]) and res.err_estimate[0] > 0

    def test_floor_above_tolerance(self):
        # a round-off floor over the tolerance stops the doubling and leaves
        # converged False, with the floor as err_estimate
        res = trapezoid_periodic(_rows(lambda th: np.exp(np.cos(th))), math.pi, 4, 1e-300, 1e-14,
                                 1e-10)
        assert not res.converged
        assert res.err_estimate[0] >= 1e-10 * abs(res.value[0])
        assert abs(res.value[0] - 3.9774632605064226373) <= res.err_estimate[0]


class TestProperties:
    def test_linearity(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            c = rng.normal(size=4)
            f = lambda x: c[0] * np.exp(-x * x) + c[1] / np.cosh(x)
            g = lambda x: c[2] * np.exp(-2.0 * x * x) * np.cos(x) + c[3] * np.exp(-x * x / 3.0)
            alpha, beta = rng.normal(size=2)
            combo = lambda x: alpha * f(x) + beta * g(x)
            va = trapezoid_even(_rows(combo), 40.0, 1e-14, 1e-12).value[0]
            vf, vg = trapezoid_even(_rows(f, g), 40.0, [1e-14, 1e-14], 1e-12).value
            assert abs(va - (alpha * vf + beta * vg)) < 1e-11 * max(1.0, abs(va))

    def test_determinism_bit_identical(self):
        for run in (lambda: trapezoid_even(_rows(lambda x: np.exp(-x * x) * np.cos(3 * x)),
                                           40.0, 1e-14, 1e-10),
                    lambda: trapezoid_periodic(_rows(lambda th: np.cos(7.0 * np.cos(th))), math.pi,
                                               4, 1e-14, 1e-10)):
            r1, r2 = run(), run()
            assert np.all(r1.value == r2.value)
            assert np.all(r1.err_estimate == r2.err_estimate)
            assert r1.n_evals == r2.n_evals

    def test_converged_respects_tolerance_invariant(self):
        res = trapezoid_even(_rows(lambda x: np.exp(-x * x)), 40.0, quad.ABS_TOL, quad.REL_TOL)
        assert res.converged
        assert res.err_estimate[0] <= max(quad.ABS_TOL, quad.REL_TOL * abs(res.value[0]))
        res = trapezoid_periodic(_rows(lambda th: np.cos(5.0 * np.cos(th))), math.pi, 4,
                                 quad.ABS_TOL, quad.REL_TOL)
        assert res.converged
        assert res.err_estimate[0] <= max(quad.ABS_TOL, quad.REL_TOL * abs(res.value[0]))

    def test_nan_is_not_converged(self):
        # a NaN node stops its row at once and leaves the result unconverged
        # under both rules; the other row keeps its own value
        def nan_at(x0, fn):
            return lambda x: np.where(x == x0, np.nan, fn(x))

        gauss = lambda x: np.exp(-x * x)
        res = trapezoid_even(_rows(gauss, nan_at(0.5, gauss)), 6.0, [1e-14, 1e-14], 1e-12)
        assert not res.converged and math.isnan(res.value[1])
        assert abs(res.value[0] - math.sqrt(math.pi) / 2) <= res.err_estimate[0]
        res = trapezoid_periodic(_rows(nan_at(0.0, np.cos)), 3.0, 4, 1e-14, 1e-12)
        assert not res.converged and math.isnan(res.value[0]) and res.n_evals == 9

    def test_nan_row_leaves_other_rows_converged(self):
        # each row's flag is the loop's own rule on that row: a NaN row marks
        # the result unconverged but none of its neighbours
        gauss = lambda x: np.exp(-x * x)
        res = trapezoid_even(_rows(gauss, lambda x: np.full_like(x, np.nan), gauss), 6.0,
                             [1e-14] * 3, 1e-12)
        assert not res.converged and math.isnan(res.value[1])
        assert res.converged_rows == [True, False, True]
        single = trapezoid_even(_rows(gauss), 6.0, 1e-14, 1e-12)
        assert res.value[0] == res.value[2] == single.value[0]

    def test_invariant_holds_under_cancellation(self):
        # int_0^inf e^{-x^2} cos(10 x) dx = (sqrt(pi)/2) e^{-25} is ~1e-11 of
        # the summed |f|: the round-off of the cosine's phase (noise 10 eps)
        # cannot certify rel_tol 1e-10, and the flag must say so honestly
        exact = 1.2307869792307557085e-11
        res = trapezoid_even(_rows(lambda x: np.exp(-x * x) * np.cos(10.0 * x)), 40.0,
                             1e-300, 1e-10, 10.0 * EPS)
        assert not res.converged
        assert res.err_estimate[0] > 1e-10 * abs(res.value[0])
        # the value itself is still good to the reported estimate
        assert abs(res.value[0] - exact) < res.err_estimate[0]


class TestQuadratureResult:
    def test_result_dataclass(self):
        r = QuadratureResult(1 + 2j, 1e-12, 30, True)
        assert r.value == 1 + 2j
