"""Tests for the hyperbolic-plane kernel module."""
import cmath
import math

import numpy as np
import pytest

from hypermorse import quad, specfun
from hypermorse.errors import (
    ConvergenceViolated,
    DiagonalSingularity,
    GammaPole,
    NonFiniteInput,
    NotConverged,
    OutsideSupport,
    UnsupportedK,
)
from hypermorse.geometry import HalfPlanePoint, dist_halfplane, magnetic_phase_halfplane
from hypermorse.harness import WAVE_FORMS, wave_form_radial
from hypermorse.hkernels import (
    SpectralParam,
    heat_kernel,
    resolvent_closed,
    resolvent_integral,
    wave_kernel,
    wave_kernel_radial,
)


def relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


Z1 = HalfPlanePoint(0.0, 1.0)
Z2 = HalfPlanePoint(0.5, 2.0)


def form_kernel(form, k, b, z, zp):
    """The wave kernel through one of the harness's reference forms, phase included."""
    radial = wave_form_radial(form, k, np.array([b]), dist_halfplane(z, zp))
    return magnetic_phase_halfplane(k, z, zp) * complex(radial[0])


class TestSpectralParam:
    def test_mappings(self):
        # one mapping, s = 1/2 + i mu; the rejected ones live in the harness
        # calibration (TestCalibration::test_mapping_candidates)
        for mu in (-0.8j, 0.3 - 1.1j):
            assert SpectralParam(mu).s == 0.5 + 1j * mu


class TestWaveKernel:
    def test_zero_below_support(self):
        assert wave_kernel(1.0, 0.1, Z1, Z2) == 0.0

    def test_raises_on_support_edge(self):
        rho = dist_halfplane(Z1, Z2)
        with pytest.raises(OutsideSupport):
            wave_kernel(1.0, rho, Z1, Z2)
        for b in (rho, np.array([rho + 1.0, 0.5 * rho])):
            with pytest.raises(OutsideSupport, match="needs b > rho"):
                wave_kernel_radial(1.0, b, rho)

    def test_k0_closed_form(self):
        # k=0: W = (1/2pi) (cosh^2 b/2 - cosh^2 rho/2)^(-1/2)
        rho = dist_halfplane(Z1, Z2)
        b = rho + 1.3
        expect = 1.0 / (2 * math.pi * math.sqrt(math.cosh(b / 2) ** 2 - math.cosh(rho / 2) ** 2))
        assert wave_kernel(0.0, b, Z1, Z2) == pytest.approx(expect, rel=1e-12)
        assert form_kernel("baseline", 0.0, b, Z1, Z2) == pytest.approx(expect, rel=1e-12)

    def test_half_k_chebyshev_value(self):
        # k=1/2, points on the y axis (phase = 1), rho = 1, b = 2:
        # W = (1/2pi) (cosh^2 1 - cosh^2 0.5)^(-1/2) * cosh(1)/cosh(0.5)
        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.0, math.e)
        assert dist_halfplane(z, zp) == pytest.approx(1.0, rel=1e-14)
        val = form_kernel("iii", 0.5, 2.0, z, zp)
        expect = (math.cosh(1.0) / math.cosh(0.5)) / (
            2 * math.pi * math.sqrt(math.cosh(1.0) ** 2 - math.cosh(0.5) ** 2))
        assert val.real == pytest.approx(expect, rel=1e-12)
        assert abs(val.imag) < 1e-15

    def test_forms_agree_at_spec_point(self):
        # k=1, b=2.5, rho=0.8: all five representations agree
        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.0, math.exp(0.8))
        vals = [form_kernel(f, 1.0, 2.5, z, zp) for f in WAVE_FORMS]
        for v in vals[1:]:
            assert relerr(v, vals[0]) < 1e-11

    def test_forms_agree_generic_phase(self):
        vals = [form_kernel(f, 1.5, 2.2, Z1, Z2) for f in WAVE_FORMS]
        for v in vals[1:]:
            assert relerr(v, vals[0]) < 1e-10

    def test_auto_generic_k_far_from_support_edge(self):
        # at b = 6 the baseline series no longer converges; the production
        # closed form must still match the quadratic-transformation form "i"
        got = wave_kernel(0.3, 6.0, Z1, Z2)
        assert relerr(got, form_kernel("i", 0.3, 6.0, Z1, Z2)) < 1e-12

    def test_discrete_forms_rejected_for_generic_k(self):
        with pytest.raises(UnsupportedK):
            form_kernel("iii", 0.3, 2.0, Z1, Z2)

    def test_phase_conjugation(self):
        b = 2.4
        for k in [0.5, 1.0]:
            assert wave_kernel(-k, b, Z1, Z2) == pytest.approx(
                wave_kernel(k, b, Z1, Z2).conjugate(), rel=1e-12)

    def test_radial_vectorized_matches_scalar(self):
        rho = 0.9
        bs = np.array([1.2, 2.0, 3.5])
        vec = wave_kernel_radial(1.0, bs, rho)
        for b, v in zip(bs, vec):
            assert relerr(v, wave_kernel_radial(1.0, float(b), rho)) < 1e-14


class TestResolventClosed:
    def test_k0_free_kernel_self_consistency(self):
        # k -> 0 reduces to the free kernel formula evaluated directly
        sp = SpectralParam(-1j * (1.3 - 0.5))
        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(1.0, 2.0)
        got = resolvent_closed(sp, 0.0, z, zp)
        c2 = ((0 - 1) ** 2 + (1 + 2) ** 2) / (4 * 1 * 2)
        s = 1.3
        pref = cmath.exp(2 * specfun.log_gamma(s) - specfun.log_gamma(2 * s)) / (4 * math.pi)
        expect = pref * c2 ** (-s) * specfun.gauss_2f1(s, s, 2 * s, 1 / c2)
        assert relerr(got, expect) < 1e-13

    def test_hermitian_symmetry_real_s(self):
        sp = SpectralParam(-1j * (1.4 - 0.5))
        a = resolvent_closed(sp, 1.0, Z1, Z2)
        b = resolvent_closed(sp, 1.0, Z2, Z1)
        assert relerr(a, b.conjugate()) < 1e-12

    def test_diagonal_raises(self):
        with pytest.raises(DiagonalSingularity):
            resolvent_closed(SpectralParam(-1j * (1.2 - 0.5)), 0.5, Z1, Z1)

    def test_gamma_pole_raises(self):
        # s - k = 0 is a Landau-level pole
        sp = SpectralParam(-1j * (1.0 - 0.5))
        with pytest.raises(GammaPole):
            resolvent_closed(sp, 1.0, Z1, Z2)

    # s = 1/2 + i mu: s - k = -1, s + k = -2, 2s = -1 and 2s = 0, each the only pole
    @pytest.mark.parametrize("k, mu", [(0.3, 1.2j), (0.3, 2.8j), (0.3, 1j), (0.3, 0.5j)])
    def test_each_gamma_pole_raises_with_log_gamma_message(self, k, mu):
        with pytest.raises(GammaPole, match="log_gamma pole at z="):
            resolvent_closed(SpectralParam(mu), k, Z1, Z2)

    def test_gamma_prefactor_even_in_k(self):
        sp = SpectralParam(-1j * (1.45 - 0.5))
        a = resolvent_closed(sp, 0.75, Z1, Z2)
        b = resolvent_closed(sp, -0.75, Z1, Z2)
        assert relerr(a, b.conjugate()) < 1e-12


class TestResolventIntegral:
    def test_diagonal_raises(self):
        with pytest.raises(DiagonalSingularity, match="z != z'"):
            resolvent_integral(SpectralParam(-0.8j), 0.0, Z1, HalfPlanePoint(0.0, 1.0 + 1e-9))

    def test_k0_matches_closed(self):
        sp = SpectralParam(-0.8j)
        got = resolvent_integral(sp, 0.0, Z1, Z2)
        expect = resolvent_closed(sp, 0.0, Z1, Z2)
        assert got.converged
        assert relerr(got.value, expect) < 1e-8

    def test_k1_matches_closed(self):
        sp = SpectralParam(-1.5j)
        got = resolvent_integral(sp, 1.0, Z1, Z2)
        expect = resolvent_closed(sp, 1.0, Z1, Z2)
        assert relerr(got.value, expect) < 1e-6

    @pytest.mark.parametrize("k, mu", [(1.0, -0.7j), (1.5, -1.2j), (2.0, -1.8j),
                                       (1.5, 0.14 - 1.44j)])
    def test_no_overflow_out_to_the_cut(self, k, mu):
        # slowly decaying integrands, r = -Im mu - |k| + 1/2 from 0.2 to 0.44:
        # the sum runs out to b ~ 200 and must come back finite and converged
        z, zp = HalfPlanePoint(-0.52, 1.22), HalfPlanePoint(0.73, 1.13)
        got = resolvent_integral(SpectralParam(mu), k, z, zp)
        assert got.converged
        assert relerr(got.value, resolvent_closed(SpectralParam(mu), k, z, zp)) < 1e-10

    def test_slow_decay_large_k(self):
        # r = -Im mu - |k| + 1/2 = 0.05: the cut sits at b ~ 800, where the
        # profile cosh(2|k| arccosh C) ~ e^{|k| b} alone overflows
        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.1, 1.05)
        got = resolvent_integral(SpectralParam(-1.55j), 2.0, z, zp)
        assert got.converged
        assert relerr(got.value, resolvent_closed(SpectralParam(-1.55j), 2.0, z, zp)) < 1e-10

    def test_near_the_diagonal(self):
        # rho = 1e-3: the edge factor's branch points sit at u = +-0.045 i, and
        # the sum in x, u = g sinh(x / 4g), still takes few nodes
        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.0, 1.001)
        got = resolvent_integral(SpectralParam(-0.9j), 0.0, z, zp)
        assert got.converged and got.n_evals < 200
        assert relerr(got.value, resolvent_closed(SpectralParam(-0.9j), 0.0, z, zp)) < 1e-10

    def test_decay_precondition_enforced(self):
        with pytest.raises(ConvergenceViolated):
            resolvent_integral(SpectralParam(-0.3j), 1.0, Z1, Z2)  # needs Im mu < -0.5
        with pytest.raises(ConvergenceViolated):
            resolvent_integral(SpectralParam(0.5 + 0.1j), 0.0, Z1, Z2)

    def test_linear_in_prefactor(self):
        # the transmutation value is linear in its constant prefactor: the
        # same integral assembled with a quarter prefactor is half the value,
        # and the calibrated 1/2 (with the phase) gives the closed form.  The
        # integral is one trapezoid sum in u, b = rho + u^2, whose integrand
        # 2u W_rad(b) e^{-i mu b} is even and analytic in u
        sp, k = SpectralParam(-0.9j), 0.5
        rho = dist_halfplane(Z1, Z2)
        ch = math.cosh(rho / 2)

        def rows(u, idx):
            w = u * u / 2
            b = rho + u * u
            # 2u / sqrt(sinh(rho + w) sinh(w)), sinh(w)/w -> 1 at u = 0
            shc = np.where(w > 0, np.sinh(w) / np.where(w > 0, w, 1.0), 1.0)
            edge = 2.0 / np.sqrt(np.sinh(rho + w) * shc / 2)
            vals = edge * np.cosh(2 * k * np.arccosh(np.maximum(np.cosh(b / 2) / ch, 1.0))) \
                / (2 * math.pi) * np.exp(-1j * sp.mu * b)
            return np.stack([vals.real, vals.imag])[idx]

        def assemble(prefactor):
            res = quad.trapezoid_even(rows, 12.0, [1e-15, 1e-15], 1e-12)
            assert res.converged
            return prefactor * complex(*res.value)

        assert relerr(assemble(0.25), 0.5 * assemble(0.5)) < 1e-13
        closed = resolvent_closed(sp, k, Z1, Z2)
        assert relerr(assemble(0.5) * magnetic_phase_halfplane(k, Z1, Z2), closed) < 1e-10

    def test_support_insensitivity(self):
        # extending the lower limit below rho adds nothing: the kernel is zero
        # there, so the integral from rho (as the op takes it) is the one over
        # [0, inf).  Reference: mpmath at 30 digits of
        # (1/2) int_rho^inf e^{-b} / (2 pi sqrt(cosh^2(b/2) - cosh^2(rho/2))) db
        # in b = rho + u^2
        rho = dist_halfplane(Z1, Z2)
        for b in np.linspace(0.0, rho, 6, endpoint=False):
            assert wave_kernel(0.0, float(b), Z1, Z2) == 0.0
        res = resolvent_integral(SpectralParam(-1.0j), 0.0, Z1, Z2)
        assert res.converged
        assert relerr(res.value, 0.085913818846404776697) < 1e-11


class TestHeatKernel:
    def test_list_rows_are_the_single_calls(self):
        zps = [Z2, HalfPlanePoint(1.5, 0.7), HalfPlanePoint(-0.2, 1.3)]
        res = heat_kernel(0.8, 0.5, [Z1] * 3, zps)
        assert res.converged is True and res.converged_rows == [True] * 3
        for i, zp in enumerate(zps):
            one, row = heat_kernel(0.8, 0.5, Z1, zp), res.row(i)
            assert (row.value, row.err_estimate, row.converged) == (one.value, one.err_estimate, True)
            assert type(one.value) is complex

    def test_positive_at_k0(self):
        for t in [0.3, 0.8]:
            for zp in [Z2, HalfPlanePoint(1.5, 0.7)]:
                res = heat_kernel(t, 0.0, Z1, zp)
                assert res.value.real > 0
                assert abs(res.value.imag) < 1e-12 * res.value.real

    def test_clipped_oracle_k0(self):
        t, rho = 0.5, 1.0
        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.0, math.e)
        res = heat_kernel(t, 0.0, z, zp)

        def full(b):
            S = np.cosh(b / 2) ** 2 - math.cosh(rho / 2) ** 2
            return np.exp(-b * b / (4 * t)) / (4 * math.pi * t) ** 1.5 \
                / (2 * math.pi * np.sqrt(S)) * b

        nodes, weights = np.polynomial.legendre.leggauss(40)
        manual = 0.0
        edges = [rho + 1e-13 * 10 ** j for j in range(14)] + [rho + 2.0, rho + 12.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            manual += 0.5 * (hi - lo) * np.sum(weights * full(x))
        assert relerr(res.value, manual) < 1e-6

    def test_symmetry_conjugation(self):
        t = 0.6
        for k in [0.5, 1.0]:
            a = heat_kernel(t, k, Z1, Z2).value
            b = heat_kernel(t, k, Z2, Z1).value
            assert relerr(a, b.conjugate()) < 1e-10

    def test_sign_flip_conjugates(self):
        t = 0.6
        a = heat_kernel(t, 1.0, Z1, Z2).value
        b = heat_kernel(t, -1.0, Z1, Z2).value
        assert relerr(a, b.conjugate()) < 1e-10

    def test_algebraic_rewrite_invariance(self):
        # cosh^2(b/2) - cosh^2(rho/2) = (cosh b - cosh rho)/2: identical
        # pointwise where both forms are stable, and the integral built on
        # the rewritten form reproduces the kernel value
        t, rho = 0.5, 0.8
        bs = np.linspace(rho + 0.05, rho + 6.0, 40)
        s1 = np.cosh(bs / 2) ** 2 - math.cosh(rho / 2) ** 2
        s2 = (np.cosh(bs) - math.cosh(rho)) / 2.0
        np.testing.assert_allclose(s1, s2, rtol=1e-12)

        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.0, math.exp(rho))
        res = heat_kernel(t, 0.0, z, zp)

        def rewritten(b):
            S = (np.cosh(b) - math.cosh(rho)) / 2.0
            return np.exp(-b * b / (4 * t)) / (4 * math.pi * t) ** 1.5 \
                / (2 * math.pi * np.sqrt(S)) * b

        nodes, weights = np.polynomial.legendre.leggauss(40)
        manual = 0.0
        edges = [rho + 1e-13 * 10 ** j for j in range(14)] + [rho + 2.0, rho + 12.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            manual += 0.5 * (hi - lo) * np.sum(weights * rewritten(x))
        assert relerr(res.value, manual) < 1e-6

    def test_coincident_points_long_time(self):
        # z = z', k = 1, t = 10.  Reference: mpmath at 30 digits,
        # mp.quad of e^{-b^2/4t} / (4 pi t)^{3/2} * cosh(b) / (2 pi) * b / sinh(b/2)
        # over [0, inf) (the rho = 0 kernel, whose profile is cosh(b))
        z = HalfPlanePoint(0.2, 1.3)
        res = heat_kernel(10.0, 1.0, z, z)
        assert res.converged
        assert relerr(res.value, 0.1551053670872055124) < 1e-12

    def test_far_tail_where_cosh_overflows(self):
        # k = 2, t = 10: the sweep passes b ~ 1420, where cosh(b/2) overflows
        # while the Gaussian weight is already 0.  Reference: mpmath at 30
        # digits, mp.quad in b = rho + u^2 over u in [0, 14] with the T_4
        # profile and the principal-branch phase
        res = heat_kernel(10.0, 2.0, HalfPlanePoint(0.2, 1.3), HalfPlanePoint(0.25, 1.3))
        assert res.converged
        assert relerr(res.value, 223743462.3592858228 - 17242929.11725072418j) < 1e-12

    # z = (0, 1), z' = (0, y'), t = 1.  References: mpmath at 40 digits, mp.quad
    # in b = rho + u^2 of e^{-b^2/4} / (4 pi)^{3/2} cosh(2|k| arccosh C)
    # b 2u / (2 pi sqrt(sinh((b + rho)/2) sinh(u^2/2))), rho = log y' exactly
    # (the phase is 1 on a vertical line)
    @pytest.mark.parametrize("k, yp, ref", [
        (0.0, 1 + 1e-7, 0.01175794894478977012628),  # rho ~ 1e-7
        (1.0, 1 + 1e-7, 0.02802032082549569175011),
        (0.0, 1.0, 0.01175794894478980883668),  # rho = 0
        (0.5, 1.0, 0.01460283713464530767925),
        (1.0, 1.0, 0.0280203208254958005113),
    ])
    def test_near_and_on_the_diagonal(self, k, yp, ref):
        res = heat_kernel(1.0, k, HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.0, yp))
        assert res.converged
        assert abs(res.value - ref) <= max(res.err_estimate, 1e-13 * abs(ref))
        assert relerr(res.value, ref) < 1e-12

    def test_diagonal_is_the_limit_of_the_same_sum(self):
        # rho = 0 takes the sum every rho takes: the values and node counts
        # run continuously into it
        z = HalfPlanePoint(0.3, 1.2)
        on = heat_kernel(0.8, 0.5, z, z)
        for d in (1e-12, 1e-9, 1e-6):
            near = heat_kernel(0.8, 0.5, z, HalfPlanePoint(0.3, 1.2 * (1 + d)))
            assert near.n_evals == on.n_evals
            assert relerr(near.value, on.value) < 1e-14 + d

    def test_cost(self):
        # one trapezoid sum of a few dozen nodes across the grid_sweep range
        for t, k in ((0.5, 0.0), (1.0, 0.5), (2.0, 1.0)):
            res = heat_kernel(t, k, Z1, Z2)
            assert res.converged and res.n_evals < 100

    def test_past_the_node_budget_raises(self):
        # k = 2, t = 50: the sum reaches s ~ 327, more nodes than the
        # trapezoid budget holds; the call names that limit instead of
        # returning a value it could not compute
        with pytest.raises(NotConverged, match="node|budget"):
            heat_kernel(50.0, 2.0, Z1, HalfPlanePoint(0.3, 1.0))

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 0.0, Z1, Z2)


class TestNonFiniteInput:
    """A NaN or infinite t, k or b is named at each kernel's entry."""

    @pytest.mark.parametrize("call, named", [
        (lambda: heat_kernel(0.8, math.nan, Z1, Z2), "k=nan"),
        (lambda: heat_kernel(math.inf, 0.5, Z1, Z2), "t=inf"),
        (lambda: heat_kernel(math.nan, 0.5, [Z1, Z1], [Z2, Z2]), "t=nan"),  # the list form
        (lambda: wave_kernel(0.5, math.nan, Z1, Z2), "b=nan"),
        (lambda: wave_kernel(math.nan, 0.1, Z1, Z2), "k=nan"),  # b < rho would return 0
        (lambda: wave_kernel_radial(math.nan, 2.0, 0.5), "k=nan"),
        (lambda: wave_kernel_radial(0.5, np.array([2.0, math.inf]), 0.5), "b="),
        (lambda: resolvent_closed(SpectralParam(-0.9j), math.nan, Z1, Z2), "k=nan"),
        (lambda: resolvent_integral(SpectralParam(-0.9j), math.inf, Z1, Z2), "k=inf"),
    ])
    def test_named(self, call, named):
        with pytest.raises(NonFiniteInput, match=named):
            call()
