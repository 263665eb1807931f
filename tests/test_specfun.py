"""Tests for the special-function module."""
import cmath
import math

import numpy as np
import pytest

from hypermorse import hkernels, mkernels, quad, specfun
from hypermorse.geometry import HalfPlanePoint
from hypermorse.errors import (
    DomainError,
    IntegerTwoMuUnsupported,
    LogarithmicSingularity,
    NonFiniteInput,
    NotConverged,
    OutsideConvergenceRegion,
    ParameterPole,
    PoleAtNonPositiveInteger,
    SeriesNonConvergence,
)
from hypermorse.specfun import (
    bessel,
    chebyshev_t,
    gauss_2f1,
    humbert_phi1,
    kummer_1f1,
    log_gamma,
    whittaker,
)


def relerr(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_five(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_one_plus_i_frozen(self):
        # 30-digit reference computed with an independent arbitrary-precision tool
        ref = complex(-0.650923199301856338885216857886,
                      -0.301640320467533197887531623147)
        assert relerr(log_gamma(1 + 1j), ref) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleAtNonPositiveInteger):
            log_gamma(-3.0)

    def test_recurrence_on_complex_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            z = complex(rng.uniform(-3, 6), rng.uniform(-4, 4))
            if abs(z.imag) < 0.1 and z.real < 0.6:
                continue  # keep away from the pole line
            lhs = cmath.exp(log_gamma(z + 1) - log_gamma(z))
            assert relerr(lhs, z) < 1e-12

    def test_reflection_region_value(self):
        # Gamma recovered by exponentiation across the reflection boundary
        z = complex(-1.5, 0.4)
        prod = cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1 - z))
        assert relerr(prod, math.pi / cmath.sin(math.pi * z)) < 1e-12


class TestLogGammaArray:
    """An ndarray z: the scalar's lgamma, Lanczos and reflection as NumPy expressions."""

    def test_matches_scalar_in_all_quadrants(self):
        rng = np.random.default_rng(11)
        re = np.concatenate([rng.uniform(-9.0, 0.5, 200), rng.uniform(0.5, 9.0, 200)])
        z = re + 1j * rng.uniform(-9.0, 9.0, 400) * rng.choice([1e-3, 1.0], 400)
        z = np.concatenate([z, rng.uniform(0.01, 9.0, 20), rng.uniform(-9.0, 0.5, 20) + 0.5])
        got = log_gamma(z)
        want = np.array([log_gamma(complex(v)) for v in z])
        assert got.shape == z.shape and got.dtype == complex
        assert {(v.real < 0.5, v.real < 0, v.imag < 0) for v in z} >= {
            (a, b, c) for a, b in ((True, True), (True, False), (False, False)) for c in (True, False)}
        # a few ulps of the value or of 1, whichever is larger
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * np.maximum(np.abs(want), 1.0))

    def test_positive_axis_is_the_c_library_lgamma(self):
        x = np.array([0.25, 1.0, 3.5, 170.5])
        assert np.array_equal(log_gamma(x), [math.lgamma(v) for v in x])

    def test_pole_inside_array_raises(self):
        with pytest.raises(PoleAtNonPositiveInteger, match="-2"):
            log_gamma(np.array([1.5, 0.3 + 1j, -2.0, -3.0]))


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.3, 1.7, 2.2, 0.0) == 1.0

    def test_chebyshev_identity_point(self):
        # F(-2, 2, 1/2, x) = T_2(1 - 2x) at x = 0.25
        assert gauss_2f1(-2, 2, 0.5, 0.25) == pytest.approx(-0.5, abs=1e-14)

    def test_log_closed_form(self):
        # F(1,1,2,z) = -ln(1-z)/z, from the direct series (z = 0.5) into the
        # logarithmic region |1 - z| < 0.3
        for z in (0.5, 0.75, 0.99, 0.999999, 0.9 + 0.1j):
            assert gauss_2f1(1, 1, 2, z) == pytest.approx(-cmath.log(1 - z) / z, rel=1e-13)

    def test_pfaff_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a, b, c = rng.uniform(0.2, 2.5, size=3)
            z = rng.uniform(-0.7, 0.7)
            direct = gauss_2f1(a, b, c, z)
            pfaff = (1 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1))
            assert relerr(direct, pfaff) < 1e-10

    def test_large_negative_argument(self):
        # F(1/2, -1/2, 1/2, z) = (1 - z)^(1/2) exactly
        z = -24.0
        assert gauss_2f1(0.5, -0.5, 0.5, z) == pytest.approx(math.sqrt(1 - z), rel=1e-12)

    def test_c_pole_raises(self):
        with pytest.raises(ParameterPole):
            gauss_2f1(0.4, 0.9, -2.0, 0.3)

    def test_terminating_beats_c_pole(self):
        # a = -1 terminates before (c)_n vanishes
        val = gauss_2f1(-1, 2.0, -3.0, 0.5)
        assert val == pytest.approx(1 + (-1) * 2.0 / (-3.0) * 0.5)

    def test_unreliable_region_raises(self):
        with pytest.raises(SeriesNonConvergence):
            gauss_2f1(0.4, 0.9, 1.7, 0.995)

    def test_unit_argument_raises_typed(self):
        # c != a + b at z = 1: a scalar raises what an array does, not a
        # ZeroDivisionError from the Pfaff test's z / (z - 1)
        with pytest.raises(SeriesNonConvergence):
            gauss_2f1(0.3, 0.7, 1.6, 1.0)
        with pytest.raises(SeriesNonConvergence):
            gauss_2f1(0.3, 0.7, 1.6, np.array([0.5, 1.0]))


def _direct_series(a, b, c, z):
    return specfun._direct_group(complex(a), complex(b), complex(c), complex(z), None)


def _in_log_region(a, b, c, z):
    """gauss_2f1's logarithmic-region test, at a scalar z or elementwise."""
    a, b, c = complex(a), complex(b), complex(c)
    gap = np.abs(1 - np.asarray(z, dtype=complex))
    return (abs(c - a - b) <= 9e-16 * max(abs(a), abs(b), abs(c))) & (gap < 0.3) \
        & (gap * abs(a * b) < 2.0)


class TestGauss2F1LogRegion:
    """c = a + b near z = 1: the logarithmic connection DLMF 15.8.10."""

    def test_digamma_known_values(self):
        euler = 0.5772156649015329
        assert relerr(specfun._digamma(1.0), -euler) < 1e-15
        assert relerr(specfun._digamma(0.5), -euler - 2 * math.log(2)) < 1e-15
        assert relerr(specfun._digamma(7.0), sum(1 / j for j in range(1, 7)) - euler) < 1e-15
        for y in (0.3, 2.0, 9.0, 25.0):
            # Im psi(1/2 + iy) = (pi/2) tanh(pi y)  (DLMF 5.4.17)
            expect = math.pi / 2 * math.tanh(math.pi * y)
            assert relerr(specfun._digamma(0.5 + 1j * y).imag, expect) < 1e-14
        # recurrence across the switch to the asymptotic series
        for x in (-3.7 + 0.2j, 2.5 - 4j, 9.99 + 0j):
            assert abs(specfun._digamma(x + 1) - specfun._digamma(x) - 1 / x) < 1e-14

    def test_z_one_raises(self):
        with pytest.raises(LogarithmicSingularity):
            gauss_2f1(0.7, 1.1, 1.8, 1.0)
        s = 0.5 + 1.3 + 0j  # resolvent parameters s -+ |k|, 2s
        with pytest.raises(LogarithmicSingularity):
            gauss_2f1(s - 0.5, s + 0.5, 2 * s, 1.0)

    @pytest.mark.parametrize("z", [0.8 + 0.15j, 0.85 - 0.2j, 0.75 + 0.05j, 0.96 + 0.02j])
    def test_complex_z_matches_direct_series(self, z):
        # |z| < 0.98, so the direct series converges too
        for a, b in ((1.3 - 0.4j, 1.3 + 0.4j), (0.8 + 0.6j, 1.8 + 0.6j), (0.9, 1.7)):
            assert _in_log_region(a, b, a + b, z)
            assert relerr(gauss_2f1(a, b, a + b, z), _direct_series(a, b, a + b, z)) < 1e-13

    def test_ill_conditioned_parameters_keep_the_direct_series(self):
        # past |1 - z| |a b| = 2 the logarithmic terms cancel; these calls
        # are the direct series, bit for bit
        a, b, z = 8 + 3j, 8 + 3j, 0.75
        assert not _in_log_region(a, b, a + b, z)
        assert gauss_2f1(a, b, a + b, z) == _direct_series(a, b, a + b, z)

    def test_direct_series_never_entered(self, monkeypatch):
        # the direct series raises whenever it is handed a c = a + b,
        # |1 - z| < 0.3, |1 - z| |a b| < 2 argument, at a scalar or in an
        # array; the logarithmic sum counts the arguments it takes
        real_direct, real_log, hits = specfun._direct_group, specfun._log_group, []

        def direct(a, b, c, z, *args):
            assert not np.any(_in_log_region(a, b, c, z)), \
                "direct series entered in the logarithmic region"
            return real_direct(a, b, c, z, *args)

        def log(a, b, c, z, *args):
            assert np.all(_in_log_region(a, b, c, z))
            hits.append(np.size(z))
            return real_log(a, b, c, z, *args)

        monkeypatch.setattr(specfun, "_direct_group", direct)
        monkeypatch.setattr(specfun, "_log_group", log)
        zs = (0.71, 0.9, 0.973, 0.99, 0.999, 1.2, 0.9 + 0.1j)
        for z in zs:
            specfun.gauss_2f1(0.8 + 0.3j, 1.8 + 0.3j, 2.6 + 0.6j, z)
        specfun.gauss_2f1(0.8 + 0.3j, 1.8 + 0.3j, 2.6 + 0.6j, np.array(zs + (0.3, -0.9)))
        assert hits == [1] * 7 + [7]
        # the closed resolvent near the diagonal and the Morse resolvent
        # integral, whose head nodes sit near z = 1
        hkernels.resolvent_closed(hkernels.SpectralParam(-0.9j), 0.5,
                                  HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.0, 1.22))
        res = mkernels.resolvent_integral(mkernels.MorseConfig(1.0, 0.5, 0.0, 0.35), -1.3j)
        assert res.converged
        assert sum(hits) > 20

    def test_near_diagonal_resolvent_matches_integral(self):
        # at rho = 0.199 (z = 0.99, past the direct series' 0.98) the closed
        # resolvent agrees with the transmutation integral
        sp = hkernels.SpectralParam(-0.9j)
        z, zp = HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.0, 1.22)
        closed = hkernels.resolvent_closed(sp, 0.5, z, zp)
        integral = hkernels.resolvent_integral(sp, 0.5, z, zp)
        assert integral.converged
        assert relerr(closed, integral.value) < 1e-6


_S = 0.5 + 1j * (0.4 - 0.9j)  # a resolvent exponent s = 1/2 + i mu


def _regions(a, b, c, zs):
    """The set of gauss_2f1 sums (None for z = 0) that the arguments zs take."""
    a, b, c = complex(a), complex(b), complex(c)
    term_n = specfun._terminating_index(a, b)
    return {specfun._region(complex(z), a, b, c, term_n) for z in zs}


class TestGauss2F1Array:
    """An ndarray z: one series loop per region group, NumPy for the rest."""

    @pytest.mark.parametrize("abc, zs, regions", [
        ((0.4, 0.9, 1.7), (0.1, -0.5, 0.6j, 0.69, 0.95, 0.8 + 0.3j), {specfun._direct_group}),
        ((1.4, 3.4, 2.8), (-15.0, -3.0, -0.9, -24.0, -0.8 + 0.5j), {specfun._pfaff_group}),
        ((_S, _S, 2 * _S), (0.75, 0.9, 0.973, 0.99, 0.999, 0.85 + 0.1j, 1.2), {specfun._log_group}),
        ((-3, 2.5, 1.2), (0.8, 0.3, -2.0, 5.0, 1.0), {specfun._direct_group}),  # terminating
        # every region in one array: zero, direct, past the switch, log, Pfaff
        ((_S - 0.5, _S + 0.5, 2 * _S), (0.0, 0.3, 0.6j, 0.75 + 0.3j, 0.9, 0.99, 0.85 + 0.1j,
                                        -0.9, -3.0, 0.95j),
         {None, specfun._direct_group, specfun._log_group, specfun._pfaff_group}),
    ])
    def test_matches_scalar_calls(self, abc, zs, regions):
        assert _regions(*abc, zs) == regions
        got = gauss_2f1(*abc, np.array(zs))
        for value, z in zip(got, zs):
            assert relerr(value, gauss_2f1(*abc, z)) < 1e-15

    @pytest.mark.parametrize("abc", [(0.4, 0.9, 1.7), (1.3 + 0.2j, 0.7, 2.9), (_S, 1.1, 2 * _S - 0.3)])
    def test_direct_scalar_has_the_bits_of_an_array_entry(self, abc):
        # a scalar z is a one-entry table of the direct series, so it sums
        # exactly as an entry of a longer array does
        rng = np.random.default_rng(3)
        disc = 0.7 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
        zs = np.concatenate([np.linspace(-0.7, 0.95, 40), disc])
        assert _regions(*abc, zs) == {specfun._direct_group}
        assert [gauss_2f1(*abc, z) for z in zs] == gauss_2f1(*abc, zs).tolist()

    def test_zero_entries(self):
        got = gauss_2f1(0.3, 1.7, 2.2, np.array([0.0, 0.5, 0.0]))
        assert got[0] == 1.0 and got[2] == 1.0
        assert relerr(got[1], gauss_2f1(0.3, 1.7, 2.2, 0.5)) < 1e-15
        assert np.all(gauss_2f1(0.3, 1.7, 2.2, np.zeros(4)) == 1.0)

    def test_scalar_in_complex_out_array_in_array_out(self):
        assert type(gauss_2f1(0.3, 1.7, 2.2, 0.5)) is complex
        assert type(gauss_2f1(0.3, 1.7, 2.2, np.float64(0.5))) is complex
        got = gauss_2f1(0.3, 1.7, 2.2, np.linspace(-0.5, 0.5, 6).reshape(2, 3))
        assert isinstance(got, np.ndarray) and got.dtype == complex and got.shape == (2, 3)

    def test_raises_as_the_scalar_calls_do(self):
        a, b, c = _S - 0.5, _S + 0.5, 2 * _S
        with pytest.raises(LogarithmicSingularity):
            gauss_2f1(a, b, c, np.array([0.5, 1.0, 0.9]))
        with pytest.raises(SeriesNonConvergence):
            gauss_2f1(0.4, 0.9, 1.7, np.array([0.3, 0.995, -0.5]))

    def test_first_bad_entry_raises_its_scalar_error_before_any_sum(self, monkeypatch):
        a, b, c = _S - 0.5, _S + 0.5, 2 * _S
        messages = []
        for z in (1.5 + 0.5j, 1.0):
            with pytest.raises((SeriesNonConvergence, LogarithmicSingularity)) as exc:
                gauss_2f1(a, b, c, z)
            messages.append((exc.type, str(exc.value)))

        def no_sum(*args):
            raise AssertionError("a sum ran before every entry was sorted")

        for name in ("_direct_group", "_log_group", "_pfaff_group"):
            monkeypatch.setattr(specfun, name, no_sum)
        for zs, (kind, message) in (((0.5, 0.99, 1.5 + 0.5j, 1.0, -3.0), messages[0]),
                                    ((0.5, 0.99, 1.0, 1.5 + 0.5j, -3.0), messages[1])):
            with pytest.raises(kind) as exc:
                gauss_2f1(a, b, c, np.array(zs))
            assert str(exc.value) == message

    def test_each_entry_meets_its_own_stop_rule(self, monkeypatch):
        # equal |z|, |F| 56 and 3.6e-5: the large entry's loop goes quiet
        # (relative to 56) 13 terms before the small entry's terms do; cut
        # there, the small entry would be 1.2e-9 off.  A coarse term tolerance
        # makes the truncation visible above round-off.
        a, b, c, z = 1.5, 2.0, 0.7147, np.array([0.7, -0.7])
        monkeypatch.setattr(specfun, "_TERM_TOL", 1e-10)
        scalar = np.array([gauss_2f1(a, b, c, x) for x in z])
        assert abs(scalar[0]) > 50 and abs(scalar[1]) < 1e-4
        assert np.all(np.abs(gauss_2f1(a, b, c, z) - scalar) < 1e-13)
        # the small entry needs 91 terms, the large 78: a cap between them
        # fails the array as it fails the small entry's scalar call
        monkeypatch.setattr(specfun, "_MAX_TERMS", 85)
        gauss_2f1(a, b, c, 0.7)
        for arg in (-0.7, z):
            with pytest.raises(SeriesNonConvergence):
                gauss_2f1(a, b, c, arg)

    def test_resolvent_oracle_rows_as_arrays(self):
        # the c = a + b rows of the mpmath table, one array per (a, b, c):
        # the 18 resolvent rows F(s - |k|, s + |k|; 2s; z) and F(1, 1; 2; 1/2)
        from tests_oracle_support import _parse_params, evaluate_row, load_oracle_rows
        groups = {}
        for row in load_oracle_rows():
            if row["function"] == "gauss_2f1":
                a, b, c, z = _parse_params(row["params"])
                if abs(c - a - b) <= 9e-16 * max(abs(a), abs(b), abs(c)):
                    _, ref, tol = evaluate_row(row)
                    groups.setdefault((a, b, c), []).append((z, ref, tol))
        assert len(groups) == 4 and sum(len(g) for g in groups.values()) == 19
        for (a, b, c), rows in groups.items():
            zs, refs, tols = zip(*rows)
            for got, ref, tol in zip(gauss_2f1(a, b, c, np.array(zs)), refs, tols):
                assert relerr(got, ref) < tol


# one series policy for the module, read at call time: a cap of 4 terms
# reaches every series, each raising rather than returning a truncated sum
class TestSeriesPolicy:
    @pytest.mark.parametrize("call", [
        lambda: gauss_2f1(0.3, 0.7, 1.6, 0.5),          # direct series
        lambda: gauss_2f1(0.5, 0.5, 1.0, 0.9),          # logarithmic connection
        lambda: gauss_2f1(0.3, 0.7, 1.6, -3.0),         # Pfaff transformation
        lambda: gauss_2f1(0.3, 0.7, 1.6, np.array([0.2, 0.5])),
        lambda: kummer_1f1(0.4, 1.3, 2.0),
        lambda: humbert_phi1(0.4, 0.6, 1.3, 0.0, 0.5),
        lambda: bessel("J", 0.3, 2.0),
        lambda: whittaker("M", 0.2, 0.3, 1.5),
    ])
    def test_term_cap_reaches_every_series(self, monkeypatch, call):
        call()
        monkeypatch.setattr(specfun, "_MAX_TERMS", 4)
        with pytest.raises(SeriesNonConvergence):
            call()

    def test_log_connection_caps_with_one_message(self, monkeypatch):
        # a scalar in the log region is a loop and an array a table: both
        # raise the cap error that every other series raises
        s, messages = 0.75, []
        assert _regions(s, s, 2 * s, (0.9, 0.95)) == {specfun._log_group}
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        for z in (0.9, np.array([0.9, 0.95])):
            with pytest.raises(SeriesNonConvergence) as exc:
                gauss_2f1(s, s, 2 * s, z)
            messages.append(str(exc.value))
        assert messages == ["series did not converge in 5 terms"] * 2

    def test_terminating_series_past_the_cap_raises(self, monkeypatch):
        # degree 6 under a 4-term cap: a truncated sum (0.1875, not 0.5^6) must not come back
        assert gauss_2f1(-6, 1, 1, 0.5) == pytest.approx(0.5 ** 6, rel=1e-15)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 4)
        for call in (lambda: gauss_2f1(-6, 1, 1, 0.5),
                     lambda: gauss_2f1(-6, 1, 1, np.array([0.5, 0.3])),
                     lambda: kummer_1f1(-6, 1, 0.5)):
            with pytest.raises(SeriesNonConvergence, match="degree 6"):
                call()


class TestKummer1F1:
    def test_at_zero(self):
        assert kummer_1f1(1.1, 2.2, 0.0) == 1.0

    def test_e_minus_one(self):
        assert kummer_1f1(1, 2, 1) == pytest.approx(math.e - 1, rel=1e-13)

    def test_collapses_to_exponential(self):
        assert kummer_1f1(1.7, 1.7, 0.9) == pytest.approx(math.exp(0.9), rel=1e-13)

    def test_cutoff_enforced(self):
        with pytest.raises(SeriesNonConvergence):
            kummer_1f1(1.0, 2.0, 50.0)

    def test_c_pole(self):
        with pytest.raises(ParameterPole):
            kummer_1f1(0.4, -1.0, 0.3)

    @pytest.mark.parametrize("a, c, x, ref", [(1.3, 2.2, -39.0, 0.008838692062563738859118067),
                                              (0.5, 1.5, -30.0, 0.1618021593796400696905132)])
    def test_negative_argument_by_kummer_transformation(self, a, c, x, ref):
        # mpmath values; the direct series cancels here (a relative error of
        # 5.6 and 3.8e-6), e^x 1F1(c - a; c; -x) sums positive terms
        assert relerr(kummer_1f1(a, c, x), ref) < 1e-14

    def test_terminating_series_stays_direct_at_negative_argument(self):
        # 1F1(-2; 1.5; -3) = 1 + 4 + 2.4, every term positive
        assert kummer_1f1(-2, 1.5, -3.0) == pytest.approx(7.4, rel=1e-15)


class TestKummer1F1Array:
    """Arrays of (a, c) at one x: one table whose columns are the parameters."""

    @pytest.mark.parametrize("x", [2.0, 2.98, 1.2 + 0.7j, 12.0, 39.0, -3.5, -39.0, -2.0 + 1.0j,
                                   -40.0, -5.0, 0.3, 5.0, 25.0, 40.0])
    def test_matches_scalar_calls(self, x):
        rng = np.random.default_rng(5)
        a = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
        c = rng.uniform(0.5, 4, 40) + 1j * rng.uniform(-3, 3, 40)
        a[:3] = (-3.0, -2.0 + 1e-13, 0.0)  # terminating, one within _INT_TOL of an integer
        got = kummer_1f1(a, c, x)
        for value, p, q in zip(got, a, c):
            assert relerr(value, kummer_1f1(p, q, x)) < 1e-14

    def test_negative_argument_by_kummer_transformation(self):
        # the mpmath values of TestKummer1F1 at x = -39, where the direct series cancels
        got = kummer_1f1(np.array([1.3, 0.5, -2.0]), np.array([2.2, 1.5, 1.5]), -39.0)
        assert relerr(got[0], 0.008838692062563738859118067) < 1e-14
        assert relerr(got[1], kummer_1f1(0.5, 1.5, -39.0)) < 1e-14
        assert got[2] == pytest.approx(1 + 2 * 39 / 1.5 + 39 ** 2 / (1.5 * 2.5), rel=1e-15)

    def test_broadcast_shape(self):
        got = kummer_1f1(np.array([[0.5, 1.0], [1.5, 2.0]]), 2.5, 1.3)
        assert got.shape == (2, 2) and got.dtype == complex
        assert relerr(got[1, 0], kummer_1f1(1.5, 2.5, 1.3)) < 1e-15

    def test_raises_as_the_scalar_calls_do(self):
        with pytest.raises(SeriesNonConvergence):
            kummer_1f1(np.array([0.5, 1.0]), np.array([1.5, 2.0]), 40.5)
        with pytest.raises(SeriesNonConvergence):
            kummer_1f1(np.array([0.5, 1.0]), np.array([1.5, 2.0]), -30.0 + 30.0j)
        with pytest.raises(ParameterPole, match="-1"):
            kummer_1f1(np.array([0.5, 0.4, 0.3]), np.array([1.5, -1.0, -2.0]), 0.3)
        # a terminating a before the pole keeps it finite, as in the scalar call
        assert np.isfinite(kummer_1f1(np.array([-1.0]), np.array([-2.0]), 0.3)).all()


class TestWhittakerArray:
    @pytest.mark.parametrize("kind", ["M", "W"])
    def test_matches_scalar_calls(self, kind):
        mu = np.concatenate([0.25 + 1j * np.linspace(0.0, 6.0, 13), [0.7 - 0.3j, -0.3 + 2.0j]])
        got = whittaker(kind, 0.5, mu, 2.3)
        for value, m in zip(got, mu):
            assert relerr(value, whittaker(kind, 0.5, m, 2.3)) < 1e-14

    def test_integer_two_mu_inside_array_raises(self):
        with pytest.raises(IntegerTwoMuUnsupported):
            whittaker("W", 0.5, np.array([0.25 + 1j, 1.5, 0.3]), 2.0)
        with pytest.raises(ParameterPole):
            whittaker("M", 0.5, np.array([0.25 + 1j, -1.0]), 2.0)


class TestHumbertPhi1:
    def test_at_origin(self):
        assert humbert_phi1(1.2, 0.4, 2.0, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize("c", [0.0, -2.0, -3.0 + 1e-14j])
    def test_lower_parameter_pole_raises(self, c):
        with pytest.raises(ParameterPole, match="Phi1 lower parameter"):
            humbert_phi1(1.2, 0.4, c, 0.3, 0.2)

    def test_x_zero_collapses_to_2f1(self):
        a, b, c, y = 1.2, 0.7, 2.3, 0.4
        assert relerr(humbert_phi1(a, b, c, 0.0, y), gauss_2f1(a, b, c, y)) < 1e-12

    def test_b_zero_collapses_to_1f1(self):
        # Phi1(1, 0, 2, 1, 0.3) = 1F1(1, 2, 1) = e - 1
        assert humbert_phi1(1, 0, 2, 1, 0.3) == pytest.approx(math.e - 1, rel=1e-12)

    def test_degeneracies_on_random_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            a, c = rng.uniform(0.3, 2.5, size=2)
            c += a  # keep c comfortably positive
            x = rng.uniform(-2, 2)
            y = rng.uniform(-0.8, 0.8)
            assert relerr(humbert_phi1(a, 0.0, c, x, y), kummer_1f1(a, c, x)) < 1e-10
            b = rng.uniform(0.2, 1.5)
            assert relerr(humbert_phi1(a, b, c, 0.0, y), gauss_2f1(a, b, c, y)) < 1e-10

    @pytest.mark.parametrize("c, y", [(1.3, 1.5), (-3.0, 0.4)])
    def test_terminating_a_is_its_finite_double_sum(self, c, y):
        # (a)_{m+n} = 0 past m + n = 2 at a = -2, so the series ends there: at |y| > 1 too,
        # and before (c)_{m+n} reaches its zero at c = -3
        a, b, x = -2.0, 0.7, 0.5 - 0.2j

        def poch(q, n):
            return math.prod(q + j for j in range(n))

        direct = sum(poch(a, m + n) * poch(b, n) / (poch(c, m + n) * math.factorial(m) * math.factorial(n))
                     * x ** m * y ** n for m in range(3) for n in range(3 - m))
        assert relerr(humbert_phi1(a, b, c, x, y), direct) < 1e-14

    def test_terminating_b_alone_does_not_lift_the_c_pole(self):
        # b = -2 ends the n-series only; the m-series at n = 0 still reaches (c)_3 = 0
        with pytest.raises(ParameterPole, match="Phi1 lower parameter"):
            humbert_phi1(1.2, -2.0, -3.0, 0.3, 0.2)

    def test_outside_disc_raises(self):
        with pytest.raises(OutsideConvergenceRegion):
            humbert_phi1(1.1, 0.5, 2.0, 0.3, 1.2)

    def test_terminating_b_allows_outside_disc(self):
        val = humbert_phi1(1.5, -2.0, 2.2, 0.8, 1.5)
        assert np.isfinite(val.real)

    def test_complex_arguments(self):
        v = humbert_phi1(2.5, 1.0, 5.0, 2j, 0.3 + 0.2j)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_outer_series_is_one_1f1_table(self, monkeypatch):
        # the outer terms' 1F1 values come from one kummer_1f1 array call
        # (doubled while the terms are not quiet), and match the term by term
        # sum of scalar 1F1 series
        a, b, c, x, y = 2.5, 2.0, 5.0, 1.5 - 2.0j, 0.45 + 0.2j
        terms, coeff, n = [], 1.0, 0
        while len(terms) < 3 or any(abs(t) >= 1e-16 * abs(sum(terms)) for t in terms[-3:]):
            terms.append(coeff * kummer_1f1(a + n, c + n, x))
            coeff *= (a + n) * (b + n) / ((c + n) * (n + 1)) * y
            n += 1
        calls = []
        real = specfun.kummer_1f1
        monkeypatch.setattr(specfun, "kummer_1f1", lambda p, q, z: calls.append(np.size(p)) or real(p, q, z))
        assert relerr(humbert_phi1(a, b, c, x, y), sum(terms)) < 1e-14
        assert len(calls) == 1 and calls[0] >= n

    def test_one_term_series_is_one_scalar_1f1(self, monkeypatch):
        calls = []
        real = specfun.kummer_1f1
        monkeypatch.setattr(specfun, "kummer_1f1", lambda *args: calls.append(args) or real(*args))
        assert humbert_phi1(0.5, 0.0, 1.0, 2.1j, 0.7) == real(0.5, 1.0, 2.1j)
        assert calls == [(0.5 + 0j, 1.0 + 0j, 2.1j)]


class TestChebyshev:
    def test_t0(self):
        assert chebyshev_t(0, 0.3) == 1.0

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="n >= 0"):
            chebyshev_t(-1, 0.5)

    @pytest.mark.parametrize("n", [-1, 2.5, -0.5])
    def test_degree_outside_domain_is_a_domain_error(self, n):
        with pytest.raises(DomainError, match=f"chebyshev_t needs n >= 0 and whole, got n={n}"):
            chebyshev_t(n, 0.5)

    def test_whole_float_degree(self):
        assert chebyshev_t(2.0, 0.5) == chebyshev_t(2, 0.5)

    def test_t2(self):
        assert chebyshev_t(2, 0.5) == pytest.approx(-0.5)

    def test_t3_beyond_unit(self):
        assert chebyshev_t(3, 2.0) == pytest.approx(26.0)

    def test_cosh_identity_beyond_unit(self):
        x = 1.9
        for n in range(1, 7):
            assert chebyshev_t(n, x) == pytest.approx(math.cosh(n * math.acosh(x)), rel=1e-12)

    def test_hypergeometric_identity(self):
        # T_n(1 - 2x) = F(-n, n, 1/2, x): exact finite sums, but the 2F1 side
        # cancels terms of size ~1e5 x^n by n = 8, so the double-precision
        # floor grows with n (1e-13 holds through n = 5, ~1e-10 at n = 8).
        rng = np.random.default_rng(3)
        for n in range(0, 9):
            tol = 1e-13 * 4 ** max(0, n - 3)
            for x in rng.uniform(0, 1, size=4):
                lhs = chebyshev_t(n, 1 - 2 * x)
                rhs = gauss_2f1(-n, n, 0.5, x).real
                assert abs(lhs - rhs) < tol * max(1.0, abs(lhs))

    def test_array_input(self):
        x = np.array([0.1, 0.5, 2.0])
        np.testing.assert_allclose(chebyshev_t(2, x), 2 * x * x - 1, rtol=1e-14)


class TestBessel:
    def test_j0_small(self):
        assert bessel("J", 0, 1e-8) == pytest.approx(1.0, abs=1e-8)

    def test_j0_to_the_cutoff(self):
        # the committed rows at x = 13..30, where the ascending series had lost
        # 2.9e-12 to 1.4e-4 of J_0 to cancellation
        from tests_oracle_support import _parse_params, load_oracle_rows
        rows = [(_parse_params(r["params"]), float(r["ref_real"])) for r in load_oracle_rows()
                if r["function"] == "bessel_J"]
        far = [(x, ref) for (nu, x), ref in rows if nu == 0 and x > 8]
        assert [x for x, _ in far] == [13.0, 19.0, 25.0, 30.0]
        for x, ref in far:
            assert relerr(bessel("J", 0, x), ref) < 1e-14, x

    @pytest.mark.parametrize("n, x, ref", [
        (1, 30.0, -0.11875106261662293652),   # where the ascending series cancels: -0.1187570
        (3, 30.0, 0.12921122875972498304),
        (1, 2.0, 0.5767248077568733872),
        # at x <= n, J_n is far below the sum's absolute round-off: the series
        (2, 1e-8, 1.2500000000000000419e-17),
        (5, 0.1, 2.6030817909644415564e-9),
        (20, 1.0, 3.8735030085246577189e-25),
    ])
    def test_integer_orders(self, n, x, ref):
        # 30-digit mpmath values
        assert relerr(bessel("J", n, x), ref) < 1e-14

    def test_k_half_closed_form(self):
        x = 1.3
        expect = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert bessel("K", 0.5, x) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("kind, nu, closed", [
        ("J", 0.5, lambda x: math.sin(x)),
        ("I", 0.5, lambda x: math.sinh(x)),
        ("J", 1.5, lambda x: math.sin(x) / x - math.cos(x)),
        ("I", 1.5, lambda x: math.cosh(x) - math.sinh(x) / x),
    ])
    def test_half_order_closed_forms(self, kind, nu, closed):
        # spherical Bessel forms, sqrt(2 / (pi x)) times an elementary function
        for x in [0.4, 2.7, 6.5]:
            expect = math.sqrt(2 / (math.pi * x)) * closed(x)
            assert bessel(kind, nu, x) == pytest.approx(expect, rel=1e-13)

    def test_i_k_wronskian(self):
        # I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x
        for nu in [0.3, 0.7]:
            for x in [0.8, 2.1]:
                val = bessel("I", nu, x) * bessel("K", nu + 1, x) + \
                    bessel("I", nu + 1, x) * bessel("K", nu, x)
                assert val == pytest.approx(1.0 / x, rel=1e-10)

    # (nu, x, K_nu(x)) from mpmath at 40 digits, integer and non-integer orders
    @pytest.mark.parametrize("nu, x, ref", [
        (0.0, 0.1, 2.4270690247020166),
        (1.0, 0.25, 3.7470259744407116),
        (2.0, 3.5, 0.032307121699467823),
        (3.0, 30.0, 2.4713310636589929e-14),
        (0.0, 17.0, 1.2494664026317732e-8),
        (0.5, 0.1, 3.5861668387972601),
        (0.0001, 2.3, 0.079139933147589667),
        (0.05, 29.0, 5.8952006009768706e-14),
        (1.3, 12.5, 1.3963522342717595e-6),
        (2.71, 0.6, 19.322902848490993),
        (2.99, 24.0, 1.1530599287877531e-11),
    ])
    def test_k_against_mpmath(self, nu, x, ref):
        assert relerr(bessel("K", nu, x), ref) < 1e-14

    def test_k_is_one_trapezoid_call(self, monkeypatch):
        real, calls = quad.trapezoid_even, []

        def counted(f, x_max, abs_tol, rel_tol, noise=0.0):
            calls.append(real(f, x_max, abs_tol, rel_tol, noise))
            return calls[-1]

        monkeypatch.setattr(quad, "trapezoid_even", counted)
        for nu, x in ((0, 0.1), (1, 2.0), (2.5, 30.0)):
            bessel("K", nu, x)
        # one call each, converged at its first two levels
        assert len(calls) == 3 and all(c.converged and c.n_evals < 120 for c in calls)

    def test_k_past_the_node_budget_raises(self):
        assert bessel("K", 3.0, 1e-50) == pytest.approx(8e150, rel=1e-14)  # Gamma(3)/2 (2/x)^3
        for x in (1e-60, 1e-310):
            with pytest.raises(NotConverged):
                bessel("K", 0.5, x)

    def test_cutoff(self):
        with pytest.raises(SeriesNonConvergence):
            bessel("J", 0, 31.0)
        with pytest.raises(SeriesNonConvergence):
            bessel("K", 0, 30.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel("J", 0, -1.0)
        with pytest.raises(ValueError):
            bessel("J", -0.5, 1.0)
        with pytest.raises(ValueError, match="kind must be one of 'J', 'I', 'K'"):
            bessel("Y", 0, 1.0)

    @pytest.mark.parametrize("args, limit", [
        (("J", 0, -1.0), "x > 0"), (("K", 1.0, 0.0), "x > 0"), (("I", -0.5, 1.0), "nu >= 0"),
        (("Y", 0, 1.0), "kind must be one of"),
        (("Q", 1, -1.0), "kind must be one of"),  # the kind is checked first
    ])
    def test_domain_errors_are_typed(self, args, limit):
        with pytest.raises(DomainError, match=limit):
            bessel(*args)

    @pytest.mark.parametrize("kind, nu, x", [("J", 40, 1e-8), ("I", 40, 1e-8), ("J", 2.5, 1e-200)])
    def test_underflowed_leading_term_gives_zero(self, kind, nu, x):
        # (x/2)^nu / Gamma(nu + 1) is below the smallest double: the value is 0.0, not 5,000 terms
        assert bessel(kind, nu, x) == 0.0

    def test_bessel_product_truncated_oracle(self):
        # I_1(2) K_1(3) vs (1/2) int e^{-b} J0(sqrt(12 cosh b - 13)) db from b0,
        # truncated where the J series is reliable; the omitted tail is bounded
        # by the J0 envelope, which caps the achievable agreement at ~1e-2.
        u, v, alpha = 2.0, 3.0, 1.0
        b0 = math.acosh((u * u + v * v) / (2 * u * v))
        bmax = math.acosh((30.0 ** 2 + u * u + v * v) / (2 * u * v))
        nodes, weights = np.polynomial.legendre.leggauss(40)
        total = 0.0
        edges = np.linspace(b0, bmax, 41)
        for lo, hi in zip(edges[:-1], edges[1:]):
            xs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            vals = [math.exp(-alpha * b) * bessel("J", 0, math.sqrt(2 * u * v * math.cosh(b) - u * u - v * v))
                    if 2 * u * v * math.cosh(b) - u * u - v * v > 1e-20 else math.exp(-alpha * b)
                    for b in xs]
            total += 0.5 * (hi - lo) * float(np.dot(weights, vals))
        oracle = 0.5 * total
        product = bessel("I", 1, u) * bessel("K", 1, v)
        tail_bound = 0.5 * math.sqrt(2 / math.pi) * 6 ** -0.25 * math.exp(-1.25 * bmax) / 1.25
        assert abs(product - oracle) < tail_bound + 2e-3 * product


class TestWhittaker:
    def test_m_reduces_to_bessel_i(self):
        # M_{0,a}(z) = 2^{2a} Gamma(a+1) sqrt(z) I_a(z/2)
        a, z = 0.3, 1.1
        lhs = whittaker("M", 0.0, a, z)
        rhs = 2 ** (2 * a) * cmath.exp(log_gamma(a + 1)).real * math.sqrt(z) * bessel("I", a, z / 2)
        assert relerr(lhs, rhs) < 1e-12

    def test_w_reduces_to_bessel_k(self):
        # W_{0,a}(z) = sqrt(z/pi) K_a(z/2)
        a, z = 0.3, 1.1
        lhs = whittaker("W", 0.0, a, z)
        rhs = math.sqrt(z / math.pi) * bessel("K", a, z / 2)
        assert relerr(lhs, rhs) < 1e-10

    def test_m_leading_order(self):
        # M e^{z/2} z^{-mu-1/2} -> 1 as z -> 0+
        k, mu, z = 0.5, 0.8, 1e-6
        val = whittaker("M", k, mu, z) * math.exp(z / 2) * z ** (-mu - 0.5)
        assert val.real == pytest.approx(1.0, abs=1e-5)

    def test_integer_two_mu_rejected(self):
        with pytest.raises(IntegerTwoMuUnsupported):
            whittaker("W", 0.3, 1.0, 2.0)

    def test_domain(self):
        for z in (0.0, -1.0):
            with pytest.raises(ValueError, match="z > 0"):
                whittaker("M", 0.3, 0.4, z)
        with pytest.raises(ValueError, match="kind must be 'M' or 'W'"):
            whittaker("U", 0.3, 0.4, 1.0)

    @pytest.mark.parametrize("args, limit", [
        (("M", 0.3, 0.4, 0.0), "z > 0"), (("W", 0.3, 0.4, -1.0), "z > 0"),
        (("U", 0.3, 0.4, 1.0), "kind must be"),
        (("U", 0.3, 0.4, -1.0), "kind must be"),  # the kind is checked first
    ])
    def test_domain_errors_are_typed(self, args, limit):
        with pytest.raises(DomainError, match=limit):
            whittaker(*args)

    def test_wronskian_against_gamma_expression(self):
        # numeric Wronskian W{W, M} = Gamma(1+2mu)/Gamma(1/2+mu-k), d/dz by
        # central differences (step 1e-5: h^2 truncation and eps/h round-off ~1e-11)
        def d_dz(f, z, h=1e-5):
            return (f(z + h) - f(z - h)) / (2.0 * h)

        for (k, mu, z) in [(0.5, 0.7, 1.4), (0.0, 0.3, 2.0)]:
            m = lambda zz: whittaker("M", k, mu, zz)
            w = lambda zz: whittaker("W", k, mu, zz)
            wr = w(z) * d_dz(m, z) - d_dz(w, z) * m(z)
            expect = cmath.exp(log_gamma(1 + 2 * mu) - log_gamma(0.5 + mu - k))
            assert relerr(wr, expect) < 1e-8


class TestOracleTable:
    def test_table_is_committed_and_large_enough(self):
        from tests_oracle_support import load_oracle_rows
        rows = load_oracle_rows()
        assert len(rows) >= 40

    def test_all_reference_values_reproduced(self):
        from tests_oracle_support import evaluate_row, load_oracle_rows
        for row in load_oracle_rows():
            got, ref, tol = evaluate_row(row)
            assert relerr(got, ref) < tol, f"{row['function']}({row['params']})"


_NAN, _INF = math.nan, math.inf


class TestNonFiniteInput:
    # each entry point names a NaN or infinite argument before any sum runs:
    # these ran 5,000 series terms, returned NaN, or escaped untyped
    @pytest.mark.parametrize("fn, args, named", [
        (gauss_2f1, (_NAN, 1, 2, 0.3), "a"),
        (gauss_2f1, (1, 1, -_INF, 0.3), "c"),
        (gauss_2f1, (0.3, 0.4, 1.2, _NAN), "z"),
        (kummer_1f1, (_NAN, 1, 0.3), "a"),
        (kummer_1f1, (0.5, 1.5, complex(0.3, _INF)), "x"),
        (humbert_phi1, (_NAN, 1, 2, 0.3, 0.2), "a"),
        (humbert_phi1, (0.5, 1, 2, 0.3, _INF), "y"),
        (bessel, ("J", 0.0, _NAN), "x"),
        (bessel, ("K", _NAN, 1.0), "nu"),
        (whittaker, ("M", 0.2, _NAN, 1.0), "mu"),
        (whittaker, ("W", 0.2, _NAN, 1.0), "mu"),
        (whittaker, ("W", 0.2, _INF, 1.0), "mu"),
        (whittaker, ("W", _NAN, 0.3, 1.0), "k"),
        (log_gamma, (_NAN,), "z"),
        (log_gamma, (-_INF,), "z"),
        (chebyshev_t, (3, _NAN), "x"),
        (chebyshev_t, (_NAN, 0.3), "n"),
        # one entry of an array argument
        (log_gamma, (np.array([1.5, 2.0 + 1j, _NAN]),), "z"),
        (kummer_1f1, (np.array([0.5, _INF]), 1.5, 0.3), "a"),
        (kummer_1f1, (0.5, np.array([1.5, _NAN]), 0.3), "c"),
        (whittaker, ("M", 0.2, np.array([0.3, _NAN]), 1.0), "mu"),
        (whittaker, ("W", 0.2, np.array([0.3, -_INF]), 1.0), "mu"),
        (gauss_2f1, (0.3, 0.4, 1.2, np.array([0.1, _NAN])), "z"),
        (chebyshev_t, (3, np.array([0.2, _INF])), "x"),
    ])
    def test_named_before_any_sum(self, monkeypatch, fn, args, named):
        def no_sum(*_):
            raise AssertionError("a sum ran")
        for name in ("_hyp_series", "_table_sums", "_bessel_k"):
            monkeypatch.setattr(specfun, name, no_sum)
        with pytest.raises(NonFiniteInput, match=f"parameter {named}="):
            fn(*args)

