"""Tests for the hyperbolic geometry module."""
import math

import numpy as np
import pytest

from hypermorse.errors import NonFiniteInput
from hypermorse.geometry import (
    HalfPlanePoint,
    cosh2_half_dist,
    dist_halfplane,
    magnetic_phase_halfplane,
    two_k_int,
)


def random_points(rng, n):
    return [HalfPlanePoint(rng.uniform(-2, 2), rng.uniform(0.2, 3.0)) for _ in range(n)]


class TestPoints:
    def test_halfplane_validation(self):
        with pytest.raises(ValueError):
            HalfPlanePoint(0.0, -1.0)

    @pytest.mark.parametrize("x, y, named", [(math.nan, 1.0, "x=nan"), (0.0, math.inf, "y=inf"),
                                             (-math.inf, 1.0, "x=-inf"), (0.0, math.nan, "y=nan")])
    def test_non_finite_coordinate_is_named(self, x, y, named):
        with pytest.raises(NonFiniteInput, match=named):
            HalfPlanePoint(x, y)

    def test_two_k_int(self):
        # round(2|k|) where 2k is an integer to 1e-12, else None
        assert two_k_int(0.5) == 1
        assert two_k_int(2.0) == 4
        assert two_k_int(-1.5) == 3
        assert two_k_int(0.0) == 0
        assert two_k_int(1.0 + 1e-13) == 2
        assert two_k_int(0.3) is None
        assert two_k_int(0.5 + 1e-11) is None


class TestDistances:
    def test_coincident(self):
        z = HalfPlanePoint(0.4, 1.3)
        assert dist_halfplane(z, z) == 0.0

    def test_vertical_pair(self):
        # z = i against z' = 2i (same vertical) and z' = 1 + i (off it):
        # cosh^2(rho/2) = ((x - x')^2 + (y + y')^2) / (4 y y') = 9/8 and 5/4
        z = HalfPlanePoint(0, 1)
        for zp, c2 in ((HalfPlanePoint(0, 2), 9 / 8), (HalfPlanePoint(1, 1), 5 / 4)):
            assert cosh2_half_dist(z, zp) == pytest.approx(c2)
            assert dist_halfplane(z, zp) == pytest.approx(2 * math.acosh(math.sqrt(c2)))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for z, zp in zip(random_points(rng, 8), random_points(rng, 8)):
            assert dist_halfplane(z, zp) == pytest.approx(dist_halfplane(zp, z), rel=1e-14)

    def test_cosh2_at_least_one(self):
        rng = np.random.default_rng(6)
        for z, zp in zip(random_points(rng, 10), random_points(rng, 10)):
            assert cosh2_half_dist(z, zp) >= 1.0 - 1e-14

    def test_mobius_invariance(self):
        # z -> (a z + b) / (c z + d), ad - bc = 1, is an isometry of the half-plane
        rng = np.random.default_rng(9)
        for z, zp in zip(random_points(rng, 10), random_points(rng, 10)):
            a, b, c = rng.uniform(0.5, 2.0), *rng.uniform(-1.5, 1.5, 2)
            d = (1.0 + b * c) / a
            def g(p):
                w = (a * complex(p.x, p.y) + b) / (c * complex(p.x, p.y) + d)
                return HalfPlanePoint(w.real, w.imag)
            assert dist_halfplane(g(z), g(zp)) == pytest.approx(dist_halfplane(z, zp), rel=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = random_points(rng, 3)
            assert dist_halfplane(a, c) <= dist_halfplane(a, b) + dist_halfplane(b, c) + 1e-12


class TestPhases:
    def test_coincident_is_one(self):
        z = HalfPlanePoint(0.3, 0.9)
        assert magnetic_phase_halfplane(1.0, z, z) == pytest.approx(1.0 + 0j)

    def test_unit_modulus(self):
        rng = np.random.default_rng(10)
        for z, zp in zip(random_points(rng, 10), random_points(rng, 10)):
            for k in [0.5, 1.0, -1.5, 0.37]:
                assert abs(abs(magnetic_phase_halfplane(k, z, zp)) - 1) < 1e-13

    def test_explicit_point(self):
        # z = i, z' = 1 + i: (z' - conj z) / (z - conj z') = (1 + 2i) / (-1 + 2i)
        # = (3 - 4i) / 5, whose principal square root is (2 - i) / sqrt 5
        z, zp = HalfPlanePoint(0, 1), HalfPlanePoint(1, 1)
        assert magnetic_phase_halfplane(1.0, z, zp) == pytest.approx((3 - 4j) / 5, abs=1e-15)
        assert magnetic_phase_halfplane(0.5, z, zp) == pytest.approx((2 - 1j) / math.sqrt(5),
                                                                     abs=1e-15)

    def test_swap_conjugates(self):
        rng = np.random.default_rng(12)
        for z, zp in zip(random_points(rng, 10), random_points(rng, 10)):
            for k in [0.5, 1.0, -1.5, 0.37]:
                p = magnetic_phase_halfplane(k, z, zp)
                assert magnetic_phase_halfplane(k, zp, z) == pytest.approx(p.conjugate(), abs=1e-13)

    def test_invariant_under_real_affine_maps(self):
        # z -> lam z + t (lam > 0) scales both bases alike
        rng = np.random.default_rng(13)
        for z, zp in zip(random_points(rng, 10), random_points(rng, 10)):
            lam, t = rng.uniform(0.3, 3.0), rng.uniform(-2, 2)
            g = lambda p: HalfPlanePoint(lam * p.x + t, lam * p.y)
            for k in [0.5, -1.0, 0.37]:
                assert magnetic_phase_halfplane(k, g(z), g(zp)) == \
                    pytest.approx(magnetic_phase_halfplane(k, z, zp), abs=1e-13)

    def test_sign_flip_conjugates(self):
        rng = np.random.default_rng(11)
        for z, zp in zip(random_points(rng, 6), random_points(rng, 6)):
            for k in [0.5, 1.0, 2.0]:
                p = magnetic_phase_halfplane(k, z, zp)
                m = magnetic_phase_halfplane(-k, z, zp)
                assert m == pytest.approx(p.conjugate(), abs=1e-13)
