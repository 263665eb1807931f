"""Hyperbolic geometry of the upper half-plane.

The hyperbolic distance and the unit-modulus magnetic phase factor that
twists every kernel.  Complex powers use the principal branch; the phase
bases provably avoid the negative real axis (numerator and denominator of
the ratio both carry imaginary part y + y' > 0), so the principal branch is
continuous in the pair of points.

Every kernel takes the magnetic constant k as a plain float and reads |k|
where its formula is even in k; two_k_int names the discrete regime (2k an
integer) of the Chebyshev and finite-sum wave forms and the Morse
confluent-series paths.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, require_finite

__all__ = [
    "HalfPlanePoint",
    "cosh2_half_dist",
    "dist_halfplane",
    "magnetic_phase_halfplane",
    "two_k_int",
]

_TWO_K_TOL = 1e-12


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point z = x + iy of the hyperbolic upper half-plane (y > 0)."""

    x: float
    y: float

    def __post_init__(self):
        if not math.isfinite(self.x + self.y):  # a NaN or inf spoils the sum
            require_finite(x=self.x, y=self.y)
        if not self.y > 0:
            raise DomainError(f"half-plane point needs y > 0, got y={self.y}")


def two_k_int(k: float) -> Optional[int]:
    """round(2|k|) where 2k is an integer (to 1e-12), else None."""
    return int(round(2 * abs(k))) if abs(2 * k - round(2 * k)) < _TWO_K_TOL else None


def cosh2_half_dist(z: HalfPlanePoint, zp: HalfPlanePoint) -> float:
    """cosh^2(rho/2) = ((x - x')^2 + (y + y')^2) / (4 y y')."""
    return ((z.x - zp.x) ** 2 + (z.y + zp.y) ** 2) / (4.0 * z.y * zp.y)


def dist_halfplane(z: HalfPlanePoint, zp: HalfPlanePoint) -> float:
    # round-off can push cosh^2 slightly below 1 for coincident points
    return 2.0 * math.acosh(math.sqrt(max(cosh2_half_dist(z, zp), 1.0)))


def magnetic_phase_halfplane(k: float, z: HalfPlanePoint, zp: HalfPlanePoint) -> complex:
    """((z' - conj z) / (z - conj z'))^k, principal branch, unit modulus."""
    num = complex(zp.x - z.x, z.y + zp.y)
    den = complex(z.x - zp.x, z.y + zp.y)
    return cmath.exp(k * (cmath.log(num) - cmath.log(den)))
