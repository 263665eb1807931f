"""Hyperbolic geometry of the upper half-plane.

The hyperbolic distance and the unit-modulus magnetic phase factor that
twists every kernel.  Complex powers use the principal branch; the phase
bases provably avoid the negative real axis (numerator and denominator of
the ratio both carry imaginary part y + y' > 0), so the principal branch is
continuous in the pair of points.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

__all__ = [
    "HalfPlanePoint",
    "MagneticK",
    "as_magnetic",
    "cosh2_half_dist",
    "dist_halfplane",
    "magnetic_phase_halfplane",
]

_TWO_K_TOL = 1e-12


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point z = x + iy of the hyperbolic upper half-plane (y > 0)."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"half-plane point needs y > 0, got y={self.y}")


@dataclass(frozen=True)
class MagneticK:
    """Magnetic / coupling constant k with its discreteness bookkeeping.

    is_discrete marks 2k integer (within 1e-12), the regime of the
    Chebyshev and finite-sum wave-kernel forms and of the Morse
    confluent-series paths.  The production kernel integrals take every
    real k and never branch on it.  sign is +1 at k = 0;
    every term it multiplies carries a k
    -dependent zero prefactor there, so the choice is inert.
    """

    k: float
    is_discrete: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "is_discrete",
                           abs(2 * self.k - round(2 * self.k)) < _TWO_K_TOL)

    @property
    def abs_k(self) -> float:
        return abs(self.k)

    @property
    def two_k_int(self) -> int:
        """round(2|k|); only meaningful when is_discrete."""
        return int(round(2 * abs(self.k)))

    @property
    def sign(self) -> float:
        return -1.0 if self.k < 0 else 1.0


def as_magnetic(k: Union[float, MagneticK]) -> MagneticK:
    return k if isinstance(k, MagneticK) else MagneticK(float(k))


def cosh2_half_dist(z: HalfPlanePoint, zp: HalfPlanePoint) -> float:
    """cosh^2(rho/2) = ((x - x')^2 + (y + y')^2) / (4 y y')."""
    return ((z.x - zp.x) ** 2 + (z.y + zp.y) ** 2) / (4.0 * z.y * zp.y)


def dist_halfplane(z: HalfPlanePoint, zp: HalfPlanePoint) -> float:
    # round-off can push cosh^2 slightly below 1 for coincident points
    return 2.0 * math.acosh(math.sqrt(max(cosh2_half_dist(z, zp), 1.0)))


def magnetic_phase_halfplane(k: Union[float, MagneticK], z: HalfPlanePoint,
                             zp: HalfPlanePoint) -> complex:
    """((z' - conj z) / (z - conj z'))^k, principal branch, unit modulus."""
    kk = as_magnetic(k).k
    num = complex(zp.x - z.x, z.y + zp.y)
    den = complex(z.x - zp.x, z.y + zp.y)
    return cmath.exp(kk * (cmath.log(num) - cmath.log(den)))
