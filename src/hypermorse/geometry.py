"""Hyperbolic geometry of the half-plane and disc models.

Distances in both models, the Cayley transform between them, and the
unit-modulus magnetic phase factors that twist every kernel.  Complex powers
use the principal branch throughout; the phase bases provably avoid the
negative real axis (both numerator and denominator of the half-plane ratio
carry imaginary part y + y' > 0), so the principal branch is continuous in
the pair of points.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

__all__ = [
    "HalfPlanePoint",
    "DiscPoint",
    "MagneticK",
    "as_magnetic",
    "cosh2_half_dist",
    "dist_halfplane",
    "dist_disc",
    "cayley",
    "inverse_cayley",
    "magnetic_phase_halfplane",
    "magnetic_phase_disc",
    "cayley_gauge_phase",
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

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class DiscPoint:
    """Point w of the hyperbolic unit disc (|w| < 1)."""

    w: complex

    def __post_init__(self):
        if not abs(self.w) < 1:
            raise ValueError(f"disc point needs |w| < 1, got |w|={abs(self.w)}")


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


def _acosh_of_sqrt(c2: float) -> float:
    # round-off can push cosh^2 slightly below 1 for coincident points
    return 2.0 * math.acosh(math.sqrt(max(c2, 1.0)))


def dist_halfplane(z: HalfPlanePoint, zp: HalfPlanePoint) -> float:
    return _acosh_of_sqrt(cosh2_half_dist(z, zp))


def dist_disc(w: DiscPoint, wp: DiscPoint) -> float:
    """cosh^2(d/2) = |1 - w conj(w')|^2 / ((1 - |w|^2)(1 - |w'|^2))."""
    c2 = abs(1.0 - w.w * wp.w.conjugate()) ** 2 / \
        ((1.0 - abs(w.w) ** 2) * (1.0 - abs(wp.w) ** 2))
    return _acosh_of_sqrt(c2)


def cayley(z: HalfPlanePoint) -> DiscPoint:
    """w = (z - i) / (z + i)."""
    zc = z.z
    return DiscPoint((zc - 1j) / (zc + 1j))


def inverse_cayley(w: DiscPoint) -> HalfPlanePoint:
    """z = -i (w + 1) / (w - 1)."""
    zc = -1j * (w.w + 1.0) / (w.w - 1.0)
    return HalfPlanePoint(zc.real, zc.imag)


def magnetic_phase_halfplane(k: Union[float, MagneticK], z: HalfPlanePoint,
                             zp: HalfPlanePoint) -> complex:
    """((z' - conj z) / (z - conj z'))^k, principal branch, unit modulus."""
    kk = as_magnetic(k).k
    num = complex(zp.x - z.x, z.y + zp.y)
    den = complex(z.x - zp.x, z.y + zp.y)
    return cmath.exp(kk * (cmath.log(num) - cmath.log(den)))


def magnetic_phase_disc(k: Union[float, MagneticK], w: DiscPoint, wp: DiscPoint) -> complex:
    """((1 - w conj w') / (1 - conj(w) w'))^k, principal branch, unit modulus."""
    kk = as_magnetic(k).k
    num = 1.0 - w.w * wp.w.conjugate()
    den = 1.0 - w.w.conjugate() * wp.w
    return cmath.exp(kk * (cmath.log(num) - cmath.log(den)))


def cayley_gauge_phase(k: Union[float, MagneticK], z: HalfPlanePoint) -> complex:
    """((i - conj z) / (z + i))^k, the gauge factor the Cayley transport uses."""
    kk = as_magnetic(k).k
    zc = z.z
    return cmath.exp(kk * (cmath.log(1j - zc.conjugate()) - cmath.log(zc + 1j)))
