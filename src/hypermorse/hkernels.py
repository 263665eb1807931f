"""Kernels of the magnetic Schrodinger operator on the hyperbolic half-plane.

The wave-transmutation kernel, the closed and integral forms of the
resolvent, and the heat kernel.

Every production path evaluates the wave kernel's radial profile
F(|k|, -|k|; 1/2; 1 - C^2), C = cosh(b/2)/cosh(rho/2), through its closed
form cosh(2|k| arccosh C) (_wave_profile), which holds for every real k and
reduces to the Chebyshev polynomial T_{2|k|}(C) when 2k is an integer;
resolvent_integral takes it as the two exponentials e^{+-2|k| arccosh C},
so that its large-b nodes do not overflow.  Its five reference forms (three
hypergeometric series, the Chebyshev polynomial and a finite sum) live in
the harness, as targets of the hyperbolic_forms identity check.

Conventions fixed by calibration (see the harness module, which holds the
rejected candidates; the kernels carry none):

* spectral mapping: s = 1/2 + i mu, the only one SpectralParam knows; with
  it the closed resolvent equals (1/2) * integral_rho^inf W(b) e^{-i mu b} db
  exactly.  The mapping and the constant prefactor 1/2 are verified, not
  assumed.
* with the phase convention ((z' - conj z)/(z - conj z'))^k used here, the
  generator whose heat equation the kernel solves is
  y^2 (d_xx + d_yy) - 2 i k y d_x + 1/4.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import quad, specfun
from .errors import (
    ConvergenceViolated,
    DiagonalSingularity,
    DomainError,
    GammaPole,
    NotConverged,
    OutsideSupport,
    PoleAtNonPositiveInteger,
    require_finite,
)
from .geometry import (
    HalfPlanePoint,
    cosh2_half_dist,
    dist_halfplane,
    magnetic_phase_halfplane,
)

__all__ = [
    "SpectralParam",
    "wave_kernel",
    "wave_kernel_radial",
    "resolvent_closed",
    "resolvent_integral",
    "heat_kernel",
]

_DIAG_TOL = 1e-14


@dataclass(frozen=True)
class SpectralParam:
    """Complex spectral variable mu and the exponent s = 1/2 + i mu, the
    calibrated mapping (harness.calibrate_spectral_mapping measures the
    rejected ones)."""

    mu: complex

    def __post_init__(self):
        require_finite(mu=self.mu)

    @property
    def s(self) -> complex:
        return 0.5 + 1j * complex(self.mu)


def _cosh2_ratio(b, rho: float):
    """C = cosh(b/2)/cosh(rho/2) and S = cosh^2(b/2) - cosh^2(rho/2), the
    latter in the cancellation-free product form."""
    b = np.asarray(b, dtype=float)
    C = np.cosh(b / 2.0) / math.cosh(rho / 2.0)
    S = np.sinh((b + rho) / 2.0) * np.sinh((b - rho) / 2.0)
    return C, S


def _wave_profile(ak: float, C):
    """F(|k|, -|k|; 1/2; 1 - C^2) = cosh(2|k| arccosh C), C clipped at 1
    against rounding at the support edge."""
    return np.cosh(2.0 * ak * np.arccosh(np.maximum(C, 1.0)))


def wave_kernel_radial(k: float, b, rho: float):
    """Radial part of the wave kernel: the full kernel without its
    magnetic phase, the closed form (_wave_profile) for every real k.
    Vectorized over b (all entries must satisfy b > rho).
    """
    scalar, b_arr = np.ndim(b) == 0, np.atleast_1d(np.asarray(b, dtype=float))
    require_finite(k=k, rho=rho, b=b_arr.tolist())
    if np.any(b_arr <= rho):
        raise OutsideSupport(f"radial wave kernel needs b > rho={rho}")
    C, S = _cosh2_ratio(b_arr, rho)
    vals = 1.0 / (2.0 * math.pi * np.sqrt(S)) * _wave_profile(abs(k), C)
    return complex(vals[0]) if scalar else vals.astype(complex)


def wave_kernel(k: float, b: float, z: HalfPlanePoint, zp: HalfPlanePoint) -> complex:
    """Wave-transmutation kernel at time-like variable b, support b > rho.

    Returns a hard zero for b < rho; exactly at b = rho the kernel carries
    its integrable inverse-square-root singularity and the call raises.
    """
    require_finite(k=k, b=b)
    rho = dist_halfplane(z, zp)
    if b < rho:
        return 0.0 + 0.0j
    if b == rho:
        raise OutsideSupport(f"wave kernel singular at b = rho = {rho}")
    phase = magnetic_phase_halfplane(k, z, zp)
    return phase * wave_kernel_radial(k, b, rho)


def _gamma_ratio(num: tuple, den):
    """Gamma(num[0]) ... Gamma(num[-1]) / Gamma(den) at complex scalars, or at ndarrays
    in one log_gamma call; a log_gamma pole raises GammaPole with its message."""
    args = num + (den,)
    try:
        lg = specfun.log_gamma(np.stack(args)) if specfun._is_array(den) \
            else [specfun.log_gamma(a) for a in args]
    except PoleAtNonPositiveInteger as exc:
        raise GammaPole(str(exc)) from exc
    total = sum(lg[1:-1], lg[0]) - lg[-1]
    return np.exp(total) if isinstance(total, np.ndarray) else cmath.exp(total)


def _gamma_prefactor(s: complex, k: float) -> complex:
    """Gamma(s-k) Gamma(s+k) / (4 pi Gamma(2s)); even in the sign of k."""
    return _gamma_ratio((s - k, s + k), 2 * s) / (4.0 * math.pi)


def _resolvent_profile(s: complex, ak: float, c2):
    """c2^(-s) F(s-|k|, s+|k|; 2s; 1/c2): the radial resolvent without its
    gamma prefactor.  c2 = cosh^2(rho/2) may be complex or an ndarray; the
    principal branches continue it analytically off c2 in (-inf, 1]."""
    return c2 ** (-s) * specfun.gauss_2f1(s - ak, s + ak, 2 * s, 1.0 / c2)


def resolvent_closed(sp: SpectralParam, k: float, z: HalfPlanePoint,
                     zp: HalfPlanePoint) -> complex:
    """Closed-form resolvent kernel on the half-plane.

    Gamma(s-k)Gamma(s+k)/(4 pi Gamma(2s)) * phase^k * cosh^(-2s)(rho/2)
      * F(s-|k|, s+|k|; 2s; sech^2(rho/2)).

    z and zp may be equal-length lists of points: an ndarray of values then,
    one series call on their c2 (a few ulps from the single calls).
    """
    require_finite(k=k)
    pairs = list(zip(z, zp)) if isinstance(z, list) else [(z, zp)]
    c2 = [cosh2_half_dist(*pair) for pair in pairs]
    if min(c2) - 1.0 < _DIAG_TOL:
        raise DiagonalSingularity("resolvent kernel diverges on the diagonal z = z'")
    phase = [magnetic_phase_halfplane(k, *pair) for pair in pairs]
    c2, phase = (np.array(c2), np.array(phase)) if isinstance(z, list) else (c2[0], phase[0])
    return phase * (_gamma_prefactor(sp.s, k) * _resolvent_profile(sp.s, abs(k), c2))


def _profile_angle(b: np.ndarray, ch_r: float) -> np.ndarray:
    """a = arccosh(cosh(b/2) / ch_r) as b/2 + log(c + sqrt(c^2 - e^{-b})),
    c = (1 + e^{-b}) / (2 ch_r): finite out to any b, so the profile
    cosh(2|k| a) can enter an integrand as e^{+-2|k| a} joined to its decay."""
    e = np.exp(-b)
    c = (1.0 + e) / (2.0 * ch_r)
    return b / 2.0 + np.log(c + np.sqrt(np.maximum(c * c - e, 0.0)))


def _check_decay(mu: complex, k: float):
    need = max(0.0, abs(k) - 0.5)
    if not complex(mu).imag < -need:
        raise ConvergenceViolated(
            f"resolvent integral needs Im mu < {-need:.3g} (kernel grows like "
            f"e^((|k|-1/2) b)); got mu={mu}")


def resolvent_integral(sp: SpectralParam, k: float, z: HalfPlanePoint,
                       zp: HalfPlanePoint) -> quad.QuadratureResult:
    """Resolvent as the transmutation integral
    (1/2) * integral_rho^inf W(b, rho) e^{-i mu b} db.

    The 1/2 is the calibrated constant under which the integral reproduces
    the closed form at s = 1/2 + i mu; a spectral-parameter-dependent
    prefactor is ruled out by the same calibration.  Requires strict decay:
    Im mu < -max(0, |k| - 1/2).

    With b = rho + u^2 the inverse-square-root edge is gone and, as rho > 0,
    the u-integrand is even and analytic, decaying like e^{-r u^2},
    r = -Im mu - |k| + 1/2.  So it is one trapezoid sum (quad.trapezoid_even,
    a row each for the real and imaginary parts) in x, u = g sinh(x / 4g),
    cut at u = sqrt(40/r).  g = sqrt(2 rho) moves the edge factor's branch
    points u = +-i g to x = +-2 pi i g: near the diagonal the nodes crowd
    towards u = 0 instead of growing in number, and elsewhere u ~ x/4, a
    first step of 1/8 in u.  The profile cosh(2|k| a) (_profile_angle) enters
    as its two exponentials e^{+-2|k| a}, each joined in one exponent to
    e^{-i mu b} and the edge factor's e^{-b/2}, so that no factor overflows
    out to the cut.
    """
    require_finite(k=k)
    mu = complex(sp.mu)
    _check_decay(mu, k)
    rho = dist_halfplane(z, zp)
    if rho < 1e-7:
        raise DiagonalSingularity("transmutation integral needs z != z'")
    phase = magnetic_phase_halfplane(k, z, zp)
    ak, ch_r, g = abs(k), math.cosh(rho / 2.0), math.sqrt(2.0 * rho)

    def f(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        xg = x / (4.0 * g)
        u2 = np.maximum((g * np.sinh(xg)) ** 2, 1e-300)  # (1 - e^{-u^2}) / u^2 is 1 at u = 0
        b = rho + u2
        a = _profile_angle(b, ch_r)
        # du/dx times 2u / sqrt(cosh^2(b/2) - cosh^2(rho/2)) / 2 pi, less its e^{-b/2}
        jac = np.cosh(xg) / (4.0 * math.pi * np.sqrt(-np.expm1(-(b + rho)) * -np.expm1(-u2) / u2))
        decay = (-0.5 - 1j * mu) * b
        vals = jac * (np.exp(decay + 2.0 * ak * a) + np.exp(decay - 2.0 * ak * a))
        return np.stack([vals.real, vals.imag])[rows]

    r = -mu.imag - ak + 0.5
    res = quad.trapezoid_even(f, 4.0 * g * math.asinh(math.sqrt(40.0 / r) / g),
                              np.full(2, quad.DEFAULT_CONFIG.abs_tol), quad.DEFAULT_CONFIG.rel_tol)
    return quad.QuadratureResult(0.5 * phase * complex(*res.value),
                                 0.5 * math.hypot(*res.err_estimate), res.n_evals, res.converged)


def _edge_q(x):
    """q(x) = x e^x / sinh x = 2x / (1 - e^{-2x}), 1 at x = 0."""
    d = -np.expm1(-2.0 * x)
    return np.where(d > 0.0, 2.0 * x / np.where(d > 0.0, d, 1.0), 1.0)


def heat_kernel(t: float, k: float, z: HalfPlanePoint, zp: HalfPlanePoint,
                cfg: quad.QuadConfig = quad.DEFAULT_CONFIG) -> quad.QuadratureResult:
    """Heat kernel as the subordination integral
    integral_rho^inf e^{-b^2/4t} / (4 pi t)^{3/2} * W(b, z, z') * b db.

    With b^2 = rho^2 + s^2, b db = s ds, and the edge factor s / sqrt(S),
    S = cosh^2(b/2) - cosh^2(rho/2) = sinh(x) sinh(w), x = (b + rho)/2,
    w = (b - rho)/2 = s^2 / 4x, is 2 e^{-b/2} sqrt(q(x) q(w)) (_edge_q; its
    square tends to 4 rho / sinh rho at s = 0).  The integrand is even and
    analytic in s for every rho >= 0, z = z' included, so it is one trapezoid
    sum (quad.trapezoid_even, Trefethen & Weideman 2014), cut where
    (b^2 - rho^2)/4t - (|k| - 1/2)(b - rho) = 45, the profile's exponentials
    (_profile_angle) joined to the Gaussian and e^{-b/2}.  Where the first
    two levels out to that cut hold more nodes than the sum's budget (t > 38
    at |k| = 2, t > 92 at |k| = 1, t > 347 at |k| = 1/2, never at k = 0) it
    raises NotConverged.

    z and zp may be equal-length lists of points: a row each of one sum, 0
    past the row's own cut, so each entry of value, err_estimate and
    converged_rows equals its pair's call bit for bit; converged is all rows'.
    """
    require_finite(t=t, k=k)
    if not t > 0:
        raise DomainError("heat kernel needs t > 0")
    pairs = list(zip(z, zp)) if isinstance(z, list) else [(z, zp)]
    ak, slope = abs(k), abs(k) - 0.5
    norm = 2.0 * math.pi * (4.0 * math.pi * t) ** 1.5
    par = []  # rho, cosh(rho/2) and the cut s_max of each pair
    for pair in pairs:
        rho = dist_halfplane(*pair)
        b_max = 2.0 * t * slope + math.sqrt((2.0 * t * slope - rho) ** 2 + 180.0 * t)
        par.append((rho, math.cosh(rho / 2.0), math.sqrt(b_max * b_max - rho * rho)))
    cols = np.array(par).T[:, :, None]

    def f(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        rho, ch_r, cut = cols[:, rows]
        s2 = s * s
        b = np.sqrt(rho * rho + s2)
        x = (b + rho) / 2.0
        w = s2 / np.maximum(4.0 * x, 1e-300)
        a = _profile_angle(b, ch_r)
        decay = -b * b / (4.0 * t) - b / 2.0
        vals = (np.sqrt(_edge_q(x) * _edge_q(w))
                * (np.exp(decay + 2.0 * ak * a) + np.exp(decay - 2.0 * ak * a)) / norm)
        return np.where(s < cut, vals, 0.0)  # 0 past a row's cut

    s_max = max(cut for _, _, cut in par)
    res = quad.trapezoid_even(f, s_max, [cfg.abs_tol] * len(par), cfg.rel_tol)
    if not res.n_evals:  # not even the first two levels fit the node budget
        raise NotConverged(f"heat sum out to s = {s_max:.4g} needs more trapezoid nodes than the"
                           f" budget holds (t (|k| - 1/2) = {t * slope:.3g} too large)")
    res.value = np.array([magnetic_phase_halfplane(k, *pair) for pair in pairs]) * res.value
    return res if isinstance(z, list) else res.row(0)
