"""Kernels of the Morse-potential Schrodinger operator on the real line.

The wave kernel in three constructions (two-variable confluent series,
Bessel reduction at k = 0, Fourier transport of the hyperbolic wave kernel),
the Whittaker closed resolvent and its transmutation-integral counterpart,
the heat kernel, and the Hartman-Watson double-integral oracle for it.

The Fourier transport is one periodic trapezoid sum over the support (see
wave_kernel_fourier).  The resolvent integral moves its oscillating
transverse integrand onto a hyperbola in the lower half-plane, where it
decays double-exponentially, continuing the magnetic phase analytically
there, and sums it as one trapezoid sum (see resolvent_integral).  The heat
kernel is a trapezoid sum of the closed resolvent along one line in mu,
within the closed form's range 2 lam e^{max(X, X')} <= 40, each trapezoid
call one resolvent_closed call on the array of its nodes (see heat_kernel).
The Hartman-Watson oracle's outer integral is a trapezoid sum in log u, each
call one theta_hw array over its nodes (see hartman_watson_heat_oracle).

Calibrated conventions (measured by the harness, not assumed):

* Fourier connection: W(b) = 1/(2 sqrt(y y')) * int e^{-i lam u} W_hyp du;
  with this constant the k = 0 kernel is exactly (1/2) J0, the d'Alembert
  normalization.
* confluent-series prefactor: the half-integer power of -1 in the leading
  constant is the principal branch e^{i pi k}; with it the series path
  matches the Fourier path to machine precision for 2k = 1..4.
* resolvent transmutation: closed = 2 * int_0^inf e^{-i mu b} W(b) db, with
  Whittaker order nu = i mu, the only order resolvent_closed takes (the
  harness calibration reaches the rejected order nu = mu as
  resolvent_closed at -i mu).
* Hartman-Watson oracle: theta at argument t/2 (not t/4), overall 1/(4 pi)
  against this package's heat normalization; exact in t and k once both
  corrections are applied.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import quad, specfun
from .errors import (
    CancellationLimit,
    DiagonalSingularity,
    DomainError,
    OutsideConvergenceRegion,
    OutsideSupport,
    Phi1OutsideDisc,
    UnsupportedK,
    require_finite,
)
from .geometry import two_k_int
from .hkernels import SpectralParam, _check_decay, _gamma_prefactor as _hyp_gamma_prefactor, \
    _gamma_ratio, _resolvent_profile as _hyp_resolvent_profile, _wave_profile

__all__ = [
    "MorseConfig", "wave_aux_z", "wave_kernel_bessel0", "wave_kernel_phi1", "wave_kernel_fourier",
    "resolvent_closed", "resolvent_integral", "heat_kernel", "theta_hw", "hartman_watson_heat_oracle",
]

_RES_CFG = quad.QuadConfig(rel_tol=1e-8, abs_tol=1e-12)
_LINE_CFG = quad.QuadConfig(rel_tol=1e-8, abs_tol=1e-13)
_HW_CFG = quad.QuadConfig(rel_tol=1e-7, abs_tol=1e-14)

# trapezoid nodes on the Cauchy circle of the wave kernel's derivatives, every order
_CIRCLE_NODES = 16


@dataclass(frozen=True)
class MorseConfig:
    """Morse parameters: coupling lam > 0, magnetic constant k, positions."""

    lam: float
    k: float
    X: float
    Xp: float

    def __post_init__(self):
        if not math.isfinite(self.lam + self.k + self.X + self.Xp):  # a NaN or inf spoils the sum
            require_finite(lam=self.lam, k=self.k, X=self.X, Xp=self.Xp)
        if not self.lam > 0:
            raise DomainError("Morse coupling lam must be positive")

    @property
    def y(self) -> float:
        return math.exp(self.X)

    @property
    def yp(self) -> float:
        return math.exp(self.Xp)

    @property
    def rho_m(self) -> float:
        """Support radius |X - X'|; equals the hyperbolic distance minimum."""
        return abs(self.X - self.Xp)


def wave_aux_z(cfg: MorseConfig, b) -> np.ndarray:
    """Z = sqrt(4 y y' cosh^2(b/2) - (y + y')^2), real and >= 0 on support.

    Evaluated in the cancellation-free form
    4 y y' sinh((b+rho)/2) sinh((b-rho)/2) with rho = |X - X'|, using the
    identity 4 y y' cosh^2(rho/2) = (y + y')^2.
    """
    b = np.asarray(b, dtype=float)
    rho = cfg.rho_m
    s = 4.0 * cfg.y * cfg.yp * np.sinh((b + rho) / 2.0) * np.sinh((b - rho) / 2.0)
    return np.sqrt(np.maximum(s, 0.0))


def _require_support(cfg: MorseConfig, b: float, strict: bool = True):
    require_finite(b=b)
    if b < cfg.rho_m or (strict and b == cfg.rho_m):
        raise OutsideSupport(
            f"Morse wave kernel supported on b >= |X - X'| = {cfg.rho_m}, got b={b}")


def wave_kernel_bessel0(cfg: MorseConfig, b: float) -> float:
    """k = 0 closed form (1/2) J0(|lam| sqrt(2 y y' cosh b - y^2 - y'^2))."""
    if cfg.k != 0:
        raise UnsupportedK("wave_kernel_bessel0 is the k = 0 reduction")
    _require_support(cfg, b, strict=False)
    z = float(wave_aux_z(cfg, b))
    if z == 0.0:
        return 0.5
    return 0.5 * specfun.bessel("J", 0.0, abs(cfg.lam) * z)


def _window_derivative(content, b: float, order: int, rho: float) -> complex:
    """(d / (sinh(b/2) db))^order of content, a function of the complex offset
    d = w - w_rho, w = cosh(b/2), w_rho = cosh(rho/2) the support edge.

    In w the operator is (1/2 d/dw)^order, and content is analytic in w inside
    the series window w < w* = (2/sqrt 3) w_rho, where the second Phi1 argument
    reaches the unit circle.  So the Cauchy integral on |w - w0| = r, summed by
    the trapezoid rule, gives it with exponential accuracy:
    order!/(2r)^order * mean_j content(d0 + r e^{i theta_j}) e^{-i order theta_j},
    r = min(w0 - w_rho, w* - w0)/2.  Order 0 is content at d0 alone; order >= 1
    at w0 >= w* raises Phi1OutsideDisc.
    """
    d0 = 2.0 * math.sinh((b + rho) / 4.0) * math.sinh((b - rho) / 4.0)  # w0 - w_rho
    if order == 0:
        return content(d0)
    gap = (2.0 / math.sqrt(3.0) - 1.0) * math.cosh(rho / 2.0) - d0  # w* - w0
    if gap <= 0.0:
        raise Phi1OutsideDisc(f"b={b} at or past the end of the series window, w* - w = {gap:.3g}")
    r = 0.5 * min(d0, gap)
    turns = [cmath.exp(2j * math.pi * j / _CIRCLE_NODES) for j in range(_CIRCLE_NODES)]
    total = sum(content(d0 + r * e) * e ** -order for e in turns)
    return math.factorial(order) / (2.0 * r) ** order * total / _CIRCLE_NODES


def _phi1_series(cfg: MorseConfig, b: float, freq: float, sign: float, power, const) -> complex:
    """const (d/(sinh(b/2) db))^{2|k|} [ power(Z, Z + V, |k|) e^{-i freq Z} Phi1(2|k|+1/2,
      2|k|, 4|k|+1, 2 i freq Z, 2Z/(Z + V)) ], V = i sign (y + y'), Z = 2 sqrt(y y' d
    (d + 2 cosh(rho/2))) at the offset d of _window_derivative: the series of
    wave_kernel_phi1 (raising as it states) and of harness.wave_kernel_phi1_alt."""
    n, ak = two_k_int(cfg.k), abs(cfg.k)
    if n is None or ak > 2:
        raise UnsupportedK(f"confluent-series path needs 2k integer, |k| <= 2; got k={cfg.k}")
    _require_support(cfg, b)
    two_edge, z_scale = 2.0 * math.cosh(cfg.rho_m / 2.0), 2.0 * math.sqrt(cfg.y * cfg.yp)
    yv = 1j * sign * (cfg.y + cfg.yp)

    def content(d: complex) -> complex:
        z = z_scale * cmath.sqrt(d * (d + two_edge))
        zeta = 2.0 * z / (z + yv)
        try:
            ph1 = specfun.humbert_phi1(2 * ak + 0.5, 2 * ak, 4 * ak + 1.0, 2j * freq * z, zeta)
        except OutsideConvergenceRegion as exc:
            raise Phi1OutsideDisc(
                f"second argument |zeta|={abs(zeta):.4f} outside the unit disc at w - w_rho={d}") from exc
        return power(z, z + yv, ak) * cmath.exp(-1j * freq * z) * ph1

    return const * _window_derivative(content, b, n, cfg.rho_m)


def wave_kernel_phi1(cfg: MorseConfig, b: float) -> complex:
    """Wave kernel through the two-variable confluent series.

    C_k (4 y y')^{-|k|} (d/(sinh(b/2) db))^{2|k|} [ (2Z)^{4|k|}/(Z+Y)^{2|k|}
      e^{-i lam Z} Phi1(2|k|+1/2, 2|k|, 4|k|+1, 2 i lam Z, 2Z/(Z+Y)) ],
    C_k = e^{i pi k} Gamma(2|k|+1/2) / (2 Gamma(4|k|+1) sqrt(pi)), Y = i (y + y').

    Needs 2k integer with |k| <= 2 and the second series argument inside the
    unit disc, which confines b to the window rho < b < b*, cosh(b*/2) =
    (2/sqrt 3) cosh(rho/2); for k != 0, b >= b* raises Phi1OutsideDisc.  With
    w = cosh(b/2) the derivatives are (1/2 d/dw)^{2|k|}, every order from one
    16-node trapezoid sum of the Cauchy integral on the circle about w whose
    radius is half the distance to the nearer of the support edge
    cosh(rho/2) and the window end (see _window_derivative).  For k < 0 the
    kernel is evaluated through the exact reflection
    W at (-|k|, lam) = W at (+|k|, -lam): the Fourier transport conjugates
    the magnetic phase, which is the same as flipping the frequency.
    """
    ak = abs(cfg.k)
    c_k = cmath.exp(1j * math.pi * ak) * math.exp(
        specfun.log_gamma(2 * ak + 0.5).real - specfun.log_gamma(4 * ak + 1.0).real) \
        / (2.0 * math.sqrt(math.pi))
    return _phi1_series(cfg, b, -cfg.lam if cfg.k < 0 else cfg.lam, 1.0,  # sign(k) after reflection
                        lambda z, zv, ak: (2.0 * z) ** (4 * ak) / zv ** (2 * ak),
                        c_k * (4.0 * cfg.y * cfg.yp) ** (-ak))


def wave_kernel_fourier(cfg: MorseConfig, b: float) -> quad.QuadratureResult:
    """Wave kernel as the Fourier transport of the hyperbolic wave kernel:

    W(b) = 1/(2 sqrt(y y')) * int e^{-i lam u} phase(u)^k W_rad(b, rho(u)) du

    over the support u in (-Z, Z), Z = wave_aux_z, where W_rad's
    inverse-square-root factor is sqrt(y y') / (pi sqrt(Z^2 - u^2)).  So with
    u = Z cos theta, W(b) = int_0^pi g(Z cos theta) dtheta, g(u) =
    e^{-i lam u} phase(u)^k cosh(2|k| arccosh C(u)) / (2 pi), analytic at the
    support edge (the profile is even in sqrt(C - 1)): a periodic integrand,
    one trapezoid sum (quad.trapezoid_periodic).  g(-u) = conj g(u) folds
    theta with pi - theta, so W is 2 Re of the sum over [0, pi/2], exactly
    real.  n starts at lam Z / 4 + 8 (lam Z nodes a period, the bandwidth of
    e^{-i lam Z cos theta}) and doubles; err_estimate is the last doubling's
    difference, never below the round-off floor eps (lam Z + 4) h sum w|f|
    (the phase lam u carries eps lam Z).  Past the sum's node budget (lam Z
    in the thousands) it returns converged=False.

    cfg and b may be equal-length lists: a row each of one sum from the
    largest row's n, so value, err_estimate and converged_rows hold one entry
    each, and converged is all rows'.
    """
    cfgs, bs = (cfg, b) if isinstance(cfg, list) else ([cfg], [b])
    for cfg_, b_ in zip(cfgs, bs):
        _require_support(cfg_, b_)
    par = [(c_.lam, float(wave_aux_z(c_, b_)), c_.k, abs(c_.k), c_.y + c_.yp, 4.0 * c_.y * c_.yp,
            math.cosh(b_ / 2.0)) for c_, b_ in zip(cfgs, bs)]
    cols = np.array(par).T[:, :, None]

    def f(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        lam, z_edge, k, ak, v, yy4, ch_b2 = cols[:, rows]
        # 2 Re g: the phase ((-u + iv)/(u + iv))^k is e^{ik(pi - 2 arg(u + iv))}
        u = z_edge * np.cos(theta)
        c = ch_b2 * np.sqrt(yy4 / (u * u + v * v))
        return (_wave_profile(ak, c) * np.cos(k * (math.pi - 2.0 * np.arctan2(v, u)) - lam * u)
                / math.pi)

    lam_z, tol, eps = [row[0] * row[1] for row in par], quad.DEFAULT_CONFIG, np.finfo(float).eps
    res = quad.trapezoid_periodic(f, math.pi / 2.0, math.ceil(max(lam_z) / 4.0) + 8,
                                  [tol.abs_tol] * len(par), tol.rel_tol,
                                  [eps * (lz + 4.0) for lz in lam_z])
    res.value = res.value.astype(complex)
    return res if isinstance(cfg, list) else res.row(0)


def resolvent_closed(cfg: MorseConfig, mu):
    """Whittaker-product closed form of the Morse resolvent.

    Gamma(nu-k+1/2)/(lam Gamma(1+2nu)) e^{-(X+X')/2}
      * W_{k,nu}(2 lam e^{max(X,X')}) * M_{k,nu}(2 lam e^{min(X,X')}),

    nu = i mu (the calibrated index convention), with the signed k as the
    Whittaker index.  The formula pairs M with the smaller and W with the
    larger coordinate, making it a function of the unordered pair.  mu may be
    an ndarray: every special function then takes the array of orders (one
    1F1 table per Whittaker M), and the first bad entry raises as a scalar
    call would.  A NaN or infinite mu raises NonFiniteInput before any series
    runs, a pole of either gamma function GammaPole.
    """
    k, array = cfg.k, specfun._is_array(mu)
    require_finite(mu=mu.ravel().tolist() if array else mu)
    nu = 1j * (mu.astype(complex) if array else complex(mu))
    x_lo, x_hi = min(cfg.X, cfg.Xp), max(cfg.X, cfg.Xp)
    pref = _gamma_ratio((nu - k + 0.5,), 1.0 + 2.0 * nu) / cfg.lam
    return pref * math.exp(-(cfg.X + cfg.Xp) / 2.0) \
        * specfun.whittaker("W", k, nu, 2.0 * cfg.lam * math.exp(x_hi)) \
        * specfun.whittaker("M", k, nu, 2.0 * cfg.lam * math.exp(x_lo))


def resolvent_integral(cfg: MorseConfig, mu: complex) -> quad.QuadratureResult:
    """Morse resolvent as the transmutation integral
    2 * int_0^inf e^{-i mu b} W(b, y, y') db.

    The constant 2 is calibrated against the Whittaker closed form (the k = 0
    reduction 2 I_nu K_nu pins it).  Evaluated with the b-integral carried
    out first under the Fourier connection (Fubini), which turns the double
    integral into a single transverse integral of the closed hyperbolic
    resolvent at s = 1/2 + i mu:

    (2 / sqrt(y y')) * int_-inf^inf e^{-i lam u} G_hyp(s; z(u), z') du.

    This keeps every special-function argument at desk scale; the literal
    b-first sweep would drive the k = 0 Bessel factor four orders of
    magnitude past the reliable series range before the tail closes.

    On the real axis the integrand decays only like |u|^(-2 Re s) while it
    oscillates, so the line moves onto the hyperbola u(x) = d sinh x -
    i c (cosh x - 1), d = |y - y'|, c = d/2, where |e^{-i lam u}| =
    e^{-lam c (cosh x - 1)} decays double-exponentially (Takahasi & Mori 1974).
    The contour meets G_hyp's cuts +-i[d, inf) only at u = 0, Re u^2 >= 0 keeps
    the 2F1 argument in the real axis's disc |z| <= sech^2(rho/2), and the
    branch points u = i d, -i d sit at x = 0.93i, +-0.80 - 1.11i whatever d.
    So the integral is one trapezoid sum (quad.trapezoid_even, Trefethen &
    Weideman 2014) in 2x, cut where lam c (cosh x - 1) = 45, each call one 2F1
    call.  It folds x and -x: at real s (mu on the negative imaginary axis)
    f(-x) = conj f(x), so the fold is 2 Re f(x), one row and one 2F1 entry per
    node; otherwise a row each for the real and imaginary parts.  Where
    Re u < 0, u + iv (v = y + y') can cross the negative real axis, so the
    phase ((-u + iv)/(u + iv))^k takes log(u + iv) as i pi + log(-u - iv); the
    principal branch would be off by e^{-2 pi i k} there.
    """
    _check_decay(mu, cfg.k)
    if cfg.rho_m < 1e-7:
        raise DiagonalSingularity("resolvent integral needs X != X'")
    s = SpectralParam(mu).s
    k, ak, lam = cfg.k, abs(cfg.k), cfg.lam
    pref = _hyp_gamma_prefactor(s, k)
    y, yp = cfg.y, cfg.yp
    v, d = y + yp, abs(y - yp)

    def integrand(x: np.ndarray) -> np.ndarray:
        # e^{-i lam u} G_hyp(u) du/dx, less G's prefactor, at u(x) (one 2F1 call)
        sh = np.sinh(x)
        u = d * (sh - 1j * np.sinh(x / 2.0) ** 2)  # c (cosh x - 1) = d sinh^2(x/2)
        log_uv = np.where(u.real < 0.0, 1j * math.pi + np.log(-u - 1j * v), np.log(u + 1j * v))
        return _hyp_resolvent_profile(s, ak, (u * u + v * v) / (4.0 * y * yp)) \
            * np.exp(k * (np.log(-u + 1j * v) - log_uv) - 1j * lam * u) * d * (np.cosh(x) - 0.5j * sh)

    def fold(xi: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # (f(x) + f(-x)) / 2 at x = xi/2, so that the sum over xi is int_-inf^inf f dx
        x = xi / 2.0
        if s.imag == 0.0:
            return integrand(x).real[None, :]
        f = integrand(np.concatenate([x, -x]))
        even = 0.5 * (f[:x.size] + f[x.size:])
        return np.stack([even.real, even.imag])[rows]

    res = quad.trapezoid_even(fold, 2.0 * math.acosh(1.0 + 90.0 / (lam * d)),
                              np.full(1 if s.imag == 0.0 else 2, _RES_CFG.abs_tol), _RES_CFG.rel_tol)
    return quad.QuadratureResult(complex(*res.value), math.hypot(*res.err_estimate), res.n_evals,
                                 res.converged).scaled(2.0 * pref / math.sqrt(y * yp))


def heat_kernel(cfg: MorseConfig, t: float,
                qcfg: quad.QuadConfig = _LINE_CFG) -> quad.QuadratureResult:
    """Morse heat kernel int_{|X-X'|}^inf e^{-b^2/4t} / (4 pi t)^{3/2} W(b) b db
    as q(t) = (i / 8 pi^2) int_{Im mu = -c} mu e^{-t mu^2} R(mu) dmu, R the
    closed resolvent.  R's poles sit at nu = i mu = k - 1/2 - n (signed k); c
    is the smallest odd multiple of 1/4 at least 3/4 right of them, so 2 nu
    stays off the integers where W fails.  On the line the integrand is
    analytic and Gaussian, so the trapezoid rule converges exponentially, and
    R(-conj mu) = conj R(mu) leaves q = -(h / 4 pi^2) sum' Im f(jh), j >= 0,
    cut where e^{-t(sigma^2 - c^2)} < eps (quad.trapezoid_even, tolerance
    qcfg).  Each trapezoid call is one resolvent_closed call on the array of
    its nodes' mu (its first call two levels: 27 and 21 nodes at the
    benchmark's two heat points), and n_evals counts closed resolvents.  Its
    round-off floor is 4 eps kappa h sum|f| / 4 pi^2, kappa the cancellation
    of W's two M terms at sigma = 0 (its worst): each term carries a few ulps
    of its own, from two log-gamma values, a power and a series (up to about
    4 eps kappa measured in W at one node).  Large k t or Morse argument
    2 lam e^{max(X, X')} lifts the floor; past 40 the closed resolvent raises
    SeriesNonConvergence.
    """
    require_finite(t=t)
    if not t > 0:
        raise DomainError("heat kernel needs t > 0")
    c = (math.ceil(2.0 * max(cfg.k + 0.25, 0.25) - 0.5) + 0.5) / 2.0
    w1, w2 = specfun._whittaker_w_terms(cfg.k, c, 2.0 * cfg.lam * math.exp(max(cfg.X, cfg.Xp)))
    eps = np.finfo(float).eps
    noise = 4.0 * eps * (abs(w1) + abs(w2)) / abs(w1 + w2)
    sig_max = math.sqrt(c * c + math.log(1.0 / eps) / t)

    def f(sig: np.ndarray, _) -> np.ndarray:
        mu = sig - 1j * c
        return -(mu * np.exp(-t * mu * mu) * resolvent_closed(cfg, mu)).imag[None, :] / (4 * math.pi ** 2)

    return quad.trapezoid_even(f, sig_max, qcfg.abs_tol, qcfg.rel_tol, noise).row(0)


def theta_hw(r, tau: float, abs_tol) -> quad.QuadratureResult:
    """Hartman-Watson integrand at every entry of the array r:
    theta_r(tau) = r e^{pi^2/(2 tau)} / sqrt(2 pi^3 tau)
      * int_0^inf e^{-xi^2/(2 tau)} e^{-r cosh xi} sinh(xi) sin(pi xi / tau) dxi.

    The xi-integrand is even and entire with Gaussian decay, so all rows are
    one trapezoid array (quad.trapezoid_even) over [0, sqrt(190 tau)] (e^{-95}
    beyond), each theta bounded by rel_tol 1e-9 and its abs_tol (one per r,
    or one for all).  The integral cancels down to e^{-pi^2/(2 tau)} of its
    gross scale, leaving the round-off floor eps e^{-r} int_0^inf
    e^{-xi^2/(2 tau)} sinh xi dxi: the tolerance is raised to that floor,
    err_estimate never below.  So small tau (tau <~ 0.2) cannot be resolved
    in double precision; callers keep t/2 >= ~0.35.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    pref = r / math.sqrt(2.0 * math.pi ** 3 * tau) * math.exp(math.pi ** 2 / (2.0 * tau))

    def f(xi: np.ndarray, rows: np.ndarray) -> np.ndarray:
        common = np.exp(-xi * xi / (2.0 * tau)) * np.sinh(xi) * np.sin(math.pi * xi / tau)
        return np.exp(-r[rows, None] * np.cosh(xi)) * common

    floor = np.finfo(float).eps * np.exp(-r) * math.sqrt(math.pi * tau / 2.0) \
        * math.exp(tau / 2.0) * math.erf(math.sqrt(tau / 2.0))
    res = quad.trapezoid_even(f, math.sqrt(190.0 * tau), np.maximum(abs_tol / pref, floor), 1e-9)
    res.err_estimate = np.maximum(res.err_estimate, floor)
    return res.scaled(pref)


def hartman_watson_heat_oracle(cfg: MorseConfig, t: float) -> quad.QuadratureResult:
    """Independent heat-kernel oracle through the Hartman-Watson density:

    q(t) = 1/(4 pi) * int_0^inf e^{2ku} / (2 sinh u)
             * e^{-lam (y+y') coth u} * theta_{Phi(u)}(t/2) du,
    Phi(u) = 2 lam e^{(X+X')/2} / sinh u.

    The t/2 argument and the 1/(4 pi) normalization are the calibrated
    corrections to the raw double integral (at t/4 the ratio to the heat
    kernel drifts with t; with them it is exactly 1 in t and k).

    The outer integral is one trapezoid sum (quad.trapezoid_even, Trefethen &
    Weideman 2014) in x = log u, folded about x0 = log(lam (y+y')): u -> 0
    decays double-exponentially through e^{-lam (y+y') coth u}, and u -> inf
    like a Gaussian, theta_r falling like e^{-(log r)^2/(2 tau)} at small r.
    The cut |x - x0| = xi_max reaches e^{-45} of the damping on the left and,
    on the right, the u where that Gaussian, against e^{(2k-1)u}, is e^{-45}
    down, short of where e^{2ku} or sinh u overflow; nodes past either cut
    count as 0.  The other nodes of one trapezoid call go to one theta_hw
    call, one trapezoid array (two calls, 31 outer nodes at the benchmark's
    heat points); each theta gets rel_tol 1e-9 and the absolute error the
    outer sum affords at its node: abs_tol 1e-14 over the outer weight (du =
    u dx included).  A node inside its own error bar counts as 0.  In each
    call, the first node in node order whose weighted error tops
    max(abs_tol, rel_tol * peak), peak the largest weighted |value| of every
    node so far, this call's included, raises CancellationLimit (theta's
    round-off floor: tails at k well past 1, small t).
    n_evals and converged cover every inner integral; err_estimate adds the
    largest weighted inner error times the swept length 2 xi_max, and
    converged needs that total to meet _HW_CFG (rel_tol 1e-7, abs_tol
    1e-14).  Callers use t >= 0.7.
    """
    require_finite(t=t)
    if not t > 0:
        raise DomainError("oracle needs t > 0")
    inner_evals, inner_ok, err, peak = 0, True, 0.0, 0.0
    r0, tau, damp0 = 2.0 * cfg.lam * math.exp((cfg.X + cfg.Xp) / 2.0), t / 2.0, cfg.lam * (cfg.y + cfg.yp)
    x0, slope = math.log(damp0), 2.0 * cfg.k - 1.0
    # the right cut: w^2 / (2 tau) - (2k - 1) u = 45 at r = 2 e^{-w}, u = w + log r0 once u >~ 2
    w = tau * slope + math.sqrt(max(0.0, (tau * slope) ** 2 + 2.0 * tau * (45.0 + slope * math.log(r0))))
    u_max = min(math.asinh(r0 * math.exp(w) / 2.0), 700.0 / (2.0 * abs(cfg.k) + 1.0))

    def outer(xi: np.ndarray, _) -> np.ndarray:
        nonlocal inner_evals, inner_ok, err, peak
        x = x0 + np.concatenate([xi, -xi])
        u, out = np.exp(x), np.zeros(2 * xi.size)
        log_weight = x + 2.0 * cfg.k * u - damp0 / np.tanh(u)  # du = u dx
        live = (u <= u_max) & (log_weight >= -700.0)
        u, weight, sh2 = u[live], np.exp(log_weight[live]), 2.0 * np.sinh(u[live])
        th = theta_hw(r0 * 2.0 / sh2, tau, _HW_CFG.abs_tol / weight * sh2)
        vals = np.where(np.abs(th.value) > th.err_estimate, weight * th.value / sh2, 0.0)
        werr = weight * th.err_estimate / sh2
        peak = np.abs(vals).max(initial=peak)
        over = np.flatnonzero(werr > max(_HW_CFG.abs_tol, _HW_CFG.rel_tol * peak))
        if over.size:
            raise CancellationLimit(f"round-off {werr[over[0]]:.3g} at u={u[over[0]]:.4g}"
                                    f" tops max(abs_tol, rel_tol * peak {peak:.3g})")
        out[live] = vals
        inner_evals, inner_ok = inner_evals + th.n_evals, inner_ok and th.converged
        err = werr.max(initial=err)
        return (out[:xi.size] + out[xi.size:])[None, :]

    xi_max = math.log(max(45.0, u_max / damp0))  # damping e^{-45} on the left, u_max on the right
    res = quad.trapezoid_even(outer, xi_max, _HW_CFG.abs_tol, _HW_CFG.rel_tol)
    res = res.row(0)
    res.n_evals += inner_evals
    res.err_estimate += 2.0 * xi_max * err
    res.converged = res.converged and inner_ok and res.err_estimate <= res.tolerance_bound(_HW_CFG)
    return res.scaled(1.0 / (4.0 * math.pi))
