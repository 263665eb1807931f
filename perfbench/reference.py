"""Independent reference values for every timed point.

Nothing here calls the package under test.  The references come from SciPy's
and mpmath's special functions, from closed forms the package does not use (the cosh form
of the radial wave kernel, the Bessel form of the k = 0 Morse resolvent), and
from fixed-order Gauss-Legendre quadrature of the transmutation integrals in
NumPy, which shares neither the package's adaptive integrator nor its
hypergeometric series.  They are evaluated outside the timed region.
"""
from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import scipy.integrate
import scipy.special as sc

from workloads import hyp_dist, morse_aux_z

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _gauss_legendre(f, lo: float, hi: float, panels: int) -> complex:
    """Composite 16-point Gauss-Legendre rule; f maps an ndarray to values."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    x = (mid + half * _GL_X).ravel()
    w = (half * _GL_W).ravel()
    return complex(np.sum(w * f(x)))


def _phase(k: float, z, zp) -> complex:
    """((z' - conj z) / (z - conj z'))^k on the principal branch."""
    num = complex(zp[0] - z[0], z[1] + zp[1])
    den = complex(z[0] - zp[0], z[1] + zp[1])
    return cmath.exp(k * (cmath.log(num) - cmath.log(den)))


def _cosh_profile(k: float, C):
    """2F1(|k|, -|k|; 1/2; 1 - C^2) = cosh(2|k| arccosh C) for C >= 1."""
    return np.cosh(2.0 * abs(k) * np.arccosh(np.maximum(C, 1.0)))


# ---------------------------------------------------------------------------
# hyperbolic kernels
# ---------------------------------------------------------------------------

def hwave(k: float, b: float, z, zp) -> complex:
    rho = hyp_dist(z, zp)
    C = math.cosh(b / 2.0) / math.cosh(rho / 2.0)
    S = math.sinh((b + rho) / 2.0) * math.sinh((b - rho) / 2.0)
    return _phase(k, z, zp) * float(_cosh_profile(k, C)) / (2.0 * math.pi * math.sqrt(S))


def _radial_over_sqrt_s(k: float, rho: float, u):
    """Radial wave kernel times 2u (the Jacobian of b = rho + u^2)."""
    b = rho + u * u
    C = np.cosh(b / 2.0) / math.cosh(rho / 2.0)
    # S = sinh(rho + u^2/2) sinh(u^2/2); Gauss nodes never sit at u = 0
    half = 0.5 * u * u
    jac = 2.0 * u / np.sqrt(np.sinh(rho + half) * np.sinh(half))
    return b, _cosh_profile(k, C) / (2.0 * math.pi) * jac


def hres(k: float, mu: complex, z, zp) -> complex:
    """(1/2) int_rho^inf W(b) e^{-i mu b} db, the transmutation integral."""
    rho = hyp_dist(z, zp)
    decay = -complex(mu).imag - abs(k) + 0.5
    u_max = math.sqrt(45.0 / decay)

    def f(u):
        b, w = _radial_over_sqrt_s(k, rho, u)
        return w * np.exp(-1j * mu * b)

    return 0.5 * _phase(k, z, zp) * _gauss_legendre(f, 0.0, u_max, max(24, int(u_max * 6)))


def hheat(t: float, k: float, z, zp) -> complex:
    """int_rho^inf e^{-b^2/4t} / (4 pi t)^{3/2} W(b) b db."""
    rho = hyp_dist(z, zp)
    b_max = 2.0 * math.sqrt(45.0 * t) + 4.0 * t * abs(k) + rho
    u_max = math.sqrt(b_max - rho)

    def f(u):
        b, w = _radial_over_sqrt_s(k, rho, u)
        return w * b * np.exp(-b * b / (4.0 * t))

    norm = (4.0 * math.pi * t) ** 1.5
    return _phase(k, z, zp) * _gauss_legendre(f, 0.0, u_max, 24) / norm


# ---------------------------------------------------------------------------
# Morse kernels
# ---------------------------------------------------------------------------

def _whittaker_w_real(k: float, m: float, x: float) -> float:
    """W_{k,m}(x) from the Laplace integral of Tricomi U (DLMF 13.4.4),
    a = m - k + 1/2 > 0; QUADPACK's algebraic-weight rule takes t^(a-1)."""
    a, bb = m - k + 0.5, 1.0 + 2.0 * m
    val, _ = scipy.integrate.quad(lambda t: math.exp(-x * t) * (1.0 + t) ** (bb - a - 1.0),
                                  0.0, 45.0 / x, weight="alg", wvar=(a - 1.0, 0.0),
                                  epsabs=0.0, epsrel=1e-13, limit=200)
    return math.exp(-x / 2.0) * x ** (m + 0.5) * val / sc.gamma(a)


def _whittaker_m_real(k: float, m: float, x: float) -> float:
    return float(mpmath.whitm(k, m, x))


def mres(lam: float, k: float, mu: complex, X: float, Xp: float) -> complex:
    """Morse resolvent at nu = i mu real.  k = 0 uses 2 K_nu I_nu (DLMF
    13.18.8-9 with the gamma duplication formula); other k the Whittaker
    W x M product with mpmath's M and the Laplace-integral W."""
    nu = (1j * complex(mu)).real
    x_hi, x_lo = max(X, Xp), min(X, Xp)
    if k == 0.0:
        return 2.0 * sc.kv(nu, lam * math.exp(x_hi)) * sc.iv(nu, lam * math.exp(x_lo))
    ak = abs(k)
    pref = math.exp(sc.gammaln(nu - ak + 0.5) - sc.gammaln(1.0 + 2.0 * nu)) / lam
    return (pref * math.exp(-(X + Xp) / 2.0)
            * _whittaker_w_real(ak, nu, 2.0 * lam * math.exp(x_hi))
            * _whittaker_m_real(ak, nu, 2.0 * lam * math.exp(x_lo)))


def mwave(lam: float, k: float, b: float, X: float, Xp: float) -> complex:
    """k = 0: (1/2) J0(lam Z).  Otherwise the Fourier transport
    (1/2pi) int_{-pi/2}^{pi/2} e^{-i lam u} phase(u)^k cosh(2|k| arccosh C(u)) dtheta,
    u = Z sin(theta), which removes both inverse-square-root endpoints."""
    Z = morse_aux_z(X, Xp, b)
    if k == 0.0:
        return complex(0.5 * sc.j0(lam * Z))
    y, yp = math.exp(X), math.exp(Xp)
    v = y + yp

    def f(theta):
        u = Z * np.sin(theta)
        C = math.cosh(b / 2.0) / np.sqrt((u * u + v * v) / (4.0 * y * yp))
        phase = np.exp(k * (np.log(-u + 1j * v) - np.log(u + 1j * v)))
        return _cosh_profile(k, C) * phase * np.exp(-1j * lam * u)

    return _gauss_legendre(f, -0.5 * math.pi, 0.5 * math.pi, 16) / (2.0 * math.pi)


def mwave_scale(lam: float, k: float, b: float, X: float, Xp: float) -> float:
    """Envelope (1/2) sqrt(J0^2 + Y0^2) of the oscillating k = 0 kernel, used
    as the error scale near its zeros."""
    if k != 0.0:
        return 0.0
    x = lam * morse_aux_z(X, Xp, b)
    return 0.5 * math.hypot(sc.j0(x), sc.y0(x)) if x > 0 else 0.5


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def specfun(op: str, args: tuple) -> complex:
    """SciPy for log-gamma and Bessel functions; mpmath for the
    hypergeometric series, where SciPy's real-parameter routines were seen
    to err by 1e-11 inside the sampled region."""
    if op == "specfun.log_gamma":
        return complex(sc.loggamma(args[0]))
    if op == "specfun.gauss_2f1":
        return complex(mpmath.hyp2f1(*args))
    if op == "specfun.kummer_1f1":
        return complex(mpmath.hyp1f1(*args))
    if op == "specfun.bessel":
        kind, nu, x = args
        return complex({"J": sc.jv, "I": sc.iv, "K": sc.kv}[kind](nu, x))
    if op == "specfun.whittaker":
        kind, k, m, x = args
        return complex((_whittaker_m_real if kind == "M" else _whittaker_w_real)(k, m, x))
    raise ValueError(f"no reference for {op}")


def specfun_scale(op: str, args: tuple) -> float:
    """Error scale below which an absolute error is what counts: 1 for
    log-gamma (it crosses zero at 1 and 2), the Bessel modulus for J."""
    if op == "specfun.log_gamma":
        return 1.0
    if op == "specfun.bessel" and args[0] == "J":
        return math.hypot(sc.jv(args[1], args[2]), sc.yv(args[1], args[2]))
    return 0.0


def rel_err(got: complex, ref: complex, scale: float = 0.0) -> float:
    """|got - ref| / max(|ref|, scale); NaN or inf in got counts as 1."""
    got = complex(got)
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return 1.0
    return abs(got - complex(ref)) / max(abs(complex(ref)), scale, 1e-300)
