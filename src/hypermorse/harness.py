"""Identity-verification suites, convention calibration, and grid evaluation.

Every cross-representation identity the kernel modules implement is checked
here over parameter grids, each against its own TOLERANCES entry; run_suite
applies any tolerance overrides once, to the finished reports.  Suites run
every grid point even after failures and report the worst point with enough
parameters to reproduce it from a single CLI call.  Calibration measures each
convention candidate against one reference per point.  The rejected candidates
live here only: the kernels ship the calibrated conventions alone, so each
candidate is reached through the production routine at a moved argument
(_MAPPINGS, _WHITTAKER_ORDERS), or is the production series at its own power
part, frequency and constant (wave_kernel_phi1_alt).  So are the hyperbolic
wave kernel's five reference forms (wave_form_radial, for the forms check).
"""
from __future__ import annotations

import ast
import cmath
import csv
import io
import itertools
import json
import math
import os
import stat
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import mkernels, quad, specfun
from .errors import (CalibrationAmbiguous, DomainError, HypermorseError, InvalidGrid,
                     MissingParameter, NotConverged, UnsupportedK, require_finite)
from .geometry import HalfPlanePoint, two_k_int
from .hkernels import (
    SpectralParam,
    _cosh2_ratio,
    heat_kernel as hyp_heat_kernel,
    resolvent_closed as hyp_resolvent_closed,
    resolvent_integral as hyp_resolvent_integral,
    wave_kernel as hyp_wave_kernel,
    wave_kernel_radial,
)
from .mkernels import (
    MorseConfig,
    hartman_watson_heat_oracle,
    heat_kernel as morse_heat_kernel,
    resolvent_closed as morse_resolvent_closed,
    resolvent_integral as morse_resolvent_integral,
    wave_kernel_bessel0,
    wave_kernel_fourier,
    wave_kernel_phi1,
)

__all__ = [
    "TOLERANCES",
    "SUITES",
    "IdentityReport",
    "CalibrationRecord",
    "calibrate_spectral_mapping",
    "run_suite",
    "grid_eval",
    "apply_halfplane_generator",
    "KERNEL_IDS",
    "KERNEL_PARAMS",
    "eval_kernel",
]

# Per-identity tolerances; the identities differ wildly in conditioning
# (form equivalence is exact algebra, the Hartman-Watson oracle is a rough
# double integral), so they are pinned here in one place.
TOLERANCES = {
    "hyperbolic_forms": 1e-9,
    "hyperbolic_resolvent": 1e-6,
    "hyperbolic_heat_pde": 1e-3,
    "morse_wave_bessel_phi1": 1e-6,
    "morse_wave_bessel_alternate": 1e-6,
    "morse_wave_bessel_fourier": 1e-4,
    "morse_wave_phi1_fourier_half_k": 1e-5,
    "morse_resolvent": 1e-4,
    "morse_heat_hw_oracle": 1e-3,
    "morse_heat_pde": 1e-5,
    "whittaker_product": 1e-4,
    "bessel_product": 1e-6,
    "specfun_oracle": 1e-11,
    "calibration": 1e-6,
}


@dataclass
class IdentityReport:
    """Outcome of one identity check over one grid."""

    identity_id: str
    grid_spec: str
    max_rel_err: float
    worst_point: dict
    passed: bool
    tolerance: float
    runtime_ms: float
    n_points: int = 0
    n_point_errors: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CalibrationRecord:
    """The empirically selected convention set and all candidate residuals."""

    mapping_id: str
    whittaker_index_convention: str
    morse_wave_variant: str
    residuals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _relerr(a: complex, b: complex) -> float:
    """|a - b| over the larger magnitude; inf where that is not finite, since a
    NaN compares False and would pass both max() and a tolerance."""
    rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
    return rel if math.isfinite(rel) else math.inf


def _converged(res: quad.QuadratureResult):
    """res.value, or NotConverged where res did not converge: an integral that
    missed its tolerance never counts toward a pass."""
    if not res.converged:
        raise NotConverged(f"integral unconverged: err_estimate {np.max(res.err_estimate):.3g}"
                           f" after {res.n_evals} evaluations")
    return res.value


def _spread(vals: np.ndarray) -> np.ndarray:  # per column, over the rows
    return np.abs(vals[:, None] - vals[None]).max(axis=(0, 1)) / np.abs(vals).max(axis=0)


class _Worst:
    """Tracks the worst relative error and the parameters producing it, and
    the check's start time."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.max_rel_err = 0.0
        self.worst_point: dict = {}
        self.n_points = 0
        self.n_errors = 0

    def update(self, rel: float, point: dict):
        self.n_points += 1
        if not math.isfinite(rel):  # a NaN compares False: count it as a failed point
            self.n_errors += 1
            rel, point = math.inf, {**point, "error": f"non-finite residual {rel}"}
        if rel > self.max_rel_err:
            self.max_rel_err = rel
            self.worst_point = point

    def error(self, point: dict, exc: Exception):
        self.n_points += 1
        self.n_errors += 1
        if not math.isinf(self.max_rel_err):
            self.max_rel_err = float("inf")
            self.worst_point = {**point, "error": f"{type(exc).__name__}: {exc}"}

    def run(self, point: dict, rel_err: Callable[[], float]):
        """Record rel_err() at point, or the HypermorseError it raises."""
        try:
            self.update(rel_err(), point)
        except HypermorseError as exc:
            self.error(point, exc)

    def report(self, identity_id: str, grid_spec: str) -> IdentityReport:
        """The check's report, judged against TOLERANCES[identity_id]."""
        # numpy scalars sneak in through vectorized kernels; coerce so the
        # report serializes as plain JSON
        tol, max_rel = TOLERANCES[identity_id], float(self.max_rel_err)
        point = {k: (float(v) if isinstance(v, (np.floating, np.integer)) else v)
                 for k, v in self.worst_point.items()}
        return IdentityReport(identity_id=identity_id, grid_spec=grid_spec, max_rel_err=max_rel,
                              worst_point=point, passed=bool(max_rel <= tol), tolerance=tol,
                              runtime_ms=(time.perf_counter() - self.t0) * 1000.0,
                              n_points=self.n_points, n_point_errors=self.n_errors)


# ---------------------------------------------------------------------------
# hyperbolic identities
# ---------------------------------------------------------------------------

WAVE_FORMS = ("baseline", "i", "ii", "iii", "iv")


def wave_form_radial(form: str, k: float, b: np.ndarray, rho: float) -> np.ndarray:
    """Reference form of wave_kernel_radial at the float array b > rho: three
    hypergeometric series ("baseline", "i", "ii"), the Chebyshev polynomial
    ("iii") or a finite sum ("iv"), the last two for 2k integer only."""
    ak, n_int = abs(k), two_k_int(k)
    if form in ("iii", "iv") and n_int is None:
        raise UnsupportedK(f"form {form} needs 2k integer, got k={k}")
    C, S = _cosh2_ratio(b, rho)
    inv_sqrt_s = 1.0 / (2.0 * math.pi * np.sqrt(S))
    if form == "iii":
        vals = inv_sqrt_s * specfun.chebyshev_t(n_int, C)
    elif form == "iv":
        n_top = int(math.floor(ak + 1e-12))
        acc, coeff = np.zeros_like(b), 1.0
        for n in range(n_top + 1):
            acc += coeff * np.cosh(b / 2.0) ** (2 * ak - 2 * n) * S ** n
            coeff *= (-ak + n) * (0.5 - ak + n) / ((0.5 + n) * (n + 1))
        vals = math.cosh(rho / 2.0) ** (-2 * ak) * acc / (2.0 * math.pi * np.sqrt(S))
    elif form == "baseline":
        vals = inv_sqrt_s * specfun.gauss_2f1(ak, -ak, 0.5, 1.0 - C * C).real
    elif form == "i":
        vals = inv_sqrt_s * specfun.gauss_2f1(2 * ak, -2 * ak, 0.5, (1.0 - C) / 2.0).real
    elif form == "ii":
        vals = inv_sqrt_s * C ** (2 * ak) \
            * specfun.gauss_2f1(-ak, 0.5 - ak, 0.5, 1.0 - 1.0 / (C * C)).real
    else:
        raise DomainError(f"unknown wave-kernel form {form!r}")
    return vals.astype(complex)


def check_hyperbolic_forms() -> IdentityReport:
    """The production closed form ("auto") and all five reference
    representations agree for 2k = 0..4 on a 10 x 10 grid rho in [0.2, 2.5],
    b in (rho, rho + 4]."""
    worst = _Worst()
    for two_k, rho in itertools.product(range(5), np.linspace(0.2, 2.5, 10).tolist()):
        bs = rho + 4.0 * np.linspace(0.08, 1.0, 10)  # one array call per form
        points = [{"two_k": two_k, "rho": rho, "b": b} for b in bs.tolist()]
        try:
            vals = np.array([wave_kernel_radial(two_k / 2.0, bs, rho)]
                            + [wave_form_radial(fm, two_k / 2.0, bs, rho) for fm in WAVE_FORMS])
        except HypermorseError as exc:
            for point in points:
                worst.error(point, exc)
            continue
        for point, rel in zip(points, _spread(vals).tolist()):
            worst.update(rel, point)
    return worst.report("hyperbolic_forms",
                        "auto + 5 forms; 2k in 0..4; rho in [0.2,2.5] x b in (rho, rho+4], 10x10")


_RESOLVENT_PAIRS = (
    ((0.0, 1.0), (0.5, 2.0)),
    ((0.0, 1.0), (0.3, 1.4)),
    ((1.0, 0.8), (0.0, 1.6)),
    ((0.0, 1.0), (0.0, math.e)),
    ((-0.5, 1.2), (0.7, 0.9)),
)


def check_hyperbolic_resolvent() -> IdentityReport:
    """Closed resolvent vs transmutation integral at the calibrated mapping."""
    mus, ks = (-0.8j, -1.5j, -2.5j), (0.0, 0.3, 0.5, 1.0)
    worst = _Worst()
    for mu, k, (p1, p2) in itertools.product(mus, ks, _RESOLVENT_PAIRS):
        z, zp = HalfPlanePoint(*p1), HalfPlanePoint(*p2)
        sp = SpectralParam(mu)
        worst.run({"mu": str(mu), "k": k, "z": p1, "zp": p2},
                  lambda: _relerr(hyp_resolvent_closed(sp, k, z, zp),
                                  _converged(hyp_resolvent_integral(sp, k, z, zp))))
    return worst.report("hyperbolic_resolvent",
                        f"mu in {list(map(str, mus))}, k in {list(ks)}, {len(_RESOLVENT_PAIRS)} pairs")


def _d1(g: Callable, c: float, h: float):
    """Five-point-stencil first derivative of g at c, step h."""
    return (-g(c + 2 * h) + 8 * g(c + h) - 8 * g(c - h) + g(c - 2 * h)) / (12 * h)


def _d2(g: Callable, c: float, h: float, gc):
    """Five-point-stencil second derivative of g at c, step h; gc = g(c)."""
    return (-g(c + 2 * h) + 16 * g(c + h) - 30 * gc + 16 * g(c - h) - g(c - 2 * h)) / (12 * h * h)


def apply_halfplane_generator(f: Callable[[float, float], complex], z: HalfPlanePoint,
                              k: float, h: float = 0.02) -> complex:
    """Five-point-stencil application of the half-plane generator
    y^2 (d_xx + d_yy) - 2 i k y d_x + 1/4 to f(x, y) at z.

    The sign of the first-order term is the one that pairs with the package's
    phase orientation ((z' - conj z)/(z - conj z'))^k; the opposite sign
    belongs to the reciprocal phase convention.
    """
    x, y = z.x, z.y
    fc, along_x = f(x, y), lambda xx: f(xx, y)
    fxx, fyy = _d2(along_x, x, h, fc), _d2(partial(f, x), y, h, fc)
    return y * y * (fxx + fyy) - 2j * k * y * _d1(along_x, x, h) + 0.25 * fc


_PDE_SAMPLES = (
    (0.3, 0.0, (0.0, 1.0), (0.4, 1.3)),
    (0.5, 0.5, (0.0, 1.0), (0.5, 1.6)),
    (0.7, 1.0, (0.0, 1.0), (0.3, 1.4)),
    (0.9, 1.0, (0.2, 1.1), (-0.3, 1.8)),
    (1.2, 0.5, (0.0, 0.9), (0.6, 1.2)),
    (1.0, 0.0, (0.0, 1.0), (0.8, 2.0)),
    (0.8, 0.3, (0.0, 1.0), (0.4, 1.5)),
)


def check_hyperbolic_heat_pde() -> IdentityReport:
    """d/dt of the heat kernel vs the spatial generator, five-point stencils."""
    worst, ht = _Worst(), 0.02
    qcfg = quad.QuadConfig(rel_tol=1e-11, abs_tol=1e-16)
    for (t, k, p1, p2) in _PDE_SAMPLES:
        z, zp = HalfPlanePoint(*p1), HalfPlanePoint(*p2)

        def h(tt: float, x: float, y: float) -> complex:
            return _converged(hyp_heat_kernel(tt, k, HalfPlanePoint(x, y), zp, qcfg))

        def residual() -> float:
            dt = _d1(lambda tt: h(tt, *p1), t, ht)
            gen = apply_halfplane_generator(partial(h, t), z, k)
            return abs(dt - gen) / max(abs(dt), abs(gen))

        worst.run({"t": t, "k": k, "z": p1, "zp": p2}, residual)
    return worst.report("hyperbolic_heat_pde", f"{len(_PDE_SAMPLES)} samples, t in [0.3, 1.2]")


# ---------------------------------------------------------------------------
# Morse identities
# ---------------------------------------------------------------------------

def _morse_wave_grid():
    for yp, f in itertools.product(np.linspace(0.8, 1.8, 6).tolist(),
                                   np.linspace(0.15, 1.0, 6).tolist()):
        cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(yp))
        yield cfg, cfg.rho_m + 0.2 + 2.8 * f


def check_morse_wave_bessel(path: str) -> IdentityReport:
    """k = 0 reduction: each wave-kernel path matches (1/2) J0 on a 6 x 6
    (b, y') grid at lam = 1, y = 1."""
    paths = {"phi1": wave_kernel_phi1,
             "alternate": lambda c, b: ALT_VARIANT_K0_SCALE * wave_kernel_phi1_alt(c, b),
             "fourier": lambda c, b: _converged(wave_kernel_fourier(c, b))}
    if path not in paths:
        raise ValueError(f"unknown path {path!r}")
    worst = _Worst()
    for cfg, b in _morse_wave_grid():
        worst.run({"lam": cfg.lam, "yp": cfg.yp, "b": b, "path": path},
                  lambda: _relerr(paths[path](cfg, b), wave_kernel_bessel0(cfg, b)))
    return worst.report(f"morse_wave_bessel_{path}", "6x6 grid: yp in [0.8, 1.8], b in rho+[0.2, 3.0]; lam=1, y=1")


def check_morse_wave_cross_half_k() -> IdentityReport:
    """Confluent-series path vs Fourier path at k = 1/2 inside the series
    window."""
    worst = _Worst()
    for (X, Xp) in [(0.0, 0.2), (0.1, 0.4), (-0.2, 0.1)]:
        cfg = MorseConfig(lam=1.0, k=0.5, X=X, Xp=Xp)
        bstar = 2.0 * math.acosh(2.0 / math.sqrt(3.0) * math.cosh(cfg.rho_m / 2.0))
        for f in (0.3, 0.55, 0.8):
            b = cfg.rho_m + f * (bstar - cfg.rho_m)
            worst.run({"X": X, "Xp": Xp, "b": b},
                      lambda: _relerr(wave_kernel_phi1(cfg, b), _converged(wave_kernel_fourier(cfg, b))))
    return worst.report("morse_wave_phi1_fourier_half_k", "3 position pairs x 3 window points, k=1/2")


_MORSE_PAIRS = ((0.0, 0.3), (-0.2, 0.5), (0.1, 0.6), (-0.4, 0.1))


def _morse_closed_vs_integral(name: str, grid_spec: str, points) -> IdentityReport:
    """Closed vs integral Morse resolvent at mu = -i alpha, lam = 1, per (k, alpha, X, X')."""
    worst = _Worst()
    for k, alpha, X, Xp in points:
        cfg = MorseConfig(lam=1.0, k=k, X=X, Xp=Xp)
        worst.run({"k": k, "alpha": alpha, "X": X, "Xp": Xp},
                  lambda: _relerr(morse_resolvent_closed(cfg, -1j * alpha),
                                  _converged(morse_resolvent_integral(cfg, -1j * alpha))))
    return worst.report(name, grid_spec)


def check_morse_resolvent() -> IdentityReport:
    """Whittaker closed form vs the transmutation integral,
    k in {0, 1/2}, mu = -i alpha, alpha in {0.7, 1.2}."""
    points = [(k, alpha, X, Xp) for k, alpha, (X, Xp)
              in itertools.product((0.0, 0.5), (0.7, 1.2), _MORSE_PAIRS)]
    return _morse_closed_vs_integral(
        "morse_resolvent", "k in {0, 1/2} x alpha in {0.7, 1.2} x 4 pairs", points)


def check_whittaker_product() -> IdentityReport:
    """Whittaker-product identity: gamma-weighted W x M product vs the
    exponentially weighted transmutation integral, at real spectral index."""
    points = [(0.5, 1.2, X, Xp) for X, Xp in ((0.5, 0.0), (0.3, -0.2), (0.7, 0.2))]  # X > X'
    return _morse_closed_vs_integral(
        "whittaker_product", "alpha=1.2, k=1/2, lam=1, 3 pairs with X > X'", points)


def check_bessel_product() -> IdentityReport:
    """Bessel-product identity: I_a(u) K_a(v) equals half the exponentially
    weighted integral of J0(sqrt(2uv cosh b - u^2 - v^2)) over the support.

    The right-hand side is the k = 0 Morse transmutation integral at
    lam = 1, X = ln u, X' = ln v, mu = -i alpha, i.e. half of
    mkernels.resolvent_integral there.
    """
    worst = _Worst()
    for alpha, (u, v) in itertools.product((0.5, 1.0), ((1.0, 2.0), (0.5, 1.5))):
        cfg = MorseConfig(lam=1.0, k=0.0, X=math.log(u), Xp=math.log(v))
        worst.run({"alpha": alpha, "u": u, "v": v},
                  lambda: _relerr(specfun.bessel("I", alpha, u) * specfun.bessel("K", alpha, v),
                                  0.5 * _converged(morse_resolvent_integral(cfg, -1j * alpha))))
    return worst.report("bessel_product", "alpha in {0.5, 1.0} x (u,v) in {(1,2), (0.5,1.5)}")


_HW_ORACLE_POINTS = ((1.0, 0.0), (1.0, 0.5), (0.9, 0.5))


def check_morse_heat_hw_oracle() -> IdentityReport:
    """Heat kernel vs the Hartman-Watson double-integral oracle.

    This is the loosest-conditioned identity in the suite; the oracle's
    oscillatory cancellation limits it to t >= ~0.7 in double precision.  The
    heat kernel is the line integral of the Whittaker closed resolvent, so a
    systematic failure here indicts that closed form (its index convention,
    its signed-k gamma prefactor) or the line's placement right of its poles;
    check_morse_resolvent ties the same closed form to the transmutation
    integral.
    """
    worst = _Worst()
    for (t, k) in _HW_ORACLE_POINTS:
        cfg = MorseConfig(lam=1.0, k=k, X=0.0, Xp=math.log(1.3))
        worst.run({"t": t, "k": k, "X": 0.0, "Xp": cfg.Xp},
                  lambda: _relerr(_converged(morse_heat_kernel(cfg, t)),
                                  _converged(hartman_watson_heat_oracle(cfg, t))))
    return worst.report("morse_heat_hw_oracle",
                        "3 points: (t, k) in {(1,0), (1,1/2), (0.9,1/2)}, lam=1")


# (t, k, X, X') at lam = 1; past k = 1.5 the oracle's round-off floor ends it (converged=False at
# the k = 1.7 sample, CancellationLimit at k = 2)
_MORSE_PDE_SAMPLES = ((0.8, 0.0, 0.0, 0.4), (1.0, 1.5, 0.0, 0.3), (1.2, 1.7, 0.2, -0.3),
                      (0.7, 2.0, 0.0, 0.5), (1.0, -1.3, 0.0, 0.3), (0.9, 0.5, 0.3, -0.2))


def check_morse_heat_pde() -> IdentityReport:
    """dq/dt = (d^2/dX^2 + 2 k lam e^X - lam^2 e^{2X} + s) q, five-point
    stencils in t and X, relative to max(|dq/dt|, |L q|).  The constant
    spectral shift s is measured at the first sample and held for the rest;
    each point records it.  Unlike the oracle this reaches k = 2."""
    worst, h, shift = _Worst(), 0.01, None
    qcfg = quad.QuadConfig(rel_tol=1e-10, abs_tol=1e-16)
    for (t, k, x, xp) in _MORSE_PDE_SAMPLES:
        def q(tt: float, xx: float) -> float:
            return _converged(morse_heat_kernel(MorseConfig(1.0, k, xx, xp), tt, qcfg))

        def residual() -> float:
            nonlocal shift
            qc = q(t, x)
            dt = _d1(lambda tt: q(tt, x), t, h)
            lq = _d2(partial(q, t), x, h, qc) + (2 * k * math.exp(x) - math.exp(2 * x)) * qc
            shift = point["shift"] = (dt - lq) / qc if shift is None else shift
            return abs(dt - lq - shift * qc) / max(abs(dt), abs(lq))

        point = {"t": t, "k": k, "X": x, "Xp": xp}
        worst.run(point, residual)
    return worst.report("morse_heat_pde", f"{len(_MORSE_PDE_SAMPLES)} samples, k in [-1.3, 2], lam=1")


def check_specfun_oracle() -> IdentityReport:
    """Committed arbitrary-precision reference values reproduced in-package."""
    worst = _Worst()
    for row in _oracle_rows():
        params = _parse_params(row["params"])
        expect = complex(float(row["ref_real"]), float(row["ref_imag"]))
        worst.run({"function": row["function"], "params": row["params"]},
                  lambda: _relerr(_eval_specfun(row["function"], params), expect))
    return worst.report("specfun_oracle", f"committed reference table ({worst.n_points} rows)")


def _oracle_rows() -> list:
    """Rows of the committed reference table data/specfun_oracle.csv."""
    ref = resources.files("hypermorse").joinpath("data/specfun_oracle.csv")
    with ref.open() as fh:
        return list(csv.DictReader(fh))


def _parse_params(raw: str) -> list:
    """The ';'-separated Python literals of an oracle row's params field."""
    return [ast.literal_eval(p) for p in raw.split(";")]


def _eval_specfun(fn: str, params: list) -> complex:
    if fn in ("log_gamma", "gauss_2f1", "kummer_1f1", "humbert_phi1"):
        return getattr(specfun, fn)(*params)
    if fn == "chebyshev_t":
        return complex(specfun.chebyshev_t(int(params[0]), params[1]))
    if fn in ("bessel_I", "bessel_J", "bessel_K", "whittaker_M", "whittaker_W"):  # kind last
        return complex(getattr(specfun, fn[:-2])(fn[-1], *params))
    raise ValueError(f"unknown oracle function {fn}")


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# Spectral-mapping candidates, each as the mu' with 1/2 + i mu' equal to its s,
# so that SpectralParam(mu').s is the candidate's exponent: A s = (1 - i mu)/2,
# B s = 1/2 - i mu, C s = 1/2 + i mu (the shipped one).
_MAPPINGS = {"A": lambda mu: -mu / 2, "B": lambda mu: -mu, "C": lambda mu: mu}
# Whittaker-order candidates, each as the mu' with i mu' equal to its order nu,
# so that mkernels.resolvent_closed at mu' has that order: nu = mu and
# nu = i mu (the shipped one).
_WHITTAKER_ORDERS = {"order_mu": lambda mu: -1j * mu, "order_imu": lambda mu: mu}
# measured k = 0 ratio of the true kernel to the alternative wave variant
ALT_VARIANT_K0_SCALE = -0.5


def wave_kernel_phi1_alt(cfg: MorseConfig, b: float) -> complex:
    """The calibration's rejected Morse wave variant:
    c1(k) (d/(sinh(b/2) db))^{2|k|} [ Y5^{4|k|}/Z5^{2|k|} e^{-k(X+X')}
      e^{i lam Y5} Phi1(2|k|+1/2, 2|k|, 4|k|+1, -2 i lam Y5, Z5) ],
    c1(k) = (-1)^{|k|+1} Gamma(2|k|+1/2) / (2^{|k|} Gamma(4|k|+1) sqrt(pi)),
    Y5 = 2 e^{(X+X')/2} sqrt(cosh^2(b/2) - cosh^2((X-X')/2)), and Z5 the
    Cayley-type ratio built from the same root, read the only way that gives
    a Bessel reduction at k = 0.  Even so it lands at -2x the true kernel at
    k = 0 (hence ALT_VARIANT_K0_SCALE) and deviates b-dependently at k != 0.
    Y5 = Z and Z5 = 2Z/(Z + V) of mkernels._phi1_series at sign(k) (+ at k = 0),
    so Y5^{4|k|}/Z5^{2|k|} = (Z (Z + V) / 2)^{2|k|}, 2|k| an integer.
    """
    ak = abs(cfg.k)
    # (-1)^(|k|+1) read on the same principal branch as the winning variant
    c1 = cmath.exp(1j * math.pi * (ak + 1.0)) * math.exp(
        specfun.log_gamma(2 * ak + 0.5).real - specfun.log_gamma(4 * ak + 1.0).real) \
        / (2.0 ** ak * math.sqrt(math.pi))
    return mkernels._phi1_series(cfg, b, -cfg.lam, -1.0 if cfg.k < 0 else 1.0,
                                 lambda z, zv, ak: (z * zv / 2.0) ** (2 * ak),
                                 c1 * math.exp(-cfg.k * (cfg.X + cfg.Xp)))


def calibrate_spectral_mapping(out_path: Optional[str] = None) -> CalibrationRecord:
    """Select the spectral mapping, Whittaker index convention, and Morse
    wave-kernel variant by measuring residuals of every candidate.

    The kernels ship only the winners (SpectralParam's s = 1/2 + i mu and
    mkernels.resolvent_closed's order nu = i mu), so a rejected mapping or
    order is evaluated by the same closed form at the moved argument mu' of
    _MAPPINGS or _WHITTAKER_ORDERS.  The winner must have the strictly
    smallest residual and pass the calibration tolerance; anything else
    raises CalibrationAmbiguous.
    """
    tol = TOLERANCES["calibration"]

    # spectral mapping: closed vs integral at k = 0, two spectral points,
    # three point pairs; the integral reads only mu, never the mapping
    points = [(mu, HalfPlanePoint(*p1), HalfPlanePoint(*p2))
              for mu, (p1, p2) in itertools.product((-0.8j, -1.5j), _RESOLVENT_PAIRS[:3])]
    mappings = _worst_residuals(
        points, lambda mu, z, zp: _converged(hyp_resolvent_integral(SpectralParam(mu), 0.0, z, zp)),
        {m: lambda mu, z, zp, f=f: hyp_resolvent_closed(SpectralParam(f(mu)), 0.0, z, zp)
         for m, f in _MAPPINGS.items()})

    # Whittaker index convention: Morse closed vs integral at k = 0; the
    # integral does not depend on the convention
    cfg = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=0.3)
    convs = _worst_residuals(
        [(-0.7j,), (-1.1j,)], lambda mu: _converged(morse_resolvent_integral(cfg, mu)),
        {c: lambda mu, f=f: morse_resolvent_closed(cfg, f(mu)) for c, f in _WHITTAKER_ORDERS.items()})

    # Morse wave variant: k = 0 Bessel reduction; each point carries the raw
    # alternate value, NaN where it raised, for the variant and its rescaling
    cfg0 = MorseConfig(lam=1.0, k=0.0, X=0.0, Xp=math.log(1.5))
    waves = _worst_residuals(
        [(b, _value_or_nan(wave_kernel_phi1_alt, cfg0, b)) for b in (0.8, 1.5, 2.4)],
        lambda b, alt: wave_kernel_bessel0(cfg0, b),
        {"primary": lambda b, alt: wave_kernel_phi1(cfg0, b), "alternate": lambda b, alt: alt,
         "alternate_k0_rescaled": lambda b, alt: ALT_VARIANT_K0_SCALE * alt})

    record = CalibrationRecord(
        mapping_id=_unique_winner(mappings, tol, "spectral mapping"),
        whittaker_index_convention=_unique_winner(convs, tol, "Whittaker index convention"),
        morse_wave_variant=_unique_winner({v: waves[v] for v in ("primary", "alternate")}, tol,
                                          "Morse wave variant"),
        residuals={**{f"mapping_{m}": r for m, r in mappings.items()},
                   **{f"whittaker_{c}": r for c, r in convs.items()},
                   **{f"wave_{v}": r for v, r in waves.items()}},
    )
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(record.to_json())
    return record


def _value_or_nan(fn: Callable, *args):
    """fn(*args), or NaN (inf under _relerr) where it raises a HypermorseError."""
    try:
        return fn(*args)
    except HypermorseError:
        return math.nan


def _worst_residuals(points: list, reference: Callable, candidates: dict) -> dict:
    """Each candidate's worst _relerr against reference(*p) over the points p,
    the reference computed once per point; inf where either side raises."""
    worst = dict.fromkeys(candidates, 0.0)
    for p in points:
        ref = _value_or_nan(reference, *p)
        for name, fn in candidates.items():
            worst[name] = max(worst[name], _relerr(_value_or_nan(fn, *p), ref))
    return worst


def _unique_winner(cands: dict, tol: float, what: str) -> str:
    ranked = sorted(cands.items(), key=lambda kv: kv[1])
    best, best_res = ranked[0]
    if best_res > tol:
        raise CalibrationAmbiguous(
            f"no {what} candidate meets the tolerance {tol:g}: {cands}")
    if len(ranked) > 1 and ranked[1][1] <= best_res:
        raise CalibrationAmbiguous(f"{what} selection not unique: {cands}")
    return best


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {
    "hyperbolic_forms": (check_hyperbolic_forms,),
    "hyperbolic_resolvent": (check_hyperbolic_resolvent,),
    "hyperbolic_heat": (check_hyperbolic_heat_pde,),
    "morse_wave": (
        partial(check_morse_wave_bessel, "phi1"),
        partial(check_morse_wave_bessel, "alternate"),
        partial(check_morse_wave_bessel, "fourier"),
        check_morse_wave_cross_half_k,
    ),
    "morse_resolvent": (check_morse_resolvent,),
    "morse_heat": (check_morse_heat_hw_oracle, check_morse_heat_pde),
    "applications": (
        check_whittaker_product,
        check_bessel_product,
        check_specfun_oracle,
    ),
}


def run_suite(suite: str, tol_overrides: Optional[dict] = None):
    """Run one named suite (or 'all', which calibrates first).

    tol_overrides maps identity ids (the TOLERANCES keys but "calibration",
    which the calibration reads itself) to finite tolerances > 0; anything
    else raises ValueError before any check runs.  Each overridden report's
    tolerance and pass flag are set once the check has run.
    Returns (calibration_record_or_None, list of IdentityReport).
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {list(SUITES) + ['all']}")
    overrides = {} if tol_overrides is None else tol_overrides
    if not isinstance(overrides, dict):
        raise ValueError(f"tolerance overrides must map identity ids to numbers, got {overrides!r}")
    ids = sorted(set(TOLERANCES) - {"calibration"})
    for name, tol in overrides.items():
        if name not in ids:
            raise ValueError(f"tolerance override for unknown identity {name!r}; choose from {ids}")
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise ValueError(f"tolerance override {name}={tol!r} is not a finite number > 0")
    record = calibrate_spectral_mapping() if suite == "all" else None
    reports = [check() for name in (SUITES if suite == "all" else [suite]) for check in SUITES[name]]
    for r in reports:
        if r.identity_id in overrides:
            r.tolerance = float(overrides[r.identity_id])
            r.passed = r.max_rel_err <= r.tolerance
    return record, reports


# ---------------------------------------------------------------------------
# kernel evaluation dispatch and grid runner
# ---------------------------------------------------------------------------

# the parameters each kernel reads; eval_kernel ignores any other key (a "form" among them)
KERNEL_PARAMS = {
    "hres": ("k", "mu", "z", "zp"),
    "hheat": ("k", "t", "z", "zp"),
    "hwave": ("k", "b", "z", "zp"),
    "mres": ("k", "lam", "mu", "X", "Xp"),
    "mheat": ("k", "lam", "X", "Xp", "t"),
    "mwave": ("k", "lam", "X", "Xp", "b"),
}
KERNEL_IDS = tuple(KERNEL_PARAMS)


def _require_params(kernel_id: str, given, exc: type = MissingParameter, where: str = ""):
    """Raise exc naming each parameter of KERNEL_PARAMS[kernel_id] not in given."""
    missing = [name for name in KERNEL_PARAMS[kernel_id] if name not in given]
    if missing:
        raise exc(f"kernel {kernel_id!r} needs {', '.join(missing)}{where}")


def _complex(v) -> complex:  # a spec's pair "re,im" arrives as a tuple
    return complex(*v) if isinstance(v, tuple) else complex(v)


def eval_kernel(kernel_id: str, params: dict) -> quad.QuadratureResult:
    """Evaluate one kernel at one parameter point.

    Closed-form evaluations report a zero error estimate; quadrature-backed
    ones propagate their own bookkeeping.  A parameter of KERNEL_PARAMS
    missing from params raises MissingParameter, and a NaN or infinite
    parameter NonFiniteInput, each naming it before any kernel runs.  A key
    the kernel does not read (hwave's former "form", say) is ignored.
    """
    if kernel_id not in KERNEL_IDS:
        raise ValueError(f"unknown kernel id {kernel_id!r}; choose from {KERNEL_IDS}")
    p = params
    _require_params(kernel_id, p)
    require_finite(**p)
    if kernel_id == "hres":
        sp = SpectralParam(_complex(p["mu"]))
        val = hyp_resolvent_closed(sp, p["k"], HalfPlanePoint(*p["z"]), HalfPlanePoint(*p["zp"]))
        return quad.QuadratureResult(val, 0.0, 0, True)
    if kernel_id == "hwave":
        val = hyp_wave_kernel(p["k"], p["b"], HalfPlanePoint(*p["z"]), HalfPlanePoint(*p["zp"]))
        return quad.QuadratureResult(val, 0.0, 0, True)
    if kernel_id == "hheat":
        return hyp_heat_kernel(p["t"], p["k"], HalfPlanePoint(*p["z"]), HalfPlanePoint(*p["zp"]))
    cfg = MorseConfig(lam=p["lam"], k=p["k"], X=p["X"], Xp=p["Xp"])
    if kernel_id == "mres":
        val = morse_resolvent_closed(cfg, _complex(p["mu"]))
        return quad.QuadratureResult(val, 0.0, 0, True)
    if kernel_id == "mwave":
        if cfg.k == 0:
            return quad.QuadratureResult(wave_kernel_bessel0(cfg, p["b"]), 0.0, 0, True)
        return wave_kernel_fourier(cfg, p["b"])
    return morse_heat_kernel(cfg, p["t"])


def _apply_axis(point: dict, name: str, value: float):
    """Set a scalar axis, or one component of a pair-valued parameter when
    the axis is written as 'zp.y' / 'z.x'."""
    if "." in name:
        base, comp = name.split(".", 1)
        if comp not in ("x", "y") or base not in point:
            raise InvalidGrid(f"axis {name!r} must address .x or .y of a pair parameter")
        x, y = point[base]
        point[base] = (value, y) if comp == "x" else (x, value)
    else:
        point[name] = value


# grid nodes sharing these are one array call (all mwave nodes at k != 0 are one)
_ROW_KEYS = {"hheat": ("k", "t"), "hres": ("k", "mu"), "mwave": ()}


def _eval_group(kernel_id: str, nodes: list) -> list:
    """(value, err_estimate, converged), or the HypermorseError raised, for
    each node: two nodes or more are one array call, and one node, or a call
    that raises, runs eval_kernel per node."""
    try:
        if len(nodes) > 1:
            p, col = nodes[0], {name: [q[name] for q in nodes] for name in nodes[0]}
            if kernel_id == "mwave":
                cfgs = list(map(MorseConfig, col["lam"], col["k"], col["X"], col["Xp"]))
                res = wave_kernel_fourier(cfgs, col["b"])
            else:
                z, zp = ([HalfPlanePoint(*v) for v in col[name]] for name in ("z", "zp"))
                if kernel_id == "hres":
                    vals = hyp_resolvent_closed(SpectralParam(_complex(p["mu"])), p["k"], z, zp)
                    return [(v, 0.0, True) for v in vals]
                res = hyp_heat_kernel(p["t"], p["k"], z, zp)
            return list(zip(res.value, res.err_estimate, res.converged_rows))
    except HypermorseError:
        pass  # each node on its own: its value or its error
    out = []
    for p in nodes:
        try:
            res = eval_kernel(kernel_id, p)
            out.append((res.value, res.err_estimate, res.converged))
        except HypermorseError as exc:
            out.append(exc)
    return out


def grid_eval(kernel_id: str, params: dict, grid_spec: dict, output_path: str) -> int:
    """Evaluate a kernel over the cartesian product of the grid axes.

    grid_spec maps parameter names to (start, stop, count); an axis written
    'zp.y' sweeps one component of a pair-valued parameter.  params and the
    axes together must hold every parameter KERNEL_PARAMS names for the
    kernel, and each axis must be well formed, or InvalidGrid is raised
    before any point runs.  Nodes sharing their non-position parameters
    (_ROW_KEYS) are one array call per group: an hheat row equals eval_kernel
    at its node bit for bit, an hres or mwave row may differ from it by a few
    ulps, and a rerun is bit-identical.  One CSV row per point: grid
    coordinates, Re/Im in decimal and hexadecimal, the error estimate, and
    the convergence flag.  Per-point kernel errors land in the row's error
    column and the run continues.  Every row is formatted first, then
    written over the file in place in one write, a regular file then cut at
    the rows; no durability is promised (a kill during that write can leave
    stale bytes past them).  Returns the row count.
    """
    if kernel_id not in KERNEL_IDS:
        raise InvalidGrid(f"unknown kernel id {kernel_id!r}")
    if not grid_spec:
        raise InvalidGrid("empty grid specification")
    _require_params(kernel_id, set(params) | {name.split(".", 1)[0] for name in grid_spec},
                    InvalidGrid, ", which neither the parameters nor the axes give")
    axes = []
    for name, spec in grid_spec.items():
        try:
            lo, hi, n = spec
            n = int(n)
            if n < 1:
                raise ValueError
        except (TypeError, ValueError) as exc:
            raise InvalidGrid(f"axis {name!r} needs (start, stop, count), got {spec!r}") from exc
        axes.append((name, np.linspace(float(lo), float(hi), n).tolist()))
    names, keys = [n for n, _ in axes], _ROW_KEYS.get(kernel_id)
    points, groups, done = [], {}, {}  # (coordinates, parameters, group) per node
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = dict(params)
        for n_, v in zip(names, combo):
            _apply_axis(point, n_, v)
        alone = keys is None or (kernel_id == "mwave" and point["k"] == 0)
        key = len(points) if alone else tuple(point[n_] for n_ in keys)
        groups.setdefault(key, []).append(len(points))
        points.append((combo, point, key))

    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(names + ["re", "im", "re_hex", "im_hex", "err_estimate", "converged", "error"])
    try:
        for i, (combo, _, key) in enumerate(points):
            if i not in done:
                group = groups[key]
                done.update(zip(group, _eval_group(kernel_id, [points[j][1] for j in group])))
            row = [f"{c:.17g}" for c in combo]
            if isinstance(done[i], HypermorseError):
                row += ["nan", "nan", "", "", "", False, f"{type(done[i]).__name__}: {done[i]}"]
            else:
                v, err, converged = done[i]
                v = complex(v)
                row += [f"{v.real:.17g}", f"{v.imag:.17g}", v.real.hex(), v.imag.hex(),
                        f"{err:.3g}", bool(converged), ""]
            writer.writerow(row)
    finally:  # the rows formatted, also those before an exception, in one write
        fd = os.open(output_path, os.O_WRONLY | os.O_CREAT, 0o666)  # open("w") without truncating
        with open(fd, "w", newline="") as fh:
            try:
                fh.write(text.getvalue())
            finally:  # a FIFO or a device is written, not cut
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
    return len(points)
