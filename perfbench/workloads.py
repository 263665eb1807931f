"""Seeded inputs for the three benchmark workloads.

Every input is drawn from ``random.Random(seed)`` and is a plain Python value
(float, complex, str, tuple or dict); nothing here imports the package under
test.  ``transverse`` is the exception: its seed only orders a fixed design.
A workload is produced in *rounds*: the runner times whole rounds only, so
every run sees the same mix of point kinds and its throughput and latency
percentiles do not depend on where a time limit happened to cut a cycle.

Each timed point lies inside the region the package answers within the
tolerance of its identity (``in_region`` states it); the holes outside that
region are evaluated by ``probes.PROBES`` instead of being timed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List

WORKLOADS = ("closed_random", "grid_sweep", "transverse")

# Region the timed points are drawn from (see README.md, "Workloads").
MIN_RHO = 0.3            # hyperbolic distance and |X - X'|
MAX_MORSE_ARG = 12.0     # 2 lam e^{max(X, X')} for mres; the seed's exception limit is 40
MAX_BESSEL0_ARG = 20.0   # lam Z for the k = 0 Morse wave kernel (J0 series)
MAX_WAVE_SPAN = 3.0      # b - rho for hwave at generic k (Pfaff window of 2F1)
MIN_DECAY_MARGIN = 0.3   # Im-mu margin beyond the decay bound of a transmutation integral
MIN_HALF_INT_GAP = 0.05  # distance of 2 nu from an integer (Whittaker W combination)
MIN_K_ORDER_GAP = 0.05   # distance of a Bessel K order from an integer (I_-nu - I_nu cancellation)
BESSEL_X_MAX = {"J": 8.0, "I": 30.0, "K": 3.0}   # J series cancels past 8, K past 3
WHITTAKER_Z_MAX = {"M": 30.0, "W": 2.0}           # W = M-combination cancels past 2


@dataclass(frozen=True)
class Point:
    """One call into the program: ``op`` names the entry point, ``args`` are
    its generated arguments, ``kind`` the stratum, ``check`` the identity
    whose tolerance the reference check uses."""

    kind: str
    op: str
    args: tuple
    check: str


# ---------------------------------------------------------------------------
# geometry helpers (benchmark-side, used for sampling and region checks)
# ---------------------------------------------------------------------------

def hyp_dist(z, zp) -> float:
    c2 = ((z[0] - zp[0]) ** 2 + (z[1] + zp[1]) ** 2) / (4.0 * z[1] * zp[1])
    return 2.0 * math.acosh(math.sqrt(max(c2, 1.0)))


def morse_aux_z(X: float, Xp: float, b: float) -> float:
    """Z(b) = sqrt(4 y y' sinh((b+rho)/2) sinh((b-rho)/2)), rho = |X - X'|."""
    rho = abs(X - Xp)
    s = 4.0 * math.exp(X + Xp) * math.sinh((b + rho) / 2.0) * math.sinh((b - rho) / 2.0)
    return math.sqrt(max(s, 0.0))


def _half_int_gap(x: float) -> float:
    return abs(2.0 * x - round(2.0 * x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _halfplane_pair(rng: random.Random):
    while True:
        z = (rng.uniform(-1.0, 1.0), _log_uniform(rng, 0.5, 2.0))
        zp = (rng.uniform(-1.0, 1.0), _log_uniform(rng, 0.5, 2.0))
        if hyp_dist(z, zp) >= MIN_RHO:
            return z, zp


def _decaying_mu(rng: random.Random, k: float) -> complex:
    """mu with Im mu below the decay bound of the transmutation integral by
    at least MIN_DECAY_MARGIN, so the closed form has an integral reference."""
    beta_lo = max(0.2, abs(k) - 0.5 + MIN_DECAY_MARGIN)
    return complex(rng.uniform(-1.0, 1.0), -rng.uniform(beta_lo, beta_lo + 2.0))


# ---------------------------------------------------------------------------
# closed_random
# ---------------------------------------------------------------------------

def _closed_round(rng: random.Random) -> List[Point]:
    pts = []
    # hres: closed hypergeometric resolvent at generic k and complex mu
    k = rng.uniform(-1.5, 1.5)
    z, zp = _halfplane_pair(rng)
    pts.append(Point("hres", "harness.eval_kernel",
                     ("hres", {"k": k, "mu": _decaying_mu(rng, k), "z": z, "zp": zp}),
                     "hyperbolic_resolvent"))
    # hwave, 2k integer (Chebyshev form) and generic k (baseline 2F1 form)
    for kind in ("hwave.int", "hwave.generic"):
        z, zp = _halfplane_pair(rng)
        if kind == "hwave.int":
            k = rng.choice((-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0))
        else:
            while True:
                k = rng.uniform(-2.0, 2.0)
                if _half_int_gap(k) > 0.01:
                    break
        b = hyp_dist(z, zp) + rng.uniform(0.05, MAX_WAVE_SPAN)
        pts.append(Point(kind, "harness.eval_kernel",
                         ("hwave", {"k": k, "b": b, "z": z, "zp": zp, "form": "auto"}),
                         "hyperbolic_forms"))
    # mres at k = 0: Whittaker W x M product, nu = i mu = alpha real
    lam = rng.uniform(0.5, 2.0)
    while True:
        alpha = rng.uniform(0.3, 2.0)
        if _half_int_gap(alpha) > MIN_HALF_INT_GAP:
            break
    x_hi = math.log(rng.uniform(1.0, MAX_MORSE_ARG) / (2.0 * lam))
    x_lo = x_hi - rng.uniform(MIN_RHO, 2.5)
    X, Xp = (x_hi, x_lo) if rng.random() < 0.5 else (x_lo, x_hi)
    pts.append(Point("mres", "harness.eval_kernel",
                     ("mres", {"k": 0.0, "lam": lam, "mu": complex(0.0, -alpha), "X": X, "Xp": Xp}),
                     "morse_resolvent"))
    # mwave at k = 0: (1/2) J0 closed form
    while True:
        lam = rng.uniform(0.5, 2.0)
        X = rng.uniform(-1.0, 1.0)
        Xp = X + rng.choice((-1.0, 1.0)) * rng.uniform(MIN_RHO, 1.5)
        b = abs(X - Xp) + rng.uniform(0.05, 3.0)
        if lam * morse_aux_z(X, Xp, b) <= MAX_BESSEL0_ARG:
            break
    pts.append(Point("mwave.k0", "harness.eval_kernel",
                     ("mwave", {"k": 0.0, "lam": lam, "b": b, "X": X, "Xp": Xp}),
                     "morse_wave_bessel_phi1"))
    # special functions at random in-domain arguments
    while True:
        zc = complex(rng.uniform(-5.0, 10.0), rng.uniform(-5.0, 5.0))
        if min(abs(zc + n) for n in range(8)) > 0.05:
            break
    pts.append(Point("specfun.log_gamma", "specfun.log_gamma", (zc,), "specfun_oracle"))
    # |z| <= 0.7 direct series; z < -0.75 the Pfaff transformation; 0.7 < z <= 0.95
    # the direct series again (Pfaff would leave the unit disc there)
    for kind in ("series", "pfaff", "past_switch"):
        a = rng.uniform(0.1, 3.0)
        c = rng.uniform(0.5, 4.0)
        bb = rng.uniform(0.05, c - 0.05)
        x = {"series": lambda: rng.uniform(-0.7, 0.7),
             "pfaff": lambda: -_log_uniform(rng, 0.75, 30.0),
             "past_switch": lambda: rng.uniform(0.7, 0.95)}[kind]()
        pts.append(Point(f"specfun.gauss_2f1.{kind}", "specfun.gauss_2f1", (a, bb, c, x),
                         "specfun_oracle"))
    a = rng.uniform(0.1, 3.0)
    pts.append(Point("specfun.kummer_1f1", "specfun.kummer_1f1",
                     (a, rng.uniform(a + 0.05, 5.0), rng.uniform(-5.0, 40.0)), "specfun_oracle"))
    for kind, xhi in BESSEL_X_MAX.items():
        while True:
            nu = rng.uniform(0.0, 3.0)
            if kind != "K" or abs(nu - round(nu)) > MIN_K_ORDER_GAP:
                break
        pts.append(Point(f"specfun.bessel.{kind}", "specfun.bessel",
                         (kind, nu, rng.uniform(0.1, xhi)), "specfun_oracle"))
    for kind, zhi in WHITTAKER_Z_MAX.items():
        while True:
            kw = rng.uniform(-1.0, 1.0)
            mw = rng.uniform(0.05, 2.0)
            if mw - kw + 0.5 > 0.1 and _half_int_gap(mw) > 0.02:
                break
        pts.append(Point(f"specfun.whittaker.{kind}", "specfun.whittaker",
                         (kind, kw, mw, rng.uniform(0.1, zhi)), "specfun_oracle"))
    return pts


# ---------------------------------------------------------------------------
# grid_sweep
# ---------------------------------------------------------------------------

def _linspace(lo: float, hi: float, n: int) -> List[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo]


def grid_nodes(params: dict, grid: dict) -> List[dict]:
    """The parameter points a grid spec expands to (same order as grid_eval)."""
    nodes = [dict(params)]
    for name, (lo, hi, n) in grid.items():
        out = []
        for base in nodes:
            for v in _linspace(lo, hi, n):
                p = dict(base)
                if "." in name:
                    key, comp = name.split(".")
                    x, y = p[key]
                    p[key] = (v, y) if comp == "x" else (x, v)
                else:
                    p[name] = v
                out.append(p)
        nodes = out
    return nodes


def _grid_round(rng: random.Random) -> List[Point]:
    pts = []
    for two_k in (0, 1, 2):
        while True:
            z = (0.0, _log_uniform(rng, 0.7, 1.4))
            x0 = rng.uniform(0.3, 1.0)
            y0 = _log_uniform(rng, 0.6, 2.0)
            grid = {"zp.x": (x0, x0 + rng.uniform(0.2, 0.6), 3),
                    "zp.y": (y0, y0 * rng.uniform(1.2, 1.8), 3)}
            params = {"k": two_k / 2.0, "t": rng.uniform(0.5, 2.0), "z": z, "zp": (0.0, 1.0)}
            if all(hyp_dist(p["z"], p["zp"]) >= MIN_RHO for p in grid_nodes(params, grid)):
                break
        pts.append(Point(f"grid.hheat.2k{two_k}", "harness.grid_eval",
                         ("hheat", params, grid), "hyperbolic_heat_pde"))
    for k in (0.5, 1.0):
        lam = rng.uniform(0.5, 2.0)
        X = rng.uniform(-0.5, 0.5)
        side = rng.choice((-1.0, 1.0))
        d0 = rng.uniform(MIN_RHO, 0.6)
        d1 = d0 + rng.uniform(0.2, 0.5)
        xp_lo, xp_hi = sorted((X + side * d0, X + side * d1))
        b0 = d1 + rng.uniform(0.05, 0.3)
        grid = {"b": (b0, b0 + rng.uniform(1.0, 2.5), 3), "Xp": (xp_lo, xp_hi, 3)}
        params = {"k": k, "lam": lam, "X": X}
        pts.append(Point(f"grid.mwave.k{k:g}", "harness.grid_eval",
                         ("mwave", params, grid), "morse_wave_phi1_fourier_half_k"))
    # two hres grids make the round's grid count odd, so its median latency
    # falls inside one kind's spread rather than on the edge between two kinds
    for _ in range(2):
        k = rng.uniform(0.0, 1.5)
        while True:
            z = (rng.uniform(-0.5, 0.5), _log_uniform(rng, 0.7, 1.4))
            xp = rng.uniform(-1.0, 1.0)
            y0 = _log_uniform(rng, 0.5, 1.0)
            grid = {"zp.y": (y0, y0 * rng.uniform(2.0, 4.0), 8)}
            params = {"k": k, "mu": _decaying_mu(rng, k), "z": z, "zp": (xp, 1.0)}
            if all(hyp_dist(p["z"], p["zp"]) >= MIN_RHO for p in grid_nodes(params, grid)):
                break
        pts.append(Point("grid.hres", "harness.grid_eval", ("hres", params, grid),
                         "hyperbolic_resolvent"))
    return pts


# ---------------------------------------------------------------------------
# transverse
# ---------------------------------------------------------------------------

# A transverse point costs up to seconds, so a run holds one round of 25
# points: too few to average over random inputs, and the cost of these
# adaptive integrals is not smooth in their inputs (with inputs 1e-4 apart a
# Hartman-Watson oracle call took from 2.0 s to 6.5 s).  The round is
# therefore a fixed stratified design and the seed only shuffles its order.
# The Morse resolvent integral runs at (2k, alpha, |X - X'|), with X' on
# alternate sides of X = 0: five slower points from near the decay bound to
# alpha = 1.25, then fifteen faster ones at alpha from 1.3 to 1.475, so that
# the median and tail latencies fall among many similar points.  The heat
# kernel and its Hartman-Watson oracle run at (2k, t, |X - X'|).  alpha stays
# above 0.8: closer to the decay bound the seed's semi-infinite sweep can run
# out of panels and return converged=False (the probe
# "mres_integral.alpha0.735" records that hole).
RES_STRATA = ((0, 0.84, 0.35), (1, 0.95, 0.5), (2, 1.05, 0.4), (0, 1.2, 0.33),
              (1, 1.25, 0.45)) + tuple(
    (i % 3, 1.3 + 0.0125 * i, 0.35 + 0.1 * (i % 3 + i // 3 % 2) / 2) for i in range(15))
HEAT_STRATA = ((0, 0.8, 0.4), (1, 1.4, 0.5))


def _transverse_round(rng: random.Random) -> List[Point]:
    pts = [Point("calibrate", "harness.calibrate_spectral_mapping", (), "calibration")]
    for i, (two_k, alpha, dist) in enumerate(RES_STRATA):
        pts.append(Point(f"mres_integral.2k{two_k}", "mkernels.resolvent_integral",
                         (1.0, two_k / 2.0, 0.0, (-1.0) ** i * dist, complex(0.0, -alpha)),
                         "morse_resolvent"))
    for i, (two_k, t, dist) in enumerate(HEAT_STRATA):
        args = (1.0, two_k / 2.0, 0.0, (-1.0) ** i * dist, t)
        pts.append(Point(f"mheat.2k{two_k}", "mkernels.heat_kernel", args, "morse_heat_hw_oracle"))
        pts.append(Point(f"hw_oracle.2k{two_k}", "mkernels.hartman_watson_heat_oracle", args,
                         "morse_heat_hw_oracle"))
    rng.shuffle(pts)
    return pts


_ROUNDS = {
    "closed_random": _closed_round,
    "grid_sweep": _grid_round,
    "transverse": _transverse_round,
}


def rounds(workload: str, seed: int) -> Iterator[List[Point]]:
    """Endless sequence of rounds for one workload; same seed, same rounds."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    while True:
        yield make(rng)


# ---------------------------------------------------------------------------
# the supported region, stated as a predicate
# ---------------------------------------------------------------------------

def _finite(v) -> bool:
    if isinstance(v, (tuple, list)):
        return all(_finite(x) for x in v)
    if isinstance(v, dict):
        return all(_finite(x) for x in v.values())
    if isinstance(v, complex):
        return math.isfinite(v.real) and math.isfinite(v.imag)
    if isinstance(v, float):
        return math.isfinite(v)
    return True


def _kernel_in_region(kernel: str, p: dict) -> bool:
    k = p["k"]
    if kernel in ("hres", "hwave", "hheat") and hyp_dist(p["z"], p["zp"]) < MIN_RHO:
        return False
    if kernel == "hres":
        return complex(p["mu"]).imag <= -(max(0.2, abs(k) - 0.5 + MIN_DECAY_MARGIN)) + 1e-12
    if kernel == "hwave":
        generic = _half_int_gap(k) > 1e-12
        return not generic or p["b"] - hyp_dist(p["z"], p["zp"]) <= MAX_WAVE_SPAN
    if kernel == "hheat":
        return _half_int_gap(k) < 1e-12 and abs(k) <= 1.0
    if kernel == "mres":
        alpha = -complex(p["mu"]).imag
        return (k == 0.0 and complex(p["mu"]).real == 0.0 and alpha > 0
                and _half_int_gap(alpha) > MIN_HALF_INT_GAP
                and 2.0 * p["lam"] * math.exp(max(p["X"], p["Xp"])) <= MAX_MORSE_ARG + 1e-9
                and abs(p["X"] - p["Xp"]) >= MIN_RHO)
    if kernel == "mwave":
        if abs(p["X"] - p["Xp"]) < MIN_RHO or p["b"] <= abs(p["X"] - p["Xp"]):
            return False
        if k == 0.0:
            return p["lam"] * morse_aux_z(p["X"], p["Xp"], p["b"]) <= MAX_BESSEL0_ARG
        return k in (0.5, 1.0)
    return False


def in_region(point: Point) -> bool:
    """True when the point lies inside the region the timed workloads sample."""
    if not _finite(point.args):
        return False
    op, a = point.op, point.args
    if op == "harness.eval_kernel":
        return _kernel_in_region(a[0], a[1])
    if op == "harness.grid_eval":
        return all(_kernel_in_region(a[0], p) for p in grid_nodes(a[1], a[2]))
    if op == "specfun.log_gamma":
        return min(abs(a[0] + n) for n in range(8)) > 0.05
    if op == "specfun.gauss_2f1":
        aa, bb, c, x = a
        return aa > 0 and 0 < bb < c and (-30.0 <= x <= -0.75 or -0.7 <= x <= 0.95)
    if op == "specfun.kummer_1f1":
        aa, c, x = a
        return 0 < aa < c and -5.0 <= x <= 40.0
    if op == "specfun.bessel":
        kind, nu, x = a
        if kind == "K" and abs(nu - round(nu)) <= MIN_K_ORDER_GAP:
            return False
        return 0 <= nu <= 3.0 and 0 < x <= BESSEL_X_MAX[kind]
    if op == "specfun.whittaker":
        kind, kw, mw, x = a
        return (mw - kw + 0.5 > 0.1 and _half_int_gap(mw) > 0.02
                and 0 < x <= WHITTAKER_Z_MAX[kind])
    if op == "mkernels.resolvent_integral":
        lam, k, X, Xp, mu = a
        return (_half_int_gap(k) < 1e-12 and abs(X - Xp) >= MIN_RHO
                and 0.8 <= -mu.imag <= 1.5
                and -mu.imag > max(0.0, abs(k) - 0.5) + MIN_DECAY_MARGIN)
    if op in ("mkernels.heat_kernel", "mkernels.hartman_watson_heat_oracle"):
        lam, k, X, Xp, t = a
        return _half_int_gap(k) < 1e-12 and abs(X - Xp) >= MIN_RHO and 0.7 <= t <= 1.5
    return op == "harness.calibrate_spectral_mapping"
