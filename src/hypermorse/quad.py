"""Adaptive quadrature.

Every kernel integral in the package funnels through this module: finite
intervals (adaptive Gauss-Kronrod 7/15), semi-infinite intervals swept with
geometrically growing panels, inverse-square-root endpoint singularities
removed by the substitution b = a + u^2, and halving trapezoid sums of even
analytic integrands.

Integrands are callables mapping a float ndarray of abscissae to a complex
ndarray of values.  Each step is one call: a bisection evaluates both halves'
30 nodes together and a trapezoid level all its new nodes (the first call
its first two levels), so an integrand with a fixed cost per call (one
special-function table, say) pays it once per step.  All routines are pure
functions of their inputs and evaluate nodes in a fixed order, so results
are deterministic and safe to call from multiple threads.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import TailDivergence

__all__ = ["QuadConfig", "QuadratureResult", "integrate_finite", "integrate_semiinfinite",
           "integrate_sqrt_endpoint", "trapezoid_even"]

# Gauss-Kronrod 7/15 nodes on [-1, 1] and weights.  Odd-indexed nodes carry
# the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances of the adaptive integrators: each meets
    max(abs_tol, rel_tol * |value|).  A semi-infinite sweep stops once two
    consecutive panel contributions fall below a quarter of that bound, and
    the last panel magnitude is folded into the error estimate as the
    truncated-tail allowance.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = QuadConfig()

# integrate_finite: bisections before it returns converged=False
_MAX_SUBDIVISIONS = 4000

# geometric sweep parameters for semi-infinite integrals
_PANEL_WIDTH0 = 1.0
_PANEL_GROWTH = 1.6
_MAX_PANELS = 90
_QUIET_PANELS = 2
_GROWTH_PANELS = 4
# an error sum this far below the largest panel error it absorbed is rounding
_EPS = np.finfo(float).eps
_RESUM_ULPS = 16.0 * _EPS
# trapezoid_even: first step and node budget per row
_TRAP_H0 = 0.5
_TRAP_MAX_NODES = 1000


@dataclass
class QuadratureResult:
    """Value of an integral together with its error bookkeeping."""

    value: complex
    err_estimate: float
    n_evals: int
    converged: bool

    def tolerance_bound(self, cfg: QuadConfig) -> float:
        return max(cfg.abs_tol, cfg.rel_tol * abs(self.value))

    def scaled(self, c) -> "QuadratureResult":
        return QuadratureResult(c * self.value, abs(c) * self.err_estimate, self.n_evals,
                                self.converged)

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(self.value + other.value, self.err_estimate + other.err_estimate,
                                self.n_evals + other.n_evals, self.converged and other.converged)


def _panels(f, edges):
    """GK15 on each panel between consecutive edges, all nodes in one call of
    f: [(kronrod value, error estimate)] per panel."""
    spans = [(0.5 * (hi - lo), 0.5 * (hi + lo)) for lo, hi in zip(edges[:-1], edges[1:])]
    fx = np.asarray(f(np.concatenate([mid + half * _XK for half, mid in spans])), dtype=complex)
    out = []
    for i, (half, _) in enumerate(spans):
        fp = fx[15 * i:15 * (i + 1)]
        vk = half * np.add.reduce(_WK * fp)
        vg = half * np.add.reduce(_WG * fp[1::2])
        diff = abs(vk - vg)
        out.append((vk, min(diff, (200.0 * diff) ** 1.5) if diff > 0 else 0.0))
    return out


def integrate_finite(f, a: float, b: float, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate f over [a, b] by globally adaptive Gauss-Kronrod 7/15.

    The panel with the largest error estimate is bisected until the summed
    error estimate meets max(abs_tol, rel_tol * |value|); both halves of a
    bisection are one call of f on their 30 nodes.  Hitting
    _MAX_SUBDIVISIONS returns the best estimate with converged=False instead
    of raising.  A running error sum down at a few ulps of the largest panel
    error it absorbed is re-summed exactly, so a tiny abs_tol can be met.
    """
    if not a < b:
        raise ValueError("integrate_finite requires a < b")
    (val, err), = _panels(f, (a, b))
    n = 15
    # heap entries: (-err, insertion order, lo, hi, value, err)
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total_val = val
    total_err = err_peak = err
    splits = 0
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
        if splits >= _MAX_SUBDIVISIONS or not heap:
            return QuadratureResult(total_val, total_err, n, False)
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep its estimate
            counter += 1
            heapq.heappush(heap, (0.0, counter, lo, hi, v_old, 0.0))
            total_err -= e_old
            continue
        (v1, e1), (v2, e2) = _panels(f, (lo, mid, hi))
        n += 30
        total_val += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        err_peak = max(err_peak, e1, e2)
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        splits += 1
        if total_err < _RESUM_ULPS * err_peak:
            total_err = err_peak = math.fsum(entry[5] for entry in heap)
    return QuadratureResult(total_val, total_err, n, True)


def integrate_semiinfinite(f, a: float, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate f over [a, inf) with geometrically growing panels.

    The caller guarantees eventual (at least exponential) decay of |f|.  The
    sweep stops after two consecutive panel contributions drop below the
    truncation threshold; if panel contributions instead grow for several
    consecutive panels, the decay precondition is being violated and
    TailDivergence is raised.
    """
    total = 0.0 + 0.0j
    err = 0.0
    n = 0
    lo = a
    width = _PANEL_WIDTH0
    quiet = 0
    growth = 0
    prev_mag: Optional[float] = None
    first_mag: Optional[float] = None
    converged = True
    for _ in range(_MAX_PANELS):
        hi = lo + width
        res = integrate_finite(f, lo, hi, cfg)
        total += res.value
        err += res.err_estimate
        n += res.n_evals
        converged = converged and res.converged
        mag = abs(res.value)
        if first_mag is None:
            first_mag = mag
        bound = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        # quiet threshold sits well inside the bound so that the omitted-tail
        # allowance keeps the converged/err invariant of QuadratureResult
        if mag < 0.25 * bound:
            quiet += 1
            if quiet >= _QUIET_PANELS:
                err += mag  # allowance for the truncated tail
                converged = converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(total))
                return QuadratureResult(total, err, n, converged)
        else:
            quiet = 0
        if prev_mag is not None and mag > prev_mag * 1.02 and mag > first_mag:
            growth += 1
            if growth >= _GROWTH_PANELS:
                raise TailDivergence(
                    f"panel contributions keep growing past b={hi:.3g}; integrand does not decay")
        else:
            growth = 0
        prev_mag = mag
        lo = hi
        width *= _PANEL_GROWTH
    return QuadratureResult(total, err, n, False)


def integrate_sqrt_endpoint(g, a: float, cfg: QuadConfig = DEFAULT_CONFIG, *,
                            m: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                            dm: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> QuadratureResult:
    """Integrate g(b) * (m(b) - m(a))^(-1/2) over [a, inf).

    The endpoint singularity is removed analytically by b = a + u^2, never by
    panel refinement.  `m` is smooth and increasing; it defaults to the
    identity, which covers plain (b - a)^(-1/2) weights.  Callers may supply
    `dm(u) = m(a + u^2) - m(a)` in a cancellation-free form; otherwise the
    difference is formed directly.
    """
    if m is None and dm is None:
        def dm_u(u):
            return u * u
    elif dm is not None:
        dm_u = dm
    else:
        ma = m(np.array([a]))[0] if callable(m) else None

        def dm_u(u):
            return m(a + u * u) - ma

    def fu(u):
        u = np.asarray(u, dtype=float)
        vals = np.asarray(g(a + u * u), dtype=complex)
        return 2.0 * u * vals / np.sqrt(dm_u(u))

    return integrate_semiinfinite(fu, 0.0, cfg)


def _add_level(total, mag, vals, noise):  # plus each row's exact sum of vals (of |vals| if noise)
    total = total + [math.fsum(row) for row in vals.tolist()]
    return total, (mag + [math.fsum(row) for row in np.abs(vals).tolist()] if noise else mag)


def trapezoid_even(f, x_max: float, abs_tol, rel_tol: float, noise: float = 0.0) -> QuadratureResult:
    """Rows of int_0^inf of real even integrands, analytic near the real axis
    and negligible past x_max, as T(h) = h (f(0)/2 + sum_{0 < jh < x_max}
    f(jh)), which converges exponentially (Trefethen & Weideman 2014).

    f(x, rows) gives the rows (an index array) at nodes x, shape (len(rows),
    len(x)); abs_tol, one per row or a scalar for one row, sets the rows.  h
    halves from _TRAP_H0, one call of f per level but the first, which holds
    levels _TRAP_H0 and _TRAP_H0/2 (no row stops sooner), reusing nodes and
    summing each level exactly; a row stops once err = |T(h) - T(h/2)| meets
    max(abs_tol, rel_tol |T|), or the floor max(noise h sum|f|, eps |T|)
    (noise: f's relative round-off; err never below the floor; a floor above
    the tolerance makes converged False).  Rows open past _TRAP_MAX_NODES
    nodes, the first call's included, make converged False.  value and
    err_estimate hold one entry per row; n_evals counts every row's nodes.
    """
    tol = np.atleast_1d(np.asarray(abs_tol, dtype=float))
    rows = np.arange(tol.size)  # the open rows; total, mag, prev and tol hold only those
    value, err = np.full((2, tol.size), math.inf)
    prev, n, n_nodes, converged = None, 0, 0, True
    h, nodes = _TRAP_H0 / 2.0, np.arange(0.0, x_max, _TRAP_H0)
    first, nodes = len(nodes), np.concatenate([nodes, np.arange(h, x_max, _TRAP_H0)])
    while n_nodes + len(nodes) <= _TRAP_MAX_NODES:
        vals = f(nodes, rows)
        n, n_nodes = n + vals.size, n_nodes + len(nodes)
        if prev is None:  # level _TRAP_H0 (f(0) at half weight, outside the fsum), then its midpoints
            total = 0.5 * vals[:, 0]
            total, mag = _add_level(total, np.abs(total), vals[:, 1:first], noise)
            prev, vals = 2.0 * h * total, vals[:, first:]
        total, mag = _add_level(total, mag, vals, noise)
        v = h * total
        size = np.abs(v)
        floor = np.maximum(noise * h * mag, _EPS * size)
        e = np.maximum(np.abs(v - prev), floor)
        value[rows], err[rows] = v, e
        bound = np.maximum(tol, rel_tol * size)
        more = e > np.maximum(bound, floor)
        converged = converged and not np.count_nonzero((e > bound) & ~more)  # count_nonzero: a fast any
        n_open = np.count_nonzero(more)
        if not n_open:
            return QuadratureResult(value, err, n, converged)
        if n_open < more.size:
            rows, total, mag, v, tol = rows[more], total[more], mag[more], v[more], tol[more]
        prev, h, nodes = v, h / 2.0, np.arange(h / 2.0, x_max, h)
    return QuadratureResult(value, err, n, False)
