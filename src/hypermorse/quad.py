"""Trapezoid quadrature.

Every kernel integral in the package is one trapezoid sum of an analytic
integrand, which converges exponentially in the number of nodes (Trefethen &
Weideman, SIAM Review 2014): trapezoid_even over [0, inf) for even integrands
with a decaying tail, after a change of variable that moves any endpoint
singularity away, and trapezoid_periodic over one half period of a periodic
even integrand.  The kernels choose the variable; this module only halves
the step.

Integrands are callables of a float ndarray of abscissae.  Each level is one
call on its new nodes only (trapezoid_even's first call holds its first two
levels), so an integrand with a fixed cost per call (one special-function
table, say) pays it once per level.  Both routines are pure functions of
their inputs, sum each level exactly and evaluate nodes in a fixed order, so
results are deterministic and safe to call from multiple threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadConfig", "QuadratureResult", "trapezoid_even", "trapezoid_periodic"]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances of a kernel integral: its err_estimate, the difference of
    the last two trapezoid levels, meets max(abs_tol, rel_tol * |value|).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = QuadConfig()

_EPS = float(np.finfo(float).eps)
# trapezoid_even: first step and node budget per row
_TRAP_H0 = 0.5
_TRAP_MAX_NODES = 1000
# trapezoid_periodic: node budget (4096 intervals and their end node)
_PERIODIC_MAX_NODES = 4097


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
    tol = np.array(abs_tol, dtype=float, ndmin=1).tolist()
    value, err = [math.inf] * len(tol), [math.inf] * len(tol)
    rows, sums = list(range(len(tol))), [None] * len(tol)  # the open rows, their (total, mag, T(2h))
    n, n_nodes, converged = 0, 0, True
    h, nodes = _TRAP_H0 / 2.0, np.arange(0.0, x_max, _TRAP_H0)
    first, nodes = len(nodes), np.concatenate([nodes, np.arange(h, x_max, _TRAP_H0)])
    while n_nodes + len(nodes) <= _TRAP_MAX_NODES:
        vals = f(nodes, np.array(rows))
        n, n_nodes = n + vals.size, n_nodes + len(nodes)
        lines = vals.tolist()  # row by row in Python floats: most sums have one or two rows
        mags = np.abs(vals).tolist() if noise else lines  # (unread when noise is 0)
        kept = []
        for r, line, mag_line, row_sums in zip(rows, lines, mags, sums):
            if row_sums is None:  # level _TRAP_H0 (f(0) at half weight, outside the fsum), then its midpoints
                total = 0.5 * line[0]
                mag = abs(total) + math.fsum(mag_line[1:first]) if noise else abs(total)
                total += math.fsum(line[1:first])
                prev, line, mag_line = 2.0 * h * total, line[first:], mag_line[first:]
            else:
                total, mag, prev = row_sums
            total += math.fsum(line)
            if noise:
                mag += math.fsum(mag_line)
            v = h * total
            size = abs(v)
            floor = max(noise * h * mag, _EPS * size)
            e = max(abs(v - prev), floor)
            value[r], err[r] = v, e
            bound = max(tol[r], rel_tol * size)
            if e > max(bound, floor):
                kept.append((r, (total, mag, v)))
            elif e > bound:  # stopped at a floor above the tolerance
                converged = False
        if not kept:
            return QuadratureResult(np.array(value), np.array(err), n, converged)
        rows, sums = [r for r, _ in kept], [row_sums for _, row_sums in kept]
        h, nodes = h / 2.0, np.arange(h / 2.0, x_max, h)
    return QuadratureResult(np.array(value), np.array(err), n, False)


def trapezoid_periodic(f, length: float, n0: int, abs_tol: float, rel_tol: float,
                       noise: float = 0.0) -> QuadratureResult:
    """int_0^length f of a real integrand even about both ends (so periodic,
    period 2 length) and analytic on the real axis, as the endpoint trapezoid
    sum T(n) = h (f(0)/2 + sum_{0 < j < n} f(jh) + f(length)/2), h = length/n,
    which converges exponentially in n (Trefethen & Weideman 2014).

    n doubles from n0, each level one call of f on its new midpoints only,
    summed exactly, until err = |T(2n) - T(n)| meets max(abs_tol, rel_tol |T|)
    or the floor max(noise h sum|f|, eps |T|) (noise: f's relative round-off;
    err never below the floor, and a floor over the tolerance makes converged
    False, as in trapezoid_even).  Levels past _PERIODIC_MAX_NODES nodes are
    not run (n0 is cut to leave room for one doubling); the last level then
    comes back with converged=False.
    """
    n, noise = max(1, min(int(n0), (_PERIODIC_MAX_NODES - 1) // 2)), float(noise)
    vals = f(np.arange(n + 1) * (length / n))
    total = math.fsum(vals[1:-1].tolist()) + 0.5 * float(vals[0] + vals[-1])
    mag = float(np.abs(vals).sum())
    n_evals, prev = n + 1, length / n * total
    while n_evals + n <= _PERIODIC_MAX_NODES:
        h = length / (2 * n)
        vals = f(h * np.arange(1, 2 * n, 2))
        total, mag = total + math.fsum(vals.tolist()), mag + float(np.abs(vals).sum())
        n_evals, n = n_evals + n, 2 * n
        value = h * total
        floor = max(noise * h * mag, _EPS * abs(value))
        err = max(abs(value - prev), floor)
        bound = max(abs_tol, rel_tol * abs(value))
        if err <= max(bound, floor):
            return QuadratureResult(value, err, n_evals, bool(floor <= bound))
        prev = value
    return QuadratureResult(value, err, n_evals, False)
