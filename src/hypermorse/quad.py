"""Trapezoid quadrature.

Every kernel integral in the package is one trapezoid sum of an analytic
integrand, which converges exponentially in the number of nodes (Trefethen &
Weideman, SIAM Review 2014): trapezoid_even over [0, inf) for even integrands
with a decaying tail, after a change of variable that moves any endpoint
singularity away, and trapezoid_periodic over one half period of a periodic
even integrand.  The kernels choose the variable and the tolerances, each a
module constant (REL_TOL and ABS_TOL here, for the kernels that set none of
their own); this module only halves the step, in one loop (_halving) that
both rules share: they differ only in their first step, their end node and
their node budget.

Integrands are callables f(x, rows) of a float ndarray of abscissae and the
rows still open.  Each level is one call on its new nodes only (the first
call holds two levels), so an integrand with a fixed cost per call (one
special-function table, say) pays it once per level.  Results are pure,
exactly summed, deterministic functions of the inputs, safe across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureResult", "trapezoid_even", "trapezoid_periodic"]

# where a kernel sets none: its integral's err_estimate meets max(ABS_TOL, REL_TOL * |value|)
REL_TOL, ABS_TOL = 1e-10, 1e-14
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
    converged_rows: list = None  # a sum of rows: each row's flag, converged their all

    def row(self, i: int) -> "QuadratureResult":
        """Row i of a sum of rows as Python numbers, converged its own flag."""
        return QuadratureResult(self.value.item(i), self.err_estimate.item(i), self.n_evals,
                                self.converged_rows[i])

    def scaled(self, c) -> "QuadratureResult":
        return QuadratureResult(c * self.value, abs(c) * self.err_estimate, self.n_evals,
                                self.converged, self.converged_rows)


def trapezoid_even(f, x_max: float, abs_tol, rel_tol: float, noise=0.0) -> QuadratureResult:
    """Rows of int_0^inf of real even integrands, analytic near the real axis
    and negligible past x_max, as T(h) = h (f(0)/2 + sum_{0 < jh < x_max}
    f(jh)), h halving from _TRAP_H0; otherwise as _halving.
    """
    return _halving(f, _TRAP_H0, x_max / _TRAP_H0, False, abs_tol, rel_tol, noise, _TRAP_MAX_NODES)


def trapezoid_periodic(f, length: float, n0: int, abs_tol, rel_tol: float,
                       noise=0.0) -> QuadratureResult:
    """Rows of int_0^length of real integrands even about both ends (so
    periodic, period 2 length) and analytic on the real axis, as T(n) =
    h (f(0)/2 + sum_{0 < j < n} f(jh) + f(length)/2), h = length/n, n doubling
    from n0, cut so that the first call (n0, 2 n0) fits; otherwise as _halving.
    """
    n = max(1, min(int(n0), (_PERIODIC_MAX_NODES - 1) // 2))
    return _halving(f, length / n, n, True, abs_tol, rel_tol, noise, _PERIODIC_MAX_NODES)


def _halving(f, h: float, span: float, closed: bool, abs_tol, rel_tol: float, noise,
             max_nodes: int) -> QuadratureResult:
    """Trapezoid sums over the nodes jh, 0 <= j < span (j <= span if closed:
    the end node at half weight), f(0) at half weight, h halving.

    f(x, rows) gives the rows (an index array) at nodes x, shape (len(rows),
    len(x)); abs_tol, one per row or a scalar for one row, sets the rows,
    and noise is one per row or one for all.  Each level is one call of f on
    its new nodes, summed exactly; the first call holds levels h and h/2, so
    no row stops sooner.  A row stops once err = |T(h) - T(h/2)| meets
    max(abs_tol, rel_tol |T|), or the floor max(noise h sum w|f|, eps |T|)
    (noise: f's relative round-off; err never below the floor; a floor above
    the tolerance, or a NaN, leaves the row unconverged), as do rows open
    past max_nodes nodes, the first call's included.  No row reads another's
    sums.  value, err_estimate and converged_rows hold one entry per row;
    n_evals counts every row's nodes.
    """
    tol = np.array(abs_tol, dtype=float, ndmin=1).tolist()
    noise = [noise] * len(tol) if np.isscalar(noise) else list(noise)
    value, err = [math.inf] * len(tol), [math.inf] * len(tol)
    rows, sums = list(range(len(tol))), [None] * len(tol)  # the open rows, their (total, mag, T(2h))
    n, n_nodes, ok = 0, 0, [True] * len(tol)
    nodes = np.arange(0.0, span + closed) * h
    first, h, span = len(nodes), h / 2.0, 2.0 * span
    nodes = np.concatenate([nodes, np.arange(1.0, span, 2.0) * h])
    while n_nodes + len(nodes) <= max_nodes:
        vals = f(nodes, np.array(rows))
        n, n_nodes = n + vals.size, n_nodes + len(nodes)
        lines = vals.tolist()  # row by row in Python floats: most sums have one or two rows
        mags = np.abs(vals).tolist() if any(noise) else lines  # (unread where noise is 0)
        kept = []
        for r, line, mag_line, row_sums in zip(rows, lines, mags, sums):
            if row_sums is None:  # the first level, then its midpoints
                total = _first_level(line[:first], closed)
                mag = _first_level(mag_line[:first], closed) if noise[r] else 0.0
                prev, line, mag_line = 2.0 * h * total, line[first:], mag_line[first:]
            else:
                total, mag, prev = row_sums
            total += math.fsum(line)
            if noise[r]:
                mag += math.fsum(mag_line)
            v = h * total
            size = abs(v)
            floor = max(noise[r] * h * mag, _EPS * size)
            e = max(abs(v - prev), floor)
            value[r], err[r] = v, e
            bound = max(tol[r], rel_tol * size)
            if e > max(bound, floor):
                kept.append((r, (total, mag, v)))
            elif not e <= bound:  # stopped at a floor above the tolerance, or at a NaN
                ok[r] = False
        if not kept:
            return QuadratureResult(np.array(value), np.array(err), n, all(ok), ok)
        rows, sums = [r for r, _ in kept], [row_sums for _, row_sums in kept]
        h, span = h / 2.0, 2.0 * span
        nodes = np.arange(1.0, span, 2.0) * h
    for r in rows:  # open at the budget
        ok[r] = False
    return QuadratureResult(np.array(value), np.array(err), n, False, ok)


def _first_level(line: list, closed: bool) -> float:
    """A first level's sum over h: f(0), and the end node if closed, at half weight."""
    if closed:
        return 0.5 * (line[0] + line[-1]) + math.fsum(line[1:-1])
    return 0.5 * line[0] + math.fsum(line[1:])
