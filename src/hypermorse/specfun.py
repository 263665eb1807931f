"""Self-contained special functions used by the kernel formulas.

Complex log-gamma (Lanczos; the C library's lgamma on the positive real
axis), the Gauss and Kummer hypergeometric series, the two-variable
confluent series Phi1, Chebyshev polynomials of the first kind, Bessel J by
Bessel's integral at integer orders n < x, else J and I by their ascending
series, K by one quad.trapezoid_even sum of its integral, and Whittaker M/W.

F(a, b; c; z) has three regions (see gauss_2f1): the direct series, the
Pfaff transformation, and for c = a + b near z = 1, the case of the
hyperbolic resolvent near its diagonal, the logarithmic z -> 1 - z
connection; there z = 1 itself raises LogarithmicSingularity.

Four entry points also take ndarrays, through the same call: gauss_2f1 an
array of z (one table of series terms per region), kummer_1f1 arrays of its
parameters (a, c) at one x (one table, a column per parameter pair), and
log_gamma and whittaker an array of arguments or orders.  A table's every
column stops where its scalar loop would, and an array raises where an entry
would, at the first such entry.  humbert_phi1 sums its outer series over one
kummer_1f1 table.  A scalar z is a one-entry table of gauss_2f1's direct series;
its log connection, kummer_1f1 and the Bessel series loop at a scalar.  Every
sum stops on three terms below 1e-16 max(1, |sum|), a Bessel series being its
leading term times one; a lower parameter c at a non-positive integer raises
ParameterPole unless the series ends first (_check_lower).

Everything is evaluated at desk scale: arguments are kept inside documented
cutoffs (x <= 30 for Bessel functions, |z| <= 40 for the confluent series)
and requests beyond them raise instead of silently degrading.  Asymptotic
expansions for large arguments are out of scope.
"""
from __future__ import annotations

import cmath
import math
from typing import Union

import numpy as np

from . import quad
from .errors import (
    DomainError,
    IntegerTwoMuUnsupported,
    LogarithmicSingularity,
    NotConverged,
    OutsideConvergenceRegion,
    ParameterPole,
    PoleAtNonPositiveInteger,
    SeriesNonConvergence,
    require_finite,
)

__all__ = [
    "log_gamma",
    "gauss_2f1",
    "kummer_1f1",
    "humbert_phi1",
    "chebyshev_t",
    "bessel",
    "whittaker",
]

BESSEL_X_MAX = 30.0
KUMMER_Z_MAX = 40.0
_INT_TOL = 1e-12
_EULER_GAMMA = 0.57721566490153286061
# every series: at most _MAX_TERMS terms, stopping on three consecutive terms
# below _TERM_TOL * max(1, |sum|); read at call time
_MAX_TERMS = 5000
_TERM_TOL = 1e-16
# Bessel K: the sum's cut, where the exponent falls _K_DROP below its peak, and its
# relative tolerance; _K_S_MAX caps the cut in the sum's variable (a NaN cut too, at
# subnormal x) far past the node budget, so that such calls raise NotConverged
_K_DROP = 40.0
_K_REL_TOL = 1e-12
_K_S_MAX = 1e4
_J_THETA = (np.arange(64) + 0.5) * (math.pi / 64)  # Bessel J_n: the midpoint nodes of [0, pi]
_J_SIN = np.sin(_J_THETA)

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_2PI = 0.91893853320467274178
_LANCZOS_TAIL = np.array(_LANCZOS_C[1:])[:, None]  # c_i over i = 1..14, a column for arrays
_LANCZOS_SHIFT = np.arange(1.0, len(_LANCZOS_C))[:, None]


def _near_int(z, tol: float):
    """Whether complex z lies within tol of an integer; at an ndarray, the mask."""
    if isinstance(z, np.ndarray):
        return (np.abs(z.imag) < tol) & (np.abs(z.real - np.round(z.real)) < tol)
    return abs(z.imag) < tol and abs(z.real - round(z.real)) < tol


def _nonpositive_int(z):
    """Whether z is a non-positive integer to _INT_TOL; at an ndarray, the mask.
    A scalar tests Re z < 0.5 first, so a NaN or +inf never reaches round()."""
    if isinstance(z, np.ndarray):
        return _near_int(z, _INT_TOL) & (z.real < 0.5)
    z = complex(z)
    return z.real < 0.5 and _near_int(z, _INT_TOL)


def _first(mask):
    """Index of the first True entry of the mask (0 for a True scalar), or None."""
    if isinstance(mask, np.ndarray):
        return int(mask.argmax()) if np.count_nonzero(mask) else None  # a faster any() on small masks
    return 0 if mask else None


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    """log_gamma at each entry of the complex 1-D array z, the scalar's steps as
    NumPy expressions: lgamma on the positive axis, Lanczos, reflection."""
    i = _first(_nonpositive_int(z))
    if i is not None:
        raise PoleAtNonPositiveInteger(f"log_gamma pole at z={z[i]}")
    left = (z.real < 0.5) & ((z.imag != 0.0) | (z.real <= 0.0))  # the positive axis takes lgamma
    w = np.where(left, 1.0 - z, z)  # log_gamma(w) by lgamma on the positive axis, else Lanczos
    lg = np.empty(z.shape, dtype=complex)
    axis = w.imag == 0.0
    lg[axis] = [math.lgamma(x) for x in w.real[axis].tolist()]
    zz = w[~axis] - 1.0
    acc = np.empty((len(_LANCZOS_C), zz.size), dtype=complex)  # summed in the scalar loop's order
    acc[0] = _LANCZOS_C[0]
    np.divide(_LANCZOS_TAIL, zz + _LANCZOS_SHIFT, out=acc[1:])
    acc = acc.sum(axis=0)
    t = zz + _LANCZOS_G + 0.5
    lg[~axis] = (zz + 0.5) * np.log(t) - t + _LOG_SQRT_2PI + np.log(acc)
    if not np.count_nonzero(left):
        return lg
    # Gamma(z) Gamma(1-z) = pi / sin(pi z), as the scalar takes it
    zl, down = z[left], z.imag[left] < 0
    v = np.where(down, zl.conj(), zl)
    log_sin = -1j * math.pi * v + (1j * math.pi / 2 - math.log(2.0)) + np.log(1.0 - np.exp(2j * math.pi * v))
    lg[left] = math.log(math.pi) - np.where(down, log_sin.conj(), log_sin) - lg[left]
    return lg


def log_gamma(z):
    """Log-gamma on the standard analytic branch (real on the positive axis,
    continuous off the negative real axis), at a scalar z or at each entry of
    an ndarray z (a pole anywhere in it raises).

    The C library's lgamma on the positive real axis, the Lanczos sum for
    other Re z >= 0.5, branch-tracked reflection otherwise.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        require_finite(z=z)
        return _log_gamma_array(z.astype(complex).ravel()).reshape(z.shape)
    z = complex(z)
    if not cmath.isfinite(z):
        require_finite(z=z)
    if z.imag == 0.0 and z.real > 0.0:
        return complex(math.lgamma(z.real))
    if _nonpositive_int(z):
        raise PoleAtNonPositiveInteger(f"log_gamma pole at z={z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z), sin(pi v) = -e^{-i pi v} (1 - e^{2 pi i v}) / (2i):
        # |e^{2 pi i v}| <= 1 in the upper half-plane, conjugated back below (continuous off z < 0)
        down = z.imag < 0
        v = z.conjugate() if down else z
        log_sin = (-1j * math.pi * v + (1j * math.pi / 2 - math.log(2.0))
                   + cmath.log(1.0 - cmath.exp(2j * math.pi * v)))
        return math.log(math.pi) - (log_sin.conjugate() if down else log_sin) - log_gamma(1.0 - z)
    zz = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return (zz + 0.5) * cmath.log(t) - t + _LOG_SQRT_2PI + cmath.log(acc)


def _terminating_index(*params: complex) -> Union[int, None]:
    """Smallest N such that (p)_{N+1} = 0 for one p of params, if any."""
    ends = [int(round(-p.real)) for p in params if _nonpositive_int(p)]
    return min(ends) if ends else None


def _check_lower(name: str, c: complex, term_n: Union[int, None]):
    """Raise ParameterPole for a lower parameter c at a non-positive integer,
    unless the series ends first: its terms past index term_n vanish."""
    if _nonpositive_int(c) and (term_n is None or term_n > int(round(-c.real))):
        raise ParameterPole(f"{name} lower parameter c={c} at a non-positive integer")


def _cap_error(terminating: Union[int, None]) -> SeriesNonConvergence:
    if terminating is not None:
        return SeriesNonConvergence(
            f"terminating series of degree {terminating} cut at the {_MAX_TERMS}-term cap")
    return SeriesNonConvergence(f"series did not converge in {_MAX_TERMS} terms")


def _hyp_series(ratio, terminating: Union[int, None]):
    """Sum of t_n with t_0 = 1, t_{n+1} = t_n * ratio(n); stops on 3 terms below
    _TERM_TOL * max(1, |sum|), or at t_terminating, a terminating series' last.
    The sum starts from a float, so a real ratio gives a real sum."""
    total, term, quiet, tol = 1.0, 1.0, 0, _TERM_TOL
    for n in range(_MAX_TERMS):
        term = term * ratio(n)
        total += term
        if terminating is not None and n + 1 >= terminating:
            return total
        if abs(term) < tol * max(1.0, abs(total)):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise _cap_error(terminating)


def _table_rows(x_max: float, growth: float = 1.0) -> int:
    """Rows a series in powers of x needs, |x| <= x_max, for three terms below
    _TERM_TOL, with `growth` times the powers of x_max for the coefficients:
    the first guess of a table, before its doubling fallback."""
    return 3 + math.ceil(growth * math.log(_TERM_TOL) / math.log(x_max)) if x_max < 1.0 else _MAX_TERMS


def _table_sums(terms, head: complex, z, n: int, terminating: Union[int, None] = None):
    """head + sum_j t_j at each z, from the columns t_0 .. t_{n-1} of terms(n, z), each
    cut where its scalar loop stops: 3 quiet terms, or the end of a series of
    `terminating` terms.  Columns that do not are summed again with 2n terms, up to
    that end or _MAX_TERMS, past which they raise as the scalar loop does."""
    cap = _MAX_TERMS if terminating is None else min(_MAX_TERMS, max(terminating, 1))
    n = min(n, cap)
    t = terms(n, z)
    mag = np.abs(t)
    t[0] += head  # the running sums then round as the scalar loop's do
    totals = t.cumsum(axis=0)
    quiet = mag < _TERM_TOL * np.maximum(np.abs(totals), 1.0)
    run = quiet[2:] & quiet[1:-1] & quiet[:-2]  # run[j]: t_j, t_{j+1}, t_{j+2} quiet
    row = np.where(run.any(axis=0), run.argmax(axis=0) + 2, n - 1) if n > 2 else n - 1
    out = totals[row, np.arange(z.size)]
    stopped = run.any(axis=0) | (terminating is not None and n >= max(terminating, 1))
    if np.count_nonzero(stopped) < stopped.size:
        if n >= cap:
            raise _cap_error(terminating)
        out[~stopped] = _table_sums(terms, head, z[~stopped], 2 * n, terminating)
    return out


def _direct_group(a: complex, b: complex, c: complex, z, term_n):
    """F(a, b; c; z) by the direct series, one table over the entries of z; a
    scalar z is a one-entry table, returned as a complex."""
    zs = np.atleast_1d(z)

    def terms(n_rows, zs):
        j = np.arange(n_rows)
        return np.cumprod(((a + j) * (b + j) / ((c + j) * (j + 1)))[:, None] * zs, axis=0)

    out = _table_sums(terms, 1.0, zs, _table_rows(np.abs(zs).max()), term_n)
    return complex(out[0]) if isinstance(z, complex) else out


def _digamma(x: complex) -> complex:
    """psi(x): psi(x) = psi(x + 1) - 1/x (DLMF 5.5.2) until |x| >= 10 and
    Re x >= 0, then DLMF 5.11.2, whose first omitted term is below 5e-17."""
    acc = 0.0 + 0.0j
    while abs(x) < 10.0 or x.real < 0.0:
        acc -= 1.0 / x
        x += 1.0
    q = 1.0 / (x * x)  # the series' coefficients are B_2j / (2j), j = 1..7
    return acc + cmath.log(x) - 0.5 / x - q * (1 / 12 - q * (1 / 120 - q * (1 / 252 - q * (
        1 / 240 - q * (1 / 132 - q * (691 / 32760 - q / 12))))))


def _log_group(a: complex, b: complex, c: complex, z, term_n: None):
    """F(a, b; c = a + b; z) by DLMF 15.8.10, m = 0: Gamma(c)/(Gamma(a) Gamma(b)) sum_n
    (a)_n (b)_n/(n!)^2 [d_n - log(1-z)] (1-z)^n, d_n = 2 psi(n+1) - psi(a+n) - psi(b+n) by
    psi(x + 1) = psi(x) + 1/x; one table over an array, a loop at a scalar z, where
    the table's fixed NumPy cost made a scalar hres about 40% slower."""
    d0 = -2.0 * _EULER_GAMMA - _digamma(a) - _digamma(b)
    scale = cmath.exp(log_gamma(c) - log_gamma(a) - log_gamma(b))
    if isinstance(z, complex):
        w, d = 1.0 - z, d0
        log_w, coeff, total, quiet = cmath.log(w), 1.0 + 0.0j, 0.0j, 0
        for n in range(_MAX_TERMS):
            term = coeff * (d - log_w)
            total += term
            if abs(term) < _TERM_TOL * max(1.0, abs(total)):
                quiet += 1
                if quiet >= 3:
                    return scale * total
            else:
                quiet = 0
            coeff *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0)) * w
            d += 2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n)
        raise _cap_error(None)

    def terms(n_rows, zs):
        j, w = np.arange(n_rows - 1), 1.0 - zs
        coeff = np.ones((n_rows, zs.size), dtype=complex)
        coeff[1:] = ((a + j) * (b + j) / ((j + 1.0) * (j + 1.0)))[:, None] * w
        d = np.concatenate([[d0], 2.0 / (j + 1.0) - 1.0 / (a + j) - 1.0 / (b + j)]).cumsum()
        return coeff.cumprod(axis=0) * (d[:, None] - np.log(w))

    return scale * _table_sums(terms, 0.0, z, _table_rows(np.abs(1.0 - z).max(), 1.25))


def _pfaff_group(a: complex, b: complex, c: complex, z, term_n: None):
    """F(a, b; c; z) = (1 - z)^(-a) F(a, c - b; c; z / (z - 1)), scalar or array."""
    return (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0))


# The thresholds of gauss_2f1's region policy (see its docstring), read by
# _region alone, at a scalar z and at each entry of an array.
_LOG_GAP = 0.3      # the log connection needs |1 - z| below this
_LOG_GAP_AB = 2.0   # ... and |1 - z| |a b| below this
_C_SUM_TOL = 9e-16  # c = a + b to 4 ulps: |c - a - b| over max(|a|, |b|, |c|)
_DIRECT_R = 0.7     # the direct series at |z| <= this
_SERIES_R = 0.98    # Pfaff maps inside this; beyond it no sum is reliable


def _region(z: complex, a: complex, b: complex, c: complex, term_n: Union[int, None]):
    """The sum gauss_2f1 takes at z, in its docstring's order, or None at
    z = 0 (F = 1); raises where none is reliable."""
    if z == 0:
        return None
    gap = abs(1.0 - z)
    if term_n is None and gap < _LOG_GAP and gap * abs(a * b) < _LOG_GAP_AB \
            and abs(c - a - b) <= _C_SUM_TOL * max(abs(a), abs(b), abs(c)):
        if z == 1:
            raise LogarithmicSingularity(f"2F1 with c = a + b = {c} diverges at z = 1")
        return _log_group
    if term_n is not None or abs(z) <= _DIRECT_R:
        return _direct_group
    if z != 1 and abs(z / (z - 1.0)) < min(_SERIES_R, abs(z)):
        return _pfaff_group
    if abs(z) < _SERIES_R:
        return _direct_group
    raise SeriesNonConvergence(f"2F1 argument z={z} outside the reliable region")


def gauss_2f1(a: complex, b: complex, c: complex, z):
    """Gauss hypergeometric F(a, b; c; z) at a scalar z (returns a complex) or
    at each entry of an ndarray z (returns a complex ndarray of its shape).

    A terminating series (a or b a non-positive integer) is summed to its
    last term or to three quiet terms, whichever comes first, and raises
    SeriesNonConvergence where the term cap would cut it short; otherwise
    each z takes, in order:
    * c = a + b (to 4 ulps), |1 - z| < 0.3, |1 - z| |a b| < 2: the logarithmic
      z -> 1 - z connection (DLMF 15.8.10), good to 2e-14 (past |1 - z| |a b|
      = 2 its terms cancel); F ~ -log(1 - z), so z = 1 raises
      LogarithmicSingularity, and on the cut z > 1 log takes its principal branch;
    * |z| <= 0.7: the direct series;
    * the Pfaff transformation F(a,b,c,z) = (1-z)^(-a) F(a, c-b, c, z/(z-1))
      where it maps the argument closer to 0 and inside 0.98 (always for z < 0);
    * the direct series for |z| < 0.98; beyond it SeriesNonConvergence.
    An array raises where an entry would, at the first: _region sorts each
    entry as it does a scalar z, all before any sum runs.  Each region's
    entries are one table of terms (a direct scalar z too, so it has an entry's
    bits; a log-region scalar is a loop), with as many rows as its largest |z|
    (log region: |1 - z|) needs, doubled for the entries that need more; each
    entry stops by its own three-quiet-terms rule.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if isinstance(z, np.ndarray) or not cmath.isfinite(a + b + c + z):
        require_finite(a=a, b=b, c=c, z=z)
    term_n = _terminating_index(a, b)
    _check_lower("2F1", c, term_n)
    if not (isinstance(z, np.ndarray) and z.ndim):
        z = complex(z)
        group = _region(z, a, b, c, term_n)
        return 1.0 + 0.0j if group is None else group(a, b, c, z, term_n)
    zs = z.astype(complex).ravel()
    out, entries = np.ones(zs.shape, dtype=complex), {}  # each sum's entries; zeros keep F = 1
    for i, zi in enumerate(zs.tolist()):
        group = _region(zi, a, b, c, term_n)
        if group is not None:
            entries.setdefault(group, []).append(i)
    for group, idx in entries.items():
        out[idx] = group(a, b, c, zs[idx], term_n)
    return out.reshape(z.shape)


def _kummer_columns(a: np.ndarray, c: np.ndarray, x: complex) -> np.ndarray:
    """1F1(a_j; c_j; x) over the 1-D parameter arrays a, c at one x, by the
    scalar rules: one table whose column j holds the series of (a_j, c_j),
    its terms past a terminating a_j zero, each column cut by _table_sums."""
    ints = _nonpositive_int(a)
    term_n = np.where(ints, np.round(-a.real), np.inf)  # the scalar's terminating index
    pole = _nonpositive_int(c) & (term_n > np.round(-c.real))
    i = _first(pole | (abs(x) > KUMMER_Z_MAX))
    if i is not None:
        if pole[i]:
            raise ParameterPole(f"1F1 lower parameter c={c[i]} at a non-positive integer")
        raise SeriesNonConvergence(
            f"1F1 argument |x|={abs(x):.3g} beyond the desk-scale cutoff {KUMMER_Z_MAX}")
    if x == 0:
        return np.ones(a.shape, dtype=complex)
    out = np.empty(a.shape, dtype=complex)
    flip = ~ints if x.real < 0 else np.zeros(a.shape, dtype=bool)
    if np.count_nonzero(flip):
        out[flip] = cmath.exp(x) * _kummer_columns(c[flip] - a[flip], c[flip], -x)
    keep = np.flatnonzero(~flip)

    def terms(n_rows, cols):
        j = np.arange(n_rows)[:, None]  # row j holds t_{j+1}
        with np.errstate(divide="ignore", invalid="ignore"):  # a c pole past a terminating a
            t = np.cumprod((a[cols] + j) / ((c[cols] + j) * (j + 1)) * x, axis=0)
        t[j >= term_n[cols]] = 0.0
        return t

    if keep.size:  # first guess e|x| + 40 rows: 7-36 past three |x|^n / n! below _TERM_TOL
        out[keep] = _table_sums(terms, 1.0, keep, math.ceil(math.e * abs(x)) + 40)
    return out


def kummer_1f1(a, c, x: complex):
    """Confluent hypergeometric 1F1(a; c; x) by direct series, |x| <= 40; at Re x < 0,
    where it cancels unless it terminates, as e^x 1F1(c - a; c; -x) (DLMF 13.2.39).

    a and c may be ndarrays (broadcast together, one x): the series of every
    (a_j, c_j) is then one table of terms, a column each, with as many rows as
    |x| needs, doubled for the columns that need more, each column cut where
    its scalar loop stops.  An array raises where an entry would, at the first.
    """
    if _is_array(a) or _is_array(c):
        a, c = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(c, dtype=complex))
        require_finite(a=a, c=c, x=x)
        return _kummer_columns(a.ravel(), c.ravel(), complex(x)).reshape(a.shape)
    a, c, x = complex(a), complex(c), complex(x)
    if not cmath.isfinite(a + c + x):
        require_finite(a=a, c=c, x=x)
    term_n = _terminating_index(a)
    _check_lower("1F1", c, term_n)
    if abs(x) > KUMMER_Z_MAX:
        raise SeriesNonConvergence(
            f"1F1 argument |x|={abs(x):.3g} beyond the desk-scale cutoff {KUMMER_Z_MAX}")
    if x == 0:
        return 1.0 + 0.0j
    if x.real < 0 and term_n is None:
        return cmath.exp(x) * kummer_1f1(c - a, c, -x)
    return _hyp_series(lambda n: (a + n) / ((c + n) * (n + 1)) * x, term_n)


def humbert_phi1(a: complex, b: complex, c: complex, x: complex, y: complex) -> complex:
    """Two-variable confluent series
    Phi1(a,b,c,x,y) = sum_{m,n} (a)_{m+n} (b)_n / ((c)_{m+n} m! n!) x^m y^n.

    Convergent for |y| < 1 (any x inside the confluent cutoff); the analytic
    continuation past |y| = 1 is not implemented and such calls raise, except
    when a or b is a non-positive integer, which terminates the y-series exactly.
    A c at a non-positive integer raises ParameterPole unless a ends the series
    first; a terminating b leaves the n = 0 term, 1F1(a; c; x), at the pole.
    Summed as sum_n [(a)_n (b)_n / ((c)_n n!)] y^n * 1F1(a+n, c+n, x): the
    1F1 values of a block of n are one kummer_1f1 table over the parameters
    (a + n, c + n), as many as the powers of |y| need (see _table_rows),
    doubled while the outer terms are not quiet; a one-term series (n_max = 0)
    is one scalar 1F1.
    """
    a, b, c, x, y = complex(a), complex(b), complex(c), complex(x), complex(y)
    if not cmath.isfinite(a + b + c + x + y):
        require_finite(a=a, b=b, c=c, x=x, y=y)
    _check_lower("Phi1", c, _terminating_index(a))  # the m-series ends only with a
    n_max = _terminating_index(a, b)
    if n_max is None and abs(y) >= 1.0:
        raise OutsideConvergenceRegion(
            f"Phi1 second argument |y|={abs(y):.6g} >= 1; continuation not implemented")
    if n_max == 0:
        return kummer_1f1(a, c, x)

    def terms(n_rows, _):
        n = np.arange(n_rows)
        coeff = np.cumprod(np.concatenate([[1.0], ((a + n) * (b + n) / ((c + n) * (n + 1)) * y)[:-1]]))
        return (coeff * kummer_1f1(a + n, c + n, x))[:, None]

    rows = _table_rows(abs(y)) if y else 4
    return complex(_table_sums(terms, 0.0, np.zeros(1), rows, None if n_max is None else n_max + 1)[0])


def chebyshev_t(n: int, x):
    """Chebyshev polynomial T_n(x) by the three-term recurrence.

    Valid for all real x, including x > 1 where T_n(x) = cosh(n arccosh x).
    Accepts scalars or ndarrays; a negative or non-whole n raises DomainError.
    """
    x = np.asarray(x, dtype=float)
    require_finite(n=n, x=x)
    if n < 0 or n % 1:
        raise DomainError(f"chebyshev_t needs n >= 0 and whole, got n={n!r}")
    t_prev = np.ones_like(x)
    if n == 0:
        return t_prev if t_prev.ndim else float(t_prev)
    t_cur = x.copy()
    for _ in range(int(n) - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur if t_cur.ndim else float(t_cur)


def _bessel_i_series(nu: float, x: float, signed: bool = False) -> float:
    """Ascending series for J (signed=True) or I (signed=False), order nu >= 0:
    the leading term (x/2)^nu / Gamma(nu + 1) times the series in -+x^2/4 that
    starts from 1, so a leading term that underflows gives 0.0."""
    lead = math.exp(nu * math.log(x / 2.0) - math.lgamma(nu + 1.0))
    q = -(x * x / 4.0) if signed else (x * x / 4.0)
    return lead * _hyp_series(lambda n: q / ((n + 1) * (n + 1 + nu)), None)


def _bessel_k(nu: float, x: float) -> float:
    """K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt (DLMF 10.32.9), one
    trapezoid_even sum of (e^{p(t) - p*} + e^{p(-t) - p*}) / 2, p(t) = -x cosh t + nu t,
    p* = p(t*) its peak, sinh t* = nu / x; cut where p falls _K_DROP below p*."""
    tp = math.asinh(nu / x)
    peak = nu * tp - x * math.cosh(tp)
    c = _K_DROP - peak  # x cosh t - nu t at the cut
    # x cosh t - nu t is convex: from t_cut left of the cut, one Newton step lands right
    # of it and the next one nearer, still right
    t_cut = math.acosh((c + nu * tp) / x)
    for _ in range(2):
        t_cut -= (x * math.cosh(t_cut) - nu * t_cut - c) / (x * math.sinh(t_cut) - nu)
    sigma = 2.0 * math.pi ** 2 / (x + _K_DROP)  # t = sigma s: the first call holds both levels

    def f(s, rows):
        t = sigma * s
        e = -x * np.cosh(t) - peak
        return (np.exp(e + nu * t) + np.exp(e - nu * t))[None, :]

    s_max = t_cut / sigma
    res = quad.trapezoid_even(f, s_max if s_max < _K_S_MAX else _K_S_MAX, 0.0, _K_REL_TOL)
    if not res.converged:
        raise NotConverged(f"Bessel K_{nu}({x}): trapezoid sum unconverged after {res.n_evals}"
                           f" nodes (cut at t = {t_cut:.4g})")
    return 0.5 * sigma * math.exp(peak) * float(res.value[0])


def bessel(kind: str, nu: float, x: float) -> float:
    """Bessel functions J_nu, I_nu, K_nu for x in (0, 30], nu >= 0 (x <= 0, nu < 0 or
    another kind: DomainError; x > 30: SeriesNonConvergence).

    J at an integer order n < x (J_0 at every x) is the 64-node midpoint sum of
    Bessel's integral (DLMF 10.9.2); its integrand is periodic, so the sum
    converges exponentially: within 1.1e-14 of (1/2) sqrt(J_n^2 + Y_n^2), the
    function's scale, over x in (n, 30], also near zeros.  At x <= n, J_n falls
    far below the sum's absolute error of ~1e-16 (J_2(1e-8) = 1.25e-17), so J
    there and at other orders, and I, use the ascending series: full precision
    for x up to ~8, after which the J series cancels (about 1e-9 relative by
    x = 19, 5e-5 at x = 30) until the hard cutoff; where its leading term
    (x/2)^nu / Gamma(nu + 1) underflows (J_40 and I_40 at x = 1e-8) it is 0.0.
    K, at every order, is the trapezoid sum of its integral over t in [0, inf)
    (DLMF 10.32.9; see _bessel_k), with step pi^2 / (x + 40) and its half in one
    call: within 3e-15 of mpmath over nu in [0, 3], x in [1e-3, 30].  Where that sum misses its
    tolerance, or its cut passes the node budget (x below about 1e-50), K
    raises NotConverged; past the largest double it raises OverflowError.
    """
    if kind not in ("J", "I", "K"):
        raise DomainError(f"kind must be one of 'J', 'I', 'K', got {kind!r}")
    if not cmath.isfinite(nu + x):
        require_finite(nu=nu, x=x)
    if x <= 0:
        raise DomainError(f"bessel requires x > 0, got x={x!r}")
    if x > BESSEL_X_MAX:
        raise SeriesNonConvergence(
            f"Bessel argument cap exceeded: x={x:.3g} > {BESSEL_X_MAX}")
    if nu < 0:
        raise DomainError(f"bessel requires nu >= 0, got nu={nu!r}")
    if kind == "J":
        if nu == round(nu) and x > nu:  # J_n = (1/pi) int_0^pi cos(x sin theta - n theta) dtheta
            return float(np.cos(x * _J_SIN - nu * _J_THETA).sum()) / 64
        return _bessel_i_series(nu, x, signed=True)
    if kind == "I":
        return _bessel_i_series(nu, x)
    return _bessel_k(nu, x)


def whittaker(kind: str, k: float, mu, z: float):
    """Whittaker functions M_{k,mu}(z) and W_{k,mu}(z) for real z > 0.

    M_{k,mu}(z) = z^(mu+1/2) e^(-z/2) 1F1(mu - k + 1/2, 1 + 2 mu, z).
    W is the standard gamma-weighted combination of M_{k,+-mu}, valid only
    for non-integer 2 mu; integer 2 mu raises, z <= 0 or an unknown kind
    DomainError.  mu may be an ndarray of orders: M is then one kummer_1f1
    table, W one table over the orders +-mu and one log_gamma array.
    """
    if kind not in ("M", "W"):
        raise DomainError(f"kind must be 'M' or 'W', got {kind!r}")
    array = _is_array(mu)
    if array or not cmath.isfinite(k + mu + z):
        require_finite(k=k, mu=mu, z=z)
    if z <= 0:
        raise DomainError(f"whittaker requires z > 0, got z={z!r}")
    mu, exp = (mu.astype(complex), np.exp) if array else (complex(mu), cmath.exp)
    if kind == "M":
        i = _first(_nonpositive_int(1.0 + 2.0 * mu))
        if i is not None:
            raise ParameterPole(f"Whittaker M parameter 1+2mu={np.ravel(1 + 2 * mu)[i]} non-positive integer")
        pref = exp((mu + 0.5) * math.log(z) - z / 2.0)
        return pref * kummer_1f1(mu - k + 0.5, 1.0 + 2.0 * mu, z)
    w1, w2 = _whittaker_w_terms(k, mu, z)
    return w1 + w2


def _whittaker_w_terms(k: float, mu, z: float) -> tuple:
    """The two gamma-weighted M_{k,+-mu}(z) terms of W_{k,mu}(z), at a scalar mu
    or each entry of an ndarray mu; at large z they cancel, amplifying
    round-off by (|w1| + |w2|) / |w1 + w2|."""
    array = _is_array(mu)
    mu = mu.astype(complex) if array else complex(mu)
    two_mu = 2.0 * mu
    i = _first(_near_int(two_mu, 1e-9))
    if i is not None:
        raise IntegerTwoMuUnsupported(f"Whittaker W with 2mu={np.ravel(two_mu)[i]} an integer is unsupported")
    if array:  # one log_gamma array and one 1F1 table for both terms
        lg = log_gamma(np.stack([-two_mu, 0.5 - mu - k, two_mu, 0.5 + mu - k]))
        m = whittaker("M", k, np.stack([mu, -mu]), z)
        return np.exp(lg[0] - lg[1]) * m[0], np.exp(lg[2] - lg[3]) * m[1]
    c1 = cmath.exp(log_gamma(-two_mu) - log_gamma(0.5 - mu - k))
    c2 = cmath.exp(log_gamma(two_mu) - log_gamma(0.5 + mu - k))
    return c1 * whittaker("M", k, mu, z), c2 * whittaker("M", k, -mu, z)
