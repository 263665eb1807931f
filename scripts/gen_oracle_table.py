#!/usr/bin/env python3
"""Regenerate the special-function reference table.

Values are produced with mpmath at 40 significant digits and written with 25,
so the table is an independent arbitrary-precision oracle for the in-package
series implementations.  Run from the repository root:

    python3 scripts/gen_oracle_table.py

The output lands in src/hypermorse/data/specfun_oracle.csv; the test suite
reads it from the installed package data.
"""
import cmath
import csv
import math
import pathlib

import mpmath as mp

mp.mp.dps = 40

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypermorse" / "data" / "specfun_oracle.csv"


def phi1(a, b, c, x, y, nmax=4000):
    total = mp.mpc(0)
    coeff = mp.mpc(1)
    quiet = 0
    for n in range(nmax):
        total += coeff * mp.hyp1f1(a + n, c + n, x)
        nxt = coeff * (a + n) * (b + n) / ((c + n) * (n + 1)) * y
        if abs(nxt) < mp.mpf(10) ** (-45) * (1 + abs(total)):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
        coeff = nxt
        if b + n == 0:
            break
    return total


def fmt(z):
    z = mp.mpc(z)
    return mp.nstr(z.real, 25, strip_zeros=False), mp.nstr(z.imag, 25, strip_zeros=False)


rows = []


def add(func, params, value):
    re, im = fmt(value)
    rows.append([func, ";".join(repr(p) for p in params), re, im])


# log_gamma ---------------------------------------------------------------
for z in [mp.mpf("0.5"), mp.mpf(5), mp.mpc(1, 1), mp.mpc("2.3", "-0.7"),
          mp.mpc("4.1", "2.2"), mp.mpf("0.1"), mp.mpc("8.5", "0.3"),
          mp.mpc("-1.5", "0.4"), mp.mpc("-0.7", "-0.2")]:
    add("log_gamma", [complex(z)], mp.loggamma(z))

# gauss_2f1 ----------------------------------------------------------------
for (a, b, c, z) in [
    (mp.mpf("0.5"), mp.mpf("-0.5"), mp.mpf("0.5"), mp.mpf("-3.2")),
    (mp.mpc("1.3", "0.4"), mp.mpf("0.7"), mp.mpf("2.1"), mp.mpf("0.35")),
    (mp.mpf(1), mp.mpf(1), mp.mpf(2), mp.mpf("0.5")),
    (mp.mpf(-3), mp.mpf("2.5"), mp.mpf("1.2"), mp.mpf("0.8")),
    (mp.mpf("0.9"), mp.mpf("1.1"), mp.mpf("2.5"), mp.mpf("0.69")),
    (mp.mpf("1.5"), mp.mpf(2), mp.mpf("0.5"), mp.mpf("0.94")),
    (mp.mpf("1.4"), mp.mpf("3.4"), mp.mpf("2.8"), mp.mpf("-15.0")),
]:
    add("gauss_2f1", [complex(a), complex(b), complex(c), complex(z)], mp.hyp2f1(a, b, c, z))

# gauss_2f1 at c = a + b near z = 1: the hyperbolic resolvent's
# F(s - |k|, s + |k|; 2s; z), s = 1/2 + i mu, in its logarithmic region
for mu, ak in [(0.4 - 0.9j, 0.0), (-0.7 - 1.2j, 0.5), (0.3 - 1.3j, 1.4)]:
    s = 0.5 + 1j * mu
    a, b, c = s - ak, s + ak, 2 * s
    for z in [0.75, 0.9, 0.973, 0.99, 0.999, 0.85 + 0.1j]:
        add("gauss_2f1", [complex(a), complex(b), complex(c), complex(z)],
            mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpc(z)))

# kummer_1f1 ---------------------------------------------------------------
for (a, c, x) in [
    (mp.mpf(1), mp.mpf(2), mp.mpf(1)),
    (mp.mpf("0.5"), mp.mpf(1), mp.mpf("2.5")),
    (mp.mpf("1.7"), mp.mpf("1.7"), mp.mpf("0.9")),
    (mp.mpf(-2), mp.mpf("1.5"), mp.mpf(3)),
    (mp.mpf("2.2"), mp.mpf("3.1"), mp.mpf(-4)),
    (mp.mpc("0.5", "0.3"), mp.mpf("1.2"), mp.mpc(1, 2)),
]:
    add("kummer_1f1", [complex(a), complex(c), complex(x)], mp.hyp1f1(a, c, x))

# kummer_1f1 at Re x < 0, summed through Kummer's transformation: the direct
# series cancels there (its relative error is 5.6 at x = -39)
for (a, c, x) in [
    (mp.mpf("1.3"), mp.mpf("2.2"), mp.mpf(-39)),
    (mp.mpf("2.9"), mp.mpf("3.1"), mp.mpf("-14.6")),
    (mp.mpf("0.5"), mp.mpf("1.5"), mp.mpf(-30)),
    (mp.mpc("0.7", "0.2"), mp.mpf("1.9"), mp.mpc(-12, 5)),
]:
    add("kummer_1f1", [complex(a), complex(c), complex(x)], mp.hyp1f1(a, c, x))

# humbert_phi1 -------------------------------------------------------------
for (a, b, c, x, y) in [
    (mp.mpf("1.2"), mp.mpf("0.7"), mp.mpf("2.3"), mp.mpf("0.5"), mp.mpf("0.4")),
    (mp.mpf("0.5"), mp.mpf(1), mp.mpf("1.5"), mp.mpf(2), mp.mpf("-0.6")),
    (mp.mpf("2.5"), mp.mpf(0), mp.mpf(1), mp.mpf(1), mp.mpf("0.9")),
    (mp.mpf("1.5"), mp.mpf(-2), mp.mpf("2.2"), mp.mpf("0.8"), mp.mpf("1.5")),
    (mp.mpf("2.5"), mp.mpf(1), mp.mpf(5), mp.mpc(0, 2), mp.mpc("0.3", "0.2")),
]:
    add("humbert_phi1", [complex(a), complex(b), complex(c), complex(x), complex(y)],
        phi1(a, b, c, x, y))

# humbert_phi1 at complex x and complex y near |y| = 1: the Morse wave kernel's
# Cauchy-circle node of largest |y| (16 nodes, radius half the distance to the
# window end) at 0.9 of the series window, lam = 1, X = 0, X' = 0.2, 2k = 1, 3, 4
yy, rho = math.exp(0.2), 0.2
w_rho = math.cosh(rho / 2)
b_star = 2 * math.acosh(2 / math.sqrt(3) * w_rho)
b_node = rho + 0.9 * (b_star - rho)
d0 = 2 * math.sinh((b_node + rho) / 4) * math.sinh((b_node - rho) / 4)
r = 0.5 * min(d0, (2 / math.sqrt(3) - 1) * w_rho - d0)
zs = [2 * math.sqrt(yy) * cmath.sqrt(d * (d + 2 * w_rho))
      for d in (d0 + r * cmath.exp(2j * math.pi * j / 16) for j in range(16))]
z = max(zs, key=lambda z: abs(2 * z / (z + 1j * (1 + yy))))
for two_k in (1, 3, 4):
    a, b, c = two_k + 0.5, two_k, 2 * two_k + 1.0
    x, y = 2j * z, 2 * z / (z + 1j * (1 + yy))
    add("humbert_phi1", [complex(a), complex(b), complex(c), x, y],
        phi1(mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpc(x), mp.mpc(y)))

# chebyshev_t --------------------------------------------------------------
for (n, x) in [(2, mp.mpf("0.5")), (3, mp.mpf(2)), (7, mp.mpf("0.3")), (5, mp.mpf("1.7"))]:
    add("chebyshev_t", [n, float(x)], mp.chebyt(n, x))

# bessel -------------------------------------------------------------------
# J at integer orders out to x = 30, where its sum of Bessel's integral replaced the
# series, at |J_n| >= 0.08
for (nu, x) in [(0, "0.5"), (0, "2.2"), (1, "3.7"), ("0.5", "1.1"), ("2.7", "6.0"), (0, "8.0"),
                (0, "13.0"), (0, "19.0"), (0, "25.0"), (0, "30.0"),
                (1, "19.0"), (1, "30.0"), (2, "25.0"), (3, "30.0")]:
    add("bessel_J", [float(mp.mpf(nu)), float(mp.mpf(x))], mp.besselj(mp.mpf(nu), mp.mpf(x)))
for (nu, x) in [("0.3", "1.1"), (1, "2.0"), (0, "0.7"), (2, "5.5")]:
    add("bessel_I", [float(mp.mpf(nu)), float(mp.mpf(x))], mp.besseli(mp.mpf(nu), mp.mpf(x)))
# K at non-integer and integer orders alike, out to x = 29 and at an order near 0
for (nu, x) in [("0.5", "1.3"), ("0.3", "0.55"), ("1.7", "2.4"), ("0.7", "1.0"),
                (0, "0.7"), (1, "1.3"), (2, "0.9"), (0, "1.8"), (1, "2.0"),
                (2, "8.0"), ("0.05", "29.0"), ("1e-4", "2.3")]:
    add("bessel_K", [float(mp.mpf(nu)), float(mp.mpf(x))], mp.besselk(mp.mpf(nu), mp.mpf(x)))

# whittaker ----------------------------------------------------------------
for (k, mu, z) in [(0, "0.3", "1.1"), ("0.5", "1.2", "2.0"), (1, "0.8", "1.5"), ("0.5", "0.7", "2.6")]:
    add("whittaker_M", [float(mp.mpf(k)), float(mp.mpf(mu)), float(mp.mpf(z))],
        mp.whitm(mp.mpf(k), mp.mpf(mu), mp.mpf(z)))
for (k, mu, z) in [(0, "0.3", "1.1"), ("0.5", "1.2", "2.0"), ("0.5", "0.7", "1.0"), (0, "0.7", "2.6")]:
    add("whittaker_W", [float(mp.mpf(k)), float(mp.mpf(mu)), float(mp.mpf(z))],
        mp.whitw(mp.mpf(k), mp.mpf(mu), mp.mpf(z)))

OUT.parent.mkdir(parents=True, exist_ok=True)
with OUT.open("w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["function", "params", "ref_real", "ref_imag"])
    w.writerows(rows)
print(f"wrote {len(rows)} reference values to {OUT}")
