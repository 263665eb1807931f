"""Fixed, untimed probes of the holes in the package's stated domain.

The timed workloads sample only the region the package answers (see
``workloads.in_region``).  The points below lie outside it but inside what
the README and docstrings promise; each run evaluates them once, untimed, and
records the value or the exception type.  A probe *fails* when it raises,
returns a non-finite value, or misses its independent reference.  When a
later change closes a hole, ``probe.failed`` drops.

The first five and ``hres.nan_mu`` are the holes the roadmap names.  The
rest were found while choosing the sampled region: the call returns, but
reports converged=False or misses the reference by more than the tolerance
of its identity.
"""
from __future__ import annotations

import math

import reference as ref

_Z, _ZP = (0.0, 1.0), (0.5, 2.0)

# name -> (what it shows, op, args, identity whose tolerance applies, reference)
PROBES = (
    ("hheat.k0.3", "hyperbolic heat kernel at generic k",
     "harness.eval_kernel", ("hheat", {"k": 0.3, "t": 1.0, "z": _Z, "zp": _ZP}),
     "hyperbolic_heat_pde", lambda: ref.hheat(1.0, 0.3, _Z, _ZP)),
    ("hwave.b6.k0.3", "hyperbolic wave kernel at large b, generic k",
     "harness.eval_kernel", ("hwave", {"k": 0.3, "b": 6.0, "z": _Z, "zp": _ZP, "form": "auto"}),
     "hyperbolic_forms", lambda: ref.hwave(0.3, 6.0, _Z, _ZP)),
    ("hres_integral.k0.3", "hyperbolic resolvent transmutation integral at generic k",
     "hkernels.resolvent_integral", (-0.9j, 0.3, _Z, _ZP),
     "hyperbolic_resolvent", lambda: ref.hres(0.3, -0.9j, _Z, _ZP)),
    ("hres.rho0.2", "closed resolvent near the diagonal (rho = 0.199 < 0.28)",
     "harness.eval_kernel", ("hres", {"k": 0.5, "mu": -0.9j, "z": (0.0, 1.0), "zp": (0.0, 1.22)}),
     "hyperbolic_resolvent", lambda: ref.hres(0.5, -0.9j, (0.0, 1.0), (0.0, 1.22))),
    ("mres.Xp3", "Morse closed resolvent at X' = 3, lam = 1 (2 lam e^X' = 40.2)",
     "harness.eval_kernel", ("mres", {"k": 0.5, "lam": 1.0, "mu": -0.9j, "X": 0.0, "Xp": 3.0}),
     "morse_resolvent", lambda: ref.mres(1.0, 0.5, -0.9j, 0.0, 3.0)),
    ("mres_integral.alpha0.735", "Morse resolvent integral at alpha = 0.735 (k = 0)",
     "mkernels.resolvent_integral", (1.0077535156730204, 0.0, 0.1905807548607078,
                                     0.5581692726900779, -0.735j),
     "morse_resolvent", lambda: ref.mres(1.0077535156730204, 0.0, -0.735j,
                                         0.1905807548607078, 0.5581692726900779)),
    ("hres.nan_mu", "non-finite spectral parameter",
     "harness.eval_kernel", ("hres", {"k": 0.5, "mu": complex(math.nan, -0.9), "z": _Z, "zp": _ZP}),
     "hyperbolic_resolvent", None),
    ("mres.arg20", "Morse closed resolvent at 2 lam e^X' = 20 (W x M cancellation)",
     "harness.eval_kernel",
     ("mres", {"k": 0.0, "lam": 1.0, "mu": -0.9j, "X": 0.0, "Xp": math.log(10.0)}),
     "morse_resolvent", lambda: ref.mres(1.0, 0.0, -0.9j, 0.0, math.log(10.0))),
    ("mres.near_int_2nu", "Morse closed resolvent at 2 nu = 2 + 2e-6",
     "harness.eval_kernel", ("mres", {"k": 0.0, "lam": 1.0, "mu": -1.000001j, "X": 0.5, "Xp": 0.0}),
     "morse_resolvent", lambda: ref.mres(1.0, 0.0, -1.000001j, 0.5, 0.0)),
    ("mwave.k0.lamZ28", "k = 0 Morse wave kernel at lam Z = 28 (J0 series cancellation)",
     "harness.eval_kernel", ("mwave", {"k": 0.0, "lam": 2.0, "b": 4.8, "X": 0.0, "Xp": 0.5}),
     "morse_wave_bessel_phi1", lambda: ref.mwave(2.0, 0.0, 4.8, 0.0, 0.5)),
    ("kummer_1f1.x-15", "1F1 at negative argument x = -14.6",
     "specfun.kummer_1f1", (2.9, 3.1, -14.6),
     "specfun_oracle", lambda: ref.specfun("specfun.kummer_1f1", (2.9, 3.1, -14.6))),
    ("bessel.K.x8", "Bessel K at x = 8",
     "specfun.bessel", ("K", 2.0, 8.0),
     "specfun_oracle", lambda: ref.specfun("specfun.bessel", ("K", 2.0, 8.0))),
    ("bessel.K.nu1e-4", "Bessel K at order 1e-4 (near-integer order)",
     "specfun.bessel", ("K", 1e-4, 2.3),
     "specfun_oracle", lambda: ref.specfun("specfun.bessel", ("K", 1e-4, 2.3))),
    ("whittaker.W.z12", "Whittaker W at z = 12",
     "specfun.whittaker", ("W", -0.7, 0.49, 12.0),
     "specfun_oracle", lambda: ref.specfun("specfun.whittaker", ("W", -0.7, 0.49, 12.0))),
)


def _call(hm, op: str, args: tuple):
    if op == "harness.eval_kernel":
        return hm.harness.eval_kernel(args[0], dict(args[1]))
    if op == "hkernels.resolvent_integral":
        mu, k, z, zp = args
        h = hm.hkernels
        return h.resolvent_integral(h.SpectralParam(mu), k, h.HalfPlanePoint(*z),
                                    h.HalfPlanePoint(*zp))
    if op == "mkernels.resolvent_integral":
        lam, k, X, Xp, mu = args
        return hm.mkernels.resolvent_integral(hm.mkernels.MorseConfig(lam, k, X, Xp), mu)
    return getattr(hm.specfun, op.split(".", 1)[1])(*args)


def run(hm, tolerances: dict):
    """Evaluate every probe; returns a list of (name, failed, note)."""
    records = []
    for name, what, op, args, check, reference in PROBES:
        try:
            result = _call(hm, op, args)
        except Exception as exc:  # a probe records whatever the hole raises
            records.append((name, True, f"{what}: raised {type(exc).__name__}"))
            continue
        value = complex(getattr(result, "value", result))
        if not getattr(result, "converged", True):
            records.append((name, True, f"{what}: value {value:.6g} with converged=False"))
            continue
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            records.append((name, True, f"{what}: non-finite value {value}"))
            continue
        if reference is None:
            records.append((name, False, f"{what}: value {value:.6g}"))
            continue
        err = ref.rel_err(value, reference())
        tol = tolerances[check]
        records.append((name, err > tol,
                        f"{what}: value {value:.6g}, rel_err {err:.2e} vs tol {tol:g}"))
    return records
