"""Exception types shared across the package, and the entry-point finite check."""
import cmath

import numpy as np


class HypermorseError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInput(HypermorseError, ValueError):
    """A kernel parameter is NaN or infinite."""


class DomainError(HypermorseError, ValueError):
    """An argument lies outside its domain (a kernel's t, y or lam <= 0; a Bessel x <= 0 or nu < 0,
    a Whittaker z <= 0, a negative or non-whole Chebyshev degree, an unknown kind) or has the wrong form."""


def require_finite(**named):
    """Raise NonFiniteInput naming the first argument that is, or holds in a
    tuple, a list or an ndarray (one np.isfinite pass), a NaN or infinite
    number."""
    for name, value in named.items():
        if isinstance(value, np.ndarray):
            ok = np.isfinite(value).all()
        else:
            ok = all(map(cmath.isfinite, value)) if isinstance(value, (tuple, list)) else cmath.isfinite(value)
        if not ok:
            raise NonFiniteInput(f"parameter {name}={value!r} is not finite")


# special functions

class PoleAtNonPositiveInteger(HypermorseError):
    """Gamma evaluated at 0, -1, -2, ..."""


class ParameterPole(HypermorseError):
    """Hypergeometric lower parameter at a non-positive integer."""


class SeriesNonConvergence(HypermorseError):
    """Series did not converge within the configured budget or argument range."""


class LogarithmicSingularity(HypermorseError):
    """2F1 with c = a + b evaluated at z = 1, where it diverges like -log(1 - z)."""


class OutsideConvergenceRegion(HypermorseError):
    """Argument outside the convergence domain of the double series."""


class IntegerTwoMuUnsupported(HypermorseError):
    """Whittaker W with 2*mu an integer is not supported."""


# kernels

class OutsideSupport(HypermorseError):
    """Wave kernel evaluated on its singular support boundary."""


class GammaPole(HypermorseError):
    """Spectral parameter sits on a bound-state pole of the resolvent."""


class DiagonalSingularity(HypermorseError):
    """Resolvent kernel requested on the diagonal z = z'."""


class ConvergenceViolated(HypermorseError):
    """Spectral parameter violates the decay precondition of a kernel integral."""


class Phi1OutsideDisc(HypermorseError):
    """Second argument of the two-variable confluent series left the unit disc."""


class UnsupportedK(HypermorseError):
    """Magnetic/coupling constant outside the implemented range."""


class CancellationLimit(HypermorseError):
    """A cancelling integral's round-off floor exceeds the accuracy its caller needs."""


class NotConverged(HypermorseError):
    """A quadrature came back with converged=False, or could not start within its node budget."""


# harness

class CalibrationAmbiguous(HypermorseError):
    """No unique convention candidate passed calibration."""


class InvalidGrid(HypermorseError):
    """Malformed grid specification."""


class MissingParameter(HypermorseError, ValueError):
    """A kernel evaluation lacks a parameter its kernel reads."""
