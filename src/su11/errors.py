"""Exception types shared across the package, and the checks that raise them.

Numerical singularities are reported as typed errors, never as NaNs; the
sweep runner turns them into named error codes in the CSV output.

Each numerical rule is one check here, next to its tolerance: the dark
fringe (:func:`normalizer`, which raises the caller's type), stationarity,
and the NumericalError checks for an imaginary part, overflow, positivity
and roundoff.
"""

import math
import sys
from typing import Type


class Su11Error(Exception):
    """Base class for all package errors."""


class DarkFringeError(Su11Error):
    """A generating-function normalizer vanished (zero subtraction probability)."""


class StationaryPointError(Su11Error):
    """The mean photon number is stationary in phi; error propagation diverges."""


class NormalizationError(Su11Error):
    """A state normalization constant could not be formed."""


class LeakageError(Su11Error):
    """A truncated Fock state accumulated too much amplitude near the cutoff."""


class ZeroProbabilityError(Su11Error):
    """Photon subtraction left (numerically) zero total probability."""


class ConvergenceError(Su11Error):
    """The Fock oracle did not converge within the allowed cutoff range."""


class NumericalError(Su11Error, ArithmeticError):
    """Roundoff or float overflow left a result non-finite or inconsistent."""


# a normalizer extraction below this magnitude is treated as exactly zero
DARK_FRINGE_FLOOR = 1e-300
_LOG_DARK_FRINGE_FLOOR = math.log(DARK_FRINGE_FLOOR)
# relative imaginary residue tolerated on a quantity that must be real
IMAG_TOL = 1e-10
# estimated relative roundoff above which a calculator result is a NumericalError
ROUNDOFF_REL_TOL = 1e-9
# |d<N>/dphi| below this fraction of <N> is stationary, in closed form and oracle
STATIONARY_REL_TOL = 1e-12


def normalizer(log_z: float, error: Type[Su11Error], m: int) -> float:
    """``log_z`` itself; the log of an m-subtraction weight under DARK_FRINGE_FLOOR raises ``error``."""
    if log_z < _LOG_DARK_FRINGE_FLOOR:
        raise error(f"subtraction weight vanished at m={m} (dark fringe)")
    return log_z


def stationary(dmean: float, mean: float, where: str) -> float:
    """``dmean`` itself; a d<N>/dphi of 0 or under STATIONARY_REL_TOL |<N>| is stationary."""
    if dmean == 0.0 or abs(dmean) < STATIONARY_REL_TOL * abs(mean):
        raise StationaryPointError(f"{where}: d<N>/dphi = {dmean:.3e} is stationary "
                                   f"relative to <N> = {mean:.3e}")
    return dmean


def real_part(z: complex, what: str, scale: float = 1.0) -> float:
    """Real part of ``z``, which must be real up to roundoff relative to ``scale``."""
    if abs(z.imag) > IMAG_TOL * max(1.0, abs(z.real), scale):
        raise NumericalError(f"{what} should be real, got {z!r}")
    return z.real


def finite(x: float, what: str) -> float:
    """``x`` itself; a calculator result that overflowed is a NumericalError."""
    if not math.isfinite(x):
        raise NumericalError(f"{what} is {x} (float overflow)")
    return x


def positive(x: float, what: str) -> float:
    """``x`` itself; a result that is not finite and > 0 is a NumericalError."""
    if not 0.0 < x < math.inf:
        raise NumericalError(f"{what} must be positive and finite, got {x}")
    return x


def roundoff(x: float, scale: float, what: str) -> float:
    """``x`` itself; a sum ``x`` of terms of total magnitude ``scale`` is roundoff
    when its estimated relative error 4 eps scale / x exceeds ROUNDOFF_REL_TOL."""
    rel = 4.0 * sys.float_info.epsilon * scale / x
    if rel > ROUNDOFF_REL_TOL:
        raise NumericalError(f"{what} {x} is roundoff (estimated relative error {rel:.1e})")
    return x

