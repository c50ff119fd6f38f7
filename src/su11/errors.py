"""Exception types shared across the package.

Numerical singularities are reported as typed errors, never as NaNs; the
sweep runner turns them into named error codes in the CSV output.
"""


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
