"""Internal mean photon number and the SQL / HL benchmarks built on it.

The standard quantum limit and Heisenberg limit are referenced to the mean
photon number of the state inside the interferometer, counted just before
the second amplifier with the subtraction folded in as a non-local
operation.  Internal loss enters through the single transmittance T = T1;
the mode-a and mode-b number insertions are separate extractions, and the
normalizer is the mode-a series' extraction without the insertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from su11.errors import DarkFringeError, NumericalError
from su11.model import Params, kernels
from su11.series import DARK_FRINGE_FLOOR, finite, quiet_overflow, real_part


@dataclass(frozen=True)
class LimitsReport:
    n_t: float
    sql: float
    hl: float


@quiet_overflow
def internal_photon_number(p: Params) -> float:
    """<n_a + n_b> of the internal state, with m-photon subtraction folded in."""
    m = p.m
    exps = kernels(p).exponents_nt()
    e_a = exps["mode_a"].exp()
    norm = e_a.extract((m, m, 0, 0)).val
    if abs(norm) < DARK_FRINGE_FLOOR:
        raise DarkFringeError(f"internal-state normalizer vanished at m={m}")
    num = e_a.extract((m, m, 1, 1)).val + exps["mode_b"].exp().extract((m, m, 1, 1)).val
    n_t = real_part(num / norm, "internal photon number")
    return finite(n_t, "internal photon number")


def limits(p: Params) -> LimitsReport:
    """SQL = N_T^(-1/2) and HL = N_T^(-1)."""
    n_t = internal_photon_number(p)
    if n_t <= 0.0:
        raise NumericalError(f"internal photon number must be positive, got {n_t}")
    return LimitsReport(n_t=n_t, sql=n_t**-0.5, hl=1.0 / n_t)
