"""Internal mean photon number and the SQL / HL benchmarks built on it.

The standard quantum limit and Heisenberg limit are referenced to the mean
photon number of the state inside the interferometer, counted just before
the second amplifier with the subtraction folded in as a non-local
operation.  Internal loss enters through the single transmittance T = T1.
Both number insertions reduce to the factor Y(v1) of `su11.model`: mode a
inserts T sh^2 (1 + Y(v1)) and mode b inserts sh^2 + ch^2 Y(v1), so

    N_T = (ch^2 + T sh^2) <Y(v1)> + (1 + T) sh^2,

with <q> = ext_(m,m)[q e] / ext_(m,m)[e] over the internal state's
generating function e = exp(B(v1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from su11.errors import DarkFringeError, NumericalError
from su11.model import Params, kernels
from su11.series import finite, normalizer, quiet_overflow, real_part


@dataclass(frozen=True)
class LimitsReport:
    n_t: float
    sql: float
    hl: float


@quiet_overflow
def internal_photon_number(p: Params) -> float:
    """<n_a + n_b> of the internal state, with m-photon subtraction folded in."""
    m = p.m
    ks = kernels(p)
    e = ks.exponent_nt().exp()
    norm = e.extract((m, m)).val
    normalizer(norm, DarkFringeError, f"internal-state normalizer vanished at m={m}")
    y_mean = real_part((ks.y_poly(ks.v1) * e).extract((m, m)).val / norm, "<Y(v1)>")
    n_t = (ks.ch2 + p.T1 * ks.sh2) * y_mean + (1.0 + p.T1) * ks.sh2
    return finite(n_t, "internal photon number")


def limits(p: Params) -> LimitsReport:
    """SQL = N_T^(-1/2) and HL = N_T^(-1)."""
    n_t = internal_photon_number(p)
    if n_t <= 0.0:
        raise NumericalError(f"internal photon number must be positive, got {n_t}")
    return LimitsReport(n_t=n_t, sql=n_t**-0.5, hl=1.0 / n_t)
