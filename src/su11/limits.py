"""Internal mean photon number and the SQL / HL benchmarks built on it.

The standard quantum limit and Heisenberg limit are referenced to the mean
photon number of the state inside the interferometer, counted just before
the second amplifier with the subtraction folded in as a non-local
operation.  Internal loss enters through the single transmittance T = T1.
Both number insertions reduce to the factor Y(v1) of `su11.model`: mode a
inserts T sh^2 (1 + Y(v1)) and mode b inserts sh^2 + ch^2 Y(v1), so

    N_T = (ch^2 + T sh^2) <Y(v1)> + (1 + T) sh^2.

Here v1 = (1/2) sinh 2g (1 - sqrt(T) e^{-i phi}).  exp(B(v1)) generates a
displaced thermal state, and d_t d_s exp(B) = |v1|^2 (1 + Y(v1)) exp(B), so
<Y(v1)> = c1 - 1 whatever phi is (`su11.model`); the thermal number |v1|^2,
`su11.model.thermal` at unit T2, enters only through the dark-fringe test of
the subtraction weight.
"""

from __future__ import annotations

from typing import NamedTuple

from su11.errors import DarkFringeError, finite, positive
from su11.model import Params, kernels, log_weight, thermal


class LimitsReport(NamedTuple):
    n_t: float
    sql: float
    hl: float


def internal_photon_number(p: Params) -> float:
    """<n_a + n_b> of the internal state, with m-photon subtraction folded in."""
    half_sh2g, sh2, ch2, laguerre, log_norm = kernels(p)
    t1 = p.T1
    log_weight(log_norm, thermal(half_sh2g, t1, 1.0, p.phi)[0], p.m, DarkFringeError)
    return finite((ch2 + t1 * sh2) * laguerre[1] + (1.0 + t1) * sh2, "internal photon number")


def limits(p: Params) -> LimitsReport:
    """SQL = N_T^(-1/2) and HL = N_T^(-1)."""
    n_t = positive(internal_photon_number(p), "internal photon number")
    return LimitsReport(n_t, n_t**-0.5, 1.0 / n_t)
