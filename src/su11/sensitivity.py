"""Intensity-detection phase sensitivity at output mode a, ideal and lossy, and its optimum.

Output mode a is a displaced thermal state of thermal number
u = |w3|^2, w3 = (1/2) sinh 2g sqrt(T2) (1 - sqrt(T1) e^{-i phi}).
After m subtractions, <N> = c1 u and d<N>/dphi = c1 u', with u and u' in
explicit real arithmetic (`su11.model.KernelSet.thermal`; `su11.verify`
checks u' against central differences of <N>), and Var(N) = S u^2 + c1 u
with S = D_m / L_m^2 is a sum of non-negative terms (<N> and Var(N):
`su11.model.KernelSet.moments`).
Error propagation gives  delta^2 phi = Var(N) / |d<N>/dphi|^2.

The ideal variant is the lossy one with unit transmittances passed to
`KernelSet.thermal`, so the no-loss reduction is bit-for-bit.

The optimum over phi is exact.  With c = cos phi, u = K v, v = a - b c, a = 1 + T1,
b = 2 sqrt(T1) and K = (1/4) sinh^2 2g T2, delta^2 phi = N(c) / (c1^2 b^2 (1 - c^2)),
N = S v^2 + (c1 / K) v.  The c^3 terms of the stationarity cubic N'(c)(1 - c^2) + 2c N(c)
cancel, which leaves (times K) q c^2 - 2P c + q, P = SK (a^2 + b^2) + a c1.  Its roots are reciprocal,
and P - q = d (SK d + c1) >= 0 with d = (1 - sqrt T1)^2, the kernel modulus at phi = 0, which
`su11.model.kernel_modulus` forms without cancelling as T1 -> 1.  So one root c* lies in [-1, 1]:
1 - c* = (e + r) / (1 + r), e = (P - q) / P, r = sqrt(e (2 - e)).  It is the minimum over a period,
as delta_phi diverges at c = +-1, except at T1 = 1, where c* = 1 is the fringe.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from su11.errors import DarkFringeError, NumericalError, Su11Error, finite, stationary
from su11.model import Params, kernel_modulus, kernels


class SensitivityReport(NamedTuple):
    """Phase uncertainty plus the moments that produced it."""

    delta_phi: float
    mean_n: float
    var_n: float
    d_mean_dphi: float


def _error_propagation(p: Params, t1: float, t2: float) -> SensitivityReport:
    ks = kernels(p)
    u, du = ks.thermal(t1, t2)
    ks.log_weight(u, DarkFringeError)
    mean, var = ks.moments(u)
    finite(mean, "<N>")
    dmean = finite((1.0 + ks.laguerre[1]) * du, "d<N>/dphi")
    finite(var, "Var(N)")
    stationary(dmean, mean, "closed form")
    return SensitivityReport(
        delta_phi=math.sqrt(var) / abs(dmean),
        mean_n=mean,
        var_n=var,
        d_mean_dphi=dmean,
    )


def sensitivity_ideal(p: Params) -> SensitivityReport:
    """Error-propagation sensitivity of the lossless interferometer."""
    return _error_propagation(p, 1.0, 1.0)


def sensitivity_lossy(p: Params) -> SensitivityReport:
    """Sensitivity with internal (T1) and external (T2) photon loss."""
    return _error_propagation(p, p.T1, p.T2)


def optimal_phase(p: Params, interval: Tuple[float, float]) -> Tuple[float, float]:
    """(phi*, delta_phi*) minimizing delta_phi over phi in ``interval`` at p's g, beta, m, T1, T2.

    Candidates: the endpoints and +-acos c*, each moved into the interval by one 2 pi k; a fringe
    carries the limit 1 / (sinh 2g sqrt(T2 c1)), sensitivity_lossy evaluates the others, skipping
    one that raises a typed error.  The least value wins, on a tie the smaller phase; if none
    succeeds, the last error propagates.  A non-finite or reversed interval is a ValueError.
    """
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"interval must be finite with lo <= hi, got {interval}")
    ks = kernels(p)
    _, y, spread = ks.laguerre
    c1, k = 1.0 + y, ks.sh2 * (ks.ch2 * p.T2)  # sinh^2 g cosh^2 g = (1/4) sinh^2 2g
    a, b, d = 1.0 + p.T1, 2.0 * math.sqrt(p.T1), kernel_modulus(p.T1, 0.0, 1.0)[2]
    big_p = spread * k * (a * a + b * b) + a * c1
    e = d * (spread * k * d + c1) / big_p
    if not (math.isfinite(big_p) and math.isfinite(e)):
        raise NumericalError(f"optimal-phase coefficients not finite at g = {p.g}, beta = {p.beta}")
    tau, r = 2.0 * math.pi, math.sqrt(e * (2.0 - e))
    theta = 2.0 * math.asin(math.sqrt((e + r) / (2.0 + 2.0 * r)))  # acos c*, exactly 0 at T1 = 1
    # +-theta, each moved by its 2 pi k into [lo, lo + 2 pi); one already there is kept as it is
    shifted = sorted({x if lo <= x < lo + tau else lo + (x - lo) % tau for x in (theta, -theta)})
    stationary = [x for x in shifted if x <= hi]
    candidates = []
    if p.T1 == 1.0:  # theta = 0: fringes carry the limit, infinite where g = 0 or T2 = 0
        candidates = [(0.5 / math.sqrt(k * c1), x) for x in stationary if 0.0 < k * c1 < math.inf]
        stationary = []
    last_error: Su11Error | None = None
    for phi in dict.fromkeys([lo, hi] + stationary):
        try:
            candidates.append((sensitivity_lossy(p.replace(phi=phi)).delta_phi, phi))
        except Su11Error as err:
            last_error = err
    if not candidates:
        raise last_error
    delta, phi = min(candidates)
    return phi, delta
