"""Intensity-detection phase sensitivity at output mode a, ideal and lossy.

The mean and second moment of the detected photon number are extractions of
the output generating function exp(A); the error-propagation formula then
gives  delta^2 phi = Var(N) / |d<N>/dphi|^2,  with the phi derivative taken
from the dual channel of the extraction (a central-difference fallback is
provided for cross-checks only).

The lossy variant is the identical code path with the lossy kernel, so the
no-loss reduction is bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from su11.errors import DarkFringeError, NumericalError, StationaryPointError, Su11Error
from su11.model import Params, kernels
from su11.series import DARK_FRINGE_FLOOR, IMAG_TOL, MultiSeries, finite, quiet_overflow, real_part

STATIONARY_REL_TOL = 1e-12


@dataclass(frozen=True)
class SensitivityReport:
    """Phase uncertainty plus the moments and normalization that produced it."""

    delta_phi: float
    mean_n: float
    mean_n2: float
    norm: float
    d_mean_dphi: float


@quiet_overflow
def _error_propagation(exp_a: MultiSeries, m: int) -> SensitivityReport:
    e = exp_a.exp()
    gm = e.extract((m, m))
    if abs(gm.val) < DARK_FRINGE_FLOOR:
        raise DarkFringeError(
            f"subtraction normalizer vanished (m={m} at a dark fringe)"
        )
    gm1 = e.extract((m + 1, m + 1))
    gm2 = e.extract((m + 2, m + 2))
    n1sq = 1.0 / gm  # normalization squared, with its phi derivative
    mean = n1sq * gm1
    mean2 = n1sq * (gm1 + gm2)
    mean_v = finite(real_part(mean.val, "<N>", abs(mean.val)), "<N>")
    mean2_v = finite(real_part(mean2.val, "<N^2>", abs(mean2.val)), "<N^2>")
    dmean_v = finite(real_part(mean.dph, "d<N>/dphi", abs(mean.dph)), "d<N>/dphi")
    var = mean2_v - mean_v * mean_v
    if var < -IMAG_TOL * max(mean2_v, 1.0):
        raise NumericalError(f"negative variance {var} at m={m}")
    var = max(var, 0.0)
    if dmean_v == 0.0 or abs(dmean_v) < STATIONARY_REL_TOL * abs(mean_v):
        raise StationaryPointError(
            f"d<N>/dphi = {dmean_v:.3e} is stationary relative to <N> = {mean_v:.3e}"
        )
    norm = float(gm.val.real) ** -0.5
    return SensitivityReport(
        delta_phi=math.sqrt(var) / abs(dmean_v),
        mean_n=mean_v,
        mean_n2=mean2_v,
        norm=norm,
        d_mean_dphi=dmean_v,
    )


def sensitivity_ideal(p: Params) -> SensitivityReport:
    """Error-propagation sensitivity of the lossless interferometer."""
    return _error_propagation(kernels(p).exponent_a(lossy=False), p.m)


def sensitivity_lossy(p: Params) -> SensitivityReport:
    """Sensitivity with internal (T1) and external (T2) photon loss."""
    return _error_propagation(kernels(p).exponent_a(lossy=True), p.m)


def d_mean_dphi_fd(p: Params, lossy: bool = False, step: float = 1e-5) -> float:
    """Central-difference d<N>/dphi; cross-check only, never used in reports."""

    def mean_at(phi: float) -> float:
        e = kernels(p.replace(phi=phi)).exponent_a(lossy=lossy).exp()
        gm = e.extract((p.m, p.m)).val
        if abs(gm) < DARK_FRINGE_FLOOR:
            raise DarkFringeError("dark fringe inside finite-difference stencil")
        return (e.extract((p.m + 1, p.m + 1)).val / gm).real

    return (mean_at(p.phi + step) - mean_at(p.phi - step)) / (2.0 * step)


def optimal_phase(
    p: Params,
    interval: Tuple[float, float],
    n_grid: int = 33,
    lossy: bool = False,
) -> Tuple[float, float]:
    """Locate the phase minimizing delta_phi on an interval.

    A coarse grid picks the bracketing neighborhood; golden-section then
    refines it.  Samples hitting a dark fringe or a stationary point are
    skipped; if every sample fails the last error propagates.
    """
    lo, hi = interval
    if n_grid < 3:
        raise ValueError("need at least 3 grid samples")
    evaluate = sensitivity_lossy if lossy else sensitivity_ideal

    def delta_at(phi: float) -> float:
        return evaluate(p.replace(phi=phi)).delta_phi

    samples = []
    last_error: Su11Error | None = None
    for i in range(n_grid):
        phi = lo + (hi - lo) * i / (n_grid - 1)
        try:
            samples.append((delta_at(phi), phi))
        except (DarkFringeError, StationaryPointError) as err:
            last_error = err
    if not samples:
        assert last_error is not None
        raise last_error
    best_delta, best_phi = min(samples)
    span = (hi - lo) / (n_grid - 1)
    a = max(lo, best_phi - span)
    b = min(hi, best_phi + span)

    def safe_delta(phi: float) -> float:
        try:
            return delta_at(phi)
        except (DarkFringeError, StationaryPointError):
            return math.inf

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = safe_delta(x1), safe_delta(x2)
    for _ in range(80):
        if b - a < 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = safe_delta(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = safe_delta(x2)
    candidates = [(best_delta, best_phi), (f1, x1), (f2, x2)]
    best_delta, best_phi = min(c for c in candidates if math.isfinite(c[0]))
    return best_phi, best_delta
