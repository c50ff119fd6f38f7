"""Intensity-detection phase sensitivity at output mode a, ideal and lossy.

Output mode a is a displaced thermal state of thermal number u = |w3|^2.
After m subtractions, <N> = c1 u and d<N>/dphi = c1 u', with u' from the
kernel's d/dphi channel (`su11.verify` checks it against central
differences of <N>), and Var(N) = (D_m / L_m^2) u^2 + c1 u is a sum of
non-negative terms (c1 and D_m: `su11.model.KernelSet.subtraction`).
Error propagation gives  delta^2 phi = Var(N) / |d<N>/dphi|^2.

The ideal variant is the lossy one at T1 = T2 = 1, so the no-loss
reduction is bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from su11.errors import DarkFringeError, StationaryPointError, Su11Error
from su11.model import Params, kernels
from su11.series import STATIONARY_REL_TOL, finite

# samples of the coarse grid that brackets the optimal phase
PHASE_GRID = 33


@dataclass(frozen=True)
class SensitivityReport:
    """Phase uncertainty plus the moments and normalization that produced it."""

    delta_phi: float
    mean_n: float
    mean_n2: float
    norm: float
    d_mean_dphi: float


def _error_propagation(p: Params) -> SensitivityReport:
    ks = kernels(p)
    u2 = ks.w3.abs2()
    u, du = u2.val.real, u2.dph.real
    norm, y, spread = ks.subtraction(u)
    c1 = 1.0 + y
    mean = finite(c1 * u, "<N>")
    dmean = finite(c1 * du, "d<N>/dphi")
    var = spread * u * u + mean
    mean2 = finite(var + mean * mean, "<N^2>")
    if dmean == 0.0 or abs(dmean) < STATIONARY_REL_TOL * abs(mean):
        raise StationaryPointError(
            f"d<N>/dphi = {dmean:.3e} is stationary relative to <N> = {mean:.3e}"
        )
    return SensitivityReport(
        delta_phi=math.sqrt(var) / abs(dmean),
        mean_n=mean,
        mean_n2=mean2,
        norm=norm,
        d_mean_dphi=dmean,
    )


def sensitivity_ideal(p: Params) -> SensitivityReport:
    """Error-propagation sensitivity of the lossless interferometer."""
    return _error_propagation(p.replace(T1=1.0, T2=1.0))


def sensitivity_lossy(p: Params) -> SensitivityReport:
    """Sensitivity with internal (T1) and external (T2) photon loss."""
    return _error_propagation(p)


def optimal_phase(
    p: Params,
    interval: Tuple[float, float],
    lossy: bool = False,
) -> Tuple[float, float]:
    """Locate the phase minimizing delta_phi on an interval.

    A coarse grid of PHASE_GRID samples picks the bracketing neighborhood;
    golden-section then refines it.  Samples hitting a dark fringe or a
    stationary point are skipped; if every sample fails the last error
    propagates.
    """
    lo, hi = interval
    evaluate = sensitivity_lossy if lossy else sensitivity_ideal

    def delta_at(phi: float) -> float:
        return evaluate(p.replace(phi=phi)).delta_phi

    samples = []
    last_error: Su11Error | None = None
    for i in range(PHASE_GRID):
        phi = lo + (hi - lo) * i / (PHASE_GRID - 1)
        try:
            samples.append((delta_at(phi), phi))
        except (DarkFringeError, StationaryPointError) as err:
            last_error = err
    if not samples:
        assert last_error is not None
        raise last_error
    best_delta, best_phi = min(samples)
    span = (hi - lo) / (PHASE_GRID - 1)
    a = max(lo, best_phi - span)
    b = min(hi, best_phi + span)

    def safe_delta(phi: float) -> float:
        try:
            return delta_at(phi)
        except (DarkFringeError, StationaryPointError):
            return math.inf

    x, fx = golden_section(safe_delta, a, b)
    candidates = [(best_delta, best_phi), (fx, x)]
    best_delta, best_phi = min(c for c in candidates if math.isfinite(c[0]))
    return best_phi, best_delta


def golden_section(fn: Callable[[float], float], a: float, b: float) -> Tuple[float, float]:
    """Golden-section refinement of a minimum of ``fn`` bracketed by [a, b].

    Narrows the bracket to 1e-12 relative and returns the better of the two
    final probes as (x, fn(x)); on a tie, the smaller x.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    # each step shrinks the bracket by invphi: 80 steps bring any bracket up
    # to 1e4 wide under the tolerance
    for _ in range(80):
        if b - a < 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2
