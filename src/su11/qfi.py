"""Quantum Fisher information: ideal (equivalent model) and lossy (Kraus bound).

Ideal case: the output-port subtraction is rewritten as a non-local
operation acting before the phase-independent part of the interferometer,
so the probe state stays independent of the unknown phase; the QFI is then
F = 4 [<psi'|psi'> - |<psi'|psi>|^2], with every inner product an
extraction of one generating function, exp(F1), and the normalization
derivative taken from the dual channel.

Lossy case: photon loss inside mode a makes the evolution non-unitary; the
problem is purified into system + environment, where the loss channel's
Kraus operators carry a free placement parameter alpha.  Minimizing the
purified-state bound C_Q over alpha tightens it to F_L.  Both the raw
C_Q(alpha) and its analytic minimum are implemented; the numeric
alpha-minimization is the in-house ground truth for the closed form.

Note on the closed form: the printed reference expression groups one term
(i<Psit|n|Psi> - i<Psi|n|Psit>) outside the 4 eta <n> (...) factor; direct
minimization of C_Q shows it belongs inside (otherwise the eta -> 1 limit
fails to reproduce the ideal QFI).  The corrected minimum is implemented
and continuously cross-checked against the alpha scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from su11.errors import DarkFringeError, NormalizationError, NumericalError, StationaryPointError
from su11.model import Params, kernels
from su11.series import DARK_FRINGE_FLOOR, finite, quiet_overflow, real_part

# closed form and numeric alpha minimum must agree this tightly
MIN_CONSISTENCY_RTOL = 1e-8


@dataclass(frozen=True)
class QfiReport:
    """QFI value, the corresponding Cramer-Rao bound, and audit terms."""

    f: float
    qcrb: float
    alpha_star: Optional[float]
    terms: Dict[str, complex]


def qcrb(f: float, nu: int = 1) -> float:
    """Cramer-Rao phase bound 1 / sqrt(nu F)."""
    if f <= 0.0:
        raise ValueError(f"QFI must be positive, got {f}")
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    return 1.0 / math.sqrt(nu * f)


# -- ideal QFI ----------------------------------------------------------------


@quiet_overflow
def qfi_ideal(p: Params) -> QfiReport:
    """QFI of the lossless interferometer with m-photon output subtraction.

    The four extractions are slices of exp(F1) over (t, s, c, d, p, h): the
    norm at (c, d, p, h) = 0, the insertion left of the subtraction pair at
    (p, h) = 0, the one right of it at (c, d) = 0, and both insertions.
    """
    m = p.m
    e1 = kernels(p).exponent_f1().exp()
    g2 = e1.extract((m, m, 0, 0, 0, 0))
    if abs(g2.val) < DARK_FRINGE_FLOOR:
        raise DarkFringeError(f"equivalent-model normalizer vanished at m={m}")
    real_part(g2.val, "norm extraction")
    n1_dual = g2 ** (-0.5)
    n1 = real_part(n1_dual.val, "N1")
    n1p = real_part(n1_dual.dph, "dN1/dphi")
    h3 = e1.extract((m, m, 1, 1, 0, 0)).val
    h4 = e1.extract((m, m, 0, 0, 1, 1)).val
    y1 = e1.extract((m, m, 1, 1, 1, 1)).val
    psps = n1**2 * y1 + n1p**2 * g2.val + 1j * n1 * n1p * (h4 - h3)
    psp = -1j * n1**2 * h3 + n1p * n1 * g2.val
    f = finite(4.0 * (real_part(psps, "<psi'|psi'>", abs(psps)) - abs(psp) ** 2), "QFI")
    if f < -1e-9 * max(1.0, abs(psps)):
        raise NumericalError(f"negative QFI {f}")
    if f <= 0.0:
        # zero gain leaves mode a in vacuum: no phase information at all
        raise StationaryPointError("state carries no phase information")
    terms = {
        "psi_prime_sq": psps,
        "psi_prime_psi": psp,
        "h3": h3,
        "h4": h4,
        "y1": y1,
        "n1": n1,
        "dn1_dphi": n1p,
    }
    return QfiReport(f=f, qcrb=qcrb(f, p.nu), alpha_star=None, terms=terms)


# -- lossy QFI ----------------------------------------------------------------


@quiet_overflow
def _loss_inner_products(p: Params) -> Dict[str, complex]:
    """Inner products of the loss-equivalent probe and its phase derivative.

    All quantities are extractions over the X-family polynomials times the
    norm generating function.  The derivative of the probe's normalization
    adds only a real multiple of the probe itself to its derivative, which
    cancels identically in C_Q, so it is omitted here.
    """
    ks = kernels(p)
    m = p.m
    caps = (m + 2, m + 2)
    e5 = ks.exponent_x5(caps).exp()
    xs = ks.x_polys(caps)

    def ext(series) -> complex:
        return series.extract((m, m)).val

    norm_raw = ext(e5)
    if abs(norm_raw) < DARK_FRINGE_FLOOR:
        raise NormalizationError(f"probe normalizer vanished at m={m}")
    n3sq = 1.0 / real_part(norm_raw, "probe norm extraction")
    sh2 = math.sinh(p.g) ** 2
    x2, x3, x4, x6 = xs["X2"], xs["X3"], xs["X4"], xs["X6"]
    x6p1 = x6 + 1.0
    x6p2 = x6 + 2.0
    quad = x6 * x6 + x6 * 4.0 + 2.0

    tt = n3sq * ext((x2 * x3 - x4) * e5)
    t_bra = n3sq * ext(x3 * e5)  # <Psit|Psi>
    t_ket = n3sq * ext(x2 * e5)  # <Psi|Psit>
    n_mean = n3sq * sh2 * ext(x6p1 * e5)
    var = n3sq * sh2 * sh2 * ext(quad * e5) + n_mean - n_mean**2
    n_bra = n3sq * sh2 * ext(x3 * x6p2 * e5)  # <Psit|n|Psi>
    n_ket = n3sq * sh2 * ext(x2 * x6p2 * e5)  # <Psi|n|Psit>
    return {
        "tt": tt,
        "t_bra": t_bra,
        "t_ket": t_ket,
        "n_mean": n_mean,
        "var": var,
        "n_bra": n_bra,
        "n_ket": n_ket,
    }


def _cq_from(d: Dict[str, complex], eta: float, alpha: float) -> float:
    """C_Q at a given Kraus placement, from precomputed inner products."""
    u = 1.0 - (1.0 + alpha) * (1.0 - eta)
    tt = real_part(d["tt"], "<Psit|Psit>", abs(d["tt"]))
    n_mean = real_part(d["n_mean"], "<n>", abs(d["n_mean"]))
    var = real_part(d["var"], "Var(n)", abs(d["n_mean"]))
    n2 = var + n_mean**2
    cross = 1j * u * (d["n_bra"] - d["n_ket"])
    z = 1j * d["t_bra"] + u * n_mean
    cq = 4.0 * (
        tt
        + u * u * n2
        + (1.0 + alpha) ** 2 * eta * (1.0 - eta) * n_mean
        + real_part(cross, "H2 cross term", abs(cross) + 1.0)
        - abs(z) ** 2
    )
    return cq


def cq_alpha(p: Params) -> float:
    """Purified-system QFI bound C_Q at the placement parameter p.alpha."""
    return _cq_from(_loss_inner_products(p), p.eta, p.alpha)


def _minimize_cq(
    d: Dict[str, complex], eta: float, lo: float = -2.0, hi: float = 1.0
) -> Tuple[float, float]:
    """Grid scan plus golden-section refinement of C_Q over alpha.

    The bracket widens automatically if the minimum lands on an edge; a flat
    profile (eta = 1) short-circuits to alpha = 0.
    """
    n_grid = 41
    for _ in range(8):
        vals = [_cq_from(d, eta, lo + (hi - lo) * i / (n_grid - 1)) for i in range(n_grid)]
        spread = max(vals) - min(vals)
        if spread <= 1e-12 * max(1.0, abs(vals[0])):
            return 0.0, vals[0]
        i_min = vals.index(min(vals))
        if i_min == 0:
            lo, hi = lo - (hi - lo), hi
            continue
        if i_min == n_grid - 1:
            lo, hi = lo, hi + (hi - lo)
            continue
        break
    else:
        raise NumericalError("alpha minimization bracket did not stabilize")
    step = (hi - lo) / (n_grid - 1)
    a = lo + (i_min - 1) * step
    b = lo + (i_min + 1) * step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = _cq_from(d, eta, x1)
    f2 = _cq_from(d, eta, x2)
    for _ in range(90):
        if b - a < 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = _cq_from(d, eta, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = _cq_from(d, eta, x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def qfi_lossy(p: Params) -> QfiReport:
    """QFI bound under mode-a internal loss of transmissivity p.eta.

    Returns the analytic alpha-minimum of C_Q; the report also carries the
    numeric minimum, and the two must agree to 1e-8 relative (if not, the
    numeric minimum wins and the report flags the discrepancy).
    """
    d = _loss_inner_products(p)
    eta = p.eta
    tt = real_part(d["tt"], "<Psit|Psit>", abs(d["tt"]))
    n_mean = real_part(d["n_mean"], "<n>", abs(d["n_mean"]))
    var = real_part(d["var"], "Var(n)", abs(d["n_mean"]))
    w_im = d["n_bra"].imag
    y_im = d["t_bra"].imag
    s = w_im - n_mean * y_im
    denom = (1.0 - eta) * var + eta * n_mean
    first = 4.0 * (tt - abs(d["t_bra"]) ** 2)
    if denom <= 0.0:
        raise NormalizationError(
            f"degenerate minimization denominator {denom} (no photons in mode a?)"
        )
    f_closed = first + 4.0 * (eta * n_mean * (var - 2.0 * s) - (1.0 - eta) * s * s) / denom
    alpha_closed = (var - s) / denom - 1.0
    alpha_num, f_num = _minimize_cq(d, eta)
    agree = abs(f_closed - f_num) <= MIN_CONSISTENCY_RTOL * max(abs(f_num), 1e-30)
    f = f_closed if agree else f_num
    terms = dict(d)
    terms.update(
        {
            "f_closed": f_closed,
            "f_numeric_min": f_num,
            "alpha_star_closed": alpha_closed,
            "alpha_star_numeric": alpha_num,
            "closed_numeric_consistent": agree,
        }
    )
    alpha_star = alpha_num if eta < 1.0 else alpha_closed
    if not 0.0 < f < math.inf:
        raise NumericalError(f"QFI must be positive and finite, got {f}")
    return QfiReport(f=f, qcrb=qcrb(f, p.nu), alpha_star=alpha_star, terms=terms)
