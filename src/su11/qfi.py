"""Quantum Fisher information: the extended-system bound, lossy and ideal.

Photon loss inside mode a makes the evolution non-unitary; the problem is
purified into system + environment, where the loss channel's Kraus
operators carry a free placement parameter alpha.  Every inner product of
the purified state is an (m, m) extraction of an X-family polynomial times
the loss-equivalent probe's norm generating function exp(B(X1)), with the
normalization derivative dropped (it cancels identically).  Over the scaled
variables of `su11.model.KernelSet.probe_norm` each extraction weighs the
polynomial's coefficients with up to nine explicit ratios of positive sums
in beta, so nothing is exponentiated and no power |X1|^2m is formed.
Minimizing the purified-state bound C_Q over alpha tightens it to F_L,
which `qfi_lossy` returns in closed form.

C_Q(alpha) itself is public (`cq_alpha`), and written without the inner
products: its cross terms vanish identically, which leaves

    C_Q = 4 [(1 - (1 + alpha)(1 - eta))^2 V + (1 + alpha)^2 eta (1 - eta) n]

with the probe's photon-number mean n = c1 sinh^2 g and variance
V = (D_m / L_m^2) sinh^4 g + n (`su11.model.KernelSet.moments` at
u = sinh^2 g), so phi enters only through the probe's weight.  At eta = 1
the environment decouples, C_Q = 4 V at every placement, and that is the
QFI of the lossless interferometer with m-photon output subtraction, which
`qfi_ideal` returns.  The numeric alpha scan in `su11.verify` (criterion
C3) minimizes C_Q, a check on `qfi_lossy`'s minimum that shares none of its
inner products; C3 also holds `qfi_lossy` at eta = 1 to `qfi_ideal`, and
the Fock oracle (C2) checks the ideal QFI.

Note on the closed form: the printed reference expression groups one term
(i<Psit|n|Psi> - i<Psi|n|Psit>) outside the 4 eta <n> (...) factor; direct
minimization of C_Q shows it belongs inside (otherwise the eta -> 1 limit
fails to reproduce the ideal QFI).  The corrected minimum is implemented;
C3 checks it against the alpha scan.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional

from su11.errors import (DarkFringeError, NormalizationError, NumericalError, StationaryPointError,
                         finite, positive, real_part, roundoff)
from su11.model import Params, kernels


class QfiReport(NamedTuple):
    """QFI value, the corresponding Cramer-Rao bound, and audit terms.

    ``alpha_star`` is the closed-form Kraus placement minimizing the lossy
    bound (None for the ideal QFI; at eta = 1 every placement gives the same
    bound).  ``terms`` holds what the value is built from: for `qfi_lossy`
    the loss-equivalent probe's seven inner products (tt, t_bra, t_ket,
    n_mean, var, n_bra, n_ket); for `qfi_ideal` the probe's photon-number
    mean and variance (n_mean, var).
    """

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


# -- extended-system bound, lossy and at eta = 1 ------------------------------


def _loss_inner_products(p: Params) -> Dict[str, complex]:
    """Inner products of the loss-equivalent probe and its phase derivative.

    A vanishing probe weight raises NormalizationError.  All quantities are
    (m, m) extractions of an X-family polynomial times the norm generating
    function, each read as sum_ab q_ab r[a, b] over the polynomial's
    coefficients q_ab and the ratios r of `KernelSet.probe_norm`, already
    divided by the normalizer; those that must be real are returned as
    floats.  The derivative of the probe's normalization adds only a real
    multiple of the probe itself to its derivative, which cancels
    identically in C_Q, so it is omitted here.
    """
    # overflow leaves inf or nan in the extractions, which `finite` turns into a
    # NumericalError at the result, so numpy's warnings are off; numpy is
    # imported here, on first use, so that the other closed forms never load it
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        ks = kernels(p)
        r = ks.probe_norm()
        ks.log_weight(ks.thermal(p.eta, 1.0)[0], NormalizationError)
        k = len(r)

        def ext(q) -> complex:
            return complex((q.val[:k, :k] * r).sum())

        xs = ks.x_polys()
        sh2 = ks.sh2
        x2, x3, x4, x6 = xs["X2"], xs["X3"], xs["X4"], xs["X6"]
        x6p1 = x6 + 1.0
        x6p2 = x6 + 2.0
        quad = x6 * x6 + x6 * 4.0 + 2.0

        tt = ext(x2 * x3 - x4)
        t_bra = ext(x3)  # <Psit|Psi>
        t_ket = ext(x2)  # <Psi|Psit>
        n_mean = sh2 * ext(x6p1)
        var = sh2 * sh2 * ext(quad) + n_mean - n_mean * n_mean
        n_bra = sh2 * ext(x3 * x6p2)  # <Psit|n|Psi>
        n_ket = sh2 * ext(x2 * x6p2)  # <Psi|n|Psit>
    return {
        "tt": real_part(tt, "<Psit|Psit>", abs(tt)),
        "t_bra": t_bra,
        "t_ket": t_ket,
        "n_mean": real_part(n_mean, "<n>", abs(n_mean)),
        "var": real_part(var, "Var(n)", abs(n_mean)),
        "n_bra": n_bra,
        "n_ket": n_ket,
    }


def cq_alpha(p: Params, alpha: float) -> float:
    """Purified-system bound C_Q at placement alpha (0: loss before the shifter, -1: after).

    The quadratic in alpha of the module docstring, a sum of non-negative
    terms.  A vanishing probe weight is a NormalizationError; a C_Q that
    overflows or is not positive (no photons in mode a) is a NumericalError.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    ks = kernels(p)
    ks.log_weight(ks.thermal(p.eta, 1.0)[0], NormalizationError)
    n, var = ks.moments(ks.sh2)
    # u = 1 - (1 + alpha)(1 - eta) = eta - alpha (1 - eta) in exact dyadic ratios, rounded once
    (e, e_den), (a, a_den), a1 = p.eta.as_integer_ratio(), alpha.as_integer_ratio(), 1.0 + alpha
    u = (e * a_den - a * (e_den - e)) / (e_den * a_den)
    return positive(4.0 * (u * u * var + a1 * a1 * p.eta * (1.0 - p.eta) * n), "C_Q")


def qfi_ideal(p: Params) -> QfiReport:
    """QFI of the lossless interferometer with m-photon output subtraction.

    F = 4 V, C_Q at eta = 1, where it does not depend on the Kraus
    placement: four times the probe's photon-number variance, read with its
    mean from `KernelSet.moments` at u = sinh^2 g.  A vanishing probe weight
    is a DarkFringeError, a variance that overflows a NumericalError, and a
    probe with no photons a StationaryPointError.  ``terms`` holds the mean
    and the variance.
    """
    ks = kernels(p)
    # |X1|^2 at eta = 1 is the lossless kernel's thermal number
    ks.log_weight(ks.thermal(1.0, 1.0)[0], DarkFringeError)
    n_mean, var = ks.moments(ks.sh2)
    finite(var, "Var(n)")
    if n_mean == 0.0:
        raise StationaryPointError("the probe holds no photons in mode a: F = 0")
    f = positive(4.0 * var, "QFI")
    return QfiReport(f=f, qcrb=qcrb(f, p.nu), alpha_star=None, terms={"n_mean": n_mean, "var": var})


def qfi_lossy(p: Params) -> QfiReport:
    """QFI bound under mode-a internal loss of transmissivity p.eta.

    The analytic alpha-minimum F_L of C_Q and its minimizing placement;
    ``terms`` holds the loss-equivalent probe's inner products.  A vanishing
    probe weight or minimization denominator (no photons in mode a) is a
    NormalizationError.  Next to a dark fringe at eta -> 1 the inner products
    grow like 1/|X1|^2 and cancel; a result whose estimated roundoff exceeds
    ROUNDOFF_REL_TOL is a NumericalError.
    """
    d = _loss_inner_products(p)
    eta = p.eta
    tt, n_mean, var = d["tt"], d["n_mean"], d["var"]
    w_im = d["n_bra"].imag
    y_im = d["t_bra"].imag
    s = w_im - n_mean * y_im
    denom = (1.0 - eta) * var + eta * n_mean
    first = 4.0 * (tt - abs(d["t_bra"]) ** 2)
    if denom <= 0.0:
        if var < 0.0:  # Var(n) >= 0: its cancelling terms left roundoff, not an empty mode
            raise NumericalError(f"Var(n) = {var} is roundoff")
        raise NormalizationError(f"degenerate minimization denominator {denom} (no photons in mode a?)")
    f = first + 4.0 * (eta * n_mean * (var - 2.0 * s) - (1.0 - eta) * s * s) / denom
    positive(f, "QFI")
    # the magnitudes of the terms summed into F, into Var(n) and into s
    s_abs = abs(w_im) + abs(n_mean * y_im)
    var_abs = abs(var - n_mean + n_mean * n_mean) + abs(n_mean) + n_mean * n_mean
    scale = abs(tt) + abs(d["t_bra"]) ** 2 + (
        eta * abs(n_mean) * (var_abs + 2.0 * s_abs)
        + (1.0 - eta) * s_abs * s_abs) / denom
    roundoff(f, scale, "QFI")
    alpha_star = (var - s) / denom - 1.0
    return QfiReport(f=f, qcrb=qcrb(f, p.nu), alpha_star=alpha_star, terms=d)
