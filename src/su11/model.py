"""Parameter set and generating-function kernels of the balanced SU(1,1) model.

The interferometer is fixed at its balance point: the two amplifier phases
are 0 and pi, both gains equal g, and the coherent input phase is 0 (so
beta is a non-negative real).  Unbalanced configurations are deliberately
not representable.

Every closed-form quantity in the calculator is a mixed-derivative
extraction, over two dummy variables (t, s), of a polynomial times
exp(B(w)), where

    B(w) = st |w|^2 + (t w + s w*) beta = Y(w) - beta^2,
    Y(w) = (beta + t w)(beta + s w*),

for one of a handful of phase-dependent kernels w.  :class:`KernelSet`
owns the kernels, each carrying its d/dphi channel, and builds the
exponents and polynomial factors over (t, s), all with the caps
(m + 2, m + 2) of :attr:`KernelSet.caps`.  t and s carry the subtraction
order: the sensitivity extracts at (m, m) to (m + 2, m + 2), every other
calculator at (m, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from su11.errors import NumericalError
from su11.series import CDual, MultiSeries, finite

# the largest order the extractions are held to mpmath references at
MAX_SUBTRACTIONS = 15


@dataclass(frozen=True)
class Params:
    """Full interferometer configuration under the balance conditions.

    g      -- parametric gain of both amplifiers (g1 = g2 = g >= 0)
    beta   -- coherent input amplitude, real and non-negative
    phi    -- phase shift in mode a (radians)
    m      -- number of photons subtracted at the output (0 <= m <= 15)
    T1     -- internal transmittance (loss between OPA1 and the phase shifter)
    T2     -- external transmittance (loss after OPA2)
    eta    -- transmissivity of the loss channel in the extended-system QFI
    nu     -- number of repeated experiments entering the QCRB
    """

    g: float = 1.0
    beta: float = 1.0
    phi: float = 0.4
    m: int = 0
    T1: float = 1.0
    T2: float = 1.0
    eta: float = 1.0
    nu: int = 1

    def __post_init__(self):
        if not self.g >= 0.0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if not isinstance(self.m, int) or not 0 <= self.m <= MAX_SUBTRACTIONS:
            raise ValueError(f"m must be an integer in [0, {MAX_SUBTRACTIONS}], got {self.m}")
        for name, t in (("T1", self.T1), ("T2", self.T2)):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {t}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not isinstance(self.nu, int) or self.nu < 1:
            raise ValueError(f"nu must be a positive integer, got {self.nu}")

    def replace(self, **kw) -> "Params":
        from dataclasses import replace

        return replace(self, **kw)


class KernelSet:
    """Phase-dependent kernel coefficients and the series built on them.

    Scalar kernels (all :class:`CDual`):

    * w3 -- (1/2) sinh 2g sqrt(T2) (1 - sqrt(T1) e^{-i phi}); output kernel,
      the lossless one at T1 = T2 = 1
    * v1 -- internal-state kernel (loss T = T1)
    * X1 -- extended-system kernel at transmissivity eta

    plus the floats sh2 = sinh^2 g and ch2 = cosh^2 g.  A gain whose
    sinh(2g) overflows raises NumericalError here.

    Exponents, one generating function per calculator:

    * :meth:`exponent_a` -- output port, for the error-propagation moments
    * :meth:`exponent_nt` -- the internal state; :meth:`y_poly` at v1 is
      the factor its photon number is read from
    * :meth:`exponent_x5` and :meth:`x_polys` -- the loss-equivalent probe
      of the extended system; at eta = 1 it is the lossless probe, so they
      serve the ideal QFI as well
    """

    def __init__(self, p: Params):
        self.p = p
        self.caps = (p.m + 2, p.m + 2)
        phase = CDual.variable(p.phi)
        self.e_m = (phase * (-1j)).exp()  # e^{-i phi}
        try:
            sh2g = finite(math.sinh(2.0 * p.g), "sinh(2g)")
        except OverflowError:
            raise NumericalError(f"sinh(2g) overflows at g = {p.g}") from None
        # sinh^2 g and cosh^2 g are at most sinh(2g) / 2 + 1, so neither overflows
        self.sh2 = math.sinh(p.g) ** 2
        self.ch2 = math.cosh(p.g) ** 2
        sqT1, sqT2 = math.sqrt(p.T1), math.sqrt(p.T2)
        sqeta = math.sqrt(p.eta)

        self.w3 = (0.5 * sh2g * sqT2) * (1.0 - self.e_m * sqT1)
        self.v1 = 0.5 * sh2g * (1.0 - self.e_m * sqT1)
        self.X1 = 0.5 * sh2g * (1.0 - self.e_m * sqeta)
        self._half_sh2g = 0.5 * sh2g

    def _bilinear(self, w: CDual) -> MultiSeries:
        """B(w) = st |w|^2 + (t w + s w*) beta, with a constant term of exactly 0."""
        b = self.p.beta
        return MultiSeries.from_terms(
            self.caps, [((1, 0), w * b), ((0, 1), w.conj() * b), ((1, 1), w.abs2())]
        )

    def y_poly(self, w: CDual) -> MultiSeries:
        """Y(w) = (beta + t w)(beta + s w*) = B(w) + beta^2 over (t, s)."""
        return self._bilinear(w) + self.p.beta * self.p.beta

    def exponent_a(self) -> MultiSeries:
        """Exponent of the output-port generating function."""
        return self._bilinear(self.w3)

    def exponent_nt(self) -> MultiSeries:
        """Exponent of the internal state's generating function (loss T = T1)."""
        return self._bilinear(self.v1)

    # -- extended-system series at transmissivity eta ------------------------

    def exponent_x5(self) -> MultiSeries:
        """Norm exponent of the loss-equivalent probe."""
        return self._bilinear(self.X1)

    def x_polys(self) -> Dict[str, MultiSeries]:
        """The X2, X3, X4, X6 polynomial factors over (t, s).

        X2 tags the phase derivative acting on the ket, X3 on the bra; X4 is
        the direct cross contraction between the two derivative insertions;
        X6 = Y(X1).
        """
        b = self.p.beta
        X1 = self.X1
        q2 = X1.conj() - self._half_sh2g
        q3 = -q2.conj()  # (1/2) sinh 2g - X1
        x2 = MultiSeries.from_terms(
            self.caps, [((0, 1), q2 * (1j * b)), ((1, 1), q2 * X1 * 1j)]
        )
        x3 = MultiSeries.from_terms(
            self.caps, [((1, 0), q3 * (1j * b)), ((1, 1), q3 * X1.conj() * 1j)]
        )
        x4 = MultiSeries.from_terms(self.caps, [((1, 1), q3 * q2)])
        return {"X2": x2, "X3": x3, "X4": x4, "X6": self.y_poly(X1)}


def kernels(p: Params) -> KernelSet:
    """Evaluate every kernel coefficient of the configuration ``p``."""
    return KernelSet(p)
