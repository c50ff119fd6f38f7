"""Parameter set and generating-function kernels of the balanced SU(1,1) model.

The interferometer is fixed at its balance point: the two amplifier phases
are 0 and pi, both gains equal g, and the coherent input phase is 0 (so
beta is a non-negative real).  Unbalanced configurations are deliberately
not representable.

Every closed-form quantity in the calculator is a mixed-derivative
extraction of exp(P) for one of a small family of exponent polynomials P
whose coefficients are built from a handful of phase-dependent kernels
(w, f, v, X families).  :class:`KernelSet` owns all of them, each carrying
its d/dphi channel, and provides factories for the exponent series.

Dummy-variable conventions used throughout:

* 2-variable series: (t, s)
* 4-variable series: (t, s, c, d)
* 6-variable series: (t, s, c, d, p, h)

t and s carry the subtraction order, so every extraction is taken at
(m, m) in them.  Each insertion tag pair, (c, d) or (p, h), enters the
exponent with degree at most one per variable; extracting it at order
(1, 1) reads the insertion, at order (0, 0) drops every term it tags.  So
the extractions with fewer insertions are slices of one generating
function, not separate exponents: exp(F1) at (m, m, 0, 0, 0, 0) is the
equivalent model's norm, and the mode-a number insertion at (m, m, 0, 0) is
the internal state's normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from su11.series import CDual, MultiSeries

# caps of (m+2, m+2) keep factorial orders within double precision
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
    alpha  -- Kraus placement parameter (0: loss before the shifter, -1: after)
    nu     -- number of repeated experiments entering the QCRB
    """

    g: float = 1.0
    beta: float = 1.0
    phi: float = 0.4
    m: int = 0
    T1: float = 1.0
    T2: float = 1.0
    eta: float = 1.0
    alpha: float = 0.0
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
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not isinstance(self.nu, int) or self.nu < 1:
            raise ValueError(f"nu must be a positive integer, got {self.nu}")

    def replace(self, **kw) -> "Params":
        from dataclasses import replace

        return replace(self, **kw)


class KernelSet:
    """Phase-dependent kernel coefficients and the exponent series built on them.

    Scalar kernels (all :class:`CDual`):

    * w1 -- (1/2) sinh 2g (1 - e^{-i phi}); lossless output kernel
    * w3 -- (1/2) sinh 2g sqrt(T2) (1 - sqrt(T1) e^{-i phi}); lossy kernel
    * f1..f4 -- Bogoliubov coefficients of the equivalent-model expansion
    * v1, v2 -- internal-photon-number kernels (loss T = T1)
    * X1 -- extended-system kernel at transmissivity eta

    Exponent series, one generating function per calculator:

    * :meth:`exponent_a` -- output port, for the error-propagation moments
    * :meth:`exponent_f1` -- equivalent model with two number insertions;
      its slices give every inner product of the ideal QFI
    * :meth:`exponents_nt` -- mode-a and mode-b number insertions of the
      internal state; their shared (c, d) = 0 slice is its normalizer
    * :meth:`exponent_x5` and :meth:`x_polys` -- the loss-equivalent probe
      of the extended system
    """

    def __init__(self, p: Params):
        self.p = p
        phase = CDual.variable(p.phi)
        self.e_m = (phase * (-1j)).exp()  # e^{-i phi}
        g = p.g
        sh2g = math.sinh(2.0 * g)
        ch, sh = math.cosh(g), math.sinh(g)
        sqT1, sqT2 = math.sqrt(p.T1), math.sqrt(p.T2)
        sqeta = math.sqrt(p.eta)

        self.w1 = 0.5 * sh2g * (1.0 - self.e_m)
        self.w3 = (0.5 * sh2g * sqT2) * (1.0 - self.e_m * sqT1)
        self.f1 = self.e_m * ch
        self.f2 = self.e_m * (-sh)
        self.f3 = self.e_m * (ch * ch) - sh * sh
        self.f4 = self.w1
        self.v1 = 0.5 * sh2g * (1.0 - self.e_m * sqT1)
        self.v2 = self.e_m * (-sqT1 * sh)
        self.X1 = 0.5 * sh2g * (1.0 - self.e_m * sqeta)
        self._cosh_g = ch
        self._sinh_g = sh
        self._half_sh2g = 0.5 * sh2g

    # -- bilinear exponent of the output-port normalization ----------------

    @staticmethod
    def _bilinear(w: CDual, beta: float, caps) -> MultiSeries:
        """st |w|^2 + (t w + s w*) beta over (t, s)."""
        terms = [((1, 1), w.abs2())]
        if beta != 0.0:
            terms += [((1, 0), w * beta), ((0, 1), w.conj() * beta)]
        return MultiSeries.from_terms(caps, terms)

    def exponent_a(self, lossy: bool, caps: Optional[Sequence[int]] = None) -> MultiSeries:
        """Exponent of the output-port generating function, over (t, s).

        The lossy variant replaces w1 by w3; at T1 = T2 = 1 the two are the
        same floating-point numbers, so the reduction is exact.
        """
        if caps is None:
            caps = (self.p.m + 2, self.p.m + 2)
        w = self.w3 if lossy else self.w1
        return self._bilinear(w, self.p.beta, caps)

    # -- equivalent-model exponent for the ideal QFI -------------------------

    def exponent_f1(self, caps: Optional[Sequence[int]] = None) -> MultiSeries:
        """Double number insertion, over (t, s, c, d, p, h).

        (c, d) tags the insertion left of the subtraction pair, (p, h) the one
        right of it; the (c, d, p, h) = 0 slice is the norm exponent, which
        equals the lossless output exponent since f4 = w1.
        """
        m, b = self.p.m, self.p.beta
        f1, f2, f3, f4 = self.f1, self.f2, self.f3, self.f4
        if caps is None:
            k = max(m, 1)
            caps = (k, k, 1, 1, 1, 1)
        return MultiSeries.from_terms(
            caps,
            [
                ((1, 0, 0, 1, 0, 0), f1.conj() * f3),
                ((0, 0, 0, 1, 1, 0), f1.abs2()),
                ((0, 1, 0, 0, 1, 0), f1 * f3.conj()),
                ((0, 0, 0, 0, 1, 1), f2.abs2()),
                ((1, 1, 0, 0, 0, 0), f4.abs2()),
                ((1, 0, 0, 0, 0, 1), f4 * f2.conj()),
                ((0, 1, 1, 0, 0, 0), f2 * f4.conj()),
                ((0, 0, 1, 0, 0, 1), f2.abs2()),
                ((0, 0, 1, 1, 0, 0), f2.abs2()),
                ((0, 1, 0, 0, 0, 0), f4.conj() * b),
                ((0, 0, 0, 0, 0, 1), f2.conj() * b),
                ((0, 0, 0, 1, 0, 0), f2.conj() * b),
                ((0, 0, 1, 0, 0, 0), f2 * b),
                ((1, 0, 0, 0, 0, 0), f4 * b),
                ((0, 0, 0, 0, 1, 0), f2 * b),
            ],
        )

    # -- internal-photon-number exponents (loss parameter T = T1) -----------

    def exponents_nt(self) -> Dict[str, MultiSeries]:
        """Mode-a and mode-b number-insertion exponents over (t, s, c, d).

        The two share the normalizer exponent of the internal state as their
        (c, d) = 0 slice; their (m, m, 1, 1) extractions add up to the
        internal photon number numerator.
        """
        m, b = self.p.m, self.p.beta
        v1, v2 = self.v1, self.v2
        ch, sh = self._cosh_g, self._sinh_g
        k = max(m, 1)
        caps = (k, k, 1, 1)
        mode_a = MultiSeries.from_terms(
            caps,
            [
                ((1, 0, 0, 0), v1 * b),
                ((0, 1, 0, 0), v1.conj() * b),
                ((0, 0, 1, 0), v2 * b),
                ((0, 0, 0, 1), v2.conj() * b),
                ((1, 0, 0, 1), v1 * v2.conj()),
                ((1, 1, 0, 0), v1.abs2()),
                ((0, 0, 1, 1), v2.abs2()),
                ((0, 1, 1, 0), v1.conj() * v2),
            ],
        )
        mode_b = MultiSeries.from_terms(
            caps,
            [
                ((1, 0, 0, 0), v1 * b),
                ((0, 1, 0, 0), v1.conj() * b),
                ((0, 0, 1, 0), ch * b),
                ((0, 0, 0, 1), ch * b),
                ((1, 0, 1, 0), v1 * ch),
                ((1, 1, 0, 0), v1.abs2()),
                ((0, 1, 0, 1), v1.conj() * ch),
                ((0, 0, 1, 1), complex(sh * sh)),
            ],
        )
        return {"mode_a": mode_a, "mode_b": mode_b}

    # -- extended-system series at transmissivity eta ------------------------

    def exponent_x5(self, caps: Optional[Sequence[int]] = None) -> MultiSeries:
        """Norm exponent of the loss-equivalent probe, over (t, s)."""
        if caps is None:
            m = self.p.m
            caps = (m + 2, m + 2)
        return self._bilinear(self.X1, self.p.beta, caps)

    def x_polys(self, caps: Optional[Sequence[int]] = None) -> Dict[str, MultiSeries]:
        """The X2, X3, X4, X6 polynomial factors over (t, s).

        X2 tags the phase derivative acting on the ket, X3 on the bra; X4 is
        the direct cross contraction between the two derivative insertions.
        """
        if caps is None:
            m = self.p.m
            caps = (m + 2, m + 2)
        b = self.p.beta
        X1 = self.X1
        q2 = X1.conj() - self._half_sh2g
        q3 = -q2.conj()  # (1/2) sinh 2g - X1
        x2 = MultiSeries.from_terms(
            caps, [((0, 1), q2 * (1j * b)), ((1, 1), q2 * X1 * 1j)]
        )
        x3 = MultiSeries.from_terms(
            caps, [((1, 0), q3 * (1j * b)), ((1, 1), q3 * X1.conj() * 1j)]
        )
        x4 = MultiSeries.from_terms(caps, [((1, 1), q3 * q2)])
        x6 = MultiSeries.from_terms(
            caps,
            [
                ((0, 0), complex(b * b)),
                ((1, 0), X1 * b),
                ((0, 1), X1.conj() * b),
                ((1, 1), X1.abs2()),
            ],
        )
        return {"X2": x2, "X3": x3, "X4": x4, "X6": x6}


def kernels(p: Params) -> KernelSet:
    """Evaluate every kernel coefficient of the configuration ``p``."""
    return KernelSet(p)
