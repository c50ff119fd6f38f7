"""Parameter set, kernels and Laguerre values of the balanced SU(1,1) model.

The interferometer is fixed at its balance point: the two amplifier phases
are 0 and pi, both gains equal g, and the coherent input phase is 0 (so
beta is a non-negative real).  Unbalanced configurations are deliberately
not representable.

Each closed form starts from the bilinear exponent over two dummy
variables (t, s), which carry the subtraction order,

    B(w) = st |w|^2 + (t w + s w*) beta = Y(w) - beta^2,
    Y(w) = (beta + t w)(beta + s w*),

for a phase-dependent kernel w = S (1 - sqrt(T) e^{-i phi}).  exp(B(w))
generates a displaced thermal state of thermal number u = |w|^2, and its
(n, n) extraction is n! u^n L_n(-beta^2), with L_n(-x) = sum_j C(n, j) x^j / j!.
So the output moments (S = (1/2) sinh 2g sqrt(T2), T = T1) and the internal
photon number (S = (1/2) sinh 2g, T = T1) are Laguerre values times powers
of u, and phi enters only through u and its explicit derivative u'
(:meth:`KernelSet.thermal`).  The QFI mixes derivative insertions over the
kernel X1 (T = eta); it still extracts at (m, m) from `su11.series` series
with the caps (m + 2, m + 2) of :attr:`KernelSet.caps`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Sequence, Tuple

from su11.errors import DarkFringeError, NumericalError, finite, normalizer
from su11.series import CDual, MultiSeries

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
    """Thermal numbers, Laguerre values and the QFI series of one configuration.

    :meth:`thermal` gives the thermal number u = |w|^2 and its d/dphi for the
    one-kernel quantities; :meth:`laguerre` and :meth:`subtraction` turn u into
    their subtraction factors.  ``sh2`` = sinh^2 g and ``ch2`` = cosh^2 g.  A
    gain whose sinh(2g) overflows raises NumericalError here.

    :meth:`exponent_x5` and :meth:`x_polys` build the series of the extended
    system's loss-equivalent probe over its kernel :attr:`X1`, which at
    eta = 1 is the lossless probe, so they serve the ideal QFI as well.
    """

    def __init__(self, p: Params):
        self.p = p
        self.caps = (p.m + 2, p.m + 2)
        try:
            sh2g = finite(math.sinh(2.0 * p.g), "sinh(2g)")
        except OverflowError:
            raise NumericalError(f"sinh(2g) overflows at g = {p.g}") from None
        # sinh^2 g and cosh^2 g are at most sinh(2g) / 2 + 1, so neither overflows
        self.sh2 = math.sinh(p.g) ** 2
        self.ch2 = math.cosh(p.g) ** 2
        self._half_sh2g = 0.5 * sh2g

    def thermal(self, t2: float) -> Tuple[float, float]:
        """(u, u') = (|w|^2, d|w|^2/dphi) for the kernel w = S (1 - sqrt(T1) e^{-i phi}).

        S = (1/2) sinh 2g sqrt(t2).  With w = a + i b and dw/dphi = b + i q,
        u = a^2 + b^2 and u' = 2 (b a + q b), in real arithmetic.
        """
        s = self._half_sh2g * math.sqrt(t2)
        sq_t1 = math.sqrt(self.p.T1)
        cos_t1 = math.cos(self.p.phi) * sq_t1
        a = (1.0 - cos_t1) * s
        b = (math.sin(self.p.phi) * sq_t1) * s
        q = cos_t1 * s
        return a * a + b * b, 2.0 * (b * a + q * b)

    @cached_property
    def X1(self) -> CDual:
        """(1/2) sinh 2g (1 - sqrt(eta) e^{-i phi}) and its d/dphi, the extended-system kernel."""
        e_m, sqrt_eta, half = cmath.exp(-1j * self.p.phi), math.sqrt(self.p.eta), self._half_sh2g
        return CDual((1.0 - e_m * sqrt_eta) * half, (1j * e_m * sqrt_eta) * half)

    def laguerre(self) -> Tuple[float, float, float]:
        """(L_m, c1 - 1, D_m / L_m^2) at L_n = L_n(-beta^2), each summed from non-negative terms.

        c1 = (m + 1) L_(m+1) / L_m and D_m = (m + 1)(m + 2) L_(m+2) L_m - (m + 1)^2 L_(m+1)^2.
        """
        x = self.p.beta * self.p.beta
        l_m, y, d = (_positive_sum(c, x) for c in _laguerre_coefficients(self.p.m))
        return l_m, y / l_m, d / l_m / l_m

    def subtraction(self, u: float) -> Tuple[float, float, float]:
        """(N1, c1 - 1, D_m / L_m^2) at thermal number u, with N1 = (m! u^m L_m)^(-1/2).

        A weight m! u^m L_m under DARK_FRINGE_FLOOR is a DarkFringeError, and one
        that overflows a NumericalError.
        """
        m = self.p.m
        l_m, y, spread = self.laguerre()
        weight = math.factorial(m) * l_m
        # one factor of u at a time: the partial products move monotonically
        # toward the weight, so none over- or underflows before it does
        for _ in range(m):
            weight *= u
        normalizer(weight, DarkFringeError, f"subtraction normalizer vanished at m={m} (dark fringe)")
        return finite(weight, "subtraction normalizer") ** -0.5, y, spread

    def _bilinear(self, w: CDual) -> MultiSeries:
        """B(w) = st |w|^2 + (t w + s w*) beta, with a constant term of exactly 0."""
        b = self.p.beta
        return MultiSeries.from_terms(
            self.caps, [((1, 0), w * b), ((0, 1), w.conj() * b), ((1, 1), w.abs2())]
        )

    # -- extended-system series at transmissivity eta ------------------------

    def exponent_x5(self) -> MultiSeries:
        """Norm exponent of the loss-equivalent probe."""
        return self._bilinear(self.X1)

    def x_polys(self) -> Dict[str, MultiSeries]:
        """The X2, X3, X4, X6 polynomial factors over (t, s).

        X2 tags the phase derivative acting on the ket, X3 on the bra; X4 is
        the direct cross contraction between the two derivative insertions;
        X6 = Y(X1) = B(X1) + beta^2.
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
        return {"X2": x2, "X3": x3, "X4": x4, "X6": self._bilinear(X1) + b * b}


@lru_cache(maxsize=None)
def _laguerre_coefficients(m: int) -> Tuple[Tuple[float, ...], ...]:
    """Coefficients in x, highest first, of L_m(-x), (m + 1) L_(m+1)(-x) - L_m(-x) and D_m(x).

    The degree-j coefficient of a product is exact: j! [x^j] L_a L_b =
    sum_i C(j, i) C(a, i) C(b, j - i).  All are non-negative, and D_m's
    x^(2m+2) terms cancel.  About a third of a millisecond at m = 15.
    """

    def product(a: int, b: int) -> list:
        return [sum(math.comb(j, i) * math.comb(a, i) * math.comb(b, j - i) for i in range(j + 1))
                for j in range(a + b + 1)]

    l_m = [math.comb(m, j) for j in range(m + 1)]
    y = [(m + 1) * math.comb(m + 1, j) - math.comb(m, j) for j in range(m + 2)]
    d = [(m + 1) * (m + 2) * a - (m + 1) ** 2 * b
         for a, b in zip(product(m + 2, m), product(m + 1, m + 1))]
    return tuple(tuple(n / math.factorial(j) for j, n in reversed(list(enumerate(c))))
                 for c in (l_m, y, d[:-1]))


def _positive_sum(coeffs: Sequence[float], x: float) -> float:
    """The polynomial with coefficients ``coeffs``, highest first, at x, by Horner's rule."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def kernels(p: Params) -> KernelSet:
    """Evaluate every kernel coefficient of the configuration ``p``."""
    return KernelSet(p)
