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
So the subtraction weight m! u^m L_m (:func:`log_weight`) and the
photon number's mean c1 u and variance (D_m / L_m^2) u^2 + c1 u
(:func:`moments`) are Laguerre values times powers of u.  The output
moments (S = (1/2) sinh 2g sqrt(T2), T = T1) and the internal photon number
(S = (1/2) sinh 2g, T = T1) read them at u = |w|^2, so phi enters only through
u and its explicit derivative u' (:func:`thermal`).  The QFI's probe
over the kernel X1 (T = eta) has its weight at u = |X1|^2 and its moments at
u = sinh^2 g, which is all the ideal QFI 4 Var(n) reads.  Each of these
closed forms reads the constants of its configuration once, as the plain
tuple :func:`kernels` returns, and runs one straight line through these three
rules.  The lossy QFI's inner products mix derivative insertions over X1.  Over
the scaled variables T = X1 t, S = X1* s its norm generating function
exp(B(X1)) = exp(TS + beta (T + S)) is free of X1, so each extraction is a
sum of explicit ratios of positive sums in beta (:meth:`KernelSet.probe_norm`)
against the coefficients of `su11.series` polynomials in a (2, 2) box
(:meth:`KernelSet.x_polys`), and X1 enters only through |X1|^2, the u of
:func:`thermal` at (eta, 1), and the derivative weight kappa.
Those two methods import numpy and `su11.series` when called, so every
other quantity runs on `math` alone and importing the package loads neither.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, NamedTuple, Sequence, Tuple, Type

from su11.errors import NumericalError, Su11Error, finite, normalizer

if TYPE_CHECKING:
    import numpy as np

    from su11.series import MultiSeries

# the largest order the extractions are held to mpmath references at
MAX_SUBTRACTIONS = 15


# the fields of Params, in order: a NamedTuple may not define its own __new__,
# so the validating one is on the subclass
class _ParamFields(NamedTuple):
    g: float
    beta: float
    phi: float
    m: int
    T1: float
    T2: float
    eta: float
    nu: int


class Params(_ParamFields):
    """Full interferometer configuration under the balance conditions.

    g      -- parametric gain of both amplifiers (g1 = g2 = g >= 0)
    beta   -- coherent input amplitude, real and non-negative
    phi    -- phase shift in mode a (radians)
    m      -- number of photons subtracted at the output (0 <= m <= 15)
    T1     -- internal transmittance (loss between OPA1 and the phase shifter)
    T2     -- external transmittance (loss after OPA2)
    eta    -- transmissivity of the loss channel in the extended-system QFI
    nu     -- number of repeated experiments entering the QCRB

    An immutable record validated on construction; pickling and copying
    construct it again, and so does :meth:`replace`.
    """

    __slots__ = ()

    def __new__(cls, g: float = 1.0, beta: float = 1.0, phi: float = 0.4, m: int = 0,
                T1: float = 1.0, T2: float = 1.0, eta: float = 1.0, nu: int = 1) -> "Params":
        if not g >= 0.0:
            raise ValueError(f"g must be >= 0, got {g}")
        if not beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi}")
        if not isinstance(m, int) or not 0 <= m <= MAX_SUBTRACTIONS:
            raise ValueError(f"m must be an integer in [0, {MAX_SUBTRACTIONS}], got {m}")
        if not 0.0 <= T1 <= 1.0:
            raise ValueError(f"T1 must lie in [0, 1], got {T1}")
        if not 0.0 <= T2 <= 1.0:
            raise ValueError(f"T2 must lie in [0, 1], got {T2}")
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {eta}")
        if not isinstance(nu, int) or nu < 1:
            raise ValueError(f"nu must be a positive integer, got {nu}")
        return tuple.__new__(cls, (g, beta, phi, m, T1, T2, eta, nu))

    def replace(self, **kw) -> "Params":
        """A copy with the fields in ``kw`` changed, validated as a new Params is."""
        return type(self)(**dict(zip(self._fields, self), **kw))


Kernels = Tuple[float, float, float, Tuple[float, float, float], float]


def kernels(p: Params) -> Kernels:
    """The constants every closed form reads of ``p``, as a plain tuple: (1/2) sinh 2g, sinh^2 g and
    cosh^2 g (:func:`_gain`, which raises NumericalError where sinh 2g overflows), the Laguerre
    values (L_m, c1 - 1, D_m / L_m^2) at L_n = L_n(-beta^2) and log(m! L_m) (:func:`_laguerre`)."""
    return _gain(p.g) + _laguerre(p.beta, p.m)


@lru_cache(maxsize=256)
def _gain(g: float) -> Tuple[float, float, float]:
    """((1/2) sinh 2g, sinh^2 g, cosh^2 g), for :func:`kernels`.

    A figure column along beta, T, phi or eta keeps one g, so the last 256 gains are kept.
    """
    try:
        half_sh2g = 0.5 * finite(math.sinh(2.0 * g), "sinh(2g)")
    except OverflowError:
        raise NumericalError(f"sinh(2g) overflows at g = {g}") from None
    # sinh^2 g and cosh^2 g are at most sinh(2g) / 2 + 1, so neither overflows
    return half_sh2g, math.sinh(g) ** 2, math.cosh(g) ** 2


def thermal(half_sh2g: float, t1: float, t2: float, phi: float) -> Tuple[float, float]:
    """(u, u') = (|w|^2, d|w|^2/dphi) for the kernel w = S (1 - sqrt(t1) e^{-i phi}).

    S = (1/2) sinh 2g sqrt(t2); u = |S (1 - sqrt(t1) e^{i phi})|^2 (:func:`kernel_modulus`) and
    u' = S (S 2 sqrt(t1) sin phi), so an overflowing S^2 meets a zero factor as 0, not inf * 0.
    """
    s = half_sh2g * math.sqrt(t2)
    return kernel_modulus(t1, phi, s)[2], s * (s * (2.0 * math.sqrt(t1) * math.sin(phi)))


def log_weight(log_norm: float, u: float, m: int, vanished: Type[Su11Error]) -> float:
    """log(m! u^m L_m) = log(m! L_m) + m log u, the weight of m subtractions at thermal number u.

    Taken in logs, so it never over- or underflows; a weight under
    DARK_FRINGE_FLOOR raises ``vanished`` (:func:`su11.errors.normalizer`).
    """
    if m:
        log_norm += m * math.log(u) if u > 0.0 else -math.inf
    return normalizer(log_norm, vanished, m)


def moments(laguerre: Tuple[float, float, float], u: float) -> Tuple[float, float]:
    """(<N>, Var N) = (c1 u, (D_m / L_m^2) u^2 + c1 u) after m subtractions at thermal number u.

    Each is a sum of non-negative terms; either may overflow to inf.
    """
    _, y, spread = laguerre
    mean = (1.0 + y) * u
    return mean, spread * u * u + mean


class KernelSet:
    """The extended system's loss-equivalent probe over its kernel X1, for the lossy QFI.

    :meth:`probe_norm` and :meth:`x_polys` read X1 through :func:`kernel_modulus`
    alone; the probe's weight is tested at |X1|^2 = :func:`thermal`'s u at (eta, 1).
    """

    def __init__(self, p: Params):
        self.p = p

    def probe_norm(self) -> np.ndarray:
        """r: the ratios that extract a polynomial against the probe's exp(B(X1)) at (m, m).

        Over the scaled variables T = X1 t, S = X1* s, exp(B(X1)) =
        exp(TS + beta (T + S)), whose T^p S^q coefficient is the positive sum
        s(p, q) = sum_j beta^(p+q-2j) / (j! (p-j)! (q-j)!).  So the normalizer
        G = m!^2 |X1|^2m s(m, m) is the subtraction weight m! u^m L_m at
        u = |X1|^2 (:func:`log_weight`, :func:`thermal` at (eta, 1)), and a
        polynomial over (T, S) extracts at (m, m) as G sum_ab q_ab r[a, b], with
        r[a, b] = s(m - a, m - b) / s(m, m) for a, b <= min(m, 2).

        beta is a dyadic rational num / den, so each s is an integer
        polynomial in num^2 and den^2 over an integer, and each r[a, b] is
        the correctly rounded quotient of two integers.  Nothing over- or
        underflows before that one rounding, and the identities between the
        ratios, which make the QFI's largest terms cancel next to a fringe,
        are broken by no more than it.
        """
        import numpy as np

        m = self.p.m
        try:
            num, den = self.p.beta.as_integer_ratio()
        except OverflowError:
            raise NumericalError(f"beta = {self.p.beta} is not finite") from None
        x, y = num * num, den * den
        k = min(m, 2) + 1
        r = np.empty((k, k))
        for a, b, coeffs, divisor in _probe_coefficients(m):
            acc, y_power = 0, 1
            for c in coeffs:
                acc = acc * x + c * y_power
                y_power *= y
            if a == b == 0:
                s_mm, d_mm = acc, divisor
            # beta^(b-a) s(m - a, m - b) / s(m, m) over a common denominator
            r[a, b] = r[b, a] = (num ** (b - a) * den ** (a + b) * acc * d_mm) / (s_mm * divisor)
        return r

    def x_polys(self) -> Dict[str, MultiSeries]:
        """The X2, X3, X4, X6 polynomial factors over the scaled variables (T, S) of :meth:`probe_norm`.

        X2 tags the phase derivative acting on the ket, X3 on the bra; X4 is
        the direct cross contraction between the two derivative insertions;
        X6 = Y(X1) = (beta + T)(beta + S).  Over (t, s) the derivative factors
        carry X1* - (1/2) sinh 2g and its negated conjugate; each power of
        X1 they carry cancels against the scaling, which leaves
        kappa = i (X1* - (1/2) sinh 2g) / X1* = -i sqrt(eta) e^{i phi} / D, with
        D = X1* / ((1/2) sinh 2g) = 1 - sqrt(eta) e^{i phi}: X2 = kappa S (beta + T),
        X3 = conj(X2 with T, S swapped), X4 = -|kappa|^2 TS.  1 - sqrt(eta),
        1 - cos phi and |D|^2 come from :func:`kernel_modulus`.  Every product
        of these has degree at most 2 in each scaled variable.
        """
        from su11.series import MultiSeries

        b, eta, phi = self.p.beta, self.p.eta, self.p.phi
        delta, vers, dd = kernel_modulus(eta, phi, 1.0)
        # on a fringe (D = 0) kappa is infinite; only m = 0 gets past the
        # weight test there, and its (0, 0) extractions read no term kappa scales
        kappa = math.sqrt(eta) * complex(math.sin(phi), vers - delta) / dd if dd else 0j
        kbar = kappa.conjugate()
        box = (2, 2)
        x2 = MultiSeries.from_terms(box, [((0, 1), kappa * b), ((1, 1), kappa)])
        x3 = MultiSeries.from_terms(box, [((1, 0), kbar * b), ((1, 1), kbar)])
        x4 = MultiSeries.from_terms(box, [((1, 1), -(kappa * kbar).real)])
        x6 = MultiSeries.from_terms(box, [((0, 0), b * b), ((1, 0), b), ((0, 1), b), ((1, 1), 1.0)])
        return {"X2": x2, "X3": x3, "X4": x4, "X6": x6}


@lru_cache(maxsize=256)
def _laguerre(beta: float, m: int) -> Tuple[Tuple[float, float, float], float]:
    """((L_m, c1 - 1, D_m / L_m^2), log(m! L_m)) at L_n = L_n(-beta^2), for :func:`kernels`.

    c1 = (m + 1) L_(m+1) / L_m and D_m = (m + 1)(m + 2) L_(m+2) L_m - (m + 1)^2 L_(m+1)^2.
    Each is a sum of the non-negative terms of :func:`_laguerre_coefficients`.  A figure column
    along g, T or phi keeps one (beta, m), so the last 256 pairs are kept.
    """
    x = beta * beta
    l_m, y, d = (_positive_sum(c, x) for c in _laguerre_coefficients(m))
    return (l_m, y / l_m, d / l_m / l_m), math.log(math.factorial(m) * l_m)


@lru_cache(maxsize=None)
def _laguerre_coefficients(m: int) -> Tuple[Tuple[float, ...], ...]:
    """Coefficients in x, highest first, of L_m(-x), (m + 1) L_(m+1)(-x) - L_m(-x) and D_m(x).

    The degree-j coefficient of a product is exact: j! [x^j] L_a L_b =
    sum_i C(j, i) C(a, i) C(b, j - i), over the nonzero terms, read off the
    Pascal rows up to 2m + 2.  All are non-negative, and D_m's x^(2m+2) terms cancel.
    """
    rows = [[1]]
    for _ in range(2 * m + 2):
        rows.append([1] + [a + b for a, b in zip(rows[-1], rows[-1][1:])] + [1])

    def product(a: int, b: int) -> list:
        ra, rb = rows[a], rows[b]
        return [sum(rows[j][i] * ra[i] * rb[j - i] for i in range(max(0, j - b), min(j, a) + 1))
                for j in range(a + b + 1)]

    l_m = rows[m]
    y = [(m + 1) * a - b for a, b in zip(rows[m + 1], l_m + [0])]
    d = [(m + 1) * (m + 2) * a - (m + 1) ** 2 * b
         for a, b in zip(product(m + 2, m), product(m + 1, m + 1))]
    return tuple(tuple(n / math.factorial(j) for j, n in reversed(list(enumerate(c))))
                 for c in (l_m, y, d[:-1]))


@lru_cache(maxsize=None)
def _probe_coefficients(m: int) -> Tuple[Tuple[int, int, Tuple[int, ...], int], ...]:
    """(a, b, coefficients, divisor) of s(m - a, m - b) for a <= b <= min(m, 2), (0, 0) first.

    With n = m - b and d = b - a, s(m - a, m - b) = beta^d sum_k x^k / ((n - k)! k! (k + d)!)
    = beta^d sum_k C(n, k) (n + d)! / (k + d)! x^k / (n! (n + d)!): integer
    coefficients, highest degree first, over the integer divisor n! (n + d)!.
    """
    return tuple(
        (a, b, tuple(math.comb(m - b, k) * math.factorial(m - a) // math.factorial(k + b - a)
                     for k in range(m - b, -1, -1)),
         math.factorial(m - b) * math.factorial(m - a))
        for b in range(min(m, 2) + 1) for a in range(b + 1))


def kernel_modulus(t: float, phi: float, scale: float) -> Tuple[float, float, float]:
    """(1 - sqrt(t), 1 - cos phi, |scale (1 - sqrt(t) e^{i phi})|^2) from (1 - t) / (1 + sqrt(t)) and
    2 sin^2(phi / 2), which do not cancel next to a fringe; each term is scaled before it is squared."""
    root = math.sqrt(t)
    delta = (1.0 - t) / (1.0 + root)
    half = math.sin(0.5 * phi)
    a, b = scale * delta, scale * half
    return delta, 2.0 * half * half, a * a + 2.0 * root * (2.0 * b * b)


def _positive_sum(coeffs: Sequence[float], x: float) -> float:
    """The polynomial ``coeffs``, highest first, at x by Horner's rule: x = inf gives inf, not 0 * inf."""
    terms = iter(coeffs)
    acc = next(terms)
    for c in terms:
        acc = acc * x + c
    return acc

