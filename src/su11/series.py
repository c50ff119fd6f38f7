"""Truncated multivariate power series over phase-carrying dual scalars.

The calculator evaluates expectation values of the form

    d^(k1+...+kn) / (dx1^k1 ... dxn^kn)  exp(P(x1..xn)) |_{x=0}

where P is a low-degree polynomial in a handful of dummy variables whose
coefficients depend on the physical phase ``phi``.  Everything here is
mechanized with two ingredients:

* :class:`CDual` -- a complex scalar carrying d/dphi in a second channel
  (first-order forward-mode differentiation), so phase derivatives of deep
  compositions come out exactly, with no symbolic work and no step-size
  tuning.
* :class:`MultiSeries` -- a dense box of dual coefficients truncated at a
  per-variable maximum degree.  Products discard any term exceeding the
  caps; since extraction only ever reads coefficients inside the box, the
  truncated arithmetic is exact for every extracted value.

Coefficient boxes are tiny (at most ``(m+3)^2 * 2^4`` entries for the
largest kernels), so dense storage wins over sparse maps.

The calculators read physical quantities off the extracted values with the
checks at the end of this module, which turn every numerical inconsistency
(a spurious imaginary part, float overflow) into a typed NumericalError.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from su11.errors import NumericalError

# Factorials are evaluated in double precision; beyond 34! the representation
# error of the factorial itself would dominate the extracted coefficients.
# Together with caps of (m+2, m+2) this bounds the subtraction order at m <= 15.
MAX_FACTORIAL_ORDER = 34

# a normalizer extraction below this magnitude is treated as exactly zero
DARK_FRINGE_FLOOR = 1e-300
# relative imaginary residue tolerated on a quantity that must be real
IMAG_TOL = 1e-10

Scalar = Union["CDual", complex, float, int]


def factorial(n: int) -> float:
    if not 0 <= n <= MAX_FACTORIAL_ORDER:
        raise ValueError(
            f"factorial order {n} outside supported range [0, {MAX_FACTORIAL_ORDER}]"
        )
    return float(math.factorial(n))


class CDual:
    """Complex scalar plus its derivative with respect to the phase.

    Arithmetic follows the first-order dual-number rules, e.g.
    ``(a*b).dph == a.val*b.dph + a.dph*b.val``.  Seed the phase variable
    itself with :meth:`CDual.variable`.
    """

    __slots__ = ("val", "dph")

    def __init__(self, val: complex, dph: complex = 0j):
        self.val = complex(val)
        self.dph = complex(dph)

    @staticmethod
    def variable(x: float) -> "CDual":
        """The differentiation variable itself: value x, derivative 1."""
        return CDual(x, 1.0)

    @staticmethod
    def _coerce(other: Scalar) -> "CDual":
        if isinstance(other, CDual):
            return other
        return CDual(complex(other))

    def __add__(self, other: Scalar) -> "CDual":
        o = self._coerce(other)
        return CDual(self.val + o.val, self.dph + o.dph)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "CDual":
        o = self._coerce(other)
        return CDual(self.val - o.val, self.dph - o.dph)

    def __rsub__(self, other: Scalar) -> "CDual":
        o = self._coerce(other)
        return CDual(o.val - self.val, o.dph - self.dph)

    def __neg__(self) -> "CDual":
        return CDual(-self.val, -self.dph)

    def __mul__(self, other: Scalar) -> "CDual":
        o = self._coerce(other)
        return CDual(self.val * o.val, self.val * o.dph + self.dph * o.val)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "CDual":
        o = self._coerce(other)
        inv = 1.0 / o.val
        return CDual(self.val * inv, (self.dph - self.val * inv * o.dph) * inv)

    def __rtruediv__(self, other: Scalar) -> "CDual":
        return self._coerce(other) / self

    def __pow__(self, p: float) -> "CDual":
        v = self.val**p
        return CDual(v, p * self.val ** (p - 1) * self.dph)

    def conj(self) -> "CDual":
        # phi is real, so conjugation commutes with d/dphi
        return CDual(self.val.conjugate(), self.dph.conjugate())

    def exp(self) -> "CDual":
        e = np.exp(self.val)
        return CDual(e, e * self.dph)

    def abs2(self) -> "CDual":
        """|z|^2 with the (real) derivative channel 2 Re(z' conj(z))."""
        return CDual(
            (self.val * self.val.conjugate()).real,
            2.0 * (self.dph * self.val.conjugate()).real,
        )

    def __repr__(self) -> str:
        return f"CDual({self.val!r}, dph={self.dph!r})"


Index = Tuple[int, ...]


class MultiSeries:
    """Dense truncated power series in ``len(caps)`` dummy variables.

    ``caps[i]`` is the maximum retained degree of variable i; the coefficient
    of the monomial with exponent vector ``k`` lives at ``val[k]`` (value
    channel) and ``dph[k]`` (d/dphi channel).  Instances are treated as
    immutable: every operation returns a new series.
    """

    __slots__ = ("caps", "val", "dph")

    def __init__(self, caps: Sequence[int], val: np.ndarray, dph: np.ndarray):
        self.caps = tuple(int(c) for c in caps)
        self.val = val
        self.dph = dph

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, caps: Sequence[int]) -> "MultiSeries":
        shape = tuple(c + 1 for c in caps)
        return cls(caps, np.zeros(shape, complex), np.zeros(shape, complex))

    @classmethod
    def constant(cls, caps: Sequence[int], value: Scalar) -> "MultiSeries":
        s = cls.zeros(caps)
        c = CDual._coerce(value)
        origin = (0,) * len(s.caps)
        s.val[origin] = c.val
        s.dph[origin] = c.dph
        return s

    @classmethod
    def from_terms(
        cls, caps: Sequence[int], terms: Iterable[Tuple[Index, Scalar]]
    ) -> "MultiSeries":
        """Build a polynomial from (multi-index, coefficient) pairs.

        Indices exceeding the caps are rejected rather than silently dropped:
        callers size the caps, the engine never guesses.
        """
        s = cls.zeros(caps)
        for idx, coeff in terms:
            idx = tuple(int(i) for i in idx)
            if len(idx) != len(s.caps):
                raise ValueError(f"index {idx} has wrong arity for caps {s.caps}")
            if any(i < 0 or i > c for i, c in zip(idx, s.caps)):
                raise ValueError(f"index {idx} exceeds caps {s.caps}")
            c = CDual._coerce(coeff)
            s.val[idx] += c.val
            s.dph[idx] += c.dph
        return s

    # -- helpers -----------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.caps)

    def _check_compatible(self, other: "MultiSeries") -> None:
        if self.caps != other.caps:
            raise ValueError(f"caps mismatch: {self.caps} vs {other.caps}")

    def _nonzero_count(self) -> int:
        return int(np.count_nonzero(self.val) + np.count_nonzero(self.dph))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["MultiSeries", Scalar]) -> "MultiSeries":
        if isinstance(other, MultiSeries):
            self._check_compatible(other)
            return MultiSeries(self.caps, self.val + other.val, self.dph + other.dph)
        return self + MultiSeries.constant(self.caps, other)

    __radd__ = __add__

    def __sub__(self, other: Union["MultiSeries", Scalar]) -> "MultiSeries":
        if isinstance(other, MultiSeries):
            self._check_compatible(other)
            return MultiSeries(self.caps, self.val - other.val, self.dph - other.dph)
        return self - MultiSeries.constant(self.caps, other)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(self.caps, -self.val, -self.dph)

    def __mul__(self, other: Union["MultiSeries", Scalar]) -> "MultiSeries":
        if not isinstance(other, MultiSeries):
            c = CDual._coerce(other)
            return MultiSeries(
                self.caps,
                self.val * c.val,
                self.val * c.dph + self.dph * c.val,
            )
        self._check_compatible(other)
        # convolve from the sparser factor so exponent polynomials (a handful
        # of terms) cost a handful of shifted box additions
        a, b = self, other
        if a._nonzero_count() > b._nonzero_count():
            a, b = b, a
        shape = self.val.shape
        out_v = np.zeros(shape, complex)
        out_d = np.zeros(shape, complex)
        mask = (a.val != 0) | (a.dph != 0)
        for idx in np.argwhere(mask):
            dst = tuple(slice(int(i), None) for i in idx)
            src = tuple(slice(0, n - int(i)) for i, n in zip(idx, shape))
            av = a.val[tuple(idx)]
            ad = a.dph[tuple(idx)]
            out_v[dst] += av * b.val[src]
            out_d[dst] += av * b.dph[src] + ad * b.val[src]
        return MultiSeries(self.caps, out_v, out_d)

    __rmul__ = __mul__

    # -- exponentiation and mixed-derivative extraction ----------------------

    def exp(self) -> "MultiSeries":
        """exp of a series with zero constant term.

        The exponent polynomials of the model all have vanishing constant
        term, which makes them nilpotent in the truncated algebra: the Taylor
        sum below terminates and is exact for every retained degree.
        """
        origin = (0,) * self.arity
        if self.val[origin] != 0 or self.dph[origin] != 0:
            raise ValueError("exp requires a zero constant term")
        out = MultiSeries.constant(self.caps, 1.0)
        term = MultiSeries.constant(self.caps, 1.0)
        for k in range(1, sum(self.caps) + 1):
            term = (term * self) * (1.0 / k)
            if term._nonzero_count() == 0:
                break
            out = out + term
        return out

    def extract(self, orders: Sequence[int]) -> CDual:
        """Mixed partial derivative at the origin: coeffs[orders] * prod(orders_i!)."""
        orders = tuple(int(o) for o in orders)
        if len(orders) != self.arity:
            raise ValueError(f"orders {orders} has wrong arity for caps {self.caps}")
        if any(o < 0 or o > c for o, c in zip(orders, self.caps)):
            raise ValueError(f"orders {orders} exceed caps {self.caps}")
        fac = 1.0
        for o in orders:
            fac *= factorial(o)
        return CDual(self.val[orders] * fac, self.dph[orders] * fac)

    def __repr__(self) -> str:
        return f"MultiSeries(caps={self.caps}, nonzero={self._nonzero_count()})"


# -- checks on extracted values ----------------------------------------------


def real_part(z: complex, what: str, scale: float = 1.0) -> float:
    """Real part of ``z``, which must be real up to roundoff relative to ``scale``."""
    if abs(z.imag) > IMAG_TOL * max(1.0, abs(z.real), scale):
        raise NumericalError(f"{what} should be real, got {z!r}")
    return z.real


def finite(x: float, what: str) -> float:
    """``x`` itself; a calculator result that overflowed is a NumericalError."""
    if not math.isfinite(x):
        raise NumericalError(f"{what} is {x} (float overflow)")
    return x


def quiet_overflow(fn):
    """``fn`` with numpy's overflow warnings off.

    Overflow leaves inf or nan in the extractions, which :func:`finite` turns
    into a NumericalError at the calculator's result; a warning would add
    nothing.
    """
    return np.errstate(over="ignore", invalid="ignore")(fn)
