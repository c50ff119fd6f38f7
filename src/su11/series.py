"""Truncated multivariate power series over phase-carrying dual scalars.

The model's expectation values are extractions of the form

    d^(k1+...+kn) / (dx1^k1 ... dxn^kn)  Q(x1..xn) exp(P(x1..xn)) |_{x=0}

where P and Q are low-degree polynomials in a handful of dummy variables
whose coefficients depend on the physical phase ``phi``.  Two ingredients
mechanize them:

* :class:`CDual` -- a complex scalar carrying d/dphi in a second channel
  (first-order forward-mode differentiation), so phase derivatives of deep
  compositions come out exactly, with no symbolic work and no step-size
  tuning.
* :class:`MultiSeries` -- a dense box of dual coefficients truncated at a
  per-variable maximum degree.  Products discard any term exceeding the
  caps; since extraction only ever reads coefficients inside the box, the
  truncated arithmetic is exact for every extracted value.  Its exponential
  solves the recurrence x0 dE/dx0 = (x0 dP/dx0) E row by row along the first
  variable, one truncated convolution per row for the model's bilinear
  exponents, and takes the phase channel as one more product,
  d exp(P)/dphi = (dP/dphi) exp(P).

In production only the QFI's X-family polynomials and their products live
here, in a (2, 2) box (`su11.model.KernelSet.x_polys`): the exponential's
coefficients are explicit sums (`su11.model.KernelSet.probe_norm`).  The
exponential, extraction and d/dphi channel serve the tests' series-engine
references (``tests/references.py``), which extract from whole boxes of
``(m+3)^2`` entries, small enough that dense storage wins over sparse maps.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

# Extraction scales a coefficient by orders_i! in double precision; the engine
# references read at most (m + 2)! = 17!, and the guard stops callers far beyond it.  The
# exponential itself uses no factorials: its recurrence divides by row indices.
MAX_FACTORIAL_ORDER = 34

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
    ``(a*b).dph == a.val*b.dph + a.dph*b.val``.
    """

    __slots__ = ("val", "dph")

    def __init__(self, val: complex, dph: complex = 0j):
        self.val = complex(val)
        self.dph = complex(dph)

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

    def conj(self) -> "CDual":
        # phi is real, so conjugation commutes with d/dphi
        return CDual(self.val.conjugate(), self.dph.conjugate())

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
        """exp of a series with zero constant term, exact for every retained degree.

        The value channel is built row by row along the first variable
        (:func:`_exp_box`); the phase channel is d exp(P)/dphi =
        (dP/dphi) exp(P), one more truncated product.
        """
        origin = (0,) * self.arity
        if self.val[origin] != 0 or self.dph[origin] != 0:
            raise ValueError("exp requires a zero constant term")
        val = _exp_box(self.val)
        return MultiSeries(self.caps, val, _times(self.dph, val))

    def extract(self, orders: Sequence[int]) -> CDual:
        """Mixed partial derivative at the origin: coeffs[orders] * prod(orders_i!)."""
        orders = tuple(int(o) for o in orders)
        if len(orders) != len(self.caps):
            raise ValueError(f"orders {orders} has wrong arity for caps {self.caps}")
        if any(o < 0 or o > c for o, c in zip(orders, self.caps)):
            raise ValueError(f"orders {orders} exceed caps {self.caps}")
        fac = 1.0
        for o in orders:
            fac *= factorial(o)
        return CDual(self.val[orders] * fac, self.dph[orders] * fac)

    def __repr__(self) -> str:
        return f"MultiSeries(caps={self.caps}, nonzero={self._nonzero_count()})"


def _times(a, b):
    """Truncated product of two coefficient boxes of one shape (or two scalars).

    Boxes of two or more variables add one shifted copy of ``b`` per nonzero
    coefficient of ``a``, so ``a`` should be the sparser factor.
    """
    if np.ndim(a) == 0:
        return a * b
    if np.ndim(a) == 1:
        return np.convolve(a, b)[: len(b)]
    out = np.zeros(b.shape, complex)
    for idx in map(tuple, np.argwhere(a)):
        dst = tuple(slice(i, None) for i in idx)
        src = tuple(slice(0, n - i) for i, n in zip(idx, b.shape))
        out[dst] += a[idx] * b[src]
    return out


def _exp_box(p: np.ndarray) -> np.ndarray:
    """exp of a coefficient box with zero constant term, row by row along axis 0.

    E = exp(P) solves x0 dE/dx0 = (x0 dP/dx0) E, so the x0^i row of E is
    E_i = (1/i) sum_j j P_j E_(i-j), summed over the nonzero rows P_j of P
    with each row product truncated to the box.  The first row is
    E_0 = exp(P_0), one variable down.  A bilinear exponent over (t, s) has
    one nonzero row past the first, so each row costs one convolution.
    """
    e = np.zeros(p.shape, complex)
    e[0] = _exp_box(p[0]) if p.ndim > 1 else 1.0
    nonzero = np.flatnonzero(p.reshape(len(p), -1).any(axis=1))
    rows = [(j, j * p[j]) for j in nonzero[nonzero > 0]]
    for i in range(1, len(p)):
        acc = 0.0
        for j, jp in rows:
            if j > i:
                break
            acc = acc + _times(jp, e[i - j])
        e[i] = acc / i
    return e

