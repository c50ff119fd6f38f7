"""Independent reference implementations that the tests compare su11 against.

They share no algebra with the code they check: the Taylor squeezer builds
exp(xi ab - xi* a†b†) from the operators themselves, not from the blockwise
real rotations of ``su11.fock``, on the full (n_a, n_b) grid where
``su11.fock`` stores only the band n_a <= n_b (``to_band`` and ``to_grid``
convert between the two); ``tms_basis_dense`` takes a squeezer row's
singular vectors from LAPACK, where ``su11.fock`` climbs the orthogonal
polynomials' three-term recurrence; the loss channel builds every Kraus
branch from its binomial amplitudes and judges each on its own norm, where
``su11.fock`` judges them from the input's weights per n_a before building any;
``cq_branchwise`` builds every Kraus branch of the loss on a probe, with its
phase and tangent, and sums C_Q branch by branch, where ``su11.fock.numeric_cq``
builds no branch and weighs per-position sums of the probe by its loss table;
``serialize_config`` writes the config text that ``su11.sweeps.parse_config``
reads; ``taylor_exp`` sums the Taylor series of a truncated exponential out of
whole-box products, where ``su11.series`` solves a row-by-row recurrence;
``laguerre_coefficient`` sums a coefficient of exp(a ts + b t + c s) term by
term in arbitrary precision; and ``engine_sensitivity`` and
``engine_photon_number`` read the output moments and N_T off mixed-derivative
extractions of exp(B(w)) with the series engine, over the complex dual kernel
``dual_kernel`` and its d/dphi channel, where ``su11.sensitivity`` and
``su11.limits`` evaluate Laguerre polynomials of a real thermal number; and
``engine_loss_inner_products`` reads the QFI's inner products off whole-box
extractions of exp(B(X1)) over the unscaled variables (t, s), where
``su11.qfi`` weighs scaled polynomial coefficients with explicit ratios of
positive sums; ``mp_ideal_qfi``, ``mp_cq_alpha``, ``mp_delta_phi``,
``mp_optimal_phase`` and ``mp_internal_photon_number`` evaluate the closed
forms at 60 digits or more, at the exact doubles they are given, from
Laguerre sums built term by term and from the complex kernel itself, where
``su11.model`` sums double Horner polynomials, takes their ratios once and
forms the kernel modulus from its cancellation-free terms.  ``KernelSetRoute``
and the calculators over it (``route_sensitivity_ideal`` and the rest) keep the
per-cell object route that the straight-line closed forms of ``su11`` replaced:
an object per configuration whose methods give the thermal number, the
weight test and the moments, over Laguerre values summed afresh from
``laguerre_coefficients_comb``, the coefficients built from ``math.comb``
where ``su11.model`` reads Pascal rows.
"""

from __future__ import annotations

import cmath
import io
import math
from typing import Sequence

import numpy as np

from su11.errors import (DARK_FRINGE_FLOOR, DarkFringeError, NormalizationError, NumericalError,
                         StationaryPointError, finite, positive, stationary)
from su11.limits import LimitsReport
from su11.model import Params, kernel_modulus
from su11.qfi import QfiReport, qcrb
from su11.sensitivity import SensitivityReport
from su11.series import CDual, MultiSeries
from su11.sweeps import SweepSpec, format_float


def _ab(amps: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    da, db = amps.shape[-2:]
    ra = np.sqrt(np.arange(1.0, da))
    rb = np.sqrt(np.arange(1.0, db))
    out[..., :-1, :-1] = ra[:, None] * rb[None, :] * amps[..., 1:, 1:]
    return out


def _adag_bdag(amps: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    da, db = amps.shape[-2:]
    ra = np.sqrt(np.arange(1.0, da))
    rb = np.sqrt(np.arange(1.0, db))
    out[..., 1:, 1:] = ra[:, None] * rb[None, :] * amps[..., :-1, :-1]
    return out


def to_band(grid: np.ndarray) -> np.ndarray:
    """(..., n_a, n_b) grid amplitudes as a (..., kk, j) band, kk = n_b - n_a and j = n_a.

    The band holds the n_a <= n_b half only, so the other half must be empty.
    """
    d = grid.shape[-1]
    assert not np.any(np.tril(grid, -1)), "the band holds no amplitude with n_a > n_b"
    kk, j = np.nonzero(np.add.outer(np.arange(d), np.arange(d)) < d)
    band = np.zeros_like(grid)
    band[..., kk, j] = grid[..., j, j + kk]
    return band


def to_grid(band: np.ndarray) -> np.ndarray:
    """The (..., n_a, n_b) grid of a (..., kk, j) band; positions past n_b = d - 1 must be empty."""
    rows, d = band.shape[-2:]
    valid = np.add.outer(np.arange(rows), np.arange(d)) < d
    assert not np.any(band[..., ~valid]), "band positions past the cutoff hold amplitude"
    kk, j = np.nonzero(valid)
    grid = np.zeros(band.shape[:-2] + (d, d), band.dtype)
    grid[..., j, j + kk] = band[..., kk, j]
    return grid


def band_data(grid: np.ndarray) -> np.ndarray:
    """``Ensemble`` data of (branch, n_a, n_b) grid amplitudes, or (2, branch, n_a, n_b) with tangent."""
    return np.ascontiguousarray(np.moveaxis(to_band(grid), (-2, -1), (0, 1)))


def grid_data(data: np.ndarray) -> np.ndarray:
    """The (branch, n_a, n_b) or (2, branch, n_a, n_b) grid of ``Ensemble`` data."""
    return to_grid(np.moveaxis(data, (0, 1), (-2, -1)))


def apply_tms_series(amps: np.ndarray, g: float, theta: float) -> np.ndarray:
    """exp(xi ab - xi* a†b†) with xi = g e^{i theta}, by sub-stepped Taylor sums.

    Acts on the last two axes.  The generator norm grows like |xi| * n_cut,
    so it is split into enough substeps that each local series converges far
    below 1e-14.  A slow cross-check of the blockwise propagator.
    """
    if g == 0.0:
        return amps.copy()
    xi = g * complex(math.cos(theta), math.sin(theta))
    d = amps.shape[-1]
    steps = max(1, math.ceil(abs(xi) * d / 2.0))
    acc = amps.astype(complex, copy=True)
    for _ in range(steps):
        term = acc
        out = acc.copy()
        for k in range(1, 80):
            term = (xi * _ab(term) - np.conj(xi) * _adag_bdag(term)) / (k * steps)
            out += term
            if np.max(np.abs(term)) < 1e-17 * max(np.max(np.abs(out)), 1e-300):
                break
        else:
            raise RuntimeError("two-mode squeezer series did not terminate")
        acc = out
    return acc


def tms_basis_dense(d: int, k: int):
    """Row k's (sigma, U, W) at grid side d, from LAPACK's dense SVD with vectors.

    C_k is the even/odd coupling of the theta = 0 squeezer generator on
    |n, n + k> (n = 0..s-1, s = d - k): C_k[i, i] = sqrt((2i + 1 + k) (2i +
    1)) and C_k[i + 1, i] = -sqrt((2i + 2 + k) (2i + 2)), ((s + 1) // 2) x
    (s // 2), so that C_k = U diag(sigma) W^T with U square.  The vectors
    come from LAPACK, where ``su11.fock`` takes only sigma from it and
    climbs the three-term recurrence of J_k for the vectors.
    """
    s = d - k
    e, o = (s + 1) // 2, s // 2
    coupling = np.zeros((e, o))
    i = np.arange(o)
    coupling[i, i] = np.sqrt((2 * i + 1 + k) * (2 * i + 1.0))
    i = i[: (s - 1) // 2]
    coupling[i + 1, i] = -np.sqrt((2 * i + 2 + k) * (2 * i + 2.0))
    u, sigma, wt = np.linalg.svd(coupling)
    return sigma, u, wt.T


def apply_loss_branchwise(
    amps: np.ndarray, T: float, prune_tol: float, tangent: np.ndarray | None = None
):
    """Mode-a loss on (branches, d, d) amplitudes, one Kraus branch at a time.

    Row n of K_l |psi> is sqrt(C(n + l, l) (1 - T)^l T^n) times row n + l of
    |psi>.  Branches at or below prune_tol of the input trace are dropped.
    With a ``tangent`` of the same shape, it goes through the same branches,
    kept on the state's norm, and the pair is returned.
    """
    d = amps.shape[-1]
    floor = prune_tol * float(np.sum(np.abs(amps) ** 2))
    kept, kept_tangent = [], []
    for l in range(d):
        k = np.zeros_like(amps)
        kt = np.zeros_like(amps)
        for n in range(d - l):
            c = math.sqrt(math.comb(n + l, l) * (1.0 - T) ** l * T**n)
            k[:, n, :] = c * amps[:, n + l, :]
            if tangent is not None:
                kt[:, n, :] = c * tangent[:, n + l, :]
        for b, bt in zip(k, kt):
            if np.sum(np.abs(b) ** 2) > floor:
                kept.append(b)
                kept_tangent.append(bt)
    if tangent is None:
        return np.array(kept)
    return np.array(kept), np.array(kept_tangent)


def cq_branchwise(amps: np.ndarray, tangent: np.ndarray, T: float, alpha: float, phi: float):
    """(C_Q, sum_l <chi_l|chi_l>) over mode-a loss's Kraus branches, one branch at a time.

    ``amps`` and ``tangent`` are a pure probe's (1, d, d) grid amplitudes
    and their d/dphi.  Branch l is chi_l = e^{i phi (n - alpha l)} K_l psi,
    with row n of K_l psi sqrt(C(n + l, l) (1 - T)^l T^n) times row n + l of
    psi, as in ``apply_loss_branchwise``, and its tangent is e^{i phi (n -
    alpha l)} (K_l psi' + i (n - alpha l) K_l psi).  C_Q = 4 [sum <chi'|chi'>
    - |sum <chi'|chi>|^2].
    """
    d = amps.shape[-1]
    dd, dc, trace = 0.0, 0j, 0.0
    for l in range(d):
        chi = np.zeros_like(amps)
        dchi = np.zeros_like(amps)
        for n in range(d - l):
            rate = n - alpha * l
            c = math.sqrt(math.comb(n + l, l) * (1.0 - T) ** l * T**n) * cmath.exp(1j * phi * rate)
            chi[:, n, :] = c * amps[:, n + l, :]
            dchi[:, n, :] = c * (tangent[:, n + l, :] + 1j * rate * amps[:, n + l, :])
        dd += np.vdot(dchi, dchi).real
        dc += np.vdot(dchi, chi)
        trace += np.vdot(chi, chi).real
    return 4.0 * (dd - abs(dc) ** 2), trace


def serialize_config(specs: Sequence[SweepSpec]) -> str:
    """Config text that parses back to ``specs``."""
    out = io.StringIO()
    for spec in specs:
        out.write(f"[{spec.name}]\n")
        out.write(f"quantity = {spec.quantity}\n")
        out.write(f"axis = {spec.axis}\n")
        out.write(f"lo = {format_float(spec.lo)}\n")
        out.write(f"hi = {format_float(spec.hi)}\n")
        out.write(f"points = {spec.n_points}\n")
        out.write(f"m = {','.join(str(m) for m in spec.m_list)}\n")
        for key, value in spec.fixed:
            out.write(f"{key} = {format_float(value)}\n")
        out.write("\n")
    return out.getvalue()


def taylor_exp(p: MultiSeries) -> MultiSeries:
    """exp(p) for p with zero constant term, as the Taylor sum of p^k / k!.

    p is nilpotent in the truncated algebra, so the sum ends after at most
    sum(caps) terms and is exact for every retained degree.
    """
    out = MultiSeries.constant(p.caps, 1.0)
    term = MultiSeries.constant(p.caps, 1.0)
    for k in range(1, sum(p.caps) + 1):
        term = (term * p) * (1.0 / k)
        out = out + term
    return out


def laguerre_coefficient(a, b, c, i: int, j: int):
    """Coefficient of t^i s^j in exp(a ts + b t + c s), in the scalars' own arithmetic.

    c_ij = sum_k a^k b^(i-k) c^(j-k) / (k! (i-k)! (j-k)!); pass mpmath numbers
    to evaluate it beyond double precision.
    """
    return sum(
        a**k * b ** (i - k) * c ** (j - k)
        / (math.factorial(k) * math.factorial(i - k) * math.factorial(j - k))
        for k in range(min(i, j) + 1)
    )


def dual_kernel(p: Params, t2: float) -> CDual:
    """w = (1/2) sinh 2g sqrt(t2) (1 - sqrt(T1) e^{-i phi}) and its d/dphi, as a complex dual.

    The output kernel w3 at t2 = T2 and the internal kernel v1 at t2 = 1.  1 - sqrt(T1) e^{-i phi}
    cancels next to a fringe (sqrt(T1) cos phi -> 1), where ``su11.model.kernel_modulus`` does
    not, so its |w|^2 is close to ``su11.model.thermal``'s only away from one.
    """
    scale = 0.5 * math.sinh(2.0 * p.g) * math.sqrt(t2)
    e_m = cmath.exp(-1j * p.phi)
    sqrt_t1 = math.sqrt(p.T1)
    return CDual((1.0 - e_m * sqrt_t1) * scale, (1j * e_m * sqrt_t1) * scale)


def bilinear_exponent(p: Params, w: CDual) -> MultiSeries:
    """B(w) = st |w|^2 + (t w + s w*) beta over (t, s), with the caps (m + 2, m + 2)."""
    b = p.beta
    return MultiSeries.from_terms(
        (p.m + 2, p.m + 2), [((1, 0), w * b), ((0, 1), w.conj() * b), ((1, 1), w.abs2())]
    )


def engine_sensitivity(p: Params) -> dict:
    """The lossy sensitivity report's fields, and the subtraction weight, from three extractions of exp(B(w3)).

    With G_k the (k, k) extraction, G_m is the weight m! u^m L_m,
    <N> = G_(m+1) / G_m and <N^2> = (G_(m+1) + G_(m+2)) / G_m, phase
    derivatives from the dual channel, and Var(N) = <N^2> - <N>^2, which
    cancels about <N>-fold.
    """
    m = p.m
    e = bilinear_exponent(p, dual_kernel(p, p.T2)).exp()
    gm, gm1, gm2 = (e.extract((k, k)) for k in (m, m + 1, m + 2))
    mean = gm1 / gm
    var = ((gm1 + gm2) / gm).val.real - mean.val.real**2
    return {
        "delta_phi": math.sqrt(var) / abs(mean.dph.real),
        "mean_n": mean.val.real,
        "var_n": var,
        "d_mean_dphi": mean.dph.real,
        "weight": gm.val.real,
    }


def engine_photon_number(p: Params) -> float:
    """N_T = (ch^2 + T1 sh^2) <Y(v1)> + (1 + T1) sh^2 over e = exp(B(v1)).

    <Y(v1)> = ext_(m,m)[Y e] / ext_(m,m)[e], with Y(v1) = B(v1) + beta^2.
    """
    sh2, ch2 = math.sinh(p.g) ** 2, math.cosh(p.g) ** 2
    b = bilinear_exponent(p, dual_kernel(p, 1.0))
    e = b.exp()
    y_mean = ((b + p.beta**2) * e).extract((p.m, p.m)).val / e.extract((p.m, p.m)).val
    return (ch2 + p.T1 * sh2) * y_mean.real + (1.0 + p.T1) * sh2


def probe_kernel(p: Params) -> CDual:
    """X1 = (1/2) sinh 2g (1 - sqrt(eta) e^{-i phi}), the loss-equivalent probe's kernel.

    It cancels next to a fringe as ``dual_kernel`` does.
    """
    return dual_kernel(p.replace(T1=p.eta), 1.0)


def engine_loss_inner_products(p: Params) -> dict:
    """The QFI's inner products as whole-box extractions over (t, s), with the series engine.

    Each is ext_(m,m)[q exp(B(X1))] / ext_(m,m)[exp(B(X1))] for an X-family
    polynomial q over the unscaled variables: X2 = i q2 s (beta + t X1),
    X3 = i q3 t (beta + s X1*), X4 = q3 q2 st and X6 = B(X1) + beta^2, with
    q2 = X1* - (1/2) sinh 2g and q3 = -conj(q2).  Returned in the layout of
    `su11.qfi._loss_inner_products`.
    """
    m, b = p.m, p.beta
    x1 = probe_kernel(p)
    bx = bilinear_exponent(p, x1)
    caps = bx.caps
    e = bx.exp()
    norm = e.extract((m, m)).val
    q2 = x1.conj() - 0.5 * math.sinh(2.0 * p.g)
    q3 = -q2.conj()
    x2 = MultiSeries.from_terms(caps, [((0, 1), q2 * (1j * b)), ((1, 1), q2 * x1 * 1j)])
    x3 = MultiSeries.from_terms(caps, [((1, 0), q3 * (1j * b)), ((1, 1), q3 * x1.conj() * 1j)])
    x4 = MultiSeries.from_terms(caps, [((1, 1), q3 * q2)])
    x6 = bx + b * b

    def ext(q: MultiSeries) -> complex:
        return (q * e).extract((m, m)).val / norm

    sh2 = math.sinh(p.g) ** 2
    n_mean = sh2 * ext(x6 + 1.0).real
    return {
        "tt": ext(x2 * x3 - x4).real,
        "t_bra": ext(x3),
        "t_ket": ext(x2),
        "n_mean": n_mean,
        "var": sh2 * sh2 * ext(x6 * x6 + x6 * 4.0 + 2.0).real + n_mean - n_mean * n_mean,
        "n_bra": sh2 * ext(x3 * (x6 + 2.0)),
        "n_ket": sh2 * ext(x2 * (x6 + 2.0)),
    }


def _mp_laguerre(mpmath, p: Params):
    """(c1 - 1, D_m / L_m^2) as mpmath numbers, at the working precision of the caller.

    L_n = L_n(-beta^2) = sum_j C(n, j) beta^2j / j!, c1 = (m + 1) L_(m+1) / L_m and
    D_m = (m + 1)(m + 2) L_(m+2) L_m - (m + 1)^2 L_(m+1)^2, at the exact double beta.
    c1 - 1 is summed term by term, as at m = 0 it is beta^2, which 1 + beta^2 - 1
    would lose at a tiny beta.
    """
    m, x = p.m, mpmath.mpf(p.beta) ** 2

    def lag(n, coefficient=mpmath.binomial):
        return mpmath.fsum(coefficient(n, j) * x**j / mpmath.factorial(j) for j in range(n + 1))

    l0, l1, l2 = lag(m), lag(m + 1), lag(m + 2)
    # (m + 1) L_(m+1) - L_m, whose coefficients are non-negative
    y = lag(m + 1, lambda n, j: n * mpmath.binomial(n, j) - mpmath.binomial(n - 1, j)) / l0
    return y, ((m + 1) * (m + 2) * l2 * l0 - (m + 1) ** 2 * l1 * l1) / (l0 * l0)


def _mp_probe_moments(mpmath, p: Params):
    """(n, V) = (c1 sinh^2 g, (D_m / L_m^2) sinh^4 g + n), the probe's photon-number mean and variance."""
    y, spread = _mp_laguerre(mpmath, p)
    sh2 = mpmath.sinh(mpmath.mpf(p.g)) ** 2
    n = (1 + y) * sh2
    return n, spread * sh2 * sh2 + n


def mp_ideal_qfi(mpmath, p: Params) -> float:
    """The ideal QFI 4 V at 60 digits, at the exact double g and beta; phi does not enter."""
    with mpmath.workdps(60):
        return float(4 * _mp_probe_moments(mpmath, p)[1])


def mp_cq_alpha(mpmath, p: Params, alpha: float) -> float:
    """C_Q = 4 [(1 - (1 + alpha)(1 - eta))^2 V + (1 + alpha)^2 eta (1 - eta) n] at 60 digits."""
    with mpmath.workdps(60):
        n, v = _mp_probe_moments(mpmath, p)
        a1, eta = 1 + mpmath.mpf(alpha), mpmath.mpf(p.eta)
        return float(4 * ((1 - a1 * (1 - eta)) ** 2 * v + a1 * a1 * eta * (1 - eta) * n))


def mp_delta_phi(mpmath, p: Params) -> float:
    """delta_phi = sqrt(Var N) / |c1 u'| at 60 digits, from the complex kernel at the exact doubles.

    u = |w3|^2 with w3 = (1/2) sinh 2g sqrt(T2) (1 - sqrt(T1) e^{-i phi}), u' = sinh^2 2g T2
    sqrt(T1) sin phi / 2, <N> = c1 u and Var N = (D_m / L_m^2) u^2 + c1 u.  The modulus
    cancels next to a fringe as the double ``dual_kernel`` does, but 60 digits leave
    more than 25 of them at |phi| and 1 - T1 down to 1e-15.
    """
    with mpmath.workdps(60):
        g, phi, t1, t2 = (mpmath.mpf(v) for v in (p.g, p.phi, p.T1, p.T2))
        s2 = mpmath.sinh(2 * g) ** 2 / 4 * t2
        u = s2 * abs(1 - mpmath.sqrt(t1) * mpmath.expj(-phi)) ** 2
        du = 2 * s2 * mpmath.sqrt(t1) * mpmath.sin(phi)
        y, spread = _mp_laguerre(mpmath, p)
        return float(mpmath.sqrt(spread * u * u + (1 + y) * u) / abs((1 + y) * du))


def mp_optimal_phase(mpmath, p: Params) -> float:
    """phi* = acos c* in [0, pi/2], c* = (P - sqrt(P^2 - q^2)) / q, at 60 digits or more.

    The stationarity condition of delta^2 phi over c = cos phi, with a = 1 + T1,
    b = 2 sqrt(T1), A = (D_m / L_m^2) sinh^2 2g T2 / 4, P = A (a^2 + b^2) + a c1
    and q = b (2 A a + c1), is the quadratic q c^2 - 2 P c + q = 0, solved here
    as it stands.  P^2 - q^2 cancels as T1 -> 1, the more the larger A, so the
    precision doubles until 30 digits of it survive; at T1 = 1, P = q and c* = 1.
    """
    if p.T1 == 1.0:
        return 0.0
    dps = 60
    while True:
        with mpmath.workdps(dps):
            y, spread = _mp_laguerre(mpmath, p)
            c1, t1 = 1 + y, mpmath.mpf(p.T1)
            a, b = 1 + t1, 2 * mpmath.sqrt(t1)
            big_a = spread * mpmath.sinh(2 * mpmath.mpf(p.g)) ** 2 / 4 * p.T2
            big_p, q = big_a * (a * a + b * b) + a * c1, b * (2 * big_a * a + c1)
            gap = big_p**2 - q**2
            if gap > big_p**2 * mpmath.mpf(10) ** (30 - dps):
                return float(mpmath.acos((big_p - mpmath.sqrt(gap)) / q))
        dps *= 2


def mp_internal_photon_number(mpmath, p: Params) -> float:
    """N_T = (cosh^2 g + T1 sinh^2 g)(c1 - 1) + (1 + T1) sinh^2 g at 60 digits."""
    with mpmath.workdps(60):
        y, _ = _mp_laguerre(mpmath, p)
        g, t1 = mpmath.mpf(p.g), mpmath.mpf(p.T1)
        sh2, ch2 = mpmath.sinh(g) ** 2, mpmath.cosh(g) ** 2
        return float((ch2 + t1 * sh2) * y + (1 + t1) * sh2)


# -- the per-cell object route of the one-kernel closed forms ------------------


def laguerre_coefficients_comb(m: int):
    """Coefficients in x, highest first, of L_m(-x), (m + 1) L_(m+1)(-x) - L_m(-x) and D_m(x),
    with three ``math.comb`` calls per term of each product: j! [x^j] L_a L_b =
    sum_i C(j, i) C(a, i) C(b, j - i)."""

    def product(a: int, b: int) -> list:
        return [sum(math.comb(j, i) * math.comb(a, i) * math.comb(b, j - i) for i in range(j + 1))
                for j in range(a + b + 1)]

    l_m = [math.comb(m, j) for j in range(m + 1)]
    y = [(m + 1) * math.comb(m + 1, j) - math.comb(m, j) for j in range(m + 2)]
    d = [(m + 1) * (m + 2) * a - (m + 1) ** 2 * b
         for a, b in zip(product(m + 2, m), product(m + 1, m + 1))]
    return tuple(tuple(n / math.factorial(j) for j, n in reversed(list(enumerate(c))))
                 for c in (l_m, y, d[:-1]))


class KernelSetRoute:
    """Thermal numbers and Laguerre values of one configuration, with the rules as methods."""

    def __init__(self, p: Params):
        self.p = p
        try:
            sh2g = finite(math.sinh(2.0 * p.g), "sinh(2g)")
        except OverflowError:
            raise NumericalError(f"sinh(2g) overflows at g = {p.g}") from None
        self.sh2 = math.sinh(p.g) ** 2
        self.ch2 = math.cosh(p.g) ** 2
        self._half_sh2g = 0.5 * sh2g
        x, sums = p.beta * p.beta, []
        for coeffs in laguerre_coefficients_comb(p.m):
            # Horner's rule from the leading coefficient, so x = inf gives inf, not 0 * inf = nan
            acc = coeffs[0]
            for c in coeffs[1:]:
                acc = acc * x + c
            sums.append(acc)
        l_m, y, d = sums
        self.laguerre = (l_m, y / l_m, d / l_m / l_m)
        self._log_norm = math.log(math.factorial(p.m) * l_m)

    def thermal(self, t1: float, t2: float):
        s, phi = self._half_sh2g * math.sqrt(t2), self.p.phi
        return kernel_modulus(t1, phi, s)[2], s * (s * (2.0 * math.sqrt(t1) * math.sin(phi)))

    def log_weight(self, u: float, vanished):
        m = self.p.m
        log_w = self._log_norm + ((m * math.log(u) if u > 0.0 else -math.inf) if m else 0.0)
        if log_w < math.log(DARK_FRINGE_FLOOR):
            raise vanished(f"subtraction weight vanished at m={m} (dark fringe)")
        return log_w

    def moments(self, u: float):
        _, y, spread = self.laguerre
        mean = (1.0 + y) * u
        return mean, spread * u * u + mean


def _route_error_propagation(p: Params, t1: float, t2: float):
    ks = KernelSetRoute(p)
    u, du = ks.thermal(t1, t2)
    ks.log_weight(u, DarkFringeError)
    mean, var = ks.moments(u)
    finite(mean, "<N>")
    dmean = finite((1.0 + ks.laguerre[1]) * du, "d<N>/dphi")
    finite(var, "Var(N)")
    stationary(dmean, mean, "closed form")
    return SensitivityReport(delta_phi=math.sqrt(var) / abs(dmean), mean_n=mean, var_n=var, d_mean_dphi=dmean)


def route_sensitivity_ideal(p: Params):
    return _route_error_propagation(p, 1.0, 1.0)


def route_sensitivity_lossy(p: Params):
    return _route_error_propagation(p, p.T1, p.T2)


def route_internal_photon_number(p: Params) -> float:
    ks = KernelSetRoute(p)
    ks.log_weight(ks.thermal(p.T1, 1.0)[0], DarkFringeError)
    n_t = (ks.ch2 + p.T1 * ks.sh2) * ks.laguerre[1] + (1.0 + p.T1) * ks.sh2
    return finite(n_t, "internal photon number")


def route_limits(p: Params):
    n_t = positive(route_internal_photon_number(p), "internal photon number")
    return LimitsReport(n_t=n_t, sql=n_t**-0.5, hl=1.0 / n_t)


def route_qfi_ideal(p: Params):
    ks = KernelSetRoute(p)
    ks.log_weight(ks.thermal(1.0, 1.0)[0], DarkFringeError)
    n_mean, var = ks.moments(ks.sh2)
    finite(var, "Var(n)")
    if n_mean == 0.0:
        raise StationaryPointError("the probe holds no photons in mode a: F = 0")
    f = positive(4.0 * var, "QFI")
    return QfiReport(f=f, qcrb=qcrb(f, p.nu), alpha_star=None, terms={"n_mean": n_mean, "var": var})


def route_cq_alpha(p: Params, alpha: float) -> float:
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    ks = KernelSetRoute(p)
    ks.log_weight(ks.thermal(p.eta, 1.0)[0], NormalizationError)
    n, var = ks.moments(ks.sh2)
    (e, e_den), (a, a_den), a1 = p.eta.as_integer_ratio(), alpha.as_integer_ratio(), 1.0 + alpha
    u = (e * a_den - a * (e_den - e)) / (e_den * a_den)
    return positive(4.0 * (u * u * var + a1 * a1 * p.eta * (1.0 - p.eta) * n), "C_Q")
