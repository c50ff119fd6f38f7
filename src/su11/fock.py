"""Brute-force two-mode Fock-space simulator: ground truth at desk scale.

States live on a truncated grid with per-mode cutoff ``n_cut``.  The
internal loss channel expands pure states into Kraus branches, so the one
state type, :class:`Ensemble`, holds weight-carrying pure branches on a
leading branch axis, ``amps[branch, n_a, n_b]``; a pure state is an ensemble
of one branch.  Unitaries act on every branch in one pass.

The simulator deliberately implements each pipeline element literally (the
two-mode squeezer as the exact exponential of the truncated sparse
generator, internal loss as the full Kraus set, each branch one scaled row
slice of its input) so that it shares no algebra with the closed-form
calculator it verifies.  The squeezer's generator splits into tridiagonal
blocks along the grid diagonals n_a - n_b = k.  At theta = 0
each block is the gain times a real antisymmetric matrix K_k that depends on
the cutoff alone, so the block exp(g K_k) is a real rotation; K_k couples
even to odd photon numbers only, so one half-size singular value
decomposition of that coupling per occupied diagonal and cutoff serves every
gain and phase.  Any other theta is a diagonal phase twist before and after
the same real block, and a block acts as one real matrix product on the
complex amplitudes viewed as (re, im) pairs.  A diagonal is occupied when it
holds more than BRANCH_PRUNE_TOL of the state's weight; the squeezer acts on
those only.  Every pipeline starts from |0, beta>, the squeezers and the
phase shifter conserve n_a - n_b, and loss, subtraction and b† only lower
it, so the n_a > n_b half of the grid stays empty and only the coherent
tail, widened by loss, is occupied.  Bases and blocks, all real, are built
per diagonal on first use.  The second squeezer, S(g e^{i pi}), is applied
as (-1)^{n_a} S(g) (-1)^{n_a}, an exact sign twist, so the two squeezers
share one block set per gain.  Every pipeline squeezes at the one gain p.g,
so only the blocks of the latest gain are cached: a new gain drops the
others, and a sweep along phi, beta or the transmittances reuses its blocks
from point to point while a sweep along g, whose points share no gain, keeps
no stale ones.  Bases hold no gain and stay.  Every cutoff ladder starts at
DEFAULT_N_CUT, so it visits at most 16 cutoffs, and these bound both caches
(see _TMS_BLOCK_CACHE) without any eviction.  The tests keep a sub-stepped
Taylor exponential of the same generator as an independent cross-check of
the blockwise propagator.

Phase derivatives are exact: the phase shifter is the only element that
depends on phi, so right after it the state's tangent is i a†a |state>, and
every later element is linear and carries the tangent next to the state in
the same pass.  The output loss T2 follows the last element, so it acts on
the joint photon-number table P(n_a, n_b) and its phase derivative, all that
subtraction and detection read, as the binomial thinning of n_a
(:func:`thin_tables`).  Subtraction is read from the thinned table: a^m
takes |n_a, n_b> to |n_a - m, n_b> with weight n_a!/(n_a - m)!, so every
order m is a reweighting of one table.  The equivalent-model and internal
pipelines subtract with :func:`subtract_photons`, one scaled row slice,
which also cross-checks that reweighting.

Every reported oracle number goes through :func:`converged_value`, which
climbs one fixed cutoff ladder from DEFAULT_N_CUT and accepts only when a
cutoff and the one LADDER_STEP above it agree.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from su11.errors import ConvergenceError, LeakageError, ZeroProbabilityError, stationary
from su11.model import Params

DEFAULT_N_CUT = 30
LADDER_STEP = 5
LADDER_GROWTH = 1.3
# (g = 1, beta = 1, phi = 1.0, m = 3) needs n_cut ~ 170 before consecutive
# cutoffs agree to 1e-8; the ladder climbs geometrically up to this cap
MAX_N_CUT = 200
LEAKAGE_TOL = 1e-10
# squared norm, relative to the (unit) input's, below which a lowered state is
# empty: squared amplitudes carry ~1e-28 truncation-roundoff residue
ZERO_NORM_FLOOR = 1e-24
# ensemble branches, and squeezer diagonals n_a - n_b = k, below this
# relative weight are dropped; the total dropped mass stays far below the
# 1e-12 trace bookkeeping tolerance.  The squeezer conserves each diagonal's
# weight, so it drops exactly what it would carry
BRANCH_PRUNE_TOL = 1e-26


# -- elementary operator actions on the last two axes ------------------------


def lower_a(amps: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    d = amps.shape[-2]
    r = np.sqrt(np.arange(1.0, d))
    out[..., :-1, :] = r[:, None] * amps[..., 1:, :]
    return out


def raise_b(amps: np.ndarray) -> np.ndarray:
    out = np.zeros_like(amps)
    d = amps.shape[-1]
    r = np.sqrt(np.arange(1.0, d))
    out[..., :, 1:] = r[None, :] * amps[..., :, :-1]
    return out


# -- the state container -----------------------------------------------------


class Ensemble:
    """Weight-carrying pure branches of a two-mode state, optionally with their tangent.

    ``amps`` has shape (branches, n_cut + 1, n_cut + 1), indexed
    (branch, n_a, n_b); branch weights are the squared norms of the
    unnormalized branch amplitudes, and a pure state is one branch.
    ``data`` holds the amplitudes, or the amplitudes and their d/dphi
    stacked in front of the branch axis, so that a linear element acts on
    both in one pass; ``amps`` and ``tangent`` are views of it.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        if data.ndim not in (3, 4):
            raise ValueError(f"ensemble data must be 3-D or 4-D, got shape {data.shape}")
        self.data = data

    @property
    def n_cut(self) -> int:
        return self.data.shape[-1] - 1

    @property
    def amps(self) -> np.ndarray:
        return self.data[0] if self.data.ndim == 4 else self.data

    @property
    def tangent(self) -> np.ndarray | None:
        return self.data[1] if self.data.ndim == 4 else None

    def trace(self) -> float:
        """Total weight of the branches."""
        return float(np.vdot(self.amps, self.amps).real)


def _seed_tangent(x: Ensemble) -> Ensemble:
    """x with its phase tangent i a†a |x>: exact right after apply_phase."""
    n_a = np.arange(x.n_cut + 1)[:, None]
    return Ensemble(np.stack((x.amps, 1j * n_a * x.amps)))


def photon_tables(ens: Ensemble) -> Tuple[np.ndarray, np.ndarray]:
    """Joint photon-number table P(n_a, n_b) over the branches, and its d/dphi."""
    v, t = ens.amps, ens.tangent
    table = np.sum(v.real**2 + v.imag**2, axis=0)
    return table, 2.0 * np.sum(v.real * t.real + v.imag * t.imag, axis=0)


def thin_tables(table: np.ndarray, dtable: np.ndarray, T: float) -> Tuple[np.ndarray, np.ndarray]:
    """The tables of photon_tables after mode-a loss of transmittance T.

    Loss thins n_a binomially, P'(k, n_b) = sum_n C(n, k) T^k (1 - T)^(n - k)
    P(n, n_b), as photon_tables reads it after apply_loss; the d/dphi table
    alike.  The matrix is built by Pascal's rule, from nonnegative terms
    only.  At T = 1 the tables are returned as they are.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {T}")
    if T == 1.0:
        return table, dtable
    d = table.shape[0]
    # column n is the distribution of the k survivors of n photons
    binom = np.zeros((d, d))
    binom[0, 0] = 1.0
    for n in range(1, d):
        binom[: n + 1, n] = (1.0 - T) * binom[: n + 1, n - 1]
        binom[1 : n + 1, n] += T * binom[:n, n - 1]
    return binom @ table, binom @ dtable


# -- preparation and pipeline elements ----------------------------------------


def prepare_input(beta: float, n_cut: int) -> Ensemble:
    """Vacuum in mode a, coherent |beta> in mode b, as a one-branch ensemble."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    d = n_cut + 1
    amps = np.zeros((d, d), complex)
    c = math.exp(-0.5 * beta * beta)
    for n in range(d):
        amps[0, n] = c
        c = c * beta / math.sqrt(n + 1)
    tail = abs(1.0 - float(np.sum(np.abs(amps) ** 2)))
    if tail > 1e-14:
        # a leak like the squeezer's: the cutoff ladder climbs past it
        raise LeakageError(
            f"n_cut={n_cut} leaves coherent tail mass {tail:.2e} > 1e-14 for beta={beta}"
        )
    return Ensemble(amps[None])


_TMS_BLOCK_CACHE: dict = {}
_TMS_BASIS_CACHE: dict = {}
# each value holds real arrays per diagonal |n_a - n_b|, built on first use.
# Every ladder starts at DEFAULT_N_CUT, so it visits at most 16 cutoffs; the
# bases hold one value per cutoff, and the blocks one per cutoff and theta at
# the latest gain (see _tms_blocks).  Every pipeline squeezes at theta = 0,
# the mirror included, so the blocks hold one theta; with every diagonal of
# all 16 cutoffs built, both caches together hold 6.19e6 complex entries
# (99 MB).  Only tests squeeze at other thetas, at cutoffs of at most 70


def _filled(cache: dict, key, ks: List[int], build) -> dict:
    """cache[key], holding a value for every diagonal in ks.

    ``build(missing)`` yields the values of the diagonals not built yet, in
    order.
    """
    value = cache.setdefault(key, {})
    missing = [k for k in ks if k not in value]
    if missing:
        value.update(zip(missing, build(missing)))
    return value


def _tms_basis(d: int, ks: List[int]) -> dict:
    """Half-size singular value decompositions (sigma_k, U_k, W_k) for k in ks.

    On |n+k, n> (n = 0..s-1, s = d - k) the theta = 0 generator is g K_k,
    with K_k real, antisymmetric and tridiagonal: +sqrt((n + k) n) at
    (n - 1, n) and its negative at (n, n - 1).  It couples even n only to
    odd n, so in even/odd order K_k = [[0, C_k], [-C_k^T, 0]], where C_k,
    ((s + 1) // 2) x (s // 2), is lower bidiagonal: the even/odd coupling
    of the real symmetric J_k of sqrt((n + k) n), with the signs (-1)^(i+j)
    that the gauge D = diag((-i)^n) puts on it (D J_k D^-1 = i K_k).  With
    C_k = U_k diag(sigma_k) W_k^T (U_k square, so for odd s its last column
    spans the zero mode), the eigenvalues of J_k are +-sigma_k, plus 0 for
    odd s.  C_k depends on the cutoff alone, so each occupied diagonal of
    each cutoff is decomposed once, on first use, and serves every gain and
    phase.
    """

    def build(missing):
        for k in missing:
            s = d - k
            n = np.arange(1, s)
            c = np.sqrt((n + k) * n)
            # C_k[i, i] = c_{2i+1} and C_k[i+1, i] = -c_{2i+2}, with c_n at c[n - 1]
            coupling = np.zeros(((s + 1) // 2, s // 2))
            i = np.arange(s // 2)
            coupling[i, i] = c[0::2]
            i = i[: (s - 1) // 2]
            coupling[i + 1, i] = -c[1::2]
            u, sigma, wt = np.linalg.svd(coupling)
            yield sigma, u, wt.T

    return _filled(_TMS_BASIS_CACHE, d, ks, build)


def _tms_blocks(g: float, theta: float, d: int, ks: List[int]) -> dict:
    """Real rotation blocks of exp(xi ab - xi* a†b†) for the diagonals k in ks.

    The generator conserves n_a - n_b, so it block-diagonalizes over the
    grid diagonals; by the a <-> b symmetry one block serves a diagonal and
    its mirror.  On |n+k, n> (n = 0..d-1-k) the theta = 0 block is exp(g
    K_k), a real orthogonal matrix (see :func:`_tms_basis`); in even/odd
    order it is

        [[U cos U^T,  U sin W^T],
         [-W sin U^T, W cos W^T]],   cos, sin = cos(g sigma_k), sin(g sigma_k),

    with cos = 1 on the zero mode of odd s: the exact exponential of the
    truncated generator, matching the sub-stepped series to roundoff.  Any
    other theta is the diagonal twist E exp(g K_k) E^-1, E = diag(e^{-i n
    theta}), which :func:`_apply_tms_raw` applies to the state, so the
    blocks are real and the same at every theta.  Each block is built from
    its diagonal's basis on first use.

    The cache keeps the blocks of one gain: every pipeline squeezes at a
    single gain, so blocks of any other gain are dropped before this gain's
    are looked up.  Returning to a dropped gain rebuilds its blocks from the
    cached bases, without a new decomposition.
    """

    def build(missing):
        basis = _tms_basis(d, missing)
        for k in missing:
            sigma, u, w = basis[k]
            s = d - k
            cos, sin = np.cos(g * sigma), np.sin(g * sigma)
            # for odd s the even half also holds the zero mode, left in place
            cos_even = np.append(cos, np.ones(len(u) - sigma.size))
            r = np.empty((s, s))
            r[0::2, 0::2] = (u * cos_even) @ u.T
            r[0::2, 1::2] = (u[:, : sigma.size] * sin) @ w.T
            r[1::2, 0::2] = -r[0::2, 1::2].T
            r[1::2, 1::2] = (w * cos) @ w.T
            yield r

    g = float(g)
    for key in [key for key in _TMS_BLOCK_CACHE if key[0] != g]:
        del _TMS_BLOCK_CACHE[key]
    return _filled(_TMS_BLOCK_CACHE, (g, float(theta), int(d)), ks, build)


def _apply_tms_raw(
    amps: np.ndarray, g: float, theta: float, state: np.ndarray | None = None, mirror: bool = False
) -> np.ndarray:
    """Exact exponential of the truncated two-mode-squeezing generator.

    Every axis before the last two (tangent, branches) is folded into the
    rows of one real matrix product per diagonal: the diagonal's entries of
    all rows are gathered into a (length, rows) complex array, viewed as
    (length, 2 rows) real (re, im) pairs, and rotated by the real block.
    A state, a stack and a stack with its tangent take one path.  Only the
    occupied diagonals are multiplied: those that hold more than
    BRANCH_PRUNE_TOL of the weight of ``state`` (``amps`` itself by
    default).  The squeezer conserves each diagonal's weight, so every other
    diagonal is zero in the output.

    A nonzero theta twists entry j of a diagonal by e^{i j theta} before the
    block and entry i by e^{-i i theta} after it.  With ``mirror`` (see
    :func:`apply_tms`) the twist also carries the exact sign (-1)^j, as n_a
    steps by one along a diagonal, so the mirror at theta = 0 stays real.
    """
    if g == 0.0:
        return amps.copy()
    d = amps.shape[-1]
    state = amps if state is None else state
    n = np.arange(d)
    weight = np.bincount(
        (n[:, None] - n[None, :] + d - 1).ravel(),
        weights=(state.real**2 + state.imag**2).reshape(-1, d * d).sum(axis=0),
        minlength=2 * d - 1,
    )
    occupied = np.flatnonzero(weight > BRANCH_PRUNE_TOL * max(weight.sum(), 1e-300))
    occupied = (occupied - (d - 1)).tolist()
    blocks = _tms_blocks(g, theta, d, sorted({abs(k) for k in occupied}))
    twist = np.exp(1j * theta * n) if theta != 0.0 else None
    if mirror:
        sign = 1.0 - 2.0 * (n % 2)
        twist = sign if twist is None else sign * twist
    # on the grid flattened to d*d, diagonal k >= 0, |n+k, n>, is the stride
    # d+1 run from k*d, and its mirror -k, |n, n+k>, the run from k
    flat = amps.reshape(-1, d * d)
    out = np.zeros_like(flat)
    for k in occupied:
        run = slice(k * d, d * d, d + 1) if k >= 0 else slice(-k, (d + k) * d, d + 1)
        r = blocks[abs(k)]
        x = np.ascontiguousarray(flat[:, run].T)
        if twist is not None:
            x *= twist[: len(r), None]
        y = (r @ x.view(np.float64)).view(complex)
        if twist is not None:
            y *= twist[: len(r), None].conj()
        out[:, run] = y.T
    return out.reshape(amps.shape)


def apply_tms(x: Ensemble, g: float, theta: float, mirror: bool = False) -> Ensemble:
    """Two-mode squeezer on every branch.

    With ``mirror`` it is (-1)^{n_a} S (-1)^{n_a}, the squeezer at theta + pi
    (parity sends a to -a): the second squeezer, S(g e^{i pi}), is the mirror
    at theta = 0, the exact sign twist (-1)^j on each diagonal around the
    real blocks it shares with the first.  A carried tangent
    goes through in the same pass; the occupied diagonals and leakage are
    judged on the state alone.
    """
    out = Ensemble(_apply_tms_raw(x.data, g, theta, x.amps, mirror))
    total = out.trace()
    # mass with either mode in its top two Fock layers
    top_a, top_b = out.amps[..., -2:, :], out.amps[..., :-2, -2:]
    edge = float(np.sum(top_a.real**2 + top_a.imag**2) + np.sum(top_b.real**2 + top_b.imag**2))
    if total > 0 and edge > LEAKAGE_TOL * total:
        raise LeakageError(f"top-layer mass {edge / total:.2e} after squeezer at n_cut={x.n_cut}")
    return out


def apply_phase(x: Ensemble, phi: float) -> Ensemble:
    """e^{i phi a†a} on mode a; a carried tangent gains i a†a of the result."""
    n_a = np.arange(x.n_cut + 1)[:, None]
    ph = np.exp(1j * phi * n_a)
    amps = x.amps * ph
    if x.tangent is None:
        return Ensemble(amps)
    return Ensemble(np.stack((amps, x.tangent * ph + 1j * n_a * amps)))


def _kraus_rows(T: float, d: int):
    """(l, c_l) over mode-a loss's Kraus set K_l = sqrt((1 - T)^l / l!) T^{n/2} a^l.

    Row n of K_l x is c_l[n] times row n + l of x, with c_l[n] = sqrt(C(n +
    l, l) (1 - T)^l T^n) for n = 0..d - 1 - l, carried from c_(l-1) by the
    factor sqrt((1 - T) (n + l) / l).  Stops once the coefficients vanish.
    """
    n = np.arange(d)
    c = T ** (0.5 * n)
    for l in range(d):
        if l > 0:
            c = c[:-1] * np.sqrt((1.0 - T) * (n[: d - l] + l) / l)
            if not c.any():
                return
        yield l, c


def apply_loss(x: Ensemble, T: float) -> Ensemble:
    """Photon loss on mode a: expand into the full Kraus set K_l ~ T^{n/2} a^l.

    T lies in [0, 1].  Trace is preserved (the channel is CPTP); branches of
    negligible weight are pruned, each tangent branch with its state branch,
    on the state's weight.  At T = 0 every photon of mode a is lost: T^{n/2}
    is [1, 0, ...], so branch l holds row l of the input moved to n_a = 0.
    At T = 1 the channel is the identity and the input is returned as it
    is, not copied, so no element may write into its input.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {T}")
    if T == 1.0:
        return x
    # the input's row weights give every branch's weight, so branches are
    # kept before any is built
    floor = BRANCH_PRUNE_TOL * max(x.trace(), 1e-300)
    v = x.amps
    rows = np.sum(v.real**2 + v.imag**2, axis=-1)
    kept = []
    for l, c in _kraus_rows(T, x.n_cut + 1):
        keep = rows[:, l:] @ (c * c) > floor
        if keep.any():
            kept.append((l, c, keep))
    shape = x.data.shape
    out = np.zeros(shape[:-3] + (sum(int(k.sum()) for *_, k in kept),) + shape[-2:], x.data.dtype)
    start = 0
    for l, c, keep in kept:
        stop = start + int(keep.sum())
        np.multiply(c[:, None], x.data[..., keep, l:, :], out=out[..., start:stop, : c.size, :])
        start = stop
    return Ensemble(out)


def subtract_photons(ens: Ensemble, m: int) -> Ensemble:
    """Apply a^m to every branch and renormalize.

    Row n of a^m |psi> is sqrt((n + 1) ... (n + m)) times row n + m of |psi>,
    so a^m is one scaled row slice of the state and its tangent alike.  The
    equivalent-model and internal pipelines subtract with it, and it
    cross-checks the table reweighting of :func:`subtracted_moments`.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    rows = max(ens.n_cut + 1 - m, 0)
    scale = np.prod(np.sqrt(np.arange(rows, dtype=float)[:, None] + np.arange(1, m + 1)), axis=1)
    out = np.zeros_like(ens.data)
    np.multiply(scale[:, None], ens.data[..., m:, :], out=out[..., :rows, :])
    out /= math.sqrt(_subtraction_probability(Ensemble(out).trace(), ens.trace(), m))
    return Ensemble(out)


def _subtraction_probability(prob: float, total: float, m: int) -> float:
    """``prob`` itself; under ZERO_NORM_FLOOR relative to the incoming ``total`` it is zero."""
    if prob < ZERO_NORM_FLOOR * max(total, 1e-300):
        raise ZeroProbabilityError(f"subtraction of {m} photons has zero probability")
    return prob


def _check_mode(mode: str) -> None:
    if mode not in ("a", "b"):
        raise ValueError("mode must be 'a' or 'b'")


def moments(ens: Ensemble, mode: str = "a") -> Tuple[float, float]:
    """(mean, second moment) of the photon number in the given mode."""
    _check_mode(mode)
    axis_other = -1 if mode == "a" else -2
    weights = np.sum(np.abs(ens.amps) ** 2, axis=(0, axis_other))
    n = np.arange(weights.shape[0])
    return float(np.sum(n * weights)), float(np.sum(n * n * weights))


def subtracted_moments(
    table: np.ndarray, dtable: np.ndarray, m: int, mode: str
) -> Tuple[float, float, float, float]:
    """(probability, mean, second moment, d mean/dphi) after a^m, from the tables.

    a^m takes |n_a, n_b> to |n_a - m, n_b> with amplitude factor
    sqrt(n_a!/(n_a - m)!), so the subtracted state's photon-number table is
    the falling factorial n_a!/(n_a - m)! times P, shifted down by m in n_a.
    """
    n = np.arange(table.shape[0], dtype=float)
    weight = np.prod(n[:, None] - np.arange(m)[None, :], axis=1)
    if mode == "a":
        k = n - m
        marg, dmarg = weight * table.sum(axis=1), weight * dtable.sum(axis=1)
    else:
        k = n
        marg, dmarg = weight @ table, weight @ dtable
    prob = _subtraction_probability(float(marg.sum()), float(table.sum()), m)
    mean = float(k @ marg) / prob
    second = float((k * k) @ marg) / prob
    dmean = (float(k @ dmarg) - mean * float(dmarg.sum())) / prob
    return prob, mean, second, dmean


# -- pipelines ----------------------------------------------------------------


def output_ensemble(p: Params, n_cut: int) -> Ensemble:
    """State after the second squeezer, before the output loss: S2 U_phi loss(T1) S1 |0, beta>.

    The internal loss T1 is a full Kraus set, since S2 follows it; the
    output loss T2 is applied to this state's photon-number tables
    (:func:`thin_tables`).  It carries its exact phase tangent from U_phi on.
    """
    st = prepare_input(p.beta, n_cut)
    st = apply_tms(st, p.g, 0.0)
    ens = apply_loss(st, p.T1)
    ens = _seed_tangent(apply_phase(ens, p.phi))
    return apply_tms(ens, p.g, 0.0, mirror=True)


def equivalent_state(p: Params, n_cut: int) -> Ensemble:
    """Normalized equivalent-model state: N1 (S2† a^m S2) U_phi S1 |0, beta>.

    Its tangent is d/dphi of the unnormalized state, scaled by the same N1.
    The pipeline up to S2 is `output_ensemble` at T1 = 1, where the loss
    channel returns its input.
    """
    return apply_tms(subtract_photons(output_ensemble(p.replace(T1=1.0), n_cut), p.m), p.g, 0.0)


def loss_probe_state(p: Params, n_cut: int) -> Ensemble:
    """Normalized extended-system probe: N3 (sqrt(eta) e^{i phi} cosh g a + sinh g b†)^m S1 |0, beta>.

    Its tangent is the exact d/dphi of the normalized probe.
    """
    st = prepare_input(p.beta, n_cut)
    st = apply_tms(st, p.g, 0.0)
    ca = math.sqrt(p.eta) * math.cosh(p.g) * complex(math.cos(p.phi), math.sin(p.phi))
    cb = math.sinh(p.g)
    data = np.stack((st.amps, np.zeros_like(st.amps)))
    for _ in range(p.m):
        low = lower_a(data)
        # d/dphi of the factor (ca a + cb b†) is i ca a
        data = ca * low + cb * raise_b(data)
        data[1] += 1j * ca * low[0]
    nrm = math.sqrt(float(np.sum(np.abs(data[0]) ** 2)))
    if nrm * nrm < ZERO_NORM_FLOOR:
        raise ZeroProbabilityError("loss-equivalent probe state has zero norm")
    psi, dpsi = data / nrm
    # the normalization's own derivative keeps <psi|psi> = 1
    return Ensemble(np.stack((psi, dpsi - psi * np.vdot(psi, dpsi).real)))


def internal_ensemble(p: Params, n_cut: int) -> Ensemble:
    """Normalized internal state: N4 (S2† a^m S2) U_phi loss(T1) S1 |0, beta>."""
    st = prepare_input(p.beta, n_cut)
    st = apply_tms(st, p.g, 0.0)
    ens = apply_loss(st, p.T1)
    ens = apply_phase(ens, p.phi)
    return apply_tms(subtract_photons(apply_tms(ens, p.g, 0.0, mirror=True), p.m), p.g, 0.0)


# -- convergence protocol ------------------------------------------------------


def converged_value(fn: Callable[[int], Sequence[float]], rtol: float = 1e-8) -> np.ndarray:
    """Accept fn(n) only when fn(n) and fn(n + LADDER_STEP) agree to rtol.

    Leakage failures and failed agreement both climb the cutoff ladder
    geometrically, to max(n + LADDER_STEP, int(n * LADDER_GROWTH)) (highly
    squeezed corners need cutoffs well above the starting point).  Every
    ladder starts at DEFAULT_N_CUT.  Raises ConvergenceError once the ladder
    passes MAX_N_CUT, read at call time.
    """
    n = DEFAULT_N_CUT
    while n <= MAX_N_CUT:
        try:
            a = np.atleast_1d(np.asarray(fn(n), dtype=float))
            b = np.atleast_1d(np.asarray(fn(n + LADDER_STEP), dtype=float))
        except LeakageError:
            n = max(n + LADDER_STEP, int(n * LADDER_GROWTH))
            continue
        denom = np.maximum(np.abs(b), 1e-30)
        if np.all(np.abs(b - a) / denom < rtol):
            return b
        n = max(n + LADDER_STEP, int(n * LADDER_GROWTH))
    raise ConvergenceError(
        f"oracle did not converge to rtol={rtol} within n_cut <= {MAX_N_CUT}"
    )


# -- numeric estimators (the oracle's public surface) --------------------------


def numeric_moments_multi(
    p: Params,
    m_list: Iterable[int],
    mode: str = "a",
) -> dict:
    """Converged (delta_phi, mean, second) per subtraction order, sharing pipelines.

    Each cutoff runs the output pipeline once, with its exact phase tangent,
    thins its joint photon-number table and derivative by the output loss,
    and reads every m from them.
    """
    _check_mode(mode)
    m_list = list(m_list)

    def run(n: int):
        table, dtable = thin_tables(*photon_tables(output_ensemble(p, n)), p.T2)
        rows = []
        for m in m_list:
            _, mean, second, dmean = subtracted_moments(table, dtable, m, mode)
            var = second - mean * mean
            stationary(dmean, mean, f"oracle at phi={p.phi}, m={m}")
            rows.append((math.sqrt(max(var, 0.0)) / abs(dmean), mean, second))
        return np.asarray(rows).ravel()

    flat = converged_value(run)
    rows = flat.reshape(len(m_list), 3)
    return {
        m: {"delta_phi": rows[i, 0], "mean": rows[i, 1], "second": rows[i, 2]}
        for i, m in enumerate(m_list)
    }


def numeric_sensitivity(p: Params, mode: str = "a") -> float:
    """Error-propagation phase uncertainty from oracle moments (radians)."""
    return numeric_moments_multi(p, [p.m], mode)[p.m]["delta_phi"]


def numeric_qfi_pure(p: Params) -> float:
    """QFI of the pure equivalent-model state from its exact phase tangent.

    F = 4 [<t|t>/<v|v> - |<v|t>|^2/<v|v>^2] for the state v and tangent t.
    """

    def run(n: int):
        st = equivalent_state(p, n)
        v, t = st.amps, st.tangent
        vv = np.vdot(v, v).real
        return (4.0 * (np.vdot(t, t).real / vv - abs(np.vdot(v, t)) ** 2 / vv**2),)

    return float(converged_value(run)[0])


def _kraus_branch_states(
    psi: Ensemble, eta: float, alpha: float, phi: float
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Every Kraus branch chi_l = Pi_l(phi) |psi> of the mode-a loss channel, with d/dphi.

    d/dphi Pi_l |psi> = i (n - alpha l) Pi_l |psi> + Pi_l |psi'>.
    """
    d = psi.n_cut + 1
    n = np.arange(d)
    out = []
    for l, c in _kraus_rows(eta, d):
        s = c.size
        rate = 1j * (n[:s] - alpha * l)[:, None]
        # Pi_l |psi> and Pi_l |psi'>, then the phase rate's term
        branch = np.zeros_like(psi.data)
        np.multiply(c[:, None] * np.exp(phi * rate), psi.data[..., l:, :], out=branch[..., :s, :])
        chi, dchi = branch
        dchi[..., :s, :] += rate * chi[..., :s, :]
        out.append((chi, dchi))
    return out


def numeric_cq(p: Params, alpha: float) -> float:
    """Extended-system QFI upper bound C_Q at Kraus placement alpha, end to end.

    Builds chi_l(phi) = Pi_l(phi) |Psi(phi)> and its exact phase derivative on
    the Fock grid, and assembles 4 [sum <chi'|chi'> - |sum <chi'|chi>|^2].
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")

    def run(n: int):
        t_dd = 0.0
        t_dc = 0j
        for chi, dchi in _kraus_branch_states(loss_probe_state(p, n), p.eta, alpha, p.phi):
            t_dd += float(np.vdot(dchi, dchi).real)
            t_dc += np.vdot(dchi, chi)
        return (4.0 * (t_dd - abs(t_dc) ** 2),)

    return float(converged_value(run, rtol=1e-7)[0])


def numeric_internal_photon_number(p: Params) -> float:
    """Converged <n_a + n_b> of the internal state."""

    def run(n: int):
        ens = internal_ensemble(p, n)
        mean_a, _ = moments(ens, "a")
        mean_b, _ = moments(ens, "b")
        return (mean_a + mean_b,)

    return float(converged_value(run)[0])
