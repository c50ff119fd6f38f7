"""Brute-force two-mode Fock-space simulator: ground truth at desk scale.

States live on a truncated grid with per-mode cutoff ``n_cut``, d = n_cut +
1 levels per mode.  Every pipeline starts from |0, beta>; the squeezers and
the phase shifter conserve n_b - n_a, and loss, subtraction and b† only
raise it, so the n_a > n_b half of the grid stays empty.  A state is
therefore stored as the band of its rows kk = n_b - n_a >= 0, each holding
the positions j = n_a < d - kk (:class:`Ensemble`).  The internal loss
channel expands pure states into Kraus branches, so the one state type
holds weight-carrying pure branches; a pure state is an ensemble of one
branch.  Each row, across all branches and the phase tangent, is one
contiguous (positions, columns) slab, so a unitary acts on every branch in
one pass.

The simulator deliberately implements each pipeline element literally (the
two-mode squeezer as the exact exponential of the truncated sparse
generator, internal loss as the full Kraus set, each branch one scaled
shift of its input) so that it shares no algebra with the closed-form
calculator it verifies.  The squeezer's generator conserves kk, so it
splits into tridiagonal blocks, one per row.  At theta = 0 each block is
the gain times a real antisymmetric matrix K_k that depends on the cutoff
alone, so the block exp(g K_k) is a real rotation; K_k couples even to odd
photon numbers only, so one half-size singular value decomposition of that
coupling per occupied row and cutoff serves every gain and phase.  Any
other theta is a diagonal phase twist before and after the same real block,
and a block acts as one real matrix product on its row's slab, the complex
amplitudes viewed as (re, im) pairs.  A row is occupied when it holds more
than BRANCH_PRUNE_TOL of the state's weight; the squeezer multiplies those
only and trims the band after the last.  Bases and blocks, all real, are
built per row on first use.  The second squeezer, S(g e^{i pi}), is
(-1)^{n_a} S(g) (-1)^{n_a}, and that sign twist turns each real block into
its transpose, so the two squeezers share one block set per gain.  Every
pipeline squeezes at the one gain p.g, so only the blocks of the latest
gain are cached: a new gain drops the others, and a sweep along phi, beta
or the transmittances reuses its blocks from point to point while a sweep
along g, whose points share no gain, keeps no stale ones.  Bases hold no
gain and stay.  Every cutoff ladder starts at DEFAULT_N_CUT, so it visits
at most 16 cutoffs, and these bound both caches (see _TMS_BLOCK_CACHE)
without any eviction.  The tests keep a sub-stepped Taylor exponential of
the same generator on the full grid as an independent cross-check of the
blockwise propagator.

Phase derivatives are exact: the phase shifter is the only element that
depends on phi, so right after it the state's tangent is i a†a |state>, and
every later element is linear and carries the tangent next to the state in
the same pass.  The output loss T2 follows the last element, so it acts on
the joint photon-number table P(n_a, n_b) and its phase derivative, all
that subtraction and detection read, as the binomial thinning of n_a
(:func:`thin_tables`).  Subtraction is read from the thinned table: a^m
takes |n_a, n_b> to |n_a - m, n_b> with weight n_a!/(n_a - m)!, so every
order m is a reweighting of one table.  The QFI and internal pipelines
subtract with :func:`subtract_photons`, one scaled shift of the band, which
also cross-checks that reweighting.  The QFI reads the subtracted output
state itself: the paper's equivalent model follows the subtraction with the
phase-free S2†, which leaves a pure state's QFI unchanged.

Every reported oracle number goes through :func:`converged_value`, which
climbs one fixed cutoff ladder from DEFAULT_N_CUT and accepts only when a
cutoff and the one LADDER_STEP above it agree.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from su11.errors import ConvergenceError, LeakageError, NumericalError, ZeroProbabilityError, stationary
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
# ensemble branches, and squeezer rows kk = n_b - n_a, below this relative
# weight are dropped; the total dropped mass stays far below the 1e-12 trace
# bookkeeping tolerance.  The squeezer conserves each row's weight, so it
# drops exactly what it would carry
BRANCH_PRUNE_TOL = 1e-26


# -- the state container -----------------------------------------------------


class Ensemble:
    """Weight-carrying pure branches of a two-mode state, optionally with their tangent.

    ``data`` stores the band: ``data[kk, j, branch]`` is the amplitude of
    |n_a, n_b> = |j, j + kk> (positions j >= n_cut + 1 - kk are zero), or
    ``data[kk, j, 0 | 1, branch]`` for the amplitudes and their d/dphi, so
    that a linear element acts on both in one pass and row kk is one
    contiguous slab.  Branch weights are the squared norms of the
    unnormalized branch amplitudes, and a pure state is one branch.
    ``amps`` and ``tangent`` are (branch, kk, j) views.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        if data.ndim not in (3, 4):
            raise ValueError(f"ensemble data must be 3-D or 4-D, got shape {data.shape}")
        self.data = data

    @property
    def n_cut(self) -> int:
        return self.data.shape[1] - 1

    def band(self) -> Tuple[np.ndarray, np.ndarray | None]:
        """(state, tangent) as (kk, j, branch) views; the tangent is None when not carried."""
        if self.data.ndim == 3:
            return self.data, None
        return self.data[:, :, 0], self.data[:, :, 1]

    @property
    def amps(self) -> np.ndarray:
        return np.moveaxis(self.band()[0], -1, 0)

    @property
    def tangent(self) -> np.ndarray | None:
        t = self.band()[1]
        return None if t is None else np.moveaxis(t, -1, 0)

    def trace(self) -> float:
        """Total weight of the branches."""
        return float(np.sum(_weights(self.band()[0])))


def _weights(v: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Re <v|t> per (kk, j) of band amplitudes, summed over the branches; <v|v> by default."""
    x = v.view(np.float64)
    return np.einsum("...c,...c->...", x, x if t is None else t.view(np.float64))


def _on_grid(w: np.ndarray) -> np.ndarray:
    """The (d, d) table over (n_a, n_b) of per-(kk, j) values w."""
    rows, d = w.shape
    kk, j = np.nonzero(np.arange(rows)[:, None] + np.arange(d) < d)
    table = np.zeros((d, d))
    table[j, j + kk] = w[kk, j]
    return table


def _column(c: np.ndarray, ndim: int) -> np.ndarray:
    """Per-position factors c[j], shaped to broadcast over band data of ndim axes."""
    return c.reshape((-1,) + (1,) * (ndim - 2))


def _lowered_into(out: np.ndarray, c: np.ndarray, src: np.ndarray, l: int) -> None:
    """out[kk + l, j] = c[j] src[kk, j + l]: n_a lowered by l at fixed n_b.

    ``c`` holds the d - l factors of positions j = 0..d - 1 - l; rows that
    would land past the end of ``out`` hold no position with n_a >= l.
    """
    k = min(len(src), len(out) - l)
    d = src.shape[1]
    np.multiply(_column(c, src.ndim), src[:k, l:], out=out[l : l + k, : d - l])


def _grown(data: np.ndarray, rows: int) -> np.ndarray:
    """Zeros shaped like band data with len(data) + rows rows, at most one per n_b."""
    return np.zeros((min(len(data) + rows, data.shape[1]),) + data.shape[1:], data.dtype)


def _seed_tangent(x: Ensemble) -> Ensemble:
    """x with its phase tangent i a†a |x>: exact right after apply_phase."""
    v = x.band()[0]
    return Ensemble(np.stack((v, 1j * _column(np.arange(x.n_cut + 1), v.ndim) * v), axis=2))


def photon_tables(ens: Ensemble) -> Tuple[np.ndarray, np.ndarray]:
    """Joint photon-number table P(n_a, n_b) over the branches, and its d/dphi."""
    v, t = ens.band()
    return _on_grid(_weights(v)), _on_grid(2.0 * _weights(v, t))


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


# -- elementary operator actions on band data ---------------------------------


def lower_a(data: np.ndarray) -> np.ndarray:
    """a on band data: sqrt(j) |j, j + kk> -> |j - 1, j + kk>, one row up."""
    out = _grown(data, 1)
    _lowered_into(out, np.sqrt(np.arange(1.0, data.shape[1])), data, 1)
    return out


def raise_b(data: np.ndarray) -> np.ndarray:
    """b† on band data: sqrt(n_b + 1) |j, n_b> -> |j, n_b + 1>, one row up; n_b = n_cut drops."""
    out = _grown(data, 1)
    rows, d = len(out) - 1, data.shape[1]
    n_b = np.arange(1, rows + 1)[:, None] + np.arange(d)
    scale = np.sqrt(np.where(n_b < d, n_b, 0.0))
    out[1:] = scale.reshape(scale.shape + (1,) * (data.ndim - 2)) * data[:rows]
    return out


# -- preparation and pipeline elements ----------------------------------------


def prepare_input(beta: float, n_cut: int) -> Ensemble:
    """Vacuum in mode a, coherent |beta> in mode b, as a one-branch ensemble.

    |0, n> is row kk = n at position 0, so the band holds every row.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    d = n_cut + 1
    amps = np.zeros((d, d, 1), complex)
    c = math.exp(-0.5 * beta * beta)
    for n in range(d):
        amps[n, 0, 0] = c
        c = c * beta / math.sqrt(n + 1)
    tail = abs(1.0 - float(np.sum(np.abs(amps) ** 2)))
    if tail > 1e-14:
        # a leak like the squeezer's: the cutoff ladder climbs past it
        raise LeakageError(
            f"n_cut={n_cut} leaves coherent tail mass {tail:.2e} > 1e-14 for beta={beta}"
        )
    return Ensemble(amps)


_TMS_BLOCK_CACHE: dict = {}
_TMS_BASIS_CACHE: dict = {}
# each value holds real arrays per row kk = n_b - n_a, built on first use.
# Every ladder starts at DEFAULT_N_CUT, so it visits at most 16 cutoffs; the
# bases hold one value per cutoff, and the blocks one per cutoff and theta at
# the latest gain (see _tms_blocks).  Every pipeline squeezes at theta = 0,
# the mirror included, so the blocks hold one theta.  With every row of all
# 16 cutoffs built, both caches together would hold 1.24e7 float64 entries
# (99 MB); only occupied rows are built, and fig2's ladders, which climb to
# the cap at g = 1, leave 28.3 MB of blocks and 14.3 MB of bases over 13
# cutoffs.  Only tests squeeze at other thetas, at cutoffs of at most 70


def _filled(cache: dict, key, ks: List[int], build) -> dict:
    """cache[key], holding a value for every row in ks.

    ``build(missing)`` yields the values of the rows not built yet, in
    order.
    """
    value = cache.setdefault(key, {})
    missing = [k for k in ks if k not in value]
    if missing:
        value.update(zip(missing, build(missing)))
    return value


def _tms_basis(d: int, ks: List[int]) -> dict:
    """Half-size singular value decompositions (sigma_k, U_k, W_k) for the rows k in ks.

    On row k, |n, n+k> (n = 0..s-1, s = d - k), the theta = 0 generator is
    g K_k, with K_k real, antisymmetric and tridiagonal: +sqrt((n + k) n) at
    (n - 1, n) and its negative at (n, n - 1).  It couples even n only to
    odd n, so in even/odd order K_k = [[0, C_k], [-C_k^T, 0]], where C_k,
    ((s + 1) // 2) x (s // 2), is lower bidiagonal: the even/odd coupling
    of the real symmetric J_k of sqrt((n + k) n), with the signs (-1)^(i+j)
    that the gauge D = diag((-i)^n) puts on it (D J_k D^-1 = i K_k).  With
    C_k = U_k diag(sigma_k) W_k^T (U_k square, so for odd s its last column
    spans the zero mode), the eigenvalues of J_k are +-sigma_k, plus 0 for
    odd s.  C_k depends on the cutoff alone, so each occupied row of each
    cutoff is decomposed once, on first use, and serves every gain and
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
    """Real rotation blocks of exp(xi ab - xi* a†b†) for the rows k in ks.

    The generator conserves n_b - n_a, so it block-diagonalizes over the
    band's rows.  On row k, |n, n+k> (n = 0..d-1-k), the theta = 0 block is
    exp(g K_k), a real orthogonal matrix (see :func:`_tms_basis`); in
    even/odd order it is

        [[U cos U^T,  U sin W^T],
         [-W sin U^T, W cos W^T]],   cos, sin = cos(g sigma_k), sin(g sigma_k),

    with cos = 1 on the zero mode of odd s: the exact exponential of the
    truncated generator, matching the sub-stepped series to roundoff.  Any
    other theta is the diagonal twist E exp(g K_k) E^-1, E = diag(e^{-i n
    theta}), which :func:`_apply_tms_raw` applies to the state, so the
    blocks are real and the same at every theta.  Each block is built from
    its row's basis on first use.

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
    data: np.ndarray, g: float, theta: float, state: np.ndarray | None = None, mirror: bool = False
) -> np.ndarray:
    """Exact exponential of the truncated two-mode-squeezing generator on band data.

    ``data`` is (kk, j, ...) band data (see :class:`Ensemble`): row kk's
    positions j < d - kk, with every later axis (tangent, branches) folded
    into its columns, are one contiguous complex slab, viewed as real (re,
    im) pairs and rotated by the row's real block in one matrix product.  A
    state, a stack and a stack with its tangent take one path.  Only the
    occupied rows are multiplied: those that hold more than BRANCH_PRUNE_TOL
    of the weight of ``state`` (``data`` itself by default).  The squeezer
    conserves each row's weight, so every other row is zero in the output,
    which ends at the last occupied row.

    A nonzero theta twists position j by e^{i j theta} before the block and
    by e^{-i j theta} after it.  With ``mirror`` (see :func:`apply_tms`) the
    block is transposed: (-1)^j r (-1)^j = r^T for the real rotation r of a
    tridiagonal antisymmetric generator, so the mirror stays real.
    """
    if g == 0.0:
        return data.copy()
    data = np.ascontiguousarray(data)
    state = data if state is None else state
    d = data.shape[1]
    weight = _weights(state).reshape(len(state), -1).sum(axis=1)
    occupied = np.flatnonzero(weight > BRANCH_PRUNE_TOL * max(weight.sum(), 1e-300)).tolist()
    blocks = _tms_blocks(g, theta, d, occupied)
    twist = np.exp(1j * theta * np.arange(d))[:, None] if theta != 0.0 else None
    out = np.zeros((occupied[-1] + 1 if occupied else 1,) + data.shape[1:], data.dtype)
    for kk in occupied:
        s = d - kk
        r = blocks[kk].T if mirror else blocks[kk]
        x = data[kk, :s].reshape(s, -1)
        y = out[kk, :s].reshape(s, -1)
        if twist is not None:
            x = x * twist[:s]
        np.matmul(r, x.view(np.float64), out=y.view(np.float64))
        if twist is not None:
            y *= twist[:s].conj()
    return out


def apply_tms(x: Ensemble, g: float, theta: float, mirror: bool = False) -> Ensemble:
    """Two-mode squeezer on every branch.

    With ``mirror`` it is (-1)^{n_a} S (-1)^{n_a}, the squeezer at theta + pi
    (parity sends a to -a): the second squeezer, S(g e^{i pi}), is the mirror
    at theta = 0, which transposes the real blocks it shares with the first.
    A carried tangent goes through in the same pass; the occupied rows and
    leakage are judged on the state alone.  The last two positions of each
    row hold n_b = n_cut - 1 and n_cut, and with n_a <= n_b these are all of
    the grid's top two Fock layers.
    """
    out = Ensemble(_apply_tms_raw(x.data, g, theta, x.band()[0], mirror))
    w = _weights(out.band()[0])
    d = x.n_cut + 1
    total = float(w.sum())
    edge = float(w[np.arange(len(w))[:, None] + np.arange(d) >= d - 2].sum())
    if total > 0 and edge > LEAKAGE_TOL * total:
        raise LeakageError(f"top-layer mass {edge / total:.2e} after squeezer at n_cut={x.n_cut}")
    return out


def apply_phase(x: Ensemble, phi: float) -> Ensemble:
    """e^{i phi a†a} on mode a; a carried tangent gains i a†a of the result."""
    v, t = x.band()
    n_a = _column(np.arange(x.n_cut + 1), v.ndim)
    ph = np.exp(1j * phi * n_a)
    amps = v * ph
    if t is None:
        return Ensemble(amps)
    return Ensemble(np.stack((amps, t * ph + 1j * n_a * amps), axis=2))


def _kraus_rows(T: float, d: int):
    """(l, c_l) over mode-a loss's Kraus set K_l = sqrt((1 - T)^l / l!) T^{n/2} a^l.

    K_l takes |n + l, n_b> to c_l[n] |n, n_b>, with c_l[n] = sqrt(C(n + l, l)
    (1 - T)^l T^n) for n = 0..d - 1 - l, carried from c_(l-1) by the factor
    sqrt((1 - T) (n + l) / l).  Stops once the coefficients vanish.
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

    T lies in [0, 1].  Branch l moves row kk to kk + l and position j to j -
    l.  Trace is preserved (the channel is CPTP); branches of negligible
    weight are pruned, each tangent branch with its state branch, on the
    state's weight.  At T = 0 every photon of mode a is lost: T^{n/2} is [1,
    0, ...], so branch l holds n_a = l moved to n_a = 0.  At T = 1 the
    channel is the identity and the input is returned as it is, not copied,
    so no element may write into its input.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {T}")
    if T == 1.0:
        return x
    # the input's weights per n_a give every branch's weight, so branches
    # are kept before any is built
    floor = BRANCH_PRUNE_TOL * max(x.trace(), 1e-300)
    v = x.band()[0]
    n_a = np.sum(v.real**2 + v.imag**2, axis=0)
    kept = []
    for l, c in _kraus_rows(T, x.n_cut + 1):
        keep = (c * c) @ n_a[l:] > floor
        if keep.any():
            kept.append((l, c, keep))
    rows = min(len(x.data) + (kept[-1][0] if kept else 0), x.n_cut + 1)
    branches = sum(int(k.sum()) for *_, k in kept)
    out = np.zeros((rows,) + x.data.shape[1:-1] + (branches,), x.data.dtype)
    start = 0
    for l, c, keep in kept:
        stop = start + int(keep.sum())
        _lowered_into(out[..., start:stop], c, x.data[..., keep], l)
        start = stop
    return Ensemble(out)


def subtract_photons(ens: Ensemble, m: int) -> Ensemble:
    """Apply a^m to every branch and renormalize.

    a^m takes |n + m, n_b> to sqrt((n + 1) ... (n + m)) |n, n_b>, so it is
    one scaled shift of the band, m rows up and m positions down, for the
    state and its tangent alike.  :func:`numeric_qfi_pure` and
    :func:`internal_ensemble` subtract with it, and it cross-checks the
    table reweighting of :func:`subtracted_moments`.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    out = _grown(ens.data, m)
    d = ens.n_cut + 1
    if m < d:
        scale = np.prod(np.sqrt(np.arange(d - m, dtype=float)[:, None] + np.arange(1, m + 1)), axis=1)
        _lowered_into(out, scale, ens.data, m)
    out /= math.sqrt(_subtraction_probability(Ensemble(out).trace(), ens.trace(), m))
    return Ensemble(out)


def _subtraction_probability(prob: float, total: float, m: int) -> float:
    """``prob`` itself; under ZERO_NORM_FLOOR relative to the incoming ``total``, or not positive, it is zero."""
    if not prob > 0.0 or prob < ZERO_NORM_FLOOR * total:
        raise ZeroProbabilityError(f"subtraction of {m} photons has zero probability")
    return prob


def _check_mode(mode: str) -> None:
    if mode not in ("a", "b"):
        raise ValueError("mode must be 'a' or 'b'")


def moments(ens: Ensemble, mode: str = "a") -> Tuple[float, float]:
    """(mean, second moment) of the photon number in the given mode."""
    _check_mode(mode)
    table = _on_grid(_weights(ens.band()[0]))
    weights = table.sum(axis=1 if mode == "a" else 0)
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


def _squeezed_input(p: Params, n_cut: int) -> Ensemble:
    """S1 |0, beta>, where every pipeline starts; an infinite g or beta, which
    ``Params`` admits and which would leave a NaN grid, raises NumericalError."""
    if not (math.isfinite(p.g) and math.isfinite(p.beta)):
        raise NumericalError(f"the oracle needs a finite g and beta, got g = {p.g}, beta = {p.beta}")
    return apply_tms(prepare_input(p.beta, n_cut), p.g, 0.0)


def output_ensemble(p: Params, n_cut: int) -> Ensemble:
    """State after the second squeezer, before the output loss: S2 U_phi loss(T1) S1 |0, beta>.

    The internal loss T1 is a full Kraus set, since S2 follows it; the
    output loss T2 is applied to this state's photon-number tables
    (:func:`thin_tables`).  It carries its exact phase tangent from U_phi on.
    """
    ens = apply_loss(_squeezed_input(p, n_cut), p.T1)
    ens = _seed_tangent(apply_phase(ens, p.phi))
    return apply_tms(ens, p.g, 0.0, mirror=True)


def loss_probe_state(p: Params, n_cut: int) -> Ensemble:
    """Normalized extended-system probe: N3 (sqrt(eta) e^{i phi} cosh g a + sinh g b†)^m S1 |0, beta>.

    Its tangent is the exact d/dphi of the normalized probe.
    """
    st = _squeezed_input(p, n_cut)
    ca = math.sqrt(p.eta) * math.cosh(p.g) * complex(math.cos(p.phi), math.sin(p.phi))
    cb = math.sinh(p.g)
    data = np.stack((st.data, np.zeros_like(st.data)), axis=2)
    for _ in range(p.m):
        low = lower_a(data)
        # d/dphi of the factor (ca a + cb b†) is i ca a
        data = ca * low + cb * raise_b(data)
        data[:, :, 1] += 1j * ca * low[:, :, 0]
    nrm = math.sqrt(Ensemble(data).trace())
    if nrm * nrm < ZERO_NORM_FLOOR:
        raise ZeroProbabilityError("loss-equivalent probe state has zero norm")
    psi, dpsi = Ensemble(data / nrm).band()
    # the normalization's own derivative keeps <psi|psi> = 1
    return Ensemble(np.stack((psi, dpsi - psi * np.vdot(psi, dpsi).real), axis=2))


def internal_ensemble(p: Params, n_cut: int) -> Ensemble:
    """Normalized internal state: N4 (S2† a^m S2) U_phi loss(T1) S1 |0, beta>."""
    ens = apply_loss(_squeezed_input(p, n_cut), p.T1)
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
    """QFI of the lossless output after m subtractions, from its exact phase tangent.

    F = 4 [<t|t>/<v|v> - |<v|t>|^2/<v|v>^2] for the state v and tangent t.
    The paper's equivalent model applies the phase-free S2† after the
    subtraction; a unitary that does not depend on phi leaves the QFI of a
    pure state unchanged, so the state is read before it.
    """

    def run(n: int):
        v, t = subtract_photons(output_ensemble(p.replace(T1=1.0), n), p.m).band()
        vv = np.vdot(v, v).real
        return (4.0 * (np.vdot(t, t).real / vv - abs(np.vdot(v, t)) ** 2 / vv**2),)

    return float(converged_value(run)[0])


def _kraus_branch_states(
    psi: Ensemble, eta: float, alpha: float, phi: float
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Every Kraus branch chi_l = Pi_l(phi) |psi> of the mode-a loss channel, with d/dphi.

    d/dphi Pi_l |psi> = i (n - alpha l) Pi_l |psi> + Pi_l |psi'>.  Each is
    band data (kk, j, branch), shifted as apply_loss shifts branch l.
    """
    d = psi.n_cut + 1
    n = np.arange(d)
    out = []
    for l, c in _kraus_rows(eta, d):
        s = c.size
        rate = 1j * (n[:s] - alpha * l)
        # Pi_l |psi> and Pi_l |psi'>, then the phase rate's term
        branch = _grown(psi.data, l)
        _lowered_into(branch, c * np.exp(phi * rate), psi.data, l)
        chi, dchi = Ensemble(branch).band()
        dchi[:, :s] += _column(rate, chi.ndim) * chi[:, :s]
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
