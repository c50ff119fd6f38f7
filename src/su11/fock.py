"""Brute-force two-mode Fock-space simulator: ground truth at desk scale.

States live on a truncated grid with per-mode cutoff ``n_cut``, d = n_cut +
1 levels per mode.  Every pipeline starts from |0, beta>; the squeezers and
the phase shifter conserve n_b - n_a, and loss, subtraction and b† only
raise it, so the n_a > n_b half of the grid stays empty.  A state is
therefore stored as the band of its rows kk = n_b - n_a >= 0, each holding
the positions j = n_a < d - kk (:class:`Ensemble`).  Every element after
the internal loss conserves kk or shifts every row by the same amount, and
every readout (photon tables, moments, trace) is Fock-diagonal, so of a
mixed state only each row's diagonal block rho_kk is ever read.  An
ensemble therefore holds, per row, a set of columns whose outer products
sum to rho_kk; a pure state is one column, which keeps its coherences
across rows.  Each row, across its columns and the phase tangent, is one
contiguous (positions, columns) slab, so a unitary acts on all of it in one
pass.  One diagonal shift maps the band back to the (n_a, n_b) grid
(:func:`_sheared`).

The simulator deliberately implements each pipeline element literally (the
two-mode squeezer as the exact exponential of the truncated sparse
generator, internal loss as the full Kraus set, each image one scaled shift
of a row) so that it shares no algebra with the closed-form calculator it
verifies.  The squeezer's generator conserves kk, so it splits into
tridiagonal blocks, one per row.  At theta = 0 each block is the gain times
a real antisymmetric matrix K_k that depends on the cutoff alone, so the
block exp(g K_k) is a real rotation; K_k couples even to odd photon numbers
only, so one half-size singular value decomposition (sigma, U, W) of that
coupling per occupied row and cutoff serves every gain and phase.  LAPACK
gives only the singular values; U and W are the even and odd components of
the eigenvectors of the Jacobi matrix behind K_k, its orthogonal
polynomials at each sigma, which one three-term recurrence builds for every
row of a call at once (see _tms_basis).  Per gain a block is only the 2 x 2
rotations (cos g sigma, sin g sigma) of the mode pairs, so a squeezer is
U^T and W^T on each row's even and odd positions, the rotations, then U and
W: a few stacked real products over every occupied row at once, the
complex amplitudes viewed as (re, im) pairs.  Any other theta is a diagonal
phase twist before and after.  A row is occupied when it holds more than
BRANCH_PRUNE_TOL of the state's weight; the squeezer multiplies those only
and trims the band after the last.  Each cutoff's bases live in zero-padded
stacks, a row built the first time it is occupied.  The second squeezer,
S(g e^{i pi}), is (-1)^{n_a} S(g) (-1)^{n_a}, and that sign twist
transposes each real block, which flips the sign of sin, so the two
squeezers share one rotation set per gain.  Every pipeline squeezes at the
one gain p.g, so only the rotations of the latest gain are cached: a new
gain drops the others, and a sweep along phi, beta or the transmittances
reuses them from point to point.  Bases hold no gain and stay.  Every
pipeline also starts from S1 |0, beta>, which depends on (g, beta, n_cut)
alone, so it is cached per cutoff for the latest (g, beta) and a sweep
along phi or the transmittances squeezes its input once per cutoff.  Every
cutoff ladder starts at DEFAULT_N_CUT, so it visits at most 16 cutoffs,
and these bound all three caches (see _TMS_BLOCK_CACHE and _INPUT_CACHE),
which evict nothing but another gain's or beta's entries.  The tests keep a
sub-stepped Taylor exponential of the same generator on the full grid as
an independent cross-check of the blockwise propagator, and LAPACK's dense
SVD with vectors as a reference for the bases.

The binomial loss law is one table, the squared Kraus amplitudes c^2
(:func:`_kraus_squares`), and every loss site reads it through that shift:
sheared, it is the loss table (:func:`_loss_weights`) by which
:func:`apply_loss` weighs and scales its Kraus images and :func:`numeric_cq`
sums the Kraus branches on its probe; transposed and sheared, it is the
thinning matrix of the output loss (:func:`thinning`).

Phase derivatives are exact: the phase shifter is the only element that
depends on phi, so right after it the state's tangent is i a†a |state>, and
every later element is linear and carries the tangent next to the state in
the same pass.  A normalization divides both by the norm, so every state
carries its raw tangent: the normalized state's differs from it by a real
multiple of the state, which neither QFI readout sees.  The output loss T2
follows the last element, so it acts on the joint photon-number table
P(n_a, n_b) and its phase derivative, all that subtraction and detection
read, as the binomial thinning of n_a (:func:`thinning`).  Subtraction is
read from the thinned table: a^m takes |n_a, n_b> to |n_a - m, n_b> with
weight n_a!/(n_a - m)!, so every order m is a reweighting of one table,
which :func:`subtracted_moments` reduces to a vector before it thins it.
The QFI and internal pipelines subtract with :func:`subtract_photons`, one
scaled shift of the band, which also cross-checks that reweighting.  The
QFI reads the subtracted output state itself: the paper's equivalent model
follows the subtraction with the phase-free S2†, which leaves a pure
state's QFI unchanged.

Every reported oracle number goes through :func:`converged_value`, which
climbs one fixed cutoff ladder from DEFAULT_N_CUT and accepts only when a
cutoff and the one LADDER_STEP above it agree.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np

from su11.errors import (ConvergenceError, LeakageError, NumericalError, ZeroProbabilityError, positive,
                         stationary)
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
# loss images, and squeezer rows kk = n_b - n_a, below this relative weight
# are dropped; the total dropped mass stays far below the 1e-12 trace
# bookkeeping tolerance.  The squeezer conserves each row's weight, so it
# drops exactly what it would carry
BRANCH_PRUNE_TOL = 1e-26
# the squeezer multiplies this many rows per stacked product, each group
# zero-padded only to its first (longest) row: padding every row to row 0's
# length doubled a squeeze of a lossy ensemble at n_cut ~ 110-180
TMS_ROWS_PER_PRODUCT = 8


# -- the state container -----------------------------------------------------


class Ensemble:
    """A two-mode state as per-row column sets, optionally with their tangent.

    ``data`` stores the band: ``data[kk, j, col]`` is the amplitude of
    |n_a, n_b> = |j, j + kk> in column col (positions j >= n_cut + 1 - kk
    are zero), or ``data[kk, j, 0 | 1, col]`` for the amplitudes and their
    d/dphi, so that a linear element acts on both in one pass and row kk is
    one contiguous slab.  The columns of row kk are unnormalized vectors
    whose outer products sum to the state's diagonal block rho_kk, the
    tangent's alike; a column of one row has nothing to do with the same
    column of another.  A pure state is one column across all rows, and
    :func:`apply_loss` fills the columns of a lossy one row by row, so the
    ensemble is as wide as the most columns any row holds.  The trace is the
    total squared norm.  ``amps`` and ``tangent`` are (col, kk, j) views.
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
        """(state, tangent) as (kk, j, col) views; the tangent is None when not carried."""
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
        """Total weight of every row's columns."""
        return float(np.sum(_weights(self.band()[0])))


def _weights(v: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Re <v|t> per (kk, j) of band amplitudes, summed over the columns; <v|v> by default."""
    x = v.view(np.float64)
    return np.einsum("...c,...c->...", x, x if t is None else t.view(np.float64))


def _sheared(a: np.ndarray) -> np.ndarray:
    """The (d, d) grid out[i, i + k] = a[i, k] of a (d, <= d) array, without the entries i + k >= d.

    Rows of d + 1 read back as rows of d move row i of ``a`` i places right;
    what passes column d - 1 wraps below the diagonal, which triu clears.
    """
    d, k = a.shape
    skewed = np.zeros((d, d + 1))
    skewed[:, :k] = a
    return np.triu(skewed.ravel()[: d * d].reshape(d, d))


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
    """Joint photon-number table P(n_a, n_b) over the columns, and its d/dphi; ValueError without a tangent.

    Each shears a per-(kk, j) band sum onto the grid: <v|v> of the state v, 2 Re <v|t> of its tangent t.
    """
    v, t = ens.band()
    if t is None:
        raise ValueError("photon_tables needs an ensemble that carries its phase tangent")
    return _sheared(_weights(v).T), _sheared(2.0 * _weights(v, t).T)


def thinning(T: float, d: int) -> np.ndarray | None:
    """The (d, d) matrix of mode-a loss of transmittance T on n_a, or None at T = 1.

    Loss thins n_a binomially: binom[k, n] = C(n, k) T^k (1 - T)^(n - k),
    so the table photon_tables reads after apply_loss is binom @ P, and its
    d/dphi table alike.  The matrix is the loss table of
    :func:`_loss_weights` with each column shifted to the survivors,
    binom[n - l, n] = w[l, n], so it reads :func:`_kraus_squares` transposed
    and sheared.  At T = 1 it would be the identity, and
    :func:`subtracted_moments` reads the tables as they are.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {T}")
    if T == 1.0:
        return None
    return _sheared(_kraus_squares(T, d).T)


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
    """Vacuum in mode a, coherent |beta> in mode b, as a one-column ensemble.

    |0, n> is row kk = n at position 0, so the band holds every row.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
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
# a basis holds zero-padded (sigma, U, W) stacks over the rows k < d - 1 of
# one cutoff, each row built the first time it is occupied; a block holds
# (cos, sin) stacks at one (gain, theta, cutoff), for the latest gain only
# (see _tms_blocks).  Every ladder starts at DEFAULT_N_CUT, so it visits at
# most 16 cutoffs, and nothing is evicted.  With every row of all 16 built,
# at one gain and theta, both caches together would hold 1.24e7 float64
# entries (99 MB).  The stacks are allocated zeroed, which on Linux leaves the
# rows never built without resident pages: fig2's ladders, which climb to the
# cap at g = 1, allocate 96 MB of bases over 13 cutoffs but build 26 rows of
# each, 17.5 MB, and leave 1.3 MB of blocks and 0.5 MB of squeezed inputs
# (_INPUT_CACHE).  Only tests squeeze at a nonzero theta, at cutoffs of at
# most 70


def _tms_basis(d: int, ks: Iterable[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacks (sigma, U, W) of half-size singular value decompositions, with the rows k in ks built.

    On row k, |n, n+k> (n = 0..s-1, s = d - k), the theta = 0 generator is
    g K_k, with K_k real, antisymmetric and tridiagonal: +c_n = sqrt((n + k)
    n) at (n - 1, n) and its negative at (n, n - 1).  It couples even n only
    to odd n, so in even/odd order K_k = [[0, C_k], [-C_k^T, 0]], where C_k,
    ((s + 1) // 2) x (s // 2), is lower bidiagonal: the even/odd coupling of
    the real symmetric Jacobi matrix J_k of the c_n, with the signs (-1)^(i+j)
    that the gauge D = diag((-i)^n) puts on it (D J_k D^-1 = i K_k).  With
    C_k = U_k diag(sigma_k) W_k^T (U_k square, so for odd s its last column
    spans the zero mode), the eigenvalues of J_k are +-sigma_k, plus 0 for
    odd s.

    LAPACK gives sigma_k only, one call per row.  The vectors are J_k's
    eigenvectors: at an eigenvalue lam, component n is J_k's n-th orthogonal
    polynomial (Meixner-Pollaczek) at lam, v_0 = 1, v_1 = lam / c_1 and
    v_{n+1} = (lam v_n - c_n v_{n-1}) / c_{n+1} (Golub & Welsch, Math. Comp.
    23, 221 (1969)).  The recurrence climbs from n = 0, where the solution
    grows, so it is stable.  It runs for every row of the call and every
    sigma (and 0 for odd s) at once, one position per step, each row
    dropping out at its length, and rescales the live rows as they grow
    (unscaled, they reach 1e121 at d = 189).  U's columns are the even
    components times (-1)^i, W's the odd ones times (-1)^j, each normalized;
    the zero mode is U's last column.  C_k depends on the cutoff alone, so
    each row of each cutoff is built once, the first time it is occupied,
    and serves every gain and phase.

    Row k is stored zero-padded at index k of (d - 1, d // 2) sigma, (d - 1,
    (d + 1) // 2, (d + 1) // 2) U and (d - 1, d // 2, d // 2) W stacks; the
    fourth array marks the rows built.  Row d - 1, |0, n_cut> alone, has
    nothing to couple to and no entry.
    """
    basis = _TMS_BASIS_CACHE.get(d)
    if basis is None:
        rows, e, o = d - 1, (d + 1) // 2, d // 2
        basis = (
            np.zeros((rows, o)), np.zeros((rows, e, e)), np.zeros((rows, o, o)), np.zeros(rows, bool)
        )
        _TMS_BASIS_CACHE[d] = basis
    sigma, u, w, built = basis
    todo = np.zeros(len(built), bool)
    todo[np.fromiter(ks, int)] = True
    ks = np.flatnonzero(todo & ~built)
    if not ks.size:
        return basis
    s = d - ks
    e, o = (s[0] + 1) // 2, s[0] // 2
    n = np.arange(s[0])[:, None]
    # c[n, r] = c_n of row ks[r]; rows are in order of falling length s
    c = np.sqrt(n * (n + ks))
    lam = np.zeros((len(ks), e))
    for r, (k, sk) in enumerate(zip(ks, s)):
        # C_k[i, i] = c_{2i+1} and C_k[i+1, i] = -c_{2i+2}
        coupling = np.zeros(((sk + 1) // 2, sk // 2))
        i = np.arange(sk // 2)
        coupling[i, i] = c[1:sk:2, r]
        i = i[: (sk - 1) // 2]
        coupling[i + 1, i] = -c[2:sk:2, r]
        sigma[k, : sk // 2] = lam[r, : sk // 2] = np.linalg.svd(coupling, compute_uv=False)
    # x_n = (-1)^(n // 2) v_n, the gauge signs of U and W folded in, obeys
    # x_n = (c_{n-1} x_{n-2} -+ lam x_{n-1}) / c_n, minus for even n; even n
    # go to even[n // 2] and odd n to odd[n // 2], as (rows, eigenvalues)
    # arrays.  The rows still live at position n, s > n, are a prefix
    live = np.count_nonzero(s > n, axis=1).tolist()
    c = c[:, :, None]
    signed_lam = (-lam, lam)
    even, odd = np.zeros((e, len(ks), e)), np.zeros((o, len(ks), e))
    even[0] = 1.0
    prev, cur, term = None, even[0], np.empty_like(lam)
    for n in range(1, s[0]):
        r = live[n]
        x = (odd if n % 2 else even)[n // 2, :r]
        np.multiply(signed_lam[n % 2][:r], cur[:r], out=x)
        if n > 1:
            np.multiply(c[n - 1, :r], prev[:r], out=term[:r])
            x += term[:r]
        x /= c[n, :r]
        prev, cur = cur, x
        # a step grows a pair (x_{n-1}, x_n) at most (2 d + 1)-fold, so 8
        # steps keep it under 1e122: rescale each live column to 1
        if n % 8 == 0 and np.abs(x).max() > 1e100:
            top = np.maximum(np.maximum(np.abs(x), np.abs(prev[:r])), 1.0)
            even[:, :r] /= top
            odd[:, :r] /= top
    # normalized, and zero in the columns past each row's own e and o
    cols = np.arange(e)
    for x, size in ((even, (s + 1) // 2), (odd, s // 2)):
        scale = np.zeros(x.shape[1:])
        np.divide(1.0, np.sqrt(np.einsum("nrc,nrc->rc", x, x)), out=scale, where=cols < size[:, None])
        x *= scale
    u[ks, :e, :e], w[ks, :o, :o] = even.transpose(1, 0, 2), odd[:, :, :o].transpose(1, 0, 2)
    built[ks] = True
    return basis


def _tms_blocks(
    g: float, theta: float, d: int, ks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos, sin) of g sigma over the basis stacks, with the rows k in ks built, and the rows they hold.

    In even/odd order the theta = 0 block of row k is exp(g K_k) (see
    :func:`_tms_basis`),

        [[U cos U^T,  U sin W^T],
         [-W sin U^T, W cos W^T]],   cos, sin = cos(g sigma_k), sin(g sigma_k),

    with cos = 1 on the zero mode of odd s: the exact exponential of the
    truncated generator.  Per gain it is only the 2 x 2 rotations (cos, sin)
    of the pairs of modes sigma_k couples; :func:`_apply_tms_raw` applies
    U^T and W^T, rotates and applies U and W.  Any other theta is the
    diagonal twist E exp(g K_k) E^-1, E = diag(e^{-i n theta}), applied to
    the state, so the blocks are the same at every theta.  A zero-padded
    sigma gives cos 1 and sin 0, which leaves the padding and the zero modes
    in place.

    The cache keeps the blocks of one gain: every pipeline squeezes at a
    single gain, so blocks of any other gain are dropped before this gain's
    are looked up.  Returning to a dropped gain recomputes its blocks from
    the cached bases, without a new decomposition.
    """
    g = float(g)
    for key in [key for key in _TMS_BLOCK_CACHE if key[0] != g]:
        del _TMS_BLOCK_CACHE[key]
    key = (g, float(theta), int(d))
    blocks = _TMS_BLOCK_CACHE.get(key)
    if blocks is None or not blocks[2][ks].all():
        sigma, _, _, built = _tms_basis(d, ks)
        blocks = _TMS_BLOCK_CACHE[key] = (np.cos(g * sigma), np.sin(g * sigma), built.copy())
    return blocks


def _apply_tms_raw(
    data: np.ndarray, g: float, theta: float, state: np.ndarray | None = None, mirror: bool = False
) -> np.ndarray:
    """Exact exponential of the truncated two-mode-squeezing generator on band data.

    ``data`` is (kk, j, ...) band data (see :class:`Ensemble`): row kk's
    positions j < d - kk, with every later axis (tangent, columns) folded
    into its columns, are one contiguous complex slab, viewed as real (re,
    im) pairs.  The occupied rows are squeezed together, TMS_ROWS_PER_PRODUCT
    rows to a stacked product over the basis stacks: U^T on the even
    positions and W^T on the odd ones, the rotations of :func:`_tms_blocks`,
    then U and W.  A state, a stack and a stack with its tangent take one
    path.  A row is occupied when it holds more than BRANCH_PRUNE_TOL of the
    weight of ``state`` (``data`` itself by default); the squeezer conserves
    each row's weight, so every other row is zero in the output, which ends
    at the last occupied row.  Weights that are not finite raise
    NumericalError.

    A nonzero theta twists position j by e^{i j theta} before the blocks and
    by e^{-i j theta} after them.  With ``mirror`` (see :func:`apply_tms`)
    each block is transposed, which flips the sign of sin: (-1)^j r (-1)^j =
    r^T for the real rotation r of a tridiagonal antisymmetric generator.
    """
    if g == 0.0:
        return data.copy()
    data = np.ascontiguousarray(data)
    state = data if state is None else state
    d = data.shape[1]
    weight = _weights(state).reshape(len(state), -1).sum(axis=1)
    if not np.all(np.isfinite(weight)):
        raise NumericalError(f"squeezer input at n_cut={d - 1} holds non-finite amplitudes")
    occupied = weight > BRANCH_PRUNE_TOL * max(weight.sum(), 1e-300)
    held = np.flatnonzero(occupied)
    first, rows = (held[0], held[-1] + 1) if held.size else (0, 1)
    out = np.zeros((rows,) + data.shape[1:], data.dtype)
    x = data[:rows]
    if theta != 0.0:
        x = x * _column(np.exp(1j * theta * np.arange(d)), x.ndim)
    # row d - 1, |0, n_cut>, has nothing to couple to and is left in place
    coupled = min(rows, d - 1)
    cos, sin, _ = _tms_blocks(g, theta, d, np.flatnonzero(occupied[:coupled]))
    _, u, w, _ = _TMS_BASIS_CACHE[d]
    cos, sin = cos[:, :, None], (-sin if mirror else sin)[:, :, None]
    xr = x.reshape(rows, d, -1).view(np.float64)
    yr = out.reshape(rows, d, -1).view(np.float64)
    for top in range(first, coupled, TMS_ROWS_PER_PRODUCT):
        # no row after top is longer: row top's sizes bound the group's
        g_rows = slice(top, min(top + TMS_ROWS_PER_PRODUCT, coupled))
        e, o = (d - top + 1) // 2, (d - top) // 2
        ug, wg, c, sn = u[g_rows, :e, :e], w[g_rows, :o, :o], cos[g_rows, :o], sin[g_rows, :o]
        a = np.matmul(ug.transpose(0, 2, 1), xr[g_rows, 0 : 2 * e : 2])
        b = np.matmul(wg.transpose(0, 2, 1), xr[g_rows, 1 : 2 * o : 2])
        # rotate each pair of modes in place: (a, b) -> (c a + sn b, c b - sn a)
        paired, turned = a[:, :o], sn * b
        b *= c
        b -= sn * paired
        paired *= c
        paired += turned
        np.matmul(ug, a, out=yr[g_rows, 0 : 2 * e : 2])
        np.matmul(wg, b, out=yr[g_rows, 1 : 2 * o : 2])
    yr[coupled:] = xr[coupled:]
    out[~occupied[:rows]] = 0.0
    if theta != 0.0:
        out *= _column(np.exp(-1j * theta * np.arange(d)), out.ndim)
    return out


def apply_tms(x: Ensemble, g: float, theta: float, mirror: bool = False) -> Ensemble:
    """Two-mode squeezer on every column.

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


def _kraus_squares(T: float, d: int) -> np.ndarray:
    """c[l, n]^2 = C(n + l, l) (1 - T)^l T^n: K_l ~ T^{n/2} a^l takes |n + l> to c[l, n] |n>, c one cumprod."""
    n = np.arange(d)
    l = np.arange(1, d)[:, None]
    return np.square(np.cumprod(np.vstack((T ** (0.5 * n), np.sqrt((1.0 - T) * (n + l) / l))), axis=0))


def _loss_weights(T: float, d: int) -> np.ndarray:
    """w[l, n] = C(n, l) (1 - T)^l T^(n - l): the probability that mode-a loss takes l of n photons.

    (d, d) and zero for n < l, read by :func:`apply_loss` and
    :func:`numeric_cq`: :func:`_kraus_squares` sheared, w[l, l + n] = c[l, n]^2.
    """
    return _sheared(_kraus_squares(T, d))


def apply_loss(x: Ensemble, T: float) -> Ensemble:
    """Photon loss on mode a: expand into the full Kraus set K_l ~ T^{n/2} a^l.

    T lies in [0, 1].  K_l moves row kk to kk + l and position j to j - l,
    scaled by the square root of the loss table (:func:`_loss_weights`),
    so each column of row kk has one image row per order l, and each image
    row is written into the next free column of its output row, in order of
    l and then of the input column: the output is as wide as the most images
    any row holds (see :class:`Ensemble`).  Trace is preserved (the channel
    is CPTP); image rows of negligible weight are pruned, each tangent with
    its state, on the state's weight.  At T = 0 every photon of mode a is
    lost: T^{n/2} is [1, 0, ...], so order l holds n_a = l moved to n_a = 0.
    At T = 1 the channel is the identity and the input is returned as it
    is, not copied, so no element may write into its input.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {T}")
    if T == 1.0:
        return x
    d = x.n_cut + 1
    w = _loss_weights(T, d)
    v = x.band()[0]
    # the weight of every image row, (order, input row, column), before any is built
    weight = np.moveaxis(w @ (v.real**2 + v.imag**2), 1, 0)
    orders, src, cols = np.nonzero(weight > BRANCH_PRUNE_TOL * max(x.trace(), 1e-300))
    dest = orders + src
    # images land in (order, input row, column) order; each takes the next
    # free column of its output row
    per_row = np.bincount(dest, minlength=1)
    first = np.cumsum(per_row) - per_row
    rank = np.empty_like(dest)
    rank[np.argsort(dest, kind="stable")] = np.arange(len(dest))
    slot = rank - first[dest]
    out = np.zeros((len(per_row),) + x.data.shape[1:-1] + (per_row.max(),), x.data.dtype)
    bounds = np.searchsorted(orders, np.arange(len(w) + 1))
    for l in np.flatnonzero(np.diff(bounds)):
        i = slice(bounds[l], bounds[l + 1])
        image = _column(np.sqrt(w[l, l:]), x.data.ndim - 1) * x.data[src[i], l:, ..., cols[i]]
        out[dest[i], : d - l, ..., slot[i]] = image
    return Ensemble(out)


def subtract_photons(ens: Ensemble, m: int) -> Ensemble:
    """Apply a^m to every column and renormalize.

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
    weights = _sheared(_weights(ens.band()[0]).T).sum(axis=1 if mode == "a" else 0)
    n = np.arange(len(weights))
    return float(np.sum(n * weights)), float(np.sum(n * n * weights))


def subtracted_moments(
    table: np.ndarray, dtable: np.ndarray, m: int, mode: str, binom: np.ndarray | None = None
) -> Tuple[float, float, float, float]:
    """(probability, mean, second moment, d mean/dphi) after a^m, from the tables thinned by ``binom``.

    a^m takes |n_a, n_b> to |n_a - m, n_b> with amplitude factor
    sqrt(n_a!/(n_a - m)!), so the subtracted state's photon-number table is
    the falling factorial n_a!/(n_a - m)! times P, shifted down by m in n_a.
    The output loss ``binom`` (:func:`thinning`, None for none) acts on n_a
    alone, so it thins the n_a marginal for mode a, and for mode b it turns
    the falling-factorial row into weight @ binom: the thinned table
    binom @ P is never formed.
    """
    n = np.arange(table.shape[0], dtype=float)
    weight = np.prod(n[:, None] - np.arange(m)[None, :], axis=1)
    if mode == "a":
        k = n - m
        marg, dmarg = table.sum(axis=1), dtable.sum(axis=1)
        if binom is not None:
            marg, dmarg = binom @ marg, binom @ dmarg
        marg, dmarg = weight * marg, weight * dmarg
    else:
        k = n
        if binom is not None:
            weight = weight @ binom
        marg, dmarg = weight @ table, weight @ dtable
    prob = _subtraction_probability(float(marg.sum()), float(table.sum()), m)
    mean = float(k @ marg) / prob
    second = float((k * k) @ marg) / prob
    dmean = (float(k @ dmarg) - mean * float(dmarg.sum())) / prob
    return prob, mean, second, dmean


# -- pipelines ----------------------------------------------------------------


_INPUT_CACHE: dict = {}
# S1 |0, beta> per (g, beta, n_cut), for the latest (g, beta) only: a
# read-only Ensemble, or the message of the LeakageError its construction
# raised (a cached exception would keep its traceback's frames alive).  Like
# the blocks, it holds at most the 16 ladder cutoffs, each at most d x d
# complex entries: 2.8 MB in all


def _squeezed_input(p: Params, n_cut: int) -> Ensemble:
    """S1 |0, beta>, where every pipeline starts; an infinite g or beta, which
    ``Params`` admits and which would leave a NaN grid, raises NumericalError.

    It depends on (g, beta, n_cut) alone, so it is built once per cutoff for
    the latest (g, beta), and a sweep along phi or the transmittances reuses
    it from point to point; a new (g, beta) drops the others.  A cutoff that
    leaks raises the same LeakageError each time.
    """
    if not (math.isfinite(p.g) and math.isfinite(p.beta)):
        raise NumericalError(f"the oracle needs a finite g and beta, got g = {p.g}, beta = {p.beta}")
    g, beta = float(p.g), float(p.beta)
    for key in [key for key in _INPUT_CACHE if key[:2] != (g, beta)]:
        del _INPUT_CACHE[key]
    key = (g, beta, n_cut)
    if key not in _INPUT_CACHE:
        try:
            st = apply_tms(prepare_input(beta, n_cut), g, 0.0)
            st.data.flags.writeable = False
            _INPUT_CACHE[key] = st
        except LeakageError as exc:
            _INPUT_CACHE[key] = str(exc)
    st = _INPUT_CACHE[key]
    if isinstance(st, str):
        raise LeakageError(st)
    return st


def output_ensemble(p: Params, n_cut: int) -> Ensemble:
    """State after the second squeezer, before the output loss: S2 U_phi loss(T1) S1 |0, beta>.

    The internal loss T1 is a full Kraus set, since S2 follows it; the
    output loss T2 is applied to this state's photon-number tables
    (:func:`thinning`).  It carries its exact phase tangent from U_phi on.
    """
    ens = apply_loss(_squeezed_input(p, n_cut), p.T1)
    ens = _seed_tangent(apply_phase(ens, p.phi))
    return apply_tms(ens, p.g, 0.0, mirror=True)


def loss_probe_state(p: Params, n_cut: int) -> Ensemble:
    """Normalized extended-system probe: N3 (sqrt(eta) e^{i phi} cosh g a + sinh g b†)^m S1 |0, beta>.

    Its norm is judged, and its tangent scaled, as in :func:`subtract_photons`:
    the tangent is the raw d/dphi over the norm, without the norm's own
    derivative, a real multiple of the probe that C_Q does not see.
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
    return Ensemble(data / math.sqrt(_subtraction_probability(Ensemble(data).trace(), st.trace(), p.m)))


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
    builds the output loss's thinning once, and reads every m from the
    joint photon-number table and its derivative thinned by it.
    """
    _check_mode(mode)
    m_list = list(m_list)

    def run(n: int):
        table, dtable = photon_tables(output_ensemble(p, n))
        binom = thinning(p.T2, n + 1)
        rows = []
        for m in m_list:
            _, mean, second, dmean = subtracted_moments(table, dtable, m, mode, binom)
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


def numeric_cq(p: Params, alpha: float) -> float:
    """Extended-system QFI upper bound C_Q at Kraus placement alpha, end to end.

    It reads the probe Psi of :func:`loss_probe_state` with its raw tangent Psi', and the
    loss table w[l, J] of :func:`_loss_weights`.  The Kraus branches chi_l = e^{i phi (n_a
    - alpha l)} K_l |Psi> and their tangents give 4 [sum <chi'|chi'> - |sum <chi'|chi>|^2].
    K_l scales source position J = n_a + l by c[l, J - l], so with the rate r = J - (1 +
    alpha) l and the per-position sums A(J) = sum |Psi'|^2, B(J) = sum Psi'* Psi and C(J) =
    sum |Psi|^2, the branch sums are sum w (A - 2 r Im B + r^2 C) and sum w (B - i r C); the
    phase e^{i phi r} cancels in both.  An empty probe is a ZeroProbabilityError, and a C_Q
    not positive and finite (a huge alpha, or no photons in mode a) a NumericalError, both
    at the first cutoff.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")

    def run(n: int):
        psi, dpsi = loss_probe_state(p, n).band()
        a, c = _weights(dpsi).sum(axis=0), _weights(psi).sum(axis=0)
        b = np.einsum("kjc,kjc->j", dpsi.conj(), psi)
        w = _loss_weights(p.eta, n + 1)
        l = np.arange(len(w))[:, None]
        rate = np.arange(n + 1) - l - alpha * l
        with np.errstate(over="ignore", invalid="ignore"):
            t_dd = np.sum(w * (a - 2.0 * rate * b.imag + rate * rate * c))
            t_dc = np.sum(w * (b - 1j * rate * c))
            cq = float(4.0 * (t_dd - (t_dc.real**2 + t_dc.imag**2)))
        return (positive(cq, "C_Q"),)

    return float(converged_value(run, rtol=1e-7)[0])


def numeric_internal_photon_number(p: Params) -> float:
    """Converged <n_a + n_b> of the internal state."""

    def run(n: int):
        w = _weights(internal_ensemble(p, n).band()[0])
        kk, j = np.indices(w.shape)
        return (float(np.sum((kk + 2 * j) * w)),)

    return float(converged_value(run)[0])
