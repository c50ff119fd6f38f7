"""Brute-force two-mode Fock-space simulator: ground truth at desk scale.

States live on a truncated grid ``amps[n_a, n_b]`` with per-mode cutoff
``n_cut``.  Loss channels expand pure states into Kraus branches; the whole
branch set is carried as one tensor with a leading branch axis so that
unitaries vectorize across branches.

The simulator deliberately implements each pipeline element literally (the
two-mode squeezer as the exact exponential of the truncated sparse
generator, loss as the full Kraus set, subtraction as repeated lowering) so
that it shares no algebra with the closed-form calculator it verifies.  The
squeezer's generator splits into tridiagonal blocks along the grid
diagonals; a diagonal phase gauge makes each block the gain times a real
symmetric matrix that depends on the cutoff alone, so one real
eigendecomposition per diagonal and cutoff serves every gain and phase.  A
sub-stepped Taylor exponential of the same generator is kept as an
independent cross-check of the blockwise propagator.

Every reported oracle number goes through :func:`converged_value`, which
recomputes at a larger cutoff and accepts only when the two agree.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from su11.errors import (
    ConvergenceError,
    LeakageError,
    StationaryPointError,
    ZeroProbabilityError,
)
from su11.model import Params

DEFAULT_N_CUT = 30
# (g = 1, beta = 1, phi = 1.0, m = 3) needs n_cut ~ 170 before consecutive
# cutoffs agree to 1e-8; the ladder climbs geometrically up to this cap
MAX_N_CUT = 200
LEAKAGE_TOL = 1e-10
# ensemble branches below this relative weight are dropped; the total dropped
# mass stays far below the 1e-12 trace bookkeeping tolerance
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


def _edge_mass(amps: np.ndarray) -> float:
    """Probability mass with either mode in its top two Fock layers."""
    total = float(np.sum(np.abs(amps) ** 2))
    interior = float(np.sum(np.abs(amps[..., :-2, :-2]) ** 2))
    return total - interior


# -- state containers ---------------------------------------------------------


class FockState:
    """Pure two-mode state on the truncated grid (amps indexed n_a, n_b)."""

    __slots__ = ("n_cut", "amps")

    def __init__(self, n_cut: int, amps: np.ndarray):
        self.n_cut = int(n_cut)
        self.amps = amps

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


class BranchEnsemble:
    """Weight-carrying pure branches of a lossy evolution.

    ``amps`` has shape (branches, n_cut+1, n_cut+1); branch weights are the
    squared norms of the unnormalized branch amplitudes.  ``subtract_prob``
    records the success probability of the photon subtraction that produced
    this ensemble (1.0 if none).
    """

    __slots__ = ("n_cut", "amps", "subtract_prob")

    def __init__(self, n_cut: int, amps: np.ndarray, subtract_prob: float = 1.0):
        self.n_cut = int(n_cut)
        self.amps = amps
        self.subtract_prob = float(subtract_prob)

    def total_trace(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def as_ensemble(state: FockState) -> BranchEnsemble:
    return BranchEnsemble(state.n_cut, state.amps[None, :, :].copy())


# -- preparation and pipeline elements ----------------------------------------


def prepare_input(beta: float, n_cut: int) -> FockState:
    """Vacuum in mode a, coherent |beta> in mode b."""
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
    return FockState(n_cut, amps)


def _apply_tms_series(amps: np.ndarray, g: float, theta: float) -> np.ndarray:
    """exp(xi ab - xi* a†b†) with xi = g e^{i theta}, by sub-stepped Taylor sums.

    The generator norm grows like |xi| * n_cut, so it is split into enough
    substeps that each local series converges far below 1e-14.  Kept as a
    slow cross-check of the blockwise propagator.
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


_TMS_BLOCK_CACHE: dict = {}
_TMS_BASIS_CACHE: dict = {}
# one budget, in complex entries, bounds both caches (a real entry counts
# half).  Blocks are only two real matrix products per diagonal away from
# their basis, so they are evicted first (least recent first); a basis holds
# the eigendecompositions and serves every gain and phase at its cutoff, so
# bases go only once no blocks are left
_TMS_CACHE_BUDGET = 1.2e7


def _block_entries(d: int) -> float:
    """Complex entries of the blocks at cutoff d: the sum of (d - k)^2."""
    return d * (d + 1) * (2 * d + 1) / 6.0


def _basis_entries(d: int) -> float:
    """Complex-entry equivalents of a basis: real vectors and eigenvalues."""
    return (_block_entries(d) + d * (d + 1) / 2.0) / 2.0


def _cached(cache: dict, key):
    """cache[key], marked most recent, or None."""
    value = cache.get(key)
    if value is not None:
        cache[key] = cache.pop(key)
    return value


def _make_room(entries: float) -> None:
    """Evict until a new cache entry of this size fits the shared budget."""

    def used() -> float:
        blocks = sum(_block_entries(key[2]) for key in _TMS_BLOCK_CACHE)
        return blocks + sum(_basis_entries(d) for d in _TMS_BASIS_CACHE)

    while used() + entries > _TMS_CACHE_BUDGET:
        cache = _TMS_BLOCK_CACHE or _TMS_BASIS_CACHE
        if not cache:
            return
        cache.pop(next(iter(cache)))  # evict least recent


def _tms_basis(d: int) -> list:
    """Eigenpairs (lambda_k, V_k) of the real tridiagonal J_k, k = 0..d-1.

    J_k couples |n-1+k, n-1> and |n+k, n> with sqrt((n + k) n); it depends
    on the cutoff alone, so one basis serves every gain and phase.
    """
    basis = _cached(_TMS_BASIS_CACHE, d)
    if basis is None:
        basis = []
        for k in range(d):
            n = np.arange(1, d - k)
            j = np.diag(np.sqrt((n + k) * n), 1)
            basis.append(np.linalg.eigh(j + j.T))
        _make_room(_basis_entries(d))
        _TMS_BASIS_CACHE[d] = basis
    return basis


def _tms_blocks(g: float, theta: float, d: int) -> List[np.ndarray]:
    """Propagator blocks of exp(xi ab - xi* a†b†) on the truncated grid.

    The generator conserves n_a - n_b, so it block-diagonalizes over the
    grid diagonals; by the a <-> b symmetry one block serves a diagonal and
    its mirror.  On |n+k, n> (n = 0..d-1-k) it is the tridiagonal
    -i g D J_k D^-1, with D = diag(e^{i n psi}), psi = -pi/2 - theta, and
    J_k the real symmetric matrix of sqrt((n + k) n).  With (lambda_k, V_k)
    the eigenbasis of J_k, the block is D V_k diag(e^{-i g lambda_k}) V_k^T
    D^-1: the exact (unitary) exponential of the truncated generator,
    matching the sub-stepped series to roundoff.
    """
    key = (float(g), float(theta), int(d))
    blocks = _cached(_TMS_BLOCK_CACHE, key)
    if blocks is not None:
        return blocks
    gauge = np.exp(1j * (-0.5 * math.pi - theta) * np.arange(d))
    blocks = []
    for lam, v in _tms_basis(d):
        size = lam.size
        u = np.empty((size, size), complex)
        u.real = (v * np.cos(g * lam)) @ v.T
        u.imag = (v * -np.sin(g * lam)) @ v.T
        u *= gauge[:size, None] * gauge[:size].conj()
        blocks.append(u)
    _make_room(_block_entries(d))
    _TMS_BLOCK_CACHE[key] = blocks
    return blocks


def _apply_tms_raw(amps: np.ndarray, g: float, theta: float) -> np.ndarray:
    """Exact exponential of the truncated two-mode-squeezing generator."""
    if g == 0.0:
        return amps.copy()
    d = amps.shape[-1]
    blocks = _tms_blocks(g, theta, d)
    # on the grid flattened to (..., d*d), diagonal |n+k, n> is the stride
    # d+1 run from k*d, and its mirror |n, n+k> the run from k
    flat = amps.reshape(amps.shape[:-2] + (d * d,))
    out = np.empty_like(flat)
    for k, block in enumerate(blocks):
        p_t = block.T
        diag = slice(k * d, d * d, d + 1)
        out[..., diag] = flat[..., diag] @ p_t
        if k > 0:
            mirror = slice(k, (d - k) * d, d + 1)
            out[..., mirror] = flat[..., mirror] @ p_t
    return out.reshape(amps.shape)


def apply_tms(x, g: float, theta: float):
    """Two-mode squeezer on a state or every branch of an ensemble."""
    amps = _apply_tms_raw(x.amps, g, theta)
    total = float(np.sum(np.abs(amps) ** 2))
    if total > 0 and _edge_mass(amps) > LEAKAGE_TOL * total:
        raise LeakageError(
            f"top-layer mass {_edge_mass(amps) / total:.2e} after squeezer at n_cut={x.n_cut}"
        )
    if isinstance(x, BranchEnsemble):
        return BranchEnsemble(x.n_cut, amps, x.subtract_prob)
    return FockState(x.n_cut, amps)


def apply_phase(x, phi: float):
    """e^{i phi a†a} on mode a."""
    d = x.amps.shape[-2]
    ph = np.exp(1j * phi * np.arange(d))
    amps = x.amps * ph[:, None]
    if isinstance(x, BranchEnsemble):
        return BranchEnsemble(x.n_cut, amps, x.subtract_prob)
    return FockState(x.n_cut, amps)


def apply_loss(x, T: float) -> BranchEnsemble:
    """Photon loss on mode a: expand into the full Kraus set K_l ~ T^{n/2} a^l.

    Trace is preserved (the channel is CPTP); branches of negligible weight
    are pruned.
    """
    if not 0.0 < T <= 1.0:
        raise ValueError(f"transmittance must lie in (0, 1], got {T}")
    ens = x if isinstance(x, BranchEnsemble) else as_ensemble(x)
    if T == 1.0:
        return BranchEnsemble(ens.n_cut, ens.amps.copy(), ens.subtract_prob)
    d = ens.n_cut + 1
    t_pow = T ** (0.5 * np.arange(d))
    out_blocks = []
    cur = ens.amps
    w = 1.0
    total_in = ens.total_trace()
    for l in range(d):
        if l > 0:
            cur = lower_a(cur)
            w *= math.sqrt((1.0 - T) / l)
            if not np.any(cur):
                break
        block = (w * t_pow[:, None]) * cur
        norms = np.sum(np.abs(block) ** 2, axis=(-2, -1))
        keep = norms > BRANCH_PRUNE_TOL * max(total_in, 1e-300)
        if np.any(keep):
            out_blocks.append(block[keep])
    return BranchEnsemble(ens.n_cut, np.concatenate(out_blocks, axis=0), ens.subtract_prob)


def subtract_photons(ens: BranchEnsemble, m: int) -> BranchEnsemble:
    """Apply a^m to every branch, record the success probability, renormalize."""
    if m < 0:
        raise ValueError("m must be non-negative")
    trace_in = ens.total_trace()
    amps = ens.amps
    for _ in range(m):
        amps = lower_a(amps)
    prob = float(np.sum(np.abs(amps) ** 2))
    # squared amplitudes carry ~1e-28 truncation-roundoff residue, so "zero
    # probability" is judged relative to the incoming trace
    if prob < 1e-24 * max(trace_in, 1e-300):
        raise ZeroProbabilityError(f"subtraction of {m} photons has zero probability")
    return BranchEnsemble(ens.n_cut, amps / math.sqrt(prob), prob)


def moments(ens: BranchEnsemble, mode: str = "a") -> Tuple[float, float]:
    """(mean, second moment) of the photon number in the given mode."""
    axis_other = -1 if mode == "a" else -2
    if mode not in ("a", "b"):
        raise ValueError("mode must be 'a' or 'b'")
    weights = np.sum(np.abs(ens.amps) ** 2, axis=(0, axis_other))
    n = np.arange(weights.shape[0])
    return float(np.sum(n * weights)), float(np.sum(n * n * weights))


# -- pipelines ----------------------------------------------------------------


def output_ensemble(p: Params, n_cut: int, phi: float | None = None) -> BranchEnsemble:
    """State at the output port before subtraction: loss(T2) S2 U_phi loss(T1) S1 |0, beta>."""
    ph = p.phi if phi is None else phi
    st = prepare_input(p.beta, n_cut)
    st = apply_tms(st, p.g, 0.0)
    ens = apply_loss(st, p.T1)
    ens = apply_phase(ens, ph)
    ens = apply_tms(ens, p.g, math.pi)
    ens = apply_loss(ens, p.T2)
    return ens


def equivalent_state(p: Params, n_cut: int, phi: float | None = None) -> FockState:
    """Normalized equivalent-model state: N1 (S2† a^m S2) U_phi S1 |0, beta>."""
    ph = p.phi if phi is None else phi
    st = prepare_input(p.beta, n_cut)
    st = apply_tms(st, p.g, 0.0)
    st = apply_phase(st, ph)
    st = apply_tms(st, p.g, math.pi)
    amps = st.amps
    for _ in range(p.m):
        amps = lower_a(amps)
    if float(np.sum(np.abs(amps) ** 2)) < 1e-24:
        raise ZeroProbabilityError("equivalent-model state has zero norm")
    st = apply_tms(FockState(n_cut, amps), p.g, 0.0)
    nrm2 = st.norm2()
    return FockState(n_cut, st.amps / math.sqrt(nrm2))


def loss_probe_state(p: Params, n_cut: int, phi: float | None = None) -> FockState:
    """Normalized extended-system probe: N3 (sqrt(eta) e^{i phi} cosh g a + sinh g b†)^m S1 |0, beta>."""
    ph = p.phi if phi is None else phi
    st = prepare_input(p.beta, n_cut)
    st = apply_tms(st, p.g, 0.0)
    ca = math.sqrt(p.eta) * math.cosh(p.g) * complex(math.cos(ph), math.sin(ph))
    cb = math.sinh(p.g)
    amps = st.amps
    for _ in range(p.m):
        amps = ca * lower_a(amps) + cb * raise_b(amps)
    nrm2 = float(np.sum(np.abs(amps) ** 2))
    if nrm2 < 1e-24:
        raise ZeroProbabilityError("loss-equivalent probe state has zero norm")
    return FockState(n_cut, amps / math.sqrt(nrm2))


def internal_ensemble(p: Params, n_cut: int) -> BranchEnsemble:
    """Normalized internal state: N4 (S2† a^m S2) U_phi loss(T1) S1 |0, beta>."""
    st = prepare_input(p.beta, n_cut)
    st = apply_tms(st, p.g, 0.0)
    ens = apply_loss(st, p.T1)
    ens = apply_phase(ens, p.phi)
    ens = apply_tms(ens, p.g, math.pi)
    amps = ens.amps
    for _ in range(p.m):
        amps = lower_a(amps)
    if float(np.sum(np.abs(amps) ** 2)) < 1e-24:
        raise ZeroProbabilityError("internal state has zero norm")
    ens = apply_tms(BranchEnsemble(n_cut, amps), p.g, 0.0)
    prob = ens.total_trace()
    return BranchEnsemble(n_cut, ens.amps / math.sqrt(prob), prob)


# -- convergence protocol ------------------------------------------------------


def converged_value(
    fn: Callable[[int], Sequence[float]],
    n_cut: int = DEFAULT_N_CUT,
    step: int = 5,
    n_max: int = MAX_N_CUT,
    rtol: float = 1e-8,
    growth: float = 1.3,
) -> np.ndarray:
    """Accept fn(n) only when fn(n) and fn(n + step) agree to rtol.

    Leakage failures and failed agreement both climb the cutoff ladder
    geometrically (highly squeezed corners need cutoffs well above the
    starting point).  Raises ConvergenceError when the ladder is exhausted.
    """
    n = n_cut
    while n <= n_max:
        try:
            a = np.atleast_1d(np.asarray(fn(n), dtype=float))
            b = np.atleast_1d(np.asarray(fn(n + step), dtype=float))
        except LeakageError:
            n = max(n + step, int(n * growth))
            continue
        denom = np.maximum(np.abs(b), 1e-30)
        if np.all(np.abs(b - a) / denom < rtol):
            return b
        n = max(n + step, int(n * growth))
    raise ConvergenceError(
        f"oracle did not converge to rtol={rtol} within n_cut <= {n_max}"
    )


# -- numeric estimators (the oracle's public surface) --------------------------


def numeric_moments_multi(
    p: Params,
    m_list: Iterable[int],
    mode: str = "a",
    dphi_step: float = 1e-4,
    n_cut: int = DEFAULT_N_CUT,
    rtol: float = 1e-8,
) -> dict:
    """Converged (delta_phi, mean, second) per subtraction order, sharing pipelines.

    The three phase points of the central difference are each run once and
    reused for every m.
    """
    if not 1e-6 <= dphi_step <= 1e-3:
        raise ValueError("dphi_step must lie in [1e-6, 1e-3]")
    m_list = list(m_list)

    def run(n: int):
        rows = []
        ens_mid = output_ensemble(p, n)
        ens_hi = output_ensemble(p, n, phi=p.phi + dphi_step)
        ens_lo = output_ensemble(p, n, phi=p.phi - dphi_step)
        for m in m_list:
            mean, second = moments(subtract_photons(ens_mid, m), mode)
            mean_hi, _ = moments(subtract_photons(ens_hi, m), mode)
            mean_lo, _ = moments(subtract_photons(ens_lo, m), mode)
            dmean = (mean_hi - mean_lo) / (2.0 * dphi_step)
            var = second - mean * mean
            if abs(dmean) < 1e-12 * abs(mean) or dmean == 0.0:
                raise StationaryPointError(
                    f"oracle: d<N>/dphi vanishes at phi={p.phi}, m={m}"
                )
            rows.append((math.sqrt(max(var, 0.0)) / abs(dmean), mean, second))
        return np.asarray(rows).ravel()

    flat = converged_value(run, n_cut=n_cut, rtol=rtol)
    rows = flat.reshape(len(m_list), 3)
    return {
        m: {"delta_phi": rows[i, 0], "mean": rows[i, 1], "second": rows[i, 2]}
        for i, m in enumerate(m_list)
    }


def numeric_sensitivity(
    p: Params, mode: str = "a", dphi_step: float = 1e-4, n_cut: int = DEFAULT_N_CUT
) -> float:
    """Error-propagation phase uncertainty from oracle moments (radians)."""
    return numeric_moments_multi(p, [p.m], mode, dphi_step, n_cut)[p.m]["delta_phi"]


def numeric_qfi_pure(
    p: Params, dphi_step: float = 1e-3, n_cut: int = DEFAULT_N_CUT
) -> float:
    """Fidelity-based QFI of the pure equivalent-model state.

    F = 8 (1 - |<psi(phi)|psi(phi+d)>|) / d^2, Richardson-extrapolated over
    d and d/2.
    """

    def run(n: int):
        psi0 = equivalent_state(p, n)

        def f_of(delta: float) -> float:
            psi_d = equivalent_state(p, n, phi=p.phi + delta)
            fid = abs(np.vdot(psi0.amps, psi_d.amps))
            return 8.0 * (1.0 - fid) / delta**2

        f1 = f_of(dphi_step)
        f2 = f_of(dphi_step / 2.0)
        return ((4.0 * f2 - f1) / 3.0,)

    return float(converged_value(run, n_cut=n_cut)[0])


def _kraus_branch_states(
    amps: np.ndarray, eta: float, alpha: float, phi: float
) -> List[np.ndarray]:
    """All Kraus branches Pi_l(phi) |state> of the mode-a loss channel."""
    d = amps.shape[-2]
    eta_pow = eta ** (0.5 * np.arange(d))
    out = []
    cur = amps
    w = 1.0
    for l in range(d):
        if l > 0:
            cur = lower_a(cur)
            w *= math.sqrt((1.0 - eta) / l)
            if w == 0.0 or not np.any(cur):
                break
        ph = np.exp(1j * phi * (np.arange(d) - alpha * l))
        out.append((w * eta_pow * ph)[:, None] * cur)
    return out


def numeric_cq(
    p: Params, dphi_step: float = 1e-4, n_cut: int = DEFAULT_N_CUT
) -> float:
    """Extended-system QFI upper bound C_Q at placement p.alpha, end to end.

    Builds chi_l(phi) = Pi_l(phi) |Psi(phi)> on the Fock grid, differentiates
    by central differences, and assembles 4 [sum <chi'|chi'> - |sum <chi'|chi>|^2].
    """

    def run(n: int):
        branches = {}
        for ph in (p.phi - dphi_step, p.phi, p.phi + dphi_step):
            psi = loss_probe_state(p, n, phi=ph)
            branches[ph] = _kraus_branch_states(psi.amps, p.eta, p.alpha, ph)
        mid = branches[p.phi]
        hi = branches[p.phi + dphi_step]
        lo = branches[p.phi - dphi_step]
        n_br = min(len(mid), len(hi), len(lo))
        t_dd = 0.0
        t_dc = 0j
        for l in range(n_br):
            dchi = (hi[l] - lo[l]) / (2.0 * dphi_step)
            t_dd += float(np.vdot(dchi, dchi).real)
            t_dc += np.vdot(dchi, mid[l])
        return (4.0 * (t_dd - abs(t_dc) ** 2),)

    return float(converged_value(run, n_cut=n_cut, rtol=1e-7)[0])


def numeric_internal_photon_number(
    p: Params, n_cut: int = DEFAULT_N_CUT, rtol: float = 1e-8
) -> float:
    """Converged <n_a + n_b> of the internal state."""

    def run(n: int):
        ens = internal_ensemble(p, n)
        mean_a, _ = moments(ens, "a")
        mean_b, _ = moments(ens, "b")
        return (mean_a + mean_b,)

    return float(converged_value(run, n_cut=n_cut, rtol=rtol)[0])
