"""Tests for the brute-force Fock-space oracle."""

import math

import numpy as np
import pytest

from su11.errors import DarkFringeError, LeakageError, NumericalError, ZeroProbabilityError
from su11.fock import (
    BRANCH_PRUNE_TOL,
    Ensemble,
    apply_loss,
    apply_phase,
    apply_tms,
    converged_value,
    internal_ensemble,
    loss_probe_state,
    lower_a,
    moments,
    numeric_internal_photon_number,
    numeric_moments_multi,
    numeric_qfi_pure,
    output_ensemble,
    photon_tables,
    prepare_input,
    subtract_photons,
    subtracted_moments,
    thinning,
)
from su11.model import Params, kernels, log_weight, thermal
from references import (apply_loss_branchwise, apply_tms_series, band_data, cq_branchwise, grid_data,
                        tms_basis_dense)


def lowered(ens, m):
    """a^m on mode a by m repeated lower_a calls, state and tangent alike, unnormalized."""
    data = ens.data
    for _ in range(m):
        data = lower_a(data)
    return Ensemble(data)


def literal_moments(ens, m, mode):
    """(probability, mean, second moment, d mean/dphi) of a^m applied to the state itself."""
    sub = subtract_photons(ens, m)
    mean, second = moments(sub, mode)
    # d<n>/dphi of the literally lowered state and tangent
    table, dtable = photon_tables(sub)
    axis = 1 if mode == "a" else 0
    k = np.arange(table.shape[0])
    marg, dmarg = table.sum(axis=axis), dtable.sum(axis=axis)
    return lowered(ens, m).trace(), mean, second, (k @ dmarg - mean * dmarg.sum()) / marg.sum()


def tmsv(g, n_cut=50):
    return apply_tms(prepare_input(0.0, n_cut), g, 0.0)


def grid_ensemble(amps, tangent=None):
    """An ensemble of (branch, n_a, n_b) grid amplitudes, with their tangent if given."""
    return Ensemble(band_data(amps if tangent is None else np.stack((amps, tangent))))


def squeezed(grid, g, theta, mirror=False):
    """The block propagator on (branch, n_a, n_b) grid data, or with a tangent in front, on the grid."""
    from su11.fock import _apply_tms_raw

    return grid_data(_apply_tms_raw(band_data(grid), g, theta, mirror=mirror))


def cold_caches(monkeypatch):
    """Empty the oracle's squeezer bases, blocks and squeezed inputs for one test."""
    from su11 import fock

    for name in ("_TMS_BASIS_CACHE", "_TMS_BLOCK_CACHE", "_INPUT_CACHE"):
        monkeypatch.setattr(fock, name, {})


def held_blocks():
    """The squeezer block cache's (cos, sin, rows held) arrays, by key."""
    from su11 import fock

    return dict(fock._TMS_BLOCK_CACHE)


def same_blocks(held):
    """Whether the cache holds exactly these block arrays, none rebuilt."""
    now = held_blocks()
    return now.keys() == held.keys() and all(
        a is b for key in held for a, b in zip(now[key], held[key])
    )


def row_grams(data):
    """Per band row kk, the column sums of x x† and, with a tangent t, of x t†, as (d, d, d) arrays.

    Every element after the loss conserves or uniformly shifts kk, and every
    readout is Fock-diagonal, so these are all of an ensemble the oracle reads.
    """
    d = data.shape[1]
    v, t = Ensemble(data).band()
    grams = [np.einsum("kic,kjc->kij", v, u.conj()) for u in ((v,) if t is None else (v, t))]
    return [np.concatenate((g, np.zeros((d - len(g), d, d), g.dtype))) for g in grams]


def rotation(u, w, c, sn):
    """A row's full real block exp(g K_k) in even/odd order, from its U, W and (cos, sin) of g sigma."""
    e, o = len(u), len(w)
    return np.block([
        [(u * np.append(c, np.ones(e - o))) @ u.T, (u[:, :o] * sn) @ w.T],
        [-(w * sn) @ u[:, :o].T, (w * c) @ w.T],
    ])


def rotation_block(basis, blocks, d, k):
    """Row k's full real block exp(g K_k) in even/odd order, from the cached stacks."""
    _, u, w, _ = basis
    cos, sin, _ = blocks
    s = d - k
    e, o = (s + 1) // 2, s // 2
    return rotation(u[k, :e, :e], w[k, :o, :o], cos[k, :o], sin[k, :o])


class TestPrepareInput:
    def test_vacuum(self):
        st = prepare_input(0.0, 10)
        assert st.amps.shape == (1, 11, 11)
        assert st.amps[0, 0, 0] == 1.0
        assert st.trace() == pytest.approx(1.0)

    def test_coherent_norm(self):
        st = prepare_input(1.0, 20)
        assert st.trace() == pytest.approx(1.0, abs=1e-15)

    def test_coherent_mean(self):
        for beta in (0.5, 1.0, 1.5):
            st = prepare_input(beta, 30)
            mean, second = moments(st, "b")
            assert mean == pytest.approx(beta**2, rel=1e-12)
            assert second == pytest.approx(beta**2 + beta**4, rel=1e-12)

    def test_rejects_small_cutoff(self):
        # a truncated coherent tail is a leak, so the cutoff ladder climbs past it
        with pytest.raises(LeakageError):
            prepare_input(3.0, 8)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            prepare_input(-0.5, 30)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_rejects_non_finite_beta(self, beta):
        # exp(-inf) * inf would fill every row past the first with NaN
        with pytest.raises(ValueError, match="beta"):
            prepare_input(beta, 30)

    def test_large_beta_oracle_cell_converges(self):
        # n_cut = 30 truncates the beta = 3 coherent tail; the ladder must climb
        from su11.sweeps import _eval_task

        p = Params(g=0.5, beta=3.0, phi=0.4, m=1)
        value, code = _eval_task(("oracle_n_t", p))
        assert code == ""
        want, _ = _eval_task(("n_t", p))
        assert float(value) == pytest.approx(float(want), rel=1e-6)


class TestTwoModeSqueezer:
    def test_zero_gain_is_identity(self):
        st = prepare_input(1.0, 20)
        out = apply_tms(st, 0.0, 0.0)
        assert np.array_equal(out.amps, st.amps)

    def test_tmsv_mean_photon_number(self):
        st = tmsv(1.0, 50)
        mean, _ = moments(st, "a")
        assert mean == pytest.approx(math.sinh(1.0) ** 2, rel=1e-10)
        mean_b, _ = moments(st, "b")
        assert mean_b == pytest.approx(math.sinh(1.0) ** 2, rel=1e-10)

    def test_unitarity(self):
        st = prepare_input(1.0, 70)
        out = apply_tms(st, 1.0, 0.7)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)

    def test_inverse_pair_restores_state(self):
        st = prepare_input(1.0, 70)
        out = apply_tms(apply_tms(st, 0.9, 0.0), 0.9, math.pi)
        assert np.allclose(grid_data(out.data), grid_data(st.data), atol=1e-12)

    def test_second_squeezer_is_parity_mirrored_theta_zero(self):
        from su11.fock import _seed_tangent

        ens = apply_loss(apply_tms(prepare_input(0.8, 40), 0.6, 0.0), 0.7)
        ens = _seed_tangent(apply_phase(ens, 0.4))
        assert ens.amps.ndim == 3 and ens.amps.shape[0] > 1 and ens.tangent is not None
        want = apply_tms(ens, 0.6, math.pi).data
        got = apply_tms(ens, 0.6, 0.0, mirror=True).data
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)

    def test_leakage_detected_at_small_cutoff(self):
        with pytest.raises(LeakageError):
            apply_tms(prepare_input(0.0, 8), 2.0, 0.0)

    @pytest.mark.parametrize("theta", [0.0, 0.5 * math.pi, math.pi, 1.1])
    def test_matches_series_on_band_states(self, theta):
        # a pure state, a lossy branch stack and that stack with its tangent,
        # squeezed and mirror-squeezed; the mirror is the squeezer at theta + pi
        pure = grid_data(apply_tms(prepare_input(0.8, 40), 0.3, 0.0).data)
        # the first three branches keep the series reference quick
        stack = grid_data(apply_loss(Ensemble(band_data(pure)), 0.7).data)[:3]
        assert stack.shape[0] == 3
        n = np.arange(41)
        with_tangent = np.stack((stack, 1j * n[:, None] * stack + 0.2 * stack.conj()))
        for x in (pure, stack, with_tangent):
            got = squeezed(x, 0.8, theta)
            assert np.allclose(got, apply_tms_series(x, 0.8, theta), rtol=0.0, atol=1e-12)
            got = squeezed(x, 0.8, theta, mirror=True)
            want = apply_tms_series(x, 0.8, theta + math.pi)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.5 * math.pi, math.pi, 1.1])
    def test_matches_series_with_mass_on_both_sides_of_the_diagonal(self, theta):
        # the band holds n_a <= n_b only; a grid state with mass on both sides
        # is its upper half plus the a <-> b swap of a band state, and the
        # squeezer's generator is symmetric under the swap
        amps = grid_data(prepare_input(0.8, 40).data)
        both = amps + 0.5 * amps.swapaxes(-1, -2)
        stack = apply_loss_branchwise(both, 0.7, BRANCH_PRUNE_TOL)
        assert stack.shape[0] > 1
        n = np.arange(41)
        with_tangent = np.stack((stack, 1j * n[:, None] * stack + 0.2 * stack.conj()))
        for x in (both, stack, with_tangent):
            assert np.any(np.tril(x, -1)) and np.any(np.triu(x, 1))
            lower = np.tril(x, -1).swapaxes(-1, -2)
            got = squeezed(np.triu(x), 0.8, theta) + squeezed(lower, 0.8, theta).swapaxes(-1, -2)
            assert np.allclose(got, apply_tms_series(x, 0.8, theta), rtol=0.0, atol=1e-12)

    def test_diagonal_below_prune_tolerance_comes_out_zero(self):
        from su11.fock import _apply_tms_raw

        data = prepare_input(0.8, 40).data.copy()
        # row kk = 24, |n, n + 24>, holds 17 * 1e-30 of the unit weight plus
        # its coherent amplitude of order 1e-14, below the tolerance
        data[24, :17] = 1e-15
        assert np.sum(np.abs(data[24]) ** 2) < BRANCH_PRUNE_TOL
        got = _apply_tms_raw(data, 0.8, 0.0)
        want = apply_tms_series(grid_data(data), 0.8, 0.0)
        assert np.any(np.diagonal(want, 24, axis1=-2, axis2=-1))
        # the band ends at the last row above the tolerance, before row 24
        rows = np.sum(np.abs(data) ** 2, axis=(1, 2))
        assert len(got) == np.flatnonzero(rows > BRANCH_PRUNE_TOL)[-1] + 1 < 24
        assert np.allclose(grid_data(got), want, rtol=0.0, atol=1e-12)

    def test_leakage_is_the_mass_in_the_grids_top_two_layers(self):
        from su11.fock import LEAKAGE_TOL, _apply_tms_raw

        st = prepare_input(0.5, 40)
        leaked = []
        # gain steps fine enough that some gain leaks through the top two
        # layers but not through the top one
        for g in np.linspace(0.7, 1.1, 81):
            w = np.abs(grid_data(_apply_tms_raw(st.data, g, 0.0))) ** 2
            edge = w[:, -2:, :].sum() + w[:, :-2, -2:].sum()
            leaked.append(edge > LEAKAGE_TOL * w.sum())
            if leaked[-1]:
                with pytest.raises(LeakageError):
                    apply_tms(st, g, 0.0)
            else:
                apply_tms(st, g, 0.0)
        assert any(leaked) and not all(leaked)

    @pytest.mark.parametrize("theta", [0.0, 1.1])
    def test_unoccupied_row_between_occupied_ones_comes_out_zero(self, theta):
        from su11.fock import _apply_tms_raw

        full = prepare_input(0.8, 40).data
        # every row's block is built first, then row kk = 5 falls below the
        # tolerance while rows on both sides of it stay occupied
        _apply_tms_raw(full, 0.8, theta)
        gap = full.copy()
        gap[5, 0] = 1e-15
        rows = np.sum(np.abs(gap) ** 2, axis=(1, 2))
        assert rows[5] < BRANCH_PRUNE_TOL < min(rows[4], rows[6])
        got = _apply_tms_raw(gap, 0.8, theta)
        assert len(got) > 6 and not np.any(got[5])
        want = gap.copy()
        want[5] = 0.0
        want = apply_tms_series(grid_data(want), 0.8, theta)
        assert np.allclose(grid_data(got), want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state_is_a_numerical_error(self, bad):
        # not dropped as unoccupied rows, which would leave a zero band
        data = prepare_input(0.8, 30).data.copy()
        data[3:, 0] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            apply_tms(Ensemble(data), 0.5, 0.0)

    def test_occupied_diagonals_are_judged_on_the_state_alone(self):
        from su11.fock import _apply_tms_raw

        v = prepare_input(0.8, 40).data
        # the tangent's mass on row kk = 35 sits where the state holds a
        # weight of order 1e-48
        t = np.zeros_like(v)
        t[35, :6] = 1.0
        out = apply_tms(Ensemble(np.stack((v, t), axis=2)), 0.8, 0.0)
        assert np.allclose(out.band()[0], _apply_tms_raw(v, 0.8, 0.0), rtol=0.0, atol=1e-15)
        assert not np.any(out.tangent)


class TestSqueezerBlocks:
    def test_cached_blocks_are_real_rotations(self, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        for d in (41, 42, 121):
            for theta in (0.0, 1.1):
                fock._tms_blocks(0.8, theta, d, np.arange(d - 1))
        held = held_blocks()
        assert set(held) == {(0.8, theta, d) for d in (41, 42, 121) for theta in (0.0, 1.1)}
        sizes = set()
        for (_, _, d), blocks in held.items():
            cos, sin, rows = blocks
            assert rows.all() and cos.dtype == sin.dtype == np.float64
            assert np.allclose(cos**2 + sin**2, 1.0, rtol=0.0, atol=1e-15)
            for k in range(d - 1):
                r = rotation_block(fock._TMS_BASIS_CACHE[d], blocks, d, k)
                sizes.add(len(r))
                assert np.allclose(r @ r.T, np.eye(len(r)), rtol=0.0, atol=1e-13)
        # every row length but 1: the row of |0, n_cut> alone has no block
        assert sizes == set(range(2, 122))
        for basis in fock._TMS_BASIS_CACHE.values():
            assert all(a.dtype == np.float64 for a in basis[:3])

    @pytest.mark.parametrize("d", [24, 25, 41])
    def test_half_size_spectrum_matches_the_generator(self, d, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        sigmas, us, ws, built = fock._tms_basis(d, range(d - 1))
        assert len(built) == d - 1 and built.all()
        for k in range(d - 1):
            s = d - k
            e, o = (s + 1) // 2, s // 2
            # row k fills the top-left of its zero-padded slots
            assert not sigmas[k, o:].any() and not us[k, e:].any() and not us[k, :, e:].any()
            assert not ws[k, o:].any() and not ws[k, :, o:].any()
            sigma, u, w = sigmas[k, :o], us[k, :e, :e], ws[k, :o, :o]
            assert np.allclose(u.T @ u, np.eye(e), rtol=0.0, atol=1e-13)
            assert np.allclose(w.T @ w, np.eye(o), rtol=0.0, atol=1e-13)
            n = np.arange(1, s)
            j = np.diag(np.sqrt((n + k) * n), 1)
            # the full-size J_k through eigvalsh is the independent reference
            want = np.linalg.eigvalsh(j + j.T)
            got = np.sort(np.concatenate((sigma, -sigma, np.zeros(s % 2))))
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [24, 25, 41, 90, 147, 189])
    def test_bases_match_the_dense_reference(self, d, monkeypatch):
        # sigma from LAPACK's values alone and U, W from the recurrence,
        # against the dense SVD with vectors: the rotations exp(g K_k) agree
        # (the vectors themselves may differ by a sign per mode pair)
        from su11 import fock

        cold_caches(monkeypatch)
        sigmas, us, ws, _ = fock._tms_basis(d, range(d - 1))
        for k in range(d - 1):
            s = d - k
            e, o = (s + 1) // 2, s // 2
            sigma, u, w = sigmas[k, :o], us[k, :e, :e], ws[k, :o, :o]
            want_sigma, want_u, want_w = tms_basis_dense(d, k)
            assert np.allclose(sigma, want_sigma, rtol=0.0, atol=1e-12)
            assert np.allclose(u.T @ u, np.eye(e), rtol=0.0, atol=1e-13)
            assert np.allclose(w.T @ w, np.eye(o), rtol=0.0, atol=1e-13)
            for g in (0.3, 1.0):
                got = rotation(u, w, np.cos(g * sigma), np.sin(g * sigma))
                want = rotation(want_u, want_w, np.cos(g * want_sigma), np.sin(g * want_sigma))
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_every_row_of_a_large_cutoff_builds_without_overflow(self, monkeypatch):
        # unscaled, the recurrence's components reach 1e168 at d = 260
        from su11 import fock

        cold_caches(monkeypatch)
        d = 260
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sigma, u, w, built = fock._tms_basis(d, range(d - 1))
        assert built.all() and all(np.all(np.isfinite(x)) for x in (sigma, u, w))
        # row k's first (s + 1) // 2 columns of U and s // 2 of W are unit vectors
        s = d - np.arange(d - 1)[:, None]
        for x, size in ((u, (s + 1) // 2), (w, s // 2)):
            norms = np.sqrt(np.einsum("kij,kij->kj", x, x))
            assert np.allclose(norms, np.arange(x.shape[2]) < size, rtol=0.0, atol=1e-13)


class TestEnsemble:
    def test_rejects_data_without_a_branch_axis(self):
        with pytest.raises(ValueError, match="3-D or 4-D"):
            Ensemble(np.zeros((6, 6), complex))

    def test_every_element_takes_and_returns_a_leading_branch_axis(self):
        from su11.fock import _seed_tangent

        st = prepare_input(0.8, 40)
        # |0, n> is row n, so the input's band holds every row
        assert isinstance(st, Ensemble) and st.amps.shape == (1, 41, 41) and st.tangent is None
        pure = apply_tms(st, 0.4, 0.0)
        mixed = apply_loss(pure, 0.8)
        assert mixed.amps.shape[0] > 1
        elements = (
            lambda x: apply_tms(x, 0.4, 0.0),
            lambda x: apply_tms(x, 0.4, 0.0, mirror=True),
            lambda x: apply_phase(x, 0.4),
            lambda x: apply_loss(x, 1.0),
            lambda x: apply_loss(x, 0.7),
            lambda x: apply_loss(x, 0.0),
            lambda x: subtract_photons(x, 2),
        )
        for x in (pure, mixed, _seed_tangent(pure), _seed_tangent(mixed)):
            for element in elements:
                out = element(x)
                assert isinstance(out, Ensemble)
                # rows kk = n_b - n_a <= 40, each with 41 positions n_a
                assert out.amps.ndim == 3 and out.amps.shape[-1] == 41 and out.amps.shape[1] <= 41
                assert (out.tangent is None) == (x.tangent is None)
                if out.tangent is not None:
                    assert out.tangent.shape == out.amps.shape
            assert _seed_tangent(x).tangent.shape == x.amps.shape
        p = Params(g=0.4, beta=0.8, phi=0.4, m=1, T1=0.8, T2=0.9, eta=0.8)
        for pipeline in (output_ensemble, loss_probe_state, internal_ensemble):
            out = pipeline(p, 40)
            assert isinstance(out, Ensemble) and out.amps.ndim == 3

    @pytest.mark.parametrize("theta", [0.0, 1.1])
    def test_one_branch_squeezes_as_it_does_inside_a_stack_with_a_tangent(self, theta):
        from su11.fock import _apply_tms_raw

        v = apply_tms(prepare_input(0.8, 40), 0.3, 0.0).data
        n = np.arange(41)[:, None]
        # branches on the same rows as v, so the stack occupies what v does
        stack = np.concatenate([v, 0.5 * v * np.exp(0.7j * n), 0.3 * v.conj()], axis=-1)
        tangent = 1j * n * stack + 0.2 * stack
        together = apply_tms(Ensemble(np.stack((stack, tangent), axis=2)), 0.5, theta)
        alone = apply_tms(Ensemble(v), 0.5, theta).amps
        # the tangent's rows are judged on its state, as apply_tms judges them
        tangent_alone = np.moveaxis(_apply_tms_raw(tangent[..., :1], 0.5, theta, v), -1, 0)
        assert np.allclose(together.amps[:1], alone, rtol=0.0, atol=1e-15)
        assert np.allclose(together.tangent[:1], tangent_alone, rtol=0.0, atol=1e-15)


class TestPhase:
    def test_zero_phase_identity(self):
        st = tmsv(0.8, 45)
        assert np.array_equal(apply_phase(st, 0.0).amps, st.amps)

    def test_two_pi_identity(self):
        st = tmsv(0.8, 45)
        out = apply_phase(st, 2 * math.pi)
        assert np.allclose(out.amps, st.amps, atol=1e-13)

    def test_number_conserving(self):
        st = tmsv(0.8, 45)
        before = moments(st, "a")
        after = moments(apply_phase(st, 1.3), "a")
        assert after == pytest.approx(before)


class TestLoss:
    def test_unit_transmittance_single_branch(self):
        st = tmsv(1.0, 50)
        ens = apply_loss(st, 1.0)
        assert ens.amps.shape[0] == 1
        assert np.array_equal(ens.amps[0], st.amps[0])

    def test_trace_preserved(self):
        st = tmsv(1.0, 50)
        for T in (0.9, 0.7, 0.4):
            ens = apply_loss(st, T)
            assert ens.trace() == pytest.approx(1.0, abs=1e-12)

    def test_mean_scales_linearly(self):
        st = tmsv(1.0, 50)
        mean0, _ = moments(st, "a")
        ens = apply_loss(st, 0.7)
        mean, _ = moments(ens, "a")
        assert mean == pytest.approx(0.7 * mean0, rel=1e-10)

    def test_commutes_with_ensemble_concatenation(self):
        a = tmsv(0.8, 45)
        b = apply_phase(tmsv(0.5, 45), 0.9)
        stacked = grid_ensemble(np.concatenate([grid_data(a.data) * 0.6, grid_data(b.data) * 0.8]))
        lost = apply_loss(stacked, 0.75)
        la, lb = apply_loss(a, 0.75), apply_loss(b, 0.75)
        want_mean = 0.36 * moments(la, "a")[0] + 0.64 * moments(lb, "a")[0]
        got = moments(lost, "a")[0] * lost.trace()
        assert got == pytest.approx(want_mean, rel=1e-10)

    @pytest.mark.parametrize("T", [0.0, 0.3, 0.75])
    def test_matches_the_branchwise_kraus_expansion(self, T):
        # per row, the sums over the columns of x x† and x t†: a one-column
        # pure state and a three-column lossy stack, each with its tangent
        from su11.fock import _seed_tangent

        pure = apply_tms(prepare_input(0.8, 40), 0.6, 0.0)
        stack = apply_phase(apply_loss(pure, 0.6), 0.9)
        stack = Ensemble(stack.data[..., :3])
        assert pure.amps.shape[0] == 1 and np.all(np.any(stack.amps, axis=(1, 2)))
        for ens in (_seed_tangent(pure), _seed_tangent(stack)):
            got = apply_loss(ens, T)
            grid, tangent = grid_data(ens.data)
            want = apply_loss_branchwise(grid, T, BRANCH_PRUNE_TOL, tangent)
            # row-compact: narrower than the branch count
            assert 1 < got.amps.shape[0] < len(want[0])
            for g, w in zip(row_grams(got.data), row_grams(band_data(np.stack(want)))):
                assert np.allclose(g, w, rtol=0.0, atol=1e-14)

    def test_keeps_branches_past_a_pruned_one(self):
        # n_a = 0 and 100 only: at T = 0.5 the orders l = 1, 2 fall below
        # the prune tolerance, and l = 3 onward rise above it again
        amps = np.zeros((1, 101, 101), complex)
        amps[0, 0, 100] = amps[0, 100, 100] = math.sqrt(0.5)
        got = apply_loss(grid_ensemble(amps), 0.5)
        want = apply_loss_branchwise(amps, 0.5, BRANCH_PRUNE_TOL)
        (gram,) = row_grams(got.data)
        assert np.allclose(gram, row_grams(band_data(want))[0], rtol=0.0, atol=1e-14)
        # order 3 holds n_a = 100 moved to 97, on row kk = 3; rows 1 and 2 stay empty
        assert gram[3, 97, 97] == pytest.approx(0.5 * math.comb(100, 3) * 0.5**100, rel=1e-12)
        assert not np.any(gram[1:3])
        assert got.trace() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_transmittance_outside_unit_interval(self):
        st = tmsv(0.8, 40)
        for T in (-0.1, 1.1):
            with pytest.raises(ValueError, match="transmittance"):
                apply_loss(st, T)

    def test_complete_loss_moves_each_row_to_mode_a_vacuum(self):
        # at T = 0, K_l = a^l / sqrt(l!) takes |l, n_b> to |0, n_b>, so row
        # kk holds position 0 alone, with the input's weight at n_b = kk, less
        # the images pruned, at most one per order below the tolerance each
        st = apply_tms(prepare_input(0.8, 40), 0.8, 0.0)
        ens = apply_loss(st, 0.0)
        assert ens.amps.shape[0] > 1
        assert not np.any(ens.data[:, 1:])
        got = np.sum(np.abs(ens.data[:, 0]) ** 2, axis=-1)
        want = np.sum(np.abs(grid_data(st.data)[0]) ** 2, axis=0)[: len(got)]
        assert np.allclose(got, want, rtol=1e-14, atol=41 * BRANCH_PRUNE_TOL)
        assert ens.trace() == pytest.approx(1.0, abs=1e-12)
        assert moments(ens, "a") == (0.0, 0.0)
        assert moments(ens, "b") == pytest.approx(moments(st, "b"), rel=1e-12)

    def test_unit_transmittance_returns_its_ensemble(self):
        ens = apply_loss(tmsv(0.8, 40), 0.7)
        assert apply_loss(ens, 1.0) is ens
        # a pure state is a one-branch ensemble, returned as it is with its tangent
        v = tmsv(0.8, 40).data
        st = Ensemble(np.stack((v, np.ones_like(v)), axis=2))
        out = apply_loss(st, 1.0)
        assert out is st and out.amps.shape == out.tangent.shape == (1, len(v), 41)

    def test_elements_leave_their_input_unchanged(self):
        from su11.fock import _seed_tangent

        ens = _seed_tangent(apply_phase(apply_loss(tmsv(0.4, 40), 0.8), 0.4))
        before = ens.data.copy()
        for element in (
            lambda x: apply_tms(x, 0.4, 0.0),
            lambda x: apply_tms(x, 0.4, 0.0, mirror=True),
            lambda x: apply_phase(x, 0.4),
            lambda x: apply_loss(x, 1.0),
            lambda x: apply_loss(x, 0.7),
            lambda x: apply_loss(x, 0.0),
            lambda x: subtract_photons(x, 0),
            lambda x: subtract_photons(x, 2),
        ):
            element(ens)
            assert np.array_equal(ens.data, before)

    def test_prunes_tangent_with_its_state_on_the_state_weight(self):
        v0 = grid_data(tmsv(0.8, 40).data)[0]
        v1 = grid_data(apply_phase(tmsv(0.5, 40), 0.9).data)[0]
        # pair 0: an ordinary state with a zero tangent; pair 1: a state far
        # below the prune tolerance with a large tangent
        ens = grid_ensemble(np.stack([v0, 1e-16 * v1]), np.stack([np.zeros_like(v0), v1]))
        lost = apply_loss(ens, 0.75)
        want = apply_loss(grid_ensemble(v0[None]), 0.75)
        assert lost.amps.shape == lost.tangent.shape == want.amps.shape
        assert np.array_equal(lost.amps, want.amps)
        assert not np.any(lost.tangent)


class TestTracerContract:
    """What the benchmark's tracer (perfbench/tracer.py) reads of the oracle."""

    def test_squeezer_calls_carry_the_block_cache_key(self, monkeypatch):
        from su11 import fock

        squeeze = fock.apply_tms
        calls = []

        def recording(*args, **kwargs):
            out = squeeze(*args, **kwargs)
            # theta is positional, and the key is in the cache after the call
            x, g, theta = args[:3]
            key = (float(g), float(theta), x.amps.shape[-1])
            calls.append((key, x.n_cut, key in fock._TMS_BLOCK_CACHE, out))
            return out

        cold_caches(monkeypatch)
        monkeypatch.setattr(fock, "apply_tms", recording)
        p = Params(g=0.4, beta=0.8, phi=0.4, m=1, T1=0.8, eta=0.8)
        for pipeline in (output_ensemble, loss_probe_state, internal_ensemble):
            pipeline(p, 40)
        # S1 and S2 in output_ensemble, S2 and the trailing squeezer in
        # internal_ensemble: S1 |0, beta> is squeezed once, then read from
        # the input cache by loss_probe_state and internal_ensemble
        assert len(calls) == 4
        for key, n_cut, cached, out in calls:
            assert key[2] == n_cut + 1 == 41 and cached
            assert out.amps.nbytes == out.amps.size * 16 > 0

    @pytest.mark.parametrize("T", [0.0, 0.5, 0.9])
    def test_loss_output_leads_with_its_kept_branches(self, T):
        # the leading axis of amps is the width, the most image rows any
        # output row holds; each row fills its columns from the first
        ens = apply_tms(prepare_input(0.8, 40), 0.6, 0.0)
        out = apply_loss(ens, T)
        filled = np.any(out.data, axis=1)
        held = filled.sum(axis=-1)
        assert np.array_equal(filled, np.arange(filled.shape[-1]) < held[:, None])
        assert out.amps.shape[0] == held.max() <= len(ens.data)
        # never wider than the branchwise expansion, which keeps one column per order
        assert held.max() <= len(apply_loss_branchwise(grid_data(ens.data), T, BRANCH_PRUNE_TOL))
        assert out.amps.nbytes == out.amps.size * 16 > 0


def assert_close_to(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestOutputLoss:
    @pytest.mark.parametrize("T", [0.0, 0.3, 0.8])
    def test_thinned_tables_match_the_kraus_route(self, T):
        # output loss on the counts equals the literal channel on the branches
        ens = output_ensemble(Params(g=0.8, beta=1.0, phi=0.4, T1=0.8), 50)
        assert ens.amps.shape[0] > 1
        binom = thinning(T, 51)
        table, dtable = photon_tables(ens)
        want, dwant = photon_tables(apply_loss(ens, T))
        assert_close_to(binom @ table, want, 1e-13)
        assert_close_to(binom @ dtable, dwant, 1e-13)

    def test_unit_transmittance_returns_the_tables(self):
        # no thinning at T = 1: the moments read the tables as they are,
        # exactly as through the identity
        assert thinning(1.0, 71) is None
        tables = photon_tables(output_ensemble(Params(g=1.0, beta=1.0, phi=0.4, T1=0.8), 70))
        for mode in ("a", "b"):
            for m in range(4):
                assert (subtracted_moments(*tables, m, mode, None)
                        == subtracted_moments(*tables, m, mode, np.eye(71)))
        for T in (-0.1, 1.1):
            with pytest.raises(ValueError, match="transmittance"):
                thinning(T, 4)

    @pytest.mark.parametrize("T", [0.0, 1e-9, 0.3, 0.8, 1.0 - 1e-12])
    @pytest.mark.parametrize("d", [31, 110, 189])
    def test_thinned_identity_is_the_binomial_law(self, T, d):
        # the thinned identity is the thinning itself: column n holds
        # C(n, k) T^k (1 - T)^(n - k) over the k survivors, each as (C x) x
        # with x = sqrt(T^k (1 - T)^(n - k)): T^k alone goes subnormal, and
        # loses digits, where the term is still a normal float
        want = np.zeros((d, d))
        for n in range(d):
            for k in range(n + 1):
                x = T ** (0.5 * k) * (1.0 - T) ** (0.5 * (n - k))
                want[k, n] = math.comb(n, k) * x * x
        got = thinning(T, d)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.allclose(got.sum(axis=0), 1.0, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("T", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("mode", ["a", "b"])
    def test_thinned_subtraction_matches_the_literal_route(self, T, mode):
        # the moments read through the thinning (mode a: the thinned n_a
        # marginal; mode b: the thinned falling-factorial row) against the
        # channel and a^m applied to the state itself
        ens = output_ensemble(Params(g=1.0, beta=1.0, phi=0.4, T1=0.8), 70)
        assert ens.amps.shape[0] > 1
        tables, binom, lossy = photon_tables(ens), thinning(T, 71), apply_loss(ens, T)
        for m in range(4):
            if T == 0.0 and m > 0:
                # the loss took every photon of mode a: both routes find none to subtract
                with pytest.raises(ZeroProbabilityError):
                    subtracted_moments(*tables, m, mode, binom)
                with pytest.raises(ZeroProbabilityError):
                    subtract_photons(lossy, m)
                continue
            got = subtracted_moments(*tables, m, mode, binom)
            assert got == pytest.approx(literal_moments(lossy, m, mode), rel=1e-12)

    @pytest.mark.parametrize(
        "m, eta, alpha",
        [(0, 0.7, -1.0), (1, 0.7, "star"), (3, 0.05, 0.3), (3, 0.5, "star"), (2, 0.9, -1.7)],
    )
    def test_cq_is_the_branchwise_kraus_sum(self, m, eta, alpha, monkeypatch):
        # numeric_cq's per-position sums against every branch chi_l = e^{i phi
        # (n - alpha l)} K_l psi built on its own; the ladder is started at 45,
        # so that numeric_cq reads the cutoff 50 the reference is built at
        from su11 import fock
        from su11.qfi import qfi_lossy

        p = Params(g=0.5, beta=1.0, phi=0.4, m=m, eta=eta)
        if alpha == "star":
            alpha = qfi_lossy(p).alpha_star
        psi = loss_probe_state(p, 50)
        want, total = cq_branchwise(*grid_data(psi.data), eta, alpha, p.phi)
        monkeypatch.setattr(fock, "DEFAULT_N_CUT", 45)
        assert fock.numeric_cq(p, alpha) == pytest.approx(want, rel=1e-12)
        # the branches hold the whole trace: the channel is trace-preserving
        assert total == pytest.approx(psi.trace(), rel=1e-12)


class TestSubtraction:
    def test_zero_subtraction_identity(self):
        ens = apply_loss(tmsv(1.0, 50), 0.8)
        out = subtract_photons(ens, 0)
        assert lowered(ens, 0).trace() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.amps, ens.amps, atol=1e-12)

    def test_vacuum_mode_a_rejects(self):
        st = prepare_input(1.0, 20)
        with pytest.raises(ZeroProbabilityError):
            subtract_photons(st, 1)
        with pytest.raises(ValueError, match="non-negative"):
            subtract_photons(st, -1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_success_probability_matches_generating_function(self, m):
        # the success probability of a^m on the normalized ideal output equals
        # the subtraction weight m! u^m L_m, the 2m-fold extraction of exp(A1)
        p = Params(g=1.0, beta=1.0, phi=0.4, m=m)
        ens = output_ensemble(p, 70)
        half_sh2g, _, _, _, log_norm = kernels(p)
        gm = math.exp(log_weight(log_norm, thermal(half_sh2g, 1.0, 1.0, p.phi)[0], m, DarkFringeError))
        assert lowered(ens, m).trace() == pytest.approx(gm, rel=1e-8)

    @pytest.mark.parametrize("m", range(5))
    def test_row_slice_matches_repeated_lowering(self, m):
        # a branch stack with its tangent, subtracted in one scaled slice
        from su11.fock import _seed_tangent

        ens = apply_loss(apply_tms(prepare_input(0.8, 40), 0.6, 0.0), 0.7)
        ens = _seed_tangent(apply_phase(ens, 0.4))
        assert ens.amps.shape[0] > 1
        want = lowered(ens, m)
        got = subtract_photons(ens, m)
        assert_close_to(got.data, want.data / math.sqrt(want.trace()), 1e-15)

    @pytest.mark.parametrize("mode", ["a", "b"])
    def test_table_reweighting_matches_literal_subtraction(self, mode):
        p = Params(g=1.0, beta=1.0, phi=0.4, T1=0.8, T2=0.8)
        ens = output_ensemble(p, 70)
        assert ens.amps.shape[0] > 1
        table, dtable = photon_tables(ens)
        for m in range(4):
            got = subtracted_moments(table, dtable, m, mode)
            assert got == pytest.approx(literal_moments(ens, m, mode), rel=1e-12)


class TestMoments:
    def test_vacuum(self):
        ens = prepare_input(0.0, 10)
        assert moments(ens, "a") == (0.0, 0.0)

    def test_tables_need_a_tangent(self):
        # without a tangent there is no d/dphi table: 2 <v|v> must not stand in for it
        with pytest.raises(ValueError, match="tangent"):
            photon_tables(prepare_input(1.0, 30))

    def test_ideal_pipeline_mean_matches_closed_form(self):
        # m = 0 output mean: |w1|^2 (1 + beta^2)
        p = Params(g=1.0, beta=1.0, phi=0.4)
        ens = output_ensemble(p, 70)
        mean, _ = moments(ens, "a")
        u, _ = thermal(kernels(p)[0], 1.0, 1.0, p.phi)  # |w1|^2 of the lossless kernel
        assert mean == pytest.approx(u * 2.0, rel=1e-9)

    def test_full_pipeline_moments_match_error_propagation_report(self):
        from su11.sensitivity import sensitivity_ideal

        p = Params(g=1.0, beta=1.0, phi=0.4, m=0)
        r = sensitivity_ideal(p)
        got = numeric_moments_multi(p, [0])[0]
        assert got["mean"] == pytest.approx(r.mean_n, rel=1e-8)
        assert got["second"] == pytest.approx(r.var_n + r.mean_n * r.mean_n, rel=1e-8)


class TestNumericEstimators:
    def test_mode_a_beats_mode_b(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1)
        res = numeric_moments_multi(p, [1], mode="a")[1]["delta_phi"]
        res_b = numeric_moments_multi(p, [1], mode="b")[1]["delta_phi"]
        assert res <= res_b

    def test_qfi_of_empty_interferometer_is_zero(self):
        p = Params(g=0.0, beta=0.0, phi=0.4, m=0)
        f = numeric_qfi_pure(p)
        assert abs(f) < 1e-6

    @pytest.mark.parametrize("g, beta, phi", [(0.3, 0.6, 0.8), (0.3, 0.6, 1.0), (0.5, 0.5, 0.4)])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_qfi_pure_matches_closed_form_to_roundoff(self, g, beta, phi, m):
        from su11.qfi import qfi_ideal

        p = Params(g=g, beta=beta, phi=phi, m=m)
        assert numeric_qfi_pure(p) == pytest.approx(qfi_ideal(p).f, rel=1e-11)

    @pytest.mark.parametrize("t1, t2", [(0.8, 1.0), (1.0, 0.8)])
    def test_moments_match_lossy_closed_form(self, t1, t2):
        from su11.sensitivity import sensitivity_lossy

        p = Params(g=1.0, beta=1.0, phi=0.4, T1=t1, T2=t2)
        for m, got in numeric_moments_multi(p, [0, 1, 2, 3]).items():
            want = sensitivity_lossy(p.replace(m=m))
            assert got["mean"] == pytest.approx(want.mean_n, rel=1e-8)
            assert got["second"] == pytest.approx(want.var_n + want.mean_n * want.mean_n, rel=1e-8)
            assert got["delta_phi"] == pytest.approx(want.delta_phi, rel=1e-8)

    def test_tangent_table_matches_central_difference(self):
        p = Params(g=0.8, beta=1.0, phi=0.4, T1=0.8, T2=0.9)
        h = 1e-4

        def tables(q):
            binom = thinning(q.T2, 51)
            return [binom @ t for t in photon_tables(output_ensemble(q, 50))]

        _, dtable = tables(p)
        hi, _ = tables(p.replace(phi=p.phi + h))
        lo, _ = tables(p.replace(phi=p.phi - h))
        fd = (hi - lo) / (2.0 * h)
        assert np.max(np.abs(fd - dtable)) < 1e-7 * np.max(np.abs(dtable))

    def test_pipelines_build_only_theta_zero_blocks(self, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        numeric_moments_multi(Params(g=0.5, beta=0.5, phi=0.4, T1=0.8), [0, 1])
        assert fock._TMS_BLOCK_CACHE
        assert all(theta == 0.0 for _, theta, _ in fock._TMS_BLOCK_CACHE)

    def test_invalid_mode_fails_before_any_pipeline(self, monkeypatch):
        from su11 import fock

        def no_pipeline(*args):
            raise AssertionError("a pipeline ran")

        monkeypatch.setattr(fock, "prepare_input", no_pipeline)
        with pytest.raises(ValueError, match="mode"):
            numeric_moments_multi(Params(), [0, 1], mode="c")
        with pytest.raises(ValueError, match="mode"):
            moments(Ensemble(np.zeros((1, 6, 6), complex)), "c")

    @pytest.mark.parametrize(
        "g, beta, m",
        [(g, beta, m) for m in (0, 1, 2) for g in (0.5, 1.0) for beta in (0.5, 1.0)] + [(0.5, 1.0, 3)],
    )
    def test_qfi_pure_is_unchanged_by_the_trailing_squeezer(self, g, beta, m):
        # numeric_qfi_pure reads the subtracted output; the equivalent model's
        # phase-free S2† after the subtraction is unitary and keeps the QFI
        def qfi(ens):
            v, t = ens.band()
            vv = np.vdot(v, v).real
            return 4.0 * (np.vdot(t, t).real / vv - abs(np.vdot(v, t)) ** 2 / vv**2)

        p = Params(g=g, beta=beta, phi=0.4, m=m)
        sub = subtract_photons(output_ensemble(p, 100), m)
        assert qfi(sub) == pytest.approx(qfi(apply_tms(sub, g, 0.0)), rel=1e-9)

    def test_qfi_pure_dark_fringe(self):
        # at phi = 0 the second squeezer undoes the first, so mode a is empty
        p = Params(g=1.0, beta=1.0, phi=0.0, m=1)
        with pytest.raises(ZeroProbabilityError):
            numeric_qfi_pure(p)

    def test_converged_value_detects_stuck_ladder(self, monkeypatch):
        from su11 import fock
        from su11.errors import ConvergenceError

        monkeypatch.setattr(fock, "MAX_N_CUT", 45)
        calls = []

        def fn(n):
            calls.append(n)
            return (1.0 + 0.1 * n,)

        with pytest.raises(ConvergenceError):
            converged_value(fn)
        assert calls == [30, 35, 39, 44]

    def test_converged_value_accepts_stable_pair(self):
        calls = []

        def fn(n):
            calls.append(n)
            return (2.0 + (0.5 if n < 35 else 0.0),)

        # 30 and 35 disagree, so the ladder climbs once before it accepts
        assert converged_value(fn)[0] == 2.0
        assert calls == [30, 35, 39, 44]

    def test_block_propagator_matches_substepped_series(self):
        st = grid_data(prepare_input(0.8, 40).data)
        for g, theta in ((1.0, 0.0), (0.7, math.pi), (0.8, 1.1)):
            assert np.allclose(squeezed(st, g, theta), apply_tms_series(st, g, theta), atol=1e-12)

    def test_block_propagator_matches_series_on_branch_stack(self):
        st = apply_tms(prepare_input(0.8, 40), 0.6, 0.0)
        stack = grid_data(apply_loss(st, 0.7).data)
        assert stack.ndim == 3 and stack.shape[0] > 1
        a = squeezed(stack, 0.6, math.pi)
        b = apply_tms_series(stack, 0.6, math.pi)
        assert np.allclose(a, b, atol=1e-12)

    def test_one_eigendecomposition_per_diagonal_and_cutoff(self, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        calls = []
        svd = fock.np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(fock.np.linalg, "svd", counting_svd)
        st = prepare_input(0.5, 24)
        # |0, n> holds e^{-beta^2} beta^{2n} / n! of the weight, on row n
        occupied = sum(
            math.exp(-0.25) * 0.25**n / math.factorial(n) > fock.BRANCH_PRUNE_TOL
            for n in range(25)
        )
        assert 0 < occupied < 25

        def squeeze(g):
            for theta in (0.0, math.pi):
                fock._apply_tms_raw(st.data, g, theta)
            return set(fock._TMS_BLOCK_CACHE)

        squeeze(0.4)
        # one half-size svd per occupied row k, of length s = 25 - k,
        # at this cutoff: its even/odd coupling is ((s + 1) // 2) x (s // 2)
        assert calls == [((26 - k) // 2, (25 - k) // 2) for k in range(occupied)]
        # the basis serves the next gain, whose blocks replace the last gain's
        assert squeeze(0.9) == {(0.9, 0.0, 25), (0.9, math.pi, 25)}
        assert len(calls) == occupied
        calls.clear()
        # a repeat at the last gain finds every block in place
        blocks = held_blocks()
        squeeze(0.9)
        assert same_blocks(blocks)
        # going back to the first gain rebuilds its blocks from the basis
        assert squeeze(0.4) == {(0.4, 0.0, 25), (0.4, math.pi, 25)}
        assert not calls

    def test_gain_sweep_keeps_only_the_last_gains_blocks(self, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        cutoffs = set()
        for g in (0.3, 0.4, 0.5):
            fock.numeric_internal_photon_number(Params(g=g, beta=0.5, phi=0.4, T1=0.9, m=1))
            # one key per cutoff the ladder ran at this gain
            assert len(fock._TMS_BLOCK_CACHE) >= 2
            assert {key[0] for key in fock._TMS_BLOCK_CACHE} == {g}
            cutoffs.update(key[2] for key in fock._TMS_BLOCK_CACHE)
        # bases hold no gain, so every cutoff of the sweep keeps its basis
        assert set(fock._TMS_BASIS_CACHE) == cutoffs

    def test_phase_sweep_reuses_one_gains_blocks(self, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        points = [Params(g=0.5, beta=0.5, phi=phi, T1=0.9, m=1) for phi in (0.3, 0.35, 0.4)]
        values = [fock.numeric_internal_photon_number(points[0])]
        first = held_blocks()
        for p in points[1:]:
            values.append(fock.numeric_internal_photon_number(p))
            assert same_blocks(first)
        for p, value in zip(points, values):
            cold_caches(monkeypatch)
            assert fock.numeric_internal_photon_number(p) == value

    def test_complete_loss_keeps_typed_outcomes(self):
        from su11.errors import StationaryPointError
        from su11.limits import limits

        # all of mode a is lost before the phase shifter: N_T is still defined
        p = Params(g=0.5, beta=0.8, phi=0.4, T1=0.0, m=1)
        assert numeric_internal_photon_number(p) == pytest.approx(limits(p).n_t, rel=1e-10)
        # ... but no output photon number depends on phi any more
        with pytest.raises(StationaryPointError):
            numeric_moments_multi(p, [0, 1])
        # all of mode a is lost at the output: a^m has nothing to subtract
        with pytest.raises(ZeroProbabilityError):
            numeric_moments_multi(p.replace(T1=1.0, T2=0.0), [1])

    def test_caches_hold_only_the_ladder_cutoffs(self, monkeypatch):
        from su11 import fock
        from su11.errors import ConvergenceError

        cold_caches(monkeypatch)
        # every grid side n + 1 the ladder from DEFAULT_N_CUT can reach
        ladder, n = set(), fock.DEFAULT_N_CUT
        while n <= fock.MAX_N_CUT:
            ladder.update((n + 1, n + fock.LADDER_STEP + 1))
            n = max(n + fock.LADDER_STEP, int(n * fock.LADDER_GROWTH))
        # the most the caches can hold: every row k < d - 1 of every ladder
        # cutoff, zero-padded to row 0's sizes, a basis of ((d + 1) // 2)^2 +
        # (d // 2)^2 + d // 2 entries and (cos, sin) of 2 * (d // 2) entries
        # per row, at one gain and theta
        worst = sum(
            (d - 1) * (((d + 1) // 2) ** 2 + (d // 2) ** 2 + 3 * (d // 2)) / 2.0 for d in ladder
        )
        assert len(ladder) == 16 and worst <= 6.19e6

        # a ladder that climbs to the top and gives up: the input cache holds
        # S1 |0, beta> at every cutoff it visited, at most d x d entries each,
        # or the message of its leak
        with pytest.raises(ConvergenceError):
            numeric_moments_multi(Params(g=1.0, beta=1.0, phi=2.0), [0], mode="b")
        inputs = fock._INPUT_CACHE
        assert 1 < len(inputs) <= 16 and {n_cut + 1 for _, _, n_cut in inputs} <= ladder
        assert {key[:2] for key in inputs} == {(1.0, 1.0)}
        for (_, _, n_cut), st in inputs.items():
            assert isinstance(st, str) or st.data.size <= (n_cut + 1) ** 2
        # then a lossy point, whose (g, beta) replaces the others
        numeric_moments_multi(Params(g=0.5, beta=0.5, phi=0.4, T1=0.8), [0, 1])
        assert 0 < len(inputs) < 16 and {key[:2] for key in inputs} == {(0.5, 0.5)}
        assert {n_cut + 1 for _, _, n_cut in inputs} <= ladder
        assert set(fock._TMS_BASIS_CACHE) <= ladder
        assert {key[2] for key in fock._TMS_BLOCK_CACHE} <= ladder
        # the stacks are real, and only the rows built so far hold entries
        blocks = sum((cos.size + sin.size) / 2.0 for cos, sin, _ in fock._TMS_BLOCK_CACHE.values())
        bases = sum(
            (sigma.size + u.size + w.size) / 2.0 for sigma, u, w, _ in fock._TMS_BASIS_CACHE.values()
        )
        assert blocks + bases <= worst
        for sigma, u, w, built in fock._TMS_BASIS_CACHE.values():
            assert 0 < built.sum() < len(built)
            assert not sigma[~built].any() and not u[~built].any() and not w[~built].any()


class TestInputCache:
    """S1 |0, beta>, built once per cutoff for the latest (g, beta)."""

    def test_phase_sweep_squeezes_each_cutoffs_input_once(self, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        prepared = []
        prepare = fock.prepare_input

        def counting(beta, n_cut):
            prepared.append(n_cut)
            return prepare(beta, n_cut)

        monkeypatch.setattr(fock, "prepare_input", counting)
        for phi in (0.3, 0.35, 0.4):
            numeric_moments_multi(Params(g=0.5, beta=0.5, phi=phi, T1=0.8), [0, 1])
            numeric_qfi_pure(Params(g=0.5, beta=0.5, phi=phi, m=1))
            numeric_internal_photon_number(Params(g=0.5, beta=0.5, phi=phi, T1=0.9, m=1))
        assert len(prepared) == len(set(prepared)) > 1
        assert set(prepared) == {n_cut for _, _, n_cut in fock._INPUT_CACHE}

    def test_entries_are_read_only(self, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        p = Params(g=0.5, beta=0.5, phi=0.4, T1=0.8)
        numeric_moments_multi(p, [0, 1])
        assert fock._INPUT_CACHE
        for st in fock._INPUT_CACHE.values():
            assert isinstance(st, Ensemble) and not st.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                st.data[0, 0, 0] = 1.0
        # every pipeline starts from the cached state itself
        assert fock._squeezed_input(p, 30) is fock._INPUT_CACHE[(0.5, 0.5, 30)]

    @pytest.mark.parametrize("g, beta", [(1.0, 1.0), (0.3, 4.0)])
    def test_a_cached_leak_raises_the_same_message(self, g, beta, monkeypatch):
        # (1, 1) leaks in the squeezer at n_cut = 10, (0.3, 4) already in
        # the coherent input's tail
        from su11 import fock

        cold_caches(monkeypatch)
        p = Params(g=g, beta=beta, phi=0.4)
        with pytest.raises(LeakageError) as first:
            fock._squeezed_input(p, 10)
        assert fock._INPUT_CACHE == {(g, beta, 10): str(first.value)}

        def no_pipeline(*args, **kwargs):
            raise AssertionError("the cached leak was built again")

        monkeypatch.setattr(fock, "prepare_input", no_pipeline)
        monkeypatch.setattr(fock, "apply_tms", no_pipeline)
        with pytest.raises(LeakageError) as again:
            fock._squeezed_input(p, 10)
        assert str(again.value) == str(first.value)

    def test_a_new_gain_or_beta_evicts_the_old_entries(self, monkeypatch):
        from su11 import fock

        cold_caches(monkeypatch)
        p = Params(g=0.5, beta=0.5, phi=0.4)
        for n_cut in (30, 35):
            fock._squeezed_input(p, n_cut)
        assert set(fock._INPUT_CACHE) == {(0.5, 0.5, 30), (0.5, 0.5, 35)}
        for q in (p.replace(g=0.6), p.replace(g=0.6, beta=0.7)):
            fock._squeezed_input(q, 30)
            assert set(fock._INPUT_CACHE) == {(q.g, q.beta, 30)}
        # phi, m and the transmittances leave the entries in place
        held = fock._INPUT_CACHE[(0.6, 0.7, 30)]
        fock._squeezed_input(q.replace(phi=1.0, m=2, T1=0.5, T2=0.5, eta=0.5), 35)
        assert set(fock._INPUT_CACHE) == {(0.6, 0.7, 30), (0.6, 0.7, 35)}
        assert fock._INPUT_CACHE[(0.6, 0.7, 30)] is held
