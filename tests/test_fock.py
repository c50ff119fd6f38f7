"""Tests for the brute-force Fock-space oracle."""

import math

import numpy as np
import pytest

from su11.errors import LeakageError, ZeroProbabilityError
from su11.fock import (
    BranchEnsemble,
    apply_loss,
    apply_phase,
    apply_tms,
    as_ensemble,
    converged_value,
    equivalent_state,
    moments,
    numeric_moments_multi,
    numeric_qfi_pure,
    output_ensemble,
    prepare_input,
    subtract_photons,
)
from su11.model import Params, kernels


def tmsv(g, n_cut=50):
    return apply_tms(prepare_input(0.0, n_cut), g, 0.0)


class TestPrepareInput:
    def test_vacuum(self):
        st = prepare_input(0.0, 10)
        assert st.amps[0, 0] == 1.0
        assert st.norm2() == pytest.approx(1.0)

    def test_coherent_norm(self):
        st = prepare_input(1.0, 20)
        assert st.norm2() == pytest.approx(1.0, abs=1e-15)

    def test_coherent_mean(self):
        for beta in (0.5, 1.0, 1.5):
            st = prepare_input(beta, 30)
            mean, second = moments(as_ensemble(st), "b")
            assert mean == pytest.approx(beta**2, rel=1e-12)
            assert second == pytest.approx(beta**2 + beta**4, rel=1e-12)

    def test_rejects_small_cutoff(self):
        # a truncated coherent tail is a leak, so the cutoff ladder climbs past it
        with pytest.raises(LeakageError):
            prepare_input(3.0, 8)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            prepare_input(-0.5, 30)

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
        mean, _ = moments(as_ensemble(st), "a")
        assert mean == pytest.approx(math.sinh(1.0) ** 2, rel=1e-10)
        mean_b, _ = moments(as_ensemble(st), "b")
        assert mean_b == pytest.approx(math.sinh(1.0) ** 2, rel=1e-10)

    def test_unitarity(self):
        st = prepare_input(1.0, 70)
        out = apply_tms(st, 1.0, 0.7)
        assert out.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_inverse_pair_restores_state(self):
        st = prepare_input(1.0, 70)
        out = apply_tms(apply_tms(st, 0.9, 0.0), 0.9, math.pi)
        assert np.allclose(out.amps, st.amps, atol=1e-12)

    def test_leakage_detected_at_small_cutoff(self):
        with pytest.raises(LeakageError):
            apply_tms(prepare_input(0.0, 8), 2.0, 0.0)


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
        before = moments(as_ensemble(st), "a")
        after = moments(as_ensemble(apply_phase(st, 1.3)), "a")
        assert after == pytest.approx(before)


class TestLoss:
    def test_unit_transmittance_single_branch(self):
        st = tmsv(1.0, 50)
        ens = apply_loss(st, 1.0)
        assert ens.amps.shape[0] == 1
        assert np.array_equal(ens.amps[0], st.amps)

    def test_trace_preserved(self):
        st = tmsv(1.0, 50)
        for T in (0.9, 0.7, 0.4):
            ens = apply_loss(st, T)
            assert ens.total_trace() == pytest.approx(1.0, abs=1e-12)

    def test_mean_scales_linearly(self):
        st = tmsv(1.0, 50)
        mean0, _ = moments(as_ensemble(st), "a")
        ens = apply_loss(st, 0.7)
        mean, _ = moments(ens, "a")
        assert mean == pytest.approx(0.7 * mean0, rel=1e-10)

    def test_commutes_with_ensemble_concatenation(self):
        a = tmsv(0.8, 45)
        b = apply_phase(tmsv(0.5, 45), 0.9)
        stacked = BranchEnsemble(
            45, np.concatenate([a.amps[None] * 0.6, b.amps[None] * 0.8], axis=0)
        )
        lost = apply_loss(stacked, 0.75)
        la, lb = apply_loss(as_ensemble(a), 0.75), apply_loss(as_ensemble(b), 0.75)
        want_mean = 0.36 * moments(la, "a")[0] + 0.64 * moments(lb, "a")[0]
        got = moments(lost, "a")[0] * lost.total_trace()
        assert got == pytest.approx(want_mean, rel=1e-10)


class TestSubtraction:
    def test_zero_subtraction_identity(self):
        ens = apply_loss(tmsv(1.0, 50), 0.8)
        out = subtract_photons(ens, 0)
        assert out.subtract_prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.amps, ens.amps, atol=1e-12)

    def test_vacuum_mode_a_rejects(self):
        st = prepare_input(1.0, 20)
        with pytest.raises(ZeroProbabilityError):
            subtract_photons(as_ensemble(st), 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_success_probability_matches_generating_function(self, m):
        # the success probability of a^m on the normalized ideal output equals
        # the 2m-fold extraction of exp(A1)
        p = Params(g=1.0, beta=1.0, phi=0.4, m=m)
        ens = output_ensemble(p, 70)
        sub = subtract_photons(ens, m)
        gm = kernels(p).exponent_a(lossy=False).exp().extract((m, m)).val.real
        assert sub.subtract_prob == pytest.approx(gm, rel=1e-8)


class TestMoments:
    def test_vacuum(self):
        ens = as_ensemble(prepare_input(0.0, 10))
        assert moments(ens, "a") == (0.0, 0.0)

    def test_ideal_pipeline_mean_matches_closed_form(self):
        # m = 0 output mean: |w1|^2 (1 + beta^2)
        p = Params(g=1.0, beta=1.0, phi=0.4)
        ens = output_ensemble(p, 70)
        mean, _ = moments(ens, "a")
        w1 = kernels(p).w1.val
        assert mean == pytest.approx(abs(w1) ** 2 * 2.0, rel=1e-9)

    def test_full_pipeline_moments_match_error_propagation_report(self):
        from su11.sensitivity import sensitivity_ideal

        p = Params(g=1.0, beta=1.0, phi=0.4, m=0)
        r = sensitivity_ideal(p)
        got = numeric_moments_multi(p, [0])[0]
        assert got["mean"] == pytest.approx(r.mean_n, rel=1e-8)
        assert got["second"] == pytest.approx(r.mean_n2, rel=1e-8)


class TestNumericEstimators:
    def test_sensitivity_step_halving_is_stable(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1)
        r1 = numeric_moments_multi(p, [1], dphi_step=2e-4)[1]["delta_phi"]
        r2 = numeric_moments_multi(p, [1], dphi_step=1e-4)[1]["delta_phi"]
        assert abs(r1 - r2) / r1 < 1e-7

    def test_mode_a_beats_mode_b(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1)
        res = numeric_moments_multi(p, [1], mode="a")[1]["delta_phi"]
        res_b = numeric_moments_multi(p, [1], mode="b")[1]["delta_phi"]
        assert res <= res_b

    def test_qfi_of_empty_interferometer_is_zero(self):
        p = Params(g=0.0, beta=0.0, phi=0.4, m=0)
        f = numeric_qfi_pure(p)
        assert abs(f) < 1e-6

    def test_qfi_delta_halving_stability(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1)
        f1 = numeric_qfi_pure(p, dphi_step=1e-3)
        f2 = numeric_qfi_pure(p, dphi_step=5e-4)
        assert abs(f1 - f2) / f1 < 1e-6

    def test_equivalent_state_dark_fringe(self):
        p = Params(g=1.0, beta=1.0, phi=0.0, m=1)
        with pytest.raises(ZeroProbabilityError):
            equivalent_state(p, 70)

    def test_converged_value_detects_stuck_ladder(self):
        from su11.errors import ConvergenceError

        calls = []

        def fn(n):
            calls.append(n)
            return (1.0 + 0.1 * n,)

        with pytest.raises(ConvergenceError):
            converged_value(fn, n_cut=30, n_max=45)
        assert calls == [30, 35, 39, 44]

    def test_converged_value_accepts_stable_pair(self):
        def fn(n):
            return (2.0 + (0.5 if n < 40 else 0.0),)

        assert converged_value(fn, n_cut=40)[0] == 2.0

    def test_block_propagator_matches_substepped_series(self):
        from su11.fock import _apply_tms_series, _apply_tms_raw

        st = prepare_input(0.8, 40)
        a = _apply_tms_raw(st.amps, 1.0, 0.0)
        b = _apply_tms_series(st.amps, 1.0, 0.0)
        assert np.allclose(a, b, atol=1e-12)
        a = _apply_tms_raw(st.amps, 0.7, math.pi)
        b = _apply_tms_series(st.amps, 0.7, math.pi)
        assert np.allclose(a, b, atol=1e-12)
        a = _apply_tms_raw(st.amps, 0.8, 1.1)
        b = _apply_tms_series(st.amps, 0.8, 1.1)
        assert np.allclose(a, b, atol=1e-12)

    def test_block_propagator_matches_series_on_branch_stack(self):
        from su11.fock import _apply_tms_series, _apply_tms_raw

        st = apply_tms(prepare_input(0.8, 40), 0.6, 0.0)
        stack = apply_loss(st, 0.7).amps
        assert stack.ndim == 3 and stack.shape[0] > 1
        a = _apply_tms_raw(stack, 0.6, math.pi)
        b = _apply_tms_series(stack, 0.6, math.pi)
        assert np.allclose(a, b, atol=1e-12)

    def test_one_eigendecomposition_per_diagonal_and_cutoff(self, monkeypatch):
        from su11 import fock

        monkeypatch.setattr(fock, "_TMS_BLOCK_CACHE", {})
        monkeypatch.setattr(fock, "_TMS_BASIS_CACHE", {})
        calls = []
        eigh = fock.np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(fock.np.linalg, "eigh", counting_eigh)
        st = prepare_input(0.5, 24)
        for g in (0.4, 0.9):
            for theta in (0.0, math.pi):
                fock._apply_tms_raw(st.amps, g, theta)
        assert len(calls) == 25
        assert len(fock._TMS_BLOCK_CACHE) == 4

    def test_caches_share_one_budget_over_a_gain_sweep(self, monkeypatch):
        from su11 import fock

        monkeypatch.setattr(fock, "_TMS_BLOCK_CACHE", {})
        monkeypatch.setattr(fock, "_TMS_BASIS_CACHE", {})
        monkeypatch.setattr(fock, "_TMS_CACHE_BUDGET", 1.5e5)

        def entries():
            blocks = sum(b.size for v in fock._TMS_BLOCK_CACHE.values() for b in v)
            bases = sum(
                (lam.size + vec.size) / 2.0
                for v in fock._TMS_BASIS_CACHE.values()
                for lam, vec in v
            )
            return blocks + bases

        seen = set()
        for g in np.linspace(0.3, 0.9, 7):
            fock.numeric_internal_photon_number(Params(g=g, beta=0.5, phi=0.4, m=1))
            seen.update(fock._TMS_BASIS_CACHE)
            assert entries() <= fock._TMS_CACHE_BUDGET
        # the sweep outgrew the budget, so eviction reached the bases too
        assert seen - set(fock._TMS_BASIS_CACHE)
