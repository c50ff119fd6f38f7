"""Tests for the ideal and lossy quantum Fisher information."""

import numpy as np
import pytest

from su11.errors import DarkFringeError, NormalizationError
from su11.fock import numeric_cq, numeric_qfi_pure
from su11.model import Params
from su11.qfi import cq_alpha, qcrb, qfi_ideal, qfi_lossy
from su11.sensitivity import sensitivity_ideal

# fidelity-oracle values at g=1, beta=1, phi=0.4 (Richardson, converged n_cut)
ORACLE_F_IDEAL = {0: 33.9379578869, 1: 55.5765637644, 2: 74.6353211166}
# closed-form values at the same point from four separate exponent series
# (F2, F3, F4, F1); the slices of exp(F1) must reproduce them
PINNED_F_IDEAL = {0: 33.93795787185746, 3: 92.58751959779903, 15: 284.99657450220275}


class TestQcrb:
    def test_unit_f(self):
        assert qcrb(1.0, 1) == 1.0

    def test_f_four(self):
        assert qcrb(4.0, 1) == 0.5

    def test_nu_scaling(self):
        assert qcrb(1.0, 4) == 0.5

    def test_rejects_nonpositive_f(self):
        with pytest.raises(ValueError):
            qcrb(0.0)
        with pytest.raises(ValueError):
            qcrb(-1.0)


class TestIdealQfi:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_fidelity_oracle_frozen(self, m):
        f = qfi_ideal(Params(g=1.0, beta=1.0, phi=0.4, m=m)).f
        assert f == pytest.approx(ORACLE_F_IDEAL[m], rel=1e-5)

    @pytest.mark.parametrize("m", sorted(PINNED_F_IDEAL))
    def test_pinned_closed_form_values(self, m):
        f = qfi_ideal(Params(g=1.0, beta=1.0, phi=0.4, m=m)).f
        assert f == pytest.approx(PINNED_F_IDEAL[m], rel=1e-12)

    def test_matches_fidelity_oracle_live(self):
        p = Params(g=0.6, beta=0.8, phi=0.7, m=1)
        assert qfi_ideal(p).f == pytest.approx(numeric_qfi_pure(p), rel=1e-5)

    def test_increases_with_m(self):
        fs = [qfi_ideal(Params(g=1.0, beta=1.0, phi=0.4, m=m)).f for m in range(4)]
        assert all(a < b for a, b in zip(fs, fs[1:]))

    def test_increases_with_beta_and_g(self):
        for m in (0, 2):
            fb = [
                qfi_ideal(Params(g=1.0, beta=b, phi=0.4, m=m)).f
                for b in np.linspace(0.5, 2.0, 8)
            ]
            assert all(a < b for a, b in zip(fb, fb[1:]))
            fg = [
                qfi_ideal(Params(g=g, beta=1.0, phi=0.4, m=m)).f
                for g in np.linspace(0.5, 2.0, 8)
            ]
            assert all(a < b for a, b in zip(fg, fg[1:]))

    def test_insertion_extractions_are_conjugate(self):
        r = qfi_ideal(Params(g=1.0, beta=1.0, phi=0.4, m=2))
        assert r.terms["h4"] == pytest.approx(r.terms["h3"].conjugate(), rel=1e-12)

    def test_dark_fringe(self):
        with pytest.raises(DarkFringeError):
            qfi_ideal(Params(g=1.0, beta=1.0, phi=0.0, m=1))

    def test_zero_gain_has_no_information(self):
        from su11.errors import StationaryPointError

        with pytest.raises(StationaryPointError):
            qfi_ideal(Params(g=0.0, beta=1.0, phi=0.4, m=0))

    def test_qcrb_below_sensitivity(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0)
        r = qfi_ideal(p)
        assert r.qcrb < sensitivity_ideal(p).delta_phi


class TestCqAlpha:
    def test_unit_eta_is_alpha_independent_and_ideal(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1, eta=1.0)
        f_ideal = qfi_ideal(p).f
        for alpha in (-1.0, 0.0, 0.8):
            assert cq_alpha(p.replace(alpha=alpha)) == pytest.approx(f_ideal, rel=1e-12)

    @pytest.mark.parametrize("m,alpha", [(0, 0.0), (0, -1.0), (1, 0.3)])
    def test_matches_kraus_oracle(self, m, alpha):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=0.7, alpha=alpha)
        assert cq_alpha(p) == pytest.approx(numeric_cq(p), rel=1e-5)

    def test_placements_differ_under_loss(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0, eta=0.7)
        before = cq_alpha(p.replace(alpha=0.0))
        after = cq_alpha(p.replace(alpha=-1.0))
        assert abs(before - after) > 1.0

    def test_alpha_scan_minimum_equals_qfi_lossy(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0, eta=0.7)
        scan = min(
            cq_alpha(p.replace(alpha=float(a))) for a in np.linspace(-1.5, 1.5, 301)
        )
        assert qfi_lossy(p).f == pytest.approx(scan, rel=1e-5)


class TestLossyQfi:
    def test_unit_eta_reduces_to_ideal(self):
        for m in (0, 1, 2, 3):
            p = Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=1.0)
            assert qfi_lossy(p).f == pytest.approx(qfi_ideal(p).f, rel=1e-10)

    @pytest.mark.parametrize("eta", [0.5, 0.7, 0.9, 1.0])
    def test_closed_form_equals_numeric_minimum(self, eta):
        for m in (0, 1, 2, 3):
            r = qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=eta))
            assert r.terms["closed_numeric_consistent"]
            assert r.terms["f_closed"] == pytest.approx(
                r.terms["f_numeric_min"], rel=1e-8
            )

    def test_increases_with_m_under_fixed_loss(self):
        fs = [
            qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=0.7)).f
            for m in range(4)
        ]
        assert all(a < b for a, b in zip(fs, fs[1:]))

    def test_monotone_in_transmissivity(self):
        fs = [
            qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=1, eta=float(e))).f
            for e in np.linspace(0.4, 1.0, 13)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_severe_loss_halves_qfi_somewhere(self):
        # at eta = 0.7 there is a beta range (g = 1, m = 0) losing over half the QFI
        found = False
        for beta in np.linspace(0.5, 2.0, 16):
            fl = qfi_lossy(Params(g=1.0, beta=float(beta), phi=0.4, m=0, eta=0.7)).f
            fi = qfi_ideal(Params(g=1.0, beta=float(beta), phi=0.4, m=0)).f
            if fl < 0.5 * fi:
                found = True
        assert found

    def test_hermiticity_audit(self):
        r = qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=2, eta=0.7))
        assert r.terms["t_bra"] == pytest.approx(
            r.terms["t_ket"].conjugate(), abs=1e-12 * (1 + abs(r.terms["t_bra"]))
        )
        assert r.terms["n_bra"] == pytest.approx(r.terms["n_ket"].conjugate(), rel=1e-12)

    def test_variance_nonnegative(self):
        r = qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=2, eta=0.7))
        assert r.terms["var"].real >= 0.0

    def test_wide_alpha_bracket_handled(self):
        # at eta = 0.9 the optimal placement lies outside the initial bracket
        r = qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=0, eta=0.9))
        assert r.alpha_star == pytest.approx(1.5445, abs=2e-3)
        assert r.terms["closed_numeric_consistent"]

    def test_lossy_bound_ordering_with_matched_placement(self):
        # internal mode-a loss with T2 = 1 and T = eta: intensity detection
        # can never beat the (upper-bounded) quantum limit
        from su11.sensitivity import sensitivity_lossy

        for t in (0.5, 0.7, 0.9):
            for m in range(4):
                p = Params(g=1.0, beta=1.0, phi=0.4, m=m, T1=t, T2=1.0, eta=t)
                assert sensitivity_lossy(p).delta_phi > qfi_lossy(p).qcrb

    def test_minimization_consistent_on_figure_grid(self):
        for eta in np.linspace(0.4, 1.0, 61):
            r = qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=2, eta=float(eta)))
            assert r.terms["closed_numeric_consistent"]

    def test_no_photons_raises(self):
        with pytest.raises(NormalizationError):
            qfi_lossy(Params(g=0.0, beta=0.0, phi=0.4, m=0, eta=0.7))
