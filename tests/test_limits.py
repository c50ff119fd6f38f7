"""Tests for the internal photon number and SQL/HL benchmarks."""

import math

import numpy as np
import pytest

from su11.errors import DarkFringeError
from su11.limits import internal_photon_number, limits
from su11.model import Params
from su11.qfi import qfi_ideal

# Fock-oracle values, frozen (g=1, beta=1, phi=0.4)
ORACLE_N_T = {
    (1, 1.0): 12.1676849188,
    (1, 0.6): 10.2341479350,
    (2, 1.0): 17.2735219281,
    (3, 0.6): 18.7305623397,
}
# closed-form values at g=1, beta=1, phi=0.4, T1=0.7 from a separate
# normalizer series; the normalizer slice of the mode-a series must reproduce them
PINNED_N_T = {0: 5.695732674842174, 3: 19.57953130944139, 15: 66.64610490894}


class TestInternalPhotonNumber:
    def test_tmsv_closed_form(self):
        # no subtraction, no loss, vacuum-fed mode b: N_T = 2 sinh^2 g
        for g in (0.5, 1.0):
            for phi in (0.2, 1.1):
                n_t = internal_photon_number(Params(g=g, beta=0.0, phi=phi, m=0))
                assert n_t == pytest.approx(2 * math.sinh(g) ** 2, rel=1e-12)

    def test_coherent_closed_form(self):
        # N_T(m=0, T=1) = 2 sinh^2 g + beta^2 cosh 2g
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0)
        want = 2 * math.sinh(1.0) ** 2 + math.cosh(2.0)
        assert internal_photon_number(p) == pytest.approx(want, rel=1e-12)

    def test_lossy_closed_form(self):
        # mode a is attenuated before the phase shifter; mode b untouched
        g, beta, T = 1.0, 1.0, 0.6
        p = Params(g=g, beta=beta, phi=0.4, m=0, T1=T)
        want = T * math.sinh(g) ** 2 * (1 + beta**2) + math.sinh(g) ** 2 + beta**2 * math.cosh(g) ** 2
        assert internal_photon_number(p) == pytest.approx(want, rel=1e-12)

    def test_phase_independent_without_subtraction(self):
        vals = [
            internal_photon_number(Params(g=1.0, beta=1.0, phi=ph, m=0, T1=0.7))
            for ph in (0.1, 0.8, 2.0)
        ]
        assert max(vals) - min(vals) < 1e-12 * vals[0]

    @pytest.mark.parametrize("m,T", sorted(ORACLE_N_T))
    def test_frozen_oracle_values(self, m, T):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=m, T1=T)
        assert internal_photon_number(p) == pytest.approx(ORACLE_N_T[(m, T)], rel=1e-6)

    @pytest.mark.parametrize("m", sorted(PINNED_N_T))
    def test_pinned_closed_form_values(self, m):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=m, T1=0.7)
        assert internal_photon_number(p) == pytest.approx(PINNED_N_T[m], rel=1e-12)

    def test_dark_fringe_of_subtraction_normalizer(self):
        # T = 1, phi = 0 makes v1 vanish, so m >= 1 has no support
        with pytest.raises(DarkFringeError):
            internal_photon_number(Params(g=1.0, beta=1.0, phi=0.0, m=1, T1=1.0))

    def test_increases_with_m(self):
        for T in (0.4, 0.7, 1.0):
            vals = [
                internal_photon_number(Params(g=1.0, beta=1.0, phi=0.4, m=m, T1=T))
                for m in range(4)
            ]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestLimits:
    def test_unit_photon_number(self):
        # 2 sinh^2 g = 1 calibrates N_T to exactly one photon
        g = math.asinh(math.sqrt(0.5))
        r = limits(Params(g=g, beta=0.0, phi=0.3, m=0))
        assert r.n_t == pytest.approx(1.0, rel=1e-12)
        assert r.sql == pytest.approx(1.0, rel=1e-12)
        assert r.hl == pytest.approx(1.0, rel=1e-12)

    def test_four_photons(self):
        g = math.asinh(math.sqrt(2.0))
        r = limits(Params(g=g, beta=0.0, phi=0.3, m=0))
        assert r.n_t == pytest.approx(4.0, rel=1e-12)
        assert r.sql == pytest.approx(0.5, rel=1e-12)
        assert r.hl == pytest.approx(0.25, rel=1e-12)

    def test_hl_sql_identity(self):
        for m in range(4):
            r = limits(Params(g=1.0, beta=1.0, phi=0.4, m=m, T1=0.8))
            assert r.hl * math.sqrt(r.n_t) == pytest.approx(r.sql, rel=1e-12)
            assert r.hl <= r.sql  # N_T >= 1 on this grid

    def test_hl_beats_ideal_qcrb(self):
        for m in range(4):
            p = Params(g=1.0, beta=1.0, phi=0.4, m=m, T1=1.0)
            assert limits(p).hl < qfi_ideal(p).qcrb

    def test_sql_hl_vary_less_than_qcrb_over_t(self):
        # loss moves the QCRB strongly but the photon-number limits weakly
        from su11.qfi import qfi_lossy

        def rel_range(vals):
            return (max(vals) - min(vals)) / min(vals)

        ts = np.linspace(0.4, 1.0, 13)
        for m in range(4):
            reports = [
                limits(Params(g=1.0, beta=1.0, phi=0.4, m=m, T1=float(t))) for t in ts
            ]
            qcrbs = [
                qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=float(t))).qcrb
                for t in ts
            ]
            assert rel_range([r.sql for r in reports]) / rel_range(qcrbs) < 1.0
            assert rel_range([r.hl for r in reports]) / rel_range(qcrbs) < 1.0

    def test_sweep_monotone_in_t(self):
        # more transmission, more internal photons
        for m in (0, 2):
            vals = [
                limits(Params(g=1.0, beta=1.0, phi=0.4, m=m, T1=float(T))).n_t
                for T in np.linspace(0.4, 1.0, 7)
            ]
            assert all(a < b for a, b in zip(vals, vals[1:]))
