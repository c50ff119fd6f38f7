"""Tests for the error-propagation sensitivity, ideal and lossy."""

import cmath
import math

import numpy as np
import pytest

from su11.errors import DarkFringeError, NumericalError, StationaryPointError, Su11Error
from su11.fock import numeric_moments_multi
from su11.limits import internal_photon_number
from su11.model import Params, kernels, log_weight, thermal
from su11.sensitivity import optimal_phase, sensitivity_ideal, sensitivity_lossy
from su11.verify import d_mean_dphi_fd
from references import engine_photon_number, engine_sensitivity, laguerre_coefficient

# Fock-oracle values, frozen (converged n_cut ladder, central step 1e-4):
# g=1, beta=1, phi=0.4, m=2, T1=0.8, T2=1
ORACLE_LOSSY_M2 = dict(delta_phi=0.179886822096, mean=2.43356047197, second=9.92854563051)
# g=1, beta=1, phi=0.4, m=1, ideal
ORACLE_IDEAL_M1 = dict(delta_phi=0.196332454362, mean=1.81715253091, second=6.39957999626)


class TestIdeal:
    def test_m0_mean_closed_form(self):
        p = Params(g=1.0, beta=0.7, phi=0.9, m=0)
        r = sensitivity_ideal(p)
        w1 = 0.5 * math.sinh(2.0 * p.g) * (1.0 - cmath.exp(-1j * p.phi))  # the lossless kernel
        assert r.mean_n == pytest.approx(abs(w1) ** 2 * (1 + p.beta**2), rel=1e-12)

    def test_dark_fringe_raises(self):
        with pytest.raises(DarkFringeError):
            sensitivity_ideal(Params(g=1.0, beta=1.0, phi=0.0, m=1))

    def test_m0_zero_phase_is_stationary(self):
        with pytest.raises(StationaryPointError):
            sensitivity_ideal(Params(g=1.0, beta=1.0, phi=0.0, m=0))

    def test_monotone_improvement_in_m(self):
        deltas = [
            sensitivity_ideal(Params(g=1.0, beta=1.0, phi=0.4, m=m)).delta_phi
            for m in range(4)
        ]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_frozen_oracle_point_m1(self):
        r = sensitivity_ideal(Params(g=1.0, beta=1.0, phi=0.4, m=1))
        assert r.delta_phi == pytest.approx(ORACLE_IDEAL_M1["delta_phi"], rel=1e-6)
        assert r.mean_n == pytest.approx(ORACLE_IDEAL_M1["mean"], rel=1e-6)
        assert r.var_n + r.mean_n**2 == pytest.approx(ORACLE_IDEAL_M1["second"], rel=1e-6)

    def test_monotone_improvement_in_beta_and_g(self):
        for m in range(4):
            db = [
                sensitivity_ideal(Params(g=1.0, beta=float(b), phi=0.4, m=m)).delta_phi
                for b in np.linspace(0.5, 2.0, 16)
            ]
            assert all(x > y for x, y in zip(db, db[1:])), f"beta ordering at m={m}"
            dg = [
                sensitivity_ideal(Params(g=float(g), beta=1.0, phi=0.4, m=m)).delta_phi
                for g in np.linspace(0.5, 2.0, 16)
            ]
            assert all(x > y for x, y in zip(dg, dg[1:])), f"g ordering at m={m}"

    def test_variance_nonnegative_on_sweep(self):
        for m in range(4):
            for phi in np.linspace(0.1, 3.0, 12):
                r = sensitivity_ideal(Params(g=1.0, beta=1.0, phi=float(phi), m=m))
                assert r.var_n >= 0.0
                assert r.delta_phi > 0


class TestLossy:
    def test_reduces_to_ideal_bit_for_bit(self):
        for m in (0, 1, 3):
            p = Params(g=1.0, beta=1.0, phi=0.7, m=m, T1=1.0, T2=1.0)
            ri = sensitivity_ideal(p)
            rl = sensitivity_lossy(p)
            assert rl == ri

    def test_internal_loss_hurts_more_than_external(self):
        base = dict(g=1.0, beta=1.0, phi=0.4, m=1)
        internal = sensitivity_lossy(Params(T1=0.7, T2=1.0, **base)).delta_phi
        external = sensitivity_lossy(Params(T1=1.0, T2=0.7, **base)).delta_phi
        assert internal > external

    def test_frozen_oracle_point_m2_internal_loss(self):
        r = sensitivity_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=2, T1=0.8))
        assert r.delta_phi == pytest.approx(ORACLE_LOSSY_M2["delta_phi"], rel=1e-6)
        assert r.mean_n == pytest.approx(ORACLE_LOSSY_M2["mean"], rel=1e-6)
        assert r.var_n + r.mean_n**2 == pytest.approx(ORACLE_LOSSY_M2["second"], rel=1e-6)

    def test_oracle_equivalence_spot_checks(self):
        # the full grid runs in the acceptance suite; spot-check both loss
        # placements here
        for kw in (
            dict(g=0.5, beta=1.0, phi=0.4, m=1, T1=1.0, T2=0.8),
            dict(g=1.0, beta=0.5, phi=1.0, m=2, T1=0.8, T2=1.0),
        ):
            p = Params(**kw)
            got = sensitivity_lossy(p)
            want = numeric_moments_multi(p, [p.m])[p.m]
            assert got.delta_phi == pytest.approx(want["delta_phi"], rel=1e-6)
            assert got.mean_n == pytest.approx(want["mean"], rel=1e-6)
            assert got.var_n + got.mean_n**2 == pytest.approx(want["second"], rel=1e-6)


def mp_delta_phi(mpmath, u, du, beta, m):
    """delta_phi at 60 digits from three (k, k) extractions at thermal number u.

    The extraction of exp(u ts + b t + c s) depends on b and c only through
    bc = beta^2 u, so b = c = beta sqrt(u); <N> = c1 u gives d<N>/dphi = <N> u' / u.
    """
    with mpmath.workdps(60):
        u, du, beta = mpmath.mpf(u), mpmath.mpf(du), mpmath.mpf(beta)
        b = beta * mpmath.sqrt(u)
        g0, g1, g2 = (
            mpmath.factorial(k) ** 2 * laguerre_coefficient(u, b, b, k, k) for k in (m, m + 1, m + 2)
        )
        mean = g1 / g0
        var = (g1 + g2) / g0 - mean**2
        return float(mpmath.sqrt(var) / abs(mean * du / u))


def mp_lossless_delta_phi(mpmath, g, phi, m):
    """delta_phi at 60 digits at T1 = T2 = 1 and beta = 1, and the thermal number u of its output."""
    with mpmath.workdps(60):
        shch2 = (mpmath.sinh(g) * mpmath.cosh(g)) ** 2
        u = shch2 * (2 - 2 * mpmath.cos(phi))
        return mp_delta_phi(mpmath, u, shch2 * 2 * mpmath.sin(phi), 1.0, m), u


class TestAgainstReferences:
    def test_laguerre_formulas_match_the_series_engine(self):
        # the three-extraction moments of exp(B(w3)) and N_T's <Y(v1)>, over the
        # reference's own dual kernels and their d/dphi channel
        rng = np.random.default_rng(2026)
        for _ in range(500):
            p = Params(
                g=float(rng.uniform(0.05, 3.0)),
                beta=float(rng.uniform(0.0, 3.0)),
                phi=float(rng.uniform(0.1, 3.0)),
                m=int(rng.integers(0, 16)),
                T1=float(rng.uniform(0.05, 1.0)),
                T2=float(rng.uniform(0.05, 1.0)),
            )
            got = sensitivity_lossy(p)
            engine = engine_sensitivity(p)
            half_sh2g, _, _, _, log_norm = kernels(p)
            u = thermal(half_sh2g, p.T1, p.T2, p.phi)[0]
            weight = math.exp(log_weight(log_norm, u, p.m, DarkFringeError))
            assert weight == pytest.approx(engine.pop("weight"), rel=1e-12), p
            for name, want in engine.items():
                assert getattr(got, name) == pytest.approx(want, rel=1e-12), (name, p)
            assert internal_photon_number(p) == pytest.approx(engine_photon_number(p), rel=1e-12)

    def test_variance_has_no_cancellation_at_large_beta(self):
        # Var(N) = <N^2> - <N>^2 cancels about <N>-fold; the positive-coefficient
        # form holds delta_phi to a 60-digit reference built from the same u, u', beta
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(60)
        worst = 0.0
        for _ in range(60):
            p = Params(
                g=float(rng.uniform(0.5, 6.0)),
                beta=float(rng.uniform(30.0, 100.0)),
                phi=float(rng.uniform(0.2, 3.0)),
                m=int(rng.integers(0, 16)),
                T1=float(rng.uniform(0.5, 1.0)),
                T2=float(rng.uniform(0.5, 1.0)),
            )
            u, du = thermal(kernels(p)[0], p.T1, p.T2, p.phi)
            want = mp_delta_phi(mpmath, u, du, p.beta, p.m)
            worst = max(worst, abs(sensitivity_lossy(p).delta_phi / want - 1.0))
        assert worst < 1e-14

    def test_finite_at_high_gain_and_order(self):
        # the weight m! u^m L_m overflows a double from g = 12.5 at m = 15, so it is
        # tested in logs; the three-extraction route overflowed at (m + 2, m + 2)
        mpmath = pytest.importorskip("mpmath")
        phi, m = 0.4, 15
        for g in (12.0, 12.5, 20.0, 40.0):
            want, u = mp_lossless_delta_phi(mpmath, g, phi, m)
            with mpmath.workdps(60):
                weight = mpmath.factorial(m) ** 2 * laguerre_coefficient(u, mpmath.sqrt(u), mpmath.sqrt(u), m, m)
                want_log = float(mpmath.log(weight))
            p = Params(g=g, beta=1.0, phi=phi, m=m)
            assert sensitivity_lossy(p).delta_phi == pytest.approx(want, rel=1e-12), g
            # the weight, in logs past a double's range: a log gap of 1e-12 is rel 1e-12
            half_sh2g, _, _, _, log_norm = kernels(p)
            got = log_weight(log_norm, thermal(half_sh2g, 1.0, 1.0, phi)[0], m, DarkFringeError)
            assert got == pytest.approx(want_log, abs=1e-12), g

    def test_refused_only_where_the_variance_overflows(self):
        # <N^2> = Var(N) + <N>^2 overflows first, from g = 89.635 at m = 0 and
        # g = 89.12 at m = 15; Var(N) stays finite to g = 89.741 and 89.488
        mpmath = pytest.importorskip("mpmath")
        for g, m in ((89.635, 0), (89.74, 0), (89.12, 15), (89.487, 15)):
            want, _ = mp_lossless_delta_phi(mpmath, g, 0.4, m)
            assert sensitivity_lossy(Params(g=g, beta=1.0, phi=0.4, m=m)).delta_phi == pytest.approx(want, rel=1e-12)
        for g, m in ((89.742, 0), (89.488, 15)):
            with pytest.raises(NumericalError, match="Var"):
                sensitivity_lossy(Params(g=g, beta=1.0, phi=0.4, m=m))

    def test_zero_beta_is_m_plus_one_repeated_trials(self):
        # at beta = 0, L_n = 1, so c1 = D_m = m + 1 and delta_phi_m = delta_phi_0 / sqrt(m + 1)
        for g, phi, t1, t2 in ((1.0, 0.4, 1.0, 1.0), (1.0, 0.4, 0.8, 0.9), (0.3, 2.0, 0.5, 1.0),
                               (2.0, -1.0, 1.0, 0.6)):
            p = Params(g=g, beta=0.0, phi=phi, T1=t1, T2=t2)
            base = sensitivity_lossy(p).delta_phi
            for m in range(16):
                got = sensitivity_lossy(p.replace(m=m)).delta_phi
                assert got == pytest.approx(base / math.sqrt(m + 1), rel=1e-12), (p, m)


class TestDualChannel:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = Params(
                g=float(rng.uniform(0.3, 1.4)),
                beta=float(rng.uniform(0.2, 1.4)),
                phi=float(rng.uniform(0.15, 2.8)),
                m=int(rng.integers(0, 4)),
                T1=float(rng.uniform(0.6, 1.0)),
                T2=float(rng.uniform(0.6, 1.0)),
            )
            r = sensitivity_lossy(p)
            fd = d_mean_dphi_fd(p)
            assert r.d_mean_dphi == pytest.approx(fd, rel=1e-6)


class TestOptimalPhase:
    def test_optimum_near_zero_for_m0(self):
        p = Params(g=1.0, beta=1.0, m=0)
        phi_star, delta_star = optimal_phase(p, (0.01, math.pi))
        assert phi_star < 0.01 + 0.1 * (math.pi - 0.01)
        assert delta_star > 0

    def test_mirror_symmetry(self):
        p = Params(g=1.0, beta=1.0, m=1)
        # delta(phi) = delta(-phi), verified directly, then through the optimizer
        for phi in (0.3, 0.9):
            dp = sensitivity_ideal(p.replace(phi=phi)).delta_phi
            dm = sensitivity_ideal(p.replace(phi=-phi)).delta_phi
            assert dp == pytest.approx(dm, rel=1e-12)
        right = optimal_phase(p, (0.01, 1.0))
        left = optimal_phase(p, (-1.0, -0.01))
        assert left[1] == pytest.approx(right[1], rel=1e-6)
        assert left[0] == pytest.approx(-right[0], rel=1e-3)

    def test_all_samples_dark_raises(self):
        # zero gain keeps mode a dark at every phase, so m >= 1 never succeeds
        p = Params(g=0.0, beta=1.0, m=1)
        with pytest.raises(DarkFringeError):
            optimal_phase(p, (0.1, 1.0))

    def test_wide_interval_finds_the_optimum_next_to_a_fringe(self):
        # the narrow minimum at phi ~ -0.1066 falls between the samples of a
        # coarse grid over the whole interval; held to a dense scan
        p = Params(g=1.9, beta=2.4, m=4, T1=0.83, T2=0.94)
        phi_star, delta_star = optimal_phase(p, (-2.0, 6.1))
        scan_min = math.inf
        for phi in np.linspace(-2.0, 6.1, 400_001):
            try:
                scan_min = min(scan_min, sensitivity_lossy(p.replace(phi=float(phi))).delta_phi)
            except Su11Error:
                pass
        assert -2.0 <= phi_star <= 6.1
        assert delta_star <= scan_min * (1.0 + 1e-12)
        assert scan_min <= delta_star * (1.0 + 1e-6)

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("t2", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize(
        "interval, fringe",
        [((-1.0, 1.0), 0.0), ((0.0, math.pi), 0.0), ((5.0, 7.0), 2.0 * math.pi)],
        ids=["-1_1", "0_pi", "5_7"],
    )
    def test_fringe_limit_without_internal_loss(self, m, t2, interval, fringe):
        # at T1 = 1, delta_phi grows away from the fringe 2 pi k, where it tends
        # to 1 / (sinh 2g sqrt(T2 c1)), c1 = (m + 1) L_(m+1)(-beta^2) / L_m(-beta^2)
        def lag(n, x):
            return sum(math.comb(n, j) * x**j / math.factorial(j) for j in range(n + 1))

        g, beta = 1.0, 1.0
        c1 = (m + 1) * lag(m + 1, beta**2) / lag(m, beta**2)
        phi_star, delta_star = optimal_phase(Params(g=g, beta=beta, m=m, T2=t2), interval)
        assert phi_star == pytest.approx(fringe, rel=1e-12, abs=1e-12)
        assert delta_star == pytest.approx(1.0 / (math.sinh(2.0 * g) * math.sqrt(t2 * c1)), rel=1e-12)

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("dark", [dict(g=0.0), dict(T2=0.0)], ids=["g0", "T2_0"])
    def test_dark_everywhere_still_raises(self, m, dark):
        # with u = 0 at every phase there is no fringe limit either
        error = DarkFringeError if m else StationaryPointError
        with pytest.raises(error):
            optimal_phase(Params(beta=1.0, m=m, **dark), (-1.0, 1.0))

    def test_interior_optimum_matches_a_dense_scan(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            p = Params(
                g=float(rng.uniform(0.2, 2.0)),
                beta=float(rng.uniform(0.0, 2.5)),
                m=int(rng.integers(0, 6)),
                T1=float(rng.uniform(0.2, 0.98)),
                T2=float(rng.uniform(0.2, 1.0)),
            )
            phi_star, delta_star = optimal_phase(p, (1e-3, math.pi - 1e-3))
            scan = [sensitivity_lossy(p.replace(phi=float(x))).delta_phi
                    for x in np.linspace(1e-3, math.pi - 1e-3, 4001)]
            assert delta_star <= min(scan) * (1.0 + 1e-12)
            assert min(scan) <= delta_star * (1.0 + 1e-4)
            assert sensitivity_lossy(p.replace(phi=phi_star)).delta_phi == delta_star

    def test_candidates_copy_no_params(self, monkeypatch):
        # each candidate runs sensitivity_lossy's body at p's constants with its phi passed in,
        # so the result is sensitivity_lossy's at a copy of p bit for bit, and no worse at the ends
        rng = np.random.default_rng(38)
        cases = []
        for _ in range(300):
            p = Params(g=float(10.0 ** rng.uniform(-2.0, 1.5)), beta=float(rng.uniform(0.0, 3.0)),
                       m=int(rng.integers(0, 16)), T1=float(rng.uniform(0.0, 0.999)),
                       T2=float(rng.uniform(0.0, 1.0)))
            lo = float(rng.uniform(-7.0, 7.0))
            cases.append((p, (lo, lo + float(rng.choice([0.0, rng.uniform(0.0, 8.0)])))))

        def forbidden(self, **kw):
            raise AssertionError("optimal_phase copied its Params")

        with monkeypatch.context() as patch:
            patch.setattr(Params, "replace", forbidden)
            got = []
            for p, interval in cases:
                try:
                    got.append(optimal_phase(p, interval))
                except Su11Error as err:
                    got.append(type(err))

        def delta_at(p, phi):
            try:
                return sensitivity_lossy(p.replace(phi=phi)).delta_phi
            except Su11Error:
                return math.inf

        assert sum(isinstance(r, tuple) for r in got) > 200
        for (p, (lo, hi)), result in zip(cases, got):
            if isinstance(result, tuple):
                phi_star, delta_star = result
                assert delta_star.hex() == sensitivity_lossy(p.replace(phi=phi_star)).delta_phi.hex(), p
                assert delta_star <= min(delta_at(p, lo), delta_at(p, hi)), p
            else:
                assert delta_at(p, lo) == delta_at(p, hi) == math.inf, p


class TestLossPlacementAtOptimum:
    """At each placement's own optimal phase, internal loss costs more than external loss.

    At the fixed phase 0.4 the ordering reverses near T ~ 0.87 (finding F1).
    """

    @pytest.mark.parametrize("g, beta", [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 0.5)])
    @pytest.mark.parametrize("m", range(4))
    def test_internal_loss_is_worse(self, g, beta, m):
        for t in np.linspace(0.4, 0.95, 12):
            p = Params(g=g, beta=beta, m=m)
            internal = optimal_phase(p.replace(T1=float(t)), (0.0, math.pi))[1]
            external = optimal_phase(p.replace(T2=float(t)), (0.0, math.pi))[1]
            assert internal > external, f"T = {t:.2f}"
