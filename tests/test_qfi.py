"""Tests for the ideal and lossy quantum Fisher information."""

import math

import numpy as np
import pytest

from references import engine_loss_inner_products, laguerre_coefficient, mp_ideal_qfi
from su11 import qfi
from su11.errors import (ROUNDOFF_REL_TOL, DarkFringeError, NormalizationError, NumericalError,
                         StationaryPointError, Su11Error, ZeroProbabilityError, finite, positive)
from su11.fock import numeric_cq, numeric_qfi_pure
from su11.model import Params, kernels
from su11.qfi import QfiReport, cq_alpha, qcrb, qfi_ideal, qfi_lossy
from su11.sensitivity import sensitivity_ideal, sensitivity_lossy
from su11.verify import alpha_scan

# Fock-oracle QFI at g=1, beta=1, phi=0.4 (converged n_cut), frozen; the
# exact-tangent oracle of numeric_qfi_pure reproduces each to rel 2e-10
ORACLE_F_IDEAL = {0: 33.9379578869, 1: 55.5765637644, 2: 74.6353211166}
# ideal QFI as the equivalent model's own generating function over six dummy
# variables gave it, before the extended-system bound at eta = 1 replaced
# that route; by m, then (g, beta, phi)
PINNED_F_IDEAL = {
    0: {
        (0.5, 0.0, 0.4): 1.3810978455418161,
        (0.5, 2.5, 2.0): 11.856312979623967,
        (1.0, 1.0, 0.4): 33.93795787185746,
        (1.0, 0.0, 2.0): 13.15411641800824,
        (1.5, 1.0, 2.0): 282.9381301921282,
        (1.5, 2.5, 0.4): 1241.4847688793543,
        (11.0, 1.0, 0.4): 9.638700082184569e+18,
        (11.5, 0.0, 0.4): 2.374029855150613e+19,
    },
    3: {
        (0.5, 0.0, 0.4): 5.524391382167295,
        (0.5, 2.5, 2.0): 19.1420710663443,
        (1.0, 1.0, 0.4): 92.58751959779903,
        (1.0, 0.0, 2.0): 52.61646567203306,
        (1.5, 1.0, 2.0): 743.2976013018088,
        (1.5, 2.5, 0.4): 1801.5992985915836,
        (11.0, 1.0, 0.4): 2.468874649445761e+19,
        (11.5, 0.0, 0.4): 9.49611942060245e+19,
    },
    8: {
        (0.5, 0.0, 0.4): 12.429880609876818,
        (0.5, 2.5, 2.0): 29.558528788297338,
        (1.0, 1.0, 0.4): 175.7637363598153,
        (1.0, 0.0, 2.0): 118.38704776207487,
        (1.5, 1.0, 2.0): 1389.5572880654054,
        (1.5, 2.5, 0.4): 2614.480611423067,
        (11.0, 1.0, 0.4): 4.566071283755411e+19,
        (11.5, 0.0, 0.4): 2.1366268696355484e+20,
    },
    15: {
        (0.5, 0.0, 0.4): 22.097565528665655,
        (0.5, 2.5, 2.0): 42.873376689713155,
        (1.0, 1.0, 0.4): 284.99657450220275,
        (1.0, 0.0, 2.0): 210.4658626881337,
        (1.5, 1.0, 2.0): 2234.8001750744734,
        (1.5, 2.5, 0.4): 3646.8543541501276,
        (11.0, 1.0, 0.4): 7.300754266192111e+19,
        (11.5, 0.0, 0.4): 3.798447768240967e+20,
    },
}


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
        # and a non-positive number of trials
        with pytest.raises(ValueError, match="nu must be >= 1"):
            qcrb(1.0, nu=0)


class TestIdealQfi:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_fidelity_oracle_frozen(self, m):
        f = qfi_ideal(Params(g=1.0, beta=1.0, phi=0.4, m=m)).f
        assert f == pytest.approx(ORACLE_F_IDEAL[m], rel=1e-5)

    @pytest.mark.parametrize("m", sorted(PINNED_F_IDEAL))
    def test_pinned_closed_form_values(self, m):
        for (g, beta, phi), want in PINNED_F_IDEAL[m].items():
            f = qfi_ideal(Params(g=g, beta=beta, phi=phi, m=m)).f
            assert f == pytest.approx(want, rel=1e-11), (g, beta, phi)

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

    def test_dark_fringe(self):
        with pytest.raises(DarkFringeError):
            qfi_ideal(Params(g=1.0, beta=1.0, phi=0.0, m=1))

    def test_finite_at_large_gain(self):
        # F grows like e^{4g}; no power |X1|^2m is formed, so m = 15 stays finite
        # far past g = 12.5, where extracting at the raw scale overflowed
        f = qfi_ideal(Params(g=12.0, beta=1.0, phi=0.4, m=15)).f
        assert f == pytest.approx(3.986e21, rel=1e-3)
        below = qfi_ideal(Params(g=11.5, beta=1.0, phi=0.4, m=15)).f
        assert f == pytest.approx(math.e**2 * below, rel=1e-9)
        mpmath = pytest.importorskip("mpmath")
        for g in (12.5, 20.0, 40.0):
            for eta in (1.0, 0.7):
                p = Params(g=g, beta=1.0, phi=0.4, m=15, eta=eta)
                assert qfi_lossy(p).f == pytest.approx(mp_qfi_lossy(mpmath, p), rel=1e-12), p

    def test_zero_gain_has_no_information(self):
        with pytest.raises(StationaryPointError):
            qfi_ideal(Params(g=0.0, beta=1.0, phi=0.4, m=0))

    @pytest.mark.parametrize("m", [0, 1, 3, 7, 15])
    def test_vacuum_seed_gains_m_plus_one_trials(self, m):
        # at beta = 0, L_n = 1 and c1 = D_m = m + 1: F_m = 4 (m + 1) sinh^2 g cosh^2 g
        for g in (0.5, 1.0):
            want = 4.0 * (m + 1) * math.sinh(g) ** 2 * math.cosh(g) ** 2
            assert qfi_ideal(Params(g=g, beta=0.0, phi=0.4, m=m)).f == pytest.approx(want, rel=1e-12)

    def test_reads_the_probe_moments_only(self, monkeypatch):
        # four times the variance, with no inner product and no minimization
        def forbidden(*args):
            raise AssertionError("qfi_ideal minimized C_Q's inner products")

        monkeypatch.setattr(qfi, "_loss_inner_products", forbidden)
        r = qfi_ideal(Params(g=1.0, beta=1.0, phi=0.4, m=3))
        assert r.alpha_star is None
        assert set(r.terms) == {"n_mean", "var"}
        assert r.f == 4.0 * r.terms["var"]

    def test_qcrb_below_sensitivity(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0)
        r = qfi_ideal(p)
        assert r.qcrb < sensitivity_ideal(p).delta_phi


class TestIdealPaths:
    """The ideal calculators read unit transmittances without copying Params."""

    @staticmethod
    def old_qfi_ideal(p: Params) -> QfiReport:
        # the eta = 1 copy's probe weight, moments and checks, as qfi_ideal read them
        ks = kernels(p.replace(eta=1.0))
        ks.log_weight(ks.thermal(1.0, 1.0)[0], DarkFringeError)
        n_mean, var = ks.moments(ks.sh2)
        finite(var, "Var(n)")
        if n_mean == 0.0:
            raise StationaryPointError("the probe holds no photons in mode a: F = 0")
        f = positive(4.0 * var, "QFI")
        return QfiReport(f=f, qcrb=qcrb(f, p.nu), alpha_star=None, terms={"n_mean": n_mean, "var": var})

    @staticmethod
    def outcome(calc, p: Params) -> str:
        # repr shows every bit of a finite float; a typed error shows as its class
        try:
            return repr(calc(p))
        except Su11Error as err:
            return type(err).__name__

    def test_bit_for_bit_with_no_params_copy(self, monkeypatch):
        rng = np.random.default_rng(35)
        points = [Params(g=1.0, beta=1.0, phi=0.0, m=1, T1=0.7, T2=0.6, eta=0.5),  # C4's dark fringe
                  Params(g=1.0, beta=1.0, phi=0.0, m=0, T1=0.7), Params(g=0.0, beta=1.0, phi=0.4, m=0)]
        for i in range(400):
            near = i % 2 == 0  # half next to a fringe
            phi = 10.0 ** rng.uniform(-15.0, -1.0) if near else rng.uniform(-7.0, 7.0)
            points.append(Params(
                g=float(10.0 ** rng.uniform(-3.0, 2.3)), beta=float(rng.choice([0.0, 1e92, rng.uniform(0.0, 5.0)])),
                phi=float(phi), m=int(rng.integers(0, 16)), T1=float(rng.uniform(0.0, 1.0)),
                T2=float(rng.uniform(0.0, 1.0)), eta=float(rng.uniform(0.01, 1.0)), nu=int(rng.integers(1, 5))))
        want = [(self.outcome(lambda q: sensitivity_lossy(q.replace(T1=1.0, T2=1.0)), p),
                 self.outcome(self.old_qfi_ideal, p)) for p in points]
        assert want[0] == ("DarkFringeError", "DarkFringeError")
        assert {"NumericalError", "StationaryPointError"} <= {code for pair in want for code in pair}

        def forbidden(self, **kw):
            raise AssertionError("an ideal calculator copied its Params")

        monkeypatch.setattr(Params, "replace", forbidden)
        for p, (sens, f) in zip(points, want):
            assert self.outcome(sensitivity_ideal, p) == sens, p
            assert self.outcome(qfi_ideal, p) == f, p


class TestCqAlpha:
    def test_unit_eta_is_alpha_independent_and_ideal(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1, eta=1.0)
        f_ideal = qfi_ideal(p).f
        for alpha in (-1.0, 0.0, 0.8):
            assert cq_alpha(p, alpha) == pytest.approx(f_ideal, rel=1e-12)

    @pytest.mark.parametrize("m,alpha", [(0, 0.0), (0, -1.0), (1, 0.3), (0, -1.7), (2, 1.2)])
    def test_matches_kraus_oracle(self, m, alpha):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=0.7)
        assert cq_alpha(p, alpha) == pytest.approx(numeric_cq(p, alpha), rel=1e-5)

    def test_is_the_phi_free_quadratic_of_the_probe_moments(self):
        # C_Q = 4 [(1 - (1 + alpha)(1 - eta))^2 V + (1 + alpha)^2 eta (1 - eta) n] with
        # n = c1 sinh^2 g and V = (D_m / L_m^2) sinh^4 g + n, from exact Laguerre sums
        from fractions import Fraction

        def lag(n, x):
            return sum(Fraction(math.comb(n, j)) * x**j / math.factorial(j) for j in range(n + 1))

        rng = np.random.default_rng(25)
        for i in range(300):
            g, beta = (float(v) for v in rng.uniform(0.05, 3.0, size=2))
            m = int(rng.integers(0, 16))
            eta = 1.0 if i % 2 else float(rng.uniform(0.05, 1.0))
            alpha = float(rng.uniform(-2.0, 2.0))
            p = Params(g=g, beta=beta, phi=float(rng.uniform(-math.pi, math.pi)), m=m, eta=eta)
            x = Fraction(beta) ** 2
            l0, l1, l2 = lag(m, x), lag(m + 1, x), lag(m + 2, x)
            sh2 = math.sinh(g) ** 2
            n = float((m + 1) * l1 / l0) * sh2
            var = float(((m + 1) * (m + 2) * l2 * l0 - (m + 1) ** 2 * l1 * l1) / (l0 * l0)) * sh2 * sh2 + n
            u = 1.0 - (1.0 + alpha) * (1.0 - eta)
            want = 4.0 * (u * u * var + (1.0 + alpha) ** 2 * eta * (1.0 - eta) * n)
            got = cq_alpha(p, alpha)
            assert got == pytest.approx(want, rel=1e-12), p
            assert cq_alpha(p.replace(phi=0.4), alpha) == got, p
            if eta == 1.0:
                assert qfi_ideal(p).f == pytest.approx(4.0 * var, rel=1e-12), p

    def test_rejects_non_finite_placement(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0, eta=0.7)
        for alpha in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be finite"):
                cq_alpha(p, alpha)
            with pytest.raises(ValueError, match="alpha must be finite"):
                numeric_cq(p, alpha)

    def test_huge_placement_is_numerical(self):
        # C_Q grows like alpha^2: past |alpha| ~ 1e154 both forms overflow, and the
        # oracle stops at its first cutoff instead of climbing the ladder
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1, eta=0.7)
        for alpha in (1e155, -1e155, 1e200):
            for cq in (cq_alpha, numeric_cq):
                with pytest.raises(NumericalError, match="C_Q must be positive and finite"):
                    cq(p, alpha)
        assert numeric_cq(p, 1e150) == pytest.approx(cq_alpha(p, 1e150), rel=1e-10)

    def test_empty_probe_is_numerical(self):
        # at g = 0 mode a holds no photons and C_Q = 0: both forms refuse it with one
        # rule, the oracle at its first cutoff
        p = Params(g=0.0, beta=1.0, phi=0.4, m=0, eta=0.7)
        for cq in (cq_alpha, numeric_cq):
            with pytest.raises(NumericalError, match="C_Q must be positive and finite, got 0.0"):
                cq(p, 0.3)
        # with a subtraction there is no probe at all: the oracle finds it empty,
        # the closed form finds its weight vanished
        p = p.replace(m=1)
        with pytest.raises(ZeroProbabilityError):
            numeric_cq(p, 0.3)
        with pytest.raises(NormalizationError):
            cq_alpha(p, 0.3)

    @pytest.mark.parametrize(
        "p, alpha",
        [
            (Params(g=1.005, beta=2.009, phi=2.0 * math.pi, m=6, eta=1.0), 0.308),
            (Params(g=1.698, beta=0.179, phi=2.0 * math.pi, m=1, eta=1.0), -0.300),
        ],
    )
    def test_dark_fringe_roundoff_is_numerical(self, p, alpha):
        # on the fringe the probe's inner products cancel to roundoff, which
        # qfi_lossy refuses as Numerical; C_Q has no cancelling terms, phi does
        # not enter it, and qfi_ideal, its value at eta = 1, is a value there
        assert cq_alpha(p, alpha) == pytest.approx(cq_alpha(p.replace(phi=0.4), alpha), rel=1e-12)
        with pytest.raises(NumericalError):
            qfi_lossy(p)
        f = qfi_ideal(p).f
        assert math.isfinite(f)
        assert f == pytest.approx(cq_alpha(p.replace(eta=1.0), 0.0), rel=1e-14)
        mpmath = pytest.importorskip("mpmath")
        assert f == pytest.approx(mp_ideal_qfi(mpmath, p), rel=1e-12)

    def test_placements_differ_under_loss(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0, eta=0.7)
        before = cq_alpha(p, 0.0)
        after = cq_alpha(p, -1.0)
        assert abs(before - after) > 1.0

    def test_alpha_scan_minimum_equals_qfi_lossy(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0, eta=0.7)
        scan = min(
            cq_alpha(p, float(a)) for a in np.linspace(-1.5, 1.5, 301)
        )
        assert qfi_lossy(p).f == pytest.approx(scan, rel=1e-5)


def mp_qfi_lossy(mpmath, p: Params) -> float:
    """qfi_lossy's F at 50 digits, from the unscaled polynomials over (t, s).

    Every extraction is sum_ab q_ab c(m - a, m - b) / c(m, m), with c the
    t^i s^j coefficient of exp(B(X1)) summed term by term; the minimum over
    the Kraus placement is `qfi_lossy`'s formula.
    """
    with mpmath.workdps(50):
        g, beta, phi, eta = (mpmath.mpf(v) for v in (p.g, p.beta, p.phi, p.eta))
        m, h = p.m, mpmath.sinh(2 * g) / 2
        x1 = h * (1 - mpmath.sqrt(eta) * mpmath.expj(-phi))
        x1c = mpmath.conj(x1)
        q2 = x1c - h
        q3 = -mpmath.conj(q2)

        def mul(a, b):
            out = {}
            for (i, j), u in a.items():
                for (k, l), v in b.items():
                    out[i + k, j + l] = out.get((i + k, j + l), 0) + u * v
            return out

        def plus(a, b):
            return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}

        def coeff(i, j):
            return laguerre_coefficient(abs(x1) ** 2, beta * x1, beta * x1c, i, j) if min(i, j) >= 0 else 0

        def ext(q):
            return sum(c * coeff(m - a, m - b) for (a, b), c in q.items()) / coeff(m, m)

        x2 = {(0, 1): 1j * q2 * beta, (1, 1): 1j * q2 * x1}
        x3 = {(1, 0): 1j * q3 * beta, (1, 1): 1j * q3 * x1c}
        x6 = {(0, 0): beta**2, (1, 0): beta * x1, (0, 1): beta * x1c, (1, 1): abs(x1) ** 2}
        sh2 = mpmath.sinh(g) ** 2
        tt = mpmath.re(ext(plus(mul(x2, x3), {(1, 1): -q3 * q2})))
        t_bra = ext(x3)
        n = sh2 * mpmath.re(ext(plus(x6, {(0, 0): 1})))
        quad = plus(plus(mul(x6, x6), {k: 4 * v for k, v in x6.items()}), {(0, 0): 2})
        var = sh2**2 * mpmath.re(ext(quad)) + n - n * n
        s = mpmath.im(sh2 * ext(mul(x3, plus(x6, {(0, 0): 2})))) - n * mpmath.im(t_bra)
        denom = (1 - eta) * var + eta * n
        f = 4 * (tt - abs(t_bra) ** 2) + 4 * (eta * n * (var - 2 * s) - (1 - eta) * s * s) / denom
        return float(f)


class TestInnerProducts:
    def test_closed_forms_match_whole_box_engine_extractions(self):
        # the engine extracts each unscaled polynomial product from exp(B(X1))
        # itself, over the caps (m + 2, m + 2)
        rng = np.random.default_rng(23)
        points = [Params(g=1.0, beta=0.0, phi=0.4, m=m, eta=eta) for m in (0, 1, 2, 15)
                  for eta in (0.7, 1.0)]
        for i in range(500):
            g, beta = rng.uniform(0.05, 3.0, size=2)
            points.append(Params(g=float(g), beta=float(beta), phi=float(rng.uniform(-7.0, 7.0)),
                                 eta=1.0 if i % 2 else float(rng.uniform(0.05, 1.0)),
                                 m=int(rng.integers(0, 16))))
        for p in points:
            got = qfi._loss_inner_products(p)
            for name, want in engine_loss_inner_products(p).items():
                assert got[name] == pytest.approx(want, rel=1e-12), (name, p)

    def test_qfi_is_as_accurate_as_the_engine(self, monkeypatch):
        # next to a fringe F is a small difference of inner products that grow
        # like 1/|X1|^2, so both routes lose digits there to a few roundings of
        # the largest one; against 50 digits the closed form is the more
        # accurate route at more points than not, with no larger median error
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2024)
        points = []
        for i in range(240):
            points.append(Params(
                g=float(rng.uniform(0.05, 3.0)), beta=float(rng.uniform(0.0, 3.0)),
                phi=float(rng.uniform(-math.pi, math.pi) if i % 2 else rng.uniform(-0.02, 0.02)),
                m=int(rng.integers(0, 16)), eta=1.0 if i % 4 < 2 else float(rng.uniform(0.3, 1.0))))
        closed, engine = [], []
        for p in points:
            want = mp_qfi_lossy(mpmath, p)
            with monkeypatch.context() as patch:
                try:
                    got = qfi_lossy(p).f
                    patch.setattr(qfi, "_loss_inner_products", engine_loss_inner_products)
                    reference = qfi_lossy(p).f
                except Su11Error:
                    continue
            closed.append(abs(got / want - 1.0))
            engine.append(abs(reference / want - 1.0))
        closed, engine = np.array(closed), np.array(engine)
        assert len(closed) >= 200
        assert np.count_nonzero(closed < engine) >= np.count_nonzero(closed > engine)
        assert np.median(closed) <= np.median(engine)
        # every value the roundoff check lets through is good to its tolerance
        assert closed.max() < ROUNDOFF_REL_TOL


class TestLossyQfi:
    def test_unit_eta_reduces_to_ideal(self):
        for m in (0, 1, 2, 3):
            p = Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=1.0)
            assert qfi_lossy(p).f == pytest.approx(qfi_ideal(p).f, rel=1e-10)

    @pytest.mark.parametrize("eta", [0.5, 0.7, 0.9, 1.0])
    def test_closed_form_equals_numeric_minimum(self, eta):
        for m in (0, 1, 2, 3):
            p = Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=eta)
            _, f_scan = alpha_scan(p)
            assert qfi_lossy(p).f == pytest.approx(f_scan, rel=1e-8)

    def test_reads_the_closed_form_only(self, monkeypatch):
        # one set of inner products, and no evaluation of C_Q(alpha)
        calls = []
        inner_products = qfi._loss_inner_products

        def counted(p):
            calls.append(p)
            return inner_products(p)

        def forbidden(*args):
            raise AssertionError("qfi_lossy evaluated C_Q(alpha)")

        monkeypatch.setattr(qfi, "_loss_inner_products", counted)
        monkeypatch.setattr(qfi, "cq_alpha", forbidden)
        for eta in (0.7, 1.0):
            calls.clear()
            qfi_lossy(Params(g=1.0, beta=1.0, phi=0.4, m=1, eta=eta))
            assert len(calls) == 1

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
        # at eta = 0.9 the optimal placement lies outside the scan's initial
        # bracket [-2, 1]
        p = Params(g=1.0, beta=1.0, phi=0.4, m=0, eta=0.9)
        r = qfi_lossy(p)
        alpha_scanned, f_scan = alpha_scan(p)
        assert alpha_scanned == pytest.approx(1.5445, abs=2e-3)
        assert r.alpha_star == pytest.approx(1.5445, abs=2e-3)
        assert r.f == pytest.approx(f_scan, rel=1e-8)

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
            p = Params(g=1.0, beta=1.0, phi=0.4, m=2, eta=float(eta))
            r = qfi_lossy(p)
            alpha_scanned, f_scan = alpha_scan(p)
            assert r.f == pytest.approx(f_scan, rel=1e-8)
            if eta < 1.0:  # at eta = 1 C_Q does not depend on alpha
                assert r.alpha_star == pytest.approx(alpha_scanned, abs=2e-3)

    def test_no_photons_raises(self):
        with pytest.raises(NormalizationError):
            qfi_lossy(Params(g=0.0, beta=0.0, phi=0.4, m=0, eta=0.7))

    @pytest.mark.parametrize("p", [
        Params(g=4.258140481618678, beta=1.7641726275161528e50, phi=-3.15877359495044, m=0,
               eta=0.7554670055631749),
        Params(g=0.08010009201189662, beta=10454801220.218904, phi=0.9928888067435135, m=14,
               eta=0.11938837273217742),
    ], ids=["beta1e50-m0", "beta1e10-m14"])
    def test_negative_variance_is_roundoff_not_an_empty_mode(self, p):
        # at huge beta, Var(n)'s beta^4 terms cancel to a negative remainder that
        # drives the minimization denominator below zero; no photons are missing
        with pytest.raises(NumericalError, match="Var"):
            qfi_lossy(p)
