"""Tests for the parameter set and kernel coefficients."""

import cmath
import copy
import importlib
import math
import pickle

import numpy as np
import pytest

from references import bilinear_exponent, dual_kernel, probe_kernel
from su11.errors import DarkFringeError
from su11.model import KernelSet, Params, _laguerre, _laguerre_coefficients, kernels
from su11.qfi import qfi_ideal, qfi_lossy
from su11.sensitivity import sensitivity_ideal, sensitivity_lossy

# su11 re-exports limits(), which hides the submodule of that name
LIMITS = importlib.import_module("su11.limits")
SENSITIVITY = importlib.import_module("su11.sensitivity")


OUT_OF_RANGE = [
    {"g": -0.1},
    {"beta": -1.0},
    {"m": -1},
    {"m": 16},
    {"m": 1.5},
    {"T1": 1.2},
    {"T2": -0.1},
    {"eta": 0.0},
    {"eta": 1.1},
    {"nu": 0},
    {"phi": float("nan")},
]


class TestParams:
    def test_defaults_valid(self):
        p = Params()
        assert (p.g, p.beta, p.phi, p.m, p.T1, p.T2, p.eta, p.nu) == (1.0, 1.0, 0.4, 0, 1.0, 1.0, 1.0, 1)

    def test_positional_and_keyword_construction_agree(self):
        assert Params(0.5, 2.0, 0.3, 2, 0.8, 0.9, 0.7, 3) == Params(
            g=0.5, beta=2.0, phi=0.3, m=2, T1=0.8, T2=0.9, eta=0.7, nu=3)
        assert Params(0.5, 2.0) == Params(beta=2.0, g=0.5)

    @pytest.mark.parametrize("kw", OUT_OF_RANGE)
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            Params(**kw)

    @pytest.mark.parametrize("kw", OUT_OF_RANGE)
    def test_replace_validates(self, kw):
        with pytest.raises(ValueError):
            Params().replace(**kw)

    def test_replace_refuses_an_unknown_field(self):
        with pytest.raises(TypeError):
            Params().replace(gain=1.0)

    def test_replace(self):
        p = Params().replace(m=2, T1=0.8)
        assert p.m == 2 and p.T1 == 0.8 and p.g == 1.0
        assert type(p) is Params

    @pytest.mark.parametrize("attr", ["g", "m", "gain"])
    def test_refuses_attribute_assignment(self, attr):
        p = Params()
        with pytest.raises(AttributeError):
            setattr(p, attr, 2)
        assert p == Params()

    def test_equal_fields_are_equal_with_equal_hashes(self):
        a, b = Params(g=0.5, m=3, T1=0.8), Params(T1=0.8, m=3, g=0.5)
        assert a == b and hash(a) == hash(b)
        assert a != a.replace(T1=0.9)

    @pytest.mark.parametrize("round_trip", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trip(self, round_trip):
        p = Params(g=0.5, beta=2.0, phi=-0.3, m=15, T1=0.0, T2=0.9, eta=0.7, nu=4)
        q = round_trip(p)
        assert q == p and type(q) is Params and hash(q) == hash(p)


class TestKernels:
    """The thermal number u = |w|^2 of the one-kernel quantities and the QFI's kernel X1.

    Without loss every kernel is the lossless w1 = (1/2) sinh 2g (1 - e^{-i phi}):
    the output kernel w3 at T1 = T2 = 1, the internal one v1 at T1 = 1 and X1
    (the reference ``probe_kernel``) at eta = 1.

    The references ``dual_kernel`` and ``probe_kernel`` cancel next to a fringe, so
    they are held to thermal only off it; next to it, test_accuracy holds the
    calculators to 60-digit references."""

    def test_w1_vanishes_at_zero_phase(self):
        ks = kernels(Params(g=1.0, phi=0.0))
        assert ks.thermal(1.0, 1.0)[0] == 0.0

    def test_w1_at_pi_by_independent_evaluation(self):
        ks = kernels(Params(g=1.0, phi=math.pi))
        direct = 0.5 * math.sinh(2.0) * (1.0 - cmath.exp(-1j * math.pi))
        u, _ = ks.thermal(1.0, 1.0)
        assert u == pytest.approx(abs(direct) ** 2, rel=1e-15)
        assert u == pytest.approx(math.sinh(2.0) ** 2, rel=1e-12)

    def test_w3_reduces_to_w1_without_loss(self):
        # |w1|^2 = (1/2) sinh^2 2g (1 - cos phi), with d/dphi (1/2) sinh^2 2g sin phi
        g, phi = 0.8, 0.9
        u, du = kernels(Params(g=g, phi=phi, T1=1.0, T2=1.0)).thermal(1.0, 1.0)
        assert u == pytest.approx(0.5 * math.sinh(2 * g) ** 2 * (1.0 - math.cos(phi)), rel=1e-14)
        assert du == pytest.approx(0.5 * math.sinh(2 * g) ** 2 * math.sin(phi), rel=1e-14)

    def test_bogoliubov_norm(self):
        # w1 is the conjugate b-dagger coefficient of the lossless output
        # a_out = A a + B b^dagger, A = ch^2 e^{i phi} - sh^2, and |A|^2 - |B|^2 = 1
        for g in (0.3, 1.0, 1.7):
            for phi in (0.0, 0.4, 2.0):
                u, _ = kernels(Params(g=g, phi=phi)).thermal(1.0, 1.0)
                a = math.cosh(g) ** 2 * cmath.exp(1j * phi) - math.sinh(g) ** 2
                assert abs(a) ** 2 - u == pytest.approx(1.0, rel=1e-13)

    def test_zero_phase_kernel_values(self):
        ks = kernels(Params(g=1.3, phi=0.0, T2=0.6))
        assert ks.thermal(1.0, ks.p.T2) == (0.0, 0.0)
        assert ks.thermal(1.0, 1.0) == (0.0, 0.0)
        assert probe_kernel(ks.p).val == 0.0
        assert ks.thermal(ks.p.eta, 1.0)[0] == 0.0

    def test_overflowing_gain_next_to_the_fringe(self):
        # S^2 overflows at g = 300: on the fringe u and u' are 0, not inf * 0 = nan, and
        # at phi = 1e-300, where phi^2 underflows, u = (S phi)^2 and u' = 2 S (S phi)
        s = 0.5 * math.sinh(600.0)
        ks = kernels(Params(g=300.0, phi=0.0, T1=1.0))
        assert ks.thermal(1.0, 1.0) == (0.0, 0.0)
        assert ks.thermal(ks.p.eta, 1.0)[0] == 0.0
        ks = kernels(Params(g=300.0, phi=1e-300, T1=1.0))
        u, du = ks.thermal(1.0, 1.0)
        assert u == pytest.approx((s * 1e-300) ** 2, rel=1e-15)
        assert du == pytest.approx(2.0 * s * (s * 1e-300), rel=1e-15)
        assert ks.thermal(ks.p.eta, 1.0)[0] == u

    def test_dphi_channels_match_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = rng.uniform(0.2, 1.5)
            phi = rng.uniform(0.1, 2.9)
            T1, T2, eta = rng.uniform(0.4, 1.0, size=3)
            base = dict(g=g, beta=1.0, T1=T1, T2=T2, eta=eta)
            ks = kernels(Params(phi=phi, **base))
            kp = kernels(Params(phi=phi + h, **base))
            km = kernels(Params(phi=phi - h, **base))
            for t2 in (T2, 1.0):
                fd = (kp.thermal(T1, t2)[0] - km.thermal(T1, t2)[0]) / (2 * h)
                assert ks.thermal(T1, t2)[1] == pytest.approx(fd, rel=1e-6, abs=1e-9), t2
            fd = (probe_kernel(kp.p).val - probe_kernel(km.p).val) / (2 * h)
            assert probe_kernel(ks.p).dph == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_one_kernel_quantities_build_no_dual_kernel(self, monkeypatch):
        built = []

        def spy(p):
            built.append(kernels(p))
            return built[-1]

        def forbidden(self):
            raise AssertionError("a one-kernel quantity built the probe's X polynomials")

        monkeypatch.setattr(SENSITIVITY, "kernels", spy)
        monkeypatch.setattr(LIMITS, "kernels", spy)
        monkeypatch.setattr(KernelSet, "x_polys", forbidden)
        p = Params(g=1.0, beta=1.0, phi=0.4, m=2, T1=0.8, T2=0.9, eta=0.7)
        sensitivity_ideal(p)
        sensitivity_lossy(p)
        LIMITS.limits(p)
        assert len(built) == 3


class TestExponentA:
    """The output exponent B(w3) that the engine reference extracts from."""

    def test_zero_phase_gives_zero_series(self):
        p = Params(g=1.0, phi=0.0, m=1)
        a = bilinear_exponent(p, dual_kernel(p, p.T2))
        assert np.count_nonzero(a.val) == 0

    def test_zero_beta_keeps_only_cross_term(self):
        p = Params(g=1.0, phi=0.7, beta=0.0, m=1)
        a = bilinear_exponent(p, dual_kernel(p, p.T2))
        nz = np.argwhere(a.val != 0)
        assert nz.tolist() == [[1, 1]]

    def test_coefficients_read_off_directly(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, T1=0.8, T2=0.9)
        w3 = 0.5 * math.sinh(2.0) * math.sqrt(0.9) * (1.0 - math.sqrt(0.8) * cmath.exp(-0.4j))
        a = bilinear_exponent(p, dual_kernel(p, p.T2))
        assert a.val[1, 1] == pytest.approx(kernels(p).thermal(p.T1, p.T2)[0], rel=1e-15)
        assert a.val[1, 0] == pytest.approx(w3 * p.beta, rel=1e-15)
        assert a.val[0, 1] == pytest.approx(w3.conjugate() * p.beta, rel=1e-15)

    def test_lossy_reduction_is_exact(self):
        # without loss the output exponent is the probe's norm exponent at eta = 1,
        # and the probe's normalizer is the output's subtraction weight m! u^m L_m
        p = Params(g=1.1, beta=0.8, phi=0.9, m=2, T1=1.0, T2=1.0, eta=1.0)
        output = bilinear_exponent(p, dual_kernel(p, p.T2))
        probe = bilinear_exponent(p, probe_kernel(p))
        assert np.array_equal(output.val, probe.val)
        assert np.array_equal(output.dph, probe.dph)
        ks = kernels(p)
        norm = math.exp(ks.log_weight(ks.thermal(p.eta, 1.0)[0], DarkFringeError))
        assert norm == pytest.approx(probe.exp().extract((p.m, p.m)).val.real, rel=1e-13)
        assert norm == pytest.approx(math.exp(ks.log_weight(ks.thermal(p.T1, p.T2)[0], DarkFringeError)), rel=1e-13)


class TestInternalExponents:
    """The internal state's exponent is the bilinear exponent of v1."""

    def test_n1_matches_lossy_kernel(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1, T1=0.7, T2=0.6)
        v1 = 0.5 * math.sinh(2.0) * (1.0 - math.sqrt(0.7) * cmath.exp(-0.4j))
        n1 = bilinear_exponent(p, dual_kernel(p, 1.0)).val
        assert n1.shape == (4, 4)
        assert n1[1, 1] == pytest.approx(kernels(p).thermal(p.T1, 1.0)[0], rel=1e-15)
        assert n1[1, 1] == pytest.approx(abs(v1) ** 2, rel=1e-14)
        assert n1[1, 0] == pytest.approx(v1 * p.beta, rel=1e-15)

    def test_nt_exponent_is_the_lossless_output_exponent(self):
        # at T1 = 1, v1 equals w1, so the internal state's subtraction
        # weight is the lossless output's, whatever T2 is
        p = Params(g=1.0, beta=1.0, phi=0.4, m=2, T1=1.0, T2=0.6)
        ks, lossless = kernels(p), kernels(p.replace(T2=1.0))
        internal = ks.log_weight(ks.thermal(p.T1, 1.0)[0], DarkFringeError)
        assert internal == lossless.log_weight(lossless.thermal(p.T1, 1.0)[0], DarkFringeError)


class TestLaguerre:
    """The positive-coefficient polynomials behind KernelSet.laguerre."""

    @pytest.mark.parametrize("m", range(16))
    def test_coefficients_are_non_negative_and_match_the_definition(self, m):
        # D_m = (m + 1)(m + 2) L_(m+2) L_m - (m + 1)^2 L_(m+1)^2, its x^(2m+2)
        # terms cancelled, against exact rational arithmetic
        from fractions import Fraction

        def lag(n, x):
            return sum(Fraction(math.comb(n, j)) * x**j / math.factorial(j) for j in range(n + 1))

        l_m, y, d = _laguerre_coefficients(m)
        assert min(l_m + y + d) >= 0.0
        assert (len(l_m), len(y), len(d)) == (m + 1, m + 2, 2 * m + 2)
        for x in (Fraction(1, 7), Fraction(3), Fraction(40)):
            want_y = (m + 1) * lag(m + 1, x) - lag(m, x)
            want_d = (m + 1) * (m + 2) * lag(m + 2, x) * lag(m, x) - (m + 1) ** 2 * lag(m + 1, x) ** 2
            for coeffs, want in ((l_m, lag(m, x)), (y, want_y), (d, want_d)):
                got = sum(c * float(x) ** j for j, c in enumerate(reversed(coeffs)))
                assert got == pytest.approx(float(want), rel=1e-13)

    def test_unsubtracted_state_is_normalized_and_thermal_plus_coherent(self):
        # m = 0: weight 1, c1 - 1 = beta^2 and D_0 = 1 + 2 beta^2, exactly
        ks = kernels(Params(g=1.0, beta=0.7, phi=0.4, m=0))
        x = 0.7 * 0.7
        assert ks.log_weight(2.5, DarkFringeError) == 0.0
        assert ks.laguerre == (1.0, x, 1.0 + 2.0 * x)

    def test_cached_values_are_the_direct_positive_sums_bit_for_bit(self):
        # the (beta, m) cache keeps the sums each point used to recompute; from
        # beta = 1e92 they overflow, and hex() tells the infs and nans apart too
        def direct(beta, m):
            x, sums = beta * beta, []
            for coeffs in _laguerre_coefficients(m):
                acc = 0.0
                for c in coeffs:
                    acc = acc * x + c
                sums.append(acc)
            l_m, y, d = sums
            return (l_m, y / l_m, d / l_m / l_m), math.log(math.factorial(m) * l_m) + m * math.log(2.5)

        rng = np.random.default_rng(35)
        draws = [(float(10.0 ** rng.uniform(-3.0, 2.0)), int(rng.integers(0, 16))) for _ in range(300)]
        edges = [(beta, m) for beta in (0.0, 1.0, 1e92) for m in (0, 1, 2, 15)]
        for beta, m in draws + edges:
            want, log_w = direct(beta, m)
            for g in (0.5, 1.5):  # a miss or a hit, then a hit
                ks = kernels(Params(g=g, beta=beta, m=m))
                assert [v.hex() for v in ks.laguerre] == [v.hex() for v in want], (beta, m)
                assert ks.log_weight(2.5, DarkFringeError).hex() == log_w.hex(), (beta, m)

    def test_a_second_point_at_the_same_beta_and_m_is_a_cache_hit(self):
        p = Params(g=0.7, beta=1.3, phi=0.4, m=15)
        kernels(p)
        before = _laguerre.cache_info()
        kernels(Params(g=1.9, beta=1.3, phi=2.0, m=15, T1=0.5, T2=0.6, eta=0.7))
        after = _laguerre.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert after.maxsize == 256

    # outcomes of sensitivity_ideal, sensitivity_lossy, qfi_ideal, qfi_lossy and limits at
    # T1 = 0.8, T2 = 0.9, eta = 0.8, as computed before the cache: "ok" or the error's class
    OK, DARK, STAT, NUM = "ok", "DarkFringeError", "StationaryPointError", "NumericalError"
    EDGES = {
        (0.0, 0.4, 0): [OK] * 5, (0.0, 0.4, 15): [OK] * 5,
        (0.0, 0.0, 0): [STAT, STAT, OK, OK, OK], (0.0, 0.0, 15): [DARK, STAT, DARK, OK, OK],
        (1e92, 0.4, 0): [OK, OK, OK, NUM, OK], (1e92, 0.4, 1): [NUM] * 5,
        (1e92, 0.0, 1): [DARK, NUM, DARK, NUM, NUM], (1e92, 0.4, 15): [NUM] * 5,
    }

    @pytest.mark.parametrize("beta, phi, m", sorted(EDGES))
    def test_cached_edges_keep_their_typed_errors(self, beta, phi, m):
        # at beta = 1e92 the sums overflow from m = 1; each outcome holds with the cache cold and warm
        p = Params(g=1.0, beta=beta, phi=phi, m=m, T1=0.8, T2=0.9, eta=0.8)
        _laguerre.cache_clear()
        for _ in range(2):
            got = []
            for calc in (sensitivity_ideal, sensitivity_lossy, qfi_ideal, qfi_lossy, LIMITS.limits):
                try:
                    calc(p)
                    got.append(self.OK)
                except Exception as err:  # an untyped error fails the comparison
                    got.append(type(err).__name__)
            assert got == self.EDGES[beta, phi, m]


class TestXSeries:
    def test_x2_x3_are_conjugate_mirrors(self):
        # swapping t <-> s and conjugating maps the ket-derivative factor to
        # the bra-derivative factor
        ks = kernels(Params(g=1.0, beta=1.0, phi=0.4, m=1, eta=0.7))
        xs = ks.x_polys()
        x2, x3 = xs["X2"], xs["X3"]
        assert np.allclose(x3.val, np.conj(x2.val.T))

    def test_x6_factorizes(self):
        # X6 = (beta + T)(beta + S) over the scaled variables T = X1 t, S = X1* s
        p = Params(g=0.8, beta=1.2, phi=0.5, eta=0.9)
        x6 = kernels(p).x_polys()["X6"]
        assert x6.val[0, 0] == p.beta**2
        assert x6.val[1, 0] == x6.val[0, 1] == p.beta
        assert x6.val[1, 1] == 1.0
        assert np.count_nonzero(x6.val) == 4
