"""Tests for the parameter set and kernel coefficients."""

import cmath
import math

import numpy as np
import pytest

from su11.model import Params, kernels


class TestParams:
    def test_defaults_valid(self):
        p = Params()
        assert p.g == 1.0 and p.nu == 1

    @pytest.mark.parametrize(
        "kw",
        [
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
        ],
    )
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            Params(**kw)

    def test_replace(self):
        p = Params().replace(m=2, T1=0.8)
        assert p.m == 2 and p.T1 == 0.8 and p.g == 1.0


class TestKernels:
    def test_w1_vanishes_at_zero_phase(self):
        ks = kernels(Params(g=1.0, phi=0.0))
        assert ks.w1.val == 0.0

    def test_w1_at_pi_by_independent_evaluation(self):
        ks = kernels(Params(g=1.0, phi=math.pi))
        direct = 0.5 * math.sinh(2.0) * (1.0 - cmath.exp(-1j * math.pi))
        assert ks.w1.val == pytest.approx(direct, rel=1e-15)
        assert abs(ks.w1.val) == pytest.approx(math.sinh(2.0), rel=1e-12)

    def test_w3_reduces_to_w1_without_loss(self):
        ks = kernels(Params(g=0.8, phi=0.9, T1=1.0, T2=1.0))
        assert ks.w3.val == ks.w1.val
        assert ks.w3.dph == ks.w1.dph

    def test_bogoliubov_norm(self):
        for g in (0.3, 1.0, 1.7):
            for phi in (0.0, 0.4, 2.0):
                ks = kernels(Params(g=g, phi=phi))
                assert ks.f1.abs2().val - ks.f2.abs2().val == pytest.approx(1.0, rel=1e-13)

    def test_zero_phase_kernel_values(self):
        ks = kernels(Params(g=1.3, phi=0.0))
        assert ks.w1.val == 0.0
        assert ks.f3.val == pytest.approx(1.0)
        assert ks.f4.val == 0.0

    def test_x1_at_unit_transmissivity_equals_w1(self):
        ks = kernels(Params(g=1.0, phi=0.7, eta=1.0))
        assert ks.X1.val == ks.w1.val

    def test_dphi_channels_match_finite_differences(self):
        h = 1e-6
        names = ["w1", "w3", "f1", "f2", "f3", "f4", "v1", "v2", "X1"]
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = rng.uniform(0.2, 1.5)
            phi = rng.uniform(0.1, 2.9)
            T1, T2, eta = rng.uniform(0.4, 1.0, size=3)
            base = dict(g=g, beta=1.0, T1=T1, T2=T2, eta=eta)
            ks = kernels(Params(phi=phi, **base))
            kp = kernels(Params(phi=phi + h, **base))
            km = kernels(Params(phi=phi - h, **base))
            for name in names:
                fd = (getattr(kp, name).val - getattr(km, name).val) / (2 * h)
                dual = getattr(ks, name).dph
                assert dual == pytest.approx(fd, rel=1e-6, abs=1e-9), name


class TestExponentA:
    def test_zero_phase_gives_zero_series(self):
        ks = kernels(Params(g=1.0, phi=0.0, m=1))
        a = ks.exponent_a(lossy=False)
        assert np.count_nonzero(a.val) == 0

    def test_zero_beta_keeps_only_cross_term(self):
        ks = kernels(Params(g=1.0, phi=0.7, beta=0.0, m=1))
        a = ks.exponent_a(lossy=False)
        nz = np.argwhere(a.val != 0)
        assert nz.tolist() == [[1, 1]]

    def test_coefficients_read_off_directly(self):
        p = Params(g=1.0, beta=1.0, phi=0.4)
        ks = kernels(p)
        a = ks.exponent_a(lossy=False)
        assert a.val[1, 1] == pytest.approx(ks.w1.abs2().val)
        assert a.val[1, 0] == pytest.approx(ks.w1.val * p.beta)
        assert a.val[0, 1] == pytest.approx(ks.w1.val.conjugate() * p.beta)

    def test_lossy_reduction_is_exact(self):
        p = Params(g=1.1, beta=0.8, phi=0.9, m=2, T1=1.0, T2=1.0)
        ks = kernels(p)
        ideal = ks.exponent_a(lossy=False)
        lossy = ks.exponent_a(lossy=True)
        assert np.array_equal(ideal.val, lossy.val)
        assert np.array_equal(ideal.dph, lossy.dph)


class TestExponentsB:
    """F2, F3 and F4 of the equivalent model are slices of F1.

    Axes of exponent_f1 are (t, s, c, d, p, h): F2 is the (c, d, p, h) = 0
    slice, F3 the (p, h) = 0 slice over (t, s, c, d), F4 the (c, d) = 0 slice
    over (t, s, p, h).
    """

    def test_f2_zero_at_zero_phase(self):
        ks = kernels(Params(g=1.0, phi=0.0, m=1))
        f2 = ks.exponent_f1().val[:, :, 0, 0, 0, 0]
        assert np.count_nonzero(f2) == 0

    def test_f3_cd_extraction_matches_hand_expansion(self):
        # m = 0: the (c, d) coefficient of exp(F3) is |f2|^2 + |f2 beta|^2
        p = Params(g=0.9, beta=1.0, phi=0.4, m=0)
        ks = kernels(p)
        got = ks.exponent_f1().exp().extract((0, 0, 1, 1, 0, 0)).val
        f2 = ks.f2.val
        want = abs(f2) ** 2 + (f2 * p.beta) * (f2.conjugate() * p.beta)
        assert got == pytest.approx(want, rel=1e-13)

    def test_f3_reduces_to_single_term_without_squeezing(self):
        ks = kernels(Params(g=0.0, beta=1.0, phi=0.8, m=1))
        f3 = ks.exponent_f1().val[:, :, :, :, 0, 0]
        nz = np.argwhere(f3 != 0)
        assert nz.tolist() == [[1, 0, 0, 1]]
        assert f3[1, 0, 0, 1] == pytest.approx(ks.f1.conj().val * ks.f3.val)

    def test_f2_is_output_exponent_and_f4_mirrors_f3(self):
        # f4 = w1 makes the norm slice the lossless output exponent; F4 is F3
        # with t <-> s, c <-> d and conjugated coefficients (h4 = conj(h3))
        p = Params(g=1.1, beta=0.8, phi=0.9, m=2)
        ks = kernels(p)
        f1 = ks.exponent_f1()
        a = ks.exponent_a(lossy=False, caps=(2, 2))
        for box, out_box in ((f1.val, a.val), (f1.dph, a.dph)):
            assert np.array_equal(box[:, :, 0, 0, 0, 0], out_box)
            f3 = box[:, :, :, :, 0, 0]
            f4 = box[:, :, 0, 0, :, :]
            assert np.array_equal(f4, np.conj(f3.transpose(1, 0, 3, 2)))


class TestInternalExponents:
    """The internal state's normalizer is the (c, d) = 0 slice of either
    number-insertion exponent."""

    def test_n1_matches_lossy_kernel(self):
        p = Params(g=1.0, beta=1.0, phi=0.4, m=1, T1=0.7)
        ks = kernels(p)
        n1 = ks.exponents_nt()["mode_a"].val[:, :, 0, 0]
        assert n1[1, 1] == pytest.approx(ks.v1.abs2().val)
        assert n1[1, 0] == pytest.approx(ks.v1.val * p.beta)

    def test_nt_exponents_share_normalizer_slice(self):
        # at T1 = 1, v1 equals w1, so the shared slice is the output exponent
        p = Params(g=1.0, beta=1.0, phi=0.4, m=2, T1=1.0)
        ks = kernels(p)
        exps = ks.exponents_nt()
        a = ks.exponent_a(lossy=False, caps=(2, 2))
        for s in exps.values():
            assert np.array_equal(s.val[:, :, 0, 0], a.val)
            assert np.array_equal(s.dph[:, :, 0, 0], a.dph)


class TestXSeries:
    def test_x2_x3_are_conjugate_mirrors(self):
        # swapping t <-> s and conjugating maps the ket-derivative factor to
        # the bra-derivative factor
        ks = kernels(Params(g=1.0, beta=1.0, phi=0.4, m=1, eta=0.7))
        xs = ks.x_polys(caps=(2, 2))
        x2, x3 = xs["X2"], xs["X3"]
        assert np.allclose(x3.val, np.conj(x2.val.T))

    def test_x6_factorizes(self):
        p = Params(g=0.8, beta=1.2, phi=0.5, eta=0.9)
        ks = kernels(p)
        x6 = ks.x_polys(caps=(1, 1))["X6"]
        X1 = ks.X1.val
        assert x6.val[0, 0] == pytest.approx(p.beta**2)
        assert x6.val[1, 1] == pytest.approx(abs(X1) ** 2)
        assert x6.val[1, 0] == pytest.approx(p.beta * X1)
