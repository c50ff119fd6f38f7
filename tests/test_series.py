"""Tests for the truncated-series / dual-number engine."""

import cmath
import math

import numpy as np
import pytest

from references import laguerre_coefficient, taylor_exp
from su11.series import CDual, MultiSeries, factorial


def w1_dual(g, phi):
    """Lossless output kernel (1/2) sinh(2g) (1 - e^{-i phi}) as a dual scalar."""
    scale, e_m = 0.5 * math.sinh(2 * g), cmath.exp(-1j * phi)
    return CDual(scale * (1.0 - e_m), scale * 1j * e_m)


def a1_terms(w1, beta):
    """st|w1|^2 + (t w1 + s w1*) beta over variables (t, s)."""
    return [
        ((1, 1), w1.abs2()),
        ((1, 0), w1 * beta),
        ((0, 1), w1.conj() * beta),
    ]


def gm_closed_form(m, w1_abs2, beta):
    """Independent multinomial expansion of the 2m-fold extraction of exp(A1)."""
    total = 0.0
    for j in range(m + 1):
        total += (
            math.factorial(m) ** 2
            * w1_abs2**j
            * (w1_abs2 * beta**2) ** (m - j)
            / (math.factorial(j) * math.factorial(m - j) ** 2)
        )
    return total


class TestCDual:
    def test_product_rule_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = CDual(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            b = CDual(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            p = a * b
            assert p.dph == pytest.approx(a.val * b.dph + a.dph * b.val)

    def test_division_inverts_multiplication(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = CDual(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            b = CDual(complex(*rng.normal(size=2)) + 3.0, complex(*rng.normal(size=2)))
            q = (a * b) / b
            assert q.val == pytest.approx(a.val, rel=1e-12)
            assert q.dph == pytest.approx(a.dph, rel=1e-12, abs=1e-12)

    def test_abs2_is_real_with_real_derivative(self):
        z = CDual(1.2 - 0.8j, 0.3 + 0.5j)
        a = z.abs2()
        assert a.val.imag == 0.0
        assert a.val.real == pytest.approx(abs(1.2 - 0.8j) ** 2)
        assert a.dph.imag == 0.0
        assert a.dph.real == pytest.approx(2 * ((0.3 + 0.5j) * (1.2 + 0.8j)).real)


class TestConstruction:
    def test_constant_one(self):
        s = MultiSeries.from_terms((1, 1), [((0, 0), 1.0)])
        assert s.val[0, 0] == 1.0
        assert np.count_nonzero(s.val) == 1

    def test_single_cross_term(self):
        c = 2.5 - 1.0j
        s = MultiSeries.from_terms((1, 1), [((1, 1), c)])
        assert s.val[1, 1] == c
        assert np.count_nonzero(s.val) == 1

    def test_f3_entered_in_six_variables_has_eight_terms(self):
        # F3-style degree-2 polynomial embedded in (t, s, c, d, p, h)
        f1, f2, f3, f4 = 0.9 - 0.4j, -0.5 - 0.2j, 0.7 - 0.6j, 0.3 + 0.3j
        beta = 1.0
        m = 2
        s = MultiSeries.from_terms(
            (m, m, 1, 1, 1, 1),
            [
                ((1, 0, 0, 1, 0, 0), f1.conjugate() * f3),  # t d f1* f3
                ((0, 0, 1, 1, 0, 0), abs(f2) ** 2),  # c d |f2|^2
                ((1, 1, 0, 0, 0, 0), abs(f4) ** 2),  # s t |f4|^2
                ((0, 1, 1, 0, 0, 0), f2 * f4.conjugate()),  # c s f2 f4*
                ((0, 0, 0, 1, 0, 0), f2.conjugate() * beta),
                ((0, 1, 0, 0, 0, 0), f4.conjugate() * beta),
                ((0, 0, 1, 0, 0, 0), f2 * beta),
                ((1, 0, 0, 0, 0, 0), f4 * beta),
            ],
        )
        assert np.count_nonzero(s.val) == 8

    def test_rejects_index_beyond_caps(self):
        with pytest.raises(ValueError):
            MultiSeries.from_terms((1, 1), [((2, 0), 1.0)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            MultiSeries.from_terms((1, 1), [((1, 0, 0), 1.0)])


class TestExp:
    def test_exp_of_zero_is_one(self):
        s = MultiSeries.zeros((2, 2)).exp()
        expected = np.zeros((3, 3), complex)
        expected[0, 0] = 1.0
        assert np.allclose(s.val, expected)

    def test_exp_of_cross_term_matches_scalar_taylor(self):
        c = 0.8 - 0.1j
        p = MultiSeries.from_terms((2, 2), [((1, 1), c)])
        e = p.exp()
        assert e.val[0, 0] == pytest.approx(1.0)
        assert e.val[1, 1] == pytest.approx(c)
        assert e.val[2, 2] == pytest.approx(c**2 / 2.0)
        assert e.val[1, 0] == 0.0 and e.val[0, 1] == 0.0

    def test_exp_a1_order_one_one_coefficient(self):
        # hand expansion of exp(A1): the (1,1) coefficient is |w1|^2 (from A1
        # itself) plus w1*beta * w1c*beta (from A1^2/2, two orderings)
        g, phi, beta = 1.0, 0.4, 1.0
        w1 = w1_dual(g, phi)
        p = MultiSeries.from_terms((3, 3), a1_terms(w1, beta))
        e = p.exp()
        expected = w1.abs2().val + (abs(w1.val) * beta) ** 2
        assert e.val[1, 1] == pytest.approx(expected, rel=1e-14)

    def test_exp_rejects_constant_term(self):
        p = MultiSeries.from_terms((1, 1), [((0, 0), 0.5)])
        with pytest.raises(ValueError):
            p.exp()

    def test_exp_is_homomorphism_on_random_polynomials(self):
        # exp(p) * exp(q) == exp(p + q) coefficient-wise up to the caps
        rng = np.random.default_rng(21)
        caps = (3, 3, 1, 1)
        idx_pool = [
            i
            for i in np.ndindex(*(c + 1 for c in caps))
            if 0 < sum(i) <= 2 and all(a <= b for a, b in zip(i, caps))
        ]
        for _ in range(25):
            def rand_poly():
                terms = []
                for idx in idx_pool:
                    if rng.random() < 0.5:
                        terms.append(
                            (idx, CDual(complex(*rng.normal(size=2)),
                                        complex(*rng.normal(size=2))))
                        )
                return MultiSeries.from_terms(caps, terms)

            p, q = rand_poly(), rand_poly()
            lhs = p.exp() * q.exp()
            rhs = (p + q).exp()
            assert np.allclose(lhs.val, rhs.val, atol=1e-12)
            assert np.allclose(lhs.dph, rhs.dph, atol=1e-12)

    @pytest.mark.parametrize("caps", [(4, 5), (3, 3, 1, 1)])
    def test_exp_matches_taylor_reference_in_both_channels(self, caps):
        # terms up to degree 2 in each variable, so a row of the recurrence
        # collects more than one earlier row
        rng = np.random.default_rng(23)
        idx_pool = [i for i in np.ndindex(*(min(c, 2) + 1 for c in caps)) if any(i)]
        assert any(i[0] == 2 for i in idx_pool)
        for _ in range(10):
            p = MultiSeries.from_terms(caps, [
                (idx, CDual(complex(*rng.normal(size=2)), complex(*rng.normal(size=2))))
                for idx in idx_pool
                if rng.random() < 0.5
            ])
            got, want = p.exp(), taylor_exp(p)
            for g, w in ((got.val, want.val), (got.dph, want.dph)):
                assert np.allclose(g, w, rtol=1e-12, atol=1e-13 * np.abs(w).max())

    @pytest.mark.parametrize("g,phi,beta", [(1.0, 0.4, 1.0), (3.0, 1.1, 2.0), (0.3, 2.5, 0.5)])
    def test_exp_matches_laguerre_reference_over_the_m15_box(self, g, phi, beta):
        mpmath = pytest.importorskip("mpmath")
        p = MultiSeries.from_terms((17, 17), a1_terms(w1_dual(g, phi), beta))
        e = p.exp()
        a, b, c = (mpmath.mpc(p.val[k]) for k in ((1, 1), (1, 0), (0, 1)))
        with mpmath.workdps(40):
            for i, j in np.ndindex(e.val.shape):
                want = complex(laguerre_coefficient(a, b, c, i, j))
                assert abs(e.val[i, j] - want) <= 1e-12 * abs(want)

    def test_multiplication_commutes_and_associates(self):
        rng = np.random.default_rng(22)
        caps = (2, 2)
        def rand_series():
            s = MultiSeries.zeros(caps)
            s.val[:] = rng.normal(size=s.val.shape) + 1j * rng.normal(size=s.val.shape)
            s.dph[:] = rng.normal(size=s.val.shape) + 1j * rng.normal(size=s.val.shape)
            return s

        for _ in range(20):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert np.allclose((a * b).val, (b * a).val)
            assert np.allclose(((a * b) * c).val, (a * (b * c)).val, atol=1e-12)
            assert np.allclose(((a + b) + c).val, (a + (b + c)).val)


class TestExtract:
    def test_extract_origin_of_one(self):
        one = MultiSeries.constant((2, 2), 1.0)
        assert one.extract((0, 0)).val == 1.0

    def test_extract_cross_of_exp(self):
        c = 1.3 + 0.4j
        e = MultiSeries.from_terms((1, 1), [((1, 1), c)]).exp()
        assert e.extract((1, 1)).val == pytest.approx(c)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("g,phi,beta", [(1.0, 0.4, 1.0), (0.7, 1.1, 0.5)])
    def test_gm_extraction_matches_multinomial_closed_form(self, m, g, phi, beta):
        w1 = w1_dual(g, phi)
        e = MultiSeries.from_terms((m + 2, m + 2), a1_terms(w1, beta)).exp()
        got = e.extract((m, m)).val
        want = gm_closed_form(m, w1.abs2().val.real, beta)
        assert got.imag == pytest.approx(0.0, abs=1e-12 * (1 + abs(want)))
        assert got.real == pytest.approx(want, rel=1e-12)

    def test_extract_is_linear(self):
        rng = np.random.default_rng(31)
        caps = (2, 2)
        a = MultiSeries.zeros(caps)
        b = MultiSeries.zeros(caps)
        a.val[:] = rng.normal(size=a.val.shape)
        b.val[:] = rng.normal(size=b.val.shape)
        lam = 0.37 - 2.2j
        lhs = (a * lam + b).extract((1, 2))
        rhs = a.extract((1, 2)) * lam + b.extract((1, 2))
        assert lhs.val == pytest.approx(rhs.val)

    def test_extract_rejects_orders_beyond_caps(self):
        s = MultiSeries.zeros((1, 1))
        with pytest.raises(ValueError):
            s.extract((2, 0))

    def test_factorial_guard(self):
        with pytest.raises(ValueError):
            factorial(35)


class TestPhiDerivativeChannel:
    def test_dual_channel_matches_finite_difference_on_a1_pipeline(self):
        g, beta, h = 1.0, 1.0, 1e-6
        for m in (0, 1, 2):
            for phi in (0.3, 0.8, 1.7):
                def g_eval(ph_val, seed_derivative):
                    w1 = w1_dual(g, ph_val)
                    if not seed_derivative:
                        w1 = CDual(w1.val)
                    e = MultiSeries.from_terms((m + 2, m + 2), a1_terms(w1, beta)).exp()
                    return e.extract((m + 1, m + 1))

                dual = g_eval(phi, True)
                fd = (g_eval(phi + h, False).val - g_eval(phi - h, False).val) / (2 * h)
                assert dual.dph.real == pytest.approx(fd.real, rel=1e-6)

    def test_truncation_soundness(self):
        # enlarging the caps never changes coefficients inside the smaller box
        w1 = w1_dual(0.9, 0.6)
        small = MultiSeries.from_terms((3, 3), a1_terms(w1, 1.0)).exp()
        large = MultiSeries.from_terms((6, 6), a1_terms(w1, 1.0)).exp()
        assert np.allclose(small.val, large.val[:4, :4], rtol=0, atol=1e-15)
        assert np.allclose(small.dph, large.dph[:4, :4], rtol=0, atol=1e-15)
