"""Every calculator cell is a finite value or a typed error over the whole Params domain."""

import math

import pytest

from su11 import fock
from su11.errors import NumericalError, Su11Error
from su11.model import Params
from su11.qfi import cq_alpha, qfi_ideal
from su11.sensitivity import optimal_phase
from su11.sweeps import _eval_task

CALCULATORS = ("delta_phi_lossy", "qfi_ideal", "qfi_lossy", "n_t")


def assert_finite_or_coded(value: str, code: str) -> None:
    if code:
        assert not value
    else:
        assert math.isfinite(float(value))


@pytest.mark.parametrize("quantity", CALCULATORS)
@pytest.mark.parametrize(
    "p",
    [
        Params(g=400.0),  # sinh(2g) overflows
        Params(beta=1e200),  # beta^2 overflows
        Params(beta=math.inf),
        Params(g=1e-8, beta=1e150),  # <n>^2 overflows in the QFI
        Params(g=300.0, phi=0.0, T1=1.0),  # S^2 overflows on the fringe
    ],
    ids=["g400", "beta1e200", "beta_inf", "tiny_g_huge_beta", "g300_fringe"],
)
def test_overflowing_edges_are_values_or_numerical(p, quantity):
    value, code = _eval_task((quantity, p))
    if p.phi == 0.0:
        # u = u' = 0 there, not inf * 0 = nan, so d<N>/dphi = 0 is stationary, not Numerical
        assert code == {"delta_phi_lossy": "StationaryPoint", "n_t": ""}.get(quantity, "Numerical")
    else:
        assert code in ("", "Numerical")
    assert_finite_or_coded(value, code)


ORACLE_ENTRY_POINTS = {
    "numeric_moments_multi": lambda p: fock.numeric_moments_multi(p, [0, p.m]),
    "numeric_sensitivity": fock.numeric_sensitivity,
    "numeric_qfi_pure": fock.numeric_qfi_pure,
    "numeric_cq": lambda p: fock.numeric_cq(p, 0.3),
    "numeric_internal_photon_number": fock.numeric_internal_photon_number,
}


@pytest.mark.parametrize("entry", ORACLE_ENTRY_POINTS)
@pytest.mark.parametrize(
    "p", [Params(g=math.inf, m=1, T1=0.8, eta=0.8), Params(beta=math.inf, m=1, T1=0.8, eta=0.8)],
    ids=["g_inf", "beta_inf"],
)
def test_oracle_refuses_infinite_inputs(p, entry):
    # a NaN grid used to pass as an empty state: N_T came out 0, and subtracting
    # from it divided by a zero probability
    with pytest.raises(NumericalError, match="finite g and beta"):
        ORACLE_ENTRY_POINTS[entry](p)


def assert_cq_finite_or_typed(p: Params, alpha: float, typed=Su11Error) -> None:
    try:
        value = cq_alpha(p, alpha)
    except typed:
        return
    assert math.isfinite(value)


@pytest.mark.parametrize(
    "p",
    [Params(g=1e-12, beta=1e92, phi=phi, m=m) for phi in (1e-9, 0.4, 3.0) for m in (0, 3, 15)]
    + [Params(g=1.0, beta=beta, phi=0.4, m=1) for beta in (1e60, 1e80, 1e100, 1e120, 1e155)],
    ids=lambda p: f"g{p.g:g}-beta{p.beta:g}-phi{p.phi:g}-m{p.m}",
)
def test_overflowing_cq_alpha_is_a_value_or_numerical(p):
    # beta^(2m) overflows the Laguerre sums past m = 0, or Var(n) overflows: nan or inf
    assert_cq_finite_or_typed(p, 0.3, NumericalError)


def test_tiny_gain_huge_beta_ideal_qfi_is_four_variances():
    # at m = 0, Var(n) = (1 + 2 beta^2) sinh^4 g + (1 + beta^2) sinh^2 g = 1e160,
    # while n^2 and the inner products' beta^4 terms overflow
    assert qfi_ideal(Params(g=1e-12, beta=1e92, phi=0.4, m=0)).f == pytest.approx(4e160, rel=1e-12)


def assert_optimum_finite_or_typed(p: Params, lo: float, hi: float, typed=Su11Error) -> None:
    try:
        phi, delta = optimal_phase(p, (lo, hi))
    except typed:
        return
    assert lo <= phi <= hi
    assert math.isfinite(delta)


@pytest.mark.parametrize(
    "p", [Params(beta=1e200), Params(g=400.0), Params(beta=math.inf)], ids=["beta1e200", "g400", "beta_inf"]
)
def test_overflowing_optimum_is_numerical(p):
    # the stationarity coefficients are not finite, or sinh(2g) overflows
    assert_optimum_finite_or_typed(p, -1.0, 1.0, NumericalError)


@pytest.mark.parametrize("interval", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_bad_interval_is_a_value_error(interval):
    with pytest.raises(ValueError):
        optimal_phase(Params(), interval)


def test_whole_domain_is_finite_or_typed():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nonneg = st.floats(min_value=0.0, allow_nan=False)
    unit = st.floats(min_value=0.0, max_value=1.0)
    params = st.builds(
        Params,
        g=st.one_of(st.floats(0.0, 20.0), nonneg),
        beta=st.one_of(st.floats(0.0, 1e3), nonneg),
        phi=st.floats(allow_nan=False, allow_infinity=False),
        m=st.integers(0, 15),
        T1=unit,
        T2=unit,
        eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        nu=st.integers(1, 10**6),
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(params, st.sampled_from(CALCULATORS + ("delta_phi_ideal",)))
    def cell(p, quantity):
        assert_finite_or_coded(*_eval_task((quantity, p)))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(params, st.floats(-2.0, 2.0))
    def cq(p, alpha):
        assert_cq_finite_or_typed(p, alpha)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(params, st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
    def optimum(p, lo, width):
        assert_optimum_finite_or_typed(p, lo, lo + width)

    cell()
    cq()
    optimum()
