"""Acceptance suite: one test per criterion, each printing its verdict line.

These are the same criterion functions the ``su11 verify`` subcommand runs;
``pytest -s tests/test_acceptance.py`` shows the measured numbers.
"""

import pytest

from su11 import verify
from su11.errors import NumericalError, Su11Error
from su11.model import Params


def _run(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.details
    return result


def test_c1_sensitivity_oracle_equivalence():
    _run(verify.criterion_1_sensitivity_oracle)


def test_c2_ideal_qfi_oracle_equivalence():
    _run(verify.criterion_2_qfi_oracle)


def test_c3_lossy_qfi_minimization():
    _run(verify.criterion_3_lossy_minimization)


def test_c4_reduction_identities():
    _run(verify.criterion_4_reductions)


def test_c5_m_monotonicity_orderings():
    problems = verify.c5_monotonicity_problems()
    print("PASS  C5a  m-monotonicity orderings" if not problems else problems)
    assert not problems, "; ".join(problems)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "both the closed form and the Fock oracle agree the internal/external "
        "ordering reverses near T = 0.87, so the strict inequality cannot hold "
        "all the way to T = 0.95; see the README's paragraph on finding F1"
    ),
)
def test_c5_internal_loss_strictly_worse_to_t095():
    problems = verify.c5_loss_placement_problems()
    assert not problems, "; ".join(problems)


def test_c6_sql_beaten_under_40_percent_loss():
    result = _run(verify.criterion_6_sql_beating)
    assert "smallest such m: 1" in result.details


def test_c7_qcrb_strictly_below_delta_phi():
    _run(verify.criterion_7_bound_ordering)


def test_c8_loss_halves_qfi_on_beta_subrange():
    _run(verify.criterion_8_loss_severity)


def test_c9_numerical_hygiene():
    _run(verify.criterion_9_numerical_hygiene)


def test_mutation_flipped_thermal_slope_is_caught(monkeypatch):
    # sanity check that the derivative criterion has teeth: a sign error in
    # u' = d|w3|^2/dphi flips d<N>/dphi against its finite differences
    import su11.model as model
    import su11.sensitivity as sensitivity

    def flipped(half_sh2g, t1, t2, phi):
        u, du = model.thermal(half_sh2g, t1, t2, phi)
        return u, -du

    monkeypatch.setattr(sensitivity, "thermal", flipped)
    result = verify.criterion_9_numerical_hygiene()
    assert not result.passed
    assert "worst rel err 2.00e+00" in result.details


def test_mutation_float_at_the_fringe_is_caught(monkeypatch):
    # C4's error policy: a calculator that returns a number at the dark fringe fails it
    original = verify.qfi_lossy

    def qfi_lossy(p):
        try:
            return original(p)
        except Su11Error:
            return 0.0

    monkeypatch.setattr(verify, "qfi_lossy", qfi_lossy)
    result = verify.criterion_4_reductions()
    assert not result.passed
    assert result.details == "qfi_lossy returned 0.0 at the dark fringe"


def test_mutation_broken_lossless_reduction_is_caught(monkeypatch):
    # C4's reduction: delta_phi at T1 = T2 = 1 must equal the ideal one to rel 1e-14
    original = verify.sensitivity_lossy

    def sensitivity_lossy(p):
        r = original(p)
        return r._replace(delta_phi=r.delta_phi * (1.0 + 1e-12))

    monkeypatch.setattr(verify, "sensitivity_lossy", sensitivity_lossy)
    result = verify.criterion_4_reductions()
    assert not result.passed
    assert result.details == "; ".join(f"lossy reduction mismatch at m={m}" for m in (0, 1, 3))


def test_mutation_ideal_qfi_falling_in_m_is_caught(monkeypatch):
    original = verify.qfi_ideal

    def qfi_ideal(p):
        r = original(p)
        return r._replace(f=1.0 / r.f)

    monkeypatch.setattr(verify, "qfi_ideal", qfi_ideal)
    result = verify.criterion_5_orderings()
    assert not result.passed
    assert result.details == "ideal QFI not strictly increasing in m"


def test_mutation_internal_loss_always_worse_ends_the_finding(monkeypatch):
    # F1 reproduces while the ordering reverses; once internal loss is strictly
    # worse everywhere the finding no longer holds
    original = verify.sensitivity_lossy

    def sensitivity_lossy(p):
        r = original(p)
        return r._replace(delta_phi=2.0 * r.delta_phi) if p.T1 < 1.0 else r

    monkeypatch.setattr(verify, "sensitivity_lossy", sensitivity_lossy)
    result = verify.finding_1_loss_placement_reversal()
    assert (result.passed, result.finding) == (False, True)
    assert result.details == "strict ordering holds"


def test_c5_and_f1_wrappers_unpatched():
    c5 = verify.criterion_5_orderings()
    assert c5.passed and c5.details == "all orderings hold"
    f1 = verify.finding_1_loss_placement_reversal()
    assert (f1.passed, f1.finding) == (True, True)
    assert f1.details.startswith("m=0, T=")


def test_alpha_scan_widens_the_bracket_downward(monkeypatch):
    # every real C_Q has its minimum at alpha >= 0, so a stand-in profile
    # exercises the widening below the initial bracket [-2, 1]
    monkeypatch.setattr(verify, "cq_alpha", lambda p, alpha: (alpha + 7.0) ** 2 + 1.0)
    alpha, cq = verify.alpha_scan(Params(eta=0.5))
    assert alpha == pytest.approx(-7.0, abs=1e-6)
    assert cq == pytest.approx(1.0, rel=1e-12)


def test_alpha_scan_refuses_a_bracket_that_never_settles(monkeypatch):
    monkeypatch.setattr(verify, "cq_alpha", lambda p, alpha: -alpha)
    with pytest.raises(NumericalError, match="did not stabilize"):
        verify.alpha_scan(Params(eta=0.5))
