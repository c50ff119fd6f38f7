"""Acceptance suite: one test per criterion, each printing its verdict line.

These are the same criterion functions the ``su11 verify`` subcommand runs;
``pytest -s tests/test_acceptance.py`` shows the measured numbers.
"""

import pytest

from su11 import verify


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

    original = model.KernelSet.thermal

    def flipped(self, t1, t2):
        u, du = original(self, t1, t2)
        return u, -du

    monkeypatch.setattr(model.KernelSet, "thermal", flipped)
    result = verify.criterion_9_numerical_hygiene()
    assert not result.passed
    assert "worst rel err 2.00e+00" in result.details
