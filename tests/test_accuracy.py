"""The accuracy contract: each closed form within a stated bound of a 60-digit reference.

Every calculator is held, over seeded draws from the whole domain that
``Params`` accepts, to a relative bound in ulp (units of the double epsilon
2^-52) against the ``mpmath`` references of ``references``, which are
evaluated at the exact doubles drawn.  Half the draws sit next to a fringe,
where the kernel modulus |1 - sqrt(T) e^{i phi}|^2 is small: T1 and eta at
1 - 10^U(-15, -2) and phi within 10^U(-15, -1) of 0 or of +-2 pi.  A draw
that the calculator refuses with a typed error is skipped; the typed errors
themselves are the domain tests' business.  Each bound is the worst case
measured over 25 times the draws the test makes.  ``qfi_lossy`` is not held
here: next to a fringe its inner products cancel.
"""

import math
import sys

import numpy as np
import pytest

from references import mp_cq_alpha, mp_delta_phi, mp_ideal_qfi, mp_internal_photon_number, mp_optimal_phase
from su11.errors import Su11Error
from su11.limits import internal_photon_number
from su11.model import Params
from su11.qfi import cq_alpha, qfi_ideal
from su11.sensitivity import optimal_phase, sensitivity_lossy

mpmath = pytest.importorskip("mpmath")

ULP = sys.float_info.epsilon
DRAWS = 400


def draw(rng: np.random.Generator, near: bool) -> Params:
    """One point of the Params domain; ``near``: next to a fringe in T1, eta and phi."""
    if near:
        t1, eta = 1.0 - 10.0 ** rng.uniform(-15.0, -2.0, size=2)
        phi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -1.0) + 2.0 * math.pi * rng.integers(-1, 2)
    else:
        t1, eta = rng.uniform(0.0, 1.0), 1.0 - rng.uniform(0.0, 1.0)
        phi = rng.uniform(-10.0, 10.0)
    return Params(
        g=float(10.0 ** rng.uniform(-3.0, 1.3)),
        beta=float(10.0 ** rng.uniform(-3.0, 2.0)) if rng.uniform() < 0.9 else 0.0,
        phi=float(phi),
        m=int(rng.integers(0, 16)),
        T1=float(t1),
        T2=float(rng.uniform(0.0, 1.0)),
        eta=float(eta),
    )


def _delta_phi(p, rng):
    return sensitivity_lossy(p).delta_phi, mp_delta_phi(mpmath, p)


def _optimal_phase(p, rng):
    # on [-pi, pi] both ends are stationary and -+acos c* tie, so phi* is -acos c*
    return -optimal_phase(p, (-math.pi, math.pi))[0], mp_optimal_phase(mpmath, p)


def _internal_photon_number(p, rng):
    return internal_photon_number(p), mp_internal_photon_number(mpmath, p)


def _qfi_ideal(p, rng):
    return qfi_ideal(p).f, mp_ideal_qfi(mpmath, p)


def _cq_alpha(p, rng):
    alpha = float(rng.uniform(-2.0, 2.0))
    return cq_alpha(p, alpha), mp_cq_alpha(mpmath, p, alpha)


# calculator -> (its value and the reference's at a draw, bound in ulp); each bound
# is the worst case over seeds 0..24 of ulp_errors (10,000 draws), rounded up
CONTRACT = {
    "sensitivity_lossy": (_delta_phi, 5),  # worst 4.17
    "optimal_phase": (_optimal_phase, 2),  # worst 1.996
    "internal_photon_number": (_internal_photon_number, 6),  # worst 5.95
    "qfi_ideal": (_qfi_ideal, 8),  # worst 7.996
    "cq_alpha": (_cq_alpha, 9),  # worst 8.94
}


def ulp_errors(calculator: str, seed: int, draws: int = DRAWS) -> list:
    """Relative errors in ulp of ``calculator`` at seeded draws, half next to a fringe."""
    evaluate, _ = CONTRACT[calculator]
    rng = np.random.default_rng(seed)
    errors = []
    for i in range(draws):
        p = draw(rng, near=i % 2 == 0)
        try:
            got, want = evaluate(p, rng)
        except Su11Error:
            continue
        errors.append(abs(got - want) / (ULP * abs(want)) if want else abs(got) / ULP)
    return errors


@pytest.mark.parametrize("calculator", CONTRACT)
def test_calculator_is_within_its_ulp_bound_of_60_digits(calculator):
    errors = ulp_errors(calculator, seed=32)
    assert len(errors) > DRAWS // 2, "most draws should give a value"
    assert max(errors) <= CONTRACT[calculator][1], f"worst {max(errors):.2f} ulp"
