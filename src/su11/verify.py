"""Acceptance suite: every criterion as a function returning pass/fail.

The CLI ``verify`` subcommand and the pytest acceptance module both run
these.  Quantitative acceptance is anchored to the independent Fock oracle
plus the published orderings and reduction identities; every tolerance is
pinned here.

A finding, a measured departure from a published claim, passes while it
reproduces and fails once the claim starts to hold.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from su11 import fock
from su11.errors import NumericalError, Su11Error
from su11.limits import internal_photon_number, limits
from su11.model import Params
from su11.qfi import cq_alpha, qfi_ideal, qfi_lossy
from su11.sensitivity import sensitivity_ideal, sensitivity_lossy


class CriterionResult(NamedTuple):
    cid: str
    description: str
    passed: bool
    details: str
    seconds: float = 0.0
    finding: bool = False

    def line(self) -> str:
        flag = "FAIL" if not self.passed else "FINDING" if self.finding else "PASS"
        return f"{flag}  {self.cid}  {self.description}  [{self.details}] ({self.seconds:.1f}s)"


def criterion_1_sensitivity_oracle() -> CriterionResult:
    """Analytic moments and delta_phi match the Fock oracle to 1e-6 relative,
    over m = 0..3, with the grid finishing inside the 10-minute budget."""
    ms = [0, 1, 2, 3]
    start = time.perf_counter()
    worst = 0.0
    n_points = 0
    for g in (0.5, 1.0):
        for beta in (0.5, 1.0):
            for phi in (0.2, 0.4, 1.0):
                for t1, t2 in ((1.0, 1.0), (0.8, 1.0), (1.0, 0.8)):
                    base = Params(g=g, beta=beta, phi=phi, T1=t1, T2=t2)
                    oracle = fock.numeric_moments_multi(base, ms)
                    for m in ms:
                        got = sensitivity_lossy(base.replace(m=m))
                        want = oracle[m]
                        for a, b in (
                            (got.mean_n, want["mean"]),
                            (got.var_n + got.mean_n * got.mean_n, want["second"]),
                            (got.delta_phi, want["delta_phi"]),
                        ):
                            worst = max(worst, abs(a - b) / abs(b))
                        n_points += 1
    elapsed = time.perf_counter() - start
    return CriterionResult(
        "C1",
        "sensitivity oracle equivalence (rel 1e-6, grid < 600s)",
        worst < 1e-6 and elapsed < 600.0,
        f"{n_points} points, worst rel err {worst:.2e}, {elapsed:.0f}s",
    )


def criterion_2_qfi_oracle() -> CriterionResult:
    """Ideal QFI matches the oracle's exact-tangent QFI to 1e-5 relative."""
    ms = [0, 1, 2]
    worst = 0.0
    n_points = 0
    for m in ms:
        for g in (0.5, 1.0):
            for beta in (0.5, 1.0):
                p = Params(g=g, beta=beta, phi=0.4, m=m)
                fa = qfi_ideal(p).f
                fo = fock.numeric_qfi_pure(p)
                worst = max(worst, abs(fa - fo) / abs(fo))
                n_points += 1
    return CriterionResult(
        "C2",
        "ideal QFI oracle equivalence (rel 1e-5)",
        worst < 1e-5,
        f"{n_points} points, worst rel err {worst:.2e}",
    )


def golden_section(fn: Callable[[float], float], a: float, b: float) -> Tuple[float, float]:
    """(x, fn(x)) at the better final probe of a golden section over [a, b]; on a tie, the smaller x."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    # each step shrinks the bracket by invphi: 80 steps bring any bracket up to 1e4 wide under 1e-12
    for _ in range(80):
        if b - a < 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def alpha_scan(p: Params) -> Tuple[float, float]:
    """Numeric minimum of C_Q over the Kraus placement, as (alpha, C_Q).

    A 41-point grid over alpha in [-2, 1] finds the minimum's neighborhood,
    widening the bracket while the minimum lands on an edge; golden-section
    then refines it.  A flat profile (eta = 1) short-circuits to alpha = 0.
    """
    cq = partial(cq_alpha, p)
    lo, hi = -2.0, 1.0
    n_grid = 41
    for _ in range(8):
        vals = [cq(lo + (hi - lo) * i / (n_grid - 1)) for i in range(n_grid)]
        spread = max(vals) - min(vals)
        if spread <= 1e-12 * max(1.0, abs(vals[0])):
            return 0.0, vals[0]
        i_min = vals.index(min(vals))
        if i_min == 0:
            lo -= hi - lo
            continue
        if i_min == n_grid - 1:
            hi += hi - lo
            continue
        break
    else:
        raise NumericalError("alpha minimization bracket did not stabilize")
    step = (hi - lo) / (n_grid - 1)
    return golden_section(cq, lo + (i_min - 1) * step, lo + (i_min + 1) * step)


def criterion_3_lossy_minimization() -> CriterionResult:
    """Closed-form lossy QFI equals the numeric alpha minimum (rel 1e-8);
    at eta = 1 it equals the ideal QFI (rel 1e-10).

    The scan minimizes `cq_alpha`, C_Q written in the probe's Laguerre moments,
    while `qfi_lossy` minimizes C_Q's inner products on the series engine, so
    C3 checks the closed-form minimum and the identity that drops C_Q's cross
    terms together.  `qfi_ideal` is 4 Var(n), C_Q at eta = 1, so the unit-eta
    gap holds the series engine's `qfi_lossy` at eta = 1 to that closed form
    (the scan's eta = 1 profile is the same 4 Var(n), and would compare it
    with itself); C2 (the oracle) is the independent check of the ideal QFI.
    """
    worst_min = 0.0
    worst_unit = 0.0
    for eta in (0.5, 0.7, 0.9, 1.0):
        for m in (0, 1, 2, 3):
            p = Params(g=1.0, beta=1.0, phi=0.4, m=m, eta=eta)
            r = qfi_lossy(p)
            _, fn = alpha_scan(p)
            worst_min = max(worst_min, abs(r.f - fn) / abs(fn))
            if eta == 1.0:
                fi = qfi_ideal(p).f
                worst_unit = max(worst_unit, abs(r.f - fi) / fi)
    passed = worst_min < 1e-8 and worst_unit < 1e-10
    return CriterionResult(
        "C3",
        "lossy-QFI closed form vs alpha scan of the Laguerre C_Q (rel 1e-8); "
        "series-engine QFI at eta = 1 vs ideal 4 Var(n) (rel 1e-10)",
        passed,
        f"worst min-gap {worst_min:.2e}, worst unit-eta gap {worst_unit:.2e}",
    )


def criterion_4_reductions() -> CriterionResult:
    """No-loss reduction exact; every calculator errors at a dark fringe, returning no NaN."""
    problems = []
    for m in (0, 1, 3):
        p = Params(g=1.1, beta=0.8, phi=0.9, m=m, T1=1.0, T2=1.0)
        ri, rl = sensitivity_ideal(p), sensitivity_lossy(p)
        if not math.isclose(ri.delta_phi, rl.delta_phi, rel_tol=1e-14):
            problems.append(f"lossy reduction mismatch at m={m}")
    fringe = Params(g=1.0, beta=1.0, phi=0.0, m=1)
    calls = {
        fn.__name__: partial(fn, fringe)
        for fn in (sensitivity_ideal, sensitivity_lossy, qfi_ideal, qfi_lossy, internal_photon_number, limits)
    }
    calls["cq_alpha"] = partial(cq_alpha, fringe, 0.0)
    for name, call in calls.items():
        try:
            out = call()
            problems.append(f"{name} returned {out} at the dark fringe")
        except Su11Error:
            pass
    return CriterionResult(
        "C4",
        "reduction identities and dark-fringe error policy",
        not problems,
        "; ".join(problems) if problems else "all reductions hold",
    )


def c5_monotonicity_problems() -> List[str]:
    """m-monotonicity orderings at g=1, beta=1, phi=0.4."""
    problems = []
    deltas = [sensitivity_ideal(Params(m=m)).delta_phi for m in range(4)]
    if not _strictly_decreasing(deltas):
        problems.append("delta_phi not strictly decreasing in m")
    deltas_09 = [sensitivity_lossy(Params(T1=0.9, T2=1.0, m=m)).delta_phi for m in range(4)]
    if not _strictly_decreasing(deltas_09):
        problems.append("delta_phi not strictly decreasing in m at T=0.9")
    fs = [qfi_ideal(Params(m=m)).f for m in range(4)]
    if not _strictly_increasing(fs):
        problems.append("ideal QFI not strictly increasing in m")
    fl = [qfi_lossy(Params(m=m, eta=0.7)).f for m in range(4)]
    if not _strictly_increasing(fl):
        problems.append("lossy QFI not strictly increasing in m")
    for t in (0.4, 0.7, 1.0):
        nts = [internal_photon_number(Params(T1=t, T2=1.0, m=m)) for m in range(4)]
        if not _strictly_increasing(nts):
            problems.append(f"N_T not strictly increasing in m at T={t}")
    return problems


def c5_loss_placement_problems() -> List[str]:
    """Internal loss strictly worse than external over T in [0.4, 0.95].

    Known to fail: both calculation routes agree the ordering reverses near
    T ~ 0.87, and internal loss is the (slightly) gentler placement beyond
    that; the strict inequality holds only for T below the crossing.
    """
    problems = []
    for m in range(4):
        for t in np.linspace(0.4, 0.95, 12):
            internal = sensitivity_lossy(Params(T1=float(t), T2=1.0, m=m)).delta_phi
            external = sensitivity_lossy(Params(T1=1.0, T2=float(t), m=m)).delta_phi
            if not internal > external:
                problems.append(
                    f"m={m}, T={t:.2f}: internal {internal:.7f} <= external {external:.7f}"
                )
                break
    return problems


def criterion_5_orderings() -> CriterionResult:
    """m-monotonicity orderings at g=1, beta=1, phi=0.4."""
    problems = c5_monotonicity_problems()
    return CriterionResult(
        "C5",
        "published orderings in m",
        not problems,
        "; ".join(problems) if problems else "all orderings hold",
    )


def finding_1_loss_placement_reversal() -> CriterionResult:
    """At phi = 0.4, internal loss is not strictly worse than external up to T = 0.95."""
    problems = c5_loss_placement_problems()
    return CriterionResult(
        "F1",
        "internal vs external loss ordering reverses below T = 0.95 at phi = 0.4",
        bool(problems),
        "; ".join(problems) if problems else "strict ordering holds",
        finding=True,
    )


def criterion_6_sql_beating() -> CriterionResult:
    """At T = 0.6 some m in {1,2,3} beats the SQL."""
    t = 0.6
    smallest = None
    for m in (1, 2, 3):
        p = Params(T1=t, T2=1.0, m=m)
        if sensitivity_lossy(p).delta_phi < limits(p).sql:
            smallest = m
            break
    return CriterionResult(
        "C6",
        "SQL beaten at 40% internal loss by some m in {1,2,3}",
        smallest is not None,
        f"smallest such m: {smallest}" if smallest else "no m beats the SQL",
    )


def criterion_7_bound_ordering() -> CriterionResult:
    """delta_phi > QCRB with a positive gap at every ideal grid point."""
    min_gap = math.inf
    n_points = 0
    for m in range(4):
        for g in (0.5, 1.0):
            for beta in (0.5, 1.0):
                for phi in (0.2, 0.4, 1.0):
                    p = Params(g=g, beta=beta, phi=phi, m=m)
                    gap = sensitivity_ideal(p).delta_phi - qfi_ideal(p).qcrb
                    min_gap = min(min_gap, gap)
                    n_points += 1
    return CriterionResult(
        "C7",
        "QCRB lies strictly below delta_phi on the ideal grid",
        min_gap > 0.0,
        f"{n_points} points, smallest gap {min_gap:.3e}",
    )


def criterion_8_loss_severity() -> CriterionResult:
    """At eta = 0.7 a beta sub-range (g=1, m=0) loses > 50% of the QFI."""
    betas = np.linspace(0.5, 2.0, 16)
    hits = []
    for beta in betas:
        fl = qfi_lossy(Params(g=1.0, beta=float(beta), phi=0.4, m=0, eta=0.7)).f
        fi = qfi_ideal(Params(g=1.0, beta=float(beta), phi=0.4, m=0)).f
        if fl < 0.5 * fi:
            hits.append(float(beta))
    return CriterionResult(
        "C8",
        "30% loss halves the QFI on a beta sub-range",
        bool(hits),
        f"sub-range [{hits[0]:.3f}, {hits[-1]:.3f}] of beta" if hits else "no sub-range found",
    )


def d_mean_dphi_fd(p: Params) -> float:
    """Central-difference (step 1e-5) lossy d<N>/dphi, the check on the explicit c1 u'."""

    def mean_at(phi: float) -> float:
        return sensitivity_lossy(p.replace(phi=phi)).mean_n

    return (mean_at(p.phi + 1e-5) - mean_at(p.phi - 1e-5)) / 2e-5


def criterion_9_numerical_hygiene() -> CriterionResult:
    """The explicit d<N>/dphi = c1 u' matches central differences of <N> = c1 u
    (100 random points); oracle values pass the cutoff-agreement gate by construction."""
    n_random = 100
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(n_random):
        p = Params(
            g=float(rng.uniform(0.3, 1.4)),
            beta=float(rng.uniform(0.2, 1.4)),
            phi=float(rng.uniform(0.15, 2.8)),
            m=int(rng.integers(0, 4)),
            T1=float(rng.uniform(0.6, 1.0)),
            T2=float(rng.uniform(0.6, 1.0)),
        )
        explicit = sensitivity_lossy(p).d_mean_dphi
        fd = d_mean_dphi_fd(p)
        worst = max(worst, abs(explicit - fd) / max(abs(fd), 1e-30))
    # the convergence gate is structural: converged_value never returns an
    # unconverged number, so exercising one oracle call here suffices
    fock.numeric_sensitivity(Params(g=0.5, beta=0.5, phi=0.4, m=1))
    return CriterionResult(
        "C9",
        "explicit d<N>/dphi vs finite differences of <N> (rel 1e-6); oracle gate",
        worst < 1e-6,
        f"{n_random} random points, worst rel err {worst:.2e}",
    )


def _strictly_increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


def _strictly_decreasing(xs) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


CRITERIA: List[Callable[[], CriterionResult]] = [
    criterion_1_sensitivity_oracle,
    criterion_2_qfi_oracle,
    criterion_3_lossy_minimization,
    criterion_4_reductions,
    criterion_5_orderings,
    criterion_6_sql_beating,
    criterion_7_bound_ordering,
    criterion_8_loss_severity,
    criterion_9_numerical_hygiene,
]

FINDINGS: List[Callable[[], CriterionResult]] = [finding_1_loss_placement_reversal]


def run_verify() -> List[CriterionResult]:
    results = []
    for criterion in CRITERIA + FINDINGS:
        start = time.perf_counter()
        result = criterion()
        results.append(result._replace(seconds=time.perf_counter() - start))
    return results
