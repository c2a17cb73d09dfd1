"""Acceptance suite: every criterion at its stated tolerance.

Each test prints exactly one line ``ACCEPTANCE <n> PASS|FAIL: <summary>``
(visible with ``pytest -s`` or in captured output on failure).  Seeds are
fixed so runs are reproducible.
"""

import math
import random
import time
from fractions import Fraction

from epr_couplings.lp import build_system, feasible, optimize
from epr_couplings.model import (
    ConnectionVector,
    MarginalSpec,
    VariableId,
    connection_marginals,
    outcome_marginals,
)
from epr_couplings.qm import Settings, maximize_chsh, qm_outcomes
from epr_couplings.scalars import Scalar
from epr_couplings.stats import (
    Compliance,
    CorrelationQuad,
    compatible,
    noforcing_counterexample,
    qm_compliant,
    s_pair,
    tsirelson_satisfied,
)
from epr_couplings.verify import (
    random_connection_vector,
    random_outcome_vector,
    verify_fine,
    verify_lemma1,
    verify_noforcing,
    verify_nomatching,
)

SEED = 20240307
EPS_T = ConnectionVector(*([Scalar.quadratic(Fraction(-1, 8), Fraction(1, 8))] * 4))
TSIRELSON_HIGH = Scalar.quadratic(Fraction(1, 2), Fraction(1, 2))
TSIRELSON_LOW = Scalar.quadratic(Fraction(1, 2), Fraction(-1, 2))


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_lemma1_lp_agreement():
    start = time.monotonic()
    report = verify_lemma1(10_000, seed=SEED)
    elapsed = time.monotonic() - start
    ok = report["pass"] and report["agreements"] == 10_000 and elapsed < 300
    _report(
        1, ok,
        f"compatibility vs LP feasibility agreed on {report['agreements']}/10000 "
        f"seeded rational pairs in {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_2_fine_chsh_equivalence():
    report = verify_fine(10_000, seed=SEED + 1)
    ok = (
        report["pass"]
        and report["agreements"] == 10_000
        and report["e0_family_agreements"] == 10_000
        and report["pr_box_incompatible"]
        and report["quarter_compatible"]
    )
    _report(
        2, ok,
        f"compatible(p, eps0) <=> CHSH on {report['agreements']}/10000 p; "
        f"(1/2,1/2,1/2,0) incompatible; (1/4,...) compatible",
    )


def test_criterion_3_e0_family():
    report = verify_fine(1_000, seed=SEED + 2)
    ok = (
        report["pass"]
        and report["member_count"] == 8
        and report["exact_statistics"]
        and report["e0_family_agreements"] == 1_000
    )
    _report(
        3, ok,
        "8 connection vectors with statistics exactly (1, 1/2); verdicts match "
        f"the null vector on {report['e0_family_agreements']}/1000 random p",
    )


def test_criterion_4_tsirelson_match_and_support():
    rng = random.Random(SEED + 3)
    agree = 0
    for _ in range(10_000):
        p = random_outcome_vector(rng)
        agree += compatible(p, EPS_T) == tsirelson_satisfied(p)
    value = optimize(connection_marginals(EPS_T), (1, 1, 1, -2))
    exact = value == TSIRELSON_HIGH
    ok = agree == 10_000 and exact
    _report(
        4, ok,
        f"compatible(p, eps_T) <=> Tsirelson on {agree}/10000 p (exact in "
        f"Q[sqrt2]); support value {value} == (1+sqrt2)/2: {exact}",
    )


def test_criterion_5_qm_angle_example():
    p = qm_outcomes(Settings.planar("0", "pi/2", "pi/4", "-pi/4"))
    low = Scalar.quadratic(Fraction(1, 4), Fraction(-1, 8))
    high = Scalar.quadratic(Fraction(1, 4), Fraction(1, 8))
    values_exact = p.is_exact and p.components == (low, low, low, high)
    total = p.p11 + p.p12 + p.p21 + p.p22
    expr = total - 2 * p.p22
    expr_exact = expr == TSIRELSON_LOW
    violates_chsh = expr < 0
    on_boundary = qm_compliant(p) is Compliance.BOUNDARY
    ok = values_exact and expr_exact and violates_chsh and on_boundary
    _report(
        5, ok,
        f"p = ((2-sqrt2)/8 x3, (2+sqrt2)/8) exactly; expression {expr} = "
        f"(1-sqrt2)/2 < 0 (violates classical bounds); classification boundary",
    )


def test_criterion_6_tsirelson_bound_search():
    start = time.monotonic()
    _, value = maximize_chsh(resolution=64, refine=3)
    elapsed = time.monotonic() - start
    v = float(value)
    target = (1 + math.sqrt(2)) / 2
    ok = abs(v - target) <= 1e-6 and v <= target + 1e-9 and elapsed < 60
    _report(
        6, ok,
        f"search reached {v:.9f} vs (1+sqrt2)/2 = {target:.9f} "
        f"(|diff| = {abs(v - target):.2e} <= 1e-6, no overshoot) in {elapsed:.1f}s",
    )


def test_criterion_7_noforcing_sweep():
    report = verify_noforcing(density=5, seed=SEED + 4, min_vectors=1_000)
    ok = (
        report["pass"]
        and report["open_checked"] >= 1_000
        and report["open_verified"] == report["open_checked"]
        and not report["failures"]
    )
    _report(
        7, ok,
        f"counterexamples produced and verified (closed form + LP + strictly "
        f"outside) for {report['open_verified']}/{report['open_checked']} "
        f"connection vectors with s0 < 1; zero failures",
    )


def test_criterion_8_nomatching_evidence():
    report = verify_nomatching(
        (Fraction(1, 4), Fraction(1, 4)), seed=SEED + 5, grid_resolution=201
    )
    ok = (
        report["pass"]
        and abs(report["collinearity_det"]) > 1e-3
        and report["witness_compliant_chsh_violating"]["ok"]
        and report["witness_tsirelson_noncompliant"]["ok"]
        and report["grid_inclusion_holds"]
        and report["grid_cells"] == 201 * 201
    )
    _report(
        8, ok,
        f"boundary points non-collinear (|det| = {abs(report['collinearity_det']):.3f} "
        f"> 1e-3); both strict-inclusion witnesses found; 201x201 grid keeps "
        f"classical within quantum within Tsirelson at every cell",
    )


def test_criterion_9_witness_soundness():
    rng = random.Random(SEED + 6)
    singles = [
        MarginalSpec.from_prob_all_plus((v,), {frozenset((v,)): Fraction(1, 2)})
        for v in VariableId
    ]
    systems = []
    # random compatible and incompatible pairs
    for _ in range(60):
        p = random_outcome_vector(rng)
        eps = random_connection_vector(rng)
        systems.append(outcome_marginals(p) + connection_marginals(eps))
    # constructed counterexamples against their connections
    for _ in range(20):
        eps = random_connection_vector(rng)
        if s_pair(CorrelationQuad.from_connections(eps)).s0 == 1:
            continue
        p = noforcing_counterexample(eps)
        systems.append(outcome_marginals(p) + connection_marginals(eps))
    # single-variable systems with appended observable rows
    m1_cases = [(singles, random_outcome_vector(rng)) for _ in range(10)]
    # irrational right-hand sides through the exact engine
    systems.append(connection_marginals(EPS_T))

    checked = 0
    sound = 0
    for specs in systems:
        res = feasible(specs)
        if not res.feasible:
            continue
        checked += 1
        system = build_system(specs)
        witness = res.witness
        if all(
            witness.all_plus[mask] == rhs
            for mask, rhs in zip(system.masks, system.rhs)
        ):
            sound += 1
    for specs, p in m1_cases:
        res = feasible(specs, p=p)
        assert res.feasible
        checked += 1
        if res.witness.outcome_vector() == p and all(
            res.witness.prob_all_plus([v]) == Fraction(1, 2) for v in VariableId
        ):
            sound += 1
    ok = checked >= 60 and sound == checked
    _report(
        9, ok,
        f"{sound}/{checked} LP witnesses reproduce every constraint row "
        f"exactly on re-marginalization (random, constructed, appended-p and "
        f"Q[sqrt2] systems)",
    )
