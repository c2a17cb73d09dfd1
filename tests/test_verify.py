import hashlib
import json
from fractions import Fraction

import pytest

from epr_couplings import verify
from epr_couplings.model import ConnectionVector, OutcomeVector
from epr_couplings.stats import (
    Compliance,
    CorrelationQuad,
    chsh_satisfied,
    compatible,
    noforcing_counterexample,
    s_pair,
)


def test_lemma1_small_run_passes():
    report = verify.verify_lemma1(150, seed=7)
    assert report["pass"]
    assert report["agreements"] == 150
    assert report["failures"] == []


def test_lemma1_zero_trials_is_empty_pass():
    report = verify.verify_lemma1(0, seed=7)
    assert report["pass"] and report["checked"] == 0


def test_sampling_limits_are_checked_before_any_work():
    # Only the validator sees 10**12: a suite that missed the check would
    # build that many pairs.
    with pytest.raises(ValueError, match=f"trials must be at most {verify.MAX_TRIALS}"):
        verify._check_sampling(10**12, 64)
    verify._check_sampling(verify.MAX_TRIALS, 1)
    with pytest.raises(ValueError, match="min_vectors must be at least 0"):
        verify.verify_noforcing(3, min_vectors=-1)
    with pytest.raises(ValueError, match="denominator must be at least 1"):
        verify.verify_fine(0, denominator=0)


def test_lemma1_detects_corrupted_criterion(monkeypatch):
    def corrupted(p, eps):
        se = s_pair(CorrelationQuad.from_connections(eps))
        sp = s_pair(CorrelationQuad.from_outcomes(p))
        limit = Fraction(5, 4)  # deflated bound: rejects genuinely compatible pairs
        return se.s0 + sp.s1 <= limit and se.s1 + sp.s0 <= limit

    monkeypatch.setattr(verify, "compatible", corrupted)
    report = verify.verify_lemma1(200, seed=7)
    assert not report["pass"]
    assert report["failures"]
    first = report["failures"][0]
    assert first["compatible"] != first["lp_feasible"]


def test_lemma1_determinism():
    a = verify.verify_lemma1(60, seed=42)
    b = verify.verify_lemma1(60, seed=42)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_lemma1_report_bytes_are_pinned():
    # Each trial draws p, then eps, from the seeded rng; a change in that
    # order or in any verdict changes these bytes.
    report = json.dumps(verify.verify_lemma1(300, seed=5), sort_keys=True, indent=2)
    assert hashlib.md5(report.encode()).hexdigest() == "abf501ce5ee297d651fc95f147141e4f"


def test_fine_small_run():
    report = verify.verify_fine(400, seed=3)
    assert report["pass"]
    assert report["pr_box_incompatible"] and report["quarter_compatible"]


def test_e0_report():
    report = verify.verify_fine(200, seed=5)
    assert report["pass"]
    assert report["member_count"] == 8
    assert report["exact_statistics"]
    assert ["0", "0", "0", "0"] in report["members"]
    assert ["1/2", "1/2", "1/2", "1/2"] in report["members"]


def test_noforcing_small_run():
    report = verify.verify_noforcing(density=3, seed=11, min_vectors=100)
    assert report["pass"]
    assert report["open_checked"] >= 100
    assert report["open_verified"] == report["open_checked"]
    # the 3^4 grid contains all eight s0 = 1 vectors
    assert report["s0_one_checked"] == 8
    assert report["s0_one_verified"] == 8


def test_fine_records_a_wrong_criterion(monkeypatch):
    """A planted ``compatible`` that admits every p: each recorded failure
    names its trial's p, whose CHSH verdict it states, and the report fails."""
    monkeypatch.setattr(verify, "compatible", lambda p, eps: True)
    report = verify.verify_fine(100, seed=3)
    assert not report["pass"] and not report["pr_box_incompatible"]
    assert report["failures"]
    for failure in report["failures"]:
        p = OutcomeVector(*failure["p"])
        assert failure["chsh"] is chsh_satisfied(p) is False
        assert failure["verdicts"] == [True] * 8


NOFORCING_PLANTS = {
    # The counterexample of every open vector is called inside the quantum region.
    "qm_compliant": (lambda p: Compliance.INSIDE, "qm"),
    # A vector with s0 = 1 gets a counterexample that it forbids.
    "noforcing_counterexample": (lambda eps: OutcomeVector(0, 0, 0, 0), "error"),
    # Every compatible p of a vector with s0 = 1 is called non-classical.
    "chsh_satisfied": (lambda p: False, "error"),
}


@pytest.mark.parametrize("planted", NOFORCING_PLANTS)
def test_noforcing_records_each_failure_with_its_inputs(monkeypatch, planted):
    value, key = NOFORCING_PLANTS[planted]
    monkeypatch.setattr(verify, planted, value)
    report = verify.verify_noforcing(density=2, seed=11, min_vectors=20)
    assert report["pass"] is False
    failures = [f for f in report["failures"] if key in f]
    assert failures
    for failure in failures:
        eps = ConnectionVector(*failure["eps"])
        s0 = s_pair(CorrelationQuad.from_connections(eps)).s0
        if planted == "qm_compliant":
            p = noforcing_counterexample(eps)
            assert failure["p"] == [str(c) for c in p.components] and failure["qm"] == "inside"
        elif planted == "noforcing_counterexample":
            assert failure["error"] == "counterexample returned for s0 = 1" and s0 == 1
        else:
            assert failure["error"] == "compatible but not classical" and s0 == 1
            assert compatible(OutcomeVector(*failure["p"]), eps)


def test_noforcing_directed_example():
    eps = ConnectionVector(0, 0, 0, Fraction(1, 8))
    from epr_couplings.stats import noforcing_counterexample, qm_compliant, Compliance
    p = noforcing_counterexample(eps)
    assert compatible(p, eps)
    assert qm_compliant(p) is Compliance.OUTSIDE


def test_nomatching_report():
    report = verify.verify_nomatching(seed=1, grid_resolution=41)
    assert report["pass"]
    assert abs(report["collinearity_det"]) > 1e-3
    assert abs(report["curved_collinearity_det"]) > 1e-3
    assert len(report["curved_boundary_points"]) >= 3
    assert report["witness_compliant_chsh_violating"]["ok"]
    assert report["witness_tsirelson_noncompliant"]["ok"]
    assert report["grid_inclusion_holds"]
    assert report["grid_cells"] == 41 * 41
    assert "note" in report


def test_nomatching_rejects_degenerate_crosssection():
    with pytest.raises(ValueError, match="degenerate"):
        verify.verify_nomatching((Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(ValueError, match="degenerate"):
        verify.verify_nomatching((Fraction(1, 4), Fraction(0)))


def test_nomatching_determinism():
    a = verify.verify_nomatching(seed=2, grid_resolution=21)
    b = verify.verify_nomatching(seed=2, grid_resolution=21)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_all_small():
    report = verify.run_all(
        trials=60, seed=9, noforcing_min=40, grid_resolution=21
    )
    assert report["pass"]
    assert set(report["suites"]) == {"lemma1", "fine", "noforcing", "nomatching"}


def test_sampling_bounds():
    import random
    rng = random.Random(0)
    for _ in range(200):
        v = verify.random_probability(rng, 64)
        assert 0 <= v <= Fraction(1, 2)
        assert v.denominator <= 128
    p = verify.random_outcome_vector(rng)
    assert isinstance(p, OutcomeVector)
