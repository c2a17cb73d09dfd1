"""Executable theorem suites: closed-form criteria against the LP engine.

Each suite samples rational inputs with bounded denominators (so the LP side
runs exactly), checks an equivalence or implication on every trial, and
returns a deterministic JSON-friendly report.  Any disagreement is embedded
in the report with the exact inputs for replay.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from . import regions
from .lp import feasible
from .model import (
    ConnectionVector,
    OutcomeVector,
    connection_marginals,
    outcome_marginals,
)
from .scalars import Scalar
from .stats import (
    Compliance,
    CorrelationQuad,
    chsh_satisfied,
    compatible,
    enumerate_E0,
    noforcing_counterexample,
    qm_compliant,
    s_pair,
    tsirelson_satisfied,
)

__all__ = [
    "random_probability",
    "random_outcome_vector",
    "random_connection_vector",
    "verify_lemma1",
    "verify_fine",
    "verify_noforcing",
    "verify_nomatching",
    "run_all",
    "MAX_DENSITY",
    "MAX_TRIALS",
]

_MAX_RECORDED_FAILURES = 20


def random_probability(rng: random.Random, denominator: int = 64) -> Fraction:
    """Uniform on the lattice {0, 1/(2d), ..., 1/2}."""
    return Fraction(rng.randint(0, denominator), 2 * denominator)


def random_outcome_vector(rng: random.Random, denominator: int = 64) -> OutcomeVector:
    return OutcomeVector(*(random_probability(rng, denominator) for _ in range(4)))


def random_connection_vector(rng: random.Random, denominator: int = 64) -> ConnectionVector:
    return ConnectionVector(*(random_probability(rng, denominator) for _ in range(4)))


def _strs(vec) -> list[str]:
    return [str(c) for c in vec.components]


def _record(failures: list, entry: dict) -> None:
    if len(failures) < _MAX_RECORDED_FAILURES:
        failures.append(entry)


#: The most trials one suite samples: 100k lemma1 trials, one LP each, take
#: under a minute on a 2-core VM.
MAX_TRIALS = 100_000


def _check_sampling(trials: int, denominator: int, name: str = "trials") -> None:
    if trials < 0:
        raise ValueError(f"{name} must be at least 0, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"{name} must be at most {MAX_TRIALS}, got {trials}")
    if denominator < 1:
        raise ValueError(f"denominator must be at least 1, got {denominator}")


def verify_lemma1(
    trials: int = 10000,
    seed: int = 0,
    *,
    denominator: int = 64,
) -> dict:
    """Closed-form compatibility vs LP feasibility on random (p, eps) pairs."""
    _check_sampling(trials, denominator)
    rng = random.Random(seed)
    agreements = 0
    n_feasible = 0
    failures: list[dict] = []
    for trial in range(trials):
        p = random_outcome_vector(rng, denominator)
        eps = random_connection_vector(rng, denominator)
        closed = compatible(p, eps)
        lp = feasible(outcome_marginals(p) + connection_marginals(eps)).feasible
        if closed == lp:
            agreements += 1
        else:
            _record(
                failures,
                {"trial": trial, "p": _strs(p), "eps": _strs(eps),
                 "compatible": closed, "lp_feasible": lp},
            )
        n_feasible += lp
    return {
        "suite": "lemma1",
        # "engine" is a constant, kept so that pinned reports keep their bytes.
        "params": {"trials": trials, "seed": seed, "denominator": denominator,
                   "engine": "auto"},
        "checked": trials,
        "agreements": agreements,
        "feasible_count": n_feasible,
        "failures": failures,
        "pass": agreements == trials,
    }


def verify_fine(
    trials: int = 10000, seed: int = 0, *, denominator: int = 64
) -> dict:
    """compatible(p, eps0) <=> CHSH on random p, with identical verdicts
    across the s0 = 1 family: exactly eight connection vectors, each with
    statistics (1, 1/2) exactly."""
    _check_sampling(trials, denominator)
    rng = random.Random(seed)
    members = enumerate_E0()
    stats_members = [s_pair(CorrelationQuad.from_connections(e)) for e in members]
    exact_stats = all(se.s0 == 1 and se.s1 == Fraction(1, 2) for se in stats_members)
    agreements = 0
    e0_agreements = 0
    failures: list[dict] = []
    for trial in range(trials):
        p = random_outcome_vector(rng, denominator)
        verdicts = [compatible(p, e) for e in members]
        chsh = chsh_satisfied(p)
        fine_ok = verdicts[0] == chsh
        family_ok = all(v == verdicts[0] for v in verdicts)
        agreements += fine_ok
        e0_agreements += family_ok
        if not (fine_ok and family_ok):
            _record(
                failures,
                {"trial": trial, "p": _strs(p), "chsh": chsh,
                 "verdicts": verdicts},
            )
    pr_box = OutcomeVector(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0)
    quarter = OutcomeVector(*(Fraction(1, 4),) * 4)
    pr_incompatible = not any(compatible(pr_box, e) for e in members)
    quarter_compatible = all(compatible(quarter, e) for e in members)
    return {
        "suite": "fine",
        "params": {"trials": trials, "seed": seed, "denominator": denominator},
        "checked": trials,
        "agreements": agreements,
        "e0_family_agreements": e0_agreements,
        "member_count": len(members),
        "members": [_strs(e) for e in members],
        "exact_statistics": exact_stats,
        "pr_box_incompatible": pr_incompatible,
        "quarter_compatible": quarter_compatible,
        "failures": failures,
        "pass": (
            agreements == trials
            and e0_agreements == trials
            and len(members) == 8
            and exact_stats
            and pr_incompatible
            and quarter_compatible
        ),
    }


#: The finest noforcing grid: density^4 connection vectors, 83521 at 17.
MAX_DENSITY = 17


def _check_density(density: int) -> None:
    if density < 2:
        raise ValueError("density must be at least 2")
    if density > MAX_DENSITY:
        raise ValueError(f"density must be at most {MAX_DENSITY}, got {density}")


def _grid_connection_vectors(density: int) -> list[ConnectionVector]:
    _check_density(density)
    values = [Fraction(j, 2 * (density - 1)) for j in range(density)]
    out = []
    for a1 in values:
        for a2 in values:
            for b1 in values:
                for b2 in values:
                    out.append(ConnectionVector(a1, a2, b1, b2))
    return out


#: Random p checked against each s0 = 1 connection vector in noforcing.
BOUNDARY_SAMPLES = 40


def _opens(eps: ConnectionVector) -> bool:
    """s0(eps) < 1: the connection vector admits a no-forcing counterexample."""
    return s_pair(CorrelationQuad.from_connections(eps)).s0 < 1


def verify_noforcing(
    density: int = 5,
    seed: int = 0,
    *,
    min_vectors: int = 1000,
    denominator: int = 64,
) -> dict:
    """For every connection vector with s0 < 1 (grid plus random), the
    constructed counterexample must be compatible (closed form and LP) and
    strictly quantum-violating.  Vectors with s0 = 1 instead satisfy
    compatible => CHSH => not outside."""
    _check_sampling(min_vectors, denominator, "min_vectors")
    rng = random.Random(seed)
    vectors = [(e, _opens(e)) for e in _grid_connection_vectors(density)]
    n_open = sum(opens for _, opens in vectors)
    while n_open < min_vectors:
        e = random_connection_vector(rng, denominator)
        opens = _opens(e)
        vectors.append((e, opens))
        n_open += opens

    checked = 0
    verified = 0
    boundary_checked = 0
    boundary_ok = 0
    failures: list[dict] = []
    for eps, opens in vectors:
        if opens:
            checked += 1
            p = noforcing_counterexample(eps)
            ok_closed = compatible(p, eps)
            ok_lp = feasible(outcome_marginals(p) + connection_marginals(eps)).feasible
            qm = qm_compliant(p)
            if ok_closed and ok_lp and qm is Compliance.OUTSIDE:
                verified += 1
            else:
                _record(
                    failures,
                    {"eps": _strs(eps), "p": _strs(p), "compatible": ok_closed,
                     "lp_feasible": ok_lp, "qm": qm.value},
                )
        else:
            boundary_checked += 1
            try:
                noforcing_counterexample(eps)
                _record(failures, {"eps": _strs(eps),
                                   "error": "counterexample returned for s0 = 1"})
                continue
            except ValueError:
                pass
            ok = True
            for _ in range(BOUNDARY_SAMPLES):
                p = random_outcome_vector(rng, denominator)
                if compatible(p, eps) and not (
                    chsh_satisfied(p) and qm_compliant(p) is not Compliance.OUTSIDE
                ):
                    ok = False
                    _record(failures, {"eps": _strs(eps), "p": _strs(p),
                                       "error": "compatible but not classical"})
            boundary_ok += ok
    return {
        "suite": "noforcing",
        # "engine" is a constant, kept so that pinned reports keep their bytes.
        "params": {"density": density, "seed": seed, "min_vectors": min_vectors,
                   "denominator": denominator,
                   "boundary_samples": BOUNDARY_SAMPLES, "engine": "auto"},
        "open_checked": checked,
        "open_verified": verified,
        "s0_one_checked": boundary_checked,
        "s0_one_verified": boundary_ok,
        "failures": failures,
        "pass": verified == checked and boundary_ok == boundary_checked
        and checked >= min_vectors,
    }


#: Rays bisected on the requested cross-section of nomatching: three points
#: decide collinearity.
RAYS = 3
#: A cross-section where the quantum boundary is visibly curved, and the rays
#: bisected on it.
CURVED_CROSSSECTION = (Fraction(7, 16), Fraction(7, 16))
CURVED_RAYS = 8


def _collinearity_det(points: Sequence[tuple]) -> float:
    (x1, y1), (x2, y2), (x3, y3) = (
        (float(a), float(b)) for a, b in points[:3]
    )
    return (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)


def verify_nomatching(
    crosssection: tuple = (Fraction(1, 4), Fraction(1, 4)),
    seed: int = 0,
    *,
    grid_resolution: int = 201,
) -> dict:
    """Property-level evidence that no marginal constraint set carves out
    exactly the quantum-realizable region.

    The universal statement is not checked by desk enumeration; what is
    verified is the load-bearing geometry: the quantum region's boundary is
    spread in two dimensions (three ray-bisection points non-collinear, on
    the requested cross-section and on a deliberately curved one), and both
    strict inclusions pink < blue < gray are witnessed by explicit points.
    """
    regions.check_resolution(grid_resolution)
    v1, v2 = (Fraction(c) for c in crosssection)
    for v in (v1, v2):
        if not 0 < v < Fraction(1, 2):
            raise ValueError(
                f"degenerate cross-section: fixed value {v} on the cube boundary"
            )
    fixed = {"p11": v1, "p12": v2}
    points = regions.trace_boundary("qm", fixed, RAYS)
    det = _collinearity_det(points)

    cfixed = dict(zip(("p11", "p12"), CURVED_CROSSSECTION))
    curved_points = regions.trace_boundary("qm", cfixed, CURVED_RAYS)
    half = Fraction(1, 2)
    interior = [(x, y) for x, y in curved_points if 0 < x < half and 0 < y < half]
    curved_det = _collinearity_det(interior) if len(interior) >= 3 else 0.0

    # In-between witnesses: quantum-compliant but CHSH-violating, and
    # Tsirelson-satisfying but quantum-violating.
    c_lo = Scalar.quadratic(Fraction(1, 4), Fraction(-1, 8))  # (2-sqrt2)/8
    c_hi = Scalar.quadratic(Fraction(1, 4), Fraction(1, 8))   # (2+sqrt2)/8
    witness1 = OutcomeVector(c_lo, c_lo, c_lo, c_hi)
    w1_ok = (
        qm_compliant(witness1) is not Compliance.OUTSIDE
        and not chsh_satisfied(witness1)
    )
    witness2 = OutcomeVector(
        Fraction(1, 2),
        Fraction(1, 2),
        Scalar.quadratic(0, Fraction(1, 4)),                  # sqrt2/4
        Scalar.quadratic(Fraction(1, 2), Fraction(-1, 4)),    # (2-sqrt2)/4
    )
    w2_ok = (
        tsirelson_satisfied(witness2)
        and qm_compliant(witness2) is Compliance.OUTSIDE
    )

    grid = regions.membership_grid(fixed, grid_resolution)
    return {
        "suite": "nomatching",
        "note": (
            "property-level evidence (boundary geometry and strict-inclusion "
            "witnesses), not an enumeration over all marginal constraint sets"
        ),
        "params": {
            "crosssection": [str(v1), str(v2)],
            "seed": seed,
            "rays": RAYS,
            "grid_resolution": grid_resolution,
            "curved_crosssection": [str(v) for v in CURVED_CROSSSECTION],
            "curved_rays": CURVED_RAYS,
        },
        "boundary_points": [[str(x), str(y)] for x, y in points],
        "collinearity_det": det,
        "curved_boundary_points": [[str(x), str(y)] for x, y in interior],
        "curved_collinearity_det": curved_det,
        "witness_compliant_chsh_violating": {
            "p": _strs(witness1), "ok": w1_ok,
        },
        "witness_tsirelson_noncompliant": {
            "p": _strs(witness2), "ok": w2_ok,
        },
        "grid_cells": grid.resolution ** 2,
        "grid_counts": grid.counts(),
        "grid_inclusion_holds": True,  # membership_grid raises on a violation
        "pass": (
            abs(det) > 1e-3
            and len(interior) >= 3
            and abs(curved_det) > 1e-3
            and w1_ok
            and w2_ok
        ),
    }


def run_all(
    trials: int = 10000,
    seed: int = 7,
    *,
    denominator: int = 64,
    noforcing_min: int = 1000,
    density: int = 5,
    grid_resolution: int = 201,
) -> dict:
    regions.check_resolution(grid_resolution)  # before the long suites run
    _check_density(density)
    _check_sampling(trials, denominator)
    _check_sampling(noforcing_min, denominator, "noforcing_min")
    # The seed offsets predate folding the e0 suite (seed + 2) into fine, and
    # are kept so that every remaining suite's report stays the same.
    suites = {
        "lemma1": verify_lemma1(trials, seed, denominator=denominator),
        "fine": verify_fine(trials, seed + 1, denominator=denominator),
        "noforcing": verify_noforcing(
            density, seed + 3, min_vectors=noforcing_min, denominator=denominator
        ),
        "nomatching": verify_nomatching(seed=seed + 4, grid_resolution=grid_resolution),
    }
    return {
        "suite": "all",
        "pass": all(s["pass"] for s in suites.values()),
        "suites": suites,
    }
