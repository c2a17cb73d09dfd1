import itertools
import json
import logging
import os
import random
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_array

from epr_couplings import lp, simplex
from epr_couplings.cli import main as cli_main
from epr_couplings.lp import (
    OUTCOME_PAIRS,
    ConflictingMarginalsError,
    InfeasibleSystemError,
    build_system,
    feasible,
    optimize,
)
from epr_couplings.model import (
    CONNECTION_PAIRS,
    ConnectionVector,
    MarginalSpec,
    OutcomeVector,
    VariableId,
    connection_marginals,
    decode,
    marginal_spec_to_json,
    marginal_specs_from_json,
    outcome_marginals,
    subset_mask,
)
from epr_couplings.scalars import Scalar, ZSqrt2, integers, quotient
from epr_couplings.simplex import INFEASIBLE
from epr_couplings.stats import (
    CorrelationQuad,
    SPair,
    compatible,
    enumerate_E0,
    realize_s_pair,
    s_pair,
)
from epr_couplings.verify import random_connection_vector, random_outcome_vector
from test_simplex import solve_lp

V = VariableId
HALF = Fraction(1, 2)
EPS0 = ConnectionVector(0, 0, 0, 0)
EPS_T = ConnectionVector(*([Scalar.quadratic(Fraction(-1, 8), Fraction(1, 8))] * 4))
SINGLET_LOW = Scalar.quadratic(Fraction(1, 4), Fraction(-1, 8))  # (2-sqrt2)/8
SINGLET_HIGH = Scalar.quadratic(Fraction(1, 4), Fraction(1, 8))  # (2+sqrt2)/8
QUARTER = OutcomeVector(*([Fraction(1, 4)] * 4))
PR_BOX = OutcomeVector(HALF, HALF, HALF, 0)


def single_marginals():
    return [
        MarginalSpec.from_prob_all_plus((v,), {frozenset((v,)): HALF}) for v in V
    ]


def random_p(rng, denominator=64):
    return OutcomeVector(*(Fraction(rng.randint(0, denominator), 2 * denominator)
                           for _ in range(4)))


def random_eps(rng, denominator=64):
    return ConnectionVector(*(Fraction(rng.randint(0, denominator), 2 * denominator)
                              for _ in range(4)))


def test_build_system_pair_row_has_64_ones():
    spec = outcome_marginals(QUARTER)[0]
    system = build_system([spec])
    i = system.masks.index(subset_mask((V.A11, V.B11)))
    assert lp._structure(system.masks).model.a_eq[i].sum() == 64  # both bits pinned, six free


def test_build_system_empty_row():
    system = build_system([])
    assert system.masks == (0,)
    assert lp._structure(system.masks).model.a_eq[0].tolist() == [1] * 256
    assert system.rhs[0] == 1


def test_build_system_four_variable_marginal():
    probs = {}
    variables = (V.A11, V.A12, V.A21, V.A22)
    import itertools
    for k in range(5):
        for combo in itertools.combinations(variables, k):
            probs[frozenset(combo)] = Fraction(1, 2 ** k)
    spec = MarginalSpec.from_prob_all_plus(variables, probs)
    system = build_system([spec])
    assert len(system.masks) == 16
    i = system.masks.index(subset_mask((V.A11,)))
    assert system.rhs[i] == HALF
    assert lp._structure(system.masks).model.a_eq[i].sum() == 128


def test_build_system_deduplicates_shared_singletons():
    specs = outcome_marginals(QUARTER) + connection_marginals(EPS0)
    system = build_system(specs)
    # 1 empty + 8 singletons + 4 outcome pairs + 4 connection pairs
    assert len(system.masks) == 17
    n_pairs = sum(1 for mask in system.masks if mask.bit_count() == 2)
    assert n_pairs == 8


def test_build_system_conflict_detection():
    a = outcome_marginals(QUARTER)[0]
    b = outcome_marginals(PR_BOX)[0]
    with pytest.raises(ConflictingMarginalsError):
        build_system([a, b])


# -- build_system against the frozenset-keyed row merge it replaced ---------------


def reference_system(specs):
    """The rows by frozenset subset: each spec's Pr[all of S = +1] by size and
    then in combinations order, merged first come first kept, sorted by
    (size, variables in canonical order), and only then turned into masks."""
    rows = {frozenset(): Scalar(1)}
    for spec in specs:
        k = len(spec.variables)
        for size in range(k + 1):
            for combo in itertools.combinations(range(k), size):
                bits = sum(1 << (k - 1 - j) for j in combo)
                subset = frozenset(spec.variables[j] for j in combo)
                value = sum(
                    (t for i, t in enumerate(spec.table) if i & bits == bits), Scalar(0)
                )
                seen = rows.setdefault(subset, value)
                if seen != value:
                    name = ",".join(v.name for v in sorted(subset))
                    raise ConflictingMarginalsError(
                        f"marginal Pr[{name or '()'} = +1] assigned both {seen} and {value}"
                    )
    order = sorted(rows, key=lambda s: (len(s), sorted(s)))
    return tuple(subset_mask(s) for s in order), [str(rows[s]) for s in order]


_weights = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def spec_lists(draw):
    """One to four specs on one to four variables each, in any order, over Q
    or Q[sqrt2].  Each is a marginal of one of two joint distributions on the
    same four variables, so subsets are often shared, and specs from the two
    sources often conflict on them."""
    pool = draw(st.permutations(list(V)))[:4]
    sources = []
    for _ in range(2):
        sqrt2 = draw(st.booleans())
        weights = [
            Scalar.quadratic(draw(_weights), draw(_weights) if sqrt2 else 0)
            for _ in range(16)
        ]
        total = sum(weights[1:], weights[0])
        if total == 0:
            weights, total = [Scalar(1)] * 16, Scalar(16)
        sources.append(MarginalSpec(pool, [w / total for w in weights]))
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        source = sources[draw(st.sampled_from([0, 0, 1]))]
        variables = draw(st.permutations(pool))[:draw(st.integers(1, 4))]
        specs.append(MarginalSpec.from_prob_all_plus(variables, {
            frozenset(s): source.prob_all_plus(s)
            for k in range(len(variables) + 1)
            for s in itertools.combinations(variables, k)
        }))
    return specs


def _rows_or_conflict(build):
    try:
        return build()
    except ConflictingMarginalsError as exc:
        return str(exc)


@given(spec_lists())
@settings(max_examples=200, deadline=None)
def test_build_system_matches_frozenset_reference(specs):
    def rows():
        system = build_system(specs)
        return system.masks, [str(v) for v in system.rhs]

    assert _rows_or_conflict(rows) == _rows_or_conflict(lambda: reference_system(specs))


def test_feasible_compatible_pair():
    res = feasible(outcome_marginals(QUARTER) + connection_marginals(EPS0))
    assert res.feasible
    w = res.witness
    assert w.outcome_vector() == QUARTER
    assert w.connection_vector() == EPS0


def test_infeasible_pr_box_with_null_connection():
    res = feasible(outcome_marginals(PR_BOX) + connection_marginals(EPS0))
    assert not res.feasible
    assert res.witness is None


def test_singletons_admit_every_outcome_vector_via_m1():
    singles = single_marginals()
    rng = random.Random(5)
    for _ in range(25):
        p = random_p(rng)
        res = feasible(singles, p=p)
        assert res.feasible
        assert res.witness.outcome_vector() == p


def test_m1_rows_conflict_with_outcome_specs():
    specs = outcome_marginals(QUARTER)
    with pytest.raises(ConflictingMarginalsError):
        feasible(specs, p=PR_BOX)
    # identical values dedup instead of conflicting
    assert feasible(specs, p=QUARTER).feasible


def test_hybrid_and_exact_engines_agree():
    rng = random.Random(13)
    pairs = [(random_p(rng, denominator=16), random_eps(rng, denominator=16)) for _ in range(30)]
    # every random pair above is compatible, so add two that are not
    pairs += [(PR_BOX, EPS0), (PR_BOX, EPS_T)]
    verdicts = set()
    for p, eps in pairs:
        specs = outcome_marginals(p) + connection_marginals(eps)
        want = compatible(p, eps)
        assert feasible(specs).feasible == bland_feasible(specs) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_witness_reproduces_every_row_exactly():
    rng = random.Random(21)
    checked = 0
    while checked < 10:
        p = random_p(rng)
        eps = random_eps(rng)
        specs = outcome_marginals(p) + connection_marginals(eps)
        res = feasible(specs)
        if not res.feasible:
            continue
        checked += 1
        system = build_system(specs)
        for mask, want in zip(system.masks, system.rhs):
            assert res.witness.all_plus[mask] == want


def test_monotonicity_adding_specs_shrinks_feasible_set():
    rng = random.Random(31)
    base = connection_marginals(ConnectionVector(*([Fraction(1, 8)] * 4)))
    extra = base + [
        MarginalSpec.from_prob_all_plus(
            (V.A11, V.A22),
            {
                frozenset((V.A11,)): HALF,
                frozenset((V.A22,)): HALF,
                frozenset((V.A11, V.A22)): HALF,
            },
        )
    ]
    for _ in range(20):
        p = random_p(rng, denominator=8)
        if feasible(extra, p=p).feasible:
            assert feasible(base, p=p).feasible


def test_optimize_chsh_face():
    assert optimize(connection_marginals(EPS0), (1, 1, 1, -2)) == Scalar(1)


def test_optimize_tsirelson_value_exact():
    value = optimize(connection_marginals(EPS_T), (1, 1, 1, -2))
    assert value == Scalar.quadratic(HALF, HALF)  # (1+sqrt2)/2


def test_optimize_zero_direction():
    assert optimize(connection_marginals(EPS0), (0, 0, 0, 0)) == Scalar(0)


@pytest.mark.parametrize("direction", [(1, 1, 1), (1, 1, 1, -2, 0)], ids=["3", "5"])
def test_optimize_refuses_a_direction_without_4_components(direction):
    with pytest.raises(ValueError, match="direction needs exactly 4 components"):
        optimize(connection_marginals(EPS0), direction)


def test_optimize_vertex_cross_check():
    # the classical face value 1 is attained at p = (1/2, 1/2, 0, 0)
    vertex = OutcomeVector(HALF, HALF, 0, 0)
    value = sum(
        d * c.a for d, c in zip((1, 1, 1, -2), vertex.components)
    )
    assert value == 1
    assert feasible(connection_marginals(EPS0), p=vertex).feasible


def test_optimize_infeasible_system():
    align = MarginalSpec.from_prob_all_plus(
        (V.A11, V.B11),
        {
            frozenset((V.A11,)): HALF,
            frozenset((V.B11,)): HALF,
            frozenset((V.A11, V.B11)): HALF,
        },
    )
    anti = MarginalSpec.from_prob_all_plus(
        (V.A11, V.B11),
        {
            frozenset((V.A11,)): HALF,
            frozenset((V.B11,)): HALF,
            frozenset((V.A11, V.B11)): Fraction(0),
        },
    )
    with pytest.raises(ConflictingMarginalsError):
        optimize([align, anti], (1, 0, 0, 0))

    # row-consistent yet unsatisfiable: an odd cycle of perfect
    # anti-correlations on three variables
    def anti_pair(x, y):
        return MarginalSpec.from_prob_all_plus(
            (x, y),
            {
                frozenset((x,)): HALF,
                frozenset((y,)): HALF,
                frozenset((x, y)): Fraction(0),
            },
        )

    cycle = [
        anti_pair(V.A11, V.B11),
        anti_pair(V.B11, V.A12),
        anti_pair(V.A11, V.A12),
    ]
    with pytest.raises(InfeasibleSystemError):
        optimize(cycle, (1, 0, 0, 0))
    assert not feasible(cycle).feasible


def test_outcome_pairs_constant():
    assert [tuple(v.name for v in pair) for pair in OUTCOME_PAIRS] == [
        ("A11", "B11"), ("A12", "B12"), ("A21", "B21"), ("A22", "B22"),
    ]


def test_hairline_feasibility_margins_stay_exact():
    """Instances a whisker away from the feasibility boundary must still be
    decided exactly: with eps = (e,e,e,e) and p = (1/2, 1/2, 1/2, x) the
    boundary sits at x* = 1/2 - 4e, and the margin equals |x - x*|."""
    e = Fraction(1, 64)
    x_star = HALF - 4 * e
    eps = ConnectionVector(e, e, e, e)
    deltas = [Fraction(0)]
    deltas += [Fraction(1, 2 ** k) for k in (6, 12, 20, 24)]
    deltas += [Fraction(1, 3 ** 10)]
    for delta in deltas:
        for x in (x_star - delta, x_star + delta):
            p = OutcomeVector(HALF, HALF, HALF, x)
            specs = outcome_marginals(p) + connection_marginals(eps)
            want = compatible(p, eps)
            assert want == (delta == 0 or x > x_star)
            res = feasible(specs)
            assert res.feasible == want, (x, delta, res.engine)
            if res.feasible:
                assert res.witness.outcome_vector() == p


def test_lp_rejects_approximate_inputs():
    p = OutcomeVector(0.25, 0.25, 0.25, 0.25)
    eps = ConnectionVector(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError, match="exact"):
        feasible(outcome_marginals(p) + connection_marginals(eps))
    with pytest.raises(ValueError, match="exact"):
        optimize(connection_marginals(eps), (1, 1, 1, -2))


def test_sqrt2_rhs_routing(monkeypatch):
    res = feasible(connection_marginals(EPS_T))
    assert res.feasible
    assert res.engine == "certified-float"
    assert res.witness.connection_vector() == EPS_T
    monkeypatch.setattr(lp, "linprog", corrupted_linprog("x"))
    forced = feasible(connection_marginals(EPS_T))
    assert forced.engine == "exact-simplex"
    assert forced.witness.connection_vector() == EPS_T


def test_only_the_simplex_fallback_reaches_lp_solve_lp(monkeypatch):
    """The benchmark times the exact simplex by rebinding ``lp.solve_lp``,
    so the name must stay in ``lp`` and the support elimination, which
    shares the simplex's row update, must never go through it.  Only an
    answer that fails its certificate reaches it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return simplex.solve_lp(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    specs = outcome_marginals(QUARTER) + connection_marginals(random_eps(random.Random(3)))
    assert feasible(specs).engine == "certified-float"
    assert optimize(connection_marginals(EPS_T), (1, 1, 1, -2)) == Scalar.quadratic(HALF, HALF)
    assert calls == []
    monkeypatch.setattr(lp, "linprog", corrupted_linprog("status"))
    res = feasible(specs)
    assert (res.feasible, res.engine) == (True, "exact-simplex")
    assert len(calls) == 1


# -- certification against the exact simplex as reference ----------------------

SINGLET = OutcomeVector(SINGLET_LOW, SINGLET_LOW, SINGLET_LOW, SINGLET_HIGH)
CHSH_DIRECTIONS = [
    tuple(sign * (-2 if k == i else 1) for k in range(4))
    for i in range(4) for sign in (1, -1)
]
UNIT_DIRECTIONS = [tuple(int(k == i) for k in range(4)) for i in range(4)]


def bland_support(specs, direction):
    """max direction . p over the admitted outcome vectors, by the exact
    simplex alone."""
    system = build_system(specs)
    rows = lp._structure(system.masks).model.a_eq.astype(int).tolist()
    objective = []
    for j in range(256):
        outcome = decode(j)
        objective.append(sum(
            d for d, (a, b) in zip(direction, OUTCOME_PAIRS) if outcome[a] == outcome[b] == 1
        ))
    res = solve_lp(rows, system.rhs, objective=objective)
    return None if res.status == INFEASIBLE else res.objective


def bland_feasible(specs):
    """Whether the specs admit a coupling, by the exact simplex alone."""
    return bland_support(specs, (0, 0, 0, 0)) is not None


def lp_warnings(caplog):
    return [r for r in caplog.records
            if r.name == "epr_couplings.lp" and r.levelno == logging.WARNING]


@pytest.mark.parametrize("eps", [
    EPS0,
    EPS_T,
    ConnectionVector(*([Fraction(1, 8)] * 4)),
    ConnectionVector(Fraction(1, 4), 0, Fraction(3, 16), Fraction(1, 2)),
], ids=["eps0", "eps_t", "eighths", "mixed"])
def test_optimize_matches_exact_simplex(eps, caplog):
    specs = connection_marginals(eps)
    for direction in CHSH_DIRECTIONS + UNIT_DIRECTIONS:
        assert optimize(specs, direction) == bland_support(specs, direction), direction
    assert lp_warnings(caplog) == []  # every value above was certified


def test_optimize_certifies_infeasibility(caplog):
    # the odd anti-correlation cycle of test_optimize_infeasible_system
    cycle = [
        MarginalSpec.from_prob_all_plus(
            (x, y),
            {frozenset((x,)): HALF, frozenset((y,)): HALF, frozenset((x, y)): Fraction(0)},
        )
        for x, y in ((V.A11, V.B11), (V.B11, V.A12), (V.A11, V.A12))
    ]
    with pytest.raises(InfeasibleSystemError):
        optimize(cycle, (1, 0, 0, 0))
    assert bland_support(cycle, (1, 0, 0, 0)) is None
    assert lp_warnings(caplog) == []


def highs_reference(model, b, cost=None, bounds=(0, None)):
    """``scipy.optimize.linprog`` on the same LP as ``lp.linprog(model, b,
    cost)``, with the options the persistent HiGHS model runs."""
    return scipy.optimize.linprog(
        np.zeros(model.a_eq.shape[1]) if cost is None else cost, A_eq=model.a_eq, b_eq=b,
        bounds=bounds, method="highs", options={"presolve": False},
    )


def corrupted_linprog(kind):
    """HiGHS with a wrong answer: support moved to other columns, a
    feasible system reported infeasible with a fake Farkas ray (the
    normalization row, y.b = 1 > 0 but y.A_j = 1 > 0), all duals or the
    whole dual ray zero, a suboptimal vertex reported as optimal (a support
    column of the optimum fixed at 0), a non-optimal status, or status 2
    (infeasible) with no dual ray on the costed model of :func:`optimize`.
    The real answers' simplex iteration counts collect in
    ``fake.iterations``."""
    real = lp.linprog

    def fake(model, b, cost=None):
        res = real(model, b, cost)
        fake.iterations.append(res.nit)
        if kind == "x":
            res.x = np.roll(res.x, 1)
        elif kind == "ray":
            res = lp._Proposal(2, res.nit, None, np.eye(len(b))[0])
        elif kind == "duals":
            res.duals = np.zeros_like(res.duals)
        elif kind == "suboptimal":
            # A degenerate optimum survives losing some support columns, so
            # fix at 0 the first whose loss strictly lowers the maximum.
            for j in np.flatnonzero(np.array(res.x) > 1e-9):
                bounds = [(0, None)] * len(res.x)
                bounds[j] = (0, 0)
                ref = highs_reference(model, b, cost, bounds)
                if ref.status == 0 and ref.fun > cost @ res.x + 1e-6:
                    break
            else:
                raise AssertionError("every support column has a twin optimum")
            res = lp._Proposal(ref.status, ref.nit, ref.x, ref.eqlin.marginals)
        elif kind == "status":
            res.status = 4
        elif kind == "infeasible" and cost is not None:
            res = lp._Proposal(2, res.nit)
        return res

    fake.iterations = []
    return fake


# Each case feeds a corruption to a query whose proof depends on what it
# corrupts: the witness of a feasible system, the Farkas ray of an
# infeasible one, both halves of an optimum.
FALLBACK_CASES = [
    ("rational-feasible", "x", QUARTER, EPS0),
    ("rational-feasible", "ray", QUARTER, EPS0),
    ("rational-feasible", "status", QUARTER, EPS0),
    ("rational-infeasible", "duals", PR_BOX, EPS0),
    ("sqrt2-feasible", "x", SINGLET, EPS_T),
    ("sqrt2-feasible", "ray", SINGLET, EPS_T),
    ("sqrt2-feasible", "status", SINGLET, EPS_T),
    ("sqrt2-infeasible", "duals", PR_BOX, EPS_T),
    ("optimize", "x", None, EPS_T),
    ("optimize", "duals", None, EPS_T),
    ("optimize", "suboptimal", None, EPS_T),
    ("optimize", "status", None, EPS_T),
    ("optimize", "infeasible", None, EPS_T),
]


@pytest.mark.parametrize("label,kind,p,eps", FALLBACK_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in FALLBACK_CASES])
def test_failed_certification_falls_back_with_one_warning(
    label, kind, p, eps, monkeypatch, caplog, tmp_path
):
    runner = CliRunner()
    marg = tmp_path / "marginals.json"
    marg.write_text(json.dumps([marginal_spec_to_json(s) for s in connection_marginals(eps)]))
    if p is None:
        args = ["support", "--marginals", str(marg), "--direction", "1,1,1,-2"]
        want = bland_support(connection_marginals(eps), (1, 1, 1, -2))
    else:
        args = ["feasible", "--marginals", str(marg),
                "--p", ",".join(str(c) for c in p.components)]
        want = bland_feasible(outcome_marginals(p) + connection_marginals(eps))
    clean = runner.invoke(cli_main, args, catch_exceptions=False)
    assert lp_warnings(caplog) == []

    fake = corrupted_linprog(kind)
    monkeypatch.setattr(lp, "linprog", fake)
    if p is None:
        assert optimize(connection_marginals(eps), (1, 1, 1, -2)) == want
    else:
        got = feasible(outcome_marginals(p) + connection_marginals(eps))
        assert (got.feasible, got.engine) == (want, "exact-simplex")
        if got.feasible:
            assert got.witness.outcome_vector() == p
            assert got.witness.connection_vector() == eps
    warnings = lp_warnings(caplog)
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "on the folded model" in message  # every case here folds
    assert all(str(v) in message for v in build_system(connection_marginals(eps)).rhs)
    if kind == "status":
        assert f"HiGHS status 4 after {fake.iterations[0]} simplex iterations" in message
        assert fake.iterations[0] > 0
    if kind in ("ray", "infeasible"):
        assert "HiGHS reported infeasible, but its dual ray proves nothing" in message

    caplog.clear()
    dirty = runner.invoke(cli_main, args, catch_exceptions=False)
    assert len(lp_warnings(caplog)) == 1
    assert dirty.exit_code == clean.exit_code
    if p is None:
        assert dirty.stdout == clean.stdout
    else:
        payload = json.loads(clean.stdout)
        payload["engine"] = "exact-simplex"
        assert json.loads(dirty.stdout) == payload


def exact(point):
    """A scaled point ``(unit, cols, weights)`` as its exact nonzero
    weights ``{col: Scalar}``, so that points over different units compare
    by value; None stays None."""
    if point is None:
        return None
    unit, cols, weights = point
    return {j: v for j, w in zip(cols, weights) if (v := quotient(w, unit))}


# -- integer elimination against the Fraction Gauss-Jordan it replaced ---------


def eliminate_on(structure, rhs, cols):
    """``simplex.eliminate`` on the columns ``cols`` of ``structure``'s
    incidence matrix, as :func:`lp._witness_on` runs it: the scaled point
    on those columns, or None."""
    x = simplex.eliminate(structure.incidence.take(cols, axis=1).tolist(), rhs)
    if x is None:
        return None
    unit, basic, weights = x
    return unit, [cols[c] for c in basic], weights


def fraction_solve_on_support(masks, rhs, cols):
    """Gauss-Jordan on Fraction rows, then a Fraction check that the point
    is nonnegative and reproduces every row: the reference for
    ``simplex.eliminate``."""
    m = len(masks)
    n = len(cols)
    aug = []
    for i, mask in enumerate(masks):
        row = [Fraction(1) if (c & mask) == mask else Fraction(0) for c in cols]
        row.extend(column[i] for column in rhs)
        aug.append(row)
    piv = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        if pv != 1:
            aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
        if r == m:
            break
    if any(any(aug[i][n:]) for i in range(r, m)):
        return None
    x = {cols[c]: tuple(aug[i][n:]) for i, c in enumerate(piv) if any(aug[i][n:])}
    if any(Scalar(*parts) < 0 for parts in x.values()):
        return None
    for t, column in enumerate(rhs):
        for mask, want in zip(masks, column):
            if sum((p[t] for j, p in x.items() if (j & mask) == mask), Fraction(0)) != want:
                return None
    return x


ORACLE_MASKS = lp._structure(
    build_system(outcome_marginals(QUARTER) + connection_marginals(EPS0)).masks
)[0]
FOUR_VARIABLES = (V.A11, V.A12, V.A21, V.A22)
FOUR_VARIABLE_MASKS = lp._structure(build_system([
    MarginalSpec.from_prob_all_plus(FOUR_VARIABLES, {
        frozenset(s): Fraction(1, 2 ** len(s))
        for k in range(5) for s in itertools.combinations(FOUR_VARIABLES, k)
    })
]).masks)[0]


@st.composite
def support_systems(draw):
    """A row structure, a column subset (often longer than the rank, so
    rank-deficient) and one rhs column over Q or two over Q[sqrt2]: M q for
    a point q on some of the columns (a few weights negative), that plus a
    nudge to one row (inconsistent), or arbitrary."""
    masks = draw(st.sampled_from([ORACLE_MASKS, FOUR_VARIABLE_MASKS]))
    cols = draw(st.lists(st.integers(0, 255), min_size=1, max_size=24, unique=True))
    fields = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["consistent", "inconsistent", "arbitrary"]))
    if kind == "arbitrary":
        value = st.fractions(min_value=-1, max_value=1, max_denominator=64)
        rhs = [[draw(value) for _ in masks] for _ in range(fields)]
        return masks, rhs, cols
    weight = st.fractions(min_value=Fraction(-1, 8), max_value=1, max_denominator=64)
    point = {
        c: [draw(weight) for _ in range(fields)]
        for c in draw(st.lists(st.sampled_from(cols), min_size=1, unique=True))
    }
    rhs = [
        [sum((w[t] for c, w in point.items() if (c & mask) == mask), Fraction(0))
         for mask in masks]
        for t in range(fields)
    ]
    if kind == "inconsistent":
        row = draw(st.integers(0, len(masks) - 1))
        rhs[-1][row] += Fraction(1, 97)
    return masks, rhs, cols


@settings(max_examples=300, deadline=None)
@given(support_systems())
def test_integer_elimination_matches_fraction_gauss_jordan(system):
    masks, rhs, cols = system
    want = fraction_solve_on_support(masks, rhs, cols)
    rhs_scaled = integers([Scalar(*parts) for parts in zip(*rhs)])
    structure = lp._structure(masks)
    got = eliminate_on(structure, rhs_scaled, cols)
    # elimination leaves the proof (x >= 0 and every row) to its caller
    if got is not None and not lp._is_witness(structure.incidence, rhs_scaled, got):
        got = None
    assert exact(got) == (None if want is None else {j: Scalar(*p) for j, p in want.items()})


@pytest.mark.parametrize("b, proves", [
    (Scalar(1, 1), True),
    (Scalar(1, -1), False),
    (Scalar(1), False),
], ids=["1+sqrt2", "1-sqrt2", "zero-y.b"])
def test_farkas_decides_y_dot_b_in_q_sqrt2(b, proves):
    """Rows q = 1 and 0 = b, duals (-1, 1): y.b = b - 1 proves infeasibility
    only when it is strictly positive, a sign only b's sqrt(2) part decides
    (the flipped duals -y price the column positive)."""
    assert lp._farkas(np.array([[1], [0]]), integers([Scalar(1), b])[1], [-1, 1]) is proves


@pytest.mark.parametrize("x, valid", [
    ({0: Scalar(-1, 1), 1: Scalar(2, -1)}, True),  # sqrt2 - 1 and 2 - sqrt2
    ({0: Scalar(1, -1), 1: Scalar(0, 1)}, False),  # 1 - sqrt2 < 0
    ({0: Scalar(1), 1: Scalar(0, 1)}, False),  # sums to 1 + sqrt2
], ids=["nonnegative", "negative-weight", "wrong-row-sum"])
def test_is_witness_decides_in_q_sqrt2(x, valid):
    """The one normalization row q0 + q1 = 1: signs and the row sum depend
    on the sqrt(2) parts, which a check on the rational parts misses."""
    unit, weights = integers(x.values())
    point = (unit, list(x), weights)
    assert lp._is_witness(lp._structure((0,)).incidence, integers([Scalar(1)]), point) is valid


# -- the incidence products against the per-column loops they replaced ---------

ORACLE = lp._structure(ORACLE_MASKS)
#: Per column of the oracle structure's M, its rows: what the loops walk.
ORACLE_COL_ROWS = tuple(tuple(np.flatnonzero(column).tolist()) for column in ORACLE.incidence.T)


def loop_row_sums(col_rows, m, cols, weights):
    """M x on ``m`` rows, each weight added into its column's rows."""
    sums = [0] * m
    for j, w in zip(cols, weights):
        for i in col_rows[j]:
            sums[i] += w
    return sums


def loop_is_witness(col_rows, rhs, x):
    """``lp._is_witness`` as each weight added into its column's rows in
    Python ints."""
    unit, scaled = rhs
    x_unit, cols, weights = x
    if any(w < 0 for w in weights):
        return False
    sums = loop_row_sums(col_rows, len(scaled), cols, weights)
    return all(unit * total == x_unit * want for total, want in zip(sums, scaled))


def loop_farkas(col_rows, b, y):
    """``lp._farkas`` as one Python sum of y over each column's rows."""
    yb = sum(yi * bi for yi, bi in zip(y, b))
    flip = 1 if yb > 0 else -1 if yb < 0 else 0
    return flip != 0 and all(flip * sum(map(y.__getitem__, rows)) <= 0 for rows in col_rows)


def loop_dual_bound(col_rows, y, sums):
    """``lp._dual_bound`` as one Python sum of y over each column's rows,
    compared with the column's subset sum."""
    c = [sums[s] for s in lp._PAIR_PATTERNS.tolist()]
    for j, rows in enumerate(col_rows):
        if sum(map(y.__getitem__, rows)) < c[j]:
            raise lp._Uncertified(f"duals violate y.A_j >= c_j at column {j}")


def outcome(check, *args):
    """What ``check`` returns, or the message of the _Uncertified it raises."""
    try:
        return check(*args)
    except lp._Uncertified as exc:
        return str(exc)


def boundary_vectors(rng, n, terms):
    """Seeded length-``n`` int vectors whose largest magnitude is one under,
    at and one over ``(2**63 - 1) // terms``, the largest that
    ``lp._vector`` keeps in int64 for ``terms`` terms: all of it, all of its
    negative, and mixed signs."""
    limit = (2 ** 63 - 1) // terms
    for top in (limit - 1, limit, limit + 1):
        mixed = [rng.choice((1, -1)) * rng.randint(0, top) for _ in range(n)]
        mixed[rng.randrange(n)] = rng.choice((1, -1)) * top
        yield from ([top] * n, [-top] * n, mixed)


def test_vector_is_int64_exactly_while_its_sums_fit():
    """Both dtypes run on the boundary vectors below: int64 up to the
    limit, Python ints one past it."""
    for terms in (17, 18, 40, 256):
        limit = (2 ** 63 - 1) // terms
        assert lp._vector([limit, -limit], terms).dtype == np.int64
        assert lp._vector([-limit - 1, 0], terms).dtype == object
        assert lp._vector([limit + 1], terms).tolist() == [limit + 1]


def test_is_witness_product_equals_the_column_loop():
    """Points on all 256 columns and on 40, over Q and over Q[sqrt2] with
    parts of opposite sign, against the exact row sums and a row nudged by
    one, at both units."""
    rng = random.Random(25)
    m = len(ORACLE_MASKS)
    verdicts = set()
    for n in (256, 40):
        cols = sorted(rng.sample(range(256), n))
        for a in boundary_vectors(rng, n, n):
            # |b| <= 2|a|/3 < |a|/sqrt2 keeps each weight's sign that of a;
            # the last weight's b = -a makes it negative when a > 0.
            b = [-(1 if v > 0 else -1) * rng.randint(0, abs(v) * 2 // 3) for v in a]
            for weights in (a, list(map(ZSqrt2, a, b)), list(map(ZSqrt2, a, b[:-1] + [-a[-1]]))):
                sums = loop_row_sums(ORACLE_COL_ROWS, m, cols, weights)
                nudged = list(sums)
                nudged[rng.randrange(m)] += 1
                for unit, scaled in ((1, sums), (1, nudged), (3, [3 * v for v in sums])):
                    x = (1, cols, weights)
                    got = lp._is_witness(ORACLE.incidence, (unit, scaled), x)
                    assert got is loop_is_witness(ORACLE_COL_ROWS, (unit, scaled), x)
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_farkas_product_equals_the_column_loop():
    """Duals at the int64 boundary against right-hand sides of either sign,
    over Q and over Q[sqrt2]."""
    rng = random.Random(26)
    m = len(ORACLE_MASKS)
    verdicts = set()
    for y in boundary_vectors(rng, m, m):
        for b in (
            [1] * m,
            [-1] * m,
            [rng.randint(-9, 9) for _ in range(m)],
            [ZSqrt2(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(m)],
        ):
            got = lp._farkas(ORACLE.incidence, b, y)
            assert got is loop_farkas(ORACLE_COL_ROWS, b, y), (y, b)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_dual_bound_product_equals_the_column_loop():
    """Duals and subset sums at the int64 boundary, the sums negated, sums
    tight on one column of each pattern, and those sums one over: the
    product raises, naming the same column, exactly when the loop does."""
    rng = random.Random(27)
    m = len(ORACLE_MASKS)
    patterns = lp._PAIR_PATTERNS.tolist()
    outcomes = set()
    for v in boundary_vectors(rng, m + 16, m + 1):
        y, sums = v[:m], v[m:]
        totals = [sum(map(y.__getitem__, rows)) for rows in ORACLE_COL_ROWS]
        tight = [min(t for t, s in zip(totals, patterns) if s == k) for k in range(16)]
        for case in (sums, [-s for s in sums], tight, [t + 1 for t in tight]):
            got = outcome(lp._dual_bound, ORACLE.incidence, y, case)
            assert got == outcome(loop_dual_bound, ORACLE_COL_ROWS, y, case)
            outcomes.add("raised" if isinstance(got, str) else "bounded")
    assert outcomes == {"raised", "bounded"}


def lattice_pairs():
    """Seeded lattice (p, eps) pairs plus pairs with each s0 = 1 connection
    vector of the E0 family."""
    rng = random.Random(2718)
    pairs = [(random_outcome_vector(rng), random_connection_vector(rng)) for _ in range(200)]
    pairs += [(random_outcome_vector(rng), eps) for eps in enumerate_E0() for _ in range(12)]
    return pairs


def test_presolve_free_highs_never_falls_back(caplog):
    """Every seeded lattice pair and every s0 = 1 connection vector is
    certified from the HiGHS answer; none falls back to the exact simplex."""
    verdicts = set()
    for p, eps in lattice_pairs():
        res = feasible(outcome_marginals(p) + connection_marginals(eps))
        assert res.engine == "certified-float", (p, eps)
        assert res.feasible == compatible(p, eps), (p, eps)
        verdicts.add(res.feasible)
    assert verdicts == {True, False}  # witnesses and Farkas rays both certified
    assert lp_warnings(caplog) == []


def near_face_pairs(n, side):
    """Lattice outcome vectors (seed 5) with ``eps`` realizing ``(A, A/2)``,
    ``A = 3/2 - s1(p) + side / n``: ``s0(eps) + s1(p) = 3/2 + side / n``,
    just inside Lemma 1's face for ``side = -1`` and just outside for +1."""
    rng = random.Random(5)
    for _ in range(40):
        p = random_outcome_vector(rng)
        a = Fraction(3, 2) - s_pair(CorrelationQuad.from_outcomes(p)).s1 + Fraction(side, n)
        if 0 <= a <= 1:
            yield p, realize_s_pair(SPair(a, a / 2), "even").to_connection_vector()


@pytest.mark.parametrize("n", [10**9, 10**12], ids=["1e9", "1e12"])
def test_near_face_points_are_certified_inside(n, caplog):
    """Inside the face, HiGHS's basic weights of about 1/n are positive, so
    the witness is eliminated on them and proven with no fallback.  Outside
    it, HiGHS's rounded floats find the system feasible, no witness lies on
    its support, and the exact simplex decides; only the verdict is checked
    there."""
    inside = list(near_face_pairs(n, -1))
    assert len(inside) > 10
    for p, eps in inside:
        res = feasible(outcome_marginals(p) + connection_marginals(eps))
        assert (res.feasible, res.engine) == (True, "certified-float"), (p, eps)
        assert compatible(p, eps)
    assert lp_warnings(caplog) == []
    for p, eps in near_face_pairs(n, 1):
        assert not feasible(outcome_marginals(p) + connection_marginals(eps)).feasible
        assert not compatible(p, eps)


def recorded_simplex_rows(monkeypatch):
    """The row count of every ``lp.solve_lp`` call, for the rest of the test."""
    rows = []

    def recorded(matrix, rhs, costs=None):
        rows.append(len(matrix))
        return simplex.solve_lp(matrix, rhs, costs)

    monkeypatch.setattr(lp, "solve_lp", recorded)
    return rows


@pytest.mark.parametrize("n,sides", [(10**9, (1,)), (10**12, (1,)), (10**20, (-1, 1))],
                         ids=["1e9", "1e12", "1e20"])
def test_near_face_fallbacks_solve_the_folded_model(n, sides, monkeypatch, caplog):
    """Outside the face, HiGHS's rounded floats find the system feasible
    with no witness on its support, and at N = 1e20 its float rhs cannot
    see 1/N on either side.  There the exact simplex solves the 9 folded
    rows HiGHS solved, never the 17 full ones, and its answer is proven on the full rows: every verdict equals
    ``compatible``, every witness reproduces its inputs, and each query
    logs one WARNING naming the folded model."""
    rows = recorded_simplex_rows(monkeypatch)
    points = [point for side in sides for point in near_face_pairs(n, side)]
    assert len(points) > 10
    for p, eps in points:
        caplog.clear()
        res = feasible(outcome_marginals(p) + connection_marginals(eps))
        assert (res.feasible, res.engine) == (compatible(p, eps), "exact-simplex"), (p, eps)
        if res.feasible:
            assert res.witness.outcome_vector() == p
            assert res.witness.connection_vector() == eps
        [warning] = lp_warnings(caplog)
        assert "HiGHS answer on the folded model not certified" in warning.getMessage()
    assert rows == [9] * len(points)


def planted_solve_lp(kind):
    """``simplex.solve_lp`` with a wrong answer: the first witness weight
    moved to a column with another row pattern, INFEASIBLE with the
    normalization row as its ray (y.b = 1 > 0 but y.A_j = 1 > 0), or an
    optimum's duals doubled (so y.b is twice the optimum)."""

    def planted(rows, rhs, costs=None):
        res = simplex.solve_lp(rows, rhs, costs)
        if kind == "moved":
            unit, cols, weights = res.x
            columns = list(zip(*rows))
            target = next(j for j, column in enumerate(columns)
                          if column != columns[cols[0]] and j not in cols)
            res = res._replace(x=(unit, [target, *cols[1:]], weights))
        elif kind == "infeasible":
            res = simplex.LPResult(INFEASIBLE, y=(1, [1] + [0] * (len(rows) - 1)))
        elif kind == "duals":
            k, y = res.y
            res = res._replace(y=(k, [2 * v for v in y]))
        return res

    return planted


#: Queries the fallback decides on the folded model and on the full one,
#: with the rows the exact simplex solves: an oracle system and the
#: connection rows over Q[sqrt2] (folded), singletons other than 1/2 and the
#: three-variable spec CI feeds ``support`` (full).
PLANTED_QUERIES = {
    "folded-feasible": (9, lambda: feasible(outcome_marginals(QUARTER)
                                            + connection_marginals(EPS0))),
    "folded-optimize": (5, lambda: optimize(connection_marginals(EPS_T), (1, 1, 1, -2))),
    "quarters-feasible": (17, lambda: feasible(QUARTER_PAIRS)),
    "quarters-optimize": (17, lambda: optimize(QUARTER_PAIRS, (1, 1, 1, -2))),
    "three-variable-feasible": (8, lambda: feasible(marginal_specs_from_json(OUT_OF_ORDER))),
    "three-variable-optimize": (8, lambda: optimize(marginal_specs_from_json(OUT_OF_ORDER),
                                                    (1, 1, 1, -2))),
}
PLANTED_CASES = [(kind, name) for kind in ("moved", "infeasible", "duals")
                 for name in PLANTED_QUERIES if kind != "duals" or name.endswith("optimize")]


@pytest.mark.parametrize("kind,name", PLANTED_CASES, ids=[f"{k}-{n}" for k, n in PLANTED_CASES])
def test_a_wrong_exact_simplex_answer_raises(kind, name, monkeypatch):
    """With HiGHS failing, the exact simplex proposes on the rows HiGHS
    solved, and its answer is proven as HiGHS's is: a planted wrong
    witness, Farkas ray or dual bound raises AssertionError, on folded and
    full models alike, and is never returned."""
    solved_rows, query = PLANTED_QUERIES[name]
    monkeypatch.setattr(lp, "linprog", corrupted_linprog("status"))
    rows = recorded_simplex_rows(monkeypatch)
    query()
    assert rows == [solved_rows]
    monkeypatch.setattr(lp, "solve_lp", planted_solve_lp(kind))
    with pytest.raises(AssertionError, match="exact simplex answer"):
        query()


#: The 8-cycle of pair marginals: outcome and connection pairs alternate.
CYCLE = (V.A11, V.B11, V.B21, V.A21, V.A22, V.B22, V.B12, V.A12)


def mapped_spec(spec, image, flipped):
    """``spec`` on the variables ``image`` names, with the sign of
    ``flipped`` reversed: its bit toggled in every table index."""
    k = len(spec.variables)
    toggle = sum(1 << (k - 1 - j) for j, v in enumerate(spec.variables) if v == flipped)
    return MarginalSpec([image[v] for v in spec.variables],
                        [spec.table[i ^ toggle] for i in range(len(spec.table))])


def test_cycle_automorphisms_keep_verdicts_and_witnesses(caplog):
    """Each of the 16 rotations and reflections of the cycle, alone and
    with one variable flipped, maps ten compatible and ten incompatible
    seeded lattice systems to systems with the same verdict that still
    fold; every mapped system is certified and its witness reproduces every
    mapped spec."""
    rng = random.Random(16)
    counts = {True: 0, False: 0}
    while min(counts.values()) < 10:
        p, eps = random_outcome_vector(rng), random_connection_vector(rng)
        want = compatible(p, eps)
        if counts[want] == 10:
            continue
        counts[want] += 1
        specs = outcome_marginals(p) + connection_marginals(eps)
        flipped = rng.choice(CYCLE)
        for shift, step in itertools.product(range(8), (1, -1)):
            image = {v: CYCLE[(shift + step * i) % 8] for i, v in enumerate(CYCLE)}
            for flip in (None, flipped):
                mapped = [mapped_spec(spec, image, flip) for spec in specs]
                system = build_system(mapped)
                fold = lp._structure(system.masks).fold
                assert fold is not None and fold.applies(integers(system.rhs))
                res = feasible(mapped)
                assert (res.feasible, res.engine) == (want, "certified-float")
                if res.feasible:
                    witness = res.witness
                    for spec in mapped:
                        for size in range(3):
                            for subset in itertools.combinations(spec.variables, size):
                                assert witness.prob_all_plus(subset) == spec.prob_all_plus(subset)
    assert lp_warnings(caplog) == []


# -- the proven primal: HiGHS's point, rationalized, against elimination -----------


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda n, d, e: n / d + e, st.integers(-10**6, 10**6),
              st.integers(1, 10**5), st.sampled_from([0.0, 1e-15, -3e-16, 1e-9])),
    # Dyadic floats k / 2**j: their own ratio up to 2**24, rounded beyond it.
    st.builds(lambda k, j: k / 2**j, st.integers(-10**12, 10**12), st.integers(0, 40)),
))
@example(1 / 2**24)
@example(3 / 2**25)
@example(-(2**24 + 1) / 2**25)
def test_rationalize_is_limit_denominator(v):
    unit, (n,) = lp._rationalize([v])
    assert Fraction(n, unit) == Fraction(v).limit_denominator(1 << 24)


def test_rationalize_refuses_non_finite_values():
    with pytest.raises(lp._Uncertified, match="non-finite"):
        lp._rationalize([0.5, float("inf")])


def recorded_witnesses(monkeypatch):
    """Record every ``lp._witness_on`` call as ``(structure, rhs, cols,
    proof, x, rationalized)``, ``rationalized`` true when it rationalized
    HiGHS's values, and the rows of every elimination, for the rest of the
    test."""
    calls, eliminations, rationalized = [], [], []
    witness_on, eliminate, rationalize = lp._witness_on, lp.eliminate, lp._rationalize

    def recorded(structure, rhs, proposal, proof):
        before = len(rationalized)
        x = witness_on(structure, rhs, proposal, proof)
        cols = np.flatnonzero(np.array(proposal[: structure.incidence.shape[1]]) > 0).tolist()
        calls.append((structure, rhs, cols, proof, x, len(rationalized) > before))
        return x

    def counted(values):
        rationalized.append(values)
        return rationalize(values)

    def eliminated(rows, rhs):
        eliminations.append(rows)
        return eliminate(rows, rhs)

    monkeypatch.setattr(lp, "_witness_on", recorded)
    monkeypatch.setattr(lp, "eliminate", eliminated)
    monkeypatch.setattr(lp, "_rationalize", counted)
    return calls, eliminations


def test_proven_primal_equals_elimination_on_its_support(monkeypatch, caplog):
    """On 600 seeded lattice oracle systems (and the s0 = 1 family) every
    witness is HiGHS's own point, rounded at 12 times the rhs's unit or else
    rationalized, and proven, with no elimination; both routes prove some
    witnesses, and each equals the elimination's on the same support.
    Over Q[sqrt2] (the exact benchmark catalogue) elimination decides."""
    rng = random.Random(1618)
    pairs = [(random_outcome_vector(rng), random_connection_vector(rng)) for _ in range(600)]
    pairs += [(random_outcome_vector(rng), eps) for eps in enumerate_E0() for _ in range(5)]
    calls, eliminations = recorded_witnesses(monkeypatch)
    feasible_count = 0
    for p, eps in pairs:
        res = feasible(outcome_marginals(p) + connection_marginals(eps))
        assert (res.feasible, res.engine) == (compatible(p, eps), "certified-float")
        feasible_count += res.feasible
    assert eliminations == []
    assert len(calls) == feasible_count > 500
    rationalized = sum(call[-1] for call in calls)
    assert 0 < rationalized < feasible_count  # some witnesses rounded, some rationalized
    for structure, rhs, cols, proof, x, _ in calls:
        eliminated = proof(eliminate_on(structure, rhs, cols))
        assert x is not None and exact(x) == exact(eliminated)

    calls.clear()
    eliminations.clear()
    assert feasible(outcome_marginals(SINGLET) + connection_marginals(EPS_T)).feasible
    assert not feasible(outcome_marginals(PR_BOX) + connection_marginals(EPS_T)).feasible
    for direction in ((1, 1, 1, -2), (-2, 1, 1, 1)):
        assert optimize(connection_marginals(EPS_T), direction) == Scalar.quadratic(HALF, HALF)
    assert optimize(connection_marginals(EPS0), (-1, -1, -1, 2)) == HALF
    assert len(eliminations) == 3  # the Q[sqrt2] witnesses; EPS0's is proven
    assert len(calls) == 4
    for structure, rhs, cols, proof, x, _ in calls:
        eliminated = proof(eliminate_on(structure, rhs, cols))
        assert x is not None and exact(x) == exact(eliminated)
    assert lp_warnings(caplog) == []


def perturbed_linprog(kind):
    """HiGHS with its point off: every positive weight raised by 1e-6 (same
    support, wrong values), or the largest weight negated (off the
    support)."""
    real = lp.linprog

    def fake(model, b, cost=None):
        res = real(model, b, cost)
        if res.x is not None:
            x = np.array(res.x)
            if kind == "off":
                x[x > 1e-9] += 1e-6
            else:
                k = int(np.argmax(x[:256]))
                x[k] = -x[k]
            res.x = x
        return res

    return fake


@pytest.mark.parametrize("kind", ["off", "negative"])
def test_perturbed_primal_never_changes_a_verdict(kind, monkeypatch, caplog):
    """A point the proof rejects costs an elimination (same support) or a
    logged fallback (support short of a column), never a wrong verdict or
    witness."""
    rng = random.Random(2024)
    pairs = [(random_outcome_vector(rng), random_connection_vector(rng)) for _ in range(30)]
    pairs += [(QUARTER, EPS0), (PR_BOX, EPS0), (SINGLET, EPS_T)]
    monkeypatch.setattr(lp, "linprog", perturbed_linprog(kind))
    feasible_count = 0
    for p, eps in pairs:
        caplog.clear()
        res = feasible(outcome_marginals(p) + connection_marginals(eps))
        assert res.feasible == compatible(p, eps), (p, eps)
        if res.feasible:
            feasible_count += 1
            assert res.witness.outcome_vector() == p
            assert res.witness.connection_vector() == eps
            if kind == "off":
                assert res.engine == "certified-float"
            else:
                assert res.engine == "exact-simplex"
                assert len(lp_warnings(caplog)) == 1
    assert feasible_count > 20


# -- the flip-folded model ----------------------------------------------------------


def test_highs_takes_each_solved_rows_own_float(monkeypatch, caplog):
    """The float rhs HiGHS receives is, on every solved row, the float of
    that row's exact value: ``float(Fraction(v))`` on a rational row and
    Scalar's own float on a Q[sqrt2] one.  A folded model solves the
    normalization and ``2 Pr[uv]`` per pair row; a full model every row.
    Odd denominators make every rational float a rounding."""
    rng = random.Random(4242)

    def value(rng):
        d = rng.randint(1, 10**6) * 2 + 1
        return Fraction(rng.randint(0, d), 2 * d)

    folded = [outcome_marginals(OutcomeVector(*(value(rng) for _ in range(4))))
              + connection_marginals(ConnectionVector(*(value(rng) for _ in range(4))))
              for _ in range(30)]
    full = [[pair_spec(pair, plus) for pair in OUTCOME_PAIRS + CONNECTION_PAIRS]
            for plus in (value(rng) for _ in range(10))]
    sqrt2 = [outcome_marginals(SINGLET) + connection_marginals(EPS_T),
             [pair_spec(pair, SINGLET_LOW) for pair in OUTCOME_PAIRS]]
    seen = []
    real = lp.linprog

    def recorded(model, b, cost=None):
        seen.append((model.a_eq.shape[0], list(b)))
        return real(model, b, cost)

    monkeypatch.setattr(lp, "linprog", recorded)
    for specs, folds in [(s, True) for s in folded] + [(s, False) for s in full] + [
        (sqrt2[0], True), (sqrt2[1], False),
    ]:
        seen.clear()
        feasible(specs)
        system = build_system(specs)
        fold = lp._structure(system.masks).fold
        rows = fold.rows if folds else range(len(system.masks))
        values = [system.rhs[i] * (2 if folds and k else 1) for k, i in enumerate(rows)]
        want = [float(v.as_fraction()) if v.is_rational else float(v) for v in values]
        assert seen == [(len(want), want)]
        assert any(v.is_rational and Fraction(w) != v.as_fraction()
                   for v, w in zip(values, want)) is (specs not in sqrt2)
    assert lp_warnings(caplog) == []


def highs_rows(monkeypatch):
    """The row count of every model ``lp.linprog`` receives, for the rest of
    the test."""
    rows = []
    real = lp.linprog

    def counted(model, b, cost=None):
        rows.append(model.a_eq.shape[0])
        return real(model, b, cost)

    monkeypatch.setattr(lp, "linprog", counted)
    return rows


def test_folded_answers_equal_the_full_models(monkeypatch, caplog):
    """On the seeded lattice pairs, the s0 = 1 family and the Q[sqrt2]
    singlet and PR box at EPS_T, the 9-row folded model and the 17-row full
    model give the same certified verdicts, and every folded witness is
    flip-symmetric and reproduces both vectors."""
    pairs = lattice_pairs() + [(SINGLET, EPS_T), (PR_BOX, EPS_T)]
    systems = [outcome_marginals(p) + connection_marginals(eps) for p, eps in pairs]
    rows = highs_rows(monkeypatch)
    folded = [feasible(specs) for specs in systems]
    assert rows == [9] * len(pairs)
    rows.clear()
    monkeypatch.setattr(lp._Fold, "applies", lambda fold, rhs: False)
    full = [feasible(specs) for specs in systems]
    assert rows == [17] * len(pairs)
    for (p, eps), got, want in zip(pairs, folded, full):
        assert got.feasible == want.feasible == compatible(p, eps), (p, eps)
        assert got.engine == want.engine == "certified-float"
        if got.feasible:
            table = got.witness.table
            assert all(table[j] == table[255 - j] for j in range(128))
            assert got.witness.outcome_vector() == p
            assert got.witness.connection_vector() == eps
    assert {res.feasible for res in folded} == {True, False}
    assert lp_warnings(caplog) == []


#: The 8 sign/permutation variants of (1, 1, 1, -2) and the 8 +-unit directions.
SUPPORT_DIRECTIONS = CHSH_DIRECTIONS + UNIT_DIRECTIONS + [
    tuple(-d for d in unit) for unit in UNIT_DIRECTIONS
]


def support_answers(systems):
    """``(value, engine)`` of ``lp._solve`` for every system and support
    direction, value None where the system admits no coupling."""
    answers = []
    for specs in systems:
        system = build_system(specs)
        for direction in SUPPORT_DIRECTIONS:
            _, value, engine = lp._solve(system, [Fraction(d) for d in direction])
            answers.append((value, engine))
    return answers


def test_folded_optimize_equals_the_full_models(monkeypatch, caplog):
    """On seeded lattice connections, the s0 = 1 family, EPS_T and oracle
    systems with their outcome rows, ``optimize`` on the folded model (5 or
    9 rows) certifies the same exact support values as on the full model (13
    or 17 rows), infeasible systems included, with no fallback."""
    rng = random.Random(1414)
    systems = [connection_marginals(random_connection_vector(rng)) for _ in range(24)]
    systems += [connection_marginals(eps) for eps in enumerate_E0()]
    systems += [connection_marginals(EPS_T)]
    systems += [outcome_marginals(random_outcome_vector(rng))
                + connection_marginals(random_connection_vector(rng)) for _ in range(8)]
    systems += [outcome_marginals(p) + connection_marginals(eps)
                for p, eps in ((SINGLET, EPS_T), (PR_BOX, EPS_T), (QUARTER, EPS0))]
    rows = highs_rows(monkeypatch)
    folded = support_answers(systems)
    assert set(rows) == {5, 9}
    rows.clear()
    monkeypatch.setattr(lp._Fold, "applies", lambda fold, rhs: False)
    full = support_answers(systems)
    assert set(rows) == {13, 17}
    assert folded == full
    assert {engine for _, engine in folded} == {"certified-float"}
    assert {value is None for value, _ in folded} == {True, False}
    assert Scalar.quadratic(HALF, HALF) in {value for value, _ in folded}
    assert lp_warnings(caplog) == []


def test_fallback_warning_names_the_model_highs_solved(monkeypatch, caplog):
    """The fallback WARNING says whether HiGHS solved the folded or the full
    model."""
    monkeypatch.setattr(lp, "linprog", corrupted_linprog("duals"))
    partial = [pair_spec(pair, HALF) for pair in ((V.A11, V.A12), (V.B11, V.B21))]
    for specs, model in ((connection_marginals(EPS0), "folded"), (partial, "full")):
        caplog.clear()
        assert optimize(specs, (1, 1, 1, -2)) == bland_support(specs, (1, 1, 1, -2))
        [warning] = lp_warnings(caplog)
        assert f"HiGHS answer on the {model} model not certified" in warning.getMessage()


def pair_spec(pair, plus):
    """The pair marginal of two independent variables, each +1 with
    probability ``plus``."""
    minus = 1 - plus
    return MarginalSpec(pair, [minus * minus, minus * plus, plus * minus, plus * plus])


#: Pair marginals of independent variables, each +1 with probability 1/4:
#: singletons other than 1/2, so the 17 rows do not fold.
QUARTER_PAIRS = [pair_spec(pair, Fraction(1, 4)) for pair in OUTCOME_PAIRS + CONNECTION_PAIRS]

#: The three-variable spec, variables out of canonical order, that CI feeds
#: the installed ``support`` command.
OUT_OF_ORDER = [{"variables": ["B22", "A11", "B11"], "prob_all_plus": {
    "": "1", "A11": "1/2", "B11": "1/2", "B22": "1/2", "A11,B11": "1/2",
    "A11,B22": "1/4", "B11,B22": "1/4", "A11,B11,B22": "1/4",
}}]


def test_unfolded_systems_and_optimize_take_the_full_model(monkeypatch, caplog):
    """Singletons other than 1/2, a three-variable row, and an ``optimize``
    over rows that lack an observable variable's singleton keep the full
    model: HiGHS receives all of the system's rows.  ``feasible`` on those
    same rows folds, and so does ``optimize`` on an oracle system."""
    out_of_order = marginal_specs_from_json(OUT_OF_ORDER)
    oracle = outcome_marginals(QUARTER) + connection_marginals(EPS0)
    # Singletons for A11, A12, B11 and B21 only: B12, A21 and A22 are free.
    partial = [pair_spec(pair, HALF) for pair in ((V.A11, V.A12), (V.B11, V.B21))]
    rows = highs_rows(monkeypatch)
    cases = [
        (lambda: feasible(QUARTER_PAIRS).feasible, True, 17),
        (lambda: feasible(out_of_order).feasible, True, len(build_system(out_of_order).masks)),
        (lambda: optimize(out_of_order, (1, 1, 1, -2)), Fraction(5, 2),
         len(build_system(out_of_order).masks)),
        (lambda: optimize(partial, (1, 1, 1, -2)), bland_support(partial, (1, 1, 1, -2)), 7),
        (lambda: feasible(partial).feasible, True, 3),
        (lambda: optimize(oracle, (1, 1, 1, -2)), Fraction(1, 4), 9),
    ]
    for solve, want, highs_rows_seen in cases:
        rows.clear()
        assert solve() == want
        assert rows == [highs_rows_seen]
    assert len(build_system(QUARTER_PAIRS).masks) == len(build_system(oracle).masks) == 17
    assert len(build_system(partial).masks) == 7
    # A pair row whose variables have no singleton rows does not fold either.
    assert lp._structure((0, subset_mask((V.A11, V.B11)))).fold is None
    assert lp_warnings(caplog) == []


# -- the persistent HiGHS models ----------------------------------------------------


def oracle_lp(specs):
    system = build_system(specs)
    return lp._structure(system.masks).model, np.array([float(v) for v in system.rhs])


def support_lp(eps, direction, folded=False):
    """The support LP HiGHS solves: on the full model, column j costs minus
    its pattern's subset sum of ``direction``; folded, the model, rhs and
    cost that ``optimize`` passes."""
    system = build_system(connection_marginals(eps))
    structure = lp._structure(system.masks)
    b = np.array([float(v) for v in system.rhs])
    objective = lp._objective([Fraction(d) for d in direction])
    if folded:
        b = np.array(structure.fold.rhs(b))
        cost = 2 * objective[0], objective[1], lp._AGREE_PATTERNS
        return structure.fold.structure.model, b, lp._cost(objective, cost)
    unit, sums = objective
    return structure.model, b, -np.array([sums[s] / unit for s in lp._PAIR_PATTERNS])


def test_persistent_highs_proposes_exactly_what_linprog_does():
    """Bit-identical status and iteration count on oracle systems (feasible
    and infeasible), on the E0 family and on full and folded support LPs,
    and x and duals wherever the model is feasible, each set solved twice
    in shuffled orders, so a basis or a cost carried from one solve to the
    next would show."""
    rng = random.Random(31)
    lps = [oracle_lp(outcome_marginals(random_outcome_vector(rng))
                     + connection_marginals(random_connection_vector(rng)))
           for _ in range(200)]
    lps += [oracle_lp(outcome_marginals(random_outcome_vector(rng)) + connection_marginals(eps))
            for eps in enumerate_E0()]
    lps += [support_lp(eps, direction, folded)
            for eps in (EPS0, EPS_T) for direction in CHSH_DIRECTIONS + UNIT_DIRECTIONS
            for folded in (False, True)]
    want = [highs_reference(*problem) for problem in lps]
    assert {res.status for res in want} == {0, 2}
    for _ in range(2):
        order = list(range(len(lps)))
        rng.shuffle(order)
        for k in order:
            got = lp.linprog(*lps[k])
            assert got.status == want[k].status, k
            assert got.nit == want[k].nit, k
            if got.status == 0:
                assert np.array_equal(got.x, want[k].x), k
                assert np.array_equal(got.duals, want[k].eqlin.marginals), k


def test_unchanged_row_bounds_are_not_rewritten_and_proposals_stay_linprogs():
    """``linprog`` writes only the row bounds that differ from the ones the
    model holds, and still proposes scipy's answer bit for bit: on a fresh
    model (its zero rows never written), for the same rhs twice, for an rhs
    that differs in one row, for an infeasible one and back, and at zero
    cost right after a costed solve on the same model."""
    def proposes_as_linprog(model, b, cost=None):
        got, want = lp.linprog(model, b, cost), highs_reference(model, b, cost)
        assert (got.status, got.nit) == (want.status, want.nit)
        if got.status == 0:
            assert np.array(got.x).tobytes() == want.x.tobytes()
            assert np.array(got.duals).tobytes() == want.eqlin.marginals.tobytes()
        assert model.bounds == list(b)
        return got.status

    eps = ConnectionVector(*map(Fraction, ("3/8", "3/8", "1/8", "5/16")))
    systems = [oracle_lp(outcome_marginals(OutcomeVector(*map(Fraction, p)))
                         + connection_marginals(eps))
               for p in (("3/8", "0", "7/16", "3/16"), ("3/8", "1/16", "7/16", "3/16"))]
    systems.append(oracle_lp(outcome_marginals(PR_BOX) + connection_marginals(EPS0)))
    (shared, b), (_, b_row), (_, b_none) = systems
    assert 0.0 in b and np.count_nonzero(b != b_row) == 1
    model = lp._Model(shared.a_eq)
    statuses = [proposes_as_linprog(model, rhs) for rhs in (b, b, b_row, b_none, b)]
    assert statuses == [0, 0, 0, 2, 0]
    for eps in (EPS0, ConnectionVector(*map(Fraction, ("1/8", "0", "1/4", "1/2")))):
        for folded in (False, True):
            for direction in CHSH_DIRECTIONS[:2]:
                costed, b, cost = support_lp(eps, direction, folded)
                proposes_as_linprog(costed, b, cost)
                proposes_as_linprog(costed, b)


@pytest.mark.parametrize("folds", [True, False], ids=["folded", "full"])
def test_optimize_leaves_the_model_at_zero_cost(folds, monkeypatch, caplog):
    """``feasible`` and ``optimize`` solve one HiGHS model per row
    structure, and ``optimize`` puts the zero costs back: a witness found
    before an ``optimize`` on the same rows is found again after it, for
    each of the eight CHSH directions in turn."""
    if not folds:
        monkeypatch.setattr(lp._Fold, "applies", lambda fold, rhs: False)
    rows = highs_rows(monkeypatch)
    rng = random.Random(77)
    for eps in [EPS0, EPS_T, *(random_connection_vector(rng) for _ in range(6))]:
        specs = connection_marginals(eps)
        before = feasible(specs)
        assert before.engine == "certified-float"
        for direction in CHSH_DIRECTIONS:
            optimize(specs, direction)
            after = feasible(specs)
            assert exact(after._x) == exact(before._x), (eps, direction)
    assert set(rows) == {5 if folds else 13}
    assert lp_warnings(caplog) == []


def test_threads_sharing_one_model_get_the_sequential_answers(caplog):
    """Four threads solve distinct lattice systems of one row structure, so
    they share its HiGHS model; each answer equals the sequential one."""
    batches = []
    for seed in range(4):
        rng = random.Random(4000 + seed)
        batches.append([
            outcome_marginals(random_outcome_vector(rng))
            + connection_marginals(random_connection_vector(rng))
            for _ in range(50)
        ])

    def solve(batch):
        return [(res.feasible, res.engine, exact(res._x)) for res in map(feasible, batch)]

    sequential = [solve(batch) for batch in batches]
    barrier = threading.Barrier(len(batches))

    def threaded(batch):
        barrier.wait(timeout=60)
        return solve(batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-solve included
    try:
        with ThreadPoolExecutor(max_workers=len(batches)) as pool:
            futures = [pool.submit(threaded, batch) for batch in batches]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential
    assert {engine for batch in concurrent for _, engine, _ in batch} == {"certified-float"}
    assert lp_warnings(caplog) == []


def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(lp.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(*blocks: str) -> list[str]:
    """The words the code ``blocks`` print, run one after another in a
    fresh interpreter on this package."""
    code = "\n".join(map(textwrap.dedent, blocks))
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120, check=True).stdout.split()


def test_scipy_is_imported_only_by_a_solve():
    """The package, its CLI and a membership grid never load any part of
    scipy; the first HiGHS solve does."""
    assert run_fresh("""
        import sys
        from fractions import Fraction
        import epr_couplings, epr_couplings.cli
        from epr_couplings import regions
        scipy_loaded = lambda: any(name.partition(".")[0] == "scipy" for name in sys.modules)
        regions.membership_grid({"p11": Fraction(7, 16), "p12": Fraction(7, 16)}, 9)
        print(scipy_loaded())
        epr_couplings.feasible(
            epr_couplings.connection_marginals(epr_couplings.ConnectionVector(0, 0, 0, 0)))
        print(scipy_loaded())
    """) == ["False", "True"]


ORACLE_SOLVE = """
    from fractions import Fraction
    from epr_couplings import feasible, lp
    from epr_couplings.model import (
        ConnectionVector, OutcomeVector, connection_marginals, outcome_marginals)
    quarter = Fraction(1, 4)
    feasible(outcome_marginals(OutcomeVector(quarter, quarter, quarter, quarter))
             + connection_marginals(ConnectionVector(0, 0, 0, 0)))
"""


def test_a_solve_loads_highs_alone_and_shares_it_with_scipy_optimize():
    """The first solve loads HiGHS's extension module, never the
    ``scipy.optimize`` package or ``scipy.sparse``; ``scipy.optimize``
    imported afterwards shares that module and solves with it, and one
    imported first lends its module to ``lp``."""
    assert run_fresh("import sys", ORACLE_SOLVE, """
        print(sorted({"scipy.optimize", "scipy.sparse"} & sys.modules.keys()))
        print(sys.modules.get("scipy.optimize._highspy._core") is lp._core)
        import scipy.optimize
        from scipy.optimize._highspy import _core
        print(_core is lp._core is sys.modules["scipy.optimize._highspy._core"])
        print(scipy.optimize.linprog([1, 2], A_eq=[[1, 1]], b_eq=[1], method="highs").status)
    """) == ["[]", "True", "True", "0"]
    assert run_fresh("""
        import importlib.util
        import sys
        import scipy.optimize
        before = sys.modules["scipy.optimize._highspy._core"]
        loaded = []
        module_from_spec = importlib.util.module_from_spec
        importlib.util.module_from_spec = lambda spec: (
            loaded.append(spec.name), module_from_spec(spec))[1]
    """, ORACLE_SOLVE, """
        print(lp._core is before is sys.modules["scipy.optimize._highspy._core"], loaded)
    """) == ["True", "[]"]


def test_highs_stores_the_scipy_sparse_matrix():
    """What HiGHS holds after the row-wise ``passModel``, read back through
    ``getLp()``, is the column-wise matrix ``scipy.sparse.csc_array`` gives
    and a zero cost, on the models of the oracle rows (17, folded 9) and of
    the connection rows (13, folded 5)."""
    oracle = lp._structure(ORACLE_MASKS)
    connection = lp._structure(build_system(connection_marginals(EPS0)).masks)
    structures = [oracle, oracle.fold.structure, connection, connection.fold.structure]
    assert [len(s.masks) for s in structures] == [17, 9, 13, 5]
    for structure in structures:
        held = lp._new_highs(structure.model).getLp()
        want = csc_array(structure.model.a_eq)
        matrix = held.a_matrix_
        assert matrix.format_ == lp._core.MatrixFormat.kColwise
        for got, ref in zip((matrix.start_, matrix.index_, matrix.value_),
                            (want.indptr, want.indices, want.data)):
            assert np.array_equal(got, ref)
        assert np.array_equal(held.col_cost_, np.zeros(want.shape[1]))


def test_a_scipy_without_highs_bindings_is_refused(monkeypatch):
    """A scipy with no ``_highspy._core`` file (before 1.15) raises
    ImportError naming the floor, in place of a solve."""
    monkeypatch.setattr(lp.importlib.machinery.PathFinder, "find_spec",
                        lambda name, path=None: None)
    with pytest.raises(ImportError, match=r"needs scipy >= 1\.15"):
        lp._load_core()


def test_a_model_highs_refuses_raises(monkeypatch):
    """``passModel`` returning ``kError`` raises, naming the status and the
    model's shape, in place of leaving HiGHS empty."""
    core = lp._highs_bindings()

    class Refusing:
        def setOptionValue(self, name, value):
            pass

        def passModel(self, *args):
            return core.HighsStatus.kError

    monkeypatch.setattr(lp, "_core", SimpleNamespace(
        _Highs=Refusing, HighsStatus=core.HighsStatus, MatrixFormat=core.MatrixFormat,
        ObjSense=core.ObjSense, kHighsInf=core.kHighsInf,
    ))
    model = lp._structure(ORACLE_MASKS).model
    with pytest.raises(RuntimeError, match=r"17-row, 256-column model: HighsStatus\.kError"):
        lp._new_highs(model)
