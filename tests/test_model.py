import dataclasses
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epr_couplings.model import (
    ConnectionVector,
    CouplingTable,
    MarginalSpec,
    OutcomeVector,
    VariableId,
    connection_marginals,
    decode,
    index_of,
    marginal_spec_from_json,
    marginal_spec_to_json,
    marginal_specs_from_json,
    outcome_marginals,
)
from epr_couplings.scalars import DEFAULT_TOLERANCE, SQRT2, ZERO, Scalar, as_scalar
from epr_couplings.stats import CorrelationQuad

V = VariableId
HALF = Fraction(1, 2)


def all_ones_parameterization(spec):
    """All Pr[every variable of S = +1] values of ``spec``, one per subset
    S, in :meth:`MarginalSpec.rows` order, keyed by S as a frozenset."""
    return {
        frozenset(v for v in V if mask >> (7 - v) & 1): value for mask, value in spec.rows()
    }


def coupling_table_from_strings(items):
    """A coupling table read back from :meth:`CouplingTable.to_strings`."""
    return CouplingTable(items)


# -- reference: the inclusion-exclusion and per-subset scan the library ran
# before its subset-sum transform pair ------------------------------------------


def reference_prob_all_plus(spec, subset):
    """Pr[all of subset = +1] by scanning the whole joint table."""
    subset = frozenset(subset)
    if not subset <= set(spec.variables):
        bad = [v.name for v in subset - set(spec.variables)]
        raise ValueError(f"variables not in this marginal: {bad}")
    k = len(spec.variables)
    smask = 0
    for j, var in enumerate(spec.variables):
        if var in subset:
            smask |= 1 << (k - 1 - j)
    total = ZERO
    for mask, value in enumerate(spec.table):
        if mask & smask == smask:
            total = total + value
    return total


def reference_all_ones(spec):
    out = {}
    for size in range(len(spec.variables) + 1):
        for combo in combinations(spec.variables, size):
            out[frozenset(combo)] = reference_prob_all_plus(spec, combo)
    return out


def reference_from_prob_all_plus(variables, probs):
    """The joint table by O(3^k) inclusion-exclusion, with the library's
    validation and error messages."""
    variables = tuple(variables)
    k = len(variables)
    probs = {frozenset(s): as_scalar(v) for s, v in probs.items()}
    varset = frozenset(variables)
    for s in probs:
        if not s <= varset:
            bad = [v.name for v in s - varset]
            raise ValueError(f"subset mentions variables not in the marginal: {bad}")
    one = Scalar(1)
    empty = probs.setdefault(frozenset(), one)
    if empty != one:
        raise ValueError(f"Pr[] must be 1, got {empty}")
    zeta = []
    for mask in range(1 << k):
        subset = frozenset(variables[j] for j in range(k) if mask & (1 << (k - 1 - j)))
        if subset not in probs:
            raise ValueError(
                "missing probability for subset "
                f"{{{', '.join(v.name for v in sorted(subset))}}}"
            )
        zeta.append(probs[subset])
    table = []
    for tmask in range(1 << k):
        rest = ((1 << k) - 1) ^ tmask
        value = None
        extra = rest
        while True:
            term = zeta[tmask | extra]
            if bin(extra).count("1") % 2:
                term = -term
            value = term if value is None else value + term
            if extra == 0:
                break
            extra = (extra - 1) & rest
        if value < 0:
            names = [
                f"{variables[j].name}={'+1' if tmask & (1 << (k - 1 - j)) else '-1'}"
                for j in range(k)
            ]
            raise ValueError(
                f"inconsistent marginal parameterization: Pr[{', '.join(names)}] "
                f"= {value} < 0"
            )
        table.append(value)
    return MarginalSpec(variables, table)


def test_index_examples():
    assert index_of({v: 1 for v in V}) == 255
    assert index_of({v: -1 for v in V}) == 0
    assignment = {v: -1 for v in V}
    assignment[V.A11] = 1
    assert index_of(assignment) == 128


def test_index_decode_round_trip():
    for index in range(256):
        assert index_of(decode(index)) == index


def test_index_errors():
    with pytest.raises(ValueError):
        index_of({V.A11: 1})
    bad = {v: 1 for v in V}
    bad[V.B22] = 0
    with pytest.raises(ValueError):
        index_of(bad)
    with pytest.raises(ValueError):
        decode(256)


def test_variable_names():
    assert V.from_name("A11") is V.A11
    assert V.from_name(" B21 ") is V.B21
    with pytest.raises(ValueError):
        V.from_name("C11")
    assert [v.name for v in V] == ["A11", "B11", "A12", "B12", "A21", "B21", "A22", "B22"]


def test_full_table_one_variable():
    spec = MarginalSpec.from_prob_all_plus((V.A11,), {frozenset((V.A11,)): HALF})
    assert spec.table == (Scalar(HALF), Scalar(HALF))


def test_full_table_perfectly_aligned_pair():
    spec = MarginalSpec.from_prob_all_plus(
        (V.A11, V.A12),
        {
            frozenset((V.A11,)): HALF,
            frozenset((V.A12,)): HALF,
            frozenset((V.A11, V.A12)): HALF,
        },
    )
    # Pr[values differ] = 0
    assert spec.table == (Scalar(HALF), Scalar(0), Scalar(0), Scalar(HALF))


def test_full_table_inconsistent():
    with pytest.raises(ValueError, match="inconsistent"):
        MarginalSpec.from_prob_all_plus(
            (V.A11, V.A12),
            {
                frozenset((V.A11,)): HALF,
                frozenset((V.A12,)): HALF,
                frozenset((V.A11, V.A12)): Fraction(3, 4),
            },
        )


def test_marginal_spec_validation():
    with pytest.raises(ValueError, match="duplicate"):
        MarginalSpec((V.A11, V.A11), (1, 0, 0, 0))
    with pytest.raises(ValueError, match="entries"):
        MarginalSpec((V.A11,), (1, 0, 0))
    with pytest.raises(ValueError, match="negative"):
        MarginalSpec((V.A11,), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match="sums"):
        MarginalSpec((V.A11,), (HALF, HALF + 1))
    with pytest.raises(ValueError, match="Pr\\[\\]"):
        MarginalSpec.from_prob_all_plus((V.A11,), {
            frozenset(): Fraction(2),
            frozenset((V.A11,)): HALF,
        })
    with pytest.raises(ValueError, match="missing"):
        MarginalSpec.from_prob_all_plus((V.A11, V.B11), {
            frozenset((V.A11,)): HALF,
            frozenset((V.A11, V.B11)): HALF,
        })
    with pytest.raises(ValueError, match=r"variables not in the marginal: \['B11'\]"):
        MarginalSpec.from_prob_all_plus((V.A11,), {frozenset((V.A11, V.B11)): HALF})


def test_prob_all_plus_refuses_a_foreign_variable():
    spec = MarginalSpec((V.A11, V.B11), (HALF, 0, 0, HALF))
    with pytest.raises(ValueError, match=r"variables not in this marginal: \['A12'\]"):
        spec.prob_all_plus((V.A11, V.A12))


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=32),
                min_size=4, max_size=4))
@settings(max_examples=150)
def test_all_ones_round_trip(raw):
    total = sum(raw)
    if total == 0:
        raw = [Fraction(1)] * 4
        total = 4
    table = [r / total for r in raw]
    spec = MarginalSpec((V.A11, V.B12), table)
    rebuilt = MarginalSpec.from_prob_all_plus(
        spec.variables, all_ones_parameterization(spec)
    )
    assert rebuilt == spec


def test_connection_marginals_null_vector():
    specs = connection_marginals(ConnectionVector(0, 0, 0, 0))
    assert [s.variables for s in specs] == [
        (V.A11, V.A12), (V.A21, V.A22), (V.B11, V.B21), (V.B12, V.B22),
    ]
    for s in specs:
        # Pr[pair differs] = 0: the off-diagonal table entries vanish
        assert s.table == (Scalar(HALF), Scalar(0), Scalar(0), Scalar(HALF))


def test_connection_marginals_independent():
    specs = connection_marginals(ConnectionVector(*([Fraction(1, 4)] * 4)))
    for s in specs:
        assert s.table == tuple(Scalar(Fraction(1, 4)) for _ in range(4))
        assert s.prob_all_plus(s.variables) == Fraction(1, 4)


def test_connection_marginals_anti_aligned():
    specs = connection_marginals(ConnectionVector(HALF, HALF, 0, 0))
    for s in specs[:2]:  # the two A-side pairs always differ
        assert s.table == (Scalar(0), Scalar(HALF), Scalar(HALF), Scalar(0))


def test_outcome_marginals_product_case():
    specs = outcome_marginals(OutcomeVector(*([Fraction(1, 4)] * 4)))
    for s in specs:
        assert s.table == tuple(Scalar(Fraction(1, 4)) for _ in range(4))


def test_outcome_marginals_pr_box():
    specs = outcome_marginals(OutcomeVector(HALF, HALF, HALF, 0))
    for s in specs[:3]:
        assert s.prob_all_plus(s.variables) == HALF
    # fourth pair perfectly anti-correlated
    assert specs[3].table == (Scalar(0), Scalar(HALF), Scalar(HALF), Scalar(0))


def test_outcome_marginals_quadratic_entry():
    p11 = (Scalar(2) - SQRT2) / 8
    specs = outcome_marginals(OutcomeVector(p11, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
    assert specs[0].prob_all_plus((V.A11, V.B11)) == p11


def test_marginal_spec_consistency_of_constructors():
    direct = connection_marginals(ConnectionVector(Fraction(1, 8), 0, 0, 0))[0]
    rebuilt = MarginalSpec.from_prob_all_plus(
        direct.variables,
        {
            frozenset((V.A11,)): HALF,
            frozenset((V.A12,)): HALF,
            frozenset((V.A11, V.A12)): HALF - Fraction(1, 8),
        },
    )
    assert rebuilt == direct


@given(st.lists(st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=64),
                min_size=4, max_size=4))
@settings(max_examples=200)
def test_pair_marginals_always_valid_distributions(values):
    # constructors validate tables, so building is the property
    for spec in connection_marginals(ConnectionVector(*values)):
        assert sum(spec.table[1:], spec.table[0]) == 1
        assert all(t >= 0 for t in spec.table)
    for spec in outcome_marginals(OutcomeVector(*values)):
        assert sum(spec.table[1:], spec.table[0]) == 1
        assert all(t >= 0 for t in spec.table)


def test_vector_validation():
    with pytest.raises(ValueError):
        OutcomeVector(Fraction(3, 4), 0, 0, 0)
    with pytest.raises(ValueError):
        ConnectionVector(Fraction(-1, 8), 0, 0, 0)
    with pytest.raises(ValueError, match="mixes"):
        OutcomeVector(Fraction(1, 4), 0.25, Fraction(1, 4), Fraction(1, 4))


TOL = DEFAULT_TOLERANCE
QUADRUPLES = [
    (OutcomeVector, 0, HALF),
    (ConnectionVector, 0, HALF),
    (CorrelationQuad, -1, 1),
]


@pytest.mark.parametrize("kind, low, high", QUADRUPLES,
                         ids=["outcome", "connection", "correlation"])
def test_quadruple_range_edges(kind, low, high):
    """Approximate values are held to the range up to DEFAULT_TOLERANCE;
    exact values, however close, are decided exactly."""
    names = [f.name for f in dataclasses.fields(kind)]
    tiny = Fraction(1, 10**30)
    for k, name in enumerate(names):
        def build(value, filler):
            return kind(*(value if i == k else filler for i in range(4)))

        for bound, out in ((low, -1), (high, 1)):
            build(float(bound) + out * 0.5 * TOL, 0.0)  # accepted
            with pytest.raises(ValueError, match=rf"{name} = .* outside \[{low}, {high}\]"):
                build(float(bound) + out * 2 * TOL, 0.0)
            build(bound, 0)
            build(bound - out * tiny, 0)
            with pytest.raises(ValueError, match=rf"{name} = .* outside"):
                build(bound + out * tiny, 0)
    kind(*[as_scalar("(2+sqrt2)/8")] * 4)


def test_correlation_quad_refuses_mixed_modes():
    with pytest.raises(ValueError, match=r"^correlation quad mixes exact and approximate"):
        CorrelationQuad(Fraction(1, 2), 0.5, 0, 0)


def test_duplicate_subsets_in_json_are_refused():
    base = {"": "1", "A11": "1/2", "B11": "1/2"}
    for extra, message in (
        ({"A11,B11": "1/2", "B11,A11": "0"}, "subset 'B11,A11' is given twice"),
        ({"A11,A11": "1/2", "A11,B11": "1/2"}, "subset 'A11,A11' repeats a variable"),
    ):
        data = {"variables": ["A11", "B11"], "prob_all_plus": {**base, **extra}}
        with pytest.raises(ValueError, match=message):
            marginal_spec_from_json(data)


def test_coupling_table_validation_and_marginals():
    entries = [Fraction(0)] * 256
    entries[255] = Fraction(1, 2)
    entries[0] = Fraction(1, 2)
    table = CouplingTable(tuple(entries))
    assert table.prob_all_plus([V.A11]) == HALF
    assert table.prob_all_plus(list(V)) == HALF
    assert table.probability({v: 1 for v in V}) == HALF
    p = table.outcome_vector()
    assert p.components == (Scalar(HALF),) * 4
    eps = table.connection_vector()
    assert eps.components == (Scalar(0),) * 4

    with pytest.raises(ValueError, match="256"):
        CouplingTable((Fraction(1),))
    bad = [Fraction(0)] * 256
    bad[0] = Fraction(2)
    bad[1] = Fraction(-1)
    with pytest.raises(ValueError, match="negative"):
        CouplingTable(tuple(bad))
    with pytest.raises(ValueError, match="sum"):
        CouplingTable(tuple([Fraction(1)] * 256))


def test_negative_sqrt2_entries_are_rejected():
    # 1 - sqrt2 < 0, though its rational part is positive.
    with pytest.raises(ValueError, match=r"entry 0 is negative: 1-1\*sqrt2$"):
        MarginalSpec((V.A11,), (Scalar.quadratic(1, -1), SQRT2))
    with pytest.raises(ValueError, match=r"Pr\[A11=-1\] = 1-1\*sqrt2 < 0$"):
        MarginalSpec.from_prob_all_plus((V.A11,), {frozenset((V.A11,)): SQRT2})


def test_coupling_table_string_round_trip():
    entries = [Fraction(0)] * 256
    entries[17] = Fraction(1, 3)
    entries[200] = Fraction(2, 3)
    table = CouplingTable(tuple(entries))
    again = coupling_table_from_strings(table.to_strings())
    assert again.table == table.table


def test_marginal_spec_json_round_trip():
    spec = connection_marginals(ConnectionVector(Fraction(1, 8), 0, 0, 0))[0]
    data = marginal_spec_to_json(spec)
    assert data["variables"] == ["A11", "A12"]
    assert data["prob_all_plus"][""] == "1"
    assert data["prob_all_plus"]["A11,A12"] == "3/8"
    again = marginal_spec_from_json(json.loads(json.dumps(data)))
    assert again == spec


def test_marginal_spec_json_table_form():
    data = {"variables": ["A11", "B11"], "table": ["1/4", "1/4", "1/4", "1/4"]}
    spec = marginal_spec_from_json(data)
    assert spec.prob_all_plus((V.A11, V.B11)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        marginal_spec_from_json({"variables": ["A11"]})


def test_marginal_specs_from_json_shapes():
    spec_data = marginal_spec_to_json(
        outcome_marginals(OutcomeVector(*([Fraction(1, 4)] * 4)))[0]
    )
    assert len(marginal_specs_from_json([spec_data])) == 1
    assert len(marginal_specs_from_json({"marginals": [spec_data, spec_data]})) == 2


@pytest.mark.parametrize("data", [5, "A11", {"marginals": 5}, {"marginals": "A11"}, {"A11": []}])
def test_marginal_specs_from_json_refuses_a_non_list(data):
    """A string is not read character by character, nor a number iterated."""
    with pytest.raises(ValueError, match=r"expected a list of marginal specs or \{'marginals'"):
        marginal_specs_from_json(data)


def test_marginal_spec_json_keys_follow_canonical_order():
    # Table index bits, most significant first: B22, A11, A21.
    spec = MarginalSpec((V.B22, V.A11, V.A21), [Fraction(i, 36) for i in range(1, 9)])
    data = marginal_spec_to_json(spec)
    assert data == {
        "variables": ["B22", "A11", "A21"],
        "prob_all_plus": {
            "": "1", "A11": "11/18", "A21": "5/9", "B22": "13/18",
            "A11,A21": "1/3", "A11,B22": "5/12", "A21,B22": "7/18",
            "A11,A21,B22": "2/9",
        },
    }
    assert list(data["prob_all_plus"]) == [
        "", "A11", "A21", "B22", "A11,A21", "A11,B22", "A21,B22", "A11,A21,B22"
    ]
    assert marginal_spec_from_json(data) == spec


# -- the subset-sum transforms against the reference ------------------------------

_small_fractions = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def field_values(draw, count):
    """``count`` nonnegative values, all rational or all in Q[sqrt2]."""
    if draw(st.booleans()):
        return [Scalar(draw(_small_fractions)) for _ in range(count)]
    return [
        Scalar.quadratic(draw(_small_fractions), draw(_small_fractions))
        for _ in range(count)
    ]


@st.composite
def marginal_cases(draw):
    """Variables in any order, a joint table over Q or Q[sqrt2], and a
    parameterization that is the table's own, a perturbed copy of it or
    drawn freely (so often inconsistent)."""
    k = draw(st.integers(min_value=0, max_value=4))
    variables = tuple(draw(st.permutations(list(V)))[:k])
    weights = draw(field_values(1 << k))
    total = sum(weights[1:], weights[0])
    if total == 0:
        weights, total = [Scalar(1)] * (1 << k), Scalar(1 << k)
    spec = MarginalSpec(variables, [w / total for w in weights])
    probs = reference_all_ones(spec)
    how = draw(st.sampled_from(["own", "perturbed", "free"]))
    subsets = [s for s in probs if s]
    if how == "perturbed" and subsets:
        s = draw(st.sampled_from(subsets))
        probs[s] = probs[s] + draw(field_values(1))[0] - draw(field_values(1))[0]
    elif how == "free":
        probs = dict(zip(subsets, draw(field_values(len(subsets)))))
    return spec, probs


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@given(marginal_cases())
@settings(max_examples=300, deadline=None)
def test_subset_sums_match_reference(case):
    spec, probs = case
    assert all_ones_parameterization(spec) == reference_all_ones(spec)
    assert list(all_ones_parameterization(spec)) == list(reference_all_ones(spec))
    for subset in all_ones_parameterization(spec):
        assert spec.prob_all_plus(subset) == reference_prob_all_plus(spec, subset)
    assert MarginalSpec.from_prob_all_plus(spec.variables, reference_all_ones(spec)) == spec
    got = _outcome(lambda: MarginalSpec.from_prob_all_plus(spec.variables, probs))
    want = _outcome(lambda: reference_from_prob_all_plus(spec.variables, probs))
    assert got == want


def test_coupling_table_is_the_eight_variable_marginal():
    # Sparse, over Q[sqrt2]: (2 - sqrt2)/4 + sqrt2/4 + 1/2 = 1.
    entries = [Fraction(0)] * 256
    entries[255] = Scalar.quadratic(HALF, Fraction(-1, 4))
    entries[0] = Scalar.quadratic(0, Fraction(1, 4))
    entries[100] = HALF
    table = CouplingTable(entries)
    spec = MarginalSpec(tuple(V), entries)
    assert table == spec
    assert table.table == spec.table
    for mask in range(256):
        subset = [v for v in V if mask & (1 << (7 - v))]
        want = reference_prob_all_plus(spec, subset)
        assert table.prob_all_plus(subset) == want
        assert spec.prob_all_plus(subset) == want


# -- pair specs built from known values against the general constructor ----------


def _half_probabilities(kind):
    """Values in [0, 1/2]: lattice rationals, ``a + b*sqrt2`` with rational
    parts, or floats, so one strategy covers Q, Q[sqrt2] and approximate
    vectors."""
    if kind == "rational":
        return st.fractions(min_value=0, max_value=HALF, max_denominator=128).map(Scalar)
    if kind == "sqrt2":
        parts = st.fractions(min_value=-1, max_value=1, max_denominator=32)
        return st.builds(Scalar.quadratic, parts, parts).filter(lambda s: 0 <= s <= HALF)
    return st.floats(min_value=0, max_value=0.5).map(Scalar.approximate)


@given(st.sampled_from(["rational", "sqrt2", "approximate"]).flatmap(
    lambda kind: st.lists(_half_probabilities(kind), min_size=8, max_size=8)))
@settings(max_examples=200, deadline=None)
def test_pair_specs_match_the_general_constructor(values):
    p, eps = OutcomeVector(*values[:4]), ConnectionVector(*values[4:])
    half = HALF if p.is_exact else 0.5
    built = outcome_marginals(p) + connection_marginals(eps)
    both_plus = list(p.components) + [half - e for e in eps.components]
    pairs = [spec.variables for spec in built]
    assert pairs == [(V.A11, V.B11), (V.A12, V.B12), (V.A21, V.B21), (V.A22, V.B22),
                     (V.A11, V.A12), (V.A21, V.A22), (V.B11, V.B21), (V.B12, V.B22)]
    for spec, pair, v in zip(built, pairs, both_plus):
        want = MarginalSpec(pair, (v, half - v, half - v, v))
        assert spec.variables == want.variables
        assert spec.masks == want.masks
        assert spec.table == want.table
        assert spec.all_plus == want.all_plus
        assert spec.rows() == want.rows()
        assert spec == want


def test_approximate_pair_tables_keep_their_float_bits():
    """On approximate vectors 1/2 - c is (1 - 2c) / 2, formed at the
    vectors' unit 1; halving is exact in binary floating point, so each
    table holds the bits of ``0.5 - c``, and of c itself."""
    rng = random.Random(35)
    values = [0.0, 0.5, 1e-310, 5e-324, 2.5e-301, 0.25, 0.5 - 2**-54, 2**-53]
    values += [rng.uniform(0, 0.5) * 2.0 ** -rng.choice([0, 0, 1, 7, 30, 200]) for _ in range(292)]
    for i in range(0, len(values), 4):
        chunk = values[i:i + 4]
        vectors = [v(*map(Scalar.approximate, chunk)) for v in (OutcomeVector, ConnectionVector)]
        built = outcome_marginals(vectors[0]) + connection_marginals(vectors[1])
        pairs = [(c, 0.5 - c) for c in chunk] + [(0.5 - c, c) for c in chunk]
        for spec, (v, off) in zip(built, pairs):
            want = [v, off, off, v, 1.0, 0.5, 0.5, v]
            got = [float(t) for t in spec.table + spec.all_plus]
            assert list(map(float.hex, got)) == list(map(float.hex, want)), chunk


def test_pair_specs_reject_a_negative_table_entry():
    """The vectors refuse components outside [0, 1/2]; one planted past that
    check still cannot make a pair table with a negative entry."""
    p = OutcomeVector(0, 0, 0, 0)
    object.__setattr__(p, "p22", Scalar(Fraction(-1, 8)))
    with pytest.raises(ValueError, match=r"\(A22,B22\) table has a negative entry"):
        outcome_marginals(p)
    eps = ConnectionVector(0, 0, 0, 0)
    object.__setattr__(eps, "a2", Scalar.quadratic(0, HALF))  # sqrt2/2 > 1/2
    with pytest.raises(ValueError, match=r"\(A21,A22\) table has a negative entry"):
        connection_marginals(eps)
