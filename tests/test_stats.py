import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epr_couplings.model import ConnectionVector, OutcomeVector
from epr_couplings.qm import Settings, qm_outcomes
from epr_couplings.scalars import DEFAULT_TOLERANCE, Scalar
from epr_couplings.stats import (
    TSIRELSON_HIGH,
    TSIRELSON_LOW,
    Compliance,
    CorrelationQuad,
    SPair,
    chsh_satisfied,
    compatible,
    enumerate_E0,
    noforcing_counterexample,
    qm_compliant,
    realize_s_pair,
    s_pair,
    tsirelson_satisfied,
)

HALF = Fraction(1, 2)
EPS0 = ConnectionVector(0, 0, 0, 0)
EPS_IND = ConnectionVector(*([Fraction(1, 4)] * 4))
EPS_T = ConnectionVector(*([Scalar.quadratic(Fraction(-1, 8), Fraction(1, 8))] * 4))
PR_BOX = OutcomeVector(HALF, HALF, HALF, 0)
QUARTER = OutcomeVector(*([Fraction(1, 4)] * 4))
ANGLE_EXAMPLE = OutcomeVector(
    Scalar.quadratic(Fraction(1, 4), Fraction(-1, 8)),
    Scalar.quadratic(Fraction(1, 4), Fraction(-1, 8)),
    Scalar.quadratic(Fraction(1, 4), Fraction(-1, 8)),
    Scalar.quadratic(Fraction(1, 4), Fraction(1, 8)),
)

correlations = st.fractions(min_value=Fraction(-1), max_value=Fraction(1),
                            max_denominator=64)
quads = st.builds(
    CorrelationQuad, correlations, correlations, correlations, correlations
)
sqrt2_correlations = st.builds(
    Scalar,
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
    st.fractions(min_value=-1, max_value=1, max_denominator=16),
).filter(lambda r: -1 <= r <= 1)
sqrt2_quads = st.builds(
    CorrelationQuad,
    sqrt2_correlations, sqrt2_correlations, sqrt2_correlations, sqrt2_correlations,
)


def random_quad(rng, denominator=64):
    return CorrelationQuad(
        *(Fraction(rng.randint(-denominator, denominator), denominator)
          for _ in range(4))
    )


def brute_force_s_pair(quad):
    """Independent oracle: enumerate all 16 sign patterns explicitly, in
    exact Q[sqrt2] arithmetic."""
    best = {0: None, 1: None}
    for signs in itertools.product((1, -1), repeat=4):
        total = sum((s * c for s, c in zip(signs, quad.components)), Scalar(0))
        parity = signs.count(1) % 2
        if best[parity] is None or total > best[parity]:
            best[parity] = total
    return best[0] / 4, best[1] / 4


# -- the general Scalar bodies the library once ran, kept as the reference -------


def _reference_expressions(p):
    total = p.p11 + p.p12 + p.p21 + p.p22
    return [total - 2 * c for c in p.components]


def reference_chsh(p):
    return all(e >= 0 and e <= 1 for e in _reference_expressions(p))


def reference_tsirelson(p):
    return all(
        e >= TSIRELSON_LOW and e <= TSIRELSON_HIGH for e in _reference_expressions(p)
    )


def reference_qm(p):
    r1, r2, r3, r4 = CorrelationQuad.from_outcomes(p).components
    lhs = abs(r1 * r2 - r3 * r4)
    x = (1 - r1 * r1) * (1 - r2 * r2)
    y = (1 - r3 * r3) * (1 - r4 * r4)
    d = lhs * lhs - x - y
    if d < 0:
        return Compliance.INSIDE
    if d == 0:
        return Compliance.BOUNDARY if x * y == 0 else Compliance.INSIDE
    e = d * d - 4 * x * y
    if e < 0:
        return Compliance.INSIDE
    return Compliance.BOUNDARY if e == 0 else Compliance.OUTSIDE


def reference_compatible(p, eps):
    e0, e1 = brute_force_s_pair(CorrelationQuad.from_connections(eps))
    p0, p1 = brute_force_s_pair(CorrelationQuad.from_outcomes(p))
    return e0 + p1 <= Fraction(3, 2) and e1 + p0 <= Fraction(3, 2)


def test_s_pair_null_connection():
    sp = s_pair(CorrelationQuad.from_connections(EPS0))
    assert sp.s0 == 1 and sp.s1 == HALF


def test_s_pair_independent_connection():
    sp = s_pair(CorrelationQuad.from_connections(EPS_IND))
    assert sp.s0 == 0 and sp.s1 == 0


def test_s_pair_tsirelson_connection():
    sp = s_pair(CorrelationQuad.from_connections(EPS_T))
    assert sp.s0 == Scalar.quadratic(Fraction(3, 2), Fraction(-1, 2))  # (3-sqrt2)/2
    assert sp.s1 == Scalar.quadratic(Fraction(3, 4), Fraction(-1, 4))  # (3-sqrt2)/4


def test_s_pair_matches_brute_force_10k():
    rng = random.Random(42)
    for _ in range(10_000):
        quad = random_quad(rng)
        sp = s_pair(quad)
        s0, s1 = brute_force_s_pair(quad)
        assert sp.s0 == s0 and sp.s1 == s1


@given(st.one_of(quads, sqrt2_quads))
@settings(max_examples=300)
@example(CorrelationQuad(0, 0, 0, 0))
@example(CorrelationQuad(1, 1, 1, -1))
def test_closed_form_equals_enumeration(quad):
    sp = s_pair(quad)
    assert (sp.s0, sp.s1) == brute_force_s_pair(quad)


@given(quads)
@settings(max_examples=300)
def test_s_pair_triangle(quad):
    sp = s_pair(quad)  # SPair construction asserts the triangle bounds
    assert sp.s0 + sp.s1 <= Fraction(3, 2)
    assert 0 <= sp.s0 <= 1 and 0 <= sp.s1 <= 1
    assert 2 * sp.s1 >= sp.s0 and 2 * sp.s0 >= sp.s1


@given(quads)
@settings(max_examples=200)
def test_sign_symmetry(quad):
    c = quad.components
    base = s_pair(quad)
    flipped = s_pair(CorrelationQuad(-c[0], c[1], c[2], c[3]))
    assert (flipped.s0, flipped.s1) == (base.s1, base.s0)
    double = s_pair(CorrelationQuad(-c[0], -c[1], c[2], c[3]))
    assert (double.s0, double.s1) == (base.s0, base.s1)
    for perm in itertools.permutations(range(4)):
        sp = s_pair(CorrelationQuad(*(c[i] for i in perm)))
        assert (sp.s0, sp.s1) == (base.s0, base.s1)


def test_spair_validation():
    with pytest.raises(ValueError):
        SPair(Fraction(5, 4), Fraction(1, 4))
    with pytest.raises(ValueError):
        SPair(1, 1)  # sum exceeds 3/2
    with pytest.raises(ValueError):
        SPair(Fraction(1, 2), Fraction(1, 8))  # below the s1 >= s0/2 edge
    SPair(Fraction(1, 2), 1)


def test_correlation_quad_conversions():
    quad = CorrelationQuad.from_outcomes(PR_BOX)
    assert [c.a for c in quad.components] == [1, 1, 1, -1]
    assert quad.to_outcome_vector() == PR_BOX
    quad = CorrelationQuad.from_connections(EPS_IND)
    assert quad.to_connection_vector() == EPS_IND
    with pytest.raises(ValueError):
        CorrelationQuad(2, 0, 0, 0)


def test_chsh_examples():
    assert chsh_satisfied(QUARTER)
    assert not chsh_satisfied(PR_BOX)
    assert not chsh_satisfied(ANGLE_EXAMPLE)


def test_tsirelson_examples():
    assert tsirelson_satisfied(ANGLE_EXAMPLE)  # boundary: expression hits (1-sqrt2)/2
    assert not tsirelson_satisfied(PR_BOX)
    assert tsirelson_satisfied(QUARTER)


def test_qm_examples():
    assert qm_compliant(QUARTER) is Compliance.INSIDE
    assert qm_compliant(PR_BOX) is Compliance.OUTSIDE
    assert qm_compliant(ANGLE_EXAMPLE) is Compliance.BOUNDARY


def test_qm_compliant_approximate_mode():
    p = OutcomeVector(0.25, 0.25, 0.25, 0.25)
    assert qm_compliant(p) is Compliance.INSIDE
    near_boundary = OutcomeVector(*(float(c) for c in ANGLE_EXAMPLE.components))
    assert qm_compliant(near_boundary) is Compliance.BOUNDARY


# -- one exact body against the reference, over Q and Q[sqrt2] --------------------

rational_probabilities = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=HALF, max_denominator=12),
    st.fractions(min_value=0, max_value=HALF, max_denominator=128),
)
sqrt2_probabilities = st.builds(
    Scalar,
    st.fractions(min_value=-1, max_value=1, max_denominator=16),
    st.fractions(min_value=-1, max_value=1, max_denominator=16),
).filter(lambda v: 0 <= v <= HALF)
probabilities = st.one_of(rational_probabilities, sqrt2_probabilities)


@st.composite
def face_points(draw):
    """Outcome vectors with one CHSH expression exactly on a CHSH bound (0 or
    1) or a Tsirelson bound ((1 -+ sqrt2)/2).  Expression k is
    ``p_m + p_a + p_b - p_k``; it is put on the lower bound by solving for
    p_k, and on the upper one by the map p -> 1/2 - p, which sends every
    expression e to 1 - e."""
    bound = draw(st.sampled_from([Scalar(0), TSIRELSON_LOW]))
    k, *rest = draw(st.permutations(range(4)))
    comps = [None] * 4
    for j in rest:  # each at most (1/2 + bound)/3, so that p_k <= 1/2
        comps[j] = draw(probabilities) * 2 * (HALF + bound) / 3
    comps[k] = sum(comps[j] for j in rest) - bound
    if draw(st.booleans()):
        comps = [HALF - c for c in comps]
    return OutcomeVector(*comps)


@st.composite
def singlet_points(draw):
    """Singlet predictions for planar angles in multiples of pi/3 or pi/4:
    exact, and mostly on the quantum boundary."""
    d = draw(st.sampled_from([3, 4]))
    angles = [Fraction(draw(st.integers(0, 2 * d - 1)), d) for _ in range(3)]
    return qm_outcomes(Settings.planar(Fraction(0), *angles))


outcome_vectors = st.one_of(
    st.builds(OutcomeVector, probabilities, probabilities, probabilities, probabilities),
    face_points(),
    singlet_points(),
)
connection_vectors = st.one_of(
    st.builds(ConnectionVector, probabilities, probabilities, probabilities, probabilities),
    st.sampled_from(enumerate_E0() + [EPS_T, EPS_IND]),
)


@given(outcome_vectors, connection_vectors)
@settings(max_examples=600)
@example(OutcomeVector(0, 0, 0, 0), EPS0)  # unit == 1 on both sides
@example(PR_BOX, EPS0)
@example(ANGLE_EXAMPLE, EPS_T)  # on the Tsirelson, qm and coupling faces at once
@example(
    OutcomeVector(Fraction(1, 3), Fraction(1, 6), Fraction(2, 7), 0),
    ConnectionVector(Fraction(1, 5), 0, Fraction(1, 10), HALF),
)
def test_verdicts_match_reference(p, eps):
    assert chsh_satisfied(p) == reference_chsh(p)
    assert tsirelson_satisfied(p) == reference_tsirelson(p)
    assert qm_compliant(p) is reference_qm(p)
    assert compatible(p, eps) == reference_compatible(p, eps)


# Approximate input near a face, with the verdicts the general Scalar bodies
# gave: every comparison is toleranced by DEFAULT_TOLERANCE on the scale of
# the expression (or of s0 + s1) itself.
_S2 = math.sqrt(2)
_EPS0_APPROX = ConnectionVector(0.0, 0.0, 0.0, 0.0)
_EPS_T_APPROX = ConnectionVector(*[(_S2 - 1) / 8] * 4)


@pytest.mark.parametrize("name, offset, want", [
    ("chsh", 0.5, (True, True, True, True)),
    ("chsh", 2.0, (False, True, False, True)),
    ("tsirelson-high", 0.5, (False, True, False, True)),
    ("tsirelson-high", 2.0, (False, False, False, False)),
    ("tsirelson-low", 0.5, (False, True, False, True)),
    ("tsirelson-low", 2.0, (False, False, False, False)),
])
def test_approximate_linear_faces(name, offset, want):
    d = offset * DEFAULT_TOLERANCE
    comps = {
        "chsh": (0.5, 0.5, d, 0.0),  # expression 22 is 1 + d
        "tsirelson-high": (0.5, 0.5, 0.5, 1.5 - (1 + _S2) / 2 - d),
        "tsirelson-low": (0.0, 0.0, 0.0, -(1 - _S2) / 2 + d),
    }[name]
    p = OutcomeVector(*comps)
    got = (
        chsh_satisfied(p),
        tsirelson_satisfied(p),
        compatible(p, _EPS0_APPROX),
        compatible(p, _EPS_T_APPROX),
    )
    assert got == want


@pytest.mark.parametrize("offset, want", [
    (-0.3, Compliance.INSIDE),
    (-0.1, Compliance.BOUNDARY),
    (0.1, Compliance.BOUNDARY),
    (0.3, Compliance.OUTSIDE),
])
def test_approximate_qm_face(offset, want):
    low, high = (2 - _S2) / 8, (2 + _S2) / 8
    p = OutcomeVector(low, low, low, high + offset * DEFAULT_TOLERANCE)
    assert qm_compliant(p) is want


def test_compatible_examples():
    assert compatible(QUARTER, EPS_IND)
    assert compatible(PR_BOX, EPS_IND)  # independent coupling accepts anything
    assert not compatible(PR_BOX, EPS0)
    assert compatible(QUARTER, EPS0)


def corner_correlations(rng) -> list:
    """Eight correlations, each a corner +-1 with probability 1/2, else a
    multiple of 1/8 in [-1, 1]."""
    return [
        rng.choice((-1, 1)) if rng.random() < 0.5 else Fraction(rng.randint(-8, 8), 8)
        for _ in range(8)
    ]


def compatible_on(r) -> bool:
    """``compatible`` on eight correlations: the outcome ones ``4p - 1``,
    then the connection ones ``1 - 4 eps``."""
    return compatible(
        CorrelationQuad(*r[:4]).to_outcome_vector(),
        CorrelationQuad(*r[4:]).to_connection_vector(),
    )


def test_compatible_is_invariant_under_permutations_and_even_sign_flips():
    """The verdict depends on the eight correlations only through the box
    and the odd-parity inequalities ``sigma.r <= 6``, so it is unchanged by
    any permutation of them and by any even number of sign flips.  Each
    draw is checked under the generators of both groups (the adjacent
    transpositions, the flips of adjacent pairs) and under one random
    permutation with a random even set of flips."""
    rng = random.Random(11)
    verdicts = collections.Counter()
    for _ in range(400):
        r = corner_correlations(rng)
        want = compatible_on(r)
        verdicts[want] += 1
        images = []
        for k in range(7):
            swapped = list(r)
            swapped[k], swapped[k + 1] = r[k + 1], r[k]
            images.append(swapped)
            images.append([-c if j in (k, k + 1) else c for j, c in enumerate(r)])
        signs = [rng.choice((-1, 1)) for _ in range(7)]
        signs.append(math.prod(signs))
        images.append([s * c for s, c in zip(signs, rng.sample(r, 8))])
        for image in images:
            assert compatible_on(image) == want, (r, image)
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


def test_enumerate_e0():
    members = enumerate_E0()
    assert len(members) == 8
    comps = {tuple(c.a for c in e.components) for e in members}
    assert (0, 0, 0, 0) in comps
    assert (HALF, HALF, HALF, HALF) in comps
    for e in members:
        sp = s_pair(CorrelationQuad.from_connections(e))
        assert sp.s0 == 1 and sp.s1 == HALF
        n_half = sum(1 for c in e.components if c == HALF)
        assert n_half in (0, 2, 4)


def test_e0_is_exactly_the_s0_equals_one_set_on_lattice():
    members = {tuple(c.a for c in e.components) for e in enumerate_E0()}
    values = [Fraction(k, 8) for k in range(5)]
    for combo in itertools.product(values, repeat=4):
        eps = ConnectionVector(*combo)
        sp = s_pair(CorrelationQuad.from_connections(eps))
        assert (sp.s0 == 1) == (combo in members)


def test_fine_equivalence_sampled():
    rng = random.Random(7)
    for _ in range(2000):
        p = OutcomeVector(*(Fraction(rng.randint(0, 64), 128) for _ in range(4)))
        assert compatible(p, EPS0) == chsh_satisfied(p)


def test_tsirelson_match_sampled():
    rng = random.Random(8)
    for _ in range(2000):
        p = OutcomeVector(*(Fraction(rng.randint(0, 64), 128) for _ in range(4)))
        assert compatible(p, EPS_T) == tsirelson_satisfied(p)


def test_inclusion_chain_sampled():
    rng = random.Random(9)
    for _ in range(2000):
        p = OutcomeVector(*(Fraction(rng.randint(0, 64), 128) for _ in range(4)))
        if chsh_satisfied(p):
            assert qm_compliant(p) is not Compliance.OUTSIDE
        if qm_compliant(p) is not Compliance.OUTSIDE:
            assert tsirelson_satisfied(p)


def test_realize_s_pair_examples():
    r = realize_s_pair(SPair(HALF, 1), "odd")
    assert [c.a for c in r.components] == [1, 1, 1, -1]
    assert r.to_outcome_vector() == PR_BOX

    r = realize_s_pair(SPair(1, HALF), "even")
    assert [c.a for c in r.components] == [1, 1, 1, 1]

    r = realize_s_pair(SPair(0, 0), "even")
    assert [c.a for c in r.components] == [0, 0, 0, 0]


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=48),
    st.fractions(min_value=0, max_value=1, max_denominator=48),
)
@settings(max_examples=300)
def test_realize_s_pair_round_trip(big, t):
    # m ranges over [big/2, min(big, 3/2 - big)] for an attainable (M, m) pair
    lo = big / 2
    hi = min(big, Fraction(3, 2) - big)
    small = lo + t * (hi - lo)
    for parity, pair in (("even", SPair(big, small)), ("odd", SPair(small, big))):
        quad = realize_s_pair(pair, parity)
        sp = s_pair(quad)
        assert (sp.s0, sp.s1) == (pair.s0, pair.s1)


def test_realize_s_pair_edges():
    # on the lower edge small = big/2, the distinguished component ties with t
    pair = SPair(1, HALF)
    quad = realize_s_pair(pair, "even")
    sp = s_pair(quad)
    assert (sp.s0, sp.s1) == (pair.s0, pair.s1)


def test_realize_s_pair_errors():
    with pytest.raises(ValueError, match="parity"):
        realize_s_pair(SPair(HALF, 1), "even")
    with pytest.raises(ValueError, match="parity"):
        realize_s_pair(SPair(1, HALF), "odd")
    with pytest.raises(ValueError):
        realize_s_pair(SPair(1, HALF), "sideways")


def test_noforcing_counterexample_independent():
    p = noforcing_counterexample(EPS_IND)
    sp = s_pair(CorrelationQuad.from_outcomes(p))
    assert sp.s1 == 1 and sp.s0 == HALF
    assert p == PR_BOX
    assert compatible(p, EPS_IND)
    assert qm_compliant(p) is Compliance.OUTSIDE


def test_noforcing_counterexample_tsirelson_connection():
    p = noforcing_counterexample(EPS_T)
    sp = s_pair(CorrelationQuad.from_outcomes(p))
    # statistics land on the s0 + s1 = 3/2 edge at s0 = s0(eps)
    assert sp.s0 == Scalar.quadratic(Fraction(3, 2), Fraction(-1, 2))
    assert sp.s1 == Scalar.quadratic(0, Fraction(1, 2))  # sqrt2/2
    assert compatible(p, EPS_T)
    assert qm_compliant(p) is Compliance.OUTSIDE
    assert tsirelson_satisfied(p)


def test_noforcing_counterexample_small_perturbation():
    eps = ConnectionVector(0, 0, 0, Fraction(1, 8))
    se = s_pair(CorrelationQuad.from_connections(eps))
    assert se.s0 == Fraction(7, 8)
    p = noforcing_counterexample(eps)
    sp = s_pair(CorrelationQuad.from_outcomes(p))
    assert sp.s0 + sp.s1 == Fraction(3, 2) and sp.s0 < 1
    assert compatible(p, eps)
    assert qm_compliant(p) is Compliance.OUTSIDE


def test_noforcing_counterexample_rejects_e0():
    for eps in enumerate_E0():
        with pytest.raises(ValueError):
            noforcing_counterexample(eps)


def test_noforcing_counterexample_random_sweep():
    rng = random.Random(11)
    for _ in range(500):
        eps = ConnectionVector(*(Fraction(rng.randint(0, 64), 128) for _ in range(4)))
        se = s_pair(CorrelationQuad.from_connections(eps))
        if se.s0 == 1:
            continue
        p = noforcing_counterexample(eps)
        assert compatible(p, eps)
        assert qm_compliant(p) is Compliance.OUTSIDE
