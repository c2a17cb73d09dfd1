import math
import operator
import pickle
import random
import warnings
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epr_couplings import regions, scalars
from epr_couplings.scalars import (
    DEFAULT_TOLERANCE,
    HALF,
    MAX_NESTING,
    SQRT2,
    Scalar,
    ScalarModeError,
    ScalarParseError,
    ZSqrt2,
    as_scalar,
    integers,
    parse,
    quotient,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=97
)
exact_scalars = st.builds(Scalar, rationals, rationals)


def test_compare_one_vs_sqrt2():
    assert Scalar(1).compare(SQRT2) == -1


def test_compare_zero_zero():
    assert Scalar(0).compare(Scalar(0)) == 0


def test_compare_tsirelson_constant_below_one():
    x = parse("(3-1*sqrt2)/2")
    assert x.compare(Scalar(1)) == -1
    assert x < 1


def test_parse_examples():
    assert parse("1/4") == Scalar(Fraction(1, 4))
    assert parse("0") == Scalar(0)
    assert parse("(3-1*sqrt2)/2") == Scalar.quadratic(Fraction(3, 2), Fraction(-1, 2))
    assert parse("sqrt2/2") == Scalar.quadratic(0, Fraction(1, 2))
    assert parse("-1*sqrt2") == Scalar.quadratic(0, -1)
    assert parse("2*(1+1*sqrt2)") == Scalar.quadratic(2, 2)


def test_parse_decimal_is_approximate():
    s = parse("0.25")
    assert not s.is_exact
    assert s.to_float() == 0.25
    assert not parse("1e-3").is_exact
    assert parse("2.5e-1").to_float() == 0.25


def test_parse_errors():
    for bad in ("", "1 +", "sqrt3", "(1", "1//2", "foo"):
        with pytest.raises(ScalarParseError):
            parse(bad)
    with pytest.raises(ScalarParseError):
        parse("1/0")


def test_parse_nesting_is_bounded():
    """Nesting up to MAX_NESTING levels parses; deeper text is refused
    with a parse error, not the interpreter's RecursionError."""
    depth = MAX_NESTING
    assert parse("(" * depth + "1/4" + ")" * depth) == Scalar(Fraction(1, 4))
    assert parse("-" * depth + "sqrt2") == SQRT2
    assert parse("(" * depth + "0.25" + ")" * depth).to_float() == 0.25
    for bad in ("(" * (depth + 1) + "1" + ")" * (depth + 1), "-" * 1000 + "1",
                "-(" * (depth // 2) + "-1" + ")" * (depth // 2)):
        with pytest.raises(ScalarParseError, match="nests deeper than 100 levels"):
            parse(bad)


@given(exact_scalars)
@settings(max_examples=200)
def test_str_round_trip(x):
    assert parse(str(x)) == x


def test_mixing_modes_rejected():
    with pytest.raises(ScalarModeError):
        Scalar(1) + Scalar.approximate(1.0)
    with pytest.raises(ScalarModeError):
        Scalar(1).compare(Scalar.approximate(1.0))
    with pytest.raises(ScalarModeError):
        Scalar(1) * 0.5
    # explicit conversion is the sanctioned route
    assert Scalar(1).to_approximate() + Scalar.approximate(1.0) == 2


def test_mode_mixing_never_degrades_to_identity_equality():
    with pytest.raises(ScalarModeError):
        Scalar(1) == Scalar.approximate(1.0)
    with pytest.raises(ScalarModeError):
        Scalar(1) != Scalar.approximate(1.0)
    with pytest.raises(ScalarModeError):
        Scalar(1) < Scalar.approximate(2.0)
    # foreign types still take the normal equality path
    assert Scalar(1) != "one"
    assert not (Scalar(1) == object())


def test_approximate_tolerance():
    a = Scalar.approximate(0.1)
    b = Scalar.approximate(0.1 + DEFAULT_TOLERANCE / 2)
    c = Scalar.approximate(0.1 + 1e-6)
    assert a == b
    assert a != c


def test_division():
    x = (Scalar(1) + SQRT2) / (Scalar(3) - SQRT2)
    # (1+sqrt2)(3+sqrt2)/7 = (5+4 sqrt2)/7
    assert x == Scalar.quadratic(Fraction(5, 7), Fraction(4, 7))
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_reflected_division():
    """``number / Scalar`` for ints and Fractions over Q and Q[sqrt2], and
    floats over an approximate scalar; other types are refused."""
    assert 1 / Scalar(Fraction(2, 3)) == Fraction(3, 2)
    assert 1 / SQRT2 == Scalar.quadratic(0, Fraction(1, 2))
    assert Fraction(1, 2) / (Scalar(1) + SQRT2) == (SQRT2 - 1) / 2
    assert str(Fraction(-3, 4) / Scalar(Fraction(3, 8))) == "-2"
    assert 1.0 / Scalar.approximate(4.0) == Scalar.approximate(0.25)
    assert (3 / Scalar.approximate(2.0)).to_float() == 1.5
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Scalar(0)
    with pytest.raises(ScalarModeError):
        1.0 / Scalar(2)
    with pytest.raises(TypeError):
        "1" / Scalar(2)


def test_abs_and_sign():
    assert abs(Scalar(1) - SQRT2) == SQRT2 - 1
    assert (Scalar(1) - SQRT2).sign() == -1
    assert Scalar(0).sign() == 0
    assert SQRT2.sign() == 1


def test_hash_exact_only():
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    with pytest.raises(TypeError):
        hash(Scalar.approximate(0.5))


@given(st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**12)))
@settings(max_examples=300)
def test_hash_of_a_rational_is_that_of_the_int_or_fraction(q):
    assert hash(Scalar(q)) == hash(q)
    assert {Scalar(q): "scalar"}[q] == "scalar"


@pytest.mark.parametrize("x", [
    Scalar(0), Scalar(-7), Scalar(Fraction(-3, 14)), parse("(2-sqrt2)/8"),
    parse("sqrt2"), parse("-5*sqrt2/3"), Scalar.approximate(0.1), Scalar.approximate(-2.5e-300),
], ids=str)
def test_pickle_round_trip_keeps_value_and_text(x):
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is Scalar and y.is_exact == x.is_exact
    assert y == x and str(y) == str(x)


def test_equal_values_built_on_different_paths_are_one_value():
    halves = [Scalar(Fraction(1, 2)), quotient(2, 4), HALF, parse("2/4"),
              quotient(-3, -6), Scalar(1) / 2, Scalar(Fraction(3, 4)) - Fraction(1, 4)]
    tsirelson = [quotient(ZSqrt2(2, 2), 4), parse("(1+sqrt2)/2"),
                 Scalar.quadratic(HALF.a, HALF.a), (Scalar(3) + SQRT2 * 3) / 6,
                 -parse("1/(2-2*sqrt2)")]
    for group, text in ((halves, "1/2"), (tsirelson, "(1+1*sqrt2)/2")):
        for x in group:
            assert str(x) == text
            assert x == group[0] and hash(x) == hash(group[0])


def test_as_scalar_coercions():
    assert as_scalar(3) == Scalar(3)
    assert as_scalar(Fraction(1, 3)) == Scalar(Fraction(1, 3))
    assert not as_scalar(0.5).is_exact
    assert as_scalar("1/2") == Scalar(Fraction(1, 2))
    with pytest.raises(TypeError):
        as_scalar(True)
    with pytest.raises(TypeError):
        as_scalar(object())


@given(exact_scalars, exact_scalars, exact_scalars)
@settings(max_examples=300)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if y != 0:
        assert (x / y) * y == x


@given(exact_scalars, exact_scalars)
@settings(max_examples=300)
def test_ordering_consistent_with_arithmetic(x, y):
    d = (x - y).sign()
    assert x.compare(y) == d
    if d < 0:
        assert x < y and not x >= y
    elif d > 0:
        assert x > y
    else:
        assert x == y


def test_compare_agrees_with_high_precision_floats():
    """10^4 random pairs against a 60-digit decimal evaluation."""
    getcontext().prec = 60
    root2 = Decimal(2).sqrt()

    def dec(s):
        return (
            Decimal(s.a.numerator) / Decimal(s.a.denominator)
            + Decimal(s.b.numerator) / Decimal(s.b.denominator) * root2
        )

    rng = random.Random(20240229)
    for _ in range(10_000):
        x = Scalar(
            Fraction(rng.randint(-500, 500), rng.randint(1, 500)),
            Fraction(rng.randint(-500, 500), rng.randint(1, 500)),
        )
        y = Scalar(
            Fraction(rng.randint(-500, 500), rng.randint(1, 500)),
            Fraction(rng.randint(-500, 500), rng.randint(1, 500)),
        )
        dx, dy = dec(x), dec(y)
        want = 0 if dx == dy else (1 if dx > dy else -1)
        assert x.compare(y) == want


def test_float_conversion():
    x = parse("(3-1*sqrt2)/2")
    assert math.isclose(float(x), (3 - math.sqrt(2)) / 2, rel_tol=0, abs_tol=1e-15)


def test_numpy_ints_become_python_ints():
    # A numpy int kept as a numerator would multiply in int64 and wrap to 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = Scalar(np.int64(2**62))
        assert big * big == 2**124
        assert Scalar(Fraction(np.int64(3), np.int64(4))) * 2**62 == 3 * 2**60
        assert Scalar(np.int64(1), np.int64(2**62)) * big == Scalar(2**62, 2**124)
        assert type(float(big)) is float


# -- ZSqrt2, the integer ring exact decisions run on -------------------------------

def pell_pairs(limit):
    """The Pell pairs ``(a, b)``, ``|a^2 - 2 b^2| = 1``, with ``a <= limit``:
    ``a + b*sqrt2`` with opposite signs is as close to zero as pairs of that
    size get."""
    pairs, (a, b) = [], (1, 1)
    while a <= limit:
        pairs.append((a, b))
        a, b = a + 2 * b, a + b
    return pairs


PELL = pell_pairs(10 ** 4)
signs = st.sampled_from((1, -1))
big = st.integers(-10**12, 10**12)
ring_parts = st.one_of(
    st.tuples(st.just(0), big),
    st.tuples(big, st.just(0)),
    st.just((0, 0)),
    st.builds(lambda ab, sa, sb: (sa * ab[0], sb * ab[1]), st.sampled_from(PELL), signs, signs),
    st.builds(lambda a, b: (a, -b), st.integers(0, 60), st.integers(0, 60)),  # mixed signs
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    st.tuples(big, big),
)
ints = st.one_of(st.integers(-3, 3), big, st.sampled_from([a for a, _ in PELL]))

COMPARISONS = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge)


def decimal_value(a, b):
    """a + b*sqrt2 to 80 digits: far finer than any gap between the values
    drawn here (at least 1/(4 * 10**12), and 1/2^65 for int64 parts)."""
    with localcontext() as ctx:
        ctx.prec = 80
        return Decimal(a) + Decimal(b) * Decimal(2).sqrt()


def ring_results(x, y, n):
    """Every arithmetic result the ring offers on x, y and the int n."""
    return [x + y, x - y, x * y, x + n, n + x, x - n, n - x, x * n, n * x, -x, abs(x)]


def pair_results(x, y, n, sign_x):
    """:func:`ring_results` written out on ``(a, b)`` pairs of Fractions,
    by the Q[sqrt2] rules ``(a + b r) + (c + d r) = (a + c) + (b + d) r``
    and ``(a + b r)(c + d r) = (ac + 2bd) + (ad + bc) r`` for ``r = sqrt2``,
    with ``abs`` taking ``sign_x``, the sign of ``x``."""
    (a, b), (c, d), n = map(Fraction, x), map(Fraction, y), Fraction(n)
    return [
        (a + c, b + d), (a - c, b - d), (a * c + 2 * b * d, a * d + b * c),
        (a + n, b), (n + a, b), (a - n, b), (n - a, -b), (a * n, b * n), (n * a, n * b),
        (-a, -b), (sign_x * a, sign_x * b),
    ]


@given(ring_parts, ring_parts, ints)
@settings(max_examples=500)
def test_zsqrt2_matches_scalar(x, y, n):
    rx, ry, sx, sy = ZSqrt2(*x), ZSqrt2(*y), Scalar(*x), Scalar(*y)
    dx, dy = decimal_value(*x), decimal_value(*y)
    sign_x = (dx > 0) - (dx < 0)
    wants = pair_results(x, y, n, sign_x)
    for got, exact, want in zip(ring_results(rx, ry, n), ring_results(sx, sy, n), wants):
        assert type(got) is ZSqrt2 and type(exact) is Scalar
        assert (got.a, got.b) == (exact.a, exact.b) == want
    assert rx.sign() == sx.sign() == sign_x
    for op in COMPARISONS:
        assert op(rx, ry) == op(sx, sy) == op(dx, dy), op
        assert op(rx, n) == op(sx, n) == op(dx, n), op
        assert op(n, rx) == op(n, sx) == op(n, dx), op


@given(st.lists(st.tuples(ring_parts, ring_parts, ints), min_size=1, max_size=6))
@settings(max_examples=200)
def test_zsqrt2_on_object_arrays_matches_one_value_at_a_time(rows):
    """A ZSqrt2 of object arrays (or of an array and an int, as in a grid
    block) decides each element as the ZSqrt2 of that element does, with
    arrays on either side of every operator."""
    xs, ys, ns = zip(*rows)

    def column(values):
        return np.array(values, dtype=object)

    n = column(ns)
    block = ZSqrt2(column([a for a, _ in xs]), column([b for _, b in xs]))
    others = [
        (ZSqrt2(column([a for a, _ in ys]), column([b for _, b in ys])), ys),
        (ZSqrt2(column([a for a, _ in ys]), ys[0][1]), [(a, ys[0][1]) for a, _ in ys]),
    ]
    for other, parts in others:
        singles = [(ZSqrt2(*x), ZSqrt2(*y), k) for x, y, k in zip(xs, parts, ns)]
        got = ring_results(block, other, n)
        want = [ring_results(*single) for single in singles]
        for i, result in enumerate(got):
            assert type(result) is ZSqrt2
            for part in ("a", "b"):
                values = np.broadcast_to(getattr(result, part), n.shape)
                assert all(type(v) is int for v in values), (i, part)
                assert list(values) == [getattr(w[i], part) for w in want], (i, part)
        assert list(block.sign()) == [x.sign() for x, _, _ in singles]
        for op in COMPARISONS:
            assert list(op(block, other)) == [op(x, y) for x, y, _ in singles], op
            assert list(op(block, n)) == [op(x, k) for x, _, k in singles], op
            assert list(op(n, block)) == [op(k, x) for x, _, k in singles], op


#: The largest parts ``a + b sqrt2`` that ``_sign`` meets in int64: an int64
#: grid keeps every part within ``5 W^4 < 2^63`` (``|a|, |b| sqrt2 <= 2^63 -
#: 1``).  The per-cell guard squares them in int64 only up to
#: ``scalars.SQUARE_A`` and ``SQUARE_B``, in Python ints beyond.
INT64_A = 2 ** 63 - 1
INT64_B = math.isqrt(INT64_A ** 2 // 2)


int64_a, int64_b = st.integers(-INT64_A, INT64_A), st.integers(-INT64_B, INT64_B)
#: Parts at the guard and one past it, on either side.
guard_a = st.sampled_from((scalars.SQUARE_A, scalars.SQUARE_A + 1))
guard_b = st.sampled_from((scalars.SQUARE_B, scalars.SQUARE_B + 1))
int64_cells = st.one_of(
    st.just((0, 0)),
    st.tuples(st.just(0), int64_b),
    st.tuples(int64_a, st.just(0)),
    # opposite signs, |a| within a few units of |b| sqrt2
    st.builds(lambda b, da, s: (s * (math.isqrt(2 * b * b) + da), -s * b),
              st.integers(1, INT64_B - 2), st.integers(-2, 2), signs),
    st.builds(lambda ab, sa, sb: (sa * ab[0], sb * ab[1]),
              st.sampled_from(pell_pairs(INT64_A)), signs, signs),
    st.builds(lambda a, b, sa, sb: (sa * a, sb * b),
              st.one_of(guard_a, st.integers(0, INT64_A)),
              st.one_of(guard_b, st.integers(0, INT64_B)), signs, signs),
    st.tuples(int64_a, int64_b),
)


def decimal_sign(a, b) -> int:
    d = decimal_value(a, b)
    return (d > 0) - (d < 0)


def test_int64_parts_reach_the_grid_bound():
    assert 5 * 36853 ** 4 < 2 ** 63 <= 5 * 36854 ** 4
    assert not regions._fits_int64(36854, [ZSqrt2(0, 0)])
    assert regions._fits_int64(36853, [ZSqrt2(0, 0)])
    assert 5 * 36853 ** 4 <= INT64_A
    # the guard: the largest parts whose squares stay below 2^63
    assert max(scalars.SQUARE_A ** 2, 2 * scalars.SQUARE_B ** 2) < 2 ** 63
    assert min((scalars.SQUARE_A + 1) ** 2, 2 * (scalars.SQUARE_B + 1) ** 2) >= 2 ** 63
    # the Pell pairs drawn straddle it: the closest opposite-sign pairs
    assert pell_pairs(scalars.SQUARE_A)[-1] == (1855077841, 1311738121)
    assert pell_pairs(INT64_A)[-1][0] > scalars.SQUARE_A


@given(st.lists(int64_cells, min_size=1, max_size=48), ints)
@settings(max_examples=300)
def test_sign_kernel_matches_decimal(cells, n):
    """``_sign`` on int64 arrays, on object arrays, on an array beside an
    int part (as in a grid block) and on each pair of Python ints agrees
    with the sign of ``a + b sqrt2`` in 80-digit decimal."""
    a, b = (list(parts) for parts in zip(*cells))
    want = [decimal_sign(x, y) for x, y in cells]
    for dtype in (np.int64, object):
        got = scalars._sign(np.array(a, dtype=dtype), np.array(b, dtype=dtype))
        assert got.dtype == np.int64 and got.tolist() == want, dtype
    assert [scalars._sign(x, y) for x, y in cells] == want
    b0 = max(-INT64_B, min(INT64_B, n))
    for dtype in (np.int64, object):
        got = scalars._sign(np.array(a, dtype=dtype), b0)
        assert got.tolist() == [decimal_sign(x, b0) for x in a], dtype
    assert all(type(scalars._sign(x, y)) is int for x, y in cells)


def test_zsqrt2_abs_keeps_the_parts_dtype():
    parts = np.array([3, -7, 0, -1], dtype=np.int64), np.array([-2, 5, -1, 0], dtype=np.int64)
    magnitude = abs(ZSqrt2(*parts))
    assert magnitude.a.dtype == magnitude.b.dtype == np.int64
    assert (magnitude.a.tolist(), magnitude.b.tolist()) == ([3, -7, 0, 1], [-2, 5, 1, 0])


def test_zsqrt2_rejects_other_number_types():
    x = ZSqrt2(1, 1)
    for other in (Fraction(1, 2), 0.5, Scalar(1)):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other - x
        with pytest.raises(TypeError):
            x < other
    assert x != Fraction(1, 2)


def test_zsqrt2_truth_is_a_nonzero_part():
    assert not ZSqrt2(0, 0)
    assert ZSqrt2(0, 1) and ZSqrt2(-1, 0)
    with pytest.raises(ValueError, match="ambiguous"):
        bool(ZSqrt2(np.array([0, 1], dtype=np.int64), np.zeros(2, dtype=np.int64)))


def test_integers_scales_sqrt2_values_to_ring_pairs():
    low, high = parse("(2-sqrt2)/8"), parse("(2+sqrt2)/8")
    unit, scaled = integers([low, Fraction(1, 3), high, 2])
    # the sqrt2 parts (+-1/8) count towards the common denominator too
    assert unit == 24
    assert [(v.a, v.b) if type(v) is ZSqrt2 else v for v in scaled] == [
        (6, -3), 8, (6, 3), 48,
    ]
    assert integers([Fraction(1, 4), parse("1/6"), 3]) == (12, [3, 2, 36])
    approximate = [parse("0.25"), low]
    assert integers(approximate) == (1, approximate)
