import collections
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from epr_couplings.model import OutcomeVector
from epr_couplings.qm import Settings, _excess, maximize_chsh, parse_angle, qm_outcomes
from epr_couplings.scalars import Scalar
from epr_couplings.stats import Compliance, qm_compliant, tsirelson_satisfied

TSIRELSON_UPPER = (1 + math.sqrt(2)) / 2


def test_parse_angle():
    assert parse_angle("pi/4") == Fraction(1, 4)
    assert parse_angle("-pi/4") == Fraction(-1, 4)
    assert parse_angle("3*pi/4") == Fraction(3, 4)
    assert parse_angle("3pi/4") == Fraction(3, 4)
    assert parse_angle("pi") == Fraction(1)
    assert parse_angle("0") == Fraction(0)
    assert parse_angle("1.5") == 1.5
    assert parse_angle("1/2*pi/3") == Fraction(1, 6)
    with pytest.raises(ValueError):
        parse_angle("tau/4")
    for text in ("pi/0", "1/0*pi", "0/0pi"):
        with pytest.raises(ValueError, match=f"angle '{re.escape(text)}' has a zero denominator"):
            parse_angle(text)


def test_aligned_axes_never_agree():
    p = qm_outcomes(Settings.planar("0", "pi/2", "0", "pi/2"))
    assert p.p11 == 0  # same axis: perfect anti-correlation
    assert p.p22 == 0
    assert p.is_exact


def test_opposite_axes_always_agree():
    p = qm_outcomes(Settings.planar("0", "pi", "pi", "0"))
    assert p.p11 == Fraction(1, 2)
    assert p.p22 == Fraction(1, 2)
    assert p.p12 == 0 and p.p21 == 0


def test_angle_example_exact():
    p = qm_outcomes(Settings.planar("0", "pi/2", "pi/4", "-pi/4"))
    assert p.is_exact
    low = Scalar.quadratic(Fraction(1, 4), Fraction(-1, 8))
    high = Scalar.quadratic(Fraction(1, 4), Fraction(1, 8))
    assert p.components == (low, low, low, high)
    assert qm_compliant(p) is Compliance.BOUNDARY


def test_pi_over_three_is_exact():
    p = qm_outcomes(Settings.planar("0", "pi/3", "pi/3", "2*pi/3"))
    assert p.is_exact
    assert p.p11 == Fraction(1, 8)  # cos(pi/3) = 1/2


def test_pi_over_six_falls_back_to_floats():
    p = qm_outcomes(Settings.planar("0", "pi/6", "pi/6", "pi/2"))
    assert not p.is_exact
    assert math.isclose(float(p.p11), (1 - math.sqrt(3) / 2) / 4, abs_tol=1e-12)


def test_rotational_invariance():
    rng = random.Random(3)
    for _ in range(50):
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        offset = rng.uniform(0, 2 * math.pi)
        p1 = qm_outcomes(Settings.planar(*angles))
        p2 = qm_outcomes(Settings.planar(*(a + offset for a in angles)))
        for a, b in zip(p1.components, p2.components):
            assert abs(float(a) - float(b)) < 1e-12


def test_quantum_predictions_satisfy_their_own_characterization():
    rng = random.Random(4)
    for _ in range(300):
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        p = qm_outcomes(Settings.planar(*angles))
        assert qm_compliant(p) is not Compliance.OUTSIDE
        assert tsirelson_satisfied(p)


def rational_axis(rng, plane: bool) -> tuple:
    """An exact unit vector by inverse stereographic projection of a
    rational point: of (s, 0) for an axis in the x-z plane, else of (s, t)."""
    s = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    t = 0 if plane else Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    n = 1 + s * s + t * t
    return (2 * s / n, 2 * t / n, (s * s + t * t - 1) / n)


@pytest.mark.parametrize("plane", [False, True], ids=["3d", "plane"])
def test_exact_singlet_predictions_from_rational_axes(plane):
    """Singlet predictions p_ij = (1 - a_i.b_j)/4 from exact rational axes:
    never outside Landau's region, always within Tsirelson's bound, and on
    the boundary exactly for some coplanar settings."""
    rng = random.Random(5 + plane)
    seen = collections.Counter()
    for _ in range(1000):
        a1, a2, b1, b2 = (rational_axis(rng, plane) for _ in range(4))
        assert all(sum(c * c for c in v) == 1 for v in (a1, a2, b1, b2))
        p = OutcomeVector(*(
            (1 - sum(x * y for x, y in zip(a, b))) / 4 for a in (a1, a2) for b in (b1, b2)
        ))
        verdict = qm_compliant(p)
        assert verdict is not Compliance.OUTSIDE, p
        assert tsirelson_satisfied(p), p
        seen[verdict] += 1
    if plane:
        assert seen[Compliance.BOUNDARY] > 0, seen


def test_vector_settings():
    s = Settings.from_vectors([0, 0, 2], [2, 0, 0], [1, 0, 1], [0, 1, 0])
    p = qm_outcomes(s)
    assert not p.is_exact
    # <a1|b1> = 1/sqrt2 after normalization
    assert math.isclose(float(p.p11), (1 - 1 / math.sqrt(2)) / 4, abs_tol=1e-12)
    assert qm_compliant(p) is not Compliance.OUTSIDE
    with pytest.raises(ValueError):
        Settings.from_vectors([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])
    with pytest.raises(ValueError):
        Settings.from_vectors([1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_settings_are_refused(bad):
    with pytest.raises(ValueError, match="angle .* is not finite"):
        Settings.planar(0, bad, "pi/4", "-pi/4")
    with pytest.raises(ValueError, match=r"measurement axis \[0.0, .*, 1.0\] is not finite"):
        Settings.from_vectors([0, bad, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1])


def test_angle_beyond_the_float_range_is_refused():
    with pytest.raises(ValueError, match=r"angle 10{400} is not finite"):
        Settings.planar(0, 10 ** 400, "pi/4", "-pi/4")


def test_axis_beyond_the_float_range_is_refused():
    with pytest.raises(ValueError, match=r"measurement axis \[0, 10{400}, 1\] is not finite"):
        Settings.from_vectors([0, 10 ** 400, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1])


def test_maximize_chsh_reaches_tsirelson_bound():
    start = time.monotonic()
    settings, value = maximize_chsh(64, 3)
    elapsed = time.monotonic() - start
    v = float(value)
    assert abs(v - TSIRELSON_UPPER) <= 1e-6
    assert v <= TSIRELSON_UPPER + 1e-9
    assert elapsed < 60
    # the winning settings reproduce the value through the exact pipeline
    p = qm_outcomes(settings)
    total = sum(float(c) for c in p.components)
    exprs = [total - 2 * float(c) for c in p.components]
    assert abs(max(abs(e - 0.5) for e in exprs) + 0.5 - v) < 1e-12


def test_excess_on_floats_equals_the_array_objective():
    """The refinement's float objective (``math.cos``, builtin ``max``) is
    the grid's array objective at the same angles, within 1e-15: the two
    cosines may round differently in the last bits, never by more."""
    rng = random.Random(7)
    angles = [[rng.uniform(-7.0, 7.0) for _ in range(3)] for _ in range(500)]
    grid = _excess(*(np.array(column) for column in zip(*angles)))
    for (a2, b1, b2), want in zip(angles, grid.tolist()):
        got = _excess(a2, b1, b2)
        assert type(got) is float
        assert got == pytest.approx(want, rel=0, abs=1e-15)


def test_maximize_chsh_coarse_never_exceeds_bound():
    _, value = maximize_chsh(8, 0)
    assert float(value) <= TSIRELSON_UPPER + 1e-9


def test_maximize_chsh_lower_bound_via_angle_example():
    p = qm_outcomes(Settings.planar("0", "pi/2", "pi/4", "-pi/4"))
    total = p.p11 + p.p12 + p.p21 + p.p22
    expr = total - 2 * p.p22
    assert expr == Scalar.quadratic(Fraction(1, 2), Fraction(-1, 2))  # (1-sqrt2)/2


def test_maximize_chsh_resolution_validation():
    with pytest.raises(ValueError):
        maximize_chsh(4)
