import io
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epr_couplings import regions, scalars, stats
from epr_couplings.model import OutcomeVector
from epr_couplings.scalars import Scalar, as_scalar, integers
from epr_couplings.stats import TSIRELSON_HIGH, TSIRELSON_LOW, Compliance
from test_stats import reference_chsh, reference_qm, reference_tsirelson

QUARTER_SLICE = {"p11": Fraction(1, 4), "p12": Fraction(1, 4)}
CURVED_SLICE = {"p11": Fraction(7, 16), "p12": Fraction(7, 16)}


def test_grid_quarter_slice_all_cells_in_all_regions():
    grid = regions.membership_grid(QUARTER_SLICE, 21)
    counts = grid.counts()
    assert counts == {"chsh": 441, "qm": 441, "tsirelson": 441}
    assert grid.free == ("p21", "p22")


def test_grid_centers_hit_quarter_exactly():
    grid = regions.membership_grid(QUARTER_SLICE, 201)
    assert Fraction(1, 4) in grid.centers
    ix = grid.centers.index(Fraction(1, 4))
    assert grid.flags[ix, ix] == 0b111  # chsh, qm and tsirelson bits


def test_grid_degenerate_boundary_slice():
    grid = regions.membership_grid({"p11": Fraction(1, 2), "p12": Fraction(1, 2)}, 11)
    counts = grid.counts()
    # classical and quantum both collapse to the diagonal x = y here, which
    # equal-index cell centers sit on exactly; Tsirelson stays two-dimensional
    assert counts["chsh"] == 11
    assert counts["qm"] == 11
    assert counts["tsirelson"] > 11


def test_grid_strict_inclusions_on_curved_slice():
    grid = regions.membership_grid(CURVED_SLICE, 41)
    counts = grid.counts()
    assert counts["chsh"] < counts["qm"] < counts["tsirelson"]


SINGLET_LOW = as_scalar("(2-sqrt2)/8")
SINGLET_HIGH = as_scalar("(2+sqrt2)/8")
A, B = Fraction(3, 8), Fraction(1, 8)
SINGLET_PAIRS = {
    "low-low": (SINGLET_LOW, SINGLET_LOW),
    "low-high": (SINGLET_LOW, SINGLET_HIGH),
}
#: The placements of a fixed pair (a, b) that the benchmark's grid slices use.
PLACEMENTS = (("p11", "p12"), ("p12", "p11"), ("p21", "p22"), ("p22", "p21"))
#: A resolution whose rows take more than one grid block, the last one partial.
SPLIT_RESOLUTION = 65
#: Rational slices at resolution 15, each with the fixed values 1/unit and
#: (unit/2 - 1)/unit (r = 4p - 1 at -+(1 - 4/unit)), so on the corner cells
#: (free r at +-14/15) qm_masks's d exceeds 3 unit^4 of its bound 4 W^4
#: (``W = unit`` over Q).  The unit lies just under the int64 rule ``5 W^4 <
#: 2^63`` (``W <= 36853``), just over it, and over ``4 W^4 < 2^63`` (``W <=
#: 38967``) but within the same rule read with ``2^64`` (``W <= 43826``): an
#: int64 block there would wrap ``t^2``.
UNIT_SLICES = {
    f"unit-{unit}": ({"p11": Fraction(1, unit), "p12": Fraction(unit // 2 - 1, unit)}, 15, unit)
    for unit in (36840, 36900, 43800)
}
#: Q[sqrt2] slices whose fixed r = 4p - 1 lie near -unit with conjugates
#: near +unit, so qm_masks's d reaches the edge of its range.  On the cells
#: where d's parts differ in sign, its ``a`` part stays under the per-cell
#: guard ``scalars.SQUARE_A`` on the first slice and passes it, by less than
#: twice, on the second: int64 squares of those parts would wrap.
GUARD_SLICES = {
    "width-164": ({"p11": as_scalar("(21-14*sqrt2)/82"), "p12": as_scalar("(21-14*sqrt2)/82")},
                  41, 164),
    "width-180": ({"p11": as_scalar("(23-15*sqrt2)/90"), "p12": as_scalar("(23-15*sqrt2)/90")},
                  45, 180),
}
#: Q[sqrt2] slices at resolution 3 (unit 12) whose conjugate width W sits
#: just under the int64 rule 5 W^4 < 2^63 (W <= 36853) and just over it:
#: each fixed value lies in [0, 1/2] while its conjugate is near 768.
SQRT2_SLICES = {
    "width-36853": ({"p11": as_scalar("(4610-3257*sqrt2)/12"),
                     "p12": as_scalar("(4610-3257*sqrt2)/12")}, 3, 36853),
    "width-36855": ({"p11": as_scalar("(4609-3258*sqrt2)/12"),
                     "p12": as_scalar("(4609-3258*sqrt2)/12")}, 3, 36855),
}


@pytest.mark.parametrize("fixed, resolution", [
    (CURVED_SLICE, 11),
    ({"p11": A, "p12": B}, 11),
    ({"p12": A, "p11": B}, 11),
    ({"p21": A, "p22": B}, 11),
    ({"p22": A, "p21": B}, 11),
    # fixed values on two different observable pairs
    ({"p11": A, "p21": B}, 11),
    ({"p11": Fraction(1, 2), "p12": Fraction(1, 2)}, 11),
    ({"p11": Fraction(1, 2), "p12": Fraction(3, 8)}, 11),
    *(({first: a, second: b}, 9)
      for a, b in SINGLET_PAIRS.values() for first, second in PLACEMENTS),
    # one rational and one Q[sqrt2] fixed value
    ({"p11": SINGLET_LOW, "p12": Fraction(3, 8)}, 9),
    ({"p21": Fraction(7, 16), "p12": SINGLET_HIGH}, 9),
    # rows split into several blocks, the last one partial
    (CURVED_SLICE, SPLIT_RESOLUTION),
    ({"p22": SINGLET_LOW, "p21": SINGLET_HIGH}, SPLIT_RESOLUTION),
    # the int64 rule over Q, from both sides, and where 2^64 would wrap
    *((fixed, resolution) for fixed, resolution, _ in UNIT_SLICES.values()),
    # the per-cell guard on int64 squares, and the int64 rule on the
    # conjugate width of Q[sqrt2] values, each from both sides
    *((fixed, resolution) for fixed, resolution, _ in GUARD_SLICES.values()),
    *((fixed, resolution) for fixed, resolution, _ in SQRT2_SLICES.values()),
], ids=["curved", "p11-p12", "p12-p11", "p21-p22", "p22-p21", "p11-p21",
        "half-half", "half-3/8",
        *(f"singlet-{name}" + ("" if first == "p11" else f"-{first}-{second}")
          for name in SINGLET_PAIRS for first, second in PLACEMENTS),
        "singlet-low-3/8", "7/16-singlet-high",
        "curved-blocks", "singlet-high-low-blocks", *UNIT_SLICES, *GUARD_SLICES,
        *SQRT2_SLICES])
def test_grid_matches_pointwise_predicates(fixed, resolution):
    grid = regions.membership_grid(fixed, resolution)
    for ix, x in enumerate(grid.centers):
        for iy, y in enumerate(grid.centers):
            values = dict(fixed, **{grid.free[0]: x, grid.free[1]: y})
            p = OutcomeVector(*(values[name] for name in ("p11", "p12", "p21", "p22")))
            want = (
                reference_chsh(p),
                reference_qm(p) is not Compliance.OUTSIDE,
                reference_tsirelson(p),
            )
            f = int(grid.flags[ix, iy])
            assert (bool(f & 1), bool(f & 2), bool(f & 4)) == want, (x, y)


def conjugate_width(fixed, resolution) -> tuple[int, bool]:
    """The slice's conjugate width W and whether it is decided in int64."""
    unit, (*scaled, _) = integers([*fixed.values(), Fraction(1, 4 * resolution)])
    return regions._conjugate_width(unit, scaled), regions._fits_int64(unit, scaled)


def largest_d(fixed, resolution) -> int:
    """The largest ``d = t^2 - x - y`` that qm_masks forms on the cells of a
    rational slice, in Python ints."""
    unit, (*scaled, step) = integers([*fixed.values(), Fraction(1, 4 * resolution)])
    free = [name for name in ("p11", "p12", "p21", "p22") if name not in fixed]
    ds = []
    for i, j in itertools.product(range(resolution), repeat=2):
        values = dict(zip(fixed, scaled), **{free[0]: (2 * i + 1) * step,
                                             free[1]: (2 * j + 1) * step})
        r1, r2, r3, r4 = (4 * values[name] - unit for name in ("p11", "p12", "p21", "p22"))
        x = (unit ** 2 - r1 ** 2) * (unit ** 2 - r2 ** 2)
        y = (unit ** 2 - r3 ** 2) * (unit ** 2 - r4 ** 2)
        ds.append((r1 * r2 - r3 * r4) ** 2 - x - y)
    return max(ds)


def test_unit_slices_straddle_the_int64_bound():
    """Over Q the conjugate width is the unit, so the one rule admits int64
    while ``unit <= 36853``; each slice's d comes near its bound ``4
    unit^4``, and past 2^63 on the last."""
    largest = {}
    for fixed, resolution, unit in UNIT_SLICES.values():
        assert conjugate_width(fixed, resolution) == (unit, unit <= 36853)
        largest[unit] = largest_d(fixed, resolution)
        assert 3 * unit ** 4 < largest[unit] <= 4 * unit ** 4
    under, over, wraps = largest
    assert 2 ** 15 < under <= 36853 < over <= 38967 < wraps <= 43826
    assert 4 * 38967 ** 4 < 2 ** 63 <= 4 * 38968 ** 4
    assert 5 * 43826 ** 4 < 2 ** 64 <= 5 * 43827 ** 4
    assert largest[wraps] >= 2 ** 63


def test_sqrt2_slices_straddle_the_int64_bound():
    for fixed, resolution, width in SQRT2_SLICES.values():
        assert conjugate_width(fixed, resolution) == (width, width <= 36853)
    assert [width for *_, width in SQRT2_SLICES.values()] == [36853, 36855]
    assert 5 * 36853 ** 4 < 2 ** 63 <= 5 * 36854 ** 4


def largest_split_part(fixed, resolution) -> int:
    """The largest ``|a|`` over the int64 cells whose parts ``a``, ``b``
    differ in sign, over every sign the grid takes: the parts the per-cell
    guard decides whether to square in int64."""
    largest = 0
    block_sign = scalars._block_sign

    def recording(a, b):
        nonlocal largest
        if np.result_type(a, b) != object:
            split = np.sign(a) * np.sign(b) < 0
            if split.any():
                parts = np.abs(np.broadcast_to(a, split.shape)[split])
                largest = max(largest, int(parts.max()))
        return block_sign(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalars, "_block_sign", recording)
        regions.membership_grid(fixed, resolution)
    return largest


def test_guard_slices_straddle_the_per_cell_guard():
    for fixed, resolution, width in GUARD_SLICES.values():
        assert conjugate_width(fixed, resolution) == (width, True)
    under, over = (largest_split_part(fixed, resolution)
                   for fixed, resolution, _ in GUARD_SLICES.values())
    assert under <= scalars.SQUARE_A < over <= 2 * scalars.SQUARE_A


def random_fixed_value(rng, field):
    """A fixed value in [0, 1/2]: a rational, or ``(c + d sqrt2)/q`` with a
    sqrt(2) part of up to about 200/q, whose conjugate then lies up to about
    560/q from the value."""
    q = rng.randint(2, 48)
    if field == "rational":
        q = rng.choice((q, rng.randint(200, 2000)))
        return Fraction(rng.randint(0, q // 2), q)
    while True:
        d = rng.choice((-1, 1)) * int(10 ** rng.uniform(0, 2.3))
        c = round(q / 4 - d * 2 ** 0.5) + rng.randint(-q // 4, q // 4)
        value = Scalar(Fraction(c, q), Fraction(d, q))
        if 0 <= value <= HALF:
            return value


def random_unit_slice(rng, low, high):
    """A rational slice and resolution whose unit lies in ``[low, high]``:
    the two fixed values share the denominator ``unit``, a multiple of ``4
    resolution``, with numerators prime to it, each within 1/64 of 0 or of
    1/2 or anywhere in ``[0, 1/2]``."""
    resolution = rng.randint(2, 13)
    step = 4 * resolution
    unit = step * rng.randint(-(-low // step), high // step)
    values = []
    while len(values) < 2:
        lo, hi = rng.choice(((0, unit // 64), (31 * unit // 64, unit // 2), (0, unit // 2)))
        n = rng.randint(lo, hi)
        if math.gcd(n, unit) == 1:
            values.append(Fraction(n, unit))
    return values, resolution


ORDERED_PLACEMENTS = list(itertools.permutations(("p11", "p12", "p21", "p22"), 2))
FIELDS = (("sqrt2", "sqrt2"), ("sqrt2", "rational"), ("rational", "sqrt2"),
          ("rational", "rational"))


def test_int64_flags_equal_object_flags():
    """343 seeded slices, over Q, Q[sqrt2] and both, at all 12 ordered
    placements, on both sides of the int64 rule and of the per-cell guard:
    the grid decided on int64 blocks, where its rule admits them, equals the
    same bodies run on object arrays of Python ints."""
    rng = random.Random(21)
    slices = []
    for k in range(300):
        first, second = ORDERED_PLACEMENTS[k % 12]
        fields = rng.choice(FIELDS)
        fixed = {first: random_fixed_value(rng, fields[0]),
                 second: random_fixed_value(rng, fields[1])}
        slices.append((fixed, rng.randint(2, 13)))
    # rational slices under the rule's unit 36853, and where 2^64 would wrap
    for k, (low, high) in enumerate([(2 ** 15 + 1, 36853), (38968, 43826)] * 20):
        (a, b), resolution = random_unit_slice(rng, low, high)
        first, second = ORDERED_PLACEMENTS[k % 12]
        slices.append(({first: a, second: b}, resolution))
    slices += [(fixed, resolution) for fixed, resolution, _ in UNIT_SLICES.values()]
    grids = [regions.membership_grid(fixed, resolution).flags for fixed, resolution in slices]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regions, "_fits_int64", lambda unit, scaled: False)
        for (fixed, resolution), flags in zip(slices, grids):
            want = regions.membership_grid(fixed, resolution).flags
            assert np.array_equal(flags, want), (fixed, resolution)
    # what the slices cover
    rational = [all(type(v) is Fraction for v in fixed.values()) for fixed, _ in slices]
    sqrt2 = [s for s, over_q in zip(slices, rational) if not over_q]
    widths = [conjugate_width(fixed, resolution) for fixed, resolution in sqrt2]
    assert sum(fits and width > 20000 for width, fits in widths) >= 10
    assert sum(not fits for _, fits in widths) >= 50
    wide = sum(largest_split_part(*s) > scalars.SQUARE_A
               for s, (_, fits) in zip(sqrt2, widths) if fits)
    assert wide >= 50
    units = [integers([*fixed.values(), Fraction(1, 4 * resolution)])[0]
             for (fixed, resolution), over_q in zip(slices, rational) if over_q]
    assert sum(unit <= 2 ** 15 for unit in units) >= 20
    assert sum(2 ** 15 < unit <= 36853 for unit in units) >= 20
    assert sum(unit > 36853 for unit in units) >= 20


def test_conjugate_width_bounds_both_images():
    """W is ``max(unit, ceil(|4a - unit| + 4 |b| sqrt2))`` for a scaled
    value ``a + b sqrt2``, so it bounds ``|4 v - unit|`` and ``|4 conj(v) -
    unit|`` (checked in floats, far from any tie)."""
    for text in ("(2-sqrt2)/8", "(2+sqrt2)/8", "(21-14*sqrt2)/82", "(3+sqrt2)/20", "5/16"):
        value = as_scalar(text)
        unit, (scaled,) = integers([value])
        a, b = float(value.a * unit), float(value.b * unit)
        images = [abs(4 * (a + s * b * 2 ** 0.5) - unit) for s in (1, -1)]
        want = max(unit, math.ceil(abs(4 * a - unit) + 4 * abs(b) * 2 ** 0.5))
        assert regions._conjugate_width(unit, [scaled]) == want >= max(images)


def test_split_resolution_has_a_partial_last_block():
    rows = max(1, regions.BLOCK // SPLIT_RESOLUTION)
    assert 1 < rows < SPLIT_RESOLUTION and SPLIT_RESOLUTION % rows


def test_grid_symmetry_for_equal_fixed_values():
    grid = regions.membership_grid(CURVED_SLICE, 17)
    for ix in range(17):
        for iy in range(17):
            assert grid.flags[ix, iy] == grid.flags[iy, ix]


def test_grid_validation():
    with pytest.raises(ValueError):
        regions.membership_grid({"p11": Fraction(1, 4)}, 11)
    with pytest.raises(ValueError):
        regions.membership_grid({"p11": Fraction(1, 4), "bogus": 0}, 11)
    with pytest.raises(ValueError):
        regions.membership_grid(QUARTER_SLICE, 1)
    # fixed values outside [0, 1/2], and a decimal beside the exact centers
    for fixed, message in [
        ({"p11": Fraction(3, 4), "p12": Fraction(1, 4)}, "p11 = 3/4 outside [0, 1/2]"),
        ({"p21": Fraction(1, 4), "p12": Fraction(-1, 8)}, "p12 = -1/8 outside [0, 1/2]"),
        ({"p11": as_scalar("(1+sqrt2)/4"), "p22": Fraction(1, 4)},
         "p11 = (1+1*sqrt2)/4 outside [0, 1/2]"),
        ({"p11": as_scalar("0.25"), "p12": Fraction(1, 4)},
         "outcome vector mixes exact and approximate scalars"),
    ]:
        with pytest.raises(ValueError) as raised:
            regions.membership_grid(fixed, 5)
        assert str(raised.value) == message


def test_grid_other_fixed_components():
    grid = regions.membership_grid({"p21": Fraction(3, 8), "p22": Fraction(3, 8)}, 9)
    assert grid.free == ("p11", "p12")


def test_csv_format_and_determinism():
    grid = regions.membership_grid(QUARTER_SLICE, 5)
    buf = io.StringIO()
    grid.write_csv(buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == regions.CSV_HEADER == "free_x,free_y,chsh,qm,tsirelson"
    assert len(lines) == 1 + 25
    assert lines[1] == "1/20,1/20,1,1,1"
    buf2 = io.StringIO()
    regions.membership_grid(QUARTER_SLICE, 5).write_csv(buf2)
    assert buf2.getvalue() == text


def test_csv_file_and_json(tmp_path):
    grid = regions.membership_grid(QUARTER_SLICE, 4)
    path = tmp_path / regions.default_grid_filename(QUARTER_SLICE, 4)
    assert path.name == "region_1d4_1d4_4.csv"
    grid.to_csv(path)
    assert path.read_text().startswith("free_x,free_y,")
    assert grid.counts()["chsh"] == 16


HALF = Fraction(1, 2)
#: The two bounds of the CHSH expressions on each linear region.
FACE_BOUNDS = {"chsh": (0, 1), "tsirelson": (TSIRELSON_LOW, TSIRELSON_HIGH)}
REFERENCE = {"chsh": reference_chsh, "tsirelson": reference_tsirelson}


def on_box(x, y) -> bool:
    """The slice point lies on the boundary of [0, 1/2]^2."""
    return x in (0, HALF) or y in (0, HALF)


def on_face(region, p) -> bool:
    """Some CHSH expression of p equals one of the region's bounds exactly."""
    return any(e == bound for e in stats.chsh_expressions(p.components)
               for bound in FACE_BOUNDS[region])


def check_linear_trace(region, fixed, pts):
    """Each traced point is exact, inside the region, and on the box boundary
    or on one of the region's faces."""
    build = regions._vector_builder(*regions._split_components(fixed))
    for x, y in pts:
        assert x.is_exact and y.is_exact
        p = build(x, y)
        assert REFERENCE[region](p), (x, y)
        assert on_box(x, y) or on_face(region, p), (x, y)


def test_trace_chsh_faces_exact():
    fixed = {"p11": Fraction(3, 8), "p12": Fraction(3, 8)}
    pts = regions.trace_boundary("chsh", fixed, 8)
    assert len(pts) == 8
    check_linear_trace("chsh", fixed, pts)
    assert any(not on_box(x, y) for x, y in pts), \
        "expected at least one interior classical facet point"


def test_trace_chsh_faces_on_sqrt2_slice():
    fixed = {"p11": as_scalar("(2-sqrt2)/8"), "p12": as_scalar("(2+sqrt2)/8")}
    pts = regions.trace_boundary("chsh", fixed, 4)
    assert len(pts) == 4
    check_linear_trace("chsh", fixed, pts)


def test_trace_qm_quarter_slice_face_points():
    pts = regions.trace_boundary("qm", QUARTER_SLICE, 3)
    assert len(pts) == 3
    # the quantum region covers this whole slice; boundaries are box faces
    for x, y in pts:
        assert on_box(x, y)
    (x0, y0), (x1, y1), (x2, y2) = pts
    det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    assert abs(det) > Fraction(1, 1000)


def test_trace_qm_curved_slice_interior_points():
    """Each interior point is inside the quantum region, and the point
    2**-64 further along its ray is outside: the bisection's bracket."""
    rays = 8
    pts = regions.trace_boundary("qm", CURVED_SLICE, rays)
    build = regions._vector_builder(*regions._split_components(CURVED_SLICE))
    c, step = Fraction(1, 4), Fraction(1, 2**64)
    interior = 0
    for k, (x, y) in enumerate(pts):
        if on_box(x, y):
            continue
        interior += 1
        tx, ty = regions._perimeter_point(Fraction(k, rays))
        assert reference_qm(build(x, y)) is not Compliance.OUTSIDE, (x, y)
        beyond = build(x + step * (tx - c), y + step * (ty - c))
        assert reference_qm(beyond) is Compliance.OUTSIDE, (x, y)
    assert interior >= 3


def test_trace_tsirelson_interior_points_exact():
    fixed = {"p11": HALF, "p12": Fraction(15, 32)}
    pts = regions.trace_boundary("tsirelson", fixed, 8)
    check_linear_trace("tsirelson", fixed, pts)
    interior = [(x, y) for x, y in pts if not on_box(x, y)]
    assert interior, "expected an interior Tsirelson facet crossing"
    for x, y in interior:
        assert not (x.is_rational and y.is_rational)  # on a face in Q[sqrt2]


def test_trace_degenerate_slice_snaps_to_interior_face():
    # on the (1/2, 1/2) slice the classical region is the diagonal segment;
    # off-diagonal rays collapse to the start point, on the face
    fixed = {"p11": HALF, "p12": HALF}
    pts = regions.trace_boundary("chsh", fixed, 4)
    assert len(pts) == 4
    check_linear_trace("chsh", fixed, pts)
    build = regions._vector_builder(*regions._split_components(fixed))
    for x, y in pts:
        assert on_face("chsh", build(x, y)), (x, y)


def bisect_and_snap(region, fixed, rays):
    """Reference trace of a linear region by search: 64 exact bisection
    steps bracket each exit, then the exit is snapped onto the smallest face
    time in the bracket whose point is inside, or left at the bracket's
    inner end when there is none."""
    bounds = FACE_BOUNDS[region]
    predicate = regions._region_predicate(region)
    build = regions._vector_builder(*regions._split_components(fixed))
    c = Fraction(1, 4)
    points = []
    for k in range(rays):
        tx, ty = regions._perimeter_point(Fraction(k, rays))

        def at(u):
            return (c + u * (tx - c), c + u * (ty - c))

        def inside(u):
            return predicate(build(*at(u)))

        if inside(Fraction(1)):
            points.append((Scalar(tx), Scalar(ty)))
            continue
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(64):
            mid = (lo + hi) / 2
            if inside(mid):
                lo = mid
            else:
                hi = mid
        times = [
            (bound - a0) / (a1 - a0)
            for a0, a1 in zip(stats.chsh_expressions(build(c, c).components),
                              stats.chsh_expressions(build(tx, ty).components))
            if a1 != a0
            for bound in bounds
        ]
        valid = sorted(u for u in times if lo <= u <= hi and inside(u))
        points.append(at(valid[0]) if valid else tuple(map(Scalar, at(lo))))
    return points


@pytest.mark.parametrize("region", ["chsh", "tsirelson"])
@pytest.mark.parametrize("fixed", [
    {"p21": Fraction(3, 8), "p12": Fraction(1, 16)},
    {"p11": as_scalar("(2-sqrt2)/8"), "p12": as_scalar("(2+sqrt2)/8")},
    {"p11": Fraction(1, 2), "p12": Fraction(15, 32)},
    {"p11": Fraction(1, 2), "p12": Fraction(1, 2)},  # degenerate: the center is on a face
], ids=["rational", "sqrt2", "tsirelson-cut", "degenerate"])
def test_linear_traces_equal_bisect_and_snap(region, fixed):
    pts = regions.trace_boundary(region, fixed, 12)
    assert [(str(x), str(y)) for x, y in pts] == [
        (str(x), str(y)) for x, y in bisect_and_snap(region, fixed, 12)
    ]
    half = Fraction(1, 2)
    assert any(0 < x < half and 0 < y < half for x, y in pts)  # some exits cross a face


def test_trace_single_ray():
    pts = regions.trace_boundary("qm", QUARTER_SLICE, 1)
    assert len(pts) == 1
    assert (str(pts[0][0]), str(pts[0][1])) == ("1/2", "1/4")


#: Exact fixed values in [0, 1/2]: lattice fractions and a + b sqrt2 in range.
FIXED_VALUES = st.one_of(
    st.integers(0, 1 << 20).map(lambda k: Scalar(Fraction(k, 1 << 21))),
    st.tuples(st.fractions(-1, 1, max_denominator=64), st.fractions(-1, 1, max_denominator=64))
    .map(lambda ab: Scalar.quadratic(*ab)).filter(lambda v: 0 <= v <= Fraction(1, 2)),
)


@given(FIXED_VALUES, FIXED_VALUES)
@settings(max_examples=60, deadline=None)
def test_every_region_contains_the_trace_start(a, b):
    """The slice point (1/4, 1/4) of a trace lies in all three regions for
    every exact fixed pair in [0, 1/2], at every placement: each CHSH
    expression is a + b or 1/2 +- (a - b), all in [0, 1]."""
    for first, second in itertools.permutations(regions._COMPONENTS, 2):
        fixed, free = regions._split_components({first: a, second: b})
        p = regions._vector_builder(fixed, free)(*regions._CENTER)
        assert all(regions._region_predicate(region)(p) for region in regions.REGIONS)


def test_trace_validation():
    with pytest.raises(ValueError):
        regions.trace_boundary("qm", QUARTER_SLICE, 0)
    with pytest.raises(ValueError):
        regions.trace_boundary("mystery", QUARTER_SLICE, 3)
