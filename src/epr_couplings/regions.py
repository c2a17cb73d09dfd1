"""Membership grids and boundary traces on 2D cross-sections of the outcome
cube.

Three nested regions are mapped: outcome vectors satisfying the classical
(CHSH) bounds, the quantum-realizability inequality, and the Tsirelson
bounds.  Two of the four components are fixed; the remaining two span
[0, 1/2] x [0, 1/2].  Grid cells are evaluated at their centers in exact
arithmetic, so an odd resolution puts 1/4 exactly on a sample.

Boundary traces follow rays from the slice point (1/4, 1/4).  The classical
and Tsirelson regions are polytopes, so each exit is computed exactly from
their face equations; only the curved quantum boundary is bisected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, TextIO

import numpy as np

from . import stats
from .model import OutcomeVector
from .scalars import Scalar, ZSqrt2, as_scalar, integers
from .stats import (
    TSIRELSON_HIGH,
    TSIRELSON_LOW,
    Compliance,
    chsh_satisfied,
    qm_compliant,
    tsirelson_satisfied,
)

__all__ = [
    "REGIONS",
    "MembershipGrid",
    "membership_grid",
    "trace_boundary",
    "default_grid_filename",
    "MAX_RESOLUTION",
    "check_resolution",
]

REGIONS = ("chsh", "qm", "tsirelson")
_COMPONENTS = ("p11", "p12", "p21", "p22")

CSV_HEADER = "free_x,free_y,chsh,qm,tsirelson"
#: The CSV line ending for each flag byte: its three 0/1 region columns.
_CSV_FLAGS = tuple(f",{f & 1},{f >> 1 & 1},{f >> 2 & 1}\n" for f in range(8))

#: Cells decided per block of whole grid rows.
BLOCK = 4096

#: The finest membership grid: in one process, 2001^2 cells take 0.35-0.4 s
#: over Q and 0.9-1.1 s over Q[sqrt2] (the singlet slice, unit 16008), both
#: on int64 blocks (2-core VM, Python 3.11, numpy 2.4).
MAX_RESOLUTION = 2001


def _conjugate_width(unit: int, scaled) -> int:
    """``W = max(unit, |4 a - unit| + ceil(4 |b| sqrt2))`` over the scaled
    fixed values ``a + b sqrt2`` (ints or :class:`ZSqrt2`): an int that
    bounds ``|4 v - unit|`` and ``|4 conj(v) - unit|`` for every cell value
    ``v``, since a free value in ``[0, unit/2]`` has ``|4 v - unit| <=
    unit``.  ``32 b^2`` is no square for ``b != 0``, so ``ceil(4 |b| sqrt2)``
    is its isqrt plus one."""
    width = unit
    for v in scaled:
        a, b = (v.a, v.b) if type(v) is ZSqrt2 else (v, 0)
        width = max(width, abs(4 * a - unit) + math.isqrt(32 * b * b) + (b != 0))
    return width


def _fits_int64(unit: int, scaled) -> bool:
    """Whether every term of the region bodies, on the cells of a grid with
    these scaled fixed values, is exact in int64: ``5 W^4 < 2^63``, that is
    ``W <= 36853``, for the conjugate width ``W >= unit`` of
    :func:`_conjugate_width`.

    Proof, for values ``z = a + b sqrt2``; over Q every ``b`` is 0, ``z``
    is its own conjugate and ``W = unit``, since every value lies in ``[0,
    unit/2]``.  ``z -> z`` and ``z -> conj(z)`` are ring maps Z[sqrt2] -> R,
    so each value the bodies compute, a polynomial in ``unit`` and the ``r =
    4 v - unit``, has both images where that polynomial of reals in ``[-W,
    W]`` lies.  The parts ``a = (z + conj z)/2`` and ``b sqrt2 = (z - conj
    z)/2`` are at most the larger image.  A product of values whose images
    lie within ``X`` and ``Y`` forms, in ``ZSqrt2.__mul__``, ``a c``, ``2 b
    d`` (after ``2 b``), ``a d`` and ``b c``, each within ``X Y``, and sums
    them to its own parts.  The CHSH and Tsirelson terms stay within ``27
    W^2`` (``t = 2 e - unit`` within ``5 W``).  In :func:`stats.qm_masks`,
    ``t = r1 r2 - r3 r4`` lies within ``2 W^2``, ``t^2`` within ``4 W^4``,
    ``x`` and ``y`` within ``W^4`` (their factors ``unit^2 - r^2`` within
    ``W^2``), the partial sum ``t^2 - x`` within ``5 W^4``, and ``d =
    unit^2 (r1^2 + r2^2 + r3^2 + r4^2) - 2 unit^4 - 2 r1 r2 r3 r4`` within
    ``4 W^4``; ``e`` is computed in Python ints.  So every part and every
    product of parts lies within ``5 W^4 < 2^63``.  The one square beyond
    that bound, :func:`scalars._sign`'s ``a^2`` and ``2 b^2``, is taken in
    int64 only on the cells whose parts pass its per-cell guard (``|a| <=
    scalars.SQUARE_A``, ``|b| <= scalars.SQUARE_B``, so each square is below
    2^63), and in Python ints on the cells whose parts differ in sign and
    fail it; a cell whose parts agree in sign takes the sign of their sum."""
    return 5 * _conjugate_width(unit, scaled) ** 4 < 2 ** 63


def check_resolution(resolution: int) -> None:
    """Reject a grid resolution outside ``[2, MAX_RESOLUTION]``."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}, got {resolution}")


def _region_predicate(region: str) -> Callable[[OutcomeVector], bool]:
    if region == "chsh":
        return chsh_satisfied
    if region == "qm":
        return lambda p: qm_compliant(p) is not Compliance.OUTSIDE
    if region == "tsirelson":
        return tsirelson_satisfied
    raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")


def _split_components(fixed: Mapping[str, object]):
    names = list(fixed)
    if len(names) != 2 or any(n not in _COMPONENTS for n in names):
        raise ValueError(f"fixed must name two of {_COMPONENTS}, got {names}")
    fixed_vals = {n: as_scalar(fixed[n]) for n in names}
    free = tuple(n for n in _COMPONENTS if n not in fixed_vals)
    return fixed_vals, free


def _ordered(values: Mapping[str, object], free: tuple[str, str], x, y) -> list:
    """``values`` and ``x``, ``y`` on the two free components, in p11..p22 order."""
    named = {**values, free[0]: x, free[1]: y}
    return [named[name] for name in _COMPONENTS]


def _vector_builder(fixed_vals: Mapping[str, Scalar], free: tuple[str, str]):
    return lambda x, y: OutcomeVector(*_ordered(fixed_vals, free, x, y))


@dataclass
class MembershipGrid:
    """Per-cell membership flags for the three regions on one slice."""

    free: tuple[str, str]
    resolution: int
    flags: np.ndarray  # shape (resolution, resolution), bits: 1 chsh, 2 qm, 4 tsirelson

    @cached_property
    def centers(self) -> tuple[Fraction, ...]:
        """The cell centers along each free axis, built on first read."""
        return tuple(_center(k, self.resolution) for k in range(self.resolution))

    def counts(self) -> dict[str, int]:
        return {
            name: int(np.count_nonzero(self.flags & (1 << bit)))
            for bit, name in enumerate(REGIONS)
        }

    def write_csv(self, stream: TextIO) -> None:
        labels = [str(c) for c in self.centers]
        stream.write(CSV_HEADER + "\n")
        for label, row in zip(labels, self.flags.tolist()):
            stream.write("".join(
                f"{label},{y}{_CSV_FLAGS[f]}" for y, f in zip(labels, row)
            ))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            self.write_csv(stream)


def _center(k: int, resolution: int) -> Fraction:
    """The center ``(2k+1) / (4 resolution)`` of cell ``k`` along a free axis."""
    return Fraction(2 * k + 1, 4 * resolution)


def membership_grid(fixed: Mapping[str, object], resolution: int = 201) -> MembershipGrid:
    """Evaluate all three region predicates at every cell center.

    The fixed values are scaled together with the cell centers by
    :func:`scalars.integers`: to Python ints, and a fixed value with a
    sqrt(2) part to a :class:`~.scalars.ZSqrt2` pair of ints.  They are
    checked to lie in ``[0, 1/2]`` on those ints; an outcome vector is built
    only to raise on one that does not, or on an approximate value.  The
    centers ``(2k+1) / (4 resolution)`` share one denominator, so they scale
    to odd multiples of the scaled ``1 / (4 resolution)``.  The grid is
    decided in blocks of ``max(1, BLOCK // resolution)`` whole rows, each by
    one call of each :mod:`stats` body on the row values (shape ``(k, 1)``)
    broadcast against the column (shape ``(1, resolution)``).  The blocks
    are numpy int64 arrays when ``5 W^4 < 2^63`` for the conjugate width
    ``W`` of ``unit`` and the scaled fixed values, which proves every term
    exact (:func:`_fits_int64`): over Q ``W = unit``, so while ``unit <=
    36853``; the singlet slices through ``(2 -+ sqrt2)/8`` have ``W = unit
    = 8 resolution`` at an odd resolution, so every one up to
    :data:`MAX_RESOLUTION` qualifies.  Other grids take object arrays of
    Python ints.  On an int64 block an exact sign squares parts in int64
    only where a per-cell guard admits them (:func:`scalars._block_sign`).  The inclusion chain (classical inside
    quantum inside Tsirelson) is asserted on each block's masks; a violation
    raises.  The grid's ``centers`` are built only when read.
    """
    check_resolution(resolution)
    fixed_vals, free = _split_components(fixed)
    first = _center(0, resolution)
    unit, (*scaled, step) = integers([*fixed_vals.values(), first])
    exact = all(v.is_exact for v in fixed_vals.values())
    if not (exact and all(0 <= 2 * v <= unit for v in scaled)):
        OutcomeVector(*_ordered(fixed_vals, free, first, first))  # raises
    scaled_fixed = dict(zip(fixed_vals, scaled))
    dtype = np.int64 if _fits_int64(unit, scaled) else object
    points = step * np.arange(1, 2 * resolution, 2, dtype=dtype)
    column = points[np.newaxis, :]
    rows = max(1, BLOCK // resolution)
    flags = np.empty((resolution, resolution), dtype=np.uint8)
    for start in range(0, resolution, rows):
        v = _ordered(scaled_fixed, free, points[start:start + rows, np.newaxis], column)
        chsh = stats.chsh_holds(unit, v)
        outside, _ = stats.qm_masks(unit, v)
        tsir = stats.tsirelson_holds(unit, v)
        violated = (chsh & outside) | ~(outside | tsir)
        if violated.any():
            ix, iy = np.argwhere(violated)[0]
            raise AssertionError(
                "inclusion chain violated at cell "
                f"({_center(start + ix, resolution)}, {_center(iy, resolution)})"
            )
        flags[start:start + rows] = chsh + 2 * ~outside + 4 * tsir
    return MembershipGrid(free=free, resolution=resolution, flags=flags)


def default_grid_filename(fixed: Mapping[str, object], resolution: int) -> str:
    fixed_vals, _ = _split_components(fixed)
    parts = [
        str(fixed_vals[n]).replace("/", "d")
        for n in _COMPONENTS
        if n in fixed_vals
    ]
    return f"region_{parts[0]}_{parts[1]}_{resolution}.csv"


# -- boundary tracing ----------------------------------------------------------

_CENTER = (Fraction(1, 4), Fraction(1, 4))


def _perimeter_point(s: Fraction) -> tuple[Fraction, Fraction]:
    """Point on the boundary of [0,1/2]^2 at arc-length fraction s, walking
    counterclockwise from (1/2, 1/4)."""
    half = Fraction(1, 2)
    arc = (s % 1) * 2
    if arc < Fraction(1, 4):
        return (half, Fraction(1, 4) + arc)
    if arc < Fraction(3, 4):
        return (half - (arc - Fraction(1, 4)), half)
    if arc < Fraction(5, 4):
        return (Fraction(0), half - (arc - Fraction(3, 4)))
    if arc < Fraction(7, 4):
        return (arc - Fraction(5, 4), Fraction(0))
    return (half, arc - Fraction(7, 4))


def _face_times(build, cx, cy, tx, ty, bounds) -> list:
    """Parameters u where a CHSH expression equals one of ``bounds`` along
    p(u) = center + u*(target - center); exact Scalars."""
    out = []
    for a0, a1 in zip(stats.chsh_expressions(build(cx, cy).components),
                      stats.chsh_expressions(build(tx, ty).components)):
        beta = a1 - a0
        if beta == 0:
            continue
        for bound in bounds:
            out.append((bound - a0) / beta)
    return out


_FACES = {"chsh": (0, 1), "tsirelson": (TSIRELSON_LOW, TSIRELSON_HIGH)}

#: Exact bisection steps on a ``qm`` boundary ray: the point returned lies
#: within 2**-64 of the ray's length inside the crossing.
BISECTION_STEPS = 64


def trace_boundary(
    region: str,
    fixed: Mapping[str, object],
    rays: int,
) -> list[tuple[Scalar, Scalar]]:
    """Boundary points of a region on a slice, one per ray from (1/4, 1/4).

    Rays aim at ``rays`` points spread uniformly along the slice perimeter.
    If the region reaches the box face along a ray, the face point itself is
    returned (the region's boundary there is the face).  The two linear
    regions are convex and contain the center, so a ray leaves one where a
    face equality first holds: the exit is the largest face time in
    ``[0, 1]`` (:func:`_face_times`) whose point is still inside, exact in
    Q[sqrt2] with no search.  Only the curved ``qm`` boundary is bisected,
    ``BISECTION_STEPS`` times in exact arithmetic, keeping the inner end.
    """
    predicate = _region_predicate(region)
    fixed_vals, free = _split_components(fixed)
    build = _vector_builder(fixed_vals, free)
    cx, cy = _CENTER
    if rays < 1:
        raise ValueError("rays must be positive")

    points: list[tuple[Scalar, Scalar]] = []
    for k in range(rays):
        tx, ty = _perimeter_point(Fraction(k, rays))

        def at(u) -> tuple:
            return (cx + u * (tx - cx), cy + u * (ty - cy))

        def inside(u) -> bool:
            return predicate(build(*at(u)))

        if inside(1):
            u = 1
        elif region in _FACES:
            u = max(
                u for u in _face_times(build, cx, cy, tx, ty, _FACES[region])
                if 0 <= u <= 1 and inside(u)
            )
        else:
            lo, hi = Fraction(0), Fraction(1)
            for _ in range(BISECTION_STEPS):
                mid = (lo + hi) / 2
                if inside(mid):
                    lo = mid
                else:
                    hi = mid
            u = lo
        points.append(at(as_scalar(u)))
    return points

