"""Sign-pattern statistics, inequality families and the compatibility test.

Everything here works on correlations: an outcome vector p maps to
``r_ij = 4 p_ij - 1`` and a connection vector e maps to ``r = 1 - 4 e``.
The two statistics ``s0``/``s1`` are the maxima of ``(+-r1 +-r2 +-r3 +-r4)/4``
over sign patterns with an even (s0) respectively odd (s1) number of plus
signs.  An outcome vector p and a connection vector e admit a joint coupling
exactly when

    s0(e) + s1(p) <= 3/2   and   s1(e) + s0(p) <= 3/2.

Each exact decision has one body, written homogeneously in the components
and their common scale ``unit`` (``0 <= e <= unit``, ``(2e - unit)^2 <=
2 unit^2``, ...).  :func:`scalars.integers` scales the components over
their common denominator ``unit``: over Q to Python ints, over Q[sqrt(2)]
to :class:`~.scalars.ZSqrt2` pairs of Python ints, so every exact decision
runs on integers, never on ``Scalar`` arithmetic.  The region bodies use
only arithmetic, comparisons and ``&``, so they also decide a whole block
of grid cells held in numpy arrays, over Q and over Q[sqrt2] alike: int64
where ``regions.membership_grid`` proves every term fits (while ``5 W^4 <
2^63`` for the bound ``W`` on ``|4 v - unit|`` and its conjugate, ``W =
unit`` over Q, with :func:`scalars._sign` squaring parts in int64 only on
the cells its per-cell guard admits), object arrays of Python ints
otherwise, and :func:`qm_masks` takes its one ``unit^8`` term to Python
ints itself.  On a Q[sqrt2] block the two CHSH-family bodies decide the
four expressions stacked into one array, so a block takes five exact
signs: two for CHSH, one for Tsirelson, two in :func:`qm_masks`.
Approximate (decimal) input takes one toleranced float path instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_

import numpy as np

from .model import ConnectionVector, OutcomeVector, Quadruple
from .scalars import DEFAULT_TOLERANCE, Scalar, ZSqrt2, as_scalar, gather, integers, quotient

__all__ = [
    "Compliance",
    "CorrelationQuad",
    "SPair",
    "s_pair",
    "chsh_satisfied",
    "tsirelson_satisfied",
    "qm_compliant",
    "compatible",
    "enumerate_E0",
    "realize_s_pair",
    "noforcing_counterexample",
    "TSIRELSON_LOW",
    "TSIRELSON_HIGH",
]

#: The two CHSH-expression bounds permitted by quantum mechanics, (1 -+ sqrt2)/2.
TSIRELSON_LOW = Scalar.quadratic(Fraction(1, 2), Fraction(-1, 2))
TSIRELSON_HIGH = Scalar.quadratic(Fraction(1, 2), Fraction(1, 2))


class Compliance(enum.Enum):
    """Ternary classification against the quantum-realizability boundary."""

    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class CorrelationQuad(Quadruple, what="correlation quad", low=-1, high=1):
    """Four correlations in [-1, 1]."""

    r1: Scalar
    r2: Scalar
    r3: Scalar
    r4: Scalar

    @classmethod
    def from_outcomes(cls, p: OutcomeVector) -> CorrelationQuad:
        return cls(*(4 * c - 1 for c in p.components))

    @classmethod
    def from_connections(cls, eps: ConnectionVector) -> CorrelationQuad:
        return cls(*(1 - 4 * c for c in eps.components))

    def to_outcome_vector(self) -> OutcomeVector:
        return OutcomeVector(*((r + 1) / 4 for r in self.components))

    def to_connection_vector(self) -> ConnectionVector:
        return ConnectionVector(*((1 - r) / 4 for r in self.components))


@dataclass(frozen=True)
class SPair:
    """An (s0, s1) pair; always lies in the triangle (0,0)-(1/2,1)-(1,1/2)."""

    s0: Scalar
    s1: Scalar

    def __post_init__(self):
        object.__setattr__(self, "s0", as_scalar(self.s0))
        object.__setattr__(self, "s1", as_scalar(self.s1))
        s0, s1 = self.s0, self.s1
        # scaled to ints or ZSqrt2; approximate values pass through (unit 1)
        unit, (n0, n1, limit) = integers((s0, s1, Fraction(3, 2)))
        ok = (
            0 <= n0 <= unit
            and 0 <= n1 <= unit
            and n0 + n1 <= limit
            and 2 * n1 >= n0
            and 2 * n0 >= n1
        )
        if not ok:
            raise ValueError(f"(s0, s1) = ({s0}, {s1}) outside the attainable triangle")


def _statistics(w) -> tuple:
    """``4 unit (s0, s1)`` from correlations scaled to ``w = r * unit``.

    The larger statistic is the mean of |r_k|, attained at the parity of
    the count of positive components (a zero may count either way); the
    smaller flips the sign of the smallest |r_k|, losing half of it."""
    mags = [abs(c) for c in w]
    big = sum(mags[1:], mags[0])
    small = big - 2 * min(mags)
    if sum(1 for c in w if c > 0) % 2:
        return small, big
    return big, small


def s_pair(r: CorrelationQuad) -> SPair:
    """The maxima of the signed quarter-sums over even and odd plus-count
    patterns, in closed form."""
    unit, w = integers(r.components)
    n0, n1 = _statistics(w)
    return SPair(quotient(n0, 4 * unit), quotient(n1, 4 * unit))


def chsh_expressions(v) -> list:
    """The four CHSH expressions ``v11+v12+v21+v22 - 2 v_ij``."""
    total = v[0] + v[1] + v[2] + v[3]
    return [total - 2 * c for c in v]


def chsh_holds(unit, v):
    """``0 <= e <= unit`` for each CHSH expression ``e`` of ``v``."""
    return _each(lambda e: (0 <= e) & (e <= unit), chsh_expressions(v))


def tsirelson_holds(unit, v):
    """``|e - unit/2| <= unit sqrt2/2``, as ``(2e - unit)^2 <= 2 unit^2``,
    for each CHSH expression ``e`` of ``v``."""
    bound = 2 * unit * unit

    def holds(e):
        t = 2 * e - unit
        return t * t <= bound

    return _each(holds, chsh_expressions(v))


def _each(holds, expressions):
    """``holds(e)`` for every expression ``e``, and-ed together.  On a
    Q[sqrt2] block the four are stacked into one ZSqrt2 whose parts have a
    new first axis (the ``b`` parts are ints on a grid, so only the ``a``
    parts take a ``np.stack``), decided by one call and reduced over that
    axis; elsewhere ``holds`` runs on each."""
    first = expressions[0]
    if type(first) is ZSqrt2 and isinstance(first.a, np.ndarray):
        a = np.stack([e.a for e in expressions])
        b = np.array([e.b for e in expressions], dtype=a.dtype)
        stacked = ZSqrt2(a, b.reshape(b.shape + (1,) * (a.ndim - b.ndim)))
        return holds(stacked).all(axis=0)
    return reduce(and_, map(holds, expressions))


def qm_masks(unit, v) -> tuple:
    """``(outside, boundary)`` of ``|t| <= sqrt(x) + sqrt(y)`` for ``t = r1
    r2 - r3 r4``, ``x = (1-r1^2)(1-r2^2)`` and ``y = (1-r3^2)(1-r4^2)``:
    ``d = t^2 - x - y`` (``|t|^2 = t^2``, so ``|t|`` is never taken) against
    ``2 sqrt(xy)``, then ``e = d^2 - 4xy``.  Both masks hold only where ``d
    >= 0``; there ``d == 0`` forces ``e = -4xy <= 0`` (``|r| <= 1`` makes
    ``x, y >= 0``), so ``outside`` is ``e > 0`` and ``boundary`` is ``e ==
    0``, both read off one sign of ``e``.

    With ``|r| <= unit``, ``d`` lies in ``[-2 unit^4, 4 unit^4]``, but ``e``
    needs about ``unit^8``: it is computed in Python ints, and on a block
    only on the cells where ``d >= 0``."""
    r1, r2, r3, r4 = (4 * c - unit for c in v)
    one = unit * unit
    t = r1 * r2 - r3 * r4
    x = (one - r1 * r1) * (one - r2 * r2)
    y = (one - r3 * r3) * (one - r4 * r4)
    d = t * t - x - y
    near = d >= 0
    d, x, y = (gather(near, part, object) for part in (d, x, y))
    e = d * d - 4 * x * y
    sign = e.sign() if type(e) is ZSqrt2 else e  # over Q, e itself
    return _spread(near, sign > 0), _spread(near, sign == 0)


def _spread(mask, m):
    """``m``, decided on the cells where ``mask`` holds, as a mask of the
    whole block (false elsewhere); ``mask & m`` at a single point."""
    if not isinstance(mask, np.ndarray):
        return mask & m
    out = np.zeros(mask.shape, dtype=bool)
    out[mask] = m
    return out


def chsh_satisfied(p: OutcomeVector) -> bool:
    """0 <= p11+p12+p21+p22 - 2 p_ij <= 1 for all four choices of ij."""
    return chsh_holds(*integers(p.components))


def tsirelson_satisfied(p: OutcomeVector) -> bool:
    """(1-sqrt2)/2 <= p11+p12+p21+p22 - 2 p_ij <= (1+sqrt2)/2 for all ij."""
    unit, v = integers(p.components)
    if not p.is_exact:
        lo, hi = TSIRELSON_LOW.to_approximate(), TSIRELSON_HIGH.to_approximate()
        return all(lo <= e <= hi for e in chsh_expressions(v))
    return tsirelson_holds(unit, v)


def qm_compliant(p: OutcomeVector) -> Compliance:
    """Classify p against |r11 r12 - r21 r22| <= sum of sqrt(1-r^2) products.

    For exact scalars the comparison is staged through squares
    (:func:`qm_masks`), so it stays inside Q[sqrt(2)] and the verdict
    (inside/boundary/outside) is exact.  Approximate scalars are classified
    within ``DEFAULT_TOLERANCE``.
    """
    if not p.is_exact:
        r1, r2, r3, r4 = (4 * c.to_float() - 1 for c in p.components)
        lhs = abs(r1 * r2 - r3 * r4)
        rhs = _sqrt01(r1) * _sqrt01(r2) + _sqrt01(r3) * _sqrt01(r4)
        d = rhs - lhs
        if abs(d) <= DEFAULT_TOLERANCE:
            return Compliance.BOUNDARY
        return Compliance.INSIDE if d > 0 else Compliance.OUTSIDE
    outside, boundary = qm_masks(*integers(p.components))
    if outside:
        return Compliance.OUTSIDE
    return Compliance.BOUNDARY if boundary else Compliance.INSIDE


def _sqrt01(r: float) -> float:
    return (max(0.0, 1.0 - r ** 2)) ** 0.5


def compatible(p: OutcomeVector, eps: ConnectionVector) -> bool:
    """Can p and eps be realized as marginals of one 256-entry coupling?

    Decides s0(eps) + s1(p) <= 3/2 and s1(eps) + s0(p) <= 3/2 on the eight
    components scaled together."""
    unit, v = integers(p.components + eps.components)
    p0, p1 = _statistics([4 * c - unit for c in v[:4]])
    e0, e1 = _statistics([unit - 4 * c for c in v[4:]])
    if not p.is_exact:  # toleranced on the scale of the statistics
        return (e0 + p1) / 4 <= 1.5 and (e1 + p0) / 4 <= 1.5
    return e0 + p1 <= 6 * unit and e1 + p0 <= 6 * unit


def enumerate_E0() -> list[ConnectionVector]:
    """All eight connection vectors with s0 = 1 (each also has s1 = 1/2).

    These are the all-zero vector and the vectors obtained from it by
    replacing any two, or all four, zeros with 1/2.
    """
    half = Fraction(1, 2)
    out = []
    for mask in range(16):
        if bin(mask).count("1") % 2 == 0:
            out.append(
                ConnectionVector(
                    *(Scalar(half if mask & (1 << i) else 0) for i in range(4))
                )
            )
    return out


def realize_s_pair(target: SPair, parity: str) -> CorrelationQuad:
    """Construct correlations whose statistics reproduce ``target`` exactly.

    ``parity`` names the statistic holding the larger value: ``"even"`` for
    s0, ``"odd"`` for s1.  The result is ``(t, t, t, sigma*u)`` with
    ``t = 2(M+m)/3`` and ``u = 2(M-m)`` where M/m are the larger/smaller
    target values; the sign sigma on the distinguished fourth component
    selects the parity.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    s0, s1 = target.s0, target.s1
    if parity == "even" and s0 < s1:
        raise ValueError("parity 'even' requires s0 >= s1 in the target")
    if parity == "odd" and s1 < s0:
        raise ValueError("parity 'odd' requires s1 >= s0 in the target")
    big, small = (s0, s1) if parity == "even" else (s1, s0)
    t = 2 * (big + small) / 3
    u = 2 * (big - small)
    sigma = 1 if parity == "even" else -1
    return CorrelationQuad(t, t, t, sigma * u)


def noforcing_counterexample(eps: ConnectionVector) -> OutcomeVector:
    """An outcome vector compatible with ``eps`` yet not quantum-realizable.

    Exists for every connection vector with s0 < 1.  Construction: put the
    outcome statistics on the edge s0 + s1 = 3/2 of the triangle with
    s0(p) = max(1/2, s0(eps)); both coupling-existence inequalities then
    hold, while s0(p) < 1 forces a strict quantum violation.

    Raises ValueError when s0(eps) = 1: those connection vectors only admit
    quantum-realizable outcomes, so no counterexample exists.
    """
    se = s_pair(CorrelationQuad.from_connections(eps))
    if se.s0 == 1:
        raise ValueError(
            "s0(eps) = 1: every compatible outcome vector is quantum-realizable, "
            "no counterexample exists"
        )
    half = Fraction(1, 2)
    if se.s0 <= half:
        target = SPair(Scalar(half), Scalar(1))
        parity = "odd"
    else:
        s0p = se.s0
        s1p = Fraction(3, 2) - s0p
        parity = "even" if s0p >= s1p else "odd"
        target = SPair(s0p, s1p)
    return realize_s_pair(target, parity).to_outcome_vector()
