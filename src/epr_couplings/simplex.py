"""Exact Bland-rule simplex on a tableau of Python ints, and the
fraction-free Gauss-Jordan elimination that solves :mod:`.lp`'s supports.

Solves  find/maximize costs . x  over x >= 0  subject to  A x = b  for int
A and costs on lp's scaled ints: b as :func:`~.scalars.integers` scales it
(over Q[sqrt(2)], two int columns) in, the scaled basic point out.  Rows
are textbook rows times positive scales, so signs read straight off the
ints, ratios compare by cross-multiplication, and the pivots are the
textbook ones (Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math. Comp. 22,
1968).  Phase 1 minimizes the sum of one artificial per row, phase 2 minus
the cost; Bland's smallest-index rule picks every pivot, so degenerate
boundary cases terminate.  The artificial columns keep ``B^-1``, so each
answer comes with its duals: a Farkas ray, or the bound an optimum attains.

:func:`eliminate` runs the simplex's drive-out step (:func:`_drive_out`) on
the narrow tableau ``[A | b]``; a column becomes a pivot exactly when it is
independent of the columns before it, as in column-order elimination.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .scalars import ZSqrt2

__all__ = ["LPResult", "eliminate", "int_columns", "solve_lp"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult(NamedTuple):
    status: str
    x: tuple[int, list[int], list] | None = None
    y: tuple[int, list[int]] | None = None


def _pivot(tab: list[list[int]], r: int, c: int) -> None:
    """Pivot ``tab`` on row ``r``, column ``c``, fraction-free: make
    ``tab[r][c]`` positive (``pv``), then replace every other row whose
    column-``c`` entry ``f`` is nonzero by ``(pv/g) row - (f/g) tab[r]``,
    ``g = gcd(pv, f)``, divided by its content.  ``pv/g > 0``, so each row
    keeps the sign of its scale.  A shorter row (the simplex's cost row)
    stays as long as it is."""
    prow = tab[r]
    if prow[c] < 0:
        tab[r] = prow = [-v for v in prow]
    pv = prow[c]
    for i, row in enumerate(tab):
        f = row[c]
        if i != r and f:
            g = math.gcd(pv, f)
            a, b = pv // g, f // g
            new = [a * x - b * y for x, y in zip(row, prow)]
            content = math.gcd(*new)
            tab[i] = [x // content for x in new] if content > 1 else new


def int_columns(scaled: Sequence) -> list[list[int]]:
    """``integers``' scaled values as rows of int column entries: ``[v]``
    each, or ``[a, b]`` each once any value has a sqrt(2) part."""
    if any(type(v) is ZSqrt2 for v in scaled):
        return [[v.a, v.b] if type(v) is ZSqrt2 else [v, 0] for v in scaled]
    return [[v] for v in scaled]


def _column_value(cells: Sequence[int]):
    """The int or ZSqrt2 that :func:`int_columns` split into ``cells``."""
    return ZSqrt2(*cells) if len(cells) == 2 else cells[0]


def _basic_point(tab: list[list[int]], pivots, width: int, unit: int) -> tuple:
    """``(unit * lcm, cols, weights)``: each pivot ``(i, c)``, ``tab[i][c] >
    0``, whose rhs cells ``tab[i][width:]`` are nonzero sets ``x_c = cells /
    (tab[i][c] * unit)``, all over ``unit`` times the lcm of those pivots."""
    rows = [(tab[i], c) for i, c in pivots if any(tab[i][width:])]
    lcm = math.lcm(*(row[c] for row, c in rows))
    weights = [_column_value(row[width:]) * (lcm // row[c]) for row, c in rows]
    return unit * lcm, [c for _, c in rows], weights


def _drive_out(tab: list[list[int]], basis: list[int], n: int) -> None:
    """Pivot each row ``i`` with no structural pivot (``basis[i] >= n``) on
    its first nonzero column ``j < n``, if any, and set ``basis[i] = j``."""
    for i in range(len(basis)):
        if basis[i] >= n:
            j = next((j for j in range(n) if tab[i][j]), None)
            if j is not None:
                _pivot(tab, i, j)
                basis[i] = j


def eliminate(rows: list[list[int]], rhs: tuple) -> tuple[int, list[int], list] | None:
    """``A x = b`` solved on the columns Gauss-Jordan elimination makes
    basic, ``rhs`` as :func:`solve_lp` takes it: the scaled point ``(unit,
    cols, weights)`` that :func:`solve_lp` returns, unproven (a weight may be
    negative), or None when the system is inconsistent."""
    unit, scaled = rhs
    n = len(rows[0]) if rows else 0
    tab = [row + cells for row, cells in zip(rows, int_columns(scaled))]
    basis = [n] * len(tab)
    _drive_out(tab, basis, n)
    if any(j >= n and any(row[n:]) for row, j in zip(tab, basis)):
        return None
    return _basic_point(tab, enumerate(basis), n, unit)


def solve_lp(rows: list[list[int]], rhs: tuple, costs: list[int] | None = None) -> LPResult:
    """Solve ``A x = b, x >= 0`` exactly, optionally maximizing ``costs . x``
    (negate them to minimize).

    ``rows`` and ``costs`` hold ints and ``rhs = (unit, scaled)`` ints or
    ZSqrt2s; anything else raises ValueError.  ``x`` is a basic feasible
    point (none when INFEASIBLE), as :func:`_basic_point` reads it.  ``y =
    (k, duals)``, k times the last phase's ``c_B B^-1`` in the caller's row
    signs, is a Farkas ray when INFEASIBLE (``duals . b > 0 >= duals .
    A_j``), else given costs ``duals . A_j >= k costs_j``, ``duals . b = k max``.
    """
    unit, scaled = rhs
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged constraint matrix")
    if not all(isinstance(a, int) for r in [*rows, costs or []] for a in r):
        raise ValueError("constraint rows and costs must hold ints")
    if any(type(v) not in (int, ZSqrt2) for v in scaled):
        raise ValueError("the scaled right-hand side must hold ints or ZSqrt2s")
    if len(scaled) != m or (costs is not None and len(costs) != n):
        raise ValueError("rhs or cost length does not match the matrix")

    width = n + m  # structural + artificial columns; then the rhs column(s)
    signs = [-1 if v < 0 else 1 for v in scaled]
    tab: list[list[int]] = []
    for i, (row, s, cells) in enumerate(zip(rows, signs, int_columns(scaled))):
        tab.append([s * a for a in row] + [int(k == i) for k in range(m)] + [s * c for c in cells])
    basis = list(range(n, width))
    # tab[m] is the cost row, updated by every pivot.  Phase 1 prices the
    # artificials 1 on an all-artificial basis: d_j = [j artificial] - sum_i T[i][j].
    tab.append([(j >= n) - sum(column) for j, column in zip(range(width), zip(*tab))])

    def run_bland(allowed_width: int) -> str:
        while True:
            cost = tab[m]
            enter = next((j for j in range(allowed_width) if cost[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave = -1
            for i in range(m):
                a = tab[i][enter]
                if a <= 0:
                    continue
                if leave >= 0:
                    # b_i/a against b_leave/a_leave; both denominators are positive
                    diff = (
                        _column_value(tab[i][width:]) * tab[leave][enter]
                        - _column_value(tab[leave][width:]) * a
                    )
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
            if leave < 0:
                return UNBOUNDED
            _pivot(tab, leave, enter)
            basis[leave] = enter

    def duals(price) -> tuple[int, list[int]]:
        # Row i of B^-1 is tab[i][n:width] over tab[i][basis[i]] > 0.
        priced = [(tab[i], j, c) for i, j in enumerate(basis) if (c := price(j))]
        k = math.lcm(*(row[j] for row, j, _ in priced))
        return k, [s * sum(c * (k // row[j]) * row[n + t] for row, j, c in priced)
                   for t, s in enumerate(signs)]

    status = run_bland(width)
    assert status == OPTIMAL  # phase 1 is bounded below by zero
    if any(basis[i] >= n and any(tab[i][width:]) for i in range(m)):
        # an artificial is still positive: phase 1's duals are a Farkas ray
        return LPResult(INFEASIBLE, y=duals(lambda j: int(j >= n)))

    # Rows with no structural pivot available are redundant and keep their
    # zero-valued artificial.
    _drive_out(tab, basis, n)

    if costs is not None:
        # Phase 2: minimize -costs over the structural columns; pivoting
        # again on the basic ones prices out the cost row.
        tab[m] = [-v for v in costs]
        for i, j in enumerate(basis):
            if j < n:
                _pivot(tab, i, j)
        if run_bland(n) == UNBOUNDED:
            return LPResult(UNBOUNDED)
    # An artificial still basic sits on a redundant row, whose cells are zero.
    x = _basic_point(tab, enumerate(basis), width, unit)
    y = None if costs is None else duals(lambda j: costs[j] if j < n else 0)
    return LPResult(OPTIMAL, x, y)
