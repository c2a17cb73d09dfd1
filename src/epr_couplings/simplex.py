"""Exact Bland-rule simplex on a tableau of Python ints, and the
fraction-free pivot it shares with the support elimination in :mod:`.lp`.

Solves  find/maximize x >= 0  subject to  A x = b  for an int matrix A, b
over Q or Q[sqrt(2)] (scaled once by :func:`~.scalars.integers` into one or
two int columns) and a rational objective.  Each row is its textbook row
times a positive scale, so signs read straight off the ints, ratios compare
by cross-multiplication, and the pivots are the textbook ones (Edmonds, J.
Res. NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968).  Phase 1 minimizes the
sum of one artificial per row, phase 2 minus the objective; Bland's
smallest-index rule picks every pivot, so the degenerate boundary cases
terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational
from typing import Sequence

from .scalars import ZERO, Scalar, ZSqrt2, integers, quotient

__all__ = ["LPResult", "column_value", "int_columns", "pivot", "solve_lp"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list | None = None
    objective: object | None = None


def pivot(tab: list[list[int]], r: int, c: int) -> None:
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


def column_value(cells: Sequence[int]):
    """The int or ZSqrt2 that :func:`int_columns` split into ``cells``."""
    return ZSqrt2(*cells) if len(cells) == 2 else cells[0]


def solve_lp(
    rows: Sequence[Sequence[int]], rhs: Sequence, objective: Sequence | None = None
) -> LPResult:
    """Solve ``A x = b, x >= 0`` exactly, optionally maximizing ``objective``
    (negate it to minimize).

    ``rows`` holds ints; ``rhs`` ints, Fractions or exact Scalars;
    ``objective`` rationals; anything else raises ValueError.  With no
    objective the result is any basic feasible point (or the INFEASIBLE
    status).  ``x`` and ``objective`` come back as Scalars.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged constraint matrix")
    if not all(isinstance(a, int) for r in rows for a in r):
        raise ValueError("constraint rows must hold ints")
    if not all(isinstance(v, (Rational, Scalar)) for v in [*rhs, *(objective or [])]):
        raise ValueError("rhs and objective take ints, Fractions or Scalars")
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    if objective is not None and len(objective) != n:
        raise ValueError("objective length does not match column count")
    unit, scaled = integers(rhs)
    if any(type(v) not in (int, ZSqrt2) for v in scaled):
        raise ValueError("the right-hand side must be exact")
    if objective is not None:
        cost_unit, costs = integers(objective)
        if any(type(v) is not int for v in costs):
            raise ValueError("the objective must be rational")

    width = n + m  # structural + artificial columns; then the rhs column(s)
    tab: list[list[int]] = []
    for i, (row, v, cells) in enumerate(zip(rows, scaled, int_columns(scaled))):
        s = -1 if v < 0 else 1
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
                        column_value(tab[i][width:]) * tab[leave][enter]
                        - column_value(tab[leave][width:]) * a
                    )
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
            if leave < 0:
                return UNBOUNDED
            pivot(tab, leave, enter)
            basis[leave] = enter

    status = run_bland(width)
    assert status == OPTIMAL  # phase 1 is bounded below by zero
    if any(basis[i] >= n and any(tab[i][width:]) for i in range(m)):
        return LPResult(INFEASIBLE)  # an artificial is still positive

    # Drive remaining zero-valued artificials out of the basis; rows with no
    # structural pivot available are redundant and keep theirs at zero.
    for i in range(m):
        if basis[i] >= n:
            basis[i] = next((j for j in range(n) if tab[i][j]), basis[i])
            if basis[i] < n:
                pivot(tab, i, basis[i])

    if objective is not None:
        # Phase 2: minimize -objective over the structural columns; pivoting
        # again on the basic ones prices out the cost row.
        tab[m] = [-v for v in costs]
        for i, j in enumerate(basis):
            if j < n:
                pivot(tab, i, j)
        if run_bland(n) == UNBOUNDED:
            return LPResult(UNBOUNDED)
    x = [ZERO] * n
    for row, j in zip(tab, basis):
        if j < n:
            x[j] = quotient(column_value(row[width:]), row[j] * unit)
    if objective is None:
        return LPResult(OPTIMAL, x=x)
    total = sum((c * v for c, v in zip(costs, x) if c), ZERO)
    return LPResult(OPTIMAL, x=x, objective=total / cost_unit)
