from fractions import Fraction
from typing import NamedTuple

import pytest

from epr_couplings import simplex
from epr_couplings.scalars import SQRT2, ZERO, Scalar, integers, quotient
from epr_couplings.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED

F = Fraction


class Solution(NamedTuple):
    status: str
    x: list | None
    objective: Scalar | None
    duals: list[Fraction] | None = None


def _scaled(values):
    """``integers(values)`` for ints, Fractions and Scalars; anything else
    passes as it is, for :func:`simplex.solve_lp` to refuse."""
    if all(isinstance(v, (int, Fraction, Scalar)) for v in values):
        return integers(values)
    return 1, list(values)


def solve_lp(rows, rhs, objective=None):
    """:func:`simplex.solve_lp` on Fraction and Scalar values: the rhs and
    the objective go in scaled, and the point comes back as one Scalar per
    column, the optimum as one Scalar, the duals as Fractions that price
    the objective itself."""
    cost_unit, costs = (1, None) if objective is None else _scaled(objective)
    res = simplex.solve_lp(rows, _scaled(rhs), costs)
    duals = None if res.y is None else [F(v, res.y[0] * cost_unit) for v in res.y[1]]
    if res.x is None:
        return Solution(res.status, None, None, duals)
    unit, cols, weights = res.x
    point = dict(zip(cols, (quotient(w, unit) for w in weights)))
    x = [point.get(j, ZERO) for j in range(len(rows[0]))]
    value = None if costs is None else sum(v * F(c, cost_unit) for v, c in zip(x, costs))
    return Solution(res.status, x, value, duals)


def test_simple_feasible_point():
    res = solve_lp([[1, 1, 1]], [F(1)])
    assert res.status == OPTIMAL
    assert sum(res.x) == 1 and all(v >= 0 for v in res.x)


def test_infeasible():
    res = solve_lp([[1, 1], [1, 0]], [F(1), F(2)])
    assert res.status == INFEASIBLE


def test_negative_rhs_normalization():
    res = solve_lp([[-1, 0], [0, 1]], [F(-3), F(2)])
    assert res.status == OPTIMAL
    assert res.x == [3, 2]


def test_optimize_bounded():
    # max x + 2y st x + y = 1
    res = solve_lp([[1, 1]], [F(1)], objective=[F(1), F(2)])
    assert res.status == OPTIMAL
    assert res.objective == 2
    assert res.x == [0, 1]


def test_optimize_minimize():
    # min x + 2y st x + y = 1, as max -x - 2y
    res = solve_lp([[1, 1]], [F(1)], objective=[F(-1), F(-2)])
    assert res.status == OPTIMAL
    assert res.objective == -1
    assert res.x == [1, 0]


def test_unbounded_detected():
    # max x - y st x - y = 0: x can grow without bound
    res = solve_lp([[1, -1]], [F(0)], objective=[F(1), F(0)])
    assert res.status == UNBOUNDED


def test_redundant_rows_handled():
    rows = [[1, 1], [1, 1], [2, 2]]
    res = solve_lp(rows, [F(1), F(1), F(2)], objective=[F(3), F(1)])
    assert res.status == OPTIMAL
    assert res.objective == 3


def test_degenerate_vertices_terminate():
    # highly degenerate assignment-style system; Bland must not cycle
    rows = [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
    rhs = [F(1, 2), F(1, 2), F(1, 2), F(1, 2)]
    res = solve_lp(rows, rhs, objective=[F(1), F(0), F(0), F(1)])
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_quadratic_field_lp():
    # x + y = sqrt2, x - y = 2 - sqrt2  =>  x = 1, y = sqrt2 - 1
    rows = [[1, 1], [1, -1]]
    rhs = [SQRT2, Scalar(2) - SQRT2]
    res = solve_lp(rows, rhs, objective=[Scalar(1), Scalar(0)])
    assert res.status == OPTIMAL
    assert res.x[0] == Scalar(1)
    assert res.x[1] == SQRT2 - 1


def test_quadratic_field_infeasible():
    rows = [[1], [1]]
    rhs = [SQRT2, Scalar(1)]
    assert solve_lp(rows, rhs).status == INFEASIBLE


def test_input_validation():
    with pytest.raises(ValueError):
        solve_lp([[1, 2], [1]], [F(1), F(1)])
    with pytest.raises(ValueError):
        solve_lp([[1, 2]], [F(1), F(2)])
    with pytest.raises(ValueError):
        solve_lp([[1, 2]], [F(1)], objective=[F(1)])
