"""The integer Bland simplex against the dense Fraction/Scalar tableau it
replaced, kept here as the reference.  Both pivot by the same rules, and in
exact arithmetic the pivots coincide, so status, x and objective must be
equal, not merely close."""

from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from epr_couplings.scalars import SQRT2, Scalar, as_scalar
from epr_couplings.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED
from test_simplex import solve_lp

F = Fraction


def fraction_solve_lp(rows, rhs, objective=None, maximize=True):
    """Bland's rule on a dense tableau over Fraction (and Scalar, for a
    Q[sqrt2] rhs): phase 1 on one artificial per row, the artificials left
    at zero driven out, then phase 2 on the structural columns.  Returns
    ``(status, x, objective)``."""
    m, n = len(rows), len(rows[0])
    width = n + m
    tab = []
    for i in range(m):
        b = F(rhs[i]) if isinstance(rhs[i], int) else rhs[i]
        sign = -1 if b < 0 else 1
        tab.append([sign * F(v) for v in rows[i]] + [F(int(k == i)) for k in range(m)] + [sign * b])
    basis = list(range(n, width))
    d = [int(n <= j < width) - sum(row[j] for row in tab) for j in range(width + 1)]

    def pivot(r, c):
        pv = tab[r][c]
        tab[r] = prow = [v / pv for v in tab[r]]
        for i in range(m):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], prow)]
        f = d[c]
        d[:] = [a - f * b for a, b in zip(d, prow)]
        basis[r] = c

    def run_bland(allowed):
        while True:
            enter = next((j for j in range(allowed) if d[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave, best = -1, None
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][width] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter)

    run_bland(width)
    if -d[width] > 0:
        return INFEASIBLE, None, None
    for i in range(m):
        if basis[i] >= n:
            c = next((j for j in range(n) if tab[i][j] != 0), None)
            if c is not None:
                pivot(i, c)

    def extract():
        x = [F(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][width]
        return x

    if objective is None:
        return OPTIMAL, extract(), None
    cost = [(-1 if maximize else 1) * F(v) for v in objective]
    d[:] = cost + [0] * (width + 1 - n)
    for i in range(m):
        if basis[i] < n and cost[basis[i]] != 0:
            d[:] = [a - cost[basis[i]] * b for a, b in zip(d, tab[i])]
    if run_bland(n) == UNBOUNDED:
        return UNBOUNDED, None, None
    return OPTIMAL, extract(), d[width] if maximize else -d[width]


FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=6)
ENTRIES = st.sampled_from([-1, 0, 0, 1, 1, 2])
WEIGHTS = st.sampled_from([F(0), F(0), F(0), F(1, 3), F(1, 2), F(1)])


@st.composite
def lp_systems(draw):
    """A small int matrix (entries of both signs, so negative rhs and
    unbounded directions occur), a rhs over Q or Q[sqrt2] that is either
    ``A x0`` for a point ``x0`` with mostly zero entries (a degenerate
    vertex, where ratio tests tie and artificials stay basic at zero) or
    arbitrary, sometimes one redundant row (a combination of two others),
    and an optional rational objective."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    sqrt2 = draw(st.booleans())

    def number(part):
        return Scalar(draw(part), draw(part)) if sqrt2 else draw(part)

    if draw(st.booleans()):
        x0 = [number(WEIGHTS) for _ in range(n)]
        rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
    else:
        rhs = [number(FRACTIONS) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        k, l = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(1, 2))
        rows.append([s * a + t * b for a, b in zip(rows[k], rows[l])])
        rhs.append(s * rhs[k] + t * rhs[l])
    objective = draw(st.none() | st.lists(FRACTIONS, min_size=n, max_size=n))
    return rows, rhs, objective, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(lp_systems())
@example(([[-1, 0], [0, 1]], [F(-3), F(2)], [F(1), F(1)], True)).via("negative rhs")
@example(([[1, 1], [1, 1], [2, 2]], [F(1), F(1), F(2)], [F(3), F(1)], True)).via("redundant rows")
@example((
    [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], [F(1, 2)] * 4,
    [F(1), F(0), F(0), F(1)], True,
)).via("degenerate vertex")
@example(([[1, -1]], [F(0)], [F(1), F(0)], True)).via("unbounded objective")
@example((
    [[-1, 0, 0], [2, 2, 0], [1, 2, 0]], [F(0)] * 3, [F(0), F(-1), F(-1)], False,
)).via("artificial driven out on a negative entry")
@example((
    [[2, -1, 2, 1, 0, 1], [1, -1, 1, 1, 1, 2], [1, 0, 0, 1, 1, 1]], [F(1), F(2), F(3, 2)],
    [F(1), F(-1), F(1), F(1), F(-1), F(2)], True,
)).via("ratio-test tie")
@example(([[1, 1], [1, -1]], [SQRT2, 2 - SQRT2], [F(1), F(0)], False)).via("Q[sqrt2] rhs")
def test_integer_simplex_matches_fraction_tableau(system):
    rows, rhs, objective, maximize = system
    status, x, value = fraction_solve_lp(rows, rhs, objective, maximize)
    event(status)
    # solve_lp only maximizes: a minimum is minus the maximum of -objective
    sign = 1 if maximize else -1
    got = solve_lp(rows, rhs, None if objective is None else [sign * v for v in objective])
    assert got.status == status
    assert got.x == (None if x is None else [as_scalar(v) for v in x])
    assert got.objective == (None if value is None else as_scalar(sign * value))

    # The duals certify the answer: a Farkas ray when infeasible, and when
    # optimal, a bound on every column that the optimum attains.
    def dot(values):
        return sum((y * as_scalar(v) for y, v in zip(got.duals, values)), as_scalar(0))

    if status == INFEASIBLE:
        assert dot(rhs) > 0
        assert all(dot(column) <= 0 for column in zip(*rows))
    elif status == OPTIMAL and objective is not None:
        assert all(dot(column) >= sign * c for column, c in zip(zip(*rows), objective))
        assert dot(rhs) == got.objective


@pytest.mark.parametrize(
    "rows, rhs, objective",
    [
        ([[1, F(1, 2)]], [F(1)], None),
        ([[1, 1]], [0.5], None),
        ([[1, 1]], [Scalar.approximate(0.5)], None),
        ([[1, 1]], [F(1)], [1.0, 0]),
        ([[1, 1]], [F(1)], [SQRT2, 0]),
    ],
    ids=["fraction-row", "float-rhs", "approximate-rhs", "float-objective", "sqrt2-objective"],
)
def test_solve_lp_rejects_inexact_input(rows, rhs, objective):
    with pytest.raises(ValueError):
        solve_lp(rows, rhs, objective)
