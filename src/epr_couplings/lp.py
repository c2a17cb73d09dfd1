"""Coupling feasibility as exact linear programming.

A set of marginal specs turns into the equality system ``M q = P`` over the
256 nonnegative coupling weights: one row per distinct "all listed variables
equal +1" probability, keyed by the subset's canonical mask
(:func:`~.model.subset_mask`), which is also the row's pattern: column ``j``
has a 1 exactly when ``j & mask == mask``.  The empty subset, mask 0, gives
the normalization row, whose entries are all 1.  Feasibility of that system
decides whether the marginals admit a joint coupling; adding the four
observable-pair rows with right-hand side p asks whether a specific outcome
vector is admitted.

Verdicts are always exact.  A float LP solver (HiGHS) proposes every answer
and exact arithmetic proves it: a witness ``q >= 0`` that reproduces every
row, a rationalized Farkas ray for infeasibility, or -- for
:func:`optimize` -- rationalized duals bounding the objective together with
a witness that attains the bound.  Every proof runs on the integer kernel
of :mod:`.scalars`: :func:`~.scalars.integers` scales the right-hand side,
the point and the duals by a positive common unit to ints, or to ZSqrt2
pairs over Q[sqrt(2)], whose one sign rule decides.  ``M`` is 0/1, so
elimination on the reported support runs fraction-free over the integers,
with a ZSqrt2 entry ``a + b*sqrt2`` split into the two int columns ``a``
and ``b``.  Its pivot, :func:`~.simplex.pivot`, is also the pivot of the
exact Bland simplex on its int tableau.  Floats only choose which columns
and duals get checked.  The exact Bland simplex is the cold fallback: it
decides when a proof fails (logging one WARNING with the reason, the exact
right-hand side and, for a non-optimal HiGHS status, the simplex iteration
count, on the ``epr_couplings.lp`` logger) and when ``engine="exact"``
asks for it.

Each row structure keeps two HiGHS models, built on first use: phase 1
over ``[M | I]`` and the coupling model over M alone for :func:`optimize`.
A solve only sets the row bounds (and, for ``optimize``, the costs), then
runs the dual simplex without presolve from a cold start, so each proposal
depends on its own LP alone, never on the queries before it.  A lock
serializes the solves on one model across threads.  Where scipy lacks the
private ``scipy.optimize._highspy._core`` bindings, the same proposals come
from :func:`scipy.optimize.linprog` with the same options.  scipy is
imported by the first solve, so code that never solves an LP never loads it.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy.optimize import OptimizeResult

from .model import (
    N_ASSIGNMENTS,
    OUTCOME_PAIRS,
    CouplingTable,
    MarginalSpec,
    OutcomeVector,
    subset_mask,
    subset_name,
    subset_order,
)
from .scalars import ONE, ZERO, Scalar, as_scalar, integers, quotient
from .simplex import INFEASIBLE, OPTIMAL, column_value, int_columns, pivot, solve_lp

__all__ = [
    "ConstraintSystem",
    "ConflictingMarginalsError",
    "InfeasibleSystemError",
    "FeasibilityResult",
    "build_system",
    "feasible",
    "optimize",
    "OUTCOME_PAIRS",
]

_log = logging.getLogger(__name__)


class ConflictingMarginalsError(ValueError):
    """Two specs assign different values to the same marginal probability."""


class InfeasibleSystemError(ValueError):
    """The constraint system admits no coupling at all."""


_PAIR_MASKS = tuple(subset_mask(pair) for pair in OUTCOME_PAIRS)


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows of the coupling LP: one (subset mask, rhs) pair per subset; the
    row's columns are the assignments ``j`` with ``j & mask == mask``."""

    masks: tuple[int, ...]
    rhs: tuple[Scalar, ...]


def _augmented_system(
    specs: Iterable[MarginalSpec], p: OutcomeVector | None
) -> ConstraintSystem:
    """The rows of ``specs`` (each in :meth:`~.model.MarginalSpec.rows` order)
    and of ``p``'s four pairs, merged by mask; the first conflict raises."""
    rows: dict[int, Scalar] = {0: ONE}
    items = [row for spec in specs for row in spec.rows()]
    if p is not None:
        items.extend(zip(_PAIR_MASKS, p.components))
    for mask, value in items:
        seen = rows.setdefault(mask, value)
        if seen is not value and seen != value:
            raise ConflictingMarginalsError(
                f"marginal Pr[{subset_name(mask) or '()'} = +1] assigned both "
                f"{seen} and {value}"
            )
    order = sorted(rows, key=subset_order)
    return ConstraintSystem(tuple(order), tuple(rows[m] for m in order))


def build_system(specs: Iterable[MarginalSpec]) -> ConstraintSystem:
    """Deduplicated constraint rows for the given marginals.

    Rows are ordered by :func:`~.model.subset_order`: by subset size, then
    by variable position, the empty (normalization) subset first.
    Conflicting assignments raise.
    """
    return _augmented_system(specs, None)


class FeasibilityResult:
    """Feasibility verdict plus (for feasible systems) an exact witness.

    The witness coupling is certified against every constraint row at solve
    time; the 256-entry table object itself is materialized lazily.
    """

    __slots__ = ("feasible", "engine", "_x", "_witness")

    def __init__(self, feasible: bool, x: dict[int, Scalar] | None, engine: str):
        self.feasible = feasible
        self.engine = engine
        self._x = x
        self._witness: CouplingTable | None = None

    @property
    def witness(self) -> CouplingTable | None:
        if self._x is not None and self._witness is None:
            self._witness = CouplingTable(
                tuple(self._x.get(j, ZERO) for j in range(N_ASSIGNMENTS))
            )
        return self._witness

    def __bool__(self) -> bool:
        return self.feasible

    def __repr__(self) -> str:
        return f"FeasibilityResult(feasible={self.feasible}, engine={self.engine!r})"


# -- cached per-structure data ---------------------------------------------------


class _Model:
    """``min cost.q`` subject to ``a_eq q = b``, ``q >= 0`` for one fixed
    matrix; :func:`linprog` builds its HiGHS model on first use and reuses
    it under ``lock``."""

    __slots__ = ("a_eq", "cost", "highs", "lock")

    def __init__(self, a_eq: np.ndarray, cost: np.ndarray):
        self.a_eq = a_eq
        self.cost = cost
        self.highs = None
        self.lock = threading.Lock()


class _Structure(NamedTuple):
    masks: tuple[int, ...]
    col_rows: tuple[tuple[int, ...], ...]  # per column of M, its rows
    phase1: _Model  # [M | I]: the identity columns are slacks priced 1
    coupling: _Model  # M alone, for optimize


_STRUCTURE_CACHE: dict[tuple, _Structure] = {}


def _structure(masks: tuple[int, ...]) -> _Structure:
    """Per-column rows and the two LP models of a row structure."""
    hit = _STRUCTURE_CACHE.get(masks)
    if hit is not None:
        return hit
    m = len(masks)
    rows = np.array(masks)[:, None]
    pattern = (np.arange(N_ASSIGNMENTS) & rows) == rows  # M, as bools
    a = np.hstack([pattern, np.eye(m)])
    col_rows = tuple(tuple(np.flatnonzero(column).tolist()) for column in pattern.T)
    entry = _Structure(
        masks,
        col_rows,
        _Model(a, np.concatenate([np.zeros(N_ASSIGNMENTS), np.ones(m)])),
        _Model(a[:, :N_ASSIGNMENTS], np.zeros(N_ASSIGNMENTS)),
    )
    if len(_STRUCTURE_CACHE) > 64:
        _STRUCTURE_CACHE.clear()
    _STRUCTURE_CACHE[masks] = entry
    return entry


# -- exact certification on the integer kernel -----------------------------------


def _is_witness(masks: Sequence[int], rhs: Sequence[Scalar], x: dict[int, Scalar]) -> bool:
    """Exact check that x >= 0 and every row sums to its rhs, on x and the
    rhs scaled together by one common unit (ints, or ZSqrt2 over Q[sqrt2])."""
    _, scaled = integers([*x.values(), *rhs])
    weights = list(zip(x, scaled))
    if any(w < 0 for _, w in weights):
        return False
    return all(
        sum(w for j, w in weights if (j & mask) == mask) == want
        for mask, want in zip(masks, scaled[len(x):])
    )


def _solve_on_support(
    masks: Sequence[int], rhs: Sequence[Scalar], cols: list[int]
) -> dict[int, Scalar] | None:
    """Exact solution of M[:, cols] x = rhs by fraction-free Gauss-Jordan
    elimination; None when it fails to produce a nonnegative solution of
    the full system.  The rhs is scaled by its common denominator ``d``
    into one or two int columns (M is already 0/1), every pivot is the
    exact simplex's :func:`~.simplex.pivot`, and only the final
    ``x_c = t / (pivot * d)`` become Scalars."""
    m = len(masks)
    n = len(cols)
    d, scaled = integers(rhs)
    aug = [
        [1 if (c & mask) == mask else 0 for c in cols] + cells
        for mask, cells in zip(masks, int_columns(scaled))
    ]
    piv = []
    for c in range(n):
        r = len(piv)
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is not None:
            aug[r], aug[pr] = aug[pr], aug[r]
            pivot(aug, r, c)
            piv.append(c)
    if any(any(aug[i][n:]) for i in range(len(piv), m)):
        return None
    x = {
        cols[c]: quotient(column_value(t), aug[i][c] * d)
        for i, c in enumerate(piv)
        if any(t := aug[i][n:])
    }
    return x if _is_witness(masks, rhs, x) else None


class _Uncertified(Exception):
    """HiGHS's answer could not be proven exactly; the message says why."""


def _rationalize(values: Sequence[float], sign: int = 1) -> list[Fraction]:
    if not np.isfinite(values).all():
        raise _Uncertified("HiGHS returned non-finite duals")
    return [sign * Fraction(v).limit_denominator(1 << 24) for v in values]


def _farkas(col_rows, rhs: Sequence[Scalar], duals: Sequence[float]) -> bool:
    """True when some rationalization of the float duals proves infeasibility:
    y.b > 0 (in Q[sqrt2]) with y.A_j <= 0 for every column, decided on y and
    b each scaled to ints (or ZSqrt2) by a positive unit."""
    _, b = integers(rhs)
    for flip in (1, -1):
        _, y = integers(_rationalize(duals, flip))
        if sum(yi * bi for yi, bi in zip(y, b)) > 0 and all(
            sum(y[i] for i in rows) <= 0 for rows in col_rows
        ):
            return True
    return False


def _support(x: np.ndarray, threshold: float) -> list[int]:
    return [j for j in range(N_ASSIGNMENTS) if x[j] > threshold]


#: The options ``linprog(method="highs", options={"presolve": False})`` sets.
#: Presolve is off: on LPs this small it costs more than it saves.
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("presolve", "off"),
    ("highs_debug_level", 0),
    ("simplex_strategy", 1),  # dual simplex
)


_UNLOADED = object()
#: scipy's private ``scipy.optimize._highspy._core`` HiGHS bindings, imported
#: by the first solve (so scipy is imported only then); None where scipy
#: lacks them.
_core = _UNLOADED


def _highs_bindings():
    global _core
    if _core is _UNLOADED:
        try:  # private bindings; older scipy releases lack them
            from scipy.optimize._highspy import _core as core
        except ImportError:
            core = None
        _core = core
    return _core


def _new_highs(model: _Model):
    from scipy.sparse import csc_array

    highs = _core._Highs()
    for name, value in _HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    a = csc_array(model.a_eq)
    m, n = a.shape
    problem = _core.HighsLp()
    problem.num_col_ = problem.a_matrix_.num_col_ = n
    problem.num_row_ = problem.a_matrix_.num_row_ = m
    problem.a_matrix_.format_ = _core.MatrixFormat.kColwise
    problem.a_matrix_.start_ = a.indptr
    problem.a_matrix_.index_ = a.indices
    problem.a_matrix_.value_ = a.data
    problem.col_cost_ = model.cost
    problem.col_lower_ = np.zeros(n)
    problem.col_upper_ = np.full(n, _core.kHighsInf)
    problem.row_lower_ = problem.row_upper_ = np.zeros(m)
    highs.passModel(problem)
    return highs


def linprog(model: _Model, b: np.ndarray, cost: np.ndarray | None = None) -> OptimizeResult:
    """HiGHS on ``model`` with right-hand side ``b`` (and ``cost`` in place
    of the model's own): the one float proposal behind every certified
    answer.  The result has :func:`scipy.optimize.linprog`'s ``status``
    (0 optimal, 2 infeasible, 4 otherwise), ``fun``, ``x``,
    ``eqlin.marginals`` and ``nit``, the simplex iteration count.

    The persistent model takes only the new row bounds and costs, and
    ``clearSolver`` drops its basis, so the dual simplex starts cold as
    ``linprog`` does and proposes the same answer bit for bit.  (``linprog``
    also re-checks residuals after HiGHS, which :func:`_certify` subsumes.)
    Without the private bindings this is that ``linprog`` call."""
    import scipy.optimize

    core = _highs_bindings()
    if core is None:
        return scipy.optimize.linprog(
            model.cost if cost is None else cost, A_eq=model.a_eq, b_eq=b,
            bounds=(0, None), method="highs", options={"presolve": False},
        )
    with model.lock:
        highs = model.highs
        if highs is None:
            highs = model.highs = _new_highs(model)
        for i, v in enumerate(b.tolist()):
            highs.changeRowBounds(i, v, v)
        if cost is not None:
            highs.changeColsCost(len(cost), np.arange(len(cost), dtype=np.int32), cost)
        highs.clearSolver()
        highs.run()
        model_status = highs.getModelStatus()
        res = scipy.optimize.OptimizeResult(
            status=(
                0 if model_status == core.HighsModelStatus.kOptimal
                else 2 if model_status == core.HighsModelStatus.kInfeasible
                else 4
            ),
            fun=None, x=None, eqlin=scipy.optimize.OptimizeResult(marginals=None),
            nit=highs.getInfoValue("simplex_iteration_count")[1],
        )
        if res.status == 0:
            solution = highs.getSolution()
            res.fun = highs.getObjectiveValue()
            res.x = np.array(solution.col_value)
            res.eqlin.marginals = np.array(solution.row_dual)
    return res


def _status_reason(res) -> str:
    return f"HiGHS status {res.status} after {res.nit} simplex iterations"


def _certify(structure, rhs: Sequence[Scalar], b: np.ndarray, objective):
    """HiGHS proposes, exact arithmetic proves: ``(x, value)`` with ``x``
    None for an infeasible system and ``value`` the optimum when
    ``objective`` is given.  Raises :class:`_Uncertified` otherwise."""
    masks, col_rows, phase1, coupling = structure
    if objective is None:
        res = linprog(phase1, b)
        if res.status != 0:
            raise _Uncertified(_status_reason(res))
        if res.fun < 1e-7:
            x = _solve_on_support(masks, rhs, _support(res.x, 1e-9))
            if x is not None:
                return x, None
        if _farkas(col_rows, rhs, res.eqlin.marginals):
            return None, None
        x = _solve_on_support(masks, rhs, _support(res.x, 1e-12))
        if x is not None:
            return x, None
        raise _Uncertified("neither the support nor the duals prove a verdict")

    res = linprog(coupling, b, -np.array([float(c) for c in objective]))
    if res.status == 2:
        if _certify(structure, rhs, b, None)[0] is None:
            return None, None
        raise _Uncertified("HiGHS reported infeasible, yet a coupling exists")
    if res.status != 0:
        raise _Uncertified(_status_reason(res))
    # eqlin.marginals are d(min -c.q)/db; y = -marginals prices the maximum.
    y = _rationalize(res.eqlin.marginals, -1)
    unit, scaled = integers(y + objective)
    ny, nc = scaled[: len(y)], scaled[len(y):]
    tight = []
    for j, rows in enumerate(col_rows):
        total = sum(ny[i] for i in rows)
        if total < nc[j]:
            raise _Uncertified(f"duals violate y.A_j >= c_j at column {j}")
        if total == nc[j] and res.x[j] > 1e-9:
            tight.append(j)
    x = _solve_on_support(masks, rhs, tight)
    if x is None:
        raise _Uncertified("no witness on the tight support attains the dual bound")
    # y.b == c.x on y, c and b, x each scaled by a unit; the optimum is
    # c.x over the product of the two units.
    point_unit, scaled = integers([*rhs, *x.values()])
    attained = sum(nc[j] * w for j, w in zip(x, scaled[len(rhs):]))
    if sum(yi * bi for yi, bi in zip(ny, scaled)) != attained:
        raise _Uncertified("c.q differs from y.b")
    return x, quotient(attained, unit * point_unit)


def _bland(structure, system: ConstraintSystem, objective):
    """The exact Bland simplex on the same rows, with the same answer shape
    as :func:`_certify`."""
    rows = structure.coupling.a_eq.astype(int).tolist()
    res = solve_lp(rows, system.rhs, objective=objective, maximize=True)
    if res.status == INFEASIBLE:
        return None, None
    if res.status != OPTIMAL:
        raise AssertionError("support query unbounded despite normalization row")
    x = {j: v for j, v in enumerate(res.x) if v}
    if not _is_witness(structure.masks, system.rhs, x):
        raise AssertionError("exact simplex produced an invalid basic solution")
    return x, res.objective


#: Bit k of column j's pattern is set when its assignment sets observable pair k to +1.
_PAIR_PATTERNS = tuple(
    sum(1 << k for k, mask in enumerate(_PAIR_MASKS) if (j & mask) == mask)
    for j in range(N_ASSIGNMENTS)
)


def _objective(direction: Sequence[Fraction]) -> list[Fraction]:
    """``direction . p`` pushed through the coupling: column j gains d_k when
    its assignment sets both variables of observable pair k to +1, so it
    takes the subset sum of ``direction`` over its pattern, one of 16."""
    sums = [Fraction(0)]
    for d in direction:
        sums += [t + d for t in sums]
    return [sums[s] for s in _PAIR_PATTERNS]


def _solve(
    system: ConstraintSystem,
    direction: Sequence[Fraction] | None = None,
    engine: str = "auto",
):
    """The one exact solve behind :func:`feasible` and :func:`optimize`:
    ``(x, value, engine)``, where ``x`` is None for an infeasible system
    and ``value`` is ``max direction . p``."""
    structure = _structure(system.masks)
    objective = None if direction is None else _objective(direction)
    if engine == "auto":
        b = np.array([float(v) for v in system.rhs])
        try:
            return (*_certify(structure, system.rhs, b, objective), "certified-float")
        except _Uncertified as exc:
            rows = "; ".join(
                f"Pr[{subset_name(m) or '()'} = +1] = {v}"
                for m, v in zip(system.masks, system.rhs)
            )
            goal = "" if direction is None else f", maximizing ({', '.join(map(str, direction))}) . p"
            _log.warning(
                "HiGHS answer not certified (%s); exact simplex fallback for rhs [%s]%s",
                exc, rows, goal,
            )
    return (*_bland(structure, system, objective), "exact-simplex")


def _require_exact_inputs(specs: list[MarginalSpec], p: OutcomeVector | None) -> None:
    if any(not s.is_exact for s in specs) or (p is not None and not p.is_exact):
        raise ValueError(
            "LP feasibility requires exact scalars; approximate inputs have "
            "no reliable verdict on boundary cases"
        )


def feasible(
    specs: Iterable[MarginalSpec],
    p: OutcomeVector | None = None,
    *,
    engine: str = "auto",
) -> FeasibilityResult:
    """Decide whether the marginals (plus, optionally, the four observable
    pair probabilities of ``p``) admit a coupling; return an exact witness
    when they do.

    ``"auto"`` certifies the HiGHS answer exactly, over Q or Q[sqrt2]
    (engine ``"certified-float"``), and falls back to the exact simplex
    when that fails; ``engine="exact"`` goes straight to the exact simplex
    (engine ``"exact-simplex"``).  Either way the verdict and any witness
    are exact.
    """
    if engine not in ("auto", "exact"):
        raise ValueError(f"unknown engine {engine!r}")
    specs = list(specs)
    _require_exact_inputs(specs, p)
    x, _, used = _solve(_augmented_system(specs, p), engine=engine)
    return FeasibilityResult(x is not None, x, used)


def _direction_fractions(direction: Sequence) -> list[Fraction]:
    out = []
    for v in direction:
        s = as_scalar(v)
        out.append(s.as_fraction())
    if len(out) != 4:
        raise ValueError("direction needs exactly 4 components")
    return out


def optimize(specs: Iterable[MarginalSpec], direction: Sequence) -> Scalar:
    """Maximize ``direction . p`` over all outcome vectors the marginals admit.

    The objective is pushed through the coupling variables (p is the image of
    the coupling under the four observable-pair rows).  HiGHS proposes the
    optimum; rationalized duals prove the bound and an exact witness attains
    it, so values like ``(1+sqrt2)/2`` are returned exactly.  The exact
    simplex decides only when that proof fails.  Raises
    :class:`InfeasibleSystemError` when no coupling exists.
    """
    specs = list(specs)
    _require_exact_inputs(specs, None)
    system = build_system(specs)
    x, value, _ = _solve(system, _direction_fractions(direction))
    if x is None:
        raise InfeasibleSystemError("the marginal constraints admit no coupling")
    return value
