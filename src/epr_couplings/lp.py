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
row, a Farkas ray for infeasibility (HiGHS's own dual ray), or -- for
:func:`optimize` -- duals bounding the objective on every column together
with a witness that attains the bound.  Floats only choose what gets checked,
with no tolerance: a witness lies on the columns HiGHS gives positive weight
(its nonbasic weights are exactly 0.0), first as HiGHS's floats rounded to
ints at 12 times the rhs's unit.  Where that point fails, and for rays and
duals, a proof rationalizes HiGHS's floats (the closest fractions with
denominators up to 2**24; a float whose own power-of-two denominator is in
bounds is its own ratio, as ``Fraction.limit_denominator`` returns it, with
no continued fraction), scales the rhs, the point, the duals and the
direction each by its own positive unit to ints (a ZSqrt2 ``a + b*sqrt2`` to
its two int parts; :func:`~.scalars.integers`), and decides each check as
one product with the structure's 0/1 incidence matrix ``M``: ``M x`` for a
witness, ``y M`` on all 256 columns for a Farkas ray or the dual bound, in
int64 where a guard proves it exact, else in Python ints
(:func:`_vector`).  Scalars are built only for answers.  A float has no
recoverable sqrt(2) part, so over Q[sqrt(2)], and wherever a rationalized
point fails its proof, the witness comes from fraction-free elimination on
the same columns instead, :func:`~.simplex.eliminate`, which shares its
pivots and its drive-out step with the exact Bland simplex.  When HiGHS's
answer fails its proof, that simplex proposes on the model and cost HiGHS
solved, folded or full, described once for both.  Both proposers hand their
point, Farkas ray or duals to one answer path, which lifts and proves them:
no answer leaves ``lp`` unproven, and an exact one that fails raises
AssertionError.  It logs one WARNING with that model, the reason, the exact
right-hand side and, for a non-optimal HiGHS status, the simplex iteration
count, on the ``epr_couplings.lp`` logger.

:func:`feasible` folds a system by the global flip when the rows allow it:
every row has at most two variables, each variable of a pair row has its
own singleton row, and every singleton reads exactly 1/2.  Flipping all
eight spins then maps each coupling to another, so the system is feasible
exactly when a flip-symmetric coupling is, and HiGHS solves the folded
model: one weight per orbit ``{c, 255 - c}`` (``c < 128``) and one row per
pair, ``Pr[u = v] = 2 Pr[uv]``, after the normalization -- 9 rows for an
oracle query in place of 17.  Its answer is lifted and proven on the full
rows: a folded witness ``w`` as ``q_c = q_{255-c} = w_c / 2``, a folded
Farkas ray through ``[u = v] = 2[uv] - [u] - [v] + [()]``.  A lifted answer
that fails its proof goes to the exact simplex like any other.
:func:`optimize` folds the same systems when each variable of the four
observable pairs also has its singleton row: there ``[uv] = ([u = v] + [u]
+ [v] - 1) / 2 = [u = v] / 2``, so HiGHS maximizes ``sum_k d_k [u_k = v_k]
/ 2`` over the orbits.  Its duals are lifted as the Farkas ray is, then
each singleton of observable pair k gains ``d_k / 2`` and the
normalization loses it, which prices the full objective; the bound is
checked on all 256 columns and the lifted witness must attain it.  Other
systems solve the full model.

Each row structure keeps one HiGHS model, ``M q = b``, ``q >= 0``, built
on first use and held at zero cost.  A solve writes the row bounds that
differ from the ones the model holds (and :func:`optimize` its costs, for
that solve only), then runs the dual simplex without presolve from a cold
start, so each proposal depends on its
own LP alone, never on the queries before it.  At zero cost the starting
logical basis is dual feasible, so an infeasible system ends on a dual ray,
which is the proposed Farkas ray.  A lock serializes the solves on one
model across threads.  HiGHS is reached through scipy's private bindings,
the extension module ``scipy.optimize._highspy._core`` (scipy >= 1.15).
The first solve loads it alone, found in scipy's directory and registered
under its own name, never the ``scipy.optimize`` package around it, whose
import takes 0.45-0.58 s on a 2-core VM; ``scipy.optimize`` imported later
shares the same module.  HiGHS takes each model row by row from numpy in one
``passModel`` call, so ``scipy.sparse`` is not imported either.  Code that
never solves an LP loads no part of scipy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .model import (
    N_ASSIGNMENTS,
    OUTCOME_PAIRS,
    CouplingTable,
    MarginalSpec,
    OutcomeVector,
    _row_order,
    subset_mask,
    subset_name,
    subset_order,
)
from .scalars import ONE, ZERO, Scalar, ZSqrt2, _sign, as_scalar, integers, quotient
from .simplex import INFEASIBLE, eliminate, int_columns, solve_lp

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
    tables = [(spec.masks, spec.all_plus, _row_order(len(spec.masks))) for spec in specs]
    if p is not None:
        tables.append((_PAIR_MASKS, p.components, range(4)))
    for masks, values, local in tables:
        for i in local:
            seen = rows.setdefault(masks[i], values[i])
            if seen is not values[i] and seen != values[i]:
                raise ConflictingMarginalsError(
                    f"marginal Pr[{subset_name(masks[i]) or '()'} = +1] assigned both "
                    f"{seen} and {values[i]}"
                )
    order = _sorted_masks(tuple(rows))
    return ConstraintSystem(order, tuple(map(rows.__getitem__, order)))


@functools.lru_cache(maxsize=64)
def _sorted_masks(masks: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(masks, key=subset_order))


def build_system(specs: Iterable[MarginalSpec]) -> ConstraintSystem:
    """Deduplicated constraint rows for the given marginals.

    Rows are ordered by :func:`~.model.subset_order`: by subset size, then
    by variable position, the empty (normalization) subset first.
    Conflicting assignments raise.
    """
    return _augmented_system(specs, None)


@dataclass(eq=False, slots=True)
class FeasibilityResult:
    """Feasibility verdict plus (for feasible systems) an exact witness.

    The witness coupling is certified against every constraint row at solve
    time as the scaled point ``(unit, cols, weights)``, ``q_j = w / unit``;
    its weights become Scalars when :attr:`witness` is first read.
    """

    feasible: bool
    _x: tuple[int, list[int], list] | None = field(repr=False)
    engine: str
    _witness: CouplingTable | None = field(default=None, init=False, repr=False)

    @property
    def witness(self) -> CouplingTable | None:
        if self._x is not None and self._witness is None:
            unit, cols, weights = self._x
            x = dict(zip(cols, (quotient(w, unit) for w in weights)))
            self._witness = CouplingTable(tuple(x.get(j, ZERO) for j in range(N_ASSIGNMENTS)))
        return self._witness

    def __bool__(self) -> bool:
        return self.feasible


# -- cached per-structure data ---------------------------------------------------


class _Model:
    """``a_eq q = b``, ``q >= 0`` for one fixed 0/1 matrix, at zero cost
    between solves; :func:`linprog` builds its HiGHS model (at ``b = 0``) on
    first use and reuses it under ``lock``, ``bounds`` the b it holds."""

    __slots__ = ("a_eq", "highs", "lock", "bounds")

    def __init__(self, a_eq: np.ndarray):
        self.a_eq = a_eq
        self.highs = None
        self.lock = threading.Lock()
        self.bounds = [0.0] * len(a_eq)


class _Structure(NamedTuple):
    masks: tuple[int, ...]  # one subset per row; a folded row's variables agree
    incidence: np.ndarray  # M, rows by columns, as int64 0s and 1s
    model: _Model  # M q = b, q >= 0, for feasible and optimize alike
    fold: _Fold | None  # these rows folded by the global flip, where they fold


#: The flip of all eight spins maps assignment j to ``_FLIP - j``; the orbit
#: {c, _FLIP - c} is named by its member ``c < _N_ORBITS`` (A11 = -1).
_FLIP = N_ASSIGNMENTS - 1
_N_ORBITS = N_ASSIGNMENTS // 2


class _Fold(NamedTuple):
    """A row structure folded by the global flip (see the module
    docstring): one weight ``w_c = 2 q_c = 2 q_{255-c}`` per orbit, folded
    row 0 the normalization and folded row k the orbits on which pair k's
    variables agree.  A symmetric coupling meets every singleton row that
    reads 1/2, so those rows are dropped."""

    structure: _Structure  # 128 orbit columns, rows 0 and the pairs
    rows: tuple[int, ...]  # the full row behind each folded row
    singles: tuple[int, ...]  # the full singleton rows, which must read 1/2
    ends: tuple[tuple[int, int], ...]  # per pair row, its singletons' full rows
    size: int  # the full row count
    outcome_ends: tuple[tuple[int, int], ...] | None  # per observable pair, likewise

    def applies(self, rhs: tuple[int, list]) -> bool:
        """Each singleton reads half the normalization: 1/2."""
        scaled = rhs[1]
        return all(2 * scaled[i] == scaled[0] for i in self.singles)

    def rhs(self, scaled: list) -> list:
        """The folded right-hand side, from the scaled one on the full rows:
        the normalization's, then ``2 Pr[uv]`` per pair."""
        return [scaled[0], *(2 * scaled[i] for i in self.rows[1:])]

    def witness(self, w: tuple[int, list[int], list]) -> tuple[int, list[int], list]:
        """The symmetric coupling ``q_c = q_{255-c} = w_c / 2``: each scaled
        weight on both columns of its orbit, over twice the unit."""
        unit, cols, weights = w
        return 2 * unit, cols + [_FLIP - c for c in cols], weights + weights

    def ray(self, y: list) -> list:
        """The folded duals on the full rows, by [u = v] = 2[uv] - [u] - [v]
        + [()]: equal ``y.A_j`` on both columns of an orbit and equal ``y.b``."""
        full = [0] * self.size
        full[0] = sum(y)
        for yk, i, (u, v) in zip(y[1:], self.rows[1:], self.ends):
            full[i] = 2 * yk
            full[u] -= yk
            full[v] -= yk
        return full

    def duals(self, y: list, sums: list) -> list:
        """Duals of the folded cost ``sum_k d_k [u_k = v_k] / 2``, scaled
        with the subset sums of :func:`_objective`, as duals of the full
        cost doubled: the doubled ray, then each singleton of observable
        pair k gains ``2 (d_k / 2) = sums[1 << k]`` and the normalization
        loses it.  ``y.A_j - 2 c_j`` is then twice the folded reduced cost
        of column j's orbit, and ``y.b`` twice the folded ``y.b``."""
        full = self.ray([2 * v for v in y])
        for k, (u, v) in enumerate(self.outcome_ends):
            d = sums[1 << k]
            full[u] += d
            full[v] += d
            full[0] -= d
        return full


def _fold_of(masks: tuple[int, ...]) -> _Fold | None:
    """How ``masks`` fold: when no row has more than two variables and each
    variable of a pair row has its own singleton row.  Every row structure
    starts with the normalization row, mask 0."""
    singles = {mask: i for i, mask in enumerate(masks) if mask.bit_count() == 1}

    def ends_of(pair: int) -> tuple[int, int] | None:
        low = pair & -pair
        if low not in singles or pair ^ low not in singles:
            return None
        return singles[pair ^ low], singles[low]

    rows, ends = [0], []
    for i, mask in enumerate(masks[1:], 1):
        if mask.bit_count() > 2:
            return None
        if mask.bit_count() == 2:
            if (end := ends_of(mask)) is None:
                return None
            rows.append(i)
            ends.append(end)
    outcome_ends = tuple(map(ends_of, _PAIR_MASKS))
    folded = _structure(tuple(masks[i] for i in rows), True)
    return _Fold(
        folded, tuple(rows), tuple(singles.values()), tuple(ends), len(masks),
        None if None in outcome_ends else outcome_ends,
    )


@functools.lru_cache(maxsize=64)
def _structure(masks: tuple[int, ...], folded: bool = False) -> _Structure:
    """The incidence matrix and the LP model of a row structure: over the
    256 assignments, where row ``mask`` holds when all its variables are
    +1, or ``folded`` over the 128 flip orbits, where it holds when they
    agree.  Pass ``folded`` only positionally, as the cache keys a keyword
    apart."""
    rows = np.array(masks)[:, None]
    if folded:
        columns = np.arange(_N_ORBITS) & rows
        pattern = (columns == rows) | (columns == 0)  # M, as bools
    else:
        pattern = (np.arange(N_ASSIGNMENTS) & rows) == rows
    incidence = pattern.astype(np.int64)
    return _Structure(masks, incidence, _Model(incidence), None if folded else _fold_of(masks))


# -- exact certification on the integer kernel -----------------------------------


def _vector(values: list[int], terms: int) -> np.ndarray:
    """``values`` as int64 when ``max|v| * terms < 2**63``, else Python ints:
    each entry of a product with a 0/1 matrix, and each partial sum on the
    way, adds at most ``terms`` values (one more for a subtracted value)."""
    top = max(map(abs, values), default=0)
    return np.array(values, dtype=np.int64 if top * terms < 1 << 63 else object)


def _is_witness(incidence: np.ndarray, rhs: tuple[int, list], x: tuple) -> bool:
    """Exact check that the scaled point ``(x_unit, cols, weights)`` is
    nonnegative and has M x = rhs: ``unit * total == x_unit * scaled[i]``
    on every row and int part (``a``, ``b`` of ``a + b sqrt2``), in ints."""
    unit, scaled = rhs
    x_unit, cols, weights = x
    k = len(cols)
    parts = [[*weights, *scaled]]
    if ZSqrt2 in map(type, parts[0]):
        parts = [list(part) for part in zip(*int_columns(parts[0]))]
    signs = parts[0][:k] if len(parts) == 1 else map(_sign, parts[0][:k], parts[1][:k])
    if min(signs, default=0) < 0:
        return False
    block = incidence.take(cols, axis=1)
    return all(unit * t == x_unit * w
               for part in parts
               for t, w in zip((block @ _vector(part[:k], k)).tolist(), part[k:]))


class _Uncertified(Exception):
    """HiGHS's answer could not be proven exactly; the message says why."""


#: The largest denominator :func:`_rationalize` gives a float, 2**24.
_DENOMINATOR_LIMIT = 1 << 24


def _rationalize(values: Sequence[float]) -> tuple[int, list[int]]:
    """Each float as ``Fraction(v).limit_denominator(_DENOMINATOR_LIMIT)``,
    found as the standard library finds it on plain ints (the float's own
    ratio when its denominator is in bounds, as for a third of HiGHS's
    oracle values; else the last convergent or semiconvergent in bounds of
    its continued fraction), all scaled by their common denominator:
    ``(unit, ints)``."""
    out = []
    for v in values:
        try:
            num, den = n, d = v.as_integer_ratio()
        except (OverflowError, ValueError):
            raise _Uncertified("HiGHS returned non-finite values") from None
        if den > _DENOMINATOR_LIMIT:  # else the float's own ratio is the answer
            p0, q0, p1, q1 = 0, 1, 1, 0
            while True:  # ends before d is 0: the last convergent, num/den, is out of bounds
                a, r = divmod(n, d)
                if q0 + a * q1 > _DENOMINATOR_LIMIT:
                    break
                p0, q0, p1, q1, n, d = p1, q1, p0 + a * p1, q0 + a * q1, d, r
            k = (_DENOMINATOR_LIMIT - q0) // q1
            p, q = p0 + k * p1, q0 + k * q1
            closer = abs(p * den - num * q) * q1 < abs(p1 * den - num * q1) * q
            num, den = (p, q) if closer else (p1, q1)
        out.append((num, den))
    unit = math.lcm(*(q for _, q in out))
    return unit, [p * (unit // q) for p, q in out]


def _witness_on(structure, rhs, proposal: Sequence[float], proof) -> tuple[int, list[int], list] | None:
    """The point with M x = rhs on the columns HiGHS gives positive weight
    (nonbasic weights are exactly 0.0), as ``proof`` returns it once proven
    (or None).  Over a basis B and a rational rhs ``n / unit`` it is ``adj(B)
    n / (det(B) unit)``, so HiGHS's values rounded at ``12 unit`` are exact
    when det(B) divides 12 (97% of oracle witnesses), else rationalized; over
    Q[sqrt2], or when both fail, :func:`~.simplex.eliminate` decides."""
    cols = [j for j, v in enumerate(proposal) if v > 0]
    if ZSqrt2 not in map(type, rhs[1]):
        unit = 12 * rhs[0]
        try:  # a unit or a value beyond the float range rounds to nothing
            x = proof((unit, cols, [round(proposal[j] * unit) for j in cols]))
        except (OverflowError, ValueError):
            x = None
        if x is None:
            unit, weights = _rationalize([proposal[j] for j in cols])
            x = proof((unit, cols, weights))
        if x is not None:
            return x
    x = eliminate(structure.incidence.take(cols, axis=1).tolist(), rhs)
    return None if x is None else proof((x[0], [cols[c] for c in x[1]], x[2]))


def _farkas(incidence: np.ndarray, b: list, y: list) -> bool:
    """True when the scaled duals y, or -y, prove infeasibility: y.b > 0
    (in Q[sqrt2]) for the scaled rhs ``b``, and y.A_j <= 0 on every
    column, one product of y with the incidence matrix."""
    yb = sum(yi * bi for yi, bi in zip(y, b))
    prices = _vector(y, len(y)) @ incidence
    return bool(prices.max() <= 0 if yb > 0 else yb < 0 and prices.min() >= 0)


def _dual_bound(incidence: np.ndarray, y: list, sums: list) -> None:
    """The dual bound as one product: ``y.A_j - sums[_PAIR_PATTERNS[j]]`` on
    every column, raising :class:`_Uncertified` at the first negative one."""
    v = _vector(y + sums, len(y) + 1)
    slack = v[: len(y)] @ incidence - v[len(y):][_PAIR_PATTERNS]
    if slack.min() < 0:
        raise _Uncertified(f"duals violate y.A_j >= c_j at column {int(np.argmax(slack < 0))}")


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
_CORE_NAME = "scipy.optimize._highspy._core"
#: scipy's private HiGHS bindings, the extension module ``_CORE_NAME``,
#: loaded by the first solve without the scipy packages around it.
_core = _UNLOADED
_core_lock = threading.Lock()


def _highs_bindings():
    global _core
    if _core is _UNLOADED:
        with _core_lock:
            if _core is _UNLOADED:
                _core = sys.modules.get(_CORE_NAME) or _load_core()
    return _core


def _load_core():
    """The ``_core`` file in ``<scipy>/optimize/_highspy``, loaded and
    registered in ``sys.modules`` under ``_CORE_NAME``, so that
    ``scipy.optimize`` imported later reuses it.  scipy ships it from 1.15
    on; an older scipy, or none, raises ImportError."""
    scipy = importlib.util.find_spec("scipy")
    places = scipy.submodule_search_locations if scipy is not None else None
    where = [os.path.join(p, "optimize", "_highspy") for p in places or ()]
    spec = importlib.machinery.PathFinder.find_spec(_CORE_NAME, where)
    if spec is None:
        raise ImportError(f"no {_CORE_NAME}: epr-couplings needs scipy >= 1.15")
    core = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(core)
    sys.modules[_CORE_NAME] = core
    return core


def _new_highs(model: _Model):
    """HiGHS holding ``model`` at zero cost, its 1s passed row by row as
    ``np.nonzero`` lists them; a model HiGHS refuses raises RuntimeError."""
    highs = _core._Highs()
    for name, value in _HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    m, n = model.a_eq.shape
    rows, cols = np.nonzero(model.a_eq)
    status = highs.passModel(
        n, m, len(rows), _core.MatrixFormat.kRowwise, _core.ObjSense.kMinimize, 0.0,
        np.zeros(n), np.zeros(n), np.full(n, _core.kHighsInf), np.zeros(m), np.zeros(m),
        np.searchsorted(rows, np.arange(m)).astype(np.int32), cols.astype(np.int32),
        np.ones(len(rows)), np.zeros(n, dtype=np.int32),
    )
    if status != _core.HighsStatus.kOk:
        raise RuntimeError(f"HiGHS refused the {m}-row, {n}-column model: {status}")
    return highs


@dataclass
class _Proposal:
    """HiGHS's answer: ``status`` (0 optimal, 2 infeasible, else 4), the
    simplex iteration count ``nit`` and, if optimal, ``x`` and ``duals`` =
    d min/d b; if infeasible, ``duals`` holds HiGHS's dual ray, the
    proposed Farkas ray (None where HiGHS gives none)."""

    status: int
    nit: int
    x: Sequence[float] | None = None
    duals: Sequence[float] | None = None


def linprog(model: _Model, b: Sequence[float], cost: np.ndarray | None = None) -> _Proposal:
    """HiGHS on ``model`` with right-hand side ``b``, at zero cost or at
    ``cost``: the one float proposal behind every certified answer.

    The persistent model takes only the changed row bounds, and a ``cost``
    only for this solve: the zeros go back before the lock is released.
    ``clearSolver`` drops its basis, so the dual simplex starts cold, from
    the logical basis (dual feasible at zero cost), as scipy's ``linprog``
    does, and proposes the same answer bit for bit.  (``linprog`` also
    re-checks residuals after HiGHS, which :func:`_certify` subsumes.)"""
    core = _highs_bindings()
    with model.lock:
        highs = model.highs
        if highs is None:
            highs = model.highs = _new_highs(model)
        for i, v in enumerate(b):
            if v != model.bounds[i]:
                highs.changeRowBounds(i, v, v)
                model.bounds[i] = v
        if cost is None:
            return _run(core, highs)
        cols = np.arange(len(cost), dtype=np.int32)
        highs.changeColsCost(len(cost), cols, cost)
        try:
            return _run(core, highs)
        finally:
            highs.changeColsCost(len(cost), cols, np.zeros(len(cost)))


def _run(core, highs) -> _Proposal:
    """One cold dual simplex solve of ``highs`` as it stands, read back."""
    highs.clearSolver()
    highs.run()
    model_status = highs.getModelStatus()
    nit = highs.getInfoValue("simplex_iteration_count")[1]
    if model_status == core.HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        return _Proposal(0, nit, solution.col_value, solution.row_dual)
    if model_status == core.HighsModelStatus.kInfeasible:
        _, has_ray, ray = highs.getDualRay()
        return _Proposal(2, nit, None, ray.tolist() if has_ray else None)
    return _Proposal(4, nit)


def _proof(structure, rhs: tuple[int, list], fold, x: tuple) -> tuple | None:
    """``x`` on ``structure`` (lifted there from a folded solve), if it is a
    witness of every row: the one check each proposed point gets."""
    if fold is not None:
        x = fold.witness(x)
    return x if _is_witness(structure.incidence, rhs, x) else None


def _optimum(structure, rhs: tuple[int, list], objective, fold, duals: tuple[int, list], x):
    """``(x, max)``, proven: ``y / unit`` of ``duals = (unit, y)`` prices the
    maximum on the solved model, lifted by ``fold`` it bounds every column,
    and the proven point ``x`` attains that bound.  Raises
    :class:`_Uncertified` otherwise, or when ``x`` is None."""
    y_unit, y = duals
    unit = math.lcm(y_unit, objective[0])
    ny = [unit // y_unit * v for v in y]
    ns = [unit // objective[0] * s for s in objective[1]]
    if fold is not None:
        unit, ny, ns = 2 * unit, fold.duals(ny, ns), [2 * s for s in ns]
    _dual_bound(structure.incidence, ny, ns)
    if x is None:
        raise _Uncertified("no witness on the proposed support")
    # By weak duality x is optimal when c.x == y.b; y and c share one unit, b and
    # x have their own: b_unit * c.x == x_unit * y.b.  The optimum is c.x / (unit * x_unit).
    b_unit, nb = rhs
    x_unit, cols, nx = x
    attained = sum(ns[s] * w for s, w in zip(_PAIR_PATTERNS[cols].tolist(), nx))
    if b_unit * attained != x_unit * sum(yi * bi for yi, bi in zip(ny, nb)):
        raise _Uncertified("c.q differs from y.b")
    return x, quotient(attained, unit * x_unit)


def _answer(structure, rhs: tuple[int, list], objective, fold, ray, x, duals, proposer: str):
    """Every proposer's answer, proven: ``(x, value)``.  A Farkas ``ray``,
    lifted by ``fold`` where given, proves infeasibility (``x`` None); else,
    given an ``objective``, ``duals`` price the optimum ``x`` attains
    (:func:`_optimum`); else the proven point ``x`` is the witness.  Raises
    :class:`_Uncertified` otherwise."""
    if ray is not None:
        if _farkas(structure.incidence, rhs[1], ray if fold is None else fold.ray(ray)):
            return None, None
        raise _Uncertified(f"{proposer} reported infeasible, but its dual ray proves nothing")
    if objective is not None:
        return _optimum(structure, rhs, objective, fold, duals, x)
    if x is None:
        raise _Uncertified("no witness on the proposed support")
    return x, None


def _certify(structure, rhs: tuple[int, list], objective, fold, solved: tuple):
    """HiGHS proposes, :func:`_answer` proves, for the scaled ``rhs``:
    HiGHS solves ``solved``, a structure (``fold``'s where given), its
    scaled rhs and their floats, and the cost of :func:`_solve`."""
    target, target_rhs, b, cost = solved
    res = linprog(target.model, b, None if cost is None else _cost(objective, cost))
    if res.status not in (0, 2):
        raise _Uncertified(f"HiGHS status {res.status} after {res.nit} simplex iterations")
    ray = x = duals = None
    if res.status == 2:  # no dual ray reads as the zero ray, which proves nothing
        ray = [0] * len(b) if res.duals is None else _rationalize(res.duals)[1]
    else:
        x = _witness_on(target, target_rhs, res.x, functools.partial(_proof, structure, rhs, fold))
        if cost is not None:
            # The duals are d(min -c.q)/db; minus them price the maximum.
            y_unit, y = _rationalize(res.duals)
            duals = y_unit, [-v for v in y]
    return _answer(structure, rhs, objective, fold, ray, x, duals, "HiGHS")


#: Bit k of column j's pattern is set when its assignment sets observable pair k to +1.
_PAIR_PATTERNS = np.array([
    sum(1 << k for k, mask in enumerate(_PAIR_MASKS) if (j & mask) == mask)
    for j in range(N_ASSIGNMENTS)
])
#: Bit k of orbit c's pattern is set when pair k is +1 on c or on its flip: it agrees on c.
_AGREE_PATTERNS = _PAIR_PATTERNS[:_N_ORBITS] | _PAIR_PATTERNS[_FLIP - np.arange(_N_ORBITS)]


def _objective(direction: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(unit, sums)``: the 16 subset sums of ``direction`` scaled to ints
    (:func:`~.scalars.integers`), bit k of the index adding d_k.  ``direction
    . p`` pushed through the coupling gives column j the sum at its
    :data:`_PAIR_PATTERNS` entry: d_k for each pair k it sets to +1."""
    unit, scaled = integers(direction)
    sums = [0]
    for d in scaled:
        sums += [t + d for t in sums]
    return unit, sums


def _cost(objective: tuple[int, list[int]], cost: tuple) -> np.ndarray:
    """Minus the cost ``(unit, sums, patterns)`` of :func:`_solve`, as the
    floats HiGHS minimizes: each sum ``n / unit`` over the objective's unit,
    rounded as ``float(Fraction)`` does, then halved where the cost's unit
    is twice that.  A direction whose sums leave the float range is refused."""
    unit, sums = objective
    try:
        values = np.array([s / unit for s in sums])
    except OverflowError:
        direction = ", ".join(str(Fraction(sums[1 << k], unit)) for k in range(4))
        raise ValueError(f"direction ({direction}) is beyond the float range") from None
    return -values[cost[2]] / (cost[0] // unit)


def _bland(structure, rhs: tuple[int, list], objective, fold, solved: tuple):
    """The exact Bland simplex as the second proposer, on the model and
    cost HiGHS solved: its point, Farkas ray or duals go through
    :func:`_answer` as HiGHS's do.  An answer that fails its proof is a bug
    and raises AssertionError."""
    target, target_rhs, _, cost = solved
    costs = None if cost is None else [cost[1][s] for s in cost[2].tolist()]
    res = solve_lp(target.incidence.tolist(), target_rhs, costs)
    ray = res.y[1] if res.status == INFEASIBLE else None
    x = None if res.x is None else _proof(structure, rhs, fold, res.x)
    # y / k prices the integer costs, so y / (k * unit) prices the cost solved.
    duals = None if ray is not None or cost is None else (res.y[0] * cost[0], res.y[1])
    try:
        return _answer(structure, rhs, objective, fold, ray, x, duals, "the exact simplex")
    except _Uncertified as exc:
        raise AssertionError(f"exact simplex answer ({res.status}) not proven: {exc}") from None


def _solve(system: ConstraintSystem, direction: Sequence[Fraction] | None = None):
    """The one exact solve behind :func:`feasible` and :func:`optimize`:
    ``(x, value, engine)``, where ``x`` is None for an infeasible system
    and ``value`` is ``max direction . p``."""
    structure = _structure(system.masks)
    objective = None if direction is None else _objective(direction)
    rhs = integers(system.rhs)
    fold = structure.fold
    if fold is not None and not (fold.applies(rhs) and (objective is None or fold.outcome_ends)):
        fold = None
    target, (unit, scaled), patterns, times = structure, rhs, _PAIR_PATTERNS, 1
    if fold is not None:
        target, scaled, patterns, times = fold.structure, fold.rhs(scaled), _AGREE_PATTERNS, 2
    # The solved cost for both proposers: column j costs sums[patterns[j]] / unit.
    cost = None if objective is None else (times * objective[0], objective[1], patterns)
    # Each solved row's float: int true division rounds a value once, as
    # float(Fraction) and Scalar's own float do.
    b = [n.a / unit + n.b / unit * math.sqrt(2) if type(n) is ZSqrt2 else n / unit
         for n in scaled]
    solved = target, (unit, scaled), b, cost
    try:
        return (*_certify(structure, rhs, objective, fold, solved), "certified-float")
    except _Uncertified as exc:
        rows = "; ".join(f"Pr[{subset_name(m) or '()'} = +1] = {v}"
                         for m, v in zip(system.masks, system.rhs))
        goal = "" if direction is None else f", maximizing ({', '.join(map(str, direction))}) . p"
        _log.warning("HiGHS answer on the %s model not certified (%s); exact simplex fallback "
                     "for rhs [%s]%s", "full" if fold is None else "folded", exc, rows, goal)
    return (*_bland(structure, rhs, objective, fold, solved), "exact-simplex")


def _require_exact_inputs(specs: list[MarginalSpec], p: OutcomeVector | None) -> None:
    if any(not s.is_exact for s in specs) or (p is not None and not p.is_exact):
        raise ValueError(
            "LP feasibility requires exact scalars; approximate inputs have "
            "no reliable verdict on boundary cases"
        )


def feasible(specs: Iterable[MarginalSpec], p: OutcomeVector | None = None) -> FeasibilityResult:
    """Decide whether the marginals (plus, optionally, the four observable
    pair probabilities of ``p``) admit a coupling; return an exact witness
    when they do.

    The HiGHS answer is certified exactly, over Q or Q[sqrt2] (engine
    ``"certified-float"``); when that fails the exact simplex decides
    (engine ``"exact-simplex"``).  Either way the verdict and any witness
    are exact.
    """
    specs = list(specs)
    _require_exact_inputs(specs, p)
    x, _, used = _solve(_augmented_system(specs, p))
    return FeasibilityResult(x is not None, x, used)


def optimize(specs: Iterable[MarginalSpec], direction: Sequence) -> Scalar:
    """Maximize ``direction . p`` over all outcome vectors the marginals admit.

    The objective is pushed through the coupling variables (p is the image of
    the coupling under the four observable-pair rows).  HiGHS proposes the
    optimum, on the flip-folded model when the rows fold and every variable
    of the four pairs has its singleton row (as for
    :func:`~.model.connection_marginals`); rationalized duals, lifted to the
    full rows, prove the bound on every column and an exact witness attains
    it, so values like ``(1+sqrt2)/2`` are returned exactly.  The exact
    simplex decides only when that proof fails.  Raises
    :class:`InfeasibleSystemError` when no coupling exists.
    """
    specs = list(specs)
    _require_exact_inputs(specs, None)
    system = build_system(specs)
    direction = [as_scalar(v).as_fraction() for v in direction]
    if len(direction) != 4:
        raise ValueError("direction needs exactly 4 components")
    x, value, _ = _solve(system, direction)
    if x is None:
        raise InfeasibleSystemError("the marginal constraints admit no coupling")
    return value
