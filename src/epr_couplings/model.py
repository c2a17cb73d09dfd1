"""Domain types: outcome vectors, connection vectors, couplings, marginals.

The eight spin variables are coupled through a single 256-entry probability
table.  Indexing convention, fixed once and for all so files and constraint
matrices are bit-exact:

* canonical variable order ``A11, B11, A12, B12, A21, B21, A22, B22``;
* table index bit ``k`` (bit 0 most significant, bit 7 least) carries the
  variable at canonical position ``k``; bit value 1 means the variable
  equals +1, bit 0 means -1.

So the all-plus assignment has index 255 and "A11 = +1, everything else
-1" has index 128.

A subset of the variables has one key from marginal spec to LP row: its
canonical mask (:func:`subset_mask`), the table-index bits of its
variables.  A :class:`MarginalSpec` checks and transforms its values on
:func:`~.scalars.integers` output, and takes and gives Scalars.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .scalars import HALF, ONE, Scalar, as_scalar, integers, quotient

__all__ = [
    "VariableId",
    "OutcomeVector",
    "ConnectionVector",
    "CouplingTable",
    "MarginalSpec",
    "OUTCOME_PAIRS",
    "CONNECTION_PAIRS",
    "subset_mask",
    "subset_name",
    "subset_order",
    "index_of",
    "decode",
    "connection_marginals",
    "outcome_marginals",
    "marginal_spec_to_json",
    "marginal_spec_from_json",
    "marginal_specs_from_json",
]

N_VARIABLES = 8
N_ASSIGNMENTS = 1 << N_VARIABLES


class VariableId(enum.IntEnum):
    """The eight coupled spin variables, in canonical order."""

    A11 = 0
    B11 = 1
    A12 = 2
    B12 = 3
    A21 = 4
    B21 = 5
    A22 = 6
    B22 = 7

    @classmethod
    def from_name(cls, name: str) -> VariableId:
        try:
            return cls[name.strip()]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None


def index_of(assignment: Mapping[VariableId, int]) -> int:
    """Canonical table index of a full +-1 assignment."""
    if len(assignment) != N_VARIABLES:
        missing = [v.name for v in VariableId if v not in assignment]
        raise ValueError(f"assignment must cover all 8 variables (missing {missing})")
    for var in VariableId:
        if assignment[var] not in (-1, 1):
            raise ValueError(f"{var.name} must be +1 or -1, got {assignment[var]!r}")
    return subset_mask(var for var in VariableId if assignment[var] == 1)


def decode(index: int) -> dict[VariableId, int]:
    """Inverse of :func:`index_of`."""
    if not 0 <= index < N_ASSIGNMENTS:
        raise ValueError(f"index {index} out of range [0, 255]")
    return {
        var: 1 if index & (1 << (N_VARIABLES - 1 - var)) else -1 for var in VariableId
    }


def _check_uniform_mode(values: Iterable[Scalar], what: str) -> None:
    modes = {v.is_exact for v in values}
    if len(modes) > 1:
        raise ValueError(f"{what} mixes exact and approximate scalars")


class Quadruple:
    """Base of the frozen four-field dataclasses: scalars of one mode, each
    in ``[low, high]``.

    A subclass names itself and its range in the class statement,
    ``class C(Quadruple, what="...", low=..., high=...)``; its annotated
    fields, in order, are the components.  Exact values are checked exactly;
    approximate ones up to ``Scalar.compare``'s tolerance.
    """

    def __init_subclass__(cls, *, what: str, low, high, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = tuple(cls.__annotations__)
        cls._fields = operator.attrgetter(*cls._names)
        cls._what, cls._low, cls._high = what, low, high

    def __post_init__(self):
        for name in self._names:
            object.__setattr__(self, name, as_scalar(getattr(self, name)))
        _check_uniform_mode(self.components, self._what)
        for name, value in zip(self._names, self.components):
            if value < self._low or value > self._high:
                raise ValueError(f"{name} = {value} outside [{self._low}, {self._high}]")

    @property
    def components(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return self._fields(self)

    @property
    def is_exact(self) -> bool:
        return self.components[0].is_exact

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class OutcomeVector(Quadruple, what="outcome vector", low=0, high=Fraction(1, 2)):
    """The four observable joint probabilities p_ij = Pr[A_ij = B_ij = +1]."""

    p11: Scalar
    p12: Scalar
    p21: Scalar
    p22: Scalar


@dataclass(frozen=True)
class ConnectionVector(Quadruple, what="connection vector", low=0, high=Fraction(1, 2)):
    """The four imposed connection probabilities.

    ``a1``/``a2`` constrain the pairs (A11, A12) and (A21, A22);
    ``b1``/``b2`` constrain (B11, B21) and (B12, B22).  Component value e
    means Pr[pair differs] = 2e, i.e. Pr[both = +1] = 1/2 - e.
    """

    a1: Scalar
    a2: Scalar
    b1: Scalar
    b2: Scalar


def subset_mask(variables: Iterable[VariableId]) -> int:
    """The table-index bits of the listed variables: an assignment index j
    sets them all to +1 exactly when ``j & mask == mask``."""
    mask = 0
    for var in variables:
        mask |= 1 << (N_VARIABLES - 1 - var)
    return mask


#: The four observable pairs, in outcome-vector component order.
OUTCOME_PAIRS = (
    (VariableId.A11, VariableId.B11),
    (VariableId.A12, VariableId.B12),
    (VariableId.A21, VariableId.B21),
    (VariableId.A22, VariableId.B22),
)

#: The four connected pairs, in connection-vector component order.
CONNECTION_PAIRS = (
    (VariableId.A11, VariableId.A12),
    (VariableId.A21, VariableId.A22),
    (VariableId.B11, VariableId.B21),
    (VariableId.B12, VariableId.B22),
)


def _subset_sums(values: Sequence, sign: int) -> list:
    """The subset-sum transform over k-bit masks, run one bit at a time in
    O(k 2^k) additions.

    ``sign=1`` gives ``out[S] = sum of values[T] over T >= S``: from a joint
    table, Pr[every variable of S = +1].  ``sign=-1`` gives the inverse,
    ``out[S] = sum over T >= S of (-1)^|T \\ S| values[T]``.
    """
    out = list(values)
    bit = 1
    while bit < len(out):
        for s in range(len(out)):
            if not s & bit:
                out[s] = out[s] + out[s | bit] if sign > 0 else out[s] - out[s | bit]
        bit <<= 1
    return out


def subset_order(mask: int) -> tuple[int, int]:
    """Sort key of a subset mask: by size, then by its variables in
    canonical order, which within one size is by descending mask.  On a
    spec's local k-bit indices it gives :func:`itertools.combinations` order."""
    return mask.bit_count(), -mask


@lru_cache(maxsize=512)
def _table_masks(variables: tuple[VariableId, ...]) -> tuple[int, ...]:
    """The canonical mask of each k-bit table index's subset."""
    masks = [0]
    for var in reversed(variables):  # local bit 0 carries the last variable
        bit = 1 << (N_VARIABLES - 1 - var)
        masks += [m | bit for m in masks]
    return tuple(masks)


@lru_cache(maxsize=16)
def _row_order(size: int) -> tuple[int, ...]:
    """The local indices of a ``size``-entry spec table in
    :func:`subset_order`."""
    return tuple(sorted(range(size), key=subset_order))


def _members(mask: int) -> list[VariableId]:
    """The variables of a subset mask, in canonical order."""
    return [v for v in VariableId if mask >> (N_VARIABLES - 1 - v) & 1]


class MarginalSpec:
    """A fixed distribution on a subset of the eight variables.

    ``table`` is the full 2^k joint table over +-1 values (index bit j,
    most significant first, carries ``variables[j]``; bit 1 = +1).
    ``all_plus`` is its subset-sum transform, indexed the same way:
    ``all_plus[S]`` = Pr[every variable of S = +1], so those values are
    lookups; ``masks[S]`` is the canonical :func:`subset_mask` of S.  Build
    from the table, or from the Pr[all of S = +1] values of every subset
    through the inverse transform (:meth:`from_prob_all_plus`).
    :class:`CouplingTable` is the spec of all eight variables in canonical
    order.
    """

    __slots__ = ("variables", "masks", "table", "all_plus")

    def __init__(self, variables: Sequence[VariableId], table: Sequence[Scalar]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variables in marginal")
        table = tuple(as_scalar(t) for t in table)
        if len(table) != 1 << len(variables):
            raise ValueError(
                f"table for {len(variables)} variables needs {1 << len(variables)} "
                f"entries, got {len(table)}"
            )
        _check_uniform_mode(table, "marginal table")
        unit, scaled = integers(table)
        for i, w in enumerate(scaled):
            if w < 0:
                raise ValueError(f"marginal table entry {i} is negative: {table[i]}")
        sums = _subset_sums(scaled, 1)
        if sums[0] != unit:
            raise ValueError(f"marginal table sums to {quotient(sums[0], unit)}, not 1")
        self.variables = variables
        self.masks = _table_masks(variables)
        self.table = table
        self.all_plus = tuple(quotient(n, unit) for n in sums)

    @classmethod
    def from_prob_all_plus(
        cls,
        variables: Sequence[VariableId],
        probs: Mapping[frozenset[VariableId], Scalar],
    ) -> MarginalSpec:
        """Build from Pr[all of S = +1] given for every subset S of ``variables``.

        The empty subset may be omitted; if present it must equal 1.  The
        induced joint table must be a distribution, otherwise the
        parameterization is inconsistent and a ValueError is raised.
        """
        variables = tuple(variables)
        k = len(variables)
        masks = _table_masks(variables)
        by_mask = {subset_mask(s): as_scalar(v) for s, v in probs.items()}
        for mask in by_mask:
            if mask & ~masks[-1]:
                bad = [v.name for v in _members(mask & ~masks[-1])]
                raise ValueError(f"subset mentions variables not in the marginal: {bad}")
        sample = next(iter(by_mask.values()), ONE)
        one = ONE if sample.is_exact else Scalar.approximate(1.0)
        empty = by_mask.setdefault(0, one)
        if empty != one:
            raise ValueError(f"Pr[] must be 1, got {empty}")
        zeta = []
        for mask in masks:
            if mask not in by_mask:
                names = ", ".join(v.name for v in _members(mask))
                raise ValueError(f"missing probability for subset {{{names}}}")
            zeta.append(by_mask[mask])
        # Pr[exactly T = +1, rest -1] = sum over S >= T of (-1)^|S \ T| Pr[all of S = +1]
        unit, scaled = integers(zeta)
        table = _subset_sums(scaled, -1)
        for tmask, n in enumerate(table):
            if n < 0:
                names = ", ".join(
                    f"{v.name}={'+1' if tmask >> (k - 1 - j) & 1 else '-1'}"
                    for j, v in enumerate(variables)
                )
                raise ValueError(f"inconsistent marginal parameterization: "
                                 f"Pr[{names}] = {quotient(n, unit)} < 0")
        return MarginalSpec(variables, [quotient(n, unit) for n in table])

    def prob_all_plus(self, subset: Iterable[VariableId]) -> Scalar:
        """Pr[every variable of ``subset`` = +1]."""
        mask = subset_mask(subset)
        if mask & ~self.masks[-1]:
            bad = [v.name for v in _members(mask & ~self.masks[-1])]
            raise ValueError(f"variables not in this marginal: {bad}")
        return self.all_plus[self.masks.index(mask)]

    def rows(self) -> list[tuple[int, Scalar]]:
        """Every (canonical mask of S, Pr[all of S = +1]) pair, by size and
        then in :func:`itertools.combinations` order of ``variables``."""
        return [(self.masks[i], self.all_plus[i]) for i in _row_order(len(self.masks))]

    @property
    def is_exact(self) -> bool:
        return self.table[0].is_exact

    def __eq__(self, other):
        if not isinstance(other, MarginalSpec):
            return NotImplemented
        return self.variables == other.variables and self.table == other.table

    def __repr__(self):
        names = ",".join(v.name for v in self.variables)
        return f"{type(self).__name__}({names})"


class CouplingTable(MarginalSpec):
    """A joint distribution over all 2^8 sign assignments: the marginal spec
    of all eight variables in canonical order, so its table index is the
    canonical index of :func:`index_of`."""

    __slots__ = ()

    def __init__(self, entries: Sequence[Scalar]):
        super().__init__(tuple(VariableId), entries)

    def probability(self, assignment: Mapping[VariableId, int]) -> Scalar:
        return self.table[index_of(assignment)]

    def outcome_vector(self) -> OutcomeVector:
        return OutcomeVector(*(self.prob_all_plus(pair) for pair in OUTCOME_PAIRS))

    def connection_vector(self) -> ConnectionVector:
        # e = Pr[first = +1] - Pr[both = +1] = Pr[first = +1, second = -1]
        return ConnectionVector(*(
            self.prob_all_plus([first]) - self.prob_all_plus([first, second])
            for first, second in CONNECTION_PAIRS
        ))

    def to_strings(self) -> list[str]:
        return [str(e) for e in self.table]


def _equal_margin_pairs(pairs, vector, off_diagonal: bool) -> list[MarginalSpec]:
    """Pair marginals with equiprobable one-variable marginals, one per
    component c of ``vector``: for v = c, or v = 1/2 - c when c is
    ``off_diagonal``, the joint table is (v, 1/2-v, 1/2-v, v) and the
    Pr[all of S = +1] values are the known (1, 1/2, 1/2, v), with no
    transform; no table entry is negative, 0 <= c <= 1/2, decided on ints."""
    unit, scaled = integers(vector.components)
    one, half = (ONE, HALF) if vector.is_exact else map(Scalar.approximate, (1.0, 0.5))
    specs = []
    for pair, n, c in zip(pairs, scaled, vector.components):
        if n < 0 or 2 * n > unit:
            names = ",".join(v.name for v in pair)
            raise ValueError(f"({names}) table has a negative entry: {c} outside [0, 1/2]")
        rest = quotient(unit - 2 * n, 2 * unit)  # 1/2 - c; exact halving keeps a float's bits
        v, off = (rest, c) if off_diagonal else (c, rest)
        spec = object.__new__(MarginalSpec)
        spec.variables = pair
        spec.masks = _table_masks(pair)
        spec.table = (v, off, off, v)
        spec.all_plus = (one, half, half, v)
        specs.append(spec)
    return specs


def connection_marginals(eps: ConnectionVector) -> list[MarginalSpec]:
    """The four pair marginals imposed by a connection vector: Pr[both = +1]
    = 1/2 - e for its component e, with equiprobable one-variable marginals."""
    return _equal_margin_pairs(CONNECTION_PAIRS, eps, True)


def outcome_marginals(p: OutcomeVector) -> list[MarginalSpec]:
    """The four observable pair marginals of an outcome vector."""
    return _equal_margin_pairs(OUTCOME_PAIRS, p, False)


# -- JSON wire format ----------------------------------------------------------


def subset_name(mask: int) -> str:
    """The variable names of a subset mask in canonical order, comma-joined."""
    return ",".join(v.name for v in _members(mask))


def marginal_spec_to_json(spec: MarginalSpec) -> dict:
    """The spec's Pr[all of S = +1] values, keyed by subset in
    :func:`subset_order`."""
    rows = sorted(zip(spec.masks, spec.all_plus), key=lambda row: subset_order(row[0]))
    return {
        "variables": [v.name for v in spec.variables],
        "prob_all_plus": {subset_name(mask): str(value) for mask, value in rows},
    }


def marginal_spec_from_json(data: Mapping) -> MarginalSpec:
    """Accepts either the prob_all_plus form or a full table form."""
    if not isinstance(data, Mapping):
        raise ValueError("a marginal spec must be a JSON object")
    listed = data.get("variables")
    if not isinstance(listed, list) or not all(isinstance(n, str) for n in listed):
        raise ValueError("marginal spec needs a 'variables' list of variable names")
    variables = tuple(VariableId.from_name(n) for n in listed)
    if "prob_all_plus" in data:
        if not isinstance(data["prob_all_plus"], Mapping):
            raise ValueError("marginal spec 'prob_all_plus' must be an object")
        probs = {}
        for key, text in data["prob_all_plus"].items():
            names = [n for n in key.split(",") if n.strip()]
            subset = frozenset(VariableId.from_name(n) for n in names)
            if len(subset) != len(names):
                raise ValueError(f"subset {key!r} repeats a variable")
            if subset in probs:
                raise ValueError(f"subset {key!r} is given twice")
            probs[subset] = as_scalar(text)
        return MarginalSpec.from_prob_all_plus(variables, probs)
    if "table" in data:
        if not isinstance(data["table"], list):
            raise ValueError("marginal spec 'table' must be a list")
        return MarginalSpec(variables, data["table"])
    raise ValueError("marginal spec needs 'prob_all_plus' or 'table'")


def marginal_specs_from_json(data) -> list[MarginalSpec]:
    if isinstance(data, Mapping):
        data = data.get("marginals", data)
    if not isinstance(data, list):
        raise ValueError("expected a list of marginal specs or {'marginals': [...]}")
    return [marginal_spec_from_json(item) for item in data]
