"""The benchmark's three workloads: inputs made from a seed, one query at a
time, and an exact check of every answer.

Each workload is a closed loop with one client: the runner sends the next
query only after the previous one is answered.  A workload is a stream of
*passes*; the runner stops timing only at a pass boundary, so a run of
``grid`` or ``exact`` always answers whole copies of its query set.

The library is called through module attributes (``lp.feasible``, not a
name imported once), so the tracer in ``tracer.py`` can rebind them.
Inputs are generated here, not by the library, so that a change to the
library cannot change what the benchmark asks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

from epr_couplings import lp, model, regions, stats
from epr_couplings.model import ConnectionVector, OutcomeVector
from epr_couplings.scalars import Scalar

HALF = Fraction(1, 2)
#: (-1+sqrt2)/8: the Tsirelson-valued connection component.
TSIRELSON_EPS = Scalar.quadratic(Fraction(-1, 8), Fraction(1, 8))
#: (2-sqrt2)/8 and (2+sqrt2)/8: the singlet's outcome probabilities at the
#: CHSH-optimal angles.
SINGLET_LOW = Scalar.quadratic(Fraction(1, 4), Fraction(-1, 8))
SINGLET_HIGH = Scalar.quadratic(Fraction(1, 4), Fraction(1, 8))
#: (1+sqrt2)/2, the Tsirelson bound of a CHSH expression.
TSIRELSON_HIGH = Scalar.quadratic(HALF, HALF)


@dataclass
class Query:
    """One closed-loop request.

    ``run`` answers it through the library; ``check`` decides, outside the
    timed span, whether the answer is right.  ``field`` names the number
    field of the inputs (``rational`` or ``sqrt2``).  ``specs`` is set for
    queries that call ``lp.feasible`` on a marginal list; the traced run
    times ``lp.build_system`` on it separately.
    """

    label: str
    field: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    specs: Callable[[], list] | None = None
    cells: int = 0


# -- oracle ---------------------------------------------------------------------

DENOMINATOR = 64


def _probability(rng: random.Random) -> Fraction:
    # The lattice {0, 1/128, ..., 1/2}, drawn as verify_lemma1 draws it.
    return Fraction(rng.randint(0, DENOMINATOR), 2 * DENOMINATOR)


def _e0_family() -> list[ConnectionVector]:
    # The eight s0 = 1 connection vectors: zeros with an even number of
    # components replaced by 1/2 (the members of enumerate_E0).
    return [
        ConnectionVector(*(HALF if mask >> i & 1 else 0 for i in range(4)))
        for mask in range(16)
        if bin(mask).count("1") % 2 == 0
    ]


_E0 = _e0_family()


def _specs(p: OutcomeVector, eps: ConnectionVector) -> list:
    return model.outcome_marginals(p) + model.connection_marginals(eps)


def _verdict_ok(closed: bool, result, p: OutcomeVector, eps: ConnectionVector) -> bool:
    """The closed form must agree with the LP verdict, and a feasible
    verdict's witness must reproduce both vectors exactly."""
    if closed != result.feasible:
        return False
    if not result.feasible:
        return True
    witness = result.witness
    return witness.outcome_vector() == p and witness.connection_vector() == eps


def oracle_query(label: str, p: OutcomeVector, eps: ConnectionVector, compat=None) -> Query:
    """One verify_lemma1 trial: closed form, marginal specs, LP oracle.
    ``compat`` replaces the closed form, so a test can plant a wrong one."""

    def run():
        closed = (compat or stats.compatible)(p, eps)
        return closed, lp.feasible(_specs(p, eps))

    return Query(
        label=label,
        field="rational",
        run=run,
        check=lambda answer: _verdict_ok(*answer, p, eps),
        specs=lambda: _specs(p, eps),
    )


def oracle_passes(seed: int, compat=None) -> Iterator[list[Query]]:
    """Single-query passes.  Even queries draw p and eps on the lattice
    (about 99.7% feasible); odd ones take eps from the s0 = 1 family (about
    2/3 feasible)."""
    rng = random.Random(seed)
    index = 0
    while True:
        p = OutcomeVector(*(_probability(rng) for _ in range(4)))
        if index % 2 == 0:
            label, eps = "random", ConnectionVector(*(_probability(rng) for _ in range(4)))
        else:
            label, eps = "e0", rng.choice(_E0)
        index += 1
        yield [oracle_query(label, p, eps, compat)]


# -- grid -----------------------------------------------------------------------

#: (fixed values, resolution, counts recorded at the first benchmarked commit).
#: The rational slices cross all three boundaries.  The counts are invariant
#: under the four placements below, which the regions are symmetric under.
GRID_SLICES = (
    ((Fraction(7, 16), Fraction(7, 16)), 21, {"chsh": 201, "qm": 377, "tsirelson": 385}),
    ((Fraction(3, 8), Fraction(1, 8)), 21, {"chsh": 331, "qm": 431, "tsirelson": 439}),
    ((Fraction(5, 16), Fraction(1, 16)), 21, {"chsh": 301, "qm": 429, "tsirelson": 439}),
    ((HALF, Fraction(3, 8)), 21, {"chsh": 171, "qm": 301, "tsirelson": 385}),
    ((SINGLET_LOW, SINGLET_LOW), 9, {"chsh": 39, "qm": 75, "tsirelson": 75}),
    ((SINGLET_LOW, SINGLET_HIGH), 9, {"chsh": 39, "qm": 75, "tsirelson": 75}),
)

#: Component placements of the two fixed values (a, b).  Every region is
#: invariant under swapping p11<->p12, p21<->p22 and (p11,p12)<->(p21,p22).
_PLACEMENTS = (("p11", "p12"), ("p12", "p11"), ("p21", "p22"), ("p22", "p21"))


def grid_query(index: int, placement: int) -> Query:
    (a, b), resolution, want = GRID_SLICES[index]
    first, second = _PLACEMENTS[placement]
    fixed = {first: a, second: b}
    return Query(
        label=f"slice{index}",
        field="rational" if all(isinstance(v, Fraction) for v in (a, b)) else "sqrt2",
        run=lambda: regions.membership_grid(fixed, resolution),
        check=lambda grid: grid.counts() == want,
        cells=resolution * resolution,
    )


def grid_passes(seed: int) -> Iterator[list[Query]]:
    """Slice 0 first (it is the set-up query), then every pass answers all
    slices in a seeded order, each at a seeded placement."""
    rng = random.Random(seed)
    yield [grid_query(0, rng.randrange(len(_PLACEMENTS)))]
    while True:
        order = list(range(len(GRID_SLICES)))
        rng.shuffle(order)
        yield [grid_query(i, rng.randrange(len(_PLACEMENTS))) for i in order]


# -- exact ----------------------------------------------------------------------


def _feasible_query(label: str, p: OutcomeVector, eps: ConnectionVector) -> Query:
    """Q[sqrt2] right-hand sides route to the exact simplex; the verdict must
    match the closed form."""
    return Query(
        label,
        "sqrt2",
        lambda: lp.feasible(_specs(p, eps)),
        lambda result: _verdict_ok(stats.compatible(p, eps), result, p, eps),
        specs=lambda: _specs(p, eps),
    )


def _support_query(label: str, eps: ConnectionVector, direction, want) -> Query:
    field = "rational" if all(c.is_rational for c in eps.components) else "sqrt2"
    return Query(
        label,
        field,
        lambda: lp.optimize(model.connection_marginals(eps), direction),
        lambda value: value == want,
    )


def exact_catalogue() -> list[Query]:
    """Answers only exact arithmetic gives.  Known values: the Tsirelson
    connection admits exactly the Tsirelson region, which is symmetric in the
    four components, so every permutation of (1,1,1,-2) reaches (1+sqrt2)/2.
    The null connection admits exactly the CHSH region, where
    (-1,-1,-1,2).p <= p22 <= 1/2 because total - 2 p22 >= 0, attained at
    (1/2, 0, 0, 1/2).  Five entries, so the median of a run of whole passes
    falls inside one entry's samples rather than between two."""
    eps_t = ConnectionVector(*(TSIRELSON_EPS,) * 4)
    eps_0 = ConnectionVector(0, 0, 0, 0)
    return [
        _feasible_query(
            "feasible-tsirelson-boundary",
            OutcomeVector(SINGLET_LOW, SINGLET_LOW, SINGLET_LOW, SINGLET_HIGH),
            eps_t,
        ),
        _feasible_query("feasible-pr-box", OutcomeVector(HALF, HALF, HALF, 0), eps_t),
        _support_query("support-tsirelson-1112", eps_t, (1, 1, 1, -2), TSIRELSON_HIGH),
        _support_query("support-tsirelson-2111", eps_t, (-2, 1, 1, 1), TSIRELSON_HIGH),
        _support_query("support-null-neg1112", eps_0, (-1, -1, -1, 2), Scalar(HALF)),
    ]


def exact_passes(seed: int) -> Iterator[list[Query]]:
    """The first entry alone (the set-up query), then passes over the whole
    catalogue in a seeded order."""
    rng = random.Random(seed)
    catalogue = exact_catalogue()
    yield [catalogue[0]]
    while True:
        order = list(catalogue)
        rng.shuffle(order)
        yield order


@dataclass(frozen=True)
class Workload:
    name: str
    passes: Callable[[int], Iterator[list[Query]]]
    #: Passes answered by a traced run (after the set-up pass); fixed, so
    #: the counts of two traced runs repeat exactly.
    trace_passes: int


WORKLOADS = {
    "oracle": Workload("oracle", oracle_passes, 300),
    "grid": Workload("grid", grid_passes, 4),
    "exact": Workload("exact", exact_passes, 1),
}
