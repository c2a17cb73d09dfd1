"""Tests of the benchmark itself: its answer checks catch a wrong criterion,
and its tracing decomposes time and restores what it rebinds.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from epr_couplings import lp  # noqa: E402
from epr_couplings.stats import CorrelationQuad, s_pair  # noqa: E402
from layers import installed, layer_metrics  # noqa: E402
from run import Tally, measure  # noqa: E402
from tracer import Span, Tracer, partition_holds, self_times  # noqa: E402
from workloads import oracle_passes  # noqa: E402


def corrupted(p, eps):
    se = s_pair(CorrelationQuad.from_connections(eps))
    sp = s_pair(CorrelationQuad.from_outcomes(p))
    limit = Fraction(5, 4)  # deflated bound: rejects genuinely compatible pairs
    return se.s0 + sp.s1 <= limit and se.s1 + sp.s0 <= limit


def test_oracle_detects_corrupted_criterion():
    honest, planted = Tally(), Tally()
    measure(islice(oracle_passes(7), 40), math.inf, honest)
    measure(islice(oracle_passes(7, compat=corrupted), 40), math.inf, planted)
    assert honest.attempted == planted.attempted == 40
    assert honest.failed == 0
    assert planted.failed / planted.attempted > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, 0, "query", 0, 100),
        Span(1, 0, 0, "a", 10, 30),
        Span(2, 0, 0, "b", 40, 70),
        Span(3, 2, 0, "c", 45, 50),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 25, 3: 5}
    assert partition_holds(spans)
    spans.append(Span(4, 0, 0, "overlaps-b", 60, 80))
    assert not partition_holds(spans)


def test_traced_counts_repeat_and_wrappers_are_removed():
    original = lp.linprog
    batches = list(islice(oracle_passes(3), 6))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        queries = {}
        with installed(tracer):
            for batch in batches:
                for query in batch:
                    queries[len(queries)] = query
                    tracer.query(len(queries) - 1, query.run)
        metrics, checks = layer_metrics(tracer, queries)
        assert all(check["ok"] for check in checks.values())
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["lp.highs_calls_per_query"] == 1
    assert lp.linprog is original
