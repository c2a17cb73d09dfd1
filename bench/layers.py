"""Which library calls the traced run wraps, and the per-layer metrics it
derives from their spans.

Layers are the package modules.  The wrapped names are the public
functions one module calls in another, rebound where the caller looks them
up: ``lp.linprog`` (HiGHS, called by ``lp``), ``lp.solve_lp`` (the exact
simplex, called by ``lp``), ``regions.qm_compliant`` and its two siblings
(``stats`` predicates, called by ``regions``), plus the functions the
workloads call themselves.  ``qm`` and ``cli`` are not measured: no
workload calls them.  Every time metric is a mean per call of that span,
except ``regions.cell_us`` (per grid cell) and ``lp.certify_ms`` (per
``feasible`` call).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager

from epr_couplings import lp, model, regions, stats
from epr_couplings.scalars import Scalar
from tracer import Tracer, partition_holds, self_times

PREDICATES = ("chsh_satisfied", "tsirelson_satisfied", "qm_compliant")
FIELDS = ("rational", "sqrt2")


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced calls for the duration of the block."""
    tracer.span(stats, "compatible", "stats.compatible")
    tracer.span(model, "outcome_marginals", "model.marginals")
    tracer.span(model, "connection_marginals", "model.marginals")
    tracer.span(lp, "build_system", "lp.build_system")
    tracer.span(lp, "feasible", "lp.feasible", note=lambda result: result.engine)
    tracer.span(lp, "optimize", "lp.optimize")
    tracer.span(lp, "linprog", "lp.highs")
    tracer.span(lp, "solve_lp", "simplex.solve_lp")
    tracer.span(regions, "membership_grid", "regions.membership_grid")
    for name in PREDICATES:
        tracer.span(regions, name, f"stats.{name}")
    tracer.count(Scalar, "__init__", "scalars.constructed")
    tracer.count(Scalar, "approximate", "scalars.constructed")
    try:
        yield tracer
    finally:
        tracer.restore()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, queries: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced queries, plus the checks that the
    spans decompose ``lp.feasible`` exactly.

    ``queries`` maps query id to the workload's Query.  Layers a workload
    never calls read 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    named = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    n_queries = len(named["query"])

    def duration_ms(name):
        return _mean(s.end - s.start for s in named[name]) / 1e6

    def self_us(name, field=None):
        return _mean(
            own[s.id] for s in named[name]
            if field is None or queries[s.query].field == field
        ) / 1e3

    feasible = named["lp.feasible"]
    # Rational systems go to HiGHS first; its presence marks them.
    rational_feasible = [
        s for s in feasible if any(c.name == "lp.highs" for c in children[s.id])
    ]
    certified = sum(s.note == "certified-float" for s in rational_feasible)
    fallbacks = sum(s.note == "exact-simplex" for s in rational_feasible)
    # feasible() builds its rows internally; the benchmark times the public
    # build_system on the same specs outside the query (a span without a
    # parent) and takes that off feasible's self time.
    probe_build_ms = _mean(
        s.end - s.start for s in named["lp.build_system"] if s.parent is None
    ) / 1e6
    certify_ms = self_us("lp.feasible") / 1e3 - probe_build_ms if feasible else 0.0
    grid_cells = sum(queries[s.query].cells for s in named["regions.membership_grid"])
    grid_self = sum(own[s.id] for s in named["regions.membership_grid"])

    metrics = {
        "stats.compatible_us": _metric(self_us("stats.compatible"), "us"),
    }
    for name in PREDICATES:
        for field in FIELDS:
            metrics[f"stats.{name}_us.{field}"] = _metric(
                self_us(f"stats.{name}", field), "us"
            )
    metrics.update({
        "regions.cell_us": _metric(grid_self / grid_cells / 1e3 if grid_cells else 0.0, "us"),
        "model.marginals_us": _metric(self_us("model.marginals"), "us"),
        "lp.build_system_us": _metric(duration_ms("lp.build_system") * 1e3, "us"),
        "lp.feasible_ms": _metric(duration_ms("lp.feasible"), "ms"),
        "lp.highs_ms": _metric(duration_ms("lp.highs"), "ms"),
        "lp.highs_calls_per_query": _metric(len(named["lp.highs"]) / n_queries, "count"),
        "lp.certify_ms": _metric(certify_ms, "ms"),
        "lp.optimize_ms": _metric(duration_ms("lp.optimize"), "ms"),
        "simplex.solve_lp_ms": _metric(duration_ms("simplex.solve_lp"), "ms"),
        "simplex.calls_per_query": _metric(len(named["simplex.solve_lp"]) / n_queries, "count"),
        "lp.certified_float_share": _metric(
            certified / len(rational_feasible) if rational_feasible else 0.0, "ratio"
        ),
        "lp.fallback_count": _metric(fallbacks, "count"),
        "scalars.constructed_per_query": _metric(
            tracer.counts["scalars.constructed"] / n_queries, "count"
        ),
    })

    # build + HiGHS + simplex + certify must add up to feasible, per call.
    parts_ms = probe_build_ms + certify_ms
    if feasible:
        for child in ("lp.highs", "simplex.solve_lp"):
            inside = [s for s in named[child]
                      if s.parent is not None and spans[s.parent].name == "lp.feasible"]
            parts_ms += sum(s.end - s.start for s in inside) / len(feasible) / 1e6
    total_ms = metrics["lp.feasible_ms"]["value"]
    checks = {
        "spans_partition": {"ok": partition_holds(spans)},
        "feasible_decomposition": {
            "ok": abs(parts_ms - total_ms) <= 1e-6 * max(total_ms, 1.0),
            "feasible_ms": total_ms,
            "build_highs_simplex_certify_ms": parts_ms,
        },
    }
    return metrics, checks
