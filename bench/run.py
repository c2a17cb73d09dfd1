"""Benchmark runner: one workload, one seed, one run.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off:
set-up time in fresh processes, then a warm-up query, then a closed loop
for ``--seconds`` (ending at a pass boundary).  With ``--trace 1`` it
answers a fixed number of passes with spans and counts recorded, answers
the same queries again untraced to measure the tracing overhead, and
derives the per-layer metrics.  Every answer is checked outside the timed
span.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``record``, adds the environment, ``failed_share`` and the raw
throughput and latencies (``latency_p90_ms`` where a run has at least 100
queries).  ``--workload all`` runs each workload in its own process and
prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("oracle", "grid", "exact")
SETUP_PROBES = 3
REFERENCE_RUNS = 5
#: Raw end-to-end figures kept in the record (not gated; see run_untraced).
RAW_FIGURES = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)
MAX_REPORTED_FAILURES = 3

#: Thread pools that numpy/scipy may start; pinned to 1 before numpy loads.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> None:
    """One process, one BLAS thread: the library's default single process
    applies, and the run stays within the sandbox's cores."""
    os.environ.pop("COUPLING_THREADS", None)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git yields None)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_variables": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


# -- answering and checking -------------------------------------------------------


class Tally:
    """Attempted and failed queries; a query fails when it raises or its
    answer is wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def settle(self, query, answer_fn):
        """Answer ``query`` through ``answer_fn`` (which must return the
        answer), check it outside the timed span, and return the seconds the
        answer took."""
        self.attempted += 1
        start = perf_counter()
        try:
            answer = answer_fn()
        except Exception:  # a raising query is a failed one; keep running
            self._fail(query, traceback.format_exc())
            return perf_counter() - start
        elapsed = perf_counter() - start
        try:
            ok = query.check(answer)
        except Exception:
            self._fail(query, traceback.format_exc())
        else:
            if not ok:
                self._fail(query, "wrong answer\n")
        return elapsed

    def _fail(self, query, why: str) -> None:
        self.failed += 1
        if self._reported < MAX_REPORTED_FAILURES:
            self._reported += 1
            print(f"query {query.label} failed: {why}", end="", file=sys.stderr)


def reference() -> Fraction:
    """A fixed loop of integer and Fraction arithmetic that uses only the
    standard library, so no change to the library can change its cost."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7, i)
        if total > 5:
            total = total * 3 / 4
    return total


def reference_s() -> float:
    """The machine's current speed: the mean time of five reference runs.
    A mean, because a query's latency likewise integrates the speed over
    its whole duration."""
    start = perf_counter()
    for _ in range(REFERENCE_RUNS):
        reference()
    return (perf_counter() - start) / REFERENCE_RUNS


def measure(passes, seconds: float, tally: Tally) -> list[tuple[float, float]]:
    """Closed loop over whole passes until ``seconds`` of wall time have
    gone by.  Returns, per query, its latency and the mean reference time
    measured just before and just after it (both in seconds)."""
    samples = []
    start = perf_counter()
    before = reference_s()
    for batch in passes:
        for query in batch:
            latency = tally.settle(query, query.run)
            after = reference_s()
            samples.append((latency, (before + after) / 2))
            before = after
        if perf_counter() - start >= seconds:
            break
    return samples


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh processes."""
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not probe["correct"]:
            raise RuntimeError(f"set-up query of {workload} answered wrongly")
        values.append(probe["setup_s"])
    return values


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, args, tally: Tally, record: dict) -> dict:
    """The gated figures divide each query's latency by the reference time
    measured next to it: the machine's speed drifts by a fifth over minutes,
    and the ratio cancels that drift.  The raw figures go to the record."""
    setups = setup_seconds(workload.name, args.seed)
    passes = workload.passes(args.seed)
    record["first_query_s"] = sum(tally.settle(q, q.run) for q in next(passes))
    samples = measure(passes, args.seconds, tally)
    latencies = [latency for latency, _ in samples]
    relative = [latency / ref for latency, ref in samples]
    record.update({
        "setup_probes_s": setups,
        "queries_timed": len(samples),
        "reference_ms": statistics.median(ref for _, ref in samples) * 1e3,
        "throughput_qps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
    })
    if len(latencies) >= 100:
        record["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return {
        "throughput_per_ref": metric(len(relative) / sum(relative), "1/ref"),
        "latency_p50_ref": metric(statistics.median(relative), "ref"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def run_traced(workload, args, tally: Tally, record: dict) -> tuple[dict, bool]:
    """Each pass is answered once traced and once untraced, alternating which
    goes first, so drift in machine speed cancels out of the overhead."""
    from epr_couplings import lp
    from layers import installed, layer_metrics
    from tracer import Tracer

    passes = workload.passes(args.seed)
    for query in next(passes):  # warm-up, untraced
        tally.settle(query, query.run)
    tracer = Tracer()
    queries = {}
    traced_s = untraced_s = 0.0

    def traced(batch) -> float:
        elapsed = 0.0
        with installed(tracer):
            for query in batch:
                qid = len(queries)
                queries[qid] = query
                elapsed += tally.settle(query, lambda: tracer.query(qid, query.run))
                if query.specs is not None:
                    specs = query.specs()
                    tracer.probe(qid, lambda: lp.build_system(specs))
        return elapsed

    for k, batch in enumerate(islice(passes, workload.trace_passes)):
        if k % 2:
            untraced_s += sum(tally.settle(q, q.run) for q in batch)
            traced_s += traced(batch)
        else:
            traced_s += traced(batch)
            untraced_s += sum(tally.settle(q, q.run) for q in batch)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    metrics, checks = layer_metrics(tracer, queries)
    metrics["trace.overhead_share"] = metric(1 - untraced_s / traced_s, "ratio")
    record["trace_checks"] = checks
    record["traced_queries"] = len(queries)
    return metrics, all(c["ok"] for c in checks.values())


def run_one(args) -> int:
    if not (SRC / "epr_couplings" / "__init__.py").is_file():
        print(f"no library sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    record: dict = {"environment": environment(args)}
    tally = Tally()
    if args.trace:
        metrics, trace_ok = run_traced(workload, args, tally, record)
    else:
        metrics, trace_ok = run_untraced(workload, args, tally, record), True
    record["failed_share"] = tally.failed / tally.attempted
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    name = f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0 and trace_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak memory and set-up stay per
    workload), then one table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode or len(lines) < 2:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            status = 1
            continue
        record = json.loads(lines[-2][len("record "):])
        result = json.loads(lines[-1])
        status |= not result["correct"]
        for key, unit in RAW_FIGURES:
            if key in record:
                rows.append((name, key, record[key], unit))
        for key, m in result["metrics"].items():
            rows.append((name, key, m["value"], m["unit"]))
        rows.append((name, "failed_share", record["failed_share"],
                     f"of {result['attempted']}"))
    for name, key, value, unit in rows:
        print(f"{name:8s} {key:40s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
