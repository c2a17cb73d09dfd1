"""Process parallelism for the ``lemma1`` LP checks, capped by ``COUPLING_THREADS``.

Work is mapped in input order, so results (and the reports built from them)
are identical for every worker count.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

__all__ = ["worker_count", "ordered_map"]


def worker_count() -> int:
    """Parallelism cap from COUPLING_THREADS (default 1), clamped to
    [1, os.cpu_count()].  Work is pre-partitioned and merged by index, so
    reports are byte-identical for every worker count."""
    raw = os.environ.get("COUPLING_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        raise ValueError(f"COUPLING_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(requested, os.cpu_count() or 1))


def ordered_map(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``, spread over ``worker_count()`` processes
    when there are at least two items per worker.  ``fn`` and the items must
    pickle; each worker takes about four chunks.  Workers are spawned, not
    forked: the parent may already run BLAS threads, and a forked child
    inherits any lock they held with no thread left to release it."""
    items = list(items)
    workers = worker_count()
    if workers < 2 or len(items) < 2 * workers:
        return [fn(x) for x in items]
    # Imported here: a single-process run never pays for loading the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(items) // (4 * workers))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
