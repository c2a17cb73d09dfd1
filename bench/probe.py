"""Set-up probe: in a fresh process, import the library and answer a
workload's first query; print the seconds that took as JSON.

``run.py`` starts this script several times per run and reports the median
as ``setup_s``.  It covers loading scipy/HiGHS and filling the library's
per-structure caches, which the steady-state timing leaves out.

    python3 bench/probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports epr_couplings)


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    query = next(WORKLOADS[name].passes(seed))[0]
    answer = query.run()
    setup_s = time.perf_counter() - START
    print(json.dumps({"setup_s": setup_s, "correct": bool(query.check(answer))}))


if __name__ == "__main__":
    main()
