"""The benchmark's traced run rebinds library names (``bench/layers.py``):
each must exist, so removing one fails here and not only in a benchmark
run."""

from pathlib import Path

from epr_couplings import lp, model, regions, stats
from epr_couplings.scalars import Scalar

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = {"lp": lp, "model": model, "regions": regions, "stats": stats, "Scalar": Scalar}


def test_the_traced_run_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import installed
    from tracer import Tracer

    before = {name: dict(vars(owner)) for name, owner in OWNERS.items()}
    with installed(Tracer()):
        rebound = {
            f"{name}.{attr}"
            for name, owner in OWNERS.items()
            for attr, value in vars(owner).items()
            if value is not before[name].get(attr)
        }
    assert {"lp.linprog", "lp.solve_lp", "regions.qm_compliant",
            "Scalar.approximate"} <= rebound
    assert {name: dict(vars(owner)) for name, owner in OWNERS.items()} == before
