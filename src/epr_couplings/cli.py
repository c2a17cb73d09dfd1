"""Command-line frontend.  Every command prints JSON (grids can print CSV);
identical inputs and seeds give byte-identical output.

Exit codes: 0 = success / compatible / feasible / suite passed;
1 = incompatible / infeasible / suite failed; 2 = input error (and click's
usage errors); 3 = internal error, a fault that is not an input error (its
traceback goes to stderr); 141 = stdout closed by its reader, as a process
killed by SIGPIPE reports.  :class:`_Commands` is the one place a command's
exception becomes an exit code.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from fractions import Fraction

import click

from . import qm as qm_module
from . import regions as regions_module
from . import verify as verify_module
from .lp import (
    ConflictingMarginalsError,
    InfeasibleSystemError,
    feasible as lp_feasible,
    optimize as lp_optimize,
)
from .model import (
    ConnectionVector,
    OutcomeVector,
    connection_marginals,
    marginal_specs_from_json,
    outcome_marginals,
)
from .scalars import ScalarParseError, as_scalar
from .stats import compatible, qm_compliant

_INPUT_ERRORS = (
    ScalarParseError,
    ConflictingMarginalsError,
    ValueError,
    TypeError,
    OSError,
    json.JSONDecodeError,
)


def _emit(payload: dict, code: int) -> None:
    click.echo(json.dumps(payload, sort_keys=True, indent=2))
    sys.exit(code)


def _four(text: str, what: str) -> list:
    parts = [s for s in text.split(",") if s.strip()]
    if len(parts) != 4:
        raise ValueError(f"{what} needs 4 comma-separated values, got {len(parts)}")
    return parts


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; ``json.load`` would keep
    the last of two equal keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON key {key!r} is given twice")
        obj[key] = value
    return obj


def _load_specs(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return marginal_specs_from_json(data)


class _Commands(click.Group):
    """The command group, and the one error boundary of every command: an
    input error prints ``{"error": ...}`` and exits 2; any other fault
    prints ``{"error": "internal error: ..."}``, its traceback on stderr,
    and exits 3, never a verdict's code.  A closed stdout (``regions
    --format csv | head``) ends quietly with 141.  Click's own exits (usage
    errors, ``--help``, aborts) pass through unchanged."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except BrokenPipeError:
            # What is still buffered for stdout goes nowhere at exit.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(141)
        except _INPUT_ERRORS as exc:
            _emit({"error": str(exc)}, 2)
        except Exception as exc:
            traceback.print_exc()
            _emit({"error": f"internal error: {type(exc).__name__}: {exc}"}, 3)


@click.group(cls=_Commands)
def main() -> None:
    """Exact compatibility checks between observable outcome probabilities
    and imposed marginal constraints."""


@main.command("compat")
@click.option("--p", "p_text", required=True, help="p11,p12,p21,p22")
@click.option("--eps", "eps_text", required=True, help="four connection components")
@click.option("--lp-crosscheck", is_flag=True, help="also decide by LP feasibility")
def compat_cmd(p_text: str, eps_text: str, lp_crosscheck: bool) -> None:
    """Decide compatibility of an outcome vector with a connection vector."""
    p = OutcomeVector(*_four(p_text, "--p"))
    eps = ConnectionVector(*_four(eps_text, "--eps"))
    verdict = compatible(p, eps)
    payload = {
        "p": [str(c) for c in p.components],
        "eps": [str(c) for c in eps.components],
        "compatible": verdict,
    }
    if lp_crosscheck:
        result = lp_feasible(outcome_marginals(p) + connection_marginals(eps))
        payload["lp_feasible"] = result.feasible
        payload["lp_agrees"] = result.feasible == verdict
    _emit(payload, 0 if verdict else 1)


@main.command("feasible")
@click.option("--marginals", "path", required=True, type=click.Path(exists=True))
@click.option("--p", "p_text", default=None, help="optional p11,p12,p21,p22")
@click.option("--witness", "witness_path", default=None, type=click.Path())
def feasible_cmd(path: str, p_text: str | None, witness_path: str | None) -> None:
    """Decide whether marginal specs (a JSON file) admit a coupling."""
    specs = _load_specs(path)
    p = OutcomeVector(*_four(p_text, "--p")) if p_text else None
    result = lp_feasible(specs, p)
    payload = {"feasible": result.feasible, "engine": result.engine}
    if result.feasible and witness_path:
        with open(witness_path, "w", encoding="utf-8") as fh:
            json.dump(result.witness.to_strings(), fh, indent=2)
            fh.write("\n")
        payload["witness"] = witness_path
    _emit(payload, 0 if result.feasible else 1)


@main.command("support")
@click.option("--marginals", "path", required=True, type=click.Path(exists=True))
@click.option("--direction", required=True, help="four rationals, e.g. 1,1,1,-2")
def support_cmd(path: str, direction: str) -> None:
    """Maximize direction . p over the outcome vectors the marginals admit."""
    specs = _load_specs(path)
    dirs = [as_scalar(t) for t in _four(direction, "--direction")]
    try:
        value = lp_optimize(specs, dirs)
    except InfeasibleSystemError as exc:
        _emit({"error": str(exc), "feasible": False}, 1)
    _emit({"value": str(value), "value_float": float(value)}, 0)


@main.command("qm")
@click.option("--angles", required=True, help="a1,a2,b1,b2 (radians or pi fractions)")
def qm_cmd(angles: str) -> None:
    """Singlet predictions for four planar measurement angles."""
    settings = qm_module.Settings.planar(*_four(angles, "--angles"))
    p = qm_module.qm_outcomes(settings)
    _emit(
        {
            "p": [str(c) for c in p.components],
            "mode": "exact" if p.is_exact else "approximate",
            "qm_classification": qm_compliant(p).value,
        },
        0,
    )


@main.command("qm-max-chsh")
@click.option("--resolution", default=64, show_default=True)
@click.option("--refine", default=3, show_default=True)
def qm_max_chsh_cmd(resolution: int, refine: int) -> None:
    """Grid-plus-refinement search for the maximal expression value."""
    settings, value = qm_module.maximize_chsh(resolution, refine)
    _emit(
        {
            "value": float(value),
            "angles_radians": list(settings.angles_in_radians()),
            "resolution": resolution,
            "refine": refine,
        },
        0,
    )


@main.command("regions")
@click.option("--fix", "fix_text", default="1/4,1/4", show_default=True,
              help="values fixed for p11,p12")
@click.option("--grid", "resolution", default=201, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]),
              show_default=True)
def regions_cmd(fix_text: str, resolution: int, out_path: str | None, fmt: str) -> None:
    """Membership grid for the classical/quantum/Tsirelson regions."""
    parts = [s for s in fix_text.split(",") if s.strip()]
    if len(parts) != 2:
        raise ValueError("--fix needs two values (for p11,p12)")
    fixed = {"p11": as_scalar(parts[0]), "p12": as_scalar(parts[1])}
    grid = regions_module.membership_grid(fixed, resolution)
    path = out_path or regions_module.default_grid_filename(fixed, resolution)
    if fmt == "csv" and out_path is None:
        grid.write_csv(sys.stdout)
        sys.exit(0)
    grid.to_csv(path)
    _emit(
        {
            "out": path,
            "cells": resolution * resolution,
            "counts": grid.counts(),
            "inclusion_holds": True,  # membership_grid raises on a violation
        },
        0,
    )


_SUITES = ("lemma1", "fine", "noforcing", "nomatching", "all")


@main.command("verify")
@click.argument("suite", type=click.Choice(_SUITES))
@click.option("--trials", default=None, type=int,
              help="sample count override (0 means none)")
@click.option("--seed", default=7, show_default=True, type=int)
@click.option("--denominator", default=64, show_default=True, type=int)
@click.option("--density", default=5, show_default=True, type=int,
              help="per-axis grid density for the noforcing sweep (also under all)")
@click.option("--grid", "grid_resolution", default=201, show_default=True, type=int,
              help="membership-grid resolution for the nomatching suite")
def verify_cmd(suite: str, trials: int | None, seed: int, denominator: int,
               density: int, grid_resolution: int) -> None:
    """Run an executable theorem suite and print its report."""
    # Default sample counts; an explicit --trials (0 included) overrides both.
    many = 10000 if trials is None else trials
    few = 1000 if trials is None else trials
    if suite == "lemma1":
        report = verify_module.verify_lemma1(many, seed, denominator=denominator)
    elif suite == "fine":
        report = verify_module.verify_fine(many, seed, denominator=denominator)
    elif suite == "noforcing":
        report = verify_module.verify_noforcing(
            density, seed, min_vectors=few, denominator=denominator
        )
    elif suite == "nomatching":
        report = verify_module.verify_nomatching(
            (Fraction(1, 4), Fraction(1, 4)), seed,
            grid_resolution=grid_resolution,
        )
    else:
        report = verify_module.run_all(
            many, seed, denominator=denominator,
            noforcing_min=few, density=density,
            grid_resolution=grid_resolution,
        )
    _emit(report, 0 if report["pass"] else 1)


if __name__ == "__main__":
    main()
