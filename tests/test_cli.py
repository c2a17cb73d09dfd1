import errno
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from epr_couplings import lp, stats, verify
from epr_couplings.cli import main
from epr_couplings.model import (
    ConnectionVector,
    OutcomeVector,
    connection_marginals,
    marginal_spec_to_json,
)
from test_lp import corrupted_linprog, fresh_env, planted_solve_lp


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_compat_incompatible_pr_box(runner):
    result = invoke(runner, ["compat", "--p", "1/2,1/2,1/2,0", "--eps", "0,0,0,0"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["compatible"] is False


def test_compat_compatible_with_crosscheck(runner):
    result = invoke(
        runner,
        ["compat", "--p", "1/4,1/4,1/4,1/4", "--eps", "0,0,0,0", "--lp-crosscheck"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["compatible"] is True
    assert payload["lp_feasible"] is True
    assert payload["lp_agrees"] is True


def test_compat_input_errors(runner):
    result = invoke(runner, ["compat", "--p", "1/2,1/2", "--eps", "0,0,0,0"])
    assert result.exit_code == 2
    assert "error" in json.loads(result.output)
    result = invoke(runner, ["compat", "--p", "3/4,0,0,0", "--eps", "0,0,0,0"])
    assert result.exit_code == 2
    result = invoke(runner, ["compat", "--p", "zebra,0,0,0", "--eps", "0,0,0,0"])
    assert result.exit_code == 2


def test_qm_angle_example(runner):
    result = invoke(runner, ["qm", "--angles", "0,pi/2,pi/4,-pi/4"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["p"] == [
        "(2-1*sqrt2)/8", "(2-1*sqrt2)/8", "(2-1*sqrt2)/8", "(2+1*sqrt2)/8",
    ]
    assert payload["mode"] == "exact"
    assert payload["qm_classification"] == "boundary"


@pytest.mark.parametrize("angle", ["inf", "-Infinity", "nan", "1e400"])
def test_qm_non_finite_angle_is_an_input_error(runner, angle):
    result = invoke(runner, ["qm", "--angles", f"0,{angle},pi/4,-pi/4"])
    assert result.exit_code == 2
    assert json.loads(result.output) == {"error": f"angle {angle!r} is not finite"}


NULL_CONNECTION_SPECS = [
    marginal_spec_to_json(s) for s in connection_marginals(ConnectionVector(0, 0, 0, 0))
]


def test_feasible_with_witness_file(runner, tmp_path):
    marg = tmp_path / "marginals.json"
    marg.write_text(json.dumps(NULL_CONNECTION_SPECS))
    witness = tmp_path / "witness.json"

    result = invoke(
        runner,
        ["feasible", "--marginals", str(marg), "--p", "1/4,1/4,1/4,1/4",
         "--witness", str(witness)],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["feasible"] is True
    stored = json.loads(witness.read_text())
    assert len(stored) == 256

    result = invoke(
        runner, ["feasible", "--marginals", str(marg), "--p", "1/2,1/2,1/2,0"]
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["feasible"] is False


def connection_specs(eps):
    return [marginal_spec_to_json(s)
            for s in connection_marginals(ConnectionVector(*map(Fraction, eps.split(","))))]


@pytest.mark.parametrize("specs, p, digest", [
    (None, "(2-sqrt2)/8,(2-sqrt2)/8,(2-sqrt2)/8,(2+sqrt2)/8", "468f0d96fa297e9d450855a2b990ca52"),
    (NULL_CONNECTION_SPECS, "1/4,1/4,1/4,1/4", "0cf5cad22d452114c28e805ea6e5128c"),
    (connection_specs("3/8,3/8,1/8,5/16"), "3/8,0,7/16,3/16", "f4d1cfa5b823a9621c4cc2bfa1cfbc64"),
    (connection_specs("1/4,1/4,0,1/4"), "3/8,1/4,1/4,3/8", "feae1ad5bf6bcff2eb3c1575470cc2e6"),
], ids=["tsirelson-sqrt2", "null-connection-rational", "lattice-rounded", "lattice-rationalized"])
def test_feasible_witness_bytes_are_pinned(runner, tmp_path, specs, p, digest):
    """The witness files move if HiGHS gets another model or proposes
    another vertex.  The null-connection witness is the vertex where the
    dual simplex ends on the coupling model at zero cost.  Each witness
    route has pinned bytes: HiGHS's point rounded at 12 times the rhs's
    unit (the null connection, and a witness of unit 96 over an rhs unit of
    16), that point rationalized (a witness of unit 40 over an rhs unit of
    8: a factor 5 that 12 lacks), and elimination (Tsirelson, over Q[sqrt2])."""
    marg = TSIRELSON_MARGINALS
    if specs is not None:
        marg = tmp_path / "marginals.json"
        marg.write_text(json.dumps(specs))
    witness = tmp_path / "witness.json"
    result = invoke(runner, ["feasible", "--marginals", str(marg), "--p", p,
                             "--witness", str(witness)])
    assert result.exit_code == 0
    assert hashlib.md5(witness.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("spec", [
    {"variables": ["A11"], "prob_all_plus": ["1/2"]},
    {"variables": [1], "table": ["1/2", "1/2"]},
    {"variables": [], "table": "1"},
    {"variables": "A11", "table": ["1/2", "1/2"]},
    5,
], ids=["prob-all-plus-list", "variable-number", "table-string", "variables-string",
        "spec-number"])
def test_malformed_marginal_json_is_an_input_error(runner, tmp_path, spec):
    marg = tmp_path / "marginals.json"
    marg.write_text(json.dumps([spec]))
    for args in (["feasible"], ["support", "--direction", "1,1,1,-2"]):
        result = invoke(runner, args + ["--marginals", str(marg)])
        assert result.exit_code == 2
        assert "error" in json.loads(result.output)


@pytest.mark.parametrize("data", [{"marginals": 5}, "A11,B11"], ids=["marginals-number", "string"])
def test_marginals_file_without_a_list_is_an_input_error(runner, tmp_path, data):
    marg = tmp_path / "marginals.json"
    marg.write_text(json.dumps(data))
    result = invoke(runner, ["feasible", "--marginals", str(marg)])
    assert result.exit_code == 2
    assert json.loads(result.output) == {
        "error": "expected a list of marginal specs or {'marginals': [...]}"
    }


@pytest.mark.parametrize("p11", ["(" * 400 + "1/4" + ")" * 400, "-" * 1000 + "0"],
                         ids=["parentheses-400", "minus-1000"])
def test_deeply_nested_scalar_text_is_an_input_error(runner, p11):
    result = invoke(runner, ["compat", "--p", f"{p11},1/4,1/4,1/4", "--eps", "0,0,0,0"])
    assert result.exit_code == 2
    assert "error" in json.loads(result.output)


def test_duplicate_subset_in_marginal_json_is_an_input_error(runner, tmp_path):
    spec = {"variables": ["A11", "B11"],
            "prob_all_plus": {"": "1", "A11": "1/2", "B11": "1/2",
                              "A11,B11": "1/2", "B11,A11": "0"}}
    marg = tmp_path / "marginals.json"
    marg.write_text(json.dumps([spec]))
    result = invoke(runner, ["support", "--marginals", str(marg),
                             "--direction", "1,0,0,0"])
    assert result.exit_code == 2
    assert "B11,A11" in json.loads(result.output)["error"]


def test_repeated_json_key_is_an_input_error(runner, tmp_path):
    """The same key twice reaches no spec: plain ``json.load`` would keep
    the later ``"0"`` and ``support`` would print it."""
    marg = tmp_path / "marginals.json"
    marg.write_text(
        '[{"variables": ["A11", "B11"], "prob_all_plus": {"": "1", "A11": "1/2", '
        '"B11": "1/2", "A11,B11": "1/2", "A11,B11": "0"}}]'
    )
    result = invoke(runner, ["support", "--marginals", str(marg),
                             "--direction", "1,0,0,0"])
    assert result.exit_code == 2
    assert "'A11,B11' is given twice" in json.loads(result.output)["error"]


def test_deeply_nested_marginal_json_is_an_input_error(runner, tmp_path):
    marg = tmp_path / "marginals.json"
    marg.write_text("[" * 100000 + "]" * 100000)
    result = invoke(runner, ["feasible", "--marginals", str(marg)])
    assert result.exit_code == 2
    assert "nested too deeply" in json.loads(result.output)["error"]


TSIRELSON_MARGINALS = Path(__file__).parent / "data" / "tsirelson.json"


@pytest.mark.parametrize("args", [
    pytest.param(["compat", "--p", "1/0,1/4,1/4,1/4", "--eps", "0,0,0,0"], id="p"),
    pytest.param(["compat", "--p", "1/4,1/4,1/4,1/4", "--eps", "0,0,0,1/0"], id="eps"),
    pytest.param(["feasible", "--marginals", str(TSIRELSON_MARGINALS), "--p", "0,pi/0,0,0"],
                 id="feasible-p"),
    pytest.param(["support", "--marginals", str(TSIRELSON_MARGINALS), "--direction", "1,1,1/0,1"],
                 id="direction"),
    pytest.param(["regions", "--fix", "1/4,1/0", "--grid", "5"], id="fix"),
    pytest.param(["qm", "--angles", "pi/0,0,0,0"], id="angles-pi/0"),
    pytest.param(["qm", "--angles", "0,1/0*pi,0,0"], id="angles-1/0*pi"),
    pytest.param(["qm", "--angles", "0,0,0/0pi,0"], id="angles-0/0pi"),
    pytest.param(["qm", "--angles", "0,0,0,1/0"], id="angles-1/0"),
])
def test_zero_denominator_is_an_input_error(runner, args):
    result = invoke(runner, args)
    assert result.exit_code == 2
    assert "error" in json.loads(result.output)


def test_support_command(runner, tmp_path):
    """The support value on the Tsirelson connection pairs, built here and
    read from the fixture file that CI also feeds the installed script."""
    eps_t = ConnectionVector(*(["(-1+1*sqrt2)/8"] * 4))
    specs = [marginal_spec_to_json(s) for s in connection_marginals(eps_t)]
    marg = tmp_path / "marginals.json"
    marg.write_text(json.dumps({"marginals": specs}))
    outputs = []
    for path in (marg, TSIRELSON_MARGINALS):
        result = invoke(
            runner, ["support", "--marginals", str(path), "--direction", "1,1,1,-2"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == "(1+1*sqrt2)/2"
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


def test_support_direction_beyond_the_float_range_is_an_input_error(runner):
    huge = "1" * 401
    result = invoke(runner, ["support", "--marginals", str(TSIRELSON_MARGINALS),
                             "--direction", f"{huge},1,1,1"])
    assert result.exit_code == 2
    assert json.loads(result.output) == {
        "error": f"direction ({huge}, 1, 1, 1) is beyond the float range"
    }


def test_support_without_a_coupling_exits_1(runner, tmp_path, caplog):
    """The anti-correlation cycle A11 = B11, A11 != B12, B11 = B12 admits no
    coupling: HiGHS reports the support LP infeasible, and the Farkas ray of
    the feasibility LP proves it, with no exact-simplex fallback."""
    pairs = [("A11", "B11", "1/2"), ("A11", "B12", "0"), ("B11", "B12", "1/2")]
    marg = tmp_path / "cycle.json"
    marg.write_text(json.dumps([
        {"variables": [u, v], "prob_all_plus": {"": "1", u: "1/2", v: "1/2", f"{u},{v}": both}}
        for u, v, both in pairs
    ]))
    with caplog.at_level(logging.WARNING, logger="epr_couplings.lp"):
        result = invoke(runner, ["support", "--marginals", str(marg), "--direction", "1,1,1,-2"])
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "error": "the marginal constraints admit no coupling", "feasible": False
    }
    assert caplog.records == []


def test_regions_command(runner, tmp_path):
    out = tmp_path / "grid.csv"
    result = invoke(
        runner,
        ["regions", "--fix", "1/4,1/4", "--grid", "9", "--out", str(out)],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["cells"] == 81
    assert payload["inclusion_holds"] is True
    lines = out.read_text().splitlines()
    assert lines[0] == "free_x,free_y,chsh,qm,tsirelson"
    assert len(lines) == 82


def test_regions_csv_to_stdout(runner):
    result = invoke(runner, ["regions", "--fix", "1/4,1/4", "--grid", "4",
                             "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "free_x,free_y,chsh,qm,tsirelson"
    assert len(result.output.splitlines()) == 17


def test_verify_command(runner):
    result = invoke(runner, ["verify", "fine", "--trials", "50", "--seed", "3"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pass"] is True
    assert payload["member_count"] == 8


def test_verify_byte_determinism(runner):
    args = ["verify", "lemma1", "--trials", "40", "--seed", "11"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.output == second.output
    assert first.exit_code == second.exit_code == 0


def test_qm_max_chsh_command(runner):
    result = invoke(runner, ["qm-max-chsh", "--resolution", "16", "--refine", "2"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["value"] <= 1.2071067811865476 + 1e-9


def test_verify_all_small(runner):
    result = invoke(
        runner,
        ["verify", "all", "--trials", "30", "--seed", "7", "--grid", "21",
         "--density", "3"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pass"] is True
    assert set(payload["suites"]) == {"lemma1", "fine", "noforcing", "nomatching"}
    assert payload["suites"]["noforcing"]["params"]["density"] == 3


def test_verify_unknown_suite_rejected(runner):
    result = runner.invoke(main, ["verify", "everything"])
    assert result.exit_code == 2
    assert "'everything' is not one of" in result.output


@pytest.mark.parametrize("args", [["--help"], ["compat", "--help"]])
def test_help_exits_0(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "internal error" not in result.output


@pytest.mark.parametrize("args", [
    ["compat", "--p", "1/4,1/4,1/4,1/4", "--eps", "0,0,0,0", "--lp-crosscheck"],
    ["feasible", "--marginals", str(TSIRELSON_MARGINALS)],
    ["support", "--marginals", str(TSIRELSON_MARGINALS), "--direction", "1,1,1,-2"],
], ids=["compat", "feasible", "support"])
def test_an_unproven_answer_exits_3(runner, monkeypatch, args):
    """HiGHS gives up and the exact simplex returns a point that fails its
    proof: an internal error, exit 3, never the verdict codes 0 or 1."""
    monkeypatch.setattr(lp, "linprog", corrupted_linprog("status"))
    monkeypatch.setattr(lp, "solve_lp", planted_solve_lp("moved"))
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 3
    error = json.loads(result.stdout)["error"]
    assert error.startswith("internal error: AssertionError: exact simplex answer")
    assert "Traceback" in result.stderr


def test_a_broken_inclusion_chain_exits_3(runner, monkeypatch):
    """``qm_masks`` planted to call every CHSH cell outside the quantum
    region: ``membership_grid`` raises AssertionError, and regions exits 3."""
    monkeypatch.setattr(stats, "qm_masks", lambda unit, v: (stats.chsh_holds(unit, v), None))
    result = runner.invoke(main, ["regions", "--grid", "9", "--format", "csv"],
                           catch_exceptions=False)
    assert result.exit_code == 3
    error = json.loads(result.stdout)["error"]
    assert error.startswith("internal error: AssertionError: inclusion chain violated at cell")
    assert "Traceback" in result.stderr


def test_a_closed_stdout_exits_141_quietly():
    """``regions --format csv | head -1``: the reader closes the pipe after
    one line, and the command exits 141, as a process killed by SIGPIPE
    reports, with nothing on stderr; never 1, a verdict's code."""
    args = ["regions", "--fix", "1/4,1/4", "--grid", "301", "--format", "csv"]
    proc = subprocess.Popen([sys.executable, "-m", "epr_couplings.cli", *args], env=fresh_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"free_x,free_y,chsh,qm,tsirelson\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_a_broken_pipe_exits_141_in_process(monkeypatch, tmp_path):
    """The boundary's closed-stdout branch in this process: a write that
    raises BrokenPipeError exits 141 and points stdout's file descriptor
    at the null device, so nothing still buffered reaches the reader."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exited:
        main(["regions", "--grid", "4", "--format", "csv"])
    os.write(fd, b"buffered")
    os.close(fd)
    assert exited.value.code == 141
    assert (tmp_path / "stdout").read_bytes() == b""


@pytest.mark.parametrize("suite, planted, value", [
    ("fine", "compatible", lambda p, eps: True),
    ("noforcing", "qm_compliant", lambda p: stats.Compliance.INSIDE),
    ("noforcing", "noforcing_counterexample", lambda eps: OutcomeVector(0, 0, 0, 0)),
    ("noforcing", "chsh_satisfied", lambda p: False),
], ids=["fine-compatible", "noforcing-qm", "noforcing-counterexample", "noforcing-chsh"])
def test_a_failed_suite_exits_1(runner, monkeypatch, suite, planted, value):
    monkeypatch.setattr(verify, planted, value)
    result = invoke(runner, ["verify", suite, "--trials", "20", "--density", "2"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["pass"] is False and payload["failures"]


@pytest.mark.parametrize("args", [
    ["regions", "--grid", "1000000000"],
    ["verify", "nomatching", "--grid", "1000000000"],
    ["verify", "all", "--grid", "1000000000"],
    ["verify", "noforcing", "--density", "1000000000"],
    ["verify", "all", "--density", "1000000000"],
    ["qm-max-chsh", "--resolution", "1000000000"],
    ["qm-max-chsh", "--refine", "100000000", "--resolution", "8"],
], ids=["regions-grid", "nomatching-grid", "all-grid", "noforcing-density", "all-density",
        "qm-resolution", "qm-refine"])
def test_huge_grid_sizes_are_input_errors(runner, args):
    result = invoke(runner, args)
    assert result.exit_code == 2
    assert "at most" in json.loads(result.output)["error"]


@pytest.mark.parametrize("args", [
    ["verify", "fine", "--trials", "3", "--denominator", "0"],
    ["verify", "lemma1", "--trials", "3", "--denominator", "-2"],
    ["verify", "lemma1", "--trials", "-5"],
    ["verify", "noforcing", "--trials", "-3", "--density", "3"],
    ["verify", "fine", "--trials", "-1"],
    ["verify", "all", "--trials", "-1", "--grid", "21", "--density", "3"],
    ["verify", "all", "--trials", "3", "--denominator", "0", "--grid", "21",
     "--density", "3"],
    ["qm-max-chsh", "--refine", "-1", "--resolution", "8"],
], ids=["fine-denominator-0", "lemma1-denominator-negative", "lemma1-trials",
        "noforcing-trials", "fine-trials", "all-trials", "all-denominator",
        "qm-refine-negative"])
def test_bad_sampling_parameters_are_input_errors(runner, args):
    result = invoke(runner, args)
    assert result.exit_code == 2
    assert "at least" in json.loads(result.output)["error"]


def test_verify_zero_trials_samples_none(runner):
    result = invoke(runner, ["verify", "lemma1", "--trials", "0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["checked"] == 0 and payload["params"]["trials"] == 0


def test_verify_all_zero_trials_samples_none_in_any_suite(runner):
    result = invoke(runner, ["verify", "all", "--trials", "0", "--density", "2",
                             "--grid", "21"])
    sampled = [s["params"] for s in json.loads(result.output)["suites"].values()
               if "trials" in s["params"]]
    assert sampled and all(params["trials"] == 0 for params in sampled)


@pytest.mark.parametrize("fix, message", [
    ("3/4,1/4", "p11 = 3/4 outside [0, 1/2]"),
    ("1/4,-1/8", "p12 = -1/8 outside [0, 1/2]"),
    ("0.25,0.25", "outcome vector mixes exact and approximate scalars"),
    ("1/4", "--fix needs two values (for p11,p12)"),
], ids=["p11-range", "p12-range", "approximate", "one-value"])
def test_regions_rejects_bad_fixed_values(runner, fix, message):
    result = invoke(runner, ["regions", "--fix", fix, "--grid", "5", "--format", "csv"])
    assert result.exit_code == 2
    assert json.loads(result.output) == {"error": message}


@pytest.mark.parametrize("fix, resolution, digest", [
    ("1/4,1/4", "21", "66d6c4901d9c3bd3507a6a842f2ebf4b"),
    ("(2-sqrt2)/8,(2+sqrt2)/8", "15", "8fea82ef8c4826ae261b673646313051"),
    ("7/16,7/16", "201", "8e79dd3170b549eaf4e37dc2a85db831"),
    ("(2-sqrt2)/8,(2+sqrt2)/8", "201", "02ece506e75d8c311fb80f33f6338946"),
    ("1/36000,17999/36000", "15", "501e24b6720e04294a22e3e65031fd44"),
], ids=["quarter-21", "singlet-15", "curved-201", "singlet-201", "unit-36000-15"])
def test_regions_csv_bytes_are_pinned(runner, fix, resolution, digest):
    result = invoke(runner, ["regions", "--fix", fix, "--grid", resolution,
                             "--format", "csv"])
    assert result.exit_code == 0
    assert hashlib.md5(result.stdout_bytes).hexdigest() == digest
