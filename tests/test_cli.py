"""End-to-end tests of the command line interface, run in process through
``main`` so the exit codes and printed output are both observable."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import haantjes
from haantjes.cli import main

from conftest import OPERATORS

GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _op(name: str) -> str:
    return str(OPERATORS / name)


# ----- torsion -------------------------------------------------------------------


def test_torsion_zero_tensor_exits_zero(capsys):
    code, out, _ = _run(capsys, "torsion", _op("ex1.json"), "--level", "3")
    assert code == 0
    assert "zero tensor" in out


def test_torsion_nonzero_tensor_exits_one(capsys):
    code, out, _ = _run(capsys, "torsion", _op("ex1.json"), "--level", "2")
    assert code == 1
    assert "6 nonzero components" in out
    assert "S^1_{2,3}" in out


def test_torsion_default_level_is_one(capsys):
    code, out, _ = _run(capsys, "torsion", _op("ex2.json"))
    assert code == 1
    assert "torsion level 1" in out


def test_torsion_json_output(capsys):
    code, out, _ = _run(capsys, "torsion", _op("ex3.json"), "--level", "2", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["zero"] is False
    assert doc["level"] == 2
    values = {(c["i"], c["j"], c["k"]): c["value"] for c in doc["components"]}
    assert values[(1, 2, 3)] == "-2*x1^2*x2 + x1*x2^2 + 2*x1*x2*x3 - x2^3 - x2^2*x3"


def test_torsion_evaluated_at_a_point(capsys):
    code, out, _ = _run(capsys, "torsion", _op("ex3.json"), "--level", "2",
                        "--at", "1,2,-1")
    assert code == 1
    assert "S^1_{2,3} = -8" in out


def test_at_point_reads_decimals_and_exponents_exactly(capsys):
    """A coordinate is read by ``Fraction``: 1.5 is 3/2 and 1e3 is 1000."""
    for text, exact in (("1.5,2,-1", "3/2,2,-1"), ("1e3,2,-1", "1000,2,-1")):
        docs = []
        for point in (text, exact):
            code, out, _ = _run(capsys, "torsion", _op("ex3.json"), "--at", point, "--json")
            assert code == 1
            docs.append(json.loads(out))
        assert docs[0]["components"] == docs[1]["components"]
        assert docs[0]["point"] == docs[1]["point"] == exact.split(",")


def test_torsion_missing_file_is_a_data_error(capsys):
    code, _, err = _run(capsys, "torsion", _op("no-such.json"))
    assert code == 65
    assert "no-such.json" in err


def test_boolean_dimension_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"dim": True, "matrix": [["x1"]]}), encoding="utf-8")
    code, out, err = _run(capsys, "torsion", path)
    assert code == 65
    assert out == ""
    assert "'dim' must be a positive integer" in err


def test_torsion_rejects_non_positive_level(capsys):
    code, _, err = _run(capsys, "torsion", _op("ex1.json"), "--level", "0")
    assert code == 64
    assert "positive integer" in err


def test_at_point_arity_is_checked(capsys):
    code, _, err = _run(capsys, "torsion", _op("ex3.json"), "--at", "1,2")
    assert code == 64
    assert "expected 3" in err


# ----- fn -------------------------------------------------------------------------


def test_fn_bracket_of_operator_with_itself(capsys):
    code, out, _ = _run(capsys, "fn", _op("ex2.json"), _op("ex2.json"),
                        "--level", "2")
    assert code == 0
    assert "zero tensor" in out


def test_fn_dimension_mismatch_is_a_data_error(capsys):
    code, _, err = _run(capsys, "fn", _op("ex1.json"), _op("ex2.json"))
    assert code == 65
    assert "dim" in err


# ----- tensor-t --------------------------------------------------------------------


def test_obstruction_tensor_zero_and_nonzero(capsys):
    code, out, _ = _run(capsys, "tensor-t", _op("ex5.json"))
    assert code == 0 and "zero tensor" in out
    code, out, _ = _run(capsys, "tensor-t", _op("ex1.json"))
    assert code == 1 and "nonzero" in out


def test_obstruction_tensor_guards_dimension(capsys):
    code, _, err = _run(capsys, "tensor-t", _op("ex2.json"))
    assert code == 64
    assert "--force" in err
    code, out, _ = _run(capsys, "tensor-t", _op("ex2.json"), "--force")
    assert code == 0


# ----- verdict ---------------------------------------------------------------------


def test_verdict_exit_codes(capsys):
    assert _run(capsys, "verdict", _op("ex1.json"))[0] == 1
    assert _run(capsys, "verdict", _op("ex2.json"))[0] == 0
    assert _run(capsys, "verdict", _op("ex5.json"))[0] == 0


def test_verdict_reports_profile_and_witnesses(capsys):
    code, out, _ = _run(capsys, "verdict", _op("ex1.json"))
    assert code == 1
    assert "ranks 3 2 1 0" in out
    assert "witness" in out
    assert "NotTriangularizable" in out


def test_verdict_user_point_can_violate_the_precondition(capsys):
    code, out, _ = _run(capsys, "verdict", _op("ex5.json"), "--point", "1,1,1,1")
    assert code == 2
    assert "PreconditionViolated" in out


def test_verdict_json_document(capsys):
    code, out, _ = _run(capsys, "verdict", _op("ex2.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Triangularizable"
    assert doc["eigenvalue"] == "-x2 + x3"


def test_verdict_rejects_dim2_operators(capsys):
    code, _, err = _run(capsys, "verdict", _op("dim2a.json"))
    assert code == 64
    assert "dimensions 3 and 4" in err


# ----- integrability ----------------------------------------------------------------


def test_integrability_failure_exits_one(capsys):
    code, out, _ = _run(capsys, "integrability", _op("ex1.json"), "--power", "1")
    assert code == 1
    assert "integrable: no" in out


def test_integrability_success_exits_zero(capsys):
    code, out, _ = _run(capsys, "integrability", _op("ex2.json"), "--power", "1")
    assert code == 0
    assert "integrable: yes" in out


def test_integrability_requires_power(capsys):
    code, _, err = _run(capsys, "integrability", _op("ex1.json"))
    assert code == 64


# ----- linearize ---------------------------------------------------------------------


def test_linearize_dim3_level2_matches_conditions(capsys):
    code, out, _ = _run(capsys, "linearize", "--dim", "3")
    assert code == 0
    assert "system rank: 1" in out
    assert "row spaces equal: yes" in out
    assert "3*a^3_{1;2} - 3*a^3_{2;1} = 0" in out


def test_linearize_dim4_obstruction_matches_conditions(capsys):
    code, out, _ = _run(capsys, "linearize", "--dim", "4", "--tensor", "t")
    assert code == 0
    assert "system rank: 4" in out
    assert "row spaces equal: yes" in out


def test_linearize_dim4_level2_is_strictly_stronger(capsys):
    code, out, _ = _run(capsys, "linearize", "--dim", "4")
    assert code == 1
    assert "system rank: 6" in out
    assert "row spaces equal: no" in out
    assert "system contains the conditions: yes" in out


@pytest.mark.parametrize("tensor", ["level:3", "t"])
def test_linearize_compares_an_empty_system(capsys, tensor):
    # Both tensors vanish on the dimension-3 family: a rank-0 system that
    # does not contain the one integrability condition.
    code, out, err = _run(capsys, "linearize", "--dim", "3", "--tensor", tensor)
    assert (code, err) == (1, "")
    assert "system rank: 0 (0 rows)" in out
    assert "row spaces equal: no" in out
    code, out, err = _run(capsys, "linearize", "--dim", "3", "--tensor", tensor, "--json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["system"]["rank"] == 0
    assert doc["rowspace_equal"] is False


def test_linearize_json(capsys):
    code, out, _ = _run(capsys, "linearize", "--dim", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["system"]["rank"] == 1
    assert doc["rowspace_equal"] is True


def test_linearize_rejects_bad_tensor_kind(capsys):
    code, _, err = _run(capsys, "linearize", "--dim", "3", "--tensor", "bogus")
    assert code == 64


# ----- search -------------------------------------------------------------------------


def test_search_t_pattern_family(capsys):
    code, out, _ = _run(capsys, "search", "--dim", "4", "--family", "t-pattern")
    assert code == 0
    assert "solution space dimension: 2" in out
    assert "row spaces equal to the conditions: yes" in out


def test_search_json(capsys):
    code, out, _ = _run(capsys, "search", "--dim", "4", "--family", "t-pattern",
                        "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solution_dimension"] == 2
    assert doc["candidates"] == ["H(1,1,0)", "H(1,0,1)", "H(0,2,0)"]


# ----- top level ------------------------------------------------------------------------


def test_missing_command_is_a_usage_error(capsys):
    code, _, err = _run(capsys)
    assert code == 64


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 64


# ----- golden outputs -------------------------------------------------------------------


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_141_without_a_traceback(unbuffered):
    """``haantjes torsion ex3.json --level 3 | head -1``, with the reader gone
    before the command writes: nothing on stderr, exit 128 + SIGPIPE.  A
    buffered stdout meets the closed pipe when it is flushed, an unbuffered
    one at the first ``print``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(haantjes.__file__).resolve().parents[1])
    env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    argv = [sys.executable, "-m", "haantjes.cli", "torsion", _op("ex3.json"), "--level", "3"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 141


def test_golden_outputs_replay_byte_identically(monkeypatch):
    """Every recorded invocation in ``golden/cli.json`` prints the same bytes
    and exits with the same code; ``golden/record.py`` re-records them."""
    cases = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(OPERATORS.parent)
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case["argv"])
        got = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        want = {key: case[key] for key in got}
        assert got == want, " ".join(case["argv"])
