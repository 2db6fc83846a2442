"""Generators are deterministic per seed and their checks reject wrong answers."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import haantjes as lib
import haantjes.cli  # noqa: F401
import pytest

import run
from workloads import WORKLOADS, Mismatch, build_brackets, build_cli, build_obstruction

BENCH = Path(__file__).resolve().parents[1]
OPERATORS = BENCH.parent / "operators"


def runner(name, seed, workdir):
    bench = run.Runner(WORKLOADS[name], seed, workdir)
    bench.lib = lib
    return bench


def one_cycle(make, seed, workdir):
    return make(lib, random.Random(seed), workdir, OPERATORS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name, tmp_path):
    first, _ = runner(name, 1, tmp_path / "a").build()
    again, _ = runner(name, 1, tmp_path / "b").build()
    other, _ = runner(name, 2, tmp_path / "c").build()
    assert run.digest(first) == run.digest(again) != run.digest(other)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_gives_the_same_cycle_of_kinds_and_warm_up(name, tmp_path):
    kinds = WORKLOADS[name].warmup_kinds
    unshuffled = []
    for seed in (1, 2):
        _, warm = runner(name, seed, tmp_path / f"r{seed}").build()
        cycle = WORKLOADS[name].build(lib, random.Random(f"{name}/{seed}"),
                                      tmp_path / f"u{seed}", OPERATORS)
        assert [op.key for op in warm] == [
            next(op.key for op in cycle if op.kind == kind) for kind in kinds]
        unshuffled.append([op.kind for op in cycle])
    assert unshuffled[0] == unshuffled[1]


def test_brackets_cycle_passes_and_checks_reject_nonzero(tmp_path):
    cycle = one_cycle(build_brackets, 4, tmp_path)
    results = [op.run() for op in cycle]
    for op, result in zip(cycle, results):
        op.check(result)
    nonzero = lib.nijenhuis(lib.load_operator(OPERATORS / "ex3.json"))
    with pytest.raises(Mismatch):
        cycle[0].check(nonzero)


def test_tensor_and_verdict_checks_reject_swapped_results(tmp_path):
    cycle = one_cycle(build_obstruction, 5, tmp_path)
    dense = [op for op in cycle if op.kind == "tensor_t.dense4"]
    first, second = dense[0].run(), dense[1].run()
    dense[0].check(first)
    with pytest.raises(Mismatch):
        dense[0].check(second)
    ex1 = next(op for op in cycle if op.kind == "verdict.ex1")
    ex2 = next(op for op in cycle if op.kind == "verdict.ex2")
    ex1.check(ex1.run())
    with pytest.raises(Mismatch):
        ex1.check(ex2.run())


def test_cli_checks_reject_wrong_exit_codes_and_output(tmp_path):
    cycle = one_cycle(build_cli, 6, tmp_path)
    for op in cycle:
        if op.kind == "cli.search":
            continue
        code, out, err = op.run()
        op.check((code, out, err))
        with pytest.raises(Mismatch):
            op.check((code + 1, out, err))
        if code == 1 and op.kind in ("cli.torsion", "cli.fn", "cli.tensor-t"):
            wrong = out.replace(" = ", " = 7*", 1).replace('"value": "', '"value": "7*', 1)
            with pytest.raises((Mismatch, ValueError)):
                op.check((code, wrong, err))


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(100)]
    assert run.percentile(values, 90.0) == pytest.approx(89.1)
    assert run.percentile(values, 50.0) == pytest.approx(49.5)
    assert run.percentile([3.0], 95.0) == 3.0


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    reported = {f"{name}.{key}" for name, extra in run.LAYER_METRICS.items()
                for key in ("calls", "self_s") + extra}
    assert per_layer == reported | {"linearizer.search.row_density"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="an empty RationalMatrix loses its width (ROADMAP item 5); "
                   "when this passes, put level:3 and t at n = 3 back into the cli mix")
def test_known_defect_linearize_empty_system():
    from workloads import run_cli

    code, _, _ = run_cli(lib, ["linearize", "--dim", "3", "--tensor", "level:3"])
    assert code == 1


def test_scales_use_the_bursts_near_each_span(monkeypatch):
    monkeypatch.setattr(run, "CAL_REF_S", 1.0)
    monkeypatch.setattr(run, "CAL_WINDOW_S", 1.0)
    # (midpoint, duration): slow bursts early, fast ones late
    bursts = [(0.0, 2.0), (0.5, 2.0), (1.0, 2.0), (5.0, 1.0), (5.5, 1.0), (20.0, 4.0)]
    spans = [(0.2, 0.1), (5.1, 0.2), (1.1, 3.8), (6.0, 13.0)]
    assert run.scales(spans, bursts) == pytest.approx([
        0.5,  # the three bursts within 1 s
        1.0,  # the two bursts within 1 s
        1 / 1.5,  # none within 1 s of 3.0: the bursts just before and after
        1 / 2.5,  # the bursts at 5.5 and 20.0
    ])


def test_bursts_do_the_same_work_every_time():
    first = run.burst()
    second = run.burst()
    assert 0 < first[1] and first[0] < second[0]
    assert run._CAL_L[0][0].terms == run._cal_operator()[0][0][0].terms
