"""Self times add up per op, every layer boundary is wrapped, and counts repeat."""

import random
from pathlib import Path

import haantjes as lib
import haantjes.cli  # noqa: F401
import pytest

from run import LAYER_METRICS
from tracing import ROOT, Tracer
from workloads import build_brackets, build_cli, build_obstruction, build_search

OPERATORS = Path(__file__).resolve().parents[2] / "operators"


def small_ops(tmp_path):
    """A few ops from every workload that together cross every layer."""
    ops = []
    for make, count in ((build_brackets, 4), (build_cli, 35), (build_search, 31)):
        cycle = make(lib, random.Random(7), tmp_path, OPERATORS)
        cheap = [op for op in cycle if op.kind not in ("search.n4", "search.t4",
                                                       "linearized.n5", "cli.search")]
        ops += cheap[:count]
    cycle = build_obstruction(lib, random.Random(7), tmp_path, OPERATORS)
    ops += [op for op in cycle if op.kind.startswith("verdict.")][:6]
    return ops


def trace(ops):
    tracer = Tracer()
    tracer.install(lib)
    try:
        for index, op in enumerate(ops):
            op.check(tracer.run_op(index, op.run))
    finally:
        tracer.uninstall()
    return tracer


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    ops = small_ops(tmp_path_factory.mktemp("work"))
    return ops, trace(ops)


def test_self_times_sum_to_each_ops_traced_time(traced):
    _, tracer = traced
    totals = tracer.op_totals()
    by_op = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        by_op[span[4]] = by_op.get(span[4], 0.0) + self_s + span[5]
        assert self_s >= -1e-9, tracer.names[span[0]]
    assert by_op.keys() == totals.keys()
    for op, total in totals.items():
        assert by_op[op] == pytest.approx(total, rel=1e-9, abs=1e-12)


def test_spans_nest_inside_their_parent(traced):
    _, tracer = traced
    for span in tracer.spans:
        if span[3] >= 0:
            parent = tracer.spans[span[3]]
            assert parent[1] <= span[1] <= span[2] + span[5] <= parent[2]
            assert parent[4] == span[4]
        else:
            assert tracer.names[span[0]] == ROOT


def test_every_layer_is_seen(traced):
    _, tracer = traced
    seen = {name for name, row in tracer.layer_table().items() if row["calls"]}
    # fn_bracket_step needs a level above one; pushforward runs at set-up only
    missing = set(LAYER_METRICS) - seen - {"geometry.pushforward"}
    assert not missing


def test_counts_repeat_exactly(traced):
    ops, first = traced
    second = trace(ops)
    calls = lambda t: {k: v["calls"] for k, v in t.layer_table().items()}  # noqa: E731
    assert calls(first) == calls(second)
    assert {k: dict(v) for k, v in first.counters.items()} == {
        k: dict(v) for k, v in second.counters.items()}


def test_uninstall_restores_the_library():
    before = (lib.torsion.nijenhuis, lib.linearizer.nijenhuis, lib.Poly.__mul__,
              lib.Poly.__rmul__, lib.polyring.RationalMatrix.rank, lib.cli.main)
    tracer = Tracer()
    tracer.install(lib)
    assert lib.torsion.nijenhuis is lib.linearizer.nijenhuis is not before[0]
    assert lib.Poly.__mul__ is lib.Poly.__rmul__
    tracer.uninstall()
    after = (lib.torsion.nijenhuis, lib.linearizer.nijenhuis, lib.Poly.__mul__,
             lib.Poly.__rmul__, lib.polyring.RationalMatrix.rank, lib.cli.main)
    assert all(a is b for a, b in zip(before, after))
