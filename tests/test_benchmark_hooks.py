"""The benchmark's tracer (``perfbench/tracing.py``) wraps library names it
looks up by attribute, so renaming or deleting one breaks the benchmark;
loaded by path, installed and removed here, it fails this suite too."""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import haantjes
import haantjes.cli  # noqa: F401 - the tracer wraps cli.main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_on_the_library_and_restores_it():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [getattr(haantjes, name) for name in tracing.MODULES]
    owners = [haantjes, *modules] + [  # and every class the modules define
        v for m in modules for v in vars(m).values()
        if inspect.isclass(v) and v.__module__ == m.__name__
    ]
    snapshot = [dict(vars(owner)) for owner in owners]

    def changed():
        return {
            (getattr(owner, "__qualname__", owner.__name__), attr)
            for owner, before in zip(owners, snapshot)
            for attr in before.keys() | vars(owner).keys()
            if before.get(attr) is not vars(owner).get(attr)
        }

    tracer = tracing.Tracer()
    try:
        tracer.install(haantjes)
        wrapped = changed()
    finally:
        tracer.uninstall()
    assert {("Tensor12", "evaluate"), ("VectorField", "__init__"), ("RationalMatrix", "__add__"),
            ("haantjes.geometry", "lie_bracket"), ("haantjes.cli", "main")} <= wrapped
    assert changed() == set()
