"""Record the golden data replayed by ``tests/test_cli.py`` and
``tests/test_structure.py``.

Every CLI case runs ``haantjes.cli.main`` in process from the repository
root and stores its argv, exit code, stdout and stderr in ``cli.json`` next
to this script.  ``minors.json`` holds the answers of the minors reference
in ``tests/reference.py`` on the cases where its cofactor expansions are too
slow to rerun on every test run.  Re-record only when a change of output
is intended:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from haantjes.cli import main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "cli.json"
MINORS = Path(__file__).resolve().parent / "minors.json"

# (n, seed) of the conjugated blocks whose minors answers are recorded
MINORS_CASES = ((5, 5),)

DIMS = {"dim2a": 2, "dim2b": 2, "ex1": 4, "ex2": 3, "ex3": 3, "ex4": 4, "ex5": 4}
POINTS = {2: "1,2", 3: "1,2,-1", 4: "1,-1,2,1/2"}


def _op(name: str) -> str:
    return f"operators/{name}.json"


def cases() -> list[list[str]]:
    out = []
    for name, dim in DIMS.items():
        for level in ("1", "2"):
            out.append(["torsion", _op(name), "--level", level])
            out.append(["torsion", _op(name), "--level", level, "--at", POINTS[dim]])
        out.append(["tensor-t", _op(name)])
        if dim != 4 or name == "ex5":
            out.append(["tensor-t", _op(name), "--force"])
        out.append(["verdict", _op(name)])
        out.append(["integrability", _op(name), "--power", "1"])
    for name in ("ex1", "ex2", "dim2a"):
        out.append(["integrability", _op(name), "--power", "2"])
    for k, l in (("ex2", "ex3"), ("ex1", "ex4"), ("ex4", "ex5"),
                 ("dim2a", "dim2b"), ("ex2", "ex1")):
        dim = DIMS[k]
        out.append(["fn", _op(k), _op(l)])
        out.append(["fn", _op(k), _op(l), "--level", "2", "--at", POINTS[dim]])
    out.append(["fn", _op("ex2"), _op("ex3"), "--level", "2"])
    out.append(["fn", _op("dim2a"), _op("dim2b"), "--level", "3"])
    for name in ("ex1", "ex4", "ex5"):
        out.append(["tensor-t", _op(name), "--at", POINTS[4]])
    out.append(["tensor-t", _op("ex2"), "--force", "--at", POINTS[3]])
    # Two errors at once: the dimension message wins over the point's arity.
    out.append(["tensor-t", _op("ex2"), "--at", POINTS[2]])
    for name in ("ex1", "ex4"):
        out.append(["torsion", _op(name), "--level", "3", "--at", POINTS[4]])
    out.append(["fn", _op("ex1"), _op("ex4"), "--at", POINTS[4]])
    for dim in ("3", "4"):
        kinds = ["nijenhuis", "haantjes"] + (["level:3", "t"] if dim == "4" else [])
        for kind in kinds:
            out.append(["linearize", "--dim", dim, "--tensor", kind])
    out.append(["linearize", "--dim", "3", "--tensor", "haantjes", "--eigenvalue"])
    out.append(["linearize", "--dim", "4", "--tensor", "t", "--eigenvalue"])
    out.append(["search", "--dim", "3"])
    out.append(["search", "--dim", "4", "--family", "t-pattern"])
    return [argv + extra for argv in out for extra in ([], ["--json"])]


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def minors() -> list[dict]:
    """The minors reference's generators and Frobenius verdict for every k of
    each case in ``MINORS_CASES``."""
    sys.path.insert(0, str(ROOT / "tests"))
    from reference import conjugated_block, image_flag_by_minors, is_integrable_by_minors

    out = []
    for n, seed in MINORS_CASES:
        L = conjugated_block(n, seed)
        for k in range(1, n):
            D = image_flag_by_minors(L, k)
            out.append({"case": f"conjugated_block({n}, {seed})", "k": k,
                        "generators": [str(g) for g in D.generators],
                        "integrable": is_integrable_by_minors(D)})
    return out


def record() -> None:
    os.chdir(ROOT)
    doc = [run(argv) for argv in cases()]
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} cases in {GOLDEN.relative_to(ROOT)}")
    doc = minors()
    MINORS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} cases in {MINORS.relative_to(ROOT)}")


if __name__ == "__main__":
    record()
