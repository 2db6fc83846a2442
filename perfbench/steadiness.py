"""Steadiness report: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py --runs 10

Runs ``perfbench/run.py`` as two sets, A and B, of ``--runs`` runs of every
workload in ``BENCHMARK.json`` for its ``run_seconds``, each run with its own
seed (set A uses seeds 1..runs, set B the next ``runs`` seeds).  Runs are
interleaved: every round runs each workload once per set, and the set that
goes first alternates.  For every workload and end-to-end metric it prints
each set's median and quartiles, the spread (interquartile distance over the
median) and whether the sets agree: each spread within the metric's bound and
neither median worse than the other by more than the bound.  The report is
also written to ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(metric, base, other):
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    values = {(w, side): [] for w in names for side in "AB"}
    for i in range(args.runs):
        order = "AB" if i % 2 == 0 else "BA"
        for workload in names:
            for side in order:
                seed = 1 + i + (args.runs if side == "B" else 0)
                values[(workload, side)].append(run_once(workload, seed, seconds))
                print(f"round {i + 1}/{args.runs} {workload} {side} seed {seed} done",
                      file=sys.stderr, flush=True)

    report, agree_all = {}, True
    print(f"{'workload':12} {'metric':15} {'bound':>6} | {'A median':>11} {'A q1':>11} "
          f"{'A q3':>11} {'A sprd':>7} | {'B median':>11} {'B q1':>11} {'B q3':>11} "
          f"{'B sprd':>7} | {'B-A':>7} agree")
    for workload in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r[name] for r in values[(workload, "A")]])
            b = summary([r[name] for r in values[(workload, "B")]])
            drift = worse_by(metric, a["median"], b["median"])
            agree = (a["spread"] <= bound and b["spread"] <= bound and drift <= bound
                     and worse_by(metric, b["median"], a["median"]) <= bound)
            agree_all &= agree
            report[f"{workload}/{name}"] = {"A": a, "B": b, "bound": bound,
                                            "b_worse_than_a": drift, "agree": agree}
            print(f"{workload:12} {name:15} {bound:6.3f} | {a['median']:11.5g} {a['q1']:11.5g} "
                  f"{a['q3']:11.5g} {a['spread']:7.3f} | {b['median']:11.5g} {b['q1']:11.5g} "
                  f"{b['q3']:11.5g} {b['spread']:7.3f} | {drift:+7.3f} {'yes' if agree else 'NO'}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(
        {"runs": args.runs, "seconds": seconds, "report": report,
         "raw": {f"{w}/{s}": v for (w, s), v in values.items()}}, indent=1), encoding="utf-8")
    print("all agree" if agree_all else "NOT all agree")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())
