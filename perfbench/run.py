"""The haantjes benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Set-up (import, generating the workload's cycle of operations from the seed,
warm-up) runs five times and the median is reported.  Then the cycle runs as
a closed loop with one client: the next operation starts when the previous
one has returned and been checked.  Checks run outside the timed region.  The
loop runs whole cycles until the timed region has reached ``--seconds`` and
holds enough samples for the workload's tail percentile, so every run
measures the same mix.

Times are reported at a reference speed of the machine.  The speed of a
shared host drifts by a third within a minute, in CPU time as much as in
wall time, so a short, fixed calibration burst of exact arithmetic that does
not use the library runs before every operation (and around every set-up),
and each measured time is scaled by ``CAL_REF_S`` over the median burst
time near it.  The raw wall times are printed on the ``info`` line.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
the library is wrapped by the span tracer, one cycle of operations (so every
count repeats exactly) runs traced and again untraced, and the per-layer
metrics and the tracing overhead are reported; the spans and the layer table
are written under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Mismatch

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_BEYOND = 10
# The duration of one calibration burst that defines the reference speed; it
# is about the median burst time on the 2-vCPU x86-64 host the bounds were set on.
CAL_REF_S = 0.005
# Bursts within this many seconds of an op's midpoint give its speed.
CAL_WINDOW_S = 1.0
SETUP_BURSTS = 5  # calibration bursts before and after each set-up

LAYER_METRICS = {  # span name -> counters reported besides calls and self_s
    "polyring.sum_of_products": ("pair_products", "terms_out", "products_per_s", "survival"),
    "polyring.mul": (),
    "polyring.diff": (),
    "polyring.parse": (),
    "polyring.linalg": ("entries",),
    "geometry.contract": (),
    "geometry.lie_bracket": (),
    "geometry.compose": (),
    "geometry.construct": (),
    "geometry.pushforward": (),
    "geometry.load": (),
    "geometry.evaluate": (),
    "torsion.nijenhuis": (),
    "torsion.torsion_step": (),
    "torsion.fn_bracket": (),
    "torsion.fn_bracket_step": (),
    "torsion.tensor_t": ("terms_out", "max_degree"),
    "structure.regularity_check": (),
    "structure.image_flag": (),
    "structure.is_integrable": (),
    "structure.verdict": (),
    "linearizer.build_linearized": (),
    "linearizer.extract_system": (),
    "linearizer.linearized_system": (),
    "linearizer.search_tensor": (),
    "linearizer.combined_system": (),
    "cli.main": ("stdout_bytes",),
}
UNITS = {"calls": "count", "self_s": "s", "pair_products": "count", "terms_out": "count",
         "products_per_s": "1/s", "survival": "ratio", "entries": "count",
         "max_degree": "degree", "stdout_bytes": "bytes", "row_density": "ratio"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def read_proc(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def cpu_model():
    text = read_proc("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def loadavg():
    text = read_proc("/proc/loadavg")
    return [float(v) for v in text.split()[:3]] if text else None


def percentile(sorted_values, p):
    """Linear interpolation between order statistics."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class _Poly:
    """A minimal sparse polynomial, exponent tuple -> Fraction, written like
    the library's own, so that its speed moves with the machine as the
    library's does.  It is used only by the calibration burst."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m, 0) + c
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return _Poly(terms)

    def __sub__(self, other):
        return self + _Poly({m: -c for m, c in other.terms.items()})

    def __mul__(self, other):
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                terms[m] = terms.get(m, 0) + ca * cb
        return _Poly({m: c for m, c in terms.items() if c})

    def diff(self, var):
        terms = {}
        for m, c in self.terms.items():
            if m[var]:
                d = list(m)
                d[var] -= 1
                terms[tuple(d)] = c * m[var]
        return _Poly(terms)


def _cal_operator(n=4):
    rng = random.Random("perfbench/calibration")
    L = [[_Poly({tuple(rng.randrange(3) for _ in range(n)):
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)})
          for _ in range(n)] for _ in range(n)]
    return L, [[[L[i][j].diff(v) for v in range(n)] for j in range(n)] for i in range(n)]


_CAL_L, _CAL_DL = _cal_operator()


def burst():
    """One calibration burst: the L.dL part of a Nijenhuis torsion of a fixed
    4x4 operator of small polynomials, with no library code.  The garbage
    collector is off during a burst, so that its time does not depend on the
    objects the library leaves on the heap.  Returns (midpoint, duration)."""
    L, dL, n = _CAL_L, _CAL_DL, len(_CAL_L)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    acc = _Poly({})
                    for v in range(n):
                        acc = acc + L[v][j] * dL[i][k][v] - L[v][k] * dL[i][j][v]
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (start + end) / 2, end - start


def scales(spans, bursts):
    """For each (start, duration) span, ``CAL_REF_S`` over the median duration
    of the bursts within ``CAL_WINDOW_S`` of the span's midpoint, and always of
    the last burst before and the first after it.  ``bursts`` are (midpoint,
    duration) in time order."""
    mids = [mid for mid, _ in bursts]
    out = []
    for start, duration in spans:
        mid = start + duration / 2
        before = bisect.bisect_left(mids, start) - 1
        after = bisect.bisect_right(mids, start + duration)
        lo = min(bisect.bisect_left(mids, mid - CAL_WINDOW_S), max(before, 0))
        hi = max(bisect.bisect_right(mids, mid + CAL_WINDOW_S), min(after + 1, len(mids)))
        out.append(CAL_REF_S / statistics.median(d for _, d in bursts[lo:hi]))
    return out


def digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def check_sources():
    src = ROOT / "src"
    if not (src / "haantjes" / "__init__.py").is_file() or not (ROOT / "operators").is_dir():
        fail(f"no haantjes sources under {src} or no operators/ directory; "
             "run from the root of a checkout")
    sys.path.insert(0, str(src))


def import_library():
    """A fresh import of ``haantjes``: modules imported before are dropped, so
    every set-up pays for the whole import."""
    for name in [m for m in sys.modules if m == "haantjes" or m.startswith("haantjes.")]:
        del sys.modules[name]
    import haantjes
    import haantjes.cli  # noqa: F401 - the cli layer is driven through haantjes.cli.main
    if Path(haantjes.__file__).resolve().parent != (ROOT / "src" / "haantjes").resolve():
        fail(f"imported haantjes from {haantjes.__file__}, not from {ROOT / 'src'}")
    return haantjes


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.lib = None
        self.seed = seed
        self.workdir = workdir
        self.failures = []  # (op kind, message)
        self.started = None

    def build(self):
        """(the cycle of ops in the seed's order, the ops to warm up)."""
        rng = random.Random(f"{self.workload.name}/{self.seed}")
        ops = self.workload.build(self.lib, rng, self.workdir, ROOT / "operators")
        warm = [next(op for op in ops if op.kind == kind) for kind in self.workload.warmup_kinds]
        rng.shuffle(ops)
        return ops, warm

    def execute(self, op, call=None):
        """Run and check one op; returns (seconds, passed, result).  The op
        started at ``self.started``."""
        start = self.started = time.perf_counter()
        try:
            result = call(op.run) if call else op.run()
        except Exception:  # an op that raises is a failed op, and the loop goes on
            elapsed = time.perf_counter() - start
            self.failures.append((op.kind, traceback.format_exc(limit=3)))
            return elapsed, False, None
        elapsed = time.perf_counter() - start
        try:
            op.check(result)
        except Mismatch as exc:
            self.failures.append((op.kind, f"{exc} ({op.key[:160]!r})"))
            return elapsed, False, None
        except Exception:  # output the check cannot even read is a wrong answer
            self.failures.append((op.kind, traceback.format_exc(limit=3)))
            return elapsed, False, None
        return elapsed, True, result

    def setup(self):
        """Import, build the ops and warm up (run without checks; every op is
        checked in the loop), SETUP_REPEATS times, between calibration bursts;
        the same seed must give the same op list every time.  Returns the ops,
        the median of the scaled and of the raw set-up times, and the digest."""
        spans, bursts, digests, ops = [], [], set(), None
        for _ in range(SETUP_REPEATS):
            ops = self.lib = None
            gc.collect()
            bursts += [burst() for _ in range(SETUP_BURSTS)]
            start = time.perf_counter()
            self.lib = import_library()
            ops, warm = self.build()
            for op in warm:
                try:
                    op.run()
                except Exception:  # the same op fails again, and is counted, in the loop
                    pass
            spans.append((start, time.perf_counter() - start))
            bursts += [burst() for _ in range(SETUP_BURSTS)]
            digests.add(digest(ops))
        if len(digests) != 1:
            self.failures.append(("setup", "the same seed gave different op lists"))
        raw = [duration for _, duration in spans]
        scaled = [d * k for d, k in zip(raw, scales(spans, bursts))]
        return ops, statistics.median(scaled), statistics.median(raw), digests.pop()

    def timed(self, ops, seconds):
        """Whole cycles until the timed region reaches ``seconds`` and there
        are enough samples for the workload's tail percentile, with a
        calibration burst before every op and after the last.  Returns the
        (kind, raw seconds, scaled seconds) of each passed op, the number of
        ops attempted, the raw timed seconds and the burst durations."""
        needed = math.ceil(MIN_BEYOND * len(ops) / self.workload.tail_beyond)
        gc.collect()
        runs, spans, bursts, attempted, timed = [], [], [], 0, 0.0
        while timed < seconds or attempted < needed or attempted % len(ops):
            op = ops[attempted % len(ops)]
            bursts.append(burst())
            elapsed, passed, _ = self.execute(op)
            attempted += 1
            timed += elapsed
            if passed:
                runs.append((op.kind, elapsed))
                spans.append((self.started, elapsed))
        bursts.append(burst())
        samples = [(kind, elapsed, elapsed * k)
                   for (kind, elapsed), k in zip(runs, scales(spans, bursts))]
        return samples, attempted, timed, [d for _, d in bursts]


def end_to_end(runner, ops, seconds, setup_s, setup_raw_s):
    samples, attempted, timed, bursts = runner.timed(ops, seconds)
    failed = attempted - len(samples)
    p = runner.workload.tail_percentile(len(ops))

    def summarize(values, total):
        ordered = sorted(values)
        if not ordered:
            return math.inf, math.inf, 0.0
        return statistics.median(ordered), percentile(ordered, p), len(ordered) / total

    scaled = [s for _, _, s in samples]
    p50, tail_value, rate = summarize(scaled, sum(scaled))
    raw_p50, raw_tail, raw_rate = summarize([r for _, r, _ in samples], timed)
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail_value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    by_kind = {}
    for kind, _, value in samples:
        by_kind.setdefault(kind, []).append(value)
    q1, _, q3 = statistics.quantiles(bursts, n=4)
    info = {
        "timed_s": timed,
        "cycles": attempted // len(ops),
        "fail_ratio": failed / attempted,
        "tail_percentile": p,
        "samples": len(samples),
        "samples_beyond_tail": sum(1 for v in scaled if v > tail_value),
        "raw": {"ops_per_s": raw_rate, "latency_p50_s": raw_p50,
                "latency_tail_s": raw_tail, "setup_s": setup_raw_s},
        "bursts": {"count": len(bursts), "median_s": statistics.median(bursts),
                   "q1_s": q1, "q3_s": q3, "min_s": min(bursts), "max_s": max(bursts)},
        "per_kind_median_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "per_kind_count": {k: len(v) for k, v in sorted(by_kind.items())},
    }
    return metrics, attempted, failed, info


def traced(runner, ops):
    tracer = Tracer()
    failed_before = len(runner.failures)
    stdout_bytes, untraced_s = 0, 0.0

    def run_traced(index, op):
        tracer.install(runner.lib)
        try:
            return runner.execute(op, call=lambda fn: tracer.run_op(index, fn))
        finally:
            tracer.uninstall()

    # Each op runs traced and untraced back to back, alternating which goes
    # first, so that the overhead is not confounded with drifts in machine speed.
    for index, op in enumerate(ops):
        if index % 2:
            untraced_s += runner.execute(op)[0]
        _, passed, result = run_traced(index, op)
        if not index % 2:
            untraced_s += runner.execute(op)[0]
        if op.kind.startswith("cli.") and passed:
            stdout_bytes += len(result[1].encode("utf-8"))
    traced_s = sum(tracer.op_totals().values())
    failed = len(runner.failures) - failed_before

    table = tracer.layer_table()
    metrics = {}
    for name, extra in LAYER_METRICS.items():
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        counters = tracer.counters.get(name, {})
        values = {"calls": row["calls"], "self_s": row["self_s"]}
        for key in extra:
            values[key] = counters.get(key, 0)
        if name == "polyring.sum_of_products":
            pairs = values["pair_products"]
            values["products_per_s"] = pairs / row["self_s"] if row["self_s"] else 0.0
            values["survival"] = values["terms_out"] / pairs if pairs else 0.0
        if name == "cli.main":
            values["stdout_bytes"] = stdout_bytes
        for key, value in values.items():
            metrics[f"{name}.{key}"] = (value, UNITS[key])
    search = tracer.counters.get("linearizer.extract_system", {})
    entries = search.get("search_entries", 0)
    metrics["linearizer.search.row_density"] = (
        search.get("search_nonzero", 0) / entries if entries else 0.0, "ratio")

    info = {
        "traced_ops": len(ops),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "overhead": traced_s / untraced_s - 1.0,
        "post_s": sum(row["post_s"] for row in table.values()),
        "spans": len(tracer.spans),
        "table": {name: dict(row) for name, row in sorted(table.items())},
    }
    OUT.mkdir(exist_ok=True)
    # One file per workload, overwritten by the next traced run: a span file
    # can take tens of megabytes.
    tracer.write(OUT / f"spans-{runner.workload.name}.json")
    return metrics, len(ops), failed, info


def print_layer_table(info):
    total = info["traced_s"]
    print(f"traced {info['traced_ops']} ops: {total:.3f} s traced, "
          f"{info['untraced_s']:.3f} s untraced, overhead {100 * info['overhead']:.1f}%, "
          f"{info['spans']} spans, counting {info['post_s']:.3f} s")
    print(f"{'span':32} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, row in sorted(info["table"].items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100 * row["self_s"] / total if total else 0.0
        print(f"{name:32} {row['calls']:9d} {row['self_s']:10.4f} {share:6.1f}%")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": loadavg(),
    }
    check_sources()
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workload, args.seed, workdir)
    try:
        ops, setup_s, setup_raw_s, ops_digest = runner.setup()
        if args.trace:
            metrics, attempted, failed, info = traced(runner, ops)
        else:
            metrics, attempted, failed, info = end_to_end(runner, ops, args.seconds,
                                                          setup_s, setup_raw_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["loadavg_end"] = loadavg()

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops generated, "
          f"digest {ops_digest}")
    print("machine " + json.dumps(machine))
    if args.trace:
        print_layer_table(info)
        layers = {"seed": args.seed, "machine": machine,
                  "metrics": {name: value for name, (value, _) in metrics.items()}, **info}
        with open(OUT / f"layers-{args.workload}.json", "w", encoding="utf-8") as handle:
            json.dump(layers, handle, indent=1)
    else:
        print("info " + json.dumps(info))
        for name, (value, unit) in metrics.items():
            print(f"{name:16} {value:14.6f} {unit}")
        print(f"{'fail_ratio':16} {info['fail_ratio']:14.6f} ratio")
    for kind, message in runner.failures[:5]:
        print(f"FAILED {kind}: {message}", file=sys.stderr)
    failed_total = len(runner.failures)
    print(json.dumps({
        "correct": failed_total == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
