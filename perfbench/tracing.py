"""Span tracing of the library from the outside, for the per-layer metrics.

``Tracer.install`` wraps the public functions of every layer.  A module-level
function is wrapped at every site that imported it (``from .x import y``
binds a separate name in each importing module), and methods are wrapped on
their class, aliases such as ``__rmul__ = __mul__`` included.  Each wrapped
call records one span: name, start, end, parent span and op id.  Counts that
need the arguments or the result (monomial products, output terms, matrix
entries) are taken after the span has ended; that time is stored on the span
as ``post`` and is charged to the tracer, not to the caller's self time.

Self time of a span is its duration minus the duration and post time of its
direct children, so within one op the self times plus the post times add up
to the op's root span exactly.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("polyring", "geometry", "torsion", "structure", "linearizer", "cli")

ROOT = "bench.op"


def _pair_products(args, kwargs, result, counters):
    pairs = args[0]
    counters["pair_products"] += sum(len(p.terms) * len(q.terms) for p, q in pairs)
    counters["terms_out"] += len(result.terms)


def _tensor_size(args, kwargs, result, counters):
    degrees = [
        sum(e for _, e in mono)
        for plane in result.comps for col in plane for c in col for mono in c.terms
    ]
    counters["terms_out"] += len(degrees)
    counters["max_degree"] = max(counters["max_degree"], max(degrees, default=0))


def _matrix_entries(args, kwargs, result, counters):
    matrix = args[0]
    rows = matrix.rows
    counters["entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _row_density(args, kwargs, result, counters):
    if kwargs.get("include_zero_rows", args[1] if len(args) > 1 else False):
        rows = result.matrix.rows
        counters["search_entries"] += sum(len(r) for r in rows)
        counters["search_nonzero"] += sum(1 for r in rows for v in r if v)


class Tracer:
    """Records spans of the calls made while an op is active."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent, op, post]
        self.stack: list[int] = []
        self.op = None
        self.counters: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self._undo: list[tuple[object, str, object]] = []

    # ----- recording -------------------------------------------------------------

    def _span_name(self, name):
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def wrap(self, name, fn, count=None, materialize=False):
        name_id = self._span_name(name)
        counters = self.counters[name]
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name_id, 0.0, 0.0, stack[-1], self.op, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                if materialize:
                    args = (list(args[0]),) + args[1:]
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result, counters)
                span[5] = clock() - span[2]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id, fn):
        """Run one op under a root span; returns its result."""
        self.op = op_id
        span = [self._span_name(ROOT), 0.0, 0.0, -1, op_id, 0.0]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        try:
            return fn()
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.op = None

    # ----- installing the wrappers ---------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, lib, module_name, func_name, span, **options):
        original = getattr(getattr(lib, module_name), func_name)
        wrapper = self.wrap(span, original, **options)
        modules = [importlib.import_module(f"{lib.__name__}.{m}") for m in MODULES]
        for owner in [lib] + modules:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._replace(owner, attr, wrapper)

    def wrap_method(self, cls, attr, span, **options):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._replace(cls, attr, classmethod(self.wrap(span, raw.__func__, **options)))
        elif isinstance(raw, property):
            self._replace(cls, attr, property(self.wrap(span, raw.fget, **options)))
        else:
            wrapper = self.wrap(span, raw, **options)
            for alias, value in list(vars(cls).items()):
                if value is raw:
                    self._replace(cls, alias, wrapper)

    def install(self, lib):
        """Wrap every traced boundary of the library; undone by ``uninstall``."""
        P, G, L = lib.polyring, lib.geometry, lib.linearizer
        self.wrap_function(lib, "polyring", "sum_of_products", "polyring.sum_of_products",
                           count=_pair_products, materialize=True)
        for attr in ("__mul__", "__pow__"):
            self.wrap_method(P.Poly, attr, "polyring.mul")
        self.wrap_method(P.Poly, "diff", "polyring.diff")
        self.wrap_method(P.Poly, "parse", "polyring.parse")
        for attr in ("__init__", "identity", "zero", "transpose", "__matmul__", "mul_vector",
                     "__add__", "__sub__", "scale", "stack", "rref", "rank", "pivot_columns",
                     "nonzero_rref_rows", "rowspace_contains", "rowspace_equal",
                     "nullspace_basis", "inverse"):
            count = None if attr in ("__init__", "identity", "zero") else _matrix_entries
            self.wrap_method(P.RationalMatrix, attr, "polyring.linalg", count=count)

        for func in ("contract_upper", "contract_lower_j", "contract_lower_k"):
            self.wrap_function(lib, "geometry", func, "geometry.contract")
        self.wrap_function(lib, "geometry", "lie_bracket", "geometry.lie_bracket")
        self.wrap_method(G.OperatorField, "compose", "geometry.compose")
        for cls in (G.VectorField, G.OperatorField, G.Tensor12):
            self.wrap_method(cls, "__init__", "geometry.construct")
            self.wrap_method(cls, "evaluate", "geometry.evaluate")
        for attr in ("pushforward_operator", "pushforward_tensor"):
            self.wrap_method(G.AffineChange, attr, "geometry.pushforward")
        for func in ("load_operator", "operator_from_json"):
            self.wrap_function(lib, "geometry", func, "geometry.load")

        for func in ("nijenhuis", "torsion_step", "fn_bracket", "fn_bracket_step"):
            self.wrap_function(lib, "torsion", func, f"torsion.{func}")
        self.wrap_function(lib, "torsion", "tensor_t", "torsion.tensor_t", count=_tensor_size)

        for func in ("regularity_check", "image_flag", "is_integrable", "verdict"):
            self.wrap_function(lib, "structure", func, f"structure.{func}")

        for func in ("build_linearized", "linearized_system", "search_tensor"):
            self.wrap_function(lib, "linearizer", func, f"linearizer.{func}")
        self.wrap_function(lib, "linearizer", "extract_system", "linearizer.extract_system",
                           count=_row_density)
        self.wrap_method(L.SearchResult, "combined_system", "linearizer.combined_system")

        self.wrap_function(lib, "cli", "main", "cli.main")

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ----- analysis ----------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the duration and post time of its children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= (s[2] - s[1]) + s[5]
        return out

    def layer_table(self):
        """{span name: {"calls": n, "self_s": t, "post_s": t}} over all spans."""
        table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "post_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            row = table[self.names[span[0]]]
            row["calls"] += 1
            row["self_s"] += self_s
            row["post_s"] += span[5]
        return table

    def op_totals(self):
        """{op id: root span duration}."""
        root = self.name_index.get(ROOT)
        return {s[4]: s[2] - s[1] for s in self.spans if s[0] == root}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op", "post"],
                "names": self.names,
                "spans": self.spans,
            }, handle, separators=(",", ":"))
