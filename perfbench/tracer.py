"""Span tracing of ncbell layers, installed from outside the library.

Each wrapped function records a span (metric, start, end, parent span,
trace id) in memory. The wrappers are bound in every namespace that binds
the original function, so a name imported with ``from .bell import
bell_partial`` into another module is traced as well. Nothing under
``src/`` is modified.

LAYERS maps a per-layer metric stem to the functions whose spans it sums.
Self time is a span's duration minus the durations of its child spans;
calls never overlap because the library is single threaded.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import time

from references import stirling2

MODULES = ("algebra", "partitions", "bell", "trees", "quasidet", "hopf",
           "mobius", "series", "verify", "cli")

# metric stem -> [(module, attribute path)]; the stems carry the layer as prefix
LAYERS = {
    "algebra.ncpoly_mul": [("algebra", "NCPoly.__mul__")],
    "algebra.ncpoly_add": [("algebra", "NCPoly.__add__")],
    "algebra.ncpoly_derive": [("algebra", "NCPoly.derive")],
    "algebra.ncpoly_substitute": [("algebra", "NCPoly.substitute")],
    "algebra.cpoly_mul": [("algebra", "CPoly.__mul__")],
    "algebra.cpoly_add": [("algebra", "CPoly.__add__")],
    "algebra.cpoly_derive": [("algebra", "CPoly.derive")],
    "algebra.qpoly_mul": [("algebra", "QPoly.__mul__")],
    "algebra.qpoly_divexact": [("algebra", "QPoly.divexact")],
    "algebra.render": [("algebra", "render_text"), ("algebra", "render_latex"),
                       ("algebra", "render_qpoly"), ("algebra", "to_json_dict")],
    "algebra.parse": [("algebra", "parse_text"), ("algebra", "from_json_dict")],
    "bell.partial": [("bell", "bell_partial")],
    "partitions.enumerate": [("partitions", "enumerate_partitions")],
    "partitions.weight": [("partitions", "weight")],
    "partitions.qcount": [("partitions", "qcount_max_ordered"),
                          ("partitions", "qcount_product")],
    "hopf.coproduct_gen": [("hopf", "coproduct_gen")],
    "hopf.coproduct": [("hopf", "coproduct"), ("hopf", "coproduct_mono")],
    "hopf.tensor_mul": [("hopf", "tensor_mul")],
    "hopf.rank_poly": [("hopf", "rank_poly")],
    "hopf.antipode_recursive": [("hopf", "antipode_recursive")],
    "hopf.antipode_poly": [("hopf", "antipode_poly")],
    "hopf.antipode_quasidet": [("hopf", "antipode_quasidet")],
    "hopf.axiom_check": [("hopf", "hopf_axiom_check")],
    "hopf.convolve": [("hopf", "convolve")],
    "mobius.antipode": [("mobius", "antipode_m"), ("mobius", "antipode_poly")],
    "mobius.invert": [("mobius", "mobius_invert")],
    "mobius.round_trip": [("mobius", "invert_round_trip")],
    "series.compose": [("series", "compose")],
    "series.compose_via_bell": [("series", "compose_via_bell")],
    "series.reversion": [("series", "reversion")],
    "series.bell_apply": [("series", "bell_apply")],
    "series.flow_pullback": [("series", "flow_pullback_taylor")],
    "series.multipoly_mul": [("series", "MultiPoly.__mul__")],
    "series.egf_check": [("series", "egf_bell_check")],
    "quasidet.hessenberg": [("quasidet", "hessenberg_quasidet"),
                            ("quasidet", "hessenberg_quasidet_sum")],
    "quasidet.det": [("quasidet", "det")],
    "quasidet.numeric": [("quasidet", "numeric_quasidet")],
    "trees.tree_bell": [("trees", "tree_bell")],
    "trees.pushforward": [("trees", "pushforward")],
}

# stems whose call count is reported as <stem>_calls
COUNTED = ("algebra.ncpoly_mul", "algebra.ncpoly_add", "algebra.cpoly_mul",
           "algebra.cpoly_add", "bell.partial", "partitions.enumerate",
           "hopf.tensor_mul")


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


def _mul_work(args, kwargs, result):
    """(terms kept, term pairs scanned) of a polynomial product."""
    if result is NotImplemented:
        return 0, 0
    return len(result.terms), _terms(args[0]) * _terms(args[1])


def _tensor_work(args, kwargs, result):
    return len(result), len(args[0]) * len(args[1])


def _qcount_work(args, kwargs, result):
    """(partitions kept, partitions of the ground set into k blocks scanned)."""
    sizes = tuple(args[0])
    return int(sum(result.terms.values())), stirling2(sum(sizes), len(sizes))


class Tracer:
    """Records spans around the LAYERS functions of one worker process."""

    def __init__(self):
        self.metrics = list(LAYERS)
        self.spans: list = []  # (metric index, start, end, parent index, trace id)
        self.stack: list = []
        self.trace_id = -1
        self.kept = {"algebra.ncpoly_mul": 0, "hopf.tensor_mul": 0,
                     "bell.partial": 0, "partitions.qcount": 0}
        self.scanned = dict.fromkeys(self.kept, 0)
        self.partitions_out = 0
        self._bell = None

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level op: a new trace id and a root span named ``name``."""
        if name not in self.metrics:
            self.metrics.append(name)
        self.trace_id += 1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (self.metrics.index(name), start, end, -1, self.trace_id)

    def _wrap(self, fn, metric_index: int, stem: str):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self
        work = {"algebra.ncpoly_mul": _mul_work, "hopf.tensor_mul": _tensor_work,
                "bell.partial": self._partial_work}.get(stem)
        if fn.__name__ == "qcount_max_ordered":
            work = _qcount_work
        counts_partitions = stem == "partitions.enumerate"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (metric_index, start, end, parent, tracer.trace_id)
            if work is not None:
                kept, scanned = work(args, kwargs, result)
                tracer.kept[stem] += kept
                tracer.scanned[stem] += scanned
            if counts_partitions:
                tracer.partitions_out += len(result)
            return result

        # no __wrapped__: it would keep the original reachable from a dict
        traced.__name__, traced.__qualname__ = fn.__name__, fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _partial_work(self, args, kwargs, result):
        n, k = args[0], args[1]
        variant = args[2] if len(args) > 2 else kwargs.get("variant", "nc")
        if k > n:
            return 0, 0
        # bell_partial has just built B_n, so the unwrapped bell() is a cache hit
        return len(result.terms), len(self._bell(n, variant).terms)

    def install(self) -> None:
        """Bind a wrapper in every namespace of the package that binds a
        LAYERS function, and fail if any dict still refers to an original."""
        package = importlib.import_module("ncbell")
        modules = {name: importlib.import_module(f"ncbell.{name}") for name in MODULES}
        self._bell = modules["bell"].bell
        owners = [package]
        for mod in modules.values():
            owners.append(mod)
            owners.extend(v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod.__name__)
        originals = []
        for metric_index, stem in enumerate(LAYERS):
            for module, path in LAYERS[stem]:
                holder = modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    holder = getattr(holder, part)
                original = vars(holder).get(attr)
                if original is None:
                    raise RuntimeError(f"ncbell.{module}.{path} is gone; was it renamed?")
                wrapper = self._wrap(original, metric_index, stem)
                bound = 0
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, key, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"ncbell.{module}.{path} is bound nowhere")
                originals.append(original)
        for ref in gc.get_referrers(*originals):
            if isinstance(ref, dict) and any(v is o for v in ref.values() for o in originals):
                raise RuntimeError(f"a traced function is still bound in {sorted(ref)[:5]}")

    def self_times(self) -> tuple:
        """Per-metric (self seconds, calls) over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs = dict.fromkeys(self.metrics, 0.0)
        calls = dict.fromkeys(self.metrics, 0)
        for i, (metric, start, end, _, _) in enumerate(self.spans):
            name = self.metrics[metric]
            selfs[name] += end - start - child[i]
            calls[name] += 1
        return selfs, calls

    def dump(self, path) -> None:
        """Write the spans as JSON lines: [id, name, start, end, parent, trace]."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (metric, start, end, parent, trace) in enumerate(self.spans):
                fh.write(json.dumps([index, self.metrics[metric], start, end, parent, trace]))
                fh.write("\n")
