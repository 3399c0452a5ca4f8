"""Per-layer spans recorded from outside the engine.

The tracer replaces attributes of the lgtft modules and classes with timing
wrappers and puts every original back on exit.  A function imported by name
into several modules is replaced in each of them, so every call site is seen.

A span is one outermost call into a layer: a call that re-enters a layer
already on the stack (``rank`` calling ``rref``) is part of the outer span.
A layer's self time is its total time minus the time of the spans it caused.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

# layer -> call sites, each (module, class or None, attribute)
SPANS = {
    "groebner.compute": [("groebner", "GroebnerBasis", "compute")],
    "groebner.verify": [("groebner", "GroebnerBasis", "verify")],
    "jacobi.table": [("jacobi", "JacobiAlgebra", "__init__")],
    "jacobi.trace": [("jacobi", None, "residue_trace"),
                     ("tft", None, "residue_trace"),
                     ("jobs", None, "residue_trace")],
    "koszul.table": [("koszul", None, "koszul_cohomology"),
                     ("jobs", None, "koszul_cohomology")],
    "koszul.vanishing": [("koszul", None, "check_vanishing_negative_degrees"),
                         ("jobs", None, "check_vanishing_negative_degrees")],
    "matfact.hom": [("matfact", None, "hom_cohomology"),
                    ("tft", None, "hom_cohomology"),
                    ("jobs", None, "hom_cohomology")],
    "matfact.class_of": [("matfact", "HomCohomology", "class_of")],
    "matfact.compose": [("matfact", None, "compose_classes"),
                        ("tft", None, "compose_classes")],
    "polymatrix.matmul": [("polymatrix", "PolyMatrix", "matmul"),
                          ("polymatrix", "PolyMatrix", "__matmul__")],
    "linalg.elim": [("linalg", "SparseMatrix", name)
                    for name in ("rref", "rank", "nullspace", "inverse", "solve")],
    "linalg.apply": [("linalg", "SparseMatrix", "apply")],
    "tft.build": [("tft", None, "build_tft_datum"),
                  ("jobs", None, "build_tft_datum")],
    "tft.category": [("tft", "BraneCategory", "__init__")],
    "tft.verify": [("tft", None, "verify_tft_datum"),
                   ("jobs", None, "verify_tft_datum")],
    "tft.clause.bulk": [("tft", None, "_check_bulk")],
    "tft.clause.category": [("tft", None, "_check_category")],
    "tft.clause.bulk_boundary": [("tft", None, "_check_bulk_boundary")],
    "tft.clause.cy": [("tft", None, "_check_cy_structure")],
    "tft.clause.parity": [("tft", None, "_check_parity")],
    "tft.clause.cardy": [("tft", None, "_check_cardy")],
    "cache.get": [("cache", "Cache", "get")],
    "cache.put": [("cache", "Cache", "put")],
}

# counted but not timed: these run tens of thousands of times per job
COUNTS = {
    "matfact.key": [("matfact", "MatrixFactorization", "key")],
    "tft.compose": [("tft", "BraneCategory", "compose")],
}

CALL_METRIC = {"cache.get": "cache.gets", "cache.put": "cache.puts"}

# report timing sections, summed over the jobs of a pass
SECTIONS = ("jacobi", "koszul", "homs", "tft", "total")


def metric_catalogue() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in SPANS:
        out.append((f"{layer}_s", "s", "lower"))
        out.append((f"{layer}_self_s", "s", "lower"))
        out.append((CALL_METRIC.get(layer, f"{layer}_calls"), "count", "lower"))
    out += [(f"{layer}_calls", "count", "lower") for layer in COUNTS]
    out += [
        ("matfact.hom_dim", "count", "lower"),
        ("linalg.max_rows", "count", "lower"),
        ("linalg.max_cols", "count", "lower"),
        ("linalg.nnz", "count", "lower"),
        ("cache.hits", "count", "higher"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("cache.rejects", "count", "lower"),
    ]
    out += [(f"jobs.{section}_s", "s", "lower") for section in SECTIONS]
    out += [
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Spans, counts and sizes of one traced pass."""

    def __init__(self):
        self.clock = SimpleNamespace(busy=0.0)
        self.total = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.top_level = 0.0  # time in spans opened directly by a job
        self.max_rows = 0
        self.max_cols = 0
        self.nnz = 0
        self.hom_dim = 0
        self.hits = 0
        self.rejects = 0
        self._stack = []  # per open span: [seconds of its child spans]
        self._active = set()
        self._hit_keys = set()
        self._patches = []

    def begin_job(self):
        """Cache rejects are counted per job: a hit that the job then rewrote."""
        self._hit_keys.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer, fn, before=None, after=None):
        stack, active, clock = self._stack, self._active, self.clock
        total, self_time, calls = self.total, self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            active.add(layer)
            frame = [0.0]
            stack.append(frame)
            start, sampled = perf_counter(), clock.busy
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (clock.busy - sampled)
                stack.pop()
                active.discard(layer)
                total[layer] += elapsed
                self_time[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _before_elim(self, args):
        matrix = args[0]
        self.max_rows = max(self.max_rows, matrix.nrows)
        self.max_cols = max(self.max_cols, matrix.ncols)
        self.nnz += sum(len(row) for row in matrix.rows)

    def _after_hom(self, args, hom):
        self.hom_dim += hom.total_dim

    @staticmethod
    def _cache_entry(args):
        _, kind, key = args[:3]
        return kind, json.dumps(key, sort_keys=True)

    def _after_get(self, args, payload):
        if payload is not None:
            self.hits += 1
            self._hit_keys.add(self._cache_entry(args))

    def _before_put(self, args):
        if self._cache_entry(args) in self._hit_keys:
            self.rejects += 1

    # -- installing -------------------------------------------------------------

    def _replace(self, site, make):
        module, owner, attribute = site
        target = sys.modules[f"lgtft.{module}"]
        if owner is not None:
            target = getattr(target, owner)
        original = vars(target)[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((target, attribute, original))
        setattr(target, attribute, replacement)

    @contextlib.contextmanager
    def installed(self, clock=None):
        """Wrap every call site for the duration of the block.

        Time the clock spends in reference slices is left out of every span.
        """
        if clock is not None:
            self.clock = clock
        hooks = {
            "linalg.elim": (self._before_elim, None),
            "matfact.hom": (None, self._after_hom),
            "cache.get": (None, self._after_get),
            "cache.put": (self._before_put, None),
        }
        try:
            for layer, sites in SPANS.items():
                before, after = hooks.get(layer, (None, None))
                for site in sites:
                    self._replace(
                        site, lambda fn, layer=layer, b=before, a=after:
                        self._span(layer, fn, b, a))
            for name, sites in COUNTS.items():
                for site in sites:
                    self._replace(site, lambda fn, name=name: self._counter(name, fn))
            yield self
        finally:
            while self._patches:
                target, attribute, original = self._patches.pop()
                setattr(target, attribute, original)

    # -- results ------------------------------------------------------------------

    def metrics(self, job_wall: float) -> dict:
        """Per-layer values by metric name; job_wall is the traced pass's job time."""
        out = {}
        for layer in SPANS:
            out[f"{layer}_s"] = self.total[layer]
            out[f"{layer}_self_s"] = self.self_time[layer]
            out[CALL_METRIC.get(layer, f"{layer}_calls")] = self.calls[layer]
        for layer in COUNTS:
            out[f"{layer}_calls"] = self.calls[layer]
        gets = self.calls["cache.get"]
        out.update({
            "matfact.hom_dim": self.hom_dim,
            "linalg.max_rows": self.max_rows,
            "linalg.max_cols": self.max_cols,
            "linalg.nnz": self.nnz,
            "cache.hits": self.hits,
            "cache.hit_ratio": self.hits / gets if gets else 0.0,
            "cache.rejects": self.rejects,
            "trace.coverage": self.top_level / job_wall if job_wall else 0.0,
        })
        return out
