"""Span tracer for traced benchmark passes, installed from outside the library.

``install`` replaces each public function named in ``TARGETS`` by a wrapper
that records a span (name, item id, parent span, start, end) while an item is
running.  Spans stay in memory; ``summary`` turns them into calls, total
time and self time per function, where self time is a span's duration minus
the time its child spans cover.  Only traced passes import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

TARGETS = (
    "linsys.compute_system",
    "linsys.condition_matrix",
    "laurent.implicitize",
    "laurent.uni_resultant",
    "laurent.irreducibility_certificate",
    "laurent.LaurentPolynomial.newton_polygon",
    "laurent.LaurentPolynomial.multiplicity_at_identity",
    "polygon.enumerate_polygons",
    "polygon.LatticePolygon.hull",
    "polygon.canonical_form",
    "polygon.minkowski_decompositions",
    "polygon.LatticePolygon.lattice_points",
    "polygon.LatticePolygon.lattice_width",
    "polygon.equivalent",
    "classify.classify_dataset",
    "seshadri.estimate",
    "seshadri.segment_equality",
    "families.verify_family_end_to_end",
    "families.family_invariants",
    "cli.main",
    "cli.load_oracle",
    "cli.ingest_polygon_dataset",
)


class Tracer:
    def __init__(self):
        self.item = None      # id of the running item; no spans outside items
        self.spans = []       # [name, item, parent index or -1, start, end]
        self._stack = []
        self._counts = Counter()
        self._compute_system = None
        self._cache_start = None

    # ------------------------------------------------------------ wrapping

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.item, self._stack[-1] if self._stack else -1,
                           perf_counter(), None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][4] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, after=None):
        if inspect.isgeneratorfunction(fn):
            # The span runs from the first next() to exhaustion; its callers
            # drain it with list(), so no other span interleaves.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if self.item is None:
                    return (yield from fn(*args, **kwargs))
                idx = self._enter(name)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    self._exit(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _under(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _after_compute_system(self, system):
        misses = self._compute_system.cache_info().misses
        if misses > self._counts["_misses_seen"]:
            self._counts["_misses_seen"] = misses
            self._counts["linsys.matrix_cells"] += system.conditions * system.total
            self._counts["linsys.max_points"] = max(
                self._counts["linsys.max_points"], system.total)
        if self._under("classify.classify_dataset"):
            self._counts["_classify_systems"] += 1

    def _after_resultant(self, res):
        self._counts["laurent.resultant_terms"] += len(res.terms)

    def _after_classify(self, hits):
        self._counts["_classify_hits"] += len(hits)

    def install(self):
        """Wrap every target; module functions are replaced in every
        ``latticecurves`` module that holds them, since several modules bind
        ``compute_system`` and others by ``from``-import."""
        hooks = {"linsys.compute_system": self._after_compute_system,
                 "laurent.uni_resultant": self._after_resultant,
                 "classify.classify_dataset": self._after_classify}
        modules = [m for k, m in list(sys.modules.items())
                   if k == "latticecurves" or k.startswith("latticecurves.")]
        for name in TARGETS:
            modname, *qual = name.split(".")
            mod = importlib.import_module(f"latticecurves.{modname}")
            if len(qual) == 2:
                cls = getattr(mod, qual[0])
                raw = cls.__dict__[qual[1]]
                if isinstance(raw, staticmethod):
                    setattr(cls, qual[1], staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, qual[1], self._wrap(name, raw))
                continue
            orig = getattr(mod, qual[0])
            if name == "linsys.compute_system":
                self._compute_system = orig  # the lru_cache object, for cache_info()
            wrapped = self._wrap(name, orig, hooks.get(name))
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is orig]:
                    setattr(m, attr, wrapped)
        self._cache_start = self._compute_system.cache_info()
        self._counts["_misses_seen"] = self._cache_start.misses

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """Per-layer metrics: calls, total_s and self_s per target, and counters."""
        child = [0.0] * len(self.spans)
        for name, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, _, _, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        info = self._compute_system.cache_info()
        c = self._counts
        out["linsys.cache_hits"] = info.hits - self._cache_start.hits
        out["linsys.cache_misses"] = info.misses - self._cache_start.misses
        out["linsys.matrix_cells"] = c["linsys.matrix_cells"]
        out["linsys.max_points"] = c["linsys.max_points"]
        out["laurent.resultant_terms"] = c["laurent.resultant_terms"]
        systems = c["_classify_systems"]
        out["classify.hit_ratio"] = c["_classify_hits"] / systems if systems else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans of this pass as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
