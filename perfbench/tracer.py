"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each spinorsheaf module (layer)
from outside the package: it replaces every module binding of a function
(the package imports with ``from .x import y``, so the defining module is
not the only name callers use), keeps one span per call in memory, and puts
every original object back on ``uninstall``.

A span is ``[name, parent, start, end, op, nested]``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the index of the
benchmark op it belongs to, and ``nested`` marks a call made while another
call of the same function was still open, so recursion is not counted
twice in busy time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (metric prefix, defining module, attribute path within it)
LAYERS = (
    ("kernels.echelon", "spinorsheaf._kernels", "echelon"),
    ("kernels.sparse_rank", "spinorsheaf._kernels", "sparse_rank"),
    ("exactalg.rref_rows", "spinorsheaf.exactalg", "rref_rows"),
    ("exactalg.mat_rank", "spinorsheaf.exactalg", "mat_rank"),
    ("exactalg.mat_solve", "spinorsheaf.exactalg", "mat_solve"),
    ("exactalg.mat_invertible", "spinorsheaf.exactalg", "mat_invertible"),
    ("exactalg.mult_map_rank", "spinorsheaf.exactalg", "mult_map_rank"),
    ("exactalg.SpanSolver.coords", "spinorsheaf.exactalg", "SpanSolver.coords"),
    ("exactalg.LinMat.evaluate", "spinorsheaf.exactalg", "LinMat.evaluate"),
    ("quadform.standardize", "spinorsheaf.quadform", "standardize"),
    ("clifford.multiply", "spinorsheaf.clifford", "multiply"),
    ("clifford.trace_form", "spinorsheaf.clifford", "trace_form"),
    ("spinor.build_ideal", "spinorsheaf.spinor", "build_ideal"),
    ("spinor.build_factorization", "spinorsheaf.spinor", "build_factorization"),
    ("spinor.action_matrices", "spinorsheaf.spinor", "IdealModule.act_ev"),
    ("spinor.action_matrices", "spinorsheaf.spinor", "IdealModule.act_odd"),
    ("spinor.check_identity", "spinorsheaf.spinor", "FactorizationPair.check_identity"),
    ("spinor.fiber_rank", "spinorsheaf.spinor", "fiber_rank"),
    ("spinor.flag_sequence", "spinorsheaf.spinor", "flag_sequence"),
    ("spinor.restrict_compare", "spinorsheaf.spinor", "restrict_compare"),
    ("spinor.cone_compare", "spinorsheaf.spinor", "cone_compare"),
    ("spinor.equivariance_check", "spinorsheaf.spinor", "equivariance_check"),
    ("homalg.hom_space", "spinorsheaf.homalg", "hom_space"),
    ("homalg.is_isomorphic", "spinorsheaf.homalg", "is_isomorphic"),
    ("homalg.factorization_equivalent", "spinorsheaf.homalg", "factorization_equivalent"),
    ("homalg.simplicity_verdict", "spinorsheaf.homalg", "simplicity_verdict"),
    ("homalg.irreducibility_check", "spinorsheaf.homalg", "irreducibility_check"),
    ("homalg.idempotent_probe", "spinorsheaf.homalg", "idempotent_probe"),
    ("homalg.sheaf_numerics", "spinorsheaf.homalg", "sheaf_numerics"),
    ("homalg.cohomology_dim", "spinorsheaf.homalg", "cohomology_dim"),
    ("homalg.euler_characteristic_matches", "spinorsheaf.homalg",
     "euler_characteristic_matches"),
    ("verify.run_suite", "spinorsheaf.verify", "run_suite"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

# Counts and ratios recorded next to the spans, with their units.
EXTRA_METRICS = (
    ("kernels.echelon.cells", "count"),
    ("kernels.echelon.max_cells", "count"),
    ("kernels.sparse_rank.nnz", "count"),
    ("homalg.hom_space.unknowns", "count"),
    ("exactalg.mat_invertible.hit_ratio", "ratio"),
    ("homalg.idempotent_probe.hit_ratio", "ratio"),
    ("homalg.is_isomorphic.hom_fallback_ratio", "ratio"),
    ("clifford.vec_cache.entries", "count"),
)

# Metrics whose value is a count of work; they repeat exactly for one seed.
COUNT_SUFFIXES = (".calls", ".cells", ".max_cells", ".nnz", ".unknowns", ".entries")


def _echelon_cells(rec, args, kwargs):
    rows, ncols = args[0], args[1]
    cells = len(rows) * ncols
    rec.counters["kernels.echelon.cells"] += cells
    if cells > rec.counters["kernels.echelon.max_cells"]:
        rec.counters["kernels.echelon.max_cells"] = cells


def _sparse_nnz(rec, args, kwargs):
    rec.counters["kernels.sparse_rank.nnz"] += sum(len(row) for row in args[0])


def _hom_unknowns(rec, args, kwargs):
    a, b = args[0], args[1]
    rec.counters["homalg.hom_space.unknowns"] += (
        b.odd_dim * a.odd_dim + b.ev_dim * a.ev_dim
    )


def _hit(counter):
    def after(rec, result):
        if result is not None:
            rec.counters[counter] += 1
    return after


BEFORE = {
    "kernels.echelon": _echelon_cells,
    "kernels.sparse_rank": _sparse_nnz,
    "homalg.hom_space": _hom_unknowns,
}
AFTER = {
    "exactalg.mat_invertible": _hit("exactalg.mat_invertible.hits"),
    "homalg.idempotent_probe": _hit("homalg.idempotent_probe.hits"),
}


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.active = dict.fromkeys(LAYER_NAMES, 0)
        self.counters = dict.fromkeys(
            ("kernels.echelon.cells", "kernels.echelon.max_cells",
             "kernels.sparse_rank.nnz", "homalg.hom_space.unknowns",
             "exactalg.mat_invertible.hits", "homalg.idempotent_probe.hits"), 0)
        self.contexts = []
        self.op = -1
        self.patches = []

    def begin(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        depth = self.active.get(name, 0)
        self.active[name] = depth + 1
        self.spans.append([name, parent, self.clock(), 0.0, self.op, depth > 0])
        self.stack.append(sid)
        return sid

    def end(self, sid):
        span = self.spans[sid]
        span[3] = self.clock()
        self.stack.pop()
        self.active[span[0]] -= 1

    # -- installing and removing the wrappers ---------------------------

    def _wrap_function(self, name, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(self, result)
            return result

        return traced

    def _wrap_property(self, name, prop, attr):
        # Only the first access computes the action matrices; later
        # accesses return the cached tuple and get no span.
        slot = "_" + attr
        fget = prop.fget

        def traced_get(obj):
            if getattr(obj, slot, None) is not None:
                return fget(obj)
            sid = self.begin(name)
            try:
                return fget(obj)
            finally:
                self.end(sid)

        return property(traced_get, prop.fset, prop.fdel, prop.__doc__)

    def _set(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function at every binding in the package."""
        if self.patches:
            raise RuntimeError("recorder is already installed")
        for _, modname, _ in LAYERS:
            importlib.import_module(modname)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "spinorsheaf" or key.startswith("spinorsheaf."))]
        for name, modname, qual in LAYERS:
            owner = importlib.import_module(modname)
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapped = self._wrap_property(name, original, attr)
                else:
                    wrapped = self._wrap_function(name, original)
                self._set(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap_function(name, original)
            for module in modules:
                keys = [k for k, v in vars(module).items() if v is original]
                for key in keys:
                    self._set(module, key, wrapped)
        clifford = importlib.import_module("spinorsheaf.clifford")
        ctx_init = clifford._Context.__init__
        contexts = self.contexts

        @functools.wraps(ctx_init)
        def registering_init(ctx, *args, **kwargs):
            ctx_init(ctx, *args, **kwargs)
            contexts.append(ctx)

        self._set(clifford._Context, "__init__", registering_init)

    def uninstall(self):
        """Put every original binding back, last patch first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics: calls, busy and self seconds per function,
        plus the counts and ratios named in EXTRA_METRICS.  The Clifford
        cache count is the number of entries in every Clifford context
        created while the recorder was installed, read when this is called
        (contexts are kept alive, and their caches only grow)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, parent, start, end, op, nested in spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        iso_calls = set()
        iso_reached = set()
        for sid, (name, parent, start, end, op, nested) in enumerate(spans):
            st = stats.get(name)
            if st is None:
                continue
            dur = end - start
            st[0] += 1
            if not nested:
                st[1] += dur
            st[2] += dur - covered[sid]
            if name == "homalg.is_isomorphic":
                iso_calls.add(sid)
            elif name == "homalg.hom_space":
                p = parent
                while p >= 0 and spans[p][0] != "homalg.is_isomorphic":
                    p = spans[p][1]
                if p >= 0:
                    iso_reached.add(p)
        out = {}
        for name in LAYER_NAMES:
            calls, busy, own = stats[name]
            out[name + ".calls"] = (calls, "count")
            out[name + ".busy_s"] = (busy, "s")
            out[name + ".self_s"] = (own, "s")
        c = self.counters
        values = {
            "exactalg.mat_invertible.hit_ratio":
                _ratio(c["exactalg.mat_invertible.hits"], stats["exactalg.mat_invertible"][0]),
            "homalg.idempotent_probe.hit_ratio":
                _ratio(c["homalg.idempotent_probe.hits"], stats["homalg.idempotent_probe"][0]),
            "homalg.is_isomorphic.hom_fallback_ratio": _ratio(len(iso_reached), len(iso_calls)),
            "clifford.vec_cache.entries": sum(len(ctx.vec_cache) for ctx in self.contexts),
        }
        for name, unit in EXTRA_METRICS:
            out[name] = (values[name] if name in values else c[name], unit)
        return out

    def write_jsonl(self, path, op_labels):
        """Write the spans as JSON lines, times in seconds from the first
        span.  ``op_labels[i]`` names the benchmark op with index ``i``."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end, op, nested) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op,
                    "op_label": op_labels[op] if op >= 0 else None,
                    "name": name, "start": start - t0, "end": end - t0,
                }, separators=(",", ":")) + "\n")


def _ratio(hits, calls):
    """hits / calls, and 0 for a function that was never called."""
    return hits / calls if calls else 0.0


def is_count_metric(name):
    return name.endswith(COUNT_SUFFIXES)
