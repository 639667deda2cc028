"""Span tracing of the coxlinks layers from outside the package.

Tracing wraps public names of the ``coxlinks`` modules in place: every
module namespace that binds a traced function gets the wrapper, and the
listed methods are replaced on their classes.  Nothing under ``src/`` is
edited.  Spans (name, start, end, parent span, op id) are kept in flat
arrays in memory and summarised, or written out, when the run ends.

Time spent in a private helper that is not wrapped counts toward the self
time of the traced function that called it; ``IntPolynomial.eval_sign``
is only counted, so its cost lands in its caller's self time too.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("graphs", "exact", "coxeter", "spectra", "analysis", "cli")

# Traced names, listed as module.name or module.Class.method, with the
# category whose outermost span time a per-layer metric reports.  A name
# missing at some commit is skipped and counted, so the same benchmark
# runs before and after a refactor deletes it.
TRACED = {
    "graphs.enumerate_alternating_trees": "graphs.enum",
    "graphs.tree_canonical_key": "graphs.enum",
    "graphs.parse_graph": "graphs.parse",
    "exact.IntMatrix.charpoly": "exact.charpoly",
    "exact.mat_charpoly": "exact.charpoly",
    "exact.IntMatrix.__matmul__": "exact.matmul",
    "exact.IntMatrix.inverse_unimodular": "exact.inverse",
    "exact.squarefree_part": "exact.squarefree",
    "exact.squarefree_decomposition": "exact.squarefree",
    "exact.poly_gcd": "exact.gcd",
    "exact.poly_divexact": "exact.divexact",
    "exact.IntPolynomial.eval_sign": None,
    "coxeter.CoxeterSystem.build": "coxeter.build",
    "coxeter.bipartite_factors": "coxeter.build",
    "coxeter.coxeter_transformation": "coxeter.build",
    "coxeter.bilinear_form": "coxeter.build",
    "coxeter.reflection": "coxeter.build",
    "coxeter.seifert_matrix": "coxeter.build",
    "coxeter.verify_proof_identities": "coxeter.identities",
    "coxeter.homological_monodromy": "coxeter.monodromy",
    "coxeter.coxeter_polynomial": None,
    "coxeter.alexander_polynomial": None,
    "spectra.is_real_rooted": "spectra.real_rooted",
    "spectra.is_real_stable": "spectra.real_rooted",
    "spectra.spectral_radius_enclosure": "spectra.radius",
    "spectra.max_real_root": "spectra.max_root",
    "spectra.isolate_real_roots": "spectra.isolate",
    "spectra.min_root_interval": "spectra.isolate",
    "spectra.sturm_count": "spectra.isolate",
    "spectra.interlace_check": "spectra.interlace",
    "spectra.compare_isolated_roots": "spectra.compare",
    "analysis.sign_alternation_check": "analysis.shape",
    "analysis.trapezoidal_check": "analysis.shape",
    "analysis.log_concavity_check": "analysis.shape",
    "analysis.analyze": None,
    "analysis.verify_theorems": None,
    "analysis.min_dilatation_search": None,
    "analysis.AnalysisReport.to_json_dict": "cli.render",
    "analysis.AnalysisReport.render_text": "cli.render",
    "analysis.VerificationSummary.render_text": "cli.render",
    "analysis.MinSearchResult.render_text": "cli.render",
    "graphs.graph_to_text": "cli.render",
    "cli.main": None,
}

# Names that are counted but get no span: they run millions of times.
COUNT_ONLY = {"exact.IntPolynomial.eval_sign"}

CATEGORIES = tuple(sorted({c for c in TRACED.values() if c}))


class SpanLog:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.cats: list[str | None] = []
        self.name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.span_name = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = -1

    def register(self, name: str, layer: str, cat: str | None) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.cats.append(cat)
            self.calls.append(0)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.calls[nid] += 1
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tparent\top\tstart\tend\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.parent[i]}\t"
                         f"{self.op_id[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def self_times(log: SpanLog) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(log.parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(log)):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, ()), key=log.start.__getitem__):
            s, e = log.start[c], log.end[c]
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            elif e > hi:
                hi = e
        if hi is not None:
            covered += hi - lo
        out.append(log.end[i] - log.start[i] - covered)
    return out


def summarize(log: SpanLog) -> tuple[dict[str, float], dict[str, float]]:
    """(self time per layer, outermost span time per category).

    A span adds to its category only when no enclosing span has the same
    category, so recursion and wrapper-over-method pairs count once."""
    layer_self = dict.fromkeys(LAYERS, 0.0)
    cat_time = dict.fromkeys(CATEGORIES, 0.0)
    bit = {c: 1 << k for k, c in enumerate(CATEGORIES)}
    inherited = array("q")  # categories open above each span, as a bit mask
    selfs = self_times(log)
    for i in range(len(log)):
        nid = log.span_name[i]
        p = log.parent[i]
        mask = 0
        if p >= 0:
            mask = inherited[p]
            pcat = log.cats[log.span_name[p]]
            if pcat:
                mask |= bit[pcat]
        inherited.append(mask)
        layer = log.layers[nid]
        if layer in layer_self:
            layer_self[layer] += selfs[i]
        cat = log.cats[nid]
        if cat and not mask & bit[cat]:
            cat_time[cat] += log.end[i] - log.start[i]
    return layer_self, cat_time


class Tracer:
    """Installs span wrappers on the loaded coxlinks modules."""

    def __init__(self, log: SpanLog):
        self.log = log
        self.skipped: list[str] = []
        self.charpoly_n4 = 0
        self.max_coeff_bits = 0
        self._yields: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _span(self, fn, nid: int):
        begin, finish = self.log.begin, self.log.finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
        return wrapper

    def _generator_span(self, fn, nid: int):
        # a generator does its work on each resumption, so each next() is a span
        begin, finish = self.log.begin, self.log.finish
        yields = self._yields
        yields[nid] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    i = begin(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(i)
                    yields[nid] += 1
                    yield item
            finally:
                it.close()
        return wrapper

    def _count(self, fn, nid: int):
        calls = self.log.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _charpoly(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(m, *args, **kwargs):
            p = fn(m, *args, **kwargs)
            tracer.charpoly_n4 += m.n ** 4
            bits = max((abs(c).bit_length() for c in p.coeffs), default=0)
            tracer.max_coeff_bits = max(tracer.max_coeff_bits, bits)
            return p
        return wrapper

    def _wrap(self, qual: str, layer: str, cat: str | None, fn):
        nid = self.log.register(qual, layer, cat)
        if qual in COUNT_ONLY:
            return self._count(fn, nid)
        if qual == "exact.IntMatrix.charpoly":
            fn = self._charpoly(fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(fn, nid)
        return self._span(fn, nid)

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("coxlinks.") and mod is not None}
        namespaces = [sys.modules["coxlinks"], *modules.values()]
        targets = dict(TRACED)
        # public functions the list does not name still get spans, so that
        # self time stays attributed when a later commit adds functions
        for short, mod in modules.items():
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets.setdefault(f"{short}.{attr}", None)
        for qual, cat in targets.items():
            short, *path = qual.split(".")
            mod = modules.get(short)
            layer = cat.split(".")[0] if cat else short
            if len(path) == 2:
                cls = getattr(mod, path[0], None)
                raw = vars(cls).get(path[1]) if isinstance(cls, type) else None
                if raw is None:
                    self.skipped.append(qual)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(qual, layer, cat, raw.__func__))
                else:
                    new = self._wrap(qual, layer, cat, raw)
                setattr(cls, path[1], new)
                self._restore.append((cls, path[1], raw))
                continue
            fn = getattr(mod, path[0], None)
            if not inspect.isfunction(fn):
                self.skipped.append(qual)
                continue
            new = self._wrap(qual, layer, cat, fn)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, attr, new)
                        self._restore.append((ns, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def calls(self, qual: str) -> int:
        nid = self.log.name_ids.get(qual)
        return self.log.calls[nid] if nid is not None else 0

    def yields(self, qual: str) -> int:
        """Items a traced generator function has yielded."""
        return self._yields.get(self.log.name_ids.get(qual), 0)
