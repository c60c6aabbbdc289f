"""Layer tracing from outside the program.

The tracer replaces chosen functions of the `algebroid` modules by
wrappers, in every `algebroid` namespace that binds them (for example
`funmodel.find_witness` and `checkers.find_witness`, or `exactmath.rank`
and `kvfin.mat_rank`), and puts the originals back afterwards. A "span"
wrapper records (span id, parent span, call id, layer, start, end) in
memory; a "count" wrapper only counts calls. Per-layer metrics are
computed from the spans at the end, and the spans can be written out.

Wrappers record only while a call is active, so inputs generated between
calls are not counted. A function that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib.abc
import importlib.machinery
import inspect
import itertools
import sys
import time
from collections import Counter

_now = time.perf_counter_ns

PACKAGE = "algebroid"

DIRECT_EVAL = ("jacobiator", "kv_anomaly", "leibniz_anomaly", "courant_T", "pairing_coboundary")


def _op_builders(structures):
    return tuple(
        name
        for name, fn in vars(structures).items()
        if name.endswith("_op")
        and inspect.isfunction(fn)
        and fn.__module__ == structures.__name__
    )


# (layer, module, attributes, mode): attributes are dotted names inside
# the module; a callable gives them from the module.
LAYERS = (
    ("funmodel.find_witness", "funmodel", ("find_witness",), "span"),
    ("funmodel.MultiDiffOp.compose", "funmodel", ("MultiDiffOp.compose",), "span"),
    ("funmodel.MultiDiffOp.apply", "funmodel", ("MultiDiffOp.apply",), "span"),
    ("funmodel.MultiDiffOp.bind", "funmodel", ("MultiDiffOp.bind",), "count"),
    ("exactmath.Poly.mul", "exactmath", ("Poly.__mul__",), "count"),
    ("exactmath.Poly.add", "exactmath", ("Poly.__add__",), "count"),
    ("exactmath.Poly.diff_multi", "exactmath", ("Poly.diff_multi",), "count"),
    ("exactmath.parse_poly", "exactmath", ("parse_poly",), "span"),
    ("exactmath.rank", "exactmath", ("rank",), "span"),
    ("exactmath.solve_linear", "exactmath", ("solve_linear",), "span"),
    ("structures.op_build", "structures", _op_builders, "span"),
    ("structures.direct_eval", "structures", DIRECT_EVAL, "span"),
    ("checkers.check_profile", "checkers", ("check_profile",), "span"),
    ("kvfin.cohomology_summary", "kvfin", ("cohomology_summary",), "span"),
    ("kvfin.fin_coboundary", "kvfin", ("fin_coboundary",), "count"),
    ("kvfin.clan_classify", "kvfin", ("clan_classify",), "span"),
    ("kvfin.exactness_witness", "kvfin", ("exactness_witness",), "span"),
    ("fileformat.parse_document", "fileformat", ("parse_document",), "span"),
    ("fileformat.serialize_document", "fileformat", ("serialize_document",), "span"),
    ("cli.run", "cli", ("run",), "span"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.call_id = 0
        self.stack = [0]
        self.next_id = 1
        self.depth = Counter()
        self.counts = Counter()
        self.distinct = set()
        self.builds = Counter()  # outermost operator builds, by builder
        # spans as parallel lists: id, parent, call, layer, start, end, outermost
        self.spans = ([], [], [], [], [], [], [])
        self.absent = []
        self._restore = []

    # -- installing ---------------------------------------------------------

    @staticmethod
    def _namespaces():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        for layer, module, attrs, mode in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            if callable(attrs):
                attrs = attrs(mod) if mod is not None else ()
            found = False
            for attr in attrs:
                owner, _, fname = attr.rpartition(".")
                target = mod
                for part in filter(None, owner.split(".")):
                    target = getattr(target, part, None)
                original = getattr(target, fname, None) if target is not None else None
                if original is None:
                    continue
                found = True
                wrapper = self._wrap(layer, fname, original, mode)
                owners = [target] if owner else self._namespaces()
                for ns in owners:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, name, original))
                            setattr(ns, name, wrapper)
            if not found:
                self.absent.append(layer)

    def uninstall(self):
        for ns, name, original in reversed(self._restore):
            setattr(ns, name, original)
        self._restore.clear()

    def begin_call(self, call_id: int):
        self.call_id = call_id
        self.active = True

    def end_call(self):
        self.active = False

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer, fname, fn, mode):
        tracer = self
        if mode == "count":

            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.counts[layer] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        enter = getattr(self, "_enter_" + layer.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + layer.replace(".", "_"), None)
        ids, parents, calls, layers, starts, ends, outer = self.spans
        stack, depth = self.stack, self.depth

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1]
            outermost = depth[layer] == 0
            depth[layer] += 1
            stack.append(sid)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                depth[layer] -= 1
                ids.append(sid)
                parents.append(parent)
                calls.append(tracer.call_id)
                layers.append(layer)
                starts.append(t0)
                ends.append(t1)
                outer.append(outermost)
            if leave is not None and outermost:
                leave(fname, args, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _enter_funmodel_MultiDiffOp_apply(self, args):
        if self.depth["funmodel.find_witness"]:
            self.counts["funmodel.find_witness.candidates"] += 1

    def _enter_exactmath_rank(self, args):
        m = args[0]
        self.counts["exactmath.rank.cells"] += len(m) * (len(m[0]) if len(m) else 0)
        self.counts["exactmath.rank.nonzeros"] += sum(map(bool, itertools.chain.from_iterable(m)))

    def _enter_fileformat_parse_document(self, args):
        self.counts["fileformat.parse_document.bytes"] += len(args[0].encode("utf-8"))

    def _leave_structures_op_build(self, fname, args, result):
        self.distinct.add((self.call_id, fname, id(args[0])))
        self.builds[fname] += 1
        self.counts["structures.op_build.terms"] += len(result.terms)

    def _leave_checkers_check_profile(self, fname, args, result):
        self.counts["checkers.axioms"] += len(result.entries)
        self.counts["checkers.axioms_failed"] += sum(1 for e in result.entries if not e.passed)

    # -- results ----------------------------------------------------------------

    def layer_times(self):
        """Per layer: total time of outermost spans, self time (duration
        minus direct children), and outermost span count; times in ns."""
        ids, parents, _calls, layers, starts, ends, outer = self.spans
        child = Counter()
        for parent, t0, t1 in zip(parents, starts, ends):
            child[parent] += t1 - t0
        total, self_time, count = Counter(), Counter(), Counter()
        for sid, layer, t0, t1, top in zip(ids, layers, starts, ends, outer):
            dur = t1 - t0
            self_time[layer] += dur - child[sid]
            if top:
                total[layer] += dur
                count[layer] += 1
        return total, self_time, count

    def time_inside(self, layer: str, ancestor: str) -> int:
        """Nanoseconds of outermost `layer` spans that run inside an
        `ancestor` span."""
        ids, parents, _calls, layers, starts, ends, outer = self.spans
        parent_of = dict(zip(ids, parents))
        layer_of = dict(zip(ids, layers))
        out = 0
        for sid, lay, t0, t1, top in zip(ids, layers, starts, ends, outer):
            if lay != layer or not top:
                continue
            p = parent_of.get(sid, 0)
            while p and layer_of[p] != ancestor:
                p = parent_of.get(p, 0)
            if p:
                out += t1 - t0
        return out

    def write_spans(self, path):
        """Write the spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\tcall\tlayer\tstart_ns\tend_ns\n")
            for row in zip(*self.spans[:6]):
                fh.write("\t".join(str(v) for v in row) + "\n")


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times the execution of each `algebroid` module while it is
    imported; self time excludes the modules it imports in turn."""

    def __init__(self):
        self.stack = []
        self.self_s = {}

    def __enter__(self):
        sys.meta_path.insert(0, self)
        return self

    def __exit__(self, *exc):
        sys.meta_path.remove(self)

    def find_spec(self, name, path, target=None):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        timer = self

        def timed_exec(module):
            timer.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                exec_module(module)
            finally:
                dt = time.perf_counter() - t0
                inner = timer.stack.pop()
                if timer.stack:
                    timer.stack[-1] += dt
                timer.self_s[name] = dt - inner

        spec.loader.exec_module = timed_exec
        return spec
