"""Per-layer tracing of ellforge from outside the package.

``Tracer.install()`` replaces the public functions of every ellforge module,
and the hot methods listed in ``METHODS``, with timing wrappers.  It rebinds
every name that refers to a wrapped callable: ``equivderham`` and
``sheafmodel`` import ``nullspace`` and ``matrix_rank`` by name,
``MultiSeries.__rmul__`` is the same function as ``__mul__``, and the
benchmark's own task module imports the entry points it calls.
``uninstall()`` puts every original back.

A layer is a module.  Each traced call is a frame on one stack, so a
frame's self time is its duration minus the time of the traced frames it
directly encloses.  ``busy_s`` of a layer or group is inclusive and counts
nested calls of the same layer or group once.  Calls of the hot methods
(several per microsecond of library work) are aggregated into counts and
times; every other call is also kept as a span (name, start, end, parent)
in memory, and ``spans`` is written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

MODULES = (
    "series",
    "modforms",
    "sigma",
    "fermion",
    "euler",
    "equivderham",
    "sheafmodel",
    "cli",
)

# How calls are recorded: SPAN keeps a span per call, HOT only aggregates
# count and time, COUNT only counts (it has no frame, so its time stays in
# the caller's self time).
SPAN, HOT, COUNT = "span", "hot", "count"

# (module, class, method) -> (group, kind)
METHODS = {
    ("series", "MultiSeries", "__mul__"): ("series.mul", HOT),
    ("series", "TruncatedSeries", "__mul__"): ("series.mul", HOT),
    ("series", "MultiSeries", "subs"): ("series.subs", HOT),
    ("series", "TruncatedSeries", "compose"): ("series.subs", HOT),
    ("series", "MultiSeries", "reversion"): ("series.reversion", HOT),
    ("series", "TruncatedSeries", "reversion"): ("series.reversion", HOT),
    ("sigma", "FormalGroupLaw", "is_unital"): ("sigma.fgl", SPAN),
    ("sigma", "FormalGroupLaw", "is_commutative"): ("sigma.fgl", SPAN),
    ("sigma", "FormalGroupLaw", "is_associative"): ("sigma.fgl", SPAN),
    ("equivderham", "Derivation", "__call__"): ("equivderham.derivation", HOT),
    ("equivderham", "GradedElement", "__mul__"): ("equivderham.graded_mul", COUNT),
}

# (module, function) -> (group, kind) for module-level functions whose
# group or kind differs from the default (own name, SPAN).
FUNCTIONS = {
    ("sigma", "sigma_num"): ("sigma.num", HOT),
    ("fermion", "pf_closed"): ("fermion.pf", SPAN),
    ("fermion", "pf_truncated_ratio"): ("fermion.pf", SPAN),
    ("fermion", "pf_rowlimit_ratio"): ("fermion.pf", SPAN),
    ("fermion", "vacuum_character"): ("fermion.character", SPAN),
    ("fermion", "vacuum_character_product"): ("fermion.character", SPAN),
    ("modforms", "eisenstein_num"): ("modforms.oracle", SPAN),
    ("modforms", "eisenstein_lattice"): ("modforms.oracle", SPAN),
    ("modforms", "g2_lattice"): ("modforms.oracle", SPAN),
    ("modforms", "lattice_value"): ("modforms.oracle", SPAN),
}

# name -> unit of every per-layer metric, in the order they are reported
UNITS = {
    "series.mul.calls": "count",
    "series.mul.busy_s": "s",
    "series.subs.busy_s": "s",
    "series.reversion.busy_s": "s",
    "series.rref.calls": "count",
    "series.rref.busy_s": "s",
    "series.rref.cells": "count",
    "series.rref.max_cells": "count",
    "series.rref.nnz_frac": "ratio",
    "series.rref.rank_ratio": "ratio",
    "equivderham.joint_nullspace.calls": "count",
    "equivderham.joint_nullspace.busy_s": "s",
    "equivderham.joint_nullspace.self_s": "s",
    "equivderham.derivation.calls": "count",
    "equivderham.derivation.busy_s": "s",
    "equivderham.graded_mul.calls": "count",
    "equivderham.self_s": "s",
    "sheafmodel.calls": "count",
    "sheafmodel.busy_s": "s",
    "sheafmodel.self_s": "s",
    "sigma.busy_s": "s",
    "sigma.self_s": "s",
    "sigma.num.calls": "count",
    "fermion.pf.busy_s": "s",
    "fermion.pf.rows": "count",
    "fermion.character.busy_s": "s",
    "modforms.oracle.calls": "count",
    "modforms.oracle.busy_s": "s",
    "euler.busy_s": "s",
    "cli.calls": "count",
    "cli.busy_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    depth: int = 0


class Tracer:
    def __init__(self):
        self._patches = []  # (namespace, attribute, original value)
        self._stack = []  # child seconds of each open frame
        self._open_spans = []  # indices into spans of the open SPAN frames
        self.spans = []  # (name, start, end, parent index or -1)
        self.t0 = time.perf_counter()
        self.groups = {}  # group name -> Stat
        self.layers = {}  # module name -> Stat
        self.reset()

    def reset(self):
        """Zero the aggregates; spans are kept until the run ends."""
        for stat in [*self.groups.values(), *self.layers.values()]:
            stat.calls, stat.busy, stat.self_time = 0, 0.0, 0.0
        self.rref_cells = 0
        self.rref_max_cells = 0
        self.rref_nonzeros = 0
        self.rref_rows = 0
        self.rref_rank = 0
        self.pf_rows = 0
        self.stdout_bytes = 0

    def _stat(self, table, key):
        stat = table.get(key)
        if stat is None:
            stat = table[key] = Stat()
        return stat

    # ------------------------------------------------------------ wrappers

    def _timed(self, fn, name, layer, group, kind, before=None, after=None):
        perf = time.perf_counter
        stack = self._stack
        open_spans = self._open_spans
        spans = self.spans
        record = kind == SPAN
        g = self._stat(self.groups, group)
        lay = self._stat(self.layers, layer)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            g.calls += 1
            lay.calls += 1
            g.depth += 1
            lay.depth += 1
            stack.append(0.0)
            if record:
                index = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                took = end - start
                child = stack.pop()
                if stack:
                    stack[-1] += took
                g.self_time += took - child
                lay.self_time += took - child
                g.depth -= 1
                lay.depth -= 1
                if not g.depth:
                    g.busy += took
                if not lay.depth:
                    lay.busy += took
                if record:
                    open_spans.pop()
                    spans[index] = (name, start - self.t0, end - self.t0, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, fn, group):
        g = self._stat(self.groups, group)

        def wrapper(*args, **kwargs):
            g.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name, layer, group, kind):
        if kind == COUNT:
            return functools.update_wrapper(self._counted(fn, group), fn)
        before = after = None
        if group == "series.rref":
            before, after = self._rref_before, self._rref_after
        elif group == "fermion.pf":
            sig = inspect.signature(fn)
            if "M" in sig.parameters or "rows" in sig.parameters:
                before = self._pf_rows(sig)
        elif group == "cli.main":
            before, after = self._stdout_before, self._stdout_after
        return functools.update_wrapper(
            self._timed(fn, name, layer, group, kind, before, after), fn
        )

    # Counting done by the hooks below runs outside the callee's timed
    # interval but inside the caller's; it is part of trace.overhead_s.

    def _rref_before(self, args, kwargs):
        # rows may be wider than ncols (solve_exact appends its right-hand
        # side), and every entry of a row takes part in the row operations
        rows = args[0] if args else kwargs["rows"]
        cells = sum(len(row) for row in rows)
        self.rref_cells += cells
        self.rref_max_cells = max(self.rref_max_cells, cells)
        self.rref_rows += len(rows)
        self.rref_nonzeros += sum(1 for row in rows for x in row if x)

    def _rref_after(self, result):
        self.rref_rank += len(result[1])

    def _pf_rows(self, sig):
        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            half = bound.arguments.get("M", bound.arguments.get("rows"))
            self.pf_rows += (2 * half + 1) * len(bound.arguments["sector_a"])

        return before

    def _stdout_before(self, args, kwargs):
        # the benchmark captures cli.main's output in a StringIO
        out = sys.stdout
        self._stdout_start = len(out.getvalue()) if hasattr(out, "getvalue") else None

    def _stdout_after(self, result):
        if self._stdout_start is not None:
            self.stdout_bytes += len(sys.stdout.getvalue()[self._stdout_start:].encode())

    # ------------------------------------------------------- install/remove

    def install(self, extra_modules=()):
        """Wrap ellforge's public callables and rebind every reference to them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"ellforge.{m}") for m in MODULES]
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(MODULES, modules):
            for fname, obj in vars(mod).items():
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                group, kind = FUNCTIONS.get((layer, fname), (f"{layer}.{fname}", SPAN))
                wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{fname}", layer, group, kind))
        for (layer, cls_name, meth), (group, kind) in METHODS.items():
            cls = getattr(importlib.import_module(f"ellforge.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            wrapper = self._wrap(orig, f"{layer}.{cls_name}.{meth}", layer, group, kind)
            for attr, value in list(vars(cls).items()):
                if value is orig:
                    self._patch(cls, attr, wrapper)
        for mod in [*modules, *extra_modules]:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------- results

    def task(self, name, fn):
        """Run ``fn`` as a root span named ``task.<name>``."""
        return self._timed(fn, f"task.{name}", "task", f"task.{name}", SPAN)()

    def metrics(self) -> dict:
        """The per-layer metrics of everything traced since the last reset."""
        def g(group):
            return self.groups.get(group, Stat())

        def lay(layer):
            return self.layers.get(layer, Stat())

        return {
            "series.mul.calls": g("series.mul").calls,
            "series.mul.busy_s": g("series.mul").busy,
            "series.subs.busy_s": g("series.subs").busy,
            "series.reversion.busy_s": g("series.reversion").busy,
            "series.rref.calls": g("series.rref").calls,
            "series.rref.busy_s": g("series.rref").busy,
            "series.rref.cells": self.rref_cells,
            "series.rref.max_cells": self.rref_max_cells,
            "series.rref.nnz_frac": self.rref_nonzeros / self.rref_cells if self.rref_cells else 0.0,
            "series.rref.rank_ratio": self.rref_rank / self.rref_rows if self.rref_rows else 0.0,
            "equivderham.joint_nullspace.calls": g("equivderham.joint_nullspace").calls,
            "equivderham.joint_nullspace.busy_s": g("equivderham.joint_nullspace").busy,
            "equivderham.joint_nullspace.self_s": g("equivderham.joint_nullspace").self_time,
            "equivderham.derivation.calls": g("equivderham.derivation").calls,
            "equivderham.derivation.busy_s": g("equivderham.derivation").busy,
            "equivderham.graded_mul.calls": g("equivderham.graded_mul").calls,
            "equivderham.self_s": lay("equivderham").self_time,
            "sheafmodel.calls": lay("sheafmodel").calls,
            "sheafmodel.busy_s": lay("sheafmodel").busy,
            "sheafmodel.self_s": lay("sheafmodel").self_time,
            "sigma.busy_s": lay("sigma").busy,
            "sigma.self_s": lay("sigma").self_time,
            "sigma.num.calls": g("sigma.num").calls,
            "fermion.pf.busy_s": g("fermion.pf").busy,
            "fermion.pf.rows": self.pf_rows,
            "fermion.character.busy_s": g("fermion.character").busy,
            "modforms.oracle.calls": g("modforms.oracle").calls,
            "modforms.oracle.busy_s": g("modforms.oracle").busy,
            "euler.busy_s": lay("euler").busy,
            "cli.calls": g("cli.main").calls,
            "cli.busy_s": lay("cli").busy,
            "cli.self_s": lay("cli").self_time,
            "cli.stdout_bytes": self.stdout_bytes,
        }

