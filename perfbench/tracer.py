"""Outside-in span tracer for the poissonkit layers.

The tracer edits no source file.  It wraps public functions and records a
span (name, start, end, parent) around every call from the outside.  A
function is replaced in *every* module namespace that binds it: ``cli``
imports ``cohomology_table`` by name and ``diagnostics`` imports
``is_squarefree``, ``buchberger`` and ``gcd_multi``, so patching only the
home module would miss those calls.

A call made while a span of the same name is open (``gcd_multi`` through
``_content``, say) runs unwrapped: its time and its count belong to the
outermost span.  Work the tracer does for its own counters runs inside a
``trace.bookkeeping`` span, so it is never charged to a layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "structfile",
    "poisson",
    "multivec",
    "polyalg",
    "groebner",
    "diagnostics",
    "graded_cohomology",
)

BOOKKEEPING = "trace.bookkeeping"

# Sort keys run once per term; a span per call would cost more than the work.
UNTRACED = {"polyalg.grevlex_key"}


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores every binding."""

    def __init__(self, package: str = "poissonkit"):
        self.package = package
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._uncounted: set[int] = set()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[index]] -= 1

    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            caller = tracer.current()
            index = tracer._begin(name)
            try:
                if before is not None:
                    mark = tracer._begin(BOOKKEEPING)
                    try:
                        before(tracer.counters, caller, args)
                    finally:
                        tracer._end(mark)
                result = fn(*args, **kwargs)
                if after is not None:
                    mark = tracer._begin(BOOKKEEPING)
                    try:
                        after(tracer.counters, caller, args, result)
                    finally:
                        tracer._end(mark)
                return result
            finally:
                tracer._end(index)

        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every public function of every layer, in every binding module.

        ``hooks`` maps a span name to ``(before, after)`` callbacks, called
        as ``before(counters, caller, args)`` and
        ``after(counters, caller, args, result)``, where ``caller`` is the
        name of the enclosing span.
        """
        hooks = hooks or {}
        modules = [m for n, m in sys.modules.items() if n == self.package or n.startswith(self.package + ".")]
        for layer in LAYERS:
            home = sys.modules[f"{self.package}.{layer}"]
            for attr, fn in list(vars(home).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                wrapped = self._wrap(name, fn, *hooks.get(name, (None, None)))
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, binding, wrapped)
        structfile = sys.modules[f"{self.package}.structfile"]
        spec = structfile.StructureSpec
        self._set(spec, "build", self._wrap("structfile.StructureSpec.build", spec.build))
        poly = sys.modules[f"{self.package}.polyalg"].Poly
        init = poly.__init__
        counters = self.counters

        def counted_init(self, *args, **kwargs):
            counters["polyalg.poly_constructed"] += 1
            init(self, *args, **kwargs)

        self._set(poly, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------------

    def drop_counts(self, first_span: int, counters: dict) -> None:
        """Leave spans from ``first_span`` on out of every count and restore ``counters``.

        The spans still count toward every time.
        """
        self._uncounted.update(range(first_span, len(self.names)))
        self.counters.clear()
        self.counters.update(counters)

    def summary(self) -> dict:
        """Per-name call counts, inclusive time, self time, and child time by name."""
        count: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        child_time: defaultdict = defaultdict(float)  # (parent name, child name) -> s
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            count[name] += i not in self._uncounted
            total[name] += duration
            self_time[name] += duration
            parent = self.parents[i]
            if parent >= 0:
                self_time[self.names[parent]] -= duration
                child_time[(self.names[parent], name)] += duration
        return {"count": count, "total": total, "self": self_time, "child": child_time}

    def span_count(self) -> int:
        """Spans recorded and counted."""
        return len(self.names) - len(self._uncounted)
