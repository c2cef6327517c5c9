"""Outside-in tracing of the ``fairpr`` modules.

The tracer patches every public function of each traced module in every
``fairpr`` namespace that holds it, so calls made through ``from .x import
name`` bindings are seen too, and records one span per call: name, parent
span, start and end.  ``TransitionModel`` products are only counted, since
they are far too frequent for spans.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.

Nothing in the program is changed on disk: :meth:`Tracer.uninstall` (or
leaving the ``with`` block) restores every patched binding.  A module or
name that no longer exists is skipped; :attr:`Tracer.wrapped` tells the
metric layer which names were found.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("cli", "graph", "synth", "pagerank", "simplex", "fspr", "lfpr", "analysis")
COUNTED_METHODS = (
    ("pagerank", "TransitionModel", "apply_left"),
    ("pagerank", "TransitionModel", "apply_right"),
)
# Result attributes summed per traced function (solver iterations, search
# evaluations): counts the program already reports, read at the boundary.
RESULT_FIELDS = {
    "fspr.solve_fspr": "iterations",
    "lfpr.optimize_residuals": "evaluations",
}


class Tracer:
    """Span recorder installed over the ``fairpr`` package."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.results: Counter = Counter()
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fairpr" or name.startswith("fairpr."))
        ]
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"fairpr.{short}")
            except ModuleNotFoundError:
                continue
        namespaces.extend(m for m in modules.values() if m not in namespaces)

        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qualname = f"{short}.{attr}"
                wrapper = self._span_wrapper(qualname, obj)
                self.wrapped.add(qualname)
                for ns in namespaces:
                    for ns_attr in [k for k, v in vars(ns).items() if v is obj]:
                        self._patch(ns, ns_attr, wrapper)

        for short, cls_name, method in COUNTED_METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if fn is None:
                continue
            qualname = f"{short}.{cls_name}.{method}"
            self.wrapped.add(qualname)
            self._patch(cls, method, self._count_wrapper(qualname, fn))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _span_wrapper(self, qualname, fn):
        spans, stack = self.spans, self._stack
        field = RESULT_FIELDS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [qualname, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if field is not None:
                self.results[qualname] += getattr(result, field, 0)
            return result

        return traced

    def _count_wrapper(self, qualname, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path) -> None:
        """Write spans and counts as JSON (call once the run has ended)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "results": dict(self.results),
                },
                fh,
            )


class SpanIndex:
    """Aggregates over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [end - start - child_time[i] for i, (_, _, start, end) in enumerate(spans)]

    def calls(self, names) -> int:
        return sum(1 for span in self.spans if span[0] in names)

    def total(self, names) -> float:
        """Time inside any of ``names``, counting nested calls among them once."""
        covered = 0.0
        for name, parent, start, end in self.spans:
            if name in names and not self._has_ancestor(parent, names):
                covered += end - start
        return covered

    def self_total(self, predicate) -> float:
        """Summed self time of the spans whose name satisfies ``predicate``."""
        return sum(t for span, t in zip(self.spans, self.self_time) if predicate(span[0]))

    def calls_within(self, names, ancestor) -> int:
        return sum(
            1
            for name, parent, _, _ in self.spans
            if name in names and self._has_ancestor(parent, (ancestor,))
        )

    def _has_ancestor(self, index, names) -> bool:
        while index >= 0:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][1]
        return False
