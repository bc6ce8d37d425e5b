"""In-memory spans recorded around calls into the library's layers.

Nothing inside the library changes: a Tracer replaces, for the duration of
a traced round, every module attribute that refers to a traced public
function with a wrapper that records a span.  Patching the importing
modules' names as well as the defining module's catches cross-layer calls
such as solver -> max_consecutive_run and cli -> validate.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int  # operation id shared by every span of one benchmark operation
    start: float = 0.0
    end: float = 0.0
    work: int = 0  # vertices, pairs or search nodes, depending on the span
    error: str | None = None  # exception type name if the call raised
    optimal: bool = False  # solver.solve only: the result was certified


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(record, args, result)
                return result

        return traced

    @contextmanager
    def installed(self, modules, traced):
        """Patch every attribute of modules that is one of the traced
        functions.  traced maps (module name, function name) to
        (span name, on_result)."""
        wrappers = {}
        for (mod_name, fn_name), (span_name, on_result) in traced.items():
            fn = getattr(modules[mod_name], fn_name)
            wrappers[id(fn)] = self.wrap(fn, span_name, on_result)
        saved = []
        for module in modules.values():
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    saved.append((module, attr, value))
        try:
            for module, attr, value in saved:
                setattr(module, attr, wrappers[id(value)])
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)


@dataclass
class NameStats:
    s: float = 0.0  # summed duration of outermost spans of this name
    self_s: float = 0.0  # summed duration not covered by child spans
    calls: int = 0
    work: int = 0
    optimal: int = 0
    errors: dict = field(default_factory=dict)  # exception type name -> count


def aggregate(spans: list[Span]) -> dict[str, NameStats]:
    """Per span name: outer time, self time, calls, work and error counts.

    A span nested inside another of the same name (a function that calls
    itself, like the CSV readers given a path) adds to self time but not
    again to outer time or work.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    stats: dict[str, NameStats] = {}
    for i, sp in enumerate(spans):
        st = stats.setdefault(sp.name, NameStats())
        duration = sp.end - sp.start
        st.self_s += duration - child_time[i]
        if sp.error:
            st.errors[sp.error] = st.errors.get(sp.error, 0) + 1
        if _has_ancestor_named(spans, sp, sp.name):
            continue
        st.s += duration
        st.calls += 1
        st.work += sp.work
        st.optimal += sp.optimal
    return stats


def time_inside(spans: list[Span], name: str, ancestor: str) -> float:
    """Summed duration of outermost spans called name within an ancestor."""
    return sum(
        sp.end - sp.start
        for sp in spans
        if sp.name == name
        and _has_ancestor_named(spans, sp, ancestor)
        and not _has_ancestor_named(spans, sp, name)
    )


def largest_inside(spans: list[Span], ancestor: str) -> str | None:
    """Name of the direct child of ancestor spans with the most time."""
    totals: dict[str, float] = {}
    for sp in spans:
        if sp.parent is not None and spans[sp.parent].name == ancestor:
            totals[sp.name] = totals.get(sp.name, 0.0) + sp.end - sp.start
    return max(totals, key=totals.get) if totals else None


def _has_ancestor_named(spans, sp, name) -> bool:
    parent = sp.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
