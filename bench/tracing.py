"""In-memory tracer that wraps library functions from outside the library.

Stage-level calls (a handful per run) get one span each, with name,
start, end and parent.  Hot calls (thousands per run, such as ``matmul``
or ``predict``) are aggregated instead: one record per (enclosing span,
calling hot function, name) holding a call count, summed duration and
summed counters.  That keeps the trace small while still letting a span's
self time be derived: its duration minus the time covered by its child
spans and by the hot calls made directly under it.

``install`` replaces every binding of a target function, wherever the
package holds one: module attributes (``pkg.linalg.matmul`` and the
``pkg.mlp.matmul`` imported from it), values of module-level dicts (a
dispatch table) and class attributes (methods).  ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    caller: str | None  # hot function open when the span began, if any
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    count: int = 0
    seconds: float = 0.0
    counters: dict = field(default_factory=dict)


def _add_counters(into: dict, extra: dict) -> None:
    for key, value in extra.items():
        into[key] = into.get(key, 0) + value


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: dict[tuple, Aggregate] = {}
        # open frames, innermost last: Span objects and hot-function names
        self._frames: list = []
        self._span_stack: list[Span] = []

    def _caller(self) -> str | None:
        top = self._frames[-1] if self._frames else None
        return top if isinstance(top, str) else None

    @contextmanager
    def span(self, name: str):
        parent = self._span_stack[-1].id if self._span_stack else None
        sp = Span(len(self.spans), name, parent, self._caller(), self.clock())
        self.spans.append(sp)
        self._frames.append(sp)
        self._span_stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._span_stack.pop()
            self._frames.pop()

    def wrap_span(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if measure is not None:
                    _add_counters(sp.counters, measure(args, kwargs, result))
            return result

        return wrapper

    def wrap_hot(self, name: str, fn, measure=None):
        frames, clock = self._frames, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (self._span_stack[-1].id if self._span_stack else None, self._caller(), name)
            frames.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
            agg = self.calls.get(key)
            if agg is None:
                agg = self.calls[key] = Aggregate()
            agg.count += 1
            agg.seconds += dt
            if measure is not None:
                _add_counters(agg.counters, measure(args, kwargs, result))
            return result

        return wrapper

    def self_time(self, sp: Span) -> float:
        """Span duration minus the time its direct children cover."""
        children = [(c.start, c.end) for c in self.spans if c.parent == sp.id and c.caller is None]
        hot = sum(a.seconds for (sid, caller, _), a in self.calls.items()
                  if sid == sp.id and caller is None)
        return sp.duration - covered_length(children, sp.start, sp.end) - hot

    def within(self, span_id: int | None, ancestor_name: str) -> bool:
        """True if ``span_id`` is, or descends from, a span named ``ancestor_name``."""
        while span_id is not None:
            sp = self.spans[span_id]
            if sp.name == ancestor_name:
                return True
            span_id = sp.parent
        return False


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module:attr`` or ``module:Class.method``."""

    path: str
    name: str
    hot: bool
    measure: object = None


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    owner = sys.modules[module_name]
    *classes, leaf = attr.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    return owner, leaf


def install(tracer: Tracer, targets, package: str) -> list:
    """Wrap every binding of each target inside ``package``; returns an undo log."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    undo = []
    try:
        for t in targets:
            owner, leaf = _resolve(t.path)
            original = owner.__dict__[leaf]
            wrap = tracer.wrap_hot if t.hot else tracer.wrap_span
            wrapper = wrap(t.name, original, t.measure)
            if isinstance(owner, type):
                undo.append((owner, leaf, original, True))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original, True))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                undo.append((value, k, original, False))
                                value[k] = wrapper
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list) -> None:
    """Restore every binding recorded by :func:`install`, newest first."""
    while undo:
        owner, key, original, is_attr = undo.pop()
        if is_attr:
            setattr(owner, key, original)
        else:
            owner[key] = original
