"""In-memory span recorder that wraps library entry points from outside.

A span is ``(id, name, start, end, parent, attrs)``. Parents come from a
context variable, so nesting is exact for synchronous calls and for
coroutines awaited within one asyncio task; code run in an executor
thread starts with no parent. Spans are kept in a list and written out
when the run ends.

Wrappers are installed with :meth:`Tracer.patch` on the attribute the
caller actually looks up (a module global or a class attribute) and
removed again with :meth:`Tracer.unpatch`, so untraced phases run the
library's own functions, not a disabled wrapper.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """Record spans around patched callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap_sync(self, name, function, annotate):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = self.clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = self.clock()
                _CURRENT.reset(token)
            attrs = annotate(args, kwargs, result) if annotate else {}
            self.spans.append((span_id, name, start, end, parent, attrs))
            return result

        return wrapper

    def _wrap_async(self, name, function, annotate, start_hook):
        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = self.clock()
            if start_hook is not None:
                args, kwargs, marks = start_hook(args, kwargs, self.clock)
            try:
                result = await function(*args, **kwargs)
            finally:
                end = self.clock()
                _CURRENT.reset(token)
            if start_hook is not None and marks.get("start") is not None:
                start = marks["start"]
            attrs = annotate(args, kwargs, result) if annotate else {}
            self.spans.append((span_id, name, start, end, parent, attrs))
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attribute, name, *, annotate=None, start_hook=None):
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``annotate(args, kwargs, result) -> dict`` adds attributes to the
        span (sweep counts, shapes). ``start_hook`` (coroutines only) may
        substitute arguments and report a later span start, used to start
        a request read when its first line arrives rather than while the
        keep-alive connection idles.
        """
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {attribute}: not a plain function")
        if inspect.iscoroutinefunction(original):
            wrapper = self._wrap_async(name, original, annotate, start_hook)
        else:
            wrapper = self._wrap_sync(name, original, annotate)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# -- summaries -------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cursor = lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Self time is a span's duration minus the part of it covered by its
    child spans.
    """
    children: dict[int, list] = {}
    for span_id, _name, start, end, parent, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, dict] = {}
    for span_id, name, start, end, _parent, _attrs in spans:
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - _covered(
            children.get(span_id, ()), start, end
        )
    return totals
