"""In-memory span tracer that times calls into rigidloc from outside.

Nothing in ``src/`` knows about tracing. ``Tracer.patched`` swaps a timing
wrapper into the module namespace that *calls* each function, because the
library binds names at import (``from .estimators import rbl_two_stage``),
and restores the originals on exit. Spans are kept in a list while the
traced run lasts and written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int | None
    thread: int
    unit: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict:
        return {"name": self.name, "start_ns": self.start_ns,
                "end_ns": self.end_ns, "id": self.span_id,
                "parent": self.parent_id, "thread": self.thread,
                "unit": self.unit, **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """Collects nested spans per thread.

    A span's parent is the innermost open span of the same thread. A
    thread's outermost span takes ``cause`` (the span the main thread has
    open, e.g. the ``run_experiment`` call that started a worker) as its
    parent, so spans of one request share an identifier across threads.
    ``unit`` tags each span with the trial or frame it belongs to.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.cause: int | None = None
        self.call_label: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def unit(self) -> str | None:
        return getattr(self._local, "unit", None)

    @unit.setter
    def unit(self, value: str | None) -> None:
        self._local.unit = value

    def current(self) -> int | None:
        """Id of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self.cause
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, parent, span_id

    def _close(self, name, stack, parent, span_id, start, attrs) -> None:
        end = time.perf_counter_ns()
        stack.pop()
        self.spans.append(Span(name, start, end, span_id, parent,
                               threading.get_ident(), self.unit, attrs))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the attrs dict."""
        opened = self._open()
        attrs: dict = {}
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            self._close(name, *opened, start, attrs)

    def wrap(self, name: str, fn, observe=None, on_enter=None):
        """Timing wrapper around ``fn`` (inlined rather than built on
        ``span``: it runs hundreds of times per frame).

        ``on_enter(args)`` runs before the span opens (to set the unit id);
        ``observe(args, kwargs, result, attrs)`` records counts from the
        call's inputs and result into the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            opened = self._open()
            attrs: dict = {}
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result, attrs)
            finally:
                self._close(name, *opened, start, attrs)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, replacements):
        """Install wrappers: ``replacements`` is a list of
        (module, attribute, name, observe, on_enter); originals come back on
        exit, also when the body raises."""
        saved = []
        try:
            for module, attr, name, observe, on_enter in replacements:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, observe, on_enter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")


def self_times_ns(spans) -> dict:
    """Self time per span id: duration minus the children recorded in the
    same thread (a cross-thread child overlaps its parent, it does not
    interrupt it)."""
    by_id = {s.span_id: s for s in spans}
    own = {s.span_id: s.dur_ns for s in spans}
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is not None and parent.thread == s.thread:
            own[parent.span_id] -= s.dur_ns
    return own
