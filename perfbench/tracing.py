"""Span recording from outside the program.

A :class:`Tracer` replaces public functions, methods and module
attributes with timing wrappers while it is installed and puts the
originals back when it is removed, so an untraced run executes none of
this code. Spans are kept in memory as (name, start, end, parent, op)
and written out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter[str] = Counter()
        self.op: int | None = None  # id of the operation being run
        self.active = True  # False while the harness checks outputs
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to what the caller had open
        return self._main_stack[-1] if self._main_stack else None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        span = [name, time.perf_counter(), None, self._parent(stack), self.op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str | Callable[..., str],
             on_result: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name`` (or ``name(*args, **kwargs)``) and passes the result to
        ``on_result(self.counts, result, *args, **kwargs)``."""
        original = getattr(owner, attr)
        saved = vars(owner).get(attr, _MISSING)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            result = self.call(label, original, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, result, *args, **kwargs)
            return result

        # a classmethod read from its class is already bound: keep it unbound
        bound = isinstance(saved, (classmethod, staticmethod))
        setattr(owner, attr, staticmethod(wrapper) if bound else wrapper)
        self._installed.append((owner, attr, saved))

    def remove(self) -> None:
        """Put back every original, newest first."""
        while self._installed:
            owner, attr, saved = self._installed.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # ------------------------------------------------------------ analysis

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every closed span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def self_durations(self, name: str) -> list[float]:
        """Durations of spans called ``name`` minus the time their child
        spans cover (overlapping children count once)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s[3] is not None and s[2] is not None:
                children[s[3]].append((s[1], s[2]))
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name or s[2] is None:
                continue
            covered, end = 0.0, s[1]
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, end), min(b, s[2])
                if b > a:
                    covered += b - a
                    end = b
            out.append(s[2] - s[1] - covered)
        return out

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "op": op,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": None if end is None else round((end - t0) * 1e6, 1),
                }) + "\n")
