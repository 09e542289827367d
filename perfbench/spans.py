"""In-memory spans around calls into the library, for the traced run.

The tracer replaces public functions with wrappers for the duration of a
``with tracer.installed(points):`` block and restores them on exit.  A span
is (id, name, start_ns, end_ns, parent id, query id, work): ``work`` is a
count taken at the boundary (draws requested, pushes plus walk steps
returned).  Spans opened in a worker thread with no open span of their own
take the innermost open span of the installing thread as parent, so the
estimator calls a bench thread pool makes hang under ``run_experiment``.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "query", "work")


@dataclass(frozen=True)
class Point:
    """One function to wrap: ``getattr(owner, attr)`` or ``owner[attr]``.

    ``name`` labels the span and may depend on the call's arguments;
    ``work`` extracts a count from (args, kwargs, result); ``new_query``
    gives calls made outside any query a fresh query id.
    """

    owner: object
    attr: str
    name: str | Callable[[tuple, dict], str]
    work: Callable[[tuple, dict, object], int] | None = None
    new_query: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._queries = itertools.count(1 << 32)
        self._local = threading.local()
        self._home: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_query(self, query: int | None) -> None:
        """Query id for spans opened by the calling thread from now on."""
        self._local.query = query

    def wrap(self, point: Point, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._home[-1] if tracer._home else 0)
            query = getattr(tracer._local, "query", None)
            fresh = query is None and point.new_query
            if fresh:
                query = next(tracer._queries)
                tracer._local.query = query
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if fresh:
                    tracer._local.query = None
                name = point.name if isinstance(point.name, str) else point.name(args, kwargs)
                work = point.work(args, kwargs, result) if point.work and result is not None else 0
                tracer.spans.append((sid, name, start, end, parent, query, work))

        return traced

    @contextmanager
    def installed(self, points: list[Point]) -> Iterator["Tracer"]:
        """Wrap every point; restore the originals on exit."""
        saved = []
        self._home = self._stack()
        try:
            for p in points:
                is_map = isinstance(p.owner, dict)
                original = p.owner[p.attr] if is_map else getattr(p.owner, p.attr)
                saved.append((p, is_map, original))
                wrapped = self.wrap(p, original)
                if is_map:
                    p.owner[p.attr] = wrapped
                else:
                    setattr(p.owner, p.attr, wrapped)
            yield self
        finally:
            for p, is_map, original in reversed(saved):
                if is_map:
                    p.owner[p.attr] = original
                else:
                    setattr(p.owner, p.attr, original)
            self.set_query(None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus the part of its
    interval that its child spans cover.  Children that overlap (worker
    threads) are merged first, so covered time is never counted twice."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out
