"""Request spans for the traced benchmark run.

A :class:`Tracer` records one root span per replayed request and one
child span per layer call made inside it: name, start, end, parent
span and request id.  Spans stay in memory until :meth:`Tracer.write`
dumps them as JSON lines when the run ends.  Times come from
``time.perf_counter_ns``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

ROOT = "request"


@dataclass
class Span:
    request: int
    span: int
    parent: int | None
    name: str
    start_ns: int = 0
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans; one request is replayed at a time."""

    def __init__(self):
        self._by_request: dict[int, list[Span]] = {}
        self._stack: list[Span] = []
        self._count = 0

    @contextmanager
    def request(self, request_id: int):
        """Open the root span of one replayed request."""
        self._by_request[request_id] = []
        self._stack = []
        self._current = request_id
        with self.span(ROOT):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span if self._stack else None
        record = Span(self._current, self._count, parent, name)
        self._count += 1
        self._by_request[self._current].append(record)
        self._stack.append(record)
        record.start_ns = time.perf_counter_ns()
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def breakdown(self, request_id: int) -> tuple[float, float, dict[str, float]]:
        """``(wall ms, covered ms, {layer: self ms})`` of one request.

        ``wall`` is the root span, ``covered`` the part of it spent in
        layer spans.  A span's self time is its duration minus that of
        its direct children; a layer called twice in one request gets
        the sum."""
        spans = self._by_request[request_id]
        child_ns: dict[int, int] = {}
        for s in spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.duration_ns
        wall = covered = 0.0
        layers: dict[str, float] = {}
        for s in spans:
            if s.parent is None:
                wall = s.duration_ns / 1e6
                covered = child_ns.get(s.span, 0) / 1e6
            else:
                own = (s.duration_ns - child_ns.get(s.span, 0)) / 1e6
                layers[s.name] = layers.get(s.name, 0.0) + own
        return wall, covered, layers

    def write(self, path) -> None:
        with open(path, "w") as out:
            for spans in self._by_request.values():
                for s in spans:
                    out.write(json.dumps(asdict(s)) + "\n")
