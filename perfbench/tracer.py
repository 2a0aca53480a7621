"""In-memory spans recorded around the benchmark's own calls into each
layer of the package. Spans nest by call order; every span carries the id
of its parent and of its top-level ancestor (the traced operation)."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    root: int
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **counts: float):
        parent = self._stack[-1] if self._stack else None
        record = Span(
            name=name,
            span_id=len(self.spans),
            parent=None if parent is None else parent.span_id,
            root=len(self.spans) if parent is None else parent.root,
            start=time.perf_counter(),
            counts=dict(counts),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.span_id]

    def self_time(self, span: Span) -> float:
        return span.duration - sum(c.duration for c in self.children(span))

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
