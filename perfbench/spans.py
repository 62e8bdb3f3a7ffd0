"""In-memory span recording for the traced benchmark run.

Spans are recorded from outside the program: :meth:`SpanLog.wrap` swaps a
module or class attribute for a wrapper that times each call, and
:meth:`SpanLog.restore` puts the originals back. Spans nest per thread;
a layer's self time is its duration minus the time its direct children
cover. Nothing is written until :meth:`SpanLog.write` is called at the
end of the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    request: str | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class SpanLog:
    spans: list[Span] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            record = Span(
                len(self.spans),
                parent.span_id if parent else None,
                name,
                time.perf_counter(),
                request=request if request is not None else (
                    parent.request if parent else None
                ),
            )
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += record.duration

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def busy(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, busy seconds, self seconds) per span name."""
        rows: dict[str, list[float]] = {}
        for s in self.spans:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += s.self_s
        return [(name, int(r[0]), r[1], r[2]) for name, r in rows.items()]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.self_s,
                            "request": s.request,
                        }
                    )
                    + "\n"
                )
