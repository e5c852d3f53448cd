"""Span tracing from outside the program, by rebinding function names.

A traced run replaces a function's name in the module that calls it with a
wrapper that records one span per call: name, start, end, parent span and
the operation (query view, session, scene build) it belongs to. Spans stay
in memory and are written out when the run ends. The wrapper measures its
own bookkeeping time, so the run can report how much tracing cost.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    op: str
    start: float = 0.0
    end: float = 0.0
    raised: bool = False
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Extracts deterministic counts from a traced call's return value.
Counter = Callable[[Any], dict[str, float]]


class Tracer:
    """Records spans for the functions it rebinds until `uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "prepare"
        self.bookkeeping_s = 0.0
        self._stack: list[Span] = []
        self._originals: list[tuple[ModuleType, str, Any]] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = time.perf_counter()
            span = Span(
                span_id=len(self.spans) + len(self._stack),
                name=name,
                parent=self._stack[-1].span_id if self._stack else None,
                op=self.op,
            )
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(result)
            self.bookkeeping_s += (span.start - t_enter) + (time.perf_counter() - span.end)
            return result

        return traced

    def install(self, module: ModuleType, attr: str, name: str, counter: Counter | None = None):
        """Rebind `module.attr` to a traced wrapper recording spans called `name`."""
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: Path):
        """One JSON object per span, in start order, with its self time."""
        own = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps({**asdict(span), "self": own[span.span_id]}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (a single thread), so the
    time they cover is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.span_id: s.duration - covered.get(s.span_id, 0.0) for s in spans}
