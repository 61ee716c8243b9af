"""In-memory spans recorded by the benchmark's own wrappers.

A :class:`Tracer` records one span per wrapped call into a layer of the
program: its name, layer, start, end, parent span and the operation it
belongs to (a workload pass or a mutation batch).  Spans stay in memory
and are written once, at exit, as Chrome trace-event JSON, loadable in
Perfetto or ``chrome://tracing``.  A disabled tracer records nothing and
its ``span`` is a shared no-op context manager, so the untimed and timed
code paths are the same in both modes.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


_NULL = contextlib.nullcontext()


class Tracer:
    """Records nested spans on ``time.perf_counter``; no-op when disabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.op = 0
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    def span(self, name: str, layer: str):
        """Context manager timing one call into ``layer``."""
        if not self.enabled:
            return _NULL
        return self._record(name, layer)

    @contextlib.contextmanager
    def _record(self, name: str, layer: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, layer, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    # ------------------------------------------------------------------
    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_seconds(self) -> Dict[int, float]:
        """Per span: duration minus the part its child spans cover.

        Children of one span never overlap (one caller, closed loop), so
        the covered part is the sum of their durations.
        """
        kids = self.children()
        return {
            s.sid: s.seconds - sum(c.seconds for c in kids.get(s.sid, ()))
            for s in self.spans
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Flat per-layer table: span count, total and self seconds."""
        own = self.self_seconds()
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.layer, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.seconds
            row["self_s"] += own[span.sid]
        return table

    def format_summary(self) -> str:
        lines = [f"{'layer':<28}{'count':>8}{'total_s':>12}{'self_s':>12}"]
        for layer, row in sorted(self.summary().items()):
            lines.append(
                f"{layer:<28}{row['count']:>8}{row['total_s']:>12.4f}"
                f"{row['self_s']:>12.4f}"
            )
        return "\n".join(lines)

    def chrome_trace(self, meta: Dict) -> Dict:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - self._origin) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": s.sid, "parent": s.parent, "op": s.op},
            }
            for s in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(meta, layers=self.summary()),
        }

    def write(self, path: str, meta: Dict) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(meta), fh)
