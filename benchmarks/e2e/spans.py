"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around each call into a
layer's public functions; nothing inside ``src/`` is instrumented. A span
is ``(name, start, end, parent, trace)``: ``parent`` is the span that was
open on the same thread when this one started, ``trace`` is the shared id
of one request or chunk. Spans stay in memory until :meth:`Recorder.write`.

End-to-end metrics are measured with :data:`OFF`, whose ``span`` hands
back one shared no-op context manager, so an untraced run pays a method
call per layer boundary and nothing else.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator


class Recorder:
    """In-memory span log; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, trace: int | str | None = None) -> Iterator[None]:
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = [name, 0.0, 0.0, parent, trace]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def table(self) -> list[dict]:
        """Per span name: count, total time and self time, in milliseconds.

        Self time is the span's duration minus the time its direct child
        spans cover; rows are ordered by self time, largest first.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        rows: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = rows.setdefault(name, {"name": name, "count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_time[index]) * 1e3
        return sorted(rows.values(), key=lambda row: -row["self_ms"])

    def write(self, path: Path) -> None:
        """Write every span (times relative to the first) and the table."""
        origin = min((span[1] for span in self.spans), default=0.0)
        payload = {
            "spans": [
                {
                    "id": index,
                    "name": name,
                    "start_ms": (start - origin) * 1e3,
                    "end_ms": (end - origin) * 1e3,
                    "parent": parent,
                    "trace": trace,
                }
                for index, (name, start, end, parent, trace) in enumerate(self.spans)
            ],
            "table": self.table(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


_NO_SPAN = nullcontext()


class _Off:
    """Tracing off: ``span`` does no bookkeeping."""

    def span(self, name: str, trace: int | str | None = None):
        return _NO_SPAN


OFF = _Off()


def format_table(rows: list[dict]) -> str:
    """The per-layer time table printed after a traced run."""
    lines = [f"{'span':44s} {'count':>7s} {'total ms':>11s} {'self ms':>11s} {'self/call ms':>13s}"]
    for row in rows:
        lines.append(
            f"{row['name']:44s} {row['count']:7d} {row['total_ms']:11.2f} "
            f"{row['self_ms']:11.2f} {row['self_ms'] / row['count']:13.4f}"
        )
    return "\n".join(lines)
