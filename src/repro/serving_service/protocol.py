"""Wire protocol of the process-parallel serving service.

Client ↔ front-end traffic is **newline-delimited JSON** over TCP: one
request object per line, one response object per line, matched by a
client-chosen ``id``. JSON floats round-trip exactly in Python (``json``
emits ``repr``-style shortest representations and parses them back to
the identical IEEE-754 double), so scores cross the wire **bitwise
intact** — the service bench and tests rely on this to cross-check
service responses against direct :meth:`recommend_batch` output.

Request objects::

    {"id": 7, "queries": [[user, interval], ...], "k": 10}
    {"id": 8, "op": "status"}
    {"id": 9, "op": "publish", "path": "/path/to/snapshot.npz", "drift": false}

Keys an op does not know — the ``"mmap"`` an older client sent with
``publish`` — are ignored, not refused: whether a snapshot is mapped
follows from the sidecar beside it.

Responses always echo ``id``. A query response carries parallel per-row
lists so a client can check batch integrity::

    {"id": 7, "results": [{"items": [...], "scores": [...]}, ...],
     "generation": [g0, g1, ...], "worker": [w0, w1, ...],
     "degraded": [false, ...]}

A ``publish`` response says per worker whether the snapshot was opened
by ``"delta"`` (the base arrays ``φ``/``φ′`` carried over from the
serving generation) or in full; ``status`` carries the same flag and the
first 12 hex digits of each worker's ``"base_digest"``, and counts
``"delta_publishes"`` / ``"full_publishes"``. Clients ignore response
keys they do not know.

A service that is draining answers every new request with
``{"id": ..., "error": "draining"}`` and closes the connection once the
line is flushed; queries already admitted still complete.

Front-end ↔ worker traffic never leaves the machine: each worker owns a
duplex :func:`multiprocessing.Pipe` carrying small picklable dicts with
a ``type`` field (``"batch"``, ``"publish"``, ``"revert"``, ``"status"``,
``"shutdown"``; workers answer ``"ready"``, ``"result"``, ``"published"``,
``"status"``, ``"bye"``, ``"error"``). The pipe is strictly
request/response per worker, so a hot-swap command enqueued between two
micro-batches is a serialization point: every batch is served entirely
before or entirely after the swap — a torn batch is impossible by
construction on top of the recommender's own RCU generations.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "MAX_LINE_BYTES",
    "decode_line",
    "encode_line",
    "error_response",
]

#: Upper bound on one protocol line; a line longer than this is refused
#: rather than buffered (an accidental binary client must not balloon
#: front-end memory).
MAX_LINE_BYTES = 8 << 20


def encode_line(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to its wire line (with newline)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises :class:`ValueError` for anything that is not a JSON object —
    the caller turns that into a structured ``error`` response instead
    of dropping the connection silently.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ValueError(f"protocol line exceeds {MAX_LINE_BYTES} bytes")
    decoded = json.loads(line.decode("utf-8"))
    if not isinstance(decoded, dict):
        raise ValueError("protocol messages must be JSON objects")
    return decoded


def error_response(request_id: object, error: str) -> dict[str, Any]:
    """A structured refusal echoing the request id (``None`` when unknown)."""
    return {"id": request_id, "error": error}
