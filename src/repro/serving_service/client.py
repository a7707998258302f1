"""Minimal blocking client for the serving service's wire protocol.

One TCP connection, one request in flight at a time — deliberately the
simplest correct client, because its consumers (the ``bench_service``
load generator, the hot-swap stress test's client *processes*, CLI
smoke checks) each want many independent connections rather than one
clever multiplexed one.
"""

from __future__ import annotations

import socket
from typing import Any, Sequence

from .protocol import MAX_LINE_BYTES, decode_line, encode_line

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The service answered a request with a structured error."""


class ServiceClient:
    """Blocking newline-JSON client (single-writer: not thread-safe)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        try:
            self._file = self._sock.makefile("rb")
        except Exception:
            # A failed __init__ never returns the object, so close() could
            # never run — release the connected socket here or it leaks.
            self._sock.close()
            raise
        self._next_id = 0

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _roundtrip(self, message: dict[str, Any]) -> dict[str, Any]:
        self._next_id += 1
        message = {"id": self._next_id, **message}
        self._sock.sendall(encode_line(message))
        line = self._file.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ServiceError("service closed the connection")
        reply = decode_line(line)
        if reply.get("id") != message["id"]:
            raise ServiceError(
                f"response id {reply.get('id')!r} does not match request {message['id']}"
            )
        return reply

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One raw exchange; raises :class:`ServiceError` on ``error``."""
        reply = self._roundtrip(message)
        if "error" in reply:
            raise ServiceError(str(reply["error"]))
        return reply

    def recommend(
        self, queries: Sequence[tuple[int, int]], k: int = 10
    ) -> dict[str, Any]:
        """Top-k for ``(user, interval)`` queries, in query order."""
        return self.request(
            {"queries": [[int(u), int(t)] for u, t in queries], "k": int(k)}
        )

    def status(self) -> dict[str, Any]:
        """Front-end counters plus per-worker serving state."""
        return self.request({"op": "status"})

    def publish(self, path: str, drift: bool = False) -> dict[str, Any]:
        """Fleet-wide hot swap; the reply reports accept/reject/revert.

        A fleet-rejected publish is a *successful* exchange (the reply
        carries ``published: false`` and the per-worker reasons), so it
        returns normally rather than raising.
        """
        return self.request({"op": "publish", "path": str(path), "drift": bool(drift)})
