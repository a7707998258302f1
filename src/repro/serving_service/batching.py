"""Busy-aware micro-batching for the serving front-end.

The GEMM batch engine (:mod:`repro.recommend.serving`) amortises
per-query cost across rows, but online traffic arrives one small request
at a time. Coalescing pays only when the worker is the bottleneck, so
each worker's queue dispatches on the worker's state, not on a clock:

* **idle** — no batch of this queue is in flight: an arriving request
  flushes at once, alone (nothing else is waiting to batch it with);
* **busy** — a batch is in flight: arrivals accumulate, and the backlog
  flushes the moment the last in-flight batch is answered, so batch
  size follows the load up to ``max_batch``;
* **size** — the backlog reaches ``max_batch`` queries while busy: it
  flushes without waiting and queues behind the in-flight batch.

No timer is needed: every pending request is behind an in-flight batch
whose reply flushes it, so none can be parked indefinitely.

The policy lives in :class:`BatchAccumulator`, a pure object driven by
explicit ``add``/``done`` events — the Hypothesis property tests push
arbitrary interleavings through it and assert the served results are
**bitwise identical** to one big :meth:`recommend_batch` call, which
holds because the batch engine's per-row results are split-invariant
(candidate selection is per-row and the exact rescore is per-item).
:class:`MicroBatchQueue` is the thin asyncio wrapper that owns the
pending futures.

**Batch integrity.** A request's queries are never split across two
flushes: whatever batch a request lands in, all of its rows are served
by the same downstream call and therefore by the same serving
generation. A hot swap can land between micro-batches, never inside
one.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = ["BatchAccumulator", "BatchRequest", "MicroBatchQueue"]


@dataclass
class BatchRequest:
    """One admitted request: a list of queries plus its completion token.

    ``token`` is opaque to the accumulator — the asyncio layer stores the
    request's future there, tests store indexes.
    """

    queries: list[tuple[int, int]]
    k: int
    token: Any = None


@dataclass
class BatchAccumulator:
    """Pure busy-aware micro-batch policy (no clocks, no I/O).

    :meth:`add` and :meth:`done` return the batch to ship now, if any;
    the caller owes one :meth:`done` per non-empty batch it was handed.
    Single-writer contract: an accumulator belongs to one event loop (or
    one test) and is never shared across threads.
    """

    max_batch: int = 64
    _pending: list[BatchRequest] = field(default_factory=list)
    _pending_queries: int = 0
    _inflight: int = 0

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")

    @property
    def pending_queries(self) -> int:
        """Queries waiting behind an in-flight batch."""
        return self._pending_queries

    @property
    def inflight(self) -> int:
        """Flushed batches whose :meth:`done` has not arrived yet."""
        return self._inflight

    def add(self, request: BatchRequest) -> list[BatchRequest] | None:
        """Admit one request; return a batch when idle or size-triggered.

        The request that crosses the size boundary flushes *with* the
        batch it completed, whole.
        """
        if not request.queries:
            raise ValueError("a batch request needs at least one query")
        self._pending.append(request)
        self._pending_queries += len(request.queries)
        if self._inflight == 0 or self._pending_queries >= self.max_batch:
            return self.flush()
        return None

    def done(self) -> list[BatchRequest] | None:
        """One in-flight batch was answered; return the backlog once idle."""
        if self._inflight <= 0:
            raise RuntimeError("done() without a batch in flight")
        self._inflight -= 1
        if self._inflight == 0 and self._pending:
            return self.flush()
        return None

    def flush(self) -> list[BatchRequest]:
        """Take every pending request (possibly none) as one batch."""
        batch, self._pending = self._pending, []
        self._pending_queries = 0
        if batch:
            self._inflight += 1
        return batch


class MicroBatchQueue:
    """Asyncio front of one worker's :class:`BatchAccumulator`.

    ``flush_cb`` receives each flushed batch (a non-empty list of
    :class:`BatchRequest` whose tokens are :class:`asyncio.Future`
    objects), is responsible for resolving every future, and must call
    :meth:`exchange_done` once per batch when the worker has answered
    it. The queue itself never touches request results.

    Single-writer contract: all methods run on the owning event loop
    thread, so no cross-thread state exists.
    """

    def __init__(
        self, flush_cb: Callable[[list[BatchRequest]], None], max_batch: int = 64
    ) -> None:
        self._accumulator = BatchAccumulator(max_batch=max_batch)
        self._flush_cb = flush_cb
        self._closed = False

    @property
    def pending_queries(self) -> int:
        """Queries waiting behind an in-flight batch."""
        return self._accumulator.pending_queries

    def submit(
        self, queries: Sequence[tuple[int, int]], k: int
    ) -> "asyncio.Future[dict[str, Any]]":
        """Admit one request; the returned future resolves with its rows.

        Raises :class:`RuntimeError` when the queue is closed (the
        service maps this to the draining refusal before it ever gets
        here, so the error is a programming-bug backstop, not a client
        surface).
        """
        if self._closed:
            raise RuntimeError("micro-batch queue is closed")
        future: asyncio.Future[dict[str, Any]] = asyncio.get_running_loop().create_future()
        request = BatchRequest(
            queries=[(int(u), int(t)) for u, t in queries], k=int(k), token=future
        )
        self._ship(self._accumulator.add(request))
        return future

    def _ship(self, batch: list[BatchRequest] | None) -> None:
        if batch:
            self._flush_cb(batch)

    def exchange_done(self) -> None:
        """A flushed batch was answered; ship the backlog if now idle."""
        self._ship(self._accumulator.done())

    def close(self) -> None:
        """Flush the backlog now and refuse all further admission."""
        self._closed = True
        self._ship(self._accumulator.flush())
