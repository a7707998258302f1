"""Worker-process side of the serving service.

Each worker is a spawned child running :func:`worker_main`: it opens the
*same* snapshot as every sibling (one saved with derived serving members
all workers map and share one page cache; without them each worker builds the derived
arrays it is asked for into its own serving cache), builds its own
:class:`~repro.recommend.recommender.TemporalRecommender`, and then
serves a strict request/response loop over its end of a
``multiprocessing.Pipe``.

The loop is single-threaded on purpose: a ``publish`` control message
enqueued between two ``batch`` messages is a serialization point, so a
hot swap can never land inside a micro-batch — every batch is served
entirely by one generation, on top of the recommender's own RCU
guarantee. Swaps that fail the publisher's health gate roll back (the
worker keeps serving its current generation and reports the reason); on
start-up a worker consults the service's
:class:`~repro.streaming.publisher.GenerationFile` so a late or
restarted worker comes up on the *currently published* snapshot, not
the one the service was launched with.

Single-writer contract: all state in this module belongs to the worker
process's main thread; nothing here is shared between threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, Mapping, Sequence

from ..analysis.benchjson import pss_bytes, rss_bytes
from ..recommend.recommender import TemporalRecommender
from ..typing import bit_deterministic
from ..streaming.publisher import GenerationFile, PublishResult, SnapshotPublisher

__all__ = ["WorkerConfig", "serve_requests", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker needs, shipped picklable through ``spawn``.

    Attributes
    ----------
    index:
        This worker's shard index in ``range(num_workers)``.
    num_workers:
        Total workers; with user-sharded routing this worker serves the
        users with ``user % num_workers == index``.
    snapshot:
        Path of the snapshot to open at start-up (superseded by a newer
        :class:`GenerationFile` record, if one exists).
    serve_dtype:
        Selection dtype for every batch this worker scores.
    generation_file:
        Path of the service's generation file (``None`` disables the
        start-up catch-up read).
    probes:
        ``(user, interval)`` probe queries for the publish health gate.
    """

    index: int
    num_workers: int
    snapshot: str
    serve_dtype: str = "float64"
    generation_file: str | None = None
    probes: tuple[tuple[int, int], ...] = ((0, 0),)


@dataclass
class _WorkerState:
    """Mutable serving state of one worker-process loop."""

    config: WorkerConfig
    recommender: TemporalRecommender
    publisher: SnapshotPublisher
    snapshot: str
    #: The snapshot path a ``revert`` brings back (the one ``snapshot``
    #: replaced), and whether the serving generation was opened by delta.
    previous_snapshot: str | None = None
    delta: bool = False
    batches: int = 0
    queries: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


@bit_deterministic
def serve_requests(
    recommender: TemporalRecommender,
    requests: Sequence[Mapping[str, Any]],
    dtype: str,
) -> list[dict[str, Any]]:
    """Serve one micro-batch of coalesced requests, preserving order.

    Requests sharing ``k`` are concatenated into a single
    :meth:`recommend_batch_with_status` call and split back afterwards —
    the per-row results are split-invariant, so coalescing cannot change
    any request's items, scores or tie order. Scores stay float64 end to
    end (JSON round-trips them bitwise). A group that fails to serve
    marks only its own requests with an ``error`` entry.
    """
    groups: dict[int, list[int]] = {}
    for position, request in enumerate(requests):
        groups.setdefault(int(request["k"]), []).append(position)
    out: list[dict[str, Any]] = [{} for _ in requests]
    for k, positions in groups.items():
        flat = [pair for position in positions for pair in requests[position]["queries"]]
        try:
            results, statuses = recommender.recommend_batch_with_status(
                flat, k=k, dtype=dtype
            )
        except Exception as exc:  # noqa: BLE001 - per-group error surface
            for position in positions:
                out[position] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        cursor = 0
        for position in positions:
            width = len(requests[position]["queries"])
            rows = results[cursor : cursor + width]
            stats = statuses[cursor : cursor + width]
            cursor += width
            out[position] = {
                "results": [
                    {
                        "items": [int(item) for item in row.items],
                        "scores": [float(score) for score in row.scores],
                    }
                    for row in rows
                ],
                "generation": [int(status.generation) for status in stats],
                "degraded": [bool(status.degraded) for status in stats],
            }
    return out


def _open_recommender(config: WorkerConfig) -> tuple[TemporalRecommender, str]:
    """Open the serving recommender, catching up via the generation file."""
    snapshot = config.snapshot
    if config.generation_file is not None:
        record = GenerationFile(config.generation_file).read()
        if record is not None and record["snapshot"]:
            snapshot = record["snapshot"]
    recommender = TemporalRecommender.from_snapshot(snapshot)
    return recommender, snapshot


def _base_digest(recommender: TemporalRecommender) -> str | None:
    """First 12 hex digits of the base digest the serving model was verified under."""
    digest = getattr(getattr(recommender.model, "params_", None), "base_digest", None)
    return digest[:12] if digest else None


def _status_payload(state: _WorkerState) -> dict[str, Any]:
    """The worker's observable serving state for ``status`` replies."""
    recommender = state.recommender
    return {
        "type": "status",
        "worker": state.config.index,
        "pid": os.getpid(),
        "snapshot": state.snapshot,
        "generation": int(recommender.generation),
        "swaps": int(recommender.swap_count),
        "rollbacks": int(recommender.rollback_count),
        "drift_events": int(recommender.drift_count),
        "batches": state.batches,
        "queries": state.queries,
        "rss_bytes": rss_bytes(),
        "pss_bytes": pss_bytes(),
        "mmap": getattr(recommender.model, "param_store", None) is not None,
        "delta": state.delta,
        "base_digest": _base_digest(recommender),
    }


def _published_reply(state: _WorkerState, result: PublishResult) -> dict[str, Any]:
    """The reply to a ``publish`` or ``revert``, after ``state`` took its outcome."""
    return {
        "type": "published",
        "worker": state.config.index,
        "published": bool(result.published),
        "generation": int(result.generation),
        "reason": result.reason,
        "delta": bool(result.delta),
        "base_digest": _base_digest(state.recommender),
    }


def _handle(state: _WorkerState, message: Mapping[str, Any]) -> dict[str, Any] | None:
    """Dispatch one pipe message; ``None`` means exit the loop after reply."""
    kind = message.get("type")
    if kind == "batch":
        requests = list(message.get("requests", ()))
        state.batches += 1
        state.queries += sum(len(request["queries"]) for request in requests)
        return {
            "type": "result",
            "worker": state.config.index,
            "responses": serve_requests(
                state.recommender, requests, state.config.serve_dtype
            ),
        }
    if kind == "publish":
        result = state.publisher.publish_file(
            str(message["path"]), drift=bool(message.get("drift", False))
        )
        if result.published:
            state.previous_snapshot, state.snapshot = state.snapshot, str(message["path"])
            state.delta = result.delta
        return _published_reply(state, result)
    if kind == "revert":
        result = state.publisher.revert()
        if result.published and state.previous_snapshot is not None:
            state.snapshot, state.previous_snapshot = state.previous_snapshot, None
            state.delta = result.delta
        return _published_reply(state, result)
    if kind == "status":
        return _status_payload(state)
    if kind == "shutdown":
        return None
    return {
        "type": "error",
        "worker": state.config.index,
        "error": f"unknown message type {kind!r}",
    }


def worker_main(config: WorkerConfig, conn: Connection) -> None:
    """Entry point of one spawned worker process.

    Opens the snapshot, announces readiness, then answers pipe messages
    until ``shutdown`` (or a closed pipe). Every reply is sent before
    the next message is read — the strict request/response discipline
    the no-torn-batches argument rests on.
    """
    try:
        recommender, snapshot = _open_recommender(config)
        state = _WorkerState(
            config=config,
            recommender=recommender,
            publisher=SnapshotPublisher(recommender, probes=config.probes),
            snapshot=snapshot,
        )
    except Exception as exc:  # noqa: BLE001 - startup failure must reach parent
        conn.send(
            {
                "type": "error",
                "worker": config.index,
                "error": f"worker startup failed: {type(exc).__name__}: {exc}",
            }
        )
        conn.close()
        return
    conn.send(
        {
            "type": "ready",
            "worker": config.index,
            "pid": os.getpid(),
            "snapshot": state.snapshot,
            "generation": int(recommender.generation),
            "rss_bytes": rss_bytes(),
            "pss_bytes": pss_bytes(),
        }
    )
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            try:
                reply = _handle(state, message)
            except Exception as exc:  # noqa: BLE001 - keep the worker serving
                conn.send(
                    {
                        "type": "error",
                        "worker": config.index,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                continue
            if reply is None:
                conn.send({"type": "bye", "worker": config.index})
                break
            conn.send(reply)
    finally:
        conn.close()
