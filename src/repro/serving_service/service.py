"""Process-parallel serving front-end over one snapshot per fleet.

:class:`ServingService` is the tentpole of the serving stack: an asyncio
TCP front-end (newline-delimited JSON, :mod:`.protocol`) that coalesces
concurrent queries into micro-batches (:mod:`.batching`), routes them to
``N`` worker *processes* by user shard, and hot-swaps snapshots across
the whole fleet without dropping or tearing a single request.

Architecture
------------

* **One event loop, one thread** owns all front-end state: connections,
  per-worker :class:`~repro.serving_service.batching.MicroBatchQueue`
  instances (busy-aware dispatch), the worker pipes and the in-flight
  bookkeeping. Single-writer contract — nothing below is touched off-loop.
* **One pipe per worker, read by the loop.** Each spawned worker serves
  a strict request/response loop; the parent-side :class:`_WorkerHandle`
  keeps a FIFO of exchanges with **one message outstanding**:
  ``loop.add_reader`` on the pipe fd delivers a reply, then the next
  message goes out, so a send never waits on an unread pipe. The FIFO
  makes a ``publish`` a serialization point between micro-batches.
* **User-sharded routing**: query ``(user, interval)`` lands on worker
  ``user % num_workers``, a deterministic modulo sharding, so a user's
  repeat queries always hit the worker whose serving caches (exclusion
  masks, interval contexts) are already warm for them.
* **Zero-copy snapshots**: a snapshot saved with an mmap sidecar
  (:mod:`repro.recommend.paramstore`, ``tcam fit --mmap-layout``) is
  mapped by every worker — nothing to ask for at serve time — and the
  kernel keeps one shared page cache, so per-worker *proportional*
  memory (PSS) grows sub-linearly with the worker count — across hot
  swaps too. Without a sidecar each worker loads the ``.npz`` eagerly
  and builds the derived arrays it is asked for into its own
  :class:`~repro.recommend.serving.ServingCache`; the front-end holds
  no parameters either way.
* **Cross-process hot swap**: :meth:`ServingService.publish` fans a
  ``publish`` command to every worker; each gates the candidate through
  its own :class:`~repro.streaming.publisher.SnapshotPublisher` and
  RCU-swaps on success. If *any* worker rejects (health gate, corrupt
  file), the workers that accepted are reverted so the fleet never
  serves mixed snapshots, and the attempt is reported as a rollback.
  Fleet-wide success is recorded in a
  :class:`~repro.streaming.publisher.GenerationFile` so late-starting
  workers catch up.
* **Graceful drain**: :meth:`ServingService.drain` refuses new
  admissions (clients get ``{"error": "draining"}``), flushes every
  micro-batch queue, awaits all in-flight exchanges, then shuts workers
  down — SIGTERM maps to exactly this in :func:`run_service`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Mapping

from ..recommend.recommender import query_pairs
from ..robustness.errors import ServiceDrainingError
from ..streaming.publisher import GenerationFile
from .batching import BatchRequest, MicroBatchQueue
from .protocol import MAX_LINE_BYTES, decode_line, encode_line, error_response
from .worker import WorkerConfig, worker_main

__all__ = ["ServiceConfig", "ServingService", "run_service"]

#: How long to wait for a worker's ready message before giving up.
_READY_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServiceConfig:
    """Launch-time knobs of one :class:`ServingService`.

    Attributes
    ----------
    snapshot:
        Snapshot file every worker opens.
    host / port:
        TCP bind address; port 0 picks a free port (read it back from
        :attr:`ServingService.port` after :meth:`~ServingService.start`).
    workers:
        Worker process count (= user shards).
    serve_dtype:
        Selection dtype workers score with.
    max_batch:
        Most queries one micro-batch coalesces, per worker queue.
    generation_file:
        Durable hot-swap record path; defaults to
        ``<snapshot>.generation.json``.
    probes:
        Health-probe queries each worker's publish gate runs.
    default_k:
        ``k`` used when a request omits it.
    """

    snapshot: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    serve_dtype: str = "float64"
    max_batch: int = 64
    generation_file: str | None = None
    probes: tuple[tuple[int, int], ...] = ((0, 0),)
    default_k: int = 10

    def generation_path(self) -> str:
        """The resolved generation-file path."""
        if self.generation_file is not None:
            return self.generation_file
        return str(Path(self.snapshot).with_name(Path(self.snapshot).name + ".generation.json"))


class _WorkerHandle:
    """Parent-side handle of one worker process.

    Owns the pipe and the FIFO of exchanges waiting on it. One message
    is outstanding at a time: :meth:`request` sends only into an empty
    FIFO, and the reader callback sends the next after it took a reply.
    Submission order is pipe order, which is what serializes publishes
    against micro-batches.

    Single-writer contract: between :meth:`attach` and :meth:`close`
    every method runs on the event loop thread.
    """

    def __init__(self, index: int, config: WorkerConfig) -> None:
        ctx = get_context("spawn")
        self.index = index
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        try:
            self.process = ctx.Process(
                target=worker_main, args=(config, child_conn), name=f"tcam-worker-{index}"
            )
            self.process.start()
        except Exception:
            # A failed __init__ never returns the handle, so close()
            # could never run — close both pipe ends here or they leak.
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        self.alive = True
        self._exchanges: deque[tuple[dict[str, Any], asyncio.Future[dict[str, Any]]]] = deque()
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def inflight(self) -> int:
        """Exchanges sent or queued whose reply has not arrived."""
        return len(self._exchanges)

    def wait_ready(self) -> None:
        """Block for the worker's start-up message (ready or error)."""
        if not self.conn.poll(_READY_TIMEOUT_S):
            raise RuntimeError(f"worker {self.index} did not come up in time")
        message = self.conn.recv()
        if message.get("type") != "ready":
            raise RuntimeError(f"worker {self.index} failed: {message.get('error', message)}")

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Hand the ready worker's pipe to the event loop."""
        self._loop = loop
        loop.add_reader(self.conn.fileno(), self._on_readable)

    def request(self, message: dict[str, Any]) -> "asyncio.Future[dict[str, Any]]":
        """Enqueue one exchange; resolves with the worker's reply."""
        assert self._loop is not None, "attach() must run before request()"
        future: asyncio.Future[dict[str, Any]] = self._loop.create_future()
        self._exchanges.append((message, future))
        if not self.alive:
            self._mark_down()  # answers it "worker N is down"
        elif len(self._exchanges) == 1:
            self._send_head()
        return future

    def _send_head(self) -> None:
        try:
            self.conn.send(self._exchanges[0][0])
        except OSError:
            self._mark_down()

    def _on_readable(self) -> None:
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            self._mark_down()
            return
        _, future = self._exchanges.popleft()
        if not future.done():
            future.set_result(reply)
        if self._exchanges:
            self._send_head()

    def _mark_down(self) -> None:
        """Stop reading the pipe (a dead fd left registered would wake the
        loop forever) and fail every exchange waiting on it."""
        self.alive = False
        if self._loop is not None and not self.conn.closed:
            self._loop.remove_reader(self.conn.fileno())
        while self._exchanges:
            _, future = self._exchanges.popleft()
            if not future.done():
                future.set_result({"type": "error", "error": f"worker {self.index} is down"})

    def hold_core(self, hold: bool) -> None:
        """Hold the worker on its own core (a publish loads every worker at once), or release."""
        pid = self.process.pid
        if pid is not None and self.alive and hasattr(os, "sched_setaffinity"):  # Linux
            cpus = sorted(os.sched_getaffinity(0))  # the mask workers inherit
            with contextlib.suppress(OSError):  # the worker died under us
                os.sched_setaffinity(pid, {cpus[self.index % len(cpus)]} if hold else cpus)

    def close(self) -> None:
        """Unregister the reader, then close the pipe (event-loop side)."""
        self._mark_down()
        with contextlib.suppress(OSError):
            self.conn.close()

    def reap(self, timeout: float = 10.0) -> None:
        """Join the worker process after :meth:`close` (blocking)."""
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=timeout)


@dataclass
class _ServiceState:
    """Counters the status endpoint reports for the front-end itself."""

    connections: int = 0
    requests: int = 0
    queries: int = 0
    refused: int = 0
    publishes: int = 0
    #: Of ``publishes``, those every worker opened by delta (carried ``φ``/``φ′``).
    delta_publishes: int = 0
    rollbacks: int = 0


class ServingService:
    """The multi-process serving front-end (see module docstring).

    Single-writer contract: every attribute, the worker handles and
    their pipes included, is owned by the event loop that ran
    :meth:`start`; no other thread touches them.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.handles: list[_WorkerHandle] = []
        self.queues: list[MicroBatchQueue] = []
        self.stats = _ServiceState()
        self.draining = False
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._inflight: set["asyncio.Future[dict[str, Any]]"] = set()
        self._publish_lock = asyncio.Lock()
        self._generation_file = GenerationFile(config.generation_path())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn workers, wait for readiness, bind the TCP server."""
        config = self.config
        loop = asyncio.get_running_loop()
        for index in range(config.workers):
            handle = _WorkerHandle(
                index,
                WorkerConfig(
                    index=index,
                    num_workers=config.workers,
                    snapshot=config.snapshot,
                    serve_dtype=config.serve_dtype,
                    generation_file=config.generation_path(),
                    probes=config.probes,
                ),
            )
            self.handles.append(handle)
        try:
            await asyncio.gather(
                *(asyncio.to_thread(handle.wait_ready) for handle in self.handles)
            )
            for handle in self.handles:
                handle.attach(loop)
                worker_index = handle.index
                self.queues.append(
                    MicroBatchQueue(
                        lambda batch, w=worker_index: self._flush(w, batch),
                        max_batch=config.max_batch,
                    )
                )
            self._server = await asyncio.start_server(
                self._serve_connection, host=config.host, port=config.port
            )
        except Exception:
            # Cover the TCP bind too: a failed start_server used to leave
            # the already-spawned worker fleet running with no owner.
            await self._stop_workers()
            raise
        sockets = self._server.sockets or []
        self.port = sockets[0].getsockname()[1] if sockets else None

    async def _stop_workers(self) -> None:
        for handle in self.handles:
            handle.close()
            await asyncio.to_thread(handle.reap)

    async def drain(self) -> None:
        """Graceful shutdown: refuse, flush, await in-flight, stop workers.

        Admission closes first (new requests get the draining refusal),
        every queue's backlog is flushed behind its in-flight batch,
        every in-flight worker exchange completes, and only then are
        workers asked to shut down — no admitted query is ever dropped.
        """
        if self.draining:
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for micro_queue in self.queues:
            micro_queue.close()
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        for handle in self.handles:
            if handle.alive:
                with contextlib.suppress(Exception):
                    await handle.request({"type": "shutdown"})
        await self._stop_workers()

    # ------------------------------------------------------------------
    # routing + micro-batching
    # ------------------------------------------------------------------

    def shard(self, user: int) -> int:
        """The worker index serving this user's shard."""
        return int(user) % len(self.handles)

    def _flush(self, worker_index: int, batch: list[BatchRequest]) -> None:
        """Ship one flushed micro-batch to its worker (event-loop side)."""
        message = {
            "type": "batch",
            "requests": [
                {"queries": request.queries, "k": request.k} for request in batch
            ],
        }
        exchange = self.handles[worker_index].request(message)
        self._inflight.add(exchange)
        exchange.add_done_callback(
            lambda done, w=worker_index, b=batch: self._settle_batch(w, b, done)
        )

    def _settle_batch(
        self, worker_index: int, batch: list[BatchRequest], done: "asyncio.Future[dict[str, Any]]"
    ) -> None:
        """Resolve every request of an answered batch, exactly once."""
        self._inflight.discard(done)
        # first: the worker scores its backlog while these responses are encoded
        self.queues[worker_index].exchange_done()
        reply = done.result() if not done.cancelled() else {"type": "error", "error": "cancelled"}
        if reply.get("type") == "result":
            responses = list(reply.get("responses", ()))
            missing = f"worker answered {len(responses)} of {len(batch)} requests"
        else:
            responses = []
            missing = str(reply.get("error", "worker exchange failed"))
        responses += [{"error": missing}] * (len(batch) - len(responses))  # strand no request
        for request, response in zip(batch, responses):
            if not request.token.done():
                request.token.set_result(response)

    async def _handle_query(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Route one client query request through the worker fleet."""
        request_id = message.get("id")
        raw = message.get("queries")
        if not isinstance(raw, list) or not raw:
            return error_response(request_id, "queries must be a non-empty list")
        try:
            queries = query_pairs(raw)
        except (TypeError, ValueError):
            return error_response(request_id, "queries must be [user, interval] integer pairs")
        k = message.get("k", self.config.default_k)
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            return error_response(request_id, "k must be a positive integer")
        self.stats.requests += 1
        self.stats.queries += len(queries)
        shards: dict[int, list[int]] = {}
        for position, (user, _) in enumerate(queries):
            shards.setdefault(self.shard(user), []).append(position)
        slices = [
            (worker_index, positions, self.queues[worker_index].submit(
                [queries[p] for p in positions], k
            ))
            for worker_index, positions in shards.items()
        ]
        responses = await asyncio.gather(*(entry[2] for entry in slices))
        rows: list[dict[str, Any] | None] = [None] * len(queries)
        generation: list[int | None] = [None] * len(queries)
        worker: list[int | None] = [None] * len(queries)
        degraded: list[bool | None] = [None] * len(queries)
        for (worker_index, positions, _), response in zip(slices, responses):
            if "error" in response:
                return error_response(request_id, str(response["error"]))
            for offset, position in enumerate(positions):
                rows[position] = response["results"][offset]
                generation[position] = response["generation"][offset]
                degraded[position] = response["degraded"][offset]
                worker[position] = worker_index
        return {
            "id": request_id,
            "results": rows,
            "generation": generation,
            "worker": worker,
            "degraded": degraded,
        }

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------

    async def publish(self, path: str, drift: bool = False) -> dict[str, Any]:
        """Hot-swap a snapshot across the fleet, or roll it back whole.

        Every worker gates the candidate independently; a fleet where
        some workers accepted and some rejected would serve mixed
        snapshots, so any rejection reverts the workers that accepted.
        Fleet-wide success is durably recorded in the generation file.
        """
        async with self._publish_lock:
            command = {"type": "publish", "path": str(path), "drift": bool(drift)}
            for handle in self.handles:
                handle.hold_core(True)
            try:
                replies = await asyncio.gather(
                    *(handle.request(dict(command)) for handle in self.handles)
                )
            finally:
                for handle in self.handles:
                    handle.hold_core(False)
            took = [r.get("type") == "published" and r.get("published") for r in replies]
            accepted = [handle.index for handle, ok in zip(self.handles, took) if ok]
            rejected = {
                handle.index: str(reply.get("reason") or reply.get("error", "unknown"))
                for handle, reply, ok in zip(self.handles, replies, took)
                if not ok
            }
            if not rejected:
                self.stats.publishes += 1
                delta = [bool(reply.get("delta")) for reply in replies]
                self.stats.delta_publishes += all(delta)
                generations = [int(reply["generation"]) for reply in replies]
                await asyncio.to_thread(
                    self._generation_file.write, max(generations), str(path), bool(drift)
                )
                return {
                    "published": True,
                    "generation": generations,
                    "rejected": {},
                    "reverted": [],
                    "delta": delta,
                }
            self.stats.rollbacks += 1
            reverted: list[int] = []
            if accepted:
                revert_replies = await asyncio.gather(
                    *(
                        self.handles[index].request({"type": "revert"})
                        for index in accepted
                    )
                )
                reverted = [
                    index
                    for index, reply in zip(accepted, revert_replies)
                    if reply.get("type") == "published" and reply.get("published")
                ]
            return {
                "published": False,
                "generation": [int(reply.get("generation", -1)) for reply in replies],
                "rejected": rejected,
                "reverted": reverted,
            }

    async def status(self) -> dict[str, Any]:
        """Aggregate front-end counters plus every worker's status."""
        inflight = [handle.inflight for handle in self.handles]  # before the status exchanges join
        replies = await asyncio.gather(
            *(handle.request({"type": "status"}) for handle in self.handles if handle.alive)
        )
        return {
            "draining": self.draining,
            "workers": list(replies),
            "service": {
                "connections": self.stats.connections,
                "requests": self.stats.requests,
                "queries": self.stats.queries,
                "refused": self.stats.refused,
                "publishes": self.stats.publishes,
                "delta_publishes": self.stats.delta_publishes,
                "full_publishes": self.stats.publishes - self.stats.delta_publishes,
                "rollbacks": self.stats.rollbacks,
                "max_batch": self.config.max_batch,
                "inflight": inflight,
                "pending_queries": [micro_queue.pending_queries for micro_queue in self.queues],
            },
        }

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _dispatch(self, message: Mapping[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        if self.draining:
            self.stats.refused += 1
            return error_response(request_id, "draining")
        op = message.get("op")
        if op is None:
            return await self._handle_query(message)
        if op == "status":
            reply = await self.status()
            reply["id"] = request_id
            return reply
        if op == "publish":
            path = message.get("path")
            if not isinstance(path, str) or not path:
                return error_response(request_id, "publish needs a snapshot path")
            reply = await self.publish(path, drift=bool(message.get("drift", False)))
            reply["id"] = request_id
            return reply
        return error_response(request_id, f"unknown op {op!r}")

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    writer.write(encode_line(error_response(None, "line too long")))
                    await writer.drain()
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_line(line)
                except ValueError as exc:
                    writer.write(encode_line(error_response(None, str(exc))))
                    await writer.drain()
                    continue
                try:
                    reply = await self._dispatch(message)
                except ServiceDrainingError:
                    self.stats.refused += 1
                    reply = error_response(message.get("id"), "draining")
                except Exception as exc:  # noqa: BLE001 - keep the connection up
                    reply = error_response(
                        message.get("id"), f"{type(exc).__name__}: {exc}"
                    )
                writer.write(encode_line(reply))
                await writer.drain()
                if reply.get("error") == "draining":
                    break
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()


async def _run_until_signal(service: ServingService) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully; returns the exit code."""
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, stop.set)
    try:
        await service.start()
    except (RuntimeError, OSError) as exc:
        # A worker could not open the snapshot (wait_ready) or the bind
        # failed; start() has already reaped every spawned worker.
        print(f"tcam serve: {exc}", file=sys.stderr)
        return 2
    print(
        f"tcam serve: {service.config.workers} workers on "
        f"{service.config.host}:{service.port} (snapshot {service.config.snapshot})",
        flush=True,
    )
    await stop.wait()
    print("tcam serve: draining", flush=True)
    await service.drain()
    print("tcam serve: drained cleanly", flush=True)
    return 0


def run_service(config: ServiceConfig) -> int:
    """Blocking entry point used by ``tcam serve``.

    Returns 0 after a clean drain, 2 when the service could not start.
    """
    return asyncio.run(_run_until_signal(ServingService(config)))
