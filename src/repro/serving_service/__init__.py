"""Process-parallel serving service: one snapshot, N worker processes.

The single-process serving stack (:mod:`repro.recommend`) answers a
batch of queries quickly; this package turns it into a *service*:

* :mod:`.batching` — busy-aware micro-batching: dispatch at once to an
  idle worker, coalesce behind a busy one's in-flight batch, and never
  split one request across flushes;
* :mod:`.worker` — the spawned worker process: its own recommender +
  publish gate, driven over a strict request/response pipe; workers
  map a snapshot saved with an mmap sidecar
  (:mod:`repro.recommend.paramstore`) and share one page cache — the
  snapshot says so, no launch flag does;
* :mod:`.service` — the one-thread asyncio TCP front-end: user-sharded
  routing, fleet-wide RCU hot swaps with rollback, SIGTERM drain;
* :mod:`.client` / :mod:`.protocol` — the newline-JSON wire protocol
  and a minimal blocking client.

``tcam serve`` (see :mod:`repro.cli`) is the operational entry point;
``benchmarks/perf/bench_service.py`` measures p50/p99 latency, qps and
per-worker PSS across worker counts.
"""

from .batching import BatchAccumulator, BatchRequest, MicroBatchQueue
from .client import ServiceClient, ServiceError
from .protocol import MAX_LINE_BYTES, decode_line, encode_line, error_response
from .service import ServiceConfig, ServingService, run_service
from .worker import WorkerConfig, serve_requests, worker_main

__all__ = [
    "BatchAccumulator",
    "BatchRequest",
    "MicroBatchQueue",
    "ServiceClient",
    "ServiceError",
    "MAX_LINE_BYTES",
    "decode_line",
    "encode_line",
    "error_response",
    "ServiceConfig",
    "ServingService",
    "run_service",
    "WorkerConfig",
    "serve_requests",
    "worker_main",
]
