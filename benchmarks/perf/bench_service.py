"""Process-parallel serving service benchmark → ``BENCH_service.json``.

Measures the end-to-end ``tcam serve`` stack — asyncio front-end,
busy-aware micro-batching, ``N`` spawned worker processes on one
snapshot — under a concurrent closed-loop client workload. Each worker
count runs twice, on two snapshots of the same parameters: one saved
plain (every worker loads the ``.npz`` eagerly, ``wN``) and one saved
with its derived serving members (``mmap_layout=True``; every worker maps it,
``wN-mmap`` — the one cross-worker sharing path). ``tcam serve`` is
started the same way on both. For each the script
records requests/sec plus client-side p50/p99 request latency, the
front-end's peak RSS (``VmHWM``) and every worker's resident footprint
in both RSS and PSS (proportional set size: shared pages divided among
the processes mapping them, the honest metric for a zero-copy fleet).

The script *verifies* while it measures:

* a sample of service responses must be **bitwise identical** (items,
  score bits, tie order) to a direct in-process ``recommend_batch`` on
  the same snapshot;
* at full scale, mean per-worker PSS of the ``-mmap`` rows at the
  highest worker count must be materially below the single-worker PSS —
  memory grows sub-linearly in workers or the zero-copy claim is false
  (the plain rows claim no sharing);
* every worker's ``status`` must report ``"mmap"`` as the snapshot was
  saved;
* two fleet-wide hot swaps are exercised under the live service — a
  snapshot over the same ``φ``/``φ′`` (which every worker must open by
  delta when it serves a plain ``.npz``), then a refitted one (which none
  may) — each answered bitwise like a direct ``recommend_batch``, and
  every run must end in a clean SIGTERM drain (exit 0, "drained
  cleanly").

Run ``python benchmarks/perf/bench_service.py`` (with ``src`` on
``PYTHONPATH``), or ``make bench-service``; ``--smoke`` runs a tiny
configuration for CI.
"""

from __future__ import annotations

import itertools
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perf_common import make_parser

from repro.analysis.benchjson import BenchEntry, append_entries, default_context
from repro.core.params import TTCAMParameters
from repro.core.serialize import LoadedModel, save_params
from repro.recommend import TemporalRecommender
from repro.serving_service import ServiceClient

#: (num_user_topics, num_items, k) of the served snapshot. The catalogue
#: is deliberately large enough that the snapshot's derived arrays — not
#: the interpreter — dominate each worker's footprint, so the PSS
#: contrast actually measures snapshot sharing.
SCALE = (16, 100_000, 10)
SMOKE_SCALE = (6, 500, 5)
#: Worker-process counts benchmarked (>= 2 counts, per the acceptance bar).
WORKER_COUNTS = (1, 2, 4)
SMOKE_WORKER_COUNTS = (1, 2)
#: Closed-loop clients and requests per client per worker count.
CLIENTS, REQUESTS_PER_CLIENT = 4, 100
SMOKE_CLIENTS, SMOKE_REQUESTS = 2, 20

NUM_USERS = 2_000
NUM_INTERVALS = 48
VERIFY_SAMPLE = 16
_PORT_RE = re.compile(r"tcam serve: \d+ workers on [\w.\-]+:(\d+)")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def make_params(num_topics: int, num_items: int, seed: int) -> TTCAMParameters:
    """Synthetic fitted TTCAM parameters at serving scale."""
    rng = np.random.default_rng(seed)
    num_time_topics = max(2, num_topics // 2)
    return TTCAMParameters(
        theta=rng.dirichlet(np.full(num_topics, 0.3), size=NUM_USERS),
        phi=rng.dirichlet(np.full(num_items, 0.05), size=num_topics),
        theta_time=rng.dirichlet(np.full(num_time_topics, 0.3), size=NUM_INTERVALS),
        phi_time=rng.dirichlet(np.full(num_items, 0.05), size=num_time_topics),
        lambda_u=rng.beta(3.0, 3.0, size=NUM_USERS),
    )


def make_queries(num_queries: int, seed: int) -> list[tuple[int, int]]:
    """Skewed workload: uniform users, zipf-hot intervals."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, NUM_USERS, num_queries)
    intervals = np.minimum(rng.zipf(1.5, num_queries) - 1, NUM_INTERVALS - 1)
    return [(int(u), int(t)) for u, t in zip(users, intervals)]


class ServeProcess:
    """One ``tcam serve`` subprocess; parses its bound port at start-up."""

    def __init__(self, snapshot: str, workers: int, generation_file: str) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # One BLAS thread per worker, as benchmarks/e2e runs the service:
        # N workers x a BLAS pool each oversubscribes a small host and the
        # w2/w4 entries would measure that, not the service.
        env.update(dict.fromkeys(BLAS_ENV, "1"))
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                "serve",
                "--model",
                snapshot,
                "--port",
                "0",
                "--workers",
                str(workers),
                "--generation-file",
                generation_file,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout_s: float = 120.0) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout_s
        lines = []
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = _PORT_RE.search(line)
            if match:
                return int(match.group(1))
        self.proc.kill()
        # Reap the killed process (and close its stdout pipe) before
        # raising, or it lingers as a zombie for the rest of the run.
        self.proc.communicate()
        raise RuntimeError(f"tcam serve never reported a port; output: {lines!r}")

    def peak_rss_bytes(self) -> int | None:
        """The front-end process's ``VmHWM`` (``None`` off Linux)."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(match.group(1)) * 1024 if match else None

    def drain(self, timeout_s: float = 120.0) -> str:
        """SIGTERM the service and return its remaining output."""
        self.proc.send_signal(signal.SIGTERM)
        remaining, _ = self.proc.communicate(timeout=timeout_s)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"tcam serve exited {self.proc.returncode}; output: {remaining!r}"
            )
        if "drained cleanly" not in remaining:
            raise RuntimeError(f"no clean drain marker in output: {remaining!r}")
        return remaining


def _client_loop(port, queries, k, rounds, latencies, errors) -> None:
    """One closed-loop client thread: single-query requests, timed."""
    try:
        with ServiceClient("127.0.0.1", port, timeout=120) as client:
            for index in range(rounds):
                query = queries[index % len(queries)]
                start = time.perf_counter()
                reply = client.recommend([query], k=k)
                latencies.append(time.perf_counter() - start)
                if reply["results"][0] is None:
                    raise RuntimeError("dropped query")
    except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
        errors.append(f"{type(exc).__name__}: {exc}")


def verify_bitwise(port: int, params: TTCAMParameters, queries, k: int) -> None:
    """Service responses must equal direct recommend_batch bitwise."""
    sample = queries[:VERIFY_SAMPLE]
    direct = TemporalRecommender(LoadedModel(params)).recommend_batch(sample, k=k)
    with ServiceClient("127.0.0.1", port, timeout=120) as client:
        reply = client.recommend(sample, k=k)
    for query, row, expected in zip(sample, reply["results"], direct):
        assert row["items"] == [int(i) for i in expected.items], (
            f"service items diverged from direct batch at query {query}"
        )
        assert [float(s).hex() for s in row["scores"]] == [
            float(s).hex() for s in expected.scores
        ], f"service scores not bitwise-identical at query {query}"


def measure_worker_count(
    snapshot: str,
    workdir: Path,
    params: TTCAMParameters,
    workers: int,
    mmap: bool,
    k: int,
    clients: int,
    rounds: int,
    swaps: list[tuple[str, TTCAMParameters, bool]],
) -> dict:
    """One worker count and snapshot layout: start, load, verify, optionally swap, drain.

    ``mmap`` says how ``snapshot`` (and the ``swaps``) were saved — what
    every worker's status must therefore report. ``swaps`` are
    ``(path, parameters, opened by delta?)`` published in order.
    """
    tag = f"w{workers}-mmap" if mmap else f"w{workers}"
    service = ServeProcess(snapshot, workers, str(workdir / f"gen-{tag}.json"))
    try:
        queries = make_queries(256, seed=29)
        verify_bitwise(service.port, params, queries, k)

        latencies: list[float] = []
        errors: list[str] = []
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(service.port, queries[seed::clients] or queries, k, rounds,
                      latencies, errors),
            )
            for seed in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise RuntimeError(f"client errors: {errors}")
        if len(latencies) != clients * rounds:
            raise RuntimeError(
                f"dropped requests: {len(latencies)} != {clients * rounds}"
            )

        with ServiceClient("127.0.0.1", service.port, timeout=120) as client:
            status = client.status()
            if any(w["mmap"] is not mmap for w in status["workers"]):
                raise RuntimeError(f"workers are not serving as the snapshot was saved: {status}")
            frontend_peak = service.peak_rss_bytes()
            for done, (path, swapped, delta) in enumerate(swaps, start=1):
                swap = client.publish(path)
                if not swap["published"] or swap["delta"] != [delta] * workers:
                    raise RuntimeError(f"fleet hot swap failed (delta={delta}): {swap}")
                after = client.status()
                if any(
                    w["swaps"] != done or w["mmap"] is not mmap or w["delta"] is not delta
                    for w in after["workers"]
                ):
                    raise RuntimeError(f"swap did not land fleet-wide: {after}")
                verify_bitwise(service.port, swapped, queries, k)
    finally:
        service.drain()

    ordered = np.sort(np.asarray(latencies))
    return {
        "tag": tag,
        "workers": workers,
        "mmap": mmap,
        "qps": len(latencies) / elapsed,
        "p50_ms": float(np.percentile(ordered, 50) * 1e3),
        "p99_ms": float(np.percentile(ordered, 99) * 1e3),
        "requests": len(latencies),
        "clients": clients,
        "rss_bytes": [w["rss_bytes"] for w in status["workers"]],
        "pss_bytes": [w["pss_bytes"] for w in status["workers"]],
        "frontend_peak_rss_bytes": frontend_peak,
        "swapped": bool(swaps),
    }


def main(argv=None) -> int:
    parser = make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)

    num_topics, num_items, k = SMOKE_SCALE if args.smoke else SCALE
    worker_counts = SMOKE_WORKER_COUNTS if args.smoke else WORKER_COUNTS
    clients = SMOKE_CLIENTS if args.smoke else CLIENTS
    rounds = SMOKE_REQUESTS if args.smoke else REQUESTS_PER_CLIENT

    context = default_context()
    workdir = Path(tempfile.mkdtemp(prefix="bench-service-"))
    entries = []
    try:
        params = make_params(num_topics, num_items, seed=17)
        candidate = make_params(num_topics, num_items, seed=23)
        # What fold-in publishes: other θ/θ′/λ over the same φ/φ′.
        folded = params.with_fields(theta=candidate.theta, lambda_u=candidate.lambda_u)
        # Each parameter set twice: saved plain, and saved with derived members.
        snapshots, swap_folded, swap_candidates = (
            {
                layout: str(save_params(p, workdir / f"{stem}-{layout}.npz", mmap_layout=layout))
                for layout in (False, True)
            }
            for p, stem in ((params, "model"), (folded, "folded"), (candidate, "candidate"))
        )
        measurements = []
        for workers, mmap in itertools.product(worker_counts, (False, True)):
            swaps = []
            if workers == max(worker_counts):
                # A plain .npz over the serving base is opened by delta; a
                # mapped one and a refit are not.
                swaps = [
                    (swap_folded[mmap], folded, not mmap),
                    (swap_candidates[mmap], candidate, False),
                ]
            result = measure_worker_count(
                snapshots[mmap], workdir, params, workers, mmap, k, clients, rounds, swaps
            )
            measurements.append(result)
            name = f"service/v{num_items}-z{num_topics}-k{k}/{result['tag']}"
            entries.append(
                BenchEntry(
                    name=name,
                    value=round(result["qps"], 2),
                    unit="requests/sec",
                    params={
                        "num_items": num_items,
                        "num_topics": num_topics,
                        "k": k,
                        "workers": workers,
                        "mmap": mmap,
                        "clients": clients,
                        "blas_threads": 1,
                        "requests": result["requests"],
                        "p50_ms": round(result["p50_ms"], 3),
                        "p99_ms": round(result["p99_ms"], 3),
                        "rss_bytes": result["rss_bytes"],
                        "pss_bytes": result["pss_bytes"],
                        "frontend_peak_rss_bytes": result["frontend_peak_rss_bytes"],
                        "hot_swapped": result["swapped"],
                    },
                    context=context,
                )
            )
            pss = [b for b in result["pss_bytes"] if b is not None]
            pss_mib = (
                f"{sum(pss) / len(pss) / 2**20:6.1f} MiB/worker" if pss else "n/a"
            )
            peak = result["frontend_peak_rss_bytes"]
            peak_mib = f"{peak / 2**20:6.1f} MiB" if peak is not None else "n/a"
            print(
                f"{name:45s} {result['qps']:8.1f} req/s  "
                f"p50 {result['p50_ms']:6.2f} ms  p99 {result['p99_ms']:6.2f} ms  "
                f"(PSS {pss_mib}, front-end peak RSS {peak_mib})"
            )

        if not args.smoke:
            shared = [m for m in measurements if m["mmap"]]
            single = shared[0]["pss_bytes"]
            widest = shared[-1]["pss_bytes"]
            if all(b is not None for b in single + widest):
                mean_single = sum(single) / len(single)
                mean_widest = sum(widest) / len(widest)
                ratio = mean_widest / mean_single
                print(
                    f"mean per-worker PSS at w={worker_counts[-1]}-mmap is "
                    f"{ratio:.2f}x the single-worker PSS"
                )
                assert ratio <= 0.9, (
                    f"per-worker PSS barely shrank ({ratio:.2f}x) at "
                    f"{worker_counts[-1]} workers on the mapped snapshot: "
                    "snapshot sharing is not zero-copy (need <= 0.9x)"
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = Path(args.output_dir) / "BENCH_service.json"
    append_entries(path, entries)
    print(f"appended {len(entries)} entries to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
