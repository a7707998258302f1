"""Streaming ingestion throughput microbenchmark → ``BENCH_stream.json``.

Measures the three rates that bound the streaming pipeline of
:mod:`repro.streaming`:

* **append** — durable events/sec into the write-ahead log (fsync per
  batch append, the WAL's acknowledged-append contract);
* **ingest** — events/sec folded into a fitted TTCAM by the
  :class:`StreamIngestor` (micro-batched partial EM with drift
  tracking and cadence checkpoints);
* **concurrent** — sustained ingest events/sec while serving threads
  hammer :meth:`TemporalRecommender.recommend_batch` on the same
  process, with the folded snapshot hot-swapped in at the end — the
  zero-downtime loop. The concurrent serving queries/sec is recorded
  alongside, so the trajectory catches either side starving the other.

The script also verifies the hot-swap contract while it measures:
every concurrently served batch must be complete and single-generation.

Run ``python benchmarks/perf/bench_stream.py`` (with ``src`` on
``PYTHONPATH``), or ``make bench-stream``.
"""

from __future__ import annotations

import sys
import threading
import time
import warnings
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perf_common import best_time, make_parser

from repro.analysis.benchjson import BenchEntry, append_entries, default_context
from repro.core.params import TTCAMParameters
from repro.core.serialize import LoadedModel
from repro.recommend import TemporalRecommender
from repro.streaming import EventLog, SnapshotPublisher, StreamEvent, StreamIngestor

#: (num_events, num_users, num_items) per scale.
SCALES = [
    (5_000, 300, 1_500),
    (20_000, 600, 4_000),
]
SMOKE_SCALES = [(400, 50, 120)]

NUM_INTERVALS = 12
NUM_USER_TOPICS = 8
NUM_TIME_TOPICS = 4
BATCH_EVENTS = 512
SERVING_THREADS = 2
QUERY_BATCH = 128


def make_params(num_users: int, num_items: int, seed: int = 0) -> TTCAMParameters:
    """Synthetic fitted TTCAM parameters (Dirichlet draws, serving-shaped)."""
    rng = np.random.default_rng(seed)
    return TTCAMParameters(
        theta=rng.dirichlet(np.full(NUM_USER_TOPICS, 0.3), size=num_users),
        phi=rng.dirichlet(np.full(num_items, 0.05), size=NUM_USER_TOPICS),
        theta_time=rng.dirichlet(np.full(NUM_TIME_TOPICS, 0.3), size=NUM_INTERVALS),
        phi_time=rng.dirichlet(np.full(num_items, 0.05), size=NUM_TIME_TOPICS),
        lambda_u=rng.beta(3.0, 3.0, size=num_users),
    )


def make_events(count: int, num_users: int, num_items: int, seed: int = 0):
    """An in-range random event stream (zipf-hot items)."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, num_users, count)
    intervals = rng.integers(0, NUM_INTERVALS, count)
    items = np.minimum(rng.zipf(1.3, count) - 1, num_items - 1)
    scores = rng.random(count) + 0.5
    return [
        StreamEvent(user=int(u), interval=int(t), item=int(i), score=float(s))
        for u, t, i, s in zip(users, intervals, items, scores)
    ]


def append_all(directory: Path, events, chunk: int = 1024) -> None:
    """Append the stream in producer-sized durable chunks."""
    with EventLog(directory, segment_events=8192) as log:
        for start in range(0, len(events), chunk):
            log.append(events[start : start + chunk])


def run_ingest(directory: Path, params, checkpoints: Path) -> StreamIngestor:
    ingestor = StreamIngestor(
        EventLog(directory),
        params,
        checkpoints,
        batch_events=BATCH_EVENTS,
        checkpoint_every=8,
        resume=False,
    )
    ingestor.run()
    return ingestor


def concurrent_rates(root: Path, params, events) -> tuple[float, float]:
    """(ingest events/sec, serving queries/sec) under combined load."""
    append_all(root / "wal", events)
    model = LoadedModel(params)
    recommender = TemporalRecommender(model)
    publisher = SnapshotPublisher(recommender)
    rng = np.random.default_rng(11)
    queries = [
        (int(u), int(t))
        for u, t in zip(
            rng.integers(0, params.num_users, QUERY_BATCH),
            rng.integers(0, NUM_INTERVALS, QUERY_BATCH),
        )
    ]
    served = [0]
    stop = threading.Event()

    def reader() -> None:
        count = 0
        while not stop.is_set():
            results, statuses = recommender.recommend_batch_with_status(queries, k=10)
            assert len(results) == len(queries), "dropped queries under swap load"
            assert len({s.generation for s in statuses}) == 1, "torn batch"
            count += len(results)
        served[0] += count

    threads = [threading.Thread(target=reader) for _ in range(SERVING_THREADS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    ingestor = run_ingest(root / "wal", params, root / "ckpt-conc")
    publisher.publish(ingestor.params)
    elapsed = time.perf_counter() - start
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    assert recommender.swap_count == 1
    return len(events) / elapsed, served[0] / elapsed


def main(argv=None) -> int:
    parser = make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else SCALES
    context = default_context()
    entries = []

    for num_events, num_users, num_items in scales:
        params = make_params(num_users, num_items, seed=23)
        events = make_events(num_events, num_users, num_items, seed=31)
        label = f"stream/e{num_events}-v{num_items}"

        with TemporaryDirectory() as raw:
            root = Path(raw)

            def timed_append(run=[0]):
                run[0] += 1
                append_all(root / f"wal-{run[0]}", events)

            append_rate = num_events / best_time(timed_append, args.repeats)

            append_all(root / "wal-ingest", events)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)

                def timed_ingest(run=[0]):
                    run[0] += 1
                    run_ingest(root / "wal-ingest", params, root / f"ckpt-{run[0]}")

                ingest_rate = num_events / best_time(timed_ingest, args.repeats)
                concurrent_ingest, concurrent_qps = concurrent_rates(
                    root / "conc", params, events
                )

        for suffix, value, unit, extra in (
            ("append", append_rate, "events/sec", {}),
            ("ingest", ingest_rate, "events/sec", {}),
            ("concurrent-ingest", concurrent_ingest, "events/sec",
             {"serving_threads": SERVING_THREADS}),
            ("concurrent-serve", concurrent_qps, "queries/sec",
             {"serving_threads": SERVING_THREADS}),
        ):
            entries.append(
                BenchEntry(
                    name=f"{label}/{suffix}",
                    value=round(value, 2),
                    unit=unit,
                    params={
                        "num_events": num_events,
                        "num_users": num_users,
                        "num_items": num_items,
                        "batch_events": BATCH_EVENTS,
                        **extra,
                    },
                    context=context,
                )
            )
            print(f"{label + '/' + suffix:45s} {value:12.1f} {unit}")

    path = Path(args.output_dir) / "BENCH_stream.json"
    append_entries(path, entries)
    print(f"appended {len(entries)} entries to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
