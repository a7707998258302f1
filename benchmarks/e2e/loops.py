"""The four measured loops and the environment they run against.

Each loop drives the system only through the public API of ``src/repro``
(or, for the service, its TCP protocol), wraps every call into a layer in
a span of the recorder it is given, checks what comes back, and returns a
:class:`LoopResult`. ``run.py`` turns the result of a workload's own loop
into the end-to-end metrics; ``layers.py`` turns the results of all four
into the layer table.

* :func:`fit_loop` — W-TTCAM fit → snapshot save → ITCAM fit, repeated.
* :func:`batch_loop` — in-process ``recommend_batch``, closed loop, one
  thread, batches of 64.
* :func:`closed_loop` — ``tcam serve``, two closed-loop connections,
  single-query requests.
* :func:`pipeline_loop` — ``tcam serve`` under an open-loop query stream
  while an open-loop event stream is appended, folded, saved and published.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

import numpy as np
from inputs import (
    BATCH,
    CHUNK_EVENTS,
    LIMIT_MS,
    TOP_K,
    Sizes,
    make_events,
    make_params,
    make_queries,
    make_ratings,
)
from serveproc import ServeProcess
from spans import OFF

from repro.core import ITCAM, TTCAM
from repro.core.params import TTCAMParameters
from repro.core.serialize import LoadedModel, load_params, save_params
from repro.data.cuboid import RatingCuboid
from repro.recommend import TemporalRecommender
from repro.serving_service import ServiceClient, ServiceError
from repro.streaming import EventLog, SnapshotPublisher, StreamIngestor

#: Warm-up before timing: batches for the in-process scorer, seconds for
#: the service (worker caches fill per interval, and intervals are Zipf-hot).
WARM_BATCHES = 20
WARM_SERVICE_S = 1.0
#: Share of a loop's seconds spent on its steady phase; the rest samples
#: how long a new snapshot takes to answer (``freshness_ms``).
STEADY_SHARE = 0.7
#: Seconds per slice of a steady phase (see :func:`quiet`): about ten
#: batches of the in-process scorer, some 180 service requests. The fit
#: loop's operations take a third of a second, so its slices are longer.
SLICE_S = 0.5
FIT_SLICE_S = 2.0
#: Queries compared bitwise against the reference engine in each loop.
VERIFY_SAMPLE = 16
#: Thread switch interval while the pipeline loop runs: the ingest thread
#: is CPU-bound Python, and at the default 5 ms the interpreter lock of the
#: load generator itself would add to every query's measured latency.
PIPELINE_SWITCH_S = 0.001


T = TypeVar("T")


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def by_slice(samples: Iterable[tuple[float, T]], slice_s: float) -> dict[int, list[T]]:
    """Group ``(at_s, value)`` samples into consecutive slices of ``slice_s`` seconds."""
    slices: dict[int, list[T]] = {}
    for at_s, value in samples:
        slices.setdefault(int(at_s // slice_s), []).append(value)
    return dict(sorted(slices.items()))


def whole_slices(seconds: float) -> float:
    """``seconds`` rounded down to a whole number of slices, at least one."""
    return max(1, int(seconds / SLICE_S)) * SLICE_S


def quiet(values: list[float], better: str = "lower") -> float:
    """The quartile of per-slice values on the undisturbed side.

    The shared host runs the same code at speeds about 30 % apart and
    moves between them every few seconds to a minute (README, "Bounds and
    repeatability"), so the median of a run lands on whichever state
    filled most of it and does not repeat. The first quartile of times
    (third of rates) reads the fast state whenever that held for a quarter
    of the run: the same estimate of the program's own speed from run to
    run, for the parent commit and a change alike.
    """
    return float(np.percentile(values, 25 if better == "lower" else 75))


def bitwise_equal(rows: list[dict | None], expected: list) -> bool:
    """Service rows equal in-process results: items, score bits, tie order."""
    if len(rows) != len(expected):
        return False
    for row, want in zip(rows, expected):
        if row is None or row["items"] != [int(i) for i in want.items]:
            return False
        if [float(s).hex() for s in row["scores"]] != [float(s).hex() for s in want.scores]:
            return False
    return True


def reference_answers(params: TTCAMParameters, queries: list[tuple[int, int]]) -> list:
    """``recommend_batch`` on a fresh in-process recommender over ``params``."""
    return TemporalRecommender(LoadedModel(params)).recommend_batch(queries, k=TOP_K)


class Env:
    """One scenario's data and the long-lived objects the loops share.

    Everything is built on first use, so a workload's set-up is the time to
    touch what its loop needs (see ``PREPARE``) and a traced run, which
    drives every loop, ends up building all of it.
    """

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.service_start_s = 0.0

    @cached_property
    def ratings(self) -> dict[str, np.ndarray]:
        return make_ratings(self.sizes, self.seed)

    def build_cuboid(self) -> RatingCuboid:
        sizes = self.sizes
        return RatingCuboid.from_arrays(
            **self.ratings,
            num_users=sizes.users,
            num_intervals=sizes.intervals,
            num_items=sizes.items,
        )

    @cached_property
    def cuboid(self) -> RatingCuboid:
        return self.build_cuboid()

    @cached_property
    def params(self) -> TTCAMParameters:
        return make_params(self.sizes, self.seed)

    @cached_property
    def params_alt(self) -> TTCAMParameters:
        return make_params(self.sizes, self.seed, variant=1)

    @cached_property
    def queries(self) -> list[list[tuple[int, int]]]:
        return make_queries(self.sizes, self.seed)

    @cached_property
    def flat_queries(self) -> list[tuple[int, int]]:
        return [query for batch in self.queries for query in batch]

    @cached_property
    def recommender(self) -> TemporalRecommender:
        """The in-process scorer, warmed so caches and lazy set-up are done."""
        recommender = TemporalRecommender(LoadedModel(self.params))
        for batch in self.queries[:WARM_BATCHES]:
            recommender.recommend_batch(batch, k=TOP_K)
        return recommender

    @cached_property
    def snapshot(self) -> Path:
        """The snapshot ``tcam serve`` starts on."""
        return save_params(self.params, self.workdir / "model-a.npz")

    @cached_property
    def snapshot_alt(self) -> Path:
        """The alternate snapshot that hot swaps flip to."""
        return save_params(self.params_alt, self.workdir / "model-b.npz")

    @cached_property
    def service(self) -> ServeProcess:
        """``tcam serve`` on the first snapshot, past its first correct answer."""
        snapshot, probe = self.snapshot, self.queries[0][:1]
        start = time.perf_counter()
        service = ServeProcess(snapshot)
        try:
            with ServiceClient("127.0.0.1", service.port, timeout=60) as client:
                rows = client.recommend(probe, k=TOP_K)["results"]
            self.service_start_s = time.perf_counter() - start
            if not bitwise_equal(rows, reference_answers(self.params, probe)):
                raise RuntimeError("tcam serve's first answer differs from recommend_batch")
        except BaseException:
            service.drain()
            raise
        #: What the service serves now; loops that publish update it.
        self.served = self.params
        return service

    def close(self) -> None:
        service = self.__dict__.pop("service", None)
        if service is not None:
            service.drain()


#: What each workload's set-up builds (and ``setup_s`` therefore times).
PREPARE = {
    # One untimed cycle after building the cuboid: the first fit of a
    # process is half again as slow as the rest (imports, first touches).
    "fit": lambda env: fit_loop(env, 0.0, OFF),
    "serve_batch": lambda env: env.recommender,
    "service_closed": lambda env: env.service,
    "pipeline": lambda env: env.service,
}


@dataclass
class LoopResult:
    """What one loop measured.

    ``rates`` is the loop's headline rate (unit in ``RATE_UNIT``) in each
    slice of its steady phase, ``latency_slices`` one sample per operation
    grouped by the slice it began (or was due) in, ``freshness_ms`` one
    sample per "new information → first answer that reflects it".
    ``problems`` lists failed correctness checks; each also counts in
    ``failed``.
    """

    rates: list[float] = field(default_factory=list)
    latency_slices: list[list[float]] = field(default_factory=list)
    freshness_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return quiet(self.rates, "higher")

    @property
    def latencies_ms(self) -> list[float]:
        return [ms for group in self.latency_slices for ms in group]

    def latency_ms(self, within_slice: Callable[[list[float]], float]) -> float:
        """A statistic of the latencies within each slice, :func:`quiet` across slices."""
        return quiet([within_slice(group) for group in self.latency_slices])

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


RATE_UNIT = {
    "fit": "ratings/s",
    "serve_batch": "queries/s",
    "service_closed": "req/s",
    "pipeline": "events/s",
}


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------


def fit_loop(env: Env, seconds: float, rec) -> LoopResult:
    """Fit W-TTCAM (default engine, what ``tcam fit`` runs), save it, fit ITCAM.

    One cycle is one operation. The rate is rating-iterations per second
    of both fits, the latency is the W-TTCAM ``fit`` call and freshness is
    cuboid → snapshot on disk (that fit plus ``save_params``). Checks: both
    likelihood traces are monotone, and every cycle — same data, same
    seed — ends on the first cycle's likelihoods to 1e-9 relative.
    """
    sizes, cuboid = env.sizes, env.cuboid
    result = LoopResult()
    began_s: list[float] = []
    ttcam_s: list[float] = []
    itcam_s: list[float] = []
    save_s: list[float] = []
    reference: tuple[float, float] | None = None
    origin = time.perf_counter()
    deadline = origin + seconds
    cycle = 0
    while cycle < 1 or time.perf_counter() < deadline:
        with rec.span("fit.cycle", cycle):
            start = time.perf_counter()
            with rec.span("core.ttcam.fit", cycle):
                ttcam = TTCAM(
                    sizes.k1, sizes.k2, max_iter=sizes.fit_iters, tol=-1.0, weighted=True
                ).fit(cuboid)
            fitted = time.perf_counter()
            with rec.span("core.serialize.save_params", cycle):
                save_params(ttcam.params_, env.workdir / "fitted.npz")
            saved = time.perf_counter()
            with rec.span("core.itcam.fit", cycle):
                itcam = ITCAM(sizes.k1, max_iter=sizes.fit_iters, tol=-1.0).fit(cuboid)
            done = time.perf_counter()
        began_s.append(start - origin)
        ttcam_s.append(fitted - start)
        save_s.append(saved - fitted)
        itcam_s.append(done - saved)
        result.attempted += 1
        finals = (ttcam.trace_.final_log_likelihood, itcam.trace_.final_log_likelihood)
        if reference is None:
            reference = finals
        if not (ttcam.trace_.is_monotone() and itcam.trace_.is_monotone()):
            result.fail(f"cycle {cycle}: log-likelihood trace is not monotone")
        elif not np.allclose(finals, reference, rtol=1e-9, atol=0.0):
            result.fail(f"cycle {cycle}: final log-likelihood {finals} != {reference}")
        cycle += 1
    work = cuboid.nnz * sizes.fit_iters
    slices = by_slice(zip(began_s, zip(ttcam_s, itcam_s)), FIT_SLICE_S).values()
    result.rates = [2 * work * len(group) / sum(t + i for t, i in group) for group in slices]
    result.latency_slices = [[t * 1e3 for t, _ in group] for group in slices]
    result.freshness_ms = [(t + s) * 1e3 for t, s in zip(ttcam_s, save_s)]
    result.detail = {
        "nnz": cuboid.nnz,
        "ttcam_fit_s": float(np.median(ttcam_s)),
        "itcam_fit_s": float(np.median(itcam_s)),
    }
    return result


# ----------------------------------------------------------------------
# serve_batch
# ----------------------------------------------------------------------


def batch_loop(env: Env, seconds: float, rec) -> LoopResult:
    """Closed loop, one thread: ``recommend_batch`` on batches of 64.

    After the steady phase the loop alternates the two parameter sets
    through an in-process ``SnapshotPublisher`` and times publish → first
    batch answered by the new generation. Checks: every batch returns 64
    full rows, and a 16-query sample equals per-query TA retrieval bitwise.
    """
    recommender, queries = env.recommender, env.queries
    result = LoopResult()
    before = recommender.serving_cache.stats()
    start = time.perf_counter()
    steady_end = start + whole_slices(seconds * STEADY_SHARE)
    samples: list[tuple[float, float]] = []
    index = 0
    while index < 2 or time.perf_counter() < steady_end:
        batch = queries[index % len(queries)]
        began = time.perf_counter()
        with rec.span("recommend.recommend_batch", index):
            answers = recommender.recommend_batch(batch, k=TOP_K)
        samples.append((began - start, (time.perf_counter() - began) * 1e3))
        result.attempted += 1
        if len(answers) != BATCH or any(len(row) != TOP_K for row in answers):
            result.fail(f"batch {index}: short answer")
        index += 1
    result.latency_slices = list(by_slice(samples, SLICE_S).values())
    # One thread, closed loop: a slice's batches fill its time.
    result.rates = [len(group) * BATCH / (sum(group) / 1e3) for group in result.latency_slices]
    after = recommender.serving_cache.stats()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    result.detail = {
        "cache_hit_rate": (after.hits - before.hits) / lookups if lookups else 0.0,
        "cache_mb": after.bytes / 2**20,
    }

    publisher = SnapshotPublisher(recommender)
    publish_ms: list[float] = []
    cold_ms: list[float] = []
    end = steady_end + seconds * (1 - STEADY_SHARE)
    flips = 0
    sets = (env.params_alt, env.params)
    while flips < 2 or time.perf_counter() < end:
        batch = queries[(index + flips) % len(queries)]
        began = time.perf_counter()
        with rec.span("streaming.publisher.publish", f"swap-{flips}"):
            outcome = publisher.publish(sets[flips % 2])
        swapped = time.perf_counter()
        with rec.span("recommend.recommend_batch.cold", f"swap-{flips}"):
            answers = recommender.recommend_batch(batch, k=TOP_K)
        done = time.perf_counter()
        result.attempted += 1
        if not outcome.published or len(answers) != BATCH:
            result.fail(f"swap {flips}: {outcome.reason or 'short answer'}")
        publish_ms.append((swapped - began) * 1e3)
        cold_ms.append((done - swapped) * 1e3)
        result.freshness_ms.append((done - began) * 1e3)
        flips += 1
    result.detail["publish_ms"] = float(np.median(publish_ms))
    result.detail["cold_first_batch_ms"] = float(np.median(cold_ms))

    sample = queries[0][:VERIFY_SAMPLE]
    answers = recommender.recommend_batch(sample, k=TOP_K)
    for (user, interval), got in zip(sample, answers):
        result.attempted += 1
        want = recommender.recommend(user, interval, k=TOP_K, method="ta")
        if got.items != want.items or [s.hex() for s in got.scores] != [
            s.hex() for s in want.scores
        ]:
            result.fail(f"query ({user}, {interval}): batch answer != ta_topk")
    return result


# ----------------------------------------------------------------------
# service_closed
# ----------------------------------------------------------------------


def _closed_client(port, queries, warm_until, stop_at, rec, lane, samples, errors) -> None:
    """One closed-loop connection: the next request leaves when the last returns."""
    try:
        with ServiceClient("127.0.0.1", port, timeout=60) as client:
            index = 0
            while True:
                began = time.perf_counter()
                if began >= stop_at:
                    return
                query = queries[index % len(queries)]
                index += 1
                with rec.span("serving_service.request", f"c{lane}-{index}"):
                    try:
                        rows = client.recommend([query], k=TOP_K)["results"]
                        ok = rows[0] is not None and len(rows[0]["items"]) == TOP_K
                    except ServiceError:
                        ok = False
                if began >= warm_until:
                    samples.append((began - warm_until, (time.perf_counter() - began) * 1e3, ok))
    except OSError as exc:
        errors.append(f"connection {lane}: {type(exc).__name__}: {exc}")


def _publish_until_served(client, path: Path, query, rec, tag: str) -> tuple[float, float, bool]:
    """Publish ``path``; return (publish ms, ms until a response carries it, ok)."""
    began = time.perf_counter()
    with rec.span("serving_service.publish", tag):
        reply = client.publish(str(path))
    published = time.perf_counter()
    ok = bool(reply["published"])
    target = max(reply["generation"])
    with rec.span("serving_service.request.cold", tag):
        for _ in range(50):
            answer = client.recommend([query], k=TOP_K)
            if answer["generation"][0] >= target:
                break
        else:
            ok = False
    return (published - began) * 1e3, (time.perf_counter() - began) * 1e3, ok


def closed_loop(env: Env, seconds: float, rec) -> LoopResult:
    """Two closed-loop connections of single-query requests to ``tcam serve``.

    Closed, because a connection is strictly request/response in the
    service's ``_serve_connection``. After the steady phase the loop stops
    the load and alternates the two snapshots through the ``publish`` op,
    timing publish → first response of the new generation. Checks: no
    request fails or returns a null row, and a 16-query request equals
    in-process ``recommend_batch`` on the served snapshot bitwise.
    """
    service, flat = env.service, env.flat_queries
    result = LoopResult()
    lanes = 2
    with ServiceClient("127.0.0.1", service.port, timeout=60) as control:
        warm = min(WARM_SERVICE_S, seconds * 0.2)
        start = time.perf_counter()
        warm_until = start + warm
        stop_at = warm_until + whole_slices(seconds * STEADY_SHARE)
        before = control.status()
        samples: list[list[tuple[float, float, bool]]] = [[] for _ in range(lanes)]
        errors: list[str] = []
        threads = [
            threading.Thread(
                target=_closed_client,
                args=(service.port, flat[lane::lanes], warm_until, stop_at, rec, lane,
                      samples[lane], errors),
            )
            for lane in range(lanes)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = control.status()
        for error in errors:
            result.fail(error)
        done = [sample for lane in samples for sample in lane]
        result.attempted += len(done) + len(errors)
        bad = sum(1 for _, _, ok in done if not ok)
        if bad:
            result.failed += bad
            result.problems.append(f"{bad} requests failed or returned a null row")
        slices = by_slice(((at, ms) for at, ms, ok in done if ok), SLICE_S)
        result.latency_slices = list(slices.values())
        # Closed loop: each lane's requests fill its time, so a slice's
        # latencies add up to its length once per lane.
        result.rates = [
            lanes * len(group) / (sum(group) / 1e3) for group in result.latency_slices
        ]

        def total(status: dict, key: str) -> int:
            return sum(worker[key] for worker in status["workers"])

        batches = total(after, "batches") - total(before, "batches")
        result.detail = {
            "batch_fill": (total(after, "queries") - total(before, "queries")) / max(batches, 1),
            "refused": after["service"]["refused"],
            "sample_queries": flat[: 4 * BATCH],
            # Sampled before the swaps below: how much of a retired
            # generation the allocator has returned varies run to run.
            "rss_mb": service_rss_mb(service, after),
        }

        sample = flat[:VERIFY_SAMPLE]
        rows = control.recommend(sample, k=TOP_K)["results"]
        result.attempted += 1
        if not bitwise_equal(rows, reference_answers(env.served, sample)):
            result.fail("16-query request differs from in-process recommend_batch")

        publish_ms: list[float] = []
        end = stop_at + seconds * (1 - STEADY_SHARE)
        flips = 0
        targets = ((env.snapshot_alt, env.params_alt), (env.snapshot, env.params))
        while flips < 2 or time.perf_counter() < end:
            path, params = targets[flips % 2]
            took, fresh, ok = _publish_until_served(control, path, flat[flips], rec, f"swap-{flips}")
            result.attempted += 1
            if not ok:
                result.fail(f"swap {flips}: publish rejected or never served")
            env.served = params
            publish_ms.append(took)
            result.freshness_ms.append(fresh)
            flips += 1
        result.detail["publish_ms"] = float(np.median(publish_ms))
    return result


def service_rss_mb(service: ServeProcess, status: dict) -> dict[str, float]:
    """Front-end peak RSS and the workers' proportional set sizes, in MiB."""
    return {
        "front_end": service.front_end_peak_rss_bytes() / 2**20,
        "workers_pss": sum(worker["pss_bytes"] or 0 for worker in status["workers"]) / 2**20,
    }


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------


class _Response(NamedTuple):
    """One request of the pipeline loop's query stream (times in seconds)."""

    due: float
    sent: float
    arrived: float
    generation: int
    worker: int
    ok: bool


@dataclass
class _Chunk:
    """One ingest cycle of the pipeline loop (possibly several queued chunks)."""

    due: list[float]
    generation: int
    stages_ms: dict[str, float]
    waiting: int


def _ingest_thread(env, events, origin, period, logdir, rec, out, state) -> None:
    """Open loop: a chunk is due every ``period`` seconds; overruns queue."""
    try:
        with EventLog(logdir / "wal") as log, ServiceClient(
            "127.0.0.1", env.service.port, timeout=120
        ) as client:
            ingestor = StreamIngestor(
                log, env.served, logdir / "ckpt", batch_events=CHUNK_EVENTS, resume=False
            )
            state["ingestor"] = ingestor
            appended = 0
            previous: Path | None = None
            while appended < len(events):
                wait = origin + appended * period - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                due_now = min(len(events), int((time.perf_counter() - origin) / period) + 1)
                group = range(appended, max(due_now, appended + 1))
                marks = [time.perf_counter()]
                with rec.span("pipeline.chunk", f"chunk-{appended}"):
                    with rec.span("streaming.wal.append", f"chunk-{appended}"):
                        log.append([event for c in group for event in events[c]])
                    marks.append(time.perf_counter())
                    with rec.span("streaming.ingestor.run", f"chunk-{appended}"):
                        report = ingestor.run(max_batches=len(group))
                    marks.append(time.perf_counter())
                    with rec.span("core.serialize.save_params", f"chunk-{appended}"):
                        path = save_params(ingestor.params, logdir / f"folded-{appended}.npz")
                    marks.append(time.perf_counter())
                    with rec.span("serving_service.publish", f"chunk-{appended}"):
                        reply = client.publish(str(path))
                    marks.append(time.perf_counter())
                if not reply["published"] or report.applied != len(group) * CHUNK_EVENTS:
                    state["errors"].append(
                        f"chunk {appended}: published={reply['published']} "
                        f"applied={report.applied} skipped={report.skipped}"
                    )
                stages = dict(zip(("append", "fold", "save", "publish"), np.diff(marks) * 1e3))
                out.append(
                    _Chunk(
                        due=[origin + c * period for c in group],
                        generation=max(reply["generation"]),
                        stages_ms=stages,
                        waiting=len(group) - 1,
                    )
                )
                if previous is not None:
                    previous.unlink()
                previous, state["last_snapshot"] = path, path
                appended = group[-1] + 1
    except Exception as exc:  # noqa: BLE001 - reported by the main thread
        state["errors"].append(f"ingest thread: {type(exc).__name__}: {exc}")
    finally:
        state["final_generation"] = out[-1].generation if out else 0
        state["done"].set()


def _query_thread(env, queries, origin, rate, hard_stop, rec, out, state) -> None:
    """Open loop: one request is due every ``1/rate`` seconds on one connection.

    Each request is timed from its due time, so a stall delays — and is
    charged to — every request that came due behind it. The stream runs
    until a response carries the last published generation.
    """
    try:
        with ServiceClient("127.0.0.1", env.service.port, timeout=120) as client:
            index = 0
            while time.perf_counter() < hard_stop:
                due = origin + index / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                query = queries[index % len(queries)]
                sent = time.perf_counter()
                generation, worker, ok = -1, -1, False
                with rec.span("serving_service.request", f"q{index}"):
                    try:
                        reply = client.recommend([query], k=TOP_K)
                        generation, worker = reply["generation"][0], reply["worker"][0]
                        ok = reply["results"][0] is not None
                    except ServiceError:
                        pass
                out.append(_Response(due, sent, time.perf_counter(), generation, worker, ok))
                index += 1
                if state["done"].is_set() and generation >= state["final_generation"]:
                    return
            state["errors"].append("query thread: last generation never served")
    except OSError as exc:
        state["errors"].append(f"query thread: {type(exc).__name__}: {exc}")


def pipeline_loop(env: Env, seconds: float, rec) -> LoopResult:
    """Writes beside reads on one ``tcam serve``.

    Thread A, open loop: every ``chunk_period_s`` a chunk of 256 events is
    due; per chunk ``EventLog.append`` → ``StreamIngestor.run`` →
    ``save_params`` → ``publish`` op. Chunks that come due during an
    overrun are appended together. Thread B, open loop: single-query
    requests at ``request_rate`` on one connection. The rate is events
    folded per second of ingest busy time (one value per cycle), the
    latency is the query round trip from its due time (a slice is one
    chunk period), and freshness is chunk due →
    arrival of the first response whose generation is at least the one
    that chunk's publish returned. Checks: every publish lands, no event is skipped, no
    request fails, generations never go back on a worker, and after the
    last publish a 16-query request is single-generation and equals
    ``recommend_batch`` on the last saved snapshot bitwise.
    """
    sizes, service = env.sizes, env.service
    result = LoopResult()
    period, rate = sizes.chunk_period_s, sizes.request_rate
    chunks = max(2, int(seconds / period))
    events = make_events(env.served, sizes, env.seed, chunks)
    flat = env.flat_queries
    logdir = env.workdir / f"pipeline-{len(list(env.workdir.glob('pipeline-*')))}"
    logdir.mkdir()
    state: dict = {"done": threading.Event(), "errors": [], "final_generation": 0}
    cycles: list[_Chunk] = []
    responses: list[_Response] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(PIPELINE_SWITCH_S)
    try:
        origin = time.perf_counter() + 0.05
        hard_stop = origin + chunks * period + 60.0
        threads = [
            threading.Thread(
                target=_ingest_thread,
                args=(env, events, origin, period, logdir, rec, cycles, state),
            ),
            threading.Thread(
                target=_query_thread,
                args=(env, flat, origin, rate, hard_stop, rec, responses, state),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    span_s = chunks * period

    for error in state["errors"]:
        result.fail(error)
    if not cycles:
        raise RuntimeError(f"pipeline loop ingested nothing: {state['errors']}")
    result.attempted = len(responses) + chunks + 1
    bad = sum(1 for response in responses if not response.ok)
    if bad:
        result.failed += bad
        result.problems.append(f"{bad} requests failed or returned a null row")
    newest: dict[int, int] = {}
    for response in responses:
        if response.ok and response.generation < newest.get(response.worker, 0):
            result.fail(f"worker {response.worker} went back to generation {response.generation}")
        newest[response.worker] = max(newest.get(response.worker, 0), response.generation)

    arrivals = sorted((r.arrived, r.generation) for r in responses if r.ok)
    for cycle in cycles:
        seen = next((at for at, generation in arrivals if generation >= cycle.generation), None)
        if seen is None:
            result.fail(f"generation {cycle.generation} was never served")
            continue
        result.freshness_ms.extend((seen - due) * 1e3 for due in cycle.due)
    # Responses past the last chunk's period only wait for the final
    # generation; the open-loop statistics cover the scheduled span.
    scheduled = [r for r in responses if r.due < origin + span_s]
    # A slice is one chunk period, so each holds one publish and the
    # requests that queued behind it.
    result.latency_slices = list(
        by_slice(((r.due - origin, (r.arrived - r.due) * 1e3) for r in scheduled if r.ok), period)
        .values()
    )
    busy_s = [sum(cycle.stages_ms.values()) / 1e3 for cycle in cycles]
    result.rates = [len(cycle.due) * CHUNK_EVENTS / busy for cycle, busy in zip(cycles, busy_s)]
    over = sum(1 for r in scheduled if not r.ok or (r.arrived - r.due) * 1e3 > LIMIT_MS)
    ingestor = state["ingestor"]
    result.detail = {
        "stages_ms": {
            stage: float(np.median([cycle.stages_ms[stage] for cycle in cycles]))
            for stage in ("append", "fold", "save", "publish")
        },
        "busy_share": sum(busy_s) / span_s,
        "lag_chunks_max": max(cycle.waiting for cycle in cycles),
        "over_limit_share": over / max(len(scheduled), 1),
        "late_ms": [(r.sent - r.due) * 1e3 for r in scheduled],
        "boundaries": ingestor.boundaries,
        "refits": ingestor.refits,
        "skipped": ingestor.skipped,
        "ingestor": ingestor,
        "wal": logdir / "wal",
    }

    env.served = load_params(state["last_snapshot"])
    sample = flat[:VERIFY_SAMPLE]
    with ServiceClient("127.0.0.1", service.port, timeout=60) as client:
        reply = client.recommend(sample, k=TOP_K)
        result.detail["rss_mb"] = service_rss_mb(service, client.status())
    if len(set(reply["generation"])) != 1:
        result.fail(f"probe request mixed generations {sorted(set(reply['generation']))}")
    elif not bitwise_equal(reply["results"], reference_answers(env.served, sample)):
        result.fail("probe request differs from recommend_batch on the last snapshot")
    return result


LOOPS = {
    "fit": fit_loop,
    "serve_batch": batch_loop,
    "service_closed": closed_loop,
    "pipeline": pipeline_loop,
}
