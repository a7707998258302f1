"""The per-layer table of a traced run.

A traced run drives all four loops on the workload's scenario, then
:func:`probe_layers` times single calls into each layer's public
functions at the same shapes, and :func:`layer_metrics` assembles both into
the metrics ``BENCHMARK.json`` lists under ``per_layer``. The module names
of ``src/repro`` are the layer names. Every layer is timed from outside;
spans inside ``src/`` are a later change.
"""

from __future__ import annotations

import pickle
import time
from typing import Callable

import numpy as np
from inputs import BATCH, CHUNK_EVENTS, TOP_K
from loops import Env, LoopResult, percentile

from repro.core import TTCAM
from repro.core.em import scatter_sum
from repro.core.engine import BlockedEStep, EMEngineConfig, TTCAMKernel
from repro.core.serialize import LoadedModel, load_params, save_params
from repro.core.weighting import apply_item_weighting
from repro.recommend import BatchScorer, ServingCache, SortedTopicLists, TemporalRecommender
from repro.recommend.serving import SELECTION_MARGIN, exact_rescore
from repro.serving_service import decode_line, encode_line, serve_requests
from repro.streaming import EventLog

_STATE = ("theta", "phi", "theta_time", "phi_time", "lambda_u")
#: Units of the probed metrics that are not milliseconds.
_UNITS = {
    "core.serialize.snapshot_mb": "MiB",
    "recommend.quantize.int8_queries_per_s": "queries/s",
    "serving_service.protocol.decode_us": "us",
    "serving_service.protocol.encode_us": "us",
    "serving_service.protocol.request_bytes": "bytes",
    "serving_service.protocol.response_bytes": "bytes",
    "serving_service.pipe.pickle_us": "us",
    "serving_service.pipe.bytes": "bytes",
}


def _median_ms(rec, name: str, call: Callable[[], object], reps: int) -> float:
    """Median wall time of ``call`` over ``reps`` runs, each one a span."""
    times = []
    for rep in range(reps):
        start = time.perf_counter()
        with rec.span(name, f"probe-{rep}"):
            call()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def _replay_requests(env: Env, queries: list[tuple[int, int]], rec) -> dict[str, float]:
    """Walk recorded requests through the service's stages, in process.

    The same bytes a client sends are decoded, pickled as the front-end's
    ``batch`` pipe message, served by ``serve_requests``, pickled back as
    the worker's ``result``, encoded as the response line and decoded as
    the client would. Returns the mean cost of each stage per request.
    """
    recommender = TemporalRecommender(LoadedModel(env.served))
    recommender.recommend_batch(queries[:BATCH], k=TOP_K)
    spent = {"decode": 0.0, "encode": 0.0, "pickle": 0.0, "serve": 0.0}
    sizes = {"request": 0, "response": 0, "pipe": 0}

    def stage(name: str, span: str, trace: str, call):
        start = time.perf_counter()
        with rec.span(span, trace):
            value = call()
        spent[name] += time.perf_counter() - start
        return value

    for index, (user, interval) in enumerate(queries):
        trace = f"replay-{index}"
        with rec.span("serving_service.replay", trace):
            message = {"id": index + 1, "queries": [[user, interval]], "k": TOP_K}
            line = stage("encode", "serving_service.protocol.encode_line", trace,
                         lambda: encode_line(message))
            decoded = stage("decode", "serving_service.protocol.decode_line", trace,
                            lambda: decode_line(line))
            batch = {
                "type": "batch",
                "requests": [
                    {"queries": [(int(u), int(t)) for u, t in decoded["queries"]], "k": TOP_K}
                ],
            }
            sent = stage("pickle", "serving_service.pipe.pickle", trace,
                         lambda: pickle.dumps(batch))
            received = stage("pickle", "serving_service.pipe.pickle", trace,
                             lambda: pickle.loads(sent))
            responses = stage(
                "serve", "serving_service.worker.serve_requests", trace,
                lambda: serve_requests(recommender, received["requests"], "float64"),
            )
            result = {"type": "result", "worker": 0, "responses": responses}
            back = stage("pickle", "serving_service.pipe.pickle", trace,
                         lambda: pickle.dumps(result))
            answer = stage("pickle", "serving_service.pipe.pickle", trace,
                           lambda: pickle.loads(back))["responses"][0]
            reply = {
                "id": message["id"],
                "results": answer["results"],
                "generation": answer["generation"],
                "worker": [0],
                "degraded": answer["degraded"],
            }
            out_line = stage("encode", "serving_service.protocol.encode_line", trace,
                             lambda: encode_line(reply))
            stage("decode", "serving_service.protocol.decode_line", trace,
                  lambda: decode_line(out_line))
        sizes["request"] += len(line)
        sizes["response"] += len(out_line)
        sizes["pipe"] += len(sent) + len(back)
    count = len(queries)
    return {
        "serving_service.protocol.decode_us": spent["decode"] / count * 1e6,
        "serving_service.protocol.encode_us": spent["encode"] / count * 1e6,
        "serving_service.protocol.request_bytes": sizes["request"] / count,
        "serving_service.protocol.response_bytes": sizes["response"] / count,
        "serving_service.pipe.pickle_us": spent["pickle"] / count * 1e6,
        "serving_service.pipe.bytes": sizes["pipe"] / count,
        "serving_service.worker.serve_ms": spent["serve"] / count * 1e3,
    }


def probe_layers(
    env: Env, results: dict[str, LoopResult], rec
) -> dict[str, tuple[float, str]]:
    """Single calls into each layer at the scenario's shapes, as (value, unit)."""
    sizes, params, cuboid = env.sizes, env.params, env.cuboid
    out: dict[str, float] = {}

    out["data.cuboid_build_ms"] = _median_ms(rec, "data.cuboid.from_arrays", env.build_cuboid, 3)
    out["core.weighting_ms"] = _median_ms(
        rec, "core.weighting.apply_item_weighting", lambda: apply_item_weighting(cuboid), 3
    )
    estep = BlockedEStep(
        TTCAMKernel(
            cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores,
            cuboid.shape, sizes.k1, sizes.k2,
        ),
        EMEngineConfig(),
    )
    state = {name: getattr(params, name) for name in _STATE}
    estep.compute(state)
    out["core.engine.estep_ms"] = _median_ms(
        rec, "core.engine.BlockedEStep.compute", lambda: estep.compute(state), 3
    )
    block = np.ones((cuboid.nnz, sizes.k1))
    out["core.em.scatter_ms"] = _median_ms(
        rec, "core.em.scatter_sum", lambda: scatter_sum(cuboid.users, block, sizes.users), 3
    )
    fitted = TTCAM(sizes.k1, sizes.k2)
    fitted.params_ = params
    out["core.ttcam.loglik_ms"] = _median_ms(
        rec, "core.ttcam.log_likelihood", lambda: fitted.log_likelihood(cuboid), 3
    )

    path = env.workdir / "probe.npz"
    out["core.serialize.save_ms"] = _median_ms(
        rec, "core.serialize.save_params", lambda: save_params(params, path), 3
    )
    out["core.serialize.load_ms"] = _median_ms(
        rec, "core.serialize.load_params", lambda: load_params(path), 3
    )
    out["core.serialize.snapshot_mb"] = path.stat().st_size / 2**20

    users = [user for user, _ in env.queries[0]]
    scorer = BatchScorer(LoadedModel(params), ServingCache())
    scorer.serve_group(0, users, TOP_K, None, "float64")
    out["recommend.serving.group_ms"] = _median_ms(
        rec, "recommend.serving.serve_group",
        lambda: scorer.serve_group(0, users, TOP_K, None, "float64"), 5,
    )
    weights, matrix = params.query_space(users[0], 0)
    item_topic = np.ascontiguousarray(matrix.T)
    candidates = np.arange(min(sizes.items, TOP_K + SELECTION_MARGIN["float64"]))

    def rescore_group() -> None:
        for _ in users:
            exact_rescore(item_topic, weights, candidates, TOP_K)

    out["recommend.serving.rescore_ms"] = _median_ms(
        rec, "recommend.serving.exact_rescore", rescore_group, 5
    )

    recommender = TemporalRecommender(LoadedModel(params))
    single = env.queries[1][:1]
    recommender.recommend_batch(env.queries[1], k=TOP_K)
    out["recommend.serving.batch1_ms"] = _median_ms(
        rec, "recommend.recommend_batch.single",
        lambda: recommender.recommend_batch(single, k=TOP_K), 20,
    )
    out["recommend.threshold.build_ms"] = _median_ms(
        rec, "recommend.threshold.SortedTopicLists.build",
        lambda: SortedTopicLists.build(matrix), 1,
    )
    recommender.recommend(*single[0], k=TOP_K, method="ta")
    ta_queries = iter(env.queries[2])
    out["recommend.threshold.ta_query_ms"] = _median_ms(
        rec, "recommend.recommend.ta",
        lambda: recommender.recommend(*next(ta_queries), k=TOP_K, method="ta"), 10,
    )
    recommender.recommend_batch(env.queries[3], k=TOP_K, dtype="int8")
    int8_batches = iter(env.queries[4:9])
    out["recommend.quantize.int8_queries_per_s"] = BATCH / (
        _median_ms(
            rec, "recommend.recommend_batch.int8",
            lambda: recommender.recommend_batch(next(int8_batches), k=TOP_K, dtype="int8"), 5,
        )
        / 1e3
    )

    pipeline = results["pipeline"].detail
    with EventLog(pipeline["wal"]) as log:
        tail = max(0, log.next_offset - CHUNK_EVENTS)
        out["streaming.wal.read_ms"] = _median_ms(
            rec, "streaming.wal.read", lambda: log.read(tail, CHUNK_EVENTS), 5
        )
    out["streaming.ingestor.checkpoint_ms"] = _median_ms(
        rec, "streaming.ingestor.checkpoint", pipeline["ingestor"].checkpoint, 2
    )

    out.update(_replay_requests(env, results["service_closed"].detail["sample_queries"], rec))
    return {name: (value, _UNITS.get(name, "ms")) for name, value in out.items()}


def layer_metrics(
    env: Env,
    results: dict[str, LoopResult],
    probes: dict[str, tuple[float, str]],
    overhead: float,
) -> dict[str, tuple[float, str]]:
    """Every ``per_layer`` metric of ``BENCHMARK.json``, as (value, unit).

    The probed metrics pass through; the rest is read off the loops or
    derived from both.
    """
    sizes = env.sizes
    fit, batch = results["fit"], results["serve_batch"]
    closed, pipeline = results["service_closed"], results["pipeline"]
    work = fit.detail["nnz"] * sizes.fit_iters
    stages = pipeline.detail["stages_ms"]
    request_p50 = percentile(closed.latencies_ms, 50)

    def probed(name: str) -> float:
        return probes[name][0]

    attributed = (
        (probed("serving_service.protocol.decode_us")
         + probed("serving_service.protocol.encode_us")
         + probed("serving_service.pipe.pickle_us")) / 1e3
        + probed("serving_service.worker.serve_ms")
    )
    ms, count, share, mb = "ms", "count", "share", "MiB"
    table: dict[str, tuple[float, str]] = {
        **probes,
        # the loops' headline numbers, under the names claims are made in
        "fit_ratings_per_s": (work / fit.detail["ttcam_fit_s"], "ratings/s"),
        "fit_itcam_ratings_per_s": (work / fit.detail["itcam_fit_s"], "ratings/s"),
        "batch_queries_per_s": (batch.throughput, "queries/s"),
        "requests_per_s": (closed.throughput, "req/s"),
        "ingest_capacity_events_per_s": (pipeline.throughput, "events/s"),
        "event_to_servable_p50_ms": (percentile(pipeline.freshness_ms, 50), ms),
        # core
        "core.ttcam.iter_ms": (
            (fit.detail["ttcam_fit_s"] * 1e3 - probed("core.weighting_ms")) / sizes.fit_iters, ms),
        "core.itcam.iter_ms": (fit.detail["itcam_fit_s"] * 1e3 / sizes.fit_iters, ms),
        # recommend
        "recommend.serving.select_ms": (
            probed("recommend.serving.group_ms") - probed("recommend.serving.rescore_ms"), ms),
        "recommend.cache.hit_rate": (batch.detail["cache_hit_rate"], share),
        "recommend.cache.mb": (batch.detail["cache_mb"], mb),
        "recommend.cold_first_batch_ms": (batch.detail["cold_first_batch_ms"], ms),
        # streaming
        "streaming.wal.append_ms": (stages["append"], ms),
        "streaming.ingestor.fold_ms": (stages["fold"], ms),
        "streaming.ingestor.boundaries": (pipeline.detail["boundaries"], count),
        "streaming.ingestor.refits": (pipeline.detail["refits"], count),
        "streaming.ingestor.skipped": (pipeline.detail["skipped"], count),
        "streaming.lag_chunks_max": (pipeline.detail["lag_chunks_max"], count),
        "streaming.publisher.publish_ms": (batch.detail["publish_ms"], ms),
        # serving_service
        "serving_service.start_s": (env.service_start_s, "s"),
        "serving_service.publish_ms": (closed.detail["publish_ms"], ms),
        "serving_service.batch_fill": (closed.detail["batch_fill"], "queries/batch"),
        "serving_service.request_p50_ms": (request_p50, ms),
        "serving_service.unattributed_ms": (request_p50 - attributed, ms),
        "serving_service.request_p95_ms": (percentile(closed.latencies_ms, 95), ms),
        "serving_service.request_p99_ms": (percentile(closed.latencies_ms, 99), ms),
        "serving_service.refused": (closed.detail["refused"], count),
        "serving_service.worker_pss_mb": (closed.detail["rss_mb"]["workers_pss"], mb),
        # pipeline
        "pipeline.publish_ms": (stages["publish"], ms),
        "pipeline.save_ms": (stages["save"], ms),
        "pipeline.request_p50_ms": (percentile(pipeline.latencies_ms, 50), ms),
        "pipeline.request_p95_ms": (percentile(pipeline.latencies_ms, 95), ms),
        "pipeline.over_limit_share": (pipeline.detail["over_limit_share"], share),
        "pipeline.event_to_servable_p90_ms": (percentile(pipeline.freshness_ms, 90), ms),
        "pipeline.cycle_busy_share": (pipeline.detail["busy_share"], share),
        "pipeline.generator_late_p95_ms": (percentile(pipeline.detail["late_ms"], 95), ms),
        "trace_overhead_share": (overhead, share),
    }
    return {name: (float(value), unit) for name, (value, unit) in table.items()}
