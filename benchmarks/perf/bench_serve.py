"""Batch serving throughput microbenchmark → ``BENCH_serve.json``.

Measures end-to-end queries/sec of :meth:`TemporalRecommender.recommend_batch`
— the GEMM-based batch engine — against the per-query
Threshold-Algorithm path, over a skewed multi-interval query workload on
synthetic TTCAM parameters at the same catalogue scales as
``bench_topk.py``. Each entry also records
the serving-cache hit rate reached during the measured run, so the
trajectory tracks cache behaviour alongside raw throughput.

The script additionally *verifies* the serving contract while it
measures: float64 batch results must match the per-query engine exactly.
(The ``batch-f32`` and ``mmap-f16`` entries in the committed
``BENCH_serve.json`` are the record of why those two selection modes
were removed; they are no longer produced.)

A separate **million-item tier** measures the mmap + quantized serving
path (``repro.recommend.paramstore`` / ``repro.recommend.quantize``) at
V=1M: eager float64 against mmap-backed float64/int8 selection,
one spawned process per variant so each reports its own peak RSS. All
variants must return bitwise-identical top-k to eager float64, and
mmap+int8 must peak materially below eager loading. ``--smoke`` runs the
same tier at V=2000.

A **page-in tier** records the cold-start cost the serving service's
workers pay: a spawned process evicts the sidecar from the page cache
(``posix_fadvise(DONTNEED)``), maps a fresh ParamStore and reports
first-touch per-query p50/p99 latency against a warm second pass.

Run ``python benchmarks/perf/bench_serve.py`` (with ``src`` on
``PYTHONPATH``), or ``make bench-serve``.
"""

from __future__ import annotations

import multiprocessing
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perf_common import best_time, make_parser

from repro.analysis.benchjson import BenchEntry, append_entries, default_context
from repro.core.params import TTCAMParameters
from repro.core.serialize import LoadedModel, save_params
from repro.recommend import TemporalRecommender

#: (num_user_topics, num_items, k, num_queries) per scale.
SCALES = [
    (16, 5_000, 10, 256),
    (24, 20_000, 10, 256),
    (32, 50_000, 20, 256),
]
SMOKE_SCALES = [(6, 500, 5, 32)]

#: The mmap/quantized tier: each variant runs in its own spawned process
#: so ``ru_maxrss`` (a since-process-start high-water mark) isolates that
#: variant's resident footprint. Same tuple shape as ``SCALES``.
MILLION_SCALE = (16, 1_000_000, 10, 256)
SMOKE_MILLION_SCALE = (6, 2_000, 5, 48)
#: (variant name, selection dtype, open the snapshot saved with a sidecar).
MILLION_VARIANTS = (
    ("eager-f64", "float64", False),
    ("mmap-f64", "float64", True),
    ("mmap-int8", "int8", True),
)
#: Row block for the million tier: the (rows, V) score workspace is the
#: dominant allocation at V=1M, and it exists in every variant — keep it
#: small so the measured RSS contrast is parameters, not workspace.
MILLION_ROW_BLOCK = 32

NUM_USERS = 2_000
NUM_INTERVALS = 48
#: Per-query TA is orders of magnitude slower; time it on a subset.
SINGLE_QUERY_SAMPLE = 25
#: Queries cross-checked for exactness per scale.
VERIFY_SAMPLE = 16


def make_model(num_user_topics: int, num_items: int, seed: int = 0) -> LoadedModel:
    """Synthetic fitted TTCAM parameters at serving scale.

    Direct Dirichlet draws rather than an EM fit — the benchmark measures
    retrieval, and a 50k-item fit would dwarf it. Shapes and simplex
    structure match a genuinely fitted model.
    """
    rng = np.random.default_rng(seed)
    num_time_topics = max(2, num_user_topics // 2)
    params = TTCAMParameters(
        theta=rng.dirichlet(np.full(num_user_topics, 0.3), size=NUM_USERS),
        phi=rng.dirichlet(np.full(num_items, 0.05), size=num_user_topics),
        theta_time=rng.dirichlet(np.full(num_time_topics, 0.3), size=NUM_INTERVALS),
        phi_time=rng.dirichlet(np.full(num_items, 0.05), size=num_time_topics),
        lambda_u=rng.beta(3.0, 3.0, size=NUM_USERS),
    )
    return LoadedModel(params)


def make_queries(num_queries: int, seed: int = 0) -> list[tuple[int, int]]:
    """Skewed workload: uniform users, zipf-hot intervals."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, NUM_USERS, num_queries)
    intervals = np.minimum(rng.zipf(1.5, num_queries) - 1, NUM_INTERVALS - 1)
    return [(int(u), int(t)) for u, t in zip(users, intervals)]


def verify_contracts(model: LoadedModel, queries, k: int) -> None:
    """Assert the batch engine's exactness against the per-query engine."""
    rec = TemporalRecommender(model)
    sample = queries[:VERIFY_SAMPLE]
    batch64 = rec.recommend_batch(sample, k=k)
    for (user, interval), r64 in zip(sample, batch64):
        single = rec.recommend(user, interval, k=k, method="ta")
        assert r64.items == single.items and r64.scores == single.scores, (
            f"float64 batch diverged from ta_topk at query ({user}, {interval})"
        )


def _params_nbytes(model: LoadedModel) -> int:
    """Bytes held by the model's parameter arrays (the eager footprint)."""
    names = ("theta", "phi", "theta_time", "phi_time", "lambda_u")
    params = model.params_
    return int(
        sum(
            np.asarray(getattr(params, name)).nbytes
            for name in names
            if hasattr(params, name)
        )
    )


def _million_child(spec, snapshots, queries, k, repeats, queue) -> None:
    """One million-tier variant, measured in a fresh process.

    Opens ``snapshots[use_mmap]`` — the archive saved without a sidecar
    (loaded eagerly) or the one saved with ``mmap_layout=True`` (mapped)
    — serves the workload, and reports throughput, cache hit rate, this
    process's peak RSS, and a bitwise sample of results for the parent
    to cross-check against the eager float64 reference.
    """
    from repro.analysis.benchjson import peak_rss_bytes

    variant, dtype, use_mmap = spec
    model = LoadedModel.from_file(snapshots[use_mmap])
    assert (model.param_store is not None) is use_mmap
    rec = TemporalRecommender(model)
    def run():
        rec.recommend_batch(queries, k=k, dtype=dtype, row_block=MILLION_ROW_BLOCK)

    elapsed = best_time(run, repeats)
    sample = rec.recommend_batch(
        queries[:VERIFY_SAMPLE], k=k, dtype=dtype, row_block=MILLION_ROW_BLOCK
    )
    queue.put(
        {
            "variant": variant,
            "dtype": dtype,
            "mmap": use_mmap,
            "qps": len(queries) / elapsed,
            "cache_hit_rate": rec.serving_cache.stats().hit_rate,
            "peak_rss_bytes": peak_rss_bytes(),
            "params_nbytes": _params_nbytes(model),
            "sample": [
                [list(r.items), [float(s).hex() for s in r.scores]] for r in sample
            ],
        }
    )


def million_tier(args, smoke: bool, context: dict) -> list[BenchEntry]:
    """Run the mmap + quantized serving tier, one process per variant.

    Writes the same parameters twice to a temporary directory — one
    snapshot saved with its mmap sidecar, one without — then spawns each
    variant as its own process: ``ru_maxrss`` is a
    process-lifetime high-water mark, so sharing a process would let the
    first variant's footprint mask every later one. The parent asserts
    all variants return bitwise-identical top-k (items, scores, order)
    to the eager float64 reference, and — at full scale — that mmap+int8
    serving peaks materially below eager loading.
    """
    num_topics, num_items, k, num_queries = (
        SMOKE_MILLION_SCALE if smoke else MILLION_SCALE
    )
    queries = make_queries(num_queries, seed=43)
    workdir = Path(tempfile.mkdtemp(prefix="bench-serve-1m-"))
    entries = []
    try:
        model = make_model(num_topics, num_items, seed=17)
        snapshots = {
            layout: str(
                save_params(model.params_, workdir / f"layout-{layout}.npz", mmap_layout=layout)
            )
            for layout in (False, True)
        }
        del model
        spawn = multiprocessing.get_context("spawn")
        results = []
        for spec in MILLION_VARIANTS:
            queue = spawn.SimpleQueue()
            proc = spawn.Process(
                target=_million_child,
                args=(spec, snapshots, queries, k, args.repeats, queue),
            )
            proc.start()
            proc.join()
            if proc.exitcode != 0 or queue.empty():
                raise RuntimeError(
                    f"million-tier child {spec[0]} failed (exit {proc.exitcode})"
                )
            results.append(queue.get())
        reference = results[0]
        for payload in results[1:]:
            assert payload["sample"] == reference["sample"], (
                f"{payload['variant']} top-k diverged from eager float64"
            )
        for payload in results:
            name = (
                f"serve/v{num_items}-z{num_topics}-k{k}/{payload['variant']}"
            )
            entries.append(
                BenchEntry(
                    name=name,
                    value=round(payload["qps"], 2),
                    unit="queries/sec",
                    params={
                        "num_items": num_items,
                        "num_topics": num_topics,
                        "k": k,
                        "num_queries": num_queries,
                        "variant": payload["variant"],
                        "dtype": payload["dtype"],
                        "mmap": payload["mmap"],
                        "row_block": MILLION_ROW_BLOCK,
                        "cache_hit_rate": round(payload["cache_hit_rate"], 4),
                        "peak_rss_bytes": payload["peak_rss_bytes"],
                        "params_nbytes": payload["params_nbytes"],
                    },
                    context=context,
                )
            )
            rss = payload["peak_rss_bytes"]
            rss_mib = "n/a" if rss is None else f"{rss / 2**20:8.1f} MiB"
            print(
                f"{name:45s} {payload['qps']:10.1f} queries/sec  "
                f"(peak RSS {rss_mib}, cache hit-rate "
                f"{payload['cache_hit_rate']:.2f})"
            )
        if not smoke:
            eager_rss = results[0]["peak_rss_bytes"]
            int8_rss = results[-1]["peak_rss_bytes"]
            if eager_rss is not None and int8_rss is not None:
                ratio = int8_rss / eager_rss
                print(f"mmap-int8 peak RSS is {ratio:.2f}x eager-f64")
                assert ratio <= 0.7, (
                    f"mmap+int8 serving peaked at {ratio:.2f}x eager RSS "
                    "(need <= 0.7x: the mmap tier must materially cut memory)"
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return entries


def _pagein_child(snapshot, queries, k, queue) -> None:
    """Cold-vs-warm first-touch latency on a fresh mmap ParamStore.

    Runs in its own spawned process so no parent mapping keeps the store
    warm. Evicts the sidecar's page-cache residency with
    ``posix_fadvise(DONTNEED)`` (best-effort; clean pages drop without
    privileges), then times every query of a first pass over the freshly
    mapped store — the early queries pay the page-in cost — and a second
    warm pass over the same queries for contrast.
    """
    import os
    import time

    from repro.recommend.paramstore import store_dir

    sidecar = store_dir(snapshot)
    for path in sorted(sidecar.glob("*")):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        finally:
            os.close(fd)
    model = LoadedModel.from_file(snapshot)
    assert model.param_store is not None
    rec = TemporalRecommender(model)

    def timed_pass():
        samples = []
        for query in queries:
            start = time.perf_counter()
            rec.recommend_batch([query], k=k, row_block=MILLION_ROW_BLOCK)
            samples.append(time.perf_counter() - start)
        return samples

    cold = timed_pass()
    warm = timed_pass()
    queue.put({"cold": cold, "warm": warm})


def pagein_tier(args, smoke: bool, context: dict) -> list[BenchEntry]:
    """Record cold-snapshot page-in first-touch p50/p99 latency.

    The serving service spawns workers against snapshots nothing has
    mapped yet, so the first queries after a cold start pay mmap
    page-in; this tier pins that cost in the trajectory.
    """
    num_topics, num_items, k, num_queries = (
        SMOKE_MILLION_SCALE if smoke else MILLION_SCALE
    )
    queries = make_queries(num_queries, seed=53)
    workdir = Path(tempfile.mkdtemp(prefix="bench-serve-pagein-"))
    entries = []
    try:
        model = make_model(num_topics, num_items, seed=17)
        snapshot = save_params(model.params_, workdir / "model.npz", mmap_layout=True)
        del model
        spawn = multiprocessing.get_context("spawn")
        queue = spawn.SimpleQueue()
        proc = spawn.Process(
            target=_pagein_child, args=(str(snapshot), queries, k, queue)
        )
        proc.start()
        proc.join()
        if proc.exitcode != 0 or queue.empty():
            raise RuntimeError(f"page-in child failed (exit {proc.exitcode})")
        payload = queue.get()
        for phase in ("cold", "warm"):
            samples = np.sort(np.asarray(payload[phase]))
            p50 = float(np.percentile(samples, 50) * 1e3)
            p99 = float(np.percentile(samples, 99) * 1e3)
            name = f"serve/v{num_items}-z{num_topics}-k{k}/pagein-{phase}"
            entries.append(
                BenchEntry(
                    name=name,
                    value=round(p50, 4),
                    unit="ms",
                    params={
                        "num_items": num_items,
                        "num_topics": num_topics,
                        "k": k,
                        "num_queries": num_queries,
                        "phase": phase,
                        "p50_ms": round(p50, 4),
                        "p99_ms": round(p99, 4),
                        "max_ms": round(float(samples[-1]) * 1e3, 4),
                    },
                    context=context,
                )
            )
            print(
                f"{name:45s} p50 {p50:8.3f} ms  p99 {p99:8.3f} ms  "
                f"(max {samples[-1] * 1e3:.3f} ms)"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return entries


def main(argv=None) -> int:
    parser = make_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else SCALES
    context = default_context()
    entries = []
    rates: dict[tuple[int, str], float] = {}

    for num_topics, num_items, k, num_queries in scales:
        model = make_model(num_topics, num_items, seed=17)
        queries = make_queries(num_queries, seed=29)
        verify_contracts(model, queries, k)

        single_queries = queries[:SINGLE_QUERY_SAMPLE]
        variants = {
            "single-ta": (
                TemporalRecommender(model),
                lambda r: [r.recommend(u, t, k=k, method="ta") for u, t in single_queries],
                len(single_queries),
                "float64",
            ),
            "batch-f64": (
                TemporalRecommender(model),
                lambda r: r.recommend_batch(queries, k=k),
                num_queries,
                "float64",
            ),
        }
        for variant, (rec, run, served, dtype) in variants.items():
            rate = served / best_time(lambda: run(rec), args.repeats)
            rates[(num_items, variant)] = rate
            hit_rate = rec.serving_cache.stats().hit_rate
            name = f"serve/v{num_items}-z{num_topics}-k{k}/{variant}"
            entries.append(
                BenchEntry(
                    name=name,
                    value=round(rate, 2),
                    unit="queries/sec",
                    params={
                        "num_items": num_items,
                        "num_topics": num_topics,
                        "k": k,
                        "num_queries": served,
                        "variant": variant,
                        "dtype": dtype,
                        "cache_hit_rate": round(hit_rate, 4),
                    },
                    context=context,
                )
            )
            print(f"{name:45s} {rate:10.1f} queries/sec  (cache hit-rate {hit_rate:.2f})")

    entries.extend(million_tier(args, args.smoke, context))
    entries.extend(pagein_tier(args, args.smoke, context))

    if not args.smoke:
        largest = max(s[1] for s in scales)
        speedup = rates[(largest, "batch-f64")] / rates[(largest, "single-ta")]
        print(f"batch-f64 vs single-ta at V={largest}: {speedup:.1f}x")
        assert speedup >= 3.0, (
            f"batched serving is only {speedup:.1f}x single-query TA (need >= 3x)"
        )

    path = Path(args.output_dir) / "BENCH_serve.json"
    append_entries(path, entries)
    print(f"appended {len(entries)} entries to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
