"""Tests for the batch serving engine and the bounded serving caches.

The load-bearing contract: ``recommend_batch`` in float64 mode must be
*exactly* equal — items, scores, tie order — to the per-query TA path,
across mixed intervals, duplicate queries, ``k ≥ V`` and fully tied
rows. Property tests pin that; the rest covers LRU semantics, int8 ==
float64 at the bench scales, per-row degradation and the scratch
hoisting in the threshold engines.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ITCAMParameters, TTCAMParameters
from repro.core.serialize import LoadedModel
from repro.recommend import TemporalRecommender
from repro.recommend.ranking import QuerySpace
from repro.recommend.serving import (
    CacheStats,
    LRUCache,
    ServingCache,
    ServingConfig,
    check_serve_dtype,
    select_candidates,
    value_nbytes,
)
from repro.recommend.threshold import SortedTopicLists, batched_ta_topk, ta_topk
from repro.robustness.errors import ServingUnavailableError


def make_ttcam(rng, num_users=12, num_items=60, num_intervals=5, k1=3, k2=2):
    params = TTCAMParameters(
        theta=rng.dirichlet(np.full(k1, 0.4), size=num_users),
        phi=rng.dirichlet(np.full(num_items, 0.1), size=k1),
        theta_time=rng.dirichlet(np.full(k2, 0.4), size=num_intervals),
        phi_time=rng.dirichlet(np.full(num_items, 0.1), size=k2),
        lambda_u=rng.beta(3.0, 3.0, size=num_users),
    )
    return LoadedModel(params)


def make_itcam(rng, num_users=12, num_items=60, num_intervals=5, k1=3):
    params = ITCAMParameters(
        theta=rng.dirichlet(np.full(k1, 0.4), size=num_users),
        phi=rng.dirichlet(np.full(num_items, 0.1), size=k1),
        theta_time=rng.dirichlet(np.full(num_items, 0.1), size=num_intervals),
        lambda_u=rng.beta(3.0, 3.0, size=num_users),
    )
    return LoadedModel(params)


def assert_batch_matches_per_query(rec, queries, k, dtype="float64", exclude=None):
    """Assert exact equality with ``ta_topk`` and agreement with brute force.

    Versus the TA path the contract is bitwise: same items, same scores,
    same tie order. Brute force computes scores as one GEMV, which
    differs from the engines' per-item dot by ULPs (the reason the batch
    engine rescores instead of trusting its GEMM), so versus ``bf`` the
    assertion is the repo-wide one: same item sets, scores to 1e-12.
    """
    batch = rec.recommend_batch(queries, k=k, dtype=dtype, exclude=exclude)
    for (user, interval), result in zip(queries, batch):
        row_exclude = exclude.get(user) if isinstance(exclude, dict) else exclude
        ta = rec.recommend(user, interval, k=k, method="ta", exclude=row_exclude)
        assert result.items == ta.items, (user, interval)
        assert result.scores == ta.scores, (user, interval)
        bf = rec.recommend(user, interval, k=k, method="bf", exclude=row_exclude)
        assert set(result.items) == set(bf.items), (user, interval)
        np.testing.assert_allclose(result.scores, bf.scores, atol=1e-12)
    return batch


class TestBatchExactness:
    @given(
        seed=st.integers(0, 5_000),
        kind=st.sampled_from(["ttcam", "itcam"]),
        k=st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_per_query_exactly(self, seed, kind, k):
        rng = np.random.default_rng(seed)
        num_items = int(rng.integers(30, 90))
        num_intervals = 5
        maker = make_ttcam if kind == "ttcam" else make_itcam
        model = maker(rng, num_items=num_items, num_intervals=num_intervals)
        rec = TemporalRecommender(model)
        queries = [
            (int(rng.integers(0, 12)), int(rng.integers(0, num_intervals)))
            for _ in range(20)
        ]
        queries += [queries[0], queries[7]]  # duplicates, mixed intervals
        assert_batch_matches_per_query(rec, queries, k)

    @given(seed=st.integers(0, 2_000), kind=st.sampled_from(["ttcam", "itcam"]))
    @settings(max_examples=10, deadline=None)
    def test_k_at_least_catalogue(self, seed, kind):
        rng = np.random.default_rng(seed)
        maker = make_ttcam if kind == "ttcam" else make_itcam
        model = maker(rng, num_items=25)
        rec = TemporalRecommender(model)
        queries = [(0, 0), (3, 2), (3, 2)]
        for k in (25, 26, 100):
            assert_batch_matches_per_query(rec, queries, k)

    def test_fully_tied_rows_keep_item_id_order(self):
        rng = np.random.default_rng(0)
        num_items = 40
        # Uniform topic–item columns: every item scores identically, so
        # the tie-break (ascending item id) decides the entire ranking.
        params = TTCAMParameters(
            theta=rng.dirichlet(np.full(3, 0.4), size=6),
            phi=np.full((3, num_items), 1.0 / num_items),
            theta_time=rng.dirichlet(np.full(2, 0.4), size=4),
            phi_time=np.full((2, num_items), 1.0 / num_items),
            lambda_u=rng.beta(3.0, 3.0, size=6),
        )
        rec = TemporalRecommender(LoadedModel(params))
        queries = [(0, 0), (5, 3), (2, 1)]
        batch = assert_batch_matches_per_query(rec, queries, 10)
        for result in batch:
            assert result.items == list(range(10))

    def test_exclusions_global_and_per_user(self):
        rng = np.random.default_rng(7)
        rec = TemporalRecommender(make_ttcam(rng))
        queries = [(u, u % 5) for u in range(12)]
        assert_batch_matches_per_query(
            rec, queries, 5, exclude=np.array([0, 1, 2, 3])
        )
        per_user = {u: np.array([u, (u + 1) % 60, (u + 2) % 60]) for u in range(12)}
        rec2 = TemporalRecommender(make_ttcam(rng))
        assert_batch_matches_per_query(rec2, queries, 5, exclude=per_user)

    def test_rejects_bad_inputs(self):
        rec = TemporalRecommender(make_ttcam(np.random.default_rng(0)))
        with pytest.raises(ValueError):
            rec.recommend_batch([(0, 0)], k=0)
        with pytest.raises(ValueError):
            rec.recommend_batch([(0, 0)], k=5, dtype="int4")
        with pytest.raises(ValueError):
            check_serve_dtype("bfloat16")
        with pytest.raises(ValueError):
            TemporalRecommender(rec.model, serve_dtype="bfloat16")
        assert check_serve_dtype("float64") == "float64"
        assert check_serve_dtype("int8") == "int8"

    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    def test_rejects_removed_dtype(self, dtype):
        # Voted out by BENCH_serve.json; the error names the survivors.
        rec = TemporalRecommender(make_ttcam(np.random.default_rng(0)))
        for call in (
            lambda: check_serve_dtype(dtype),
            lambda: ServingConfig(select_dtype=dtype),
            lambda: TemporalRecommender(rec.model, serve_dtype=dtype),
            lambda: rec.recommend_batch([(0, 0)], k=5, dtype=dtype),
            lambda: rec._scorer().serve_group(0, [0], 5, None, dtype),
        ):
            with pytest.raises(ValueError, match=r"float64.*int8"):
                call()


def _fit_provider(name, cuboid, truth):
    """One fitted model per ``query_space`` provider in the repo."""
    from repro.baselines.sharedtopics import SharedTopicsTCAM
    from repro.core import ITCAM, TTCAM, GibbsTTCAM, PartitionedTTCAM, StochasticTTCAM
    from repro.extensions.background import BackgroundTTCAM
    from repro.extensions.drift import DriftTTCAM
    from repro.extensions.social import SocialTTCAM, build_homophilous_graph

    if name == "LoadedModel":
        return LoadedModel(TTCAM(3, 2, max_iter=4, seed=2).fit(cuboid).params_)
    if name == "SocialTTCAM":
        graph = build_homophilous_graph(truth.theta, avg_degree=4, seed=1)
        return SocialTTCAM(graph, 3, 2, max_iter=4, seed=2).fit(cuboid)
    makers = {
        "TTCAM": lambda: TTCAM(3, 2, max_iter=4, seed=2),
        "ITCAM": lambda: ITCAM(3, max_iter=4, seed=2),
        "PartitionedTTCAM": lambda: PartitionedTTCAM(
            3, 2, max_iter=4, seed=2, num_partitions=2, workers=1
        ),
        "StochasticTTCAM": lambda: StochasticTTCAM(3, 2, num_epochs=2, seed=2),
        "GibbsTTCAM": lambda: GibbsTTCAM(3, 2, num_samples=2, burn_in=1, seed=2),
        "BackgroundTTCAM": lambda: BackgroundTTCAM(3, 2, max_iter=4, seed=2),
        "DriftTTCAM": lambda: DriftTTCAM(2, 3, 2, max_iter=4, seed=2),
        "SharedTopicsTCAM": lambda: SharedTopicsTCAM(4, max_iter=4, seed=2),
    }
    return makers[name]().fit(cuboid)


#: The six models whose ``query_space`` is their parameter container's
#: (served through the split fast path), then the four that reshape it.
QUERY_SPACE_PROVIDERS = [
    "TTCAM",
    "ITCAM",
    "PartitionedTTCAM",
    "StochasticTTCAM",
    "GibbsTTCAM",
    "LoadedModel",
    "BackgroundTTCAM",
    "SocialTTCAM",
    "DriftTTCAM",
    "SharedTopicsTCAM",
]


class TestEveryQuerySpaceProvider:
    """``recommend_batch`` == TA == brute force for every model it can wrap.

    Pins the ``BackgroundTTCAM`` defect: a model that holds a
    ``TTCAMParameters`` but serves a reshaped query space (an extra
    background row) was scored through the split TTCAM path and failed
    every row with a matmul shape error.
    """

    @pytest.mark.parametrize("dtype", ["float64", "int8"])
    @pytest.mark.parametrize("name", QUERY_SPACE_PROVIDERS)
    def test_batch_equals_ta_and_brute_force(self, name, dtype, tiny_cuboid):
        cuboid, truth = tiny_cuboid
        rec = TemporalRecommender(_fit_provider(name, cuboid, truth))
        rng = np.random.default_rng(3)
        queries = [
            (int(rng.integers(0, cuboid.num_users)), int(rng.integers(0, cuboid.num_intervals)))
            for _ in range(12)
        ]
        queries += [queries[0], queries[5]]  # duplicates, mixed intervals
        assert_batch_matches_per_query(rec, queries, k=5, dtype=dtype)

    def test_split_path_only_for_container_query_spaces(self, tiny_cuboid):
        cuboid, truth = tiny_cuboid
        kinds = {
            name: TemporalRecommender(_fit_provider(name, cuboid, truth))._scorer()._params_kind()[0]
            for name in QUERY_SPACE_PROVIDERS
        }
        assert {name for name, kind in kinds.items() if kind != "generic"} == set(
            QUERY_SPACE_PROVIDERS[:6]
        )


class TestInt8AtBenchScales:
    #: The three bench scales: (num_topics, num_items, k).
    BENCH_SCALES = [(16, 5_000, 10), (24, 20_000, 10), (32, 50_000, 20)]

    @pytest.mark.parametrize("num_topics,num_items,k", BENCH_SCALES)
    def test_topk_matches_float64(self, num_topics, num_items, k):
        rng = np.random.default_rng(num_items)
        model = make_ttcam(
            rng, num_users=64, num_items=num_items, num_intervals=8, k1=num_topics,
            k2=max(2, num_topics // 2),
        )
        rec = TemporalRecommender(model)
        queries = [
            (int(rng.integers(0, 64)), int(rng.integers(0, 8))) for _ in range(24)
        ]
        f64 = rec.recommend_batch(queries, k=k)
        int8 = rec.recommend_batch(queries, k=k, dtype="int8")
        for r64, r8 in zip(f64, int8):
            # Proven-margin selection + float64 rescore: items, scores
            # and tie order are bit-identical, not merely set-equal.
            assert r8.items == r64.items
            assert r8.scores == r64.scores


class TestLRUCache:
    def test_eviction_order_and_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # promotes "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.get("b") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
        assert (stats.size, stats.capacity) == (2, 2)

    def test_peek_does_not_count_or_promote(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        cache.put("c", 3)  # "a" was NOT promoted by peek → evicted
        assert "a" not in cache
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_stats_aggregate(self):
        total = CacheStats(hits=3, misses=1) + CacheStats(hits=1, misses=3, capacity=4)
        assert total.hits == 4 and total.misses == 4 and total.capacity == 4
        assert total.hit_rate == 0.5
        assert CacheStats().hit_rate == 0.0


class TestServingCacheEviction:
    def test_evicted_interval_requeried_identically(self):
        rng = np.random.default_rng(11)
        model = make_itcam(rng, num_intervals=6)
        cache = ServingCache(
            index_capacity=2, matrix_capacity=2, context_capacity=2, mask_capacity=2
        )
        rec = TemporalRecommender(model, cache=cache)
        queries = [(u % 12, t) for t in range(6) for u in range(3)]
        first = rec.recommend_batch(queries, k=5)
        assert rec.serving_cache.stats().evictions > 0
        # Interval 0's entries were evicted by the later intervals;
        # re-querying must rebuild and give identical results.
        again = rec.recommend_batch(queries, k=5)
        for a, b in zip(first, again):
            assert a.items == b.items and a.scores == b.scores

    def test_index_region_bounded_for_itcam(self):
        rng = np.random.default_rng(3)
        model = make_itcam(rng, num_intervals=6)
        cache = ServingCache(index_capacity=2)
        rec = TemporalRecommender(model, cache=cache)
        for t in range(6):
            rec.recommend(0, t, k=3, method="ta")
        assert len(rec.serving_cache.indexes) == 2
        assert rec.serving_cache.indexes.evictions == 4


class _ArangeFallback:
    """Fallback stub scoring item v as V - v (so item 0 wins)."""

    name = "arange-fallback"

    def __init__(self, num_items):
        self.num_items = num_items

    def score_items(self, user, interval):
        """Dense descending scores."""
        return np.arange(self.num_items, 0, -1, dtype=np.float64)


class TestPerRowDegradation:
    def test_out_of_range_rows_fall_back_alone(self):
        rng = np.random.default_rng(5)
        model = make_ttcam(rng)
        fallback = _ArangeFallback(60)
        rec = TemporalRecommender(model, fallbacks=[fallback])
        queries = [(0, 0), (999, 0), (3, 2), (0, 999)]
        results, statuses = rec.recommend_batch_with_status(queries, k=4)

        assert not statuses[0].degraded and not statuses[2].degraded
        assert statuses[0].served_by == model.name
        for i in (1, 3):
            assert statuses[i].degraded
            assert statuses[i].served_by == "arange-fallback"
            assert statuses[i].attempted == (model.name,)
            assert "unknown" in statuses[i].reason
            assert results[i].items == [0, 1, 2, 3]
        # Healthy rows are exactly the per-query primary results.
        single = rec.recommend(0, 0, k=4)
        assert results[0].items == single.items and results[0].scores == single.scores
        # Every status carries the same end-of-batch cache snapshot.
        assert all(s.cache == statuses[0].cache for s in statuses)
        assert statuses[0].cache.misses > 0

    def test_unavailable_primary_degrades_every_row(self):
        rec = TemporalRecommender(
            None,
            fallbacks=[_ArangeFallback(30)],
            unavailable_reason="snapshot unusable",
        )
        results, statuses = rec.recommend_batch_with_status([(0, 0), (1, 1)], k=3)
        assert all(s.degraded for s in statuses)
        assert all(s.reason == "snapshot unusable" for s in statuses)
        assert all(r.items == [0, 1, 2] for r in results)

    def test_unservable_row_raises(self):
        rng = np.random.default_rng(5)
        rec = TemporalRecommender(make_ttcam(rng))
        with pytest.raises(ServingUnavailableError):
            rec.recommend_batch([(0, 0), (999, 0)], k=3)


class TestScratchReuse:
    def test_repeated_queries_are_isolated(self):
        rng = np.random.default_rng(2)
        matrix = rng.dirichlet(np.full(50, 0.2), size=4)
        lists = SortedTopicLists.build(matrix)
        query = QuerySpace(weights=rng.dirichlet(np.full(4, 0.4)), item_matrix=matrix)

        base = ta_topk(query, lists, 6)
        excluded = ta_topk(query, lists, 6, exclude=np.array(base.items))
        assert not set(base.items) & set(excluded.items)
        # A third call must not inherit the second call's exclusions.
        again = ta_topk(query, lists, 6)
        assert again.items == base.items and again.scores == base.scores
        # Interleaving engines on the same lists stays correct too.
        batched = batched_ta_topk(query, lists, 6)
        assert batched.items == base.items
        assert ta_topk(query, lists, 6).items == base.items

    def test_scratch_allocated_once(self):
        rng = np.random.default_rng(4)
        matrix = rng.dirichlet(np.full(30, 0.2), size=3)
        lists = SortedTopicLists.build(matrix)
        query = QuerySpace(weights=rng.dirichlet(np.full(3, 0.4)), item_matrix=matrix)
        ta_topk(query, lists, 3)
        scratch = lists.scratch()
        batched_ta_topk(query, lists, 3)
        assert lists.scratch() is scratch


class TestSelectCandidates:
    def test_boundary_ties_all_included(self):
        scores = np.array([[1.0, 0.5, 0.5, 0.5, 0.2]])
        _, mask = select_candidates(scores, 2)
        # The 2nd-largest value (0.5) is tied three ways: all included.
        assert mask[0].tolist() == [True, True, True, True, False]

    def test_count_at_least_items_takes_all(self):
        scores = np.array([[3.0, 1.0], [2.0, 5.0]])
        _, mask = select_candidates(scores, 7)
        assert mask.all()


class TestConcurrentServing:
    def test_threaded_recommenders_sharing_cache_match_serial(self):
        # The documented threading model: one recommender (and therefore
        # one BatchScorer + workspace) per thread, sharing only the
        # locked ServingCache. Threaded results must equal the serial
        # ones exactly, and the shared cache must stay consistent.
        rng = np.random.default_rng(11)
        model = make_ttcam(rng)
        query_sets = [
            [(u, u % 5) for u in range(12)],
            [((u * 5) % 12, (u + 2) % 5) for u in range(12)],
            [(3, 1), (3, 1), (7, 4), (0, 0)],
        ]
        serial = TemporalRecommender(model)
        expected = [serial.recommend_batch(queries, k=5) for queries in query_sets]

        shared = ServingCache()
        recommenders = [
            TemporalRecommender(model, cache=shared) for _ in query_sets
        ]
        outcomes = [None] * len(query_sets)

        def worker(slot):
            batches = [
                recommenders[slot].recommend_batch(query_sets[slot], k=5)
                for _ in range(4)
            ]
            outcomes[slot] = batches

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(len(query_sets))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for slot, batches in enumerate(outcomes):
            assert batches is not None
            for batch in batches:
                for result, reference in zip(batch, expected[slot]):
                    assert result.items == reference.items
                    assert result.scores == reference.scores


class TestWallClockCeiling:
    def test_tiny_batch_stays_fast(self):
        # Generous tier-1 regression guard: a 128-query batch on a tiny
        # model takes ~10ms; a gross serving slowdown fails loudly here.
        rng = np.random.default_rng(9)
        model = make_ttcam(rng, num_users=50, num_items=200, num_intervals=6, k1=8)
        rec = TemporalRecommender(model)
        queries = [
            (int(rng.integers(0, 50)), int(rng.integers(0, 6))) for _ in range(128)
        ]
        rec.recommend_batch(queries, k=10)  # warm caches and workspaces
        start = time.perf_counter()
        rec.recommend_batch(queries, k=10)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"batch serving took {elapsed:.2f}s on a tiny model"


class TestLRUCacheByteBudget:
    def test_byte_eviction_order_and_counters(self):
        cache = LRUCache(capacity=10, max_bytes=100)
        cache.put("a", np.zeros(5))  # 40 bytes
        cache.put("b", np.zeros(5))  # 80 bytes total
        assert cache.bytes == 80
        cache.put("c", np.zeros(5))  # 120 → evict LRU "a"
        assert cache.peek("a") is None
        assert cache.peek("b") is not None
        stats = cache.stats()
        assert stats.bytes == 80
        assert stats.max_bytes == 100
        assert stats.evictions == 1
        assert stats.evicted_bytes == 40

    def test_replacement_reaccounts_bytes(self):
        cache = LRUCache(capacity=4, max_bytes=1000)
        cache.put("k", np.zeros(10))
        cache.put("k", np.zeros(5))
        assert cache.bytes == 40
        cache.discard("k")
        assert cache.bytes == 0

    def test_oversize_value_never_worth_the_cache(self):
        cache = LRUCache(capacity=4, max_bytes=64)
        cache.put("small", np.zeros(4))  # 32 bytes, fits
        cache.put("big", np.zeros(100))  # 800 bytes, over the whole budget
        assert cache.peek("big") is None
        stats = cache.stats()
        assert stats.bytes <= 64
        assert stats.evicted_bytes >= 800

    def test_clear_resets_bytes(self):
        cache = LRUCache(capacity=4, max_bytes=1000)
        cache.put("a", np.zeros(10))
        cache.clear()
        assert cache.bytes == 0
        assert len(cache) == 0

    def test_default_stays_entry_count_only(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(1_000))
        cache.put("b", np.zeros(1_000))
        assert len(cache) == 2  # far over any plausible byte budget
        assert cache.stats().max_bytes == 0
        cache.put("c", np.zeros(1_000))
        assert len(cache) == 2  # the entry bound still evicts

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="max_bytes"):
            LRUCache(capacity=2, max_bytes=0)

    def test_value_nbytes_accounting(self):
        assert value_nbytes(np.zeros(8)) == 64
        assert value_nbytes("not an array") == 0

    def test_serving_cache_budgets_bound_resident_arrays(self):
        cache = ServingCache(context_capacity=64, context_max_bytes=200)
        for interval in range(16):
            cache.contexts.put(("ctx", interval), np.zeros(5))
        assert cache.contexts.bytes <= 200
        assert cache.stats().evicted_bytes > 0


class TestServingConfig:
    def test_build_cache_splits_budget(self):
        cache = ServingConfig(cache_max_bytes=8_000).build_cache()
        assert cache.indexes.max_bytes == 3_000
        assert cache.matrices.max_bytes == 3_000
        assert cache.contexts.max_bytes == 2_000
        assert ServingConfig().build_cache().matrices.max_bytes is None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="dtype"):
            ServingConfig(select_dtype="int4")
        with pytest.raises(ValueError, match="cache_max_bytes"):
            ServingConfig(cache_max_bytes=0)
        with pytest.raises(ValueError, match="row_block"):
            ServingConfig(row_block=0)

    def test_recommender_honours_config(self):
        rng = np.random.default_rng(13)
        model = make_ttcam(rng)
        config = ServingConfig(select_dtype="int8", cache_max_bytes=1 << 20)
        rec = TemporalRecommender(model, config=config)
        reference = TemporalRecommender(model)
        queries = [(u, u % 5) for u in range(12)]
        batch = rec.recommend_batch(queries, k=5)  # int8 via config default
        expected = reference.recommend_batch(queries, k=5)
        for got, want in zip(batch, expected):
            assert got.items == want.items
            assert got.scores == want.scores
        assert rec.serving_cache.contexts.max_bytes is not None
