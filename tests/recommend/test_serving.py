"""Tests for the batch serving engine and the bounded serving caches.

The load-bearing contract: ``recommend_batch`` must be *exactly* equal
— items, scores, tie order — to the per-query TA path, across mixed
intervals, duplicate queries, ``k ≥ V`` and fully tied rows. Property
tests pin that; the rest covers LRU semantics, per-row degradation and
the scratch hoisting in the threshold engines.
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
    BlockIndex,
    CacheStats,
    LRUCache,
    ServingCache,
    block_bounds,
    check_dtype,
    select_blocks,
    value_nbytes,
)
from repro.recommend.threshold import SortedTopicLists, batched_ta_topk, ta_topk
from repro.robustness.errors import ServingUnavailableError
from repro.serving_service import serve_requests


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


def assert_batch_matches_per_query(rec, queries, k, exclude=None):
    """Assert exact equality with ``ta_topk`` and agreement with brute force.

    Versus the TA path the contract is bitwise: same items, same scores,
    same tie order. Brute force computes scores as one GEMV, which
    differs from the engines' per-item dot by ULPs (the reason the batch
    engine scores with that dot instead of a GEMM), so versus ``bf`` the
    assertion is the repo-wide one: same item sets, scores to 1e-12.
    """
    batch = rec.recommend_batch(queries, k=k, exclude=exclude)
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

    @pytest.mark.parametrize("kind", ["ttcam", "itcam"])
    def test_a_changed_exclusion_list_is_honoured_on_the_next_call(self, kind):
        # Masks are built from each call's own ids: a user's second call
        # with another list excludes exactly that list, not the first.
        rng = np.random.default_rng(41)
        rec = TemporalRecommender((make_ttcam if kind == "ttcam" else make_itcam)(rng))
        queries = [(1, 2), (1, 3), (4, 2)]
        first = rec.recommend(1, 2, k=5, method="ta").items
        for exclude in ({1: first[:1]}, {1: first[1:2]}, {4: first[:2]}, {}):
            for row, (user, interval) in zip(
                rec.recommend_batch(queries, k=5, exclude=exclude), queries
            ):
                want = rec.recommend(user, interval, k=5, method="ta", exclude=exclude.get(user))
                assert row.items == want.items, (exclude, user, interval)
                assert [s.hex() for s in row.scores] == [s.hex() for s in want.scores]

    def test_rejects_bad_inputs(self):
        rec = TemporalRecommender(make_ttcam(np.random.default_rng(0)))
        with pytest.raises(ValueError):
            rec.recommend_batch([(0, 0)], k=0)
        with pytest.raises(ValueError):
            rec.recommend_batch([(0, 0)], k=5, dtype="int4")
        with pytest.raises(ValueError):
            check_dtype("bfloat16")
        assert check_dtype("float64") == "float64"
        assert check_dtype("int8") == "int8"

    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    def test_rejects_removed_dtype(self, dtype):
        # Voted out by BENCH_serve.json; the error names the survivors.
        rec = TemporalRecommender(make_ttcam(np.random.default_rng(0)))
        for call in (
            lambda: check_dtype(dtype),
            lambda: rec.recommend_batch([(0, 0)], k=5, dtype=dtype),
            lambda: rec._scorer().serve_group(0, [0], 5, None, dtype),
            lambda: serve_requests(rec, [], dtype),
        ):
            with pytest.raises(ValueError, match=r"float64.*int8"):
                call()

    def test_legacy_int8_name_serves_float64(self):
        # "int8" names the one float64 path on the three entry points that
        # still take a dtype; int8 selection always returned float64's bits.
        rec = TemporalRecommender(make_ttcam(np.random.default_rng(5)))
        queries = [(u, u % 5) for u in range(12)]
        want = _rows(rec.recommend_batch(queries, k=5))
        assert _rows(rec.recommend_batch(queries, k=5, dtype="int8")) == want
        group = rec._scorer().serve_group(2, [0, 3, 7], 5, None, "int8")
        assert _rows(group) == _rows(rec.recommend_batch([(0, 2), (3, 2), (7, 2)], k=5))
        requests = [{"k": 5, "queries": [list(q) for q in queries]}]
        assert serve_requests(rec, requests, "int8") == serve_requests(rec, requests)


def _fit_provider(name, cuboid, truth):
    """One fitted model per ``query_space`` provider in the repo."""
    from repro.baselines.sharedtopics import SharedTopicsTCAM
    from repro.core import ITCAM, TTCAM, PartitionedTTCAM
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
            3, 2, max_iter=4, seed=2, num_partitions=2
        ),
        "BackgroundTTCAM": lambda: BackgroundTTCAM(3, 2, max_iter=4, seed=2),
        "DriftTTCAM": lambda: DriftTTCAM(2, 3, 2, max_iter=4, seed=2),
        "SharedTopicsTCAM": lambda: SharedTopicsTCAM(4, max_iter=4, seed=2),
    }
    return makers[name]().fit(cuboid)


#: The four models whose ``query_space`` is their parameter container's
#: (served through the split fast path), then the four that reshape it.
QUERY_SPACE_PROVIDERS = [
    "TTCAM",
    "ITCAM",
    "PartitionedTTCAM",
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

    @pytest.mark.parametrize("name", QUERY_SPACE_PROVIDERS)
    def test_batch_equals_ta_and_brute_force(self, name, tiny_cuboid):
        cuboid, truth = tiny_cuboid
        rec = TemporalRecommender(_fit_provider(name, cuboid, truth))
        rng = np.random.default_rng(3)
        queries = [
            (int(rng.integers(0, cuboid.num_users)), int(rng.integers(0, cuboid.num_intervals)))
            for _ in range(12)
        ]
        queries += [queries[0], queries[5]]  # duplicates, mixed intervals
        assert_batch_matches_per_query(rec, queries, k=5)

    def test_split_path_only_for_container_query_spaces(self, tiny_cuboid):
        cuboid, truth = tiny_cuboid
        split = {
            name
            for name in QUERY_SPACE_PROVIDERS
            if TemporalRecommender(_fit_provider(name, cuboid, truth))._scorer()._params()
            is not None
        }
        assert split == set(QUERY_SPACE_PROVIDERS[:4])


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
        cache = ServingCache(index_capacity=2, matrix_capacity=2, context_capacity=2)
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


class _Flaky:
    """A ``query_space`` provider whose primary raises for one interval."""

    def __init__(self, inner, bad_interval):
        self.inner = inner
        self.params_ = inner.params_
        self.name = f"flaky-{inner.name}"
        self.bad_interval = bad_interval

    def query_space(self, user, interval):
        """The wrapped model's query space, or a serve-time failure."""
        if interval == self.bad_interval:
            raise RuntimeError("boom")
        return self.inner.query_space(user, interval)

    def matrix_cache_key(self, interval):
        """Delegates, so TA's index is cached like the wrapped model's."""
        return self.inner.matrix_cache_key(interval)


_ONE_PATH_KINDS = ["ttcam", "itcam", "background"]


def _one_path_model(kind, seed, tiny_cuboid):
    """TTCAM, ITCAM (split fast paths) or BackgroundTTCAM (generic path)."""
    if kind == "background":
        from repro.extensions.background import BackgroundTTCAM

        return BackgroundTTCAM(3, 2, max_iter=3, seed=seed % 3).fit(tiny_cuboid[0])
    maker = make_ttcam if kind == "ttcam" else make_itcam
    return maker(np.random.default_rng(seed))


def _status_key(status):
    return (status.degraded, status.served_by, status.reason, status.attempted)


class TestOneQueryPath:
    """``recommend`` is a batch of one; TA and BF are references inside it."""

    @given(seed=st.integers(0, 5_000), kind=st.sampled_from(_ONE_PATH_KINDS))
    @settings(max_examples=20, deadline=None)
    def test_four_spellings_agree_on_answer_and_status(self, tiny_cuboid, seed, kind):
        model = _one_path_model(kind, seed, tiny_cuboid)
        num_users = model.params_.num_users
        num_intervals = model.params_.num_intervals
        num_items = model.params_.num_items
        rng = np.random.default_rng(seed)
        bad_interval = int(rng.integers(0, num_intervals))
        fallback = _ArangeFallback(num_items)
        healthy = TemporalRecommender(model, fallbacks=[fallback])
        flaky = TemporalRecommender(_Flaky(model, bad_interval), fallbacks=[fallback])
        cases = [  # (recommender, user, interval): in range, out of range, raises
            (healthy, int(rng.integers(0, num_users)), int(rng.integers(0, num_intervals))),
            (healthy, num_users + 3, 0),
            (healthy, 0, num_intervals + 1),
            (flaky, int(rng.integers(0, num_users)), bad_interval),
        ]
        for rec, user, interval in cases:
            for k in (1, 5):
                for exclude in (None, rng.choice(num_items, size=4, replace=False)):
                    answers = {
                        "single": rec.recommend_with_status(user, interval, k=k, exclude=exclude),
                        "ta": rec.recommend_with_status(
                            user, interval, k=k, exclude=exclude, method="ta"
                        ),
                        "bf": rec.recommend_with_status(
                            user, interval, k=k, exclude=exclude, method="bf"
                        ),
                    }
                    rows, statuses = rec.recommend_batch_with_status(
                        [(user, interval)], k=k, exclude=exclude
                    )
                    answers["batch"] = (rows[0], statuses[0])
                    want, want_status = answers["ta"]
                    for name, (got, status) in answers.items():
                        assert got.items == want.items, (name, user, interval)
                        if name == "bf" and not status.degraded:
                            # bruteforce_topk scores by one GEMV — ULPs away
                            # from the per-item dot TA and the rescore share.
                            np.testing.assert_allclose(got.scores, want.scores, atol=1e-12)
                        else:
                            assert [x.hex() for x in got.scores] == [
                                x.hex() for x in want.scores
                            ], (name, user, interval)
                        assert _status_key(status) == _status_key(want_status), name
                    if exclude is not None:
                        assert not set(want.items) & set(exclude.tolist())
        assert _status_key(answers["ta"][1]) == (
            True, "arange-fallback", "primary model failed: boom", (flaky.model.name,)
        )

    @pytest.mark.parametrize("kind", _ONE_PATH_KINDS)
    def test_default_recommend_builds_no_ta_index(self, kind, tiny_cuboid):
        rec = TemporalRecommender(_one_path_model(kind, 1, tiny_cuboid))
        rec.recommend(0, 0, k=5)
        rec.recommend_batch([(1, 1), (2, 0)], k=5)
        assert len(rec.serving_cache.indexes) == 0
        # Only the explicit reference engine builds (and then caches) one.
        rec.recommend(0, 0, k=5, method="bf")
        assert len(rec.serving_cache.indexes) == 0
        rec.recommend(0, 0, k=5, method="ta")
        built = rec.serving_cache.indexes.peek(rec.model.matrix_cache_key(0))
        assert built is not None
        rec.recommend(1, 0, k=5, method="ta")
        assert rec.serving_cache.indexes.peek(rec.model.matrix_cache_key(0)) is built


class TestCallerErrors:
    """Bad caller input is a ``ValueError``, never a degraded answer."""

    BAD_EXCLUDES = [
        np.array([60]),  # == V
        np.array([3, 999]),
        np.array([-1]),  # would wrap around to item V-1
        [5, -2],
        {0: np.array([999])},
        {0: [-1], 1: [2]},
    ]

    @pytest.mark.parametrize("with_fallback", [False, True])
    @pytest.mark.parametrize("exclude", BAD_EXCLUDES)
    def test_out_of_range_exclude_ids(self, exclude, with_fallback):
        model = make_ttcam(np.random.default_rng(0))  # V = 60
        fallbacks = [_ArangeFallback(60)] if with_fallback else []
        rec = TemporalRecommender(model, fallbacks=fallbacks)
        with pytest.raises(ValueError, match=r"exclude ids must be integers in \[0, 60\)"):
            rec.recommend_batch([(0, 0), (1, 1)], k=3, exclude=exclude)
        if not isinstance(exclude, dict):
            for method in (None, "ta", "bf"):
                with pytest.raises(ValueError, match="exclude ids"):
                    rec.recommend(0, 0, k=3, exclude=exclude, method=method)
        assert rec.last_status is None  # nothing was served, degraded or not

    def test_exclude_of_users_outside_the_batch_is_not_inspected(self):
        rec = TemporalRecommender(make_ttcam(np.random.default_rng(0)))
        rows = rec.recommend_batch([(0, 0)], k=3, exclude={0: [1, 59], 7: [999]})
        assert not {1, 59} & set(rows[0].items)
        assert rec.recommend_batch([(0, 0)], k=3, exclude=[]) is not None

    def test_negative_exclude_id_refused_without_fitted_dimensions(self):
        # A fallback-only recommender knows no catalogue size; the sign
        # check still applies.
        rec = TemporalRecommender(None, fallbacks=[_ArangeFallback(30)])
        with pytest.raises(ValueError, match="exclude ids"):
            rec.recommend(0, 0, k=3, exclude=np.array([-1]))

    @pytest.mark.parametrize(
        "queries",
        [[(0.7, 0)], [(0, 1.5)], [(0, 0), (float("nan"), 0)], [("0", 0)], np.array([[0.5, 1.0]])],
    )
    def test_non_integral_query_ids(self, queries):
        rec = TemporalRecommender(
            make_ttcam(np.random.default_rng(0)), fallbacks=[_ArangeFallback(60)]
        )
        with pytest.raises(ValueError, match="query ids must be integers"):
            rec.recommend_batch(queries, k=3)

    def test_integral_valued_ids_of_any_numeric_type_are_accepted(self):
        rec = TemporalRecommender(make_ttcam(np.random.default_rng(0)))
        want = rec.recommend_batch([(3, 2)], k=3)[0]
        for queries in ([(3.0, 2.0)], np.array([[3, 2]]), [(np.int32(3), np.int64(2))]):
            assert rec.recommend_batch(queries, k=3)[0].items == want.items

    def test_nonpositive_k_is_the_same_error_on_every_spelling(self):
        rec = TemporalRecommender(
            make_ttcam(np.random.default_rng(0)), fallbacks=[_ArangeFallback(60)]
        )
        for call in (
            lambda: rec.recommend(0, 0, k=0),
            lambda: rec.recommend(0, 0, k=0, method="ta"),
            lambda: rec.recommend_with_status(0, 0, k=-1),
            lambda: rec.recommend_batch([(0, 0)], k=0),
        ):
            with pytest.raises(ValueError, match="k must be positive"):
                call()

    @pytest.mark.parametrize("row_block", [0, -4])
    def test_nonpositive_row_block_is_a_caller_error_not_a_degraded_answer(self, row_block):
        # With a fallback chain a failure inside the primary model is
        # served degraded; a bad row_block is the caller's and must raise.
        rec = TemporalRecommender(
            make_ttcam(np.random.default_rng(0)), fallbacks=[_ArangeFallback(60)]
        )
        for call in (
            lambda: rec.recommend_batch_with_status([(0, 0)], k=3, row_block=row_block),
            lambda: rec.recommend_batch([(0, 0), (1, 1)], k=3, row_block=row_block),
        ):
            with pytest.raises(ValueError, match="row_block must be positive"):
                call()


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


def select_mask(scores, count):
    """The block-max selector's candidate mask over a ``(rows, V)`` score table.

    The table is served as a ``(rows, V)`` topic–item matrix under identity
    query weights, so row ``r``'s selection score of item ``v`` is
    ``scores[r, v]`` exactly.
    """
    rows, num_items = scores.shape
    index, item_major = BlockIndex.build(scores, rows, signed=True)
    weights = np.eye(rows)
    bounds = block_bounds(index, weights)
    chosen = select_blocks(item_major, index, weights, bounds, count)
    mask = np.zeros((rows, num_items), dtype=bool)
    mask[chosen.rows, chosen.items] = True
    return mask


class TestSelectBlocks:
    def test_boundary_ties_all_included(self):
        scores = np.array([[1.0, 0.5, 0.5, 0.5, 0.2]])
        mask = select_mask(scores, 2)
        # The 2nd-largest value (0.5) is tied three ways: all included.
        assert mask[0].tolist() == [True, True, True, True, False]

    def test_count_at_least_items_takes_all(self):
        scores = np.array([[3.0, 1.0], [2.0, 5.0]])
        mask = select_mask(scores, 7)
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
    """Payload bytes are accounted and reported; only entries bound the cache."""

    def test_byte_eviction_order_and_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(5))  # 40 bytes
        cache.put("b", np.zeros(5))  # 80 bytes total
        assert cache.bytes == 80
        cache.put("c", np.zeros(10))  # third entry → evict LRU "a"
        assert cache.peek("a") is None
        assert cache.peek("b") is not None
        stats = cache.stats()
        assert stats.bytes == 120
        assert stats.evictions == 1

    def test_replacement_reaccounts_bytes(self):
        cache = LRUCache(capacity=4)
        cache.put("k", np.zeros(10))
        cache.put("k", np.zeros(5))
        assert cache.bytes == 40
        cache.discard("k")
        assert cache.bytes == 0

    def test_clear_resets_bytes(self):
        cache = LRUCache(capacity=4)
        cache.put("a", np.zeros(10))
        cache.clear()
        assert cache.bytes == 0
        assert len(cache) == 0

    def test_default_stays_entry_count_only(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.zeros(1_000))
        cache.put("b", np.zeros(1_000))
        assert len(cache) == 2  # far over any plausible byte budget
        assert cache.bytes == 16_000
        cache.put("c", np.zeros(1_000))
        assert len(cache) == 2  # the entry bound still evicts
        # The byte budgets are gone, not defaulted off.
        with pytest.raises(TypeError):
            LRUCache(capacity=2, max_bytes=100)
        with pytest.raises(TypeError):
            ServingCache(context_max_bytes=200)
        assert not hasattr(cache.stats(), "max_bytes")
        assert not hasattr(cache.stats(), "evicted_bytes")

    def test_value_nbytes_accounting(self):
        assert value_nbytes(np.zeros(8)) == 64
        assert value_nbytes("not an array") == 0


def _rows(results):
    return [(r.items, [x.hex() for x in r.scores]) for r in results]


class TestBaseKeyedEntries:
    """What depends on ``φ`` alone is built once, whatever the interval."""

    def test_serving_a_ttcam_keeps_no_stacked_matrix(self):
        model = make_ttcam(np.random.default_rng(43), num_items=90)
        queries = [(u, u % 5) for u in range(12)]
        reference = TemporalRecommender(make_ttcam(np.random.default_rng(43), num_items=90))
        want = [reference.recommend(u, t, k=6, method="ta") for u, t in queries]
        got = TemporalRecommender(model).recommend_batch(queries, k=6)
        assert getattr(model.params_, "_stacked_matrix", None) is None
        assert _rows(got) == _rows(want)
        # the reference engine's query_space callers keep their memo
        assert getattr(reference.model.params_, "_stacked_matrix", None) is not None
