"""Block-max selection: the float64 batch path is still bitwise ``ta_topk``.

Each property builds a model shaped to stress one proof obligation of
:func:`~repro.recommend.serving.select_blocks` and checks every served row
against the per-query TA engine — items, score bits and tie order. The
counters pin how much the bound prunes on a serving-shaped model, and the
publish tests pin that the index belongs to the base.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ITCAMParameters, TTCAMParameters
from repro.core.serialize import LoadedModel, save_params
from repro.recommend import TemporalRecommender, serving
from repro.recommend.serving import (
    SELECT_BLOCK,
    BlockIndex,
    block_bounds,
    select_blocks,
)
from repro.streaming import SnapshotPublisher

B = SELECT_BLOCK


def ttcam(rng, num_items, num_users=8, num_intervals=3, k1=3, k2=2, phi=None, lam=None):
    return TTCAMParameters(
        theta=rng.dirichlet(np.full(k1, 0.4), size=num_users),
        phi=rng.dirichlet(np.full(num_items, 0.1), size=k1) if phi is None else phi,
        theta_time=rng.dirichlet(np.full(k2, 0.4), size=num_intervals),
        phi_time=rng.dirichlet(np.full(num_items, 0.1), size=k2),
        lambda_u=rng.beta(3.0, 3.0, size=num_users) if lam is None else lam,
    )


def assert_ta_bitwise(rec, queries, k, exclude=None, row_block=64):
    """Every batch row equals ``ta_topk``: items, score bits, tie order."""
    batch = rec.recommend_batch(queries, k=k, exclude=exclude, row_block=row_block)
    for (user, interval), got in zip(queries, batch):
        row_exclude = exclude.get(user) if isinstance(exclude, dict) else exclude
        want = rec.recommend(user, interval, k=k, method="ta", exclude=row_exclude)
        assert got.items == want.items, (user, interval)
        assert [s.hex() for s in got.scores] == [s.hex() for s in want.scores]
    return batch


def all_queries(params):
    return [(u, t) for u in range(params.num_users) for t in range(params.num_intervals)]


class TestSelectorMatchesTA:
    @given(
        seed=st.integers(0, 10_000),
        distinct=st.integers(1, 6),
        num_items=st.integers(2 * B - 5, 3 * B + 7),
        k=st.integers(1, 12),
    )
    @settings(max_examples=15, deadline=None)
    def test_ties_spanning_block_boundaries(self, seed, distinct, num_items, k):
        # Few distinct item columns, repeated across the catalogue: equal
        # scores land in several blocks, and the tie-inclusive cut must
        # keep every one of them for the (score, item id) tie-break.
        rng = np.random.default_rng(seed)
        base = ttcam(rng, distinct, k1=3, k2=2)
        pick = rng.integers(0, distinct, num_items)
        params = base.with_fields(
            phi=base.phi[:, pick] / base.phi[:, pick].sum(axis=1, keepdims=True),
            phi_time=base.phi_time[:, pick] / base.phi_time[:, pick].sum(axis=1, keepdims=True),
        )
        rec = TemporalRecommender(LoadedModel(params))
        assert_ta_bitwise(rec, all_queries(params), k)

    @given(seed=st.integers(0, 10_000), num_items=st.integers(1, 3 * B + 1))
    @settings(max_examples=15, deadline=None)
    def test_uniform_phi_prunes_nothing(self, seed, num_items):
        rng = np.random.default_rng(seed)
        uniform = np.full((3, num_items), 1.0 / num_items)
        params = ttcam(rng, num_items, phi=uniform).with_fields(phi_time=uniform[:2])
        rec = TemporalRecommender(LoadedModel(params))
        k = min(num_items, 5)
        batch = assert_ta_bitwise(rec, all_queries(params), k)
        scorer = rec._scorer()
        assert scorer.blocks_visited == scorer.blocks_total
        assert all(row.items == list(range(k)) for row in batch)

    @given(
        seed=st.integers(0, 10_000),
        num_items=st.integers(1, 4 * B + 3),
        k=st.integers(1, 40),
        kind=st.sampled_from(["ttcam", "itcam"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_catalogue_size_and_k(self, seed, num_items, k, kind):
        # V below, at and off a multiple of B; k + margin at or past V.
        rng = np.random.default_rng(seed)
        params = ttcam(rng, num_items)
        if kind == "itcam":
            params = ITCAMParameters(
                theta=params.theta,
                phi=params.phi,
                theta_time=rng.dirichlet(np.full(num_items, 0.1), size=3),
                lambda_u=params.lambda_u,
            )
        rec = TemporalRecommender(LoadedModel(params))
        assert_ta_bitwise(rec, all_queries(params), k)

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_lambda_at_zero_and_one(self, seed, k):
        # λ = 1 drops the context term, λ = 0 leaves only the context.
        rng = np.random.default_rng(seed)
        lam = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 0.0, 1.0, 0.25])
        params = ttcam(rng, 3 * B + 11, lam=lam)
        rec = TemporalRecommender(LoadedModel(params))
        assert_ta_bitwise(rec, all_queries(params), k)

    @given(seed=st.integers(0, 10_000), covered=st.integers(1, 3), k=st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_exclusions_covering_the_highest_bound_blocks(self, seed, covered, k):
        # Excluding every item of a row's best blocks: an excluded high
        # scorer must not raise τ and prune the block of a true top-k item.
        rng = np.random.default_rng(seed)
        params = ttcam(rng, 6 * B + 5)
        rec = TemporalRecommender(LoadedModel(params))
        queries = [(u, u % params.num_intervals) for u in range(params.num_users)]
        rec.recommend_batch(queries, k=k)  # builds the block index
        index = rec.serving_cache.matrices.peek(("blocks", "phi"))
        assert isinstance(index, BlockIndex)
        exclude = {}
        for user, interval in queries:
            weights = params.query_weights(user, interval)[None, :]
            cmax = index.block_maxima(params.context_scores(interval))
            lam = params.lambda_u[user]
            bounds = block_bounds(index, weights, np.array([1 - lam]), cmax)[0]
            best = np.argsort(-bounds, kind="stable")[:covered]
            exclude[user] = np.unique(index.items[best])
        assert_ta_bitwise(rec, queries, k, exclude=exclude)


class TestStoreBackedSelection:
    def test_selects_through_the_persisted_transpose(self, tmp_path):
        # A mapped model gathers block rows from its item-id-ordered
        # transpose through the index: same answers, exclusions over the
        # best blocks included, and no arranged (V, K) copy is cached.
        rng = np.random.default_rng(23)
        params = ttcam(rng, 6 * B + 5, num_users=12, num_intervals=3)
        snapshot = save_params(params, tmp_path / "m.npz", mmap_layout=True)
        mapped = LoadedModel.from_file(snapshot)
        assert mapped.param_store is not None
        rec = TemporalRecommender(mapped)
        queries = all_queries(params)
        assert_ta_bitwise(rec, queries, 7)
        index = rec.serving_cache.matrices.peek(("blocks", "phi"))
        assert isinstance(index, BlockIndex)
        exclude = {user: np.unique(index.items[:2]) for user in range(params.num_users)}
        assert_ta_bitwise(rec, queries, 7, exclude=exclude)
        assert not [key for key in rec.serving_cache.matrices.keys() if key[0] == "arranged"]


class TestStrictPruning:
    @pytest.mark.parametrize("arranged", [True, False])
    def test_a_block_whose_bound_equals_tau_is_visited(self, arranged):
        # After the first chunk τ = 4.0, and the next block's bound is
        # exactly 4.0 (no round-up): its tied item belongs among the
        # candidates, so a bound equal to τ must not prune. The blocks
        # ranked between are padded with loose (valid) bounds so the tied
        # block opens the second chunk.
        first = serving._FIRST_BLOCKS
        num_blocks = first + 8
        values = np.zeros((1, num_blocks * B))
        tied = (num_blocks - 1) * B
        values[0, [0, 1, tied]] = [5.0, 4.0, 4.0]
        index, item_major = BlockIndex.build(values, 1, signed=False, sort=False)
        weights = np.ones((1, 1))
        bounds = weights @ index.block_max.T
        bounds[0, 1:first] = 4.5
        matrix = item_major if arranged else values.T.copy()
        slots, visited = select_blocks(matrix, index, weights, bounds, 2, arranged=arranged)
        assert sorted(index.items.reshape(-1)[slots[0]].tolist()) == [0, 1, tied]
        assert visited.tolist() == [first + 1]  # the second chunk stops at the tied block


def exact_block_maxima(matrix, index, weights):
    """Each block's largest real-arithmetic score ``Σ_z w_z·m_zv`` (as Fractions)."""
    maxima = []
    for first in range(0, index.num_items, B):
        scores = [
            sum(Fraction(float(w)) * Fraction(float(m)) for w, m in zip(weights, matrix[:, v]))
            for v in index.order[first : first + B]
        ]
        maxima.append(max(scores))
    return maxima


class TestBoundRoundsUp:
    """The bound dominates every float evaluation of every score in its block.

    A computed ``n``-term dot product may exceed its real value by
    ``γ_n ≈ n·u`` of the terms' magnitude, so the bound must sit at least
    that far above each block's real maximum — an unrounded bound lands
    within an ulp of it.
    """

    @given(seed=st.integers(0, 10_000), num_items=st.integers(1, 3 * B + 4))
    @settings(max_examples=20, deadline=None)
    def test_split_path(self, seed, num_items):
        rng = np.random.default_rng(seed)
        params = ttcam(rng, num_items, num_users=3, num_intervals=2)
        index, _ = BlockIndex.build(params.phi, params.num_user_topics, signed=False, arrange=False)
        cmax = index.block_maxima(params.context_scores(1))
        for user in range(3):
            weights = params.query_weights(user, 1)
            lam = params.lambda_u[user]
            bounds = block_bounds(index, weights[None, :], np.array([1 - lam]), cmax)[0]
            slack = 1 + Fraction(weights.size, 2**53)
            exact = exact_block_maxima(params.topic_item_matrix(1), index, weights)
            for bound, best in zip(bounds, exact):
                assert Fraction(float(bound)) >= best * slack

    @given(seed=st.integers(0, 10_000), num_items=st.integers(1, 2 * B + 4))
    @settings(max_examples=20, deadline=None)
    def test_generic_path_with_signed_weights(self, seed, num_items):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(4, num_items))
        index, _ = BlockIndex.build(matrix, 4, signed=True)
        weights = rng.normal(size=4)
        bounds = block_bounds(index, weights[None, :])[0]
        # Σ_z |w_z·m_vz| ≤ |w| @ max(|block max|, |block min|) for every v of a block.
        magnitude = np.maximum(np.abs(index.block_max), np.abs(index.block_min)) @ np.abs(weights)
        exact = exact_block_maxima(matrix, index, weights)
        for bound, best, size in zip(bounds, exact, magnitude):
            assert Fraction(float(bound)) >= best + Fraction(4, 2**53) * Fraction(float(size))


class TestSplitInvariance:
    @pytest.mark.parametrize("kind", ["ttcam", "itcam"])
    def test_row_block_does_not_change_an_answer(self, kind):
        rng = np.random.default_rng(17)
        params = ttcam(rng, 5 * B + 9, num_users=40, num_intervals=4)
        if kind == "itcam":
            params = ITCAMParameters(
                theta=params.theta,
                phi=params.phi,
                theta_time=rng.dirichlet(np.full(5 * B + 9, 0.1), size=4),
                lambda_u=params.lambda_u,
            )
        queries = [(int(rng.integers(0, 40)), int(rng.integers(0, 4))) for _ in range(90)]
        answers = []
        for row_block in (1, 7, 64):
            rec = TemporalRecommender(LoadedModel(params))
            batch = assert_ta_bitwise(rec, queries, 6, row_block=row_block)
            answers.append([(row.items, [s.hex() for s in row.scores]) for row in batch])
        assert answers[0] == answers[1] == answers[2]


#: Blocks the 64 queries of :class:`TestPruning` visit, of 64 · 625 (8.62 %).
VISITED_AT_20K = 3447


class TestPruning:
    def test_serving_shaped_model_visits_few_blocks(self):
        # Sparse Dirichlet(0.05) topics at V=20k, the shape the benchmark
        # serves: the bound leaves well under a tenth of the blocks.
        rng = np.random.default_rng(11)
        num_items = 20_000
        params = TTCAMParameters(
            theta=rng.dirichlet(np.full(16, 0.3), size=200),
            phi=rng.dirichlet(np.full(num_items, 0.05), size=16),
            theta_time=rng.dirichlet(np.full(8, 0.3), size=8),
            phi_time=rng.dirichlet(np.full(num_items, 0.05), size=8),
            lambda_u=rng.beta(3.0, 3.0, size=200),
        )
        rec = TemporalRecommender(LoadedModel(params))
        queries = [(int(rng.integers(0, 200)), int(rng.integers(0, 8))) for _ in range(64)]
        assert_ta_bitwise(rec, queries[:16], 10)
        scorer = rec._scorer()
        before = (scorer.blocks_visited, scorer.blocks_total)
        rec.recommend_batch(queries, k=10)
        visited = scorer.blocks_visited - before[0]
        total = scorer.blocks_total - before[1]
        assert total == 64 * -(-num_items // B)
        assert visited == VISITED_AT_20K
        assert visited <= 0.10 * total


class TestIndexBelongsToTheBase:
    def test_delta_publish_reuses_and_full_publish_rebuilds(self):
        rng = np.random.default_rng(5)
        params = ttcam(rng, 4 * B + 3)
        rec = TemporalRecommender(LoadedModel(params))
        publisher = SnapshotPublisher(rec)
        queries = all_queries(params)
        rec.recommend_batch(queries, k=4)
        index = rec.serving_cache.matrices.peek(("blocks", "phi"))
        assert isinstance(index, BlockIndex)

        theta = rng.dirichlet(np.full(3, 0.4), size=params.num_users)
        delta = params.with_fields(theta=theta)
        assert publisher.publish(delta).published
        assert rec.serving_cache.matrices.peek(("blocks", "phi")) is index
        assert_ta_bitwise(rec, queries, 4)
        assert rec.serving_cache.matrices.peek(("blocks", "phi")) is index

        refit = ttcam(np.random.default_rng(6), 4 * B + 3)
        assert publisher.publish(refit).published
        assert rec.serving_cache.matrices.peek(("blocks", "phi")) is None
        assert_ta_bitwise(rec, queries, 4)
        rebuilt = rec.serving_cache.matrices.peek(("blocks", "phi"))
        assert isinstance(rebuilt, BlockIndex) and rebuilt is not index
