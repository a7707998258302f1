"""Block-max selection: the float64 batch path is still bitwise ``ta_topk``.

Each property builds a model shaped to stress one proof obligation of
:func:`~repro.recommend.serving.select_blocks` and checks every served row
against the per-query TA engine — items, score bits and tie order. The
premise the one-pass selector rests on (its stacked dot *is* the TA
engine's per-item dot) is pinned on its own, so a numpy that routes
vector·vector matmul elsewhere fails here first. The merged pass (one
per matrix key, intervals mixed) is checked for exclusions, ``k ≥ V``,
split invariance and per-interval failure, and the two rounds for
scoring exactly round 1's blocks and every block whose bound reaches
``τ₁``. The counters pin how much
the bound prunes on a serving-shaped model, and the publish tests pin
that the index belongs to the base.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ITCAMParameters, TTCAMParameters
from repro.core.serialize import LoadedModel, save_params
from repro.recommend import TemporalRecommender, serving
from repro.recommend.ranking import QuerySpace
from repro.recommend.recommender import ServingStatus
from repro.recommend.serving import (
    SELECT_BLOCK,
    BlockIndex,
    block_bounds,
    select_blocks,
)
from repro.recommend.threshold import SortedTopicLists, ta_topk
from repro.streaming import SnapshotPublisher

B = SELECT_BLOCK


def examples(count):
    """``count`` examples under Hypothesis's default profile, scaled with the loaded one.

    ``HYPOTHESIS_PROFILE=deep`` (``tests/conftest.py``) runs ten times as many.
    """
    return count * settings.default.max_examples // settings.get_profile("default").max_examples


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
    @settings(max_examples=examples(15), deadline=None)
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
    @settings(max_examples=examples(15), deadline=None)
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
    @settings(max_examples=examples(25), deadline=None)
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
    @settings(max_examples=examples(15), deadline=None)
    def test_lambda_at_zero_and_one(self, seed, k):
        # λ = 1 drops the context term, λ = 0 leaves only the context.
        rng = np.random.default_rng(seed)
        lam = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 0.0, 1.0, 0.25])
        params = ttcam(rng, 3 * B + 11, lam=lam)
        rec = TemporalRecommender(LoadedModel(params))
        assert_ta_bitwise(rec, all_queries(params), k)

    @given(seed=st.integers(0, 10_000), covered=st.integers(1, 3), k=st.integers(1, 10))
    @settings(max_examples=examples(15), deadline=None)
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


class TestStackedDotPremise:
    """Selection's stacked dot is bitwise the TA engine's per-item dot."""

    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(1, 64),
        num_items=st.integers(1, 2 * B + 9),
        arranged=st.booleans(),
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_selection_scores_are_ta_scores(self, seed, width, num_items, arranged):
        # count = V visits every block, so every item comes back with the
        # score selection computed — through the arranged matrix or, for
        # a store-backed model, gathered through ``index.items`` from the
        # item-id-ordered transpose.
        rng = np.random.default_rng(seed)
        matrix = rng.dirichlet(np.full(num_items, 0.2), size=width)
        weights = rng.dirichlet(np.full(width, 0.5))
        item_topic = np.ascontiguousarray(matrix.T)
        index, item_major = BlockIndex.build(matrix, width, signed=False)
        source = item_major if arranged else item_topic
        bounds = block_bounds(index, weights[None, :])
        chosen = select_blocks(
            source, index, weights[None, :], bounds, num_items, arranged=arranged
        )
        items = chosen.items
        assert sorted(items.tolist()) == list(range(num_items))
        got = {int(v): float(score).hex() for v, score in zip(items, chosen.scores)}
        assert got == {v: float(item_topic[v] @ weights).hex() for v in range(num_items)}
        # ... and the stacked matmul itself, on rows in block order either way.
        rows = item_major[:num_items] if arranged else np.take(item_topic, index.order, axis=0)
        stacked = np.matmul(rows[:, None, :], weights[:, None])[:, 0, 0]
        assert [s.hex() for s in stacked.tolist()] == [
            float(item_topic[v] @ weights).hex() for v in index.order
        ]
        ta = ta_topk(QuerySpace(weights, matrix), SortedTopicLists.build(matrix), num_items)
        assert {v: s.hex() for v, s in zip(ta.items, ta.scores)} == got


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
        # Round 1 scores the first 16 blocks (block 0 by its own bound,
        # the next ones by loose, valid bounds) and τ₁ = 4.0; the last
        # block's bound is exactly 4.0 (no round-up): its tied item
        # belongs among the candidates, so a bound equal to τ₁ must be
        # scored in round 2.
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
        chosen = select_blocks(matrix, index, weights, bounds, 2, arranged=arranged)
        found = sorted(zip(chosen.items.tolist(), chosen.scores.tolist()))
        assert found == [(0, 5.0), (1, 4.0), (tied, 4.0)]
        assert sorted(chosen.first[0].tolist()) == list(range(first))
        # round 2 scores the tied block and nothing else
        assert np.flatnonzero(chosen.scored[0]).tolist() == [*range(first), num_blocks - 1]
        assert chosen.blocks_scored.tolist() == [first + 1]


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
    @settings(max_examples=examples(20), deadline=None)
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
    @settings(max_examples=examples(20), deadline=None)
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


def itcam_like(rng, params):
    return ITCAMParameters(
        theta=params.theta,
        phi=params.phi,
        theta_time=rng.dirichlet(np.full(params.num_items, 0.1), size=params.num_intervals),
        lambda_u=params.lambda_u,
    )


class StaticProvider:
    """A generic ``query_space`` provider whose intervals share one matrix key."""

    def __init__(self, params):
        self.params = params

    def query_space(self, user, interval):
        return self.params.query_space(user, interval)

    def matrix_cache_key(self, interval):
        return "static"


class TestMergedPass:
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["ttcam", "itcam"]),
        num_items=st.integers(1, 4 * B + 3),
        k=st.integers(1, 4 * B + 8),
        exclusion=st.sampled_from(["none", "array", "mapping"]),
    )
    @settings(max_examples=examples(25), deadline=None)
    def test_mixed_interval_batches_are_ta_and_split_invariant(
        self, seed, kind, num_items, k, exclusion
    ):
        # One pass serves every TTCAM interval of the batch; each row still
        # reads its own interval's context maxima and exclusions, and k may
        # reach or pass V. row_block 1/7/64 splits the pass across intervals.
        rng = np.random.default_rng(seed)
        params = ttcam(rng, num_items, num_users=10, num_intervals=4)
        if kind == "itcam":
            params = itcam_like(rng, params)
        queries = [(int(rng.integers(0, 10)), int(rng.integers(0, 4))) for _ in range(20)]
        exclude = None
        if exclusion == "array":
            exclude = rng.choice(num_items, size=min(num_items, 5), replace=False)
        elif exclusion == "mapping":
            sizes = rng.integers(0, num_items + 1, size=5)
            exclude = {
                user: rng.choice(num_items, size=int(size), replace=False)
                for user, size in zip(range(0, 10, 2), sizes)
            }
        answers = []
        for row_block in (1, 7, 64):
            rec = TemporalRecommender(LoadedModel(params))
            batch = assert_ta_bitwise(rec, queries, k, exclude=exclude, row_block=row_block)
            answers.append([(row.items, [s.hex() for s in row.scores]) for row in batch])
        assert answers[0] == answers[1] == answers[2]

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
    @settings(max_examples=examples(15), deadline=None)
    def test_each_row_bounds_with_its_own_intervals_context(self, seed, k):
        # Two intervals whose contexts live on disjoint halves of the
        # catalogue, in one pass: a row bounded with the other interval's
        # context maxima would prune its own best blocks.
        rng = np.random.default_rng(seed)
        half = 2 * serving._FIRST_BLOCKS * B  # more blocks than a first chunk
        phi_time = np.zeros((2, 2 * half))
        phi_time[0, :half] = rng.dirichlet(np.full(half, 0.1))
        phi_time[1, half:] = rng.dirichlet(np.full(half, 0.1))
        params = ttcam(rng, 2 * half, num_intervals=2, lam=np.full(8, 0.05)).with_fields(
            phi_time=phi_time, theta_time=np.array([[0.999, 0.001], [0.001, 0.999]])
        )
        rec = TemporalRecommender(LoadedModel(params))
        assert_ta_bitwise(rec, [(u, u % 2) for u in range(8)], k)

    def test_ttcam_batch_is_one_pass(self, monkeypatch):
        rng = np.random.default_rng(3)
        params = ttcam(rng, 3 * B + 1, num_intervals=5)
        rec = TemporalRecommender(LoadedModel(params))
        calls = []
        original = serving.select_blocks

        def counting(*args, **kwargs):
            calls.append(args[3].shape[0])  # rows bounded
            return original(*args, **kwargs)

        monkeypatch.setattr(serving, "select_blocks", counting)
        assert_ta_bitwise(rec, all_queries(params), 4)
        assert calls == [8 * 5]  # every interval in one 40-row pass

    def test_a_long_walk_reranks_and_stays_exact(self):
        # Uniform φ prunes nothing: every bound reaches round 1's τ₁, so
        # round 2 scores every block round 1 left.
        rng = np.random.default_rng(8)
        num_items = 100 * B + 3
        uniform = np.full((3, num_items), 1.0 / num_items)
        params = ttcam(rng, num_items, phi=uniform, num_users=3).with_fields(
            phi_time=uniform[:2]
        )
        rec = TemporalRecommender(LoadedModel(params))
        assert_ta_bitwise(rec, [(0, 0), (1, 2), (2, 1)], 5)
        scorer = rec._scorer()
        assert scorer.blocks_visited == scorer.blocks_total


class SelectSpy:
    """Records each :func:`select_blocks` call's inputs and what it scored.

    ``bounds`` and ``scored`` are workspace buffers the next pass
    overwrites, so they are copied at the call.
    """

    def __init__(self):
        self.calls = []
        self.original = serving.select_blocks

    def __call__(self, matrix, index, weights, bounds, count, excluded, arranged, workspace):
        chosen = self.original(
            matrix, index, weights, bounds, count, excluded, arranged, workspace
        )
        self.calls.append(
            (matrix, index, weights.copy(), bounds.copy(), count, excluded, arranged,
             chosen.first.copy(), chosen.scored.copy())
        )
        return chosen


def row_scores(matrix, index, weights, mask, arranged):
    """Every item's score (the TA engine's dot) by item id; padding and exclusions −inf."""
    item_topic = matrix if not arranged else np.empty((index.num_items, matrix.shape[1]))
    if arranged:
        item_topic[index.order] = matrix[: index.num_items]
    scores = np.array([float(item_topic[v] @ weights) for v in range(index.num_items)])
    if mask is not None:
        scores[mask] = -np.inf
    return scores


def kth(values, count):
    """The ``count``-th largest finite value, or ``−inf`` when there are fewer."""
    finite = np.sort(values[np.isfinite(values)])
    return finite[-count] if finite.size >= count else -np.inf


class TestTwoRounds:
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["ttcam", "itcam", "generic"]),
        num_items=st.integers(1, 40 * B + 7),
        k=st.integers(1, 3 * B),
        exclusion=st.sampled_from(["none", "array", "mapping"]),
    )
    @settings(max_examples=examples(20), deadline=None)
    def test_scored_blocks_are_round_one_and_every_bound_reaching_tau_one(
        self, seed, kind, num_items, k, exclusion
    ):
        # For every row of every pass: round 1 is F = max(16, ⌈count/B⌉)
        # blocks no lower-bound block outranks, τ₁ is the count-th score
        # they hold once padding and exclusions are dropped, and the
        # blocks scored are exactly round 1 ∪ {bound ≥ τ₁} — which holds
        # every block whose bound reaches the row's final τ.
        rng = np.random.default_rng(seed)
        params = ttcam(rng, num_items, num_users=10, num_intervals=4)
        if kind == "itcam":
            params = itcam_like(rng, params)
        model = StaticProvider(params) if kind == "generic" else LoadedModel(params)
        queries = [(int(rng.integers(0, 10)), int(rng.integers(0, 4))) for _ in range(12)]
        exclude = None
        if exclusion == "array":
            exclude = rng.choice(num_items, size=min(num_items, 3 * B), replace=False)
        elif exclusion == "mapping":
            exclude = {
                user: rng.choice(num_items, size=int(rng.integers(0, num_items + 1)), replace=False)
                for user in range(0, 10, 2)
            }
        rec = TemporalRecommender(model)
        spy = SelectSpy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serving, "select_blocks", spy)
            assert_ta_bitwise(rec, queries, k, exclude=exclude)
        assert spy.calls
        for matrix, index, weights, bounds, count, excluded, arranged, first, scored in spy.calls:
            num_blocks = index.num_blocks
            fixed = min(num_blocks, max(16, -(-count // B)))
            assert count == min(k, num_items)
            for r in range(weights.shape[0]):
                mask = None if excluded is None else excluded[r]
                scores = row_scores(matrix, index, weights[r], mask, arranged)
                ones = np.zeros(num_blocks, dtype=bool)
                ones[first[r]] = True
                assert ones.sum() == fixed
                if fixed < num_blocks:
                    assert bounds[r][ones].min() >= bounds[r][~ones].max()
                slot_scores = np.append(scores, -np.inf)[
                    np.where(np.arange(num_blocks * B) < num_items,
                             index.items.reshape(-1), num_items)
                ].reshape(num_blocks, B)
                tau_one = kth(slot_scores[ones].reshape(-1), count)
                assert scored[r].tolist() == (ones | (bounds[r] >= tau_one)).tolist()
                tau = kth(scores, count)
                assert scored[r][bounds[r] >= tau].all()


class TestOneIntervalFails:
    @pytest.mark.parametrize("provider", ["ttcam", "generic"])
    def test_only_its_rows_fall_back(self, provider, monkeypatch):
        rng = np.random.default_rng(4)
        params = ttcam(rng, 3 * B + 5, num_intervals=4)
        broken = 2
        if provider == "ttcam":
            target, name = params, "context_scores"
            model = LoadedModel(params)
        else:
            model = StaticProvider(params)
            target, name = model, "query_space"
        original = getattr(target, name)

        def failing(*args):
            if args[-1] == broken:
                raise RuntimeError("interval unavailable")
            return original(*args)

        monkeypatch.setattr(target, name, failing)
        fallback = LoadedModel(ttcam(np.random.default_rng(5), 3 * B + 5, num_intervals=4))
        rec = TemporalRecommender(model, fallbacks=[fallback])
        queries = [(u, t) for u in range(6) for t in (0, broken, 1, 3)]
        results, statuses = rec.recommend_batch_with_status(queries, k=5)
        snapshot = rec.serving_cache.stats()
        primary = "Loaded-TTCAM" if provider == "ttcam" else "StaticProvider"
        backup = "Loaded-TTCAM"
        for (user, interval), result, status in zip(queries, results, statuses):
            if interval == broken:
                want = ServingStatus(
                    True, backup, "primary model failed: interval unavailable", (primary,),
                    cache=snapshot,
                )
                assert status == want
                assert len(result.items) == 5
            else:
                assert status == ServingStatus(False, primary, cache=snapshot)
                want_row = rec.recommend(user, interval, k=5, method="ta")
                assert result.items == want_row.items
                assert [s.hex() for s in result.scores] == [s.hex() for s in want_row.scores]
        # One status object per distinct status, stamped once.
        healthy = {id(s) for (_, t), s in zip(queries, statuses) if t != broken}
        assert len(healthy) == 1


#: Blocks the 64 queries of :class:`TestPruning` score, of 64 · 625 (3.44 %).
VISITED_AT_20K = 1377


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
