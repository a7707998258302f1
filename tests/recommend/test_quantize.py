"""Tests for quantized candidate selection (``repro.recommend.quantize``).

The load-bearing contract: serving with ``dtype="int8"`` must return
*bitwise-identical* top-k — items, scores, tie order — to the exact
float64 engine, because the quantized pass only selects candidates
(widened by a proven error margin) and the final scores always come
from the float64 rescore. Property tests pin that
across random models, adversarial near-ties, duplicates, mixed
intervals and ``k ≥ V``; a dedicated test checks the margin bound
actually upper-bounds the observed quantization error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import TTCAMParameters
from repro.core.serialize import LoadedModel
from repro.recommend import TemporalRecommender
from repro.recommend.quantize import (
    ContextVector,
    QuantizedMatrix,
    quantize_matrix,
    selection_margins,
    staged_select_gemm,
)

from .test_serving import make_itcam, make_ttcam

#: The quantized selection dtypes (one survives; the loops stay loops).
QUANTIZED_DTYPES = ("int8",)


def assert_quantized_matches_float64(model, queries, k, dtype):
    """Quantized batch == float64 batch, bitwise (items, scores, order)."""
    rec = TemporalRecommender(model)
    exact = rec.recommend_batch(queries, k=k)
    approx = rec.recommend_batch(queries, k=k, dtype=dtype)
    for (user, interval), r64, rq in zip(queries, exact, approx):
        assert rq.items == r64.items, (dtype, user, interval)
        assert rq.scores == r64.scores, (dtype, user, interval)


class TestQuantizedServingIdentity:
    @given(
        seed=st.integers(0, 5_000),
        kind=st.sampled_from(["ttcam", "itcam"]),
        dtype=st.sampled_from(list(QUANTIZED_DTYPES)),
        k=st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_float64_exactly(self, seed, kind, dtype, k):
        rng = np.random.default_rng(seed)
        num_items = int(rng.integers(30, 90))
        num_intervals = 5
        maker = make_ttcam if kind == "ttcam" else make_itcam
        model = maker(rng, num_items=num_items, num_intervals=num_intervals)
        queries = [
            (int(rng.integers(0, 12)), int(rng.integers(0, num_intervals)))
            for _ in range(20)
        ]
        queries += [queries[0], queries[7]]  # duplicates, mixed intervals
        assert_quantized_matches_float64(model, queries, k, dtype)

    @given(
        seed=st.integers(0, 2_000),
        kind=st.sampled_from(["ttcam", "itcam"]),
        dtype=st.sampled_from(list(QUANTIZED_DTYPES)),
    )
    @settings(max_examples=10, deadline=None)
    def test_k_at_least_catalogue(self, seed, kind, dtype):
        rng = np.random.default_rng(seed)
        maker = make_ttcam if kind == "ttcam" else make_itcam
        model = maker(rng, num_items=25)
        queries = [(0, 0), (3, 2), (3, 2)]
        for k in (25, 26, 100):
            assert_quantized_matches_float64(model, queries, k, dtype)

    @given(
        seed=st.integers(0, 1_000),
        dtype=st.sampled_from(list(QUANTIZED_DTYPES)),
        spread=st.sampled_from([1e-15, 1e-12, 1e-9]),
    )
    @settings(max_examples=15, deadline=None)
    def test_adversarial_near_ties(self, seed, dtype, spread):
        # Columns differing by less than any quantization step: the
        # approximate scores cannot distinguish the contenders, so only
        # a correct margin keeps the exact ranking of the tie-break.
        rng = np.random.default_rng(seed)
        num_items, k1, k2 = 50, 3, 2
        base = rng.dirichlet(np.full(num_items, 0.5))
        phi = np.tile(base, (k1, 1)) * (1.0 + rng.uniform(-spread, spread, (k1, num_items)))
        phi /= phi.sum(axis=1, keepdims=True)
        phi_time = np.tile(base, (k2, 1)) * (
            1.0 + rng.uniform(-spread, spread, (k2, num_items))
        )
        phi_time /= phi_time.sum(axis=1, keepdims=True)
        params = TTCAMParameters(
            theta=rng.dirichlet(np.full(k1, 0.4), size=8),
            phi=phi,
            theta_time=rng.dirichlet(np.full(k2, 0.4), size=4),
            phi_time=phi_time,
            lambda_u=rng.beta(3.0, 3.0, size=8),
        )
        queries = [(u, u % 4) for u in range(8)]
        assert_quantized_matches_float64(LoadedModel(params), queries, 10, dtype)

    @pytest.mark.parametrize("dtype", QUANTIZED_DTYPES)
    def test_fully_tied_rows_keep_item_id_order(self, dtype):
        rng = np.random.default_rng(0)
        num_items = 40
        params = TTCAMParameters(
            theta=rng.dirichlet(np.full(3, 0.4), size=6),
            phi=np.full((3, num_items), 1.0 / num_items),
            theta_time=rng.dirichlet(np.full(2, 0.4), size=4),
            phi_time=np.full((2, num_items), 1.0 / num_items),
            lambda_u=rng.beta(3.0, 3.0, size=6),
        )
        model = LoadedModel(params)
        queries = [(0, 0), (5, 3), (2, 1)]
        assert_quantized_matches_float64(model, queries, 10, dtype)
        rec = TemporalRecommender(model)
        for result in rec.recommend_batch(queries, k=10, dtype=dtype):
            assert result.items == list(range(10))


class TestMarginBound:
    @given(
        seed=st.integers(0, 5_000),
        dtype=st.sampled_from(list(QUANTIZED_DTYPES)),
        rows=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_margin_upper_bounds_observed_error(self, seed, dtype, rows):
        rng = np.random.default_rng(seed)
        num_topics = int(rng.integers(2, 9))
        num_items = int(rng.integers(10, 400))
        matrix = rng.dirichlet(np.full(num_items, 0.1), size=num_topics)
        qmatrix = quantize_matrix(matrix, dtype)
        weights = rng.dirichlet(np.full(num_topics, 0.3), size=rows)

        scores = np.empty((rows, num_items), dtype=np.float32)
        stage = np.empty((num_topics, min(num_items, 37)), dtype=np.float32)
        staged_select_gemm(
            qmatrix, weights.astype(np.float32), scores, stage, stage_columns=37
        )
        exact = weights @ matrix
        observed = np.abs(scores.astype(np.float64) - exact).max(axis=1)
        eps = selection_margins(np.abs(weights), qmatrix)
        assert np.all(observed <= eps), (observed, eps)

    @given(seed=st.integers(0, 2_000), dtype=st.sampled_from(list(QUANTIZED_DTYPES)))
    @settings(max_examples=20, deadline=None)
    def test_margin_with_context_vector(self, seed, dtype):
        # The TCAM split path adds a (1−λ) weighted quantized context
        # row on top of the GEMM; its error terms extend the bound.
        rng = np.random.default_rng(seed)
        num_topics, num_items, rows = 4, 120, 5
        matrix = rng.dirichlet(np.full(num_items, 0.1), size=num_topics)
        context = rng.dirichlet(np.full(num_items, 0.1))
        qmatrix = quantize_matrix(matrix, dtype)
        qcontext = ContextVector.from_exact(context)
        lam = rng.beta(3.0, 3.0, size=rows)
        weights = lam[:, None] * rng.dirichlet(np.full(num_topics, 0.3), size=rows)

        scores = np.empty((rows, num_items), dtype=np.float32)
        stage = np.empty((num_topics, num_items), dtype=np.float32)
        staged_select_gemm(qmatrix, weights.astype(np.float32), scores, stage)
        scores += (1.0 - lam)[:, None].astype(np.float32) * qcontext.values
        exact = weights @ matrix + (1.0 - lam)[:, None] * context
        observed = np.abs(scores.astype(np.float64) - exact).max(axis=1)
        eps = selection_margins(
            np.abs(weights),
            qmatrix,
            context_weight=np.abs(1.0 - lam),
            context_delta=qcontext.delta,
            context_abs_max=qcontext.abs_max,
        )
        assert np.all(observed <= eps), (observed, eps)


class TestQuantizedMatrix:
    def test_int8_round_trip_and_nbytes(self):
        rng = np.random.default_rng(3)
        matrix = rng.dirichlet(np.full(64, 0.1), size=5)
        q = quantize_matrix(matrix, "int8")
        assert isinstance(q, QuantizedMatrix)
        assert q.dtype == "int8"
        assert q.shape == (5, 64)
        assert q.storage.dtype == np.int8
        assert np.abs(q.storage).max() <= 127
        # Effective values stay within one scale step of the truth.
        effective = q.storage.astype(np.float64) * q.scale[:, None]
        step = np.abs(matrix).max(axis=1) / 127.0
        assert np.all(np.abs(effective - matrix) <= step[:, None] * (1.0 + 1e-9))
        assert q.nbytes < matrix.nbytes

    def test_zero_row_is_representable(self):
        matrix = np.zeros((2, 16))
        matrix[1, 3] = 1.0
        for dtype in QUANTIZED_DTYPES:
            q = quantize_matrix(matrix, dtype)
            out = np.empty((2, 16), dtype=np.float32)
            q.dequantize_block(slice(0, 16), out)
            assert np.all(out[0] == 0.0)
            assert q.delta[0] == 0.0

    def test_dequantize_block_matches_full(self):
        rng = np.random.default_rng(5)
        matrix = rng.dirichlet(np.full(40, 0.1), size=4)
        q = quantize_matrix(matrix, "int8")
        full = np.empty((4, 40), dtype=np.float32)
        q.dequantize_block(slice(0, 40), full)
        part = np.empty((4, 40), dtype=np.float32)
        for start in range(0, 40, 7):
            stop = min(start + 7, 40)
            q.dequantize_block(slice(start, stop), part[:, : stop - start])
            assert np.array_equal(part[:, : stop - start], full[:, start:stop])

    def test_rejects_unknown_dtype(self):
        for dtype in ("int4", "float16"):  # never existed / removed
            with pytest.raises(ValueError, match="dtype"):
                quantize_matrix(np.ones((2, 4)) / 4.0, dtype)


class TestContextVector:
    def test_delta_bounds_float32_cast(self):
        rng = np.random.default_rng(6)
        exact = rng.dirichlet(np.full(200, 0.05))
        ctx = ContextVector.from_exact(exact)
        assert ctx.values.dtype == np.float32
        observed = np.abs(ctx.values.astype(np.float64) - exact).max()
        assert observed <= ctx.delta
        assert np.abs(ctx.values).max() <= ctx.abs_max
