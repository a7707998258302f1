"""Tests for the opt-in runtime sanitizer (``repro.tooling.sanitize``).

Two layers: the check helpers in isolation, and the instrumented engine /
serving layers end-to-end — a sanitized fit must be bit-identical to an
unsanitized one, broken state entering the E-step and non-finite
statistics leaving it must raise :class:`SanitizerError`, and a
sanitize-off run must never call a check at all (the
zero-overhead-when-off guarantee). ``TCAM_SANITIZE`` is the one switch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ITCAM, TTCAM
from repro.core.engine import BlockedEStep, EMEngineConfig, TTCAMKernel
from repro.core.params import TTCAMParameters
from repro.core.serialize import LoadedModel
from repro.recommend import TemporalRecommender
from repro.recommend.ranking import Recommendation, TopKResult
from repro.recommend.serving import BatchScorer, ServingCache
from repro.tooling.sanitize import (
    ENV_FLAG,
    SanitizerError,
    check_finite,
    check_simplex,
    check_state,
    check_topk_finite,
    check_unit_interval,
    sanitize_enabled,
)


@pytest.fixture(autouse=True)
def _sanitize_env_off(monkeypatch):
    """Default every test to an unset TCAM_SANITIZE (tests opt in)."""
    monkeypatch.delenv(ENV_FLAG, raising=False)


def _random_problem(seed=11, num_ratings=200):
    """Random triples + a random valid TTCAM state (engine-test idiom)."""
    rng = np.random.default_rng(seed)
    n, t_dim, v_dim, k1, k2 = 9, 4, 15, 3, 2
    u = rng.integers(0, n, num_ratings)
    t = rng.integers(0, t_dim, num_ratings)
    v = rng.integers(0, v_dim, num_ratings)
    c = rng.random(num_ratings) + 0.25
    state = {
        "theta": rng.dirichlet(np.ones(k1), size=n),
        "phi": rng.dirichlet(np.ones(v_dim), size=k1),
        "theta_time": rng.dirichlet(np.ones(k2), size=t_dim),
        "phi_time": rng.dirichlet(np.ones(v_dim), size=k2),
        "lambda_u": rng.random(n),
    }
    return (u, t, v, c), (n, t_dim, v_dim), (k1, k2), state


def _build_estep(config=EMEngineConfig(block_size=32), seed=11, num_ratings=200):
    triples, shape, topics, state = _random_problem(seed, num_ratings)
    kernel = TTCAMKernel(*triples, shape, *topics)
    return BlockedEStep(kernel, config), state


# ---------------------------------------------------------------------------
# Enablement
# ---------------------------------------------------------------------------


class TestEnablement:
    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no", " OFF "])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert not sanitize_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert sanitize_enabled()

    def test_unset_env_is_off(self):
        assert not sanitize_enabled()

    def test_engine_off_by_default(self):
        estep, _ = _build_estep(EMEngineConfig(block_size=64))
        assert estep._sanitize is False

    def test_engine_env_var(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        estep, _ = _build_estep(EMEngineConfig(block_size=64))
        assert estep._sanitize is True

    def test_scorer_follows_env(self, monkeypatch):
        model = _make_serving_model()
        assert BatchScorer(model, ServingCache())._sanitize is False
        monkeypatch.setenv(ENV_FLAG, "1")
        assert BatchScorer(model, ServingCache())._sanitize is True

    @pytest.mark.parametrize("armed", [False, True], ids=["off", "on"])
    def test_off_calls_no_check(self, monkeypatch, tiny_cuboid, armed):
        # Every check the engine and the scorer can call raises; off, a
        # TTCAM fit, an ITCAM fit and a batch of queries never reach one.
        calls = []

        def tripwire(*args, **kwargs):
            calls.append(args)
            raise SanitizerError("tripwire")

        for name in ("check_state", "check_finite"):
            monkeypatch.setattr(f"repro.core.engine.{name}", tripwire)
        monkeypatch.setattr("repro.recommend.serving.check_topk_finite", tripwire)
        if armed:
            monkeypatch.setenv(ENV_FLAG, "1")
        cuboid, _ = tiny_cuboid
        runs = [
            lambda: TTCAM(3, 2, max_iter=2, seed=7).fit(cuboid),
            lambda: ITCAM(3, max_iter=2, seed=7).fit(cuboid),
            lambda: TemporalRecommender(_make_serving_model()).recommend_batch(
                [(0, 0), (1, 0), (2, 3)], k=4
            ),
        ]
        for run in runs:
            before = len(calls)
            if armed:  # a sanitizer failure surfaces; it is never served degraded
                with pytest.raises(SanitizerError, match="tripwire"):
                    run()
            else:
                run()
            assert (len(calls) > before) == armed


# ---------------------------------------------------------------------------
# Check helpers
# ---------------------------------------------------------------------------


class TestCheckHelpers:
    def test_check_finite(self):
        check_finite("x", np.array([0.0, 1.0]))
        with pytest.raises(SanitizerError, match="NaN/Inf"):
            check_finite("x", np.array([0.0, np.nan]))
        with pytest.raises(SanitizerError, match="NaN/Inf"):
            check_finite("x", np.array([np.inf, 1.0]))

    def test_check_unit_interval(self):
        check_unit_interval("lam", np.array([0.0, 0.5, 1.0]))
        with pytest.raises(SanitizerError, match="unit interval"):
            check_unit_interval("lam", np.array([0.5, 1.5]))
        with pytest.raises(SanitizerError, match="unit interval"):
            check_unit_interval("lam", np.array([-0.1, 0.5]))

    def test_check_simplex(self):
        rng = np.random.default_rng(0)
        check_simplex("theta", rng.dirichlet(np.ones(5), size=8))
        with pytest.raises(SanitizerError, match="not stochastic"):
            check_simplex("theta", np.full((2, 4), 0.5))
        with pytest.raises(SanitizerError, match="negative"):
            check_simplex("theta", np.array([[1.5, -0.5]]))

    def test_check_simplex_float32_tolerance(self):
        # float32 rounding of a valid simplex must stay within tolerance.
        rng = np.random.default_rng(1)
        rows = rng.dirichlet(np.ones(64), size=16).astype(np.float32)
        check_simplex("theta", rows)

    def test_check_state_routes_by_key(self):
        _, _, _, state = _random_problem()
        check_state(state)
        bad = dict(state)
        bad["theta"] = state["theta"] * 2.0
        with pytest.raises(SanitizerError, match="theta"):
            check_state(bad)
        bad = dict(state)
        bad["lambda_u"] = state["lambda_u"] + 1.0
        with pytest.raises(SanitizerError, match="lambda_u"):
            check_state(bad)

    def test_check_topk_finite(self):
        good = TopKResult(
            recommendations=[Recommendation(item=3, score=0.5)],
            items_scored=1,
            sorted_accesses=0,
        )
        check_topk_finite([good])
        bad = TopKResult(
            recommendations=[Recommendation(item=3, score=float("nan"))],
            items_scored=1,
            sorted_accesses=0,
        )
        with pytest.raises(SanitizerError, match="non-finite"):
            check_topk_finite([good, bad])


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_sanitized_compute_is_bit_identical(self, monkeypatch):
        plain, state = _build_estep()
        monkeypatch.setenv(ENV_FLAG, "1")
        sanitized, _ = _build_estep()
        expected, expected_ll = plain.compute(state)
        stats, ll = sanitized.compute(state)
        assert ll == expected_ll
        for name, array in expected.items():
            assert np.array_equal(stats[name], array), name

    def test_clean_pass_raises_nothing(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        estep, state = _build_estep()
        estep.compute(state)
        estep.compute(state)  # buffer-reuse steady state stays clean

    def test_invalid_state_detected(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        estep, state = _build_estep()
        state["theta"] = state["theta"] * 2.0
        with pytest.raises(SanitizerError, match="theta"):
            estep.compute(state)

    def test_non_finite_stats_detected(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        estep, state = _build_estep()
        accumulate = estep.kernel.accumulate

        def poisoned(state, lo, hi, ws, stats):
            log_likelihood = accumulate(state, lo, hi, ws, stats)
            stats["lam_num"][0] = np.nan  # a valid state, a broken statistic
            return log_likelihood

        monkeypatch.setattr(estep.kernel, "accumulate", poisoned)
        with pytest.raises(SanitizerError, match=r"stats\[lam_num\]"):
            estep.compute(state)

    def test_sanitized_fit_matches_plain_fit(self, tiny_cuboid, monkeypatch):
        cuboid, _ = tiny_cuboid
        engine = EMEngineConfig(block_size=64)
        plain = TTCAM(3, 2, max_iter=3, tol=-1.0, seed=7, engine=engine).fit(cuboid)
        monkeypatch.setenv(ENV_FLAG, "1")
        sanitized = TTCAM(3, 2, max_iter=3, tol=-1.0, seed=7, engine=engine).fit(cuboid)
        assert np.array_equal(plain.params_.theta, sanitized.params_.theta)
        assert np.array_equal(plain.params_.phi, sanitized.params_.phi)
        assert np.array_equal(plain.params_.lambda_u, sanitized.params_.lambda_u)


# ---------------------------------------------------------------------------
# Serving integration
# ---------------------------------------------------------------------------


def _make_serving_model(seed=5):
    rng = np.random.default_rng(seed)
    params = TTCAMParameters(
        theta=rng.dirichlet(np.full(3, 0.4), size=8),
        phi=rng.dirichlet(np.full(30, 0.1), size=3),
        theta_time=rng.dirichlet(np.full(2, 0.4), size=4),
        phi_time=rng.dirichlet(np.full(30, 0.1), size=2),
        lambda_u=rng.beta(3.0, 3.0, size=8),
    )
    return LoadedModel(params)


class TestServingIntegration:
    def test_serve_group_flags_non_finite_scores(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        scorer = BatchScorer(_make_serving_model(), ServingCache())
        assert scorer._sanitize is True
        bad = TopKResult(
            recommendations=[Recommendation(item=0, score=float("nan"))],
            items_scored=1,
            sorted_accesses=0,
        )
        monkeypatch.setattr(
            "repro.recommend.serving.ranked_rows",
            lambda rows, items, scores, k, items_scored: [bad] * items_scored.size,
        )
        with pytest.raises(SanitizerError, match="non-finite"):
            scorer.serve_group(0, [0, 1], 3, None, "float64")

    def test_serve_group_unsanitized_does_not_check(self, monkeypatch):
        scorer = BatchScorer(_make_serving_model(), ServingCache())
        assert scorer._sanitize is False
        bad = TopKResult(
            recommendations=[Recommendation(item=0, score=float("nan"))],
            items_scored=1,
            sorted_accesses=0,
        )
        monkeypatch.setattr(
            "repro.recommend.serving.ranked_rows",
            lambda rows, items, scores, k, items_scored: [bad] * items_scored.size,
        )
        results = scorer.serve_group(0, [0], 3, None, "float64")
        assert results == [bad]

    def test_non_finite_primary_raises_despite_a_fallback(self, monkeypatch):
        # The fallback could answer every row; the primary's non-finite
        # score must still raise instead of being served as degraded.
        monkeypatch.setenv(ENV_FLAG, "1")
        model = _make_serving_model()
        bad = TopKResult(
            recommendations=[Recommendation(item=0, score=float("nan"))],
            items_scored=1,
            sorted_accesses=0,
        )
        monkeypatch.setattr(
            "repro.recommend.serving.ranked_rows",
            lambda rows, items, scores, k, items_scored: [bad] * items_scored.size,
        )
        recommender = TemporalRecommender(model, fallbacks=[_make_serving_model(seed=6)])
        with pytest.raises(SanitizerError, match="non-finite"):
            recommender.recommend_batch([(0, 0), (1, 2)], k=3)

    def test_clean_serving_passes_under_sanitizer(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        scorer = BatchScorer(_make_serving_model(), ServingCache())
        results = scorer.serve_group(1, [0, 3, 5], 4, None, "float64")
        assert len(results) == 3
        for result in results:
            assert len(result.items) == 4
