"""Graceful serving degradation (acceptance c).

A truncated/corrupt snapshot, or a query outside the fitted model's
range, must be answered by the fallback chain with a degraded
:class:`ServingStatus` — not an exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GlobalPopularity
from repro.core import TTCAM, save_params
from repro.recommend import TemporalRecommender
from repro.robustness import (
    ServingUnavailableError,
    SnapshotCorruptError,
    truncate_file,
)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def fitted(tiny_cuboid):
    cuboid, _ = tiny_cuboid
    model = TTCAM(num_user_topics=3, num_time_topics=3, max_iter=15, seed=7)
    return model.fit(cuboid), cuboid


@pytest.fixture
def snapshot(fitted, tmp_path):
    model, _ = fitted
    return save_params(model.params_, tmp_path / "model.npz")


@pytest.fixture
def popularity(fitted):
    _, cuboid = fitted
    return GlobalPopularity().fit(cuboid)


class TestHealthySnapshot:
    def test_primary_serves_with_clean_status(self, snapshot, popularity):
        recommender = TemporalRecommender.from_snapshot(
            snapshot, fallbacks=[popularity]
        )
        result, status = recommender.recommend_with_status(user=0, interval=0, k=5)
        assert len(result.recommendations) == 5
        assert not status.degraded
        assert status.served_by == "Loaded-TTCAM"
        assert status.reason is None
        assert recommender.last_status is status


class TestTruncatedSnapshot:
    def test_degrades_to_fallback_not_exception(self, snapshot, popularity):
        truncate_file(snapshot, keep_fraction=0.4)
        recommender = TemporalRecommender.from_snapshot(
            snapshot, fallbacks=[popularity]
        )
        result, status = recommender.recommend_with_status(user=0, interval=0, k=5)
        assert len(result.recommendations) == 5
        assert status.degraded
        assert status.served_by == "Popularity"
        assert "snapshot unusable" in status.reason

    def test_without_fallback_the_error_propagates(self, snapshot):
        truncate_file(snapshot, keep_fraction=0.4)
        with pytest.raises(SnapshotCorruptError):
            TemporalRecommender.from_snapshot(snapshot)

    def test_tampered_snapshot_fails_checksum_and_degrades(
        self, snapshot, popularity
    ):
        raw = bytearray(snapshot.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        snapshot.write_bytes(bytes(raw))
        recommender = TemporalRecommender.from_snapshot(
            snapshot, fallbacks=[popularity]
        )
        _, status = recommender.recommend_with_status(user=0, interval=0)
        assert status.degraded


class TestOutOfRangeQueries:
    def test_unknown_user_falls_back(self, snapshot, popularity):
        recommender = TemporalRecommender.from_snapshot(
            snapshot, fallbacks=[popularity]
        )
        _, status = recommender.recommend_with_status(user=10_000, interval=0, k=3)
        assert status.degraded
        assert "unknown user" in status.reason
        assert status.attempted == ("Loaded-TTCAM",)

    def test_unknown_interval_falls_back(self, snapshot, popularity):
        recommender = TemporalRecommender.from_snapshot(
            snapshot, fallbacks=[popularity]
        )
        _, status = recommender.recommend_with_status(user=0, interval=10_000, k=3)
        assert status.degraded
        assert "unknown interval" in status.reason

    def test_unknown_user_without_fallback_is_unavailable(self, snapshot):
        recommender = TemporalRecommender.from_snapshot(snapshot)
        with pytest.raises(ServingUnavailableError, match="unknown user"):
            recommender.recommend(user=10_000, interval=0)


class TestFallbackChain:
    class _Broken:
        """A fallback that always fails, to exercise chain traversal."""

        name = "Broken"

        def score_items(self, user, interval):
            raise RuntimeError("down for maintenance")

    def test_chain_skips_broken_links(self, snapshot, popularity):
        truncate_file(snapshot, keep_fraction=0.4)
        recommender = TemporalRecommender.from_snapshot(
            snapshot, fallbacks=[self._Broken(), popularity]
        )
        _, status = recommender.recommend_with_status(user=0, interval=0)
        assert status.degraded
        assert status.served_by == "Popularity"
        assert "Broken" in status.attempted

    def test_everything_down_raises_unavailable(self, snapshot):
        truncate_file(snapshot, keep_fraction=0.4)
        recommender = TemporalRecommender.from_snapshot(
            snapshot, fallbacks=[self._Broken()]
        )
        with pytest.raises(ServingUnavailableError):
            recommender.recommend(user=0, interval=0)

    def test_no_model_and_no_fallback_is_rejected_upfront(self):
        with pytest.raises(ValueError, match="fallback"):
            TemporalRecommender(None)

    def test_fallback_scores_are_ranked(self, fitted, popularity):
        model, _ = fitted
        recommender = TemporalRecommender(model, fallbacks=[popularity])
        result, status = recommender.recommend_with_status(
            user=10_000, interval=0, k=5
        )
        scores = [rec.score for rec in result.recommendations]
        assert scores == sorted(scores, reverse=True)
        expected = np.sort(popularity.score_items(10_000, 0))[::-1][:5]
        np.testing.assert_allclose(scores, expected)

