"""Snapshot publication: health gate, rollback, zero-downtime swaps."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.params import TTCAMParameters
from repro.core.serialize import LoadedModel, save_params
from repro.recommend.recommender import TemporalRecommender
from repro.streaming import SnapshotPublisher

pytestmark = pytest.mark.faults


def perturbed(params, seed):
    """A slightly different but healthy parameter set (same dimensions)."""
    rng = np.random.default_rng(seed)
    theta = params.theta * (1.0 + 0.01 * rng.random(params.theta.shape))
    theta /= theta.sum(axis=1, keepdims=True)
    return TTCAMParameters(
        theta=theta,
        phi=params.phi,
        theta_time=params.theta_time,
        phi_time=params.phi_time,
        lambda_u=params.lambda_u,
    )


@pytest.fixture()
def recommender(stream_base):
    return TemporalRecommender(LoadedModel(stream_base))


class TestGate:
    def test_healthy_snapshot_publishes_and_bumps_generation(
        self, stream_base, recommender
    ):
        publisher = SnapshotPublisher(recommender)
        result = publisher.publish(perturbed(stream_base, 1))
        assert result.published
        assert result.generation == 1
        assert recommender.generation == 1
        assert recommender.swap_count == 1

    def test_probe_outside_snapshot_is_rejected(self, stream_base, recommender):
        publisher = SnapshotPublisher(
            recommender, probes=((stream_base.num_users + 7, 0),)
        )
        result = publisher.publish(perturbed(stream_base, 2))
        assert not result.published
        assert "probe user" in result.reason
        assert recommender.generation == 0
        assert recommender.rollback_count == 1

    def test_corrupt_snapshot_file_is_rejected_not_raised(
        self, stream_base, recommender, tmp_path
    ):
        path = save_params(perturbed(stream_base, 3), tmp_path / "snap.npz")
        path.write_bytes(path.read_bytes()[:100])  # truncate the archive
        publisher = SnapshotPublisher(recommender)
        result = publisher.publish_file(path)
        assert not result.published
        assert "snapshot rejected" in result.reason
        assert recommender.rollback_count == 1
        # Serving never went down.
        assert recommender.recommend(0, 0, k=3).recommendations

    def test_missing_snapshot_file_is_rejected(self, recommender, tmp_path):
        result = SnapshotPublisher(recommender).publish_file(tmp_path / "nope.npz")
        assert not result.published

    def test_good_snapshot_file_publishes(self, stream_base, recommender, tmp_path):
        path = save_params(perturbed(stream_base, 4), tmp_path / "snap.npz")
        result = SnapshotPublisher(recommender).publish_file(path)
        assert result.published
        assert recommender.generation == 1

    def test_mmap_snapshot_publishes_store_backed_model(
        self, stream_base, recommender, tmp_path
    ):
        candidate = perturbed(stream_base, 6)
        path = save_params(candidate, tmp_path / "snap.npz", mmap_layout=True)
        result = SnapshotPublisher(recommender).publish_file(path)
        assert result.published
        model = recommender.model
        assert model.param_store is not None
        np.testing.assert_array_equal(model.params_.theta, candidate.theta)
        assert recommender.recommend(0, 0, k=3).recommendations

    def test_drift_escalation_is_counted(self, stream_base, recommender):
        publisher = SnapshotPublisher(recommender)
        publisher.publish(perturbed(stream_base, 5), drift=True)
        assert recommender.drift_count == 1
        _, status = recommender.recommend_with_status(0, 0, k=3)
        assert status.drift_events == 1
        assert status.swaps == 1


class TestRevert:
    def test_revert_restores_previous_snapshot(self, stream_base, recommender):
        publisher = SnapshotPublisher(recommender)
        first = perturbed(stream_base, 6)
        second = perturbed(stream_base, 7)
        publisher.publish(first)
        publisher.publish(second)
        result = publisher.revert()
        assert result.published
        model = recommender.model
        assert isinstance(model, LoadedModel)
        np.testing.assert_array_equal(model.params_.theta, first.theta)
        assert recommender.rollback_count == 1
        assert recommender.generation == 3  # revert is itself a swap

    def test_revert_without_history_fails_safely(self, recommender):
        publisher = SnapshotPublisher(recommender)
        result = publisher.revert()
        assert not result.published
        assert recommender.generation == 0


class TestHotSwapUnderLoad:
    def test_concurrent_batches_see_single_consistent_generations(
        self, stream_base, recommender
    ):
        """The zero-downtime contract: swaps mid-traffic drop nothing.

        Four reader threads hammer ``recommend_batch_with_status`` while
        the main thread publishes ten fresh generations. Every batch
        must come back complete (no dropped queries) and every row of a
        batch must carry the *same* generation (no torn batches).
        """
        publisher = SnapshotPublisher(recommender)
        queries = [(u, t) for u in range(6) for t in range(3)]
        errors: list[BaseException] = []
        torn: list[tuple[int, ...]] = []
        dropped: list[int] = []
        generations_seen: set[int] = set()
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    results, statuses = recommender.recommend_batch_with_status(
                        queries, k=3
                    )
                    if len(results) != len(queries) or any(
                        not r.recommendations for r in results
                    ):
                        dropped.append(len(results))
                    batch_generations = {s.generation for s in statuses}
                    if len(batch_generations) != 1:
                        torn.append(tuple(sorted(batch_generations)))
                    generations_seen.update(batch_generations)
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for seed in range(10):
                result = publisher.publish(perturbed(stream_base, 100 + seed))
                assert result.published
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, f"readers raised: {errors!r}"
        assert not torn, f"mixed-generation batches observed: {torn!r}"
        assert not dropped, f"incomplete batches observed: {dropped!r}"
        assert recommender.swap_count == 10
        # Readers observed some subset of the published generation line.
        assert generations_seen <= set(range(11))
