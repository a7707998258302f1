"""Tests for the time-evolving-interests extension."""

import numpy as np
import pytest

from repro.core.ttcam import TTCAM
from repro.extensions.drift import DriftTTCAM, drift_interests, generate_drifting
import tests.conftest as c


@pytest.fixture(scope="module")
def drifting_world():
    config = c.tiny_config(num_users=150, mean_ratings_per_user=35, seed=41)
    cuboid, truths, trajectory = generate_drifting(config, num_epochs=3, drift_rate=0.6)
    return config, cuboid, truths, trajectory


class TestDriftInterests:
    def test_shape_and_normalisation(self, rng):
        theta = rng.dirichlet(np.ones(4), size=10)
        path = drift_interests(theta, num_epochs=5, drift_rate=0.4, rng=rng)
        assert path.shape == (5, 10, 4)
        np.testing.assert_allclose(path.sum(axis=2), 1.0)
        np.testing.assert_allclose(path[0], theta)

    def test_zero_drift_is_constant(self, rng):
        theta = rng.dirichlet(np.ones(4), size=6)
        path = drift_interests(theta, num_epochs=4, drift_rate=0.0, rng=rng)
        for e in range(4):
            np.testing.assert_allclose(path[e], theta)

    def test_drift_increases_with_rate(self, rng):
        theta = rng.dirichlet(np.ones(4), size=50)
        slow = drift_interests(theta, 4, 0.1, np.random.default_rng(1))
        fast = drift_interests(theta, 4, 0.8, np.random.default_rng(1))
        slow_move = np.abs(slow[-1] - slow[0]).mean()
        fast_move = np.abs(fast[-1] - fast[0]).mean()
        assert fast_move > slow_move

    def test_validation(self, rng):
        theta = rng.dirichlet(np.ones(3), size=4)
        with pytest.raises(ValueError):
            drift_interests(theta, 0, 0.5, rng)
        with pytest.raises(ValueError):
            drift_interests(theta, 3, 1.5, rng)


class TestGenerateDrifting:
    def test_epochs_tile_the_timeline(self, drifting_world):
        config, cuboid, truths, trajectory = drifting_world
        assert cuboid.num_intervals == 3 * config.num_intervals
        assert len(truths) == 3
        assert trajectory.shape[0] == 3
        # Every epoch produced some data.
        epochs = cuboid.intervals // config.num_intervals
        assert set(np.unique(epochs)) == {0, 1, 2}

    def test_truths_carry_drifted_theta(self, drifting_world):
        _, _, truths, trajectory = drifting_world
        for e, truth in enumerate(truths):
            np.testing.assert_allclose(truth.theta, trajectory[e])


class TestDriftTTCAM:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftTTCAM(epoch_length=0)
        with pytest.raises(ValueError):
            DriftTTCAM(epoch_length=4, epoch_coupling=-1.0)
        with pytest.raises(RuntimeError):
            DriftTTCAM(epoch_length=4).score_items(0, 0)

    def test_rejects_zero_topics(self):
        # Used to die mid-fit with a numpy UFuncTypeError.
        with pytest.raises(ValueError, match="num_user_topics"):
            DriftTTCAM(4, 0, 2)

    def test_rejects_zero_max_iter(self):
        # Used to "fit" to the random initialisation with an empty trace.
        with pytest.raises(ValueError, match="max_iter"):
            DriftTTCAM(4, max_iter=0)

    def test_fit_monotone(self, drifting_world):
        config, cuboid, _, _ = drifting_world
        model = DriftTTCAM(
            epoch_length=config.num_intervals, num_user_topics=4, num_time_topics=3,
            max_iter=20, seed=0,
        ).fit(cuboid)
        assert model.trace_.is_monotone(slack=1e-6)
        assert model.num_epochs_ == 3

    def test_scores_form_distribution(self, drifting_world):
        config, cuboid, _, _ = drifting_world
        model = DriftTTCAM(
            epoch_length=config.num_intervals, num_user_topics=4, num_time_topics=3,
            max_iter=15, seed=0,
        ).fit(cuboid)
        scores = model.score_items(0, 5)
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)
        weights, matrix = model.query_space(0, 5)
        np.testing.assert_allclose(weights @ matrix, scores, atol=1e-12)

    def test_interest_trajectory_shape(self, drifting_world):
        config, cuboid, _, _ = drifting_world
        model = DriftTTCAM(
            epoch_length=config.num_intervals, num_user_topics=4, num_time_topics=3,
            max_iter=15, seed=0,
        ).fit(cuboid)
        path = model.interest_trajectory(2)
        assert path.shape == (3, 4)
        np.testing.assert_allclose(path.sum(axis=1), 1.0, atol=1e-9)

    def test_tracks_drift_better_than_static(self, drifting_world):
        """Per-epoch interests should track a user's drifting ground truth
        better than one static interest vector."""
        from repro.analysis.topics import match_topics

        config, cuboid, truths, trajectory = drifting_world
        drifty = DriftTTCAM(
            epoch_length=config.num_intervals, num_user_topics=4, num_time_topics=3,
            max_iter=40, seed=0,
        ).fit(cuboid)
        static = TTCAM(4, 3, max_iter=40, seed=0).fit(cuboid)

        # Align fitted user topics with the generator's topics.
        assignment, _ = match_topics(drifty.phi_, truths[0].phi)

        def epoch_correlation(theta_fit, epoch):
            """Mean per-user correlation with the true epoch interests."""
            true = trajectory[epoch]
            remapped = np.zeros_like(true)
            for fitted_z, true_z in enumerate(assignment):
                if true_z >= 0:
                    remapped[:, true_z] = theta_fit[:, fitted_z]
            rows = [
                np.corrcoef(remapped[u], true[u])[0, 1]
                for u in range(true.shape[0])
                if true[u].std() > 0 and remapped[u].std() > 0
            ]
            return float(np.mean(rows))

        drift_score = np.mean(
            [epoch_correlation(drifty.theta_[e], e) for e in range(3)]
        )
        assignment_static, _ = match_topics(static.params_.phi, truths[0].phi)
        assignment = assignment_static  # reuse helper with static mapping
        static_score = np.mean(
            [epoch_correlation(static.params_.theta, e) for e in range(3)]
        )
        assert drift_score > static_score

    def test_coupling_smooths_trajectories(self, drifting_world):
        config, cuboid, _, _ = drifting_world
        loose = DriftTTCAM(
            epoch_length=config.num_intervals, num_user_topics=4, num_time_topics=3,
            epoch_coupling=0.0, max_iter=25, seed=0,
        ).fit(cuboid)
        stiff = DriftTTCAM(
            epoch_length=config.num_intervals, num_user_topics=4, num_time_topics=3,
            epoch_coupling=2.0, max_iter=25, seed=0,
        ).fit(cuboid)

        def roughness(model):
            return float(np.abs(np.diff(model.theta_, axis=0)).mean())

        assert roughness(stiff) < roughness(loose)
