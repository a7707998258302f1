"""Tests for the TT baseline."""

import numpy as np
import pytest

from repro.baselines.timetopic import TimeTopicModel
import tests.conftest as c


@pytest.fixture(scope="module")
def fitted():
    cuboid, truth = c.generate(c.tiny_config())
    model = TimeTopicModel(num_topics=4, max_iter=25, seed=0).fit(cuboid)
    return model, cuboid, truth


class TestValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TimeTopicModel(num_topics=0)
        with pytest.raises(ValueError):
            TimeTopicModel(background_weight=1.5)

    @pytest.mark.parametrize(
        "bad", [dict(max_iter=0), dict(max_iter=-3), dict(smoothing=-1.0)]
    )
    def test_rejects_bad_em_controls(self, bad):
        # Same checks, same messages as the core models: max_iter=0 used
        # to "fit" and return the random initialisation with an empty trace.
        with pytest.raises(ValueError, match=next(iter(bad))):
            TimeTopicModel(**bad)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            TimeTopicModel().score_items(0, 0)
        with pytest.raises(RuntimeError):
            TimeTopicModel().topic_activity()


class TestFit:
    def test_log_likelihood_monotone(self, fitted):
        model, _, _ = fitted
        assert model.trace_.is_monotone(slack=1e-6)

    def test_parameters_stochastic(self, fitted):
        model, _, _ = fitted
        np.testing.assert_allclose(model.theta_time_.sum(axis=1), 1.0)
        np.testing.assert_allclose(model.phi_time_.sum(axis=1), 1.0)

    def test_topic_activity_shape(self, fitted):
        model, cuboid, _ = fitted
        activity = model.topic_activity()
        assert activity.shape == (4, cuboid.num_intervals)
        np.testing.assert_allclose(activity.sum(axis=0), 1.0)


class TestScoring:
    def test_scores_form_distribution(self, fitted):
        model, _, _ = fitted
        scores = model.score_items(0, 3)
        assert scores.sum() == pytest.approx(1.0)

    def test_user_is_ignored(self, fitted):
        model, _, _ = fitted
        np.testing.assert_array_equal(
            model.score_items(0, 3), model.score_items(42, 3)
        )

    def test_scores_vary_with_interval(self, fitted):
        model, _, truth = fitted
        peaks = [event.peak for event in truth.config.events]
        assert not np.allclose(
            model.score_items(0, peaks[0]), model.score_items(0, peaks[1])
        )

    def test_event_items_rank_high_at_their_peak(self, fitted):
        """At an event's peak the model should boost that event's items."""
        model, cuboid, truth = fitted
        name = truth.event_names[0]
        event = truth.config.events[0]
        dedicated = truth.event_items[name]
        scores = model.score_items(0, event.peak)
        ranks = np.argsort(-scores)
        positions = [int(np.where(ranks == v)[0][0]) for v in dedicated]
        # At least one dedicated item in the global top-10.
        assert min(positions) < 10
