"""Tests for the UT baseline."""

import numpy as np
import pytest

from repro.baselines.usertopic import UserTopicModel
import tests.conftest as c


@pytest.fixture(scope="module")
def fitted():
    cuboid, truth = c.generate(c.tiny_config())
    model = UserTopicModel(num_topics=4, max_iter=25, seed=0).fit(cuboid)
    return model, cuboid


class TestValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            UserTopicModel(num_topics=0)
        with pytest.raises(ValueError):
            UserTopicModel(background_weight=1.0)
        with pytest.raises(ValueError):
            UserTopicModel(background_weight=-0.1)

    @pytest.mark.parametrize(
        "bad", [dict(max_iter=0), dict(max_iter=-3), dict(smoothing=-1.0)]
    )
    def test_rejects_bad_em_controls(self, bad):
        # Same checks, same messages as the core models: max_iter=0 used
        # to "fit" and return the random initialisation with an empty trace.
        with pytest.raises(ValueError, match=next(iter(bad))):
            UserTopicModel(**bad)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            UserTopicModel().score_items(0)


class TestFit:
    def test_log_likelihood_monotone(self, fitted):
        model, _ = fitted
        assert model.trace_.is_monotone(slack=1e-6)

    def test_background_is_item_popularity(self, fitted):
        model, cuboid = fitted
        popularity = cuboid.item_popularity()
        np.testing.assert_allclose(
            model.background_, popularity / popularity.sum()
        )

    def test_parameters_stochastic(self, fitted):
        model, _ = fitted
        np.testing.assert_allclose(model.theta_.sum(axis=1), 1.0)
        np.testing.assert_allclose(model.phi_.sum(axis=1), 1.0)


class TestScoring:
    def test_scores_form_distribution(self, fitted):
        model, _ = fitted
        scores = model.score_items(0)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores >= 0)

    def test_interval_is_ignored(self, fitted):
        model, _ = fitted
        np.testing.assert_array_equal(
            model.score_items(3, 0), model.score_items(3, 7)
        )

    def test_scores_are_personalised(self, fitted):
        model, _ = fitted
        assert not np.allclose(model.score_items(0), model.score_items(1))

    def test_pure_background_when_weight_high(self):
        cuboid, _ = c.generate(c.tiny_config())
        model = UserTopicModel(
            num_topics=2, background_weight=0.99, max_iter=5, seed=0
        ).fit(cuboid)
        # Scores are ~99% the shared background: users nearly identical.
        diff = np.abs(model.score_items(0) - model.score_items(1)).max()
        assert diff < 0.02
