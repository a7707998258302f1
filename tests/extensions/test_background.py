"""Tests for the background-smoothed TCAM extension."""

import numpy as np
import pytest

from repro.extensions.background import BackgroundTTCAM
import tests.conftest as c


@pytest.fixture(scope="module")
def fitted():
    cuboid, truth = c.generate(c.tiny_config(noise_fraction=0.3, seed=8))
    model = BackgroundTTCAM(
        num_user_topics=4, num_time_topics=3, background_weight=0.15, max_iter=25, seed=0
    ).fit(cuboid)
    return model, cuboid, truth


class TestValidation:
    def test_rejects_bad_background_weight(self):
        with pytest.raises(ValueError):
            BackgroundTTCAM(background_weight=1.0)
        with pytest.raises(ValueError):
            BackgroundTTCAM(background_weight=-0.1)

    def test_rejects_bad_topic_counts(self):
        with pytest.raises(ValueError):
            BackgroundTTCAM(num_user_topics=0)

    def test_rejects_zero_max_iter(self):
        # Used to "fit" to the random initialisation with an empty trace.
        with pytest.raises(ValueError, match="max_iter"):
            BackgroundTTCAM(max_iter=0)

    def test_rejects_negative_smoothing(self):
        # Used to die mid-fit with a non-finite log likelihood.
        with pytest.raises(ValueError, match="smoothing"):
            BackgroundTTCAM(smoothing=-1.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BackgroundTTCAM().score_items(0, 0)
        with pytest.raises(RuntimeError):
            BackgroundTTCAM().query_space(0, 0)


class TestFit:
    def test_log_likelihood_monotone(self, fitted):
        model, _, _ = fitted
        assert model.trace_.is_monotone(slack=1e-6)

    def test_parameters_stochastic(self, fitted):
        model, _, _ = fitted
        params = model.params_
        np.testing.assert_allclose(params.theta.sum(axis=1), 1.0)
        np.testing.assert_allclose(params.phi_time.sum(axis=1), 1.0)

    def test_background_fixed_to_popularity(self, fitted):
        model, cuboid, _ = fitted
        popularity = cuboid.item_popularity()
        np.testing.assert_allclose(model.background_, popularity / popularity.sum())


class TestScoring:
    def test_scores_form_distribution(self, fitted):
        model, _, _ = fitted
        scores = model.score_items(0, 1)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores >= 0)

    def test_query_space_matches_score_items(self, fitted):
        model, _, _ = fitted
        weights, matrix = model.query_space(3, 5)
        np.testing.assert_allclose(weights @ matrix, model.score_items(3, 5), atol=1e-12)

    def test_query_space_has_background_row(self, fitted):
        model, _, _ = fitted
        weights, matrix = model.query_space(0, 0)
        assert weights.shape == (4 + 3 + 1,)
        assert weights[-1] == pytest.approx(0.15)
        np.testing.assert_allclose(matrix[-1], model.background_)

    def test_matrix_cache_key_static(self, fitted):
        model, _, _ = fitted
        assert model.matrix_cache_key(0) == model.matrix_cache_key(7)

    def test_works_with_recommender(self, fitted):
        from repro.recommend import TemporalRecommender

        model, _, _ = fitted
        rec = TemporalRecommender(model)
        bf = rec.recommend(0, 0, k=5, method="bf")
        ta = rec.recommend(0, 0, k=5, method="ta")
        np.testing.assert_allclose(sorted(bf.scores), sorted(ta.scores), atol=1e-12)

    def test_name(self):
        assert BackgroundTTCAM().name == "BG-TTCAM"
