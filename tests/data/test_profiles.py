"""Tests for the four dataset profiles (Table 2 substitutes)."""

import numpy as np
import pytest

from repro.data import generate, profile
from repro.data.profiles import PROFILES


class TestProfiles:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profile_generates(self, name):
        cuboid, truth = generate(profile(name, scale=0.2))
        assert cuboid.nnz > 0
        assert truth.config.name == name

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError, match="unknown profile"):
            profile("netflix")

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_scale_raises(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            profile("digg", scale=scale)

    def test_scale_grows_users(self):
        small = profile("digg", scale=0.2)
        large = profile("digg", scale=0.5)
        assert large.num_users > small.num_users
        assert large.num_items > small.num_items

    def test_seed_override(self):
        default = profile("digg", scale=0.2)
        other = profile("digg", scale=0.2, seed=99)
        assert default.seed != other.seed

    def test_table2_relative_shapes(self):
        """Relative dataset characteristics follow Table 2 in spirit."""
        digg = profile("digg")
        movielens = profile("movielens")
        douban = profile("douban")
        delicious = profile("delicious")
        # Douban's catalogue is the largest movie catalogue.
        assert douban.num_items > movielens.num_items
        # Delicious has the largest vocabulary of all.
        assert delicious.num_items >= douban.num_items
        # Digg and MovieLens are user-heavy.
        assert digg.num_users > digg.num_items
        assert movielens.num_users > movielens.num_items

    def test_time_sensitivity_contrast(self):
        """News-like platforms are context-driven, movie-like interest-driven."""
        digg = profile("digg")
        movielens = profile("movielens")
        digg_mean_lambda = digg.lambda_alpha / (digg.lambda_alpha + digg.lambda_beta)
        ml_mean_lambda = movielens.lambda_alpha / (
            movielens.lambda_alpha + movielens.lambda_beta
        )
        assert digg_mean_lambda < 0.5 < ml_mean_lambda
        # News items die quickly; movies do not.
        assert digg.item_lifecycle < 5
        assert not np.isfinite(movielens.item_lifecycle)

    def test_delicious_ships_named_events(self):
        config = profile("delicious")
        names = {event.name for event in config.events}
        assert "michaeljackson" in names
        assert "swineflu" in names

    def test_douban_ships_release_cohorts(self):
        config = profile("douban")
        names = [event.name for event in config.events]
        assert "y2007" in names and "y2010" in names

    def test_movie_profiles_use_explicit_scores(self):
        assert profile("movielens").explicit_scores
        assert profile("douban").explicit_scores
        assert not profile("digg").explicit_scores

    def test_one_rating_per_story_on_digg(self):
        cuboid, _ = generate(profile("digg", scale=0.2))
        pairs = cuboid.users * cuboid.num_items + cuboid.items
        assert len(np.unique(pairs)) == len(pairs)

    def test_delicious_engagement_counts(self):
        cuboid, _ = generate(profile("delicious", scale=0.2))
        # Tag reuse inflates some scores beyond 1.
        assert cuboid.scores.max() > 1.0
