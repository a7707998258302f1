"""Shared fixtures: small, fast synthetic datasets reused across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.data import RatingCuboid, Rating, generate, holdout_split
from repro.data.synthetic import SyntheticConfig, auto_events


#: ``HYPOTHESIS_PROFILE=deep`` runs ten times Hypothesis's default example
#: budget; tests that scale their own counts with it (``examples`` in
#: ``tests/recommend/test_block_select.py``) run ten times theirs.
settings.register_profile("deep", max_examples=10 * settings.get_profile("default").max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def tiny_config(**overrides) -> SyntheticConfig:
    """A small but structured dataset config for fast model tests."""
    defaults = dict(
        name="tiny",
        num_users=120,
        num_items=80,
        num_intervals=12,
        num_user_topics=4,
        events=auto_events(3, 12, rng_seed=5, width=1.0, num_items=5),
        lambda_alpha=3.0,
        lambda_beta=3.0,
        mean_ratings_per_user=25.0,
        topic_sparsity=0.05,
        popularity_exponent=1.0,
        popularity_offset=5.0,
        popular_leak=0.2,
        noise_fraction=0.1,
        item_lifecycle=3.0,
        seed=3,
    )
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


@pytest.fixture(scope="session")
def tiny_cuboid():
    """Session-shared small cuboid with ground truth."""
    cuboid, truth = generate(tiny_config())
    return cuboid, truth


@pytest.fixture(scope="session")
def tiny_split(tiny_cuboid):
    """Session-shared 80/20 split of the tiny cuboid."""
    cuboid, _ = tiny_cuboid
    return holdout_split(cuboid, seed=1)


@pytest.fixture
def handmade_cuboid():
    """A fully hand-specified cuboid for exact-value assertions.

    Layout (user, interval, item, score):
      u0: (0,0,0,1) (0,0,1,2) (0,1,0,1)
      u1: (1,0,1,1) (1,1,2,3)
      u2: (2,1,2,1)
    Dimensions: N=3, T=2, V=3.
    """
    return RatingCuboid.from_arrays(
        users=[0, 0, 0, 1, 1, 2],
        intervals=[0, 0, 1, 0, 1, 1],
        items=[0, 1, 0, 1, 2, 2],
        scores=[1.0, 2.0, 1.0, 1.0, 3.0, 1.0],
        num_users=3,
        num_intervals=2,
        num_items=3,
    )


@pytest.fixture
def simple_ratings():
    """Small list of labelled Rating records."""
    return [
        Rating("alice", 0, "pizza", 1.0),
        Rating("alice", 0, "sushi", 2.0),
        Rating("alice", 1, "pizza", 1.0),
        Rating("bob", 0, "sushi", 1.0),
        Rating("bob", 1, "tacos", 3.0),
        Rating("carol", 1, "tacos", 1.0),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(42)
