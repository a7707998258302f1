"""Dataset profiles mimicking the four evaluation corpora (Table 2).

Each profile builds a :class:`~repro.data.synthetic.SyntheticConfig` whose
character matches the corresponding real dataset:

============  =======================  ==========================================
profile       real counterpart         character captured
============  =======================  ==========================================
``digg``      Digg 2009 news votes     time-sensitive items with short life
                                       cycles, public attention dominates
                                       (``λ_u ~ Beta(2,3)``), one vote per story,
                                       user-heavy (Digg: 139k users / 3.5k items)
``movielens`` MovieLens-10M            stable tastes dominate (``λ ~ Beta(8,2)``),
                                       explicit 1–5 stars, long item life cycles,
                                       one rating per movie
``douban``    Douban Movie crawl       movie tastes + release-year cohorts as the
                                       time-oriented structure; largest catalogue
                                       relative to its user base
``delicious`` Delicious tagging        repeated tag use (engagement counts),
                                       heavy-tailed vocabulary, named news events
                                       ("swine flu"-style bursts)
============  =======================  ==========================================

Absolute sizes are scaled down from the paper's multi-million-rating
crawls to laptop scale; ``scale`` grows or shrinks the user base (and
with it the rating volume) coherently. The user:item ratio of each
profile follows the corresponding row of Table 2 in spirit: Digg and
MovieLens are strongly user-heavy, Douban and Delicious item-heavy.

All profiles include the real-data features the models must cope with:
item arrival/decay life cycles, a Zipf–Mandelbrot popularity head,
popularity-driven noise ratings, and (for implicit-feedback platforms)
engagement-count inflation on popular items.
"""

from __future__ import annotations

import math
from typing import Callable

from .synthetic import EventSpec, SyntheticConfig, auto_events


def _scaled(value: int, scale: float, minimum: int = 20) -> int:
    return max(int(round(value * scale)), minimum)


def digg_profile(scale: float = 1.0, seed: int = 7) -> SyntheticConfig:
    """News aggregator: short life cycles, temporal context dominates.

    ``λ_u ~ Beta(2, 3)`` puts most users below 0.5 personal-interest
    influence, matching Figure 11's finding that >70% of Digg users have
    temporal-context influence above 0.5. Stories live ~2.5 intervals
    (≈1 week at the 3-day granularity) and each user diggs a story at
    most once.
    """
    num_intervals = 60  # ~6 months of 3-day buckets
    events = auto_events(
        count=14,
        num_intervals=num_intervals,
        rng_seed=seed,
        width=1.5,
        num_items=8,
    )
    return SyntheticConfig(
        name="digg",
        num_users=_scaled(1200, scale),
        num_items=_scaled(600, scale, minimum=200),
        num_intervals=num_intervals,
        num_user_topics=8,
        events=events,
        lambda_alpha=2.0,
        lambda_beta=3.0,
        mean_ratings_per_user=40.0,
        topic_sparsity=0.02,
        popularity_exponent=1.1,
        popularity_offset=25.0,
        popular_leak=0.3,
        noise_fraction=0.15,
        item_lifecycle=2.5,
        distinct_items=True,
        item_prefix="story",
        seed=seed,
    )


def movielens_profile(scale: float = 1.0, seed: int = 11) -> SyntheticConfig:
    """Movie ratings: intrinsic taste dominates, explicit 1–5 scores.

    ``λ_u ~ Beta(8, 2)`` concentrates mixing weights above 0.8, matching
    Figure 10 (personal-interest influence > 0.82 for >76% of users).
    Movies have long life cycles (classics stay alive), and each user
    rates a movie once.
    """
    num_intervals = 36  # three years of monthly buckets
    # Events are diffuse on a movie platform: attention waves, not news
    # spikes — wide, polluted by popularity, spread over more items.
    events = auto_events(
        count=6,
        num_intervals=num_intervals,
        rng_seed=seed,
        width=5.0,
        num_items=12,
    )
    return SyntheticConfig(
        name="movielens",
        num_users=_scaled(800, scale),
        num_items=_scaled(320, scale, minimum=120),
        num_intervals=num_intervals,
        num_user_topics=10,
        events=events,
        lambda_alpha=8.0,
        lambda_beta=2.0,
        mean_ratings_per_user=60.0,
        topic_sparsity=0.01,
        popularity_exponent=0.9,
        popularity_offset=15.0,
        popular_leak=0.4,
        noise_fraction=0.12,
        item_lifecycle=float("inf"),
        distinct_items=True,
        explicit_scores=True,
        item_prefix="movie",
        seed=seed,
    )


def douban_profile(scale: float = 1.0, seed: int = 13) -> SyntheticConfig:
    """Douban Movie: taste-driven, with release-year cohorts as events.

    The time-oriented structure is the annual release wave: each "event"
    is one release year whose movies burst together (Table 6's T2007/
    T2009/T2010 topics). The catalogue is the largest of the movie
    profiles, matching Douban's 69,908 movies vs MovieLens's 10,681.
    """
    num_intervals = 30  # five years of two-month buckets
    years = [2006, 2007, 2008, 2009, 2010]
    events = tuple(
        EventSpec(
            name=f"y{year}",
            peak=2 + i * 6,  # one cohort per simulated year
            width=2.0,
            strength=1.2,
            num_items=12,
        )
        for i, year in enumerate(years)
    )
    return SyntheticConfig(
        name="douban",
        num_users=_scaled(700, scale),
        num_items=_scaled(900, scale, minimum=200),
        num_intervals=num_intervals,
        num_user_topics=10,
        events=events,
        lambda_alpha=6.0,
        lambda_beta=2.5,
        mean_ratings_per_user=75.0,
        topic_sparsity=0.012,
        popularity_exponent=1.0,
        popularity_offset=30.0,
        popular_leak=0.2,
        noise_fraction=0.15,
        item_lifecycle=float("inf"),
        distinct_items=True,
        explicit_scores=True,
        item_prefix="movie",
        seed=seed,
    )


def delicious_profile(scale: float = 1.0, seed: int = 17) -> SyntheticConfig:
    """Delicious tagging: repeated tag use plus named news events.

    Ships the named events used by the qualitative analyses: a
    "michaeljackson" burst (Table 5) and a "swineflu" burst (Figure 5),
    along with generic background events. Tags are reused, so entries
    carry engagement counts rather than one-shot votes.
    """
    num_intervals = 44  # ~22 months of half-month buckets
    named = (
        EventSpec(name="michaeljackson", peak=14, width=1.2, strength=1.6, num_items=10),
        EventSpec(name="swineflu", peak=28, width=1.5, strength=1.5, num_items=10),
        EventSpec(name="election", peak=6, width=1.8, strength=1.1, num_items=8),
    )
    generic = auto_events(
        count=6,
        num_intervals=num_intervals,
        rng_seed=seed + 1,
        width=1.4,
        num_items=8,
    )
    return SyntheticConfig(
        name="delicious",
        num_users=_scaled(900, scale),
        num_items=_scaled(1100, scale, minimum=250),
        num_intervals=num_intervals,
        num_user_topics=9,
        events=named + generic,
        lambda_alpha=3.0,
        lambda_beta=3.0,
        mean_ratings_per_user=65.0,
        topic_sparsity=0.03,
        popularity_exponent=1.2,
        popularity_offset=30.0,
        popular_leak=0.35,
        noise_fraction=0.25,
        noise_engagement=4.0,
        item_lifecycle=3.0,
        evergreen_fraction=0.04,
        item_prefix="tag",
        seed=seed,
    )


PROFILES: dict[str, Callable[..., SyntheticConfig]] = {
    "digg": digg_profile,
    "movielens": movielens_profile,
    "douban": douban_profile,
    "delicious": delicious_profile,
}


def profile(name: str, scale: float = 1.0, seed: int | None = None) -> SyntheticConfig:
    """Look up a dataset profile by name.

    ``seed=None`` keeps the profile's default seed so results are
    reproducible across runs.  ``scale`` must be finite and positive.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    try:
        factory = PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}"
        ) from None
    if seed is None:
        return factory(scale=scale)
    return factory(scale=scale, seed=seed)
