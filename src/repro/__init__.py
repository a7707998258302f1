"""TCAM: Temporal Context-Aware Mixture models for user behavior in
social media systems.

A full reproduction of Yin, Cui, Chen, Hu & Huang, *"A Temporal
Context-Aware Model for User Behavior Modeling in Social Media Systems"*,
SIGMOD 2014 — the ITCAM/TTCAM mixture models with EM inference, the
item-weighting scheme (W-ITCAM/W-TTCAM), Threshold-Algorithm-based
temporal top-k recommendation, the UT/TT/BPRMF/BPTF comparison models,
synthetic substitutes for the four evaluation datasets, and the complete
evaluation harness.

Quickstart::

    from repro import TTCAM, TemporalRecommender
    from repro.data import profile, generate, holdout_split

    cuboid, truth = generate(profile("digg", scale=0.5))
    split = holdout_split(cuboid)
    model = TTCAM(num_user_topics=10, num_time_topics=8, weighted=True)
    model.fit(split.train)
    recommender = TemporalRecommender(model)
    result = recommender.recommend(user=0, interval=5, k=10)
    # One query path: a batch of one through the batch scorer, bitwise
    # equal to the paper's engine, recommend(..., method="ta").
"""

from .baselines import (
    BPRMF,
    BPTF,
    GlobalPopularity,
    RecentPopularity,
    TimeTopicModel,
    UserTopicModel,
)
from .core import ITCAM, TTCAM, PartitionedTTCAM, apply_item_weighting, compute_item_weights
from .data import Rating, RatingCuboid, generate, holdout_split, profile
from .evaluation import ModelSpec, evaluate_ranking, run_accuracy_experiment
from .extensions import BackgroundTTCAM, OnlineTTCAM
from .recommend import TemporalRecommender
from .streaming import EventLog, SnapshotPublisher, StreamEvent, StreamIngestor

__version__ = "1.0.0"

__all__ = [
    "BPRMF",
    "BPTF",
    "GlobalPopularity",
    "RecentPopularity",
    "TimeTopicModel",
    "UserTopicModel",
    "ITCAM",
    "TTCAM",
    "PartitionedTTCAM",
    "apply_item_weighting",
    "compute_item_weights",
    "RatingCuboid",
    "Rating",
    "generate",
    "holdout_split",
    "profile",
    "ModelSpec",
    "evaluate_ranking",
    "run_accuracy_experiment",
    "BackgroundTTCAM",
    "OnlineTTCAM",
    "TemporalRecommender",
    "EventLog",
    "StreamEvent",
    "StreamIngestor",
    "SnapshotPublisher",
    "__version__",
]
