"""Every model fit through ``EMModel.fit``, for contract tests that must
hold for all of them alike (kill-and-resume, refusal, rollback)."""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.baselines import SharedTopicsTCAM, TimeTopicModel, UserTopicModel
from repro.core import ITCAM, TTCAM, PartitionedTTCAM
from repro.data import RatingCuboid
from repro.extensions import BackgroundTTCAM, DriftTTCAM, SocialTTCAM

_TTCAM = dict(num_user_topics=3, num_time_topics=3, max_iter=20, tol=-1.0, seed=7)

#: Friendships over the 120 users of the ``tiny_cuboid`` fixture, and another set.
_GRAPHS = [nx.watts_strogatz_graph(120, 4, 0.3, seed=seed) for seed in (3, 4)]

#: name -> (class, constructor arguments). ``tol=-1`` never converges, so
#: a crash planned for iteration 7 always fires.
MODELS = {
    "ttcam": (TTCAM, _TTCAM),
    "w-ttcam-global": (TTCAM, _TTCAM | dict(weighted=True, personalized_lambda=False)),
    "itcam": (ITCAM, dict(num_user_topics=3, max_iter=15, tol=-1.0, seed=3)),
    "partitioned": (PartitionedTTCAM, _TTCAM | dict(num_partitions=3)),
    "ut": (UserTopicModel, dict(num_topics=3, max_iter=15, tol=-1.0, seed=5)),
    "tt": (TimeTopicModel, dict(num_topics=3, max_iter=15, tol=-1.0, seed=5)),
    "shared-topics": (SharedTopicsTCAM, dict(num_topics=4, max_iter=15, tol=-1.0, seed=5)),
    "background": (BackgroundTTCAM, _TTCAM | dict(background_weight=0.2)),
    "drift": (DriftTTCAM, _TTCAM | dict(epoch_length=4)),
    "social": (SocialTTCAM, _TTCAM | dict(graph=_GRAPHS[0])),
}

#: Checkpoint metadata key -> the constructor argument that sets it.
_ARGUMENT = {"k1": "num_user_topics", "k2": "num_time_topics", "k": "num_topics"}


def make(name, **overrides):
    """A fresh, unfitted model of the named configuration."""
    cls, arguments = MODELS[name]
    return cls(**(arguments | overrides))


def fitted_arrays(model):
    """The fitted arrays of any of the models: each ``<name>_`` array
    attribute, and a parameter container's fields by name."""
    arrays = {}
    for name, value in vars(model).items():
        if hasattr(value, "arrays"):
            arrays.update(value.arrays())
        elif name.endswith("_") and isinstance(value, np.ndarray):
            arrays[name] = value
    return arrays


def assert_same_fit(expected, actual):
    """Bitwise equality of every fitted array and the whole trace."""
    left, right = fitted_arrays(expected), fitted_arrays(actual)
    assert list(left) == list(right)
    for name in left:
        np.testing.assert_array_equal(left[name], right[name], err_msg=name)
    assert actual.trace_.log_likelihood == expected.trace_.log_likelihood


def trajectory_keys(name):
    """The per-model metadata keys a constructor argument controls."""
    return ("smoothing", *make(name)._hyper())


def with_changed(name, key):
    """The named model with the hyper-parameter behind ``key`` changed."""
    if key == "graph":  # recorded as a digest of the edge list
        return make(name, graph=_GRAPHS[1])
    model = make(name)
    value = {"smoothing": model.smoothing, **model._hyper()}[key]
    changed = (not value) if isinstance(value, bool) else value * 2
    return make(name, **{_ARGUMENT.get(key, key): changed})


def other_cuboid(cuboid, key):
    """``cuboid`` with another dense ``shape`` or another ``nnz``."""
    keep = cuboid.nnz - (key == "nnz")
    return RatingCuboid.from_arrays(
        users=cuboid.users[:keep],
        intervals=cuboid.intervals[:keep],
        items=cuboid.items[:keep],
        scores=cuboid.scores[:keep],
        num_users=cuboid.num_users + 5 * (key == "shape"),
        num_intervals=cuboid.num_intervals,
        num_items=cuboid.num_items,
    )
