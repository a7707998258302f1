"""Fold-in as a declaration: the pass against the dense oracle, and its inputs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import TTCAMParameters
from repro.core.ttcam import TTCAM
from repro.data import RatingCuboid
from repro.extensions.online import OnlineTTCAM, fold_in
from tests.core import reference_em as ref
from tests.core.test_pre_plan_fits import tiny_cuboid

ITERATIONS = 12


def _tiny():
    """The ``pre_plan`` cuboid as one chunk, over a TTCAM fitted to it."""
    cuboid = tiny_cuboid()
    params = TTCAM(3, 4, max_iter=12, seed=5).fit(cuboid).params_
    return params, (cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores)


def _pipeline():
    """A 256-event chunk over a serving-shaped model: nine events in ten
    for the current interval, Zipf items, mostly one- and two-event users."""
    rng = np.random.default_rng(11)
    n, t, v = 400, 24, 3000
    params = TTCAMParameters(
        theta=rng.dirichlet(np.full(8, 0.3), size=n),
        phi=rng.dirichlet(np.full(v, 0.05), size=8),
        theta_time=rng.dirichlet(np.full(4, 0.3), size=t),
        phi_time=rng.dirichlet(np.full(v, 0.05), size=4),
        lambda_u=rng.beta(3.0, 3.0, size=n),
    )
    count = 256
    intervals = np.where(rng.random(count) < 0.1, rng.integers(0, t, count), t - 1)
    items = np.minimum(rng.zipf(1.3, count) - 1, v - 1)
    return params, (rng.integers(0, n, count), intervals, items, rng.random(count) + 0.5)


WORLDS = {"tiny": _tiny, "pipeline": _pipeline}


@pytest.mark.parametrize("free", ["theta", "theta_time"])
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_pass_matches_the_dense_oracle(world, free):
    params, chunk = WORLDS[world]()
    ids, rows = fold_in(params.arrays(), free, ITERATIONS, *chunk)
    cuboid = RatingCuboid.from_arrays(
        *chunk,
        num_users=params.num_users,
        num_intervals=params.num_intervals,
        num_items=params.num_items,
    )
    state = params.arrays()
    state[free] = np.full_like(state[free], 1.0 / state[free].shape[1])
    if free == "theta":
        state["lambda_u"] = np.full(params.num_users, 0.5)
    triples = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
    expected = ref.fold_in(triples, cuboid.shape, state, free, ITERATIONS)
    assert set(rows) == ({"theta", "lambda_u"} if free == "theta" else {"theta_time"})
    for name, array in rows.items():
        np.testing.assert_allclose(array, expected[name][ids], rtol=0, atol=1e-12, err_msg=name)


class TestScores:
    """Bad ``scores`` are a ``ValueError`` naming them, not NaN or a numpy error."""

    @pytest.fixture(scope="class")
    def online(self):
        return OnlineTTCAM(_tiny()[0])

    def test_all_zero_scores(self, online):
        with pytest.raises(ValueError, match="scores"):
            online.fold_in_user(np.array([0, 2]), np.array([0, 1]), np.zeros(2))

    def test_nan_score(self, online):
        with pytest.raises(ValueError, match="scores"):
            online.fold_in_user(np.array([0, 2]), np.array([0, 1]), np.array([np.nan, 1.0]))

    def test_negative_scores(self, online):
        with pytest.raises(ValueError, match="scores"):
            online.fold_in_user(np.array([0, 2]), np.array([0, 1]), np.array([-1.0, -2.0]))

    def test_one_score_for_three_interval_events(self, online):
        with pytest.raises(ValueError, match="scores"):
            online.fold_in_interval(np.array([0, 1, 2]), np.array([0, 2, 4]), np.array([1.0]))

    def test_one_score_for_three_user_events(self, online):
        with pytest.raises(ValueError, match="scores"):
            online.fold_in_user(np.array([0, 2, 4]), np.array([0, 1, 2]), np.array([1.0]))
