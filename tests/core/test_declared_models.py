"""The four declared EM models against the dense oracle.

``SharedTopicsTCAM``, ``BackgroundTTCAM``, ``DriftTTCAM`` and
``SocialTTCAM`` are :class:`~repro.core.model.EMModel` declarations. Their
E-steps — TTCAM's kernel with ``φ′`` tied to ``φ``, TTCAM's kernel over
(epoch, user) interest rows, ``BackgroundKernel`` and ``SocialKernel`` —
must match :mod:`tests.core.reference_em` to ``atol=1e-12`` under each
block grid of ``test_pre_plan_fits``, and a whole fit must match the
reference EM loop run from the model's own seeded initialisation.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.baselines import SharedTopicsTCAM
from repro.extensions import BackgroundTTCAM, DriftTTCAM, SocialTTCAM
from tests.core import reference_em as ref
from tests.core.test_pre_plan_fits import GRIDS, tiny_cuboid

ATOL = 1e-12
SMOOTHING = 1e-6  # the models' default
K1, K2, K = 3, 2, 4
EPOCH_LENGTH = 2  # the tiny cuboid's six intervals make three epochs
LAM_B = 0.2
GRAPH = nx.watts_strogatz_graph(24, 4, 0.3, seed=3)


def _friends(num_users):
    return [list(GRAPH.neighbors(u)) if GRAPH.has_node(u) else [] for u in range(num_users)]


#: name -> (model, reference E-step, reference M-step, initial sizes); the
#: reference steps take ``(triples, shape)`` first.
MODELS = {
    "shared": (
        lambda: SharedTopicsTCAM(K, max_iter=12, seed=5),
        ref.shared_estep,
        lambda stats, triples, shape: ref.shared_mstep(stats, triples, shape, SMOOTHING),
        lambda n, t, v: {"theta": (n, K), "theta_time": (t, K), "phi": (K, v)},
    ),
    "background": (
        lambda: BackgroundTTCAM(K1, K2, background_weight=LAM_B, max_iter=12, seed=5),
        lambda triples, shape, state: ref.background_estep(
            triples, shape, state, ref.item_background(triples, shape), LAM_B
        ),
        lambda stats, triples, shape: ref.background_mstep(stats, SMOOTHING),
        lambda n, t, v: {"theta": (n, K1), "phi": (K1, v), "theta_time": (t, K2), "phi_time": (K2, v)},
    ),
    "drift": (
        lambda: DriftTTCAM(EPOCH_LENGTH, K1, K2, max_iter=12, seed=5),
        lambda triples, shape, state: ref.drift_estep(triples, shape, state, EPOCH_LENGTH),
        lambda stats, triples, shape: ref.drift_mstep(stats, triples, shape, SMOOTHING, 0.3),
        lambda n, t, v: {
            "theta": (t // EPOCH_LENGTH * n, K1),
            "phi": (K1, v),
            "theta_time": (t, K2),
            "phi_time": (K2, v),
        },
    ),
    "social": (
        lambda: SocialTTCAM(GRAPH, K1, K2, max_iter=12, seed=5),
        lambda triples, shape, state: ref.social_estep(triples, shape, state, _friends(shape[0])),
        lambda stats, triples, shape: ref.social_mstep(stats, triples, shape, SMOOTHING),
        lambda n, t, v: {"theta": (n, K1), "phi": (K1, v), "theta_time": (t, K2), "phi_time": (K2, v)},
    ),
}


def _oracle_state(name, state, shape):
    """A model's EM state in the oracle's layout (drift's θ as ``(E, N, K1)``)."""
    if name != "drift":
        return state
    return dict(state, theta=state["theta"].reshape(-1, shape[0], K1))


def _initial_state(name, seed, shape):
    """The model's seeded initialisation, as the oracle states it."""
    n, t, v = shape
    state = ref.seeded_init(seed, MODELS[name][3](n, t, v), lambda_users=n)
    if name == "social":
        del state["lambda_u"]
        state["influence"] = np.full((n, 3), 1.0 / 3.0)
    return state


def _random_state(name, shape, seed):
    """A random valid EM state of the named model."""
    rng = np.random.default_rng(seed)
    n = shape[0]
    state = {
        key: rng.dirichlet(np.ones(cols), size=rows)
        for key, (rows, cols) in MODELS[name][3](*shape).items()
    }
    if name == "social":
        state["influence"] = rng.dirichlet(np.ones(3), size=n)
    else:
        state["lambda_u"] = rng.random(n)
    return state


def _fitted(name, model):
    """The fitted state of a model, keyed as the oracle keys it."""
    if name == "background":
        return model.params_.arrays()
    arrays = {
        "theta": model.theta_,
        "theta_time": model.theta_time_,
        "phi": model.phi_,
        "phi_time": getattr(model, "phi_time_", None),
        "lambda_u": getattr(model, "lambda_", None),
        "influence": getattr(model, "influence_", None),
    }
    return {key: value for key, value in arrays.items() if value is not None}


@pytest.mark.parametrize("grid_name", list(GRIDS))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(MODELS))
def test_estep_matches_reference(name, seed, grid_name):
    cuboid = tiny_cuboid()
    triples = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
    model = MODELS[name][0]()
    model.engine = GRIDS[grid_name]
    compute, _ = model._build_estep(cuboid)
    state = _random_state(name, cuboid.shape, seed)
    stats, log_likelihood = compute(state)
    expected, expected_ll = MODELS[name][1](triples, cuboid.shape, _oracle_state(name, state, cuboid.shape))
    assert log_likelihood == pytest.approx(expected_ll, abs=1e-9)
    assert stats.keys() == expected.keys()
    for key, array in expected.items():
        np.testing.assert_allclose(
            stats[key], array.reshape(stats[key].shape), rtol=0, atol=ATOL, err_msg=key
        )


@pytest.mark.parametrize("grid_name", ["one_block", "blocks_of_97"])
@pytest.mark.parametrize("name", list(MODELS))
def test_fit_matches_reference_em(name, grid_name):
    cuboid = tiny_cuboid()
    triples = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
    model, estep, mstep, _ = MODELS[name]
    fitted = model()
    fitted.engine = GRIDS[grid_name]
    fitted.fit(cuboid)
    init = _initial_state(name, 5, cuboid.shape)
    expected, trace = ref.run_reference_em(
        _oracle_state(name, init, cuboid.shape),
        lambda state: estep(triples, cuboid.shape, state),
        lambda stats: mstep(stats, triples, cuboid.shape),
        max_iter=12,
    )
    actual = _fitted(name, fitted)
    assert actual.keys() == expected.keys()
    for key, array in expected.items():
        np.testing.assert_allclose(actual[key], array, rtol=0, atol=ATOL, err_msg=key)
    np.testing.assert_allclose(trace, fitted.trace_.log_likelihood, rtol=1e-12)
