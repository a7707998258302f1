"""The four declared models fit what their hand-rolled EM loops fit.

``fixtures/pre_declare/fits.npz`` was written by commit 26a9a2f — the
last one in which ``SharedTopicsTCAM``, ``BackgroundTTCAM``,
``DriftTTCAM`` and ``SocialTTCAM`` ran their own ``for`` loop over
``max_iter`` — by running this module as a script against that commit's
sources, from the root of this repository (the worlds are built with
``tests/`` helpers)::

    PYTHONPATH=<checkout of 26a9a2f>/src:. python tests/core/test_pre_declare_fits.py

It holds every fitted array and the log-likelihood trace of each model on
three worlds at two iteration caps: 12 iterations at the default ``tol``,
and a cap of 40 that ``tol=3e-4`` ends early in 11 of 12 cases (after
29–36 iterations), so the convergence test is on the path too. Through
``EMModel.fit`` the E-step is the blocked engine's, whose fused
``c · resp`` scaling re-associates the products of the dense loop, so
fits are close rather than bitwise: the same number of iterations, every
array within ``atol=1e-11``, the trace within ``rtol=1e-12``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SharedTopicsTCAM
from repro.data import generate
from repro.extensions import BackgroundTTCAM, DriftTTCAM, SocialTTCAM, generate_drifting
from repro.extensions.social import add_social_ratings, build_homophilous_graph
from tests.conftest import tiny_config
from tests.core.test_pre_plan_fits import tiny_cuboid

FIXTURE = Path(__file__).parent / "fixtures" / "pre_declare" / "fits.npz"

#: Iteration cap -> convergence threshold.
ITERATIONS = {12: 1e-5, 40: 3e-4}


def _tiny():
    """The ``pre_plan`` cuboid (T=6: three epochs of two intervals)."""
    cuboid = tiny_cuboid()
    theta = np.random.default_rng(7).dirichlet(np.ones(3), size=cuboid.num_users)
    return cuboid, build_homophilous_graph(theta, avg_degree=4, seed=1), 2


def _drifting():
    """Three epochs of a world whose users' interests drift."""
    config = tiny_config(num_users=40, seed=41)
    cuboid, truths, _ = generate_drifting(config, num_epochs=3, drift_rate=0.6)
    graph = build_homophilous_graph(truths[0].theta, avg_degree=4, seed=2)
    return cuboid, graph, config.num_intervals


def _social():
    """A homophilous friendship graph and the imitation ratings it causes."""
    cuboid, truth = generate(tiny_config(num_users=40, seed=31))
    graph = build_homophilous_graph(truth.theta, avg_degree=4, homophily=0.8, seed=1)
    return add_social_ratings(cuboid, truth, graph, imitation_rate=0.5, seed=2), graph, 4


WORLDS = {"tiny": _tiny, "drifting": _drifting, "social": _social}

MODELS = {
    "shared": lambda graph, epoch, em: SharedTopicsTCAM(4, **em),
    "background": lambda graph, epoch, em: BackgroundTTCAM(3, 2, background_weight=0.2, **em),
    "drift": lambda graph, epoch, em: DriftTTCAM(epoch, 3, 2, **em),
    "social": lambda graph, epoch, em: SocialTTCAM(graph, 3, 2, **em),
}

#: The fitted attributes of each model; a parameter container by field.
FITTED = {
    "shared": ("theta_", "theta_time_", "phi_", "lambda_"),
    "background": ("params_", "background_"),
    "drift": ("theta_", "phi_", "theta_time_", "phi_time_", "lambda_", "num_epochs_"),
    "social": ("theta_", "phi_", "theta_time_", "phi_time_", "influence_"),
}

CASES = [f"{m}/{w}/{i}" for m in MODELS for w in WORLDS for i in ITERATIONS]


def fit_record(case: str) -> dict[str, np.ndarray]:
    """Every fitted array of one case, plus its ``trace``."""
    model_name, world_name, cap = case.split("/")
    cuboid, graph, epoch_length = WORLDS[world_name]()
    em = dict(max_iter=int(cap), tol=ITERATIONS[int(cap)], seed=5)
    model = MODELS[model_name](graph, epoch_length, em).fit(cuboid)
    record = {"trace": np.array(model.trace_.log_likelihood)}
    for attribute in FITTED[model_name]:
        value = getattr(model, attribute)
        if hasattr(value, "arrays"):
            record.update({f"{attribute}.{k}": v for k, v in value.arrays().items()})
        else:
            record[attribute] = np.asarray(value)
    return record


@pytest.fixture(scope="module")
def recorded() -> dict[str, np.ndarray]:
    with np.load(FIXTURE) as archive:
        return dict(archive)


@pytest.mark.parametrize("case", CASES)
def test_fit_matches_the_hand_rolled_loop(recorded, case):
    expected = {
        key.removeprefix(f"{case}/"): value
        for key, value in recorded.items()
        if key.startswith(f"{case}/")
    }
    actual = fit_record(case)
    assert len(expected["trace"]) > 3  # a real trajectory, not one step
    assert actual.keys() == expected.keys()
    assert len(actual["trace"]) == len(expected["trace"])  # same iteration count
    np.testing.assert_allclose(actual.pop("trace"), expected.pop("trace"), rtol=1e-12)
    for name, array in expected.items():
        assert actual[name].shape == array.shape, name
        np.testing.assert_allclose(actual[name], array, rtol=0, atol=1e-11, err_msg=name)


def test_fixture_covers_every_case(recorded):
    assert {key.rsplit("/", 1)[0] for key in recorded} == set(CASES)


def _write_fixture() -> None:
    """Regenerate the fixture with whatever ``repro`` is importable."""
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    arrays = {
        f"{case}/{name}": value
        for case in CASES
        for name, value in fit_record(case).items()
    }
    np.savez_compressed(FIXTURE, **arrays)


if __name__ == "__main__":
    _write_fixture()
