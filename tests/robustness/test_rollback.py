"""Health-guard rollback under NaN poisoning (acceptance b).

A NaN injected into the EM state mid-training must be caught by the
:class:`HealthMonitor`, rolled back to the last good checkpoint with a
seeded re-jitter, and the fit must still converge to healthy parameters
— never silently emit NaN-laden ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import TTCAM
from repro.robustness import (
    CheckpointManager,
    FaultInjector,
    HealthViolation,
)
from repro.tooling.sanitize import SanitizerError, sanitize_enabled
from tests.robustness.em_models import MODELS, assert_same_fit, fitted_arrays, make

pytestmark = pytest.mark.faults


def _model(**overrides):
    defaults = dict(num_user_topics=3, num_time_topics=3, max_iter=25, seed=7)
    defaults.update(overrides)
    return TTCAM(**defaults)


def _assert_healthy(model):
    params = model.params_
    for name in ("theta", "phi", "theta_time", "phi_time", "lambda_u"):
        assert np.all(np.isfinite(getattr(params, name))), name


@pytest.mark.parametrize("name", MODELS)
def test_every_model_rolls_back_and_recovers_deterministically(name, tiny_cuboid, tmp_path):
    """The scaffold's health rollback, once, over every model fit through it."""
    cuboid, _ = tiny_cuboid

    def poisoned_fit(directory):
        model = make(name)
        manager = CheckpointManager(directory, every=3)
        with FaultInjector(seed=5) as chaos:
            chaos.poison_nan("em.state", iteration=5, cells=4, array=model._stochastic[0])
            model.fit(cuboid, checkpoint=manager, monitor=True)
        assert chaos.fired == 1
        return model

    first = poisoned_fit(tmp_path / "a")
    for array_name, array in fitted_arrays(first).items():
        assert np.all(np.isfinite(array)), array_name
    assert first.trace_.iterations == first.max_iter  # replayed to the end
    assert first.trace_.log_likelihood[-1] >= first.trace_.log_likelihood[0]
    assert_same_fit(first, poisoned_fit(tmp_path / "b"))


class TestNaNRollback:
    def test_poisoned_run_recovers_and_converges(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        manager = CheckpointManager(tmp_path, every=3)
        with FaultInjector(seed=5) as chaos:
            chaos.poison_nan("em.state", iteration=5, cells=4, array="theta")
            model = _model().fit(cuboid, checkpoint=manager, monitor=True)
        assert chaos.fired == 1
        _assert_healthy(model)
        # The trace still ends in a (near-)converged state.
        ll = model.trace_.log_likelihood
        assert len(ll) >= 5
        assert ll[-1] >= ll[0]

    def test_rollback_without_checkpoint_restarts_from_init(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        with FaultInjector(seed=5) as chaos:
            chaos.poison_nan("em.state", iteration=2, array="phi")
            model = _model().fit(cuboid, monitor=True)
        assert chaos.fired == 1
        _assert_healthy(model)

    def test_unmonitored_fit_dies_instead_of_recovering(self, tiny_cuboid):
        # Without the monitor the poison propagates until the trace's own
        # non-finite guard kills the run — demonstrating the monitor is
        # what rescues the fit, not luck. An armed sanitizer (make
        # test-sanitize) refuses the poisoned theta one step earlier, at
        # the next E-step's state check; either way the fit dies.
        cuboid, _ = tiny_cuboid
        if sanitize_enabled():
            died = pytest.raises(SanitizerError, match="theta")
        else:
            died = pytest.raises(FloatingPointError, match="non-finite")
        with FaultInjector(seed=5) as chaos:
            chaos.poison_nan("em.state", iteration=3, cells=10, array="theta")
            with died:
                _model(max_iter=6, tol=0.0).fit(cuboid)
        assert chaos.fired == 1

    def test_persistent_poison_exhausts_recoveries(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        manager = CheckpointManager(tmp_path, every=3)
        with FaultInjector(seed=5) as chaos:
            chaos.poison_nan("em.state", times=99, cells=2, array="theta")
            with pytest.raises(HealthViolation):
                _model().fit(cuboid, checkpoint=manager, monitor=True)
        assert chaos.fired >= 4  # initial hit + every post-rollback retry

    def test_recovered_fit_is_deterministic(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid

        def poisoned_fit(directory):
            manager = CheckpointManager(directory, every=3)
            with FaultInjector(seed=5) as chaos:
                chaos.poison_nan("em.state", iteration=5, cells=4, array="theta")
                return _model().fit(cuboid, checkpoint=manager, monitor=True)

        first = poisoned_fit(tmp_path / "a")
        second = poisoned_fit(tmp_path / "b")
        np.testing.assert_array_equal(first.params_.theta, second.params_.theta)
        np.testing.assert_array_equal(first.params_.phi, second.params_.phi)


_HASH_SEED_SCRIPT = """
import hashlib, json, sys
import numpy as np
from repro.core import TTCAM
from repro.data import generate, profile
from repro.robustness import CheckpointManager, FaultInjector

cuboid, _ = generate(profile("digg", scale=0.05, seed=3))
manager = CheckpointManager(sys.argv[1], every=3)
with FaultInjector(seed=5) as chaos:
    chaos.poison_nan("em.state", iteration=5, cells=4, array="theta")
    model = TTCAM(3, 3, max_iter=12, seed=7).fit(cuboid, checkpoint=manager, monitor=True)
assert chaos.fired == 1
digest = hashlib.sha256()
for name, array in model.params_.arrays().items():
    digest.update(name.encode() + np.ascontiguousarray(array).tobytes())
print(json.dumps({
    "order": list(manager.latest().arrays),
    "fit": digest.hexdigest(),
    "trace": model.trace_.log_likelihood,
}))
"""


def test_rollback_is_reproducible_across_hash_seeds(tmp_path):
    """A health rollback replays bit-identically in another process.

    ``CheckpointManager.load`` used to order the restored arrays through
    a ``set``, so their dict order — and with it the single RNG stream
    ``rejitter_arrays`` draws over them — followed ``PYTHONHASHSEED``.
    """
    src = Path(__file__).resolve().parents[2] / "src"
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, str(tmp_path / seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert runs[0]["order"] == ["theta", "phi", "theta_time", "phi_time", "lambda_u"]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
