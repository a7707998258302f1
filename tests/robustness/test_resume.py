"""Checkpoint/resume determinism under injected crashes (acceptance a).

A run killed mid-training and resumed from its latest checkpoint must
finish with *bit-identical* parameters to the run that was never
interrupted — EM state is fully captured by the parameter arrays plus the
log-likelihood trace, and the RNG is only consulted at initialisation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TTCAM, PartitionedTTCAM
from repro.robustness import (
    CheckpointError,
    CheckpointManager,
    FaultInjector,
    InjectedFault,
    ShardFailedError,
)
from tests.robustness.em_models import (
    MODELS,
    assert_same_fit,
    make,
    other_cuboid,
    trajectory_keys,
    with_changed,
)

pytestmark = pytest.mark.faults


def interrupted(name, cuboid, directory):
    """Kill a checkpointed fit of the named model at iteration 7."""
    manager = CheckpointManager(directory, every=3)
    with FaultInjector() as chaos:
        chaos.crash("em.iteration", iteration=7)
        with pytest.raises(InjectedFault):
            make(name).fit(cuboid, checkpoint=manager)
    assert chaos.fired == 1
    assert manager.latest().iteration == 6  # every=3, killed at 7
    return manager


def assert_kill_and_resume_is_bit_identical(name, cuboid, directory):
    baseline = make(name).fit(cuboid)
    manager = interrupted(name, cuboid, directory)
    resumed = make(name).fit(cuboid, resume_from=manager, monitor=True)
    assert_same_fit(baseline, resumed)


class TestScaffoldContract:
    """What ``EMModel.fit`` promises, once, for every model fit through it."""

    @pytest.mark.parametrize("name", MODELS)
    def test_kill_and_resume_is_bit_identical(self, name, tiny_cuboid, tmp_path):
        assert_kill_and_resume_is_bit_identical(name, tiny_cuboid[0], tmp_path)

    @pytest.mark.parametrize(
        "name, key",
        [(name, key) for name in MODELS for key in trajectory_keys(name)],
    )
    def test_resume_under_changed_hyperparameter_is_refused(
        self, name, key, tiny_cuboid, tmp_path
    ):
        # Any of these changes the trajectory: the resumed run would be
        # bit-equal to neither uninterrupted run, so it must not start.
        cuboid, _ = tiny_cuboid
        manager = interrupted(name, cuboid, tmp_path)
        with pytest.raises(CheckpointError, match=f"different configuration.*{key}"):
            with_changed(name, key).fit(cuboid, resume_from=manager)

    @pytest.mark.parametrize("key", ["shape", "nnz"])
    @pytest.mark.parametrize("name", MODELS)
    def test_resume_on_another_cuboid_is_refused(self, name, key, tiny_cuboid, tmp_path):
        # The kernels gather with mode="clip": on a larger cuboid the new
        # users would silently read the last checkpointed row.
        cuboid, _ = tiny_cuboid
        manager = interrupted(name, cuboid, tmp_path)
        with pytest.raises(CheckpointError, match=f"different configuration.*{key}"):
            make(name).fit(other_cuboid(cuboid, key), resume_from=manager)


def _model(**overrides):
    defaults = dict(num_user_topics=3, num_time_topics=3, max_iter=20, seed=7)
    defaults.update(overrides)
    return TTCAM(**defaults)


def _assert_same_params(a, b):
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.phi, b.phi)
    np.testing.assert_array_equal(a.theta_time, b.theta_time)
    np.testing.assert_array_equal(a.phi_time, b.phi_time)
    np.testing.assert_array_equal(a.lambda_u, b.lambda_u)


class TestKillAndResumeTTCAM:
    def test_resumed_run_is_bit_identical(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        baseline = _model().fit(cuboid)

        manager = CheckpointManager(tmp_path, every=3)
        with FaultInjector() as chaos:
            chaos.crash("em.iteration", iteration=7)
            with pytest.raises(InjectedFault):
                _model().fit(cuboid, checkpoint=manager)
        assert chaos.fired == 1
        assert manager.latest().iteration == 6  # every=3, killed at 7

        resumed = _model().fit(cuboid, resume_from=manager)
        _assert_same_params(baseline.params_, resumed.params_)
        assert resumed.trace_.log_likelihood == baseline.trace_.log_likelihood

    def test_resume_accepts_directory_path(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        baseline = _model().fit(cuboid)
        with FaultInjector() as chaos:
            chaos.crash("em.iteration", iteration=5)
            with pytest.raises(InjectedFault):
                _model().fit(cuboid, checkpoint=str(tmp_path))
        resumed = _model().fit(cuboid, resume_from=str(tmp_path))
        _assert_same_params(baseline.params_, resumed.params_)

    def test_resume_rejects_mismatched_config(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        manager = CheckpointManager(tmp_path, every=2)
        _model(max_iter=6).fit(cuboid, checkpoint=manager)
        with pytest.raises(CheckpointError, match="config"):
            _model(num_user_topics=4).fit(cuboid, resume_from=manager)

    def test_resume_with_empty_directory_starts_fresh(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        baseline = _model(max_iter=6).fit(cuboid)
        fresh = _model(max_iter=6).fit(cuboid, resume_from=str(tmp_path))
        _assert_same_params(baseline.params_, fresh.params_)

    def test_multi_init_fit_rejects_checkpointing(self, tiny_cuboid, tmp_path):
        cuboid, _ = tiny_cuboid
        with pytest.raises(ValueError, match="n_init"):
            _model(n_init=2).fit(cuboid, checkpoint=str(tmp_path))


class TestKillAndResumeITCAM:
    def test_resumed_run_is_bit_identical(self, tiny_cuboid, tmp_path):
        assert_kill_and_resume_is_bit_identical("itcam", tiny_cuboid[0], tmp_path)


class TestShardFaults:
    def test_shard_crash_is_retried_transparently(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        make = lambda: PartitionedTTCAM(
            num_user_topics=3,
            num_time_topics=3,
            max_iter=10,
            seed=7,
            num_partitions=3,
            retry_backoff=0.0,
        )
        baseline = make().fit(cuboid)
        with FaultInjector() as chaos:
            chaos.crash("parallel.shard", shard=1, attempt=0)
            retried = make().fit(cuboid)
        assert chaos.fired == 1  # the retry ran clean
        _assert_same_params(baseline.params_, retried.params_)

    def test_persistent_shard_failure_raises_shard_error(self, tiny_cuboid):
        cuboid, _ = tiny_cuboid
        model = PartitionedTTCAM(
            num_user_topics=3,
            num_time_topics=3,
            max_iter=10,
            seed=7,
            num_partitions=3,
            max_shard_retries=1,
            retry_backoff=0.0,
        )
        with FaultInjector() as chaos:
            # A shard that fails every attempt exhausts its retries.
            chaos.crash("parallel.shard", shard=1, times=99)
            with pytest.raises(ShardFailedError, match="shard 1"):
                model.fit(cuboid)
        assert chaos.fired == 2  # first attempt + one retry

    def test_parallel_kill_and_resume(self, tiny_cuboid, tmp_path):
        assert_kill_and_resume_is_bit_identical("partitioned", tiny_cuboid[0], tmp_path)
