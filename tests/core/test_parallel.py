"""Tests for the partitioned (MapReduce-style) EM."""

import threading

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.em import ScatterPlan
from repro.core.engine import EMEngineConfig, TTCAMKernel
from repro.core.parallel import PartitionedTTCAM
from repro.core.ttcam import TTCAM
import tests.conftest as c


@pytest.fixture(scope="module")
def cuboid():
    cub, _ = c.generate(c.tiny_config())
    return cub


class TestEquivalence:
    def test_matches_serial_fit(self, cuboid):
        serial = TTCAM(3, 3, max_iter=15, seed=4).fit(cuboid)
        partitioned = PartitionedTTCAM(
            3, 3, max_iter=15, seed=4, num_partitions=4
        ).fit(cuboid)
        np.testing.assert_allclose(
            partitioned.params_.theta, serial.params_.theta, atol=1e-9
        )
        np.testing.assert_allclose(
            partitioned.params_.phi_time, serial.params_.phi_time, atol=1e-9
        )
        np.testing.assert_allclose(
            partitioned.params_.lambda_u, serial.params_.lambda_u, atol=1e-9
        )

    def test_partition_count_does_not_change_result(self, cuboid):
        one = PartitionedTTCAM(3, 3, max_iter=10, seed=1, num_partitions=1).fit(cuboid)
        many = PartitionedTTCAM(3, 3, max_iter=10, seed=1, num_partitions=7).fit(cuboid)
        np.testing.assert_allclose(one.params_.theta, many.params_.theta, atol=1e-9)

    def test_log_likelihood_matches_serial(self, cuboid):
        serial = TTCAM(3, 3, max_iter=10, seed=4).fit(cuboid)
        partitioned = PartitionedTTCAM(3, 3, max_iter=10, seed=4, num_partitions=3).fit(cuboid)
        np.testing.assert_allclose(
            partitioned.trace_.log_likelihood,
            serial.trace_.log_likelihood,
            rtol=1e-9,
        )


class TestBehaviour:
    def test_more_partitions_than_entries(self):
        from repro.data.cuboid import RatingCuboid

        small = RatingCuboid.from_arrays([0, 1, 0], [0, 1, 1], [0, 1, 2])
        model = PartitionedTTCAM(2, 2, max_iter=5, num_partitions=10).fit(small)
        assert model.params_ is not None

    def test_scoring_api(self, cuboid):
        model = PartitionedTTCAM(3, 3, max_iter=5, num_partitions=2).fit(cuboid)
        scores = model.score_items(0, 0)
        assert scores.sum() == pytest.approx(1.0)
        weights, matrix = model.query_space(0, 0)
        np.testing.assert_allclose(weights @ matrix, scores, atol=1e-12)
        assert model.matrix_cache_key(0) == model.matrix_cache_key(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedTTCAM(num_partitions=0)
        with pytest.raises(RuntimeError):
            PartitionedTTCAM().score_items(0, 0)

    @pytest.mark.parametrize("option", ["workers", "shard_timeout"])
    def test_shard_map_has_no_thread_options(self, option):
        # The shard map runs on one thread: no pool size, no straggler budget.
        with pytest.raises(TypeError, match=option):
            PartitionedTTCAM(**{option: 2})

    def test_inherits_the_serial_models_options(self, cuboid):
        shared = PartitionedTTCAM(
            3, 3, max_iter=4, num_partitions=3, personalized_lambda=False, n_init=2
        ).fit(cuboid)
        assert np.ptp(shared.params_.lambda_u) == 0.0
        assert np.isfinite(shared.log_likelihood(cuboid))

    def test_name(self):
        assert "partitioned" in PartitionedTTCAM().name
        assert PartitionedTTCAM(weighted=True).name.startswith("W-")


class TestShardPlans:
    """The shard kernels and their scatter plans are built once per fit."""

    ENGINE = EMEngineConfig(block_size=64)

    def _state(self, model, cuboid):
        return model._init_state(np.random.default_rng(3), cuboid.shape)

    def test_concurrent_reexecution_reproduces_the_statistics(self, cuboid, monkeypatch):
        model = PartitionedTTCAM(3, 3, num_partitions=2, engine=self.ENGINE)
        kernel = TTCAMKernel(*model._partition(cuboid)[0], cuboid.shape, 3, 3)
        assert model._shard_engine(kernel).num_blocks > 2  # plans the shard, as a fit does
        state = self._state(model, cuboid)
        stats, expected_ll = model._map_shard(kernel, state)
        expected = {name: array.copy() for name, array in stats.items()}

        # The first attempt stalls after its first block, holding the
        # shard's plans mid-pass, until the re-execution has run to the end.
        stalled, resume = threading.Event(), threading.Event()
        accumulate = kernel.accumulate

        def straggling(state, lo, hi, ws, stats):
            result = accumulate(state, lo, hi, ws, stats)
            if threading.current_thread() is straggler and lo == 0:
                stalled.set()
                assert resume.wait(timeout=30)
            return result

        monkeypatch.setattr(kernel, "accumulate", straggling)
        attempts = {}
        straggler = threading.Thread(
            target=lambda: attempts.update(first=model._map_shard(kernel, state))
        )
        straggler.start()
        assert stalled.wait(timeout=30)
        attempts["retry"] = model._map_shard(kernel, state)
        resume.set()
        straggler.join(timeout=30)

        assert set(attempts) == {"first", "retry"}
        for stats, log_likelihood in attempts.values():
            assert log_likelihood == expected_ll
            for name, array in expected.items():
                assert stats[name].tobytes() == array.tobytes(), name

    def test_no_plan_is_built_after_the_estep_is(self, cuboid, monkeypatch):
        built = []

        def counting(rows, num_rows):
            built.append(num_rows)
            return ScatterPlan(rows, num_rows)

        monkeypatch.setattr(engine_module, "ScatterPlan", counting)
        model = PartitionedTTCAM(3, 3, num_partitions=3, engine=self.ENGINE)
        compute, grid = model._build_estep(cuboid)
        blocks = sum(
            -(-len(scores) // grid["block_size"]) for *_, scores in model._partition(cuboid)
        )
        assert len(built) == 3 * blocks  # by user, by item, by interval
        state = self._state(model, cuboid)
        first = {name: array.copy() for name, array in compute(state)[0].items()}
        for _ in range(2):
            again, _ = compute(state)
            for name, array in first.items():
                assert again[name].tobytes() == array.tobytes(), name
        assert len(built) == 3 * blocks
