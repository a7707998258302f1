"""Incremental fold-in: micro-batches, new ids, drift, checkpoint/resume."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.robustness import CheckpointError, FaultInjector, InjectedFault
from repro.streaming import EventLog, StreamEvent, StreamIngestor

pytestmark = pytest.mark.faults

PARAM_FIELDS = ("theta", "phi", "theta_time", "phi_time", "lambda_u")


def fill_log(path, events):
    with EventLog(path) as log:
        log.append(events)
    return EventLog(path)


def in_range_events(params, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        StreamEvent(
            user=int(rng.integers(0, params.num_users)),
            interval=int(rng.integers(0, params.num_intervals)),
            item=int(rng.integers(0, params.num_items)),
            score=float(rng.integers(1, 4)),
        )
        for _ in range(count)
    ]


def assert_params_equal(a, b):
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )


class TestFolding:
    def test_drains_log_and_advances_offset(self, stream_base, tmp_path):
        events = in_range_events(stream_base, 30)
        log = fill_log(tmp_path / "wal", events)
        ingestor = StreamIngestor(
            log, stream_base, tmp_path / "ckpt", batch_events=8
        )
        report = ingestor.run()
        assert report.batches == 4  # 8+8+8+6
        assert report.applied == 30
        assert report.offset == 30
        assert ingestor.params.theta_time.shape == stream_base.theta_time.shape

    def test_parameters_stay_valid_distributions(self, stream_base, tmp_path):
        events = in_range_events(stream_base, 40, seed=3)
        log = fill_log(tmp_path / "wal", events)
        ingestor = StreamIngestor(log, stream_base, tmp_path / "ckpt", batch_events=10)
        ingestor.run()
        params = ingestor.params
        np.testing.assert_allclose(params.theta_time.sum(axis=1), 1.0)
        np.testing.assert_allclose(params.theta.sum(axis=1), 1.0)
        assert np.all((params.lambda_u >= 0) & (params.lambda_u <= 1))

    def test_new_interval_grows_the_time_axis(self, stream_base, tmp_path):
        top = stream_base.num_intervals
        events = [StreamEvent(user=0, interval=top + 1, item=1, score=2.0)]
        log = fill_log(tmp_path / "wal", events)
        ingestor = StreamIngestor(log, stream_base, tmp_path / "ckpt")
        ingestor.run()
        assert ingestor.params.num_intervals == top + 2
        # The gap interval got no events, so it keeps the uniform prior.
        k2 = stream_base.num_time_topics
        np.testing.assert_allclose(ingestor.params.theta_time[top], 1.0 / k2)

    def test_new_users_fold_in_ascending_with_gap_priors(self, stream_base, tmp_path):
        top = stream_base.num_users
        events = [
            StreamEvent(user=top + 2, interval=0, item=3, score=2.0),
            StreamEvent(user=top, interval=1, item=4, score=1.0),
        ]
        log = fill_log(tmp_path / "wal", events)
        ingestor = StreamIngestor(log, stream_base, tmp_path / "ckpt")
        ingestor.run()
        params = ingestor.params
        assert params.num_users == top + 3
        assert params.lambda_u.shape == (top + 3,)
        # The gap user (top + 1) got the cold-start prior.
        k1 = stream_base.num_user_topics
        np.testing.assert_allclose(params.theta[top + 1], 1.0 / k1)
        assert params.lambda_u[top + 1] == 0.5
        # Users with events moved off the prior.
        assert not np.allclose(params.theta[top + 2], 1.0 / k1)

    def test_new_user_running_backwards_warns(self, stream_base, tmp_path):
        top = stream_base.num_users
        events = [
            StreamEvent(user=top, interval=1, item=3),
            StreamEvent(user=0, interval=0, item=2),  # another user: no effect
            StreamEvent(user=top, interval=0, item=4),
        ]
        ingestor = StreamIngestor(fill_log(tmp_path / "wal", events), stream_base, tmp_path / "c")
        with pytest.warns(UserWarning, match="out-of-order intervals"):
            ingestor.run()

    def test_new_users_in_interval_order_do_not_warn(self, stream_base, tmp_path):
        top = stream_base.num_users
        events = [
            StreamEvent(user=top + 1, interval=1, item=3),
            StreamEvent(user=top, interval=0, item=4),  # earlier, but another user
            StreamEvent(user=top + 1, interval=1, item=5),
        ]
        ingestor = StreamIngestor(fill_log(tmp_path / "wal", events), stream_base, tmp_path / "c")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            ingestor.run()

    def test_out_of_catalogue_items_are_skipped_with_warning(
        self, stream_base, tmp_path
    ):
        events = [
            StreamEvent(user=0, interval=0, item=stream_base.num_items + 5),
            StreamEvent(user=1, interval=0, item=2),
        ]
        log = fill_log(tmp_path / "wal", events)
        ingestor = StreamIngestor(log, stream_base, tmp_path / "ckpt")
        with pytest.warns(UserWarning, match="outside the fitted catalogue"):
            report = ingestor.run()
        assert report.skipped == 1
        assert report.applied == 1
        assert report.offset == 2  # skipped events are still consumed

    def test_context_jump_triggers_boundary_refit_and_checkpoint(
        self, stream_base, tmp_path
    ):
        events = [
            StreamEvent(user=0, interval=0, item=0, score=5.0),
            StreamEvent(user=1, interval=0, item=9, score=5.0),
        ]
        log = fill_log(tmp_path / "wal", events)
        ingestor = StreamIngestor(
            log,
            stream_base,
            tmp_path / "ckpt",
            batch_events=4,
            drift_threshold=0.8,
            checkpoint_every=100,  # only boundary checkpoints can fire
        )
        # Seed interval 0 with a vector orthogonal to the positive
        # quadrant's diagonal: any fold-in estimate (a nonnegative unit
        # vector in K2=2) has cosine <= ~0.71 with it, a certain jump.
        ingestor.tracker.ensure_intervals(1)
        ingestor.tracker.vectors[0] = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        ingestor.tracker.valid[0] = 1.0
        report = ingestor.run()
        assert report.boundaries == 1
        assert ingestor.refits == 1
        assert report.checkpoints == 1
        assert ingestor.manager.latest() is not None


class TestCheckpointResume:
    def test_resume_restores_offset_and_counters(self, stream_base, tmp_path):
        events = in_range_events(stream_base, 24, seed=1)
        log = fill_log(tmp_path / "wal", events)
        first = StreamIngestor(
            log, stream_base, tmp_path / "ckpt", batch_events=6, checkpoint_every=2
        )
        first.run(max_batches=2)  # checkpoint lands exactly at batch 2
        resumed = StreamIngestor(
            EventLog(tmp_path / "wal"),
            stream_base,
            tmp_path / "ckpt",
            batch_events=6,
            checkpoint_every=2,
        )
        assert resumed.offset == 12
        assert resumed.batches == 2
        assert resumed.applied == first.applied
        # The checkpoint is an overlay — what folding mutates plus the
        # drift state — and the resumed container shares base's φ/φ′.
        saved = first.manager.latest().arrays
        assert set(saved) == {
            "theta", "theta_time", "lambda_u", "drift_vectors", "drift_valid"
        }
        assert_params_equal(resumed.params, first.params)
        assert resumed.params.phi is stream_base.phi
        assert resumed.params.phi_time is stream_base.phi_time

    def test_kill_between_checkpoints_replays_bit_identically(
        self, stream_base, tmp_path
    ):
        events = in_range_events(stream_base, 40, seed=2)
        log = fill_log(tmp_path / "wal", events)
        # drift_threshold=-1 keeps boundary checkpoints out of the way so
        # the checkpoint cadence (and therefore the resume point) is exact.
        baseline = StreamIngestor(
            log,
            stream_base,
            tmp_path / "ckpt_base",
            batch_events=8,
            checkpoint_every=2,
            drift_threshold=-1.0,
        )
        baseline.run()
        # Crash-run: die after 3 batches (one past the last checkpoint).
        crashed = StreamIngestor(
            EventLog(tmp_path / "wal"),
            stream_base,
            tmp_path / "ckpt_crash",
            batch_events=8,
            checkpoint_every=2,
            drift_threshold=-1.0,
        )
        crashed.run(max_batches=3)
        resumed = StreamIngestor(
            EventLog(tmp_path / "wal"),
            stream_base,
            tmp_path / "ckpt_crash",
            batch_events=8,
            checkpoint_every=2,
            drift_threshold=-1.0,
        )
        assert resumed.offset == 16  # back at the batch-2 checkpoint
        resumed.run()
        assert_params_equal(resumed.params, baseline.params)
        assert resumed.applied == baseline.applied  # nothing double-applied
        assert resumed.offset == baseline.offset

    def test_mismatched_configuration_refuses_to_resume(self, stream_base, tmp_path):
        events = in_range_events(stream_base, 12, seed=4)
        log = fill_log(tmp_path / "wal", events)
        ingestor = StreamIngestor(
            log, stream_base, tmp_path / "ckpt", batch_events=4, checkpoint_every=1
        )
        ingestor.run()
        with pytest.raises(CheckpointError, match="different configuration"):
            StreamIngestor(
                EventLog(tmp_path / "wal"),
                stream_base,
                tmp_path / "ckpt",
                batch_events=5,  # changed: replay would diverge
                checkpoint_every=1,
            )

    def test_refitted_base_refuses_to_resume(self, stream_base, tmp_path):
        log = fill_log(tmp_path / "wal", in_range_events(stream_base, 12, seed=4))
        StreamIngestor(
            log, stream_base, tmp_path / "ckpt", batch_events=4, checkpoint_every=1
        ).run()
        refit = stream_base.with_fields(phi_time=stream_base.phi_time[::-1].copy())
        with pytest.raises(CheckpointError, match="other phi/phi_time"):
            StreamIngestor(
                log, refit, tmp_path / "ckpt", batch_events=4, checkpoint_every=1
            )

    def test_checkpoint_ahead_of_the_log_refuses_to_resume(self, stream_base, tmp_path):
        log = fill_log(tmp_path / "wal", in_range_events(stream_base, 12, seed=4))
        StreamIngestor(
            log, stream_base, tmp_path / "ckpt", batch_events=4, checkpoint_every=1
        ).run()
        shorter = fill_log(tmp_path / "wal2", in_range_events(stream_base, 8, seed=4))
        with pytest.raises(CheckpointError, match="offset 12, past the log's 8"):
            StreamIngestor(
                shorter, stream_base, tmp_path / "ckpt", batch_events=4, checkpoint_every=1
            )

    def test_resume_false_discards_stale_checkpoints(self, stream_base, tmp_path):
        # A longer earlier run left checkpoints numbered past anything the
        # new run will write; they must neither get the new run's
        # checkpoints pruned nor be what the next resume restores.
        long_log = fill_log(tmp_path / "old", in_range_events(stream_base, 48, seed=5))
        StreamIngestor(
            long_log, stream_base, tmp_path / "ckpt", batch_events=4, checkpoint_every=1
        ).run()
        log = fill_log(tmp_path / "wal", in_range_events(stream_base, 8, seed=6))
        fresh = StreamIngestor(
            log,
            stream_base,
            tmp_path / "ckpt",
            batch_events=4,
            checkpoint_every=1,
            resume=False,
        )
        assert fresh.offset == 0
        report = fresh.run()
        assert report.checkpoints == 2
        assert sorted(path.name for path in (tmp_path / "ckpt").iterdir()) == [
            "stream-000001.ckpt.npz",
            "stream-000002.ckpt.npz",
        ]
        resumed = StreamIngestor(
            log, stream_base, tmp_path / "ckpt", batch_events=4, checkpoint_every=1
        )
        assert resumed.offset == 8
        assert_params_equal(resumed.params, fresh.params)

    @pytest.mark.parametrize("fault", ["torn_write", "disk_full"])
    def test_failed_overlay_write_keeps_the_previous_checkpoint(
        self, stream_base, tmp_path, fault
    ):
        knobs = {"batch_events": 4, "checkpoint_every": 1, "drift_threshold": -1.0}
        log = fill_log(tmp_path / "wal", in_range_events(stream_base, 12, seed=7))
        baseline = StreamIngestor(log, stream_base, tmp_path / "ckpt_ok", **knobs)
        baseline.run()
        crashed = StreamIngestor(log, stream_base, tmp_path / "ckpt", **knobs)
        with FaultInjector() as chaos:
            getattr(chaos, fault)("checkpoint.write", iteration=2)
            with pytest.raises((InjectedFault, OSError)):
                crashed.run()
            assert chaos.fired == 1
        assert crashed.checkpointed_batches == 1
        resumed = StreamIngestor(log, stream_base, tmp_path / "ckpt", **knobs)
        assert (resumed.batches, resumed.offset) == (1, 4)
        resumed.run()
        assert_params_equal(resumed.params, baseline.params)
        assert resumed.offset == baseline.offset == 12

    def test_fresh_directory_starts_from_zero(self, stream_base, tmp_path):
        log = fill_log(tmp_path / "wal", in_range_events(stream_base, 5))
        ingestor = StreamIngestor(log, stream_base, tmp_path / "empty")
        assert ingestor.offset == 0
        assert ingestor.batches == 0


class TestValidation:
    def test_rejects_bad_knobs(self, stream_base, tmp_path):
        log = fill_log(tmp_path / "wal", [])
        with pytest.raises(ValueError, match="batch_events"):
            StreamIngestor(log, stream_base, tmp_path / "c", batch_events=0)
        with pytest.raises(ValueError, match="fold_iterations"):
            StreamIngestor(log, stream_base, tmp_path / "c", fold_iterations=0)
        with pytest.raises(ValueError, match="refit_iterations"):
            StreamIngestor(log, stream_base, tmp_path / "c", refit_iterations=0)
        with pytest.raises(ValueError, match="blend"):
            StreamIngestor(log, stream_base, tmp_path / "c", blend=0.0)
