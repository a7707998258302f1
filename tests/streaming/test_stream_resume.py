"""Kill-anywhere property: resume is bit-identical to never crashing.

The crash-safety contract of the streaming pipeline, stated as one
property and searched by Hypothesis: for *any* event sequence (including
new users, new intervals, out-of-catalogue items, duplicates) and *any*
kill point (before any micro-batch, before any checkpoint write, or with
an overlay checkpoint torn mid-write or refused by a full disk), a run
that crashes there and resumes from its durable state produces
bit-identical model parameters, drift state and consumer offset to a run
that was never interrupted — no event double-applied, none dropped. And
whatever it left behind refuses to resume over another ``φ``/``φ′``.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.robustness import CheckpointError, FaultInjector, InjectedFault
from repro.streaming import EventLog, StreamEvent, StreamIngestor

PARAM_FIELDS = ("theta", "phi", "theta_time", "phi_time", "lambda_u")

events_strategy = st.lists(
    st.tuples(
        st.integers(0, 13),  # users: up to 4 beyond the fitted 10
        st.integers(0, 5),  # intervals: up to 3 beyond the fitted 3
        st.integers(0, 17),  # items: up to 3 beyond the fitted 15 (skipped)
        st.floats(0.5, 3.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=36,
)


KNOBS = {"batch_events": 7, "checkpoint_every": 2, "drift_threshold": 0.98}


def run_ingestor(log_dir: Path, params, checkpoint_dir: Path) -> StreamIngestor:
    ingestor = StreamIngestor(EventLog(log_dir), params, checkpoint_dir, **KNOBS)
    ingestor.run()
    return ingestor


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=events_strategy,
    kill_batch=st.integers(0, 5),
    kill_site=st.sampled_from(
        ["stream.batch", "stream.checkpoint", "torn_write", "disk_full"]
    ),
)
def test_kill_anywhere_resume_is_bit_identical(
    stream_base, rows, kill_batch, kill_site
):
    events = [
        StreamEvent(user=u, interval=t, item=i, score=s) for u, t, i, s in rows
    ]
    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)
        with EventLog(root / "wal") as log:
            log.append(events)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            # The run that never crashes.
            baseline = run_ingestor(root / "wal", stream_base, root / "ckpt_ok")
            # The run that dies at the drawn kill point...
            crashed = StreamIngestor(
                EventLog(root / "wal"), stream_base, root / "ckpt_kill", **KNOBS
            )
            with FaultInjector() as chaos:
                if kill_site in ("torn_write", "disk_full"):
                    getattr(chaos, kill_site)("checkpoint.write", iteration=kill_batch)
                else:
                    chaos.crash(kill_site, batch=kill_batch)
                try:
                    crashed.run()
                except (InjectedFault, OSError):
                    pass  # the simulated kill -9 / ENOSPC
            if crashed.manager.latest() is not None:
                refit = stream_base.with_fields(phi=stream_base.phi[::-1].copy())
                with pytest.raises(CheckpointError, match="other phi/phi_time"):
                    StreamIngestor(EventLog(root / "wal"), refit, root / "ckpt_kill", **KNOBS)
            # ...and the process that replaces it, resuming durably.
            resumed = run_ingestor(root / "wal", stream_base, root / "ckpt_kill")

        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(
                getattr(resumed.params, name),
                getattr(baseline.params, name),
                err_msg=f"{name} diverged after kill at {kill_site}#{kill_batch}",
            )
        np.testing.assert_array_equal(
            resumed.tracker.vectors, baseline.tracker.vectors
        )
        np.testing.assert_array_equal(resumed.tracker.valid, baseline.tracker.valid)
        assert resumed.offset == baseline.offset == len(events)
        assert resumed.applied == baseline.applied
        assert resumed.skipped == baseline.skipped
        assert resumed.boundaries == baseline.boundaries
