"""Files written before stored checkpoints and overlay checkpoints still work.

``fixtures/pre_overlay/`` holds two tiny files written by commit 2d61172 —
the last one whose ``CheckpointManager`` deflated and whose
``StreamIngestor`` checkpointed the whole parameter set — by running this
module as a script against that commit's sources::

    PYTHONPATH=<checkout of 2d61172>/src python tests/streaming/test_pre_overlay_formats.py

Format compatibility is pinned by their bytes, not by today's writer: the
compressed ``ttcam-v1`` snapshot must load, and the monolithic, deflated
stream checkpoint — which today's writer cannot produce — must resume,
bit for bit.
"""

from __future__ import annotations

import json
import shutil
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import TTCAMParameters
from repro.core.serialize import load_params, save_params
from repro.robustness import CheckpointError, digest_arrays
from repro.streaming import EventLog, StreamEvent, StreamIngestor

pytestmark = pytest.mark.faults

FIXTURES = Path(__file__).parent / "fixtures" / "pre_overlay"
SNAPSHOT = FIXTURES / "snapshot.npz"
CHECKPOINT = FIXTURES / "stream-000002.ckpt.npz"

#: Ingestor knobs of the fixture run; a resume must repeat them.
KNOBS = {"batch_events": 5, "checkpoint_every": 2, "drift_threshold": 0.98}

#: 16 events over 6 users (2 unseen), 4 intervals (1 unseen), 8 items.
EVENTS = [
    StreamEvent(user=(3 * i) % 8, interval=(i // 3) % 4, item=(5 * i + 1) % 8, score=1.0 + i % 3)
    for i in range(16)
]


def fill_log(path: Path) -> EventLog:
    with EventLog(path) as log:
        log.append(EVENTS)
    return EventLog(path)


def test_compressed_snapshot_loads_bit_identically():
    with zipfile.ZipFile(SNAPSHOT) as archive:
        assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    loaded = load_params(SNAPSHOT)
    assert type(loaded) is TTCAMParameters
    with np.load(SNAPSHOT) as raw:
        assert str(raw["tcam_format"]) == "ttcam-v1"
        for name, array in loaded.arrays().items():
            assert np.array_equal(array, raw[name]), name
        assert str(raw["tcam_checksum"]) == digest_arrays(loaded.arrays())


def test_monolithic_checkpoint_resumes_bit_identically(tmp_path):
    base = load_params(SNAPSHOT)
    (tmp_path / "ckpt").mkdir()
    shutil.copy(CHECKPOINT, tmp_path / "ckpt")
    log = fill_log(tmp_path / "wal")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        resumed = StreamIngestor(log, base, tmp_path / "ckpt", **KNOBS)
        # Today's fold of the same two batches lands on the old writer's bits.
        uninterrupted = StreamIngestor(log, base, tmp_path / "fresh", **KNOBS)
        uninterrupted.run(max_batches=2)
        with np.load(CHECKPOINT) as raw:
            assert {"phi", "phi_time"} <= set(raw.files)  # monolithic
            meta = json.loads(str(raw["__meta__"]))
            for ingestor in (resumed, uninterrupted):
                for name in ("theta", "theta_time", "lambda_u"):
                    assert np.array_equal(getattr(ingestor.params, name), raw[name]), name
                assert np.array_equal(ingestor.tracker.vectors, raw["drift_vectors"])
                assert np.array_equal(ingestor.tracker.valid, raw["drift_valid"])
        # Its φ/φ′ matched base's and were dropped in favour of them.
        assert resumed.params.phi is base.phi
        assert resumed.params.phi_time is base.phi_time
        assert resumed.offset == meta["offset"] == 10
        assert resumed.batches == meta["counters"]["batches"] == 2

        resumed.run()
        uninterrupted.run()
    for name, array in uninterrupted.params.arrays().items():
        assert np.array_equal(getattr(resumed.params, name), array), name
    assert np.array_equal(resumed.tracker.vectors, uninterrupted.tracker.vectors)
    assert (resumed.offset, resumed.applied, resumed.boundaries) == (
        uninterrupted.offset, uninterrupted.applied, uninterrupted.boundaries
    )


def test_monolithic_checkpoint_refuses_another_base(tmp_path):
    base = load_params(SNAPSHOT)
    refit = base.with_fields(phi=base.phi[::-1].copy())
    (tmp_path / "ckpt").mkdir()
    shutil.copy(CHECKPOINT, tmp_path / "ckpt")
    with pytest.raises(CheckpointError, match="other phi/phi_time"):
        StreamIngestor(fill_log(tmp_path / "wal"), refit, tmp_path / "ckpt", **KNOBS)


def _write_fixtures() -> None:
    """Regenerate the fixtures with whatever ``repro`` is importable."""
    rng = np.random.default_rng(23)
    base = TTCAMParameters(
        theta=rng.dirichlet(np.ones(2), size=6),
        phi=rng.dirichlet(np.ones(8), size=2),
        theta_time=rng.dirichlet(np.ones(2), size=3),
        phi_time=rng.dirichlet(np.ones(8), size=2),
        lambda_u=rng.uniform(0.2, 0.8, size=6),
    )
    shutil.rmtree(FIXTURES, ignore_errors=True)
    save_params(base, SNAPSHOT)
    scratch = FIXTURES / "scratch"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ingestor = StreamIngestor(fill_log(scratch / "wal"), base, scratch / "ckpt", **KNOBS)
        ingestor.run(max_batches=2)
    shutil.copy(scratch / "ckpt" / CHECKPOINT.name, CHECKPOINT)
    shutil.rmtree(scratch)


if __name__ == "__main__":
    _write_fixtures()
