"""CheckpointManager: atomic writes, checksums, pruning, recovery."""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.robustness import (
    CheckpointError,
    CheckpointManager,
    digest_arrays,
)


@pytest.fixture
def arrays():
    rng = np.random.default_rng(0)
    return {
        "theta": rng.random((4, 3)),
        "phi": rng.random((3, 5)),
    }


class TestDigest:
    def test_deterministic_and_order_independent(self, arrays):
        forward = digest_arrays(arrays)
        backward = digest_arrays(dict(reversed(list(arrays.items()))))
        assert forward == backward
        assert len(forward) == 64  # hex SHA-256

    def test_sensitive_to_content_name_and_shape(self, arrays):
        base = digest_arrays(arrays)
        bumped = {**arrays, "theta": arrays["theta"] + 1e-12}
        renamed = {"theta2": arrays["theta"], "phi": arrays["phi"]}
        reshaped = {**arrays, "phi": arrays["phi"].reshape(5, 3)}
        assert base != digest_arrays(bumped)
        assert base != digest_arrays(renamed)
        assert base != digest_arrays(reshaped)


class TestSaveLoad:
    def test_roundtrip_is_bit_identical(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path, every=2)
        path = manager.save(arrays, iteration=4, log_likelihood=[-10.0, -8.5])
        restored = manager.load(path)
        assert restored.iteration == 4
        assert restored.log_likelihood == [-10.0, -8.5]
        for name, value in arrays.items():
            np.testing.assert_array_equal(restored.arrays[name], value)

    def test_archive_is_stored_and_keeps_save_order(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path)
        shuffled = {"zeta": arrays["phi"], **arrays, "alpha": arrays["theta"]}
        path = manager.save(shuffled, iteration=1)
        with zipfile.ZipFile(path) as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_STORED}
        restored = manager.load(path).arrays
        assert list(restored) == list(shuffled)
        for name, value in shuffled.items():
            assert restored[name].tobytes() == value.tobytes()
            assert restored[name].dtype == value.dtype

    def test_no_temp_files_left_behind(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path)
        manager.save(arrays, iteration=5, log_likelihood=[-1.0])
        leftovers = [p for p in tmp_path.iterdir() if not p.name.endswith(".npz")]
        assert leftovers == []

    def test_should_save_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=3)
        assert [i for i in range(10) if manager.should_save(i)] == [3, 6, 9]

    def test_corrupt_checkpoint_is_rejected(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path)
        path = manager.save(arrays, iteration=2, log_likelihood=[-1.0])
        raw = bytearray(path.read_bytes())
        # Archives are stored, so the array's bytes sit in the file as-is.
        raw[raw.index(arrays["theta"].tobytes()) + 5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            manager.load(path)

    def test_truncated_checkpoint_is_rejected(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path)
        path = manager.save(arrays, iteration=2, log_likelihood=[-1.0])
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            manager.load(path)


class TestLatestAndPrune:
    def test_prune_keeps_newest(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path, every=1, keep=2)
        for iteration in (1, 2, 3, 4):
            manager.save(arrays, iteration=iteration, log_likelihood=[-1.0])
        kept = sorted(p.name for p in tmp_path.glob("*.npz"))
        assert len(kept) == 2
        assert kept == ["em-000003.ckpt.npz", "em-000004.ckpt.npz"]

    def test_clear_removes_only_this_prefix(self, tmp_path, arrays):
        stream = CheckpointManager(tmp_path, prefix="stream")
        other = CheckpointManager(tmp_path, prefix="em")
        for iteration in (7, 9):
            stream.save(arrays, iteration=iteration)
        kept = other.save(arrays, iteration=3)
        stream.clear()
        assert list(tmp_path.iterdir()) == [kept]
        stream.clear()  # nothing left, and a missing directory, are both fine
        CheckpointManager(tmp_path / "absent").clear()
        # Numbering starts over: an earlier iteration is no longer "old".
        stream.save(arrays, iteration=1)
        assert stream.latest().iteration == 1

    def test_latest_returns_newest(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(arrays, iteration=1, log_likelihood=[-2.0])
        manager.save(arrays, iteration=7, log_likelihood=[-2.0, -1.0])
        latest = manager.latest()
        assert latest is not None
        assert latest.iteration == 7

    def test_latest_skips_corrupt_with_warning(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(arrays, iteration=1, log_likelihood=[-2.0])
        newest = manager.save(arrays, iteration=2, log_likelihood=[-2.0, -1.5])
        newest.write_bytes(b"garbage")
        with pytest.warns(UserWarning, match="skipping"):
            latest = manager.latest()
        assert latest is not None
        assert latest.iteration == 1

    def test_latest_on_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_meta_roundtrips(self, tmp_path, arrays):
        manager = CheckpointManager(tmp_path)
        manager.meta = {"model": "ttcam", "k1": 3}
        path = manager.save(arrays, iteration=2, log_likelihood=[-1.0])
        assert manager.load(path).meta == {"model": "ttcam", "k1": 3}
