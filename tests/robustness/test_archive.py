"""The one archive format: alignment, and hostile bytes for its readers.

:func:`repro.robustness.archive.write_archive` writes snapshots and
checkpoints alike. Every member's data must start on a 64-byte boundary
whatever its name or array, and ``np.load`` must read the file back
bitwise. Whatever bytes end up on disk — a truncation at any structural
boundary, a flipped byte, a deflated or misaligned member, an ``.npy``
header that disagrees with the parameters — the readers raise only
their typed errors (``SnapshotCorruptError`` / ``CheckpointError``,
naming the path), never ``struct.error``, ``zipfile.BadZipFile``,
``IndexError`` or ``KeyError``.
"""

import hashlib
import io
import json
import os
import stat
import struct
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import TTCAMParameters
from repro.core.serialize import LoadedModel, load_params, save_params
from repro.recommend.paramstore import ParamStore
from repro.robustness import CheckpointError, CheckpointManager, SnapshotCorruptError
from repro.robustness.archive import ALIGN, map_members, write_archive
from repro.robustness.checkpoint import digest_arrays

USERS, ITEMS, INTERVALS = 9, 70, 4


def spans(raw):
    """Per member: (local header, data, array data, end) file offsets."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        infos = archive.infolist()
    found = {}
    for info in infos:
        start = info.header_offset
        name_len, extra_len = struct.unpack("<HH", raw[start + 26 : start + 30])
        data = start + 30 + name_len + extra_len
        stream = io.BytesIO(raw[data : data + info.file_size])
        major, _ = np.lib.format.read_magic(stream)
        getattr(np.lib.format, f"read_array_header_{major}_0")(stream)
        found[info.filename] = (start, data, data + stream.tell(), data + info.file_size)
    return found


@pytest.fixture(scope="module")
def params():
    rng = np.random.default_rng(5)
    return TTCAMParameters(
        theta=rng.dirichlet(np.ones(3), size=USERS),
        phi=rng.dirichlet(np.full(ITEMS, 0.2), size=3),
        theta_time=rng.dirichlet(np.ones(2), size=INTERVALS),
        phi_time=rng.dirichlet(np.full(ITEMS, 0.2), size=2),
        lambda_u=rng.uniform(0.1, 0.9, size=USERS),
    )


@pytest.fixture(scope="module")
def mapped_bytes(params, tmp_path_factory):
    path = save_params(params, tmp_path_factory.mktemp("mapped") / "m.npz", mmap_layout=True)
    return path.read_bytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(params, tmp_path_factory):
    manager = CheckpointManager(tmp_path_factory.mktemp("ckpt"))
    path = manager.save(params.arrays(), iteration=3, log_likelihood=[-2.0, -1.5])
    return path.read_bytes()


def open_snapshot(path):
    """Every snapshot reader on ``path``; only ``SnapshotCorruptError`` may escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for read in (LoadedModel.from_file, load_params):
            try:
                read(path)
            except SnapshotCorruptError as exc:
                assert str(path) in str(exc), exc
        try:
            store = ParamStore(path)
        except SnapshotCorruptError as exc:
            assert str(path) in str(exc), exc
            return
        try:
            store.verify()
        except SnapshotCorruptError as exc:
            assert str(path) in str(exc), exc


def open_checkpoint(path):
    try:
        CheckpointManager(path.parent).load(path)
    except CheckpointError as exc:
        assert str(path) in str(exc), exc


names = st.text(
    alphabet=st.sampled_from("abcxyz_019éφ"), min_size=1, max_size=90
)
arrays = st.one_of(
    st.integers(0, 300).map(lambda n: np.linspace(0.0, 1.0, n)),
    st.integers(0, 300).map(lambda n: (np.arange(n) % 127).astype(np.int8)),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
        lambda shape: np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape)
    ),
    st.text(max_size=40).map(np.array),
    st.just(np.zeros((0, 4))),
)


class TestAlignment:
    @settings(max_examples=40, deadline=None)
    @given(members=st.dictionaries(names, arrays, min_size=1, max_size=5))
    def test_every_member_is_aligned_and_np_load_reads_it_bitwise(self, members):
        with tempfile.TemporaryDirectory() as directory:
            path = write_archive(Path(directory) / "a.npz", members, "snapshot.write")
            raw = path.read_bytes()
            for filename, (_, data, array_data, _) in spans(raw).items():
                assert data % ALIGN == 0, filename
                assert array_data % ALIGN == 0, filename
            with zipfile.ZipFile(path) as archive:
                assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
            with np.load(path, allow_pickle=False) as archive:
                assert archive.files == list(members)
                for name, value in members.items():
                    got = archive[name]
                    assert (got.dtype, got.shape) == (value.dtype, value.shape), name
                    assert got.tobytes() == value.tobytes(), name
            mapped = map_members(path)
            for name, value in members.items():
                assert mapped[name].tobytes() == value.tobytes(), name

    def test_digest_is_unchanged_by_hashing_in_place(self):
        # what the tobytes() copy hashed, for every layout an archive holds
        cases = {
            "f": np.arange(12.0).reshape(3, 4),
            "t": np.arange(12.0).reshape(3, 4).T,
            "i": np.arange(5, dtype=np.int64),
            "s": np.array("ttcam-v1"),
            "e": np.zeros((0, 3)),
        }
        for name, value in cases.items():
            h = hashlib.sha256()
            contiguous = np.ascontiguousarray(value)
            for part in (name, str(contiguous.dtype), str(contiguous.shape)):
                h.update(part.encode())
            h.update(contiguous.tobytes())
            assert digest_arrays({name: value}) == h.hexdigest(), name


class TestTruncation:
    @pytest.mark.parametrize("kind", ["snapshot", "checkpoint"])
    def test_every_structural_boundary(self, kind, mapped_bytes, checkpoint_bytes, tmp_path):
        raw = mapped_bytes if kind == "snapshot" else checkpoint_bytes
        cuts = {1, len(raw) - 1}
        for start, data, array_data, end in spans(raw).values():
            cuts |= {start, start + 17, data, data + 5, array_data, (array_data + end) // 2, end}
        path = tmp_path / ("m.npz" if kind == "snapshot" else "em-000003.ckpt.npz")
        for cut in sorted(cuts):
            path.write_bytes(raw[:cut])
            if kind == "snapshot":
                with pytest.raises(SnapshotCorruptError, match=str(path)):
                    load_params(path)
                open_snapshot(path)
            else:
                with pytest.raises(CheckpointError, match=str(path)):
                    CheckpointManager(tmp_path).load(path)


class TestByteFlips:
    @settings(max_examples=200, deadline=None)
    @given(where=st.floats(0, 1, exclude_max=True), mask=st.integers(1, 255))
    def test_snapshot_readers_raise_only_their_error(self, mapped_bytes, where, mask):
        raw = bytearray(mapped_bytes)
        raw[int(where * len(raw))] ^= mask
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "m.npz"
            path.write_bytes(bytes(raw))
            open_snapshot(path)

    @settings(max_examples=40, deadline=None)
    @given(where=st.floats(0, 1, exclude_max=True), mask=st.integers(1, 255))
    def test_checkpoint_reader_raises_only_its_error(self, checkpoint_bytes, where, mask):
        raw = bytearray(checkpoint_bytes)
        raw[int(where * len(raw))] ^= mask
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "em-000003.ckpt.npz"
            path.write_bytes(bytes(raw))
            open_checkpoint(path)

    def test_a_flip_in_any_member_data_fails_the_mapped_open_or_verify(
        self, mapped_bytes, tmp_path
    ):
        path = tmp_path / "m.npz"
        for filename, (_, _, array_data, end) in spans(mapped_bytes).items():
            if filename.startswith("tcam_") or end == array_data:
                continue
            raw = bytearray(mapped_bytes)
            raw[(array_data + end) // 2] ^= 0x40
            path.write_bytes(bytes(raw))
            with pytest.raises(SnapshotCorruptError, match=str(path)):
                ParamStore(path).verify()


class TestMalformedMembers:
    def _members(self, mapped_bytes, tmp_path):
        source = tmp_path / "source.npz"
        source.write_bytes(mapped_bytes)
        with np.load(source) as archive:
            return {name: archive[name] for name in archive.files}

    def _assert_falls_back(self, path, match):
        with pytest.raises(SnapshotCorruptError, match=match):
            ParamStore(path)
        with pytest.warns(RuntimeWarning, match="falling back"):
            model = LoadedModel.from_file(path)
        assert model.param_store is None  # the eager load of the same file serves

    def test_deflated_members(self, mapped_bytes, tmp_path):
        path = tmp_path / "deflated.npz"
        write_archive(path, self._members(mapped_bytes, tmp_path), "snapshot.write", deflate=True)
        self._assert_falls_back(path, "is not a stored .npy file")

    def test_misaligned_members(self, mapped_bytes, tmp_path):
        path = tmp_path / "misaligned.npz"
        np.savez(path, **self._members(mapped_bytes, tmp_path))  # stored, not padded
        self._assert_falls_back(path, "not an aligned plain array")

    def test_npy_header_disagreeing_with_the_member_size(self, mapped_bytes, tmp_path):
        raw = bytearray(mapped_bytes)
        _, data, array_data, _ = spans(mapped_bytes)["context32.npy"]
        header = bytes(raw[data:array_data])
        wrong = header.replace(f"({INTERVALS}, {ITEMS})".encode(), f"({INTERVALS}, {ITEMS - 1})".encode())
        assert wrong != header and len(wrong) == len(header)
        raw[data:array_data] = wrong
        path = tmp_path / "header.npz"
        path.write_bytes(bytes(raw))
        self._assert_falls_back(path, "disagrees with its size")

    def test_npy_header_disagreeing_with_the_parameter_shapes(self, mapped_bytes, tmp_path):
        members = self._members(mapped_bytes, tmp_path)
        members["item_topic"] = members["item_topic"][:-1]
        manifest = json.loads(str(members["tcam_manifest"]))
        manifest["digests"]["item_topic"] = digest_arrays({"item_topic": members["item_topic"]})
        members["tcam_manifest"] = np.array(json.dumps(manifest))
        path = write_archive(tmp_path / "shape.npz", members, "snapshot.write")
        self._assert_falls_back(path, "item_topic shape")


class TestDurablePublish:
    def test_the_directory_is_fsynced_after_the_replace(self, params, tmp_path, monkeypatch):
        # A rename is durable only once its directory is: write_archive
        # must fsync a descriptor of the target's own directory after
        # os.replace, or a crash can lose the published name.
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        def replace(source, target):
            events.append(("replace", Path(target).name))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        write_archive(tmp_path / "a.npz", params.arrays(), "snapshot.write")
        published = events.index(("replace", "a.npz"))
        directory = ("fsync", True, tmp_path.stat().st_ino)
        assert ("fsync", False) in [event[:2] for event in events[:published]]
        assert directory in events[published + 1 :]
