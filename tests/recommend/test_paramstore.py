"""Tests for mapping a snapshot in place (``repro.recommend.paramstore``).

A snapshot saved with ``mmap_layout=True`` carries derived serving
members. Mapped, it must reproduce the parameters and every derived
array *bitwise*, fail loudly (``SnapshotCorruptError``) on any
tampering, and — through ``LoadedModel.from_file``, which maps whenever
the archive carries the members — serve results identical to the eager
path while degrading to the eager load of the same file when a mapped
open fails its checks.
"""

import json
import struct
import warnings
import zipfile

import numpy as np
import pytest

from repro.core.serialize import LoadedModel, load_params, save_params
from repro.recommend import TemporalRecommender
from repro.recommend.paramstore import ParamStore
from repro.recommend.quantize import quantize_matrix
from repro.recommend.threshold import SortedTopicLists
from repro.robustness.archive import ALIGN, map_members, write_archive
from repro.robustness.checkpoint import digest_arrays
from repro.robustness.errors import SnapshotCorruptError

from .test_serving import make_itcam, make_ttcam

DERIVED = {
    "context32",
    "context_delta",
    "context_absmax",
    "qsel_int8_storage",
    "qsel_int8_scale",
    "qsel_int8_delta",
    "qsel_int8_absmax",
    "tcam_manifest",
}


@pytest.fixture(scope="module", params=["ttcam", "itcam"])
def snapshot(request, tmp_path_factory):
    rng = np.random.default_rng(11)
    maker = make_ttcam if request.param == "ttcam" else make_itcam
    model = maker(rng, num_users=10, num_items=70, num_intervals=4)
    path = tmp_path_factory.mktemp("store") / "model.npz"
    return save_params(model.params_, path, mmap_layout=True)


def members_of(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def manifest_of(members):
    return json.loads(str(members["tcam_manifest"]))


def data_ends(path):
    """Member name -> file offset one past its data."""
    raw = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    ends = {}
    for info in infos:
        start = info.header_offset
        name_len, extra_len = struct.unpack("<HH", raw[start + 26 : start + 30])
        ends[info.filename.removesuffix(".npy")] = start + 30 + name_len + extra_len + info.file_size
    return ends


def rewrite(source, dest, redigest=(), **changes):
    """``source``'s members with ``changes`` (``None`` drops one), written as a stored archive.

    Members named in ``redigest`` get their manifest digest recomputed,
    as a consistent tamperer would.
    """
    members = members_of(source)
    for name, value in changes.items():
        if value is None:
            members.pop(name)
        else:
            members[name] = value
    if redigest:
        manifest = manifest_of(members)
        for name in redigest:
            manifest["digests"][name] = digest_arrays({name: members[name]})
        members["tcam_manifest"] = np.array(json.dumps(manifest))
    return write_archive(dest, members, "snapshot.write")


class TestRoundTrip:
    def test_derived_members_written_into_the_snapshot(self, snapshot):
        assert list(snapshot.parent.iterdir()) == [snapshot]  # nothing beside it
        with zipfile.ZipFile(snapshot) as archive:
            infos = archive.infolist()
        names = {info.filename.removesuffix(".npy") for info in infos}
        assert DERIVED <= names
        assert ("item_topic" in names) is ("phi_time" in names)
        assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)
        for name, array in map_members(snapshot).items():
            assert array.ctypes.data % ALIGN == 0, name

    def test_params_bitwise_equal_to_eager_load(self, snapshot):
        eager = load_params(snapshot)
        store = ParamStore(snapshot)
        restored = store.params()
        assert type(restored) is type(eager)
        for name in ("theta", "phi", "theta_time", "lambda_u"):
            assert np.array_equal(getattr(restored, name), getattr(eager, name)), name
        if hasattr(eager, "phi_time"):
            assert np.array_equal(restored.phi_time, eager.phi_time)

    def test_derived_arrays_match_online_construction(self, snapshot):
        eager = load_params(snapshot)
        store = ParamStore(snapshot)
        if hasattr(eager, "phi_time"):  # TTCAM: one static matrix
            lists = SortedTopicLists.build(eager.topic_item_matrix())
            assert np.array_equal(store.item_topic("static"), lists.item_topic)
        else:  # ITCAM: per-interval matrices are not persisted
            assert store.item_topic(0) is None
        # The TA sorted lists are not derived or persisted: no serving
        # path reads them.
        assert store.array("sorted_order") is None
        assert store.array("sorted_values") is None
        stored_q = store.quantized_selection("int8")
        fresh = quantize_matrix(np.asarray(eager.phi), "int8")
        assert stored_q is not None
        assert np.array_equal(stored_q.storage, fresh.storage)
        assert np.array_equal(stored_q.scale, fresh.scale)
        assert np.array_equal(stored_q.delta, fresh.delta)
        assert np.array_equal(stored_q.row_abs_max, fresh.row_abs_max)
        assert store.quantized_selection("float16") is None  # not persisted
        assert not [name for name in members_of(snapshot) if name.startswith("qsel_float16")]

    def test_context_rows_bitwise_match_online_expression(self, snapshot):
        eager = load_params(snapshot)
        store = ParamStore(snapshot)
        for interval in range(eager.num_intervals):
            row = store.context_row(interval)
            if hasattr(eager, "phi_time"):
                expected = eager.theta_time[interval] @ eager.phi_time
            else:
                expected = eager.theta_time[interval]
            assert np.array_equal(row, expected), interval
            ctx = store.context_vector(interval)
            assert np.array_equal(ctx.values, expected.astype(np.float32))

    def test_manifest_follows_the_containers_declaration(self, snapshot):
        # variant tag and parameter members come from the parameter
        # container; the layout keeps no field list of its own, and every
        # member it maps has a digest.
        eager = load_params(snapshot)
        members = members_of(snapshot)
        manifest = manifest_of(members)
        assert manifest["variant"] == eager.VARIANT
        assert set(eager.arrays()) <= set(manifest["digests"])
        assert set(manifest["digests"]) == {n for n in members if not n.startswith("tcam_")}
        for name, digest in manifest["digests"].items():
            assert digest == digest_arrays({name: members[name]}), name
        restored = ParamStore(snapshot).params()
        assert tuple(vars(restored)) == eager.field_names()

    def test_mapped_container_answers_the_read_side_bitwise(self, snapshot):
        eager = load_params(snapshot)
        mapped = ParamStore(snapshot).params()
        assert mapped.matrix_cache_key(2) == eager.matrix_cache_key(2)
        for interval in range(eager.num_intervals):
            assert np.array_equal(mapped.context_scores(interval), eager.context_scores(interval))
            assert np.array_equal(
                mapped.topic_item_matrix(interval), eager.topic_item_matrix(interval)
            )
            for user in range(eager.num_users):
                assert np.array_equal(
                    mapped.query_weights(user, interval), eager.query_weights(user, interval)
                )

    def test_verify_passes_and_nbytes_positive(self, snapshot):
        store = ParamStore(snapshot)
        store.verify()
        assert store.nbytes > 0


class TestCorruption:
    def test_missing_sidecar_raises(self, tmp_path):
        # the derived members are what the sidecar directory held
        params = make_ttcam(np.random.default_rng(3)).params_
        mapped = save_params(params, tmp_path / "mapped.npz", mmap_layout=True)
        bare = rewrite(mapped, tmp_path / "bare.npz", tcam_manifest=None)
        with pytest.raises(SnapshotCorruptError, match="no derived serving members"):
            ParamStore(bare)
        plain = save_params(params, tmp_path / "plain.npz")
        with pytest.raises(SnapshotCorruptError, match="not a stored .npy file"):
            ParamStore(plain)  # deflated: nothing to map

    def test_flipped_bytes_fail_verify(self, snapshot, tmp_path):
        for name, end in data_ends(snapshot).items():
            if name.startswith("tcam_"):
                continue
            copy = tmp_path / f"{name}.npz"
            raw = bytearray(snapshot.read_bytes())
            raw[end - 1] ^= 0xFF  # the member's last data byte
            copy.write_bytes(bytes(raw))
            # Small members are hashed at open; large ones only by
            # verify(). Either way the corruption must surface as the
            # typed error, never as garbage parameters.
            with pytest.raises(SnapshotCorruptError):
                ParamStore(copy).verify()

    def test_truncated_manifest_rejected(self, snapshot, tmp_path):
        text = str(members_of(snapshot)["tcam_manifest"])
        copy = rewrite(snapshot, tmp_path / "copy.npz", tcam_manifest=np.array(text[:40]))
        with pytest.raises(SnapshotCorruptError):
            ParamStore(copy)

    def test_missing_array_rejected(self, snapshot, tmp_path):
        copy = rewrite(snapshot, tmp_path / "copy.npz", context32=None)
        with pytest.raises(SnapshotCorruptError, match="missing members"):
            ParamStore(copy)

    def test_v1_manifest_rejected_by_format_check(self, snapshot, tmp_path):
        manifest = manifest_of(members_of(snapshot))
        manifest["format"] = "tcam-store-v1"
        copy = rewrite(snapshot, tmp_path / "copy.npz", tcam_manifest=np.array(json.dumps(manifest)))
        with pytest.raises(SnapshotCorruptError, match="tcam-store-v3"):
            ParamStore(copy)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert LoadedModel.from_file(copy).param_store is None

    def test_tampered_parameters_fail_spot_check(self, snapshot, tmp_path):
        theta = members_of(snapshot)["theta"].copy()
        theta[0] = 9.0  # no longer row-stochastic
        copy = rewrite(snapshot, tmp_path / "copy.npz", redigest=["theta"], theta=theta)
        with pytest.raises(SnapshotCorruptError, match="theta row 0"):
            ParamStore(copy)


class TestStaleSidecar:
    """A resave replaces the derived members with the parameters: they cannot go stale."""

    def test_resave_without_layout_serves_new_params_eagerly(self, tmp_path):
        rng = np.random.default_rng(31)
        old, new = make_ttcam(rng), make_ttcam(rng)
        path = save_params(old.params_, tmp_path / "model.npz", mmap_layout=True)
        save_params(new.params_, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = LoadedModel.from_file(path)
        assert loaded.param_store is None
        assert np.array_equal(loaded.params_.theta, new.params_.theta)
        assert not np.array_equal(loaded.params_.theta, old.params_.theta)

    def test_resave_with_layout_is_fresh_again(self, tmp_path):
        rng = np.random.default_rng(32)
        old, new = make_ttcam(rng), make_ttcam(rng)
        path = save_params(old.params_, tmp_path / "model.npz", mmap_layout=True)
        save_params(new.params_, path, mmap_layout=True)
        store = ParamStore(path)
        assert np.array_equal(store.params().theta, new.params_.theta)

    def test_matching_sidecar_opens_without_decoding_parameters(self, snapshot, monkeypatch):
        # The mapped open reads headers and small members only: it must
        # not fall back on the eager loader (which decodes every array).
        import repro.core.serialize as serialize

        def no_eager_load(path, serving=None):
            raise AssertionError("from_file decoded the parameter arrays")

        monkeypatch.setattr(serialize, "load_params", no_eager_load)
        loaded = LoadedModel.from_file(snapshot)
        assert loaded.param_store is not None
        assert isinstance(loaded.params_.phi, np.memmap)


class TestMmapServing:
    def test_mmap_batch_identical_to_eager(self, snapshot):
        eager = TemporalRecommender(LoadedModel(load_params(snapshot)))
        queries = [(u % 10, u % 4) for u in range(16)] + [(0, 0)]
        expected = eager.recommend_batch(queries, k=6)
        mapped_model = LoadedModel.from_file(snapshot)
        assert mapped_model.param_store is not None
        for dtype in ("float64", "int8"):
            mapped = TemporalRecommender(mapped_model)
            batch = mapped.recommend_batch(queries, k=6, dtype=dtype)
            for r_eager, r_mmap in zip(expected, batch):
                assert r_mmap.items == r_eager.items, dtype
                assert r_mmap.scores == r_eager.scores, dtype

    def test_mmap_single_query_identical_to_eager(self, snapshot):
        eager = TemporalRecommender(LoadedModel(load_params(snapshot)))
        mapped = TemporalRecommender(LoadedModel.from_file(snapshot))
        for user, interval in [(0, 0), (3, 2), (9, 3)]:
            r_eager = eager.recommend(user, interval, k=5)
            r_mmap = mapped.recommend(user, interval, k=5)
            assert r_mmap.items == r_eager.items
            assert r_mmap.scores == r_eager.scores

    def test_sidecar_with_sorted_lists_still_opens_and_serves(self, tmp_path):
        # Derived members the store does not know — the sorted_order /
        # sorted_values lists older layouts carried — are mapped,
        # hash-checked and otherwise ignored.
        model = make_ttcam(np.random.default_rng(29), num_items=70)
        path = save_params(model.params_, tmp_path / "plain.npz", mmap_layout=True)
        lists = SortedTopicLists.build(model.params_.topic_item_matrix())
        path = rewrite(
            path,
            tmp_path / "old.npz",
            redigest=["sorted_order", "sorted_values"],
            sorted_order=lists.order,
            sorted_values=lists.values,
        )
        store = ParamStore(path)
        store.verify()
        assert np.array_equal(store.array("sorted_order"), lists.order)
        eager = TemporalRecommender(LoadedModel(load_params(path)))
        mapped_model = LoadedModel.from_file(path)
        assert mapped_model.param_store is not None
        mapped = TemporalRecommender(mapped_model)
        queries = [(u % 12, u % 5) for u in range(14)]
        for dtype in ("float64", "int8"):
            for want, got in zip(
                eager.recommend_batch(queries, k=6),
                mapped.recommend_batch(queries, k=6, dtype=dtype),
            ):
                assert got.items == want.items
                assert [x.hex() for x in got.scores] == [x.hex() for x in want.scores]
        for method in (None, "ta"):
            want = eager.recommend(3, 2, k=5, method=method)
            got = mapped.recommend(3, 2, k=5, method=method)
            assert (got.items, got.scores) == (want.items, want.scores)


class TestOneOpener:
    """``from_file`` takes no switch: what is in the file decides how it opens."""

    @pytest.mark.parametrize(
        "sidecar, mapped, warns",
        [("none", False, False), ("fresh", True, False), ("stale", False, True), ("torn", False, True)],
    )
    def test_from_file_follows_what_is_on_disk(self, tmp_path, sidecar, mapped, warns):
        rng = np.random.default_rng(23)
        old, new = make_ttcam(rng), make_ttcam(rng)
        path = save_params(new.params_, tmp_path / "model.npz", mmap_layout=sidecar != "none")
        if sidecar == "stale":
            # derived members and manifest of other parameters beside
            # these: the manifest's digests describe other bytes
            fields = {n: a for n, a in members_of(path).items() if n not in DERIVED}
            spliced = save_params(old.params_, tmp_path / "old.npz", mmap_layout=True)
            rewrite(spliced, path, **fields)
        if sidecar == "torn":  # a derived member cut short of the parameters' shape
            rewrite(path, path, context32=members_of(path)["context32"][:1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = LoadedModel.from_file(path)
        assert (loaded.param_store is not None) is mapped
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert bool(messages) is warns, messages
        assert all("falling back" in message for message in messages)
        assert np.array_equal(loaded.params_.theta, new.params_.theta)
        want = TemporalRecommender(LoadedModel(new.params_)).recommend(0, 0, k=3)
        got = TemporalRecommender(loaded).recommend(0, 0, k=3)
        assert (got.items, got.scores) == (want.items, want.scores)
