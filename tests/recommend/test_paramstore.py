"""Tests for the memory-mapped parameter store (``repro.recommend.paramstore``).

The sidecar layout is a derived serving artifact: it must reproduce the
snapshot's parameters and every persisted derived array *bitwise*, fail
loudly (``SnapshotCorruptError``) on any tampering, and — through
``LoadedModel.from_file``, which maps whenever a fresh sidecar is there —
serve results identical to the eager path while degrading gracefully
when the sidecar is damaged or stale.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.core.serialize import (
    LoadedModel,
    load_params,
    params_checksum,
    save_params,
    stored_checksum,
)
from repro.recommend import TemporalRecommender
from repro.recommend.paramstore import (
    MANIFEST_NAME,
    ParamStore,
    store_dir,
    write_store,
)
from repro.recommend.quantize import quantize_matrix
from repro.recommend.threshold import SortedTopicLists
from repro.robustness.errors import SnapshotCorruptError

from .test_serving import make_itcam, make_ttcam


@pytest.fixture(scope="module", params=["ttcam", "itcam"])
def snapshot(request, tmp_path_factory):
    rng = np.random.default_rng(11)
    maker = make_ttcam if request.param == "ttcam" else make_itcam
    model = maker(rng, num_users=10, num_items=70, num_intervals=4)
    path = tmp_path_factory.mktemp("store") / "model.npz"
    return save_params(model.params_, path, mmap_layout=True)


class TestRoundTrip:
    def test_sidecar_written_next_to_snapshot(self, snapshot):
        directory = store_dir(snapshot)
        assert directory.is_dir()
        assert (directory / MANIFEST_NAME).exists()

    def test_params_bitwise_equal_to_eager_load(self, snapshot):
        eager = load_params(snapshot)
        store = ParamStore.for_snapshot(snapshot)
        restored = store.params()
        assert type(restored) is type(eager)
        for name in ("theta", "phi", "theta_time", "lambda_u"):
            assert np.array_equal(getattr(restored, name), getattr(eager, name)), name
        if hasattr(eager, "phi_time"):
            assert np.array_equal(restored.phi_time, eager.phi_time)

    def test_derived_arrays_match_online_construction(self, snapshot):
        eager = load_params(snapshot)
        store = ParamStore.for_snapshot(snapshot)
        if hasattr(eager, "phi_time"):  # TTCAM: one static matrix
            lists = SortedTopicLists.build(eager.topic_item_matrix())
            assert np.array_equal(store.item_topic("static"), lists.item_topic)
        else:  # ITCAM: per-interval matrices are not persisted
            assert store.item_topic(0) is None
        # The TA sorted lists are no longer derived or persisted: no
        # serving path reads them.
        assert store.array("sorted_order") is None
        assert store.array("sorted_values") is None
        assert not list(store.directory.glob("sorted_*"))
        stored_q = store.quantized_selection("int8")
        fresh = quantize_matrix(np.asarray(eager.phi), "int8")
        assert stored_q is not None
        assert np.array_equal(stored_q.storage, fresh.storage)
        assert np.array_equal(stored_q.scale, fresh.scale)
        assert np.array_equal(stored_q.delta, fresh.delta)
        assert np.array_equal(stored_q.row_abs_max, fresh.row_abs_max)
        assert store.quantized_selection("float16") is None  # no longer persisted
        assert not list(store.directory.glob("qsel_float16*"))

    def test_context_rows_bitwise_match_online_expression(self, snapshot):
        eager = load_params(snapshot)
        store = ParamStore.for_snapshot(snapshot)
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
        # variant tag, parameter members and checksum all come from the
        # parameter container; the sidecar keeps no field list of its own.
        eager = load_params(snapshot)
        manifest = json.loads((store_dir(snapshot) / MANIFEST_NAME).read_text())
        assert manifest["variant"] == eager.VARIANT
        assert manifest["snapshot_checksum"] == params_checksum(eager)
        assert manifest["snapshot_checksum"] == stored_checksum(snapshot)
        assert set(eager.arrays()) <= set(manifest["arrays"])
        restored = ParamStore.for_snapshot(snapshot).params()
        assert tuple(vars(restored)) == eager.field_names()

    def test_mapped_container_answers_the_read_side_bitwise(self, snapshot):
        eager = load_params(snapshot)
        mapped = ParamStore.for_snapshot(snapshot).params()
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
        store = ParamStore.for_snapshot(snapshot)
        store.verify()
        assert store.nbytes > 0


class TestCorruption:
    def _copy_store(self, snapshot, tmp_path):
        import shutil

        copy = tmp_path / "model.npz"
        shutil.copy(snapshot, copy)
        shutil.copytree(store_dir(snapshot), store_dir(copy))
        return copy

    def test_missing_sidecar_raises(self, tmp_path):
        with pytest.raises(SnapshotCorruptError, match="sidecar"):
            ParamStore.for_snapshot(tmp_path / "absent.npz")

    def test_flipped_bytes_fail_verify(self, snapshot, tmp_path):
        copy = self._copy_store(snapshot, tmp_path)
        target = sorted(store_dir(copy).glob("*.npy"))[0]
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        # Small arrays are hashed eagerly at open; large ones only by
        # verify(). Either way the corruption must surface as the typed
        # error, never as garbage parameters.
        with pytest.raises(SnapshotCorruptError):
            ParamStore.for_snapshot(copy).verify()

    def test_truncated_manifest_rejected(self, snapshot, tmp_path):
        copy = self._copy_store(snapshot, tmp_path)
        manifest = store_dir(copy) / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[:40])
        with pytest.raises(SnapshotCorruptError):
            ParamStore.for_snapshot(copy)

    def test_missing_array_rejected(self, snapshot, tmp_path):
        copy = self._copy_store(snapshot, tmp_path)
        sorted(store_dir(copy).glob("*.npy"))[0].unlink()
        with pytest.raises(SnapshotCorruptError):
            ParamStore.for_snapshot(copy)

    def test_v1_manifest_rejected_by_format_check(self, snapshot, tmp_path):
        copy = self._copy_store(snapshot, tmp_path)
        manifest_file = store_dir(copy) / MANIFEST_NAME
        manifest = json.loads(manifest_file.read_text())
        manifest["format"] = "tcam-store-v1"
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotCorruptError, match="tcam-store-v2"):
            ParamStore.for_snapshot(copy)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert LoadedModel.from_file(copy).param_store is None

    def test_tampered_parameters_fail_spot_check(self, snapshot, tmp_path):
        copy = self._copy_store(snapshot, tmp_path)
        theta_file = store_dir(copy) / "theta.npy"
        theta = np.load(theta_file)
        theta[0] = 9.0  # no longer row-stochastic
        np.save(theta_file, theta)
        manifest_file = store_dir(copy) / MANIFEST_NAME
        manifest = json.loads(manifest_file.read_text())
        from repro.recommend.paramstore import _file_sha256

        manifest["arrays"]["theta"]["sha256"] = _file_sha256(theta_file)
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotCorruptError):
            ParamStore.for_snapshot(copy)


class TestStaleSidecar:
    """A sidecar must describe the ``.npz`` beside it, or it is not served."""

    def test_resave_without_layout_warns_and_serves_new_params(self, tmp_path):
        rng = np.random.default_rng(31)
        old, new = make_ttcam(rng), make_ttcam(rng)
        path = save_params(old.params_, tmp_path / "model.npz", mmap_layout=True)
        save_params(new.params_, path)  # leaves model.npz.arrays/ describing `old`
        with pytest.raises(SnapshotCorruptError, match="stale"):
            ParamStore.for_snapshot(path)
        with pytest.warns(RuntimeWarning, match="stale.*falling back"):
            loaded = LoadedModel.from_file(path)
        assert loaded.param_store is None
        assert np.array_equal(loaded.params_.theta, new.params_.theta)
        assert not np.array_equal(loaded.params_.theta, old.params_.theta)

    def test_resave_with_layout_is_fresh_again(self, tmp_path):
        rng = np.random.default_rng(32)
        old, new = make_ttcam(rng), make_ttcam(rng)
        path = save_params(old.params_, tmp_path / "model.npz", mmap_layout=True)
        save_params(new.params_, path, mmap_layout=True)
        store = ParamStore.for_snapshot(path)
        assert np.array_equal(store.params().theta, new.params_.theta)

    def test_matching_sidecar_opens_without_decoding_parameters(self, snapshot, monkeypatch):
        # The freshness check reads one small zip member: it must not
        # fall back on the eager loader (which decodes every array).
        import repro.core.serialize as serialize

        def no_eager_load(path):
            raise AssertionError("for_snapshot decoded the parameter arrays")

        monkeypatch.setattr(serialize, "load_params", no_eager_load)
        loaded = LoadedModel.from_file(snapshot)
        assert loaded.param_store is not None
        assert loaded.param_store.snapshot_checksum == serialize.stored_checksum(snapshot)


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
        # The layout older writers produced: the same tcam-store-v2
        # manifest plus sorted_order / sorted_values entries. The extra
        # entries are mapped, hash-checked and otherwise ignored.
        model = make_ttcam(np.random.default_rng(29), num_items=70)
        path = save_params(model.params_, tmp_path / "old.npz", mmap_layout=True)
        directory = store_dir(path)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == "tcam-store-v2"
        lists = SortedTopicLists.build(model.params_.topic_item_matrix())
        for name, array in (("sorted_order", lists.order), ("sorted_values", lists.values)):
            np.save(directory / f"{name}.npy", array)
            manifest["arrays"][name] = {
                "file": f"{name}.npy",
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "sha256": hashlib.sha256((directory / f"{name}.npy").read_bytes()).hexdigest(),
            }
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

        store = ParamStore.for_snapshot(path)
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
    """``from_file`` takes no switch: what is on disk decides how it opens."""

    @pytest.mark.parametrize(
        "sidecar, mapped, warns",
        [("none", False, False), ("fresh", True, False), ("stale", False, True), ("torn", False, True)],
    )
    def test_from_file_follows_what_is_on_disk(self, tmp_path, sidecar, mapped, warns):
        rng = np.random.default_rng(23)
        old, new = make_ttcam(rng), make_ttcam(rng)
        path = tmp_path / "model.npz"
        if sidecar == "stale":
            save_params(old.params_, path, mmap_layout=True)
        save_params(new.params_, path, mmap_layout=sidecar == "fresh")
        if sidecar == "torn":  # a publish that died before its manifest
            store_dir(path).mkdir()
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
