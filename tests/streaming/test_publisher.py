"""Snapshot publication: health gate, rollback, zero-downtime swaps."""

from __future__ import annotations

import struct
import tempfile
import threading
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ITCAMParameters, TTCAMParameters
from repro.core.serialize import LoadedModel, load_params, save_params
from repro.recommend.recommender import TemporalRecommender
from repro.robustness import (
    FaultInjector,
    HealthMonitor,
    InjectedFault,
    SnapshotCorruptError,
    digest_arrays,
    truncate_file,
)
from repro.streaming import EventLog, SnapshotPublisher, StreamEvent, StreamIngestor

pytestmark = pytest.mark.faults


def perturbed(params, seed):
    """A slightly different but healthy parameter set (same dimensions)."""
    return TTCAMParameters(
        theta=perturbed_theta(params, seed),
        phi=params.phi,
        theta_time=params.theta_time,
        phi_time=params.phi_time,
        lambda_u=params.lambda_u,
    )


@pytest.fixture()
def recommender(stream_base):
    return TemporalRecommender(LoadedModel(stream_base))


class TestGate:
    def test_healthy_snapshot_publishes_and_bumps_generation(
        self, stream_base, recommender
    ):
        publisher = SnapshotPublisher(recommender)
        result = publisher.publish(perturbed(stream_base, 1))
        assert result.published
        assert result.generation == 1
        assert recommender.generation == 1
        assert recommender.swap_count == 1

    def test_probe_outside_snapshot_is_rejected(self, stream_base, recommender):
        publisher = SnapshotPublisher(
            recommender, probes=((stream_base.num_users + 7, 0),)
        )
        result = publisher.publish(perturbed(stream_base, 2))
        assert not result.published
        assert "probe user" in result.reason
        assert recommender.generation == 0
        assert recommender.rollback_count == 1

    def test_corrupt_snapshot_file_is_rejected_not_raised(
        self, stream_base, recommender, tmp_path
    ):
        path = save_params(perturbed(stream_base, 3), tmp_path / "snap.npz")
        path.write_bytes(path.read_bytes()[:100])  # truncate the archive
        publisher = SnapshotPublisher(recommender)
        result = publisher.publish_file(path)
        assert not result.published
        assert "snapshot rejected" in result.reason
        assert recommender.rollback_count == 1
        # Serving never went down.
        assert recommender.recommend(0, 0, k=3).recommendations

    def test_missing_snapshot_file_is_rejected(self, recommender, tmp_path):
        result = SnapshotPublisher(recommender).publish_file(tmp_path / "nope.npz")
        assert not result.published

    def test_good_snapshot_file_publishes(self, stream_base, recommender, tmp_path):
        path = save_params(perturbed(stream_base, 4), tmp_path / "snap.npz")
        result = SnapshotPublisher(recommender).publish_file(path)
        assert result.published
        assert recommender.generation == 1

    def test_mmap_snapshot_publishes_store_backed_model(
        self, stream_base, recommender, tmp_path
    ):
        candidate = perturbed(stream_base, 6)
        path = save_params(candidate, tmp_path / "snap.npz", mmap_layout=True)
        result = SnapshotPublisher(recommender).publish_file(path)
        assert result.published
        model = recommender.model
        assert model.param_store is not None
        np.testing.assert_array_equal(model.params_.theta, candidate.theta)
        assert recommender.recommend(0, 0, k=3).recommendations

    def test_drift_escalation_is_counted(self, stream_base, recommender):
        publisher = SnapshotPublisher(recommender)
        publisher.publish(perturbed(stream_base, 5), drift=True)
        assert recommender.drift_count == 1
        _, status = recommender.recommend_with_status(0, 0, k=3)
        assert status.drift_events == 1
        assert status.swaps == 1


class TestRevert:
    def test_revert_restores_previous_snapshot(self, stream_base, recommender):
        publisher = SnapshotPublisher(recommender)
        first = perturbed(stream_base, 6)
        second = perturbed(stream_base, 7)
        publisher.publish(first)
        publisher.publish(second)
        result = publisher.revert()
        assert result.published
        model = recommender.model
        assert isinstance(model, LoadedModel)
        np.testing.assert_array_equal(model.params_.theta, first.theta)
        assert recommender.rollback_count == 1
        assert recommender.generation == 3  # revert is itself a swap

    def test_revert_without_history_fails_safely(self, recommender):
        publisher = SnapshotPublisher(recommender)
        result = publisher.revert()
        assert not result.published
        assert recommender.generation == 0


class TestHotSwapUnderLoad:
    def test_concurrent_batches_see_single_consistent_generations(
        self, stream_base, recommender
    ):
        """The zero-downtime contract: swaps mid-traffic drop nothing.

        Four reader threads hammer ``recommend_batch_with_status`` while
        the main thread publishes ten fresh generations. Every batch
        must come back complete (no dropped queries) and every row of a
        batch must carry the *same* generation (no torn batches).
        """
        publisher = SnapshotPublisher(recommender)
        queries = [(u, t) for u in range(6) for t in range(3)]
        errors: list[BaseException] = []
        torn: list[tuple[int, ...]] = []
        dropped: list[int] = []
        generations_seen: set[int] = set()
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    results, statuses = recommender.recommend_batch_with_status(
                        queries, k=3
                    )
                    if len(results) != len(queries) or any(
                        not r.recommendations for r in results
                    ):
                        dropped.append(len(results))
                    batch_generations = {s.generation for s in statuses}
                    if len(batch_generations) != 1:
                        torn.append(tuple(sorted(batch_generations)))
                    generations_seen.update(batch_generations)
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for seed in range(10):
                result = publisher.publish(perturbed(stream_base, 100 + seed))
                assert result.published
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, f"readers raised: {errors!r}"
        assert not torn, f"mixed-generation batches observed: {torn!r}"
        assert not dropped, f"incomplete batches observed: {dropped!r}"
        assert recommender.swap_count == 10
        # Readers observed some subset of the published generation line.
        assert generations_seen <= set(range(11))


# ----------------------------------------------------------------------
# delta publish: a snapshot over the serving base is opened by what changed
# ----------------------------------------------------------------------


def refitted(params, seed):
    """Other ``φ`` (a refit), built directly: no digest is known for it."""
    rng = np.random.default_rng(seed)
    phi = params.phi * (1.0 + 0.05 * rng.random(params.phi.shape))
    phi /= phi.sum(axis=1, keepdims=True)
    arrays = params.arrays() | {"phi": phi}
    return type(params)(**arrays)


def other_variant(params, seed):
    """Healthy parameters of the other container over the same users and items."""
    rng = np.random.default_rng(seed)
    shared = {"theta": params.theta, "phi": params.phi, "lambda_u": params.lambda_u}
    if isinstance(params, TTCAMParameters):
        return ITCAMParameters(
            theta_time=rng.dirichlet(np.ones(params.num_items), size=params.num_intervals),
            **shared,
        )
    return TTCAMParameters(
        theta_time=rng.dirichlet(np.ones(2), size=params.num_intervals),
        phi_time=rng.dirichlet(np.ones(params.num_items), size=2),
        **shared,
    )


def folded(params, seed, workdir):
    """Fold random in-range events into ``params`` (same ``φ``/``φ′``).

    TTCAM goes through the real ingestor; ITCAM, which it cannot fold,
    gets the same kind of change by hand.
    """
    if not isinstance(params, TTCAMParameters):
        return params.with_fields(theta=perturbed_theta(params, seed))
    rng = np.random.default_rng(seed)
    events = [
        StreamEvent(
            user=int(rng.integers(0, params.num_users + 2)),  # admits new users
            interval=int(rng.integers(0, params.num_intervals + 1)),  # and intervals
            item=int(rng.integers(0, params.num_items)),
            score=float(rng.integers(1, 4)),
        )
        for _ in range(12)
    ]
    with EventLog(workdir / f"wal-{seed}") as log:
        log.append(events)
        ingestor = StreamIngestor(
            log, params, workdir / f"ckpt-{seed}", batch_events=6, resume=False
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ingestor.run()
    return ingestor.params


def perturbed_theta(params, seed):
    rng = np.random.default_rng(seed)
    theta = params.theta * (1.0 + 0.01 * rng.random(params.theta.shape))
    return theta / theta.sum(axis=1, keepdims=True)


def save_old_format(params, path):
    """What ``save_params`` wrote before the checksum was split: one flat digest."""
    arrays = params.arrays()
    np.savez_compressed(
        path,
        tcam_format=np.array(f"{params.VARIANT}-v1"),
        tcam_checksum=np.array(digest_arrays(arrays)),
        **arrays,
    )
    return path


def assert_served_bitwise(lived, cold, params):
    """Both recommenders answer a 16-query sample with the same bits."""
    queries = [(i % params.num_users, (3 * i) % params.num_intervals) for i in range(16)]
    exclude = {0: np.array([1, 2]), 3: np.array([0])}
    got = lived.recommend_batch(queries, k=4, exclude=exclude)
    want = cold.recommend_batch(queries, k=4, exclude=exclude)
    for g, w in zip(got, want):
        assert g.items == w.items
        assert [s.hex() for s in g.scores] == [s.hex() for s in w.scores]
    got = lived.recommend(1, 0, k=4, method="ta")  # fills / reuses the TA index
    want = cold.recommend(1, 0, k=4, method="ta")
    assert (got.items, [s.hex() for s in got.scores]) == (
        want.items,
        [s.hex() for s in want.scores],
    )


def flip_member_byte(path, member):
    """Flip one byte in the middle of ``member``'s stored (deflated) data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    data_start = info.header_offset + 30 + name_len + extra_len
    raw[data_start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestDeltaPublish:
    @settings(max_examples=12, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(["fold", "refit", "variant", "old"]), st.integers(0, 10**6)),
            min_size=1,
            max_size=6,
        )
    )
    def test_any_publish_sequence_equals_a_cold_full_load(self, stream_base, steps):
        """Delta-opened generations are the full loads of the same files.

        Field by field and in served bits, whatever the sequence — and
        the base arrays are carried exactly when the digests say so.
        """
        with tempfile.TemporaryDirectory() as scratch:
            workdir = Path(scratch)
            first = save_params(stream_base, workdir / "first.npz")
            recommender = TemporalRecommender.from_snapshot(first)
            publisher = SnapshotPublisher(recommender)
            truth = load_params(first)
            assert_served_bitwise(recommender, TemporalRecommender(LoadedModel(truth)), truth)
            for number, (kind, seed) in enumerate(steps):
                path = workdir / f"step-{number}.npz"
                if kind == "fold":
                    save_params(folded(truth, seed, workdir), path)
                elif kind == "refit":
                    save_params(refitted(truth, seed), path)
                elif kind == "variant":
                    save_params(other_variant(truth, seed), path)
                else:
                    save_old_format(truth.with_fields(theta=perturbed_theta(truth, seed)), path)
                serving = recommender.model.params_
                result = publisher.publish_file(path)
                assert result.published, result.reason
                truth = load_params(path)
                served = recommender.model.params_
                assert type(served) is type(truth)
                for name, array in truth.arrays().items():
                    assert np.array_equal(getattr(served, name), array), (kind, name)
                carried = (
                    type(serving) is type(truth)
                    and serving.base_digest is not None
                    and serving.base_digest == truth.base_digest
                )
                assert result.delta is carried
                assert served.base_digest == truth.base_digest
                for name in truth.BASE_FIELDS:
                    assert (getattr(served, name) is getattr(serving, name, None)) is carried
                assert_served_bitwise(
                    recommender, TemporalRecommender(LoadedModel(truth)), truth
                )

    def test_cache_hand_over_keeps_what_the_base_owns(self, stream_base, tmp_path):
        first = save_params(stream_base, tmp_path / "first.npz")
        recommender = TemporalRecommender.from_snapshot(first)
        publisher = SnapshotPublisher(recommender)
        queries = [(u, t) for u in range(4) for t in range(3)]
        recommender.recommend_batch(queries, k=3, exclude={0: np.array([1])})
        recommender.recommend(0, 0, k=3, method="ta")
        old = recommender.serving_cache
        theta_time = stream_base.theta_time.copy()
        theta_time[1] = theta_time[1][::-1]  # interval 1 changes, 0 and 2 do not
        changed = load_params(first).with_fields(
            theta=perturbed_theta(stream_base, 1), theta_time=theta_time
        )
        result = publisher.publish_file(save_params(changed, tmp_path / "next.npz"))
        assert result.published and result.delta
        new = recommender.serving_cache
        assert new is not old
        assert len(old.matrices) and len(old.contexts)  # the old generation keeps its own
        assert new.matrices[("arranged", "static")] is old.matrices[("arranged", "static")]
        assert new.matrices[("blocks", "phi")] is old.matrices[("blocks", "phi")]
        assert new.indexes["static"] is old.indexes["static"]
        assert {key for key, _ in new.matrices.items()} == {
            ("arranged", "static"), ("blocks", "phi")
        }
        assert {key for key, _ in old.matrices.items()} == {
            ("arranged", "static"), ("blocks", "phi")
        }
        assert {key for key, _ in new.contexts.items()} == {("cmax", 0), ("cmax", 2)}
        assert new.stats().hits == new.stats().misses == 0  # seeded, not counted
        # a refit carries nothing
        publisher.publish_file(save_params(refitted(changed, 2), tmp_path / "refit.npz"))
        assert recommender.serving_cache.stats().size == 0
        # ... and a revert goes through the same hand-over
        recommender.recommend_batch(queries, k=3)
        assert publisher.revert().published
        assert recommender.serving_cache.stats().size == 0  # other φ than the refit's

    def test_delta_open_inflates_no_base_member(self, stream_base, tmp_path, monkeypatch):
        first = save_params(stream_base, tmp_path / "first.npz")
        recommender = TemporalRecommender.from_snapshot(first)
        publisher = SnapshotPublisher(recommender)
        next_path = save_params(
            load_params(first).with_fields(theta=perturbed_theta(stream_base, 3)),
            tmp_path / "next.npz",
        )
        read: list[str] = []
        original = np.lib.npyio.NpzFile.__getitem__

        def counting(self, key):
            read.append(key)
            return original(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
        assert publisher.publish_file(next_path).delta
        assert sorted(read) == sorted(
            ["tcam_format", "tcam_checksum", "tcam_base_digest", "tcam_delta_digest"]
            + list(TTCAMParameters.delta_fields())
        )
        read.clear()
        load_params(next_path)
        assert set(TTCAMParameters.BASE_FIELDS) <= set(read)

    def test_gate_scans_only_replaced_fields_and_runs_every_probe(
        self, stream_base, tmp_path
    ):
        scanned: list[set[str]] = []

        class Recording(HealthMonitor):
            def violations(self, arrays, *args, **kwargs):
                scanned.append(set(arrays))
                return super().violations(arrays, *args, **kwargs)

        first = save_params(stream_base, tmp_path / "first.npz")
        recommender = TemporalRecommender.from_snapshot(first)
        publisher = SnapshotPublisher(
            recommender,
            probes=((0, 0), (stream_base.num_users, 0)),
            monitor=Recording(stochastic=TTCAMParameters.STOCHASTIC),
        )
        grown = folded(load_params(first), 5, tmp_path)
        assert grown.num_users > stream_base.num_users
        same_size = load_params(first).with_fields(theta=perturbed_theta(stream_base, 4))
        rejected = publisher.publish_file(save_params(same_size, tmp_path / "small.npz"))
        assert not rejected.published and "probe user" in rejected.reason
        assert publisher.publish_file(save_params(grown, tmp_path / "grown.npz")).delta
        assert scanned == [set(TTCAMParameters.delta_fields())] * 2
        assert publisher.publish_file(
            save_params(refitted(grown, 6), tmp_path / "refit.npz")
        ).published
        assert scanned[-1] == set(TTCAMParameters.field_names())


class TestDeltaFaults:
    @pytest.fixture()
    def serving(self, stream_base, tmp_path):
        """A recommender with a warm cache, its publisher, and a same-base snapshot."""
        first = save_params(stream_base, tmp_path / "first.npz")
        recommender = TemporalRecommender.from_snapshot(first)
        recommender.recommend_batch([(0, 0), (1, 2)], k=3)
        candidate = load_params(first).with_fields(theta=perturbed_theta(stream_base, 9))
        path = save_params(candidate, tmp_path / "candidate.npz")
        return recommender, SnapshotPublisher(recommender), path

    @staticmethod
    def assert_rejected_and_untouched(recommender, publisher, path):
        model, cache = recommender.model, recommender.serving_cache
        entries = cache.stats().size
        result = publisher.publish_file(path)
        assert not result.published and not result.delta
        assert "snapshot rejected" in result.reason
        assert recommender.rollback_count == 1
        assert recommender.generation == 0
        assert recommender.model is model
        assert recommender.serving_cache is cache and cache.stats().size == entries
        assert recommender.recommend(0, 0, k=3).recommendations

    @pytest.mark.parametrize(
        "member", ["theta.npy", "lambda_u.npy", "tcam_base_digest.npy", "tcam_delta_digest.npy"]
    )
    def test_flipped_byte_in_a_member_the_delta_open_reads_is_rejected(self, serving, member):
        recommender, publisher, path = serving
        flip_member_byte(path, member)
        self.assert_rejected_and_untouched(recommender, publisher, path)

    @pytest.mark.parametrize(
        "member", ["tcam_checksum", "tcam_base_digest", "tcam_delta_digest", "theta"]
    )
    def test_hand_edited_member_is_rejected(self, serving, member):
        recommender, publisher, path = serving
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        if member == "theta":
            members[member] = members[member][::-1].copy()  # valid rows, other bytes
        else:
            members[member] = np.array("0" * 64)
        np.savez_compressed(path, **members)
        self.assert_rejected_and_untouched(recommender, publisher, path)

    def test_archive_with_half_a_split_is_rejected(self, serving):
        recommender, publisher, path = serving
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        del members["tcam_delta_digest"]
        np.savez_compressed(path, **members)
        self.assert_rejected_and_untouched(recommender, publisher, path)
        with pytest.raises(SnapshotCorruptError):
            load_params(path)

    def test_truncated_file_is_rejected(self, serving):
        recommender, publisher, path = serving
        truncate_file(path, keep_fraction=0.6)
        self.assert_rejected_and_untouched(recommender, publisher, path)

    def test_damage_confined_to_phi_is_seen_by_the_next_full_open(self, serving):
        """What a delta open deliberately does not read (docs/robustness.md)."""
        recommender, publisher, path = serving
        flip_member_byte(path, "phi.npy")
        result = publisher.publish_file(path)
        assert result.published and result.delta
        assert recommender.recommend(0, 0, k=3).recommendations  # φ served is our own
        with pytest.raises(SnapshotCorruptError):
            load_params(path)
        with pytest.raises(SnapshotCorruptError):
            LoadedModel.from_file(path)  # a worker restart, `tcam recommend`
        # a process that does not hold this base reads — and rejects — all of it
        other = TemporalRecommender(LoadedModel(refitted(recommender.model.params_, 1)))
        assert not SnapshotPublisher(other).publish_file(path).published

    @pytest.mark.parametrize("fault", ["torn_write", "disk_full"])
    def test_failed_snapshot_save_keeps_the_previous_file(self, serving, stream_base, fault):
        recommender, publisher, path = serving
        before = path.read_bytes()
        with FaultInjector() as chaos:
            getattr(chaos, fault)("snapshot.write")
            with pytest.raises((InjectedFault, OSError)):
                save_params(refitted(stream_base, 3), path)
            assert chaos.fired == 1
        assert path.read_bytes() == before
        assert publisher.publish_file(path).delta


class TestBaseDigestOnTheContainer:
    def test_with_fields_carries_the_digest_iff_no_base_field_is_replaced(
        self, stream_base, tmp_path
    ):
        loaded = load_params(save_params(stream_base, tmp_path / "m.npz"))
        assert loaded.base_digest == stream_base.digest_base(stream_base.arrays())
        kept = loaded.with_fields(theta=perturbed_theta(loaded, 1), lambda_u=loaded.lambda_u)
        assert kept.base_digest == loaded.base_digest
        for name in TTCAMParameters.BASE_FIELDS:
            assert loaded.with_fields(**{name: getattr(loaded, name).copy()}).base_digest is None

    def test_directly_built_container_has_none_and_forces_a_full_open(
        self, stream_base, tmp_path
    ):
        assert stream_base.base_digest is None
        assert refitted(stream_base, 1).base_digest is None
        recommender = TemporalRecommender(LoadedModel(stream_base))
        publisher = SnapshotPublisher(recommender)
        path = save_params(
            stream_base.with_fields(theta=perturbed_theta(stream_base, 2)), tmp_path / "m.npz"
        )
        first = publisher.publish_file(path)
        assert first.published and not first.delta  # same bytes, but nobody hashed ours
        assert recommender.model.params_.phi is not stream_base.phi
        assert publisher.publish_file(path).delta  # the full open did

    def test_ingestor_reuses_the_digest_a_loaded_snapshot_carries(
        self, stream_base, tmp_path, monkeypatch
    ):
        loaded = load_params(save_params(stream_base, tmp_path / "m.npz"))
        hashed: list[tuple[str, ...]] = []
        original = TTCAMParameters.digest_base.__func__

        def counting(cls, arrays):
            hashed.append(tuple(arrays))
            return original(cls, arrays)

        monkeypatch.setattr(TTCAMParameters, "digest_base", classmethod(counting))
        with EventLog(tmp_path / "wal") as log:
            from_loaded = StreamIngestor(log, loaded, tmp_path / "a", resume=False)
            assert not hashed
            direct = StreamIngestor(log, stream_base, tmp_path / "b", resume=False)
            assert len(hashed) == 1
        # one string for the checkpoint, the snapshot and the worker
        assert from_loaded._base_digest == direct._base_digest == loaded.base_digest
        with np.load(save_params(direct.params, tmp_path / "n.npz")) as archive:
            assert str(archive["tcam_base_digest"]) == direct._base_digest


class TestParentWrittenFiles:
    """Files the parent commits wrote: full open first, then delta."""

    def test_pre_split_snapshot_then_new_format_full_then_delta(self, tmp_path):
        old = Path(__file__).parent / "fixtures" / "pre_overlay" / "snapshot.npz"
        recommender = TemporalRecommender.from_snapshot(old)
        served = recommender.model.params_
        assert served.base_digest is None  # a flat checksum hashes no base digest
        publisher = SnapshotPublisher(recommender)
        outcomes = []
        for seed in (1, 2, 3):
            step = served.with_fields(theta=perturbed_theta(served, seed))
            result = publisher.publish_file(save_params(step, tmp_path / f"{seed}.npz"))
            assert result.published
            outcomes.append(result.delta)
            truth = load_params(tmp_path / f"{seed}.npz")
            assert_served_bitwise(recommender, TemporalRecommender(LoadedModel(truth)), truth)
        assert outcomes == [False, True, True]
