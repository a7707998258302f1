"""Tests for model persistence."""

import hashlib
import zipfile

import numpy as np
import pytest

from repro.core.itcam import ITCAM
from repro.core.params import VARIANTS
from repro.core.serialize import LoadedModel, load_params, save_params
from repro.core.ttcam import TTCAM
from repro.robustness.checkpoint import digest_arrays
from repro.robustness.errors import SnapshotCorruptError
import tests.conftest as c


@pytest.fixture(scope="module")
def fitted_models():
    cuboid, _ = c.generate(c.tiny_config())
    ttcam = TTCAM(4, 3, max_iter=15, seed=0).fit(cuboid)
    itcam = ITCAM(4, max_iter=15, seed=0).fit(cuboid)
    return cuboid, ttcam, itcam


class TestRoundTrip:
    def test_ttcam_round_trip(self, fitted_models, tmp_path):
        _, ttcam, _ = fitted_models
        path = save_params(ttcam.params_, tmp_path / "model.npz")
        loaded = load_params(path)
        np.testing.assert_array_equal(loaded.theta, ttcam.params_.theta)
        np.testing.assert_array_equal(loaded.phi_time, ttcam.params_.phi_time)
        np.testing.assert_array_equal(loaded.lambda_u, ttcam.params_.lambda_u)

    def test_every_field_is_bit_exact(self, fitted_models, tmp_path):
        for model in fitted_models[1:]:
            params = model.params_
            path = save_params(params, tmp_path / f"{params.VARIANT}.npz")
            for name, array in load_params(path).arrays().items():
                assert array.tobytes() == getattr(params, name).tobytes(), name

    def test_itcam_round_trip(self, fitted_models, tmp_path):
        _, _, itcam = fitted_models
        path = save_params(itcam.params_, tmp_path / "model.npz")
        loaded = load_params(path)
        np.testing.assert_array_equal(loaded.theta_time, itcam.params_.theta_time)

    def test_suffix_appended(self, fitted_models, tmp_path):
        _, ttcam, _ = fitted_models
        path = save_params(ttcam.params_, tmp_path / "snapshot")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_loaded_scores_identical(self, fitted_models, tmp_path):
        _, ttcam, _ = fitted_models
        path = save_params(ttcam.params_, tmp_path / "model.npz")
        loaded = load_params(path)
        for user, interval in [(0, 0), (5, 7)]:
            np.testing.assert_array_equal(
                loaded.score_items(user, interval),
                ttcam.params_.score_items(user, interval),
            )


class TestFormatIsDeclaredOnce:
    """Archive members and tags follow the containers' own declaration."""

    RESERVED = {"tcam_format", "tcam_checksum", "tcam_base_digest", "tcam_delta_digest"}

    def test_archive_members_are_the_declared_fields(self, fitted_models, tmp_path):
        for model in fitted_models[1:]:
            params = model.params_
            path = save_params(params, tmp_path / f"{params.VARIANT}.npz")
            with np.load(path) as archive:
                assert set(archive.files) - self.RESERVED == set(params.arrays())
                assert self.RESERVED <= set(archive.files)
                assert str(archive["tcam_format"]) == f"{params.VARIANT}-v1"
                # the part digests split the fields along the container's declaration
                arrays = params.arrays()
                assert str(archive["tcam_base_digest"]) == digest_arrays(
                    {name: arrays[name] for name in params.BASE_FIELDS}
                )
                assert str(archive["tcam_delta_digest"]) == digest_arrays(
                    {name: arrays[name] for name in params.delta_fields()}
                )
                parts = f"{archive['tcam_base_digest']}:{archive['tcam_delta_digest']}"
                assert str(archive["tcam_checksum"]) == hashlib.sha256(parts.encode()).hexdigest()
            loaded = load_params(path)
            assert type(loaded) is VARIANTS[params.VARIANT]
            assert loaded.base_digest == params.digest_base(arrays)

    @pytest.mark.parametrize(
        "tag, order",
        [
            ("ttcam-v1", ("theta", "phi", "theta_time", "phi_time", "lambda_u")),
            ("itcam-v1", ("theta", "phi", "theta_time", "lambda_u")),
        ],
    )
    def test_snapshot_in_the_previous_writers_field_order_still_loads(
        self, fitted_models, tmp_path, tag, order
    ):
        # What save_params wrote before the checksum was split into a base
        # and a delta digest: one flat digest. Today's writer adds the two
        # part-digest members and keeps every other member byte for byte.
        params = fitted_models[1 if tag == "ttcam-v1" else 2].params_
        arrays = {name: np.asarray(getattr(params, name)) for name in order}
        old = tmp_path / "old.npz"
        np.savez_compressed(
            old,
            tcam_format=np.array(tag),
            tcam_checksum=np.array(digest_arrays(arrays)),
            **arrays,
        )
        new = save_params(params, tmp_path / "new.npz")
        with np.load(old) as before, np.load(new) as after:
            added = ["tcam_base_digest", "tcam_delta_digest"]
            assert [m for m in after.files if m not in added] == before.files
            for member in set(before.files) - {"tcam_checksum"}:
                assert before[member].tobytes() == after[member].tobytes(), member
        loaded = load_params(old)
        assert type(loaded) is type(params)
        with np.load(old) as before:
            assert digest_arrays(loaded.arrays()) == str(before["tcam_checksum"])
        assert loaded.base_digest is None  # a flat checksum hashes no base digest
        renewed = load_params(new)
        for name in order:
            assert np.array_equal(getattr(renewed, name), getattr(loaded, name)), name

    def test_a_flipped_member_byte_fails_the_checksum(self, fitted_models, tmp_path):
        params = fitted_models[1].params_
        path = save_params(params, tmp_path / "model.npz")
        with zipfile.ZipFile(path) as archive:
            phi = archive.getinfo("phi.npy")
        raw = bytearray(path.read_bytes())
        # The member's size past its local header lands inside its data.
        raw[phi.header_offset + phi.compress_size] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError):
            load_params(path)

    def test_unknown_format_tag_rejected(self, fitted_models, tmp_path):
        params = fitted_models[1].params_
        path = tmp_path / "future.npz"
        np.savez(path, tcam_format=np.array("ttcam-v2"), **params.arrays())
        with pytest.raises(ValueError, match="unknown TCAM archive format 'ttcam-v2'"):
            load_params(path)


class TestErrors:
    def test_unsupported_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_params(object(), tmp_path / "bad.npz")

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.ones(3))
        with pytest.raises(ValueError, match="not a TCAM"):
            load_params(path)

    def test_corrupted_parameters_rejected(self, fitted_models, tmp_path):
        _, ttcam, _ = fitted_models
        params = ttcam.params_
        path = tmp_path / "tampered.npz"
        np.savez(
            path,
            tcam_format=np.array("ttcam-v1"),
            theta=params.theta * 2,  # no longer stochastic
            phi=params.phi,
            theta_time=params.theta_time,
            phi_time=params.phi_time,
            lambda_u=params.lambda_u,
        )
        with pytest.raises(ValueError, match="not normalised"):
            load_params(path)


class TestLoadedModel:
    def test_serves_through_recommender(self, fitted_models, tmp_path):
        from repro.recommend import TemporalRecommender

        _, ttcam, _ = fitted_models
        path = save_params(ttcam.params_, tmp_path / "serve.npz")
        model = LoadedModel.from_file(path)
        assert model.name == "Loaded-TTCAM"
        rec_live = TemporalRecommender(ttcam)
        rec_snap = TemporalRecommender(model)
        live = rec_live.recommend(2, 3, k=5, method="ta")
        snap = rec_snap.recommend(2, 3, k=5, method="ta")
        assert live.items == snap.items

    def test_itcam_cache_key(self, fitted_models, tmp_path):
        _, _, itcam = fitted_models
        path = save_params(itcam.params_, tmp_path / "it.npz")
        model = LoadedModel.from_file(path)
        assert model.name == "Loaded-ITCAM"
        assert model.matrix_cache_key(2) == 2
