"""Sidecars written before the container owned the read side still open.

``fixtures/parent_store/`` holds a TTCAM and an ITCAM snapshot with their
``tcam-store-v2`` sidecars, written by commit de21318 — the last one whose
``write_store`` spelled the variant difference itself — by running this
module as a script against that commit's sources::

    PYTHONPATH=<checkout of de21318>/src python tests/recommend/test_parent_sidecar.py

Compatibility is pinned by their bytes, not by today's writer: each must
open through the one opener, map, and serve bitwise what the eager load
of the same ``.npz`` serves.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import ITCAMParameters, TTCAMParameters
from repro.core.serialize import (
    LoadedModel,
    load_params,
    params_checksum,
    save_params,
    stored_checksum,
)
from repro.recommend import TemporalRecommender
from repro.recommend.paramstore import MANIFEST_NAME, ParamStore, store_dir, write_store

FIXTURES = Path(__file__).parent / "fixtures" / "parent_store"
USERS, ITEMS, INTERVALS = 7, 13, 3


def _params(variant: str) -> ITCAMParameters | TTCAMParameters:
    rng = np.random.default_rng(2514)
    shared = dict(
        theta=rng.dirichlet(np.ones(3), size=USERS),
        phi=rng.dirichlet(np.ones(ITEMS), size=3),
        lambda_u=rng.uniform(0.1, 0.9, size=USERS),
    )
    if variant == "itcam":
        return ITCAMParameters(theta_time=rng.dirichlet(np.ones(ITEMS), size=INTERVALS), **shared)
    return TTCAMParameters(
        theta_time=rng.dirichlet(np.ones(2), size=INTERVALS),
        phi_time=rng.dirichlet(np.ones(ITEMS), size=2),
        **shared,
    )


def _write_fixtures() -> None:
    for variant in ("ttcam", "itcam"):
        save_params(_params(variant), FIXTURES / f"{variant}.npz", mmap_layout=True)


@pytest.mark.parametrize("variant", ["ttcam", "itcam"])
def test_parent_written_sidecar_maps_and_serves_bitwise(variant, tmp_path):
    snapshot = FIXTURES / f"{variant}.npz"
    manifest = json.loads((store_dir(snapshot) / MANIFEST_NAME).read_text())
    assert (manifest["format"], manifest["variant"]) == ("tcam-store-v2", variant)

    mapped = LoadedModel.from_file(snapshot)
    assert mapped.param_store is not None
    mapped.param_store.verify()
    eager = load_params(snapshot)
    for name, array in eager.arrays().items():
        assert np.array_equal(getattr(mapped.params_, name), array), name

    queries = [(u, (2 * u) % INTERVALS) for u in range(USERS)]
    want = TemporalRecommender(LoadedModel(eager)).recommend_batch(queries, k=5)
    for dtype in ("float64", "int8"):
        got = TemporalRecommender(mapped).recommend_batch(queries, k=5, dtype=dtype)
        for w, g in zip(want, got):
            assert g.items == w.items
            assert [x.hex() for x in g.scores] == [x.hex() for x in w.scores]

    # Today's writer produces the parent's layout, array for array; only the
    # tie to the snapshot follows today's (split) checksum, and the parent's
    # pair stays tied by the flat one both of its halves carry.
    rewritten = ParamStore(write_store(eager, tmp_path / snapshot.name))
    assert rewritten.snapshot_checksum == params_checksum(eager)
    assert manifest["snapshot_checksum"] == stored_checksum(snapshot)
    fresh = json.loads((rewritten.directory / MANIFEST_NAME).read_text())["arrays"]
    assert list(fresh) == list(manifest["arrays"])
    for name, entry in manifest["arrays"].items():
        assert (fresh[name]["dtype"], fresh[name]["shape"]) == (entry["dtype"], entry["shape"])
        assert np.array_equal(rewritten.array(name), mapped.param_store.array(name)), name


@pytest.mark.parametrize("variant", ["ttcam", "itcam"])
def test_serving_a_parent_sidecar_the_next_file_opens_fully_then_by_delta(variant, tmp_path):
    """A mapped generation knows no base digest: one full open, then deltas."""
    from repro.streaming import SnapshotPublisher

    recommender = TemporalRecommender.from_snapshot(FIXTURES / f"{variant}.npz")
    assert recommender.model.param_store is not None
    assert recommender.model.params_.base_digest is None
    publisher = SnapshotPublisher(recommender)
    eager = load_params(FIXTURES / f"{variant}.npz")
    queries = [(u, (2 * u) % INTERVALS) for u in range(USERS)]
    outcomes = []
    for shift in (1, 2, 3):
        step = eager.with_fields(theta=np.roll(eager.theta, shift, axis=0))
        result = publisher.publish_file(save_params(step, tmp_path / f"{shift}.npz"))
        assert result.published, result.reason
        outcomes.append(result.delta)
        want = TemporalRecommender(LoadedModel(step)).recommend_batch(queries, k=5)
        for dtype in ("float64", "int8"):
            got = recommender.recommend_batch(queries, k=5, dtype=dtype)
            for w, g in zip(want, got):
                assert g.items == w.items
                assert [x.hex() for x in g.scores] == [x.hex() for x in w.scores]
    assert outcomes == [False, True, True]


if __name__ == "__main__":
    _write_fixtures()
