"""Snapshots written beside a sidecar directory still open and serve.

``fixtures/parent_store/`` holds a TTCAM and an ITCAM snapshot with the
``tcam-store-v2`` sidecar directories (``<snapshot>.arrays/``) the
writer of commit de21318 put beside them, written by running this
module as a script against that commit's sources::

    PYTHONPATH=<checkout of de21318>/src python tests/recommend/test_parent_sidecar.py

Derived serving arrays now live inside the snapshot, so such a
directory is ignored: each ``.npz`` opens through the one opener
eagerly, with no warning, and serves bitwise what its parameters serve.
Re-saved with ``mmap_layout=True`` it maps, and its derived members are
the sidecar's arrays, bit for bit.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import ITCAMParameters, TTCAMParameters
from repro.core.serialize import LoadedModel, load_params, save_params
from repro.recommend import TemporalRecommender

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


def _assert_serves(model, params, queries):
    want = TemporalRecommender(LoadedModel(params)).recommend_batch(queries, k=5)
    for dtype in ("float64", "int8"):
        got = TemporalRecommender(model).recommend_batch(queries, k=5, dtype=dtype)
        for w, g in zip(want, got):
            assert g.items == w.items
            assert [x.hex() for x in g.scores] == [x.hex() for x in w.scores]


@pytest.mark.parametrize("variant", ["ttcam", "itcam"])
def test_parent_written_sidecar_is_ignored_and_serves_bitwise(variant, tmp_path):
    snapshot = FIXTURES / f"{variant}.npz"
    sidecar = FIXTURES / f"{variant}.npz.arrays"
    assert (sidecar / "manifest.json").is_file()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opened = LoadedModel.from_file(snapshot)
    assert opened.param_store is None
    eager = load_params(snapshot)
    for name, array in eager.arrays().items():
        assert np.array_equal(getattr(opened.params_, name), array), name
    queries = [(u, (2 * u) % INTERVALS) for u in range(USERS)]
    _assert_serves(opened, eager, queries)

    # Re-saved with the layout, the same parameters map, serve the same
    # bits, and carry the parent's derived arrays as members, array for array.
    resaved = save_params(eager, tmp_path / snapshot.name, mmap_layout=True)
    mapped = LoadedModel.from_file(resaved)
    assert mapped.param_store is not None
    mapped.param_store.verify()
    _assert_serves(mapped, eager, queries)
    with np.load(resaved) as archive:
        digests = json.loads(str(archive["tcam_manifest"]))["digests"]
    parent_files = sorted(path.stem for path in sidecar.glob("*.npy"))
    assert parent_files == sorted(digests)
    for name in parent_files:
        parent = np.load(sidecar / f"{name}.npy")
        member = mapped.param_store.array(name)
        assert (member.dtype, member.shape) == (parent.dtype, parent.shape), name
        assert np.array_equal(member, parent), name


@pytest.mark.parametrize("variant", ["ttcam", "itcam"])
def test_serving_a_parent_sidecar_the_next_file_opens_fully_then_by_delta(variant, tmp_path):
    """A flat-checksum snapshot knows no base digest: one full open, then deltas."""
    from repro.streaming import SnapshotPublisher

    recommender = TemporalRecommender.from_snapshot(FIXTURES / f"{variant}.npz")
    assert recommender.model.param_store is None  # the sidecar beside it is ignored
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
