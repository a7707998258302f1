"""Fits reproduce, bit for bit, what the flat-bincount scatter produced.

``fixtures/pre_plan/fits.json`` was written by commit d72dd1a — the last
one whose blocked kernels scattered through a per-call flat ``bincount`` —
by running this module as a script against that commit's sources::

    PYTHONPATH=<checkout of d72dd1a>/src python tests/core/test_pre_plan_fits.py

It holds the SHA-256 of every fitted array and the hex log-likelihood
trace of the five engine models on a tiny seeded cuboid under three block
grids. The planned CSR scatter adds each bin's rows in the same order as
``bincount`` did, so this tree must land on the same bits under the two
serial grids. The third grid's rows (``blocks_of_97_threads_2``) were
summed as two worker partials by a threaded E-step this tree no longer
has; they stay in the file as written and are not checked.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import TimeTopicModel, UserTopicModel
from repro.core import ITCAM, TTCAM, PartitionedTTCAM
from repro.core.engine import EMEngineConfig
from repro.data import RatingCuboid

FIXTURE = Path(__file__).parent / "fixtures" / "pre_plan" / "fits.json"

#: One block, several blocks (the last one ragged).
GRIDS = {
    "one_block": EMEngineConfig(),
    "blocks_of_97": EMEngineConfig(block_size=97),
}

MODELS = {
    "ttcam": lambda engine: TTCAM(3, 4, max_iter=12, seed=5, engine=engine),
    "itcam": lambda engine: ITCAM(3, max_iter=12, seed=5, engine=engine),
    "ut": lambda engine: UserTopicModel(3, max_iter=12, seed=5, engine=engine),
    "tt": lambda engine: TimeTopicModel(4, max_iter=12, seed=5, engine=engine),
    "partitioned": lambda engine: PartitionedTTCAM(
        3, 4, max_iter=12, seed=5, num_partitions=3, engine=engine
    ),
}


def tiny_cuboid() -> RatingCuboid:
    """≈600 ratings over 23 users, 6 intervals, 41 items; some bins empty."""
    rng = np.random.default_rng(26)
    size = 640
    return RatingCuboid.from_arrays(
        rng.integers(0, 23, size),
        rng.integers(0, 6, size),
        rng.integers(0, 41, size) // 2 * 2,  # odd items never rated
        rng.integers(1, 4, size).astype(float),
        num_users=24,
        num_intervals=6,
        num_items=41,
    )


def fit_record(model_name: str, grid_name: str) -> dict[str, object]:
    """Digest of one fit: the hash of every fitted array, the LL trace in hex."""
    model = MODELS[model_name](GRIDS[grid_name]).fit(tiny_cuboid())
    params = getattr(model, "params_", None)  # UT/TT publish `<name>_` instead
    arrays = {}
    for name in model._stochastic + model._unit_interval:
        fitted = getattr(model, f"{name}_") if params is None else getattr(params, name)
        arrays[name] = hashlib.sha256(np.ascontiguousarray(fitted).tobytes()).hexdigest()
    return {
        "arrays": arrays,
        "log_likelihood": [value.hex() for value in model.trace_.log_likelihood],
    }


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict[str, object]]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("grid_name", list(GRIDS))
@pytest.mark.parametrize("model_name", list(MODELS))
def test_fit_lands_on_the_recorded_bits(recorded, model_name, grid_name):
    expected = recorded[f"{model_name}/{grid_name}"]
    assert len(expected["log_likelihood"]) > 3  # a real trajectory, not one step
    assert fit_record(model_name, grid_name) == expected


def test_fixture_covers_every_model_and_grid(recorded):
    assert {f"{m}/{g}" for m in MODELS for g in GRIDS} <= set(recorded)


def _write_fixture() -> None:
    """Regenerate the fixture with whatever ``repro`` is importable."""
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    records = {f"{m}/{g}": fit_record(m, g) for m in MODELS for g in GRIDS}
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_fixture()
