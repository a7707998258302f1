"""Batched fold-in lands where the per-interval loops it replaced landed.

``fixtures/pre_fold/streams.npz`` was written by commit f2b3c39 — the last
one in which ``OnlineTTCAM`` ran its own partial-EM loops and
``StreamIngestor`` folded one interval (and one new user) at a time — by
running this module as a script against that commit's sources, from the
root of this repository::

    PYTHONPATH=<checkout of f2b3c39>/src:. python tests/streaming/test_pre_fold.py

It holds four seeded streams, each ingested to the end: every counter,
the folded ``θ``/``θ′``/``λ``, the drift tracker's state, and one-shot
``fold_in_user``/``fold_in_interval`` results over the stream's events.
A pass computes each event's terms with the loops' expressions, in their
order, and sums every row's counts in event order, so the interval side
lands on their bits. The user side's ``λ`` numerator was a ``np.dot``
per user and is a scatter sum now; for a user with two or more events
the two can part by one rounding step (≤2.2e-16 measured, on every array
it reaches). So counters match exactly and every array within
``atol=1e-12``.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import TTCAMParameters
from repro.extensions.online import OnlineTTCAM
from repro.streaming import EventLog, StreamEvent, StreamIngestor

FIXTURE = Path(__file__).parent / "fixtures" / "pre_fold" / "streams.npz"

#: The fitted model's users, intervals, items and topics; events per batch.
N, T, V, K1, K2 = 60, 8, 400, 6, 4
BATCH = 64

#: The order of the ``counters`` array.
COUNTERS = (
    "batches", "applied", "skipped", "boundaries", "refits",
    "tracker_updates", "tracker_boundaries", "offset",
)


def base_params() -> TTCAMParameters:
    """Serving-shaped parameters: sparse Dirichlet draws."""
    rng = np.random.default_rng(31)
    return TTCAMParameters(
        theta=rng.dirichlet(np.full(K1, 0.3), size=N),
        phi=rng.dirichlet(np.full(V, 0.05), size=K1),
        theta_time=rng.dirichlet(np.full(K2, 0.3), size=T),
        phi_time=rng.dirichlet(np.full(V, 0.05), size=K2),
        lambda_u=rng.beta(3.0, 3.0, size=N),
    )


def _items(params, users, intervals, rng):
    """One item per event from the model's own mixture ``P(v | u, t)``."""
    lam = params.lambda_u[users % N][:, None]
    probs = lam * (params.theta[users % N] @ params.phi) + (1 - lam) * (
        params.theta_time[intervals % T] @ params.phi_time
    )
    cumulative = np.cumsum(probs, axis=1)
    draw = rng.random(users.size)[:, None] * cumulative[:, -1:]
    return np.minimum((cumulative < draw).sum(axis=1), V - 1)


def _late(rng, params, batches=12):
    """Pipeline-shaped: the current interval advances every three batches
    and one event in ten is a late one for a random interval."""
    count = batches * BATCH
    current = (np.arange(count) // (3 * BATCH)) % T
    intervals = np.where(rng.random(count) < 0.1, rng.integers(0, T, count), current)
    users = rng.integers(0, N, count)
    return users, intervals, _items(params, users, intervals, rng), rng.random(count) + 0.5


def _new_ids(rng, params):
    """Users and intervals past the fitted ones, every other id a gap;
    each new user appears in one batch."""
    count = 6 * BATCH
    users = rng.integers(0, N, count)
    fresh = rng.random(count) < 0.3
    batch = np.arange(count)[fresh] // BATCH
    users[fresh] = N + 2 * (2 * batch + rng.integers(0, 2, int(fresh.sum())))
    intervals = rng.integers(0, T, count)
    late = rng.random(count) < 0.2
    intervals[late] = T + 2 * rng.integers(0, 3, int(late.sum()))
    return users, intervals, _items(params, users, intervals, rng), rng.random(count) + 0.5


def _returning(rng, params):
    """New users who come back: ten ids past the fitted ones recur across
    batches, so after its first batch a new user's events fold into ``θ′``
    through the ``θ``/``λ`` it was admitted with."""
    count = 8 * BATCH
    users = rng.integers(0, N, count)
    fresh = rng.random(count) < 0.25
    users[fresh] = N + rng.integers(0, 10, int(fresh.sum()))
    intervals = (np.arange(count) // (2 * BATCH)) % T
    return users, intervals, _items(params, users, intervals, rng), rng.random(count) + 0.5


def _messy(rng, params):
    """Repeated events, shuffled intervals and items outside the catalogue."""
    users, intervals, items, scores = _late(rng, params, batches=5)
    repeat = rng.integers(0, users.size, users.size // 4)
    order = rng.permutation(users.size + repeat.size)
    users, intervals, items, scores = (
        np.concatenate([column, column[repeat]])[order]
        for column in (users, intervals, items, scores)
    )
    outside = rng.random(items.size) < 0.05
    items[outside] = V + rng.integers(0, 5, int(outside.sum()))
    return users, intervals, items, scores


STREAMS = {
    "late": (_late, 11),
    "new_ids": (_new_ids, 12),
    "messy": (_messy, 13),
    "returning": (_returning, 14),
}


def stream_record(name: str) -> dict[str, np.ndarray]:
    """Ingest one stream to the end; its counters, arrays and one-shot folds."""
    params = base_params()
    make, seed = STREAMS[name]
    users, intervals, items, scores = make(np.random.default_rng(seed), params)
    events = [
        StreamEvent(user=int(u), interval=int(t), item=int(v), score=float(s))
        for u, t, v, s in zip(users, intervals, items, scores)
    ]
    with tempfile.TemporaryDirectory() as raw, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        root = Path(raw)
        with EventLog(root / "wal") as log:
            log.append(events)
        ingestor = StreamIngestor(EventLog(root / "wal"), params, root / "ckpt", batch_events=BATCH)
        ingestor.run()
        online = OnlineTTCAM(params, fold_iterations=10)
        known = (users < N) & (intervals < T) & (items < V)
        busiest = np.argsort(-np.bincount(users[known], minlength=N), kind="stable")[:5]
        mine = [known & (users == u) for u in busiest]
        user_folds = [online.fold_in_user(items[m], intervals[m], scores[m]) for m in mine]
        during = [known & (intervals == t) for t in np.unique(intervals[known])[:3]]
        interval_folds = [online.fold_in_interval(users[m], items[m], scores[m]) for m in during]
    counters = {
        "tracker_updates": ingestor.tracker.updates,
        "tracker_boundaries": ingestor.tracker.boundaries,
    } | {name: getattr(ingestor, name) for name in COUNTERS if not name.startswith("tracker")}
    return {
        "counters": np.array([counters[name] for name in COUNTERS]),
        "theta": ingestor.params.theta,
        "theta_time": ingestor.params.theta_time,
        "lambda_u": ingestor.params.lambda_u,
        "tracker_vectors": ingestor.tracker.vectors,
        "tracker_valid": ingestor.tracker.valid,
        "user_theta": np.array([theta for theta, _ in user_folds]),
        "user_lambda": np.array([lam for _, lam in user_folds]),
        "interval_theta_time": np.array(interval_folds),
    }


@pytest.fixture(scope="module")
def recorded() -> dict[str, np.ndarray]:
    with np.load(FIXTURE) as archive:
        return dict(archive)


def _expected(recorded: dict[str, np.ndarray], stream: str) -> dict[str, np.ndarray]:
    return {
        key.removeprefix(f"{stream}/"): value
        for key, value in recorded.items()
        if key.startswith(f"{stream}/")
    }


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_ingest_matches_the_per_interval_loops(recorded, stream):
    expected = _expected(recorded, stream)
    actual = stream_record(stream)
    assert actual.keys() == expected.keys()
    np.testing.assert_array_equal(actual.pop("counters"), expected.pop("counters"))
    np.testing.assert_array_equal(actual.pop("tracker_valid"), expected.pop("tracker_valid"))
    for name, array in expected.items():
        assert actual[name].shape == array.shape, name
        np.testing.assert_allclose(actual[name], array, rtol=0, atol=1e-12, err_msg=name)


def test_streams_cover_their_cases(recorded):
    """What each stream is for actually happened in it."""
    count = {
        stream: dict(zip(COUNTERS, _expected(recorded, stream)["counters"]))
        for stream in STREAMS
    }
    assert count["late"]["boundaries"] > 0 and count["late"]["skipped"] == 0
    assert _expected(recorded, "new_ids")["theta"].shape[0] > N
    assert _expected(recorded, "new_ids")["theta_time"].shape[0] > T
    assert count["messy"]["skipped"] > 0
    users, _, _, _ = _returning(np.random.default_rng(STREAMS["returning"][1]), base_params())
    batches_seen = [np.unique(np.flatnonzero(users == user) // BATCH) for user in range(N, N + 10)]
    assert all(seen.size > 1 for seen in batches_seen)


def _write_fixture() -> None:
    """Regenerate the fixture with whatever ``repro`` is importable."""
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    arrays = {
        f"{stream}/{name}": value
        for stream in STREAMS
        for name, value in stream_record(stream).items()
    }
    np.savez_compressed(FIXTURE, **arrays)


if __name__ == "__main__":
    _write_fixture()
