"""Seeded input generation: sizes per workload and the data each loop consumes.

The system under test only ever receives what is generated here; the same
``--seed`` gives the same arrays, queries and events. A workload is a
*scenario* (the sizes below, and the data drawn at them) plus the loop that
is measured end to end on it; a traced run drives every loop on the
workload's scenario, so each layer is measured at the workload's shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import TTCAMParameters
from repro.streaming import StreamEvent

#: Queries per ``recommend_batch`` call and items per answer.
BATCH = 64
TOP_K = 10
#: Events per ingest chunk (= ``StreamIngestor.batch_events``).
CHUNK_EVENTS = 256
#: Fixed latency limit of the open-loop query stream, in milliseconds.
LIMIT_MS = 25.0
#: Distinct pre-generated query batches the loops cycle through.
QUERY_BATCHES = 256


@dataclass(frozen=True)
class Sizes:
    """Shapes of one scenario.

    ``ratings`` is the number of rating triples drawn (duplicates coalesce,
    so the cuboid's ``nnz`` lands a little under it); ``chunk_period_s`` and
    ``request_rate`` are the two open-loop schedules of the pipeline loop.
    """

    users: int
    intervals: int
    items: int
    k1: int
    k2: int
    ratings: int
    fit_iters: int
    chunk_period_s: float
    request_rate: float


#: Full-scale scenarios. The fit cuboid is kept to 20k ratings: fitted in
#: one process beside it, a 60k-rating cuboid (posterior blocks of 15 MB,
#: out in the host's shared cache) swung by a factor of 1.5 between the
#: fast and slow tenth of its cycles where this one swung by 1.2, the
#: floor this host allows. At V=100k one ingest cycle (fold with its boundary
#: checkpoint, save, publish) takes about two seconds, so that scenario's
#: pipeline schedule is slower: there the pipeline loop only feeds the
#: layer table, it is not the workload.
FULL = {
    "fit": Sizes(1000, 24, 2000, 32, 16, 20_000, 20, 0.75, 100.0),
    "serve_batch": Sizes(2000, 48, 100_000, 16, 8, 20_000, 3, 2.5, 100.0),
    "service_closed": Sizes(2000, 48, 100_000, 16, 8, 20_000, 3, 2.5, 100.0),
    "pipeline": Sizes(2000, 48, 20_000, 16, 8, 20_000, 3, 0.75, 100.0),
}
#: ``--smoke``: the same code paths in a few seconds, no bounds.
SMOKE = {
    "fit": Sizes(120, 8, 300, 6, 4, 4000, 3, 0.25, 40.0),
    "serve_batch": Sizes(100, 8, 600, 6, 4, 2000, 2, 0.25, 40.0),
    "service_closed": Sizes(100, 8, 600, 6, 4, 2000, 2, 0.25, 40.0),
    "pipeline": Sizes(100, 8, 500, 6, 4, 2000, 2, 0.25, 40.0),
}
WORKLOADS = tuple(FULL)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def make_ratings(sizes: Sizes, seed: int) -> dict[str, np.ndarray]:
    """Rating triples with Zipf item popularity, as ``from_arrays`` keywords."""
    rng = _rng(seed, 1)
    count = sizes.ratings
    return {
        "users": rng.integers(0, sizes.users, count),
        "intervals": rng.integers(0, sizes.intervals, count),
        "items": np.minimum(rng.zipf(1.3, count) - 1, sizes.items - 1),
        "scores": rng.random(count) + 0.5,
    }


def make_params(sizes: Sizes, seed: int, variant: int = 0) -> TTCAMParameters:
    """Serving-shaped TTCAM parameters (sparse Dirichlet draws).

    ``variant`` selects an independent draw at the same shapes: the second
    snapshot that hot swaps alternate with.
    """
    rng = _rng(seed, 2 + variant)
    return TTCAMParameters(
        theta=rng.dirichlet(np.full(sizes.k1, 0.3), size=sizes.users),
        phi=rng.dirichlet(np.full(sizes.items, 0.05), size=sizes.k1),
        theta_time=rng.dirichlet(np.full(sizes.k2, 0.3), size=sizes.intervals),
        phi_time=rng.dirichlet(np.full(sizes.items, 0.05), size=sizes.k2),
        lambda_u=rng.beta(3.0, 3.0, size=sizes.users),
    )


def make_queries(sizes: Sizes, seed: int) -> list[list[tuple[int, int]]]:
    """Query batches: uniform users, Zipf(1.5)-hot intervals.

    Hot intervals mean most batches reuse cached per-interval context
    rows while the tail keeps forcing new ones.
    """
    rng = _rng(seed, 8)
    total = QUERY_BATCHES * BATCH
    users = rng.integers(0, sizes.users, total)
    intervals = np.minimum(rng.zipf(1.5, total) - 1, sizes.intervals - 1)
    pairs = [(int(u), int(t)) for u, t in zip(users, intervals)]
    return [pairs[i : i + BATCH] for i in range(0, total, BATCH)]


def _draw(cumulative: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """Row-wise categorical draw from cumulative rows (one draw per row)."""
    return np.minimum((cumulative < uniform[:, None]).sum(axis=1), cumulative.shape[1] - 1)


def make_events(
    params: TTCAMParameters, sizes: Sizes, seed: int, chunks: int
) -> list[list[StreamEvent]]:
    """``chunks`` chunks of events drawn from the model's own mixture.

    A live stream arrives in time order, so nine events in ten carry the
    stream's current interval (which advances every eight chunks) and one
    in ten is a late arrival for a random interval. Items are sampled from
    ``params`` (user topic with probability λ, time topic otherwise), so the
    current interval's stream agrees with the snapshot it is folded into.
    A late arrival is one or two events for an old interval: its context
    estimate crosses the drift threshold and costs a partial refit and a
    checkpoint, which is the steady boundary load of the stream. Every item
    is inside the catalogue: no event is skipped, so none counts as failed.
    """
    rng = _rng(seed, 9)
    count = chunks * CHUNK_EVENTS
    chunk_of = np.arange(count) // CHUNK_EVENTS
    current = (chunk_of // 8) % sizes.intervals
    late = rng.random(count) < 0.1
    intervals = np.where(late, rng.integers(0, sizes.intervals, count), current)
    users = rng.integers(0, sizes.users, count)
    from_user = rng.random(count) < params.lambda_u[users]
    user_topic = _draw(np.cumsum(params.theta[users], axis=1), rng.random(count))
    time_topic = _draw(np.cumsum(params.theta_time[intervals], axis=1), rng.random(count))
    pick = rng.random(count)
    items = np.empty(count, dtype=np.int64)
    for chosen, topics, matrix in (
        (from_user, user_topic, params.phi),
        (~from_user, time_topic, params.phi_time),
    ):
        for topic in np.unique(topics[chosen]):
            rows = np.flatnonzero(chosen & (topics == topic))
            items[rows] = np.searchsorted(np.cumsum(matrix[topic]), pick[rows])
    items = np.minimum(items, sizes.items - 1)
    scores = rng.random(count) + 0.5
    events = [
        StreamEvent(user=int(u), interval=int(t), item=int(i), score=float(s))
        for u, t, i, s in zip(users, intervals, items, scores)
    ]
    return [events[i : i + CHUNK_EVENTS] for i in range(0, count, CHUNK_EVENTS)]
