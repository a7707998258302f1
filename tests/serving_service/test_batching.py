"""Micro-batching: busy-aware policy units + the split-invariance property."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import LoadedModel
from repro.recommend.recommender import TemporalRecommender
from repro.serving_service.batching import (
    BatchAccumulator,
    BatchRequest,
    MicroBatchQueue,
)
from repro.serving_service.worker import serve_requests

from .conftest import NUM_INTERVALS, NUM_USERS


def request(queries, k=5, token=None):
    return BatchRequest(queries=list(queries), k=k, token=token)


def busy_accumulator(max_batch):
    """An accumulator whose first request is already in flight."""
    acc = BatchAccumulator(max_batch=max_batch)
    assert len(acc.add(request([(9, 0)]))) == 1
    return acc


class TestAccumulator:
    def test_idle_worker_gets_a_lone_request_at_once(self):
        acc = BatchAccumulator(max_batch=100)
        batch = acc.add(request([(0, 0)]))
        assert batch is not None and len(batch) == 1
        assert acc.inflight == 1 and acc.pending_queries == 0

    def test_arrivals_coalesce_while_busy_and_flush_on_the_reply(self):
        acc = busy_accumulator(max_batch=100)
        assert acc.add(request([(0, 0)])) is None
        assert acc.add(request([(1, 0), (2, 0)])) is None
        assert acc.pending_queries == 3
        backlog = acc.done()
        assert backlog is not None
        assert [len(r.queries) for r in backlog] == [1, 2]
        assert acc.inflight == 1 and acc.pending_queries == 0
        assert acc.done() is None  # nothing waited behind the backlog
        assert acc.inflight == 0

    def test_size_trigger_flushes_with_the_crossing_request(self):
        acc = busy_accumulator(max_batch=3)
        assert acc.add(request([(0, 0)])) is None
        assert acc.add(request([(1, 0)])) is None
        batch = acc.add(request([(2, 0)]))
        assert batch is not None and len(batch) == 3
        assert acc.pending_queries == 0
        assert acc.inflight == 2
        # the backlog waits for the *last* in-flight batch, not the first
        assert acc.add(request([(3, 0)])) is None
        assert acc.done() is None
        assert len(acc.done()) == 1

    def test_oversized_request_flushes_alone_immediately(self):
        acc = busy_accumulator(max_batch=2)
        batch = acc.add(request([(0, 0), (1, 0), (2, 0)]))
        assert batch is not None and len(batch) == 1
        assert len(batch[0].queries) == 3

    def test_requests_are_never_split_across_flushes(self):
        acc = busy_accumulator(max_batch=4)
        assert acc.add(request([(0, 0), (1, 0), (2, 0)])) is None
        batch = acc.add(request([(3, 0), (4, 0)]))
        # the second request crosses the boundary but flushes whole
        assert batch is not None
        assert [len(r.queries) for r in batch] == [3, 2]

    def test_rejects_empty_requests_and_bad_knobs(self):
        acc = BatchAccumulator(max_batch=4)
        with pytest.raises(ValueError):
            acc.add(request([]))
        with pytest.raises(ValueError):
            BatchAccumulator(max_batch=0)
        with pytest.raises(RuntimeError):
            acc.done()  # nothing is in flight


# ---------------------------------------------------------------------------
# MicroBatchQueue on a real event loop, with a fake flush_cb
# ---------------------------------------------------------------------------


class TestMicroBatchQueue:
    @staticmethod
    def drive(scenario, max_batch=64):
        """Run ``scenario(queue, batches)`` on a fresh loop; return batches."""
        batches: list[list[BatchRequest]] = []

        async def main():
            scenario(MicroBatchQueue(batches.append, max_batch=max_batch), batches)

        asyncio.run(main())
        return [[r.queries for r in batch] for batch in batches]

    def test_idle_flushes_one_request_immediately(self):
        def scenario(queue, batches):
            future = queue.submit([(0, 0)], k=3)
            assert len(batches) == 1 and batches[0][0].token is future
            assert queue.pending_queries == 0

        assert self.drive(scenario) == [[[(0, 0)]]]

    def test_busy_arrivals_coalesce_until_the_reply(self):
        def scenario(queue, batches):
            queue.submit([(0, 0)], k=3)
            queue.submit([(1, 0)], k=3)
            queue.submit([(2, 0), (3, 0)], k=3)
            assert len(batches) == 1 and queue.pending_queries == 3
            queue.exchange_done()  # the reply lands: backlog ships at once
            assert len(batches) == 2 and queue.pending_queries == 0
            queue.exchange_done()
            assert len(batches) == 2  # nothing waited behind the backlog

        assert self.drive(scenario) == [[[(0, 0)]], [[(1, 0)], [(2, 0), (3, 0)]]]

    def test_max_batch_reached_while_busy_flushes_without_waiting(self):
        def scenario(queue, batches):
            queue.submit([(0, 0)], k=3)
            queue.submit([(1, 0)], k=3)
            queue.submit([(2, 0)], k=3)  # backlog == max_batch: no reply needed
            assert len(batches) == 2 and queue.pending_queries == 0

        assert self.drive(scenario, max_batch=2) == [[[(0, 0)]], [[(1, 0)], [(2, 0)]]]

    def test_close_flushes_the_backlog_and_refuses_admission(self):
        def scenario(queue, batches):
            queue.submit([(0, 0)], k=3)
            parked = queue.submit([(1, 0)], k=3)
            assert len(batches) == 1
            queue.close()
            assert len(batches) == 2 and batches[1][0].token is parked
            with pytest.raises(RuntimeError, match="closed"):
                queue.submit([(2, 0)], k=3)
            queue.exchange_done()
            queue.exchange_done()
            assert len(batches) == 2  # done events after close ship nothing

        assert self.drive(scenario) == [[[(0, 0)]], [[(1, 0)]]]


# ---------------------------------------------------------------------------
# Property: micro-batch boundaries never change results (bitwise)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recommender(service_params):
    return TemporalRecommender(LoadedModel(service_params))


queries_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_USERS - 1),
        st.integers(min_value=0, max_value=NUM_INTERVALS - 1),
    ),
    min_size=1,
    max_size=24,
)


@given(
    queries=queries_strategy,
    cuts=st.lists(st.integers(min_value=1, max_value=23), max_size=6),
    max_batch=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=8),
    replies=st.lists(st.integers(min_value=0, max_value=3), max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_micro_batch_split_never_changes_results(
    recommender, queries, cuts, max_batch, k, replies
):
    """Service answers are bitwise identical to one big recommend_batch.

    The query stream is partitioned into client requests at arbitrary
    cut points and pushed through the accumulator with an arbitrary
    flush size, with an arbitrary number of exchange-done events landing
    after each submit (so idle, busy and size-triggered flushes all
    occur). Each flushed micro-batch is served by the exact worker code
    path (`serve_requests`). Every row must reproduce the single
    big-batch call exactly: same items, same score bits, same tie
    order.
    """
    # partition the stream into requests at the (deduplicated) cut points
    bounds = sorted({c for c in cuts if c < len(queries)} | {0, len(queries)})
    requests = [
        {"queries": queries[lo:hi], "k": k}
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]

    # drive the pure policy: submits interleaved with worker replies
    acc = BatchAccumulator(max_batch=max_batch)
    batches = []

    def ship(batch):
        if batch:
            batches.append(batch)

    for index, req in enumerate(requests):
        ship(acc.add(BatchRequest(queries=list(req["queries"]), k=req["k"], token=index)))
        landed = replies[index] if index < len(replies) else 0
        for _ in range(min(landed, acc.inflight)):
            ship(acc.done())
    # drain: the backlog ships behind what is in flight, then all replies land
    ship(acc.flush())
    while acc.inflight:
        ship(acc.done())
    assert acc.pending_queries == 0

    # every request lands in exactly one micro-batch, in order
    assert [r.token for batch in batches for r in batch] == list(range(len(requests)))

    reference = recommender.recommend_batch(queries, k=k)
    served: list[dict] = []
    for batch in batches:
        worker_requests = [{"queries": r.queries, "k": r.k} for r in batch]
        responses = serve_requests(recommender, worker_requests, "float64")
        for response in responses:
            assert "error" not in response
            served.extend(response["results"])

    assert len(served) == len(reference)
    for row, expected in zip(served, reference):
        assert row["items"] == [int(i) for i in expected.items]
        assert [np.float64(s).tobytes() for s in row["scores"]] == [
            np.float64(s).tobytes() for s in expected.scores
        ]
