"""Publishes as a worker sees them: delta or full, and what ``status`` names.

The fleet protocol is unchanged — no new op, no client change — so these
tests read the two new reply keys (``"delta"``, ``"base_digest"``) where a
client that knows them would, and check that one that does not is served
as before.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.serialize import LoadedModel, load_params, save_params
from repro.recommend.recommender import TemporalRecommender
from repro.serving_service import ServiceClient, ServingService
from repro.serving_service.worker import (
    WorkerConfig,
    _handle,
    _open_recommender,
    _status_payload,
    _WorkerState,
)
from repro.streaming import SnapshotPublisher

from .conftest import NUM_INTERVALS, NUM_USERS, dirichlet_params, running_service
from .test_service import _assert_rows_bitwise, _config

pytestmark = pytest.mark.service


def _same_base(params, seed):
    """Other ``θ``/``λ`` over the ``φ``/``φ′`` of ``params`` — what fold-in publishes."""
    other = dirichlet_params(seed)
    return params.with_fields(theta=other.theta, lambda_u=other.lambda_u)


def _worker_state(snapshot, index=0, probes=((0, 0),)) -> _WorkerState:
    config = WorkerConfig(index=index, num_workers=2, snapshot=str(snapshot), probes=probes)
    recommender, opened = _open_recommender(config)
    return _WorkerState(
        config=config,
        recommender=recommender,
        publisher=SnapshotPublisher(recommender, probes=config.probes),
        snapshot=opened,
    )


class TestWorkerReplies:
    def test_revert_restores_the_snapshot_status_names(self, snapshot_path, candidate_path):
        """``status`` named the rejected path after a fleet rollback."""
        state = _worker_state(snapshot_path)
        reply = _handle(state, {"type": "publish", "path": str(candidate_path)})
        assert reply["published"] and _status_payload(state)["snapshot"] == str(candidate_path)
        reply = _handle(state, {"type": "revert"})
        assert reply["published"]
        assert _status_payload(state)["snapshot"] == str(snapshot_path)
        served = state.recommender.model.params_
        assert np.array_equal(served.theta, load_params(snapshot_path).theta)
        # nothing left to revert to: the refusal leaves the name alone
        assert not _handle(state, {"type": "revert"})["published"]
        assert _status_payload(state)["snapshot"] == str(snapshot_path)

    def test_replies_say_delta_or_full_and_name_the_base(
        self, snapshot_path, candidate_path, service_params, tmp_path
    ):
        state = _worker_state(snapshot_path)
        base = load_params(snapshot_path).base_digest
        status = _status_payload(state)
        assert (status["delta"], status["base_digest"]) == (False, base[:12])
        folded = save_params(_same_base(service_params, 7), tmp_path / "folded.npz")
        reply = _handle(state, {"type": "publish", "path": str(folded)})
        assert (reply["published"], reply["delta"], reply["base_digest"]) == (True, True, base[:12])
        assert _status_payload(state)["delta"] is True
        reply = _handle(state, {"type": "publish", "path": str(candidate_path)})
        refit = load_params(candidate_path).base_digest
        assert (reply["published"], reply["delta"], reply["base_digest"]) == (True, False, refit[:12])
        assert _status_payload(state)["delta"] is False
        rejected = _handle(state, {"type": "publish", "path": str(tmp_path / "missing.npz")})
        assert (rejected["published"], rejected["delta"]) == (False, False)
        assert rejected["base_digest"] == refit[:12]  # still what serves


class _InProcessHandle:
    """A worker handle whose worker is a ``_WorkerState`` in this process."""

    def __init__(self, state: _WorkerState) -> None:
        self.index = state.config.index
        self.state = state
        self.alive = True
        self.inflight = 0

    def request(self, message):
        future = asyncio.get_running_loop().create_future()
        future.set_result(_handle(self.state, message))
        return future

    def hold_core(self, hold: bool) -> None:
        pass


def test_fleet_rollback_leaves_every_worker_naming_what_it_serves(
    snapshot_path, candidate_path, tmp_path
):
    """One worker rejects, the one that accepted is reverted — path included."""
    accepting = _worker_state(snapshot_path, index=0)
    # This worker's gate probes a user the candidate does not have.
    rejecting = _worker_state(snapshot_path, index=1, probes=((NUM_USERS + 5, 0),))

    async def scenario():
        service = ServingService(_config(snapshot_path, tmp_path))
        service.handles = [_InProcessHandle(accepting), _InProcessHandle(rejecting)]
        return await service.publish(str(candidate_path)), await service.status()

    reply, status = asyncio.run(scenario())
    assert reply["published"] is False
    assert list(reply["rejected"]) == [1] and reply["reverted"] == [0]
    assert [worker["snapshot"] for worker in status["workers"]] == [str(snapshot_path)] * 2
    assert [worker["generation"] for worker in status["workers"]] == [2, 0]
    assert accepting.recommender.rollback_count == rejecting.recommender.rollback_count == 1
    assert status["service"]["rollbacks"] == 1
    assert status["service"]["publishes"] == status["service"]["delta_publishes"] == 0
    assert not (tmp_path / "generation.json").exists()


def test_fleet_counts_delta_and_full_publishes_and_old_clients_are_unaffected(
    snapshot_path, candidate_path, service_params, tmp_path
):
    folded_params = _same_base(service_params, 11)
    folded = save_params(folded_params, tmp_path / "folded.npz")
    queries = [(u, u % NUM_INTERVALS) for u in range(0, NUM_USERS, 4)]

    def direct(params):
        return TemporalRecommender(LoadedModel(params)).recommend_batch(queries, k=5)

    with running_service(_config(snapshot_path, tmp_path)) as service:
        with ServiceClient("127.0.0.1", service.port, timeout=120) as client:
            client.recommend(queries, k=5)  # warm caches: the hand-over has something to carry
            first = client.publish(str(folded))
            _assert_rows_bitwise(client.recommend(queries, k=5), direct(folded_params))
            after_delta = client.status()
            second = client.publish(str(candidate_path))
            _assert_rows_bitwise(client.recommend(queries, k=5), direct(dirichlet_params(1)))
            after_full = client.status()
    # what a client that predates the keys reads is what it always read
    for reply in (first, second):
        assert reply["published"] is True and reply["rejected"] == {} and reply["reverted"] == []
        assert len(reply["generation"]) == 2
    assert first["delta"] == [True, True] and second["delta"] == [False, False]
    base = load_params(snapshot_path).base_digest[:12]
    assert [w["delta"] for w in after_delta["workers"]] == [True, True]
    assert [w["base_digest"] for w in after_delta["workers"]] == [base, base]
    assert [w["delta"] for w in after_full["workers"]] == [False, False]
    assert after_full["workers"][0]["base_digest"] == load_params(candidate_path).base_digest[:12]
    counts = [
        (s["service"]["publishes"], s["service"]["delta_publishes"], s["service"]["full_publishes"])
        for s in (after_delta, after_full)
    ]
    assert counts == [(1, 1, 0), (2, 1, 1)]
