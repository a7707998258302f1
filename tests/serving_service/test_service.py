"""End-to-end serving service: bitwise parity, routing, hot swap, drain, worker death."""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.serialize import LoadedModel, load_params, save_params
from repro.recommend.recommender import TemporalRecommender
from repro.serving_service import (
    MicroBatchQueue,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServingService,
)

from .conftest import NUM_INTERVALS, NUM_USERS, dirichlet_params, running_service

pytestmark = pytest.mark.service


def _config(snapshot_path, tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        snapshot=str(snapshot_path),
        workers=2,
        max_batch=16,
        generation_file=str(tmp_path / "generation.json"),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _assert_rows_bitwise(reply, direct):
    assert len(reply["results"]) == len(direct)
    for row, expected in zip(reply["results"], direct):
        assert row["items"] == [int(i) for i in expected.items]
        assert [float(s).hex() for s in row["scores"]] == [
            float(s).hex() for s in expected.scores
        ]


class TestReadPath:
    @pytest.fixture(scope="class")
    def service(self, snapshot_path, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("read-path")
        with running_service(_config(snapshot_path, tmp)) as service:
            yield service

    def test_responses_are_bitwise_identical_to_direct_batch(
        self, service, service_params
    ):
        rng = np.random.default_rng(3)
        queries = [
            (int(u), int(t))
            for u, t in zip(
                rng.integers(0, NUM_USERS, 24), rng.integers(0, NUM_INTERVALS, 24)
            )
        ]
        direct = TemporalRecommender(LoadedModel(service_params)).recommend_batch(
            queries, k=7
        )
        with ServiceClient("127.0.0.1", service.port) as client:
            reply = client.recommend(queries, k=7)
        _assert_rows_bitwise(reply, direct)

    def test_queries_route_to_the_user_shard(self, service):
        queries = [(user, 0) for user in range(8)]
        with ServiceClient("127.0.0.1", service.port) as client:
            reply = client.recommend(queries, k=3)
        assert reply["worker"] == [user % 2 for user in range(8)]

    def test_status_reports_every_worker(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            status = client.status()
        assert not status["draining"]
        workers = {entry["worker"] for entry in status["workers"]}
        assert workers == {0, 1}
        for entry in status["workers"]:
            assert entry["generation"] == 0
            assert "shared" not in entry
            assert entry["mmap"] is False  # no derived members in the snapshot: eager models
            assert entry["rss_bytes"] is None or entry["rss_bytes"] > 0
        # an idle fleet: nothing in flight or parked when the status was taken
        assert status["service"]["inflight"] == [0, 0]
        assert status["service"]["pending_queries"] == [0, 0]
        assert "batch_deadline_s" not in status["service"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks")
    def test_hold_core_gives_each_worker_its_own_core_and_releases_it(self, service):
        cpus = sorted(os.sched_getaffinity(0))
        pids = [handle.process.pid for handle in service.handles]
        for handle in service.handles:
            handle.hold_core(True)
        held = [os.sched_getaffinity(pid) for pid in pids]
        for handle in service.handles:
            handle.hold_core(False)
        assert held == [{cpus[index % len(cpus)]} for index in range(len(pids))]
        assert [os.sched_getaffinity(pid) for pid in pids] == [set(cpus)] * len(pids)

    def test_malformed_requests_get_structured_errors(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            with pytest.raises(ServiceError, match="non-empty"):
                client.request({"queries": []})
            with pytest.raises(ServiceError, match="pairs"):
                client.request({"queries": ["nope"]})
            # a non-integral id is refused, never truncated to user 0
            for bad in ([[0.7, 0]], [[0, 0], [1, 2.5]], [[0, "1"]], [[0, 0, 0]]):
                with pytest.raises(ServiceError, match="integer pairs"):
                    client.request({"queries": bad})
            # a non-integral k is refused, never truncated
            for bad_k in (0, 2.7, True, "3"):
                with pytest.raises(ServiceError, match="k must be a positive integer"):
                    client.request({"queries": [[0, 0]], "k": bad_k})
            with pytest.raises(ServiceError, match="unknown op"):
                client.request({"op": "frobnicate"})
            # the connection survives every error above
            assert client.recommend([(1, 1)], k=2)["results"]


# ---------------------------------------------------------------------------
# Hot swap under load with concurrent client processes (the ISSUE scenario)
# ---------------------------------------------------------------------------


def _client_burst(host, port, seed, rounds, ready, results):
    """Spawned client process: a burst of recommend requests.

    Reports ``(worker, generation)`` per row of every response so the
    parent can check tearing and monotonicity; any error string aborts
    the burst and is reported instead.
    """
    rng = np.random.default_rng(seed)
    observed = []
    try:
        with ServiceClient(host, port, timeout=120) as client:
            ready.put(seed)
            for _ in range(rounds):
                queries = [
                    (int(u), int(t))
                    for u, t in zip(
                        rng.integers(0, NUM_USERS, 6),
                        rng.integers(0, NUM_INTERVALS, 6),
                    )
                ]
                reply = client.recommend(queries, k=4)
                assert all(row is not None for row in reply["results"])
                observed.append(
                    list(zip(reply["worker"], reply["generation"]))
                )
    except Exception as exc:  # noqa: BLE001 - shipped to the parent
        results.put({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
        return
    results.put({"seed": seed, "error": None, "responses": observed})


class TestHotSwap:
    def test_fleet_swap_under_concurrent_client_processes(
        self, snapshot_path, candidate_path, service_params, tmp_path
    ):
        clients, rounds = 3, 30
        ctx = mp.get_context("spawn")
        ready: mp.SimpleQueue = ctx.SimpleQueue()
        results: mp.SimpleQueue = ctx.SimpleQueue()
        with running_service(_config(snapshot_path, tmp_path)) as service:
            procs = [
                ctx.Process(
                    target=_client_burst,
                    args=("127.0.0.1", service.port, seed, rounds, ready, results),
                )
                for seed in range(clients)
            ]
            for proc in procs:
                proc.start()
            for _ in procs:
                ready.get()  # all clients connected and bursting
            time.sleep(0.05)  # let the burst overlap the swap
            with ServiceClient("127.0.0.1", service.port, timeout=120) as control:
                swap = control.publish(str(candidate_path))
                reports = [results.get() for _ in procs]
                for proc in procs:
                    proc.join(timeout=120)
                status = control.status()
                # post-swap responses are bitwise the candidate snapshot
                queries = [(u, u % NUM_INTERVALS) for u in range(10)]
                after = control.recommend(queries, k=5)

        assert swap["published"] is True
        assert swap["rejected"] == {}
        assert all(generation >= 1 for generation in swap["generation"])

        # zero dropped queries: every client completed every round
        assert [report["error"] for report in reports] == [None] * clients
        for report in reports:
            assert len(report["responses"]) == rounds
            for response in report["responses"]:
                # no torn batches: rows served by one worker in one
                # response share a single generation
                by_worker: dict[int, set[int]] = {}
                for worker, generation in response:
                    by_worker.setdefault(worker, set()).add(generation)
                for generations in by_worker.values():
                    assert len(generations) == 1
            # generations are monotonic per worker across the burst
            last: dict[int, int] = {}
            for response in report["responses"]:
                for worker, generation in response:
                    assert generation >= last.get(worker, 0)
                    last[worker] = generation

        for entry in status["workers"]:
            assert entry["generation"] >= 1
            assert entry["swaps"] == 1
            assert entry["snapshot"] == str(candidate_path)
            assert entry["mmap"] is False

        candidate = dirichlet_params(1)
        direct = TemporalRecommender(LoadedModel(candidate)).recommend_batch(
            [(u, u % NUM_INTERVALS) for u in range(10)], k=5
        )
        _assert_rows_bitwise(after, direct)
        assert load_params(str(candidate_path)) is not None  # sanity: file intact

    def test_unhealthy_candidate_rolls_back_on_every_worker(
        self, snapshot_path, service_params, tmp_path
    ):
        bad = tmp_path / "bad.npz"
        save_params(dirichlet_params(2), bad)
        bad.write_bytes(bad.read_bytes()[:120])  # torn write: fails the gate
        queries = [(u, 0) for u in range(6)]
        direct = TemporalRecommender(LoadedModel(service_params)).recommend_batch(
            queries, k=4
        )
        with running_service(_config(snapshot_path, tmp_path)) as service:
            with ServiceClient("127.0.0.1", service.port, timeout=120) as client:
                reply = client.publish(str(bad))
                status = client.status()
                if hasattr(os, "sched_getaffinity"):
                    # the publish held each worker on a core and let it go again
                    for handle in service.handles:
                        assert os.sched_getaffinity(handle.process.pid) == os.sched_getaffinity(0)
                after = client.recommend(queries, k=4)
        assert reply["published"] is False
        assert set(reply["rejected"]) == {"0", "1"} or set(reply["rejected"]) == {0, 1}
        assert reply["reverted"] == []  # nobody accepted, nothing to revert
        for entry in status["workers"]:
            # every worker recorded the rollback and kept its generation
            assert entry["rollbacks"] == 1
            assert entry["generation"] == 0
            assert entry["snapshot"] == str(snapshot_path)
        _assert_rows_bitwise(after, direct)


class TestSidecarFleet:
    """The fleet on mapped snapshots (``mmap_layout=True``) — the one cross-worker sharing path."""

    @pytest.mark.parametrize("serve_dtype", ["float64", "int8"])
    def test_serves_and_swaps_on_sidecars_bitwise(self, tmp_path, serve_dtype):
        first, second, plain = (dirichlet_params(seed) for seed in (3, 4, 5))
        first_path = save_params(first, tmp_path / "first.npz", mmap_layout=True)
        second_path = save_params(second, tmp_path / "second.npz", mmap_layout=True)
        plain_path = save_params(plain, tmp_path / "plain.npz")
        queries = [(u, u % NUM_INTERVALS) for u in range(0, NUM_USERS, 3)]

        def direct(params):
            # float64 selection on eager parameters: the reference every
            # dtype and attach path must reproduce bit for bit
            return TemporalRecommender(LoadedModel(params)).recommend_batch(queries, k=6)

        def mmap_flags(client):
            return [entry["mmap"] for entry in client.status()["workers"]]

        config = _config(first_path, tmp_path, serve_dtype=serve_dtype)
        with running_service(config) as service:
            with ServiceClient("127.0.0.1", service.port, timeout=120) as client:
                _assert_rows_bitwise(client.recommend(queries, k=6), direct(first))
                assert mmap_flags(client) == [True, True]

                assert client.publish(str(second_path))["published"] is True
                _assert_rows_bitwise(client.recommend(queries, k=6), direct(second))
                assert mmap_flags(client) == [True, True]  # mapping survives a swap

                # no derived members in this one: every worker loads it eagerly,
                # and status says so
                assert client.publish(str(plain_path))["published"] is True
                _assert_rows_bitwise(client.recommend(queries, k=6), direct(plain))
                assert mmap_flags(client) == [False, False]

                # an older client's "mmap" key is ignored, not an error: the
                # what the snapshot carries decides
                old_style = {"op": "publish", "path": str(first_path), "mmap": False}
                assert client.request(old_style)["published"] is True
                _assert_rows_bitwise(client.recommend(queries, k=6), direct(first))
                assert mmap_flags(client) == [True, True]


class TestDrain:
    def test_drain_refuses_new_requests_and_completes_admitted_ones(
        self, snapshot_path, tmp_path
    ):
        config = _config(snapshot_path, tmp_path, workers=1)
        with running_service(config) as service:
            # the running_service loop lives on a background thread; grab it
            # through the server object the service bound
            assert service._server is not None
            service_loop = service._server.get_loop()

            async def drain_behind_an_inflight_exchange():
                first = asyncio.ensure_future(
                    service._dispatch({"id": 98, "queries": [[0, 0]], "k": 2})
                )
                admitted = asyncio.ensure_future(
                    service._dispatch({"id": 99, "queries": [[1, 0]], "k": 2})
                )
                # one loop pass runs both up to their await: the first went
                # to the idle worker, the second is parked behind it
                await asyncio.sleep(0)
                parked = service.queues[0].pending_queries
                draining = asyncio.ensure_future(service.drain())
                await asyncio.sleep(0)
                refused = await service._dispatch({"id": 100, "queries": [[2, 0]]})
                replies = await asyncio.gather(first, admitted)
                await draining
                return parked, refused, replies

            with ServiceClient("127.0.0.1", service.port) as client:
                assert client.recommend([(0, 0)], k=2)["results"]
                parked, refused, replies = asyncio.run_coroutine_threadsafe(
                    drain_behind_an_inflight_exchange(), service_loop
                ).result(timeout=60)
                assert parked == 1
                assert refused == {"id": 100, "error": "draining"}
                # admitted before the drain => answered across it
                for reply in replies:
                    assert "error" not in reply
                    assert reply["results"] and reply["results"][0] is not None
                # the still-open connection is refused while draining
                with pytest.raises(ServiceError, match="draining"):
                    client.recommend([(2, 0)], k=2)


# ---------------------------------------------------------------------------
# Failure paths: a short worker reply, a worker killed under load
# ---------------------------------------------------------------------------


class _StubHandle:
    """Stands in for a worker handle; the test answers its exchanges."""

    def __init__(self) -> None:
        self.exchanges: list[tuple[dict, asyncio.Future]] = []

    def request(self, message):
        future = asyncio.get_running_loop().create_future()
        self.exchanges.append((message, future))
        return future


def test_short_worker_reply_resolves_every_request(snapshot_path, tmp_path):
    """A reply with fewer responses than requests must not strand a client."""

    async def scenario():
        service = ServingService(_config(snapshot_path, tmp_path, workers=1))
        stub = _StubHandle()
        service.handles = [stub]
        service.queues = [MicroBatchQueue(lambda batch: service._flush(0, batch))]
        clients = [
            asyncio.ensure_future(
                service._dispatch({"id": n, "queries": [[n, 0]], "k": 2})
            )
            for n in range(3)
        ]
        await asyncio.sleep(0)  # request 0 is in flight, 1 and 2 coalesce behind it
        row = {"results": [{"items": [7], "scores": [0.5]}], "generation": [0], "degraded": [False]}
        stub.exchanges[0][1].set_result({"type": "result", "responses": [row]})
        await asyncio.sleep(0)
        message, exchange = stub.exchanges[1]
        assert len(message["requests"]) == 2
        exchange.set_result({"type": "result", "responses": [row]})  # one short
        return await asyncio.wait_for(asyncio.gather(*clients), timeout=5)

    replies = asyncio.run(scenario())
    assert [reply["id"] for reply in replies] == [0, 1, 2]
    assert "error" not in replies[0] and "error" not in replies[1]
    assert replies[2] == {"id": 2, "error": "worker answered 1 of 2 requests"}


class TestWorkerDeath:
    def test_kill_9_one_worker_under_two_connection_load(
        self, snapshot_path, tmp_path
    ):
        stop = threading.Event()
        outcomes: list[list[tuple]] = [[], []]

        def lane(port, index):
            user = index
            with ServiceClient("127.0.0.1", port, timeout=30) as client:
                while not stop.is_set():
                    user = (user + 3) % NUM_USERS  # odd stride: both shards
                    try:
                        reply = client.recommend([(user, 0)], k=3)
                        outcomes[index].append(("ok", user % 2, reply["worker"][0]))
                    except ServiceError as exc:
                        outcomes[index].append(("error", user % 2, str(exc)))
                    except Exception as exc:  # noqa: BLE001 - a hang or a torn reply
                        outcomes[index].append(("broken", user % 2, repr(exc)))
                        return

        with running_service(_config(snapshot_path, tmp_path)) as service:
            threads = [
                threading.Thread(target=lane, args=(service.port, index))
                for index in range(2)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            os.kill(service.handles[1].process.pid, signal.SIGKILL)
            time.sleep(0.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            with ServiceClient("127.0.0.1", service.port) as client:
                status = client.status()
                with pytest.raises(ServiceError, match="worker 1 is down"):
                    client.recommend([(1, 0)], k=3)
                assert client.recommend([(0, 0)], k=3)["worker"] == [0]
        # leaving the block drained the service: the dead worker was reaped
        assert service.handles[1].process.exitcode == -signal.SIGKILL
        assert service.handles[0].process.exitcode == 0

        assert [entry["worker"] for entry in status["workers"]] == [0]
        for lane_outcomes in outcomes:
            # one reply per request, each either an answer or a structured error
            assert {kind for kind, _, _ in lane_outcomes} == {"ok", "error"}
            for kind, shard, detail in lane_outcomes:
                if kind == "ok":
                    assert detail == shard
                else:
                    assert (shard, detail) == (1, "worker 1 is down")
            # the surviving shard kept serving after the first failure
            first_error = [kind for kind, _, _ in lane_outcomes].index("error")
            assert any(
                kind == "ok" and shard == 0
                for kind, shard, _ in lane_outcomes[first_error:]
            )
