"""Shared fixtures for the serving-service suite.

The suite spawns real worker processes, so the snapshot fixtures are
session-scoped (one Dirichlet-drawn TTCAM written once) and the running
service is wrapped in a context manager that always drains — a test
that fails must not leak worker processes into the rest of the run.
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import TTCAMParameters
from repro.core.serialize import save_params
from repro.serving_service import ServiceConfig, ServingService

NUM_USERS = 60
NUM_ITEMS = 45
NUM_INTERVALS = 6


def dirichlet_params(seed: int = 0) -> TTCAMParameters:
    """A healthy synthetic TTCAM parameter set (fast to draw)."""
    rng = np.random.default_rng(seed)

    def stochastic(rows: int, cols: int) -> np.ndarray:
        return rng.dirichlet(np.ones(cols), size=rows)

    return TTCAMParameters(
        theta=stochastic(NUM_USERS, 4),
        phi=stochastic(4, NUM_ITEMS),
        theta_time=stochastic(NUM_INTERVALS, 3),
        phi_time=stochastic(3, NUM_ITEMS),
        lambda_u=rng.random(NUM_USERS),
    )


@pytest.fixture(scope="session")
def service_params() -> TTCAMParameters:
    return dirichlet_params(0)


@pytest.fixture(scope="session")
def snapshot_path(tmp_path_factory, service_params) -> Path:
    """The session's serving snapshot on disk (eager, no derived members)."""
    path = tmp_path_factory.mktemp("service") / "snapshot.npz"
    save_params(service_params, str(path))
    return path


@pytest.fixture(scope="session")
def candidate_path(tmp_path_factory) -> Path:
    """A second healthy snapshot (same dimensions) for hot-swap tests."""
    path = tmp_path_factory.mktemp("service-candidate") / "candidate.npz"
    save_params(dirichlet_params(1), str(path))
    return path


@contextmanager
def running_service(config: ServiceConfig):
    """Run a :class:`ServingService` on a background event loop.

    Yields the started service (``service.port`` is bound); always
    drains on exit so failing tests cannot leak worker processes.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="service-test-loop", daemon=True
    )
    thread.start()
    service = ServingService(config)
    try:
        asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=120)
        yield service
    finally:
        asyncio.run_coroutine_threadsafe(service.drain(), loop).result(timeout=120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
