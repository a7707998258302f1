"""Deterministic fault injection for robustness testing.

Production code is instrumented with *fault points* — named no-op hooks
(:func:`fault_point`, :func:`maybe_poison`) that only act while a
:class:`FaultInjector` context is active. Tests arm an injector with a
plan ("crash shard 1 on its first attempt", "poison the EM state with
NaNs at iteration 5", "delay shard 0 by 50 ms") and run the real training
or serving path; everything is seeded and counted, so the induced failure
— and the recovery it must trigger — replays identically on every run.

Sites instrumented in this package:

* ``em.iteration``   — top of every EM iteration (context: ``iteration``);
* ``em.state``       — the freshly updated EM state (poisonable);
* ``parallel.shard`` — one shard's E-step (context: ``shard``, ``attempt``);
* ``wal.write``      — every byte range the event log writes (context:
  ``segment``), targetable by the write-fault plans below;
* ``stream.batch``   — top of every ingested micro-batch (context:
  ``batch``, ``offset``);
* ``stream.checkpoint`` — just before the ingestor persists its state;
* ``checkpoint.write`` — every byte range a
  :class:`~repro.robustness.checkpoint.CheckpointManager` writes (context:
  ``iteration``), targetable by the write-fault plans below;
* ``snapshot.write`` — every byte range
  :func:`~repro.core.serialize.save_params` writes, likewise.

Write faults (:meth:`FaultInjector.torn_write`,
:meth:`FaultInjector.short_write`, :meth:`FaultInjector.disk_full`)
act through :func:`faulty_write`, which production file-writing code
routes its writes through: a *short* write delivers only a prefix and
reports it (the caller's write loop must finish the job), a *torn*
write delivers a prefix and then simulates the process dying, and
*disk-full* raises ``OSError(ENOSPC)`` without writing anything.
"""

from __future__ import annotations

import errno
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

import numpy as np

from ..typing import FloatArray

from .errors import InjectedFault

_lock = threading.Lock()
_active: "FaultInjector | None" = None


def active_injector() -> "FaultInjector | None":
    """The currently armed injector, or ``None`` outside any context."""
    return _active


def fault_point(site: str, **context: object) -> None:
    """Hook for crash/delay faults; a no-op unless an injector is armed."""
    injector = _active
    if injector is not None:
        injector._hit(site, context)


def maybe_poison(
    site: str, arrays: dict[str, FloatArray], **context: object
) -> dict[str, FloatArray]:
    """Hook for NaN-poisoning faults; returns ``arrays`` untouched unless armed."""
    injector = _active
    if injector is not None:
        return injector._poison(site, arrays, context)
    return arrays


def faulty_write(site: str, handle: IO[bytes], data: "bytes | memoryview", **context: object) -> int:
    """Write ``data`` to ``handle``, subject to armed write-fault plans.

    Returns the number of bytes actually written, mirroring the
    ``os.write`` contract: a *short-write* plan delivers only a prefix,
    so callers must loop until all bytes are on disk (see
    :meth:`repro.streaming.wal.EventLog.append`). A *torn-write* plan
    writes a prefix and then raises :class:`InjectedFault`, simulating
    the process dying mid-write; a *disk-full* plan raises
    ``OSError(ENOSPC)`` before anything is written. Without an armed
    injector this is exactly ``handle.write(data)``.
    """
    injector = _active
    if injector is None:
        return handle.write(data)
    return injector._write(site, handle, data, context)


class FaultSiteFile:
    """A binary file whose ``write`` goes through the fault site ``site``.

    ``np.savez`` streams the archive through it, so the fault harness sees
    each byte range without the archive being held in memory a second
    time. (After an injected tear numpy still closes the zip into the
    temporary file; that file is never renamed into place.)
    """

    def __init__(self, handle: IO[bytes], site: str, **context: object) -> None:
        self._handle = handle
        self._site = site
        self._context = context

    def write(self, data: "bytes | memoryview") -> int:
        """Write all of ``data`` through the site, looping over short writes."""
        pending = memoryview(data).cast("B")
        total = len(pending)
        while pending:
            written = faulty_write(self._site, self._handle, pending, **self._context)
            pending = pending[written:]
        return total

    def __getattr__(self, name: str) -> object:
        return getattr(self._handle, name)


def truncate_file(path: str | Path, keep_fraction: float = 0.5) -> Path:
    """Truncate a file in place, simulating a crash mid-write.

    Keeps the leading ``keep_fraction`` of the bytes (at least one), which
    reliably corrupts ``.npz``/zip archives whose directory lives at the
    end of the file.
    """
    if not 0 <= keep_fraction < 1:
        raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
    path = Path(path)
    size = path.stat().st_size
    keep = max(1, int(size * keep_fraction))
    with path.open("rb+") as handle:
        handle.truncate(keep)
    return path


@dataclass
class _Plan:
    """One armed fault: what to do, where, and how many times."""

    site: str
    action: str  # "crash" | "delay" | "nan" | "torn-write" | "short-write" | "disk-full"
    times: int
    match: dict[str, object]
    seconds: float = 0.0
    cells: int = 1
    array: str | None = None
    keep_fraction: float = 0.5
    fired: int = 0

    def applies(self, site: str, context: dict[str, object]) -> bool:
        """True when this plan matches the fault point and still has shots."""
        if site != self.site or self.fired >= self.times:
            return False
        return all(context.get(key) == value for key, value in self.match.items())


class FaultInjector:
    """Seeded, context-managed fault plan for deterministic chaos tests.

    Use as a context manager::

        with FaultInjector(seed=7) as chaos:
            chaos.crash("parallel.shard", shard=1, attempt=0)
            model.fit(cuboid)   # shard 1's first attempt raises InjectedFault

    Arming is process-global (the hooks in production code consult one
    slot), so contexts must not be nested across threads; the tests in
    ``tests/robustness`` arm one injector at a time.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._plans: list[_Plan] = []

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def crash(self, site: str, times: int = 1, **match: object) -> "FaultInjector":
        """Arm ``times`` :class:`InjectedFault` raises at ``site``."""
        self._plans.append(_Plan(site=site, action="crash", times=times, match=match))
        return self

    def delay(
        self, site: str, seconds: float, times: int = 1, **match: object
    ) -> "FaultInjector":
        """Arm ``times`` sleeps of ``seconds`` at ``site`` (slow-shard fault)."""
        self._plans.append(
            _Plan(site=site, action="delay", times=times, match=match, seconds=seconds)
        )
        return self

    def poison_nan(
        self,
        site: str,
        times: int = 1,
        cells: int = 1,
        array: str | None = None,
        **match: object,
    ) -> "FaultInjector":
        """Arm NaN poisoning of ``cells`` entries at ``site``.

        ``array`` pins the poisoned array by name; by default one is
        chosen with the injector's seeded RNG.
        """
        if cells <= 0:
            raise ValueError(f"cells must be positive, got {cells}")
        self._plans.append(
            _Plan(
                site=site,
                action="nan",
                times=times,
                match=match,
                cells=cells,
                array=array,
            )
        )
        return self

    def torn_write(
        self,
        site: str,
        keep_fraction: float = 0.5,
        times: int = 1,
        **match: object,
    ) -> "FaultInjector":
        """Arm a crash mid-write: a prefix lands on disk, then the
        process "dies" (:class:`InjectedFault`).

        ``keep_fraction`` of the requested bytes (at least one when any
        were requested) are written before the fault raises — exactly
        the torn tail a WAL recovery path must truncate.
        """
        if not 0 <= keep_fraction < 1:
            raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
        self._plans.append(
            _Plan(
                site=site,
                action="torn-write",
                times=times,
                match=match,
                keep_fraction=keep_fraction,
            )
        )
        return self

    def short_write(
        self,
        site: str,
        keep_fraction: float = 0.5,
        times: int = 1,
        **match: object,
    ) -> "FaultInjector":
        """Arm ``times`` short writes: only a prefix is written and its
        length returned, as ``os.write`` is allowed to do.

        No exception is raised — correct callers loop until every byte
        is durable, so a short write must be invisible in the recovered
        state.
        """
        if not 0 <= keep_fraction < 1:
            raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
        self._plans.append(
            _Plan(
                site=site,
                action="short-write",
                times=times,
                match=match,
                keep_fraction=keep_fraction,
            )
        )
        return self

    def disk_full(self, site: str, times: int = 1, **match: object) -> "FaultInjector":
        """Arm ``times`` ``OSError(ENOSPC)`` raises before any byte is written."""
        self._plans.append(
            _Plan(site=site, action="disk-full", times=times, match=match)
        )
        return self

    @property
    def fired(self) -> int:
        """Total faults delivered so far."""
        return sum(plan.fired for plan in self._plans)

    # ------------------------------------------------------------------
    # context management
    # ------------------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        """Arm this injector process-wide."""
        global _active
        with _lock:
            if _active is not None:
                raise RuntimeError("another FaultInjector is already active")
            _active = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Disarm; fault hooks become no-ops again."""
        global _active
        with _lock:
            _active = None

    # ------------------------------------------------------------------
    # delivery (called from the hooks)
    # ------------------------------------------------------------------

    def _hit(self, site: str, context: dict[str, object]) -> None:
        """Deliver crash/delay plans matching one fault point."""
        delays: list[float] = []
        crash: _Plan | None = None
        with _lock:
            for plan in self._plans:
                if plan.action in ("crash", "delay") and plan.applies(site, context):
                    plan.fired += 1
                    if plan.action == "crash":
                        crash = plan
                        break
                    delays.append(plan.seconds)
        for seconds in delays:
            time.sleep(seconds)
        if crash is not None:
            raise InjectedFault(f"injected crash at {site} ({context})")

    def _poison(
        self, site: str, arrays: dict[str, FloatArray], context: dict[str, object]
    ) -> dict[str, FloatArray]:
        """Deliver NaN-poison plans; returns (possibly copied) arrays."""
        with _lock:
            plans = [
                plan
                for plan in self._plans
                if plan.action == "nan" and plan.applies(site, context)
            ]
            for plan in plans:
                plan.fired += 1
        if not plans:
            return arrays
        poisoned = dict(arrays)
        for plan in plans:
            name = plan.array
            if name is None:
                name = sorted(poisoned)[int(self._rng.integers(len(poisoned)))]
            target = np.array(poisoned[name], dtype=np.float64, copy=True)
            flat = target.reshape(-1)
            index = self._rng.integers(flat.size, size=plan.cells)
            flat[index] = np.nan
            poisoned[name] = target
        return poisoned

    def _write(
        self,
        site: str,
        handle: IO[bytes],
        data: "bytes | memoryview",
        context: dict[str, object],
    ) -> int:
        """Deliver write-fault plans for one :func:`faulty_write` call."""
        matched: _Plan | None = None
        with _lock:
            for plan in self._plans:
                if (
                    plan.action in ("torn-write", "short-write", "disk-full")
                    and plan.applies(site, context)
                ):
                    plan.fired += 1
                    matched = plan
                    break
        if matched is None:
            return handle.write(data)
        if matched.action == "disk-full":
            raise OSError(errno.ENOSPC, f"injected disk-full at {site} ({context})")
        size = len(data)
        keep = max(1, int(size * matched.keep_fraction)) if size else 0
        written = handle.write(memoryview(data)[:keep])
        if matched.action == "torn-write":
            handle.flush()
            raise InjectedFault(f"injected torn write at {site} ({context})")
        return written
