"""Zero-downtime publication of ingested snapshots into serving.

The :class:`SnapshotPublisher` closes the streaming loop: the
:class:`~repro.streaming.ingestor.StreamIngestor` folds events into
fresh parameters, and the publisher hot-swaps those parameters into a
live :class:`~repro.recommend.recommender.TemporalRecommender` — or
refuses to, keeping the current generation serving.

Every candidate goes through the same gate before it can serve:

1. **Integrity** — snapshot files load through
   :func:`~repro.core.serialize.load_params`, so a truncated or
   bit-flipped archive surfaces as
   :class:`~repro.robustness.errors.SnapshotCorruptError` instead of
   garbage scores.
2. **Health** — a :class:`~repro.robustness.health.HealthMonitor`
   checks the candidate's parameter invariants (finite, row-stochastic,
   λ in the unit interval, no collapsed topics).
3. **Probes** — a configurable set of ``(user, interval)`` probe
   queries must produce finite scores end to end.

A snapshot file is opened against the generation serving now
(:meth:`~repro.core.serialize.LoadedModel.from_file`): one over the base
arrays (``φ``, ``φ′``) that generation was verified under is opened by
*delta* — only the other fields are read and checksummed, the gate scans
only them (arrays shared with the serving generation were validated when
they entered it; every probe still runs), and the new generation's
serving cache starts with what the old one derived from the shared
arrays. A refit, another variant or an older archive takes the same
calls through a full open.

Only a candidate that passes all three is published, through the
recommender's read-copy-update :meth:`~repro.recommend.recommender.TemporalRecommender.swap_model`
— one atomic generation swap, so in-flight queries finish on the old
snapshot and no query is ever dropped or served a torn mix. A failed
candidate is recorded as a rollback (the serving generation simply
stays), and :meth:`SnapshotPublisher.revert` can re-publish the
previous healthy snapshot if a bad one ever got through the gate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.params import ITCAMParameters, TTCAMParameters
from ..core.serialize import LoadedModel
from ..recommend.recommender import TemporalRecommender
from ..robustness.errors import SnapshotCorruptError
from ..robustness.health import HealthMonitor

#: Invariants every TCAM parameter container must satisfy to serve
#: (TTCAM's stochastic fields are a superset of ITCAM's; the monitor
#: skips names a candidate does not carry).
_MONITOR = HealthMonitor(
    stochastic=TTCAMParameters.STOCHASTIC,
    unit_interval=("lambda_u",),
    no_collapse=("phi",),
)


@dataclass(frozen=True, slots=True)
class PublishResult:
    """Outcome of one publication attempt.

    Attributes
    ----------
    published:
        True when the candidate is now the serving generation.
    generation:
        The serving generation index after this attempt (new on
        success, unchanged on rejection).
    reason:
        Why the candidate was rejected (``None`` on success).
    drift:
        Whether this publish was escalated by a drift boundary.
    delta:
        Whether the new generation carries the base arrays (``φ``,
        ``φ′``) of the one it replaced — only the other fields were
        read, gated and re-derived.
    """

    published: bool
    generation: int
    reason: str | None = None
    drift: bool = False
    delta: bool = False


class SnapshotPublisher:
    """Validates and hot-swaps model snapshots into a live recommender.

    Parameters
    ----------
    recommender:
        The serving recommender to publish into; its current model (if
        any) seeds the revert history.
    probes:
        ``(user, interval)`` pairs that every candidate must answer
        with finite scores before it may serve. Probes outside a
        candidate's dimensions fail it — a snapshot that lost users or
        intervals the probes rely on should not be published silently.
    monitor:
        Override the default parameter :class:`HealthMonitor`.
    """

    def __init__(
        self,
        recommender: TemporalRecommender,
        probes: Sequence[tuple[int, int]] = ((0, 0),),
        monitor: HealthMonitor | None = None,
    ) -> None:
        self.recommender = recommender
        self.probes = tuple((int(user), int(interval)) for user, interval in probes)
        self.monitor = monitor if monitor is not None else _MONITOR
        self._previous: LoadedModel | None = None

    # ------------------------------------------------------------------
    # validation gate
    # ------------------------------------------------------------------

    def _reject(self, reason: str) -> PublishResult:
        """Record a failed candidate; the serving generation stays."""
        self.recommender.note_rollback(reason)
        return PublishResult(
            published=False,
            generation=self.recommender.generation,
            reason=reason,
        )

    def _serving(self) -> LoadedModel | None:
        """The snapshot model serving now (the revert target of the next swap)."""
        model = self.recommender.model
        return model if isinstance(model, LoadedModel) else None

    def _validate(self, params: ITCAMParameters | TTCAMParameters) -> str | None:
        """Why the candidate must not serve, or ``None`` when healthy.

        Arrays the candidate shares (``is``) with the serving generation
        are not scanned again: they were validated when they entered it.
        Every probe still runs.
        """
        serving = self._serving()
        problems = self.monitor.violations(
            {
                name: array
                for name, array in params.arrays().items()
                if serving is None or array is not getattr(serving.params_, name, None)
            }
        )
        if problems:
            return "unhealthy snapshot: " + "; ".join(problems)
        for user, interval in self.probes:
            if not 0 <= user < params.num_users:
                return f"probe user {user} outside snapshot ({params.num_users} users)"
            if not 0 <= interval < params.num_intervals:
                return (
                    f"probe interval {interval} outside snapshot "
                    f"({params.num_intervals} intervals)"
                )
            scores = params.score_items(user, interval)
            if not bool(np.all(np.isfinite(scores))):
                return f"probe ({user}, {interval}) produced non-finite scores"
        return None

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------

    def publish(
        self,
        params: ITCAMParameters | TTCAMParameters,
        drift: bool = False,
        model: LoadedModel | None = None,
    ) -> PublishResult:
        """Gate and hot-swap one parameter snapshot.

        On success the candidate becomes the serving generation — an
        atomic swap, with in-flight queries finishing on the previous
        generation. On rejection the recommender records a rollback and
        keeps serving exactly what it served before. ``drift=True``
        marks the swap as a drift-boundary escalation (counted
        separately on every :class:`~repro.recommend.recommender.ServingStatus`).
        """
        problem = self._validate(params)
        if problem is not None:
            return self._reject(problem)
        if model is None:
            model = LoadedModel(params)
        return self._swap(model, drift)

    def _swap(self, model: LoadedModel, drift: bool = False) -> PublishResult:
        """Swap ``model`` in over a cache seeded from the serving generation's.

        The hand-over keeps what hangs off arrays the two generations
        share (:meth:`~repro.recommend.serving.ServingCache.successor`);
        the old generation keeps its own cache object, and its model
        becomes the revert target.
        """
        serving = self._serving()
        served = serving.params_ if serving is not None else None
        cache = self.recommender.serving_cache.successor(served, model.params_)
        generation = self.recommender.swap_model(model, cache=cache, drift=drift)
        self._previous = serving
        return PublishResult(
            published=True,
            generation=generation,
            drift=drift,
            delta=model.params_.shares_base(served),
        )

    def publish_file(self, path: str | Path, drift: bool = False) -> PublishResult:
        """Load, gate and hot-swap a snapshot file.

        A corrupt archive (torn write, checksum mismatch, invalid
        parameters) is rejected and recorded as a rollback rather than
        raised — the serving path never goes down because a publish
        failed.

        The file is opened the one way there is
        (:meth:`~repro.core.serialize.LoadedModel.from_file`), against
        the generation serving now: an archive over the same ``φ``/``φ′``
        (a fold-in snapshot) is opened by delta — only ``θ``, ``θ′`` and
        ``λ`` are read, verified and gated, and the new generation shares
        the base arrays and what the serving cache derived from them.
        Beside a fresh sidecar store the swapped-in generation serves
        from memory-mapped parameters; the health gate then still reads
        every array once (in this publisher process) and the resident win
        applies to the serving side.
        """
        try:
            model = LoadedModel.from_file(path, serving=self._serving())
        except (SnapshotCorruptError, FileNotFoundError) as exc:
            return self._reject(f"snapshot rejected: {exc}")
        return self.publish(model.params_, drift=drift, model=model)

    def revert(self) -> PublishResult:
        """Re-publish the previous healthy snapshot (counted as rollback).

        The escape hatch for a snapshot that passed the gate but
        misbehaves in production: swap the last known-good generation
        back in. Fails (without touching serving) when no previous
        snapshot exists.
        """
        if self._previous is None:
            return self._reject("no previous snapshot to revert to")
        self.recommender.note_rollback("reverted to previous snapshot")
        result = self._swap(self._previous)
        self._previous = None  # one level of history: no revert of a revert
        return result


class GenerationFile:
    """Durable record of the latest published snapshot generation.

    The cross-process serving service coordinates hot swaps over two
    channels: a control message down each worker's pipe (the fast
    notification) and this small atomically-replaced JSON file (the
    durable record). A worker that starts — or restarts — after a swap
    reads the file and comes up on the current snapshot instead of the
    one the service was launched with; an operator can inspect it to see
    what is actually serving.

    The file is written with the same write-temp-then-``os.replace``
    discipline as every snapshot in this repository, so readers never
    observe a torn record.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def write(self, generation: int, snapshot: str | Path, drift: bool = False) -> None:
        """Atomically record ``snapshot`` as generation ``generation``."""
        payload = {
            "generation": int(generation),
            "snapshot": str(snapshot),
            "drift": bool(drift),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def read(self) -> dict | None:
        """The latest record, or ``None`` when nothing was published yet.

        A missing or undecodable file is treated as "no record" — the
        generation file is a coordination aid, not a source of truth,
        and a half-provisioned run directory must not stop a worker from
        serving its launch snapshot.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(raw, dict) or "snapshot" not in raw:
            return None
        return {
            "generation": int(raw.get("generation", 0)),
            "snapshot": str(raw["snapshot"]),
            "drift": bool(raw.get("drift", False)),
        }
