"""Incremental fold-in of durable stream events into a fitted TTCAM.

The :class:`StreamIngestor` is the consumer side of the streaming
pipeline: it reads acknowledged events from an :class:`~repro.streaming.wal.EventLog`
in fixed-size micro-batches and folds them into a fitted model without a
full refit. A micro-batch is four event columns and at most three passes
of :func:`~repro.extensions.online.fold_in` — each one batched partial-EM
fit over the batch's compacted cuboid, ``φ``/``φ′`` held:

* **New intervals and users** get prior rows first (uniform context;
  uniform interests and ``λ=0.5``), so every event is in range and gap
  ids keep the prior; one pass over the new users' events then folds
  in their ``θ``/``λ``.
* **Context updates**: one pass over all of the batch's events estimates
  every touched interval's context; a
  :class:`~repro.streaming.drift.DriftTracker` compares each estimate,
  in ascending interval order, with the interval's tracked vector
  (unit-norm cosine). Within the threshold, the published context takes
  a small *blend* step toward the estimate; below it — a temporal
  boundary — the ingestor escalates to a **partial refit** (one longer
  pass from the prior over the boundary intervals' events, re-anchoring
  their contexts outright) and checkpoints immediately.

Every micro-batch application is a pure function of ``(model state,
events)``: no clocks, no randomness, fixed iteration order. Combined
with the durable consumer ``offset`` stored inside each checkpoint,
killing the ingestor at *any* point and resuming from the latest
checkpoint replays the exact same micro-batches and reproduces
bit-identical parameters — no event is ever double-applied or dropped.
A checkpoint is an *overlay*: it holds only what folding mutates
(``θ``, ``λ``, ``θ′``, drift state, offset, counters) plus a digest of
the ``φ``/``φ′`` it was folded against, so its cost does not grow with
the catalogue; resume re-attaches ``φ``/``φ′`` from the ``base`` it is
given and refuses a ``base`` whose digest differs.
Items beyond the fitted catalogue cannot be folded (φ has no column for
them); such events are counted, warned about once per batch and skipped
deterministically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ..core.params import TTCAMParameters
from ..extensions.online import fold_in
from ..robustness.checkpoint import CheckpointManager
from ..typing import bit_deterministic
from ..robustness.errors import CheckpointError
from ..robustness.faults import fault_point
from .drift import DriftTracker
from .wal import EventLog, StreamEvent

#: Checkpoint keys for the drift tracker's state arrays.
_DRIFT_VECTORS = "drift_vectors"
_DRIFT_VALID = "drift_valid"
#: The parameter fields folding mutates — what a checkpoint stores. The
#: ones it holds fixed are the container's ``BASE_FIELDS``; a checkpoint
#: stores their digest, the one a snapshot of the same base carries.
_FOLDED = TTCAMParameters.delta_fields()


@dataclass(frozen=True, slots=True)
class IngestReport:
    """Outcome of one :meth:`StreamIngestor.run` call.

    Attributes
    ----------
    batches:
        Micro-batches applied by this call.
    applied:
        Events folded into the model by this call.
    skipped:
        Events dropped because their item id is outside the fitted
        catalogue.
    boundaries:
        Drift boundaries detected (each escalated to a partial refit).
    checkpoints:
        Durable checkpoints written.
    offset:
        The consumer offset after this call (next event to consume).
    """

    batches: int
    applied: int
    skipped: int
    boundaries: int
    checkpoints: int
    offset: int


class StreamIngestor:
    """Folds event-log micro-batches into a fitted TTCAM, crash-safely.

    Parameters
    ----------
    log:
        The durable event log to consume.
    base:
        Fitted :class:`~repro.core.params.TTCAMParameters` to start from.
    checkpoint_dir:
        Directory for consumer checkpoints (folded parameters + drift
        state + offset). Sharing it across restarts is what makes resume
        work.
    batch_events:
        Events per micro-batch (the sliding consumption interval).
    fold_iterations:
        Partial-EM iterations per fold-in.
    refit_iterations:
        Iterations for the escalated partial refit at a drift boundary.
    drift_rate, drift_threshold:
        :class:`~repro.streaming.drift.DriftTracker` parameters.
    blend:
        Step size of a non-boundary context update; the published row
        becomes ``(1-blend)·old + blend·estimate`` (both are
        distributions, so the blend stays on the simplex).
    checkpoint_every:
        Checkpoint cadence in micro-batches (boundaries checkpoint
        immediately regardless).
    resume:
        When true (default), restore the newest valid checkpoint in
        ``checkpoint_dir`` — folded parameters, drift state and offset,
        over ``base``'s ``φ``/``φ′`` — and continue from there. A
        checkpoint written under a different configuration, folded
        against other ``φ``/``φ′`` than ``base`` holds, or ahead of the
        log raises :class:`~repro.robustness.errors.CheckpointError`.
        When false, the stream checkpoints already in ``checkpoint_dir``
        are deleted: the run starts over and owns the directory.
    """

    def __init__(
        self,
        log: EventLog,
        base: TTCAMParameters,
        checkpoint_dir: str | Path,
        batch_events: int = 256,
        fold_iterations: int = 10,
        refit_iterations: int = 30,
        drift_rate: float = 0.2,
        drift_threshold: float = 0.85,
        blend: float = 0.3,
        checkpoint_every: int = 4,
        resume: bool = True,
    ) -> None:
        for name, value in (
            ("batch_events", batch_events),
            ("fold_iterations", fold_iterations),
            ("refit_iterations", refit_iterations),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < blend <= 1.0:
            raise ValueError(f"blend must be in (0, 1], got {blend}")
        self.log = log
        self.batch_events = batch_events
        self.fold_iterations = fold_iterations
        self.refit_iterations = refit_iterations
        self.blend = blend
        self._params = base
        self.tracker = DriftTracker(
            dim=base.num_time_topics,
            drift_rate=drift_rate,
            threshold=drift_threshold,
        )
        self.tracker.ensure_intervals(base.num_intervals)
        self.offset = 0
        self.batches = 0
        self.applied = 0
        self.skipped = 0
        self.boundaries = 0
        self.refits = 0
        #: ``batches`` as of the newest durable checkpoint.
        self.checkpointed_batches = 0
        self.manager = CheckpointManager(
            checkpoint_dir, every=checkpoint_every, keep=3, prefix="stream"
        )
        # A checksummed load already hashed φ/φ′; only a directly built
        # container is hashed here.
        self._base_digest = base.base_digest or base.digest_base(base.arrays())
        if resume:
            self._try_resume()
        else:
            self.manager.clear()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def params(self) -> TTCAMParameters:
        """The current folded parameters (a fresh container per batch)."""
        return self._params

    def _config(self) -> dict[str, object]:
        """The knobs a checkpoint must match to be resumable."""
        return {
            "kind": "stream-ingestor",
            "k1": self.params.num_user_topics,
            "k2": self.params.num_time_topics,
            "num_items": self.params.num_items,
            "batch_events": self.batch_events,
            "fold_iterations": self.fold_iterations,
            "refit_iterations": self.refit_iterations,
            "drift_rate": self.tracker.drift_rate,
            "drift_threshold": self.tracker.threshold,
            "blend": self.blend,
        }

    def checkpoint(self) -> Path:
        """Durably persist folded parameters, drift state and consumer offset."""
        fault_point("stream.checkpoint", offset=self.offset, batch=self.batches)
        arrays = {name: getattr(self.params, name) for name in _FOLDED} | {
            _DRIFT_VECTORS: self.tracker.vectors,
            _DRIFT_VALID: self.tracker.valid,
        }
        self.manager.meta = {
            "config": self._config(),
            "base_digest": self._base_digest,
            "offset": self.offset,
            "counters": {
                "batches": self.batches,
                "applied": self.applied,
                "skipped": self.skipped,
                "boundaries": self.boundaries,
                "refits": self.refits,
                "tracker_updates": self.tracker.updates,
                "tracker_boundaries": self.tracker.boundaries,
            },
        }
        path = self.manager.save(arrays, iteration=self.batches)
        self.checkpointed_batches = self.batches
        return path

    @bit_deterministic
    def _try_resume(self) -> None:
        """Restore the newest valid checkpoint, if one exists."""
        checkpoint = self.manager.latest()
        if checkpoint is None:
            return
        meta = checkpoint.meta
        stored = meta.get("config")
        if stored != self._config():
            raise CheckpointError(
                "stream checkpoint was written under a different configuration "
                f"(stored {stored!r})"
            )
        # A checkpoint from before overlays carries φ/φ′ itself instead
        # of their digest; they are held to the same check, then dropped.
        digest = meta.get("base_digest") or TTCAMParameters.digest_base(
            checkpoint.arrays
        )
        if digest != self._base_digest:
            raise CheckpointError(
                f"stream checkpoint {checkpoint.path} was folded against other "
                "phi/phi_time than this base snapshot holds (a refit?); resume "
                "with the snapshot it was written under or start a new "
                "checkpoint directory"
            )
        offset = int(meta.get("offset", 0))  # type: ignore[arg-type]
        if offset > self.log.next_offset:
            raise CheckpointError(
                f"stream checkpoint {checkpoint.path} is at offset {offset}, past "
                f"the log's {self.log.next_offset} durable events: it belongs to "
                "another log"
            )
        self._params = self.params.with_fields(
            **{
                name: np.asarray(checkpoint.arrays[name], dtype=np.float64)
                for name in _FOLDED
            }
        )
        counters = meta.get("counters")
        counters = counters if isinstance(counters, Mapping) else {}
        self.tracker.restore(
            checkpoint.arrays[_DRIFT_VECTORS],
            checkpoint.arrays[_DRIFT_VALID],
            boundaries=int(counters.get("tracker_boundaries", 0)),  # type: ignore[arg-type]
            updates=int(counters.get("tracker_updates", 0)),  # type: ignore[arg-type]
        )
        self.offset = offset
        self.batches = int(counters.get("batches", 0))  # type: ignore[arg-type]
        self.applied = int(counters.get("applied", 0))  # type: ignore[arg-type]
        self.skipped = int(counters.get("skipped", 0))  # type: ignore[arg-type]
        self.boundaries = int(counters.get("boundaries", 0))  # type: ignore[arg-type]
        self.refits = int(counters.get("refits", 0))  # type: ignore[arg-type]
        self.checkpointed_batches = self.batches

    # ------------------------------------------------------------------
    # micro-batch application
    # ------------------------------------------------------------------

    def _apply_batch(self, events: list[StreamEvent]) -> bool:
        """Fold one micro-batch into the model; True if a boundary hit.

        Deterministic application order — prior rows for new intervals
        and users, a pass freeing the new users, a pass freeing every
        touched interval (its estimates fed to the tracker in ascending
        interval order), a refit pass freeing the boundary intervals — so
        replaying the same events over the same state reproduces
        identical bits.
        """
        params = self.params
        users, intervals, items = np.array(
            [(event.user, event.interval, event.item) for event in events], dtype=np.int64
        ).T
        usable = items < params.num_items
        dropped = len(events) - int(np.count_nonzero(usable))
        if dropped:
            self.skipped += dropped
            warnings.warn(
                f"stream batch skipped {dropped} event(s) whose items are "
                f"outside the fitted catalogue (< {params.num_items}); folding "
                "cannot invent topic–item columns — retrain to admit them",
                UserWarning,
                stacklevel=3,
            )
        if dropped == len(events):
            return False
        scores = np.array([event.score for event in events], dtype=np.float64)
        chunk = [column[usable] for column in (users, intervals, items, scores)]
        users, intervals = chunk[0], chunk[1]
        k1, k2 = params.num_user_topics, params.num_time_topics
        new_intervals = max(int(intervals.max()) + 1 - params.num_intervals, 0)
        # The batch's one copy of θ′, with prior rows for new intervals.
        theta_time = np.vstack([params.theta_time, np.full((new_intervals, k2), 1.0 / k2)])
        self.tracker.ensure_intervals(len(theta_time))
        fields = params.arrays() | {"theta_time": theta_time}
        new_users = users >= params.num_users
        if new_users.any():
            extra = int(users.max()) + 1 - params.num_users
            fields["theta"] = np.vstack([params.theta, np.full((extra, k1), 1.0 / k1)])
            fields["lambda_u"] = np.append(params.lambda_u, np.full(extra, 0.5))
            ids, rows = fold_in(
                fields, "theta", self.fold_iterations, *(column[new_users] for column in chunk)
            )
            fields["theta"][ids] = rows["theta"]
            fields["lambda_u"][ids] = rows["lambda_u"]
        ids, rows = fold_in(fields, "theta_time", self.fold_iterations, *chunk)
        estimates = rows["theta_time"]
        boundary = np.array(
            [self.tracker.update(int(t), row).boundary for t, row in zip(ids, estimates)]
        )
        theta_time[ids] = (1.0 - self.blend) * theta_time[ids] + self.blend * estimates
        if boundary.any():
            # Temporal boundary: the context jumped. Re-anchor those
            # intervals with a longer partial refit instead of a blend.
            refit = np.isin(intervals, ids[boundary])
            ids, rows = fold_in(
                fields, "theta_time", self.refit_iterations, *(column[refit] for column in chunk)
            )
            theta_time[ids] = rows["theta_time"]
        self.boundaries += int(boundary.sum())
        self.refits += int(boundary.sum())
        self._params = params.with_fields(**{name: fields[name] for name in _FOLDED})
        self.applied += len(users)
        return bool(boundary.any())

    # ------------------------------------------------------------------
    # consumption loop
    # ------------------------------------------------------------------

    @bit_deterministic
    def run(self, max_batches: int | None = None) -> IngestReport:
        """Consume durable events from the current offset, in micro-batches.

        Processes complete and partial batches until the log is drained
        (or ``max_batches`` is reached), checkpointing on the configured
        cadence and immediately after any drift boundary. Returns a
        report of what this call did.
        """
        start = (self.batches, self.applied, self.skipped, self.boundaries)
        checkpoints = 0
        while max_batches is None or self.batches - start[0] < max_batches:
            events = self.log.read(self.offset, self.batch_events)
            if not events:
                break
            fault_point("stream.batch", offset=self.offset, batch=self.batches)
            boundary = self._apply_batch(events)
            self.offset += len(events)
            self.batches += 1
            if boundary or self.manager.should_save(self.batches):
                self.checkpoint()
                checkpoints += 1
        return IngestReport(
            batches=self.batches - start[0],
            applied=self.applied - start[1],
            skipped=self.skipped - start[2],
            boundaries=self.boundaries - start[3],
            checkpoints=checkpoints,
            offset=self.offset,
        )
