"""Shared EM machinery: scatter sums (the one-shot flat ``bincount`` and
the plan-once CSR reduce), normalisation, convergence tracking, and the
fault-tolerant iteration driver.

Both TCAM variants (and the UT/TT baselines) are latent-class mixture
models fit by expectation–maximisation over the sparse rating cuboid. The
helpers here keep the per-model code focused on the model equations, while
:func:`run_em` owns the loop itself — convergence, periodic checkpoints,
numerical-health rollback and fault-injection points — identically for
every model. :meth:`repro.core.model.EMModel.fit` is the one place that
wires :func:`prepare_fit_controls`, :func:`restore_state` and
:func:`run_em` into a fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from ..robustness.checkpoint import Checkpoint, CheckpointManager
from ..robustness.errors import HealthViolation
from ..robustness.faults import fault_point, maybe_poison
from ..robustness.health import HealthMonitor
from ..typing import AnyArray, ArrayState, FloatArray, IntArray, bit_deterministic

EPS = 1e-12


def safe_log(values: AnyArray, eps: float = EPS) -> AnyArray:
    """``log(values + eps)`` — the blessed guarded logarithm.

    Lint rule TCAM002 bans raw ``np.log`` on probability arrays; use this
    helper (or an explicit ``EPS`` term) so zero-probability cells degrade
    to a large negative log instead of ``-inf``.
    """
    return np.log(values + eps)


def safe_divide(
    numerator: AnyArray, denominator: AnyArray | float, eps: float = EPS
) -> AnyArray:
    """``numerator / (denominator + eps)`` — the blessed guarded division.

    The TCAM002 counterpart of :func:`safe_log` for responsibility
    normalisation: a zero denominator yields zero mass, not NaN.
    """
    return np.divide(numerator, denominator + eps)


def _check_scatter_rows(rows: IntArray, num_rows: int) -> None:
    """Raise a ``ValueError`` naming the first row index outside ``[0, num_rows)``."""
    if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
        bad = rows[(rows < 0) | (rows >= num_rows)][0]
        raise ValueError(
            f"scatter row index {int(bad)} is out of range for num_rows={num_rows}"
        )


class ScatterPlan:
    """Plan-once, multiply-many scatter-add over one *fixed* index array.

    A caller that reduces through the same ``rows`` many times (the
    blocked EM engine scatters every block's index arrays once per
    iteration, and they never change during a fit) pays for the index
    work once: construction stably argsorts ``rows`` into the
    ``(num_rows, R)`` CSR indicator matrix ``S`` with
    ``S[i, r] = 1 ⇔ rows[r] == i``, and :meth:`sum` is then the sparse
    product ``S @ values`` — no flat index, no ``num_rows · K``-bin count.

    The stable order makes each bin add its rows in ascending row index,
    starting from ``0.0`` — the order of the flat ``bincount`` in
    :func:`scatter_sum` — so the two are bit-identical, not merely close.
    The plan is immutable after construction (its arrays are read-only),
    so any number of threads may share one.
    """

    def __init__(self, rows: IntArray, num_rows: int) -> None:
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ValueError(f"rows must be one-dimensional, got shape {rows.shape}")
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        _check_scatter_rows(rows, num_rows)
        self.size = int(rows.shape[0])
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
        order = np.argsort(rows, kind="stable")
        self._indicator = csr_matrix(
            (np.ones(self.size), order, indptr), shape=(num_rows, self.size)
        )
        for array in (self._indicator.data, self._indicator.indices, self._indicator.indptr):
            array.flags.writeable = False

    def sum(self, values: FloatArray, out: FloatArray | None = None) -> FloatArray:
        """Sum the ``(R, K)`` ``values`` rows into the plan's ``num_rows`` bins.

        Returns the ``(num_rows, K)`` result, or accumulates it into
        ``out`` (``out += ...``) and returns ``out`` — exactly
        :func:`scatter_sum` with the plan's ``rows``.
        """
        if values.ndim != 2 or values.shape[0] != self.size:
            raise ValueError(
                f"values shape {values.shape} incompatible with a plan over {self.size} rows"
            )
        result: FloatArray = self._indicator @ values
        if out is None:
            return result
        if out.shape != result.shape:
            raise ValueError(f"out shape {out.shape} incompatible with {result.shape}")
        out += result
        return out


def scatter_sum(
    rows: IntArray,
    values: FloatArray,
    num_rows: int,
    out: FloatArray | None = None,
) -> FloatArray:
    """Row-indexed scatter-add: sum ``values`` rows into ``num_rows`` bins.

    ``rows`` is ``(R,)`` int; ``values`` is ``(R, K)``. Returns the
    ``(num_rows, K)`` matrix whose row ``i`` is the sum of all ``values``
    rows with ``rows == i``. Implemented with a single flat ``bincount``,
    which is far faster than ``np.add.at`` for large ``R``. This is the
    one-shot path, for an index set that is used once; a caller that
    scatters through the same ``rows`` repeatedly builds a
    :class:`ScatterPlan` instead.

    ``out`` accumulates the result into a caller-provided ``(num_rows, K)``
    array (``out += ...``) and returns it, so a caller can fold many
    partial scatters into one statistics buffer.
    """
    values = np.atleast_2d(values)
    r, k = values.shape
    if rows.shape != (r,):
        raise ValueError(f"rows shape {rows.shape} incompatible with values {values.shape}")
    _check_scatter_rows(rows, num_rows)
    flat_index = (rows[:, None] * k + np.arange(k, dtype=np.int64)).ravel()
    flat = np.bincount(flat_index, weights=values.ravel(), minlength=num_rows * k)
    result = flat.reshape(num_rows, k)
    if out is None:
        return result
    if out.shape != (num_rows, k):
        raise ValueError(
            f"out shape {out.shape} incompatible with ({num_rows}, {k})"
        )
    out += result
    return out


def scatter_sum_1d(
    rows: IntArray,
    values: FloatArray,
    num_rows: int,
    out: FloatArray | None = None,
) -> FloatArray:
    """Scalar scatter-add: ``(R,)`` values summed into ``num_rows`` bins.

    As in :func:`scatter_sum`, ``out`` accumulates into a caller-provided
    ``(num_rows,)`` array instead of allocating a fresh result.
    """
    result = np.bincount(rows, weights=values, minlength=num_rows)
    if out is None:
        return result
    if out.shape != (num_rows,):
        raise ValueError(f"out shape {out.shape} incompatible with ({num_rows},)")
    out += result
    return out


def normalize_rows(matrix: FloatArray, smoothing: float = 0.0) -> FloatArray:
    """Return a row-stochastic copy of ``matrix``.

    ``smoothing`` is added to every cell first (pseudo-count smoothing), so
    rows that received no mass become uniform rather than NaN.
    """
    smoothed = matrix + smoothing
    totals = smoothed.sum(axis=1, keepdims=True)
    zero_rows = totals[:, 0] <= EPS
    if zero_rows.any():
        smoothed[zero_rows] = 1.0
        totals = smoothed.sum(axis=1, keepdims=True)
    return smoothed / totals


def random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> FloatArray:
    """Random row-stochastic matrix for EM initialisation.

    Uses ``0.5 + U(0,1)`` before normalising so no cell starts near zero
    (near-zero initial probabilities stall EM).
    """
    matrix = 0.5 + rng.random((rows, cols))
    return matrix / matrix.sum(axis=1, keepdims=True)


@dataclass
class EMTrace:
    """Log-likelihood trace and convergence verdict of one EM run."""

    log_likelihood: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        """Number of completed EM iterations."""
        return len(self.log_likelihood)

    @property
    def final_log_likelihood(self) -> float:
        """Log likelihood after the last iteration."""
        if not self.log_likelihood:
            raise ValueError("no EM iterations recorded")
        return self.log_likelihood[-1]

    def record(self, value: float, tol: float) -> bool:
        """Record one iteration's log likelihood; return True on convergence.

        Convergence is declared when the relative improvement over the
        previous iteration drops below ``tol``.
        """
        if not np.isfinite(value):
            raise FloatingPointError(
                f"log likelihood became non-finite: {value}"
            )
        previous = self.log_likelihood[-1] if self.log_likelihood else None
        self.log_likelihood.append(float(value))
        if previous is None:
            return False
        denom = max(abs(previous), EPS)
        if (value - previous) / denom < tol:
            self.converged = True
        return self.converged

    def is_monotone(self, slack: float = 1e-8) -> bool:
        """EM guarantees non-decreasing likelihood; verify it (with float slack)."""
        ll = self.log_likelihood
        return all(
            ll[i + 1] >= ll[i] - slack * max(abs(ll[i]), 1.0)
            for i in range(len(ll) - 1)
        )


EMStep = Callable[[ArrayState], tuple[ArrayState, float]]


def _copy_state(state: ArrayState) -> ArrayState:
    """Deep-copy one EM state (rollback must not alias live arrays)."""
    return {name: np.array(value, copy=True) for name, value in state.items()}


@bit_deterministic
def run_em(
    state: ArrayState,
    step: EMStep,
    max_iter: int,
    tol: float,
    trace: EMTrace | None = None,
    start_iteration: int = 0,
    checkpoints: CheckpointManager | None = None,
    monitor: HealthMonitor | None = None,
    rejitter: Callable[[ArrayState, int], ArrayState] | None = None,
    max_recoveries: int = 3,
) -> tuple[ArrayState, EMTrace]:
    """Drive one EM run to convergence, fault-tolerantly.

    Parameters
    ----------
    state:
        Named parameter arrays at ``start_iteration`` (the random
        initialisation, or a restored checkpoint).
    step:
        One full EM iteration: maps the current state to
        ``(updated_state, log_likelihood)`` where the likelihood is
        evaluated on the *current* state (standard E-then-M ordering).
        Must be a pure function of the state for resume/retry
        determinism.
    max_iter, tol:
        Iteration cap and relative-improvement convergence threshold.
    trace:
        Existing :class:`EMTrace` to continue (resume); a fresh one by
        default.
    start_iteration:
        Completed-iteration count represented by ``state``.
    checkpoints:
        Optional :class:`~repro.robustness.CheckpointManager`; the state
        is saved on the manager's cadence and on health rollback the last
        good checkpoint is restored.
    monitor:
        Optional :class:`~repro.robustness.HealthMonitor` validating the
        updated state every iteration.
    rejitter:
        ``(state, recovery_index) -> state`` applied after a rollback so
        the replayed trajectory can diverge from the one that failed.
    max_recoveries:
        Health rollbacks allowed before the violation propagates.

    Returns the final state and the trace. Convergence keeps the state
    the likelihood was evaluated on, matching the textbook loop.
    """
    trace = trace if trace is not None else EMTrace()
    initial = _copy_state(state)
    initial_trace = list(trace.log_likelihood)
    iteration = start_iteration
    recoveries = 0
    just_rolled_back = False
    while iteration < max_iter:
        fault_point("em.iteration", iteration=iteration)
        new_state, log_likelihood = step(state)
        new_state = maybe_poison("em.state", new_state, iteration=iteration)
        if monitor is not None:
            # The rejitter perturbs a restored state on purpose, so the
            # first post-rollback likelihood may dip below the trace.
            previous = (
                None
                if just_rolled_back or not trace.log_likelihood
                else trace.log_likelihood[-1]
            )
            try:
                monitor.check(new_state, log_likelihood, previous)
                just_rolled_back = False
            except HealthViolation:
                recoveries += 1
                if recoveries > max_recoveries:
                    raise
                restored = checkpoints.latest() if checkpoints is not None else None
                if restored is not None:
                    state = _copy_state(restored.arrays)
                    trace = EMTrace(log_likelihood=list(restored.log_likelihood))
                    iteration = restored.iteration
                else:
                    state = _copy_state(initial)
                    trace = EMTrace(log_likelihood=list(initial_trace))
                    iteration = start_iteration
                if rejitter is not None:
                    state = rejitter(state, recoveries)
                just_rolled_back = True
                continue
        if trace.record(log_likelihood, tol):
            break
        state = new_state
        iteration += 1
        if checkpoints is not None and checkpoints.should_save(iteration):
            checkpoints.save(state, iteration, trace.log_likelihood)
    return state, trace


def prepare_fit_controls(
    checkpoint: CheckpointManager | str | None,
    resume_from: CheckpointManager | str | None,
    monitor: HealthMonitor | bool | None,
    default_monitor: Callable[[], HealthMonitor],
    meta: dict[str, object],
) -> tuple[CheckpointManager | None, Checkpoint | None, HealthMonitor | None]:
    """Normalise a model's ``fit(...)`` fault-tolerance arguments.

    ``checkpoint`` and ``resume_from`` each accept a
    :class:`~repro.robustness.CheckpointManager` or a directory path;
    ``resume_from`` additionally loads the directory's latest verified
    checkpoint and validates its metadata against ``meta`` (the model's
    identifying hyper-parameters), so resuming with a different
    configuration fails loudly instead of silently mixing runs.
    ``monitor`` accepts ``True`` (build the model's default
    :class:`~repro.robustness.HealthMonitor`), an explicit monitor, or
    ``None``/``False``.

    Returns ``(manager, restored_checkpoint, monitor)``; the manager is
    ``None`` when neither argument was given, and the restored checkpoint
    is ``None`` for fresh fits (including resumes from an empty
    directory).
    """
    from ..robustness.errors import CheckpointError

    def as_manager(
        source: CheckpointManager | str | None,
    ) -> CheckpointManager | None:
        if source is None or isinstance(source, CheckpointManager):
            return source
        return CheckpointManager(source)

    save_to = as_manager(checkpoint)
    resume = as_manager(resume_from)
    manager = save_to if save_to is not None else resume
    restored = resume.latest() if resume is not None else None
    if restored is not None and restored.meta:
        mismatched = {
            key: (restored.meta[key], meta[key])
            for key in meta
            if key in restored.meta and restored.meta[key] != meta[key]
        }
        if mismatched:
            raise CheckpointError(
                f"checkpoint {restored.path} was written by a different "
                f"configuration: {mismatched}"
            )
    if manager is not None:
        manager.meta = dict(meta)
    if monitor is True:
        health = default_monitor()
    elif isinstance(monitor, HealthMonitor):
        health = monitor
    else:
        health = None
    return manager, restored, health


def restore_state(
    restored: Checkpoint, keys: tuple[str, ...]
) -> tuple[ArrayState, int, EMTrace]:
    """Turn a loaded checkpoint back into ``(state, iteration, trace)``.

    Validates that the checkpoint carries exactly the arrays the model
    expects (``keys``), preserving the model's canonical ordering.
    """
    from ..robustness.errors import CheckpointError

    missing = [key for key in keys if key not in restored.arrays]
    if missing:
        raise CheckpointError(
            f"checkpoint {restored.path} is missing arrays {missing}"
        )
    state = {key: np.array(restored.arrays[key], copy=True) for key in keys}
    trace = EMTrace(log_likelihood=list(restored.log_likelihood))
    return state, restored.iteration, trace
