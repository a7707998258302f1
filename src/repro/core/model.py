"""The one fit scaffold of the EM model family.

Section 3.2 of the paper derives a single EM procedure: ITCAM and TTCAM
share every update but the context term, and the UT/TT baselines are one
background-smoothed PLSA whose documents are users or intervals.
:class:`EMModel` owns everything about a fit that does not depend on
which of those models is being fit — argument validation, random
restarts, checkpoint metadata, resume, health monitoring and rollback,
the :func:`~repro.core.em.run_em` call — so a model file holds only what
differs: the names of its state arrays, its E-step kernel, its random
initialisation and its M-step.

(The scaffold lives here rather than in :mod:`repro.core.em` because
:mod:`repro.core.engine` imports that module.)
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from ..data.cuboid import RatingCuboid
from ..robustness.checkpoint import CheckpointManager
from ..robustness.health import HealthMonitor, rejitter_arrays
from ..typing import RNG, ArrayState, bit_deterministic
from .em import EMTrace, prepare_fit_controls, restore_state, run_em
from .engine import BlockedEStep, EMEngineConfig, EStep, _Kernel

_M = TypeVar("_M", bound="EMModel")

#: An M-step over a fixed dataset: sufficient statistics → parameter state.
MStep = Callable[[ArrayState], ArrayState]


class EMModel:
    """Base of every model fit by the blocked EM engine.

    A subclass declares its state as class attributes and implements four
    hooks; :meth:`fit` does the rest identically for all of them.

    Class attributes
    ----------------
    _model:
        Tag identifying the model in checkpoint metadata (``"ttcam"``).
    _stochastic:
        Names of the row-stochastic state arrays, in initialisation order.
    _unit_interval:
        Names of the state arrays bounded to ``[0, 1]``. The state of a
        model is ``_stochastic + _unit_interval``, in that order.
    _no_collapse:
        Names of the arrays whose topic columns must keep mass.

    Hooks
    -----
    ``_kernel(cuboid)``
        The E-step kernel over the (prepared) cuboid.
    ``_init_state(rng, shape)``
        A random initial state for a cuboid of dense shape ``(N, T, V)``.
    ``_m_step(cuboid)``
        The M-step: a function from the E-step's statistics to the next
        state. Built once per fit so per-dataset constants are hoisted.
    ``_store(state, cuboid)``
        Publish the winning state on the model's fitted attributes.
    ``_hyper()``
        The model's own hyper-parameters, recorded in checkpoints.
    ``_prepare(cuboid)``
        Optional: transform the cuboid before anything else sees it.

    Parameters
    ----------
    max_iter, tol, smoothing, seed:
        EM controls: iteration cap, relative-improvement convergence
        threshold, M-step pseudo-count and initialisation seed.
    engine:
        :class:`~repro.core.engine.EMEngineConfig` of the blocked E-step.
    n_init:
        Random restarts; the best final training log-likelihood wins.
    """

    _model: str
    _stochastic: tuple[str, ...]
    _unit_interval: tuple[str, ...] = ()
    _no_collapse: tuple[str, ...]

    def __init__(
        self,
        max_iter: int,
        tol: float,
        smoothing: float,
        seed: int,
        engine: EMEngineConfig,
        n_init: int = 1,
    ) -> None:
        if max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {max_iter}")
        if smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        if n_init <= 0:
            raise ValueError(f"n_init must be positive, got {n_init}")
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.seed = seed
        self.engine = engine
        self.n_init = n_init
        self.trace_: EMTrace | None = None

    # ------------------------------------------------------------------
    # what a model declares
    # ------------------------------------------------------------------

    def _kernel(self, cuboid: RatingCuboid) -> _Kernel:
        raise NotImplementedError

    def _init_state(self, rng: RNG, shape: tuple[int, int, int]) -> ArrayState:
        raise NotImplementedError

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        raise NotImplementedError

    def _store(self, state: ArrayState, cuboid: RatingCuboid) -> None:
        raise NotImplementedError

    def _hyper(self) -> dict[str, object]:
        raise NotImplementedError

    def _prepare(self, cuboid: RatingCuboid) -> RatingCuboid:
        return cuboid

    # ------------------------------------------------------------------
    # what the scaffold owns
    # ------------------------------------------------------------------

    def _build_estep(self, cuboid: RatingCuboid) -> tuple[EStep, dict[str, object]]:
        """The E-step over ``cuboid`` plus the summation grid it fixed.

        The grid joins the checkpoint metadata, so a resume under a
        different grid (which could not be bit-identical) is refused.
        Subclasses override this to run the same kernel on another
        substrate.
        """
        estep = BlockedEStep(self._kernel(cuboid), self.engine)
        return estep.compute, estep.grid

    def default_monitor(self) -> HealthMonitor:
        """The numerical-health invariants of this model's state."""
        return HealthMonitor(
            stochastic=self._stochastic,
            unit_interval=self._unit_interval,
            no_collapse=self._no_collapse,
        )

    def _rejitter(self, state: ArrayState, recovery: int) -> ArrayState:
        """Seeded perturbation applied to a rolled-back state."""
        return rejitter_arrays(
            state,
            self._stochastic,
            self._unit_interval,
            seed=self.seed + 7919 * recovery,
        )

    @bit_deterministic
    def fit(
        self: _M,
        cuboid: RatingCuboid,
        checkpoint: CheckpointManager | str | None = None,
        resume_from: CheckpointManager | str | None = None,
        monitor: HealthMonitor | bool | None = None,
    ) -> _M:
        """Fit the model to a rating cuboid by EM.

        With ``n_init > 1``, runs that many random restarts and keeps the
        one with the best final training log-likelihood.

        ``checkpoint`` (a :class:`~repro.robustness.CheckpointManager` or
        directory) enables periodic atomic parameter checkpoints;
        ``resume_from`` continues an interrupted run bit-compatibly from
        the directory's latest checkpoint; ``monitor`` (``True`` or a
        :class:`~repro.robustness.HealthMonitor`) validates numerical
        invariants each iteration and rolls back to the last good
        checkpoint on violation. Checkpointing requires ``n_init == 1``.

        A checkpoint records everything the trajectory depends on — the
        model tag, seed, smoothing, the model's hyper-parameters, the
        summation grid, and the shape and entry count of the cuboid
        actually trained on — and a resume under any other value raises
        :class:`~repro.robustness.errors.CheckpointError`.
        """
        if cuboid.nnz == 0:
            raise ValueError("cannot fit on an empty cuboid")
        if (checkpoint is not None or resume_from is not None) and self.n_init != 1:
            raise ValueError("checkpoint/resume require n_init == 1")
        cuboid = self._prepare(cuboid)

        compute, grid = self._build_estep(cuboid)
        meta = (
            {"model": self._model, "seed": self.seed, "smoothing": self.smoothing}
            | self._hyper()
            | grid
            | {"shape": [int(size) for size in cuboid.shape], "nnz": cuboid.nnz}
        )
        manager, restored, health = prepare_fit_controls(
            checkpoint, resume_from, monitor, self.default_monitor, meta
        )
        m_step = self._m_step(cuboid)

        def step(current: ArrayState) -> tuple[ArrayState, float]:
            """One EM iteration: the E-step's statistics, then the M-step."""
            stats, log_likelihood = compute(current)
            return m_step(stats), log_likelihood

        best: tuple[ArrayState, EMTrace] | None = None
        for restart in range(self.n_init):
            if restored is not None:
                state, start, trace = restore_state(
                    restored, self._stochastic + self._unit_interval
                )
            else:
                rng = np.random.default_rng(self.seed + restart)
                state, start, trace = self._init_state(rng, cuboid.shape), 0, EMTrace()
            state, trace = run_em(
                state,
                step,
                max_iter=self.max_iter,
                tol=self.tol,
                trace=trace,
                start_iteration=start,
                checkpoints=manager,
                monitor=health,
                rejitter=self._rejitter,
            )
            if best is None or trace.final_log_likelihood > best[1].final_log_likelihood:
                best = (state, trace)
        assert best is not None  # n_init >= 1 guarantees at least one run
        self._store(best[0], cuboid)
        self.trace_ = best[1]
        return self
