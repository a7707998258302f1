"""Topic-based TCAM (TTCAM) — Section 3.2.2 of the paper.

TTCAM refines ITCAM by modelling the temporal context of each interval as
a multinomial over ``K2`` shared *time-oriented topics* ``φ′_x`` instead
of over raw items: ``P(v | θ′_t) = Σ_x P(v | φ′_x) · P(x | θ′_t)``
(Equation 12). Time-oriented topics are therefore interpretable clusters
of co-bursting items shared across intervals, which the paper shows both
improves recommendation accuracy and produces cleaner event topics.

EM updates follow Equations (13)–(16) for the temporal side and
Equations (4)–(11) for the shared machinery. ``weighted=True`` trains on
the item-weighted cuboid (Section 3.3) giving **W-TTCAM**, the paper's
best model.
"""

from __future__ import annotations

import numpy as np

from ..data.cuboid import RatingCuboid
from ..robustness.checkpoint import Checkpoint, CheckpointManager
from ..robustness.health import HealthMonitor, rejitter_arrays
from ..typing import ArrayState, FloatArray
from .engine import BlockedEStep, EMEngineConfig, EStep, TTCAMKernel
from .em import (
    EPS,
    EMTrace,
    normalize_rows,
    prepare_fit_controls,
    random_stochastic,
    restore_state,
    run_em,
    scatter_sum_1d,
)
from .params import TTCAMParameters
from .weighting import apply_item_weighting

_STATE_KEYS = ("theta", "phi", "theta_time", "phi_time", "lambda_u")
_STOCHASTIC = ("theta", "phi", "theta_time", "phi_time")


class TTCAM:
    """Topic-based temporal context-aware mixture model.

    Parameters
    ----------
    num_user_topics:
        ``K1``, the number of user-oriented topics (paper default 60).
    num_time_topics:
        ``K2``, the number of time-oriented topics (paper default 40).
    max_iter, tol, smoothing, seed:
        EM controls, as in :class:`~repro.core.itcam.ITCAM`.
    weighted:
        Train on the item-weighted cuboid (W-TTCAM).
    personalized_lambda:
        Fit one mixing weight per user (the paper's choice). ``False``
        fits a single global λ shared by all users — the ablation the
        paper's "personalized treatment" remark motivates.
    n_init:
        Number of random EM restarts; the fit with the best final
        training log-likelihood wins. EM is fast enough that a few
        restarts are usually worth the variance reduction.
    engine:
        :class:`~repro.core.engine.EMEngineConfig` of the blocked E-step
        (block size, worker threads, runtime sanitizer). Results are
        bit-deterministic for a fixed configuration and agree to
        ``allclose(atol=1e-12)`` across configurations (see
        :mod:`repro.core.engine`).

    Attributes (after :meth:`fit`)
    ------------------------------
    params_:
        Fitted :class:`~repro.core.params.TTCAMParameters`.
    trace_:
        :class:`~repro.core.em.EMTrace` with the log-likelihood history.
    """

    def __init__(
        self,
        num_user_topics: int = 60,
        num_time_topics: int = 40,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        weighted: bool = False,
        personalized_lambda: bool = True,
        n_init: int = 1,
        seed: int = 0,
        engine: EMEngineConfig = EMEngineConfig(),
    ) -> None:
        if num_user_topics <= 0:
            raise ValueError(f"num_user_topics must be positive, got {num_user_topics}")
        if num_time_topics <= 0:
            raise ValueError(f"num_time_topics must be positive, got {num_time_topics}")
        if max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {max_iter}")
        if smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        if n_init <= 0:
            raise ValueError(f"n_init must be positive, got {n_init}")
        self.num_user_topics = num_user_topics
        self.num_time_topics = num_time_topics
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.weighted = weighted
        self.personalized_lambda = personalized_lambda
        self.n_init = n_init
        self.seed = seed
        self.engine = engine
        self.params_: TTCAMParameters | None = None
        self.trace_: EMTrace | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "W-TTCAM" if self.weighted else "TTCAM"

    def fit(
        self,
        cuboid: RatingCuboid,
        checkpoint: CheckpointManager | str | None = None,
        resume_from: CheckpointManager | str | None = None,
        monitor: HealthMonitor | bool | None = None,
    ) -> "TTCAM":
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
        """
        if cuboid.nnz == 0:
            raise ValueError("cannot fit on an empty cuboid")
        if (checkpoint is not None or resume_from is not None) and self.n_init != 1:
            raise ValueError("checkpoint/resume require n_init == 1")
        if self.weighted:
            cuboid = apply_item_weighting(cuboid)

        compute, grid = self._build_estep(cuboid)
        manager, restored, health = prepare_fit_controls(
            checkpoint, resume_from, monitor, self.default_monitor, self._meta() | grid
        )
        best: tuple[TTCAMParameters, EMTrace] | None = None
        for restart in range(self.n_init):
            params, trace = self._fit_once(
                cuboid,
                compute,
                seed=self.seed + restart,
                checkpoints=manager,
                restored=restored,
                monitor=health,
            )
            if best is None or trace.final_log_likelihood > best[1].final_log_likelihood:
                best = (params, trace)
        assert best is not None  # n_init >= 1 guarantees at least one run
        self.params_, self.trace_ = best
        return self

    def _meta(self) -> dict[str, object]:
        """Identifying configuration stored in (and checked against) checkpoints."""
        return {
            "model": "ttcam",
            "k1": self.num_user_topics,
            "k2": self.num_time_topics,
            "weighted": self.weighted,
            "personalized_lambda": self.personalized_lambda,
            "seed": self.seed,
        }

    def default_monitor(self) -> HealthMonitor:
        """The numerical-health invariants of a TTCAM state."""
        return HealthMonitor(
            stochastic=_STOCHASTIC,
            unit_interval=("lambda_u",),
            no_collapse=("theta", "theta_time"),
        )

    def _rejitter(self, state: ArrayState, recovery: int) -> ArrayState:
        """Seeded perturbation applied to a rolled-back state."""
        return rejitter_arrays(
            state, _STOCHASTIC, ("lambda_u",), seed=self.seed + 7919 * recovery
        )

    def _build_estep(self, cuboid: RatingCuboid) -> tuple[EStep, dict[str, object]]:
        """The E-step over ``cuboid`` plus the summation grid it fixed.

        The grid joins :meth:`_meta` in checkpoint metadata, so a resume
        under a different grid (which could not be bit-identical) is
        refused. Subclasses override this to run the same equations on
        another substrate.
        """
        kernel = TTCAMKernel(
            cuboid.users,
            cuboid.intervals,
            cuboid.items,
            cuboid.scores,
            cuboid.shape,
            self.num_user_topics,
            self.num_time_topics,
        )
        estep = BlockedEStep(kernel, self.engine)
        return estep.compute, estep.grid

    def _fit_once(
        self,
        cuboid: RatingCuboid,
        compute: EStep,
        seed: int,
        checkpoints: CheckpointManager | None = None,
        restored: Checkpoint | None = None,
        monitor: HealthMonitor | None = None,
    ) -> tuple[TTCAMParameters, EMTrace]:
        """One EM run from a random initialisation (or a checkpoint)."""
        n, t_dim, v_dim = cuboid.shape
        k1, k2 = self.num_user_topics, self.num_time_topics

        if restored is not None:
            state, start, trace = restore_state(restored, _STATE_KEYS)
        else:
            rng = np.random.default_rng(seed)
            state = {
                "theta": random_stochastic(rng, n, k1),
                "phi": random_stochastic(rng, k1, v_dim),
                "theta_time": random_stochastic(rng, t_dim, k2),
                "phi_time": random_stochastic(rng, k2, v_dim),
                "lambda_u": np.full(n, 0.5),
            }
            start, trace = 0, EMTrace()

        user_mass = scatter_sum_1d(cuboid.users, cuboid.scores, n)
        safe_user_mass = np.where(user_mass <= 0, 1.0, user_mass)
        total_mass = cuboid.total_score  # global-λ normaliser, fixed

        def step(current: ArrayState) -> tuple[ArrayState, float]:
            """One EM iteration: the E-step's statistics, then the M-step."""
            stats, log_likelihood = compute(current)
            if self.personalized_lambda:
                new_lam = stats["lam_num"] / safe_user_mass  # Eq. 11
            else:
                new_lam = np.full(n, stats["lam_num"].sum() / total_mass)  # single global λ
            updated = {
                "theta": normalize_rows(stats["theta_num"], self.smoothing),  # Eq. 8
                "phi": normalize_rows(stats["phi_num"].T, self.smoothing),  # Eq. 9
                "theta_time": normalize_rows(stats["theta_time_num"], self.smoothing),  # Eq. 15
                "phi_time": normalize_rows(stats["phi_time_num"].T, self.smoothing),  # Eq. 16
                "lambda_u": np.clip(new_lam, 0.0, 1.0),
            }
            return updated, log_likelihood

        state, trace = run_em(
            state,
            step,
            max_iter=self.max_iter,
            tol=self.tol,
            trace=trace,
            start_iteration=start,
            checkpoints=checkpoints,
            monitor=monitor,
            rejitter=self._rejitter,
        )
        params = TTCAMParameters(
            theta=state["theta"],
            phi=state["phi"],
            theta_time=state["theta_time"],
            phi_time=state["phi_time"],
            lambda_u=state["lambda_u"],
        )
        return params, trace

    # ------------------------------------------------------------------
    # prediction API
    # ------------------------------------------------------------------

    def _require_fitted(self) -> TTCAMParameters:
        if self.params_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.params_

    def score_items(self, user: int, interval: int) -> FloatArray:
        """Ranking scores ``P(v | u, t)`` for every item (Equation 1)."""
        return self._require_fitted().score_items(user, interval)

    def query_space(self, user: int, interval: int) -> tuple[FloatArray, FloatArray]:
        """Expanded ``K1 + K2`` query vector and stacked topic–item matrix."""
        return self._require_fitted().query_space(user, interval)

    def matrix_cache_key(self, interval: int) -> str:
        """TTCAM's stacked ``[φ; φ′]`` matrix is query-independent."""
        return "static"

    def log_likelihood(self, cuboid: RatingCuboid) -> float:
        """Log likelihood of a cuboid under the fitted model (Equation 3)."""
        params = self._require_fitted()
        u, t, v, c = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
        p_interest = np.einsum("rk,kr->r", params.theta[u], params.phi[:, v])
        p_context = np.einsum("rk,kr->r", params.theta_time[t], params.phi_time[:, v])
        lam_r = params.lambda_u[u]
        prob = lam_r * p_interest + (1 - lam_r) * p_context
        return float(np.dot(c, np.log(prob + EPS)))
