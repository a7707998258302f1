"""Item-based TCAM (ITCAM) — Section 3.2.1 of the paper.

ITCAM explains a rating ``(u, t, v)`` as a two-stage draw: a coin
``s ~ Bernoulli(λ_u)`` picks between the user's intrinsic interest
(``s = 1``: sample a user-oriented topic ``z ~ θ_u`` then ``v ~ φ_z``)
and the temporal context (``s = 0``: sample ``v`` directly from the
per-interval item distribution ``θ′_t``). Parameters are fit with the EM
updates of Equations (4)–(11): the E-step is
:class:`~repro.core.engine.ITCAMKernel` run by the blocked engine, the
M-step normalises its statistics here.

Setting ``weighted=True`` trains on the item-weighted cuboid of
Section 3.3, yielding the paper's **W-ITCAM** variant.
"""

from __future__ import annotations

import numpy as np

from ..data.cuboid import RatingCuboid
from ..robustness.checkpoint import Checkpoint, CheckpointManager
from ..robustness.health import HealthMonitor, rejitter_arrays
from ..typing import ArrayState, FloatArray
from .engine import BlockedEStep, EMEngineConfig, ITCAMKernel
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
from .params import ITCAMParameters
from .weighting import apply_item_weighting

_STATE_KEYS = ("theta", "phi", "theta_time", "lambda_u")
_STOCHASTIC = ("theta", "phi", "theta_time")


class ITCAM:
    """Item-based temporal context-aware mixture model.

    Parameters
    ----------
    num_user_topics:
        ``K1``, the number of user-oriented topics.
    max_iter:
        Maximum EM iterations. The paper observes convergence within ~50.
    tol:
        Relative log-likelihood improvement below which EM stops.
    smoothing:
        Pseudo-count added per cell when normalising the M-step
        numerators; keeps every probability strictly positive so queries
        against unseen items stay well-defined. ``0`` gives textbook EM.
    weighted:
        Train on the item-weighted cuboid (W-ITCAM) instead of raw counts.
    n_init:
        Number of random EM restarts; the fit with the best final
        training log-likelihood wins.
    seed:
        Seed for the random EM initialisation.
    engine:
        :class:`~repro.core.engine.EMEngineConfig` of the blocked E-step,
        as in :class:`~repro.core.ttcam.TTCAM`.

    Attributes (after :meth:`fit`)
    ------------------------------
    params_:
        Fitted :class:`~repro.core.params.ITCAMParameters`.
    trace_:
        :class:`~repro.core.em.EMTrace` with the log-likelihood history.
    """

    def __init__(
        self,
        num_user_topics: int = 60,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        weighted: bool = False,
        n_init: int = 1,
        seed: int = 0,
        engine: EMEngineConfig = EMEngineConfig(),
    ) -> None:
        if num_user_topics <= 0:
            raise ValueError(f"num_user_topics must be positive, got {num_user_topics}")
        if max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {max_iter}")
        if smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        if n_init <= 0:
            raise ValueError(f"n_init must be positive, got {n_init}")
        self.num_user_topics = num_user_topics
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.weighted = weighted
        self.n_init = n_init
        self.seed = seed
        self.engine = engine
        self.params_: ITCAMParameters | None = None
        self.trace_: EMTrace | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "W-ITCAM" if self.weighted else "ITCAM"

    def fit(
        self,
        cuboid: RatingCuboid,
        checkpoint: CheckpointManager | str | None = None,
        resume_from: CheckpointManager | str | None = None,
        monitor: HealthMonitor | bool | None = None,
    ) -> "ITCAM":
        """Fit the model to a rating cuboid by EM.

        With ``n_init > 1``, runs that many random restarts and keeps the
        one with the best final training log-likelihood.

        ``checkpoint``/``resume_from``/``monitor`` enable the
        fault-tolerant runtime exactly as in
        :meth:`repro.core.ttcam.TTCAM.fit`: periodic atomic checkpoints,
        bit-compatible resume, and health-guarded rollback. Checkpointing
        requires ``n_init == 1``.
        """
        if cuboid.nnz == 0:
            raise ValueError("cannot fit on an empty cuboid")
        if (checkpoint is not None or resume_from is not None) and self.n_init != 1:
            raise ValueError("checkpoint/resume require n_init == 1")
        if self.weighted:
            cuboid = apply_item_weighting(cuboid)

        estep = BlockedEStep(
            ITCAMKernel(
                cuboid.users,
                cuboid.intervals,
                cuboid.items,
                cuboid.scores,
                cuboid.shape,
                self.num_user_topics,
            ),
            self.engine,
        )
        manager, restored, health = prepare_fit_controls(
            checkpoint, resume_from, monitor, self.default_monitor, self._meta() | estep.grid
        )
        best: tuple[ITCAMParameters, EMTrace] | None = None
        for restart in range(self.n_init):
            params, trace = self._fit_once(
                cuboid,
                estep,
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
            "model": "itcam",
            "k1": self.num_user_topics,
            "weighted": self.weighted,
            "seed": self.seed,
        }

    def default_monitor(self) -> HealthMonitor:
        """The numerical-health invariants of an ITCAM state."""
        return HealthMonitor(
            stochastic=_STOCHASTIC,
            unit_interval=("lambda_u",),
            no_collapse=("theta",),
        )

    def _rejitter(self, state: ArrayState, recovery: int) -> ArrayState:
        """Seeded perturbation applied to a rolled-back state."""
        return rejitter_arrays(
            state, _STOCHASTIC, ("lambda_u",), seed=self.seed + 7919 * recovery
        )

    def _fit_once(
        self,
        cuboid: RatingCuboid,
        estep: BlockedEStep,
        seed: int,
        checkpoints: CheckpointManager | None = None,
        restored: Checkpoint | None = None,
        monitor: HealthMonitor | None = None,
    ) -> tuple[ITCAMParameters, EMTrace]:
        """One EM run from a random initialisation (or a checkpoint)."""
        n, t_dim, v_dim = cuboid.shape
        k1 = self.num_user_topics

        if restored is not None:
            state, start, trace = restore_state(restored, _STATE_KEYS)
        else:
            rng = np.random.default_rng(seed)
            state = {
                "theta": random_stochastic(rng, n, k1),
                "phi": random_stochastic(rng, k1, v_dim),
                "theta_time": random_stochastic(rng, t_dim, v_dim),
                "lambda_u": np.full(n, 0.5),
            }
            start, trace = 0, EMTrace()

        user_mass = scatter_sum_1d(cuboid.users, cuboid.scores, n)  # Σ_t Σ_v C[u,t,v], fixed
        safe_user_mass = np.where(user_mass <= 0, 1.0, user_mass)

        def step(current: ArrayState) -> tuple[ArrayState, float]:
            """One EM iteration: the E-step's statistics, then the M-step."""
            stats, log_likelihood = estep.compute(current)
            updated = {
                "theta": normalize_rows(stats["theta_num"], self.smoothing),  # Eq. 8
                "phi": normalize_rows(stats["phi_num"].T, self.smoothing),  # Eq. 9
                "theta_time": normalize_rows(
                    stats["time_num"].reshape(t_dim, v_dim), self.smoothing
                ),  # Eq. 10
                "lambda_u": np.clip(
                    stats["lam_num"] / safe_user_mass, 0.0, 1.0
                ),  # Eq. 11
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
        params = ITCAMParameters(
            theta=state["theta"],
            phi=state["phi"],
            theta_time=state["theta_time"],
            lambda_u=state["lambda_u"],
        )
        return params, trace

    # ------------------------------------------------------------------
    # prediction API (shared across all models in this library)
    # ------------------------------------------------------------------

    def _require_fitted(self) -> ITCAMParameters:
        if self.params_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.params_

    def score_items(self, user: int, interval: int) -> FloatArray:
        """Ranking scores ``P(v | u, t)`` for every item (Equation 1)."""
        return self._require_fitted().score_items(user, interval)

    def query_space(self, user: int, interval: int) -> tuple[FloatArray, FloatArray]:
        """Expanded query vector and topic–item matrix for the TA engine."""
        return self._require_fitted().query_space(user, interval)

    def matrix_cache_key(self, interval: int) -> int:
        """ITCAM's topic–item matrix embeds θ′_t, so it varies by interval."""
        return interval

    def log_likelihood(self, cuboid: RatingCuboid) -> float:
        """Log likelihood of a (held-out or training) cuboid (Equation 3)."""
        params = self._require_fitted()
        u, t, v, c = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
        p_interest = np.einsum("rk,kr->r", params.theta[u], params.phi[:, v])
        p_context = params.theta_time[t, v]
        lam_r = params.lambda_u[u]
        prob = lam_r * p_interest + (1 - lam_r) * p_context
        return float(np.dot(c, np.log(prob + EPS)))
