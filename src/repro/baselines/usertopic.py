"""User-Topic (UT) baseline — Section 5.2 of the paper.

An author-topic-style model (Michelson & Macskassy; Stoyanovich et al.)
that explains ratings purely from user interests, smoothed by a fixed
background item distribution:

``P(v | u) = λ_B · P(v | θ_B) + (1 − λ_B) · Σ_z P(z | θ_u) P(v | φ_z)``

The background ``θ_B`` is the empirical item frequency distribution and is
held fixed; ``λ_B`` is a hyper-parameter. Time is ignored entirely, which
is exactly why UT loses to TT on time-sensitive data (Digg) and wins on
taste-driven data (MovieLens) — the contrast Figure 6/7 highlights.
"""

from __future__ import annotations

import numpy as np

from ..core.em import (
    EMTrace,
    normalize_rows,
    prepare_fit_controls,
    random_stochastic,
    restore_state,
    run_em,
)
from ..core.engine import BlockedEStep, EMEngineConfig, UserTopicKernel
from ..data.cuboid import RatingCuboid
from ..robustness.checkpoint import CheckpointManager
from ..robustness.health import HealthMonitor, rejitter_arrays

_STATE_KEYS = ("theta", "phi")


class UserTopicModel:
    """Topic model over user documents with background smoothing.

    Parameters
    ----------
    num_topics:
        Number of latent user-oriented topics.
    background_weight:
        ``λ_B``, the fixed probability of drawing from the background
        distribution instead of a user topic.
    max_iter, tol, smoothing, seed:
        EM controls matching the core models.
    engine:
        :class:`~repro.core.engine.EMEngineConfig` of the blocked E-step,
        as in the core models.
    """

    def __init__(
        self,
        num_topics: int = 60,
        background_weight: float = 0.1,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        seed: int = 0,
        engine: EMEngineConfig = EMEngineConfig(),
    ) -> None:
        if num_topics <= 0:
            raise ValueError(f"num_topics must be positive, got {num_topics}")
        if not 0 <= background_weight < 1:
            raise ValueError(
                f"background_weight must be in [0, 1), got {background_weight}"
            )
        self.num_topics = num_topics
        self.background_weight = background_weight
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.seed = seed
        self.engine = engine
        self.theta_: np.ndarray | None = None  # (N, K)
        self.phi_: np.ndarray | None = None  # (K, V)
        self.background_: np.ndarray | None = None  # (V,)
        self.trace_: EMTrace | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "UT"

    def fit(
        self,
        cuboid: RatingCuboid,
        checkpoint: CheckpointManager | str | None = None,
        resume_from: CheckpointManager | str | None = None,
        monitor: HealthMonitor | bool | None = None,
    ) -> "UserTopicModel":
        """Fit user topics by EM over the (time-collapsed) cuboid.

        ``checkpoint``/``resume_from``/``monitor`` enable the same
        fault-tolerant runtime as :meth:`repro.core.ttcam.TTCAM.fit`.
        """
        if cuboid.nnz == 0:
            raise ValueError("cannot fit on an empty cuboid")
        n, _, v_dim = cuboid.shape
        k = self.num_topics

        popularity = cuboid.item_popularity()
        background = popularity / popularity.sum()

        estep = BlockedEStep(
            UserTopicKernel(
                cuboid.users,
                cuboid.intervals,
                cuboid.items,
                cuboid.scores,
                cuboid.shape,
                k,
                background,
                self.background_weight,
            ),
            self.engine,
        )
        meta = {"model": "ut", "k": k, "seed": self.seed} | estep.grid
        manager, restored, health = prepare_fit_controls(
            checkpoint, resume_from, monitor, self.default_monitor, meta
        )
        if restored is not None:
            state, start, trace = restore_state(restored, _STATE_KEYS)
        else:
            rng = np.random.default_rng(self.seed)
            state = {
                "theta": random_stochastic(rng, n, k),
                "phi": random_stochastic(rng, k, v_dim),
            }
            start, trace = 0, EMTrace()

        def step(
            current: dict[str, np.ndarray],
        ) -> tuple[dict[str, np.ndarray], float]:
            """One EM iteration over the time-collapsed cuboid."""
            stats, log_likelihood = estep.compute(current)
            updated = {
                "theta": normalize_rows(stats["theta_num"], self.smoothing),
                "phi": normalize_rows(stats["phi_num"].T, self.smoothing),
            }
            return updated, log_likelihood

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

        self.theta_ = state["theta"]
        self.phi_ = state["phi"]
        self.background_ = background
        self.trace_ = trace
        return self

    def default_monitor(self) -> HealthMonitor:
        """The numerical-health invariants of a UT state."""
        return HealthMonitor(stochastic=_STATE_KEYS, no_collapse=("theta",))

    def _rejitter(
        self, state: dict[str, np.ndarray], recovery: int
    ) -> dict[str, np.ndarray]:
        """Seeded perturbation applied to a rolled-back state."""
        return rejitter_arrays(state, _STATE_KEYS, (), seed=self.seed + 7919 * recovery)

    def score_items(self, user: int, interval: int = 0) -> np.ndarray:
        """``P(v | u)`` for every item; the interval argument is ignored."""
        if self.theta_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        lam_b = self.background_weight
        return lam_b * self.background_ + (1 - lam_b) * (self.theta_[user] @ self.phi_)
