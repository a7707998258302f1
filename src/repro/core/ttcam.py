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

This file holds what is TTCAM's own: its state declaration, the
:class:`~repro.core.engine.TTCAMKernel` it hands the engine, its random
initialisation and its M-step — on :class:`TTCAMDeclaration`, which the
Section 2 and Section 6 variants derive from too — and the item
weighting and global-λ options of :class:`TTCAM`. The fit itself — restarts,
checkpoint/resume, health rollback — is
:meth:`repro.core.model.EMModel.fit`; the prediction surface
(``score_items`` / ``query_space`` / ``matrix_cache_key`` /
``log_likelihood``) is :class:`~repro.core.params.ParamsBackedModel` over
the fitted container.
"""

from __future__ import annotations

import numpy as np

from ..data.cuboid import RatingCuboid
from ..typing import RNG, ArrayState
from .engine import EMEngineConfig, TTCAMKernel
from .em import normalize_rows, random_stochastic, scatter_sum_1d
from .model import EMModel, MStep
from .params import ParamsBackedModel, TTCAMParameters
from .weighting import apply_item_weighting


class TTCAMDeclaration(EMModel):
    """TTCAM's EM declaration: state, kernel, initialisation and M-step.

    The ``K1`` user-oriented and ``K2`` time-oriented topics and the
    per-user ``λ`` of Section 3.2.2, without a prediction surface.
    :class:`TTCAM` serves the fit through its container; the Section 6
    extensions (:class:`~repro.extensions.background.BackgroundTTCAM`,
    :class:`~repro.extensions.drift.DriftTTCAM`,
    :class:`~repro.extensions.social.SocialTTCAM`) and Section 2's
    :class:`~repro.baselines.sharedtopics.SharedTopicsTCAM` derive from
    this class and override the hooks whose equations they change.
    """

    _model = TTCAMParameters.VARIANT
    _stochastic = TTCAMParameters.STOCHASTIC
    _unit_interval = ("lambda_u",)
    _no_collapse = ("theta", "theta_time")

    def __init__(
        self,
        num_user_topics: int,
        num_time_topics: int,
        max_iter: int,
        tol: float,
        smoothing: float,
        seed: int,
        engine: EMEngineConfig = EMEngineConfig(),
        n_init: int = 1,
    ) -> None:
        if num_user_topics <= 0:
            raise ValueError(f"num_user_topics must be positive, got {num_user_topics}")
        if num_time_topics <= 0:
            raise ValueError(f"num_time_topics must be positive, got {num_time_topics}")
        super().__init__(max_iter, tol, smoothing, seed, engine, n_init)
        self.num_user_topics = num_user_topics
        self.num_time_topics = num_time_topics

    def _hyper(self) -> dict[str, object]:
        return {"k1": self.num_user_topics, "k2": self.num_time_topics}

    def _kernel(self, cuboid: RatingCuboid) -> TTCAMKernel:
        return TTCAMKernel(
            cuboid.users,
            cuboid.intervals,
            cuboid.items,
            cuboid.scores,
            cuboid.shape,
            self.num_user_topics,
            self.num_time_topics,
        )

    def _init_state(self, rng: RNG, shape: tuple[int, int, int]) -> ArrayState:
        n, t_dim, v_dim = shape
        k1, k2 = self.num_user_topics, self.num_time_topics
        return {
            "theta": random_stochastic(rng, n, k1),
            "phi": random_stochastic(rng, k1, v_dim),
            "theta_time": random_stochastic(rng, t_dim, k2),
            "phi_time": random_stochastic(rng, k2, v_dim),
            "lambda_u": np.full(n, 0.5),
        }

    def _topics(self, stats: ArrayState) -> ArrayState:
        """The four topic distributions from their counts (Eq. 8, 9, 15, 16)."""
        return {
            "theta": normalize_rows(stats["theta_num"], self.smoothing),
            "phi": normalize_rows(stats["phi_num"].T, self.smoothing),
            "theta_time": normalize_rows(stats["theta_time_num"], self.smoothing),
            "phi_time": normalize_rows(stats["phi_time_num"].T, self.smoothing),
        }

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        user_mass = scatter_sum_1d(cuboid.users, cuboid.scores, cuboid.num_users)
        safe_user_mass = np.where(user_mass <= 0, 1.0, user_mass)

        def m_step(stats: ArrayState) -> ArrayState:
            new_lam = stats["lam_num"] / safe_user_mass  # Eq. 11
            return self._topics(stats) | {"lambda_u": np.clip(new_lam, 0.0, 1.0)}

        return m_step


class TTCAM(ParamsBackedModel, TTCAMDeclaration):
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
        (block size, runtime sanitizer). Results are
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
        super().__init__(
            num_user_topics, num_time_topics, max_iter, tol, smoothing, seed, engine, n_init
        )
        self.weighted = weighted
        self.personalized_lambda = personalized_lambda
        self.params_: TTCAMParameters | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "W-TTCAM" if self.weighted else "TTCAM"

    def _hyper(self) -> dict[str, object]:
        return super()._hyper() | {
            "weighted": self.weighted,
            "personalized_lambda": self.personalized_lambda,
        }

    def _prepare(self, cuboid: RatingCuboid) -> RatingCuboid:
        return apply_item_weighting(cuboid) if self.weighted else cuboid

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        if self.personalized_lambda:
            return super()._m_step(cuboid)
        n, total_mass = cuboid.num_users, cuboid.total_score  # global-λ normaliser, fixed

        def m_step(stats: ArrayState) -> ArrayState:
            new_lam = np.full(n, stats["lam_num"].sum() / total_mass)  # single global λ
            return self._topics(stats) | {"lambda_u": np.clip(new_lam, 0.0, 1.0)}

        return m_step

    def _store(self, state: ArrayState, cuboid: RatingCuboid) -> None:
        self.params_ = TTCAMParameters(**state)
