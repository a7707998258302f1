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

This file holds what is ITCAM's own: its state declaration, kernel,
random initialisation and M-step. The fit itself is
:meth:`repro.core.model.EMModel.fit`, the prediction surface
:class:`~repro.core.params.ParamsBackedModel`.
"""

from __future__ import annotations

import numpy as np

from ..data.cuboid import RatingCuboid
from ..typing import RNG, ArrayState
from .engine import EMEngineConfig, ITCAMKernel
from .em import normalize_rows, random_stochastic, scatter_sum_1d
from .model import EMModel, MStep
from .params import ITCAMParameters, ParamsBackedModel
from .weighting import apply_item_weighting


class ITCAM(ParamsBackedModel, EMModel):
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

    _model = ITCAMParameters.VARIANT
    _stochastic = ITCAMParameters.STOCHASTIC
    _unit_interval = ("lambda_u",)
    _no_collapse = ("theta",)

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
        super().__init__(max_iter, tol, smoothing, seed, engine, n_init)
        self.num_user_topics = num_user_topics
        self.weighted = weighted
        self.params_: ITCAMParameters | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "W-ITCAM" if self.weighted else "ITCAM"

    def _hyper(self) -> dict[str, object]:
        return {"k1": self.num_user_topics, "weighted": self.weighted}

    def _prepare(self, cuboid: RatingCuboid) -> RatingCuboid:
        return apply_item_weighting(cuboid) if self.weighted else cuboid

    def _kernel(self, cuboid: RatingCuboid) -> ITCAMKernel:
        return ITCAMKernel(
            cuboid.users,
            cuboid.intervals,
            cuboid.items,
            cuboid.scores,
            cuboid.shape,
            self.num_user_topics,
        )

    def _init_state(self, rng: RNG, shape: tuple[int, int, int]) -> ArrayState:
        n, t_dim, v_dim = shape
        k1 = self.num_user_topics
        return {
            "theta": random_stochastic(rng, n, k1),
            "phi": random_stochastic(rng, k1, v_dim),
            "theta_time": random_stochastic(rng, t_dim, v_dim),
            "lambda_u": np.full(n, 0.5),
        }

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        n, t_dim, v_dim = cuboid.shape
        user_mass = scatter_sum_1d(cuboid.users, cuboid.scores, n)  # Σ_t Σ_v C[u,t,v], fixed
        safe_user_mass = np.where(user_mass <= 0, 1.0, user_mass)

        def m_step(stats: ArrayState) -> ArrayState:
            return {
                "theta": normalize_rows(stats["theta_num"], self.smoothing),  # Eq. 8
                "phi": normalize_rows(stats["phi_num"].T, self.smoothing),  # Eq. 9
                "theta_time": normalize_rows(
                    stats["time_num"].reshape(t_dim, v_dim), self.smoothing
                ),  # Eq. 10
                "lambda_u": np.clip(
                    stats["lam_num"] / safe_user_mass, 0.0, 1.0
                ),  # Eq. 11
            }

        return m_step

    def _store(self, state: ArrayState, cuboid: RatingCuboid) -> None:
        self.params_ = ITCAMParameters(**state)
