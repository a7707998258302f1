"""Background-smoothed TCAM (paper future work, Section 6, item 3).

"Since the user generated data in social media is very noisy, it would be
interesting to incorporate a background distribution to filter the noise"
— this module does exactly that: a three-way mixture where each rating is
explained by a fixed background item distribution ``θ_B`` (probability
``λ_B``), the user's interest, or the temporal context:

``P(v|u,t) = λ_B·P(v|θ_B) + (1 − λ_B)·[λ_u·P(v|θ_u) + (1 − λ_u)·P(v|θ′_t)]``

Routing uniform noise mass into the background frees the user- and
time-oriented topics from modelling it, sharpening both — the same effect
the item-weighting scheme achieves by re-weighting, achieved here by
model structure instead.

The model is a declaration over :class:`~repro.core.model.EMModel`:
:class:`BackgroundKernel` is TTCAM's blocked E-step with the background
as a third branch, and the M-step is TTCAM's except that ``λ_u`` is
normalised by the user's non-background mass.
"""

from __future__ import annotations

import numpy as np

from ..core.em import EPS, scatter_sum_1d
from ..core.engine import TTCAMKernel
from ..core.model import MStep
from ..core.params import TTCAMParameters
from ..core.ttcam import TTCAMDeclaration
from ..data.cuboid import RatingCuboid
from ..typing import ArrayState, FloatArray, Workspace


class BackgroundKernel(TTCAMKernel):
    """TTCAM's E-step with a fixed background branch of weight ``λ_B``.

    Adds ``nonbg_num``, each user's non-background responsibility mass,
    to TTCAM's statistics; ``lam_num`` holds the interest share of it.
    """

    def __init__(
        self, cuboid: RatingCuboid, k1: int, k2: int, background: FloatArray, weight: float
    ) -> None:
        triples = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
        super().__init__(*triples, cuboid.shape, k1, k2)
        self.background, self.weight = background, weight

    def stat_arrays(self) -> ArrayState:
        """TTCAM's accumulators plus the per-user non-background mass."""
        return super().stat_arrays() | {"nonbg_num": np.zeros(self.n)}

    def make_workspace(self, capacity: int) -> Workspace:
        """No preallocated buffers: each block's expressions allocate their own."""
        return {}

    def accumulate(
        self, state: ArrayState, lo: int, hi: int, ws: Workspace, stats: ArrayState
    ) -> float:
        """Fold rows ``[lo, hi)`` into ``stats``; return the block's LL."""
        u, t, v, c = self.u[lo:hi], self.t[lo:hi], self.v[lo:hi], self.c[lo:hi]
        by_user, by_item, by_interval = self._plans[lo, hi]
        joint_z = state["theta"][u] * state["phi"][:, v].T
        joint_x = state["theta_time"][t] * state["phi_time"][:, v].T
        p_interest, p_context = joint_z.sum(axis=1), joint_x.sum(axis=1)
        lam_r = state["lambda_u"][u]
        part_interest = (1 - self.weight) * lam_r * p_interest
        part_context = (1 - self.weight) * (1 - lam_r) * p_context
        denom = self.weight * self.background[v] + part_interest + part_context + EPS
        c_interest, c_context = c * part_interest / denom, c * part_context / denom
        scatter_sum_1d(u, c_interest, self.n, out=stats["lam_num"])
        scatter_sum_1d(u, c_interest + c_context, self.n, out=stats["nonbg_num"])
        joint_z *= (c_interest / (p_interest + EPS))[:, None]
        by_user.sum(joint_z, out=stats["theta_num"])
        by_item.sum(joint_z, out=stats["phi_num"])
        joint_x *= (c_context / (p_context + EPS))[:, None]
        by_interval.sum(joint_x, out=stats["theta_time_num"])
        by_item.sum(joint_x, out=stats["phi_time_num"])
        return float(np.dot(c, np.log(denom)))


class BackgroundTTCAM(TTCAMDeclaration):
    """TTCAM with an additional fixed background noise component.

    Parameters
    ----------
    num_user_topics, num_time_topics, max_iter, tol, smoothing, seed:
        As in :class:`~repro.core.ttcam.TTCAM`.
    background_weight:
        ``λ_B``, the fixed share of behavior attributed to background
        noise. The background distribution itself is the empirical item
        frequency, held fixed during EM.

    Attributes (after :meth:`fit`)
    ------------------------------
    params_:
        The fitted :class:`~repro.core.params.TTCAMParameters`.
    background_:
        ``(V,)`` the background distribution ``θ_B``.
    """

    _model = "background-ttcam"

    def __init__(
        self,
        num_user_topics: int = 60,
        num_time_topics: int = 40,
        background_weight: float = 0.1,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if not 0 <= background_weight < 1:
            raise ValueError(
                f"background_weight must be in [0, 1), got {background_weight}"
            )
        super().__init__(num_user_topics, num_time_topics, max_iter, tol, smoothing, seed)
        self.background_weight = background_weight
        self.params_: TTCAMParameters | None = None
        self.background_: np.ndarray | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "BG-TTCAM"

    def _hyper(self) -> dict[str, object]:
        return super()._hyper() | {"background_weight": self.background_weight}

    @staticmethod
    def _background(cuboid: RatingCuboid) -> np.ndarray:
        popularity = cuboid.item_popularity()
        return popularity / popularity.sum()

    def _kernel(self, cuboid: RatingCuboid) -> BackgroundKernel:
        k1, k2 = self.num_user_topics, self.num_time_topics
        return BackgroundKernel(cuboid, k1, k2, self._background(cuboid), self.background_weight)

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        def m_step(stats: ArrayState) -> ArrayState:
            # λ_u is conditional on "not background": normalise by the
            # user's total non-background responsibility mass.
            nonbg = np.where(stats["nonbg_num"] <= 0, 1.0, stats["nonbg_num"])
            return self._topics(stats) | {"lambda_u": np.clip(stats["lam_num"] / nonbg, 0.0, 1.0)}

        return m_step

    def _store(self, state: ArrayState, cuboid: RatingCuboid) -> None:
        self.params_ = TTCAMParameters(**state)
        self.background_ = self._background(cuboid)

    def _require_fitted(self) -> TTCAMParameters:
        if self.params_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.params_

    def score_items(self, user: int, interval: int) -> np.ndarray:
        """Full three-way mixture likelihood for every item."""
        params = self._require_fitted()
        lam_b = self.background_weight
        return lam_b * self.background_ + (1 - lam_b) * params.score_items(user, interval)

    def query_space(self, user: int, interval: int) -> tuple[np.ndarray, np.ndarray]:
        """Expanded query with the background as one extra topic row."""
        weights, matrix = self._require_fitted().query_space(user, interval)
        lam_b = self.background_weight
        full_weights = np.concatenate([(1 - lam_b) * weights, [lam_b]])
        full_matrix = np.vstack([matrix, self.background_[None, :]])
        return full_weights, full_matrix

    def matrix_cache_key(self, interval: int) -> str:
        """The stacked matrix (topics + background row) is static."""
        return "static"
