"""Shared-topic-set TCAM variant (the TimeUserLDA-style design).

Section 2 of the paper criticises prior mixtures (TimeUserLDA, Diao et
al.; the social mixtures of Xu et al.) for using **one shared set of
topics** for both the user-interest and the temporal-context factors:
"the topics detected by their models look confusing and noisy since
they conflate both user interest and temporal context". TCAM's design
answer is two *distinct* topic sets (user-oriented φ and time-oriented
φ′).

This module implements the shared-set alternative so that design choice
becomes measurable: a mixture with the same ``s ~ Bernoulli(λ_u)``
switch, but both branches generate the item from a single topic set φ —
``s = 1``: ``z ~ θ_u``, ``s = 0``: ``z ~ θ′_t``, then ``v ~ φ_z``.

That is TTCAM with ``φ′`` tied to ``φ``, and it is declared as exactly
that over :class:`~repro.core.ttcam.TTCAMDeclaration`: TTCAM's kernel
with ``K1 = K2 = K`` reads ``φ`` in both branches, and TTCAM's M-step
normalises both branches' item counts into the one ``φ``. The model has
no kernel of its own.

The ablation bench (`benchmarks/test_ablation_shared_topics.py`)
compares it against TTCAM on both accuracy and the temporal coherence
of the learned topics.
"""

from __future__ import annotations

import numpy as np

from ..core.em import normalize_rows, random_stochastic
from ..core.engine import EStep
from ..core.ttcam import TTCAMDeclaration
from ..data.cuboid import RatingCuboid
from ..typing import RNG, ArrayState


class SharedTopicsTCAM(TTCAMDeclaration):
    """TCAM-style mixture with one topic set shared by both factors.

    Parameters
    ----------
    num_topics:
        Size of the single shared topic set.
    max_iter, tol, smoothing, seed:
        EM controls matching the core models.

    Attributes (after :meth:`fit`)
    ------------------------------
    theta_:
        ``(N, K)`` user interest over the shared topics.
    theta_time_:
        ``(T, K)`` temporal context over the same topics.
    phi_:
        ``(K, V)`` the shared topic–item distributions.
    lambda_:
        ``(N,)`` per-user mixing weights.
    """

    _model = "shared-topics"
    _stochastic = ("theta", "theta_time", "phi")  # initialisation order

    def __init__(
        self,
        num_topics: int = 60,
        max_iter: int = 50,
        tol: float = 1e-5,
        smoothing: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if num_topics <= 0:
            raise ValueError(f"num_topics must be positive, got {num_topics}")
        super().__init__(num_topics, num_topics, max_iter, tol, smoothing, seed)
        self.num_topics = num_topics
        self.theta_: np.ndarray | None = None
        self.theta_time_: np.ndarray | None = None
        self.phi_: np.ndarray | None = None
        self.lambda_: np.ndarray | None = None

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return "SharedTCAM"

    def _hyper(self) -> dict[str, object]:
        return {"k": self.num_topics}

    def _build_estep(self, cuboid: RatingCuboid) -> tuple[EStep, dict[str, object]]:
        """TTCAM's E-step, its time-oriented topics read from ``φ``."""
        compute, grid = super()._build_estep(cuboid)
        return (lambda state: compute(state | {"phi_time": state["phi"]})), grid

    def _init_state(self, rng: RNG, shape: tuple[int, int, int]) -> ArrayState:
        n, t_dim, v_dim = shape
        return {
            "theta": random_stochastic(rng, n, self.num_topics),
            "theta_time": random_stochastic(rng, t_dim, self.num_topics),
            "phi": random_stochastic(rng, self.num_topics, v_dim),
            "lambda_u": np.full(n, 0.5),
        }

    def _topics(self, stats: ArrayState) -> ArrayState:
        """The conflation: one ``φ`` absorbs both branches' item counts."""
        return {
            "theta": normalize_rows(stats["theta_num"], self.smoothing),
            "theta_time": normalize_rows(stats["theta_time_num"], self.smoothing),
            "phi": normalize_rows((stats["phi_num"] + stats["phi_time_num"]).T, self.smoothing),
        }

    def _store(self, state: ArrayState, cuboid: RatingCuboid) -> None:
        self.theta_, self.theta_time_, self.phi_, self.lambda_ = (
            state[name] for name in self._stochastic + self._unit_interval
        )

    def _require_fitted(self) -> None:
        if self.phi_ is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def score_items(self, user: int, interval: int) -> np.ndarray:
        """Mixture likelihood over the shared topic set."""
        self._require_fitted()
        lam = self.lambda_[user]
        interest = self.theta_[user] @ self.phi_
        context = self.theta_time_[interval] @ self.phi_
        return lam * interest + (1 - lam) * context

    def query_space(self, user: int, interval: int) -> tuple[np.ndarray, np.ndarray]:
        """Expanded query: the shared topics appear once, with combined
        weights ``λ·θ_u + (1−λ)·θ′_t``."""
        self._require_fitted()
        lam = self.lambda_[user]
        weights = lam * self.theta_[user] + (1 - lam) * self.theta_time_[interval]
        return weights, self.phi_

    def matrix_cache_key(self, interval: int) -> str:
        """The shared φ is query-independent."""
        return "static"
