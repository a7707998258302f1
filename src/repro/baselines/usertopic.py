"""User-Topic (UT) baseline — Section 5.2 of the paper.

An author-topic-style model (Michelson & Macskassy; Stoyanovich et al.)
that explains ratings purely from user interests, smoothed by a fixed
background item distribution:

``P(v | u) = λ_B · P(v | θ_B) + (1 − λ_B) · Σ_z P(z | θ_u) P(v | φ_z)``

The background ``θ_B`` is the empirical item frequency distribution and is
held fixed; ``λ_B`` is a hyper-parameter. Time is ignored entirely, which
is exactly why UT loses to TT on time-sensitive data (Digg) and wins on
taste-driven data (MovieLens) — the contrast Figure 6/7 highlights.

UT and TT are one background-smoothed PLSA whose documents are users or
intervals: this file declares the model over
:class:`~repro.core.model.EMModel` (state names, kernel, document axis,
initialisation, M-step), and :mod:`repro.baselines.timetopic` changes
the declaration to interval documents.
"""

from __future__ import annotations

import numpy as np

from ..core.em import normalize_rows, random_stochastic
from ..core.engine import EMEngineConfig, UserTopicKernel
from ..core.model import EMModel, MStep
from ..data.cuboid import RatingCuboid


class UserTopicModel(EMModel):
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

    After :meth:`fit` the document–topic and topic–item matrices are
    published as ``<state name>_`` (``theta_`` ``(N, K)`` and ``phi_``
    ``(K, V)``), the fixed background as ``background_`` ``(V,)``.
    """

    _model = "ut"
    _stochastic = ("theta", "phi")  # (document–topic, topic–item)
    _no_collapse = ("theta",)
    _kernel_cls = UserTopicKernel
    _doc_axis = 0  # documents are users: rows of the (N, T, V) cuboid shape

    theta_: np.ndarray | None  # (N, K)
    phi_: np.ndarray | None  # (K, V)

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
        super().__init__(max_iter, tol, smoothing, seed, engine)
        self.num_topics = num_topics
        self.background_weight = background_weight
        for name in self._stochastic:
            setattr(self, f"{name}_", None)
        self.background_: np.ndarray | None = None  # (V,)

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return self._model.upper()

    def _hyper(self) -> dict[str, object]:
        return {"k": self.num_topics, "background_weight": self.background_weight}

    @staticmethod
    def _background(cuboid: RatingCuboid) -> np.ndarray:
        """The empirical item frequency distribution ``θ_B``."""
        popularity = cuboid.item_popularity()
        return popularity / popularity.sum()

    def _kernel(self, cuboid: RatingCuboid) -> UserTopicKernel:
        return self._kernel_cls(
            cuboid.users,
            cuboid.intervals,
            cuboid.items,
            cuboid.scores,
            cuboid.shape,
            self.num_topics,
            self._background(cuboid),
            self.background_weight,
        )

    def _init_state(
        self, rng: np.random.Generator, shape: tuple[int, int, int]
    ) -> dict[str, np.ndarray]:
        doc_topics, topic_items = self._stochastic
        return {
            doc_topics: random_stochastic(rng, shape[self._doc_axis], self.num_topics),
            topic_items: random_stochastic(rng, self.num_topics, shape[2]),
        }

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        doc_topics, topic_items = self._stochastic

        def m_step(stats: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            return {
                doc_topics: normalize_rows(stats["theta_num"], self.smoothing),
                topic_items: normalize_rows(stats["phi_num"].T, self.smoothing),
            }

        return m_step

    def _store(self, state: dict[str, np.ndarray], cuboid: RatingCuboid) -> None:
        for name in self._stochastic:
            setattr(self, f"{name}_", state[name])
        self.background_ = self._background(cuboid)

    def _score(self, document: int) -> np.ndarray:
        """Background-smoothed item distribution of one document."""
        doc_topics, topic_items = (getattr(self, f"{name}_") for name in self._stochastic)
        if doc_topics is None:
            raise RuntimeError("model is not fitted; call fit() first")
        lam_b = self.background_weight
        return lam_b * self.background_ + (1 - lam_b) * (doc_topics[document] @ topic_items)

    def score_items(self, user: int, interval: int = 0) -> np.ndarray:
        """``P(v | u)`` for every item; the interval argument is ignored."""
        return self._score(user)
