"""Query construction and ranking scores (Section 4.1, Equations 21–23).

A temporal query ``q = (u, t)`` is expanded into the concatenated topic
space of ``K = K1 + K2`` dimensions: the query vector
``ϑ_q = ⟨λ_u·θ_u, (1−λ_u)·θ′_t⟩`` paired with the stacked topic–item
matrix ``ϕ``. The ranking score of item ``v`` is the inner product
``S(u,t,v) = Σ_z ϑ_q[z]·ϕ[z,v]`` — a monotone aggregation, which is what
licenses the Threshold Algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..typing import FloatArray, IntArray


@dataclass(frozen=True)
class QuerySpace:
    """One query's view of the expanded topic space.

    Attributes
    ----------
    weights:
        ``ϑ_q``, shape ``(K,)``; non-negative, sums to ~1 for TCAM models.
    item_matrix:
        ``ϕ``, shape ``(K, V)``; row ``z`` holds item weights on topic ``z``.
    """

    weights: FloatArray
    item_matrix: FloatArray

    def __post_init__(self) -> None:
        if self.weights.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if self.item_matrix.ndim != 2:
            raise ValueError("item_matrix must be two-dimensional")
        if self.weights.shape[0] != self.item_matrix.shape[0]:
            raise ValueError(
                f"weights have {self.weights.shape[0]} topics but the matrix "
                f"has {self.item_matrix.shape[0]} rows"
            )
        if np.any(self.weights < -1e-12):
            raise ValueError("query weights must be non-negative")

    @property
    def num_topics(self) -> int:
        """Number of topics ``K``."""
        return int(self.weights.shape[0])

    @property
    def num_items(self) -> int:
        """Number of items ``V``."""
        return int(self.item_matrix.shape[1])

    def score(self, item: int) -> float:
        """``S(u, t, v)`` for a single item (Equation 22)."""
        return float(self.weights @ self.item_matrix[:, item])

    def score_all(self) -> FloatArray:
        """``S(u, t, v)`` for every item at once."""
        result: FloatArray = self.weights @ self.item_matrix
        return result


@dataclass(frozen=True, slots=True)
class Recommendation:
    """One ranked recommendation."""

    item: int
    score: float


@dataclass
class TopKResult:
    """Outcome of one top-k retrieval, with access accounting.

    ``items_scored`` counts full ranking-score evaluations — the quantity
    the Threshold Algorithm minimises; for the float64 batch scorer it is
    every item of the blocks the row scored (padding aside), for int8
    the candidates its proven margin kept and it rescored exactly.
    ``sorted_accesses`` counts pops from the per-topic sorted lists (0
    for brute force).
    """

    recommendations: list[Recommendation]
    items_scored: int
    sorted_accesses: int = 0

    @property
    def items(self) -> list[int]:
        """Recommended item ids in rank order."""
        return [rec.item for rec in self.recommendations]

    @property
    def scores(self) -> list[float]:
        """Ranking scores aligned with :attr:`items`."""
        return [rec.score for rec in self.recommendations]

    def __len__(self) -> int:
        return len(self.recommendations)


def rank_order(
    scores: FloatArray, k: int, exclude: IntArray | None = None
) -> IntArray:
    """Deterministic top-k item ids for a dense score vector.

    Ties break toward the smaller item id so every retrieval engine in
    this package agrees on the result set exactly.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    if exclude is not None and len(exclude):
        scores = scores.copy()
        scores[np.asarray(exclude, dtype=np.int64)] = -np.inf
    k = min(k, scores.shape[0])
    # Lexicographic sort on (-score, item id) gives the deterministic order.
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    top = order[:k]
    return top[np.isfinite(scores[top])]
