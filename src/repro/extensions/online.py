"""Online folding-in for fitted TTCAM models.

Production recommenders cannot re-run full EM for every new user or every
new time interval. This extension adds the standard folding-in trick:
hold the shared topic–item distributions ``φ`` and ``φ′`` fixed and run a
few partial-EM iterations to estimate only the *local* parameters —

* :meth:`OnlineTTCAM.fold_in_user` — a new user's interest ``θ_u`` and
  mixing weight ``λ_u`` from that user's ratings;
* :meth:`OnlineTTCAM.fold_in_interval` — a new interval's temporal
  context ``θ′_t`` from the ratings observed during it.

This also addresses the paper's future-work note on time-evolving user
interests: re-folding a user on their recent window tracks drift without
retraining.

Streaming feeds these paths constantly, and real streams repeat and
reorder themselves (producer retries, out-of-order delivery), so both
fold-ins guard their inputs: duplicate ``(item, interval)`` /
``(user, item)`` events within one batch are deterministically coalesced
(scores summed, first-occurrence order preserved) and out-of-order
interval sequences are detected — each with a :class:`UserWarning` so
the condition is observable without crashing a serving path.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core.em import EPS
from ..core.params import TTCAMParameters
from ..core.ttcam import TTCAM
from ..typing import bit_deterministic


def _coalesce_duplicates(
    keys: tuple[np.ndarray, ...],
    scores: np.ndarray,
    what: str,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Deterministically merge duplicate events within one fold-in batch.

    ``keys`` are aligned id arrays whose tuples identify an event (e.g.
    ``(items, intervals)`` for a user fold-in). Duplicates are summed
    into one event — the same merge :meth:`RatingCuboid.coalesce`
    applies offline — keeping first-occurrence order so clean batches
    pass through bit-unchanged. Emits a :class:`UserWarning` naming the
    batch kind when anything was merged.
    """
    stacked = np.stack(keys)
    _, first, inverse = np.unique(
        stacked, axis=1, return_index=True, return_inverse=True
    )
    if first.size == stacked.shape[1]:
        return keys, scores
    order = np.argsort(first, kind="stable")  # unique groups, first-seen order
    summed = np.bincount(inverse, weights=scores, minlength=first.size)
    merged = int(stacked.shape[1] - first.size)
    warnings.warn(
        f"{what} batch contains {merged} duplicate event(s); "
        "coalesced deterministically (scores summed)",
        UserWarning,
        stacklevel=3,
    )
    return tuple(key[first[order]] for key in keys), summed[order]


def _warn_out_of_order(intervals: np.ndarray, what: str) -> None:
    """Warn when a batch's interval sequence runs backwards.

    Folding is order-independent, so the result is unaffected — but a
    stream delivering out-of-order intervals usually signals a misbehaving
    producer, which should be visible rather than silent.
    """
    if intervals.size > 1 and bool(np.any(np.diff(intervals) < 0)):
        warnings.warn(
            f"{what} batch has out-of-order intervals; folding is "
            "order-independent but the feed may be misordered",
            UserWarning,
            stacklevel=3,
        )


class OnlineTTCAM:
    """Incremental estimator around a fitted TTCAM model.

    Parameters
    ----------
    base:
        A fitted :class:`~repro.core.ttcam.TTCAM` (or its parameters).
    fold_iterations:
        Partial-EM iterations per folding-in call; a handful suffices
        because only a low-dimensional local parameter is estimated.
    """

    def __init__(self, base: TTCAM | TTCAMParameters, fold_iterations: int = 15) -> None:
        if fold_iterations <= 0:
            raise ValueError(f"fold_iterations must be positive, got {fold_iterations}")
        params = base.params_ if isinstance(base, TTCAM) else base
        if params is None:
            raise ValueError("base model is not fitted")
        self.params = params
        self.fold_iterations = fold_iterations

    @bit_deterministic
    def fold_in_user(
        self,
        items: np.ndarray,
        intervals: np.ndarray,
        scores: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """Estimate ``(θ_u, λ_u)`` for an unseen user from their ratings.

        ``items``/``intervals`` are aligned arrays of the new user's rating
        behaviors; ``scores`` defaults to implicit 1s. Global topics and
        all interval contexts stay fixed.

        A user with no ratings cannot be estimated; rather than crash a
        serving path, the cold-start prior is returned — uniform interests
        and ``λ_u = 0.5`` — with a :class:`UserWarning`.
        """
        items = np.asarray(items, dtype=np.int64)
        intervals = np.asarray(intervals, dtype=np.int64)
        if items.size == 0:
            warnings.warn(
                "new user has no ratings; returning the cold-start prior "
                "(uniform interests, lambda=0.5)",
                UserWarning,
                stacklevel=2,
            )
            k1 = self.params.num_user_topics
            return np.full(k1, 1.0 / k1), 0.5
        if items.shape != intervals.shape:
            raise ValueError("items and intervals must be aligned")
        if items.max() >= self.params.num_items or items.min() < 0:
            raise ValueError("item ids out of range of the fitted catalogue")
        if intervals.max() >= self.params.num_intervals or intervals.min() < 0:
            raise ValueError("interval ids out of range of the fitted model")
        c = (
            np.ones(items.size)
            if scores is None
            else np.asarray(scores, dtype=np.float64)
        )
        _warn_out_of_order(intervals, "user fold-in")
        (items, intervals), c = _coalesce_duplicates((items, intervals), c, "user fold-in")

        phi_v = self.params.phi[:, items].T  # (R, K1), fixed
        p_context = np.einsum(
            "rk,kr->r", self.params.theta_time[intervals], self.params.phi_time[:, items]
        )  # fixed per rating

        k1 = self.params.num_user_topics
        theta_u = np.full(k1, 1.0 / k1)
        lam = 0.5
        for _ in range(self.fold_iterations):
            joint_z = theta_u[None, :] * phi_v
            p_interest = joint_z.sum(axis=1)
            denom = lam * p_interest + (1 - lam) * p_context + EPS
            ps1 = lam * p_interest / denom
            resp_z = joint_z * (ps1 / (p_interest + EPS))[:, None]
            weighted = (c[:, None] * resp_z).sum(axis=0)
            total = weighted.sum()
            if total > 0:
                theta_u = weighted / total
            lam = float(np.clip(np.dot(c, ps1) / c.sum(), 0.0, 1.0))
        return theta_u, lam

    @bit_deterministic
    def fold_in_interval(
        self,
        users: np.ndarray,
        items: np.ndarray,
        scores: np.ndarray | None = None,
    ) -> np.ndarray:
        """Estimate ``θ′_t`` for a brand-new interval from its ratings.

        ``users``/``items`` are the rating behaviors observed during the
        new interval; user parameters and all topic–item distributions
        stay fixed. Returns the new interval's ``(K2,)`` context.

        An interval with no observed ratings yet (e.g. the first seconds
        of a new time slice) gets the uniform prior context with a
        :class:`UserWarning` instead of an exception.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            warnings.warn(
                "new interval has no ratings; returning the uniform prior context",
                UserWarning,
                stacklevel=2,
            )
            k2 = self.params.num_time_topics
            return np.full(k2, 1.0 / k2)
        if users.shape != items.shape:
            raise ValueError("users and items must be aligned")
        if users.max() >= self.params.num_users or users.min() < 0:
            raise ValueError("user ids out of range of the fitted model")
        if items.max() >= self.params.num_items or items.min() < 0:
            raise ValueError("item ids out of range of the fitted catalogue")
        c = (
            np.ones(items.size)
            if scores is None
            else np.asarray(scores, dtype=np.float64)
        )
        (users, items), c = _coalesce_duplicates((users, items), c, "interval fold-in")

        p_interest = np.einsum(
            "rk,kr->r", self.params.theta[users], self.params.phi[:, items]
        )  # fixed
        phi_time_v = self.params.phi_time[:, items].T  # (R, K2), fixed
        lam_r = self.params.lambda_u[users]

        k2 = self.params.num_time_topics
        theta_t = np.full(k2, 1.0 / k2)
        for _ in range(self.fold_iterations):
            joint_x = theta_t[None, :] * phi_time_v
            p_context = joint_x.sum(axis=1)
            denom = lam_r * p_interest + (1 - lam_r) * p_context + EPS
            ps0 = (1 - lam_r) * p_context / denom
            resp_x = joint_x * (ps0 / (p_context + EPS))[:, None]
            weighted = (c[:, None] * resp_x).sum(axis=0)
            total = weighted.sum()
            if total > 0:
                theta_t = weighted / total
        return theta_t

    def extend_with_interval(
        self,
        users: np.ndarray,
        items: np.ndarray,
        scores: np.ndarray | None = None,
    ) -> TTCAMParameters:
        """Return new parameters with one extra interval appended.

        The new interval's context is folded in from its ratings; all
        other parameters are shared with the base model.
        """
        theta_t = self.fold_in_interval(users, items, scores)
        self.params = self.params.with_fields(
            theta_time=np.vstack([self.params.theta_time, theta_t[None, :]])
        )
        return self.params

    def extend_with_user(
        self,
        items: np.ndarray,
        intervals: np.ndarray,
        scores: np.ndarray | None = None,
    ) -> TTCAMParameters:
        """Return new parameters with one extra user appended.

        The new user's ``(θ_u, λ_u)`` is folded in from their ratings
        (or the cold-start prior when they have none); every other
        parameter is shared with the base model. The streaming ingestor
        uses this to admit unseen user ids without a refit.
        """
        theta_u, lam = self.fold_in_user(items, intervals, scores)
        self.params = self.params.with_fields(
            theta=np.vstack([self.params.theta, theta_u[None, :]]),
            lambda_u=np.append(self.params.lambda_u, lam),
        )
        return self.params

    def score_new_user(
        self,
        items: np.ndarray,
        intervals: np.ndarray,
        query_interval: int,
        scores: np.ndarray | None = None,
    ) -> np.ndarray:
        """One-shot cold-start scoring: fold a user in, then rank items."""
        theta_u, lam = self.fold_in_user(items, intervals, scores)
        interest = theta_u @ self.params.phi
        context = self.params.theta_time[query_interval] @ self.params.phi_time
        return lam * interest + (1 - lam) * context
