"""Online folding-in for fitted TTCAM models.

Production recommenders cannot re-run full EM for every new user or every
new time interval. Folding-in holds the shared topic–item distributions
``φ`` and ``φ′`` fixed and runs a few partial-EM iterations to estimate
only *local* parameters. It is one more EM declaration: :class:`FoldIn`
is TTCAM's, over a chunk of rating events compacted into a tiny cuboid,
with an E-step (:class:`FoldInKernel`) that computes only the free
side's counts, and :func:`fold_in` runs it through the unmodified
:meth:`~repro.core.model.EMModel.fit`. One side of the chunk is free —
its users' ``θ_u`` and ``λ_u``, or its intervals' ``θ′_t`` — and
everything else is held.

* :meth:`OnlineTTCAM.fold_in_user` — a new user's interest ``θ_u`` and
  mixing weight ``λ_u`` from that user's ratings (a chunk of one user);
* :meth:`OnlineTTCAM.fold_in_interval` — a new interval's temporal
  context ``θ′_t`` from the ratings observed during it (a chunk of one
  interval);
* :class:`~repro.streaming.ingestor.StreamIngestor` folds a whole
  micro-batch in at most three passes.

This also addresses the paper's future-work note on time-evolving user
interests: re-folding a user on their recent window tracks drift without
retraining.

Streams repeat and reorder themselves (producer retries, out-of-order
delivery), so duplicate ``(user, interval, item)`` events within one
chunk are coalesced (scores summed, first-occurrence order kept) and a
user whose intervals run backwards within a chunk is detected — each with a
:class:`UserWarning`, so the condition is observable without crashing a
serving path. Scores enter through
:class:`~repro.data.cuboid.RatingCuboid`, which refuses NaN, infinite and
non-positive ones.
"""

from __future__ import annotations

import warnings
from typing import Mapping

import numpy as np

from ..core.em import EPS, ScatterPlan, scatter_sum_1d
from ..core.engine import EStep, _Kernel
from ..core.model import MStep
from ..core.params import TTCAMParameters
from ..core.ttcam import TTCAM, TTCAMDeclaration
from ..data.cuboid import RatingCuboid
from ..typing import RNG, ArrayState, FloatArray, IntArray, Workspace, bit_deterministic

#: The free side of a fold-in -> its name in warnings and the fields it frees.
_SIDES = {"theta": ("user", ("theta", "lambda_u")), "theta_time": ("interval", ("theta_time",))}


def _columns(matrix: FloatArray, items: IntArray) -> FloatArray:
    """``matrix``'s columns at ``items`` plus one holding each row's remaining mass."""
    gathered = matrix[:, items]
    rest = np.maximum(1.0 - gathered.sum(axis=1, keepdims=True), 0.0)
    return np.hstack([gathered, rest])


def _warn_out_of_order(users: IntArray, intervals: IntArray) -> None:
    """Warn when one user's intervals run backwards within a chunk.

    Folding is order-independent, so the result is unaffected — but a
    feed that runs backwards usually signals a misbehaving producer,
    which should be visible rather than silent.
    """
    order = np.argsort(users, kind="stable")
    same_user = users[order][1:] == users[order][:-1]
    if bool(np.any(same_user & (np.diff(intervals[order]) < 0))):
        warnings.warn(
            "user fold-in batch has out-of-order intervals; folding is "
            "order-independent but the feed may be misordered",
            UserWarning,
            stacklevel=4,
        )


def _first_occurrence(events: RatingCuboid, side: str) -> RatingCuboid:
    """``events`` with duplicate ``(u, t, v)`` merged (scores summed).

    Unlike :meth:`RatingCuboid.coalesce`, rows keep the order of each
    coordinate's first occurrence, so a chunk without duplicates passes
    through unchanged and every row's counts are summed in event order.
    """
    _, t_dim, v_dim = events.shape
    keys = (events.users * t_dim + events.intervals) * v_dim + events.items
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == keys.size:
        return events
    warnings.warn(
        f"{side} fold-in batch contains {keys.size - first.size} duplicate "
        "event(s); coalesced deterministically (scores summed)",
        UserWarning,
        stacklevel=4,
    )
    order = np.argsort(first, kind="stable")
    rows = first[order]
    scores = np.bincount(group, weights=events.scores, minlength=first.size)[order]
    return RatingCuboid(
        events.users[rows], events.intervals[rows], events.items[rows], scores, *events.shape
    )


class FoldInKernel(_Kernel):
    """Fold-in's E-step: the free side's counts, with the held side fixed.

    Per event, the held side's probability — ``P(v | θ′_t)`` when the
    users are free, ``P(v | θ_u)`` when the intervals are — is read from
    the state, and the free side's own branch of Eq. 4 weights its
    responsibilities: ``P(s=1) = λ·P_int/den`` for users (with the ``λ``
    numerator of Eq. 11), ``P(s=0) = (1−λ)·P_ctx/den`` for intervals.
    Each expression, and the order its terms are combined in, is the one
    fold-in has always used, so a pass lands on the same bits as the
    one-user and one-interval loops it replaced.
    """

    def __init__(self, cuboid: RatingCuboid, free: str, topics: int) -> None:
        super().__init__(cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores)
        self.free = free
        self.topics = topics
        self.rows, self.num_rows = (
            (self.u, cuboid.num_users) if free == "theta" else (self.t, cuboid.num_intervals)
        )

    def _block_plans(self, lo: int, hi: int) -> tuple[ScatterPlan, ...]:
        """The block's scatter into the free side's rows."""
        return (ScatterPlan(self.rows[lo:hi], self.num_rows),)

    def stat_arrays(self) -> ArrayState:
        """Zeroed counts of the free side (and, for users, the λ numerator)."""
        stats = {f"{self.free}_num": np.zeros((self.num_rows, self.topics))}
        if self.free == "theta":
            stats["lam_num"] = np.zeros(self.num_rows)
        return stats

    def make_workspace(self, capacity: int) -> Workspace:
        """No preallocated buffers: each block's expressions allocate their own."""
        return {}

    def accumulate(
        self, state: ArrayState, lo: int, hi: int, ws: Workspace, stats: ArrayState
    ) -> float:
        """Fold rows ``[lo, hi)`` into ``stats``; return the block's LL."""
        u, t, v, c = self.u[lo:hi], self.t[lo:hi], self.v[lo:hi], self.c[lo:hi]
        (by_row,) = self._plans[lo, hi]
        lam_r = state["lambda_u"][u]
        if self.free == "theta":
            joint = state["theta"][u] * state["phi"][:, v].T
            p_interest = p_free = joint.sum(axis=1)
            p_context = np.einsum("rk,kr->r", state["theta_time"][t], state["phi_time"][:, v])
            den = lam_r * p_interest + (1 - lam_r) * p_context + EPS
            share = lam_r * p_interest / den  # P(s=1), Eq. 4
            scatter_sum_1d(u, c * share, self.num_rows, out=stats["lam_num"])
        else:
            joint = state["theta_time"][t] * state["phi_time"][:, v].T
            p_context = p_free = joint.sum(axis=1)
            p_interest = np.einsum("rk,kr->r", state["theta"][u], state["phi"][:, v])
            den = lam_r * p_interest + (1 - lam_r) * p_context + EPS
            share = (1 - lam_r) * p_context / den  # P(s=0)
        resp = joint * (share / (p_free + EPS))[:, None]
        by_row.sum(c[:, None] * resp, out=stats[f"{self.free}_num"])
        return float(np.dot(c, np.log(den)))


class FoldIn(TTCAMDeclaration):
    """Fold-in as a declaration: partial EM over one chunk's cuboid.

    The chunk's cuboid is renumbered: its user ``i`` is global user
    ``ids[0][i]``, and likewise for intervals (``ids[1]``) and items
    (``ids[2]``); its last item stands for every item the chunk does not
    rate, so the gathered ``φ``/``φ′`` rows stay distributions. The state
    is the chunk's rows of ``θ``/``λ``/``θ′`` and columns of ``φ``/``φ′``,
    so an iteration costs O(R·K) whatever the catalogue size.

    ``free`` names the side the pass estimates: ``"theta"`` (``θ`` and
    ``λ`` of the chunk's users) or ``"theta_time"`` (``θ′`` of its
    intervals). It starts at the prior (uniform, ``λ = 0.5``); every other
    array is ``fields``' and stays fixed. The E-step is
    :class:`FoldInKernel`. The M-step normalises a free row whose count
    total is positive and keeps the previous row when the total is
    exactly 0. ``tol=-inf`` runs exactly ``iterations`` iterations.
    """

    _model = "fold-in"

    def __init__(
        self,
        fields: Mapping[str, FloatArray],
        free: str,
        ids: tuple[IntArray, IntArray, IntArray],
        iterations: int,
    ) -> None:
        k1, k2 = fields["theta"].shape[1], fields["theta_time"].shape[1]
        super().__init__(k1, k2, iterations, tol=-np.inf, smoothing=0.0, seed=0)
        self.fields = fields
        self.free = free
        self.ids = ids
        self.state_: ArrayState = {}

    def _kernel(self, cuboid: RatingCuboid) -> FoldInKernel:
        users_free = self.free == "theta"
        topics = self.num_user_topics if users_free else self.num_time_topics
        return FoldInKernel(cuboid, self.free, topics)

    def _init_state(self, rng: RNG, shape: tuple[int, int, int]) -> ArrayState:
        users, intervals, items = self.ids
        n, t_dim, _ = shape
        k1, k2 = self.num_user_topics, self.num_time_topics
        users_free = self.free == "theta"
        held = self.fields
        return {
            "theta": np.full((n, k1), 1.0 / k1) if users_free else held["theta"][users],
            "phi": _columns(held["phi"], items),
            "theta_time": (
                held["theta_time"][intervals] if users_free else np.full((t_dim, k2), 1.0 / k2)
            ),
            "phi_time": _columns(held["phi_time"], items),
            "lambda_u": np.full(n, 0.5) if users_free else held["lambda_u"][users],
        }

    def _build_estep(self, cuboid: RatingCuboid) -> tuple[EStep, dict[str, object]]:
        compute, grid = super()._build_estep(cuboid)

        def estep(state: ArrayState) -> tuple[ArrayState, float]:
            """The free side's statistics, plus the state they were computed on."""
            stats, log_likelihood = compute(state)
            return stats | state, log_likelihood

        return estep, grid

    def _m_step(self, cuboid: RatingCuboid) -> MStep:
        mass = scatter_sum_1d(cuboid.users, cuboid.scores, cuboid.num_users)

        def m_step(stats: ArrayState) -> ArrayState:
            state = {name: stats[name] for name in self._stochastic + self._unit_interval}
            counts = stats[f"{self.free}_num"]
            total = counts.sum(axis=1, keepdims=True)
            live = total > 0
            state[self.free] = np.where(live, counts / np.where(live, total, 1.0), state[self.free])
            if self.free == "theta":
                state["lambda_u"] = np.clip(stats["lam_num"] / mass, 0.0, 1.0)  # Eq. 11
            return state

        return m_step

    def _store(self, state: ArrayState, cuboid: RatingCuboid) -> None:
        self.state_ = state


@bit_deterministic
def fold_in(
    fields: Mapping[str, FloatArray],
    free: str,
    iterations: int,
    users: IntArray,
    intervals: IntArray,
    items: IntArray,
    scores: FloatArray,
) -> tuple[IntArray, ArrayState]:
    """One partial-EM pass over a chunk of events (see :class:`FoldIn`).

    ``fields`` are the TTCAM parameter arrays by name, ``free`` the side
    to estimate, and the four aligned columns the chunk in global ids.
    Returns the free side's global ids — the chunk's distinct users or
    intervals, ascending — and their estimated rows: ``theta`` and
    ``lambda_u``, or ``theta_time``. Columns that are not aligned, or ids
    outside ``fields``, are a :class:`ValueError`.
    """
    columns = {"user": users, "interval": intervals, "item": items}
    if len({column.shape for column in columns.values()} | {np.shape(scores)}) != 1:
        raise ValueError("users, intervals, items and scores must be aligned")
    bounds = fields["theta"].shape[0], fields["theta_time"].shape[0], fields["phi"].shape[1]
    for (name, column), bound in zip(columns.items(), bounds):
        if np.any((column < 0) | (column >= bound)):
            raise ValueError(f"{name} ids out of range of the fitted model")
    (user_ids, u), (interval_ids, t), (item_ids, v) = (
        np.unique(column, return_inverse=True) for column in columns.values()
    )
    side, names = _SIDES[free]
    events = RatingCuboid(u, t, v, scores, user_ids.size, interval_ids.size, item_ids.size + 1)
    if free == "theta":
        _warn_out_of_order(u, t)
    chunk = _first_occurrence(events, side)
    fitted = FoldIn(fields, free, (user_ids, interval_ids, item_ids), iterations).fit(chunk)
    ids = user_ids if free == "theta" else interval_ids
    return ids, {name: fitted.state_[name] for name in names}


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
        c = np.ones(items.size) if scores is None else np.asarray(scores, dtype=np.float64)
        args = np.zeros_like(items), intervals, items, c
        _, rows = fold_in(self.params.arrays(), "theta", self.fold_iterations, *args)
        return rows["theta"][0], float(rows["lambda_u"][0])

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
        c = np.ones(items.size) if scores is None else np.asarray(scores, dtype=np.float64)
        args = users, np.zeros_like(users), items, c
        _, rows = fold_in(self.params.arrays(), "theta_time", self.fold_iterations, *args)
        return rows["theta_time"][0]

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
        parameter is shared with the base model.
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
