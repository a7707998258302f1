"""The rating cuboid (Definition 3): a sparse ``N × T × V`` tensor.

``C[u, t, v]`` stores the score user ``u`` assigned to item ``v`` during
interval ``t``. Real rating data is extremely sparse, so the cuboid is kept
in coordinate (COO) form: four aligned arrays ``users``, ``intervals``,
``items`` and ``scores``. All model code (EM inference, weighting,
baselines) consumes this representation directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .events import Rating
from .indexer import Indexer


@dataclass
class RatingCuboid:
    """Sparse user–time–item rating tensor in coordinate form.

    The four coordinate arrays are aligned: entry ``i`` says that user
    ``users[i]`` rated item ``items[i]`` during interval ``intervals[i]``
    with score ``scores[i]``. Duplicate ``(u, t, v)`` coordinates are
    allowed on construction and merged (scores summed) by
    :meth:`coalesce`, which the factory constructors call for you.

    Attributes
    ----------
    users, intervals, items:
        ``int64`` coordinate arrays.
    scores:
        ``float64`` score array (finite and positive).
    num_users, num_intervals, num_items:
        Dimensions ``N``, ``T``, ``V`` of the (conceptual) dense tensor.
    user_index, item_index:
        Optional label maps back to external ids.
    """

    users: np.ndarray
    intervals: np.ndarray
    items: np.ndarray
    scores: np.ndarray
    num_users: int
    num_intervals: int
    num_items: int
    user_index: Indexer | None = field(default=None, repr=False)
    item_index: Indexer | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.users = np.asarray(self.users, dtype=np.int64)
        self.intervals = np.asarray(self.intervals, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        lengths = {
            self.users.size,
            self.intervals.size,
            self.items.size,
            self.scores.size,
        }
        if len(lengths) != 1:
            raise ValueError(f"coordinate arrays have mismatched lengths: {lengths}")
        if self.users.size:
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise ValueError("user ids out of range")
            if self.intervals.min() < 0 or self.intervals.max() >= self.num_intervals:
                raise ValueError("interval ids out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise ValueError("item ids out of range")
            # Written so NaN fails too: every comparison with it is False.
            if not np.all((self.scores > 0) & (self.scores < np.inf)):
                raise ValueError("scores must be finite and positive")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_ratings(
        cls,
        ratings: Iterable[Rating],
        user_index: Indexer | None = None,
        item_index: Indexer | None = None,
        num_intervals: int | None = None,
    ) -> "RatingCuboid":
        """Build a coalesced cuboid from :class:`~repro.data.events.Rating`
        records, assigning dense ids in first-seen order.

        Pass pre-built indexers to pin the id assignment (e.g. to share a
        vocabulary between a train and a test cuboid).
        """
        user_index = user_index if user_index is not None else Indexer()
        item_index = item_index if item_index is not None else Indexer()
        users: list[int] = []
        intervals: list[int] = []
        items: list[int] = []
        scores: list[float] = []
        for rating in ratings:
            users.append(user_index.add(rating.user))
            intervals.append(rating.interval)
            items.append(item_index.add(rating.item))
            scores.append(rating.score)
        max_interval = (max(intervals) + 1) if intervals else 0
        resolved_t = num_intervals if num_intervals is not None else max_interval
        if resolved_t < max_interval:
            raise ValueError(
                f"num_intervals={resolved_t} too small for max interval "
                f"{max_interval - 1}"
            )
        cuboid = cls(
            users=np.array(users, dtype=np.int64),
            intervals=np.array(intervals, dtype=np.int64),
            items=np.array(items, dtype=np.int64),
            scores=np.array(scores, dtype=np.float64),
            num_users=len(user_index),
            num_intervals=resolved_t,
            num_items=len(item_index),
            user_index=user_index,
            item_index=item_index,
        )
        return cuboid.coalesce()

    @classmethod
    def from_arrays(
        cls,
        users: Sequence[int],
        intervals: Sequence[int],
        items: Sequence[int],
        scores: Sequence[float] | None = None,
        num_users: int | None = None,
        num_intervals: int | None = None,
        num_items: int | None = None,
    ) -> "RatingCuboid":
        """Build a coalesced cuboid from raw integer coordinate arrays.

        Dimensions default to ``max + 1`` of each coordinate array.
        """
        users_arr = np.asarray(users, dtype=np.int64)
        intervals_arr = np.asarray(intervals, dtype=np.int64)
        items_arr = np.asarray(items, dtype=np.int64)
        if scores is None:
            scores_arr = np.ones(users_arr.size, dtype=np.float64)
        else:
            scores_arr = np.asarray(scores, dtype=np.float64)

        def _dim(explicit: int | None, coords: np.ndarray) -> int:
            inferred = int(coords.max()) + 1 if coords.size else 0
            return inferred if explicit is None else explicit

        cuboid = cls(
            users=users_arr,
            intervals=intervals_arr,
            items=items_arr,
            scores=scores_arr,
            num_users=_dim(num_users, users_arr),
            num_intervals=_dim(num_intervals, intervals_arr),
            num_items=_dim(num_items, items_arr),
        )
        return cuboid.coalesce()

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored (coalesced) entries."""
        return int(self.users.size)

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(N, T, V)`` dense shape."""
        return (self.num_users, self.num_intervals, self.num_items)

    @property
    def total_score(self) -> float:
        """Sum of all stored scores."""
        return float(self.scores.sum())

    def density(self) -> float:
        """Fraction of the dense tensor that is non-zero."""
        cells = self.num_users * self.num_intervals * self.num_items
        return self.nnz / cells if cells else 0.0

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:
        return (
            f"RatingCuboid(N={self.num_users}, T={self.num_intervals}, "
            f"V={self.num_items}, nnz={self.nnz})"
        )

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------

    def coalesce(self) -> "RatingCuboid":
        """Merge duplicate ``(u, t, v)`` coordinates by summing scores.

        Also sorts entries lexicographically by ``(u, t, v)``, which later
        code relies on for reproducible iteration order.
        """
        if self.nnz == 0:
            return self
        keys = (
            self.users * (self.num_intervals * self.num_items)
            + self.intervals * self.num_items
            + self.items
        )
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        merged_scores = np.bincount(
            inverse, weights=self.scores[order], minlength=unique_keys.size
        )
        tv = self.num_intervals * self.num_items
        return RatingCuboid(
            users=unique_keys // tv,
            intervals=(unique_keys % tv) // self.num_items,
            items=unique_keys % self.num_items,
            scores=merged_scores,
            num_users=self.num_users,
            num_intervals=self.num_intervals,
            num_items=self.num_items,
            user_index=self.user_index,
            item_index=self.item_index,
        )

    def with_scores(self, scores: np.ndarray) -> "RatingCuboid":
        """Return a copy of this cuboid with replaced scores.

        Used by the item-weighting scheme (Equation 20 of the paper), which
        rescales every entry without touching the coordinates.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != self.scores.shape:
            raise ValueError(
                f"scores shape {scores.shape} != {self.scores.shape}"
            )
        return RatingCuboid(
            users=self.users,
            intervals=self.intervals,
            items=self.items,
            scores=scores,
            num_users=self.num_users,
            num_intervals=self.num_intervals,
            num_items=self.num_items,
            user_index=self.user_index,
            item_index=self.item_index,
        )

    def select(self, mask: np.ndarray) -> "RatingCuboid":
        """Return the sub-cuboid of entries where ``mask`` is True.

        Dimensions and id assignment are preserved (no re-indexing), so the
        result is directly comparable with the original — this is what the
        train/test splitter uses.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.users.shape:
            raise ValueError("mask length must match nnz")
        return RatingCuboid(
            users=self.users[mask],
            intervals=self.intervals[mask],
            items=self.items[mask],
            scores=self.scores[mask],
            num_users=self.num_users,
            num_intervals=self.num_intervals,
            num_items=self.num_items,
            user_index=self.user_index,
            item_index=self.item_index,
        )

    def coarsen_intervals(self, factor: int) -> "RatingCuboid":
        """Merge every ``factor`` consecutive intervals into one.

        Implements the Table-3 interval-length sweep: a cuboid built at
        1-day granularity coarsened with ``factor=3`` behaves like a 3-day
        granularity cuboid.
        """
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        new_t = -(-self.num_intervals // factor)  # ceil division
        merged = RatingCuboid(
            users=self.users,
            intervals=self.intervals // factor,
            items=self.items,
            scores=self.scores,
            num_users=self.num_users,
            num_intervals=new_t,
            num_items=self.num_items,
            user_index=self.user_index,
            item_index=self.item_index,
        )
        return merged.coalesce()

    def to_dense(self) -> np.ndarray:
        """Materialise the dense ``(N, T, V)`` tensor (small data only)."""
        cells = self.num_users * self.num_intervals * self.num_items
        if cells > 50_000_000:
            raise MemoryError(
                f"refusing to densify a cuboid with {cells} cells"
            )
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, (self.users, self.intervals, self.items), self.scores)
        return dense

    # ------------------------------------------------------------------
    # aggregate statistics (used by the weighting scheme and analyses)
    # ------------------------------------------------------------------

    def item_user_counts(self) -> np.ndarray:
        """``N(v)``: number of distinct users who rated each item."""
        if self.nnz == 0:
            return np.zeros(self.num_items, dtype=np.int64)
        pairs = np.unique(self.items * self.num_users + self.users)
        counts = np.bincount(pairs // self.num_users, minlength=self.num_items)
        return counts.astype(np.int64)

    def item_interval_user_counts(self) -> np.ndarray:
        """``N_t(v)``: distinct users rating item ``v`` during ``t``.

        Returns a dense ``(T, V)`` integer matrix.
        """
        counts = np.zeros((self.num_intervals, self.num_items), dtype=np.int64)
        if self.nnz == 0:
            return counts
        # Entries are already coalesced, so each (u, t, v) appears once.
        np.add.at(counts, (self.intervals, self.items), 1)
        return counts

    def interval_user_counts(self) -> np.ndarray:
        """``N_t``: number of distinct active users per interval."""
        counts = np.zeros(self.num_intervals, dtype=np.int64)
        if self.nnz == 0:
            return counts
        pairs = np.unique(self.intervals * self.num_users + self.users)
        np.add.at(counts, pairs // self.num_users, 1)
        return counts

    def user_activity(self) -> np.ndarray:
        """``M_u``: number of stored entries per user."""
        return np.bincount(self.users, minlength=self.num_users).astype(np.int64)

    def item_popularity(self) -> np.ndarray:
        """Total score mass per item."""
        return np.bincount(
            self.items, weights=self.scores, minlength=self.num_items
        )

    def interval_item_matrix(self) -> np.ndarray:
        """Dense ``(T, V)`` matrix of score mass per interval and item."""
        matrix = np.zeros((self.num_intervals, self.num_items), dtype=np.float64)
        if self.nnz:
            np.add.at(matrix, (self.intervals, self.items), self.scores)
        return matrix

    def user_item_pairs(self) -> set[tuple[int, int]]:
        """The set of observed ``(user, item)`` pairs (any interval)."""
        return set(zip(self.users.tolist(), self.items.tolist()))

    def entries_of_user(self, user: int) -> np.ndarray:
        """Indices of the stored entries belonging to ``user``."""
        return np.flatnonzero(self.users == user)

    def entries_of_interval(self, interval: int) -> np.ndarray:
        """Indices of the stored entries belonging to ``interval``."""
        return np.flatnonzero(self.intervals == interval)

    def items_of_user_interval(self, user: int, interval: int) -> np.ndarray:
        """Item ids rated by ``user`` during ``interval``."""
        mask = (self.users == user) & (self.intervals == interval)
        return self.items[mask]
