"""Threshold-Algorithm top-k retrieval (Section 4.2, Algorithm 1).

The ranking score ``S(u,t,v) = Σ_z ϑ_q[z]·ϕ[z,v]`` is a monotone
aggregation over per-topic item weights, so Fagin's Threshold Algorithm
applies: pre-sort each topic's items by weight, walk the lists from the
top, and stop as soon as the k-th best score found exceeds the largest
score any unexamined item could still reach (Equation 23).

Three engines are provided:

* :func:`ta_topk` — the paper's Algorithm 1: a priority queue over lists
  keyed by the *full ranking score of each list's front item*, popping
  from the most promising list first. The bitwise oracle of the batch
  scorer (``TemporalRecommender.recommend(..., method="ta")``).
* :func:`classic_ta_topk` — textbook round-robin TA (Fagin, Lotem &
  Naor), the baseline of the TA-variants ablation.
* :func:`batched_ta_topk` — Fig. 8's timed engine: identical threshold
  semantics, but sorted access proceeds in vectorised blocks so the
  per-item cost is a numpy kernel rather than interpreted Python. Still
  exact; examines at most one extra block per termination check.

All return exactly the brute-force top-k scores; the accompanying
:class:`~repro.recommend.ranking.TopKResult` reports how much of the
catalogue was actually scored. They are reference implementations of
Section 4.2: served queries go through
:mod:`repro.recommend.serving`, and only ``ta_topk`` is reachable from
the recommender (per call); the other two are imported directly by the
Fig. 8 benchmark and the ablation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..typing import FloatArray, IntArray
from .ranking import QuerySpace, Recommendation, TopKResult


class _QueryScratch:
    """Reusable per-query working buffers for one ``SortedTopicLists``.

    The TA engines used to allocate list cursors, membership sets and
    seen-arrays on every call; for repeated single-query serving those
    allocations dominate small-``k`` latency. Each engine now borrows
    these buffers and resets only what it uses at entry (an ``O(V+K)``
    fill, far cheaper than fresh allocation). Consequently queries
    against one ``SortedTopicLists`` are **not re-entrant** and not
    thread-safe — use one index (or an explicit copy) per thread.
    """

    def __init__(self, num_topics: int, num_items: int) -> None:
        self.positions = np.zeros(num_topics, dtype=np.int64)
        self.front_values = np.empty(num_topics, dtype=np.float64)
        self.exhausted = np.zeros(num_topics, dtype=bool)
        self.in_result = np.zeros(num_items, dtype=bool)
        self.excluded = np.zeros(num_items, dtype=bool)
        self.seen = np.zeros(num_items, dtype=bool)


@dataclass
class SortedTopicLists:
    """Pre-computed per-topic sorted item lists (the offline step).

    ``order[z]`` holds item ids sorted by descending topic weight
    ``ϕ[z, v]``; ``values[z]`` holds the weights in the same order. Built
    once per topic–item matrix and shared across all queries.

    ``item_topic`` stores the transposed ``(V, K)`` matrix contiguously,
    so the random-access full-score computation of one item is a single
    cache-friendly row dot product instead of a strided column gather.
    """

    order: IntArray  # (K, V) item ids, descending weight
    values: FloatArray  # (K, V) weights, descending
    item_topic: FloatArray  # (V, K) contiguous transpose for random access
    _scratch: "_QueryScratch | None" = field(default=None, repr=False, compare=False)

    @classmethod
    def build(cls, item_matrix: FloatArray) -> "SortedTopicLists":
        """Sort every topic's items by weight (ties to smaller item id).

        One stable argsort of the negated matrix over axis 1: stability
        makes equal weights keep their original (ascending item-id)
        order, exactly like the per-topic ``lexsort((ids, -row))`` it
        replaces — but as a single vectorised kernel over all topics.
        """
        order = np.argsort(-item_matrix, axis=1, kind="stable").astype(
            np.int64, copy=False
        )
        values = np.take_along_axis(item_matrix, order, axis=1)
        item_topic = np.ascontiguousarray(item_matrix.T)
        return cls(order=order, values=values, item_topic=item_topic)

    @property
    def num_topics(self) -> int:
        """Number of topics ``K``."""
        return self.order.shape[0]

    @property
    def num_items(self) -> int:
        """Number of items ``V``."""
        return self.order.shape[1]

    def scratch(self) -> _QueryScratch:
        """The lazily created, reused per-query scratch buffers."""
        if self._scratch is None:
            self._scratch = _QueryScratch(self.num_topics, self.num_items)
        return self._scratch


class _ResultHeap:
    """Bounded min-heap of the best k (score, item) pairs seen so far.

    Orders by ``(score, -item)`` so ties resolve toward smaller item ids,
    matching the deterministic brute-force ranking. Membership is tracked
    in a caller-provided ``(V,)`` boolean array (pre-cleared by the
    caller) so repeated queries reuse one buffer instead of building a
    fresh set per call.
    """

    def __init__(self, k: int, members: IntArray) -> None:
        self.k = k
        self._heap: list[tuple[float, int]] = []  # (score, -item)
        self._members = members

    def __contains__(self, item: int) -> bool:
        return bool(self._members[item])

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def kth_score(self) -> float:
        """Score of the current worst member (−inf while not full)."""
        if len(self._heap) < self.k:
            return -np.inf
        return self._heap[0][0]

    def offer(self, item: int, score: float) -> None:
        """Insert ``item`` if it beats the current worst member."""
        if self._members[item]:
            return
        entry = (score, -item)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            self._members[item] = True
        elif entry > self._heap[0]:
            evicted = heapq.heappushpop(self._heap, entry)
            self._members[-evicted[1]] = False
            self._members[item] = True

    def ranked(self) -> list[Recommendation]:
        """Members best-first."""
        ordered = sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        return [Recommendation(item=-neg_item, score=score) for score, neg_item in ordered]


def _prepare(query: QuerySpace, lists: SortedTopicLists, k: int) -> None:
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if lists.num_topics != query.num_topics:
        raise ValueError(
            f"lists were built for {lists.num_topics} topics, query has "
            f"{query.num_topics}"
        )


def ta_topk(
    query: QuerySpace,
    lists: SortedTopicLists,
    k: int,
    exclude: IntArray | None = None,
) -> TopKResult:
    """The paper's Algorithm 1: priority-queue-driven Threshold Algorithm.

    Maintains a max-priority queue over the K sorted lists keyed by the
    full ranking score of each list's front item; repeatedly consumes the
    most promising front item, and stops when the k-th best found score
    strictly exceeds the threshold ``S_Ta = Σ_z ϑ_q[z]·max_{v∈L_z} ϕ[z,v]``
    (Equation 23) — the best score any unexamined item could achieve.
    """
    _prepare(query, lists, k)
    scratch = lists.scratch()
    excluded = scratch.excluded
    excluded.fill(False)
    if exclude is not None and len(exclude):
        excluded[np.asarray(exclude, dtype=np.int64)] = True
    weights = query.weights
    item_topic = lists.item_topic  # (V, K): contiguous random access
    num_topics, num_items = lists.num_topics, lists.num_items

    positions = scratch.positions  # cursor per list
    positions.fill(0)
    front_values = scratch.front_values
    np.copyto(front_values, lists.values[:, 0])
    score_cache: dict[int, float] = {}
    sorted_accesses = 0

    def full_score(item: int) -> float:
        cached = score_cache.get(item)
        if cached is None:
            cached = float(item_topic[item] @ weights)
            score_cache[item] = cached
        return cached

    # Priority queue of (negated front-item score, list id); lines 2–6.
    pq: list[tuple[float, int]] = []
    for z in range(num_topics):
        item = int(lists.order[z, 0])
        heapq.heappush(pq, (-full_score(item), z))
    threshold = float(weights @ front_values)  # Equation 23, line 7

    scratch.in_result.fill(False)
    result = _ResultHeap(k, scratch.in_result)
    while pq:
        _neg_score, z = heapq.heappop(pq)  # lines 9–10
        item = int(lists.order[z, positions[z]])  # lines 11–12
        positions[z] += 1
        sorted_accesses += 1

        if item not in result and not excluded[item]:  # line 13
            if len(result) < k:  # lines 14–16
                result.offer(item, full_score(item))
            else:
                if result.kth_score > threshold:  # lines 18–21: terminate
                    break
                result.offer(item, full_score(item))  # lines 22–25

        if positions[z] < num_items:  # lines 28–33
            next_item = int(lists.order[z, positions[z]])
            heapq.heappush(pq, (-full_score(next_item), z))
            front_values[z] = lists.values[z, positions[z]]
            threshold = float(weights @ front_values)
        else:  # lines 34–36
            break

    return TopKResult(
        recommendations=result.ranked(),
        items_scored=len(score_cache),
        sorted_accesses=sorted_accesses,
    )


def batched_ta_topk(
    query: QuerySpace,
    lists: SortedTopicLists,
    k: int,
    exclude: IntArray | None = None,
    block: int = 256,
) -> TopKResult:
    """Block-vectorised Threshold Algorithm (exact, production engine).

    Keeps Algorithm 1's access strategy — always read from the list whose
    remaining items can contribute the most — but consumes ``block``
    items of that list per step with one vectorised score computation.
    The threshold check runs between blocks, so at most one block of
    extra sorted accesses is performed compared to the item-at-a-time
    engine; the returned top-k is exactly the brute-force top-k.
    """
    _prepare(query, lists, k)
    scratch = lists.scratch()
    weights = query.weights
    item_topic = lists.item_topic
    num_topics, num_items = lists.num_topics, lists.num_items

    seen = scratch.seen
    seen.fill(False)
    if exclude is not None and len(exclude):
        seen[np.asarray(exclude, dtype=np.int64)] = True

    positions = scratch.positions
    positions.fill(0)
    front_values = scratch.front_values
    np.copyto(front_values, lists.values[:, 0])
    exhausted = scratch.exhausted
    exhausted.fill(False)

    # Running top-k candidate pool: item ids and their exact scores.
    pool_items = np.empty(0, dtype=np.int64)
    pool_scores = np.empty(0, dtype=np.float64)
    items_scored = 0
    sorted_accesses = 0

    while not exhausted.all():
        contributions = np.where(exhausted, -np.inf, weights * front_values)
        z = int(np.argmax(contributions))
        start = positions[z]
        stop = min(start + block, num_items)
        ids = lists.order[z, start:stop]
        sorted_accesses += ids.size
        positions[z] = stop
        if stop >= num_items:
            exhausted[z] = True
        else:
            front_values[z] = lists.values[z, stop]

        fresh = ids[~seen[ids]]
        if fresh.size:
            seen[fresh] = True
            scores = item_topic[fresh] @ weights
            items_scored += fresh.size
            pool_items = np.concatenate([pool_items, fresh])
            pool_scores = np.concatenate([pool_scores, scores])
            if pool_items.size > 4 * max(k, block):
                keep = np.argpartition(-pool_scores, k - 1)[: max(k, 1)]
                pool_items, pool_scores = pool_items[keep], pool_scores[keep]

        if pool_items.size >= k:
            threshold = float(weights @ np.where(exhausted, 0.0, front_values))
            kth = np.partition(pool_scores, pool_scores.size - k)[
                pool_scores.size - k
            ]
            if kth > threshold:
                break

    top = rank_order_pool(pool_items, pool_scores, k)
    recommendations = [
        Recommendation(int(item), float(score)) for item, score in top
    ]
    return TopKResult(
        recommendations=recommendations,
        items_scored=items_scored,
        sorted_accesses=sorted_accesses,
    )


def rank_order_pool(
    items: IntArray, scores: FloatArray, k: int
) -> list[tuple[int, float]]:
    """Deterministic best-k of a candidate pool (ties to smaller item id)."""
    if items.size == 0:
        return []
    order = np.lexsort((items, -scores))[:k]
    return [(int(items[i]), float(scores[i])) for i in order]


def classic_ta_topk(
    query: QuerySpace,
    lists: SortedTopicLists,
    k: int,
    exclude: IntArray | None = None,
) -> TopKResult:
    """Textbook Threshold Algorithm: round-robin sorted access.

    One depth step visits the next item of *every* list; the threshold is
    the weighted sum of the values at the current depth. Used by the TA
    ablation to quantify what the paper's best-list-first strategy buys.
    """
    _prepare(query, lists, k)
    scratch = lists.scratch()
    excluded = scratch.excluded
    excluded.fill(False)
    if exclude is not None and len(exclude):
        excluded[np.asarray(exclude, dtype=np.int64)] = True
    num_excluded = int(excluded.sum())
    weights = query.weights
    item_topic = lists.item_topic
    num_items = lists.num_items

    score_cache: dict[int, float] = {}
    scratch.in_result.fill(False)
    result = _ResultHeap(k, scratch.in_result)
    sorted_accesses = 0

    for depth in range(num_items):
        for z in range(lists.num_topics):
            item = int(lists.order[z, depth])
            sorted_accesses += 1
            if item in score_cache or excluded[item]:
                continue
            score = float(item_topic[item] @ weights)
            score_cache[item] = score
            result.offer(item, score)
        threshold = float(weights @ lists.values[:, depth])
        if len(result) >= min(k, num_items - num_excluded) and result.kth_score >= threshold:
            break

    return TopKResult(
        recommendations=result.ranked(),
        items_scored=len(score_cache),
        sorted_accesses=sorted_accesses,
    )
