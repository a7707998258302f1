"""Temporal top-k recommendation facade (Section 4).

:class:`TemporalRecommender` wraps any fitted model that exposes
``query_space(user, interval)`` (both TCAM variants and the UT/TT
baselines via adapters) and serves temporal queries ``q = (u, t)``.

There is **one query path**. :meth:`TemporalRecommender.recommend` is
row 0 of :meth:`TemporalRecommender.recommend_batch_with_status` on a
batch of one, so single queries, batches, the CLI and the service share
one range check, one degradation walk and one status stamp, and every
query is scored by the block-max
:class:`~repro.recommend.serving.BatchScorer`.

The paper's two retrieval engines stay as **references**: an explicit
per-call ``recommend(..., method="ta")`` (TCAM-TA, Algorithm 1 over
pre-computed per-topic sorted lists) or ``method="bf"`` (TCAM-BF, the
brute-force scan) runs the real
:func:`~repro.recommend.threshold.ta_topk` /
:func:`~repro.recommend.bruteforce.bruteforce_topk` inside that same
path — the bitwise oracle the tests and ``benchmarks/e2e`` hold the
batch scorer against. The sorted-list index such a call needs is built
lazily per topic–item matrix (one for TTCAM, one per queried interval
for ITCAM) and cached; nothing else ever builds one.
:func:`~repro.recommend.threshold.batched_ta_topk` (Fig. 8's timed
engine) and :func:`~repro.recommend.threshold.classic_ta_topk` (the
TA-variants ablation's baseline) are plain functions, not recommender
engines.

A production deployment also needs to keep answering when things go
wrong, so the recommender accepts a **fallback chain** — simpler fitted
models (typically popularity baselines) consulted, in order, when the
primary model is unavailable (snapshot failed its checksum), the query
is out of the primary's range (unknown user or interval), or the primary
raises at serve time. Every answer carries a structured
:class:`ServingStatus` saying who served it and why, so degradation is
observable instead of silent.

:meth:`TemporalRecommender.recommend_batch` hands the whole batch to
the scorer, which serves the queries sharing a topic–item matrix in one
pass and answers a failed pass or interval row by row; the batch degrades
*per row*: one out-of-range query falls back (or
raises) on its own while the rest of the batch is still served by the
primary model. Caller errors — ``k ≤ 0``, a non-integral query id, an
``exclude`` id outside the catalogue — raise :class:`ValueError` and are
never turned into a degraded answer. All cached serving state — block
indexes, block-ordered matrices, context block maxima — lives in a bounded
:class:`~repro.recommend.serving.ServingCache` whose hit/miss/eviction
counters ride along on every :class:`ServingStatus`.

**Hot swap.** The primary model, its serving cache and its batch scorer
live together in one immutable *generation* object. Every query captures
the current generation exactly once on entry and serves entirely from
that capture, so :meth:`TemporalRecommender.swap_model` can publish a
new generation — one atomic reference assignment under a lock — while
traffic is in flight: queries that already started complete against the
old generation, queries that start afterwards see the new one, and no
query ever observes a half-swapped mix (read-copy-update). The streaming
:class:`~repro.streaming.publisher.SnapshotPublisher` drives this to hot
swap freshly ingested snapshots with zero dropped queries; swap,
rollback and drift counters ride along on every :class:`ServingStatus`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Protocol, Sequence

import numpy as np

from ..robustness.errors import ServingUnavailableError
from ..tooling.sanitize import SanitizerError
from ..typing import FloatArray, IntArray, bit_deterministic
from .bruteforce import bruteforce_topk
from .ranking import QuerySpace, Recommendation, TopKResult, rank_order
from .serving import (
    DEFAULT_ROW_BLOCK,
    BatchScorer,
    CacheStats,
    ServingCache,
    check_dtype,
)
from .threshold import SortedTopicLists, ta_topk


class SupportsQuerySpace(Protocol):
    """Any fitted model that can expand a temporal query (Eq. 21)."""

    def query_space(self, user: int, interval: int) -> tuple[FloatArray, FloatArray]:
        """Return ``(ϑ_q, ϕ)`` for the query ``(user, interval)``."""
        ...


@dataclass(frozen=True)
class ServingStatus:
    """Structured account of how one query (or recommender) was served.

    Attributes
    ----------
    degraded:
        True when anything other than the primary model answered.
    served_by:
        Display name of the model that produced the result.
    reason:
        Why the primary model could not serve (``None`` when healthy).
    attempted:
        Names of models tried and skipped before the serving one.
    cache:
        Aggregate hit/miss/eviction counters of the serving generation's
        :class:`~repro.recommend.serving.ServingCache` at serve time
        (``None`` only on statuses predating the cache).
    generation:
        Index of the serving generation that answered; bumped by every
        :meth:`TemporalRecommender.swap_model`. All rows of one batch
        carry the same generation — a torn (mixed-generation) batch is
        impossible by construction.
    swaps:
        Snapshot hot-swaps performed over this recommender's lifetime.
    rollbacks:
        Publishes rejected or reverted (corrupt snapshot, failed health
        validation) over this recommender's lifetime.
    drift_events:
        Swaps that were escalations from temporal-drift boundaries.
    """

    degraded: bool
    served_by: str
    reason: str | None = None
    attempted: tuple[str, ...] = field(default_factory=tuple)
    cache: CacheStats | None = None
    generation: int = 0
    swaps: int = 0
    rollbacks: int = 0
    drift_events: int = 0


class _Generation:
    """One immutable serving generation: a model plus its cached state.

    The recommender's RCU read side: queries capture a generation once
    and use only its members, so swapping the recommender's current
    generation never disturbs a query already in flight. The members
    themselves are never reassigned after construction — the serving
    cache mutates internally, but it belongs to exactly one generation.
    """

    __slots__ = ("model", "cache", "index", "scorer")

    def __init__(
        self, model: SupportsQuerySpace | None, cache: ServingCache, index: int
    ) -> None:
        self.model = model
        self.cache = cache
        self.index = index
        self.scorer = BatchScorer(model, cache)


def _model_name(model: object) -> str:
    """Best-effort display name for any model-like object."""
    name = getattr(model, "name", None)
    return name if isinstance(name, str) else type(model).__name__


def query_pairs(queries: Sequence[Sequence[Any]] | IntArray) -> list[tuple[int, int]]:
    """``(user, interval)`` pairs as plain ints, refusing non-integral ids.

    ``int()`` alone would truncate ``0.7`` to user 0 and answer for the
    wrong user; an id must already *be* an integer (``3`` or ``3.0``).
    """
    pairs: list[tuple[int, int]] = []
    for user, interval in queries:
        try:
            pair = (int(user), int(interval))
            integral = pair == (user, interval)
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(
                f"query ids must be integers, got (user={user!r}, interval={interval!r})"
            )
        pairs.append(pair)
    return pairs


def _check_exclude(
    exclude: IntArray | Mapping[int, IntArray] | None,
    users: Sequence[int],
    num_items: int | None,
) -> None:
    """Refuse ``exclude`` ids outside ``[0, num_items)`` for the batch's users.

    A negative id would wrap around and silently exclude another item;
    an id past the catalogue would surface as an ``IndexError`` deep in
    the scorer and be mistaken for a model failure. ``num_items=None``
    (a model that exposes no fitted dimensions) checks the sign only.
    """
    if isinstance(exclude, Mapping):
        lists = [exclude.get(user) for user in dict.fromkeys(users)]
    else:
        lists = [exclude]
    for items in lists:
        ids = np.asarray(() if items is None else items)
        if ids.size and (
            ids.dtype.kind not in "iu"
            or ids.min() < 0
            or (num_items is not None and ids.max() >= num_items)
        ):
            raise ValueError(
                f"exclude ids must be integers in [0, {num_items or '∞'}), "
                f"got {ids.tolist()}"
            )


class TemporalRecommender:
    """Serves temporal top-k queries over a fitted topic-mixture model.

    Parameters
    ----------
    model:
        A fitted model exposing ``query_space``. ``None`` declares the
        primary unavailable from the start (used by
        :meth:`from_snapshot` when the snapshot is corrupt), in which
        case every query is served by the fallback chain.
    fallbacks:
        Fitted degradation chain, consulted in order when the primary
        cannot serve. Each entry needs ``score_items`` (any fitted
        baseline, e.g.
        :class:`~repro.baselines.popularity.GlobalPopularity`).
    cache:
        A :class:`~repro.recommend.serving.ServingCache` to use (e.g.
        with custom capacities); one with defaults is created otherwise.
    """

    #: The paper's reference engines, selectable per call only.
    _METHODS = ("ta", "bf")

    def __init__(
        self,
        model: SupportsQuerySpace | None,
        fallbacks: Sequence[object] = (),
        unavailable_reason: str | None = None,
        cache: ServingCache | None = None,
    ) -> None:
        if model is None and not fallbacks:
            raise ValueError("a recommender needs a model or at least one fallback")
        self.fallbacks: tuple[Any, ...] = tuple(fallbacks)
        self.unavailable_reason = unavailable_reason
        self.last_status: ServingStatus | None = None
        # Bounded serving state — block indexes, arranged matrices,
        # context block maxima, and the sorted-list
        # indexes of the reference engine — lives inside the generation
        # so a hot swap retires it with the model it was derived from.
        self._generation = _Generation(
            model, cache if cache is not None else ServingCache(), 0
        )
        self._swap_lock = threading.Lock()
        self._swaps = 0
        self._rollbacks = 0
        self._drift_events = 0
        self.last_rollback_reason: str | None = None

    # ------------------------------------------------------------------
    # generations (RCU hot swap)
    # ------------------------------------------------------------------

    @property
    def model(self) -> SupportsQuerySpace | None:
        """The current generation's primary model (``None`` = degraded)."""
        return self._generation.model

    @property
    def serving_cache(self) -> ServingCache:
        """The current generation's serving cache."""
        return self._generation.cache

    @property
    def generation(self) -> int:
        """Index of the currently published serving generation."""
        return self._generation.index

    @property
    def swap_count(self) -> int:
        """Hot swaps performed over this recommender's lifetime."""
        return self._swaps

    @property
    def rollback_count(self) -> int:
        """Failed publishes recorded against this recommender."""
        return self._rollbacks

    @property
    def drift_count(self) -> int:
        """Swaps escalated from temporal-drift boundaries."""
        return self._drift_events

    def swap_model(
        self,
        model: SupportsQuerySpace,
        cache: ServingCache | None = None,
        drift: bool = False,
    ) -> int:
        """Atomically publish ``model`` as a new serving generation.

        The new generation (model + ``cache``, or a fresh
        :class:`ServingCache` — the publisher passes the serving cache's
        :meth:`~repro.recommend.serving.ServingCache.successor` — + its
        scorer) becomes visible to queries that *start* after this call
        returns; queries already in flight finish against the generation
        they captured on entry, so no query is ever dropped or served a
        torn mix of old and new parameters. Returns the new generation
        index. ``drift=True`` additionally counts the swap as a
        drift-boundary escalation.
        """
        if model is None:
            raise ValueError("cannot swap in a missing model; use fallbacks instead")
        with self._swap_lock:
            generation = _Generation(
                model,
                cache if cache is not None else ServingCache(),
                self._generation.index + 1,
            )
            self._swaps += 1
            if drift:
                self._drift_events += 1
            self.unavailable_reason = None
            # Single atomic publication point — the RCU write side.
            self._generation = generation
            return generation.index

    def note_rollback(self, reason: str) -> None:
        """Record a rejected or reverted publish (kept generation serves on)."""
        with self._swap_lock:
            self._rollbacks += 1
            self.last_rollback_reason = reason

    def _status(
        self,
        generation: "_Generation",
        degraded: bool,
        served_by: str,
        reason: str | None = None,
        attempted: tuple[str, ...] = (),
    ) -> ServingStatus:
        """One :class:`ServingStatus` with the generation counters.

        ``cache`` stays unset here: the batch stamps one end-of-batch
        counter snapshot on every row.
        """
        return ServingStatus(
            degraded,
            served_by,
            reason,
            attempted,
            generation=generation.index,
            swaps=self._swaps,
            rollbacks=self._rollbacks,
            drift_events=self._drift_events,
        )

    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        fallbacks: Sequence[object] = (),
    ) -> "TemporalRecommender":
        """Serve from a snapshot file, degrading instead of crashing.

        A snapshot that fails its checksum or validation normally raises
        :class:`~repro.robustness.errors.SnapshotCorruptError`; with a
        non-empty fallback chain the recommender comes up anyway and
        serves every query from the chain, flagging the degradation in
        each :class:`ServingStatus`. Without fallbacks the error
        propagates.

        A snapshot saved with derived serving members (see
        :mod:`repro.recommend.paramstore`) is mapped in place and pages
        in on demand instead of being materialised; a mapped open that
        fails its checks falls back to the eager checksummed load with a
        :class:`RuntimeWarning` rather than failing the start-up
        (:meth:`~repro.core.serialize.LoadedModel.from_file`).
        """
        from ..core.serialize import LoadedModel

        try:
            model: SupportsQuerySpace | None = LoadedModel.from_file(path)
            reason = None
        except (ValueError, OSError) as exc:
            if not fallbacks:
                raise
            model, reason = None, f"snapshot unusable: {exc}"
        return cls(model, fallbacks=fallbacks, unavailable_reason=reason)

    def recommend(
        self,
        user: int,
        interval: int,
        k: int = 10,
        method: str | None = None,
        exclude: IntArray | None = None,
    ) -> TopKResult:
        """Top-k items for the temporal query ``(user, interval)``.

        Parameters
        ----------
        user, interval:
            Dense ids of the querying user and time interval.
        k:
            Number of recommendations.
        method:
            ``None`` (the default) serves through the batch scorer like
            every other query. ``"ta"`` / ``"bf"`` answer this one query
            with the paper's reference engine instead — same items,
            scores and tie order, used as the bitwise oracle.
        exclude:
            Item ids that must not be recommended (e.g. training items).

        The serving outcome of the most recent call (who answered, and
        whether the result is degraded) is kept in :attr:`last_status`;
        use :meth:`recommend_with_status` to receive it explicitly.
        """
        return self.recommend_with_status(
            user, interval, k=k, method=method, exclude=exclude
        )[0]

    def recommend_with_status(
        self,
        user: int,
        interval: int,
        k: int = 10,
        method: str | None = None,
        exclude: IntArray | None = None,
    ) -> tuple[TopKResult, ServingStatus]:
        """Top-k plus the structured :class:`ServingStatus` for the query.

        A batch of one: see :meth:`recommend_batch_with_status` for the
        degradation contract.
        """
        results, statuses = self._serve_batch(
            [(user, interval)], k, exclude, DEFAULT_ROW_BLOCK, method
        )
        return results[0], statuses[0]

    def _serve_via_fallbacks(
        self,
        generation: "_Generation",
        user: int,
        interval: int,
        k: int,
        exclude: IntArray | None,
        reason: str | None,
        attempted: Sequence[str],
    ) -> tuple[TopKResult, ServingStatus]:
        """Walk the fallback chain for one query; raise when it runs dry."""
        attempted = list(attempted)
        for fallback in self.fallbacks:
            try:  # a fallback answers from its dense score vector
                scores = np.asarray(fallback.score_items(user, interval), dtype=np.float64)
                top = rank_order(scores, k, exclude=exclude)
            except Exception:
                attempted.append(_model_name(fallback))
                continue
            result = TopKResult(
                [Recommendation(item=int(v), score=float(scores[v])) for v in top],
                items_scored=int(scores.shape[0]),
            )
            return result, self._status(
                generation, True, _model_name(fallback), reason, tuple(attempted)
            )
        raise ServingUnavailableError(
            f"no model could serve query (user={user}, interval={interval}): {reason}"
        )

    def recommend_batch(
        self,
        queries: Sequence[tuple[int, int]] | IntArray,
        k: int = 10,
        exclude: IntArray | Mapping[int, IntArray] | None = None,
        dtype: str = "float64",
        row_block: int = DEFAULT_ROW_BLOCK,
    ) -> list[TopKResult]:
        """Top-k items for a batch of ``(user, interval)`` queries.

        Queries sharing a topic–item matrix (every TTCAM interval, one
        ITCAM interval) are scored together in one block-max pass by the
        :class:`~repro.recommend.serving.BatchScorer`; each row's
        items, scores and tie order are exactly what
        :func:`~repro.recommend.threshold.ta_topk` returns for the same
        query. Results are returned in query order. ``dtype`` is checked
        (:func:`~repro.recommend.serving.check_dtype`) and
        otherwise unused: float64 is the one serving path. See
        :meth:`recommend_batch_with_status` for the other parameters and
        the per-row degradation contract.
        """
        check_dtype(dtype)
        return self._serve_batch(queries, k, exclude, row_block, None)[0]

    @bit_deterministic
    def recommend_batch_with_status(
        self,
        queries: Sequence[tuple[int, int]] | IntArray,
        k: int = 10,
        exclude: IntArray | Mapping[int, IntArray] | None = None,
        row_block: int = DEFAULT_ROW_BLOCK,
    ) -> tuple[list[TopKResult], list[ServingStatus]]:
        """Batch top-k plus one :class:`ServingStatus` per query.

        Parameters
        ----------
        queries:
            ``(user, interval)`` pairs (any sequence of pairs, or a
            ``(Q, 2)`` integer array).
        k:
            Number of recommendations per query.
        exclude:
            Either one array of item ids excluded from every row, or a
            mapping ``user -> item ids``; masks are built from this
            call's ids and cached by nobody.
        row_block:
            Queries scored per GEMM block.

        Degradation is **per row**: a query that is out of the primary's
        range — or whose interval fails at serve time — walks the
        fallback chain on its own while the other rows are still served
        by the primary. :class:`~repro.robustness.errors.ServingUnavailableError`
        raises only when some row cannot be answered by anything, and
        :class:`ValueError` for a request no model could be blamed for
        (``k ≤ 0``, non-integral query ids, ``exclude`` ids outside the
        catalogue). Every status carries the same end-of-batch cache
        counter snapshot.
        """
        return self._serve_batch(queries, k, exclude, row_block, None)

    def _serve_batch(
        self,
        queries: Sequence[tuple[int, int]] | IntArray,
        k: int,
        exclude: IntArray | Mapping[int, IntArray] | None,
        row_block: int,
        method: str | None,
    ) -> tuple[list[TopKResult], list[ServingStatus]]:
        """The one query path behind every public ``recommend*`` method.

        ``method`` is ``None`` for the batch scorer, or a reference
        engine of :attr:`_METHODS` run query by query in its place.
        """
        if method is not None and method not in self._METHODS:
            raise ValueError(f"method must be one of {self._METHODS}, got {method!r}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if row_block <= 0:
            raise ValueError(f"row_block must be positive, got {row_block}")
        # RCU read side: the whole batch serves from one captured
        # generation, so concurrent swaps can never produce a torn batch.
        generation = self._generation
        model = generation.model
        pairs = query_pairs(queries)
        num_items = getattr(getattr(model, "params_", None), "num_items", None)
        _check_exclude(exclude, [user for user, _ in pairs], num_items)
        rows: dict[int, tuple[TopKResult, ServingStatus]] = {}
        fallback_reason: dict[int, str] = {}
        primary: list[int] = []
        if model is None:
            reason = self.unavailable_reason or "no primary model"
            fallback_reason = dict.fromkeys(range(len(pairs)), reason)
        else:
            for i, (user, interval) in enumerate(pairs):
                problem = self._range_problem(model, user, interval)
                if problem is None:
                    primary.append(i)
                else:
                    fallback_reason[i] = problem

        if primary:
            queries = [pairs[i] for i in primary]
            answers = (
                generation.scorer.serve_queries(queries, k, exclude, row_block)
                if method is None
                else self._reference_answers(generation, queries, k, method, exclude)
            )
            healthy = self._status(generation, False, _model_name(model))
            for i, answer in zip(primary, answers):
                if isinstance(answer, Exception):
                    fallback_reason[i] = f"primary model failed: {answer}"
                else:
                    rows[i] = (answer, healthy)

        attempted = [_model_name(model)] if model is not None else []
        for i in sorted(fallback_reason):
            user, interval = pairs[i]
            rows[i] = self._serve_via_fallbacks(
                generation, user, interval, k, self._exclude_items(user, exclude),
                fallback_reason[i], attempted,
            )

        # Every row was filled by the primary path or the fallback walk,
        # and carries the same end-of-batch cache counter snapshot, stamped
        # once per distinct status.
        snapshot = generation.cache.stats()
        results = [rows[i][0] for i in range(len(pairs))]
        stamped: dict[int, ServingStatus] = {}
        for _, status in rows.values():
            if id(status) not in stamped:
                stamped[id(status)] = replace(status, cache=snapshot)
        statuses = [stamped[id(rows[i][1])] for i in range(len(pairs))]
        if statuses:
            self.last_status = statuses[-1]
        return results, statuses

    def _scorer(self) -> BatchScorer:
        """The current generation's batch scorer (tests and tooling hook)."""
        return self._generation.scorer

    @staticmethod
    def _exclude_items(
        user: int, exclude: IntArray | Mapping[int, IntArray] | None
    ) -> IntArray | None:
        """Resolve a batch ``exclude`` argument to one row's item array."""
        if exclude is None:
            return None
        if isinstance(exclude, Mapping):
            items = exclude.get(user)
            return None if items is None else np.asarray(items, dtype=np.int64)
        return np.asarray(exclude, dtype=np.int64)

    @staticmethod
    def _range_problem(
        model: SupportsQuerySpace, user: int, interval: int
    ) -> str | None:
        """Why the query is outside the given model, or ``None`` if it fits.

        Only models that expose fitted ``params_`` dimensions are
        checked; anything else is assumed to accept the query.
        """
        params = getattr(model, "params_", None)
        num_users = getattr(params, "num_users", None)
        num_intervals = getattr(params, "num_intervals", None)
        if num_users is not None and not 0 <= user < num_users:
            return f"unknown user {user} (model knows [0, {num_users}))"
        if num_intervals is not None and not 0 <= interval < num_intervals:
            return f"unknown interval {interval} (model knows [0, {num_intervals}))"
        return None

    def _reference_answers(
        self,
        generation: "_Generation",
        queries: Sequence[tuple[int, int]],
        k: int,
        method: str,
        exclude: IntArray | Mapping[int, IntArray] | None,
    ) -> list[TopKResult | Exception]:
        """Each query through a reference engine; an interval that raises fails its rows."""
        by_interval: dict[int, list[int]] = {}
        for i, (_, interval) in enumerate(queries):
            by_interval.setdefault(interval, []).append(i)
        answers: dict[int, TopKResult | Exception] = {}
        for interval, indices in by_interval.items():
            try:
                for i in indices:
                    user = queries[i][0]
                    answers[i] = self._reference_topk(
                        generation, user, interval, k, method, self._exclude_items(user, exclude)
                    )
            except SanitizerError:
                raise  # a broken invariant is a bug to surface, not a row to degrade
            except Exception as exc:
                answers.update(dict.fromkeys(indices, exc))
        return [answers[i] for i in range(len(queries))]

    @staticmethod
    def _reference_topk(
        generation: "_Generation",
        user: int,
        interval: int,
        k: int,
        method: str,
        exclude: IntArray | None,
    ) -> TopKResult:
        """One query through the paper's TCAM-TA or TCAM-BF engine.

        The sorted-list index TA walks is cached per
        ``matrix_cache_key(interval)`` — the model's statement of which
        queries share a topic–item matrix; without it the index is
        rebuilt per query (correct but slow).
        """
        model = generation.model
        assert model is not None  # only primary-served groups reach here
        weights, matrix = model.query_space(user, interval)
        query = QuerySpace(weights=weights, item_matrix=matrix)
        if method == "bf":
            return bruteforce_topk(query, k, exclude=exclude)
        key_fn = getattr(model, "matrix_cache_key", None)
        if key_fn is None:
            return ta_topk(query, SortedTopicLists.build(matrix), k, exclude=exclude)
        key = key_fn(interval)
        lists = generation.cache.indexes.get(key)
        if lists is None:
            lists = SortedTopicLists.build(matrix)
            generation.cache.indexes.put(key, lists)
        return ta_topk(query, lists, k, exclude=exclude)
