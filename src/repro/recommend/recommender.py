"""Temporal top-k recommendation facade (Section 4).

:class:`TemporalRecommender` wraps any fitted model that exposes
``query_space(user, interval)`` (both TCAM variants and the UT/TT
baselines via adapters) and serves temporal queries ``q = (u, t)``
through either retrieval engine:

* ``method="ta"`` — the paper's Threshold-Algorithm engine with
  pre-computed per-topic sorted lists (TCAM-TA);
* ``method="batched-ta"`` — same threshold semantics with
  block-vectorised sorted access (fastest here on large catalogues);
* ``method="bf"`` — brute-force scan (TCAM-BF);
* ``method="classic-ta"`` — textbook round-robin TA (ablation).

For TTCAM the topic–item matrix is query-independent, so one sorted-list
index serves every query. For ITCAM the temporal context row depends on
the queried interval; indexes are built lazily per interval and cached.

A production deployment also needs to keep answering when things go
wrong, so the recommender accepts a **fallback chain** — simpler fitted
models (typically popularity baselines) consulted, in order, when the
primary model is unavailable (snapshot failed its checksum), the query
is out of the primary's range (unknown user or interval), or the primary
raises at serve time. Every answer carries a structured
:class:`ServingStatus` saying who served it and why, so degradation is
observable instead of silent.

Batch traffic goes through :meth:`TemporalRecommender.recommend_batch`,
which hands interval groups to the GEMM-based
:class:`~repro.recommend.serving.BatchScorer` and degrades *per row*:
one malformed or out-of-range query falls back (or raises) on its own
while the rest of the batch is still served by the primary model. All
cached serving state — sorted-list indexes, context vectors, exclusion
masks — lives in a bounded :class:`~repro.recommend.serving.ServingCache`
whose hit/miss/eviction counters ride along on every
:class:`ServingStatus`.

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
from ..typing import FloatArray, IntArray, bit_deterministic
from .bruteforce import bruteforce_topk
from .ranking import QuerySpace, Recommendation, TopKResult, rank_order
from .serving import (
    DEFAULT_ROW_BLOCK,
    BatchScorer,
    CacheStats,
    ServingCache,
    ServingConfig,
    check_serve_dtype,
)
from .threshold import SortedTopicLists, batched_ta_topk, classic_ta_topk, ta_topk


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

    __slots__ = ("model", "cache", "index", "_scorer")

    def __init__(
        self, model: SupportsQuerySpace | None, cache: ServingCache, index: int
    ) -> None:
        self.model = model
        self.cache = cache
        self.index = index
        self._scorer: BatchScorer | None = None

    def scorer(self) -> BatchScorer:
        """The generation's lazily built batch scorer.

        Benign-race lazy init: concurrent first callers may each build a
        scorer, but both are equivalent (same model, same cache) and the
        attribute store is atomic, so whichever lands last wins safely.
        """
        if self._scorer is None:
            self._scorer = BatchScorer(self.model, self.cache)
        scorer = self._scorer
        assert scorer is not None
        return scorer


def _model_name(model: object) -> str:
    """Best-effort display name for any model-like object."""
    name = getattr(model, "name", None)
    return name if isinstance(name, str) else type(model).__name__


class TemporalRecommender:
    """Serves temporal top-k queries over a fitted topic-mixture model.

    Parameters
    ----------
    model:
        A fitted model exposing ``query_space``. ``None`` declares the
        primary unavailable from the start (used by
        :meth:`from_snapshot` when the snapshot is corrupt), in which
        case every query is served by the fallback chain.
    method:
        Default retrieval engine: ``"ta"``, ``"batched-ta"``, ``"bf"``
        or ``"classic-ta"``.
    fallbacks:
        Fitted degradation chain, consulted in order when the primary
        cannot serve. Each entry needs ``query_space`` or ``score_items``
        (any fitted baseline, e.g.
        :class:`~repro.baselines.popularity.GlobalPopularity`).
    serve_dtype:
        Default selection dtype for :meth:`recommend_batch` —
        ``"float64"`` (the default) or ``"int8"`` (quantized selection
        with a proven margin, bitwise identical to float64; see
        :mod:`repro.recommend.quantize`).
    cache:
        A :class:`~repro.recommend.serving.ServingCache` to use (e.g.
        with custom capacities); one with defaults is created otherwise.
    config:
        A :class:`~repro.recommend.serving.ServingConfig` bundling the
        serving knobs. When given, it supplies the selection dtype, the
        default GEMM row block, and — unless an explicit ``cache`` is
        passed — builds the (optionally byte-budgeted) serving cache for
        this and every hot-swapped generation.
    """

    _METHODS = ("ta", "batched-ta", "bf", "classic-ta")

    def __init__(
        self,
        model: SupportsQuerySpace | None,
        method: str = "ta",
        fallbacks: Sequence[object] = (),
        unavailable_reason: str | None = None,
        serve_dtype: str = "float64",
        cache: ServingCache | None = None,
        config: ServingConfig | None = None,
    ) -> None:
        if method not in self._METHODS:
            raise ValueError(f"method must be one of {self._METHODS}, got {method!r}")
        if model is None and not fallbacks:
            raise ValueError("a recommender needs a model or at least one fallback")
        self.method = method
        self.fallbacks = tuple(fallbacks)
        self.unavailable_reason = unavailable_reason
        self.config = config
        if config is not None:
            serve_dtype = config.select_dtype
        self.serve_dtype = check_serve_dtype(serve_dtype)
        self.row_block = config.row_block if config is not None else DEFAULT_ROW_BLOCK
        self.last_status: ServingStatus | None = None
        # Bounded serving state: sorted-list indexes keyed by the model's
        # matrix cache key (TTCAM's topic–item matrix is query-independent
        # — one entry; ITCAM's depends on the queried interval — one entry
        # per recently queried interval), plus context vectors, dtype
        # conversions and exclusion masks for the batch engine. The cache
        # lives inside the generation so a hot swap retires it with the
        # model it indexed.
        self._generation = _Generation(
            model, cache if cache is not None else self._build_cache(), 0
        )
        self._swap_lock = threading.Lock()
        self._swaps = 0
        self._rollbacks = 0
        self._drift_events = 0
        self.last_rollback_reason: str | None = None

    def _build_cache(self) -> ServingCache:
        """A fresh serving cache honouring the configured byte budget."""
        if self.config is not None:
            return self.config.build_cache()
        return ServingCache()

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

        The new generation (model + fresh :class:`ServingCache` + lazy
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
                cache if cache is not None else self._build_cache(),
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
        cache: CacheStats | None = None,
    ) -> ServingStatus:
        """Stamp one :class:`ServingStatus` with the generation counters."""
        return ServingStatus(
            degraded,
            served_by,
            reason,
            attempted,
            cache=cache if cache is not None else generation.cache.stats(),
            generation=generation.index,
            swaps=self._swaps,
            rollbacks=self._rollbacks,
            drift_events=self._drift_events,
        )

    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        method: str = "ta",
        fallbacks: Sequence[object] = (),
        mmap: bool = False,
        config: ServingConfig | None = None,
    ) -> "TemporalRecommender":
        """Serve from a snapshot file, degrading instead of crashing.

        A snapshot that fails its checksum or validation normally raises
        :class:`~repro.robustness.errors.SnapshotCorruptError`; with a
        non-empty fallback chain the recommender comes up anyway and
        serves every query from the chain, flagging the degradation in
        each :class:`ServingStatus`. Without fallbacks the error
        propagates.

        ``mmap=True`` serves from the snapshot's sidecar store (see
        :mod:`repro.recommend.paramstore`): parameters page in on
        demand instead of being materialised, and a missing, damaged or
        stale sidecar falls back to the eager checksummed load with a
        :class:`RuntimeWarning` rather than failing the start-up.
        """
        from ..core.serialize import LoadedModel

        try:
            model: SupportsQuerySpace | None = LoadedModel.from_file(path, mmap=mmap)
            reason = None
        except (ValueError, OSError) as exc:
            if not fallbacks:
                raise
            model, reason = None, f"snapshot unusable: {exc}"
        return cls(
            model,
            method=method,
            fallbacks=fallbacks,
            unavailable_reason=reason,
            config=config,
        )

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
            Override the recommender's default engine for this query.
        exclude:
            Item ids that must not be recommended (e.g. training items).

        The serving outcome of the most recent call (who answered, and
        whether the result is degraded) is kept in :attr:`last_status`;
        use :meth:`recommend_with_status` to receive it explicitly.
        """
        result, _ = self.recommend_with_status(
            user, interval, k=k, method=method, exclude=exclude
        )
        return result

    def recommend_with_status(
        self,
        user: int,
        interval: int,
        k: int = 10,
        method: str | None = None,
        exclude: IntArray | None = None,
    ) -> tuple[TopKResult, ServingStatus]:
        """Top-k plus the structured :class:`ServingStatus` for the query.

        The primary model serves when it can; otherwise the fallback
        chain is walked in order. Only when *nothing* can answer does
        :class:`~repro.robustness.errors.ServingUnavailableError` raise.
        """
        engine = method if method is not None else self.method
        if engine not in self._METHODS:
            raise ValueError(f"method must be one of {self._METHODS}, got {engine!r}")
        # RCU read side: capture the generation once; every lookup below
        # uses this capture, so a concurrent swap cannot tear the query.
        generation = self._generation
        attempted: list[str] = []
        reason = self.unavailable_reason
        if generation.model is not None:
            range_problem = self._range_problem(generation.model, user, interval)
            if range_problem is None:
                try:
                    result = self._serve_primary(
                        generation, user, interval, k, engine, exclude
                    )
                    status = self._status(
                        generation, False, _model_name(generation.model)
                    )
                    self.last_status = status
                    return result, status
                except Exception as exc:
                    reason = f"primary model failed: {exc}"
            else:
                reason = range_problem
            attempted.append(_model_name(generation.model))
        result, status = self._serve_via_fallbacks(
            generation, user, interval, k, exclude, reason, attempted
        )
        self.last_status = status
        return result, status

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
            try:
                result = self._serve_fallback(fallback, user, interval, k, exclude)
            except Exception:
                attempted.append(_model_name(fallback))
                continue
            status = self._status(
                generation,
                True,
                _model_name(fallback),
                reason,
                tuple(attempted),
            )
            return result, status
        raise ServingUnavailableError(
            f"no model could serve query (user={user}, interval={interval}): {reason}"
        )

    def recommend_batch(
        self,
        queries: Sequence[tuple[int, int]] | IntArray,
        k: int = 10,
        exclude: IntArray | Mapping[int, IntArray] | None = None,
        dtype: str | None = None,
        row_block: int | None = None,
    ) -> list[TopKResult]:
        """Top-k items for a batch of ``(user, interval)`` queries.

        Queries sharing an interval are scored together as blocked GEMMs
        by the :class:`~repro.recommend.serving.BatchScorer`; in float64
        mode (the default) each row's items, scores and tie order are
        exactly what :meth:`recommend` returns for the same query.
        Results are returned in query order. See
        :meth:`recommend_batch_with_status` for parameters and the
        per-row degradation contract.
        """
        results, _ = self.recommend_batch_with_status(
            queries, k=k, exclude=exclude, dtype=dtype, row_block=row_block
        )
        return results

    @bit_deterministic
    def recommend_batch_with_status(
        self,
        queries: Sequence[tuple[int, int]] | IntArray,
        k: int = 10,
        exclude: IntArray | Mapping[int, IntArray] | None = None,
        dtype: str | None = None,
        row_block: int | None = None,
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
            mapping ``user -> item ids`` (per-user masks are cached in
            the serving cache).
        dtype:
            Selection dtype override — ``"float64"`` or ``"int8"``;
            defaults to the recommender's ``serve_dtype``.
        row_block:
            Queries scored per GEMM block; defaults to the configured
            (or package default) block size.

        Degradation is **per row**: a query that is out of the primary's
        range — or whose interval group fails at serve time — walks the
        fallback chain on its own while the other rows are still served
        by the primary. :class:`~repro.robustness.errors.ServingUnavailableError`
        raises only when some row cannot be answered by anything. Every
        status carries the same end-of-batch cache counter snapshot.
        """
        serve_dtype = check_serve_dtype(dtype if dtype is not None else self.serve_dtype)
        block = row_block if row_block is not None else self.row_block
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        # RCU read side: the whole batch serves from one captured
        # generation, so concurrent swaps can never produce a torn batch.
        generation = self._generation
        model = generation.model
        pairs = [(int(user), int(interval)) for user, interval in queries]
        count = len(pairs)
        results: list[TopKResult | None] = [None] * count
        statuses: list[ServingStatus | None] = [None] * count

        fallback_reason: dict[int, str] = {}
        groups: dict[int, list[int]] = {}
        if model is None:
            reason = self.unavailable_reason or "no primary model"
            for i in range(count):
                fallback_reason[i] = reason
        else:
            for i, (user, interval) in enumerate(pairs):
                problem = self._range_problem(model, user, interval)
                if problem is None:
                    groups.setdefault(interval, []).append(i)
                else:
                    fallback_reason[i] = problem

        for interval, indices in groups.items():
            users = [pairs[i][0] for i in indices]
            try:
                group_results = generation.scorer().serve_group(
                    interval, users, k, exclude, serve_dtype, block
                )
            except Exception as exc:
                for i in indices:
                    fallback_reason[i] = f"primary model failed: {exc}"
            else:
                for i, result in zip(indices, group_results):
                    results[i] = result
                    statuses[i] = self._status(
                        generation, False, _model_name(model), cache=CacheStats()
                    )

        attempted = [_model_name(model)] if model is not None else []
        for i in sorted(fallback_reason):
            user, interval = pairs[i]
            results[i], statuses[i] = self._serve_via_fallbacks(
                generation,
                user,
                interval,
                k,
                self._exclude_items(user, exclude),
                fallback_reason[i],
                attempted,
            )

        snapshot = generation.cache.stats()
        # Every index was filled by the primary path or the fallback walk.
        assert all(r is not None for r in results)
        assert all(s is not None for s in statuses)
        final_results = [r for r in results if r is not None]
        final_statuses = [
            replace(s, cache=snapshot) for s in statuses if s is not None
        ]
        if final_statuses:
            self.last_status = final_statuses[-1]
        return final_results, final_statuses

    def _scorer(self) -> BatchScorer:
        """The current generation's batch scorer (tests and tooling hook)."""
        return self._generation.scorer()

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

    def _serve_primary(
        self,
        generation: "_Generation",
        user: int,
        interval: int,
        k: int,
        engine: str,
        exclude: IntArray | None,
    ) -> TopKResult:
        """Answer with the generation's model through the selected engine."""
        model = generation.model
        assert model is not None  # callers check before dispatching here
        weights, matrix = model.query_space(user, interval)
        query = QuerySpace(weights=weights, item_matrix=matrix)
        if engine == "bf":
            return bruteforce_topk(query, k, exclude=exclude)
        lists = self._lists_for(generation, matrix, interval)
        if engine == "ta":
            return ta_topk(query, lists, k, exclude=exclude)
        if engine == "batched-ta":
            return batched_ta_topk(query, lists, k, exclude=exclude)
        return classic_ta_topk(query, lists, k, exclude=exclude)

    def _serve_fallback(
        self,
        fallback: Any,
        user: int,
        interval: int,
        k: int,
        exclude: IntArray | None,
    ) -> TopKResult:
        """Answer with one fallback model via its dense score vector."""
        scores = np.asarray(fallback.score_items(user, interval), dtype=np.float64)
        top = rank_order(scores, k, exclude=exclude)
        recommendations = [
            Recommendation(item=int(item), score=float(scores[item])) for item in top
        ]
        return TopKResult(
            recommendations=recommendations, items_scored=int(scores.shape[0])
        )

    @staticmethod
    def _lists_for(
        generation: "_Generation", matrix: FloatArray, interval: int
    ) -> SortedTopicLists:
        """Fetch or build the sorted-list index for a topic–item matrix.

        Models expose ``matrix_cache_key(interval)`` saying which queries
        share a topic–item matrix; without it the index is rebuilt per
        query (correct but slow).
        """
        key_fn = getattr(generation.model, "matrix_cache_key", None)
        if key_fn is None:
            return SortedTopicLists.build(matrix)
        key = key_fn(interval)
        store = getattr(generation.model, "param_store", None)
        if store is not None:
            stored = store.sorted_lists(key)
            if stored is not None:
                # mmap-backed and memoised by the store itself; kept out
                # of the LRU so it never counts against a byte budget.
                return stored  # type: ignore[no-any-return]
        lists = generation.cache.indexes.get(key)
        if lists is None:
            lists = SortedTopicLists.build(matrix)
            generation.cache.indexes.put(key, lists)
        return lists

    def precompute(self, intervals: IntArray | None = None, user: int = 0) -> int:
        """Eagerly build sorted-list indexes (the paper's offline step).

        For TTCAM one call suffices; for ITCAM pass the intervals you plan
        to query. Returns the number of cached indexes. A recommender
        whose primary model is unavailable has nothing to precompute.
        """
        generation = self._generation
        if generation.model is None:
            return 0
        if intervals is None:
            intervals = np.array([0])
        for interval in np.asarray(intervals, dtype=np.int64):
            _, matrix = generation.model.query_space(user, int(interval))
            self._lists_for(generation, matrix, int(interval))
        return len(generation.cache.indexes)
