"""High-throughput batch serving engine (the online half of Section 4).

The paper's online workload is temporal top-k retrieval for queries
``q = (u, t)`` with score ``S(u,t,v) = Σ_z ϑ_q[z]·ϕ[z,v]``. The
Threshold-Algorithm engines in :mod:`repro.recommend.threshold` answer
one query at a time through Python-level sorted-access loops — the right
shape for the paper's efficiency study (Fig. 8 times
``batched_ta_topk``), the wrong shape for serving traffic. They are kept
as references; every served query — a single ``recommend()`` included,
as a batch of one — goes through this module, which amortises per-query
cost across batches:

* **Grouping.** All queries sharing an interval also share the
  topic–item matrix (and, for TCAM, the temporal-context score vector
  ``P(v | θ′_t)``), so a batch is grouped by interval and each group is
  scored together. What differs between the TCAM variants — query
  weights, matrix, context, cache key — is asked of the model's
  parameter container (:mod:`repro.core.params`), never re-derived here.
* **Blocked GEMM scoring.** Each group's query weight vectors are
  stacked into ``Θ_batch`` and scored as one ``Θ_batch @ Φ`` matrix
  product per row block, into preallocated, reused workspaces (the same
  buffer discipline as :mod:`repro.core.engine`).
* **Exact rescoring.** BLAS GEMM, GEMV and per-item dot products differ
  in the last ULP, so GEMM scores alone cannot reproduce the per-query
  engines bit-for-bit. The GEMM pass therefore only *selects* a
  candidate superset (top ``k + margin`` per row, ties included); the
  candidates are then rescored with the identical primitive the TA
  engines use (``item_topic[v] @ ϑ_q`` — one contiguous-row dot per
  item) and ranked with the same ``(score desc, item asc)`` tie-break.
  In float64 mode the returned items, scores and tie order are exactly
  those of :func:`~repro.recommend.threshold.ta_topk`.
* **Bounded caching.** A :class:`ServingCache` of small LRU regions
  holds the derived serving state: contiguous item–topic transposes,
  per-interval context score vectors, per-user exclusion masks and —
  only for the reference engine — sorted TA indexes are all capped by
  entry count, with hit/miss/eviction counters surfaced on
  :class:`~repro.recommend.recommender.ServingStatus`.
* **int8 selection.** ``dtype="int8"`` runs selection through
  :mod:`repro.recommend.quantize`: a compressed copy of the selection
  matrix is staged block-by-block through a small float32 buffer, and
  candidates are taken by a *proven* per-row error margin instead of a
  fixed count — so the exact float64 rescore returns results **bitwise
  identical** to the float64 path at a fraction of the selection bytes.
  With an mmap parameter store attached (``model.param_store``), the
  quantized form and context statistics are paged from disk rather than
  rebuilt. ``"float64"`` and ``"int8"`` are the only selection dtypes;
  ``docs/performance.md`` records why no narrower float mode exists.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Generic,
    Hashable,
    KeysView,
    Mapping,
    Sequence,
    TypeVar,
)

import numpy as np

from ..core.params import ParamsBackedModel, TCAMParameters
from ..tooling.sanitize import Sanitizer, check_topk_finite, sanitize_enabled
from ..typing import AnyArray, BoolArray, FloatArray, IntArray, hot_path
from .quantize import (
    STAGE_COLUMNS,
    ContextVector,
    QuantizedMatrix,
    quantize_matrix,
    selection_margins,
    staged_select_gemm,
)
from .ranking import Recommendation, TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .threshold import SortedTopicLists

_V = TypeVar("_V")

#: Candidate-selection margin beyond ``k`` per serving dtype. float64
#: selection scores differ from the exact rescore by a few ULPs, so a
#: handful of extra candidates is ample. int8 is absent on purpose: it
#: uses the *proven* per-row error margin of
#: :mod:`repro.recommend.quantize`, not a fixed count.
SELECTION_MARGIN = {"float64": 16}

#: Default number of queries scored per GEMM block.
DEFAULT_ROW_BLOCK = 64

_SERVE_DTYPES = ("float64", "int8")


@dataclass(frozen=True)
class CacheStats:
    """Counters of one serving-cache region (or an aggregate of regions).

    Attributes
    ----------
    hits, misses:
        Lookup outcomes since the cache was created.
    evictions:
        Entries displaced by the LRU capacity bound.
    size, capacity:
        Current and maximum entry counts.
    bytes:
        Current accounted payload bytes (``ndarray.nbytes`` of the
        cached values).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0
    bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Combine two regions' counters (capacities add)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            size=self.size + other.size,
            capacity=self.capacity + other.capacity,
            bytes=self.bytes + other.bytes,
        )


def value_nbytes(value: object) -> int:
    """Accounted payload bytes of one cached value.

    Arrays (and anything exposing ``nbytes``, e.g.
    :class:`~repro.recommend.quantize.QuantizedMatrix`) report their
    buffer size; other values are accounted as zero bytes — the count
    tracks large array payloads, it is not a general memory profiler.
    """
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return 0


class LRUCache(Generic[_V]):
    """Bounded mapping with least-recently-used eviction and counters.

    A deliberately small, dependency-free LRU built on
    :class:`~collections.OrderedDict`. :meth:`get` / :meth:`put` maintain
    hit/miss/eviction counters; the mapping dunders (``cache[key]``)
    bypass the counters so diagnostic introspection does not skew the
    serving statistics.

    The mutating entry points (:meth:`get`, :meth:`put`,
    :meth:`discard`, :meth:`clear`) serialise on an internal lock, so
    recommenders sharing one :class:`ServingCache` across threads cannot
    corrupt the recency order or lose counter increments. The uncounted
    read-only accessors (:meth:`peek`, ``cache[key]``, ``len``) stay
    lock-free: they never restructure the mapping.

    Payload bytes are accounted with :func:`value_nbytes` and reported
    in :class:`CacheStats`; only the entry count bounds the cache.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._bytes = 0
        self._lock = threading.RLock()
        self._data: OrderedDict[Hashable, _V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __getitem__(self, key: Hashable) -> _V:
        """Counter-free lookup (raises ``KeyError`` when absent)."""
        return self._data[key]

    def __setitem__(self, key: Hashable, value: _V) -> None:
        """Counter-free insert honouring the capacity bound."""
        self.put(key, value)

    def get(self, key: Hashable, default: _V | None = None) -> _V | None:
        """Counted lookup: a hit promotes the entry to most-recent."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable, default: _V | None = None) -> _V | None:
        """Uncounted lookup that leaves the recency order untouched."""
        return self._data.get(key, default)

    def put(self, key: Hashable, value: _V) -> None:
        """Insert (or refresh) an entry, evicting LRU entries while full."""
        with self._lock:
            previous = self._data.pop(key, None)
            if previous is not None:
                self._bytes -= value_nbytes(previous)
            self._data[key] = value
            self._bytes += value_nbytes(value)
            while len(self._data) > self.capacity:
                _, evicted = self._data.popitem(last=False)
                self.evictions += 1
                self._bytes -= value_nbytes(evicted)

    def discard(self, key: Hashable) -> None:
        """Drop one entry if present (no counters touched)."""
        with self._lock:
            dropped = self._data.pop(key, None)
            if dropped is not None:
                self._bytes -= value_nbytes(dropped)

    def keys(self) -> KeysView[Hashable]:
        """Current keys, least- to most-recently used."""
        return self._data.keys()

    def items(self) -> list[tuple[Hashable, _V]]:
        """A snapshot of the entries, least- to most-recently used (uncounted)."""
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        with self._lock:
            self._data.clear()
            self._bytes = 0

    @property
    def bytes(self) -> int:
        """Accounted payload bytes currently held."""
        return self._bytes

    def stats(self) -> CacheStats:
        """Snapshot of this region's counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            capacity=self.capacity,
            bytes=self._bytes,
        )


class ServingCache:
    """Bounded LRU caches backing a :class:`TemporalRecommender`.

    Four regions, each independently capped:

    ``indexes``
        :class:`~repro.recommend.threshold.SortedTopicLists` per
        topic–item matrix key, built only when a caller asks for the
        reference engine (``recommend(method="ta")``) — TTCAM needs one
        entry ever, ITCAM one per *distinct recently queried* interval.
        The batch scorer never reads or fills this region.
    ``matrices``
        Contiguous ``(V, K)`` item–topic transposes used by the exact
        rescoring pass, plus the int8 selection matrices and the
        float32 user-interest image the int8 path multiplies them with.
    ``contexts``
        Per-interval context score vectors ``θ′_t·Φ`` shared by every
        user queried in that interval (float64, and the float32 image
        with error bounds for the int8 path) — the piece of every score
        that batching makes reusable.
    ``masks``
        Per-user boolean exclusion masks built from registered
        per-user exclusion lists.

    Parameters
    ----------
    index_capacity, matrix_capacity, context_capacity, mask_capacity:
        Maximum entries per region. See ``docs/performance.md`` for
        sizing guidance (roughly: indexes/matrices ≈ working set of hot
        intervals; contexts ≈ intervals per serving window; masks ≈
        concurrently active users).
    """

    def __init__(
        self,
        index_capacity: int = 8,
        matrix_capacity: int = 8,
        context_capacity: int = 256,
        mask_capacity: int = 4096,
    ) -> None:
        self.indexes: LRUCache[SortedTopicLists] = LRUCache(index_capacity)
        self.matrices: LRUCache[AnyArray | QuantizedMatrix] = LRUCache(matrix_capacity)
        self.contexts: LRUCache[AnyArray | ContextVector] = LRUCache(context_capacity)
        self.masks: LRUCache[BoolArray] = LRUCache(mask_capacity)

    def regions(self) -> dict[str, LRUCache[Any]]:
        """The four named regions."""
        return {
            "indexes": self.indexes,
            "matrices": self.matrices,
            "contexts": self.contexts,
            "masks": self.masks,
        }

    def region_stats(self) -> dict[str, CacheStats]:
        """Per-region counter snapshots."""
        return {name: region.stats() for name, region in self.regions().items()}

    def stats(self) -> CacheStats:
        """Aggregate counters across all regions."""
        total = CacheStats()
        for region in self.regions().values():
            total = total + region.stats()
        return total

    def clear(self) -> None:
        """Drop every cached entry in every region."""
        for region in self.regions().values():
            region.clear()

    def invalidate_user(self, user: int) -> None:
        """Forget a user's cached exclusion mask (call when it changes)."""
        self.masks.discard(user)

    def successor(
        self, served: TCAMParameters | None, incoming: TCAMParameters
    ) -> "ServingCache":
        """The cache of the generation that replaces this one's.

        ``served`` / ``incoming`` are the parameter containers of the two
        generations (``served=None`` for a model without one). Returns a
        new cache of the same capacities. When ``incoming`` shares its
        base arrays with ``served`` (``is`` — what a delta publish
        carries) it is seeded with the entries that hang off them, so a
        swap that replaced a few ``θ′_t`` rows does not rebuild what
        ``φ``/``φ′`` own: the rescore transposes, quantized selection
        forms and TA indexes of a container with one static topic–item
        matrix, its ``("ctx", t)`` / ``("qctx", t)`` rows whose ``θ′_t``
        is bitwise unchanged, the ``φ``-only ``qsel`` form of any
        container, and the exclusion masks (same catalogue).
        ``("theta", …)`` images follow the replaced ``θ`` and start cold,
        as does everything of a per-interval matrix (``θ′_t`` is a row
        of it, and its context rows are views of the replaced ``θ′``).
        This cache is left as it is — batches in flight on the old
        generation keep using it.
        """
        new = ServingCache(
            self.indexes.capacity,
            self.matrices.capacity,
            self.contexts.capacity,
            self.masks.capacity,
        )
        if served is None or not incoming.shares_base(served):
            return new
        static = incoming.STATIC_MATRIX
        for key, matrix in self.matrices.items():
            tag = key[0]  # type: ignore[index]
            if tag == "qsel" or (static and tag != "theta"):
                new.matrices.put(key, matrix)
        for user, mask in self.masks.items():
            new.masks.put(user, mask)
        if static:
            for key, index in self.indexes.items():
                new.indexes.put(key, index)
            old_rows, new_rows = served.theta_time, incoming.theta_time
            shared = min(old_rows.shape[0], new_rows.shape[0])
            for key, context in self.contexts.items():
                t = key[1]  # type: ignore[index]
                if t < shared and np.array_equal(old_rows[t], new_rows[t]):
                    new.contexts.put(key, context)
        return new


class _Workspace:
    """Grow-once scratch buffers (the engine's workspace discipline).

    Buffers are keyed by ``(name, dtype)`` and grown to the elementwise
    maximum shape ever requested, so the steady state of a serving loop
    performs no per-batch allocations.

    Single-writer contract: a workspace is owned by exactly one
    :class:`BatchScorer` and is not thread-safe — per-thread recommenders
    each own their scorer (and therefore their workspace), sharing only
    the locked :class:`ServingCache`.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, str], AnyArray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype: str) -> AnyArray:
        """A writable view of the named buffer with the requested shape."""
        key = (name, dtype)
        buffer = self._buffers.get(key)
        if buffer is None or any(b < s for b, s in zip(buffer.shape, shape)):
            grown = shape if buffer is None else tuple(
                max(b, s) for b, s in zip(buffer.shape, shape)
            )
            buffer = np.empty(grown, dtype=np.dtype(dtype))
            self._buffers[key] = buffer
        return buffer[tuple(slice(0, s) for s in shape)]


def check_serve_dtype(dtype: str) -> str:
    """Validate a serving dtype string and return it."""
    if dtype not in _SERVE_DTYPES:
        raise ValueError(f"serve dtype must be one of {_SERVE_DTYPES}, got {dtype!r}")
    return dtype


def exact_rescore(
    item_topic: FloatArray, weights: FloatArray, candidates: IntArray, k: int
) -> TopKResult:
    """Exact top-k of a candidate set, bit-identical to the TA engines.

    Each candidate is scored with the same primitive
    :func:`~repro.recommend.threshold.ta_topk` uses — one dot product of
    the item's contiguous ``item_topic`` row with the query vector — and
    the result is ranked by ``(score desc, item asc)``, the tie order
    every engine in this package shares.
    """
    count = candidates.size
    scores = np.empty(count)
    for i in range(count):
        scores[i] = item_topic[candidates[i]] @ weights
    order = np.lexsort((candidates, -scores))[:k]
    recommendations = [
        Recommendation(item=int(candidates[i]), score=float(scores[i])) for i in order
    ]
    return TopKResult(
        recommendations=recommendations, items_scored=count, sorted_accesses=0
    )


def _row_boundaries(scores: AnyArray, count: int) -> AnyArray:
    """Each row's ``count``-th largest selection score.

    One :func:`np.partition` per row instead of a single 2-D
    ``argpartition``: the peak temporary is ``O(V)`` rather than
    ``O(rows · V)`` int64 indexes, which is what keeps a
    million-item row block from allocating hundreds of megabytes
    per selection pass. The boundary values are identical.
    """
    rows, num_items = scores.shape
    boundary = np.empty(rows, dtype=scores.dtype)
    pivot = num_items - count
    for r in range(rows):
        boundary[r] = np.partition(scores[r], pivot)[pivot]
    return boundary


def select_candidates(scores: AnyArray, count: int) -> tuple[AnyArray, BoolArray]:
    """Per-row candidate supersets from a block of selection scores.

    Returns ``(boundary, mask)`` where ``mask[r, v]`` marks item ``v`` a
    candidate of row ``r``: every item whose selection score reaches the
    row's ``count``-th largest value. Ties at the boundary are *all*
    included, so the true top-k can never be lost to an arbitrary
    partition tie split.
    """
    rows, num_items = scores.shape
    if count >= num_items:
        return (
            np.full(rows, -np.inf),
            np.ones((rows, num_items), dtype=bool),
        )
    boundary = _row_boundaries(scores, count)
    return boundary, scores >= boundary[:, None]


def select_candidates_margin(
    scores: AnyArray, k: int, margins: FloatArray
) -> BoolArray:
    """Candidate mask for approximate scores with a proven error bound.

    ``margins[r]`` must bound ``2·ε_r`` where
    ``|scores[r, v] − exact_r(v)| ≤ ε_r`` for all ``v`` (see
    :func:`~repro.recommend.quantize.selection_margins`). Every item
    whose approximate score reaches the row's k-th largest value minus
    its margin is a candidate; by the ``2ε`` argument in
    :mod:`repro.recommend.quantize` this superset provably contains
    every item of the exact top-k, tie order included. The cutoff is
    rounded *down* (one ulp in float64, then one more in the score
    dtype) so the floating-point evaluation of ``boundary − margin``
    can never exclude an item the real-arithmetic cutoff would keep.
    """
    rows, num_items = scores.shape
    mask: BoolArray
    if k >= num_items:
        mask = np.ones((rows, num_items), dtype=bool)
        return mask
    boundary = _row_boundaries(scores, k)
    cutoff = np.nextafter(boundary.astype(np.float64) - margins, -np.inf)
    cutoff_cast = np.nextafter(
        cutoff.astype(scores.dtype), np.array(-np.inf, dtype=scores.dtype)
    )
    mask = scores >= cutoff_cast[:, None]
    return mask


class BatchScorer:
    """Scores interval-grouped query batches against one primary model.

    One scorer is owned by each :class:`TemporalRecommender`; it holds
    the reused GEMM workspaces and consults the shared
    :class:`ServingCache` for selection matrices, rescore transposes and
    context vectors. Not safe for concurrent use from multiple threads
    (clone the recommender per thread instead).
    """

    def __init__(self, model: Any, cache: ServingCache) -> None:
        self.model = model
        self.cache = cache
        self.workspace = _Workspace()
        self._sanitizer = Sanitizer("serving") if sanitize_enabled() else None

    # -- model structure -------------------------------------------------

    def _params(self) -> TCAMParameters | None:
        """The container that *is* the primary model's query space, if any.

        Returns ``params`` when the model derives from
        :class:`~repro.core.params.ParamsBackedModel` and is fitted — so
        interest and context parts can be scored separately, with the
        context vector cached per interval and every variant-specific
        term asked of ``params`` — or ``None`` for any other
        ``query_space`` provider, including one that only wraps such a
        container and reshapes its query space (``BackgroundTTCAM``
        appends a background row). Called once per group, never per row.
        """
        if isinstance(self.model, ParamsBackedModel):
            return self.model.params_
        return None

    def _matrix_key(self, interval: int) -> Hashable:
        """The model's matrix cache key for an interval (``None`` = uncachable)."""
        key_fn = getattr(self.model, "matrix_cache_key", None)
        if key_fn is None:
            return None
        return key_fn(interval)

    # -- cached building blocks ------------------------------------------

    def _stacked_matrix(self, interval: int, users: Sequence[int]) -> FloatArray:
        """The full ``(K, V)`` topic–item matrix for one interval."""
        params = self._params()
        if params is not None:
            stacked: FloatArray = params.topic_item_matrix(interval)
            return stacked
        generic: FloatArray = self.model.query_space(int(users[0]), interval)[1]
        return generic

    def _item_topic(self, interval: int, users: Sequence[int]) -> FloatArray:
        """Contiguous ``(V, K)`` transpose used by the exact rescore pass.

        Served from the model's parameter store when it persists one,
        otherwise built once per matrix key and cached in the
        ``matrices`` region.
        """
        key = self._matrix_key(interval)
        if key is None:
            return np.ascontiguousarray(self._stacked_matrix(interval, users).T)
        store = self._store()
        if store is not None:
            stored = store.item_topic(key)
            if stored is not None:
                return stored  # type: ignore[no-any-return]
        cache_key = ("item_topic", key)
        item_topic = self.cache.matrices.get(cache_key)
        if item_topic is None:
            item_topic = np.ascontiguousarray(self._stacked_matrix(interval, users).T)
            self.cache.matrices.put(cache_key, item_topic)
        return item_topic

    def _interest_matrix(self, theta: FloatArray, key: Hashable, dtype: str) -> AnyArray:
        """``theta`` in the selection compute dtype (float32 image cached).

        Cold path of :meth:`serve_group`: the int8 path's float32
        conversion allocates, so it lives outside the hot kernel and its
        result is cached per ``(matrix key, dtype)`` in the ``matrices``
        region.
        """
        if dtype == "float64":
            return theta
        theta_key = ("theta", key, dtype)
        converted = self.cache.matrices.get(theta_key)
        if converted is None:
            converted = theta.astype(np.float32)
            self.cache.matrices.put(theta_key, converted)
        return converted

    def _store(self) -> Any:
        """The model's optional mmap parameter store (duck-typed).

        A model loaded from an mmap snapshot layout (see
        :mod:`repro.recommend.paramstore`) exposes ``param_store``; the
        scorer then prefers the store's persisted derived arrays —
        rescore transposes, quantized selection forms, context vectors —
        over rebuilding them, so a million-item serving process pages
        instead of materialising.
        """
        return getattr(self.model, "param_store", None)

    def _quantized_selection(
        self, matrix: FloatArray, key: Hashable, tag: str, dtype: str
    ) -> QuantizedMatrix:
        """Quantized selection matrix, store-backed or built once and cached.

        Cold path of :meth:`serve_group`: quantization reads the full
        float64 matrix, so it happens at most once per ``(key, dtype)``
        and the compact result lives in the ``matrices`` cache region.
        Store-backed forms are returned directly — the store memoises
        its mmap-backed arrays and they stay out of the cache's byte
        count (they are pageable, not resident).
        """
        store = self._store()
        if store is not None and tag == "qsel":
            from_store = store.quantized_selection(dtype)
            if from_store is not None:
                return from_store  # type: ignore[no-any-return]
        if key is None:
            return quantize_matrix(np.asarray(matrix, dtype=np.float64), dtype)
        cache_key = (tag, key, dtype)
        cached = self.cache.matrices.get(cache_key)
        if isinstance(cached, QuantizedMatrix):
            return cached
        quantized = quantize_matrix(np.asarray(matrix, dtype=np.float64), dtype)
        self.cache.matrices.put(cache_key, quantized)
        return quantized

    def _quantized_context(self, interval: int, params: Any) -> ContextVector:
        """Float32 context vector with measured error stats, per interval.

        Wraps :meth:`_context_vector`'s exact float64 vector in a
        :class:`~repro.recommend.quantize.ContextVector` so the margin
        derivation can bound the context contribution; cached in the
        ``contexts`` region (or served straight from the parameter
        store's persisted per-interval stats).
        """
        store = self._store()
        if store is not None:
            from_store = store.context_vector(interval)
            if from_store is not None:
                return from_store  # type: ignore[no-any-return]
        cache_key = ("qctx", interval)
        cached = self.cache.contexts.get(cache_key)
        if isinstance(cached, ContextVector):
            return cached
        exact = np.asarray(self._context_vector(interval, params), dtype=np.float64)
        vector = ContextVector.from_exact(exact)
        self.cache.contexts.put(cache_key, vector)
        return vector

    def _block_margins(
        self,
        params: Any,
        block_users: Sequence[int],
        weights_f64: Sequence[FloatArray],
        qsel: QuantizedMatrix,
        qcontext: ContextVector | None,
    ) -> FloatArray:
        """Per-row ``2·ε_r`` candidate margins of one quantized block.

        Cold helper of :meth:`serve_group` — allocates only small
        ``(rows,)`` / ``(rows, K)`` temporaries. The split path
        (``params`` given) derives the weight magnitudes from the
        parameter container directly (``λ_u·θ_u ≥ 0`` elementwise); the
        generic path takes absolute values of the models' stacked query
        vectors.
        """
        if params is None:
            abs_weights = np.abs(np.asarray(weights_f64, dtype=np.float64))
            eps = selection_margins(abs_weights, qsel)
        else:
            users_idx = np.asarray(block_users, dtype=np.int64)
            lam = np.asarray(params.lambda_u[users_idx], dtype=np.float64)
            abs_weights = np.abs(
                lam[:, None] * np.asarray(params.theta[users_idx], dtype=np.float64)
            )
            if qcontext is None:  # pragma: no cover - split path always has one
                raise RuntimeError("quantized split path requires a context vector")
            eps = selection_margins(
                abs_weights,
                qsel,
                context_weight=np.abs(1.0 - lam),
                context_delta=qcontext.delta,
                context_abs_max=qcontext.abs_max,
            )
        margins: FloatArray = 2.0 * eps
        return margins

    def _context_vector(self, interval: int, params: Any) -> AnyArray:
        """Cached per-interval float64 context score vector ``P(v | θ′_t)``.

        This is the part of every query's selection score shared by all
        users of the interval — the container's ``context_scores`` — so a
        repeat-interval query only pays for the small user-interest GEMM.
        """
        store = self._store()
        if store is not None:
            row = store.context_row(interval)
            if row is not None:
                return row  # type: ignore[no-any-return]
        cache_key = ("ctx", interval)
        context = self.cache.contexts.get(cache_key)
        if context is None:
            context = params.context_scores(interval)
            self.cache.contexts.put(cache_key, context)
        return context

    def exclusion_mask(
        self, user: int, exclude: object, num_items: int
    ) -> BoolArray | None:
        """Per-row boolean exclusion mask, cached per user for mappings.

        ``exclude`` may be ``None``, an array of item ids applied to
        every row, or a mapping ``user -> item ids`` (per-user masks are
        cached in the ``masks`` region; call
        :meth:`ServingCache.invalidate_user` when a user's exclusion
        list changes).
        """
        if exclude is None:
            return None
        if isinstance(exclude, Mapping):
            items = exclude.get(user)
            if items is None or len(items) == 0:
                return None
            mask = self.cache.masks.get(user)
            if mask is None or mask.shape[0] != num_items:
                mask = np.zeros(num_items, dtype=bool)
                mask[np.asarray(items, dtype=np.int64)] = True
                self.cache.masks.put(user, mask)
            return mask
        items = np.asarray(exclude, dtype=np.int64)
        if items.size == 0:
            return None
        mask = np.zeros(num_items, dtype=bool)
        mask[items] = True
        return mask

    # -- group serving ---------------------------------------------------

    @hot_path
    def serve_group(
        self,
        interval: int,
        users: Sequence[int],
        k: int,
        exclude: object,
        dtype: str,
        row_block: int = DEFAULT_ROW_BLOCK,
    ) -> list[TopKResult]:
        """Top-k results for every user of one interval group.

        Scores ``row_block`` queries at a time as one GEMM into the
        reused workspace, selects ``k + margin`` candidates per row
        (boundary ties included) and rescores them exactly — see the
        module docstring for why the two phases are needed.
        """
        check_serve_dtype(dtype)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if row_block <= 0:
            raise ValueError(f"row_block must be positive, got {row_block}")
        params = self._params()  # None: no split path, score query_space whole
        key = self._matrix_key(interval)
        item_topic = self._item_topic(interval, users)
        num_items = item_topic.shape[0]
        quantized = dtype == "int8"
        compute = "float32" if quantized else "float64"  # selection GEMM buffers
        count = 0 if quantized else min(num_items, k + SELECTION_MARGIN[dtype])
        stage_cols = min(num_items, STAGE_COLUMNS)

        qsel: QuantizedMatrix | None = None
        qcontext: ContextVector | None = None
        sel_matrix: AnyArray | None = None
        context: AnyArray | None = None
        if params is None:
            if quantized:
                qsel = self._quantized_selection(
                    self._stacked_matrix(interval, users), key, "qstack", dtype
                )
                k_dim = qsel.shape[0]
            else:
                sel_matrix = self._stacked_matrix(interval, users)
                k_dim = sel_matrix.shape[0]
        else:
            if quantized:
                qsel = self._quantized_selection(params.phi, (key, "phi"), "qsel", dtype)
                qcontext = self._quantized_context(interval, params)
                k_dim = qsel.shape[0]
            else:
                sel_matrix = params.phi
                context = self._context_vector(interval, params)
                k_dim = sel_matrix.shape[0]

        results: list[TopKResult] = []
        for start in range(0, len(users), row_block):
            block_users = [int(u) for u in users[start : start + row_block]]
            rows = len(block_users)
            scores = self.workspace.get("scores", (rows, num_items), compute)
            weights_f64: list[FloatArray] = []

            if params is None:
                qweights = self.workspace.get("qweights", (rows, k_dim), compute)
                for r, user in enumerate(block_users):
                    w, _ = self.model.query_space(user, interval)
                    weights_f64.append(w)
                    np.copyto(qweights[r], w, casting="same_kind")
                if qsel is not None:
                    stage = self.workspace.get("stage", (k_dim, stage_cols), "float32")
                    staged_select_gemm(qsel, qweights, scores, stage)
                else:
                    assert sel_matrix is not None  # set by the non-quantized setup
                    np.matmul(qweights, sel_matrix, out=scores)
            else:
                theta = self._interest_matrix(params.theta, key, compute)
                interest = self.workspace.get("interest", (rows, k_dim), compute)
                np.take(theta, block_users, axis=0, out=interest)
                lam = params.lambda_u[block_users]
                np.multiply(interest, lam[:, None], out=interest, casting="same_kind")
                if qsel is not None:
                    stage = self.workspace.get("stage", (k_dim, stage_cols), "float32")
                    staged_select_gemm(qsel, interest, scores, stage)
                    ctx_values = qcontext.values if qcontext is not None else None
                else:
                    assert sel_matrix is not None  # set by the non-quantized setup
                    np.matmul(interest, sel_matrix, out=scores)
                    ctx_values = context
                assert ctx_values is not None  # split path always has a context
                ctx_row = self.workspace.get("ctx_row", (num_items,), compute)
                for r, user in enumerate(block_users):
                    np.multiply(ctx_values, 1 - lam[r], out=ctx_row, casting="same_kind")
                    scores[r] += ctx_row
                for user in block_users:
                    weights_f64.append(params.query_weights(user, interval))

            masks = [
                self.exclusion_mask(user, exclude, num_items) for user in block_users
            ]
            for r, mask in enumerate(masks):
                if mask is not None:
                    scores[r][mask] = -np.inf

            if qsel is not None:
                margins = self._block_margins(
                    params, block_users, weights_f64, qsel, qcontext
                )
                cand_mask = select_candidates_margin(scores, k, margins)
            else:
                _, cand_mask = select_candidates(scores, count)
            for r in range(rows):
                candidates = np.flatnonzero(cand_mask[r])
                if masks[r] is not None:
                    candidates = candidates[~masks[r][candidates]]
                results.append(exact_rescore(item_topic, weights_f64[r], candidates, k))
        if self._sanitizer is not None:
            check_topk_finite(results)
        return results
