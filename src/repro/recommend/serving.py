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

* **Grouping.** Queries whose intervals share a topic–item matrix —
  the model's ``matrix_cache_key``: every TTCAM interval, one ITCAM
  interval — are served in one pass (:meth:`BatchScorer.serve_queries`).
  What differs between the TCAM variants — query weights, matrix,
  context, cache key — is asked of the model's parameter container
  (:mod:`repro.core.params`), never re-derived here; the one
  per-interval piece of a pass, each block's maximum temporal-context
  score, is cached per interval and read by that interval's rows.
* **Block-max selection.** The items are laid out in blocks of
  :data:`SELECT_BLOCK` by a per-base :class:`BlockIndex` — grouped by
  their heaviest topic, heaviest first — with each block's per-topic
  maxima of the selection matrix. A row block bounds every block with
  one GEMM, ``Σ_z ϑ_q[z]·max_b ϕ[z,·]`` — TCAM-TA's threshold (paper
  Section 4) applied to a block, rounded up for float64 — then each row
  scores in two fixed rounds: its 16 blocks of highest bound, whose
  ``k``-th score is ``τ₁``, then every other block whose bound reaches
  ``τ₁``. No item of an unscored block can reach the row's final
  ``k``-th score (:func:`block_bounds` and :func:`select_blocks` hold
  the proof). At V=100k a row scores about 0.8 % of the catalogue.
* **Exact scores, one pass.** Each visited item is scored with a stacked
  vector·vector :func:`np.matmul`; numpy evaluates every ``(1×K)@(K×1)``
  of it with the same ``DOUBLE_dot`` (``cblas_ddot``) as the TA engines'
  per-item ``item_topic[v] @ ϑ_q`` (the block-ordered matrix every
  model scores holds bit-identical rows). Selection scores are
  therefore the reference engines' bits, and a row's answer is read off
  them, every row of a batch ranked by one ``lexsort`` on the shared
  ``(score desc, item asc)`` tie-break (:func:`ranked_rows`): in
  float64 the returned items, scores and tie order are exactly those of
  :func:`~repro.recommend.threshold.ta_topk`. (A GEMV over the same rows
  sums in another order and differs in the last ULP, so it cannot stand
  in: its scores would need a candidate margin and an exact rescore.)
* **Bounded caching.** A :class:`ServingCache` of small LRU regions
  holds the derived serving state: block indexes and arranged
  matrices, per-interval context block maxima and — only for the
  reference engine — sorted TA indexes, all capped by entry count,
  with hit/miss/eviction counters surfaced on
  :class:`~repro.recommend.recommender.ServingStatus`. A snapshot
  mapped in place (:mod:`repro.recommend.paramstore`) stores its
  block index, arranged matrix and context block maxima, and is
  served from them with nothing cached.

float64 is the one serving dtype; ``docs/performance.md`` records why
no narrower mode exists.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Generic,
    Hashable,
    Iterator,
    KeysView,
    Mapping,
    NamedTuple,
    Sequence,
    TypeVar,
)

import numpy as np

from ..core.params import ParamsBackedModel, TCAMParameters
from ..tooling.sanitize import check_topk_finite, sanitize_enabled
from ..typing import AnyArray, BoolArray, FloatArray, IntArray, hot_path
from .ranking import Recommendation, TopKResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .threshold import SortedTopicLists

_V = TypeVar("_V")

#: Extra candidates beyond ``k`` the per-layer probe
#: (``benchmarks/e2e/layers.py``) rescores per row; nothing that serves
#: reads it: selection scores with the rescore's own dot and keeps
#: exactly ``k``.
SELECTION_MARGIN = {"float64": 16}

#: Default number of queries scored per GEMM block.
DEFAULT_ROW_BLOCK = 64

#: What a ``dtype`` argument may name. ``"int8"`` is a legacy name for the
#: one float64 path: int8 selection always returned float64's bits.
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

    Arrays (and anything exposing ``nbytes``, e.g. a :class:`BlockIndex`)
    report their buffer size; other values are accounted as zero bytes —
    the count tracks large array payloads, it is not a general memory
    profiler.
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

    Three regions, each independently capped:

    ``indexes``
        :class:`~repro.recommend.threshold.SortedTopicLists` per
        topic–item matrix key, built only when a caller asks for the
        reference engine (``recommend(method="ta")``) — TTCAM needs one
        entry ever, ITCAM one per *distinct recently queried* interval.
        The batch scorer never reads or fills this region.
    ``matrices``
        The :class:`BlockIndex` of the selection matrix (``("blocks",
        …)``) and the block-ordered ``(V, K)`` item–topic matrices
        selection scores against (``("arranged", key)``). A model mapped
        from a snapshot that stores them reads its own and puts nothing
        here.
    ``contexts``
        Per-interval block maxima of the context score vector
        ``θ′_t·Φ`` (``("cmax", t)``, what the bound reads) — the piece
        of every score shared by every user queried in that interval.

    Parameters
    ----------
    index_capacity, matrix_capacity, context_capacity:
        Maximum entries per region. See ``docs/performance.md`` for
        sizing guidance (roughly: indexes/matrices ≈ working set of hot
        intervals; contexts ≈ intervals per serving window).
    """

    def __init__(
        self,
        index_capacity: int = 8,
        matrix_capacity: int = 8,
        context_capacity: int = 256,
    ) -> None:
        self.indexes: LRUCache[SortedTopicLists] = LRUCache(index_capacity)
        self.matrices: LRUCache[AnyArray | BlockIndex] = LRUCache(matrix_capacity)
        self.contexts: LRUCache[AnyArray] = LRUCache(context_capacity)

    def regions(self) -> dict[str, LRUCache[Any]]:
        """The three named regions."""
        return {
            "indexes": self.indexes,
            "matrices": self.matrices,
            "contexts": self.contexts,
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
        ``φ``/``φ′`` own: the ``("blocks", "phi")`` index of any
        container, and of a container with one static topic–item matrix
        its ``("arranged", key)`` matrix, its TA indexes and its
        ``("cmax", t)`` entries whose ``θ′_t`` is bitwise unchanged.
        Everything of a per-interval matrix starts cold (``θ′_t`` is a
        row of it).
        This cache is left as it is — batches in flight on the old
        generation keep using it.
        """
        new = ServingCache(
            self.indexes.capacity,
            self.matrices.capacity,
            self.contexts.capacity,
        )
        if served is None or not incoming.shares_base(served):
            return new
        static = incoming.STATIC_MATRIX
        for key, matrix in self.matrices.items():
            if static or key == ("blocks", "phi"):
                new.matrices.put(key, matrix)
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
        self._owners: dict[tuple[str, str], object] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype: str) -> AnyArray:
        """A writable view of the named buffer with the requested shape."""
        key = (name, dtype)
        buffer = self._buffers.get(key)
        if buffer is not None and buffer.shape == shape:
            return buffer
        if buffer is None or any(map(operator.lt, buffer.shape, shape)):
            grown = shape if buffer is None else tuple(map(max, buffer.shape, shape))
            buffer = np.empty(grown, dtype=np.dtype(dtype))
            self._buffers[key] = buffer
            self._owners.pop(key, None)
        return buffer[tuple(map(slice, shape))]

    def keeps(self, name: str, dtype: str, owner: object) -> bool:
        """Whether the named buffer still holds what ``owner`` last wrote; ``owner``'s from now.

        A buffer that :meth:`get` regrew holds nothing. ``owner`` is
        compared by identity and held, so a live id is never mistaken
        for another object's.
        """
        key = (name, dtype)
        kept = self._owners.get(key) is owner
        self._owners[key] = owner
        return kept


def check_dtype(dtype: str) -> str:
    """Validate a ``dtype`` argument and return it (both names serve float64)."""
    if dtype not in _SERVE_DTYPES:
        raise ValueError(f"serve dtype must be one of {_SERVE_DTYPES}, got {dtype!r}")
    return dtype


def ranked_rows(
    rows: IntArray, items: IntArray, scores: FloatArray, k: int, items_scored: IntArray
) -> list[TopKResult]:
    """Each row's top ``k`` of its scored candidates, ranked ``(score desc, item asc)``.

    ``rows[i]`` names candidate ``i``'s row (any order) and
    ``items_scored[r]`` is row ``r``'s ``items_scored``; one ``lexsort``
    ranks every row at once, in the tie order every engine in this
    package shares.
    """
    order = np.lexsort((items, -scores, rows))
    counts = np.bincount(rows, minlength=items_scored.size)
    ends = np.cumsum(counts)
    ranked_items = items[order].tolist()
    ranked_scores = scores[order].tolist()
    results = []
    for end, count, scored in zip(ends.tolist(), counts.tolist(), items_scored.tolist()):
        start = end - count
        top = slice(start, start + min(k, count))
        results.append(
            TopKResult(
                recommendations=[
                    Recommendation(item, score)
                    for item, score in zip(ranked_items[top], ranked_scores[top])
                ],
                items_scored=scored,
                sorted_accesses=0,
            )
        )
    return results


def ranked_topk(items: IntArray, scores: FloatArray, k: int) -> TopKResult:
    """The top ``k`` of one row's scored candidates: :func:`ranked_rows` of one row.

    ``items_scored`` counts the candidates.
    """
    rows = np.zeros(items.size, dtype=np.int64)
    return ranked_rows(rows, items, scores, k, np.array([items.size]))[0]


def exact_rescore(
    item_topic: FloatArray,
    weights: FloatArray,
    candidates: IntArray,
    k: int,
    rows: IntArray | None = None,
) -> TopKResult:
    """Exact top-k of a candidate set, bit-identical to the TA engines.

    Every candidate is scored in one stacked vector·vector
    :func:`np.matmul` of its contiguous ``item_topic`` row with the query
    vector — numpy evaluates each ``(1×K)@(K×1)`` with the ``DOUBLE_dot``
    that :func:`~repro.recommend.threshold.ta_topk`'s per-item
    ``item_topic[v] @ w`` reaches — and ranked by :func:`ranked_topk`.
    ``rows[i]`` is candidate ``i``'s row of ``item_topic`` when that
    matrix is not in item-id order (a matrix :meth:`BlockIndex.arrange`
    laid out in block order).
    """
    gathered = np.take(item_topic, candidates if rows is None else rows, axis=0)
    scores = np.matmul(gathered[:, None, :], weights[:, None])[:, 0, 0]
    return ranked_topk(candidates, scores, k)


#: Items per selection block — the unit :class:`BlockIndex` bounds and the
#: block-max selector scores or prunes as a whole. Chosen by measurement
#: at V=100k (``docs/performance.md``, "Serving"): 16 and 32 tie on group
#: time, 32 builds its index faster, 64 and 128 score too many items.
SELECT_BLOCK = 32

#: Queries' blocks gathered per scoring pass are capped at this many bytes,
#: so a row that prunes nothing (uniform ``ϕ``) streams its catalogue
#: through a bounded buffer instead of one ``(rows, V, K)`` copy.
_GATHER_BYTES = 4 << 20

#: Blocks a row scores in :func:`select_blocks`' first round (or
#: ``⌈count / B⌉`` if more), taken by bound. Measured on the benchmark's
#: ``serve_batch`` queries (V=100k, k=10), mean blocks scored per row
#: over both rounds: 8 → 531 (a ``τ₁`` that low lets most bounds
#: through), 12 → 26.8, 16 → 24.8, 24 → 28.7, 32 → 34.9.
_FIRST_BLOCKS = 16

#: Blocks per pass of :meth:`BlockIndex.build`'s gather-and-max: a slice
#: that stays in cache between its two operations.
_BUILD_BLOCKS = 64

#: float64 unit roundoff.
_ROUNDOFF = 2.0**-53


def _block_order(matrix: FloatArray) -> IntArray:
    """Items grouped by their heaviest row, heaviest first within a group.

    The sort key is ``argmax · 256 + b`` where ``b`` counts quarter
    octaves below the largest column maximum (capped at 255; a
    non-positive maximum sorts last), so it sorts stably as a small
    integer. Any permutation is a correct order; this one makes blocks
    topic-coherent, which is what lets the bound prune.
    """
    rows, num_items = matrix.shape
    best = matrix.max(axis=0)
    dtype = np.int16 if rows <= 127 else np.int32
    # argmax over rows as one compare pass per row (``matrix.argmax(0)``
    # walks a row-major matrix column by column, several times slower):
    # ``rows − max_z [ϕ_z = max]·(rows − z)`` is the first row reaching it.
    flipped = np.zeros(num_items, dtype=dtype)
    hit = np.empty(num_items, dtype=bool)
    for z in range(rows):
        np.equal(matrix[z], best, out=hit)
        np.maximum(flipped, hit * dtype(rows - z), out=flipped)
    heaviest = rows - flipped
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.floor(4 * np.log2(best.max() / best))
    key = heaviest * 256 + np.clip(np.nan_to_num(below, nan=255.0), 0, 255).astype(dtype)
    order: IntArray = np.argsort(key, kind="stable")
    return order


class BlockIndex:
    """A selection matrix's items in blocks of :data:`SELECT_BLOCK`, with maxima.

    ``items[b]`` are the ids of block ``b``'s items; the last block is
    padded with copies of its last item, which leave its maxima as they
    are (the selector never scores a padding slot). ``block_max[b, z]``
    is the largest value row ``z`` of the indexed matrix takes over block
    ``b``'s items (stored transposed and contiguous, ``block_max_t``, the
    operand :func:`block_bounds` multiplies), and ``block_min`` the
    smallest (kept only for signed query weights). The index holds no
    copy of the matrix.
    :meth:`arrange` lays a ``(K, V)`` matrix over the same items out
    item-major in block order — the one matrix selection scores: its
    rows are bit-identical copies of the item-id-ordered transpose's,
    so a per-row dot against it keeps the bits of
    :func:`~repro.recommend.threshold.ta_topk`.
    """

    def __init__(
        self,
        items: IntArray,
        num_items: int,
        block_max_t: FloatArray,
        block_min: FloatArray | None,
    ) -> None:
        self.items = items
        self.num_items = num_items
        self.block_max_t = block_max_t
        self.block_min = block_min

    @classmethod
    def build(
        cls,
        matrix: FloatArray,
        rows: int,
        signed: bool,
        sort: bool = True,
    ) -> tuple["BlockIndex", FloatArray]:
        """Index ``matrix[:rows]`` and return it with :meth:`arrange`'s layout of ``matrix``.

        ``sort=False`` keeps item-id order (one ``O(KV)`` pass, for a
        matrix that is not cached between groups); ``signed`` keeps the
        block minima that negative query weights bound with.
        """
        num_items = matrix.shape[1]
        order = _block_order(matrix[:rows]) if sort else np.arange(num_items)
        num_blocks = -(-num_items // SELECT_BLOCK)
        items = np.empty((num_blocks, SELECT_BLOCK), dtype=np.int64)
        items.reshape(-1)[:num_items] = order
        items.reshape(-1)[num_items:] = order[-1]
        index = cls(
            items,
            num_items,
            np.empty((rows, num_blocks)),
            np.empty((num_blocks, rows)) if signed else None,
        )
        item_major = np.empty((num_blocks * SELECT_BLOCK, matrix.shape[0]))
        block_max = np.empty((num_blocks, rows))  # contiguous: a strided out= is ~2x slower
        for first, last, part in index._slices(matrix, item_major):
            blocks = part.reshape(last - first, SELECT_BLOCK, -1)[:, :, :rows]
            blocks.max(axis=1, out=block_max[first:last])
            if index.block_min is not None:
                blocks.min(axis=1, out=index.block_min[first:last])
        index.block_max_t[...] = block_max.T
        return index, item_major

    @property
    def block_max(self) -> FloatArray:
        """``(blocks, K)`` maxima, a view of the ``(K, blocks)`` :attr:`block_max_t`."""
        block_max: FloatArray = self.block_max_t.T
        return block_max

    @property
    def order(self) -> IntArray:
        """The items in block order, without padding."""
        order: IntArray = self.items.reshape(-1)[: self.num_items]
        return order

    @property
    def num_blocks(self) -> int:
        """Blocks, the last one possibly partial."""
        return int(self.items.shape[0])

    @property
    def nbytes(self) -> int:
        """Accounted bytes (item ids and maxima)."""
        arrays = (self.items, self.block_max_t, self.block_min)
        return sum(int(a.nbytes) for a in arrays if a is not None)

    def _slices(
        self, matrix: FloatArray, out: FloatArray
    ) -> Iterator[tuple[int, int, FloatArray]]:
        """``(first, last, part)``: blocks ``[first, last)`` of ``matrix.T`` in block order.

        Each part is written into ``out`` (``(blocks·B, K)``), which in
        the end is the arranged matrix.
        """
        source = np.ascontiguousarray(matrix.T)
        flat = self.items.reshape(-1)
        for first in range(0, self.num_blocks, _BUILD_BLOCKS):
            last = min(self.num_blocks, first + _BUILD_BLOCKS)
            ids = flat[first * SELECT_BLOCK : last * SELECT_BLOCK]
            part = out[first * SELECT_BLOCK : last * SELECT_BLOCK]
            np.take(source, ids, axis=0, out=part, mode="clip")  # ids in range: no buffering
            yield first, last, part

    def arrange(self, matrix: FloatArray) -> FloatArray:
        """``matrix.T`` with rows in block order (``(blocks·B, K)``, padding included)."""
        item_major = np.empty((self.num_blocks * SELECT_BLOCK, matrix.shape[0]))
        for _ in self._slices(matrix, item_major):
            pass
        return item_major

    def block_maxima(self, values: FloatArray) -> FloatArray:
        """Per-block maximum of a per-item vector (one interval's context scores)."""
        maxima: FloatArray = np.take(values, self.items).max(axis=1)
        return maxima


def block_bounds(
    index: BlockIndex,
    weights: FloatArray,
    context_weight: FloatArray | None = None,
    context_max: FloatArray | None = None,
    slots: IntArray | None = None,
    workspace: _Workspace | None = None,
) -> FloatArray:
    """``(rows, blocks)`` upper bounds on every selection score of each block.

    A row's selection score of item ``v`` is the float64 product
    ``weights[r] @ item_topic[v]`` — in any summation order; the bound
    holds for whichever one :func:`select_blocks` scores with. The bound
    is TCAM-TA's threshold (paper Section 4) applied to a block:
    ``Σ_z w_z · max_{v∈b} ϕ[z,v]``.

    * **Split path** (``context_max`` given; ``weights ≥ 0``): the first
      ``K1`` weights are the container's ``λ_u·θ_u`` and the rest add
      ``(1−λ_u)·P(v | θ′_t)`` (``context_weight`` holds ``1−λ_u``), so
      the bound is ``w[:K1] @ block_max + (1−λ_u)·context_max[b]`` — the
      context vector's own block maxima, far tighter than per-topic
      maxima of ``φ′``. ``context_max`` is one interval's ``(blocks,)``
      maxima, or the ``(D, blocks)`` maxima of a pass's ``D`` intervals,
      row ``r`` reading row ``slots[r]``. It is one GEMM with the context
      folded in as extra columns: ``[w[:K1] | (1−λ)·onehot(slot)] @
      [block_maxᵀ ; context_max]``. The ``D − 1`` other context terms
      are exact zeros, which leave any sum as it is.
    * **Generic path** (``index.block_min`` kept): a negative weight
      bounds with the block minimum, ``w⁺ @ block_max + w⁻ @ block_min``.

    Rounded up for float64: a computed score of ``n ≤ K + 1`` products
    exceeds its real value by at most ``γ_n = n·u/(1 − n·u)`` times the
    sum of the terms' magnitudes (``u = 2⁻⁵³``, any order, FMA or not);
    the computed bound (itself at most ``K + 1`` terms that are not
    zero, the context vector ``K2`` more) falls short of its real value
    by at most that much again. Every magnitude sum is at most the
    bound's magnitude ``A = |w| @ max(|block_max|, |block_min|)`` (plus
    the context term), so adding ``4·(K+2)·u·A`` — ``A`` is the bound
    itself on the split path, where everything is non-negative — covers
    both, the final rounding included, with a factor two to spare.

    The split path's operands and result live in ``workspace`` (a fresh
    one when not given): the result is overwritten by the next call.
    """
    rows = weights.shape[0]
    width, num_blocks = index.block_max_t.shape
    slack = 4 * (weights.shape[1] + 2) * _ROUNDOFF
    topic_weights = weights[:, :width]
    if index.block_min is None:
        scratch = _Workspace() if workspace is None else workspace
        contexts = np.zeros((0, num_blocks)) if context_max is None else context_max
        contexts = contexts.reshape(-1, num_blocks)
        depth = width + contexts.shape[0]
        operand = scratch.get("bound_operand", (depth, num_blocks), "float64")
        if not scratch.keeps("bound_operand", "float64", index):  # copied once per index
            operand[:width] = index.block_max_t
        operand[width:] = contexts
        left = scratch.get("bound_weights", (rows, depth), "float64")
        left.fill(0.0)
        left[:, :width] = topic_weights
        if context_weight is not None:
            columns = width if slots is None else width + slots
            left[np.arange(rows), columns] = context_weight
        bounds = scratch.get("bounds", (rows, num_blocks), "float64")
        np.matmul(left, operand, out=bounds)
        bounds *= 1.0 + slack
        return bounds
    positive = np.maximum(topic_weights, 0.0)
    negative = np.minimum(topic_weights, 0.0)
    bounds = positive @ index.block_max_t + negative @ index.block_min.T
    magnitude = np.maximum(np.abs(index.block_max), np.abs(index.block_min))
    bounds += slack * (np.abs(topic_weights) @ magnitude.T)
    return bounds


class Selection(NamedTuple):
    """What :func:`select_blocks` scored, and the candidates it kept.

    ``rows[i]``, ``items[i]`` and ``scores[i]`` are kept candidate
    ``i`` — a non-excluded item scoring at least its row's ``τ₁`` — in
    no particular order. ``first[r]`` are row ``r``'s round-1 blocks,
    ``scored[r, b]`` says whether it scored block ``b`` in either round
    and ``blocks_scored[r]`` counts those blocks.
    """

    rows: IntArray
    items: IntArray
    scores: FloatArray
    first: IntArray
    scored: BoolArray
    blocks_scored: IntArray

    def items_scored(self, index: BlockIndex) -> IntArray:
        """Each row's scored items: the non-padding slots of its scored blocks."""
        padding = index.num_blocks * SELECT_BLOCK - index.num_items
        counts: IntArray = self.blocks_scored * SELECT_BLOCK - padding * self.scored[:, -1]
        return counts


def _score_blocks(
    matrix: FloatArray,
    index: BlockIndex,
    weights: FloatArray,
    rows: IntArray,
    blocks: IntArray,
    excluded: Sequence[BoolArray | None] | None,
    out: FloatArray,
    workspace: _Workspace,
) -> None:
    """Score block ``blocks[i]`` against ``weights[rows[i]]`` into ``out[i]`` (``(n, B)``).

    ``matrix`` is :meth:`BlockIndex.arrange`'s layout reshaped to
    ``(blocks, B, K)``. Gathers are bounded by
    :data:`_GATHER_BYTES`. ``rows`` must be non-decreasing. Padding
    slots, and items ``excluded[r]`` names, score ``−inf``.
    """
    width = matrix.shape[-1]
    per_pass = max(1, _GATHER_BYTES // (SELECT_BLOCK * width * 8))
    for lo in range(0, blocks.size, per_pass):
        hi = min(blocks.size, lo + per_pass)
        gathered = workspace.get("gathered", (hi - lo, SELECT_BLOCK, width), "float64")
        np.take(matrix, blocks[lo:hi], axis=0, out=gathered, mode="clip")  # in range: no buffering
        np.matmul(
            gathered.reshape(hi - lo, SELECT_BLOCK, 1, width),
            weights[rows[lo:hi], None, :, None],
            out=out[lo:hi].reshape(hi - lo, SELECT_BLOCK, 1, 1),
        )
    tail = index.num_items - (index.num_blocks - 1) * SELECT_BLOCK
    if tail < SELECT_BLOCK:
        out[blocks == index.num_blocks - 1, tail:] = -np.inf
    if excluded is not None:
        edges = np.searchsorted(rows, np.arange(len(excluded) + 1)).tolist()
        for r, mask in enumerate(excluded):
            if mask is not None:
                lo, hi = edges[r], edges[r + 1]
                out[lo:hi][mask[index.items[blocks[lo:hi]]]] = -np.inf


def _harvest(
    index: BlockIndex, scores: FloatArray, rows: IntArray, blocks: IntArray, tau: FloatArray
) -> tuple[IntArray, IntArray, FloatArray]:
    """``(rows, items, scores)`` of the slots of ``scores`` (``(n, B)``) at or above their row's τ."""
    at, slot = np.nonzero(scores >= tau[rows][:, None])
    return rows[at], index.items[blocks[at], slot], scores[at, slot]


def select_blocks(
    matrix: FloatArray,
    index: BlockIndex,
    weights: FloatArray,
    bounds: FloatArray,
    count: int,
    excluded: Sequence[BoolArray | None] | None = None,
    workspace: _Workspace | None = None,
) -> Selection:
    """Block-max selection in two rounds, scored exactly: each row's tie-inclusive top ``count``.

    Each visited item's row of ``matrix`` is scored against ``weights[r]``:
    ``matrix`` is :meth:`BlockIndex.arrange`'s layout (block ``b`` in rows
    ``[b·B, (b+1)·B)``). The scores come from one stacked vector·vector :func:`np.matmul`
    (``(1×K)@(K×1)`` per item), which numpy evaluates with the same
    ``DOUBLE_dot`` as :func:`~repro.recommend.threshold.ta_topk`'s
    ``item_topic[v] @ w``: a score here is the TA engine's, bit for bit
    (a ``(n×K)@(K×1)`` GEMV is not).

    * **Round 1.** Each row scores its ``F = max(16, ⌈count / B⌉)``
      blocks of highest bound (one ``argpartition``, no sort). Padding
      slots and the row's exclusions (``excluded[r][v]``, by item id)
      score ``−inf`` first, so an excluded high scorer cannot raise
      ``τ₁``, the row's ``count``-th largest score so far (``−inf``
      when fewer than ``count`` items are left).
    * **Round 2.** Each row scores every other block whose bound is
      ``≥ τ₁`` — a bound equal to ``τ₁`` is scored.

    **Why two rounds are complete.** Let ``τ`` be the row's
    ``count``-th largest non-excluded score over the whole catalogue.
    ``τ₁`` is the ``count``-th largest over a subset, so ``τ₁ ≤ τ``. An
    item scoring ``≥ τ`` lies in a block whose bound is at least its
    score (:func:`block_bounds` rounds up), so ``≥ τ ≥ τ₁``: every such
    block was scored, in one round or the other. The scored items at or
    above ``τ₁`` therefore contain every catalogue item at or above
    ``τ``, boundary ties included, and their top ``count`` by ``(score
    desc, item asc)`` is the catalogue's — bit for bit ``ta_topk``'s.

    Returns those candidates (each row's scored, non-excluded items
    scoring ``≥ τ₁``) with the blocks scored (:class:`Selection`).
    ``scored`` lives in ``workspace`` (a fresh one when not given).
    """
    scratch = _Workspace() if workspace is None else workspace
    rows, num_blocks = bounds.shape
    source = matrix.reshape(-1, SELECT_BLOCK, matrix.shape[1])
    fixed = min(num_blocks, max(_FIRST_BLOCKS, -(-count // SELECT_BLOCK)))
    if fixed == num_blocks:
        first = np.arange(num_blocks)[None, :].repeat(rows, axis=0)
    else:
        first = np.argpartition(bounds, num_blocks - fixed, axis=1)[:, num_blocks - fixed :]
    row_of = np.arange(rows)[:, None]
    first_rows = row_of.repeat(fixed, axis=1).reshape(-1)
    first_blocks = first.reshape(-1)
    round1 = scratch.get("round1", (rows * fixed, SELECT_BLOCK), "float64")
    _score_blocks(source, index, weights, first_rows, first_blocks, excluded, round1, scratch)
    pivot = fixed * SELECT_BLOCK - count
    tau = np.partition(round1.reshape(rows, -1), pivot, axis=1)[:, pivot]
    # -inf → the lowest float: "≥ τ₁" then keeps exactly the finite scores.
    np.maximum(tau, np.finfo(np.float64).min, out=tau)
    scored = scratch.get("scored", (rows, num_blocks), "bool")
    np.greater_equal(bounds, tau[:, None], out=scored)
    scored[row_of, first] = False
    later_rows, later_blocks = np.divmod(np.flatnonzero(scored), num_blocks)
    scored[row_of, first] = True
    round2 = scratch.get("round2", (later_blocks.size, SELECT_BLOCK), "float64")
    _score_blocks(source, index, weights, later_rows, later_blocks, excluded, round2, scratch)
    kept1 = _harvest(index, round1, first_rows, first_blocks, tau)
    kept2 = _harvest(index, round2, later_rows, later_blocks, tau)
    rows_kept, items_kept, scores_kept = (np.concatenate(pair) for pair in zip(kept1, kept2))
    blocks_scored = fixed + np.bincount(later_rows, minlength=rows)
    return Selection(rows_kept, items_kept, scores_kept, first, scored, blocks_scored)


class BatchScorer:
    """Scores query batches against one primary model, one pass per matrix key.

    One scorer is owned by each :class:`TemporalRecommender`; it holds
    the reused GEMM workspaces and consults the shared
    :class:`ServingCache` for block indexes, arranged matrices and
    context block maxima. Not safe for concurrent use from multiple threads
    (clone the recommender per thread instead).
    """

    def __init__(self, model: Any, cache: ServingCache) -> None:
        self.model = model
        self.cache = cache
        self.workspace = _Workspace()
        #: ``TCAM_SANITIZE`` at construction: check every served score.
        self._sanitize = sanitize_enabled()
        #: float64 rows' blocks scored, and blocks offered, since construction.
        self.blocks_visited = 0
        self.blocks_total = 0

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
        """The full ``(K, V)`` topic–item matrix for one interval.

        Only ever derived from (an index, an arrangement — each cached
        on its own), so a container is not asked to keep it.
        """
        params = self._params()
        if params is not None:
            stacked: FloatArray = params.topic_item_matrix(interval, memo=False)
            return stacked
        generic: FloatArray = self.model.query_space(int(users[0]), interval)[1]
        return generic

    def _selection(
        self, interval: int, users: Sequence[int], params: TCAMParameters | None
    ) -> tuple[BlockIndex, FloatArray]:
        """The group's :class:`BlockIndex` and the block-ordered matrix selection scores.

        The index belongs to the base: the split path indexes ``φ`` (one
        ``("blocks", "phi")`` entry whatever the variant), the generic
        path its stacked matrix per matrix key. The matrix is the
        topic–item matrix arranged in the index's order (``("arranged",
        key)``), both in the ``matrices`` region. A model mapped from a
        snapshot that stores them (:meth:`ParamStore.block_index
        <repro.recommend.paramstore.ParamStore.block_index>`) reads its
        own, builds nothing and caches nothing. An uncachable key gets an
        item-id-ordered index and arrangement built per call.
        """
        store = self._store() if params is not None else None
        stored: tuple[BlockIndex, FloatArray] | None = (
            None if store is None else store.block_index()
        )
        if stored is not None:
            return stored
        key = self._matrix_key(interval)
        if key is None:
            matrix = self._stacked_matrix(interval, users)
            return BlockIndex.build(matrix, matrix.shape[0], signed=True, sort=False)
        index_key = ("blocks", "phi") if params is not None else ("blocks", key)
        matrix_key = ("arranged", key)
        index = self.cache.matrices.get(index_key)
        item_major = self.cache.matrices.get(matrix_key)
        if isinstance(index, BlockIndex) and isinstance(item_major, np.ndarray):
            return index, item_major
        matrix = self._stacked_matrix(interval, users)
        if isinstance(index, BlockIndex):
            item_major = index.arrange(matrix)
        else:
            rows = matrix.shape[0] if params is None else params.num_user_topics
            index, item_major = BlockIndex.build(matrix, rows, signed=params is None)
            self.cache.matrices.put(index_key, index)
        self.cache.matrices.put(matrix_key, item_major)
        return index, item_major

    def _store(self) -> Any:
        """The model's optional mmap parameter store (duck-typed).

        A model loaded from an mmap snapshot layout (see
        :mod:`repro.recommend.paramstore`) exposes ``param_store``; the
        scorer then serves from the store's block index, arranged matrix
        and context block maxima where the snapshot holds them, so a
        million-item serving process pages instead of materialising.
        """
        return getattr(self.model, "param_store", None)

    def _context_maxima(self, interval: int, params: Any, index: BlockIndex) -> FloatArray:
        """Per-block maxima of one interval's context scores, cached per interval.

        Only these ``(blocks,)`` maxima are kept (``("cmax", t)`` in the
        ``contexts`` region): selection scores items against the
        stacked matrix, so it never needs the ``(V,)`` context vector
        itself after the bound is taken. A mapped snapshot that stores
        its block index stores these maxima beside it; they are read
        from there and not cached.
        """
        store = self._store()
        stored: FloatArray | None = None if store is None else store.context_max(interval)
        if stored is not None:
            return stored
        cache_key = ("cmax", interval)
        cached = self.cache.contexts.get(cache_key)
        if isinstance(cached, np.ndarray):
            return cached
        maxima = index.block_maxima(params.context_scores(interval))
        self.cache.contexts.put(cache_key, maxima)
        return maxima

    @staticmethod
    def exclusion_mask(items: object, num_items: int) -> BoolArray | None:
        """Boolean catalogue mask of the item ids ``items`` (``None`` when there are none).

        Kept by nobody: a pass builds one for an array ``exclude`` and
        one per user for a mapping, from that call's own ids.
        """
        if items is None:
            return None
        ids = np.asarray(items, dtype=np.int64)
        if ids.size == 0:
            return None
        mask = np.zeros(num_items, dtype=bool)
        mask[ids] = True
        return mask

    # -- batch serving ---------------------------------------------------

    def serve_queries(
        self,
        queries: Sequence[tuple[int, int]],
        k: int,
        exclude: object,
        row_block: int = DEFAULT_ROW_BLOCK,
    ) -> list[TopKResult | Exception]:
        """Each ``(user, interval)`` query's top-k, or the exception that failed it.

        All queries whose intervals share a matrix cache key are served
        in one pass (:meth:`_serve_float64`: every TTCAM interval is one
        pass); a model without a key serves one interval at a time. A
        pass that fails answers each of its rows with the exception —
        and so does one interval whose own inputs fail inside a pass —
        so a caller can degrade exactly those rows. Invalid arguments
        raise, and so does a served non-finite score under
        ``TCAM_SANITIZE``.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if row_block <= 0:
            raise ValueError(f"row_block must be positive, got {row_block}")
        passes: dict[Hashable, list[int]] = {}
        keys: dict[int, Hashable] = {}
        for i, (_, interval) in enumerate(queries):
            interval = int(interval)
            if interval not in keys:
                keys[interval] = self._pass_key(interval)
            passes.setdefault(keys[interval], []).append(i)
        answers: dict[int, TopKResult | Exception] = {}
        for rows in passes.values():
            group = [(int(queries[i][0]), int(queries[i][1])) for i in rows]
            served: Sequence[TopKResult | Exception]
            try:
                served = self._serve_float64(group, k, exclude, row_block)
            except Exception as exc:  # the pass's rows degrade; other passes still serve
                served = [exc] * len(rows)
            answers.update(zip(rows, served))
        if self._sanitize:
            check_topk_finite([a for a in answers.values() if isinstance(a, TopKResult)])
        return [answers[i] for i in range(len(queries))]

    def serve_group(
        self,
        interval: int,
        users: Sequence[int],
        k: int,
        exclude: object,
        dtype: str,
        row_block: int = DEFAULT_ROW_BLOCK,
    ) -> list[TopKResult]:
        """Top-k results for every user of one interval: :meth:`serve_queries`, raising.

        The first exception that failed a row is raised instead of
        returned. ``dtype`` is checked (:func:`check_dtype`) and
        otherwise unused: float64 is the one serving path.
        """
        check_dtype(dtype)
        results: list[TopKResult] = []
        queries = [(user, interval) for user in users]
        for answer in self.serve_queries(queries, k, exclude, row_block):
            if isinstance(answer, Exception):
                raise answer
            results.append(answer)
        return results

    def _pass_key(self, interval: int) -> Hashable:
        """Queries with equal keys are served in one pass (see :meth:`serve_queries`)."""
        try:
            key = self._matrix_key(interval)
        except Exception:  # its own pass raises it again, for this interval's rows
            key = None
        if key is None:
            return ("interval", interval)
        return ("key", key)

    @hot_path
    def _serve_float64(
        self,
        queries: Sequence[tuple[int, int]],
        k: int,
        exclude: object,
        row_block: int,
    ) -> list[TopKResult | Exception]:
        """One block-max pass over queries whose intervals share a matrix key.

        Each interval's inputs are built first: on the split path its
        cached context block maxima (:meth:`_context_maxima`), on the
        generic path its rows' query vectors. An interval whose inputs
        (or, for the first, the pass's :meth:`_selection`) raise answers
        its rows with the exception; the others go on. Then ``row_block``
        rows at a time are bounded — one GEMM, each row reading its
        interval's context maxima (:func:`block_bounds`) — and selected
        in two rounds (:func:`select_blocks`); the selected scores are
        the answers, ranked for every row at once (:func:`ranked_rows`).
        No rescoring follows: selection scores with the TA engine's own
        dot.
        """
        params = self._params()  # None: no split path, score query_space whole
        by_interval: dict[int, list[int]] = {}
        for i, (_, interval) in enumerate(queries):
            by_interval.setdefault(interval, []).append(i)
        selection: tuple[BlockIndex, FloatArray] | None = None
        vectors: dict[int, FloatArray] = {}
        context_max: dict[int, FloatArray] = {}
        failed: dict[int, Exception] = {}
        for interval, rows in by_interval.items():
            try:
                if selection is None:
                    users = [queries[i][0] for i in rows]
                    selection = self._selection(interval, users, params)
                if params is None:
                    for i in rows:
                        vectors[i] = self.model.query_space(queries[i][0], interval)[0]
                else:
                    context_max[interval] = self._context_maxima(interval, params, selection[0])
            except Exception as exc:  # this interval's rows degrade, the others are served
                failed[interval] = exc
        results: dict[int, TopKResult] = {}
        if selection is not None:
            index, matrix = selection
            num_items = index.num_items
            slot_of = {interval: slot for slot, interval in enumerate(context_max)}
            contexts = self.workspace.get(
                "contexts", (len(context_max), index.num_blocks), "float64"
            )
            for slot, maxima in enumerate(context_max.values()):
                contexts[slot] = maxima
            live = [i for i, (_, interval) in enumerate(queries) if interval not in failed]
            shared: BoolArray | None = None
            per_user: dict[int, BoolArray | None] = {}
            if isinstance(exclude, Mapping):
                for user in dict.fromkeys(queries[i][0] for i in live):
                    per_user[user] = self.exclusion_mask(exclude.get(user), num_items)
            else:
                shared = self.exclusion_mask(exclude, num_items)
            for start in range(0, len(live), row_block):
                block = live[start : start + row_block]
                rows = len(block)
                users = self.workspace.get("users", (rows,), "int64")
                users[:] = [queries[i][0] for i in block]
                if params is None:
                    weights = self.workspace.get("weights", (rows, matrix.shape[1]), "float64")
                    for r, i in enumerate(block):
                        weights[r] = vectors[i]
                    bounds = block_bounds(index, weights)
                else:
                    intervals = self.workspace.get("intervals", (rows,), "int64")
                    intervals[:] = [queries[i][1] for i in block]
                    slots = self.workspace.get("slots", (rows,), "int64")
                    slots[:] = [slot_of[queries[i][1]] for i in block]
                    weights = params.query_weights_batch(users, intervals)
                    context_weight = 1 - params.lambda_u[users]
                    bounds = block_bounds(
                        index, weights, context_weight, contexts, slots, self.workspace
                    )
                excluded = [per_user.get(user, shared) for user in users.tolist()]
                chosen = select_blocks(
                    matrix, index, weights, bounds, min(num_items, k),
                    None if all(mask is None for mask in excluded) else excluded,
                    self.workspace,
                )
                self.blocks_visited += int(chosen.blocks_scored.sum())
                self.blocks_total += rows * index.num_blocks
                answers = ranked_rows(
                    chosen.rows, chosen.items, chosen.scores, k, chosen.items_scored(index)
                )
                results.update(zip(block, answers))
        return [
            results[i] if i in results else failed[interval]
            for i, (_, interval) in enumerate(queries)
        ]
