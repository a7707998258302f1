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
* **Block-max selection.** The items are laid out in blocks of
  :data:`SELECT_BLOCK` by a per-base :class:`BlockIndex` — grouped by
  their heaviest topic, heaviest first — with each block's per-topic
  maxima of the selection matrix (and, per interval, each block's
  maximum context score). Each query row bounds every block with one
  small GEMM, ``Σ_z ϑ_q[z]·max_b ϕ[z,·]`` — TCAM-TA's threshold (paper
  Section 4) applied to a block, rounded up for float64 — then scores
  blocks in descending-bound order and stops once the next bound is
  strictly below its running ``k + margin``-th score: no item of an
  unvisited block can reach it (:func:`block_bounds` and
  :func:`select_blocks` hold the proof). At V=100k a row scores about
  2 % of the catalogue instead of all of it.
* **Exact rescoring.** BLAS GEMM, GEMV and per-item dot products differ
  in the last ULP, so selection scores alone cannot reproduce the
  per-query engines bit-for-bit. Selection therefore only picks a
  candidate superset (top ``k + margin`` per row, ties included); the
  candidates are then rescored with the identical primitive the TA
  engines use (``item_topic[v] @ ϑ_q`` — one contiguous-row dot per
  item; the block-ordered matrix an in-memory model keeps holds
  bit-identical rows) and ranked with the same ``(score desc, item
  asc)`` tie-break. In float64 mode the returned items, scores and tie order are exactly those of
  :func:`~repro.recommend.threshold.ta_topk`.
* **Bounded caching.** A :class:`ServingCache` of small LRU regions
  holds the derived serving state: block indexes and rescore
  matrices, per-interval context block maxima (and, for int8,
  context vectors), per-user exclusion masks and — only for the
  reference engine — sorted TA indexes, all capped by entry count, with hit/miss/eviction counters surfaced on
  :class:`~repro.recommend.recommender.ServingStatus`.
* **int8 selection.** ``dtype="int8"`` runs selection over the whole
  catalogue through :mod:`repro.recommend.quantize`: a compressed copy
  of the selection matrix is staged block-by-block through a small
  float32 buffer, and candidates are taken by a *proven* per-row error margin instead of a
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
    Iterator,
    KeysView,
    Mapping,
    Sequence,
    TypeVar,
)

import numpy as np

from ..core.params import ParamsBackedModel, TCAMParameters
from ..tooling.sanitize import check_topk_finite, sanitize_enabled
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
        The :class:`BlockIndex` of the selection matrix (``("blocks",
        …)``) and the block-ordered ``(V, K)`` item–topic matrices
        float64 selection and rescoring read (``("arranged", key)``),
        plus the item-id-ordered transposes the int8 path rescores
        against (``("item_topic", key)``) — a store-backed model reads
        its persisted transpose for both instead — and the int8
        selection matrices and the float32 user-interest image the int8
        path multiplies them with.
    ``contexts``
        Per-interval block maxima of the context score vector
        ``θ′_t·Φ`` (``("cmax", t)``, what the float64 bound reads) and,
        for the int8 path, the vector itself and its float32 image with
        error bounds — the piece of every score shared by every user
        queried in that interval.
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
        self.matrices: LRUCache[AnyArray | QuantizedMatrix | BlockIndex] = LRUCache(
            matrix_capacity
        )
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
        ``φ``/``φ′`` own: the arranged and transposed rescore matrices,
        quantized selection forms and TA indexes of a container with one static
        topic–item matrix, its ``("ctx"|"qctx"|"cmax", t)`` entries whose
        ``θ′_t`` is bitwise unchanged, the ``φ``-only ``qsel`` form and
        ``("blocks", "phi")`` index of any container, and the exclusion
        masks (same catalogue).
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
            if tag == "qsel" or key == ("blocks", "phi") or (static and tag != "theta"):
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
    item_topic: FloatArray,
    weights: FloatArray,
    candidates: IntArray,
    k: int,
    rows: IntArray | None = None,
) -> TopKResult:
    """Exact top-k of a candidate set, bit-identical to the TA engines.

    Each candidate is scored with the same primitive
    :func:`~repro.recommend.threshold.ta_topk` uses — one dot product of
    the item's contiguous ``item_topic`` row with the query vector — and
    the result is ranked by ``(score desc, item asc)``, the tie order
    every engine in this package shares. ``rows[i]`` is candidate ``i``'s
    row of ``item_topic`` when that matrix is not in item-id order (a
    matrix :meth:`BlockIndex.arrange` laid out in block order).
    """
    count = candidates.size
    if rows is None:
        rows = candidates
    scores = np.empty(count)
    for i in range(count):
        scores[i] = item_topic[rows[i]] @ weights
    order = np.lexsort((candidates, -scores))[:k]
    recommendations = [
        Recommendation(item=int(candidates[i]), score=float(scores[i])) for i in order
    ]
    return TopKResult(
        recommendations=recommendations, items_scored=count, sorted_accesses=0
    )


#: Items per selection block — the unit :class:`BlockIndex` bounds and the
#: block-max selector scores or prunes as a whole. Chosen by measurement
#: at V=100k (``docs/performance.md``, "Serving"): 16 and 32 tie on group
#: time, 32 builds its index faster, 64 and 128 score too many items.
SELECT_BLOCK = 32

#: Queries' blocks gathered per scoring pass are capped at this many bytes,
#: so a row that prunes nothing (uniform ``ϕ``) streams its catalogue
#: through a bounded buffer instead of one ``(rows, V, K)`` copy.
_GATHER_BYTES = 4 << 20

#: Blocks ranked up front per row; a row that visits them all without
#: stopping has the rest of its blocks ranked then.
_RANKED_BLOCKS = 256

#: Blocks in a row's first chunk (or ``⌈count / B⌉`` if more). Each chunk
#: costs a dozen numpy calls whatever its size, so starting at 16 blocks
#: rather than one saves rounds for a few more items scored: a single
#: query at V=20k took ~390 µs against ~590 µs starting at one block,
#: and a 64-query batch at V=100k was no slower (2.10 % of blocks
#: visited against 2.01 %).
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
    ``b``'s items, and ``block_min`` the smallest (kept only for signed
    query weights). The index holds no copy of the matrix.
    :meth:`arrange` lays a ``(K, V)`` matrix over the same items out
    item-major in block order — the rescore matrix an in-memory model
    keeps *instead of* an item-id-ordered transpose: its rows are
    bit-identical copies of the transpose's, so a per-row dot against it
    keeps the bits of :func:`~repro.recommend.threshold.ta_topk`.
    """

    def __init__(
        self,
        items: IntArray,
        num_items: int,
        block_max: FloatArray,
        block_min: FloatArray | None,
    ) -> None:
        self.items = items
        self.num_items = num_items
        self.block_max = block_max
        self.block_min = block_min

    @classmethod
    def build(
        cls,
        matrix: FloatArray,
        rows: int,
        signed: bool,
        sort: bool = True,
        arrange: bool = True,
    ) -> tuple["BlockIndex", FloatArray | None]:
        """Index ``matrix[:rows]``; with ``arrange``, also return :meth:`arrange`'s layout.

        ``sort=False`` keeps item-id order (one ``O(KV)`` pass, for a
        matrix that is not cached between groups); ``signed`` keeps the
        block minima that negative query weights bound with. Without
        ``arrange`` the maxima are taken through one small slice at a
        time, and no copy of the matrix is made (a parameter-store
        matrix stays paged, not resident).
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
            np.empty((num_blocks, rows)),
            np.empty((num_blocks, rows)) if signed else None,
        )
        item_major = np.empty((num_blocks * SELECT_BLOCK, matrix.shape[0])) if arrange else None
        for first, last, part in index._slices(matrix if arrange else matrix[:rows], item_major):
            blocks = part.reshape(last - first, SELECT_BLOCK, -1)[:, :, :rows]
            blocks.max(axis=1, out=index.block_max[first:last])
            if index.block_min is not None:
                blocks.min(axis=1, out=index.block_min[first:last])
        return index, item_major

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
        arrays = (self.items, self.block_max, self.block_min)
        return sum(int(a.nbytes) for a in arrays if a is not None)

    def _slices(
        self, matrix: FloatArray, out: FloatArray | None
    ) -> Iterator[tuple[int, int, FloatArray]]:
        """``(first, last, part)``: blocks ``[first, last)`` of ``matrix.T`` in block order.

        With ``out`` (``(blocks·B, K)``) each part is written into it and
        the whole is the arranged matrix; without, each part is a fresh
        small gather of ``matrix``'s columns.
        """
        source = matrix if out is None else np.ascontiguousarray(matrix.T)
        flat = self.items.reshape(-1)
        for first in range(0, self.num_blocks, _BUILD_BLOCKS):
            last = min(self.num_blocks, first + _BUILD_BLOCKS)
            ids = flat[first * SELECT_BLOCK : last * SELECT_BLOCK]
            if out is None:
                part: FloatArray = np.take(source, ids, axis=1).T
            else:
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
) -> FloatArray:
    """``(rows, blocks)`` upper bounds on every selection score of each block.

    A row's selection score of item ``v`` is the float64 product
    ``weights[r] @ item_topic[v]`` — any summation order, :func:`select_blocks`
    computes it batched. The bound is TCAM-TA's threshold (paper Section 4)
    applied to a block: ``Σ_z w_z · max_{v∈b} ϕ[z,v]``.

    * **Split path** (``context_max`` given; ``weights ≥ 0``): the first
      ``K1`` weights are the container's ``λ_u·θ_u`` and the rest add
      ``(1−λ_u)·P(v | θ′_t)`` (``context_weight`` holds ``1−λ_u``), so
      the bound is ``w[:K1] @ block_max + (1−λ_u)·context_max[b]`` — the
      context vector's own block maxima, far tighter than per-topic
      maxima of ``φ′``.
    * **Generic path** (``index.block_min`` kept): a negative weight
      bounds with the block minimum, ``w⁺ @ block_max + w⁻ @ block_min``.

    Rounded up for float64: a computed score of ``n ≤ K + 1`` products
    exceeds its real value by at most ``γ_n = n·u/(1 − n·u)`` times the
    sum of the terms' magnitudes (``u = 2⁻⁵³``, any order, FMA or not);
    the computed bound (itself at most ``K + 1`` terms, the context
    vector ``K2`` more) falls short of its real value by at most that
    much again. Every magnitude sum is at most the bound's magnitude
    ``A = |w| @ max(|block_max|, |block_min|)`` (plus the context term),
    so adding ``4·(K+2)·u·A`` — ``A`` is the bound itself on the split
    path, where everything is non-negative — covers both, the final
    rounding included, with a factor two to spare.
    """
    width = index.block_max.shape[1]
    slack = 4 * (weights.shape[1] + 2) * _ROUNDOFF
    topic_weights = weights[:, :width]
    if index.block_min is None:
        bounds: FloatArray = topic_weights @ index.block_max.T
        if context_max is not None and context_weight is not None:
            bounds += context_weight[:, None] * context_max[None, :]
        bounds *= 1.0 + slack
        return bounds
    positive = np.maximum(topic_weights, 0.0)
    negative = np.minimum(topic_weights, 0.0)
    bounds = positive @ index.block_max.T + negative @ index.block_min.T
    magnitude = np.maximum(np.abs(index.block_max), np.abs(index.block_min))
    bounds += slack * (np.abs(topic_weights) @ magnitude.T)
    return bounds


def _rank(bounds: FloatArray, visited: IntArray | None, top: int) -> IntArray:
    """Each row's blocks in descending-bound order (the first ``top``).

    ``visited`` blocks (already scored, in any order) rank first, so the
    ranks after them continue a row's walk.
    """
    keyed = -bounds
    if visited is not None:
        np.put_along_axis(keyed, visited, -np.inf, axis=1)
    if top >= bounds.shape[1]:
        ranked: IntArray = np.argsort(keyed, axis=1, kind="stable")
        return ranked
    head = np.argpartition(keyed, top - 1, axis=1)[:, :top]
    within = np.argsort(np.take_along_axis(keyed, head, axis=1), axis=1, kind="stable")
    ranked = np.take_along_axis(head, within, axis=1)
    return ranked


def select_blocks(
    matrix: FloatArray,
    index: BlockIndex,
    weights: FloatArray,
    bounds: FloatArray,
    count: int,
    excluded: Sequence[BoolArray | None] | None = None,
    arranged: bool = True,
) -> tuple[list[IntArray], IntArray]:
    """Block-max candidate selection: each row's tie-inclusive top ``count``.

    Every row visits its blocks in descending-bound order, in chunks that
    start at ``max(16, ⌈count / B⌉)`` blocks and double — but never past
    the last block some row must visit under its current ``τ`` — scoring
    each visited item's row of ``matrix`` against ``weights[r]``:
    ``matrix`` is :meth:`BlockIndex.arrange`'s layout (block ``b`` in rows
    ``[b·B, (b+1)·B)``) or, with ``arranged=False``, an item-id-ordered
    ``(V, K)`` transpose whose rows are gathered through ``index.items``.
    After each chunk ``τ`` is the row's
    ``count``-th largest score so far among *non-excluded* items — the
    exclusions (``excluded[r][v]``, by item id; padding slots count as
    excluded) are applied first, so an excluded high scorer can never
    raise ``τ`` — and the row stops once its next block's bound is
    **strictly** below ``τ``. ``τ`` only rises, so every unvisited item
    scores below the final ``τ``: the visited items scoring ``≥ τ`` are
    exactly the items of the whole catalogue that do, boundary ties
    included.

    Returns each row's candidate slots (``b·B + s`` holds item
    ``index.items[b, s]``; in visit order) and the number of blocks it
    visited.
    """
    rows, num_blocks = bounds.shape
    width = matrix.shape[1]
    blocks_of = matrix.reshape(-1, SELECT_BLOCK, width) if arranged else None
    first = max(_FIRST_BLOCKS, -(-count // SELECT_BLOCK))
    top = min(num_blocks, max(_RANKED_BLOCKS, 4 * first))
    tail = index.num_items - (num_blocks - 1) * SELECT_BLOCK
    active = np.arange(rows)
    ranked = _rank(bounds, None, top)
    ranked_bounds = np.take_along_axis(bounds, ranked, axis=1)
    scores = np.empty((rows, 0))
    seen = np.empty((rows, 0), dtype=np.int64)
    candidates: list[IntArray] = [np.empty(0, dtype=np.int64)] * rows
    visited = np.zeros(rows, dtype=np.int64)
    done, chunk = 0, first
    while True:
        step = min(chunk, ranked.shape[1] - done)
        chunk_blocks = ranked[:, done : done + step]
        chunk_items = index.items[chunk_blocks]
        chunk_scores = np.empty((active.size, step, SELECT_BLOCK))
        per_pass = max(1, _GATHER_BYTES // (step * SELECT_BLOCK * width * 8))
        for lo in range(0, active.size, per_pass):
            hi = min(active.size, lo + per_pass)
            if blocks_of is None:
                gathered = np.take(matrix, chunk_items[lo:hi], axis=0)
            else:
                gathered = np.take(blocks_of, chunk_blocks[lo:hi], axis=0)
            np.matmul(
                gathered.reshape(hi - lo, step * SELECT_BLOCK, width),
                weights[active[lo:hi], :, None],
                out=chunk_scores[lo:hi].reshape(hi - lo, step * SELECT_BLOCK, 1),
            )
        if tail < SELECT_BLOCK:
            chunk_scores[chunk_blocks == num_blocks - 1, tail:] = -np.inf
        if excluded is not None:
            for i, row in enumerate(active):
                mask = excluded[row]
                if mask is not None:
                    chunk_scores[i][mask[chunk_items[i]]] = -np.inf
        scores = np.concatenate([scores, chunk_scores.reshape(active.size, -1)], axis=1)
        seen = np.concatenate([seen, chunk_blocks], axis=1)
        done += step
        scored = scores.shape[1]
        if scored >= count:
            tau = np.partition(scores, scored - count, axis=1)[:, scored - count]
        else:
            tau = np.full(active.size, -np.inf)
        if done == num_blocks:
            stop = np.ones(active.size, dtype=bool)
        else:
            if done == ranked.shape[1]:
                ranked = _rank(bounds[active], seen, num_blocks)
                ranked_bounds = np.take_along_axis(bounds[active], ranked, axis=1)
            stop = ranked_bounds[:, done] < tau
        for i in np.flatnonzero(stop):
            hits = np.flatnonzero((scores[i] >= tau[i]) & (scores[i] > -np.inf))
            candidates[active[i]] = seen[i][hits // SELECT_BLOCK] * SELECT_BLOCK + hits % SELECT_BLOCK
            visited[active[i]] = done
        going = ~stop
        if not going.any():
            return candidates, visited
        active, scores, seen = active[going], scores[going], seen[going]
        ranked, ranked_bounds = ranked[going], ranked_bounds[going]
        # Double, but never past the last ranked block some row must visit
        # under its current τ: those are visited whatever τ becomes.
        needed = (ranked_bounds[:, done:] >= tau[going][:, None]).sum(axis=1)
        chunk = min(2 * chunk, int(needed.max()))


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
        """The full ``(K, V)`` topic–item matrix for one interval."""
        params = self._params()
        if params is not None:
            stacked: FloatArray = params.topic_item_matrix(interval)
            return stacked
        generic: FloatArray = self.model.query_space(int(users[0]), interval)[1]
        return generic

    def _item_topic(self, interval: int, users: Sequence[int]) -> FloatArray:
        """Contiguous item-id-ordered ``(V, K)`` transpose (the int8 rescore matrix).

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

    def _selection(
        self, interval: int, users: Sequence[int], params: TCAMParameters | None
    ) -> tuple[BlockIndex, FloatArray, bool]:
        """The group's :class:`BlockIndex`, the matrix float64 serving reads, and its layout.

        The index belongs to the base: the split path indexes ``φ`` (one
        ``("blocks", "phi")`` entry whatever the variant), the generic
        path its stacked matrix per matrix key. An in-memory model
        selects and rescores against the topic–item matrix arranged in
        the index's order (``("arranged", key)`` in the ``matrices``
        region, in place of an item-id-ordered transpose;
        ``arranged=True``). A parameter-store model reads its persisted
        item-id-ordered transpose instead — the index is built from
        ``φ`` with no copy of either — so nothing of ``V·K`` size
        becomes resident (``arranged=False``). An uncachable key gets an
        item-id-ordered index and arrangement built per call.
        """
        key = self._matrix_key(interval)
        if key is None:
            matrix = self._stacked_matrix(interval, users)
            index, item_major = BlockIndex.build(matrix, matrix.shape[0], signed=True, sort=False)
            assert item_major is not None  # arranged on request
            return index, item_major, True
        index_key = ("blocks", "phi") if params is not None else ("blocks", key)
        index = self.cache.matrices.get(index_key)
        store = self._store()
        stored = store.item_topic(key) if store is not None else None
        if stored is not None:
            if not isinstance(index, BlockIndex):
                selection = self._stacked_matrix(interval, users) if params is None else params.phi
                index, _ = BlockIndex.build(
                    selection, selection.shape[0], signed=params is None, arrange=False
                )
                self.cache.matrices.put(index_key, index)
            return index, stored, False
        matrix_key = ("arranged", key)
        item_major = self.cache.matrices.get(matrix_key)
        if isinstance(index, BlockIndex) and isinstance(item_major, np.ndarray):
            return index, item_major, True
        matrix = self._stacked_matrix(interval, users)
        if isinstance(index, BlockIndex):
            item_major = index.arrange(matrix)
        else:
            rows = matrix.shape[0] if params is None else params.num_user_topics
            index, item_major = BlockIndex.build(matrix, rows, signed=params is None)
            self.cache.matrices.put(index_key, index)
        self.cache.matrices.put(matrix_key, item_major)
        return index, item_major, True

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

    def _context_maxima(self, interval: int, params: Any, index: BlockIndex) -> FloatArray:
        """Per-block maxima of one interval's context scores, cached per interval.

        Only these ``(blocks,)`` maxima are kept (``("cmax", t)`` in the
        ``contexts`` region): the float64 path scores items against the
        stacked matrix, so it never needs the ``(V,)`` context vector
        itself after the bound is taken.
        """
        cache_key = ("cmax", interval)
        cached = self.cache.contexts.get(cache_key)
        if isinstance(cached, np.ndarray):
            return cached
        store = self._store()
        row = store.context_row(interval) if store is not None else None
        values = params.context_scores(interval) if row is None else row
        maxima = index.block_maxima(np.asarray(values, dtype=np.float64))
        self.cache.contexts.put(cache_key, maxima)
        return maxima

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

        ``row_block`` queries at a time: in float64, each row's blocks are
        bounded with one small GEMM (:func:`block_bounds`) and visited in
        bound order until the rest cannot reach its ``k + margin``-th
        score (:func:`select_blocks`); int8 scores the whole catalogue in
        its compressed form. Either way the candidates (boundary ties
        included) are rescored exactly — see the module docstring for why
        the two phases are needed.
        """
        check_serve_dtype(dtype)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if row_block <= 0:
            raise ValueError(f"row_block must be positive, got {row_block}")
        params = self._params()  # None: no split path, score query_space whole
        if dtype == "int8":
            results = self._serve_int8(interval, users, k, exclude, row_block, params)
        else:
            index, matrix, arranged = self._selection(interval, users, params)
            num_items = index.num_items
            count = min(num_items, k + SELECTION_MARGIN[dtype])
            context_max = (
                None if params is None else self._context_maxima(interval, params, index)
            )
            results = []
            for start in range(0, len(users), row_block):
                block_users = [int(u) for u in users[start : start + row_block]]
                rows = len(block_users)
                weights = self.workspace.get("weights", (rows, matrix.shape[1]), "float64")
                for r, user in enumerate(block_users):
                    if params is None:
                        weights[r] = self.model.query_space(user, interval)[0]
                    else:
                        weights[r] = params.query_weights(user, interval)
                context_weight = (
                    None if params is None else 1 - params.lambda_u[block_users]
                )
                bounds = block_bounds(index, weights, context_weight, context_max)
                masks = [
                    self.exclusion_mask(user, exclude, num_items) for user in block_users
                ]
                excluded = None if all(mask is None for mask in masks) else masks
                candidates, visited = select_blocks(
                    matrix, index, weights, bounds, count, excluded, arranged
                )
                self.blocks_visited += int(visited.sum())
                self.blocks_total += rows * index.num_blocks
                for r, slots in enumerate(candidates):
                    items = index.items.reshape(-1)[slots]
                    results.append(
                        exact_rescore(matrix, weights[r], items, k, slots if arranged else None)
                    )
        if self._sanitize:
            check_topk_finite(results)
        return results

    @hot_path
    def _serve_int8(
        self,
        interval: int,
        users: Sequence[int],
        k: int,
        exclude: object,
        row_block: int,
        params: TCAMParameters | None,
    ) -> list[TopKResult]:
        """int8 selection over the whole catalogue with the proven per-row margin."""
        key = self._matrix_key(interval)
        item_topic = self._item_topic(interval, users)
        num_items = item_topic.shape[0]
        compute = "float32"  # selection GEMM buffers
        stage_cols = min(num_items, STAGE_COLUMNS)
        qcontext: ContextVector | None = None
        if params is None:
            qsel = self._quantized_selection(
                self._stacked_matrix(interval, users), key, "qstack", "int8"
            )
        else:
            qsel = self._quantized_selection(params.phi, (key, "phi"), "qsel", "int8")
            qcontext = self._quantized_context(interval, params)
        k_dim = qsel.shape[0]

        results: list[TopKResult] = []
        for start in range(0, len(users), row_block):
            block_users = [int(u) for u in users[start : start + row_block]]
            rows = len(block_users)
            scores = self.workspace.get("scores", (rows, num_items), compute)
            weights_f64: list[FloatArray] = []
            stage = self.workspace.get("stage", (k_dim, stage_cols), "float32")

            if params is None:
                qweights = self.workspace.get("qweights", (rows, k_dim), compute)
                for r, user in enumerate(block_users):
                    w, _ = self.model.query_space(user, interval)
                    weights_f64.append(w)
                    np.copyto(qweights[r], w, casting="same_kind")
                staged_select_gemm(qsel, qweights, scores, stage)
            else:
                theta = self._interest_matrix(params.theta, key, compute)
                interest = self.workspace.get("interest", (rows, k_dim), compute)
                np.take(theta, block_users, axis=0, out=interest)
                lam = params.lambda_u[block_users]
                np.multiply(interest, lam[:, None], out=interest, casting="same_kind")
                staged_select_gemm(qsel, interest, scores, stage)
                assert qcontext is not None  # split path always has a context
                ctx_row = self.workspace.get("ctx_row", (num_items,), compute)
                for r, user in enumerate(block_users):
                    np.multiply(qcontext.values, 1 - lam[r], out=ctx_row, casting="same_kind")
                    scores[r] += ctx_row
                for user in block_users:
                    weights_f64.append(params.query_weights(user, interval))

            masks = [
                self.exclusion_mask(user, exclude, num_items) for user in block_users
            ]
            for r, mask in enumerate(masks):
                if mask is not None:
                    scores[r][mask] = -np.inf

            margins = self._block_margins(params, block_users, weights_f64, qsel, qcontext)
            cand_mask = select_candidates_margin(scores, k, margins)
            for r in range(rows):
                candidates = np.flatnonzero(cand_mask[r])
                if masks[r] is not None:
                    candidates = candidates[~masks[r][candidates]]
                results.append(exact_rescore(item_topic, weights_f64[r], candidates, k))
        return results
