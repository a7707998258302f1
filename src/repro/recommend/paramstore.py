"""Mapping a snapshot in place for million-item serving.

A fitted snapshot (`.npz`, see :mod:`repro.core.serialize`) is the
durable, checksummed source of truth — but loading it eagerly
materialises every array in resident memory. At ``V ≥ 10⁶`` items that
is gigabytes of float64 before the first query is answered, most of
which a real query mix never touches (cold users, cold items, cold
intervals).

Every member of a snapshot starts on a 64-byte boundary
(:mod:`repro.robustness.archive`). ``save_params(..., mmap_layout=True)``
makes a snapshot mappable: its members are stored, not deflated, so each
can be mapped where it lies, and it adds the derived serving arrays that are expensive (in time or resident bytes) to rebuild
online, and a manifest of per-member digests, as further members of the
*same* file (:func:`layout_members`):

=====================  ====================  ===================================
member                 when                  holds
=====================  ====================  ===================================
``item_topic``         one static matrix     the contiguous ``(V, K)`` rescore
                       (TTCAM)               transpose
``context``            one static matrix     per-interval context scores
                                             ``P(v | θ′_t)``, float64 ``(T, V)``
``context32``          always                their float32 image ``(T, V)`` ...
``context_delta``,     always                ... with its per-interval error
``context_absmax``                           statistics ``(T,)``
``qsel_int8_*``        always                the int8 selection form of ``Φ``:
                                             ``storage``, ``scale``, ``delta``,
                                             ``absmax`` (:mod:`.quantize`)
``tcam_manifest``      always                JSON: layout format, variant, and
                                             the SHA-256 digest
                                             (:func:`~repro.robustness.checkpoint.digest_arrays`)
                                             of every member above and of every
                                             parameter field
=====================  ====================  ===================================

Every member's data — parameters and derived alike — starts on a
64-byte boundary. :meth:`repro.core.serialize.LoadedModel.from_file`
maps an archive that carries ``tcam_manifest`` through a
:class:`ParamStore` (one read-only ``mmap`` of the file), so the kernel
pages in exactly the rows a query touches — a recommender process's
resident set scales with the *hot* fraction of the catalogue, not its
size. Any other archive loads eagerly.

**Trust model.** ``__post_init__`` validation of the parameter
containers would page every byte of every array — defeating the point —
so :meth:`ParamStore.params` constructs them *without* validation and
the store instead (a) checks that every member is stored, aligned and
the size its ``.npy`` header says, and every shape against the
container's, (b) fully hashes every member small enough to be cheap,
and (c) spot-checks sampled rows for the stochastic invariants.
:meth:`ParamStore.verify` hashes every member when integrity matters
more than start-up latency (tests do this; a paranoid deployment can
too). A mapped open that fails (a) – (c) falls back to the eager,
fully checksummed load of the same file. Manifest entries the store
does not know — the Threshold-Algorithm ``sorted_order`` /
``sorted_values`` lists older writers persisted, which no serving path
reads — are mapped and hash-checked like any other member and otherwise
ignored.

The derived members live in the file they were derived from and are
replaced with it, atomically: they cannot be stale or torn apart from
the parameters.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Hashable

import numpy as np

from ..core.params import VARIANTS, ITCAMParameters, TCAMParameters, TTCAMParameters
from ..robustness.archive import map_members
from ..robustness.checkpoint import digest_arrays
from ..robustness.errors import SnapshotCorruptError
from ..typing import AnyArray, FloatArray
from .quantize import ContextVector, QuantizedMatrix, quantize_matrix

__all__ = ["ParamStore", "carries_layout", "layout_members"]

#: The member holding the layout's manifest (format, variant, digests).
_MANIFEST = "tcam_manifest"

_FORMAT = "tcam-store-v3"

#: Members up to this size are fully hashed at open; larger ones are
#: only hashed by :meth:`ParamStore.verify` (reading them would page the
#: whole file in, defeating the mmap win).
_EAGER_HASH_LIMIT = 1 << 20


def layout_members(params: ITCAMParameters | TTCAMParameters) -> dict[str, AnyArray]:
    """The derived serving members ``save_params(mmap_layout=True)`` adds.

    Reads the full parameter set once and derives the serving arrays
    (rescore transpose, context vectors, int8 selection form), plus the
    ``tcam_manifest`` member that records the format, the variant and a
    digest of every parameter field and derived array.
    """
    if not isinstance(params, TCAMParameters):
        raise TypeError(f"unsupported parameter type: {type(params).__name__}")
    derived: dict[str, AnyArray] = {}
    intervals, num_items = params.num_intervals, params.num_items
    if params.STATIC_MATRIX:
        # One topic–item matrix for every interval: its transpose and the
        # float64 context products are worth persisting. Otherwise the
        # context rows *are* theta_time and the per-interval matrix (phi +
        # one such row) is cheap to assemble online, so neither is stored.
        derived["item_topic"] = np.ascontiguousarray(
            params.topic_item_matrix(0, memo=False).T
        )
        derived["context"] = np.empty((intervals, num_items), dtype=np.float64)
    context32 = np.empty((intervals, num_items), dtype=np.float32)
    context_delta = np.empty(intervals, dtype=np.float64)
    context_abs_max = np.empty(intervals, dtype=np.float64)
    for t in range(intervals):
        # Row by row through the container, the exact expression the
        # online path evaluates per interval — a single (T, K2) @ (K2, V)
        # GEMM can differ from it in the last ULP, and persisted context
        # rows must be bit-identical to freshly computed ones.
        row = params.context_scores(t)
        if "context" in derived:
            derived["context"][t] = row
        vector = ContextVector.from_exact(row)
        context32[t] = vector.values
        context_delta[t] = vector.delta
        context_abs_max[t] = vector.abs_max
    derived["context32"] = context32
    derived["context_delta"] = context_delta
    derived["context_absmax"] = context_abs_max

    quantized = quantize_matrix(np.asarray(params.phi, dtype=np.float64), "int8")
    derived["qsel_int8_storage"] = quantized.storage
    derived["qsel_int8_scale"] = quantized.scale
    derived["qsel_int8_delta"] = quantized.delta
    derived["qsel_int8_absmax"] = quantized.row_abs_max

    mapped = {**params.arrays(), **derived}
    manifest = {
        "format": _FORMAT,
        "variant": params.VARIANT,
        "digests": {name: digest_arrays({name: array}) for name, array in mapped.items()},
    }
    derived[_MANIFEST] = np.array(json.dumps(manifest, sort_keys=True))
    return derived


def carries_layout(path: str | Path) -> bool:
    """Whether the archive at ``path`` carries derived serving members.

    Reads the zip directory only. An unreadable or missing file is
    ``False``: the eager load then reports what is wrong with it.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            return f"{_MANIFEST}.npy" in archive.NameToInfo
    except Exception:  # zipfile.BadZipFile, OSError, ...
        return False


class ParamStore:
    """Memory-mapped view of one snapshot saved with ``mmap_layout=True``.

    Every member is mapped read-only where it lies in the archive —
    constructing a store reads the zip directory and the small members,
    not the parameters, so start-up cost and resident memory are both
    tiny regardless of catalogue size. Accessors hand out mmap-backed
    objects directly (memoised on the store, *not* copied), and the
    serving layer deliberately keeps them out of its caches' byte count:
    they are pageable, not resident. Any failed check raises
    :class:`~repro.robustness.errors.SnapshotCorruptError` naming the
    file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._params: ITCAMParameters | TTCAMParameters | None = None
        self._quantized: dict[str, QuantizedMatrix | None] = {}
        try:
            self._open()
        except SnapshotCorruptError:
            raise
        except Exception as exc:  # zipfile.BadZipFile, ValueError, KeyError, ...
            raise SnapshotCorruptError(f"snapshot {self.path} cannot be mapped: {exc}") from exc

    def _open(self) -> None:
        members = map_members(self.path)
        if _MANIFEST not in members:
            raise SnapshotCorruptError(f"{self.path} carries no derived serving members")
        manifest = json.loads(str(members[_MANIFEST][()]))
        if manifest.get("format") != _FORMAT:
            raise SnapshotCorruptError(f"{self.path} is not a {_FORMAT} layout")
        self.variant = str(manifest["variant"])
        if self.variant not in VARIANTS:
            raise SnapshotCorruptError(f"unknown variant {self.variant!r} in {self.path}")
        self._digests: dict[str, str] = dict(manifest["digests"])
        missing = sorted(set(self._digests) - set(members))
        if missing:
            raise SnapshotCorruptError(f"{self.path} is missing members {missing}")
        self._arrays: dict[str, AnyArray] = {name: members[name] for name in self._digests}
        for name, array in self._arrays.items():
            if array.nbytes <= _EAGER_HASH_LIMIT:
                self._check_digest(name)
        self._check_structure()
        self._spot_check()

    # -- load-time validation --------------------------------------------

    def _check_digest(self, name: str) -> None:
        if digest_arrays({name: self._arrays[name]}) != self._digests[name]:
            raise SnapshotCorruptError(f"{self.path}: member {name!r} failed its checksum")

    def _require(self, name: str) -> AnyArray:
        array = self._arrays.get(name)
        if array is None:
            raise SnapshotCorruptError(f"{self.path} is missing member {name!r}")
        return array

    def _check_structure(self) -> None:
        """Cross-array shape consistency (reads headers only, no paging).

        The parameter fields are held to the container's own
        ``_check_shapes``; only the derived arrays this layout adds are
        checked here.
        """
        params = self.params()
        ranks = {name: array.ndim for name, array in params.arrays().items()}
        if ranks.pop("lambda_u") != 1 or set(ranks.values()) != {2}:
            raise SnapshotCorruptError(f"{self.path}: parameter ranks are wrong")
        try:
            params._check_shapes()
        except ValueError as exc:
            raise SnapshotCorruptError(f"{self.path}: {exc}") from exc
        intervals, num_items = params.num_intervals, params.num_items
        if params.STATIC_MATRIX:
            topics = int(params.query_weights(0, 0).shape[0])
            item_topic = self._require("item_topic")
            if tuple(item_topic.shape) != (num_items, topics):
                raise SnapshotCorruptError(
                    f"{self.path}: item_topic shape {item_topic.shape} does not "
                    f"match ({num_items}, {topics})"
                )
            context = self._require("context")
            if tuple(context.shape) != (intervals, num_items):
                raise SnapshotCorruptError(
                    f"{self.path}: context shape {context.shape} is wrong"
                )
        context32 = self._require("context32")
        if tuple(context32.shape) != (intervals, num_items):
            raise SnapshotCorruptError(
                f"{self.path}: context32 shape {context32.shape} is wrong"
            )
        for name in ("context_delta", "context_absmax"):
            stats = self._require(name)
            if tuple(stats.shape) != (intervals,):
                raise SnapshotCorruptError(
                    f"{self.path}: {name} shape {stats.shape} is wrong"
                )

    def _spot_check(self) -> None:
        """Sampled invariant checks standing in for full validation.

        Pages only a handful of rows: the first and last rows of the
        stochastic matrices must be normalised and ``lambda_u`` samples
        must lie in ``[0, 1]``. Full construction-time validation is
        skipped on purpose — it would fault in every byte of the mapping.
        """
        for name in VARIANTS[self.variant].STOCHASTIC:
            matrix = self._arrays[name]
            for row in sorted({0, int(matrix.shape[0]) - 1}):
                total = float(np.asarray(matrix[row], dtype=np.float64).sum())
                if not np.isfinite(total) or abs(total - 1.0) > 1e-4:
                    raise SnapshotCorruptError(
                        f"{self.path}: {name} row {row} sums to {total!r}"
                    )
        lambda_u = self._arrays["lambda_u"]
        for row in sorted({0, int(lambda_u.shape[0]) - 1}):
            value = float(lambda_u[row])
            if not 0.0 <= value <= 1.0 + 1e-9:
                raise SnapshotCorruptError(
                    f"{self.path}: lambda_u[{row}] = {value!r} outside [0, 1]"
                )

    def verify(self) -> None:
        """Full integrity check: re-hash every member against the manifest.

        Reads (and therefore pages) the entire file — use at publish or
        audit time, not on the serving start-up path.
        """
        for name in self._arrays:
            self._check_digest(name)

    # -- accessors --------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total mapped bytes (file-backed, not resident)."""
        return sum(int(array.nbytes) for array in self._arrays.values())

    def array(self, name: str) -> AnyArray | None:
        """One named mmap array, or ``None`` when not persisted."""
        return self._arrays.get(name)

    def params(self) -> ITCAMParameters | TTCAMParameters:
        """The parameter container over the mapped arrays (memoised).

        Constructed *without* ``__post_init__`` validation — see the
        module docstring's trust model. The container behaves exactly
        like an eagerly loaded one, but its arrays page on demand.
        """
        if self._params is None:
            cls = VARIANTS[self.variant]
            params = cls.__new__(cls)
            for name in cls.field_names():
                setattr(params, name, self._require(name))
            self._params = params
        return self._params

    def item_topic(self, key: Hashable) -> FloatArray | None:
        """Persisted ``(V, K)`` rescore transpose for a matrix cache key.

        Only a layout whose container has one query-independent
        topic–item matrix persists one; per-interval keys get ``None``
        and the caller builds that interval's transpose as before.
        """
        params = self.params()
        if not params.STATIC_MATRIX or key != params.matrix_cache_key(0):
            return None
        result: FloatArray | None = self._arrays.get("item_topic")
        return result

    def quantized_selection(self, dtype: str) -> QuantizedMatrix | None:
        """Persisted quantized form of Φ for one selection dtype."""
        if dtype in self._quantized:
            return self._quantized[dtype]
        storage = self._arrays.get(f"qsel_{dtype}_storage")
        scale = self._arrays.get(f"qsel_{dtype}_scale")
        delta = self._arrays.get(f"qsel_{dtype}_delta")
        abs_max = self._arrays.get(f"qsel_{dtype}_absmax")
        quantized: QuantizedMatrix | None = None
        if not (storage is None or scale is None or delta is None or abs_max is None):
            # The per-topic statistics are tiny and consulted on every
            # margin computation — copy them into resident memory.
            quantized = QuantizedMatrix(
                storage=storage,
                scale=np.asarray(scale, dtype=np.float32),
                delta=np.asarray(delta, dtype=np.float64),
                row_abs_max=np.asarray(abs_max, dtype=np.float64),
            )
        self._quantized[dtype] = quantized
        return quantized

    def context_row(self, interval: int) -> FloatArray | None:
        """One interval's float64 context score vector ``P(v | θ′_t)``.

        The persisted product where the layout holds one, otherwise the
        container's own answer (a mapped ``theta_time`` row).
        """
        params = self.params()
        if not 0 <= interval < params.num_intervals:
            return None
        context = self._arrays.get("context")
        row: FloatArray = (
            params.context_scores(interval) if context is None else context[interval]
        )
        return row

    def context_vector(self, interval: int) -> ContextVector | None:
        """One interval's float32 context vector with its error bounds."""
        values = self._arrays.get("context32")
        delta = self._arrays.get("context_delta")
        abs_max = self._arrays.get("context_absmax")
        if values is None or delta is None or abs_max is None:
            return None
        if not 0 <= interval < delta.shape[0]:
            return None
        return ContextVector(
            values=values[interval],
            delta=float(delta[interval]),
            abs_max=float(abs_max[interval]),
        )
