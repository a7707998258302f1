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
can be mapped where it lies, and it adds the layout block-max selection
serves from (:class:`~repro.recommend.serving.BlockIndex`, built once at
save instead of at every open) and a manifest of per-member digests, as
further members of the *same* file (:func:`layout_members`):

=====================  ====================  ===================================
member                 when                  holds
=====================  ====================  ===================================
``block_items``        one static matrix     the block index's item ids,
                       (TTCAM)               int64 ``(blocks, B)``, the last
                                             block padded
``block_max_t``        one static matrix     its per-topic block maxima of
                                             ``φ``, float64 ``(K1, blocks)``
``arranged``           one static matrix     the ``(K, V)`` topic–item matrix
                                             laid out item-major in block
                                             order, float64 ``(blocks·B, K)``
``context_max``        one static matrix     per-interval block maxima of the
                                             context scores ``P(v | θ′_t)``,
                                             float64 ``(T, blocks)``
``tcam_manifest``      always                JSON: layout format, variant, and
                                             the SHA-256 digest
                                             (:func:`~repro.robustness.checkpoint.digest_arrays`)
                                             of every member above and of every
                                             parameter field
=====================  ====================  ===================================

The first four are exactly what ``BlockIndex.build`` and
``BlockIndex.block_maxima`` return for the container, so a mapped model
and an eager one score the same block-ordered matrix against the same
bounds. A container whose topic–item matrix changes with the interval
(ITCAM) gets no derived member: its scorer builds each interval's index
in memory, as an eager model's does.

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
and ``block_items``, ``block_max_t`` and ``context_max`` whatever their
size — a wrong block maximum would silently prune a true top-k item —
and (c) spot-checks sampled rows for the stochastic invariants.
:meth:`ParamStore.verify` hashes every member when integrity matters
more than start-up latency (tests do this; a paranoid deployment can
too). A mapped open that fails (a) – (c) falls back to the eager,
fully checksummed load of the same file. Manifest entries the store
does not know — the Threshold-Algorithm ``sorted_order`` /
``sorted_values`` lists older writers persisted, which no serving path
reads, and the narrow-dtype selection members older writers added — are
mapped and hash-checked like any other member and otherwise ignored.
So are the ``item_topic`` / ``context`` members an older writer stored in
place of the block layout: such a snapshot maps its parameters, and its
scorer builds the block index in memory until it is re-saved.

The derived members live in the file they were derived from and are
replaced with it, atomically: they cannot be stale or torn apart from
the parameters.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ..core.params import VARIANTS, ITCAMParameters, TCAMParameters, TTCAMParameters
from ..robustness.archive import map_members
from ..robustness.checkpoint import digest_arrays
from ..robustness.errors import SnapshotCorruptError
from ..typing import AnyArray, FloatArray
from .serving import SELECT_BLOCK, BlockIndex

__all__ = ["ParamStore", "carries_layout", "layout_members"]

#: The member holding the layout's manifest (format, variant, digests).
_MANIFEST = "tcam_manifest"

_FORMAT = "tcam-store-v3"

#: Members up to this size are fully hashed at open; larger ones are
#: only hashed by :meth:`ParamStore.verify` (reading them would page the
#: whole file in, defeating the mmap win) — except :data:`_BOUNDS`.
_EAGER_HASH_LIMIT = 1 << 20

#: The block layout's members that bound or name items, hashed at open
#: whatever their size: a wrong one silently drops a true top-k item.
_BOUNDS = ("block_items", "block_max_t", "context_max")


def layout_members(params: ITCAMParameters | TTCAMParameters) -> dict[str, AnyArray]:
    """The derived serving members ``save_params(mmap_layout=True)`` adds.

    Reads the full parameter set once and builds the block layout
    serving reads (the module docstring's table), plus the
    ``tcam_manifest`` member that records the format, the variant and a
    digest of every parameter field and derived array.
    """
    if not isinstance(params, TCAMParameters):
        raise TypeError(f"unsupported parameter type: {type(params).__name__}")
    derived: dict[str, AnyArray] = {}
    if params.STATIC_MATRIX:
        # One topic–item matrix for every interval: the index the eager
        # scorer would build for it, built the same way. A per-interval
        # matrix (phi + one theta_time row) has no one index to store.
        index, arranged = BlockIndex.build(
            params.topic_item_matrix(0, memo=False), params.num_user_topics, signed=False
        )
        derived["block_items"] = index.items
        derived["block_max_t"] = index.block_max_t
        derived["arranged"] = arranged
        # Row by row through the container, the expression the eager
        # scorer evaluates per interval.
        derived["context_max"] = np.stack(
            [index.block_maxima(params.context_scores(t)) for t in range(params.num_intervals)]
        )

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
        self._index: tuple[BlockIndex, FloatArray] | None = None
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
            if array.nbytes <= _EAGER_HASH_LIMIT or name in _BOUNDS:
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
        checked here. A static-matrix layout without ``block_items`` —
        an older writer's — holds no block layout: the scorer builds it.
        """
        params = self.params()
        ranks = {name: array.ndim for name, array in params.arrays().items()}
        if ranks.pop("lambda_u") != 1 or set(ranks.values()) != {2}:
            raise SnapshotCorruptError(f"{self.path}: parameter ranks are wrong")
        try:
            params._check_shapes()
        except ValueError as exc:
            raise SnapshotCorruptError(f"{self.path}: {exc}") from exc
        if not params.STATIC_MATRIX or "block_items" not in self._arrays:
            return
        num_items = params.num_items
        blocks = -(-num_items // SELECT_BLOCK)
        topics = int(params.query_weights(0, 0).shape[0])
        expected = {
            "block_items": (blocks, SELECT_BLOCK),
            "block_max_t": (params.num_user_topics, blocks),
            "arranged": (blocks * SELECT_BLOCK, topics),
            "context_max": (params.num_intervals, blocks),
        }
        for name, shape in expected.items():
            array = self._require(name)
            if tuple(array.shape) != shape:
                raise SnapshotCorruptError(
                    f"{self.path}: {name} shape {array.shape} does not match {shape}"
                )
        items = self._arrays["block_items"]
        if items.dtype != np.int64 or items.min() < 0 or items.max() >= num_items:
            raise SnapshotCorruptError(f"{self.path}: block_items names no catalogue items")
        index = BlockIndex(items, num_items, self._arrays["block_max_t"], None)
        self._index = (index, self._arrays["arranged"])

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

    def block_index(self) -> tuple[BlockIndex, FloatArray] | None:
        """The stored :class:`BlockIndex` of ``φ`` and its arranged matrix, or ``None``.

        Both are mapped (one object for the store's life); ``None`` when
        the layout stores no block index (ITCAM, or an older writer).
        """
        return self._index

    def context_max(self, interval: int) -> FloatArray | None:
        """One interval's stored context block maxima (``(blocks,)``), or ``None``.

        ``None`` when the layout stores no block index or ``interval`` is
        out of range (the container's own ``context_scores`` then
        answers, or raises, as for an eager model).
        """
        if self._index is None or not 0 <= interval < self.params().num_intervals:
            return None
        row: FloatArray = self._arrays["context_max"][interval]
        return row
