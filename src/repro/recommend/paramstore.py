"""Memory-mapped parameter store for million-item serving.

A fitted snapshot (`.npz`, see :mod:`repro.core.serialize`) is the
durable, checksummed source of truth — but serving from it means
decompressing every array into resident memory. At ``V ≥ 10⁶`` items
that is gigabytes of float64 before the first query is answered, most of
which a real query mix never touches (cold users, cold items, cold
intervals).

This module adds an **mmap sidecar layout** next to the snapshot: a
directory ``<snapshot>.arrays/`` holding one raw ``.npy`` file per array
plus a ``manifest.json`` with per-file SHA-256 digests, shapes and
dtypes. Serving opens every array with ``np.load(..., mmap_mode="r")``,
so the kernel pages in exactly the rows a query touches — a recommender
process's resident set scales with the *hot* fraction of the catalogue,
not its size.

Beyond the raw parameters the layout persists the derived serving
arrays that are expensive (in time or resident bytes) to rebuild online:

* ``item_topic`` — the contiguous ``(V, K)`` rescore transpose (for a
  container whose topic–item matrix is query-independent — TTCAM);
* ``context`` / ``context32`` (+ per-interval error statistics) — the
  per-interval context score vectors ``P(v | θ′_t)`` in float64 (same
  condition: otherwise they are ``theta_time`` itself), and the float32
  image the int8 selection path adds and bounds;
* ``qsel_int8_*`` — the int8 selection form of Φ with its measured
  per-topic error bounds (see :mod:`repro.recommend.quantize`).

**Trust model.** ``__post_init__`` validation of the parameter
containers would page every byte of every array — defeating the point —
so :meth:`ParamStore.params` constructs them *without* validation and
the store instead (a) verifies manifest structure, shapes and dtypes
against the mapped files, (b) fully hashes every file small enough to be
cheap, and (c) spot-checks sampled rows for the stochastic invariants.
:meth:`ParamStore.verify` performs the full every-byte hash check when
integrity matters more than start-up latency (tests do this; a paranoid
deployment can too). The sidecar is *derived* data: the manifest records
the checksum of the snapshot it was derived from, and if the sidecar is
missing, damaged or describes another snapshot than the ``.npz`` beside
it, loaders fall back to the checksummed ``.npz``. Manifest entries the
store does not know — the Threshold-Algorithm ``sorted_order`` /
``sorted_values`` lists older writers persisted, which no serving path
reads — are mapped and hash-checked like any other file and otherwise
ignored, so such a sidecar still opens.

**Atomicity.** :func:`write_store` builds the layout in a temporary
sibling directory, fsyncs, and renames it into place; the manifest is
written last, so a torn publish leaves a directory without a manifest —
which :class:`ParamStore` rejects cleanly — never a plausible-looking
store with half-written arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Hashable, Mapping

import numpy as np

from ..core.params import VARIANTS, ITCAMParameters, TCAMParameters, TTCAMParameters
from ..core.serialize import params_checksum, stored_checksum
from ..robustness.errors import SnapshotCorruptError
from ..typing import AnyArray, FloatArray
from .quantize import ContextVector, QuantizedMatrix, quantize_matrix

__all__ = ["MANIFEST_NAME", "STORE_SUFFIX", "ParamStore", "store_dir", "write_store"]

#: Name of the manifest file inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Suffix appended to the snapshot filename to form the sidecar directory.
STORE_SUFFIX = ".arrays"

_FORMAT = "tcam-store-v2"

#: Files up to this size are fully hashed at load time; larger ones are
#: only hashed by :meth:`ParamStore.verify` (reading them would page the
#: whole layout in, defeating the mmap win).
_EAGER_HASH_LIMIT = 1 << 20


def store_dir(snapshot: str | Path) -> Path:
    """The sidecar store directory belonging to a snapshot path."""
    snapshot = Path(snapshot)
    return snapshot.with_name(snapshot.name + STORE_SUFFIX)


def _file_sha256(path: Path) -> str:
    """Chunked SHA-256 of one file (3.10-compatible, bounded memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_dir(directory: Path) -> None:
    """Flush directory metadata so renames survive a crash (POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_store(params: ITCAMParameters | TTCAMParameters, snapshot: str | Path) -> Path:
    """Write the mmap sidecar layout for ``params`` next to ``snapshot``.

    This is an offline step run at publish time: it reads the full
    parameter set once, derives the serving arrays (rescore transpose,
    context vectors, int8 selection form) and
    publishes everything with a rename. The manifest records the
    parameters' checksum — the one :func:`~repro.core.serialize.save_params`
    embeds in the ``.npz`` — so a sidecar left behind by an older save is
    recognised as stale. Returns the store directory. An existing store
    at the same location is replaced.
    """
    final = store_dir(snapshot)
    tmp = final.with_name(final.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)

    if not isinstance(params, TCAMParameters):
        raise TypeError(f"unsupported parameter type: {type(params).__name__}")
    arrays: dict[str, AnyArray] = params.arrays()
    checksum = params_checksum(params)
    intervals, num_items = params.num_intervals, params.num_items
    if params.STATIC_MATRIX:
        # One topic–item matrix for every interval: its transpose and the
        # float64 context products are worth persisting. Otherwise the
        # context rows *are* theta_time and the per-interval matrix (phi +
        # one such row) is cheap to assemble online, so neither is stored.
        arrays["item_topic"] = np.ascontiguousarray(params.topic_item_matrix(0).T)
        arrays["context"] = np.empty((intervals, num_items), dtype=np.float64)
    context32 = np.empty((intervals, num_items), dtype=np.float32)
    context_delta = np.empty(intervals, dtype=np.float64)
    context_abs_max = np.empty(intervals, dtype=np.float64)
    for t in range(intervals):
        # Row by row through the container, the exact expression the
        # online path evaluates per interval — a single (T, K2) @ (K2, V)
        # GEMM can differ from it in the last ULP, and persisted context
        # rows must be bit-identical to freshly computed ones.
        row = params.context_scores(t)
        if "context" in arrays:
            arrays["context"][t] = row
        vector = ContextVector.from_exact(row)
        context32[t] = vector.values
        context_delta[t] = vector.delta
        context_abs_max[t] = vector.abs_max
    arrays["context32"] = context32
    arrays["context_delta"] = context_delta
    arrays["context_absmax"] = context_abs_max

    quantized = quantize_matrix(np.asarray(params.phi, dtype=np.float64), "int8")
    arrays["qsel_int8_storage"] = quantized.storage
    arrays["qsel_int8_scale"] = quantized.scale
    arrays["qsel_int8_delta"] = quantized.delta
    arrays["qsel_int8_absmax"] = quantized.row_abs_max

    entries: dict[str, dict[str, Any]] = {}
    for name, array in arrays.items():
        filename = f"{name}.npy"
        path = tmp / filename
        with open(path, "wb") as handle:
            np.save(handle, np.ascontiguousarray(array))
            handle.flush()
            os.fsync(handle.fileno())
        entries[name] = {
            "file": filename,
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "sha256": _file_sha256(path),
        }

    manifest = {
        "format": _FORMAT,
        "variant": params.VARIANT,
        "snapshot_checksum": checksum,
        "arrays": entries,
    }
    manifest_path = tmp / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as text:
        json.dump(manifest, text, indent=2, sort_keys=True)
        text.flush()
        os.fsync(text.fileno())
    _fsync_dir(tmp)

    if final.exists():
        shutil.rmtree(final)
    os.rename(tmp, final)
    _fsync_dir(final.parent)
    return final


class ParamStore:
    """Memory-mapped view of one published parameter store directory.

    All arrays are opened with ``mmap_mode="r"`` — constructing a store
    maps files without reading them, so start-up cost and resident
    memory are both tiny regardless of catalogue size. Accessors hand
    out mmap-backed objects directly (memoised on the store, *not*
    copied), and the serving layer deliberately keeps them out of its
    caches' byte count: they are pageable, not resident.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise SnapshotCorruptError(
                f"parameter store {self.directory} has no {MANIFEST_NAME} "
                "(missing or torn publish)"
            )
        try:
            with open(manifest_path, "r", encoding="utf-8") as text:
                manifest = json.load(text)
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotCorruptError(
                f"parameter store manifest {manifest_path} is unreadable: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
            raise SnapshotCorruptError(
                f"{manifest_path} is not a {_FORMAT} manifest"
            )
        self.snapshot_checksum = manifest.get("snapshot_checksum")
        self.variant = str(manifest.get("variant"))
        if self.variant not in VARIANTS:
            raise SnapshotCorruptError(
                f"unknown parameter-store variant {self.variant!r} in {manifest_path}"
            )
        entries = manifest.get("arrays")
        if not isinstance(entries, Mapping) or not entries:
            raise SnapshotCorruptError(f"{manifest_path} lists no arrays")
        self._entries: dict[str, dict[str, Any]] = {
            str(name): dict(entry) for name, entry in entries.items()
        }
        self._arrays: dict[str, AnyArray] = {}
        for name, entry in self._entries.items():
            self._arrays[name] = self._open_array(name, entry)
        self._params: ITCAMParameters | TTCAMParameters | None = None
        self._check_structure()
        self._spot_check()
        self._quantized: dict[str, QuantizedMatrix | None] = {}

    @classmethod
    def for_snapshot(cls, snapshot: str | Path) -> "ParamStore":
        """Open the store belonging to a snapshot path.

        The store must have been derived from the ``.npz`` that is at
        ``snapshot`` now: the manifest's checksum is compared with the
        one embedded in the archive (one small zip member — no parameter
        bytes are read), so a sidecar left over from an earlier save at
        the same path is rejected instead of served.
        """
        store = cls(store_dir(snapshot))
        expected = stored_checksum(snapshot)
        if expected is None or store.snapshot_checksum != expected:
            raise SnapshotCorruptError(
                f"parameter store {store.directory} is stale: it was not derived "
                f"from the parameters now in {snapshot}"
            )
        return store

    # -- load-time validation --------------------------------------------

    def _open_array(self, name: str, entry: Mapping[str, Any]) -> AnyArray:
        """Map one manifest entry, checking its header against the manifest."""
        path = self.directory / str(entry.get("file", f"{name}.npy"))
        try:
            array = np.load(path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise SnapshotCorruptError(
                f"parameter store array {path} is unreadable: {exc}"
            ) from exc
        if str(array.dtype) != entry.get("dtype"):
            raise SnapshotCorruptError(
                f"{path} has dtype {array.dtype}, manifest says {entry.get('dtype')}"
            )
        if list(array.shape) != list(entry.get("shape", [])):
            raise SnapshotCorruptError(
                f"{path} has shape {array.shape}, manifest says {entry.get('shape')}"
            )
        if path.stat().st_size <= _EAGER_HASH_LIMIT:
            digest = _file_sha256(path)
            if digest != entry.get("sha256"):
                raise SnapshotCorruptError(f"{path} failed its checksum")
        return array

    def _require(self, name: str) -> AnyArray:
        array = self._arrays.get(name)
        if array is None:
            raise SnapshotCorruptError(
                f"parameter store {self.directory} is missing array {name!r}"
            )
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
            raise SnapshotCorruptError(f"{self.directory}: parameter ranks are wrong")
        try:
            params._check_shapes()
        except ValueError as exc:
            raise SnapshotCorruptError(f"{self.directory}: {exc}") from exc
        intervals, num_items = params.num_intervals, params.num_items
        if params.STATIC_MATRIX:
            topics = int(params.query_weights(0, 0).shape[0])
            item_topic = self._require("item_topic")
            if tuple(item_topic.shape) != (num_items, topics):
                raise SnapshotCorruptError(
                    f"{self.directory}: item_topic shape {item_topic.shape} does not "
                    f"match ({num_items}, {topics})"
                )
            context = self._require("context")
            if tuple(context.shape) != (intervals, num_items):
                raise SnapshotCorruptError(
                    f"{self.directory}: context shape {context.shape} is wrong"
                )
        context32 = self._require("context32")
        if tuple(context32.shape) != (intervals, num_items):
            raise SnapshotCorruptError(
                f"{self.directory}: context32 shape {context32.shape} is wrong"
            )
        for name in ("context_delta", "context_absmax"):
            stats = self._require(name)
            if tuple(stats.shape) != (intervals,):
                raise SnapshotCorruptError(
                    f"{self.directory}: {name} shape {stats.shape} is wrong"
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
                        f"{self.directory}: {name} row {row} sums to {total!r}"
                    )
        lambda_u = self._arrays["lambda_u"]
        for row in sorted({0, int(lambda_u.shape[0]) - 1}):
            value = float(lambda_u[row])
            if not 0.0 <= value <= 1.0 + 1e-9:
                raise SnapshotCorruptError(
                    f"{self.directory}: lambda_u[{row}] = {value!r} outside [0, 1]"
                )

    def verify(self) -> None:
        """Full integrity check: re-hash every file against the manifest.

        Reads (and therefore pages) the entire layout — use at publish
        or audit time, not on the serving start-up path.
        """
        for name, entry in self._entries.items():
            path = self.directory / str(entry.get("file", f"{name}.npy"))
            digest = _file_sha256(path)
            if digest != entry.get("sha256"):
                raise SnapshotCorruptError(f"{path} failed its checksum")

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
