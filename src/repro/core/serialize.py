"""Saving and loading fitted TCAM parameters.

A production recommender trains offline and serves online from a
snapshot. This module persists fitted parameter containers to a single
``.npz`` file (numpy's zipped archive) with a format tag, and restores
them with full validation — a loaded model scores identically to the
one that was saved, which the tests verify bit-for-bit.

Snapshots are crash- and corruption-safe: :func:`save_params` writes to
a temporary sibling and publishes it with :func:`os.replace` (no reader
ever sees a half-written archive) and embeds a SHA-256 content checksum;
:func:`load_params` verifies the checksum and wraps every decoding
failure — truncated file, bad zip, missing array, tampered parameters —
in :class:`~repro.robustness.errors.SnapshotCorruptError` instead of
leaking raw numpy/zipfile tracebacks. The bytes go through the
``snapshot.write`` fault site, so the harness can tear a save or fill
the disk under it.

The checksum is split along the container's ``BASE_FIELDS``: one digest
for the base (``φ``, ``φ′`` — what incremental fold-in holds fixed), one
for the rest, and ``tcam_checksum`` over the two. A serving process that
already holds — and has itself hashed — the base a snapshot names opens
that snapshot by *delta*: it reads, verifies and validates the remaining
fields only (:func:`load_params` with ``serving``).
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path

import numpy as np

from ..robustness.checkpoint import digest_arrays
from ..robustness.errors import SnapshotCorruptError
from ..robustness.faults import FaultSiteFile
from .params import (
    VARIANTS,
    ITCAMParameters,
    ParamsBackedModel,
    TCAMParameters,
    TTCAMParameters,
)

_FORMAT_KEY = "tcam_format"
_CHECKSUM_KEY = "tcam_checksum"
#: Digests of the base fields and of the remaining ones. An archive that
#: carries them stores the digest of the two as its checksum; one without
#: (every snapshot written before the split) stores one flat digest.
_BASE_KEY = "tcam_base_digest"
_DELTA_KEY = "tcam_delta_digest"
#: Archive format tag = the container's ``VARIANT`` + this suffix.
_TAG_SUFFIX = "-v1"
_BY_TAG = {variant + _TAG_SUFFIX: cls for variant, cls in VARIANTS.items()}


def _root_checksum(base: str, delta: str) -> str:
    """The archive checksum over its two part digests."""
    return hashlib.sha256(f"{base}:{delta}".encode()).hexdigest()


def params_checksum(params: TCAMParameters) -> str:
    """The checksum :func:`save_params` embeds for ``params``.

    What derived data (the mmap sidecar) records to stay tied to the
    snapshot it was built from.
    """
    arrays = params.arrays()
    return _root_checksum(params.digest_base(arrays), params.digest_delta(arrays))


def save_params(
    params: ITCAMParameters | TTCAMParameters,
    path: str | Path,
    mmap_layout: bool = False,
) -> Path:
    """Persist fitted parameters to ``path`` (.npz), atomically.

    The variant is recorded in the archive, so :func:`load_params`
    reconstructs the right container without being told, and SHA-256
    digests over the parameter arrays — base fields, the rest, and the
    checksum over both; every byte is hashed once — let it detect
    corruption. The archive is written to a temporary file and renamed
    into place, so a crash mid-save never leaves a truncated snapshot at
    ``path``.

    ``mmap_layout=True`` additionally publishes the memory-mapped
    sidecar directory ``<path>.arrays/`` (per-array ``.npy`` files plus
    derived serving arrays — see :mod:`repro.recommend.paramstore`), so
    serving processes can page parameters in instead of materialising
    them. The ``.npz`` remains the source of truth; the sidecar is
    derived and re-creatable.
    """
    path = Path(path)
    if not isinstance(params, TCAMParameters):
        raise TypeError(f"unsupported parameter type: {type(params).__name__}")
    arrays = params.arrays()
    base, delta = params.digest_base(arrays), params.digest_delta(arrays)
    # np.savez appends .npz when missing; resolve the real location first.
    final = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.parent / (final.name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez_compressed(
            FaultSiteFile(handle, "snapshot.write"),
            **{
                _FORMAT_KEY: np.array(params.VARIANT + _TAG_SUFFIX),
                _CHECKSUM_KEY: np.array(_root_checksum(base, delta)),
                _BASE_KEY: np.array(base),
                _DELTA_KEY: np.array(delta),
            },
            **arrays,
        )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    if mmap_layout:
        # Imported lazily: core must stay importable without the
        # recommend package (and vice versa) at module-load time.
        from ..recommend.paramstore import write_store

        write_store(params, final)
    return final


def load_params(
    path: str | Path,
    serving: ITCAMParameters | TTCAMParameters | None = None,
) -> ITCAMParameters | TTCAMParameters:
    """Load fitted parameters saved by :func:`save_params`.

    The embedded checksum is verified and the parameter containers
    re-validate their invariants on construction, so a truncated,
    bit-flipped or hand-edited archive raises
    :class:`~repro.robustness.errors.SnapshotCorruptError` (a
    :class:`ValueError` subclass) rather than serving nonsense. The
    returned container remembers the base digest it was verified under.

    ``serving`` is the container a serving process answers from now.
    When the archive names the base digest ``serving`` was verified
    under, the load is a *delta*: only the remaining fields are read,
    hashed and validated, and the result is
    ``serving.with_fields(**delta)`` — the base arrays are ``serving``'s
    own, and the file's copies of them are not inflated (damage confined
    to those members goes unseen until the next full load of the file;
    nothing read from them is served). Any other archive — another
    variant or base, one written before the digests were split — is
    loaded in full, as without ``serving``.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _FORMAT_KEY not in archive:
                raise SnapshotCorruptError(f"{path} is not a TCAM parameter archive")
            tag = str(archive[_FORMAT_KEY])
            cls = _BY_TAG.get(tag)
            if cls is None:
                raise SnapshotCorruptError(
                    f"unknown TCAM archive format {tag!r} in {path}"
                )
            fields = cls.field_names()
            missing = [name for name in fields if name not in archive]
            if missing:
                raise SnapshotCorruptError(f"{path} is missing arrays {missing}")
            stored = {
                key: str(archive[key])
                for key in (_CHECKSUM_KEY, _BASE_KEY, _DELTA_KEY)
                if key in archive
            }
            split = bool(stored.keys() & {_BASE_KEY, _DELTA_KEY})
            delta_open = (
                serving is not None
                and type(serving) is cls
                and serving.base_digest is not None  # only ever set from hashed bytes
                and serving.base_digest == stored.get(_BASE_KEY)
            )
            arrays = {
                name: archive[name]
                for name in (cls.delta_fields() if delta_open else fields)
            }
            base: str | None = None
            if split:
                base = serving.base_digest if delta_open else cls.digest_base(arrays)
                delta = cls.digest_delta(arrays)
                actual = {
                    _CHECKSUM_KEY: _root_checksum(base, delta),
                    _BASE_KEY: base,
                    _DELTA_KEY: delta,
                }
            else:
                actual = {_CHECKSUM_KEY: digest_arrays(arrays)} if stored else {}
            if actual != stored:
                raise SnapshotCorruptError(
                    f"{path} failed its checksum (stored "
                    f"{stored.get(_CHECKSUM_KEY, '')[:12]}…, recomputed "
                    f"{actual[_CHECKSUM_KEY][:12]}…)"
                )
            try:
                if delta_open:
                    return serving.with_fields(**arrays)
                params = cls(**arrays)
            except ValueError as exc:
                raise SnapshotCorruptError(
                    f"{path} holds invalid parameters: {exc}"
                ) from exc
            params.base_digest = base
            return params
    except (SnapshotCorruptError, FileNotFoundError):
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, EOFError, ...
        raise SnapshotCorruptError(f"snapshot {path} is unreadable: {exc}") from exc


def stored_checksum(path: str | Path) -> str | None:
    """The parameter checksum embedded in the snapshot at ``path``.

    Decodes only the checksum member of the archive — no parameter array
    is read — so derived data (the mmap sidecar) can be tied to the
    snapshot it was built from cheaply. ``None`` means the archive is
    missing, unreadable or carries no checksum.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            return str(archive[_CHECKSUM_KEY]) if _CHECKSUM_KEY in archive else None
    except Exception:  # zipfile.BadZipFile, OSError, EOFError, ...
        return None


class LoadedModel(ParamsBackedModel):
    """Serving adapter around loaded parameters.

    Exposes the same prediction surface as a fitted model
    (:class:`~repro.core.params.ParamsBackedModel`) so a
    :class:`~repro.recommend.recommender.TemporalRecommender` can serve
    straight from a snapshot. When opened through an mmap sidecar,
    :attr:`param_store` carries the open
    :class:`~repro.recommend.paramstore.ParamStore`, and the serving
    layer prefers its persisted derived arrays (rescore transpose,
    context vectors, quantized selection form) over rebuilding them.
    """

    def __init__(
        self,
        params: ITCAMParameters | TTCAMParameters,
        param_store: object | None = None,
    ) -> None:
        self.params_: ITCAMParameters | TTCAMParameters = params
        self.param_store = param_store

    @classmethod
    def from_file(
        cls, path: str | Path, serving: "LoadedModel | None" = None
    ) -> "LoadedModel":
        """Open a snapshot for serving — the one way to open one.

        How it is served follows from what is on disk, decided where the
        snapshot was written (``save_params(..., mmap_layout=True)``):
        beside a sidecar directory derived from the ``.npz`` now at
        ``path`` the parameters are memory-mapped and page in on demand;
        without one they are loaded eagerly. A sidecar that is present
        but torn, damaged or stale (derived from other parameters than
        the ``.npz`` holds) degrades to the eager checksummed load with a
        :class:`RuntimeWarning` — the sidecar is an optimisation, not a
        second source of truth.

        ``serving`` is the model this process answers from now (a
        publish passes it): an eager open whose archive names the base
        that model was verified under reads only what changed — see
        :func:`load_params`. What comes back is the same either way.
        """
        from ..recommend.paramstore import ParamStore, store_dir

        if store_dir(path).is_dir():
            try:
                store = ParamStore.for_snapshot(path)
                return cls(store.params(), param_store=store)
            except SnapshotCorruptError as exc:
                warnings.warn(
                    f"mmap sidecar for {path} unusable ({exc}); "
                    "falling back to eager snapshot load",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return cls(load_params(path, serving.params_ if serving is not None else None))

    @property
    def name(self) -> str:
        """Display name used in evaluation tables."""
        return f"Loaded-{self.params_.VARIANT.upper()}"
