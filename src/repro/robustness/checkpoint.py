"""Atomic, checksummed training checkpoints for long EM runs.

A :class:`CheckpointManager` owns one directory of numbered checkpoint
files. Each checkpoint is a single ``.npz`` archive holding the named
parameter arrays of an EM run plus bookkeeping (iteration count, the
log-likelihood trace so far, a JSON metadata blob and a content
checksum). Writes go to a temporary file first — through the
``checkpoint.write`` fault site, so the harness can tear them or fill the
disk — and are published with :func:`os.replace`, so a crash mid-write
can never leave a truncated file under a checkpoint name; loads verify
the checksum, so a damaged file is skipped rather than resumed from.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..typing import FloatArray, bit_deterministic

from .errors import CheckpointError
from .faults import FaultSiteFile

_ITERATION_KEY = "__iteration__"
_TRACE_KEY = "__log_likelihood__"
_META_KEY = "__meta__"
_CHECKSUM_KEY = "__checksum__"
_RESERVED = {_ITERATION_KEY, _TRACE_KEY, _META_KEY, _CHECKSUM_KEY}


def digest_arrays(arrays: dict[str, FloatArray]) -> str:
    """SHA-256 digest over named arrays (name, dtype, shape and bytes).

    The digest is independent of dict insertion order, so the same
    parameters always hash identically.
    """
    h = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(value.dtype).encode())
        h.update(str(value.shape).encode())
        h.update(value.tobytes())
    return h.hexdigest()


@dataclass
class Checkpoint:
    """One restorable EM state: parameter arrays plus trace position."""

    arrays: dict[str, FloatArray]
    iteration: int
    log_likelihood: list[float] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)
    path: Path | None = None


class CheckpointManager:
    """Writes, prunes and restores checkpoints in one directory.

    Parameters
    ----------
    directory:
        Where checkpoint files live; created on first save.
    every:
        Save cadence in EM iterations (consulted via :meth:`should_save`).
    keep:
        How many most-recent checkpoints to retain; older ones are pruned
        after each successful save.
    prefix:
        File-name prefix, letting several runs share a directory.
    """

    def __init__(
        self,
        directory: str | Path,
        every: int = 5,
        keep: int = 3,
        prefix: str = "em",
    ) -> None:
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        if keep <= 0:
            raise ValueError(f"keep must be positive, got {keep}")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
        self.prefix = prefix
        self.meta: dict[str, object] = {}

    def should_save(self, iteration: int) -> bool:
        """True when ``iteration`` falls on the save cadence."""
        return iteration > 0 and iteration % self.every == 0

    def _path_for(self, iteration: int) -> Path:
        return self.directory / f"{self.prefix}-{iteration:06d}.ckpt.npz"

    def save(
        self,
        arrays: dict[str, FloatArray],
        iteration: int,
        log_likelihood: list[float] | None = None,
    ) -> Path:
        """Atomically persist one checkpoint; returns its final path.

        The archive is written to a ``.tmp`` sibling and renamed into
        place, so concurrent readers never observe a partial file.
        """
        bad = _RESERVED & set(arrays)
        if bad:
            raise CheckpointError(f"array names collide with reserved keys: {sorted(bad)}")
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self._path_for(iteration)
        tmp = final.parent / (final.name + ".tmp")
        payload = {name: np.asarray(value) for name, value in arrays.items()}
        trace = np.asarray(log_likelihood if log_likelihood is not None else [], dtype=np.float64)
        with open(tmp, "wb") as handle:
            # Stored, not deflated: float64 state does not compress; np.load
            # reads either kind, so older compressed checkpoints still load.
            np.savez(
                FaultSiteFile(handle, "checkpoint.write", iteration=iteration),
                **payload,
                **{
                    _ITERATION_KEY: np.array(int(iteration)),
                    _TRACE_KEY: trace,
                    _META_KEY: np.array(json.dumps(self.meta, sort_keys=True)),
                    _CHECKSUM_KEY: np.array(digest_arrays(payload)),
                },
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        self._prune()
        return final

    def _prune(self) -> None:
        """Delete all but the ``keep`` newest checkpoints."""
        existing = self._list()
        for _, path in existing[: -self.keep]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def clear(self) -> None:
        """Delete every checkpoint under this prefix.

        A run that starts over calls this first: a leftover file with a
        higher number would get the new run's saves pruned as "older"
        and be what the next resume restores.
        """
        for _, path in self._list():
            path.unlink()

    def _list(self) -> list[tuple[int, Path]]:
        """Checkpoint files in this directory, sorted by iteration."""
        pattern = re.compile(rf"{re.escape(self.prefix)}-(\d+)\.ckpt\.npz$")
        found = []
        if self.directory.is_dir():
            for path in self.directory.iterdir():
                match = pattern.fullmatch(path.name)
                if match:
                    found.append((int(match.group(1)), path))
        return sorted(found)

    @bit_deterministic
    def load(self, path: str | Path) -> Checkpoint:
        """Load and verify one checkpoint file.

        ``arrays`` comes back in archive order — the order :meth:`save`
        was handed — so a health rollback, which re-jitters the restored
        arrays from one RNG stream in dict order, replays identically in
        every process.

        Raises :class:`~repro.robustness.errors.CheckpointError` on a
        truncated archive, a checksum mismatch, or missing bookkeeping.
        """
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as archive:
                if not _RESERVED <= set(archive.files):
                    raise CheckpointError(f"{path} is not a checkpoint archive")
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name not in _RESERVED
                }
                expected = str(archive[_CHECKSUM_KEY])
                actual = digest_arrays(arrays)
                if actual != expected:
                    raise CheckpointError(
                        f"{path} failed its checksum (stored {expected[:12]}…, "
                        f"recomputed {actual[:12]}…)"
                    )
                return Checkpoint(
                    arrays=arrays,
                    iteration=int(archive[_ITERATION_KEY]),
                    log_likelihood=[float(x) for x in archive[_TRACE_KEY]],
                    meta=json.loads(str(archive[_META_KEY])),
                    path=path,
                )
        except CheckpointError:
            raise
        except Exception as exc:  # zipfile.BadZipFile, OSError, KeyError, ...
            raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc

    def latest(self) -> Checkpoint | None:
        """The newest checkpoint that passes verification, or ``None``.

        Damaged files are skipped (with a warning) so a crash during the
        final save still leaves the previous good checkpoint reachable.
        """
        for _, path in reversed(self._list()):
            try:
                return self.load(path)
            except CheckpointError as exc:
                warnings.warn(
                    f"skipping unusable checkpoint: {exc}", UserWarning, stacklevel=2
                )
        return None
