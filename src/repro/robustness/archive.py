"""The one on-disk archive format: a 64-byte-aligned ``.npz``.

Snapshots (:func:`repro.core.serialize.save_params`) and training
checkpoints (:class:`repro.robustness.checkpoint.CheckpointManager`) are
both written by :func:`write_archive`. The file is an ordinary zip of
``<name>.npy`` members, as ``np.savez`` writes, with two differences:

* members are *stored*, not deflated — float64 parameters do not
  compress, and a stored member can be mapped where it lies — except in
  a plain snapshot (``save_params`` without ``mmap_layout``), which
  nothing maps and which still deflates: storing it makes the
  ``pipeline`` benchmark's ingest rate rise about six-fold, further than
  that benchmark's run-to-run spread lets it resolve;
* every member's data starts at an offset that is a multiple of
  :data:`ALIGN` (64 bytes): the local header's extra field is padded to
  get there. An ``.npy`` header is itself a multiple of 64 bytes, so
  each array's first element is aligned as well.

``np.load`` reads such an archive like any other ``.npz`` (older
deflated snapshots and checkpoints still load through it), and
:func:`map_members` maps every member in place, read-only, with one
``mmap`` of the file and no copy.

The write goes to a temporary sibling, through a fault site (so the
harness can tear it or fill the disk under it), is fsynced and is then
published with :func:`os.replace`: no reader ever sees a half-written
archive under the final name. The directory is fsynced after the
rename, so a crash cannot lose the published name either.
"""

from __future__ import annotations

import io
import os
import struct
import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

from ..typing import AnyArray
from .faults import FaultSiteFile

__all__ = ["ALIGN", "map_members", "write_archive"]

#: Alignment of every member's data, in bytes.
ALIGN = 64

#: Extra-field id of the padding record (the id Android's zipalign uses).
_PAD_ID = 0xD935
#: Fixed part of a zip local file header, up to the name and extra lengths.
_LOCAL_HEADER = struct.Struct("<4s22xHH")
_LOCAL_MAGIC = b"PK\x03\x04"
#: Enough bytes for any ``.npy`` header numpy writes for these arrays.
_NPY_HEADER_MAX = 1 << 16
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def write_archive(
    path: Path,
    members: Mapping[str, AnyArray],
    site: str,
    deflate: bool = False,
    **context: object,
) -> Path:
    """Atomically write ``members`` to ``path`` as an aligned archive.

    Members are written in mapping order (``np.load`` lists them in that
    order), stored unless ``deflate``. ``site`` and ``context`` name the
    fault site every byte goes through. Returns ``path``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        with zipfile.ZipFile(FaultSiteFile(handle, site, **context), "w") as archive:
            for name, value in members.items():
                info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                info.CRC = info.compress_size = 0  # zipfile fills both in
                # numpy forces zip64 on every member (gh-10776); the header
                # length below counts that record, then the padding closes
                # the gap to the next multiple of ALIGN.
                gap = -(handle.tell() + len(info.FileHeader(zip64=True)) + 4) % ALIGN
                info.extra = struct.pack("<HH", _PAD_ID, gap) + bytes(gap)
                if deflate:
                    info.compress_type = zipfile.ZIP_DEFLATED
                with archive.open(info, "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=False)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's entries, so a rename in it survives a crash (POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def map_members(path: Path) -> dict[str, AnyArray]:
    """Every member of an archive :func:`write_archive` wrote, mapped in place.

    One read-only ``mmap`` of the file backs every array; nothing is
    read but the zip directory, the local headers and the ``.npy``
    headers. Raises :class:`ValueError` for a member that is deflated,
    misaligned, not an ``.npy`` file, or whose ``.npy`` header disagrees
    with the member's size; a damaged zip raises what :mod:`zipfile`
    raises. Callers wrap both in their own typed error.
    """
    whole = np.memmap(path, dtype=np.uint8, mode="r")
    arrays: dict[str, AnyArray] = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            name = info.filename.removesuffix(".npy")
            if name == info.filename or info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"member {info.filename!r} is not a stored .npy file")
            start = info.header_offset
            magic, name_len, extra_len = _LOCAL_HEADER.unpack(
                bytes(whole[start : start + _LOCAL_HEADER.size])
            )
            if magic != _LOCAL_MAGIC:
                raise ValueError(f"member {name!r} has no local header")
            data = start + _LOCAL_HEADER.size + name_len + extra_len
            stream = io.BytesIO(bytes(whole[data : data + min(info.file_size, _NPY_HEADER_MAX)]))
            reader = _HEADER_READERS.get(np.lib.format.read_magic(stream))
            if reader is None:
                raise ValueError(f"member {name!r} has an unsupported .npy version")
            shape, fortran, dtype = reader(stream)
            offset = data + stream.tell()
            size = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if dtype.hasobject or offset % ALIGN:
                raise ValueError(f"member {name!r} is not an aligned plain array")
            if stream.tell() + size != info.file_size or offset + size > whole.size:
                raise ValueError(f"member {name!r}: its .npy header disagrees with its size")
            flat = whole[offset : offset + size].view(dtype)
            arrays[name] = flat.reshape(shape, order="F" if fortran else "C")
    return arrays
