"""Crash-atomic filesystem primitives shared by the durability layer.

Every on-disk structure in ``repro.durability`` (and the retrieval
index's persistence) follows the same discipline:

1. write the new bytes to a temporary file *in the same directory* as
   the final name (``os.replace`` is only atomic within a filesystem);
2. ``flush`` + ``fsync`` the temporary file so the bytes are on the
   platter before any name points at them;
3. ``os.replace`` onto the final name — atomic on POSIX: readers see
   either the whole old file or the whole new one, never a torn mix;
4. ``fsync`` the containing directory so the *rename itself* survives
   a power cut.

A crash at any step leaves either the old state or the new state —
plus, at worst, an orphaned ``*.tmp-*`` file the next writer ignores.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

PathLike = Union[str, os.PathLike]


def fsync_dir(directory: PathLike) -> None:
    """fsync a directory so a rename/create inside it is durable.

    Silently a no-op on platforms that refuse ``open(dir)`` (Windows);
    the rename is still atomic there, just not power-cut durable.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (temp + fsync + replace)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def fsync_file(path: PathLike) -> None:
    """fsync an already-written file by path (for np.save-style writers
    that close their own handle before we can sync it)."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
