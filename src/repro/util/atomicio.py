"""Crash-safe file writes (write-to-temp, then atomic rename).

A process killed mid-``write_text`` leaves a truncated file behind; any
later reader then dies on half a JSON document.  Every persistent
artefact in this repo (saved reorderings, sweep checkpoint cells, fabric
manifests, mapping-cache entries, reports) instead goes through
:func:`atomic_write_text` / :func:`atomic_write_json`:

* the payload goes to a fresh ``<name>.<random>.tmp`` sibling created by
  :func:`tempfile.mkstemp` in the same directory, so concurrent writers
  of one path never share (and never clobber) a temp file;
* the temp file is flushed and ``fsync``-ed, moved into place with
  ``os.replace`` (atomic on POSIX and Windows), and the directory is
  ``fsync``-ed after the rename, so the new entry survives power loss and
  not only a process kill;
* a failed write unlinks its temp file and leaves the old file intact;
* the result gets the mode a plain ``open(path, "w")`` would create,
  ``0o666 & ~umask`` (``mkstemp`` alone creates ``0o600``), because
  fabric directories are shared.

Readers therefore see either the old complete file or the new complete
file — never a torn one — and with many writers, exactly one writer's
whole payload.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_text", "atomic_write_json", "exclusive_create_text"]

PathLike = Union[str, Path]

_UMASK_LOCK = threading.Lock()


def _umask() -> int:
    """The process umask, read without changing it where the OS allows."""
    with contextlib.suppress(OSError, ValueError):
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Umask:"):
                    return int(line.split()[1], 8)
    # Portable fallback: set-and-restore, with the most restrictive
    # interim mask so a concurrent file creation never gets wider modes.
    with _UMASK_LOCK:
        mask = os.umask(0o077)
        os.umask(mask)
    return mask


def _fsync_dir(directory: Path) -> None:
    """Make a rename in ``directory`` durable (best effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # directories cannot be opened on every platform
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Write ``text`` to ``path`` atomically; returns the path written."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_dir(path.parent)
    return path


def atomic_write_json(path: PathLike, payload, indent: int = 1) -> Path:
    """Serialise ``payload`` as JSON and write it atomically.

    The document is fully serialised *before* any file is touched, so a
    non-serialisable payload cannot leave a partial temp file either.
    """
    return atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def exclusive_create_text(path: PathLike, text: str) -> bool:
    """Create ``path`` with ``text`` iff it does not exist yet.

    ``O_CREAT | O_EXCL`` makes existence the atomic test-and-set: of any
    number of processes racing to create the same file, exactly one
    succeeds (returns ``True``) and every other caller gets ``False``.
    This is the mutual-exclusion primitive behind the sweep fabric's
    per-cell claims (:mod:`repro.bench.fabric`).

    Unlike :func:`atomic_write_text` the *content* is not torn-proof —
    the file exists (empty) for the instant between create and write —
    so readers must treat existence + mtime as authoritative and the
    body as advisory.  Claim readers do exactly that.
    """
    path = Path(path)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, text.encode())
    finally:
        os.close(fd)
    return True
