"""The one crash-safe whole-file write of every durable store.

Checkpoints, the tuning cache, generated codegen modules and the compacted
serve journal are each replaced as a whole: the new content goes to a
``.tmp`` sibling, is flushed and fsynced, and only then renamed over the
real path with ``os.replace``.  A crash at any point leaves either the old
complete file or the new complete file — never a truncated one.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

__all__ = ["atomic_write"]


def atomic_write(
    path: str | os.PathLike, data: bytes | str | Callable[[BinaryIO], object]
) -> None:
    """Atomically replace ``path`` with ``data``.

    ``data`` is the content (``str`` is written as UTF-8) or a callable that
    writes it to the open binary temp file, so a large payload can be
    streamed without a second in-memory copy.  Parent directories are
    created; ``OSError`` propagates to the caller.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        if callable(data):
            data(fh)
        else:
            fh.write(data.encode() if isinstance(data, str) else data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
