"""Whole-file writes: a reader sees the old file or the new one, never half of one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[str]]:
    """Open a text file for writing that replaces `path` only on success.

    The text goes to a temporary file in the same directory, which
    `os.replace` renames onto `path` once the block exits cleanly. If the
    block raises, the temporary file is removed and `path` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
