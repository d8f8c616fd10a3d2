"""Whole-file writes: a reader sees the old file or the new one, never half of one."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence


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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file with Unix line ends and minimal quoting, written whole.
    The csv module writes a float with repr, which keeps every bit."""
    with atomic_write(path) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
