"""Whole-file writes, and the JSON and JSONL readers every input goes through.

A write replaces its file whole: a reader sees the old file or the new one,
never half of one. A read that fails names the file, and for JSONL the line.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from .errors import CascadeCiteError, ContractError, ParseError, ShapeError


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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> str | Path:
    """A CSV file with Unix line ends and minimal quoting, written whole,
    each float by repr so that every bit is kept; returns `path`."""
    with atomic_write(path) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    return path


def write_json(path: str | Path, doc) -> str | Path:
    """`doc` as JSON indented by one space, written whole; returns `path`."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=1))
    return path


def read_json(path: str | Path, error: Callable[[str], CascadeCiteError]):
    """The JSON document in `path`; text that is not JSON raises `error(message)`."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


def read_jsonl(path: str | Path, parse: Callable) -> list:
    """`parse` of each non-blank line's JSON document. A line that is not
    JSON raises ParseError, and a ParseError, ContractError or ShapeError
    from `parse` is raised again as its own type; either way with
    `{path} line N: ` in front of the message."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path} line {lineno}: {exc}") from None
            except (ParseError, ContractError, ShapeError) as exc:
                raise type(exc)(f"{path} line {lineno}: {exc}") from None
    return out
