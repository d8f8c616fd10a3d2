"""Trees -> fixed-shape per-level degree sequences with adoption-time bins.

A schema fixes the level count K, one padded length per level, and the time
bin edges. Encoding a tree lists (degree, bin) for every node of each level,
sorted by degree descending with earlier adopters first on ties, then pads
with (0, bin 0) up to the schema length. Bin 0 is reserved for padding; real
adoption times map to bins 1..L.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .atomic import atomic_write
from .errors import BinRangeError, ParseError, SchemaError, SchemaOverflowError
from .trees import CascadeTree

PAD_BIN = 0


class SeqEntry(NamedTuple):
    degree: int
    bin: int
    is_pad: bool


PAD = SeqEntry(degree=0, bin=PAD_BIN, is_pad=True)  # every padding slot is this one entry


@dataclass(frozen=True)
class EncodingSchema:
    level_lengths: tuple[int, ...]
    bin_count: int
    window_T: int
    bin_edges: tuple[float, ...]  # len bin_count + 1, edges[0] = 0, edges[-1] = window_T

    def __post_init__(self):
        if len(self.level_lengths) < 1:
            raise SchemaError("schema needs at least one level")
        if any(l < 1 for l in self.level_lengths):
            raise SchemaError(f"level lengths must be >= 1, got {self.level_lengths}")
        if self.bin_count < 1:
            raise SchemaError(f"bin_count must be >= 1, got {self.bin_count}")
        if self.window_T < 1:
            raise SchemaError(f"window_T must be >= 1, got {self.window_T}")
        e = self.bin_edges
        if len(e) != self.bin_count + 1:
            raise SchemaError(f"need {self.bin_count + 1} bin edges, got {len(e)}")
        if e[0] != 0.0 or e[-1] != float(self.window_T):
            raise SchemaError(f"bin edges must run from 0 to window_T, got [{e[0]}, {e[-1]}]")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise SchemaError(f"bin edges must increase strictly: {e}")

    @property
    def depth(self) -> int:
        return len(self.level_lengths)

    @property
    def total_length(self) -> int:
        return sum(self.level_lengths)


def uniform_bin_edges(bin_count: int, window_T: int) -> tuple[float, ...]:
    return tuple(l * window_T / bin_count for l in range(bin_count + 1))


def schema_from_corpus(
    trees: Sequence[CascadeTree], bin_count: int, window_T: int
) -> EncodingSchema:
    """Max depth and per-level max width over the corpus, uniform bin edges."""
    if not trees:
        raise SchemaError("cannot build a schema from an empty corpus")
    depth = max(len(t.levels) for t in trees)
    if depth == 0:
        raise SchemaError("corpus holds only root-only trees; no levels to size")
    lengths = [0] * depth
    for t in trees:
        for k, level in enumerate(t.levels):
            lengths[k] = max(lengths[k], len(level))
        worst = max((t.adoption_time[v] for v in t.parent), default=0)
        if worst >= window_T:
            raise SchemaError(
                f"tree {t.root!r} has adoption time {worst} outside window [0, {window_T})"
            )
    return EncodingSchema(
        level_lengths=tuple(lengths),
        bin_count=bin_count,
        window_T=window_T,
        bin_edges=uniform_bin_edges(bin_count, window_T),
    )


def time_bin(t: float, schema: EncodingSchema) -> int:
    """Index l with edge[l-1] <= t < edge[l]; domain is [0, window_T)."""
    if not (0 <= t < schema.window_T):
        raise BinRangeError(f"time {t} outside [0, {schema.window_T})")
    return bisect.bisect_right(schema.bin_edges, t)


def node_degree(tree: CascadeTree, node: str) -> int:
    """Child count plus the parent link; the root has no parent link."""
    c = len(tree.children.get(node, ()))
    return c if node == tree.root else c + 1


def encode_level(
    pairs: Iterable[tuple[int, int]],
    length: int,
    schema: EncodingSchema,
    truncate: bool = False,
) -> tuple[SeqEntry, ...]:
    """Sort (degree, adoption_time) pairs and pad to the schema length.

    Descending degree, earlier adopters first on ties. Overlong levels raise
    unless truncate, which keeps the `length` largest-degree entries.
    """
    ordered = sorted(pairs, key=lambda p: (-p[0], p[1]))
    if len(ordered) > length:
        if not truncate:
            raise SchemaOverflowError(
                f"level holds {len(ordered)} nodes but schema allows {length}"
            )
        ordered = ordered[:length]
    entries = tuple(SeqEntry(d, time_bin(t, schema), False) for d, t in ordered)
    return entries + (PAD,) * (length - len(entries))


@dataclass(frozen=True)
class DegreeSequence:
    levels: tuple[tuple[SeqEntry, ...], ...]


def fits_schema(tree: CascadeTree, schema: EncodingSchema) -> bool:
    if len(tree.levels) > schema.depth:
        return False
    return all(len(lvl) <= schema.level_lengths[k] for k, lvl in enumerate(tree.levels))


def encode(tree: CascadeTree, schema: EncodingSchema, truncate: bool = False) -> DegreeSequence:
    """Per-level sorted, padded (degree, bin) sequences for one tree.

    Levels past the tree's depth come out as all padding. Trees wider or
    deeper than the schema raise unless truncate, which drops the extra
    lowest-degree nodes per level and any levels past the schema depth.
    """
    if len(tree.levels) > schema.depth and not truncate:
        raise SchemaOverflowError(
            f"tree depth {len(tree.levels)} exceeds schema depth {schema.depth}"
        )
    out = []
    for k in range(schema.depth):
        nodes = tree.levels[k] if k < len(tree.levels) else ()
        pairs = [(node_degree(tree, v), tree.adoption_time[v]) for v in nodes]
        out.append(encode_level(pairs, schema.level_lengths[k], schema, truncate=truncate))
    return DegreeSequence(levels=tuple(out))


# ------------------------------------------------------------- serialization


@dataclass(frozen=True)
class EncodedSample:
    id: str
    seq: DegreeSequence
    growth: int | None


def pad_fractions(samples: Sequence[EncodedSample], schema: EncodingSchema) -> list[float]:
    """Share of each level's slots that hold padding, over the samples."""
    pads = [0] * schema.depth
    for s in samples:
        for k, lvl in enumerate(s.seq.levels):
            pads[k] += lvl.count(PAD)
    return [p / (n * len(samples)) if samples else 0.0 for p, n in zip(pads, schema.level_lengths)]


def schema_to_dict(schema: EncodingSchema) -> dict:
    return {
        "level_lengths": list(schema.level_lengths),
        "bin_count": schema.bin_count,
        "window_T": schema.window_T,
        "bin_edges": list(schema.bin_edges),
    }


def schema_from_dict(doc: dict) -> EncodingSchema:
    try:
        return EncodingSchema(
            level_lengths=tuple(int(x) for x in doc["level_lengths"]),
            bin_count=int(doc["bin_count"]),
            window_T=int(doc["window_T"]),
            bin_edges=tuple(float(x) for x in doc["bin_edges"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad schema record: {exc}") from None


def save_schema(path: str | Path, schema: EncodingSchema) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(schema_to_dict(schema), indent=1))


def load_schema(path: str | Path) -> EncodingSchema:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    try:
        return schema_from_dict(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _slot(pair) -> SeqEntry:
    """[0, 0] is the pad; any other slot is two integers, both >= 1."""
    if isinstance(pair, list) and len(pair) == 2:
        degree, b = pair
        if type(degree) is int and type(b) is int:  # not bool, float or str
            if degree == 0 and b == PAD_BIN:
                return PAD
            if degree >= 1 and b >= 1:
                return SeqEntry(degree=degree, bin=b, is_pad=False)
    raise ParseError(f"slot {pair!r} is neither [0, 0] nor a [degree, bin] pair of integers >= 1")


def sample_from_dict(doc: dict) -> EncodedSample:
    try:
        levels = tuple(tuple(_slot(e) for e in lvl) for lvl in doc["levels"])
        growth = doc.get("label")
        return EncodedSample(
            id=doc["id"], seq=DegreeSequence(levels=levels),
            growth=None if growth is None else int(growth),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad encoded record: {exc}") from None


class _SlotTexts(dict):
    """Slot entry -> its JSON text, filled on first use."""

    def __missing__(self, entry: SeqEntry) -> str:
        text = self[entry] = json.dumps([entry.degree, entry.bin], separators=(",", ":"))
        return text


def write_encoded_jsonl(path: str | Path, samples: Iterable[EncodedSample]) -> int:
    """One compact JSON record per tree: {"id", "levels", "label"}, where a
    level is a list of [degree, bin] slots. A file repeats few distinct
    slots (every pad is the same one), so each slot's text is made once."""
    slot = _SlotTexts().__getitem__
    count = 0
    with atomic_write(path) as fh:
        for s in samples:
            levels = ",".join("[" + ",".join(map(slot, lvl)) + "]" for lvl in s.seq.levels)
            fh.write(f'{{"id":{json.dumps(s.id)},"levels":[{levels}],"label":{json.dumps(s.growth)}}}\n')
            count += 1
    return count


def read_encoded_jsonl(path: str | Path) -> list[EncodedSample]:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(sample_from_dict(json.loads(line)))
            except (json.JSONDecodeError, ParseError) as exc:
                raise ParseError(f"{path} line {lineno}: {exc}") from None
    return out
