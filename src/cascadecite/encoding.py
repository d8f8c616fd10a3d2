"""Trees -> fixed-shape per-level degree sequences with adoption-time bins.

A schema fixes the level count K, one padded length per level, and the time
bin edges. Encoding a tree lists (degree, bin) for every node of each level,
sorted by degree descending with earlier adopters first on ties, then pads
with (0, bin 0) up to the schema length. Bin 0 is reserved for padding; real
adoption times map to bins 1..L. Most slots are padding, so every pad tail
and empty level is one shared run of the one `PAD` entry, `pad_run(n)`.
Only this module reads slots: the rest of the package takes the (degrees,
bins) matrices of `stack_sequences` and the per-level `real_counts`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str, in C
from math import isfinite
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .atomic import atomic_write, read_json, read_jsonl, write_json
from .errors import BinRangeError, ContractError, ParseError, SchemaError, ShapeError
from .trees import CascadeTree

PAD_BIN = 0


class SeqEntry(NamedTuple):
    degree: int
    bin: int
    is_pad: bool


PAD = SeqEntry(degree=0, bin=PAD_BIN, is_pad=True)  # every padding slot is this one entry
_entry = cache(lambda d, b: tuple.__new__(SeqEntry, (d, b, False)))  # one real entry per (degree, bin)
pad_run = cache(lambda n: (PAD,) * n)  # the one tuple of n PADs
_pad_text = cache(lambda n: ",".join(["[0,0]"] * n))  # the text of n PADs


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
    if bin_count < 1:
        raise SchemaError(f"bin_count must be >= 1, got {bin_count}")
    return tuple(l * window_T / bin_count for l in range(bin_count + 1))


def schema_from_corpus(
    trees: Sequence[CascadeTree], bin_count: int, window_T: int
) -> EncodingSchema:
    """Max depth and per-level max width over the corpus, uniform bin edges.
    Adoption times are whole days, so there are at most window_T bins; the
    times themselves are checked where `encode` bins them."""
    if not trees:
        raise SchemaError("cannot build a schema from an empty corpus")
    if bin_count > window_T:
        raise SchemaError(f"bin_count {bin_count} exceeds the {window_T}-day window; bins are at least a day wide")
    depth = max(len(t.levels) for t in trees)
    if depth == 0:
        raise SchemaError("corpus holds only root-only trees; no levels to size")
    lengths = [0] * depth
    for t in trees:
        for k, level in enumerate(t.levels):
            lengths[k] = max(lengths[k], len(level))
    return EncodingSchema(
        level_lengths=tuple(lengths),
        bin_count=bin_count,
        window_T=window_T,
        bin_edges=uniform_bin_edges(bin_count, window_T),
    )


def _time_bins(times: list[float], schema: EncodingSchema) -> list[int]:
    """Per time, the index l with edge[l-1] <= t < edge[l]; domain is [0, window_T)."""
    bins = list(map(partial(bisect_right, schema.bin_edges), times))  # 0 or L+1 outside [0, T)
    if PAD_BIN in bins or schema.bin_count + 1 in bins:
        t = next(t for t, b in zip(times, bins) if b in (PAD_BIN, schema.bin_count + 1))
        raise BinRangeError(f"time {t} outside [0, {schema.window_T})")
    return bins


def encode_level(
    pairs: Iterable[tuple[int, int]],
    length: int,
    schema: EncodingSchema,
) -> tuple[SeqEntry, ...]:
    """Sort (degree, adoption_time) pairs, keep the first `length` and pad to it.

    Descending degree, earlier adopters first on ties; an overlong level
    loses its lowest-degree, latest-adopted entries.
    """
    keys = sorted([(-d, t) for d, t in pairs])[:length]
    bins = _time_bins([t for _, t in keys], schema)
    return tuple([_entry(-nd, b) for (nd, _), b in zip(keys, bins)]) + pad_run(length - len(keys))


@dataclass(frozen=True)
class DegreeSequence:
    levels: tuple[tuple[SeqEntry, ...], ...]


def fits_schema(tree: CascadeTree, schema: EncodingSchema) -> bool:
    if len(tree.levels) > schema.depth:
        return False
    return all(len(lvl) <= schema.level_lengths[k] for k, lvl in enumerate(tree.levels))


def encode(tree: CascadeTree, schema: EncodingSchema) -> DegreeSequence:
    """Per-level sorted, padded (degree, bin) sequences for one tree.

    Levels past the tree's depth come out as all padding. A tree wider or
    deeper than the schema is fitted to it: each level keeps its `length`
    largest-degree nodes, levels past the schema depth go, and only the kept
    nodes' times are binned. `fits_schema` tells whether anything is cut.
    """
    kids, times = Counter(tree.parent.values()).get, tree.adoption_time  # degree: children + parent link (never the root)
    out = [encode_level([(kids(v, 0) + 1, times[v]) for v in nodes], length, schema)
           for nodes, length in zip(tree.levels, schema.level_lengths)]
    out += map(pad_run, schema.level_lengths[len(out):])
    return DegreeSequence(levels=tuple(out))


# ------------------------------------------------------------- serialization


@dataclass(frozen=True)
class EncodedSample:
    id: str
    seq: DegreeSequence
    growth: int | None


def real_counts(seq: DegreeSequence) -> list[int]:
    """Per level, how many of its slots hold a node rather than padding."""
    return [len(lvl) - lvl.count(PAD) for lvl in seq.levels]


def pad_fractions(samples: Sequence[EncodedSample], schema: EncodingSchema) -> list[float]:
    """Share of each level's slots that hold padding, over the samples."""
    if not samples:
        return [0.0] * schema.depth
    real = map(sum, zip(*[real_counts(s.seq) for s in samples]))  # per level, over the samples
    return [(n * len(samples) - r) / (n * len(samples)) for r, n in zip(real, schema.level_lengths)]


def _check_shape(levels: tuple, level_lengths: Sequence[int]) -> None:
    if len(levels) != len(level_lengths):
        raise ShapeError(f"sequence has {len(levels)} levels, schema wants {len(level_lengths)}")
    for k, (lvl, length) in enumerate(zip(levels, level_lengths), 1):
        if len(lvl) != length:
            raise ShapeError(f"level {k} holds {len(lvl)} entries, schema wants {length}")


def stack_sequences(seqs: Sequence[DegreeSequence], level_lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into a (degrees, bins) pair of (N, total_length)
    matrices, float64 and int64, each row its levels side by side."""
    if not seqs:
        raise ContractError("no sequences to stack")
    for s in seqs:
        _check_shape(s.levels, level_lengths)
    degrees = np.array([[e.degree for lvl in s.levels for e in lvl] for s in seqs], dtype=np.float64)
    bins = np.array([[e.bin for lvl in s.levels for e in lvl] for s in seqs], dtype=np.int64)
    return degrees, bins


def schema_to_dict(schema: EncodingSchema) -> dict:
    return {
        "level_lengths": list(schema.level_lengths),
        "bin_count": schema.bin_count,
        "window_T": schema.window_T,
        "bin_edges": list(schema.bin_edges),
    }


def schema_from_dict(doc: dict) -> EncodingSchema:
    """Lengths, bin count and window must be JSON integers (a bool is none), the edges finite numbers."""
    try:
        lengths, bins, window, edges = (doc[k] for k in ("level_lengths", "bin_count", "window_T", "bin_edges"))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad schema record: {exc}") from None
    for key, ok, kind in (
        ("level_lengths", type(lengths) is list and {*map(type, lengths)} <= {int}, "a list of integers"),
        ("bin_count", type(bins) is int, "an integer"),
        ("window_T", type(window) is int, "an integer"),
        ("bin_edges", type(edges) is list and {*map(type, edges)} <= {int, float} and all(map(isfinite, edges)),
         "a list of finite numbers"),
    ):
        if not ok:
            raise ParseError(f"schema {key} must be {kind}, got {doc[key]!r}")
    return EncodingSchema(tuple(lengths), bins, window, tuple(map(float, edges)))


def save_schema(path: str | Path, schema: EncodingSchema) -> str | Path:
    return write_json(path, schema_to_dict(schema))


def load_schema(path: str | Path) -> EncodingSchema:
    """The schema in `path`; any fault in it is a ParseError naming the file."""
    doc = read_json(path, ParseError)
    try:
        return schema_from_dict(doc)
    except (ParseError, SchemaError) as exc:
        raise ParseError(f"{path}: {exc}") from None


_MAX_DEGREE = 2**53  # the largest integer that float64 holds exactly


def _slot(pair, bin_count: int) -> SeqEntry:
    """[0, 0] is the pad; any other slot is a degree in [1, 2**53] and a bin
    in [1, bin_count], the ones the model's stacked input can take."""
    if isinstance(pair, list) and len(pair) == 2:
        degree, b = pair
        if type(degree) is int and type(b) is int:  # not bool, float or str
            if degree == 0 and b == PAD_BIN:
                return PAD
            if 1 <= degree <= _MAX_DEGREE and 1 <= b <= bin_count:
                return _entry(degree, b)
    raise ParseError(
        f"slot {pair!r} is neither [0, 0] nor a [degree, bin] pair of integers"
        f" with 1 <= degree <= 2**53 and 1 <= bin <= {bin_count}"
    )


def sample_from_dict(doc: dict, schema: EncodingSchema) -> EncodedSample:
    bin_count = schema.bin_count
    try:
        levels = tuple(tuple(_slot(e, bin_count) for e in lvl) for lvl in doc["levels"])
        sid, growth = doc["id"], doc.get("label")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad encoded record: {exc}") from None
    if type(sid) is not str or not (growth is None or type(growth) is int and growth >= 0):
        raise ParseError(f"need a string id and a label >= 0 or null, got {sid!r} and {growth!r}")
    _check_shape(levels, schema.level_lengths)
    return EncodedSample(id=sid, seq=DegreeSequence(levels=levels), growth=growth)


class _SlotTexts(dict):
    """Slot entry -> its JSON text, filled on first use."""

    def __missing__(self, entry: SeqEntry) -> str:
        text = self[entry] = json.dumps([entry.degree, entry.bin], separators=(",", ":"))
        return text


def write_encoded_jsonl(path: str | Path, samples: Iterable[EncodedSample]) -> int:
    """One compact JSON record per tree: {"id", "levels", "label"}, where a
    level is a list of [degree, bin] slots. A file repeats few distinct slots,
    so each slot's text is made once, and a pad tail is one text per length."""
    slot = _SlotTexts().__getitem__

    def level_text(lvl: tuple[SeqEntry, ...]) -> str:
        if lvl is pad_run(len(lvl)):  # the shared all-pad run
            return f"[{_pad_text(len(lvl))}]"
        n_real = len(lvl) - lvl.count(PAD)
        if n_real == len(lvl) or PAD in lvl[:n_real]:  # no pads, or one before a real slot (as read back)
            return f"[{','.join(map(slot, lvl))}]"
        return f"[{','.join([*map(slot, lvl[:n_real]), _pad_text(len(lvl) - n_real)])}]"

    count = 0
    with atomic_write(path) as fh:
        for s in samples:
            levels = ",".join(map(level_text, s.seq.levels))
            label = "null" if s.growth is None else s.growth
            fh.write(f'{{"id":{_quote(s.id)},"levels":[{levels}],"label":{label}}}\n')
            count += 1
    return count


def read_encoded_jsonl(path: str | Path, schema: EncodingSchema) -> list[EncodedSample]:
    """The samples in `path`, each id once; a row whose levels do not fit
    `schema` is a ShapeError, and a slot the model cannot take (see `_slot`)
    or a repeated id a ParseError."""
    samples = read_jsonl(path, partial(sample_from_dict, schema=schema))
    if len({s.id for s in samples}) < len(samples):
        sid = next(i for i, n in Counter(s.id for s in samples).items() if n > 1)
        raise ParseError(f"{path} holds encoded id {sid!r} more than once")
    return samples
