"""Raw citation logs -> windowed citation cascades with growth labels.

A cascade is rooted at one cited paper. Its members are the papers citing
the root within the observation window of window_T days after the root's
publication; intra-cascade edges are citations among members, so every
member keeps a list of parent candidates (the members it cites, always
including the root). The growth label counts citers arriving strictly after
the window, up to the prediction horizon (or end-of-data).

All times are integer days. A citing paper's event time is its publication
date, measured from the corpus epoch (earliest date on file).
"""

from __future__ import annotations

import datetime as _dt
import logging
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str, in C
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .atomic import atomic_write, read_jsonl
from .config import DEFAULTS, MAX_WINDOW_DAYS
from .errors import (
    ConfigError,
    ContractError,
    MalformedCascadeError,
    ParseError,
    SplitError,
    StatsError,
    TimeViolationError,
)
from .trees import to_tree

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Citations:
    day: dict[str, int]  # paper -> days since the corpus epoch (earliest date on file)
    citing: list[str]    # one row per kept edge line
    cited: list[str]

    def __len__(self) -> int:
        return len(self.citing)


class CascadeNode(NamedTuple):
    id: str
    time: int  # days since the root's publication
    parents: tuple[str, ...]  # candidate parents, adopted strictly earlier; root first, never empty


@dataclass(frozen=True)
class Cascade:
    root: str
    root_time: int  # days since corpus epoch
    window_T: int
    nodes: tuple[CascadeNode, ...]  # sorted by (time, id); root not included
    growth: int | None = None  # citers after the window, the label; None: unlabeled


_node = partial(tuple.__new__, CascadeNode)  # built in C
_MAX_HORIZON = 2**63  # its last day, 2**63 - 1, is the largest int64


# ------------------------------------------------------------------- parsing


def _parse_dates(dates: str | Path) -> tuple[dict[str, _dt.date], int]:
    """Paper id -> date, and how many lines repeated an id already seen;
    a repeated id keeps the earliest of its dates."""
    out: dict[str, _dt.date] = {}
    repeats = 0
    with open(dates) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"dates line {lineno}: expected 'id<TAB>YYYY-MM-DD', got {line!r}")
            pid, datestr = parts[0].strip(), parts[1].strip()
            try:
                d = _dt.date.fromisoformat(datestr)
            except ValueError:
                raise ParseError(f"dates line {lineno}: bad date {datestr!r}") from None
            seen = out.get(pid)
            if seen is not None:
                repeats += 1
                if seen <= d:
                    continue
            out[pid] = d
    return out, repeats


def parse_citation_files(edges: str | Path, dates: str | Path, tally: dict | None = None) -> Citations:
    """Read tab-separated edge and date files into each paper's day and one
    row per dated citation.

    Lines starting with '#' are comments. Edges whose citing paper has no
    date, and self-citations, are dropped and counted in the warning tally.
    An id listed twice in the dates file keeps its earliest date; the
    repeats are counted as duplicate_dates. The dates file is each paper's
    only date, so cascade roots are dated even when they cite nothing.
    """
    date_by_paper, duplicate_dates = _parse_dates(dates)
    if not date_by_paper:
        raise ParseError("dates file holds no dates")
    epoch = min(date_by_paper.values())
    day_of = {pid: (d - epoch).days for pid, d in date_by_paper.items()}

    undated = 0
    self_loops = 0
    table = Citations(day_of, [], [])
    with open(edges) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            try:  # a stripped line with one tab has text on both sides of it
                citing, cited = line.split("\t")
            except ValueError:
                raise ParseError(f"edges line {lineno}: expected 'citing<TAB>cited', got {line!r}") from None
            citing, cited = sys.intern(citing.rstrip()), sys.intern(cited.lstrip())  # one object per id
            if citing == cited:
                self_loops += 1
                continue
            if citing not in day_of:
                undated += 1
                continue
            table.citing.append(citing)
            table.cited.append(cited)

    if undated or self_loops:
        log.warning("dropped %d undated-citer edges and %d self-citations", undated, self_loops)
    if duplicate_dates:
        log.warning("%d repeated ids in the dates file; each keeps its earliest date", duplicate_dates)
    if tally is not None:
        tally["undated_citer_edges"] = undated
        tally["self_citations"] = self_loops
        tally["duplicate_dates"] = duplicate_dates
        tally["events"] = len(table)
    return table


# ------------------------------------------------------------ cascade build


def _candidate_rows(paper, cascade, at, citer, cited, paper_date) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (i, j) member rows, j a parent candidate of i: cited by i, in its cascade, adopted before it."""
    n_papers, dated = len(paper_date), ~np.isnan(paper_date)
    low = int(paper_date[dated].min(initial=0)) - 1  # no root is dated earlier
    day = np.where(dated, paper_date, low).astype(np.int64) - low  # undated: never after a root
    span = int(day.max(initial=0)) + 1
    rank = (citer * span + day[cited]) * n_papers + cited  # in this order, i's candidates are one run
    order = np.argsort(rank)
    rank, cited = rank[order], cited[order]
    start = np.searchsorted(rank, (paper * span + day[paper] - at + 1) * n_papers)  # after the root
    n = np.searchsorted(rank, (paper * span + day[paper]) * n_papers) - start  # and before i
    by_key = np.argsort(cascade * n_papers + paper)  # one key per member
    key, found = (cascade * n_papers + paper)[by_key], []
    for rows in np.array_split(np.arange(len(paper)), len(paper) // 1024 + 1):  # bounds the temporaries
        m = n[rows]
        i = np.repeat(rows, m)
        wanted = cascade[i] * n_papers + cited[np.arange(len(i)) + np.repeat(start[rows] - np.cumsum(m) + m, m)]
        pos = np.minimum(np.searchsorted(key, wanted), len(key) - 1)
        hit = key[pos] == wanted
        found.append((i[hit], by_key[pos[hit]]))
    return tuple(map(np.concatenate, zip(*found)))


def build_cascades(
    citations: Citations,
    window_T: int,
    horizon: int | None = None,
    min_observed: int = DEFAULTS["min_observed"],
    tally: dict | None = None,
) -> list[Cascade]:
    """Group citations into per-root cascades and label future growth.

    horizon is the growth bracket width in days (growth counts citers with
    window_T < t <= window_T + horizon relative to the root); None means
    end-of-data. A citation's time is its citer's day; a citer with no day
    raises. Roots with no day get their window anchored one day before
    their first citation, so the first citer still adopts strictly after
    the root. A repeated citation counts once and is tallied in
    duplicate_edges. Everything is computed on integer columns, one row per
    distinct (root, citer) pair; only the node records are built one by one.
    """
    if window_T < 1:
        raise ConfigError(f"window_T must be >= 1 day, got {window_T}")
    if horizon is not None and horizon < 1:
        raise ConfigError(f"horizon must be >= 1 day or None, got {horizon}")
    if min_observed < 0:
        raise ConfigError(f"min_observed must be >= 0, got {min_observed}")

    # papers as integers, numbered in id order
    ids = sorted({*citations.citing, *citations.cited})
    index = {pid: i for i, pid in enumerate(ids)}.__getitem__
    src = np.fromiter(map(index, citations.citing), np.int64, len(citations))
    dst = np.fromiter(map(index, citations.cited), np.int64, len(citations))
    date_of = np.fromiter(map(citations.day.get, ids, repeat(np.nan)), float, len(ids))
    no_day = np.isnan(date_of[src])
    if no_day.any():
        raise MalformedCascadeError(f"citing paper {ids[src[no_day.argmax()]]!r} has no date")
    names = np.array(ids, dtype=object)

    # one row per distinct (root, citer) pair, sorted by root then citer
    key = np.sort(dst * len(ids) + src)  # np.unique without indices would import numpy.ma (~1 MB)
    key = key[np.diff(key, prepend=-1) != 0]
    root, citer = np.divmod(key, len(ids))
    t = date_of[citer].astype(np.int64)
    is_start = np.diff(root, prepend=-1) != 0
    starts, group = np.flatnonzero(is_start), np.cumsum(is_start) - 1
    roots = root[starts]
    root_time = date_of[roots]
    undated = np.isnan(root_time)
    root_time = np.where(undated, np.minimum.reduceat(t, starts) - 1, root_time).astype(np.int64)
    r = t - root_time[group]  # days after root publication
    member = (r >= 1) & (r < window_T)
    late = r > window_T  # r == window_T falls in neither the window nor the growth bracket
    if horizon is not None:
        late &= r <= window_T + horizon
    observed = np.bincount(group[member], minlength=len(roots))
    growth = np.bincount(group[late], minlength=len(roots))
    keep = observed >= min_observed
    rows = np.flatnonzero(member & keep[group])
    rows = rows[np.lexsort((citer[rows], r[rows], group[rows]))]  # (root, time, id)
    paper, at, cascade_of = citer[rows], r[rows], group[rows]  # one per member
    duplicate_edges, dropped_not_after_root = len(citations) - len(key), int((r < 1).sum())
    kept = zip(*(col[keep].tolist() for col in (names[roots], root_time, observed, growth)))
    # free the per-edge columns before the join and the node records
    del src, dst, key, t, group, r, member, late, rows

    i, j = _candidate_rows(paper, cascade_of, at, citer, root, date_of)
    # each member's parents end to end: its root (cited by all, adopted at 0), then its candidates
    first = np.searchsorted(i, np.arange(len(paper)))
    parent_ids = tuple(names[np.insert(paper[j], first, roots[cascade_of])].tolist())
    bounds = [*(first + np.arange(len(paper))).tolist(), len(parent_ids)]
    parents = [parent_ids[a:b] for a, b in zip(bounds, bounds[1:])]
    nodes = list(map(_node, zip(names[paper].tolist(), at.tolist(), parents)))
    out: list[Cascade] = []
    lo = 0
    for root_id, root_day, n_obs, n_growth in kept:
        out.append(Cascade(root=root_id, root_time=root_day, window_T=window_T,
                           nodes=tuple(nodes[lo:lo + n_obs]), growth=n_growth))
        lo += n_obs

    anchored = int(undated.sum())
    if anchored or dropped_not_after_root:
        log.warning(
            "%d roots anchored at first citation minus one day; %d citers at or before root date dropped",
            anchored, dropped_not_after_root,
        )
    if tally is not None:
        tally["duplicate_edges"] = duplicate_edges
        tally["roots_anchored_without_date"] = anchored
        tally["citers_not_after_root"] = dropped_not_after_root
        tally["roots_below_min_observed"] = int(len(roots) - keep.sum())
        tally["cascades"] = len(out)
    return out


def split_dataset(
    items: Sequence, seed: int
) -> tuple[list, list, list]:
    """Seeded shuffle into 70/15/15; the odd leftover goes to validation."""
    n = len(items)
    if n < 3:
        raise SplitError(f"need at least 3 cascades to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = (7 * n) // 10
    rest = n - n_train
    n_val = (rest + 1) // 2
    shuffled = [items[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


# ------------------------------------------------------------------- stats


@dataclass(frozen=True)
class CorpusStats:
    cascade_count: int
    avg_path_length: float
    avg_popularity: float
    avg_degree: float
    avg_edges: float
    avg_leaf_count: float


def compute_stats(trees: Sequence) -> CorpusStats:
    """Corpus means of each tree's shape (see `CascadeTree.shape`).

    avg_popularity is the mean tree edge count; avg_edges reports the mean
    candidate-edge count of the cascades the trees came from.
    """
    if not trees:
        raise StatsError("no trees to summarize")
    edges, _, paths, leaves, degrees = zip(*(t.shape for t in trees))
    return CorpusStats(
        cascade_count=len(trees),
        avg_path_length=float(np.mean(paths)),
        avg_popularity=float(np.mean(edges)),
        avg_degree=float(np.mean(degrees)),
        avg_edges=float(np.mean([t.source_edges for t in trees])),
        avg_leaf_count=float(np.mean(leaves)),
    )


# --------------------------------------------------------------- synthetic


def _attach(uniforms: np.ndarray, bias: float) -> np.ndarray:
    """Attachment targets: row r's node j attaches to targets[r, j - 1],
    drawn by uniforms[r, j - 1]. Each step is `choice(j, p=w / w.sum())`
    for every row at once: the same cdf, and the count of its entries <= u,
    which is where searchsorted(..., "right") puts u. Rows never mix, so a
    cascade with no node j steps on with a padding uniform, and those
    targets are never read. Sizes are drawn uniformly, so the padded steps
    add at most about twice the work the real ones do."""
    count = np.zeros((len(uniforms), uniforms.shape[1] + 1))  # children per node
    targets = np.zeros(uniforms.shape, np.int64)
    rows = np.arange(len(uniforms))
    for j in range(1, uniforms.shape[1] + 1):
        w = count[:, :j] + bias
        cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        t = targets[:, j - 1] = np.count_nonzero(cdf <= uniforms[:, j - 1, None], axis=1)
        count[rows, t] += 1
    return targets


def generate_synthetic(
    n_cascades: int,
    size_range: tuple[int, int],
    time_horizon: int,
    attachment_bias: float,
    seed: int,
    *,
    window_T: int | None = None,
) -> list[Cascade]:
    """Preferential-attachment cascades with increasing integer-day times.

    Each cascade draws its total size n from size_range (inclusive, root
    included), then attaches node after node to an existing node with
    probability proportional to (child count + attachment_bias). Every node
    also cites the root, mirroring how real cascades are membership-defined.
    Nodes adopting before window_T are the observed cascade; the rest are
    counted in the growth label (window_T itself is never drawn, so sizes
    always reconcile). Same seed, same corpus, byte for byte.

    The draws, per cascade and in cascade order: one `integers` call for n,
    one `choice` of n - 1 distinct times, then `random(n - 1)`, one uniform
    per attached node. Node j attaches to the first node k whose entry in
    the normalized cdf of (child count + attachment_bias) over nodes 0..j-1
    exceeds node j's uniform. The attachment steps run for a block of
    cascades at once.
    """
    lo, hi = size_range
    if n_cascades < 1:
        raise ConfigError(f"n_cascades must be >= 1, got {n_cascades}")
    if lo < 2 or hi < lo:
        raise ConfigError(f"size_range must satisfy 2 <= lo <= hi, got {size_range}")
    if time_horizon < hi + 2:
        raise ConfigError(
            f"time_horizon {time_horizon} too small for size_range {size_range}; need >= {hi + 2}"
        )
    if attachment_bias <= 0:
        raise ConfigError(f"attachment_bias must be > 0, got {attachment_bias}")
    if window_T is None:
        window_T = time_horizon // 2
    if not (1 <= window_T <= time_horizon):
        raise ConfigError(f"window_T must lie in [1, time_horizon], got {window_T}")
    if time_horizon > _MAX_HORIZON:
        raise ConfigError(f"time_horizon {time_horizon} exceeds {_MAX_HORIZON}, the most days NumPy can draw from")

    rng = np.random.default_rng(seed)
    pool_size = time_horizon - 1 - (window_T < time_horizon)  # the days in [1, time_horizon) but window_T
    block = max(1, min(4096, (1 << 20) // hi))  # bounds the (block, hi) temporaries
    out: list[Cascade] = []
    for first in range(0, n_cascades, block):
        cis = range(first, min(first + block, n_cascades))
        sizes, times = [], []
        uniforms = np.zeros((len(cis), hi - 1))
        for r in range(len(cis)):  # the random stream, in cascade order
            n = int(rng.integers(lo, hi + 1))
            sizes.append(n)
            days = rng.choice(pool_size, size=n - 1, replace=False) + 1  # index i: day i + 1, then
            days += days >= window_T  # one more from window_T on
            times.append(np.sort(days).tolist())
            uniforms[r, : n - 1] = rng.random(n - 1)
        targets = _attach(uniforms, attachment_bias).tolist()
        for ci, n, t, target in zip(cis, sizes, times, targets):
            root = f"s{ci:05d}"
            observed = bisect_left(t, window_T)  # times ascend
            ids = [root, *(f"{root}n{j:03d}" for j in range(1, observed + 1))]
            parents = [(root,) if k == 0 else (root, ids[k]) for k in target[:observed]]
            out.append(Cascade(root=root, root_time=0, window_T=window_T,
                               nodes=tuple(map(_node, zip(ids[1:], t, parents))), growth=n - 1 - observed))
    return out


# -------------------------------------------------------------------- jsonl


def _expect(value, kind: type, what: str):
    if type(value) is not kind:  # exactly: a bool is no int
        raise ParseError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def _name_bad_value(rows) -> None:
    """Raise ParseError naming the first node id, time, parent list or
    candidate whose JSON type is wrong; return when there is none."""
    for pid, t, ps in rows:
        _expect(pid, str, "node id")
        _expect(t, int, f"node {pid!r} time")
        for p in _expect(ps, list, f"node {pid!r} parents"):
            _expect(p, str, f"node {pid!r} parent id")


def cascade_from_dict(doc: dict) -> Cascade:
    """Ids must be JSON strings, times and counts JSON integers, parents
    lists. Every node time lies in [1, window_T), the record holds what
    `to_tree` takes, and a label's observed count is the node count and its
    growth is not negative. Each check reads whole columns, and names the
    bad value only on failure."""
    try:
        rows = list(map(itemgetter("id", "t", "parents"), _expect(doc["nodes"], list, "nodes")))
        ids, times, parents = zip(*rows) if rows else ((), (), ())
        if not ({*map(type, ids)} <= {str} and {*map(type, times)} <= {int} and {*map(type, parents)} <= {list}):
            _name_bad_value(rows)
        if [] in parents:
            raise ContractError(f"node {ids[parents.index([])]!r} has no parent candidates")
        root = _expect(doc["root"], str, "root")
        root_time = _expect(doc["root_time"], int, "root_time")
        window = _expect(doc["window_T"], int, "window_T")
        nodes = tuple(map(_node, zip(ids, times, map(tuple, parents))))
        if not 1 <= window <= MAX_WINDOW_DAYS:
            raise ParseError(f"window_T {window} lies outside [1, {MAX_WINDOW_DAYS}]")
        if times and (min(times) < 1 or max(times) >= window):
            pid, t = next((pid, t) for pid, t in zip(ids, times) if not 1 <= t < window)
            raise ParseError(f"node {pid!r} time {t} lies outside [1, {window})")
        # distinct ids, and each candidate the root or an earlier node; an
        # unknown candidate reads as window_T, later than every node
        time_of = dict(zip(ids, times))
        time_of[root] = 0
        get = time_of.get
        try:
            ok = len(time_of) > len(ids) and all([get(p, window) < t for t, ps in zip(times, parents) for p in ps])
        except TypeError:  # a candidate that is a list or an object
            ok = False
        if not ok:
            _name_bad_value(rows)
            try:  # the fault that to_tree meets first
                to_tree(Cascade(root=root, root_time=root_time, window_T=window, nodes=nodes))
            except (MalformedCascadeError, TimeViolationError) as exc:
                raise ParseError(str(exc)) from None
        raw = doc.get("label")
        growth = None
        if raw is not None:
            observed = _expect(_expect(raw, dict, "label")["observed"], int, "label observed")
            growth = _expect(raw["growth"], int, "label growth")
            if growth < 0:
                raise ParseError(f"label growth must be >= 0, got {growth}")
            if observed != len(ids):
                raise ParseError(f"label observed {observed} is not the node count {len(ids)}")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad cascade record: {exc}") from None
    return Cascade(root=root, root_time=root_time, window_T=window, nodes=nodes, growth=growth)


def write_cascades_jsonl(path: str | Path, cascades: Iterable[Cascade]) -> int:
    """One compact JSON record per cascade: {"root", "root_time", "window_T",
    "nodes": [{"id", "t", "parents"}], "label": {"observed", "growth"} or null},
    byte for byte as json.dumps gives it with separators (",", ":"). The
    observed count is the node count."""
    count = 0
    with atomic_write(path) as fh:
        for c in cascades:
            nodes = ",".join(
                f'{{"id":{_quote(nid)},"t":{t},"parents":[{",".join(map(_quote, parents))}]}}'
                for nid, t, parents in c.nodes
            )
            label = "null" if c.growth is None else f'{{"observed":{len(c.nodes)},"growth":{c.growth}}}'
            fh.write(
                f'{{"root":{_quote(c.root)},"root_time":{c.root_time},"window_T":{c.window_T},'
                f'"nodes":[{nodes}],"label":{label}}}\n'
            )
            count += 1
    return count


def read_cascades_jsonl(path: str | Path) -> list[Cascade]:
    return read_jsonl(path, cascade_from_dict)
