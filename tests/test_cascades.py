"""Parsing, cascade building, splitting, stats, and the synthetic generator."""

import dataclasses
import datetime
import json
import logging
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cascadecite import cascades as casc
from cascadecite.cascades import Cascade, CascadeNode, Citations
from cascadecite.cli import main
from cascadecite.errors import (
    ConfigError,
    ContractError,
    MalformedCascadeError,
    ParseError,
    SplitError,
    StatsError,
    TimeViolationError,
)
from cascadecite.trees import to_tree

from oracles import tree_from_parent_rows


# ------------------------------------- reference build, generator and writer
#
# The dict-based build, the per-node generator and the dict-form writer that
# the columnar build, the block-wise generator and the text writer replaced,
# kept as the specification they must reproduce.

log = logging.getLogger("reference")


def reference_build_cascades(
    citations: Citations,
    window_T: int,
    horizon: int | None = None,
    min_observed: int = 10,
    tally: dict | None = None,
) -> list[Cascade]:
    """Group citations into per-root cascades and label future growth.

    horizon is the growth bracket width in days (growth counts citers with
    window_T < t <= window_T + horizon relative to the root); None means
    end-of-data. A citation's time is its citer's day. Roots with no day
    get their window anchored one day before their first citation, so the
    first citer still adopts strictly after the root.
    """
    if window_T < 1:
        raise ConfigError(f"window_T must be >= 1 day, got {window_T}")
    if horizon is not None and horizon < 1:
        raise ConfigError(f"horizon must be >= 1 day or None, got {horizon}")
    if min_observed < 0:
        raise ConfigError(f"min_observed must be >= 0, got {min_observed}")

    date_of = citations.day
    citers_of: dict[str, dict[str, int]] = {}
    cites: dict[str, set[str]] = {}
    for citing, cited in zip(citations.citing, citations.cited):
        citers_of.setdefault(cited, {})[citing] = date_of[citing]
        cites.setdefault(citing, set()).add(cited)

    anchored = 0
    dropped_not_after_root = 0
    filtered_small = 0
    out: list[Cascade] = []
    for root in sorted(citers_of):
        citers = citers_of[root]
        root_time = date_of.get(root)
        if root_time is None:
            root_time = min(citers.values()) - 1
            anchored += 1

        rel = {}  # member -> days after root publication
        growth = 0
        for pid, t in citers.items():
            r = t - root_time
            if r < 1:
                dropped_not_after_root += 1
            elif r < window_T:
                rel[pid] = r
            elif r > window_T and (horizon is None or r <= window_T + horizon):
                growth += 1
            # r == window_T falls in neither the window nor the growth bracket

        if len(rel) < min_observed:
            filtered_small += 1
            continue

        nodes = []
        for pid in sorted(rel, key=lambda p: (rel[p], p)):
            cands = [(0, root)]  # root adopts at 0 and is cited by every member
            for q in cites.get(pid, ()):
                if q in rel and rel[q] < rel[pid]:
                    cands.append((rel[q], q))
            cands.sort()
            nodes.append(CascadeNode(id=pid, time=rel[pid], parents=tuple(c[1] for c in cands)))

        cascade = Cascade(root=root, root_time=root_time, window_T=window_T, nodes=tuple(nodes), growth=growth)
        out.append(cascade)

    if anchored or dropped_not_after_root:
        log.warning(
            "%d roots anchored at first citation minus one day; %d citers at or before root date dropped",
            anchored, dropped_not_after_root,
        )
    if tally is not None:
        tally["roots_anchored_without_date"] = anchored
        tally["citers_not_after_root"] = dropped_not_after_root
        tally["roots_below_min_observed"] = filtered_small
        tally["cascades"] = len(out)
    return out


def cascade_to_dict(cascade: Cascade) -> dict:
    doc = {
        "root": cascade.root,
        "root_time": cascade.root_time,
        "window_T": cascade.window_T,
        "nodes": [{"id": n.id, "t": n.time, "parents": list(n.parents)} for n in cascade.nodes],
    }
    doc["label"] = (
        None if cascade.growth is None else {"observed": len(cascade.nodes), "growth": cascade.growth}
    )
    return doc


def reference_generate_synthetic(
    n_cascades: int,
    size_range: tuple[int, int],
    time_horizon: int,
    attachment_bias: float,
    seed: int,
    *,
    window_T: int | None = None,
) -> list[Cascade]:
    """One cascade after another, one `rng.choice(j, p=...)` per attached node."""
    lo, hi = size_range
    if window_T is None:
        window_T = time_horizon // 2
    rng = np.random.default_rng(seed)
    pool = np.array([t for t in range(1, time_horizon) if t != window_T])
    out: list[Cascade] = []
    for ci in range(n_cascades):
        n = int(rng.integers(lo, hi + 1))
        times = np.sort(rng.choice(pool, size=n - 1, replace=False))
        root = f"s{ci:05d}"
        ids = [root] + [f"{root}n{j:03d}" for j in range(1, n)]
        child_count = np.zeros(n, dtype=np.float64)
        nodes: list[CascadeNode] = []
        observed = 0
        for j in range(1, n):
            weights = child_count[:j] + attachment_bias
            target = int(rng.choice(j, p=weights / weights.sum()))
            child_count[target] += 1
            t = int(times[j - 1])
            if t < window_T:
                parents = (ids[0],) if target == 0 else (ids[0], ids[target])
                nodes.append(CascadeNode(id=ids[j], time=t, parents=parents))
                observed += 1
        cascade = Cascade(root=root, root_time=0, window_T=window_T, nodes=tuple(nodes), growth=n - 1 - observed)
        out.append(cascade)
    return out


# ----------------------------------------------------------------- parsing


def parse(tmp_path, edges, dates, **kw) -> Citations:
    """`parse_citation_files` on these lines, written as an edges and a dates file."""
    for name, lines in (("edges.tsv", edges), ("dates.tsv", dates)):
        (tmp_path / name).write_text("".join(f"{line}\n" for line in lines))
    return casc.parse_citation_files(tmp_path / "edges.tsv", tmp_path / "dates.tsv", **kw)


def test_parse_drops_comments_blanks_and_counts_events(tmp_path):
    dates = ["# header", "", "a\t2000-01-01", "b\t2000-01-11"]
    edges = ["# c cites", "b\ta", "", "a\tz"]
    tally = {}
    table = parse(tmp_path, edges, dates, tally=tally)
    assert table == Citations(day={"a": 0, "b": 10}, citing=["b", "a"], cited=["a", "z"])  # z has no date
    assert len(table) == 2
    assert tally == {"undated_citer_edges": 0, "self_citations": 0, "duplicate_dates": 0, "events": 2}


def test_parse_drops_undated_citers_and_self_citations(tmp_path):
    dates = ["a\t2000-01-01"]
    edges = ["a\ta", "ghost\ta", "a\tb"]
    tally = {}
    table = parse(tmp_path, edges, dates, tally=tally)
    assert table.citing == ["a"]
    assert tally["self_citations"] == 1
    assert tally["undated_citer_edges"] == 1


def test_parse_errors_carry_line_numbers(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        parse(tmp_path, ["a\tb", "broken line"], ["a\t2000-01-01"])
    with pytest.raises(ParseError, match="line 3"):
        parse(tmp_path, ["a\tb"], ["# x", "a\t2000-01-01", "b\t01/02/2000"])
    with pytest.raises(ParseError):
        parse(tmp_path, ["a\tb"], ["# only comments"])


@pytest.mark.parametrize("date", ["20000101", "2000-W01-1"])
def test_dates_are_read_as_yyyy_mm_dd_only(tmp_path, date):
    # from Python 3.11 on, date.fromisoformat alone reads the first two as dates
    with pytest.raises(ParseError, match=f"^dates line 2: bad date '{date}'$"):
        parse(tmp_path, ["a\tb"], ["a\t2000-01-01", f"b\t{date}"])


def test_duplicate_dates_keep_the_earliest_and_are_counted(tmp_path):
    dates = ["a\t2000-03-01", "b\t2000-02-01", "a\t2000-01-01", "a\t2000-05-01"]
    edges = ["a\tx", "b\ta"]
    tally = {}
    table = parse(tmp_path, edges, dates, tally=tally)
    assert tally["duplicate_dates"] == 2
    assert table == Citations(day={"a": 0, "b": 31}, citing=["a", "b"], cited=["x", "a"])
    # the same lines in any order give the same table
    assert parse(tmp_path, edges, dates[::-1]) == table


def test_ingest_report_counts_duplicate_dates(tmp_path):
    edges, dates = tmp_path / "edges.tsv", tmp_path / "dates.tsv"
    edges.write_text("".join(f"c{i}\tr\n" for i in range(3)))
    dates.write_text("r\t2000-01-01\nr\t1999-12-01\n" + "".join(f"c{i}\t2000-02-0{i + 1}\n" for i in range(3)))
    out = tmp_path / "out"
    assert main(["ingest", "--edges", str(edges), "--dates", str(dates), "--out", str(out),
                 "--min-observed", "1"]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["duplicate_dates"] == 1
    c, = casc.read_cascades_jsonl(out / "cascades.jsonl")
    assert [n.time for n in c.nodes] == [62, 63, 64]  # days after 1999-12-01, the earlier date


def test_event_times_are_days_since_earliest_date(tmp_path):
    dates = ["a\t2000-03-01", "b\t2000-02-01", "c\t2000-02-29"]
    table = parse(tmp_path, ["a\tx", "c\tx"], dates)
    assert {pid: table.day[pid] for pid in table.citing} == {"a": 29, "c": 28}


# ----------------------------------------------------------- build_cascades


def citations(day, *edges):
    """A hand-built table: each paper's day, and one row per (citing, cited) edge."""
    return Citations(day=day, citing=[a for a, _ in edges], cited=[b for _, b in edges])


def test_window_membership_and_growth_bracket():
    # root dated at day 0; citers at 10, 200 observed (T=365); 365 lands on
    # the boundary and counts as neither; 366 is growth
    events = citations(
        {"root": 0, "m1": 10, "m2": 200, "edge": 365, "late": 366},
        ("root", "elsewhere"), ("m1", "root"), ("m2", "root"), ("edge", "root"), ("late", "root"),
    )
    cascades = casc.build_cascades(events, window_T=365, min_observed=2)
    roots = {c.root: c for c in cascades}
    c = roots["root"]
    assert [n.id for n in c.nodes] == ["m1", "m2"]
    assert len(c.nodes) == 2
    assert c.growth == 1


def test_growth_is_final_minus_observed():
    day = {"root": 0} | {f"in{i}": 5 + i for i in range(5)} | {f"out{i}": 400 + i for i in range(4)}
    events = citations(day, ("root", "x"), *((pid, "root") for pid in day if pid != "root"))
    (c,) = [p for p in casc.build_cascades(events, window_T=365, min_observed=1) if p.root == "root"]
    assert (len(c.nodes), c.growth) == (5, 4)


def test_finite_horizon_caps_the_growth_bracket():
    events = citations({"root": 0, "a": 1, "b": 20, "c": 21},
                       ("root", "x"), ("a", "root"), ("b", "root"), ("c", "root"))
    build = lambda h: casc.build_cascades(events, window_T=10, horizon=h, min_observed=1)
    c10 = [p for p in build(10) if p.root == "root"][0]
    assert c10.growth == 1  # day 20 is inside (10, 20], day 21 is not
    c11 = [p for p in build(11) if p.root == "root"][0]
    assert c11.growth == 2


def test_undated_root_is_anchored_before_first_citation():
    tally = {}
    events = citations({"a": 50, "b": 60}, ("a", "root"), ("b", "root"))
    cascades = casc.build_cascades(events, window_T=100, min_observed=1, tally=tally)
    c = cascades[0]
    assert c.root_time == 49
    assert [n.time for n in c.nodes] == [1, 11]
    assert tally["roots_anchored_without_date"] == 1


def test_root_that_cites_nothing_is_dated_from_the_dates_file(tmp_path):
    # R cites nothing; anchoring it before its first citation would put it
    # at day 151 and A at day 1
    tally = {}
    events = parse(tmp_path, ["A\tR"], ["R\t2000-01-01", "A\t2000-06-01"], tally=tally)
    c, = casc.build_cascades(events, window_T=365, min_observed=1, tally=tally)
    assert (c.root, c.root_time) == ("R", 0)
    assert [(n.id, n.time) for n in c.nodes] == [("A", 152)]
    assert tally["roots_anchored_without_date"] == 0
    assert tally["events"] + tally["undated_citer_edges"] + tally["self_citations"] == 1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    days=st.lists(st.one_of(st.none(), st.integers(0, 800)), min_size=2, max_size=10),
    links=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
)
def test_dated_roots_keep_their_date_and_only_undated_roots_are_anchored(tmp_path, days, links):
    assume(any(d is not None for d in days))
    base = datetime.date(2000, 1, 1)
    dates = [f"p{i}\t{base + datetime.timedelta(days=d)}" for i, d in enumerate(days) if d is not None]
    edges = [f"p{i}\tp{j}" for i, j in links if i < len(days) and j < len(days)]
    tally = {}
    events = parse(tmp_path, edges, dates, tally=tally)
    cascades = casc.build_cascades(events, window_T=365, min_observed=0, tally=tally)
    epoch = min(d for d in days if d is not None)
    for c in cascades:
        day = days[int(c.root[1:])]
        if day is not None:
            assert c.root_time == day - epoch
    undated = sum(days[int(c.root[1:])] is None for c in cascades)
    assert tally["roots_anchored_without_date"] == undated


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    days=st.lists(st.one_of(st.none(), st.integers(0, 800)), min_size=2, max_size=10),
    links=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
    shift=st.integers(-3000, 3000),
)
def test_shifting_every_date_leaves_the_cascades_unchanged(tmp_path, days, links, shift):
    assume(any(d is not None for d in days))
    edges = [f"p{i}\tp{j}" for i, j in links if i < len(days) and j < len(days)]

    def cascades(offset):
        base = datetime.date(2000, 1, 1) + datetime.timedelta(days=offset)
        dates = [f"p{i}\t{base + datetime.timedelta(days=d)}" for i, d in enumerate(days) if d is not None]
        return casc.build_cascades(parse(tmp_path, edges, dates), window_T=365, min_observed=0)

    assert cascades(shift) == cascades(0)


def test_citers_at_or_before_root_date_are_dropped():
    tally = {}
    events = citations({"root": 100, "early": 100, "ok": 150}, ("root", "x"), ("early", "root"), ("ok", "root"))
    cascades = casc.build_cascades(events, window_T=365, min_observed=1, tally=tally)
    c = [p for p in cascades if p.root == "root"][0]
    assert [n.id for n in c.nodes] == ["ok"]
    assert tally["citers_not_after_root"] == 1


def test_min_observed_filters_small_cascades():
    day = {"root": 0} | {f"m{i}": 1 + i for i in range(4)}
    events = citations(day, ("root", "x"), *((f"m{i}", "root") for i in range(4)))
    tally = {}
    assert casc.build_cascades(events, window_T=365, min_observed=5, tally=tally) == []
    assert tally["roots_below_min_observed"] == 2  # "root" and "x"
    kept = casc.build_cascades(events, window_T=365, min_observed=4)
    assert any(c.root == "root" for c in kept)


def test_candidate_parents_are_earlier_members_plus_root():
    # m2 cites m1 (earlier member), m3 (later), and "other" (non-member)
    events = citations(
        {"root": 0, "m1": 10, "m2": 20, "m3": 30},
        ("root", "x"),
        ("m1", "root"),
        ("m2", "root"), ("m2", "m1"), ("m2", "m3"), ("m2", "other"),
        ("m3", "root"),
    )
    c = [p for p in casc.build_cascades(events, window_T=365, min_observed=3) if p.root == "root"][0]
    by_id = {n.id: n for n in c.nodes}
    assert by_id["m1"].parents == ("root",)
    assert by_id["m2"].parents == ("root", "m1")
    assert by_id["m3"].parents == ("root",)


def test_undated_citer_in_a_hand_built_table_raises():
    events = citations({"a": 5}, ("a", "x"), ("b", "a"))
    with pytest.raises(MalformedCascadeError, match="citing paper 'b' has no date"):
        casc.build_cascades(events, window_T=10)


def test_build_validates_arguments():
    with pytest.raises(ConfigError):
        casc.build_cascades(citations({}), window_T=0)
    with pytest.raises(ConfigError):
        casc.build_cascades(citations({}), window_T=10, horizon=0)
    with pytest.raises(ConfigError):
        casc.build_cascades(citations({}), window_T=10, min_observed=-1)


def test_nodes_are_sorted_by_time_then_id_and_output_by_root():
    events = citations(
        {"rootB": 0, "rootA": 0, "z": 5, "a": 5, "b": 3, "q": 7},
        ("rootB", "x"), ("rootA", "x"),
        ("z", "rootB"), ("a", "rootB"), ("b", "rootB"),
        ("q", "rootA"),
    )
    cascades = casc.build_cascades(events, window_T=100, min_observed=1)
    roots = [c.root for c in cascades]
    assert roots == sorted(roots)
    cb = [c for c in cascades if c.root == "rootB"][0]
    assert [n.id for n in cb.nodes] == ["b", "a", "z"]


# ------------------------------------------------------------------- split


# Ids drawn so that code-point order, UTF-16 order and case-folded order
# disagree, plus ids that need JSON escaping.
paper_ids = st.one_of(
    st.sampled_from(["a", "B", "b", "Z", "_", "10", "9", "\u00e9", "e\u0301", "\uffff",
                     "\U00010000", "\u00c5", "A\u030a", '"q"', "back\\slash"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
)


@st.composite
def citation_graphs(draw):
    """The citation table of a random graph, plus build options.

    Each paper has one day (undated papers have none), in a range small
    enough that members share days and land on the window and horizon
    edges. Edges repeat and include self-citations; edges whose citer is
    undated are left out, as the parser leaves them out.
    """
    papers = draw(st.lists(paper_ids, min_size=2, max_size=7, unique=True))
    day = st.integers(-5, 14).map(lambda d: None if d < -3 else d)  # about one in ten undated
    dates = draw(st.lists(day, min_size=len(papers), max_size=len(papers)))
    index = st.integers(0, len(papers) - 1)
    links = draw(st.lists(st.tuples(index, index, st.booleans()), min_size=3 * len(papers), max_size=40))
    links += draw(st.lists(st.sampled_from(links), max_size=5)) if links else []
    edges = []
    for i, j, backward in links:
        if backward and None not in (dates[i], dates[j]) and dates[i] < dates[j]:
            i, j = j, i  # most citations point back in time
        if dates[i] is not None:
            edges.append((papers[i], papers[j]))
    events = citations({pid: d for pid, d in zip(papers, dates) if d is not None}, *edges)
    options = dict(
        window_T=draw(st.integers(1, 10).map(lambda w: 11 - w)),  # wide windows first
        horizon=draw(st.integers(0, 6).map(lambda h: h or None)),
        min_observed=draw(st.integers(0, 2)),
    )
    return events, options


def reference_jsonl(cascades):
    return "".join(json.dumps(cascade_to_dict(c), separators=(",", ":")) + "\n" for c in cascades)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=citation_graphs())
def test_columnar_build_equals_the_dict_build(tmp_path, graph):
    events, options = graph
    tally, expected_tally = {}, {}
    cascades = casc.build_cascades(events, **options, tally=tally)
    expected = reference_build_cascades(events, **options, tally=expected_tally)
    assert cascades == expected
    for c in cascades:
        assert type(c.root_time) is int and type(c.growth) is int
        assert all(type(n.time) is int and type(n.parents) is tuple for n in c.nodes)
    assert tally.pop("duplicate_edges") == len(events) - len({*zip(events.citing, events.cited)})
    assert tally == expected_tally
    path = tmp_path / "c.jsonl"
    casc.write_cascades_jsonl(path, cascades)
    assert path.read_text() == reference_jsonl(expected)


def test_repeated_edge_line_is_counted_once_and_changes_no_cascade(tmp_path):
    dates = ["r\t2000-01-01", "a\t2000-01-05", "b\t2000-01-09"]
    edges = ["a\tr", "b\tr", "b\ta"]
    once, twice = {}, {}
    cascades = casc.build_cascades(parse(tmp_path, edges, dates, tally=once),
                                   window_T=30, min_observed=1, tally=once)
    again = casc.build_cascades(parse(tmp_path, edges + ["b\ta"], dates, tally=twice),
                                window_T=30, min_observed=1, tally=twice)
    assert again == cascades
    assert (once["duplicate_edges"], twice["duplicate_edges"]) == (0, 1)
    assert twice["events"] + twice["undated_citer_edges"] + twice["self_citations"] == 4
    assert {k: v for k, v in twice.items() if k not in ("events", "duplicate_edges")} == {
        k: v for k, v in once.items() if k not in ("events", "duplicate_edges")
    }


def test_ingest_manifest_counters_hold_the_ingest_tally(tmp_path):
    (tmp_path / "e.tsv").write_text("a\tr\nb\tr\nb\ta\nb\ta\nb\tb\nghost\tr\n")
    (tmp_path / "d.tsv").write_text("r\t2000-01-01\na\t2000-01-05\nb\t2000-01-09\n")
    counters = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["ingest", "--edges", str(tmp_path / "e.tsv"), "--dates", str(tmp_path / "d.tsv"),
                     "--out", str(out), "--window-days", "30", "--min-observed", "1"]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert json.loads((out / "ingest_manifest.json").read_text())["counters"] == report
        counters.append(report)
    assert counters[0] == counters[1]
    assert counters[0]["duplicate_edges"] == 1
    assert counters[0]["events"] + counters[0]["undated_citer_edges"] + counters[0]["self_citations"] == 6


def test_split_sizes_700_150_150():
    tr, va, te = casc.split_dataset(list(range(1000)), seed=0)
    assert (len(tr), len(va), len(te)) == (700, 150, 150)


def test_split_sizes_small_odd():
    tr, va, te = casc.split_dataset(list(range(10)), seed=0)
    assert (len(tr), len(va), len(te)) == (7, 2, 1)


def test_split_is_a_seeded_partition():
    items = list(range(57))
    tr1, va1, te1 = casc.split_dataset(items, seed=3)
    tr2, va2, te2 = casc.split_dataset(items, seed=3)
    assert (tr1, va1, te1) == (tr2, va2, te2)
    assert sorted(tr1 + va1 + te1) == items
    tr3, _, _ = casc.split_dataset(items, seed=4)
    assert tr3 != tr1


def test_split_rejects_tiny_inputs():
    with pytest.raises(SplitError):
        casc.split_dataset([1, 2], seed=0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 4000), seed=st.integers(0, 2**31 - 1))
def test_split_fractions_hold_for_any_size(n, seed):
    tr, va, te = casc.split_dataset(list(range(n)), seed=seed)
    assert len(tr) == (7 * n) // 10
    assert len(va) - len(te) in (0, 1)
    assert len(tr) + len(va) + len(te) == n


# ------------------------------------------------------------------- stats


def test_stats_hand_fixture():
    t = tree_from_parent_rows("r", [("a", 1, "r"), ("b", 2, "r"), ("c", 3, "a")])
    s = casc.compute_stats([t])
    assert s.cascade_count == 1
    assert s.avg_path_length == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert s.avg_popularity == 3.0
    assert s.avg_degree == pytest.approx(1.5, abs=1e-15)
    assert s.avg_leaf_count == 2.0
    assert s.avg_edges == 3.0  # single-candidate source: one edge per node


def test_stats_averages_over_trees():
    t1 = tree_from_parent_rows("r", [("a", 1, "r")])            # 2 nodes, degree 1.0
    t2 = tree_from_parent_rows("r", [("a", 1, "r"), ("b", 2, "r")])  # 3 nodes, 4/3
    s = casc.compute_stats([t1, t2])
    assert s.avg_degree == pytest.approx((1.0 + 4.0 / 3.0) / 2.0, abs=1e-15)
    assert s.avg_popularity == 1.5


def test_stats_requires_trees():
    with pytest.raises(StatsError):
        casc.compute_stats([])


# --------------------------------------------------------------- synthetic


def test_synthetic_same_seed_is_byte_identical(tmp_path):
    kw = dict(size_range=(5, 15), time_horizon=100, attachment_bias=1.0)
    a = casc.generate_synthetic(25, seed=11, **kw)
    b = casc.generate_synthetic(25, seed=11, **kw)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    casc.write_cascades_jsonl(pa, a)
    casc.write_cascades_jsonl(pb, b)
    assert pa.read_bytes() == pb.read_bytes()
    c = casc.generate_synthetic(25, seed=12, **kw)
    assert cascade_to_dict(a[0]) != cascade_to_dict(c[0])


@st.composite
def synth_args(draw):
    hi = draw(st.integers(2, 80))
    lo = draw(st.sampled_from([2, hi]) | st.integers(2, hi))
    horizon = draw(st.integers(hi + 2, hi + 120))
    window_T = draw(st.none() | st.integers(1, horizon))
    bias = draw((st.floats(1e-3, 1e9) | st.floats(-3, 9).map(lambda e: 10.0**e))  # and every magnitude
                .filter(lambda b: not b.is_integer()))
    return dict(n_cascades=draw(st.integers(1, 12)), size_range=(lo, hi), time_horizon=horizon,
                attachment_bias=bias, seed=draw(st.integers(0, 2**32 - 1)), window_T=window_T)


@given(synth_args())
@settings(max_examples=60, deadline=None)
def test_block_generator_equals_the_per_node_generator(kw):
    assert casc.generate_synthetic(**kw) == reference_generate_synthetic(**kw)


def test_generator_spanning_two_blocks_equals_the_per_node_generator():
    kw = dict(n_cascades=4100, size_range=(2, 4), time_horizon=30, attachment_bias=0.7, seed=5)
    assert casc.generate_synthetic(**kw) == reference_generate_synthetic(**kw)


@pytest.mark.parametrize("seed, args, window_T", [
    (11, (200, (6, 18), 80, 1.0), 40),  # the overfit-gate and fit-small corpus
    (31, (520, (6, 30), 120, 1.0), 60),
    (21, (300, (11, 40), 60, 1.0), 59),
    (0, (200, (10, 60), 2200, 1.0), None),  # the configured defaults
    (7, (40, (4, 12), 50, 1.0), 50),  # a window as long as the horizon excludes no day
])
def test_generator_reproduces_known_corpora(seed, args, window_T):
    kw = dict(seed=seed, window_T=window_T)
    assert casc.generate_synthetic(*args, **kw) == reference_generate_synthetic(*args, **kw)


def test_synth_draws_from_a_long_horizon_without_listing_its_days(tmp_path):
    out = tmp_path / "long"
    argv = ["synth", "--out", str(out), "--n", "3", "--size-min", "3", "--size-max", "5", "--seed", "1"]
    started = time.monotonic()
    assert main([*argv, "--synth-horizon", str(10**12)]) == 0
    assert time.monotonic() - started < 5.0
    assert len(casc.read_cascades_jsonl(out / "cascades.jsonl")) == 3


def test_synth_refuses_a_horizon_numpy_cannot_draw_from(tmp_path, capsys):
    argv = ["synth", "--out", str(tmp_path / "huge"), "--n", "3", "--size-min", "3", "--size-max", "5"]
    assert main([*argv, "--synth-horizon", str(10**30)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": "ConfigError", "message": f"time_horizon {10**30} exceeds {2**63}, the most days NumPy can draw from",
        "details": {},
    }


def test_synthetic_sizes_and_labels_reconcile():
    cascades = casc.generate_synthetic(40, (4, 9), 60, 1.0, seed=2)
    assert len(cascades) == 40
    for c in cascades:
        assert 3 <= len(c.nodes) + c.growth <= 8  # nodes ever attached, root excluded
        assert c.growth >= 0


def test_synthetic_observed_nodes_fall_inside_the_window():
    cascades = casc.generate_synthetic(20, (4, 9), 80, 1.0, seed=5, window_T=30)
    for c in cascades:
        assert c.window_T == 30
        assert all(1 <= n.time < 30 for n in c.nodes)
        times = [n.time for n in c.nodes]
        assert times == sorted(times)
        assert len(set(times)) == len(times)  # sampled without replacement


def test_synthetic_window_defaults_to_half_horizon():
    cascades = casc.generate_synthetic(3, (3, 5), 50, 1.0, seed=0)
    assert all(c.window_T == 25 for c in cascades)


def test_synthetic_candidates_are_root_plus_attachment_target():
    cascades = casc.generate_synthetic(30, (4, 10), 90, 1.0, seed=8)
    for c in cascades:
        members = {c.root} | {n.id for n in c.nodes}
        for n in c.nodes:
            assert n.parents[0] == c.root
            assert len(n.parents) in (1, 2)
            assert set(n.parents) <= members


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        casc.generate_synthetic(0, (5, 10), 100, 1.0, seed=0)
    with pytest.raises(ConfigError):
        casc.generate_synthetic(1, (1, 10), 100, 1.0, seed=0)
    with pytest.raises(ConfigError):
        casc.generate_synthetic(1, (5, 4), 100, 1.0, seed=0)
    with pytest.raises(ConfigError):
        casc.generate_synthetic(1, (5, 10), 11, 1.0, seed=0)
    with pytest.raises(ConfigError):
        casc.generate_synthetic(1, (5, 10), 100, 0.0, seed=0)
    with pytest.raises(ConfigError):
        casc.generate_synthetic(1, (5, 10), 100, 1.0, seed=0, window_T=0)


def test_high_attachment_bias_approaches_uniform_choice():
    # with enormous bias the root-child counts should spread; with tiny bias
    # preferential attachment concentrates on early high-degree nodes
    flat = casc.generate_synthetic(60, (20, 20), 200, 1e9, seed=1)
    skew = casc.generate_synthetic(60, (20, 20), 200, 1e-3, seed=1)

    def mean_max_tree_degree(cascades):
        vals = []
        for c in cascades:
            vals.append(max(Counter(to_tree(c).parent.values()).values(), default=0))
        return float(np.mean(vals))

    assert mean_max_tree_degree(skew) > mean_max_tree_degree(flat)


# -------------------------------------------------------------------- jsonl


def test_labeled_cascade_jsonl_roundtrip(tmp_path):
    cascades = casc.generate_synthetic(12, (4, 8), 70, 1.0, seed=3)
    path = tmp_path / "c.jsonl"
    assert casc.write_cascades_jsonl(path, cascades) == 12
    back = casc.read_cascades_jsonl(path)
    assert back == cascades


def test_unlabeled_cascade_roundtrip(tmp_path):
    c = dataclasses.replace(casc.generate_synthetic(1, (4, 6), 50, 1.0, seed=4)[0], growth=None)
    path = tmp_path / "u.jsonl"
    casc.write_cascades_jsonl(path, [c])
    (c2,) = casc.read_cascades_jsonl(path)
    assert c2 == c and c2.growth is None


def test_jsonl_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"root": "a", "root_time": 0, "window_T": 5, "nodes": [], "label": null}\nnot json\n')
    with pytest.raises(ParseError, match="line 2"):
        casc.read_cascades_jsonl(path)
    path.write_text('{"root": "a"}\n')
    with pytest.raises(ParseError, match="line 1"):
        casc.read_cascades_jsonl(path)


@st.composite
def cascade_files(draw):
    """A few cascades over a small pool of ids, so ids repeat within a file,
    with ids that need JSON escaping, nodes with one or several parents, and
    labels set or None."""
    pool = draw(st.lists(
        st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\u00e9\u2028\U0001f600'), st.characters()),
                min_size=1, max_size=5),
        min_size=1, max_size=6,
    ))
    ids = st.sampled_from(pool)
    node = st.builds(CascadeNode, ids, st.integers(1, 10**6), st.lists(ids, min_size=1, max_size=3).map(tuple))
    return draw(st.lists(
        st.builds(Cascade, ids, st.integers(-10**6, 10**9), st.integers(1, 10**5),
                  st.lists(node, max_size=5).map(tuple), st.none() | st.integers(0, 10**12)),
        max_size=4))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=cascade_files())
def test_writer_is_byte_identical_to_json_dumps_of_the_dict_form(tmp_path, rows):
    path = tmp_path / "c.jsonl"
    assert casc.write_cascades_jsonl(path, rows) == len(rows)
    assert path.read_bytes() == reference_jsonl(rows).encode()


GOOD_CASCADE = {"root": "r", "root_time": 3, "window_T": 40,
                "nodes": [{"id": "a", "t": 10, "parents": ["r"]}], "label": {"observed": 1, "growth": 2}}


@pytest.mark.parametrize("path, value, message", [
    (("nodes", 0, "t"), 10.7, "node 'a' time must be int, got 10.7"),
    (("nodes", 0, "t"), "10", "node 'a' time must be int, got '10'"),
    (("nodes", 0, "t"), True, "node 'a' time must be int, got True"),
    (("nodes", 0, "id"), 7, "node id must be str, got 7"),
    (("nodes", 0, "parents"), "r", "node 'a' parents must be list, got 'r'"),
    (("nodes", 0, "parents"), ["r", 5], "node 'a' parent id must be str, got 5"),
    (("nodes",), {"a": 1}, "nodes must be list, got {'a': 1}"),
    (("root",), 5, "root must be str, got 5"),
    (("root_time",), 1.5, "root_time must be int, got 1.5"),
    (("window_T",), "40", "window_T must be int, got '40'"),
    (("label",), [1, 2], "label must be dict, got [1, 2]"),
    (("label", "observed"), False, "label observed must be int, got False"),
    (("label", "growth"), 2.5, "label growth must be int, got 2.5"),
])
def test_reader_accepts_only_json_integers_strings_and_lists(tmp_path, path, value, message):
    bad = json.loads(json.dumps(GOOD_CASCADE))
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "typed.jsonl"
    file.write_text(json.dumps(GOOD_CASCADE) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ParseError) as info:
        casc.read_cascades_jsonl(file)
    assert str(info.value) == f"{file} line 2: {message}"
    file.write_text(json.dumps(GOOD_CASCADE) + "\n")
    (c,) = casc.read_cascades_jsonl(file)
    assert (c.root_time, c.window_T, c.nodes[0].time, c.growth) == (3, 40, 10, 2)


@pytest.mark.parametrize("times, observed, message", [
    ([0, 10], 2, "node 'a' time 0 lies outside [1, 40)"),
    ([10, 40], 2, "node 'b' time 40 lies outside [1, 40)"),
    ([10, -3], 2, "node 'b' time -3 lies outside [1, 40)"),
    ([10, 500], None, "node 'b' time 500 lies outside [1, 40)"),
    ([10, 20], 3, "label observed 3 is not the node count 2"),
    ([10, 20], 0, "label observed 0 is not the node count 2"),
])
def test_reader_checks_times_against_the_window_and_the_label_against_the_nodes(tmp_path, times, observed,
                                                                                 message):
    doc = {**GOOD_CASCADE, "nodes": [{"id": pid, "t": t, "parents": ["r"]} for pid, t in zip("ab", times)]}
    doc["label"] = None if observed is None else {"observed": observed, "growth": 2}
    file = tmp_path / "self.jsonl"
    file.write_text(json.dumps(GOOD_CASCADE) + "\n" + json.dumps(doc) + "\n")
    with pytest.raises(ParseError) as info:
        casc.read_cascades_jsonl(file)
    assert str(info.value) == f"{file} line 2: {message}"


def test_reader_takes_times_at_both_ends_of_the_window(tmp_path):
    doc = {**GOOD_CASCADE, "nodes": [{"id": pid, "t": t, "parents": ["r"]} for pid, t in zip("ab", (1, 39))],
           "label": {"observed": 2, "growth": 0}}
    file = tmp_path / "ends.jsonl"
    file.write_text(json.dumps(doc) + "\n")
    (c,) = casc.read_cascades_jsonl(file)
    assert [n.time for n in c.nodes] == [1, 39] and c.growth == 0


@pytest.mark.parametrize("rows, message", [
    ([("a", 1, ["r"]), ("a", 2, ["r"])], "duplicate node id 'a'"),
    ([("r", 1, ["r"])], "duplicate node id 'r'"),
    ([("a", 1, ["r", "x"])], "node 'a' lists unknown parent candidate 'x'"),
    ([("a", 3, ["r"]), ("b", 3, ["r", "a"])], "candidate 'a' (t=3) does not precede node 'b' (t=3)"),
    ([("a", 5, ["r"]), ("b", 3, ["a"])], "candidate 'a' (t=5) does not precede node 'b' (t=3)"),
    # repeated ids first, then the earliest node in (time, id) order, then its first bad candidate
    ([("x", 3, ["ghost"]), ("a", 1, ["r"]), ("a", 2, ["r"])], "duplicate node id 'a'"),
    ([("late", 9, ["ghost"]), ("early", 2, ["phantom"])], "node 'early' lists unknown parent candidate 'phantom'"),
    ([("b", 2, ["a"]), ("a", 2, ["r", "b", "ghost"])], "candidate 'b' (t=2) does not precede node 'a' (t=2)"),
    ([("a", 5, ["r"]), ("x", 3, ["ghost", "a"])], "node 'x' lists unknown parent candidate 'ghost'"),
], ids=["repeated id", "id of the root", "unknown candidate", "candidate at the node's time",
        "later candidate", "repeat before all", "earliest node", "earliest of a tie", "first candidate"])
def test_reader_refuses_what_to_tree_refuses_naming_the_file_and_line(tmp_path, rows, message):
    bad = {**GOOD_CASCADE, "nodes": [{"id": pid, "t": t, "parents": ps} for pid, t, ps in rows], "label": None}
    file = tmp_path / "dag.jsonl"
    file.write_text(json.dumps(GOOD_CASCADE) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ParseError) as info:
        casc.read_cascades_jsonl(file)
    assert str(info.value) == f"{file} line 2: {message}"
    with pytest.raises((MalformedCascadeError, TimeViolationError)) as direct:
        to_tree(Cascade("r", 3, 40, tuple(CascadeNode(pid, t, tuple(ps)) for pid, t, ps in rows)))
    assert str(direct.value) == message


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.sampled_from("rabcd"), st.integers(1, 4),
                               st.lists(st.sampled_from("rabcdx"), min_size=1, max_size=3)), max_size=5))
def test_reader_refuses_exactly_what_to_tree_refuses(tmp_path, rows):
    doc = {"root": "r", "root_time": 0, "window_T": 5, "label": None,
           "nodes": [{"id": pid, "t": t, "parents": ps} for pid, t, ps in rows]}
    file = tmp_path / "drawn.jsonl"
    file.write_text(json.dumps(doc) + "\n")
    try:
        to_tree(Cascade("r", 0, 5, tuple(CascadeNode(pid, t, tuple(ps)) for pid, t, ps in rows)))
    except (MalformedCascadeError, TimeViolationError) as exc:
        with pytest.raises(ParseError) as info:
            casc.read_cascades_jsonl(file)
        assert str(info.value) == f"{file} line 1: {exc}"
    else:
        (c,) = casc.read_cascades_jsonl(file)
        assert [tuple(n) for n in c.nodes] == [(pid, t, tuple(ps)) for pid, t, ps in rows]


def test_reader_rejects_a_node_without_parent_candidates(tmp_path):
    path = tmp_path / "orphan.jsonl"
    path.write_text('{"root":"r","root_time":0,"window_T":5,"nodes":[{"id":"a","t":1,"parents":[]}],"label":null}\n')
    with pytest.raises(ContractError, match=r"orphan\.jsonl line 1: node 'a' has no parent candidates"):
        casc.read_cascades_jsonl(path)


def test_growth_label_validates_arithmetic():
    doc = {**GOOD_CASCADE, "label": {"observed": 1, "growth": -1}}
    with pytest.raises(ParseError, match=r"^label growth must be >= 0, got -1$"):
        casc.cascade_from_dict(doc)
