"""Schema building, time binning, level sorting, padding, serialization."""

import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cascadecite import encoding as enc
from cascadecite.errors import (
    BinRangeError,
    ParseError,
    SchemaError,
)
from cascadecite.trees import to_tree

from oracles import (
    brute_force_encode,
    cascade_from_rows,
    random_tree,
    schema_with_slack,
    tree_from_parent_rows,
)


def make_schema(lengths, bins=4, window=100):
    return enc.EncodingSchema(
        level_lengths=tuple(lengths),
        bin_count=bins,
        window_T=window,
        bin_edges=enc.uniform_bin_edges(bins, window),
    )


# ------------------------------------------------------------------- schema


def test_uniform_edges_split_the_window_evenly():
    assert enc.uniform_bin_edges(6, 600) == (0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0)
    assert enc.uniform_bin_edges(1, 7) == (0.0, 7.0)


def test_schema_validation_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        make_schema([])
    with pytest.raises(SchemaError):
        make_schema([3, 0])
    with pytest.raises(SchemaError):
        enc.EncodingSchema((2,), 2, 10, (0.0, 5.0))  # wrong edge count
    with pytest.raises(SchemaError):
        enc.EncodingSchema((2,), 2, 10, (0.0, 5.0, 9.0))  # must end at window
    with pytest.raises(SchemaError):
        enc.EncodingSchema((2,), 2, 10, (0.0, 0.0, 10.0))  # strictly increasing


def test_corpus_schema_takes_per_level_maxima():
    # widths (5,4), (1,1,3,2,2), (2,2) -> pointwise max (5,4,3,2,2)
    t_a = tree_from_parent_rows("r", [
        ("a1", 1, "r"), ("a2", 1, "r"), ("a3", 2, "r"), ("a4", 2, "r"), ("a5", 3, "r"),
        ("b1", 4, "a1"), ("b2", 4, "a1"), ("b3", 5, "a2"), ("b4", 6, "a3"),
    ], window_T=100)
    t_b = tree_from_parent_rows("r", [
        ("a", 1, "r"), ("b", 2, "a"),
        ("c1", 3, "b"), ("c2", 3, "b"), ("c3", 4, "b"),
        ("d1", 5, "c1"), ("d2", 6, "c2"),
        ("e1", 7, "d1"), ("e2", 8, "d1"),
    ], window_T=100)
    t_c = tree_from_parent_rows("r", [
        ("x", 1, "r"), ("y", 2, "r"), ("u", 3, "x"), ("v", 4, "x"),
    ], window_T=100)
    schema = enc.schema_from_corpus([t_a, t_b, t_c], bin_count=6, window_T=100)
    assert schema.level_lengths == (5, 4, 3, 2, 2)
    assert schema.depth == 5
    assert schema.total_length == 16
    assert schema.bin_edges == enc.uniform_bin_edges(6, 100)


def test_corpus_schema_rejects_empty_or_flat_corpora():
    with pytest.raises(SchemaError):
        enc.schema_from_corpus([], 4, 10)
    from cascadecite.cascades import Cascade
    only_root = to_tree(Cascade(root="r", root_time=0, window_T=10, nodes=()))
    with pytest.raises(SchemaError, match="root-only"):
        enc.schema_from_corpus([only_root], 4, 10)


def test_corpus_schema_rejects_out_of_window_times():
    # the schema reads no times; encoding bins them, and refuses one outside the window
    t = tree_from_parent_rows("r", [("a", 50, "r")], window_T=100)
    schema = enc.schema_from_corpus([t], 4, 50)
    with pytest.raises(BinRangeError, match=r"time 50 outside \[0, 50\)"):
        enc.encode(t, schema)


# ----------------------------------------------------------------- binning


def test_bin_of_zero_is_one():
    schema = make_schema([2], bins=6, window=600)
    assert enc._time_bins([0], schema) == [1]


def test_bin_boundaries_belong_to_the_right_interval():
    schema = make_schema([2], bins=6, window=600)
    assert enc._time_bins([99.999], schema) == [1]
    assert enc._time_bins([100], schema) == [2]
    assert enc._time_bins([599.999], schema) == [6]
    with pytest.raises(BinRangeError):
        enc._time_bins([600], schema)
    with pytest.raises(BinRangeError):
        enc._time_bins([-0.001], schema)


@settings(max_examples=120, deadline=None)
@given(
    bins=st.integers(1, 9),
    window=st.integers(1, 500),
    frac=st.floats(0, 1, exclude_max=True, allow_nan=False),
)
def test_binary_search_bin_matches_linear_scan(bins, window, frac):
    schema = make_schema([1], bins=bins, window=window)
    t = frac * window
    expect = None
    for l in range(1, bins + 1):
        if schema.bin_edges[l - 1] <= t < schema.bin_edges[l]:
            expect = l
            break
    assert expect is not None
    assert enc._time_bins([t], schema) == [expect]


@settings(max_examples=150, deadline=None)
@given(
    edges=st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 4000)).map(
            lambda bw: enc.uniform_bin_edges(*bw)),
        st.tuples(
            st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True), max_size=8),
            st.integers(1, 4000),
        ).map(lambda fw: (0.0, *sorted({f * fw[1] for f in fw[0]} - {0.0, float(fw[1])}),
                          float(fw[1]))),
    ),
    fracs=st.lists(st.floats(0, 1, exclude_max=True), max_size=8),
    ints=st.lists(st.integers(-2, 4001), max_size=8),
)
def test_time_bin_agrees_with_searchsorted(edges, fracs, ints):
    window = int(edges[-1])
    schema = enc.EncodingSchema((1,), len(edges) - 1, window, edges)
    at = np.asarray(edges)
    ts = [*at, *np.nextafter(at, -np.inf), *np.nextafter(at, np.inf),
          *(f * window for f in fracs), *ints]
    for t in ts:
        if 0 <= t < window:
            assert enc._time_bins([t], schema) == [int(np.searchsorted(at, t, side="right"))], t
        else:
            with pytest.raises(BinRangeError):
                enc._time_bins([t], schema)


# ------------------------------------------------------------------ degrees


def test_degree_is_child_count_plus_parent_link():
    t = tree_from_parent_rows("r", [("a", 1, "r"), ("b", 2, "a"), ("c", 3, "a")])
    seq = enc.encode(t, make_schema([1, 2]))
    assert [e.degree for e in seq.levels[0]] == [3]     # a: two children + parent link
    assert [e.degree for e in seq.levels[1]] == [1, 1]  # b, c: parent link only


# ------------------------------------------------------------- level encode


def test_level_sort_is_degree_descending_then_earlier_first():
    schema = make_schema([5], bins=4, window=100)
    row = enc.encode_level([(1, 10), (2, 30), (1, 5), (2, 20)], 5, schema)
    assert [e.degree for e in row] == [2, 2, 1, 1, 0]
    assert [e.bin for e in row] == [1, 2, 1, 1, 0]
    assert [e.is_pad for e in row] == [False] * 4 + [True]


def test_reference_degree_rows_reproduce_with_final_pad():
    # raw per-level (degree, time) rows of a five-level worked example; the
    # first level has four real nodes against a schema length of five
    schema = make_schema([5, 4, 3, 2, 2], bins=5, window=100)
    raw = [
        [(1, 10), (2, 20), (1, 30), (2, 40)],
        [(1, 11), (2, 21), (2, 31), (2, 41)],
        [(2, 12), (2, 22), (1, 32)],
        [(1, 13), (3, 23)],
        [(1, 14), (1, 24)],
    ]
    rows = [
        [e.degree for e in enc.encode_level(pairs, schema.level_lengths[k], schema)]
        for k, pairs in enumerate(raw)
    ]
    assert rows == [
        [2, 2, 1, 1, 0],
        [2, 2, 2, 1],
        [2, 2, 1],
        [3, 1],
        [1, 1],
    ]


def test_overlong_level_keeps_its_highest_degrees():
    schema = make_schema([2], bins=2, window=10)
    pairs = [(3, 1), (1, 2), (2, 3)]
    row = enc.encode_level(pairs, 2, schema)
    assert [e.degree for e in row] == [3, 2]  # lowest degree dropped


def test_encode_full_tree_hand_checked():
    t = tree_from_parent_rows("r", [
        ("a", 10, "r"), ("b", 40, "r"), ("c", 70, "a"),
    ], window_T=100)
    schema = make_schema([3, 2], bins=4, window=100)
    seq = enc.encode(t, schema)
    # level 1: a (degree 2, t=10 -> bin 1), b (degree 1, t=40 -> bin 2), pad
    assert [(e.degree, e.bin) for e in seq.levels[0]] == [(2, 1), (1, 2), (0, 0)]
    # level 2: c (degree 1, t=70 -> bin 3), pad
    assert [(e.degree, e.bin) for e in seq.levels[1]] == [(1, 3), (0, 0)]


def test_encode_fills_missing_levels_with_padding():
    t = tree_from_parent_rows("r", [("a", 1, "r")], window_T=10)
    schema = make_schema([2, 2, 1], bins=2, window=10)
    seq = enc.encode(t, schema)
    assert all(e.is_pad for e in seq.levels[1])
    assert all(e.is_pad for e in seq.levels[2])
    assert seq.levels[1] == (enc.SeqEntry(0, enc.PAD_BIN, True),) * 2


def test_overdeep_tree_loses_levels_past_the_schema():
    t = tree_from_parent_rows("r", [("a", 1, "r"), ("b", 2, "a"), ("c", 3, "b")], window_T=10)
    schema = make_schema([1, 1], bins=2, window=10)
    seq = enc.encode(t, schema)
    assert len(seq.levels) == 2
    assert [e.degree for e in seq.levels[1]] == [2]


def test_fits_schema_flags_overflow():
    t = tree_from_parent_rows("r", [("a", 1, "r"), ("b", 2, "r")], window_T=10)
    assert enc.fits_schema(t, make_schema([2], bins=2, window=10))
    assert not enc.fits_schema(t, make_schema([1], bins=2, window=10))
    assert not enc.fits_schema(
        to_tree(cascade_from_rows("r", [("a", 1, ("r",)), ("b", 2, ("a",))], window_T=10)),
        make_schema([1], bins=2, window=10),
    )


def per_slot_encode_level(pairs, length, schema):
    """encode_level as it was before the shared pad: one new entry per slot,
    bins from np.searchsorted."""
    ordered = sorted(pairs, key=lambda p: (-p[0], p[1]))[:length]
    entries = [
        enc.SeqEntry(d, int(np.searchsorted(schema.bin_edges, t, side="right")), False)
        for d, t in ordered
    ]
    entries.extend(enc.SeqEntry(0, enc.PAD_BIN, True) for _ in range(length - len(entries)))
    return tuple(entries)


def test_every_pad_is_the_shared_entry_and_levels_equal_per_slot_ones():
    rng = np.random.default_rng(29)
    pads = 0
    for _ in range(60):
        t = random_tree(rng, max_nodes=30)
        schema = schema_with_slack([t], bin_count=int(rng.integers(1, 7)), window_T=90, rng=rng)
        # cut one level short so truncation runs too
        lengths = list(schema.level_lengths)
        lengths[0] = max(1, lengths[0] - 2)
        schema = enc.EncodingSchema(tuple(lengths), schema.bin_count, 90, schema.bin_edges)
        seq = enc.encode(t, schema)
        kids = Counter(t.parent.values())
        for k, lvl in enumerate(seq.levels):
            nodes = t.levels[k] if k < len(t.levels) else ()
            pairs = [(kids[v] + 1, t.adoption_time[v]) for v in nodes]
            assert lvl == per_slot_encode_level(pairs, schema.level_lengths[k], schema)
            for e in lvl:
                assert (e is enc.PAD) == e.is_pad
                pads += e.is_pad
    assert pads > 0


def test_encoding_matches_brute_force_on_random_trees():
    rng = np.random.default_rng(23)
    for _ in range(60):
        t = random_tree(rng, max_nodes=30)
        schema = schema_with_slack([t], bin_count=int(rng.integers(1, 7)), window_T=90, rng=rng)
        got = tuple(tuple(e) for e in map(tuple, enc.encode(t, schema).levels))
        want = brute_force_encode(t, schema)
        assert got == want


# ------------------------------------------------------------ serialization


def test_schema_json_roundtrip(tmp_path):
    schema = make_schema([4, 2, 1], bins=3, window=60)
    path = tmp_path / "schema.json"
    enc.save_schema(path, schema)
    assert enc.load_schema(path) == schema


def test_schema_from_dict_rejects_garbage():
    with pytest.raises(ParseError):
        enc.schema_from_dict({"bin_count": 3})


@pytest.mark.parametrize("key, value, message", [
    ("level_lengths", [3.9, "2"], "schema level_lengths must be a list of integers, got [3.9, '2']"),
    ("level_lengths", [3, True], "schema level_lengths must be a list of integers, got [3, True]"),
    ("level_lengths", "32", "schema level_lengths must be a list of integers, got '32'"),
    ("bin_count", True, "schema bin_count must be an integer, got True"),
    ("bin_count", 3.0, "schema bin_count must be an integer, got 3.0"),
    ("window_T", "60", "schema window_T must be an integer, got '60'"),
    ("bin_edges", [0, "20", 40.0, 60], "schema bin_edges must be a list of finite numbers, got [0, '20', 40.0, 60]"),
    ("bin_edges", [False, 20.0, 40.0, 60.0],
     "schema bin_edges must be a list of finite numbers, got [False, 20.0, 40.0, 60.0]"),
    ("bin_edges", [0.0, 20.0, float("nan"), 60.0],
     "schema bin_edges must be a list of finite numbers, got [0.0, 20.0, nan, 60.0]"),
])
def test_schema_reader_takes_only_json_integers_and_numbers(tmp_path, key, value, message):
    path = tmp_path / "schema.json"
    enc.save_schema(path, make_schema([4, 2], bins=3, window=60))
    doc = json.loads(path.read_text())
    assert enc.schema_from_dict(doc | {"bin_edges": [0, 20, 40, 60]}) == enc.load_schema(path)  # integer edges are numbers
    path.write_text(json.dumps(doc | {key: value}))
    with pytest.raises(ParseError) as info:
        enc.load_schema(path)
    assert str(info.value) == f"{path}: {message}"


def test_encoded_sample_jsonl_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    schema = None
    samples = []
    trees = [random_tree(rng, max_nodes=15) for _ in range(8)]
    schema = schema_with_slack(trees, bin_count=3, window_T=90, rng=rng)
    for i, t in enumerate(trees):
        samples.append(enc.EncodedSample(id=f"t{i}", seq=enc.encode(t, schema), growth=i if i % 2 else None))
    path = tmp_path / "enc.jsonl"
    assert enc.write_encoded_jsonl(path, samples) == 8
    back = enc.read_encoded_jsonl(path, schema)
    assert back == samples


def test_encoded_jsonl_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "levels": [[[0, 0]]], "label": null}\n{"id": "b"}\n')
    with pytest.raises(ParseError, match="line 2"):
        enc.read_encoded_jsonl(path, make_schema([1]))


def test_read_back_pads_are_the_shared_entry(tmp_path):
    rng = np.random.default_rng(7)
    trees = [random_tree(rng, max_nodes=15) for _ in range(12)]
    schema = schema_with_slack(trees, bin_count=3, window_T=90, rng=rng)
    samples = [enc.EncodedSample(id=f"t{i}", seq=enc.encode(t, schema), growth=i) for i, t in enumerate(trees)]
    path = tmp_path / "enc.jsonl"
    enc.write_encoded_jsonl(path, samples)
    back = enc.read_encoded_jsonl(path, schema)
    assert back == samples
    slots = [e for s in back for lvl in s.seq.levels for e in lvl]
    pads = [e for e in slots if e.is_pad]
    assert pads and all(e is enc.PAD for e in pads)
    assert all(e.degree > 0 for e in slots if e is not enc.PAD)


@pytest.mark.parametrize(
    "slot",
    ["[0]", '["a",0]', "[0,0,0]", "[1.5,1]", '["7",1]', "[true,1]", "[1,true]", "[0,0.0]",
     "[3,0]", "[0,2]", "[-1,1]", "[2,-1]",
     # a bin past the schema's 4, or a degree past 2**53
     "[2,5]", "[2,99]", pytest.param(f"[2,{2**63}]", id="[2,2**63]"),
     pytest.param(f"[{2**53 + 1},1]", id="[2**53+1,1]"), pytest.param(f"[{10**400},1]", id="[10**400,1]")],
)
def test_malformed_slots_raise_with_the_line_number(tmp_path, slot):
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"id":"a","levels":[[[0,0]]],"label":null}}\n{{"id":"b","levels":[[{slot}]],"label":null}}\n')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))} line 2: slot "):
        enc.read_encoded_jsonl(path, make_schema([1]))


def test_slots_at_the_largest_degree_and_bin_read_back(tmp_path):
    path = tmp_path / "edge.jsonl"
    path.write_text(f'{{"id":"a","levels":[[[{2**53},4]]],"label":null}}\n')
    (back,) = enc.read_encoded_jsonl(path, make_schema([1]))
    assert back.seq.levels == ((enc.SeqEntry(2**53, 4, False),),)
    degrees, bins = enc.stack_sequences([back.seq], (1,))
    assert degrees[0, 0] == 2**53 and bins[0, 0] == 4


@pytest.mark.parametrize("record, message", [
    ('"id":"b","levels":[[[0,0]]],"label":1.5', "need a string id and a label >= 0 or null, got 'b' and 1.5"),
    ('"id":"b","levels":[[[0,0]]],"label":"7"', "need a string id and a label >= 0 or null, got 'b' and '7'"),
    ('"id":"b","levels":[[[0,0]]],"label":true', "need a string id and a label >= 0 or null, got 'b' and True"),
    ('"id":"b","levels":[[[0,0]]],"label":-3', "need a string id and a label >= 0 or null, got 'b' and -3"),
    ('"id":7,"levels":[[[0,0]]],"label":null', "need a string id and a label >= 0 or null, got 7 and None"),
])
def test_encoded_records_take_string_ids_and_count_labels(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":"a","levels":[[[1,1]]],"label":0}\n{' + record + "}\n")
    with pytest.raises(ParseError) as info:
        enc.read_encoded_jsonl(path, make_schema([1]))
    assert str(info.value) == f"{path} line 2: {message}"


def test_encoded_rows_are_degree_bin_pairs(tmp_path):
    schema = make_schema([3, 1], bins=2, window=10)
    t = tree_from_parent_rows("r", [("a", 1, "r"), ("b", 6, "r"), ("c", 7, "a")], window_T=10)
    sample = enc.EncodedSample(id="r", seq=enc.encode(t, schema), growth=4)
    path = tmp_path / "pairs.jsonl"
    enc.write_encoded_jsonl(path, [sample])
    assert path.read_text() == '{"id":"r","levels":[[[2,1],[1,2],[0,0]],[[1,2]]],"label":4}\n'
    (back,) = enc.read_encoded_jsonl(path, schema)
    assert back == sample
    assert [e.is_pad for e in back.seq.levels[0]] == [False, False, True]


def test_encoded_jsonl_rejects_dict_slots(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"id":"a","levels":[[[1,1]]],"label":null}\n'
        '{"id":"b","levels":[[{"d":1,"bin":1}]],"label":null}\n'
    )
    with pytest.raises(ParseError, match=r"old\.jsonl line 2: .*\[degree, bin\] pair"):
        enc.read_encoded_jsonl(path, make_schema([1]))


def dict_form_row(sample):
    """An encoded row as the writer used to make it: json.dumps of a dict."""
    doc = {
        "id": sample.id,
        "levels": [[[e.degree, e.bin] for e in lvl] for lvl in sample.seq.levels],
        "label": sample.growth,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


slot_entries = st.one_of(
    st.just(enc.PAD),
    st.just(enc.SeqEntry(0, enc.PAD_BIN, True)),  # equal to the shared pad, not it
    st.builds(enc.SeqEntry, st.integers(0, 10**6), st.integers(0, 10**4), st.booleans()),
)
samples = st.builds(
    enc.EncodedSample,
    id=st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\u00e9\u2028\U0001f600'),
                         st.characters()), max_size=12),
    seq=st.builds(enc.DegreeSequence, st.lists(
        st.lists(slot_entries, max_size=6).map(tuple), max_size=4).map(tuple)),
    growth=st.none() | st.integers(0, 10**12),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.lists(samples, max_size=5))
def test_writer_is_byte_identical_to_json_dumps_of_the_dict_form(tmp_path, batch):
    path = tmp_path / "enc.jsonl"
    assert enc.write_encoded_jsonl(path, batch) == len(batch)
    assert path.read_text() == "".join(map(dict_form_row, batch))


def test_empty_levels_and_pad_tails_are_the_shared_runs():
    schema = make_schema([3, 2, 4], bins=2, window=10)
    seq = enc.encode(tree_from_parent_rows("r", [("a", 1, "r")], window_T=10), schema)
    assert seq.levels[1] is enc.pad_run(2) and seq.levels[2] is enc.pad_run(4)
    assert enc.encode_level([], 3, schema) is enc.pad_run(3)
    assert seq.levels[0] == (enc.SeqEntry(1, 1, False),) + enc.pad_run(2)
    assert enc.pad_run(4) == (enc.PAD,) * 4 and all(e is enc.PAD for e in enc.pad_run(4))


real_slots = st.builds(enc.SeqEntry, st.integers(1, 10**6), st.integers(1, 10**4), st.just(False))
level_shapes = st.one_of(
    st.integers(0, 6).map(enc.pad_run),  # all padding: the shared run
    real_slots.map(lambda e: (e,)),  # one slot
    st.tuples(st.lists(real_slots, min_size=1, max_size=4), st.integers(1, 5)).map(
        lambda p: tuple(p[0]) + enc.pad_run(p[1])),  # real prefix, then a pad tail
    st.tuples(st.integers(1, 3), st.lists(real_slots, min_size=1, max_size=3)).map(
        lambda p: (enc.PAD,) * p[0] + tuple(p[1])),  # pads before real slots, as read back
    st.lists(st.sampled_from([enc.PAD, enc.SeqEntry(0, enc.PAD_BIN, True)]) | real_slots,
             max_size=6).map(tuple),  # any mix, with pads equal to the shared one but not it
)
shaped_samples = st.builds(
    enc.EncodedSample,
    id=st.text(st.sampled_from('"\\/\n\t\x00é \U0001f600ab'), max_size=8),  # ids to escape
    seq=st.builds(enc.DegreeSequence, st.lists(level_shapes, max_size=5).map(tuple)),
    growth=st.none() | st.integers(0, 10**12),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.lists(shaped_samples, max_size=4))
def test_pad_run_writer_equals_json_dumps_for_every_level_shape(tmp_path, batch):
    path = tmp_path / "enc.jsonl"
    assert enc.write_encoded_jsonl(path, batch) == len(batch)
    assert path.read_bytes() == "".join(map(dict_form_row, batch)).encode()
