"""Latest-parent tree conversion and level bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from cascadecite.cascades import Cascade, CascadeNode
from cascadecite.errors import MalformedCascadeError, TimeViolationError
from cascadecite.trees import to_tree

from oracles import brute_latest_parent, cascade_from_rows, random_dag_cascade, random_tree


def test_latest_cited_member_becomes_the_single_parent():
    # node 6 cites 2 (joined at t=2) and 4 (joined at t=3): 4 wins, giving
    # the single path 0-1-4-6
    c = cascade_from_rows("0", [
        ("1", 1, ("0",)),
        ("2", 2, ("0",)),
        ("4", 3, ("0", "1")),
        ("6", 4, ("0", "2", "4")),
    ])
    t = to_tree(c)
    assert t.parent["6"] == "4"
    assert t.parent["4"] == "1"
    chain = ["6"]
    while chain[-1] != "0":
        chain.append(t.parent[chain[-1]])
    assert chain == ["6", "4", "1", "0"]


def test_equal_time_candidates_break_toward_smaller_id():
    c = cascade_from_rows("r", [
        ("b", 5, ("r",)),
        ("a", 5, ("r",)),
        ("x", 9, ("r", "b", "a")),
    ])
    assert to_tree(c).parent["x"] == "a"


def test_candidate_adopting_after_node_raises():
    c = cascade_from_rows("r", [("a", 5, ("r",)), ("x", 3, ("r", "a"))])
    with pytest.raises(TimeViolationError, match="does not precede"):
        to_tree(c)
    c2 = cascade_from_rows("r", [("a", 5, ("r",)), ("x", 5, ("r", "a"))])
    with pytest.raises(TimeViolationError):
        to_tree(c2)


def test_duplicate_and_unknown_ids_raise():
    dup = Cascade(root="r", root_time=0, window_T=10, nodes=(
        CascadeNode(id="a", time=1, parents=("r",)),
        CascadeNode(id="a", time=2, parents=("r",)),
    ))
    with pytest.raises(MalformedCascadeError, match="duplicate"):
        to_tree(dup)
    ghost = cascade_from_rows("r", [("a", 1, ("r", "ghost"))])
    with pytest.raises(MalformedCascadeError, match="unknown"):
        to_tree(ghost)



def test_node_without_parent_candidates_raises():
    orphan = Cascade(root="r", root_time=0, window_T=10, nodes=(CascadeNode("a", 1, ()),))
    with pytest.raises(MalformedCascadeError, match="'a' has no parent candidates"):
        to_tree(orphan)


@pytest.mark.parametrize("rows, error, message", [
    # the same types and messages as the two-pass conversion gave
    ([("a", 1, ("r",)), ("b", 2, ("r",)), ("a", 3, ("r",))], MalformedCascadeError,
     "duplicate node id 'a'"),
    ([("r", 1, ("r",))], MalformedCascadeError, "duplicate node id 'r'"),
    ([("a", 1, ("r", "ghost"))], MalformedCascadeError,
     "node 'a' lists unknown parent candidate 'ghost'"),
    ([("a", 5, ("r",)), ("x", 3, ("r", "a"))], TimeViolationError,
     "candidate 'a' (t=5) does not precede node 'x' (t=3)"),
    ([("a", 4, ("r",)), ("x", 4, ("a",))], TimeViolationError,
     "candidate 'a' (t=4) does not precede node 'x' (t=4)"),
    ([("a", 2, ("a",))], TimeViolationError, "candidate 'a' (t=2) does not precede node 'a' (t=2)"),
    ([("a", 1, ())], MalformedCascadeError, "node 'a' has no parent candidates"),
    # within one node, the first bad candidate in candidate order is reported
    ([("a", 5, ("r",)), ("x", 3, ("ghost", "a"))], MalformedCascadeError,
     "node 'x' lists unknown parent candidate 'ghost'"),
    ([("a", 5, ("r",)), ("x", 3, ("a", "ghost"))], TimeViolationError,
     "candidate 'a' (t=5) does not precede node 'x' (t=3)"),
    # duplicates are found before any candidate is looked at
    ([("x", 3, ("ghost",)), ("a", 1, ("r",)), ("a", 2, ("r",))], MalformedCascadeError,
     "duplicate node id 'a'"),
])
def test_malformed_cascades_raise_the_same_errors(rows, error, message):
    with pytest.raises(error) as info:
        to_tree(cascade_from_rows("r", rows))
    assert type(info.value) is error and str(info.value) == message


def test_of_several_bad_nodes_the_earliest_adopter_is_reported():
    # nodes are placed in (time, id) order, whatever order the cascade lists them in
    c = cascade_from_rows("r", [("late", 9, ("ghost",)), ("early", 2, ("phantom",))])
    with pytest.raises(MalformedCascadeError, match="'early' lists unknown parent candidate 'phantom'"):
        to_tree(c)

def test_levels_and_depth_for_chain_and_star():
    chain = cascade_from_rows("r", [
        ("a", 1, ("r",)), ("b", 2, ("a",)), ("c", 3, ("b",)),
    ])
    t = to_tree(chain)
    assert t.levels == (("a",), ("b",), ("c",))

    star = cascade_from_rows("r", [
        ("a", 1, ("r",)), ("b", 2, ("r",)), ("c", 3, ("r",)),
    ])
    t2 = to_tree(star)
    assert t2.levels == (("a", "b", "c"),)


def test_root_only_tree_has_no_levels():
    t = to_tree(Cascade(root="r", root_time=0, window_T=10, nodes=()))
    assert t.levels == ()
    assert t.size == 1


def test_levels_are_ordered_by_time_then_id():
    c = cascade_from_rows("r", [
        ("z", 1, ("r",)),
        ("m", 3, ("r",)),
        ("a", 3, ("r",)),
        ("k2", 4, ("z",)),
        ("k1", 4, ("m",)),
    ])
    t = to_tree(c)
    assert t.levels == (("z", "a", "m"), ("k1", "k2"))


def test_children_lists_follow_time_then_id():
    c = cascade_from_rows("r", [
        ("late", 9, ("r",)), ("early", 1, ("r",)), ("mid", 5, ("r",)),
    ])
    t = to_tree(c)
    assert [v for v, p in t.parent.items() if p == "r"] == ["early", "mid", "late"]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_children_invert_the_brute_force_parent_map_in_time_then_id_order(seed):
    c = random_dag_cascade(np.random.default_rng(seed), max_nodes=25)
    chosen = brute_latest_parent(c)
    time = {c.root: 0} | {n.id: n.time for n in c.nodes}
    order = sorted(chosen, key=lambda v: (time[v], v))
    expected = {v: [] for v in time}
    for v in order:
        expected[chosen[v]].append(v)
    parent = to_tree(c).parent
    children = {v: [] for v in time}
    for v, p in parent.items():  # children in the order the tree lists the nodes
        children[p].append(v)
    assert children == expected
    assert list(parent) == order


def test_source_edges_counts_all_candidates():
    c = cascade_from_rows("r", [
        ("a", 1, ("r",)), ("b", 2, ("r", "a")), ("c", 3, ("r", "a", "b")),
    ])
    assert to_tree(c).source_edges == 6


def test_node_input_order_does_not_matter():
    rows = [("a", 1, ("r",)), ("b", 2, ("r", "a")), ("c", 3, ("r", "b"))]
    fwd = to_tree(cascade_from_rows("r", rows))
    rev = to_tree(cascade_from_rows("r", rows[::-1]))
    assert fwd == rev


def test_tree_to_cascade_roundtrip_is_identity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        t = random_tree(rng, max_nodes=30)
        rows = [(v, t.adoption_time[v], (t.parent[v],)) for v in t.parent]
        assert to_tree(cascade_from_rows(t.root, rows, window_T=t.window_T)) == t


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_conversion_always_yields_a_rooted_tree(seed):
    rng = np.random.default_rng(seed)
    c = random_dag_cascade(rng, max_nodes=25)
    t = to_tree(c)
    # one parent per non-root node
    assert set(t.parent) == {n.id for n in c.nodes}
    # parent chains all reach the root without revisiting a node
    for v in t.parent:
        seen = set()
        while v != "r":
            assert v not in seen
            seen.add(v)
            v = t.parent[v]
    # levels partition the non-root nodes
    flat = [v for lvl in t.levels for v in lvl]
    assert sorted(flat) == sorted(t.parent)
