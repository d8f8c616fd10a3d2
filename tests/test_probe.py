"""Structural features and the encoding readout probe."""

import numpy as np
import pytest

from cascadecite import probe as probe_module
from cascadecite.cascades import generate_synthetic
from cascadecite.encoding import encode, stack_sequences
from cascadecite.errors import ConfigError
from cascadecite.probe import FEATURE_NAMES, probe
from cascadecite.trees import to_tree

from oracles import random_tree, schema_with_slack, tree_from_parent_rows


def test_feature_hand_fixture():
    t = tree_from_parent_rows("r", [("a", 1, "r"), ("b", 2, "r"), ("c", 3, "a")])
    f = t.shape
    assert f.edges == 3
    assert f.max_path == 2
    assert f.ave_path == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert f.leaves == 2
    assert f.ave_degree == pytest.approx(1.5, abs=1e-15)
    assert np.asarray(f).shape == (5,)


def test_feature_chain_fixture():
    t = tree_from_parent_rows("r", [("a", 1, "r"), ("b", 2, "a"), ("c", 3, "b")])
    f = t.shape
    assert (f.edges, f.max_path, f.leaves) == (3, 3, 1)
    assert f.ave_path == 2.0


def test_encoding_carries_edges_and_leaves_exactly():
    # edge count = non-padding entries; leaf count = degree-1 entries
    rng = np.random.default_rng(9)
    trees = [random_tree(rng, max_nodes=25) for _ in range(40)]
    schema = schema_with_slack(trees, bin_count=4, window_T=90, rng=rng)
    for t in trees:
        f = t.shape
        seq = encode(t, schema)
        entries = [e for lvl in seq.levels for e in lvl]
        assert sum(1 for e in entries if not e.is_pad) == f.edges
        assert sum(1 for e in entries if e.degree == 1) == f.leaves


def test_probe_learns_exact_functions_of_the_encoding():
    cascades = generate_synthetic(120, (6, 25), 120, 1.0, seed=7)
    trees = [t for t in (to_tree(c) for c in cascades) if t.size >= 2]
    rng = np.random.default_rng(0)
    schema = schema_with_slack(trees, bin_count=4, window_T=60, rng=rng)
    degrees, bins = stack_sequences([encode(t, schema) for t in trees], schema.level_lengths)
    feats = [t.shape for t in trees]
    report = probe(degrees, bins, feats, seed=0)
    assert set(report.mse) == set(FEATURE_NAMES)
    assert report.n_train + report.n_test == len(trees)
    assert report.mse["edges"] < 0.05
    assert report.mse["leaves"] < 0.05


@pytest.mark.parametrize("decay", [None, np.array([0.0, 0.9, 0.55, 0.3, 0.125])], ids=["raw", "decayed"])
def test_the_readout_takes_each_slot_degree_times_the_decay_of_its_bin(monkeypatch, decay):
    rng = np.random.default_rng(31)
    trees = [random_tree(rng, max_nodes=25) for _ in range(12)]
    schema = schema_with_slack(trees, bin_count=4, window_T=90, rng=rng)
    seqs = [encode(t, schema) for t in trees]
    inputs, mlp = [], probe_module.mlp

    def spy(x, layers):
        inputs.append(x.values.copy())
        return mlp(x, layers)

    monkeypatch.setattr(probe_module, "mlp", spy)
    probe(*stack_sequences(seqs, schema.level_lengths), [t.shape for t in trees], seed=0,
          decay=decay)

    weights = np.array([0.0, 1.0, 1.0, 1.0, 1.0]) if decay is None else decay  # raw: 1 on every real bin
    want = np.array([[e.degree * weights[e.bin] for lvl in s.levels for e in lvl] for s in seqs])
    assert all(np.array_equal(x, inputs[0]) for x in inputs[:-1])  # every training step reads one matrix
    got = np.concatenate([inputs[0], inputs[-1]])  # the training rows, then the held-out rows

    def by_row(m):
        return m[np.lexsort(m.T[::-1])]

    assert got.shape == want.shape
    assert np.array_equal(by_row(got), by_row(want))


def test_probe_flags_constant_features():
    # identical star trees: every feature is constant across the corpus
    trees = [
        tree_from_parent_rows("r", [("a", 1, "r"), ("b", 2, "r"), ("c", 3, "r")])
        for _ in range(10)
    ]
    rng = np.random.default_rng(1)
    schema = schema_with_slack(trees, bin_count=2, window_T=10, rng=rng)
    degrees, bins = stack_sequences([encode(t, schema) for t in trees], schema.level_lengths)
    feats = [t.shape for t in trees]
    report = probe(degrees, bins, feats, seed=0)
    assert set(report.flags) == set(FEATURE_NAMES)
    assert all(report.mse[name] == 0.0 for name in FEATURE_NAMES)


def test_probe_validates_inputs():
    t = tree_from_parent_rows("r", [("a", 1, "r")])
    rng = np.random.default_rng(2)
    schema = schema_with_slack([t], bin_count=2, window_T=10, rng=rng)
    degrees, bins = stack_sequences([encode(t, schema)] * 6, schema.level_lengths)
    f = t.shape
    with pytest.raises(ConfigError):
        probe(degrees[:0], bins[:0], [], seed=0)
    with pytest.raises(ConfigError):
        probe(degrees, bins, [f] * 5, seed=0)
    with pytest.raises(ConfigError):
        probe(degrees[:4], bins[:4], [f] * 4, seed=0)
