"""Training loop, metric fixtures, prediction files, split encoding, sweep."""

import csv
import dataclasses

import numpy as np
import pytest

from cascadecite import training as tr
from cascadecite.autodiff import Tape
from cascadecite.cascades import generate_synthetic
from cascadecite.encoding import (
    PAD, DegreeSequence, EncodedSample, SeqEntry, fits_schema, schema_from_corpus, stack_sequences,
)
from cascadecite.errors import ConfigError, ContractError, EvaluationError
from cascadecite.model import ModelConfig, forward_batch, init_params, loss
from cascadecite.trees import to_tree


def small_dataset(n=24, seed=0, bins=3):
    pairs = generate_synthetic(n, (6, 14), 80, 1.0, seed=seed)
    return tr.encode_split(pairs, bin_count=bins, window_T=40, seed=seed)


def small_model(schema):
    return ModelConfig.from_schema(schema, embed_width=8, head_widths=(6,))


def fast_train_config(**kw):
    base = dict(batch_size=8, max_epochs=6, patience=10, step_size=5e-3, seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


# ------------------------------------------------------------------- metric


def test_msle_zero_when_predictions_hit_targets():
    assert tr.msle(np.array([1.0, 3.0]), np.array([1, 7])) == 0.0


def test_msle_hand_fixture_half():
    # errors (2-1)^2 = 1 and (0-0)^2 = 0, mean 0.5
    assert abs(tr.msle(np.array([2.0, 0.0]), np.array([1, 0])) - 0.5) < 1e-12


def test_msle_hand_fixture_quarter():
    assert abs(tr.msle(np.array([1.5]), np.array([3])) - 0.25) < 1e-12


def test_msle_validates_inputs():
    with pytest.raises(ContractError):
        tr.msle(np.array([1.0]), np.array([1, 2]))
    with pytest.raises(EvaluationError):
        tr.msle(np.array([]), np.array([]))


def test_evaluate_requires_labels():
    train, _, _, schema = small_dataset()
    params = init_params(small_model(schema), 0)
    unlabeled = [EncodedSample(id="x", seq=train[0].seq, growth=None)]
    with pytest.raises(EvaluationError):
        tr.evaluate(params, unlabeled)
    with pytest.raises(EvaluationError):
        tr.evaluate(params, [])


# --------------------------------------------------------------- references


def counted(n: int, growth: int | None, widths=(4, 4)) -> EncodedSample:
    """A sample with n real slots, filled level by level, and the rest padding."""
    levels = []
    for width in widths:
        real = min(n, width)
        levels.append((SeqEntry(degree=1, bin=1, is_pad=False),) * real + (PAD,) * (width - real))
        n -= real
    return EncodedSample(id="s", seq=DegreeSequence(levels=tuple(levels)), growth=growth)


def test_reference_msles_hand_fixture():
    # x = log2(n+1) is 1, 1, 2, 2 and y = log2(G+1) is 0, 1, 2, 3: the mean is 1.5,
    # and the least-squares line is y = 2x - 1.5
    train = [counted(1, 0), counted(1, 1), counted(3, 3), counted(3, 7)]
    val = [counted(7, 15), counted(1, 0)]  # x 3 and 1, y 4 and 0
    test = [counted(3, 3)]  # x 2, y 2
    assert tr.reference_msles(train, val, test) == {
        "const": {"val": ((1.5 - 4) ** 2 + 1.5**2) / 2, "test": 0.25},
        "count_loglinear": {"val": ((4.5 - 4) ** 2 + 0.5**2) / 2, "test": 0.25},
    }
    assert tr.reference_msles(train, val, [])["count_loglinear"] == {"val": 0.25, "test": None}


def test_reference_line_falls_back_to_the_mean_when_all_counts_agree():
    train = [counted(2, 0), counted(2, 3)]  # y 0 and 2
    refs = tr.reference_msles(train, [counted(5, 1), counted(0, 7)], [])  # y 1 and 3
    assert refs["count_loglinear"] == refs["const"] == {"val": (0.0 + 2.0**2) / 2, "test": None}


def test_reference_msles_need_labels():
    with pytest.raises(EvaluationError, match="no growth label"):
        tr.reference_msles([counted(1, 0), counted(2, 1)], [counted(1, None)], [])


# ----------------------------------------------------------------- training


def test_train_learns_and_restores_best_state():
    train, val, _, schema = small_dataset()
    params, report = tr.train(train, val, fast_train_config(max_epochs=30), small_model(schema))
    assert report.epochs_run <= 30
    assert report.best_epoch >= 1
    assert report.val_msles[report.best_epoch - 1] == report.best_val_msle
    assert report.best_val_msle == min(report.val_msles)
    # the returned parameters are the best snapshot, not the last epoch
    assert tr.evaluate(params, val) == report.best_val_msle
    assert report.train_losses[-1] < report.train_losses[0]
    assert report.wall_time_sec > 0


def test_default_model_step_stays_within_tape_budget():
    # the benchmark's fit-small corpus: a 5-level schema, batches of 32
    pairs = generate_synthetic(200, (6, 18), 80, 1.0, seed=11, window_T=40)
    train, _, _, schema = tr.encode_split(pairs, bin_count=6, window_T=40, seed=11)
    assert schema.level_lengths == (8, 9, 3, 2, 1)
    mcfg = ModelConfig.from_schema(schema)
    params = init_params(mcfg, 0)
    batch = train[:32]
    degrees, bins = stack_sequences([s.seq for s in batch], mcfg.level_lengths)
    with Tape() as tape:
        loss(forward_batch(params, degrees, bins), np.array([s.growth for s in batch]), params)
    # the level embedding, the GRU, the conv, the head and the loss
    assert len(tape) <= 5


def test_patience_stops_after_no_improvement(monkeypatch):
    train, val, _, schema = small_dataset()
    fake_vals = iter([5.0, 4.0, 4.5, 4.6, 4.7, 4.8])
    monkeypatch.setattr(tr, "evaluate", lambda params, samples: next(fake_vals))
    params, report = tr.train(train, val, fast_train_config(max_epochs=50, patience=2), small_model(schema))
    assert report.epochs_run == 4  # epochs 3 and 4 fail to beat epoch 2
    assert report.best_epoch == 2
    assert report.best_val_msle == 4.0


def test_training_is_seed_deterministic():
    train, val, _, schema = small_dataset()
    p1, r1 = tr.train(train, val, fast_train_config(), small_model(schema))
    p2, r2 = tr.train(train, val, fast_train_config(), small_model(schema))
    assert r1.train_losses == r2.train_losses
    assert r1.val_msles == r2.val_msles
    np.testing.assert_array_equal(p1.buffer.values, p2.buffer.values)


def test_train_rejects_empty_sets():
    train, val, _, schema = small_dataset()
    with pytest.raises(ConfigError):
        tr.train([], val, fast_train_config(), small_model(schema))
    with pytest.raises(ConfigError):
        tr.train(train, [], fast_train_config(), small_model(schema))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(step_size=0.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(patience=0)


# --------------------------------------------------------------- prediction


def test_prediction_rows_match_evaluate_exactly(tmp_path):
    train, val, _, schema = small_dataset()
    params, _ = tr.train(train, val, fast_train_config(), small_model(schema))
    rows = tr.predict_rows(params, val)
    assert [r[0] for r in rows] == [s.id for s in val]
    for _, plog, pg in rows:
        assert pg == max(0.0, 2.0**plog - 1.0)

    path = tmp_path / "preds.csv"
    tr.write_predictions(path, rows)
    with open(path, newline="") as fh:
        back = [(r["id"], float(r["pred_log2"]), float(r["pred_growth"])) for r in csv.DictReader(fh)]
    assert back == rows  # repr serialization keeps every float bit
    assert tr.msle(np.array([r[1] for r in back]), np.array([s.growth for s in val])) == tr.evaluate(params, val)


def test_predictions_round_trip_ids_with_commas_and_quotes(tmp_path):
    rows = [("plain", 0.5, 0.41), ("a,b", 1.0, 1.0), ('say "hi"', -0.25, 0.0), ("'q',\"x\"", 2.0, 3.0)]
    path = tmp_path / "preds.csv"
    tr.write_predictions(path, rows)
    with open(path, newline="") as fh:
        got = [(r["id"], float(r["pred_log2"]), float(r["pred_growth"])) for r in csv.DictReader(fh)]
    assert got == rows
    assert path.read_text().splitlines()[:2] == ["id,pred_log2,pred_growth", "plain,0.5,0.41"]


def test_predict_rows_empty_is_empty():
    train, _, _, schema = small_dataset()
    params = init_params(small_model(schema), 0)
    assert tr.predict_rows(params, []) == []


# ------------------------------------------------------------- encode_split


def test_encode_split_partitions_and_labels():
    cascades = generate_synthetic(20, (6, 12), 80, 1.0, seed=1)
    train, val, test, schema = tr.encode_split(cascades, bin_count=3, window_T=40, seed=1)
    assert (len(train), len(val), len(test)) == (14, 3, 3)
    by_root = {c.root: c.growth for c in cascades}
    for s in train + val + test:
        assert s.growth == by_root[s.id]
    assert schema.window_T == 40
    assert schema.bin_count == 3


def test_schema_is_built_from_train_split_only():
    fit_small = generate_synthetic(200, (6, 18), 80, 1.0, seed=11, window_T=40)  # the benchmark corpus
    for cascades, bin_count, split_seed, cut in [
        (generate_synthetic(20, (6, 12), 80, 1.0, seed=1), 3, 1, None),
        (generate_synthetic(20, (6, 12), 80, 1.0, seed=1), 1, 4, None),
        (generate_synthetic(60, (6, 25), 120, 0.5, seed=3, window_T=40), 5, 2, None),
        (fit_small, 6, 11, (0, 0)),  # the benchmark's split
        (fit_small, 6, 6, (2, 1)),  # a split that cuts 2 val trees and 1 test tree
        (fit_small, 2, 6, (2, 1)),
    ]:
        train, val, test, schema = tr.encode_split(cascades, bin_count=bin_count, window_T=40, seed=split_seed)
        trees = {c.root: to_tree(c) for c in cascades}
        train_trees = [trees[s.id] for s in train]
        widths = [0] * schema.depth
        for t in train_trees:
            for k, lvl in enumerate(t.levels):
                widths[k] = max(widths[k], len(lvl))
        assert schema.level_lengths == tuple(widths)
        # every train tree fits the schema it sized, so encoding cuts none of them
        assert all(fits_schema(t, schema) for t in train_trees)
        # held-out samples may be clipped, but they always land in schema shape
        for s in val + test:
            assert tuple(len(lvl) for lvl in s.seq.levels) == schema.level_lengths
        if cut is not None:
            assert tuple(sum(not fits_schema(trees[s.id], schema) for s in part) for part in (val, test)) == cut


def test_encode_split_passes_through_missing_labels():
    cascades = generate_synthetic(12, (6, 10), 80, 1.0, seed=2)
    unlabeled = [dataclasses.replace(c, growth=None) for c in cascades]
    train, val, test, _ = tr.encode_split(unlabeled, bin_count=2, window_T=40, seed=0)
    assert all(s.growth is None for s in train + val + test)


# -------------------------------------------------------------------- sweep


def test_sweep_trains_per_bin_count():
    pairs = generate_synthetic(18, (6, 12), 80, 1.0, seed=3)
    rows = tr.sweep_time_interval(
        pairs, [2, 4], 40, fast_train_config(max_epochs=3),
        model_overrides=dict(embed_width=8, head_widths=(6,)),
    )
    assert [r.bins for r in rows] == [2, 4]
    assert all(np.isfinite(r.test_msle) for r in rows)


def test_sweep_needs_two_bin_counts():
    pairs = generate_synthetic(12, (6, 10), 80, 1.0, seed=4)
    with pytest.raises(ConfigError):
        tr.sweep_time_interval(pairs, [3], 40, fast_train_config())


def test_encode_trees_counts_truncated_trees():
    cascades = generate_synthetic(12, (6, 14), 80, 1.0, seed=4, window_T=40)
    trees = [to_tree(c) for c in cascades]
    narrow = schema_from_corpus(trees[:3], bin_count=3, window_T=40)
    samples, clipped = tr.encode_trees(trees, narrow)
    assert clipped == sum(not fits_schema(t, narrow) for t in trees) > 0
    assert [s.id for s in samples] == [c.root for c in cascades]
    assert [s.growth for s in samples] == [c.growth for c in cascades]
    assert all(tuple(map(len, s.seq.levels)) == narrow.level_lengths for s in samples)
    _, none_clipped = tr.encode_trees(trees[:3], narrow)  # the trees that sized the schema
    assert none_clipped == 0
