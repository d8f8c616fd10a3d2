"""Config resolution and the command line surface, end to end on tiny data."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cascadecite
from cascadecite import cascades as casc
from cascadecite import config as cf
from cascadecite import encoding as enc
from cascadecite.cli import main
from cascadecite.trees import to_tree
from cascadecite.errors import ConfigError, ParseError


# ------------------------------------------------------------------- config


def test_defaults_resolve_without_inputs():
    cfg = cf.resolve_config(None, None)
    assert cfg["window_days"] == 1095
    assert cfg["horizon"] == "end"
    assert cfg["bins"] == 6


def test_flags_beat_file_beats_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bins": 9, "seed": 4}))
    cfg = cf.resolve_config(path, {"seed": 7})
    assert cfg["bins"] == 9       # file beats default
    assert cfg["seed"] == 7       # flag beats file
    assert cfg["batch_size"] == 32  # untouched default


def test_window_years_converts_to_days(tmp_path):
    cfg = cf.resolve_config(None, {"window_years": 2.0})
    assert cfg["window_days"] == 730
    assert "window_years" not in cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"window_years": 3}))
    assert cf.resolve_config(path, None)["window_days"] == 1095


def test_conflicting_window_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"window_years": 2, "window_days": 100}))
    with pytest.raises(ConfigError, match="pick one"):
        cf.resolve_config(path, None)
    with pytest.raises(ConfigError):
        cf.resolve_config(None, {"window_years": 1.0, "window_days": 10})


def test_unknown_config_keys_listed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bin_count": 3}))
    with pytest.raises(ConfigError, match="bin_count"):
        cf.resolve_config(path, None)


@pytest.mark.parametrize("overrides, days", [
    ({"window_days": 0}, 0),
    ({"window_days": cf.MAX_WINDOW_DAYS + 1}, cf.MAX_WINDOW_DAYS + 1),
    ({"window_days": 10**400}, 10**400),
    ({"window_years": 1e300}, round(1e300 * cf.DAYS_PER_YEAR)),
], ids=["0 days", "one day past the bound", "10**400 days", "1e300 years"])
def test_window_days_lie_within_one_bound_after_years_resolve(overrides, days):
    with pytest.raises(ConfigError) as info:
        cf.resolve_config(None, overrides)
    assert str(info.value) == f"window_days must lie in [1, {cf.MAX_WINDOW_DAYS}], got {days}"
    assert cf.resolve_config(None, {"window_days": cf.MAX_WINDOW_DAYS})["window_days"] == cf.MAX_WINDOW_DAYS


def test_resolved_config_rereads_identically(tmp_path):
    cfg = cf.resolve_config(None, {"window_years": 1.5, "bins": 4})
    path = tmp_path / "resolved.json"
    path.write_text(json.dumps(cfg))
    assert cf.resolve_config(path, None) == cfg


def test_parse_horizon_forms():
    assert cf.parse_horizon("end") is None
    assert cf.parse_horizon(None) is None
    assert cf.parse_horizon(365) == 365
    for bad in ("soon", "25", 0, 2.5, True):
        with pytest.raises(ConfigError, match="'horizon'"):
            cf.parse_horizon(bad)


def test_horizon_flag_gives_a_day_count_or_end(tmp_path):
    args = ["synth", "--n", "2", "--size-min", "3", "--size-max", "4", "--synth-horizon", "20",
            "--window-days", "10"]
    for flag, resolved in (("25", 25), ("end", "end")):
        out = tmp_path / flag
        assert main([*args, "--horizon", flag, "--out", str(out)]) == 0
        assert json.loads((out / "synth_manifest.json").read_text())["config"]["horizon"] == resolved


def test_resolved_defaults_are_pinned():
    assert list(cf.resolve_config(None, None).items()) == [
        ("window_days", 1095), ("horizon", "end"), ("bins", 6), ("min_observed", 10),
        ("seed", 0), ("batch_size", 32), ("max_epochs", 1000), ("patience", 20),
        ("step_size", 0.005), ("alpha", 1.0), ("beta", 0.0001), ("embed_width", 32),
        ("pre_embed_depth", 2), ("conv_kernel", 2), ("conv_stride", 2), ("head_widths", [32, 16]),
        ("synth_n", 200), ("synth_size_min", 10), ("synth_size_max", 60),
        ("synth_horizon", 2200), ("attachment_bias", 1.0),
    ]


# ---------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny synth -> encode -> train run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    enc_dir = root / "enc"
    run = root / "run"
    args = ["synth", "--out", str(data), "--n", "30", "--size-min", "8",
            "--size-max", "20", "--synth-horizon", "300", "--window-days", "150",
            "--seed", "5"]
    assert main(args) == 0
    assert main(["encode", "--cascades", str(data / "cascades.jsonl"),
                 "--out", str(enc_dir), "--bins", "4", "--seed", "5"]) == 0
    assert main(["train", "--encoded-dir", str(enc_dir), "--out", str(run),
                 "--max-epochs", "8", "--seed", "5", "--embed-width", "8"]) == 0
    return root


def test_synth_writes_cascades_and_manifest(pipeline):
    data = pipeline / "data"
    assert (data / "cascades.jsonl").exists()
    manifest = json.loads((data / "synth_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 5
    assert manifest["config"]["window_days"] == 150
    assert str(data / "cascades.jsonl") in manifest["outputs"]


def test_stats_reports_per_split(pipeline):
    out = pipeline / "stats"
    assert main(["stats", "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--out", str(out), "--seed", "5"]) == 0
    doc = json.loads((out / "stats.json").read_text())
    assert set(doc) == {"train", "val", "test"}
    assert doc["train"]["cascade_count"] == 21
    assert 1.0 <= doc["train"]["avg_degree"] < 2.0


def test_encode_writes_schema_and_three_splits(pipeline):
    enc_dir = pipeline / "enc"
    schema = json.loads((enc_dir / "schema.json").read_text())
    assert schema["window_T"] == 150
    assert schema["bin_count"] == 4
    for name in ("train", "val", "test"):
        lines = (enc_dir / f"{name}.encoded.jsonl").read_text().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert [len(lvl) for lvl in rec["levels"]] == schema["level_lengths"]


@pytest.mark.parametrize("split_seed, truncated", [
    (11, {"val": 0, "test": 0}),  # the benchmark's split
    (6, {"val": 2, "test": 1}),
])
def test_encode_manifest_counts_samples_truncations_and_padding(tmp_path, split_seed, truncated):
    # the fit-small benchmark corpus: synth seed 11 is the overfit gate's 200 cascades
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "200", "--size-min", "6",
                 "--size-max", "18", "--synth-horizon", "80", "--window-days", "40",
                 "--seed", "11"]) == 0
    counters = []
    for name in ("a", "b"):
        assert main(["encode", "--cascades", str(data / "cascades.jsonl"), "--out",
                     str(tmp_path / name), "--bins", "6", "--seed", str(split_seed)]) == 0
        manifest = json.loads((tmp_path / name / "encode_manifest.json").read_text())
        counters.append(manifest["counters"])
    assert counters[0] == counters[1]  # deterministic, unlike the manifest's timestamps
    counters = counters[0]
    assert counters["truncated"] == truncated

    # recount from the written files and the cascades
    out = tmp_path / "a"
    schema = enc.load_schema(out / "schema.json")
    rows = {
        name: [json.loads(line) for line in (out / f"{name}.encoded.jsonl").read_text().splitlines()]
        for name in ("train", "val", "test")
    }
    assert counters["samples"] == {name: len(r) for name, r in rows.items()}
    assert sum(counters["samples"].values()) == 200
    trees = {c.root: to_tree(c) for c in casc.read_cascades_jsonl(data / "cascades.jsonl")}
    assert truncated == {
        name: sum(not enc.fits_schema(trees[r["id"]], schema) for r in rows[name])
        for name in ("val", "test")
    }
    assert len(counters["pad_fraction"]) == schema.depth
    for k, frac in enumerate(counters["pad_fraction"]):
        slots = [slot for r in (*rows["train"], *rows["val"], *rows["test"]) for slot in r["levels"][k]]
        assert frac == sum(b == enc.PAD_BIN for _, b in slots) / len(slots)
    assert 0.0 < min(counters["pad_fraction"]) <= max(counters["pad_fraction"]) < 1.0


def test_train_writes_checkpoint_metrics_report(pipeline):
    run = pipeline / "run"
    ck = json.loads((run / "checkpoint.json").read_text())
    assert "model_config" in ck and "schema" in ck and "arrays" in ck
    lines = (run / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_msle"
    assert len(lines) == 1 + json.loads((run / "report.json").read_text())["epochs_run"]


def test_train_report_holds_the_reference_msles(pipeline):
    report = json.loads((pipeline / "run" / "report.json").read_text())
    refs = report["reference_msle"]
    assert list(refs) == ["const", "count_loglinear"]
    for name, scores in refs.items():
        assert list(scores) == ["val", "test"]
        assert all(type(v) is float and v >= 0.0 for v in scores.values()), name


def test_train_manifest_lists_the_test_split_when_it_exists(pipeline, tmp_path):
    enc_dir = pipeline / "enc"
    inputs = json.loads((pipeline / "run" / "train_manifest.json").read_text())["inputs"]
    test_path = str(enc_dir / "test.encoded.jsonl")
    assert inputs[test_path] == cf.file_digest(test_path)
    assert set(inputs) == {str(enc_dir / n) for n in (
        "schema.json", "train.encoded.jsonl", "val.encoded.jsonl", "test.encoded.jsonl")}
    no_test = tmp_path / "enc"
    shutil.copytree(enc_dir, no_test)
    (no_test / "test.encoded.jsonl").unlink()
    assert main(["train", "--encoded-dir", str(no_test), "--out", str(tmp_path / "run"),
                 "--max-epochs", "1", "--seed", "5", "--embed-width", "8"]) == 0
    inputs = json.loads((tmp_path / "run" / "train_manifest.json").read_text())["inputs"]
    assert set(inputs) == {str(no_test / n) for n in (
        "schema.json", "train.encoded.jsonl", "val.encoded.jsonl")}


def test_a_diverging_run_prints_one_json_line_and_writes_no_checkpoint(pipeline, tmp_path):
    out = tmp_path / "run"
    run = _run_module("train", "--encoded-dir", pipeline / "enc", "--out", out,
                      "--step-size", "1e200", "--max-epochs", "3", "--batch-size", "8", "--embed-width", "8")
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1, lines  # no NumPy overflow warnings before it
    err = json.loads(lines[0])
    assert (err["error"], err["message"], err["details"]["epoch"]) == (
        "TrainingDivergedError", "non-finite loss at epoch 1", 1)
    train_rows = (pipeline / "enc" / "train.encoded.jsonl").read_text().splitlines()
    train_ids = {json.loads(line)["id"] for line in train_rows}
    assert err["details"]["batch_ids"] and set(err["details"]["batch_ids"]) <= train_ids
    arrays = json.loads((pipeline / "run" / "checkpoint.json").read_text())["arrays"]
    assert list(err["details"]["param_norms"]) == list(arrays)
    assert not (out / "checkpoint.json").exists()


def test_eval_accepts_encoded_and_raw_inputs(pipeline):
    run = pipeline / "run"
    enc_dir = pipeline / "enc"
    out1 = pipeline / "ev1"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--encoded", str(enc_dir / "test.encoded.jsonl"),
                 "--schema", str(enc_dir / "schema.json"), "--out", str(out1)]) == 0
    doc1 = json.loads((out1 / "eval.json").read_text())
    assert doc1["count"] == 4
    # the same corpus fed as raw cascades gets re-encoded against the
    # checkpoint schema; held-out trees may clip, so just require success
    out2 = pipeline / "ev2"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                 "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--out", str(out2)]) == 0
    assert json.loads((out2 / "eval.json").read_text())["count"] == 30


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_an_encoded_row_that_misfits_the_schema_fails_naming_its_file_and_line(pipeline, tmp_path, capsys, command):
    enc_dir = tmp_path / "enc"
    shutil.copytree(pipeline / "enc", enc_dir)
    path = enc_dir / "test.encoded.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    width = len(rows[1]["levels"][0])
    del rows[1]["levels"][0][-1]  # row 2 loses one slot of its first level
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    if command == "train":
        argv = ["train", "--encoded-dir", str(enc_dir), "--max-epochs", "1", "--embed-width", "8"]
    else:
        argv = [command, "--checkpoint", str(pipeline / "run" / "checkpoint.json"), "--encoded", str(path),
                "--schema", str(enc_dir / "schema.json")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert _only_error_line(capsys) == {
        "error": "ShapeError",
        "message": f"{path} line 2: level 1 holds {width - 1} entries, schema wants {width}",
        "details": {},
    }


@pytest.mark.parametrize("slot", [[2, 99], [10**400, 1], [2, 2**63]], ids=["bin 99", "degree 10**400", "bin 2**63"])
@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_an_encoded_slot_the_model_cannot_take_fails_naming_its_file_and_line(pipeline, tmp_path, capsys,
                                                                              command, slot):
    enc_dir = tmp_path / "enc"
    shutil.copytree(pipeline / "enc", enc_dir)
    path = enc_dir / f"{'val' if command == 'train' else 'test'}.encoded.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[1]["levels"][0][0] = slot
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    if command == "train":
        argv = ["train", "--encoded-dir", str(enc_dir), "--max-epochs", "1", "--embed-width", "8"]
    else:
        argv = [command, "--checkpoint", str(pipeline / "run" / "checkpoint.json"), "--encoded", str(path),
                "--schema", str(enc_dir / "schema.json")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = _only_error_line(capsys)
    assert err["error"] == "ParseError"
    assert err["message"].startswith(f"{path} line 2: slot {slot!r} is neither [0, 0] nor")
    assert err["message"].endswith("1 <= bin <= 4")
    assert not (tmp_path / "out" / "checkpoint.json").exists()


def test_predict_writes_csv(pipeline):
    run = pipeline / "run"
    out = pipeline / "pred"
    assert main(["predict", "--checkpoint", str(run / "checkpoint.json"),
                 "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "id,pred_log2,pred_growth"
    assert len(lines) == 31


def test_raw_cascade_predict_logs_truncated_trees(pipeline, tmp_path, caplog):
    # a 60-citer star is wider at level 1 than any tree the schema was built on
    wide = {"root": "w", "root_time": 0, "window_T": 150, "label": None,
            "nodes": [{"id": f"w{i}", "t": i, "parents": ["w"]} for i in range(1, 61)]}
    src = tmp_path / "wide.jsonl"
    src.write_text(json.dumps(wide) + "\n")
    assert main(["predict", "--checkpoint", str(pipeline / "run" / "checkpoint.json"),
                 "--cascades", str(src), "--out", str(tmp_path / "pred")]) == 0
    assert "schema truncation applied to 1 of 1 trees" in caplog.text


def test_probe_runs_with_and_without_checkpoint(pipeline):
    data = pipeline / "data" / "cascades.jsonl"
    out = pipeline / "probe_raw"
    assert main(["probe", "--cascades", str(data), "--out", str(out),
                 "--bins", "4", "--seed", "5"]) == 0
    doc = json.loads((out / "probe.json").read_text())
    assert set(doc["mse"]) == {"edges", "max_path", "ave_path", "leaves", "ave_degree"}
    header = (out / "probe.csv").read_text().splitlines()[0]
    assert header == "edges,max_path,ave_path,leaves,ave_degree"

    out2 = pipeline / "probe_decayed"
    assert main(["probe", "--cascades", str(data), "--out", str(out2),
                 "--checkpoint", str(pipeline / "run" / "checkpoint.json"),
                 "--decayed", "--seed", "5"]) == 0


def test_probe_on_a_checkpoint_logs_truncated_trees(pipeline, tmp_path, caplog):
    # stars of 56 to 60 citers are wider at level 1 than any tree the schema was built on
    src = tmp_path / "wide.jsonl"
    src.write_text("".join(
        json.dumps({"root": f"w{n}", "root_time": 0, "window_T": 150, "label": None,
                    "nodes": [{"id": f"w{n}.{i}", "t": i, "parents": [f"w{n}"]} for i in range(1, n + 1)]}) + "\n"
        for n in range(56, 61)
    ))
    assert main(["probe", "--checkpoint", str(pipeline / "run" / "checkpoint.json"),
                 "--cascades", str(src), "--out", str(tmp_path / "probe"), "--seed", "5"]) == 0
    assert "schema truncation applied to 5 of 5 trees" in caplog.text


def test_sweep_writes_one_row_per_bin_count(pipeline):
    out = pipeline / "sweep"
    assert main(["sweep", "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--bins-list", "2,3", "--out", str(out), "--max-epochs", "2",
                 "--seed", "5", "--embed-width", "8"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "bins,test_msle"
    assert [l.split(",")[0] for l in lines[1:]] == ["2", "3"]


def test_each_manifest_lists_exactly_the_files_its_command_wrote(pipeline, tmp_path):
    edges, dates = tmp_path / "edges.tsv", tmp_path / "dates.tsv"
    edges.write_text("".join(f"c{i}\tr\n" for i in range(3)))
    dates.write_text("r\t2000-01-01\n" + "".join(f"c{i}\t2000-02-0{i + 1}\n" for i in range(3)))
    data, ckpt = pipeline / "data" / "cascades.jsonl", pipeline / "run" / "checkpoint.json"
    fit = ["--max-epochs", "1", "--embed-width", "8"]
    commands = {
        "synth": ["--n", "5", "--size-min", "3", "--size-max", "5", "--synth-horizon", "20", "--window-days", "10"],
        "ingest": ["--edges", edges, "--dates", dates, "--min-observed", "1"],
        "stats": ["--cascades", data],
        "encode": ["--cascades", data, "--bins", "4", "--dump-trees"],
        "train": ["--encoded-dir", pipeline / "enc", *fit],
        "eval": ["--checkpoint", ckpt, "--cascades", data],
        "predict": ["--checkpoint", ckpt, "--encoded", pipeline / "enc" / "test.encoded.jsonl",
                    "--schema", pipeline / "enc" / "schema.json"],
        "probe": ["--cascades", data, "--checkpoint", ckpt, "--decayed"],
        "sweep": ["--cascades", data, "--bins-list", "2,3", *fit],
    }
    for command, extra in commands.items():
        out = tmp_path / command / ("a/b/c" if command == "stats" else "")  # a nested --out is made whole
        assert main([command, *map(str, extra), "--out", str(out)]) == 0, command
        manifest = out / f"{command}_manifest.json"
        outputs = json.loads(manifest.read_text())["outputs"]
        assert sorted(outputs) == sorted(str(p) for p in out.iterdir() if p != manifest), command


# ------------------------------------------------------------- error paths


def _unlabeled_copy(src: Path, dst: Path) -> Path:
    """`src`, a cascades or encoded JSONL file, with every label null."""
    rows = [{**json.loads(line), "label": None} for line in src.read_text().splitlines()]
    dst.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return dst


def _unlabeled_message(path: Path) -> str:
    first = json.loads(path.read_text().splitlines()[0])
    rid = first["id"] if "id" in first else first["root"]
    return f"{path}: {rid!r} has no growth label; train, eval and sweep need one on every row"


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_train_refuses_an_unlabeled_split_before_training(pipeline, tmp_path, capsys, monkeypatch, split):
    enc_dir = tmp_path / "enc"
    shutil.copytree(pipeline / "enc", enc_dir)
    path = _unlabeled_copy(enc_dir / f"{split}.encoded.jsonl", enc_dir / f"{split}.encoded.jsonl")
    monkeypatch.setattr("cascadecite.cli.train", lambda *a, **k: pytest.fail("train ran"))
    assert main(["train", "--encoded-dir", str(enc_dir), "--out", str(tmp_path / "run"),
                 "--max-epochs", "1", "--embed-width", "8"]) == 1
    assert _only_error_line(capsys) == {"error": "EvaluationError", "message": _unlabeled_message(path), "details": {}}
    assert not (tmp_path / "run" / "checkpoint.json").exists()


@pytest.mark.parametrize("source", ["cascades", "encoded"])
def test_eval_refuses_unlabeled_input_naming_the_file(pipeline, tmp_path, capsys, source):
    if source == "cascades":
        path = _unlabeled_copy(pipeline / "data" / "cascades.jsonl", tmp_path / "cascades.jsonl")
        inputs = ["--cascades", str(path)]
    else:
        path = _unlabeled_copy(pipeline / "enc" / "test.encoded.jsonl", tmp_path / "test.encoded.jsonl")
        inputs = ["--encoded", str(path), "--schema", str(pipeline / "enc" / "schema.json")]
    assert main(["eval", "--checkpoint", str(pipeline / "run" / "checkpoint.json"), *inputs,
                 "--out", str(tmp_path / "ev")]) == 1
    assert _only_error_line(capsys) == {"error": "EvaluationError", "message": _unlabeled_message(path), "details": {}}
    assert not (tmp_path / "ev" / "eval.json").exists()


def test_sweep_refuses_unlabeled_cascades_naming_the_file(pipeline, tmp_path, capsys, monkeypatch):
    path = _unlabeled_copy(pipeline / "data" / "cascades.jsonl", tmp_path / "cascades.jsonl")
    monkeypatch.setattr("cascadecite.cli.sweep_time_interval", lambda *a, **k: pytest.fail("sweep ran"))
    assert main(["sweep", "--cascades", str(path), "--bins-list", "2,3", "--out", str(tmp_path / "sweep")]) == 1
    assert _only_error_line(capsys) == {"error": "EvaluationError", "message": _unlabeled_message(path), "details": {}}


@pytest.mark.parametrize("command, extra", [
    ("predict", ["--checkpoint", "run/checkpoint.json"]), ("probe", ["--bins", "4"]), ("stats", []), ("encode", []),
])
def test_commands_that_score_nothing_take_unlabeled_cascades(pipeline, tmp_path, command, extra):
    path = _unlabeled_copy(pipeline / "data" / "cascades.jsonl", tmp_path / "cascades.jsonl")
    extra = [str(pipeline / a) if a.endswith(".json") else a for a in extra]
    assert main([command, "--cascades", str(path), "--out", str(tmp_path / "out"), *extra]) == 0


@pytest.mark.parametrize("usable", [0, 3])
@pytest.mark.parametrize("with_checkpoint", [False, True], ids=["raw", "checkpoint"])
def test_probe_refuses_too_few_cascades_with_a_citer_in_one_way(pipeline, tmp_path, capsys, usable, with_checkpoint):
    path = tmp_path / "cascades.jsonl"
    docs = [{"root": f"r{i}", "root_time": 0, "window_T": 150, "nodes": [], "label": None} for i in range(8)]
    docs += [{"root": f"u{i}", "root_time": 0, "window_T": 150, "label": None,
              "nodes": [{"id": f"u{i}.1", "t": 1, "parents": [f"u{i}"]}]} for i in range(usable)]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    extra = ["--checkpoint", str(pipeline / "run" / "checkpoint.json")] if with_checkpoint else []
    assert main(["probe", "--cascades", str(path), "--out", str(tmp_path / "probe"), *extra]) == 1
    assert _only_error_line(capsys) == {
        "error": "ConfigError",
        "message": f"probe needs at least 5 cascades with a citer; {path} holds {usable} besides 8 root-only cascades",
        "details": {},
    }


def test_schema_mismatch_is_reported_as_json(pipeline, tmp_path, capsys):
    # re-encode the same corpus with a different bin count, then evaluate
    other = tmp_path / "enc2"
    assert main(["encode", "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--out", str(other), "--bins", "2", "--seed", "5"]) == 0
    code = main(["eval", "--checkpoint", str(pipeline / "run" / "checkpoint.json"),
                 "--encoded", str(other / "test.encoded.jsonl"),
                 "--schema", str(other / "schema.json"), "--out", str(tmp_path / "ev")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SchemaMismatchError"
    assert any("bin_count" in d for d in err["details"]["diff"])


@pytest.mark.parametrize("extra", [[], ["--decayed"]], ids=["raw", "decayed"])
def test_probe_refuses_cascades_of_another_window_as_predict_does(pipeline, tmp_path, capsys, extra):
    # the checkpoint's decay is indexed by bins cut on its 150-day window
    assert main(["synth", "--out", str(tmp_path / "data"), "--n", "20", "--size-min", "6", "--size-max", "12",
                 "--synth-horizon", "80", "--window-days", "40", "--seed", "5"]) == 0
    capsys.readouterr()
    inputs = ["--checkpoint", str(pipeline / "run" / "checkpoint.json"),
              "--cascades", str(tmp_path / "data" / "cascades.jsonl")]
    assert main(["predict", *inputs, "--out", str(tmp_path / "pred")]) == 1
    expected = _only_error_line(capsys)
    assert expected == {
        "error": "SchemaMismatchError",
        "message": "cascades use window 40 but checkpoint was trained on 150",
        "details": {"expected_window": 150, "got_window": 40},
    }
    assert main(["probe", *inputs, *extra, "--out", str(tmp_path / "probe")]) == 1
    assert _only_error_line(capsys) == expected
    assert not (tmp_path / "probe" / "probe.json").exists()


def _nodes_of(doc: dict, times: list[int], observed: int | None = None) -> dict:
    doc = {**doc, "nodes": [{"id": f"n{i}", "t": t, "parents": [doc["root"]]} for i, t in enumerate(times)]}
    doc["label"] = {"observed": len(times) if observed is None else observed, "growth": 3}
    return doc


@pytest.mark.parametrize("command", ["stats", "encode"])
@pytest.mark.parametrize("times, observed, message", [
    (list(range(1, 11)), 999, "label observed 999 is not the node count 10"),
    ([1, 2, 500], None, "node 'n2' time 500 lies outside [1, 150)"),
], ids=["observed 999 for 10 nodes", "time 500 in a 150-day window"])
def test_cascades_that_contradict_themselves_fail_with_a_json_error(tmp_path, capsys, command, times, observed,
                                                                    message):
    good = _nodes_of({"root": "r", "root_time": 0, "window_T": 150}, [1, 2, 3])
    path = tmp_path / "cascades.jsonl"
    bad = _nodes_of({**good, "root": "q"}, times, observed)
    path.write_text("".join(json.dumps(doc) + "\n" for doc in (good, good, bad, good)))
    assert main([command, "--cascades", str(path), "--out", str(tmp_path / "out")]) == 1
    assert _only_error_line(capsys) == {"error": "ParseError", "message": f"{path} line 3: {message}",
                                        "details": {}}


@pytest.mark.parametrize("command", ["probe", "stats", "encode"])
def test_a_record_that_to_tree_would_refuse_fails_with_a_json_error_naming_its_line(tmp_path, capsys, command):
    good = _nodes_of({"root": "r", "root_time": 0, "window_T": 150}, [1, 2, 3])
    bad = {**good, "root": "q", "nodes": [{"id": "a", "t": 4, "parents": ["q", "x"]}]}
    path = tmp_path / "cascades.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in (good, good, bad, good)))
    assert main([command, "--cascades", str(path), "--out", str(tmp_path / "out")]) == 1
    assert _only_error_line(capsys) == {
        "error": "ParseError", "message": f"{path} line 3: node 'a' lists unknown parent candidate 'x'",
        "details": {},
    }


@pytest.mark.parametrize("command", ["stats", "encode"])
def test_a_negative_growth_label_fails_with_a_json_error_naming_its_line(tmp_path, capsys, command):
    doc = _nodes_of({"root": "r", "root_time": 0, "window_T": 150}, [1])
    doc["label"]["growth"] = -3
    path = tmp_path / "cascades.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    message = f"{path} line 1: label growth must be >= 0, got -3"
    with pytest.raises(ParseError) as err:
        casc.read_cascades_jsonl(path)
    assert str(err.value) == message
    assert main([command, "--cascades", str(path), "--out", str(tmp_path / "out")]) == 1
    assert _only_error_line(capsys) == {"error": "ParseError", "message": message, "details": {}}


def test_eval_needs_some_input(pipeline, tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(pipeline / "run" / "checkpoint.json"),
                 "--out", str(tmp_path / "ev")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"


def test_encoded_eval_requires_schema_file(pipeline, tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(pipeline / "run" / "checkpoint.json"),
                 "--encoded", str(pipeline / "enc" / "test.encoded.jsonl"),
                 "--out", str(tmp_path / "ev")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ConfigError"


def test_bad_config_file_fails_with_json_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"made_up": 1}))
    code = main(["synth", "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "made_up" in err["message"]


def _run_module(*argv) -> subprocess.CompletedProcess:
    """`python -m cascadecite *argv` in a child process, which finds the
    package where this process imported it from."""
    src = str(Path(cascadecite.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cascadecite", *map(str, argv)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def _only_error_line(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


@pytest.mark.parametrize("bad", [
    {"seed": "abc"}, {"window_years": "x"}, {"head_widths": "32"}, {"embed_width": 2.5},
    {"max_epochs": True}, {"bins": "6"}, {"alpha": "1e-3"}, {"step_size": float("nan")},
    {"window_years": float("inf")},
], ids=lambda bad: json.dumps(bad))
def test_bad_config_values_fail_with_a_json_error_naming_the_key(pipeline, tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_epochs": 1, "embed_width": 8, **bad}))
    code = main(["train", "--encoded-dir", str(pipeline / "enc"), "--out", str(tmp_path / "run"),
                 "--config", str(cfg)])
    assert code == 1
    err = _only_error_line(capsys)
    assert err["error"] == "ConfigError"
    assert f"'{next(iter(bad))}'" in err["message"]


@pytest.mark.parametrize("command, extra, kind, message", [
    ("encode", ["--bins", "0"], "SchemaError", "bin_count must be >= 1, got 0"),
    ("probe", ["--bins", "0"], "SchemaError", "bin_count must be >= 1, got 0"),
    ("sweep", ["--bins-list", "0,2"], "SchemaError", "bin_count must be >= 1, got 0"),
    ("sweep", ["--bins-list", "2,x"], "ConfigError", "--bins-list entry 'x' is not an integer"),
])
def test_bad_bin_counts_fail_with_a_json_error(pipeline, tmp_path, capsys, command, extra, kind, message):
    code = main([command, "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--out", str(tmp_path / "out"), *extra])
    assert code == 1
    assert _only_error_line(capsys) == {"error": kind, "message": message, "details": {}}


def _truncated(doc_text: str) -> str:
    return doc_text[: len(doc_text) // 2]


def _edited(edit):
    def damage(doc_text: str) -> str:
        doc = json.loads(doc_text)
        edit(doc)
        return json.dumps(doc)
    return damage


def _head_b2_as(literal: str):
    """The checkpoint with the first value of its head_b2 array written as `literal`."""
    def damage(doc_text: str) -> str:
        doc = json.loads(doc_text)
        doc["arrays"]["head_b2"]["values"][0] = "<value>"
        return json.dumps(doc).replace('"<value>"', literal)
    return damage


@pytest.mark.parametrize("file,damage", [
    ("checkpoint.json", _truncated),
    ("checkpoint.json", _edited(lambda d: d.pop("arrays"))),
    ("checkpoint.json", _edited(lambda d: d["model_config"].pop("level_lengths"))),
    ("checkpoint.json", _edited(lambda d: d["schema"].update(bin_edges=[0.0, 150.0]))),
    ("checkpoint.json", _head_b2_as("NaN")),
    ("checkpoint.json", _head_b2_as("Infinity")),
    ("checkpoint.json", _head_b2_as("1e400")),
    ("schema.json", _truncated),
    ("schema.json", _edited(lambda d: d.update(bin_count="four"))),
    ("schema.json", _edited(lambda d: d["bin_edges"].pop())),
], ids=["truncated checkpoint", "checkpoint without arrays", "model config without level_lengths",
        "checkpoint schema with too few bin edges", "checkpoint value NaN", "checkpoint value Infinity",
        "checkpoint value 1e400",
        "truncated schema", "schema with a word for bin_count", "schema with too few bin edges"])
def test_malformed_checkpoint_or_schema_fails_with_json_error(pipeline, tmp_path, capsys, file, damage):
    ckpt, enc_dir = pipeline / "run" / "checkpoint.json", pipeline / "enc"
    if file == "schema.json":
        shutil.copytree(enc_dir, tmp_path / "enc")
        bad = tmp_path / "enc" / file
        bad.write_text(damage((enc_dir / file).read_text()))
        argv = ["train", "--encoded-dir", str(bad.parent), "--out", str(tmp_path / "o")]
        kind = "ParseError"
    else:
        bad = tmp_path / file
        bad.write_text(damage(ckpt.read_text()))
        argv = ["eval", "--checkpoint", str(bad), "--encoded", str(enc_dir / "test.encoded.jsonl"),
                "--schema", str(enc_dir / "schema.json"), "--out", str(tmp_path / "o")]
        kind = "CheckpointError"
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == kind
    assert str(bad) in err["message"]


@pytest.mark.parametrize("key, edit", [
    ("bin_count", lambda s: s.update(bin_count=3, bin_edges=list(enc.uniform_bin_edges(3, s["window_T"])))),
    ("level_lengths", lambda s: s.update(level_lengths=[*s["level_lengths"][:-1], s["level_lengths"][-1] + 1])),
], ids=["3 bins", "a longer last level"])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_a_checkpoint_whose_schema_disagrees_with_its_model_config_fails_naming_both(pipeline, tmp_path, capsys,
                                                                                     command, key, edit):
    doc = json.loads((pipeline / "run" / "checkpoint.json").read_text())
    edit(doc["schema"])
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(doc))
    code = main([command, "--checkpoint", str(bad), "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    ours, theirs = doc["model_config"][key], doc["schema"][key]
    assert _only_error_line(capsys) == {
        "error": "CheckpointError",
        "message": f"{bad}: model_config {key} {ours} disagrees with schema {key} {theirs}",
        "details": {},
    }
    assert [*(tmp_path / "out").iterdir()] == []


@pytest.mark.parametrize("key, bad_value, kind", [
    ("embed_width", lambda v: float(v), "an integer"),
    ("conv_stride", lambda v: float(v), "an integer"),
    ("bin_count", lambda v: True, "an integer"),
    ("level_lengths", lambda v: [float(v[0]), *v[1:]], "a list of integers"),
    ("head_widths", lambda v: [*v[:-1], v[-1] + 0.5], "a list of integers"),
    ("alpha", lambda v: "1.0", "a finite number"),
], ids=["embed_width 8.0", "conv_stride 2.0", "bin_count true", "float level length", "float head width",
        "alpha a string"])
def test_checkpoint_model_config_takes_only_its_json_types(pipeline, tmp_path, capsys, key, bad_value, kind):
    doc = json.loads((pipeline / "run" / "checkpoint.json").read_text())
    value = doc["model_config"][key] = bad_value(doc["model_config"][key])
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(doc))
    code = main(["predict", "--checkpoint", str(bad), "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--out", str(tmp_path / "pred")])
    assert code == 1
    assert _only_error_line(capsys) == {
        "error": "CheckpointError",
        "message": f"{bad}: config key {key!r} must be {kind}, got {value!r}",
        "details": {},
    }


def test_checkpoint_values_take_only_json_numbers(pipeline, tmp_path, capsys):
    doc = json.loads((pipeline / "run" / "checkpoint.json").read_text())
    name = next(iter(doc["arrays"]))
    doc["arrays"][name]["values"][-1] = None
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(doc))
    code = main(["predict", "--checkpoint", str(bad), "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--out", str(tmp_path / "pred")])
    assert code == 1
    assert _only_error_line(capsys) == {
        "error": "CheckpointError",
        "message": f"{bad}: array {name!r}: values must be JSON numbers, got None",
        "details": {},
    }


@pytest.mark.parametrize("command, seed", [("synth", "-1"), ("encode", "-2")])
def test_negative_seed_fails_with_a_json_error(pipeline, tmp_path, capsys, command, seed):
    inputs = ["--cascades", str(pipeline / "data" / "cascades.jsonl")] if command == "encode" else []
    assert main([command, *inputs, "--seed", seed, "--out", str(tmp_path / "out")]) == 1
    assert _only_error_line(capsys) == {
        "error": "ConfigError", "message": f"config key 'seed' must be >= 0, got {seed}", "details": {},
    }


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    code = main(["stats", "--cascades", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FileNotFoundError"


def test_mixed_window_corpora_are_rejected(tmp_path, capsys):
    from cascadecite.cascades import generate_synthetic, write_cascades_jsonl
    a = generate_synthetic(3, (4, 6), 50, 1.0, seed=0, window_T=20)
    b = generate_synthetic(3, (4, 6), 50, 1.0, seed=1, window_T=25)
    path = tmp_path / "mixed.jsonl"
    write_cascades_jsonl(path, a + b)
    code = main(["encode", "--cascades", str(path), "--out", str(tmp_path / "e")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "mixed windows" in err["message"]


@pytest.mark.parametrize("command, extra", [
    ("encode", []), ("probe", []), ("sweep", ["--bins-list", "2"]),
    ("eval", ["--checkpoint", "run/checkpoint.json"]), ("stats", []),
])
def test_empty_cascade_file_is_reported_as_holding_no_cascades(pipeline, tmp_path, capsys, command, extra):
    path = tmp_path / "cascades.jsonl"
    path.write_text("")
    extra = [str(pipeline / a) if a.endswith(".json") else a for a in extra]
    code = main([command, "--cascades", str(path), "--out", str(tmp_path / "out"), *extra])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (err["error"], err["message"]) == ("ParseError", f"{path} holds no cascades")


@pytest.mark.parametrize("command, extra", [
    ("encode", []), ("probe", []), ("sweep", ["--bins-list", "2"]), ("stats", []),
    ("eval", ["--checkpoint", "run/checkpoint.json"]), ("predict", ["--checkpoint", "run/checkpoint.json"]),
])
def test_a_repeated_cascade_root_is_refused_naming_the_file_and_root(pipeline, tmp_path, capsys, command, extra):
    lines = (pipeline / "data" / "cascades.jsonl").read_text().splitlines(keepends=True)
    path = tmp_path / "cascades.jsonl"
    path.write_text("".join([*lines, lines[0]]))
    extra = [str(pipeline / a) if a.endswith(".json") else a for a in extra]
    assert main([command, "--cascades", str(path), "--out", str(tmp_path / "out"), *extra]) == 1
    assert _only_error_line(capsys) == {
        "error": "ParseError", "message": f"{path} holds cascade root 's00000' more than once", "details": {},
    }


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_a_repeated_encoded_id_is_refused_naming_the_file_and_id(pipeline, tmp_path, capsys, command):
    enc_dir = tmp_path / "enc"
    shutil.copytree(pipeline / "enc", enc_dir)
    path = enc_dir / "test.encoded.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines, lines[0]]))
    if command == "train":
        argv = ["train", "--encoded-dir", str(enc_dir), "--max-epochs", "1", "--embed-width", "8"]
    else:
        argv = [command, "--checkpoint", str(pipeline / "run" / "checkpoint.json"), "--encoded", str(path),
                "--schema", str(enc_dir / "schema.json")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    sid = json.loads(lines[0])["id"]
    assert _only_error_line(capsys) == {
        "error": "ParseError", "message": f"{path} holds encoded id {sid!r} more than once", "details": {},
    }


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_an_empty_encoded_file_is_refused_naming_it(pipeline, tmp_path, capsys, command):
    path = tmp_path / "test.encoded.jsonl"
    path.write_text("")
    assert main([command, "--checkpoint", str(pipeline / "run" / "checkpoint.json"), "--encoded", str(path),
                 "--schema", str(pipeline / "enc" / "schema.json"), "--out", str(tmp_path / "out")]) == 1
    assert _only_error_line(capsys) == {
        "error": "ParseError", "message": f"{path} holds no encoded rows", "details": {},
    }
    assert not (tmp_path / "out" / f"{command}_manifest.json").exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_cascades_and_encoded_inputs_together_are_refused(pipeline, tmp_path, capsys, command):
    enc_dir = pipeline / "enc"
    assert main([command, "--checkpoint", str(pipeline / "run" / "checkpoint.json"),
                 "--cascades", str(pipeline / "data" / "cascades.jsonl"),
                 "--encoded", str(enc_dir / "test.encoded.jsonl"), "--schema", str(enc_dir / "schema.json"),
                 "--out", str(tmp_path / "out")]) == 1
    assert _only_error_line(capsys) == {
        "error": "ConfigError", "message": "pass --cascades FILE or --encoded FILE, not both", "details": {},
    }
    assert not (tmp_path / "out" / f"{command}_manifest.json").exists()


def test_stats_refuses_mixed_windows_as_encode_does(tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    casc.write_cascades_jsonl(path, [*casc.generate_synthetic(3, (4, 6), 50, 1.0, seed=0, window_T=20),
                                     *casc.generate_synthetic(3, (4, 6), 50, 1.0, seed=1, window_T=25)])
    for command in ("encode", "stats"):
        assert main([command, "--cascades", str(path), "--out", str(tmp_path / command)]) == 1
        assert _only_error_line(capsys) == {
            "error": "ConfigError", "message": "cascades carry mixed windows [20, 25]; re-ingest consistently",
            "details": {},
        }
    assert not (tmp_path / "stats" / "stats.json").exists()


def test_an_oversized_window_fails_at_ingest_and_at_each_cascade_read(tmp_path, capsys):
    edges, dates = tmp_path / "edges.tsv", tmp_path / "dates.tsv"
    edges.write_text("b\ta\n")
    dates.write_text("a\t2000-01-01\nb\t2000-02-01\n")
    huge = 10**400
    assert main(["ingest", "--edges", str(edges), "--dates", str(dates), "--window-days", str(huge),
                 "--min-observed", "1", "--out", str(tmp_path / "ingest")]) == 1
    assert _only_error_line(capsys) == {
        "error": "ConfigError", "message": f"window_days must lie in [1, {cf.MAX_WINDOW_DAYS}], got {huge}",
        "details": {},
    }
    assert not (tmp_path / "ingest" / "cascades.jsonl").exists()

    path = tmp_path / "cascades.jsonl"  # as written before the bound: one cascade with that window
    path.write_text(json.dumps({"root": "a", "root_time": 0, "window_T": huge,
                                "nodes": [{"id": "b", "t": 31, "parents": ["a"]}], "label": None}) + "\n")
    for command in ("encode", "probe"):
        assert main([command, "--cascades", str(path), "--out", str(tmp_path / command)]) == 1
        assert _only_error_line(capsys) == {
            "error": "ParseError",
            "message": f"{path} line 1: window_T {huge} lies outside [1, {cf.MAX_WINDOW_DAYS}]",
            "details": {},
        }


@pytest.mark.parametrize("command, extra", [
    ("encode", ["--bins", "41"]), ("probe", ["--bins", "41"]), ("sweep", ["--bins-list", "41,2"]),
])
def test_more_bins_than_days_in_the_window_fail_with_a_json_error(tmp_path, capsys, command, extra):
    path = tmp_path / "cascades.jsonl"
    casc.write_cascades_jsonl(path, casc.generate_synthetic(12, (4, 8), 80, 1.0, seed=3, window_T=40))
    assert main([command, "--cascades", str(path), "--out", str(tmp_path / "out"), *extra]) == 1
    assert _only_error_line(capsys) == {
        "error": "SchemaError", "message": "bin_count 41 exceeds the 40-day window; bins are at least a day wide",
        "details": {},
    }
    assert main(["encode", "--cascades", str(path), "--out", str(tmp_path / "ok"), "--bins", "40"]) == 0
    assert json.loads((tmp_path / "ok" / "schema.json").read_text())["bin_count"] == 40


# ------------------------------------------------------------------- misc


def test_module_entrypoint_reports_version():
    out = _run_module("--version")
    assert out.returncode == 0
    assert out.stdout.strip() == f"cascadecite {cascadecite.__version__}"
    assert cf.TOOL_VERSION is cascadecite.__version__


def test_synth_rerun_is_byte_identical(tmp_path):
    args = ["synth", "--n", "10", "--size-min", "5", "--size-max", "9",
            "--synth-horizon", "60", "--window-days", "30", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "cascades.jsonl").read_bytes() == (tmp_path / "b" / "cascades.jsonl").read_bytes()
