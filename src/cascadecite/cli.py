"""Command line entry point.

Subcommands: ingest, stats, encode, train, eval, predict, probe, sweep,
synth. Every command writes its artifacts plus a run manifest (resolved
config, input digests, output paths, data counters, timestamps) into
--out, each file through a temporary file so that none is left half
written. Failures exit nonzero with a one-line JSON error on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sys
from collections import Counter
from pathlib import Path

from . import cascades as casc
from . import encoding as enc
from .atomic import atomic_write, write_csv, write_json
from .config import TOOL_VERSION, VALID_KEYS, parse_horizon, resolve_config, utc_now, write_manifest
from .errors import CascadeCiteError, ConfigError, EvaluationError, ParseError, SchemaMismatchError
from .model import ModelConfig, load_model, save_model
from .probe import FEATURE_NAMES, MIN_SAMPLES, probe as run_probe
from .training import (
    TrainConfig,
    encode_split,
    encode_trees,
    evaluate,
    predict_rows,
    reference_msles,
    sweep_time_interval,
    train,
    write_predictions,
)
from .trees import to_tree, tree_to_dict

log = logging.getLogger(__name__)


def _settings(cls, cfg: dict) -> dict:
    """The config values of the fields of `cls` that have defaults; the
    model's reg_weight is the config's beta."""
    return {
        f.name: cfg["beta" if f.name == "reg_weight" else f.name]
        for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
    }


def _bin_counts(text: str) -> list[int]:
    counts = []
    for entry in filter(str.strip, text.split(",")):
        try:
            counts.append(int(entry))
        except ValueError:
            raise ConfigError(f"--bins-list entry {entry.strip()!r} is not an integer") from None
    return counts


def _read_cascades(path, schema: enc.EncodingSchema | None = None) -> tuple[list[casc.Cascade], int]:
    """The cascades in `path`, each root once, and the one window they
    share, which must be the window of `schema` (a checkpoint's) when one
    is given."""
    cascades = casc.read_cascades_jsonl(path)
    windows = {c.window_T for c in cascades}
    if not windows:
        raise ParseError(f"{path} holds no cascades")
    if len(windows) != 1:
        raise ConfigError(f"cascades carry mixed windows {sorted(windows)}; re-ingest consistently")
    if len({c.root for c in cascades}) < len(cascades):
        root = next(r for r, n in Counter(c.root for c in cascades).items() if n > 1)
        raise ParseError(f"{path} holds cascade root {root!r} more than once")
    window = windows.pop()
    if schema is not None and window != schema.window_T:
        raise SchemaMismatchError(
            f"cascades use window {window} but checkpoint was trained on {schema.window_T}",
            details={"expected_window": schema.window_T, "got_window": window},
        )
    return cascades, window


def _require_labels(path, rows) -> None:
    """Refuse `path` unless each of its (id, growth) rows has a growth:
    train, eval and sweep score every row they read."""
    for rid, growth in rows:
        if growth is None:
            raise EvaluationError(f"{path}: {rid!r} has no growth label; train, eval and sweep need one on every row")


def _read_labeled(path, schema: enc.EncodingSchema) -> list[enc.EncodedSample]:
    samples = enc.read_encoded_jsonl(path, schema)
    _require_labels(path, ((s.id, s.growth) for s in samples))
    return samples


def _encode_against(trees, schema: enc.EncodingSchema) -> list[enc.EncodedSample]:
    """Trees encoded against a schema they may overflow, truncating what
    does not fit and logging how many trees that took."""
    samples, clipped = encode_trees(trees, schema)
    if clipped:
        log.warning("schema truncation applied to %d of %d trees", clipped, len(samples))
    return samples


def _schema_diff(a: enc.EncodingSchema, b: enc.EncodingSchema) -> list[str]:
    da, db = enc.schema_to_dict(a), enc.schema_to_dict(b)
    return [f"{key}: {da[key]!r} != {db[key]!r}" for key in da if da[key] != db[key]]


def _load_eval_samples(args, ckpt_schema: enc.EncodingSchema) -> tuple[list[enc.EncodedSample], list]:
    """Samples for eval/predict, and the files they came from: raw cascades
    re-encoded, or pre-encoded + schema."""
    if args.cascades and args.encoded:
        raise ConfigError("pass --cascades FILE or --encoded FILE, not both")
    if args.schema and not args.encoded:
        raise ConfigError("--schema goes only with --encoded; re-encoded --cascades use the checkpoint's schema")
    if args.cascades:
        cascades, _ = _read_cascades(args.cascades, ckpt_schema)
        return _encode_against([to_tree(c) for c in cascades], ckpt_schema), [args.cascades]
    if args.encoded:
        if not args.schema:
            raise ConfigError("--encoded requires --schema so the encoding can be verified")
        file_schema = enc.load_schema(args.schema)
        if file_schema != ckpt_schema:
            raise SchemaMismatchError(
                "encoded inputs use a different schema than the checkpoint",
                details={
                    "expected": enc.schema_to_dict(ckpt_schema),
                    "got": enc.schema_to_dict(file_schema),
                    "diff": _schema_diff(ckpt_schema, file_schema),
                },
            )
        samples = enc.read_encoded_jsonl(args.encoded, ckpt_schema)
        if not samples:
            raise ParseError(f"{args.encoded} holds no encoded rows")
        return samples, [args.schema, args.encoded]
    raise ConfigError("pass --cascades FILE, or --encoded FILE with --schema FILE")


# ------------------------------------------------------------------ commands


def _cmd_synth(args, cfg, out: Path, counters) -> tuple[list, list]:
    cascades = casc.generate_synthetic(
        cfg["synth_n"],
        (cfg["synth_size_min"], cfg["synth_size_max"]),
        cfg["synth_horizon"],
        cfg["attachment_bias"],
        cfg["seed"],
        window_T=cfg["window_days"],
    )
    path = out / "cascades.jsonl"
    n = casc.write_cascades_jsonl(path, cascades)
    log.info("wrote %d synthetic cascades to %s", n, path)
    return [], [path]


def _cmd_ingest(args, cfg, out: Path, counters) -> tuple[list, list]:
    citations = casc.parse_citation_files(args.edges, args.dates, tally=counters)
    cascades = casc.build_cascades(
        citations,
        window_T=cfg["window_days"],
        horizon=parse_horizon(cfg["horizon"]),
        min_observed=cfg["min_observed"],
        tally=counters,
    )
    path = out / "cascades.jsonl"
    casc.write_cascades_jsonl(path, cascades)
    return [args.edges, args.dates], [path, write_json(out / "ingest_report.json", counters)]


def _cmd_stats(args, cfg, out: Path, counters) -> tuple[list, list]:
    cascades, _ = _read_cascades(args.cascades)
    tr, va, te = casc.split_dataset(cascades, cfg["seed"])
    doc = {}
    for name, chunk in (("train", tr), ("val", va), ("test", te)):
        if not chunk:
            doc[name] = None
            continue
        stats = casc.compute_stats([to_tree(c) for c in chunk])
        doc[name] = dataclasses.asdict(stats)
    return [args.cascades], [write_json(out / "stats.json", doc)]


def _cmd_encode(args, cfg, out: Path, counters) -> tuple[list, list]:
    cascades, window = _read_cascades(args.cascades)
    tr, va, te, schema = encode_split(cascades, cfg["bins"], window, cfg["seed"], tally=counters)
    outputs = [enc.save_schema(out / "schema.json", schema)]
    for name, samples in (("train", tr), ("val", va), ("test", te)):
        path = out / f"{name}.encoded.jsonl"
        enc.write_encoded_jsonl(path, samples)
        outputs.append(path)
    if args.dump_trees:
        path = out / "trees.jsonl"
        with atomic_write(path) as fh:
            for c in cascades:
                fh.write(json.dumps(tree_to_dict(to_tree(c)), separators=(",", ":")))
                fh.write("\n")
        outputs.append(path)
    return [args.cascades], outputs


def _cmd_train(args, cfg, out: Path, counters) -> tuple[list, list]:
    d = Path(args.encoded_dir)
    read = [d / "schema.json", d / "train.encoded.jsonl", d / "val.encoded.jsonl", d / "test.encoded.jsonl"]
    if not read[-1].exists():  # the test split is optional
        read.pop()
    schema = enc.load_schema(read[0])
    tr, va, te = ([_read_labeled(path, schema) for path in read[1:]] + [[]])[:3]  # te is [] without a test split
    mcfg = ModelConfig.from_schema(schema, **_settings(ModelConfig, cfg))
    params, report = train(tr, va, TrainConfig(**_settings(TrainConfig, cfg)), mcfg)
    if te:
        report.test_msle = evaluate(params, te)
    report.reference_msle = reference_msles(tr, va, te)
    rows = ((i, *pair) for i, pair in enumerate(zip(report.train_losses, report.val_msles), 1))
    return read, [
        save_model(out / "checkpoint.json", params, schema),
        write_csv(out / "metrics.csv", ("epoch", "train_loss", "val_msle"), rows),
        write_json(out / "report.json", report.to_dict()),
    ]


def _cmd_eval(args, cfg, out: Path, counters) -> tuple[list, list]:
    params, schema = load_model(args.checkpoint)
    samples, read = _load_eval_samples(args, schema)
    _require_labels(args.cascades or args.encoded, ((s.id, s.growth) for s in samples))
    value = evaluate(params, samples)
    return [args.checkpoint, *read], [write_json(out / "eval.json", {"msle": value, "count": len(samples)})]


def _cmd_predict(args, cfg, out: Path, counters) -> tuple[list, list]:
    params, schema = load_model(args.checkpoint)
    samples, read = _load_eval_samples(args, schema)
    return [args.checkpoint, *read], [write_predictions(out / "predictions.csv", predict_rows(params, samples))]


def _cmd_probe(args, cfg, out: Path, counters) -> tuple[list, list]:
    if args.decayed and not args.checkpoint:
        raise ConfigError("--decayed needs --checkpoint to supply the trained decay")
    params, schema = load_model(args.checkpoint) if args.checkpoint else (None, None)
    cascades, window = _read_cascades(args.cascades, schema)
    trees = [to_tree(c) for c in cascades]
    usable = [t for t in trees if t.size >= 2]
    skipped = len(trees) - len(usable)
    if skipped:
        log.warning("skipping %d root-only cascades", skipped)
    if len(usable) < MIN_SAMPLES:
        raise ConfigError(
            f"probe needs at least {MIN_SAMPLES} cascades with a citer; "
            f"{args.cascades} holds {len(usable)} besides {skipped} root-only cascades"
        )
    if schema is None:
        schema = enc.schema_from_corpus(usable, cfg["bins"], window)

    seqs = [s.seq for s in _encode_against(usable, schema)]
    feats = [t.shape for t in usable]
    decay = params.decay.values if args.decayed else None
    report = run_probe(*enc.stack_sequences(seqs, schema.level_lengths), feats, seed=cfg["seed"], decay=decay)
    return ([args.checkpoint, args.cascades] if args.checkpoint else [args.cascades]), [
        write_csv(out / "probe.csv", FEATURE_NAMES, [[report.mse[name] for name in FEATURE_NAMES]]),
        write_json(out / "probe.json", dataclasses.asdict(report)),
    ]


def _cmd_sweep(args, cfg, out: Path, counters) -> tuple[list, list]:
    cascades, window = _read_cascades(args.cascades)
    _require_labels(args.cascades, ((c.root, c.growth) for c in cascades))
    rows = sweep_time_interval(
        cascades, _bin_counts(args.bins_list), window, TrainConfig(**_settings(TrainConfig, cfg)),
        model_overrides=_settings(ModelConfig, cfg),
    )
    return [args.cascades], [write_csv(out / "sweep.csv", ("bins", "test_msle"), rows)]


# each returns (the files it read, the files it wrote), which main records in the manifest
_HANDLERS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "encode": _cmd_encode,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "probe": _cmd_probe,
    "sweep": _cmd_sweep,
}


@functools.cache  # every call of main parses with the one parser
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="directory for the artifacts and the run manifest")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--window-years", type=float, default=None, dest="window_years")
    common.add_argument("--window-days", type=int, default=None, dest="window_days")
    # a day count becomes an integer; resolve_config rejects other text but 'end'
    common.add_argument("--horizon", type=lambda s: int(s) if s.isdigit() else s, default=None,
                        help="'end' or a day count")
    common.add_argument("--bins", type=int, default=None, help="time bin count L")
    common.add_argument("--min-observed", type=int, default=None, dest="min_observed")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--verbose", action="store_true")

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    fit.add_argument("--max-epochs", type=int, default=None, dest="max_epochs")
    fit.add_argument("--patience", type=int, default=None)
    fit.add_argument("--step-size", type=float, default=None, dest="step_size")
    fit.add_argument("--alpha", type=float, default=None)
    fit.add_argument("--beta", type=float, default=None)
    fit.add_argument("--embed-width", type=int, default=None, dest="embed_width")

    p = argparse.ArgumentParser(
        prog="cascadecite",
        description="Citation cascade growth prediction from degree-sequence encodings.",
    )
    p.add_argument("--version", action="version", version=f"cascadecite {TOOL_VERSION}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", parents=[common], help="generate a synthetic labeled corpus")
    sp.add_argument("--n", type=int, default=None, dest="synth_n")
    sp.add_argument("--size-min", type=int, default=None, dest="synth_size_min")
    sp.add_argument("--size-max", type=int, default=None, dest="synth_size_max")
    sp.add_argument("--synth-horizon", type=int, default=None, dest="synth_horizon")
    sp.add_argument("--bias", type=float, default=None, dest="attachment_bias")

    sp = sub.add_parser("ingest", parents=[common], help="edges+dates TSV -> labeled cascades")
    sp.add_argument("--edges", required=True)
    sp.add_argument("--dates", required=True)

    sp = sub.add_parser("stats", parents=[common], help="per-split corpus statistics")
    sp.add_argument("--cascades", required=True)

    sp = sub.add_parser("encode", parents=[common], help="split, build schema, encode")
    sp.add_argument("--cascades", required=True)
    sp.add_argument("--dump-trees", action="store_true", dest="dump_trees")

    sp = sub.add_parser("train", parents=[common, fit], help="train on an encoded dataset")
    sp.add_argument("--encoded-dir", required=True, dest="encoded_dir")

    for name in ("eval", "predict"):
        sp = sub.add_parser(name, parents=[common], help=f"{name} with a trained checkpoint")
        sp.add_argument("--checkpoint", required=True)
        sp.add_argument("--cascades", default=None)
        sp.add_argument("--encoded", default=None)
        sp.add_argument("--schema", default=None)

    sp = sub.add_parser("probe", parents=[common], help="structural readout from encodings")
    sp.add_argument("--cascades", required=True)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--decayed", action="store_true")

    sp = sub.add_parser("sweep", parents=[common, fit], help="retrain across bin counts")
    sp.add_argument("--cascades", required=True)
    sp.add_argument("--bins-list", required=True, dest="bins_list")

    return p


def _error_json(exc: Exception) -> str:
    details = getattr(exc, "details", {}) or {}
    return json.dumps({"error": type(exc).__name__, "message": str(exc), "details": details})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig adds its handler on the first call only, so the level is set apart on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)
    started = utc_now()
    counters: dict = {}
    try:
        overrides = {key: value for key, value in vars(args).items() if key in VALID_KEYS}
        cfg = resolve_config(args.config, overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        read, written = _HANDLERS[args.command](args, cfg, out, counters)
        if args.config:
            read.append(args.config)
        write_manifest(out, args.command, cfg, read, written, started, counters=counters)
    except (CascadeCiteError, OSError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
