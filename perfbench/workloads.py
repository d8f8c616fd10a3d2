"""The benchmark's workloads: inputs made from the seed, CLI calls, checks.

Every workload runs the real CLI in-process through `cascadecite.cli.main`
and sees only the files generated here. A workload has a set-up and a
timed pass; the runner repeats the pass (bench.py). The set-up writes the
generated inputs, then runs the CLI commands that prepare the timed pass;
only those commands count as set-up time, since no change to the program
can move the time spent generating inputs.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cascadecite import cli

import graphgen

FIT_EPOCHS = 40          # fit-small: narrow schema, many cheap steps
# The corpus of fit-small and every split stay fixed, and --seed goes to the
# generated ids and line order and to training (initial weights, batch
# order). Other corpus or split seeds change the schema (4 to 6 levels on
# fit-small, 9-11% more or fewer slots on the graphs), and the cost of a
# step moves with it by up to 20%.
FIXED_SEED = 11         # synth with this seed is the overfit-gate corpus; widths 8/9/3/2/1
GRAPH_PAPERS = 2000      # a graph-ingest pass takes about a second
# units of the values a timed pass returns
UNITS = {
    "pipeline_s": "s", "ingest_edges_per_s": "1/s", "encode_cascades_per_s": "1/s",
    "train_samples_per_s": "1/s", "predict_cascades_per_s": "1/s", "val_msle": "log2sq",
}
INGEST_FLAGS = ["--window-years", "3", "--horizon", "365", "--min-observed", "10"]


class Run:
    """Counts CLI commands attempted and failed, and collects what failed.

    A command fails when it exits nonzero, raises, or its outputs do not
    pass the check given with it.
    """

    def __init__(self, seed: int, record: dict):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.record = record  # values that must repeat for this seed and program

    def command(self, argv: list, check: Callable[[], list[str]] | None = None) -> float:
        argv = [str(a) for a in argv]
        self.attempted += 1
        gc.collect()  # every command starts from the same collector state
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        problems = [f"exit status {code}"] if code != 0 else (check() if check else [])
        if problems:
            self.failed += 1
            self.problems.extend(f"{argv[0]}: {p}" for p in problems)
        return elapsed

    def same_as_before(self, key: str, value) -> list[str]:
        """Value must equal the one seen earlier for this seed and program."""
        seen = self.record.setdefault(key, value)
        return [] if seen == value else [f"{key} is {value!r}, earlier {seen!r}"]


# ------------------------------------------------------------------ checks


def _lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if ln.strip()]


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def check_ingest(run: Run, out: Path, edges: int) -> list[str]:
    report = json.loads((out / "ingest_report.json").read_text())
    n = len(_lines(out / "cascades.jsonl"))
    problems = []
    if n == 0 or n != report["cascades"]:
        problems.append(f"cascades.jsonl holds {n} cascades, report says {report['cascades']}")
    seen = report["events"] + report["undated_citer_edges"] + report["self_citations"]
    if seen != edges:
        problems.append(f"report accounts for {seen} of {edges} edges")
    return problems + run.same_as_before("ingest_report", report)


def check_encode(run: Run, out: Path, cascades: int) -> list[str]:
    schema = json.loads((out / "schema.json").read_text())
    widths = schema["level_lengths"]
    files = [out / f"{name}.encoded.jsonl" for name in ("train", "val", "test")]
    problems = []
    rows = [_lines(f) for f in files]
    if sum(map(len, rows)) != cascades:
        problems.append(f"{sum(map(len, rows))} encoded rows for {cascades} cascades")
    for f, lines in zip(files, rows):
        for line in lines[:1] + lines[-1:]:
            got = [len(lvl) for lvl in json.loads(line)["levels"]]
            if got != widths:
                problems.append(f"{f.name} row has level widths {got}, schema {widths}")
    return problems + run.same_as_before("encoded_sha256", _digest(out / "schema.json", *files))


def check_train(run: Run, out: Path, epochs: int) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    problems = []
    if report["epochs_run"] != epochs:
        problems.append(f"ran {report['epochs_run']} epochs, asked for {epochs}")
    if len(_lines(out / "metrics.csv")) != epochs + 1:
        problems.append("metrics.csv does not hold one row per epoch")
    if not (out / "checkpoint.json").is_file():
        problems.append("no checkpoint written")
    val = report["best_val_msle"]
    if not (isinstance(val, float) and math.isfinite(val)):
        problems.append(f"best_val_msle {val!r} is not finite")
    return problems + run.same_as_before("val_msle", val)


def check_predict(out: Path, cascades: Path) -> list[str]:
    roots = [json.loads(ln)["root"] for ln in _lines(cascades)]
    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if [r["id"] for r in rows] != roots:
        problems.append(f"{len(rows)} prediction rows do not match the {len(roots)} cascades")
    bad = [r["id"] for r in rows
           if not all(math.isfinite(float(r[k])) for k in ("pred_log2", "pred_growth"))]
    if bad:
        problems.append(f"{len(bad)} rows are not finite, first {bad[0]}")
    return problems


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Run, Path], tuple[dict, float]]  # (input info, seconds in CLI commands)
    timed: Callable[[Run, Path, dict], dict]


def _train(run: Run, d: Path, epochs: int) -> float:
    out = d / "run"
    return run.command(
        ["train", "--encoded-dir", d / "enc", "--out", out, "--max-epochs", epochs,
         "--patience", epochs, "--seed", run.seed],
        lambda: check_train(run, out, epochs),
    )


def _ingest(run: Run, d: Path, edges: int) -> float:
    out = d / "casc"
    return run.command(
        ["ingest", "--edges", d / "graph" / "edges.tsv", "--dates", d / "graph" / "dates.tsv",
         "--out", out, *INGEST_FLAGS],
        lambda: check_ingest(run, out, edges),
    )


def _encode(run: Run, d: Path) -> float:
    src, out = d / "casc" / "cascades.jsonl", d / "enc"
    return run.command(
        ["encode", "--cascades", src, "--out", out, "--bins", 6, "--seed", FIXED_SEED],
        lambda: check_encode(run, out, len(_lines(src))),
    )


def _corpus_info(d: Path) -> dict:
    schema = json.loads((d / "enc" / "schema.json").read_text())
    info = {
        "cascades": len(_lines(d / "casc" / "cascades.jsonl")),
        "train_samples": len(_lines(d / "enc" / "train.encoded.jsonl")),
        "level_widths": schema["level_lengths"],
    }
    report = d / "casc" / "ingest_report.json"
    if report.is_file():
        info["roots_anchored_without_date"] = json.loads(report.read_text())["roots_anchored_without_date"]
    return info


def _graph_setup(run: Run, d: Path) -> tuple[dict, float]:
    """Write the graph, then ingest and encode it.

    The timed pass runs these two commands again; in set-up they run cold,
    so first-call costs (lazy imports, caches) show in setup_s.
    """
    info = graphgen.write_graph(d / "graph", GRAPH_PAPERS, run.seed)
    seconds = _ingest(run, d, info["edges"]) + _encode(run, d)
    info.update(_corpus_info(d))
    return info, seconds


def _fit_small_setup(run: Run, d: Path) -> tuple[dict, float]:
    out = d / "casc"
    seconds = run.command(
        ["synth", "--out", out, "--n", 200, "--size-min", 6, "--size-max", 18,
         "--synth-horizon", 80, "--window-days", 40, "--bias", 1.0, "--seed", FIXED_SEED],
        lambda: [] if len(_lines(out / "cascades.jsonl")) == 200 else ["synth did not write 200 cascades"],
    )
    seconds += _encode(run, d)
    return _corpus_info(d), seconds


def _val_msle(d: Path) -> float:
    return json.loads((d / "run" / "report.json").read_text())["best_val_msle"]


def _fit_small_timed(run: Run, d: Path, info: dict) -> dict:
    t_train = _train(run, d, FIT_EPOCHS)
    cascades, out = d / "casc" / "cascades.jsonl", d / "pred"
    t_predict = run.command(
        ["predict", "--checkpoint", d / "run" / "checkpoint.json", "--cascades", cascades,
         "--out", out],
        lambda: check_predict(out, cascades),
    )
    return {
        "pipeline_s": t_train + t_predict,
        "train_samples_per_s": FIT_EPOCHS * info["train_samples"] / t_train,
        "predict_cascades_per_s": info["cascades"] / t_predict,
        "val_msle": _val_msle(d),
    }


def _graph_ingest_timed(run: Run, d: Path, info: dict) -> dict:
    t_ingest = _ingest(run, d, info["edges"])
    t_encode = _encode(run, d)
    info.update(_corpus_info(d))
    return {
        "pipeline_s": t_ingest + t_encode,
        "ingest_edges_per_s": info["edges"] / t_ingest,
        "encode_cascades_per_s": info["cascades"] / t_encode,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-small",
            "narrow 5-level schema on the 200-cascade synthetic corpus: train steps are bound "
            "by tape dispatch in autodiff, model and optim, then predict runs untaped; I/O is small",
            _fit_small_setup,
            _fit_small_timed,
        ),
        Workload(
            "graph-ingest",
            "HEP-PH-shaped dated citation graph through ingest and encode: cascades, trees, "
            "encoding, JSONL writing and manifest hashing do all the work and no model runs",
            _graph_setup,
            _graph_ingest_timed,
        ),
    )
}
