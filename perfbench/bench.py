"""One workload in one process: set-up, timed passes, checks, metrics.

Started by run.py in a child process with BLAS/OpenMP pinned to one thread,
so that peak RSS belongs to this workload alone. Writes its result as JSON
to --result.

Untraced (--trace 0): the set-up runs SETUPS times in fresh directories,
and setup_s is the median time of its CLI commands (writing the generated
inputs is not counted). Then the timed pass repeats for --seconds.
pipeline_s and the stage rates are each taken at the better quartile of
the passes: the lower quartile of times, the upper quartile of rates. On a
shared machine other load only ever adds time, in phases from seconds to
minutes. Measured on a 2-vCPU VM over sets of ten 30-second runs: when the
load comes in short bursts, the median pass moves by up to 25% between
runs and the fastest by 5-12%; when it lasts, the fastest pass depends on
a rare quiet moment and drifts by up to 24% between sets, the lower
quartile by up to 12%. The fastest, median and slowest pass are printed
too.

Traced (--trace 1): untraced reference passes for half of --seconds, then
the tracer is installed, the set-up runs once more and the timed pass
repeats for the other half. Per-layer values describe one workload pass:
the traced set-up plus the median traced pass. The gap between the lower
quartiles of the traced and the reference passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import cascadecite
from tracing import LAYERS, Tracer
from workloads import UNITS, WORKLOADS, Run

SETUPS = 5

# per-layer metrics that BENCHMARK.json lists: nonzero in every workload, or counts
REPORTED_TIMES = (
    "cascades.jsonl_read", "cascades.jsonl_write", "trees.to_tree", "encoding.schema",
    "encoding.encode", "encoding.jsonl_write", "config.manifest",
)
COUNTS = {
    "cascades.events": "count", "cascades.count": "count", "cascades.roots_anchored": "count",
    "trees.nodes": "count", "encoding.slots": "count", "encoding.jsonl_bytes": "B",
    "model.stack_calls": "count", "autodiff.tape_entries": "count", "training.steps": "count",
    "checkpoint.bytes": "B", "config.bytes_hashed": "B",
}
# span names the traced report always lists, as wall time per workload pass
SPAN_TOTALS = (
    "cascades.parse", "cascades.build", "cascades.synth", "cascades.jsonl_write",
    "cascades.jsonl_read", "trees.to_tree", "encoding.schema", "encoding.encode",
    "encoding.jsonl_write", "encoding.jsonl_read", "model.stack", "model.predict_forward",
    "training.train", "training.evaluate", "training.encode_split", "checkpoint.save",
    "checkpoint.load", "config.manifest",
)
# per-call distributions: one sample per training step, or per untaped forward
PER_CALL = ("model.forward", "model.loss", "autodiff.backward", "optim.adam", "model.predict_forward")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def code_digest() -> str:
    """Digest of the program and of this benchmark: expected values are kept per version."""
    h = hashlib.sha256()
    for folder in (Path(cascadecite.__file__).parent, Path(__file__).parent):
        for path in sorted(folder.glob("*.py")):
            h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_passes(run: Run, workload, d: Path, info: dict, seconds: float, tracer=None):
    """Repeat the timed pass for `seconds`, at least once."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.run_id = f"pass-{len(passes) + 1}"
        passes.append(workload.timed(run, d, info))
        if tracer is not None:
            tracer.settle()
    return passes


def better_quartile(passes: list[dict]) -> dict:
    """Each pass value at its better quartile: the lower one of times, the upper one of rates."""
    out = {}
    for key in passes[0]:
        unit = UNITS[key]
        values = [p[key] for p in passes]
        if len(values) > 1:
            low, _, high = statistics.quantiles(values, n=4)
            values = [high if unit == "1/s" else low]
        out[key] = metric(values[0], unit)
    return out


def layer_metrics(tracer: Tracer, pass_ids: list[str]) -> tuple[dict, dict]:
    """(metrics BENCHMARK.json lists, full per-layer table) for one workload pass."""
    runs = ["setup", *pass_ids]
    selfs = {r: tracer.self_times({r}) for r in runs}
    incl = {r: Counter() for r in runs}
    for s in tracer.spans:
        if s.run_id in incl:
            incl[s.run_id][s.name] += s.duration

    def per_pass(value_of) -> float:
        return value_of("setup") + statistics.median(value_of(r) for r in pass_ids)

    def layer_self(layer):
        return per_pass(lambda r: sum(v for k, v in selfs[r].items() if k.split(".")[0] == layer))

    full: dict[str, dict] = {}
    for name in SPAN_TOTALS:
        full[f"{name}_s"] = metric(per_pass(lambda r: incl[r][name]), "s")
    commands = sorted({k for r in runs for k in selfs[r] if k.startswith("cli.")})
    for name in commands:
        full[f"{name}.self_s"] = metric(per_pass(lambda r: selfs[r].get(name, 0.0)), "s")
    layer_s = {layer: layer_self(layer) for layer in LAYERS}
    total = sum(layer_s.values())
    for layer in LAYERS:
        full[f"{layer}.self_s"] = metric(layer_s[layer], "s")
        full[f"{layer}.self_pct"] = metric(100.0 * layer_s[layer] / total, "%")

    def add_quantiles(name, values):
        arr = np.asarray(values or [0.0])
        full[f"{name}.p50"] = metric(float(np.percentile(arr, 50)), "s")
        full[f"{name}.p95"] = metric(float(np.percentile(arr, 95)), "s")
        full[f"{name}.n"] = metric(len(values), "count")

    for name in PER_CALL:
        add_quantiles(f"{name}_s", tracer.durations(name, set(pass_ids)))
    add_quantiles("training.epoch_s", tracer.epoch_times(set(pass_ids)))

    counts = tracer.counts["setup"] + tracer.counts[pass_ids[0]]
    counts["autodiff.tape_entries"] = max(c["autodiff.tape_entries"] for c in tracer.counts.values())
    for name, unit in COUNTS.items():
        full[name] = metric(counts[name], unit)
    slots = counts["encoding.slots"]
    full["encoding.pad_fraction"] = metric(counts["encoding.pad_slots"] / slots if slots else 0.0, "ratio")

    listed = {f"{n}_s": full[f"{n}_s"] for n in REPORTED_TIMES}
    listed["cli.self_s"] = full["cli.self_s"]
    listed.update({f"{layer}.self_pct": full[f"{layer}.self_pct"] for layer in LAYERS})
    listed.update({name: full[name] for name in (*COUNTS, "encoding.pad_fraction")})
    return listed, full


def run_untraced(run, workload, work: Path, seconds: float) -> dict:
    setup_times, info = [], None
    for i in range(SETUPS):
        got, cli_seconds = workload.setup(run, work / f"setup-{i}")
        setup_times.append(cli_seconds)
        info = info or got
    passes = timed_passes(run, workload, work / "setup-0", info, seconds)
    full = better_quartile(passes)
    walls = sorted(p["pipeline_s"] for p in passes)
    listed = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "pipeline_s": full.pop("pipeline_s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    full["pipeline_min_s"] = metric(walls[0], "s")
    full["pipeline_median_s"] = metric(statistics.median(walls), "s")
    full["pipeline_max_s"] = metric(walls[-1], "s")
    full["passes"] = metric(len(walls), "count")
    return {"info": info, "setup_times": setup_times, "passes": passes,
            "metrics": listed, "full": {**listed, **full}}


def run_traced(run, workload, work: Path, seconds: float) -> dict:
    ref_dir = work / "reference"
    info, _ = workload.setup(run, ref_dir)
    reference = timed_passes(run, workload, ref_dir, info, seconds / 2)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_id = "setup"
        d = work / "traced"
        workload.setup(run, d)
        tracer.settle()
        traced = timed_passes(run, workload, d, info, seconds / 2, tracer)
    finally:
        tracer.remove()
    pass_ids = [f"pass-{i + 1}" for i in range(len(traced))]
    listed, full = layer_metrics(tracer, pass_ids)

    ref, traced_q = better_quartile(reference), better_quartile(traced)
    full["trace.overhead_pct"] = metric(
        100.0 * (traced_q["pipeline_s"]["value"] / ref["pipeline_s"]["value"] - 1.0), "%")
    if "train_samples_per_s" in ref:
        delta = ref["train_samples_per_s"]["value"] - traced_q["train_samples_per_s"]["value"]
        full["trace.train_samples_per_s_lost"] = metric(delta, "1/s")
    return {"info": info, "reference_passes": reference, "passes": traced,
            "metrics": listed, "full": full, "tracer": tracer}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="scratch directory, removed by the caller")
    ap.add_argument("--records", required=True, help="directory of per-seed expected values")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    record_path = Path(args.records) / f"{args.workload}-seed{args.seed}-{code_digest()}.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    run = Run(args.seed, record)
    work = Path(args.work)

    mode = run_traced if args.trace else run_untraced
    out = mode(run, workload, work, args.seconds)
    tracer = out.pop("tracer", None)
    if tracer is not None:
        tracer.write(Path(args.result).with_suffix(".spans.json"))

    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(run.record, indent=1))
    out["full"]["failed_ops"] = metric(run.failed / max(run.attempted, 1), "ratio")
    doc = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, **out,
    }
    Path(args.result).write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
