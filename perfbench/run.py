"""cascadecite benchmark: run one workload, or all of them, and print metrics.

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the repository root; the program is imported from ./src. Each
workload runs in its own child process (bench.py), one after another, with
BLAS and OpenMP pinned to one thread. Every metric is printed as
`name value unit`; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1). Results, spans and
per-seed expected values are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit-small", "graph-ingest")
CHILD_SLACK_S = 120  # a child may run this much longer than --seconds: set-ups, checks
PINNED = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


def run_workload(root: Path, name: str, args) -> dict | None:
    out_dir = root / ".perfbench_out"
    work = root / ".perfbench_work" / f"{name}-seed{args.seed}-{os.getpid()}"
    result = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out_dir.mkdir(exist_ok=True)
    result.unlink(missing_ok=True)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    cmd = [
        sys.executable, str(HERE / "bench.py"), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
        "--records", str(out_dir / "records"), "--result", str(result),
    ]
    child = subprocess.Popen(cmd, env=env, cwd=root)
    try:
        code = child.wait(timeout=args.seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        print(f"{name}: timed out after {args.seconds + CHILD_SLACK_S} s", file=sys.stderr)
        return None
    if code != 0 or not result.is_file():
        print(f"{name}: benchmark process exited with status {code}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def print_table(doc: dict) -> None:
    print(f"== {doc['workload']} (seed {doc['seed']}, trace {doc['trace']}): {doc['why']}")
    env = doc["environment"]
    print(f"   python {env['python']}, numpy {env['numpy']}, blas {env['blas'].get('name')}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}")
    print(f"   inputs {json.dumps(doc['info'])}")
    print(f"   timed passes {len(doc['passes'])}")
    for name, m in doc["full"].items():
        print(f"{doc['workload']} {name} {m['value']!r} {m['unit']}")
    for problem in doc["problems"]:
        print(f"{doc['workload']} FAILED {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "cascadecite" / "__init__.py").is_file():
        print("run from the repository root: src/cascadecite not found", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    for name in names:
        doc = run_workload(root, name, args)
        if doc is None:
            return 1
        print_table(doc)
        docs.append(doc)

    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{k}": m for d in docs for k, m in d["metrics"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
