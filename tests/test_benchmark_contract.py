"""The benchmark's tracer still finds every name it patches and reads.

perfbench/tracing.py wraps public functions of the package by name, counts
ingested citations by the length of the parse result and padding by reading
the encoded samples. A rename or removal there would only show when the
benchmark runs traced; this test makes it fail here instead, on a tiny
synth + encode + train + predict run and a tiny ingest run.
"""

import json
from pathlib import Path

from cascadecite import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_counts_encoding(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        data, enc_dir = tmp_path / "casc", tmp_path / "enc"
        assert cli.main(["synth", "--out", str(data), "--n", "20", "--size-min", "6",
                         "--size-max", "18", "--synth-horizon", "80", "--window-days", "40",
                         "--seed", "11"]) == 0
        assert cli.main(["encode", "--cascades", str(data / "cascades.jsonl"),
                         "--out", str(enc_dir), "--bins", "6", "--seed", "11"]) == 0
        run = tmp_path / "run"
        assert cli.main(["train", "--encoded-dir", str(enc_dir), "--out", str(run), "--max-epochs", "2",
                         "--embed-width", "8", "--seed", "1"]) == 0
        assert cli.main(["predict", "--checkpoint", str(run / "checkpoint.json"), "--cascades",
                         str(data / "cascades.jsonl"), "--out", str(tmp_path / "pred")]) == 0
        edges, dates, casc_dir = tmp_path / "edges.tsv", tmp_path / "dates.tsv", tmp_path / "ingest"
        edges.write_text("a\tr\nb\tr\nb\ta\nb\ta\nc\tr\nghost\tr\nd\tq\n")
        dates.write_text("r\t2000-01-01\na\t2000-01-05\nb\t2000-01-09\nc\t2000-02-01\nd\t2000-03-01\n")
        assert cli.main(["ingest", "--edges", str(edges), "--dates", str(dates), "--out", str(casc_dir),
                         "--window-days", "60", "--min-observed", "1"]) == 0
        tracer.settle()
    finally:
        tracer.remove()
    counts = tracer.counts[tracer.run_id]
    assert counts["encoding.slots"] > 0
    assert counts["encoding.pad_slots"] > 0
    report = json.loads((casc_dir / "ingest_report.json").read_text())
    assert (counts["cascades.events"], counts["cascades.count"]) == (report["events"], report["cascades"]) == (6, 3)
    assert {"cli.synth", "cli.encode", "training.encode_split", "encoding.encode",
            "cli.ingest", "cascades.parse", "cascades.build"} <= {s.name for s in tracer.spans}
    # train stacks its three splits and predict its one input; a step records one entry per fused block
    assert {"training.train", "model.forward", "model.loss", "model.stack", "autodiff.backward",
            "optim.adam", "checkpoint.save", "checkpoint.load", "model.predict_forward"} <= {
        s.name for s in tracer.spans}
    assert (counts["autodiff.tape_entries"], counts["model.stack_calls"]) == (5, 4)
    # encode and predict each convert every cascade once; a tree's size counts its root
    nodes = sum(len(json.loads(line)["nodes"]) + 1 for line in (data / "cascades.jsonl").read_text().splitlines())
    assert counts["trees.nodes"] == 2 * nodes
