"""Span recorder for the traced benchmark run.

Tracing works from outside the program: `Tracer.install` replaces the
public functions each layer exposes with wrappers that open a span around
the call, and `Tracer.remove` puts the originals back. Where the CLI or the
training module imported a name with `from ... import`, the name is patched
in the importing module, because that is the binding the caller looks up.
Spans are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import cascadecite.autodiff as autodiff
import cascadecite.cascades as cascades
import cascadecite.cli as cli
import cascadecite.config as config
import cascadecite.encoding as encoding
import cascadecite.training as training

LAYERS = (
    "cascades", "trees", "encoding", "model", "autodiff",
    "optim", "training", "checkpoint", "config", "cli",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and layer counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)  # run id -> counters
        self.run_id = "none"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._deferred: list = []

    # ------------------------------------------------------------ recording

    def _call(self, name, fn, args, kwargs, after=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(self.counts[self.run_id], result, args, kwargs)
        return result

    def _patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            return tracer._call(span_name, original, args, kwargs, after)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        p = self._patch

        def count(key, measure):
            def after(counts, result, args, kwargs):
                counts[key] += measure(result, args, kwargs)
            return after

        # cli: one span per command, named after the subcommand
        p(cli, "main", lambda a: f"cli.{a[0][0]}")
        p(cli, "resolve_config", "config.resolve")
        p(cli, "write_manifest", "config.manifest")
        p(config, "file_digest", "config.digest",
          count("config.bytes_hashed", lambda r, a, k: os.path.getsize(a[0])))

        # cascades: the CLI reaches these through the module object
        p(cascades, "parse_citation_files", "cascades.parse",
          count("cascades.events", lambda r, a, k: len(r)))

        def after_build(counts, result, args, kwargs):
            counts["cascades.count"] += len(result)
            tally = kwargs.get("tally") or {}
            counts["cascades.roots_anchored"] += tally.get("roots_anchored_without_date", 0)

        p(cascades, "build_cascades", "cascades.build", after_build)
        p(cascades, "generate_synthetic", "cascades.synth")
        p(cascades, "write_cascades_jsonl", "cascades.jsonl_write")
        p(cascades, "read_cascades_jsonl", "cascades.jsonl_read")

        # trees: imported by name into both cli and training
        nodes = count("trees.nodes", lambda r, a, k: r.size)
        p(cli, "to_tree", "trees.to_tree", nodes)
        p(training, "to_tree", "trees.to_tree", nodes)

        # encoding
        p(training, "schema_from_corpus", "encoding.schema")
        p(training, "encode", "encoding.encode")
        p(encoding, "encode", "encoding.encode")

        def after_split(counts, result, args, kwargs):
            tr, va, te, schema = result
            samples = [s for part in (tr, va, te) for s in part]
            counts["encoding.slots"] += len(samples) * schema.total_length

            def count_pads():  # walks every slot, so it runs outside the spans
                counts["encoding.pad_slots"] += sum(
                    e.is_pad for s in samples for lvl in s.seq.levels for e in lvl
                )
            self._deferred.append(count_pads)

        p(cli, "encode_split", "training.encode_split", after_split)
        p(encoding, "write_encoded_jsonl", "encoding.jsonl_write",
          count("encoding.jsonl_bytes", lambda r, a, k: os.path.getsize(a[0])))
        p(encoding, "read_encoded_jsonl", "encoding.jsonl_read")

        # model, autodiff, optim: what one training step calls
        def forward_name(args):
            return "model.forward" if autodiff._ACTIVE is not None else "model.predict_forward"

        p(training, "forward_batch", forward_name)
        p(training, "model_loss", "model.loss")
        p(training, "stack_sequences", "model.stack",
          count("model.stack_calls", lambda r, a, k: 1))

        def after_backward(counts, result, args, kwargs):
            counts["training.steps"] += 1
            counts["autodiff.tape_entries"] = max(counts["autodiff.tape_entries"], len(args[0]))

        p(autodiff.Tape, "backward", "autodiff.backward", after_backward)
        p(training, "adam_step", "optim.adam")

        # training
        p(cli, "train", "training.train")
        p(training, "evaluate", "training.evaluate")
        p(cli, "evaluate", "training.evaluate")
        p(cli, "predict_rows", "training.predict_rows")
        p(cli, "write_predictions", "training.write_predictions")

        # checkpoint: the model file is written and read through cli's names
        p(cli, "save_model", "checkpoint.save",
          count("checkpoint.bytes", lambda r, a, k: os.path.getsize(a[0])))
        p(cli, "load_model", "checkpoint.load")

    def settle(self) -> None:
        """Run counters deferred out of the spans; call between passes."""
        for fn in self._deferred:
            fn()
        self._deferred.clear()

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -------------------------------------------------------------- summary

    def self_times(self, run_ids=None) -> dict[str, float]:
        """Span name -> total self time (duration minus child spans)."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if run_ids is None or s.run_id in run_ids:
                out[s.name] += s.duration - child_time[i]
        return dict(out)

    def durations(self, name: str, run_ids=None) -> list[float]:
        return [
            s.duration for s in self.spans
            if s.name == name and (run_ids is None or s.run_id in run_ids)
        ]

    def epoch_times(self, run_ids=None) -> list[float]:
        """Per-epoch wall time inside `train`: one epoch ends when its
        validation `evaluate` span (a child of the train span) ends."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name != "training.train" or (run_ids is not None and s.run_id not in run_ids):
                continue
            mark = s.start
            for c in self.spans[i + 1:]:
                if c.start >= s.end:
                    break
                if c.parent == i and c.name == "training.evaluate":
                    out.append(c.end - mark)
                    mark = c.end
        return out

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": [[s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans],
            "counts": {run: dict(c) for run, c in self.counts.items()},
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
