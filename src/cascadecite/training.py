"""Mini-batch Adam training with early stopping, MSLE evaluation, prediction."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .atomic import write_csv
from .autodiff import Tape
from .cascades import Cascade, split_dataset
from .config import DEFAULTS
from .encoding import (
    EncodedSample,
    EncodingSchema,
    encode,
    fits_schema,
    pad_fractions,
    real_counts,
    schema_from_corpus,
    stack_sequences,
)
from .errors import ConfigError, ContractError, EvaluationError, TrainingDivergedError
from .model import (
    ModelConfig,
    ModelParams,
    forward_batch,
    init_params,
    growth_from_log,
    log_target,
    loss as model_loss,
)
from .optim import AdamState, adam_step
from .trees import CascadeTree, to_tree

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = DEFAULTS["batch_size"]
    max_epochs: int = DEFAULTS["max_epochs"]
    patience: int = DEFAULTS["patience"]
    step_size: float = DEFAULTS["step_size"]
    seed: int = DEFAULTS["seed"]

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError(
                f"batch_size, max_epochs, patience must be >= 1, got "
                f"{self.batch_size}, {self.max_epochs}, {self.patience}"
            )
        if self.step_size <= 0:
            raise ConfigError(f"step_size must be > 0, got {self.step_size}")


@dataclass
class TrainReport:
    epochs_run: int
    best_epoch: int
    best_val_msle: float
    train_losses: list[float] = field(default_factory=list)
    val_msles: list[float] = field(default_factory=list)
    test_msle: float | None = None
    wall_time_sec: float = 0.0
    reference_msle: dict | None = None  # see `reference_msles`

    def to_dict(self) -> dict:
        """Every field but the per-epoch lists, which go to metrics.csv."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("train_losses", "val_msles")}


@dataclass(frozen=True)
class Stacked:
    """Labeled samples stacked once into (N, total_length) degree and bin
    matrices."""

    degrees: np.ndarray
    bins: np.ndarray
    growths: np.ndarray


def _growths(samples: Sequence[EncodedSample]) -> np.ndarray:
    for s in samples:
        if s.growth is None:
            raise EvaluationError(f"sample {s.id!r} has no growth label")
    return np.array([s.growth for s in samples], dtype=np.int64)


def _stacked(samples: Sequence[EncodedSample], cfg: ModelConfig) -> Stacked:
    return Stacked(*stack_sequences([s.seq for s in samples], cfg.level_lengths), _growths(samples))


_PREDICT_CHUNK = 128  # rows per untaped forward pass


def _predict_values(params: ModelParams, degrees: np.ndarray, bins: np.ndarray) -> np.ndarray:
    preds = []
    for lo in range(0, degrees.shape[0], _PREDICT_CHUNK):
        rows = slice(lo, lo + _PREDICT_CHUNK)
        preds.append(forward_batch(params, degrees[rows], bins[rows]).values[:, 0])
    return np.concatenate(preds)


def msle(pred_logs: np.ndarray, growths: np.ndarray) -> float:
    """Mean squared error between predictions and log2(G+1) targets."""
    pred_logs = np.asarray(pred_logs, dtype=np.float64)
    growths = np.asarray(growths)
    if pred_logs.shape != growths.shape:
        raise ContractError(f"{pred_logs.shape} predictions vs {growths.shape} labels")
    if pred_logs.size == 0:
        raise EvaluationError("nothing to evaluate")
    err = pred_logs - log_target(growths)
    return float(np.mean(err * err))


def evaluate(params: ModelParams, samples: Sequence[EncodedSample] | Stacked) -> float:
    """MSLE of the model over labeled encoded samples, or over a set that
    `train` stacked once for all its epochs."""
    if not isinstance(samples, Stacked):
        if not samples:
            raise EvaluationError("nothing to evaluate")
        samples = _stacked(samples, params.config)
    return msle(_predict_values(params, samples.degrees, samples.bins), samples.growths)


def reference_msles(
    train_samples: Sequence[EncodedSample],
    val_samples: Sequence[EncodedSample],
    test_samples: Sequence[EncodedSample],
) -> dict[str, dict[str, float | None]]:
    """Val and test MSLE of two count-only references fitted on the training
    split; each test value is None when there are no test samples.

    `const` predicts the train mean of log2(G+1). `count_loglinear` is the
    least-squares line of log2(G+1) on log2(n+1), n a sample's real (non-pad)
    slot count: Szabo and Huberman's count-only baseline. When every
    training sample has the same n, it is `const`.
    """
    def log_counts(samples):
        return np.log2([1.0 + sum(real_counts(s.seq)) for s in samples])

    x, y = log_counts(train_samples), log_target(_growths(train_samples))
    mean = float(y.mean())
    dx = x - x.mean()
    slope = float(dx @ (y - mean) / (dx @ dx)) if x.min() < x.max() else 0.0
    lines = {"const": (mean, 0.0), "count_loglinear": (mean - slope * x.mean(), slope)}
    splits = {"val": val_samples, "test": test_samples}
    return {
        name: {
            split: msle(a + b * log_counts(samples), _growths(samples)) if samples else None
            for split, samples in splits.items()
        }
        for name, (a, b) in lines.items()
    }


def train(
    train_samples: Sequence[EncodedSample],
    val_samples: Sequence[EncodedSample],
    tcfg: TrainConfig,
    mcfg: ModelConfig,
) -> tuple[ModelParams, TrainReport]:
    """Adam on shuffled mini-batches; keeps the best-validation parameters.

    Stops after `patience` consecutive epochs without a validation MSLE
    improvement, or at max_epochs. The final partial batch of each epoch is
    kept. Fully deterministic for a given seed and inputs.
    """
    if not train_samples or not val_samples:
        raise ConfigError("train and validation sets must both be non-empty")
    started = time.perf_counter()
    params = init_params(mcfg, tcfg.seed)
    tensors = params.tensors()
    state = AdamState(step_size=tcfg.step_size)
    train_set = _stacked(train_samples, mcfg)
    val_set = _stacked(val_samples, mcfg)
    rng = np.random.default_rng(tcfg.seed)

    best_values = params.buffer.values.copy()
    best_val = float("inf")
    best_epoch = 0
    since_best = 0
    train_losses: list[float] = []
    val_msles: list[float] = []

    # every loss is checked, so an overflowing run ends in one TrainingDivergedError, not in NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, tcfg.max_epochs + 1):
            order = rng.permutation(len(train_samples))
            batch_losses = []
            for lo in range(0, len(order), tcfg.batch_size):
                rows = order[lo : lo + tcfg.batch_size]
                with Tape() as tape:
                    preds = forward_batch(params, train_set.degrees[rows], train_set.bins[rows])
                    batch_loss = model_loss(preds, train_set.growths[rows], params)
                value = batch_loss.item()
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}",
                        details={
                            "epoch": epoch,
                            "batch_ids": [train_samples[i].id for i in rows],
                            "param_norms": {
                                name: float(np.abs(t.values).max()) for name, t in params.named()
                            },
                        },
                    )
                tape.backward(batch_loss, params=tensors)
                adam_step(params.buffer, state)
                batch_losses.append(value)

            train_losses.append(float(np.mean(batch_losses)))
            val = evaluate(params, val_set)
            val_msles.append(val)
            if val < best_val:
                best_val = val
                best_epoch = epoch
                best_values = params.buffer.values.copy()
                since_best = 0
            else:
                since_best += 1
            log.info("epoch %d train_loss %.6f val_msle %.6f", epoch, train_losses[-1], val)
            if since_best >= tcfg.patience:
                break

    params.buffer.values[...] = best_values  # in place: every parameter views the buffer
    report = TrainReport(
        epochs_run=len(train_losses),
        best_epoch=best_epoch,
        best_val_msle=best_val,
        train_losses=train_losses,
        val_msles=val_msles,
        wall_time_sec=time.perf_counter() - started,
    )
    return params, report


# ---------------------------------------------------------------- prediction


def predict_rows(params: ModelParams, samples: Sequence[EncodedSample]) -> list[tuple[str, float, float]]:
    """(id, predicted log2(G+1), back-transformed growth clamped at 0) rows."""
    if not samples:
        return []
    values = _predict_values(params, *stack_sequences([s.seq for s in samples], params.config.level_lengths))
    return [
        (s.id, float(v), growth_from_log(float(v))) for s, v in zip(samples, values)
    ]


def write_predictions(path: str | Path, rows: Sequence[tuple[str, float, float]]) -> str | Path:
    """CSV with minimal quoting, so an id holding a comma or a quote
    survives; floats are written with repr, which keeps every bit; returns `path`."""
    return write_csv(path, ("id", "pred_log2", "pred_growth"), rows)


# ------------------------------------------------------------------ encoding


def encode_trees(trees: Sequence[CascadeTree], schema: EncodingSchema) -> tuple[list[EncodedSample], int]:
    """Encode trees against a schema; also returns how many trees were
    truncated to fit it."""
    out = []
    clipped = 0
    for t in trees:
        clipped += not fits_schema(t, schema)
        out.append(EncodedSample(id=t.root, seq=encode(t, schema), growth=t.growth))
    return out, clipped


def encode_split(
    cascades: Sequence[Cascade],
    bin_count: int,
    window_T: int,
    seed: int,
    tally: dict | None = None,
) -> tuple[list[EncodedSample], list[EncodedSample], list[EncodedSample], EncodingSchema]:
    """Split, build the schema on train only, encode all three splits.

    Validation and test trees that overflow the train-built schema are
    truncated (lowest degrees dropped per level) rather than rejected; the
    train trees always fit, since they size the schema. When given, `tally`
    receives the samples per split, the truncated val and test trees, and
    the padding fraction of each level over all three splits.
    """
    tr, va, te = split_dataset(list(cascades), seed)
    tr_trees = [to_tree(c) for c in tr]
    va_trees = [to_tree(c) for c in va]
    te_trees = [to_tree(c) for c in te]
    schema = schema_from_corpus(tr_trees, bin_count, window_T)
    train_enc, _ = encode_trees(tr_trees, schema)
    val_enc, cv = encode_trees(va_trees, schema)
    test_enc, ct = encode_trees(te_trees, schema)
    if cv or ct:
        log.warning("schema truncation applied to %d val and %d test trees", cv, ct)
    if tally is not None:
        tally["samples"] = {"train": len(train_enc), "val": len(val_enc), "test": len(test_enc)}
        tally["truncated"] = {"val": cv, "test": ct}
        tally["pad_fraction"] = pad_fractions([*train_enc, *val_enc, *test_enc], schema)
    return train_enc, val_enc, test_enc, schema


# --------------------------------------------------------------------- sweep


class SweepRow(NamedTuple):  # one sweep.csv row
    bins: int
    test_msle: float


def sweep_time_interval(
    cascades: Sequence[Cascade],
    bin_counts: Sequence[int],
    window_T: int,
    tcfg: TrainConfig,
    model_overrides: dict | None = None,
) -> list[SweepRow]:
    """Retrain end-to-end for each bin count L and report the test MSLE."""
    if len(bin_counts) < 2:
        raise ConfigError(f"sweep needs at least 2 bin counts, got {list(bin_counts)}")
    rows = []
    for bins in bin_counts:
        tr, va, te, schema = encode_split(cascades, bins, window_T, tcfg.seed)
        mcfg = ModelConfig.from_schema(schema, **(model_overrides or {}))
        params, _ = train(tr, va, tcfg, mcfg)
        rows.append(SweepRow(bins=bins, test_msle=evaluate(params, te)))
        log.info("sweep bins=%d test_msle=%.6f", bins, rows[-1].test_msle)
    return rows
