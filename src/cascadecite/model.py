"""Degree-sequence regression model.

Per level: degrees scaled by a learned per-bin time decay, pre-embedded into
a fixed width M. A GRU consumes levels shallow-to-deep; each hidden state is
convolved (kernel 2, stride 2 by default) down to M/2, the per-level results
are laid side by side, and an MLP head emits the predicted log2(G + 1).
Training minimizes mean squared error in that log space plus a Frobenius
penalty on the weight matrices (biases and the decay vector are not
penalized).

Every parameter is a view into one ParamBuffer. The penalized weights come
first and form one contiguous slice. The GRU gates are packed as
[wu|wr|wh], [uu|ur] and [bu|br|bh]; the pre-embed layers as one (T, M)
block holding every level's first weights row by row, one (D, M, M) block
per later layer and one (D, M) bias block per layer. Checkpoints still
name each level's and each gate's own array.

Each block is one fused tape record: the decay and every level's pre-embed
layers one `embed`, the GRU over all levels one `gru`, the convolution and
its ReLU over all levels one `conv1d`, the head one `mlp`, and the squared
error with its penalty over the weight slice one `sq_loss`. A training
step records 5 entries, whatever the schema's depth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as _ckpt
from .atomic import read_json
from .autodiff import ParamBuffer, Tensor, conv1d, embed, gru, mlp, sq_loss
from .config import DEFAULTS, _typed
from .encoding import EncodingSchema, schema_from_dict, schema_to_dict
from .errors import CheckpointError, ConfigError, ContractError, ParseError, SchemaError, ShapeError


@dataclass(frozen=True)
class ModelConfig:
    level_lengths: tuple[int, ...]
    bin_count: int
    embed_width: int = DEFAULTS["embed_width"]
    pre_embed_depth: int = DEFAULTS["pre_embed_depth"]
    conv_kernel: int = DEFAULTS["conv_kernel"]
    conv_stride: int = DEFAULTS["conv_stride"]
    head_widths: tuple[int, ...] = tuple(DEFAULTS["head_widths"])  # any sequence, kept as a tuple
    alpha: float = DEFAULTS["alpha"]
    reg_weight: float = DEFAULTS["beta"]

    def __post_init__(self):
        object.__setattr__(self, "head_widths", tuple(self.head_widths))
        if len(self.level_lengths) < 1 or any(l < 1 for l in self.level_lengths):
            raise ConfigError(f"bad level lengths {self.level_lengths}")
        if self.bin_count < 1:
            raise ConfigError(f"bin_count must be >= 1, got {self.bin_count}")
        m = self.embed_width
        if m < 2 or m % 2:
            raise ConfigError(f"embed_width must be even and >= 2, got {m}")
        if self.pre_embed_depth < 1:
            raise ConfigError(f"pre_embed_depth must be >= 1, got {self.pre_embed_depth}")
        if self.conv_kernel < 1 or self.conv_kernel > m or self.conv_stride < 1:
            raise ConfigError(f"bad conv geometry kernel={self.conv_kernel} stride={self.conv_stride}")
        if self.conv_out != m // 2:
            raise ConfigError(
                f"conv output {self.conv_out} != embed_width/2 = {m // 2}; "
                "adjust kernel/stride so each level contributes exactly M/2 features"
            )
        if any(w < 1 for w in self.head_widths):
            raise ConfigError(f"bad head widths {self.head_widths}")
        if self.alpha <= 0 or self.reg_weight < 0:
            raise ConfigError(f"alpha must be > 0 and reg_weight >= 0, got {self.alpha}, {self.reg_weight}")

    @property
    def depth(self) -> int:
        return len(self.level_lengths)

    @property
    def conv_out(self) -> int:
        return (self.embed_width - self.conv_kernel) // self.conv_stride + 1

    @classmethod
    def from_schema(cls, schema: EncodingSchema, **overrides) -> "ModelConfig":
        return cls(
            level_lengths=schema.level_lengths, bin_count=schema.bin_count, **overrides
        )

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["level_lengths"] = list(self.level_lengths)
        doc["head_widths"] = list(self.head_widths)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        """Each value must have the JSON type of its field's default, as in the
        config table; the lengths and widths are lists of integers."""
        kinds = {f.name: f.default for f in dataclasses.fields(cls)} | {
            "level_lengths": [], "bin_count": 0, "head_widths": []}
        try:
            values = {key: _typed(key, value, kinds[key]) for key, value in doc.items()}
            return cls(**values | {"level_lengths": tuple(values["level_lengths"])})
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad model config: {exc!r}") from None


# gate -> (packed block, position of its M columns in that block)
_GRU_PACKED = {
    "gru_wu": ("gru_w", 0), "gru_wr": ("gru_w", 1), "gru_wh": ("gru_w", 2),
    "gru_uu": ("gru_u", 0), "gru_ur": ("gru_u", 1),
    "gru_bu": ("gru_b", 0), "gru_br": ("gru_b", 1), "gru_bh": ("gru_b", 2),
}


def _penalized(name: str) -> bool:
    return name == "conv_kernel" or name.startswith(("head_w", "gru_w", "gru_u")) or (
        name.startswith("pre") and "_w" in name
    )


def _layout(cfg: ModelConfig) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[str, object]], str, str]:
    """Buffer blocks in flat order, penalized weights first; each packed
    parameter's block and index into it; and the first and last weight
    blocks."""
    m, depth = cfg.embed_width, cfg.depth
    packs = {"gru_w": (m, 3 * m), "gru_u": (m, 2 * m), "gru_b": (3 * m,)}
    place = {name: (key, np.s_[..., pos * m : (pos + 1) * m]) for name, (key, pos) in _GRU_PACKED.items()}
    for i in range(cfg.pre_embed_depth):
        packs[f"pre_w{i}"] = (depth, m, m) if i else (sum(cfg.level_lengths), m)
        packs[f"pre_b{i}"] = (depth, m)
        lo = 0
        for k, length in enumerate(cfg.level_lengths):
            place[f"pre{k}_w{i}"] = (f"pre_w{i}", k if i else slice(lo, lo + length))
            place[f"pre{k}_b{i}"] = (f"pre_b{i}", k)
            lo += length
    weights: dict[str, tuple[int, ...]] = {}
    rest: dict[str, tuple[int, ...]] = {}
    for name, shape in expected_shapes(cfg).items():
        key = place[name][0] if name in place else name
        (weights if _penalized(name) else rest)[key] = packs.get(key, shape)
    keys = list(weights)
    return {**weights, **rest}, place, keys[0], keys[-1]


class ModelParams:
    """Named Tensor parameters for one ModelConfig, all views into one
    ParamBuffer (`buffer`)."""

    def __init__(self, config: ModelConfig, tensors: dict[str, np.ndarray]):
        expected = expected_shapes(config)
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        if missing or extra:
            raise ShapeError(f"parameter set mismatch: missing {missing}, unexpected {extra}")
        self.config = config
        blocks, place, first, last = _layout(config)
        self.buffer = buf = ParamBuffer(blocks)
        self._by_name: dict[str, Tensor] = {}
        for name, shape in expected.items():
            arr = np.asarray(tensors[name], dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"parameter {name!r} has shape {arr.shape}, expected {shape}")
            key, index = place.get(name, (name, ...))
            t = self._by_name[name] = buf.block(key, index, name=name)
            t.values[...] = arr

        self.weights = buf.run(first, last)  # every penalized weight, as one slice
        self.decay = self._by_name["decay"]
        # layer i's weights and biases for every level, packed as `embed` takes them
        self.pre_embed = [
            (buf.block(f"pre_w{i}"), buf.block(f"pre_b{i}")) for i in range(config.pre_embed_depth)
        ]
        self.gru_packed = (buf.block("gru_w"), buf.block("gru_u"), self._by_name["gru_uh"], buf.block("gru_b"))
        self.conv_kernel = self._by_name["conv_kernel"]
        self.conv_bias = self._by_name["conv_bias"]
        n_head = len(config.head_widths) + 1
        self.head = [
            (self._by_name[f"head_w{i}"], self._by_name[f"head_b{i}"]) for i in range(n_head)
        ]

    def named(self) -> list[tuple[str, Tensor]]:
        return list(self._by_name.items())

    def tensors(self) -> list[Tensor]:
        return list(self._by_name.values())


def expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    m = cfg.embed_width
    shapes: dict[str, tuple[int, ...]] = {"decay": (cfg.bin_count + 1,)}
    for k, length in enumerate(cfg.level_lengths):
        fan_in = length
        for i in range(cfg.pre_embed_depth):
            shapes[f"pre{k}_w{i}"] = (fan_in, m)
            shapes[f"pre{k}_b{i}"] = (m,)
            fan_in = m
    for key in ("wu", "wr", "wh", "uu", "ur", "uh"):
        shapes[f"gru_{key}"] = (m, m)
    for key in ("bu", "br", "bh"):
        shapes[f"gru_{key}"] = (m,)
    shapes["conv_kernel"] = (cfg.conv_kernel,)
    shapes["conv_bias"] = ()
    widths = [cfg.depth * cfg.conv_out, *cfg.head_widths, 1]
    for i, (d_in, d_out) in enumerate(zip(widths, widths[1:])):
        shapes[f"head_w{i}"] = (d_in, d_out)
        shapes[f"head_b{i}"] = (d_out,)
    return shapes


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, unit decay.

    decay[0] belongs to padding and starts (and provably stays) at 0: padded
    entries carry degree 0, so the gradient reaching decay[0] is identically
    zero and Adam never moves it.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(cfg).items():
        if name == "decay":
            d = np.ones(shape)
            d[0] = 0.0
            tensors[name] = d
        elif name == "conv_kernel":
            limit = np.sqrt(6.0 / (shape[0] + 1))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
        elif len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
        else:
            tensors[name] = np.zeros(shape)  # every bias starts at zero
    return ModelParams(cfg, tensors)


# ------------------------------------------------------------------ forward


def log_target(growth) -> np.ndarray:
    g = np.asarray(growth, dtype=np.float64)
    if g.size and g.min() < 0:
        raise ContractError(f"growth labels must be >= 0, got min {g.min()}")
    return np.log2(g + 1.0)


def growth_from_log(pred: float) -> float:
    return max(0.0, float(np.exp2(pred)) - 1.0)


def forward_batch(
    params: ModelParams,
    degrees: np.ndarray,
    bins: np.ndarray,
    trace: dict | None = None,
) -> Tensor:
    """Predicted log2(G+1) for a batch of stacked encodings; shape (B, 1).

    degrees and bins are (B, total_length) arrays with the levels side by
    side in schema order, as `encoding.stack_sequences` returns them.
    """
    cfg = params.config
    x, decayed = embed(params.decay, degrees, bins, cfg.level_lengths, params.pre_embed)
    hs, gates = gru(x, *params.gru_packed)
    # (B, D, M) states -> (B, D, M/2) features, which the head reads as (B, D*M/2)
    z = conv1d(hs, params.conv_kernel, stride=cfg.conv_stride, bias=params.conv_bias, relu=True)
    if trace is not None:
        m = cfg.embed_width
        edges = np.cumsum((0, *cfg.level_lengths))
        trace.update({
            "decayed": [decayed[:, lo:hi].copy() for lo, hi in zip(edges, edges[1:])],
            "embed": [e.copy() for e in x.values],
            "u": [g[:, :m].copy() for g in gates],
            "r": [g[:, m:].copy() for g in gates],
            "h": [hs.values[:, k].copy() for k in range(cfg.depth)],
            "conv": [z.values[:, k].copy() for k in range(cfg.depth)],
            "concat": z.values.reshape(len(z.values), -1).copy(),
        })
    return mlp(z, params.head)


def loss(preds: Tensor, growths, params: ModelParams) -> Tensor:
    """alpha * mean squared log-space error + reg_weight * sum ||W||_F^2."""
    cfg = params.config
    targets = log_target(growths)[:, None]
    return sq_loss(preds, targets, cfg.alpha / targets.shape[0], params.weights, cfg.reg_weight)


# -------------------------------------------------------------- checkpoints


def save_model(path: str | Path, params: ModelParams, schema: EncodingSchema) -> str | Path:
    arrays = {name: t.values for name, t in params.named()}
    _ckpt.save_arrays(
        path,
        arrays,
        extra={
            "model_config": params.config.to_dict(),
            "schema": schema_to_dict(schema),
        },
    )
    return path


def load_model(path: str | Path) -> tuple[ModelParams, EncodingSchema]:
    """The checkpoint's model and schema. Every fault, from the JSON to an
    array the model does not take, is a CheckpointError naming the file."""
    doc = read_json(path, CheckpointError)
    try:
        if not isinstance(doc, dict) or "model_config" not in doc or "schema" not in doc:
            raise CheckpointError("checkpoint lacks model_config/schema sections")
        cfg = ModelConfig.from_dict(doc["model_config"])
        schema = schema_from_dict(doc["schema"])
        for key in ("level_lengths", "bin_count"):  # stored twice: the arrays fit one, inputs follow the other
            ours, theirs = doc["model_config"][key], doc["schema"][key]
            if ours != theirs:
                raise CheckpointError(f"model_config {key} {ours} disagrees with schema {key} {theirs}")
        params = ModelParams(cfg, _ckpt.parse_arrays(doc))
    except (CheckpointError, ConfigError, ParseError, SchemaError, ShapeError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return params, schema
