"""How much tree structure survives in the flattened degree sequences?

A small MLP regresses five structural features of each tree from its
flattened (optionally time-decayed) encoding. Low held-out MSE on a feature
means the encoding retains it. Two of the features are exact functions of
the encoding by construction: edge count equals the number of non-padding
entries, and leaf count equals the number of entries with degree 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import ParamBuffer, Tape, Tensor, mlp, sq_loss
from .errors import ConfigError
from .optim import AdamState, adam_step
from .trees import TreeShape

FEATURE_NAMES = TreeShape._fields
_HIDDEN = 64  # readout width
_EPOCHS = 200  # full-batch Adam steps
_STEP_SIZE = 1e-2
MIN_SAMPLES = 5  # the fewest trees a probe runs on


@dataclass
class ProbeReport:
    mse: dict[str, float]
    flags: dict[str, str]
    n_train: int
    n_test: int


def probe(
    degrees: np.ndarray,
    bins: np.ndarray,
    features: Sequence[TreeShape],
    seed: int,
    decay: np.ndarray | None = None,
) -> ProbeReport:
    """Fit an MLP readout from flattened encodings to min-max-scaled features.

    degrees and bins are stacked encodings, as `encoding.stack_sequences`
    returns them. decay=None probes the raw degree sequences (all-ones decay
    over real bins); passing a trained decay vector probes the time-scaled
    inputs. Returns held-out per-feature MSE on the normalized scale (80/20
    split by seed). Constant features are reported as 0 with a flag.
    """
    if len(degrees) != len(features):
        raise ConfigError(f"{len(degrees)} encodings vs {len(features)} feature rows")
    if len(degrees) < MIN_SAMPLES:
        raise ConfigError(f"probe needs at least {MIN_SAMPLES} samples, got {len(degrees)}")
    if decay is None:
        decay = np.ones(1 + bins.max())
        decay[0] = 0.0

    x = degrees * decay[bins]  # as `embed` takes its inputs; padding stays 0
    y_raw = np.array(features, dtype=np.float64)

    lo = y_raw.min(axis=0)
    span = y_raw.max(axis=0) - lo
    live = span > 0
    flags = {name: "constant feature; reported as 0" for name, ok in zip(FEATURE_NAMES, live) if not ok}
    y = np.zeros_like(y_raw)
    y[:, live] = (y_raw[:, live] - lo[live]) / span[live]

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(degrees))
    n_train = int(round(0.8 * len(degrees)))
    tr, te = order[:n_train], order[n_train:]
    if len(te) == 0:
        raise ConfigError("probe split left no held-out samples")

    d = x.shape[1]
    limit1 = np.sqrt(6.0 / (d + _HIDDEN))
    limit2 = np.sqrt(6.0 / (_HIDDEN + y.shape[1]))
    shapes = {
        "probe_w1": (d, _HIDDEN), "probe_b1": (_HIDDEN,),
        "probe_w2": (_HIDDEN, y.shape[1]), "probe_b2": (y.shape[1],),
    }
    buf = ParamBuffer(shapes)
    w1, b1, w2, b2 = params = [buf.block(key, name=key) for key in shapes]
    w1.values[...] = rng.uniform(-limit1, limit1, size=w1.shape)
    w2.values[...] = rng.uniform(-limit2, limit2, size=w2.shape)
    state = AdamState(step_size=_STEP_SIZE)
    layers = [(w1, b1), (w2, b2)]
    xt, yt = Tensor(x[tr]), y[tr]
    for _ in range(_EPOCHS):
        with Tape() as tape:
            batch_loss = sq_loss(mlp(xt, layers), yt, 1.0 / yt.size)
        tape.backward(batch_loss, params=params)
        adam_step(buf, state)

    preds = mlp(Tensor(x[te]), layers).values
    per_feature = ((preds - y[te]) ** 2).mean(axis=0)
    mse = {name: float(v) if ok else 0.0 for name, v, ok in zip(FEATURE_NAMES, per_feature, live)}
    return ProbeReport(mse=mse, flags=flags, n_train=len(tr), n_test=len(te))
