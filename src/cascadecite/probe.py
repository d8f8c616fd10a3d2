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
from .encoding import DegreeSequence
from .errors import ConfigError, FeatureError
from .optim import AdamState, adam_step
from .trees import CascadeTree, TreeShape

FEATURE_NAMES = TreeShape._fields
_HIDDEN = 64  # readout width
_EPOCHS = 200  # full-batch Adam steps
_STEP_SIZE = 1e-2


def structural_features(tree: CascadeTree) -> TreeShape:
    """Edge count, eccentricity from the root, mean root distance, leaf count, mean degree."""
    if tree.size < 2:
        raise FeatureError(f"tree {tree.root!r} has no non-root nodes")
    return tree.shape


@dataclass
class ProbeReport:
    mse: dict[str, float]
    flags: dict[str, str]
    n_train: int
    n_test: int

    def to_dict(self) -> dict:
        return {"mse": self.mse, "flags": self.flags, "n_train": self.n_train, "n_test": self.n_test}


def probe(
    seqs: Sequence[DegreeSequence],
    features: Sequence[TreeShape],
    seed: int,
    decay: np.ndarray | None = None,
) -> ProbeReport:
    """Fit an MLP readout from flattened encodings to min-max-scaled features.

    decay=None probes the raw degree sequences (all-ones decay over real
    bins); passing a trained decay vector probes the time-scaled inputs.
    Returns held-out per-feature MSE on the normalized scale (80/20 split by
    seed). Constant features are reported as 0 with a flag.
    """
    if len(seqs) != len(features):
        raise ConfigError(f"{len(seqs)} encodings vs {len(features)} feature rows")
    if len(seqs) < 5:
        raise ConfigError(f"probe needs at least 5 samples, got {len(seqs)}")
    if decay is None:
        bins = 1 + max(e.bin for s in seqs for lvl in s.levels for e in lvl)
        decay = np.ones(bins)
        decay[0] = 0.0

    # every level concatenated as degree * decay[bin]; padding stays 0
    x = np.array([[e.degree * decay[e.bin] for lvl in s.levels for e in lvl] for s in seqs])
    y_raw = np.array(features, dtype=np.float64)

    lo = y_raw.min(axis=0)
    hi = y_raw.max(axis=0)
    span = hi - lo
    flags = {}
    live = span > 0
    for j, name in enumerate(FEATURE_NAMES):
        if not live[j]:
            flags[name] = "constant feature; reported as 0"
    y = np.zeros_like(y_raw)
    y[:, live] = (y_raw[:, live] - lo[live]) / span[live]

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(seqs))
    n_train = int(round(0.8 * len(seqs)))
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
    mse = {}
    for j, name in enumerate(FEATURE_NAMES):
        mse[name] = 0.0 if not live[j] else float(per_feature[j])
    return ProbeReport(mse=mse, flags=flags, n_train=len(tr), n_test=len(te))
