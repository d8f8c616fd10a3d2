"""Adam with bias correction, operating in place on Tensor parameters.

The moments of every parameter live end to end in two flat vectors, so a
step is a handful of whole-vector operations whatever the parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .errors import NumericError, ShapeError


@dataclass
class AdamState:
    step_size: float = 5e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None  # first moments, parameters flattened end to end
    v: np.ndarray | None = None  # second moments, same layout
    shapes: tuple[tuple[int, ...], ...] = ()  # the parameter shapes the moments belong to


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: AdamState) -> AdamState:
    """One Adam update. Moment buffers are allocated on first use.

    Raises ShapeError when the parameters or their shapes differ from the
    ones the state was built for, and NumericError, naming the first such
    parameter, when a gradient is not finite; either way nothing changes.
    """
    if len(params) != len(grads):
        raise ShapeError(f"adam_step: {len(params)} params but {len(grads)} grads")
    shapes = tuple(p.values.shape for p in params)
    for i, (shape, g) in enumerate(zip(shapes, grads)):
        if np.shape(g) != shape:
            raise ShapeError(f"adam_step: grad {i} has shape {np.shape(g)}, param has {shape}")
    if state.m is None:
        size = sum(p.values.size for p in params)
        state.m, state.v, state.shapes = np.zeros(size), np.zeros(size), shapes
    elif shapes != state.shapes:
        raise ShapeError(
            f"adam_step: state holds moments for {len(state.shapes)} params of shapes "
            f"{state.shapes}, got {len(shapes)} of shapes {shapes}"
        )
    flat = np.concatenate([np.ravel(g) for g in grads], dtype=np.float64)
    if not np.isfinite(flat).all():
        i = next(i for i, g in enumerate(grads) if not np.isfinite(g).all())
        name = params[i].name or f"param[{i}]"
        raise NumericError(
            f"non-finite gradient for {name}",
            details={"param": name, "step": state.t + 1,
                     "grad_norm": float(np.abs(np.asarray(grads[i], dtype=np.float64)).max())},
        )
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * flat
    v *= b2
    v += (1.0 - b2) * flat * flat
    step = state.step_size * (m / (1.0 - b1**state.t)) / (np.sqrt(v / (1.0 - b2**state.t)) + state.eps)
    offset = 0
    for p in params:
        size = p.values.size
        p.values -= step[offset : offset + size].reshape(p.values.shape)
        offset += size
    return state
