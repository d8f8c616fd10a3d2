"""Adam with bias correction, operating in place on a ParamBuffer.

The parameters and their gradients are already two flat vectors, so a step
is a handful of whole-vector operations into preallocated scratch, whatever
the parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamBuffer
from .config import DEFAULTS
from .errors import NumericError, ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator's floor


@dataclass
class AdamState:
    step_size: float = DEFAULTS["step_size"]
    t: int = 0
    m: np.ndarray | None = None  # first moments, laid out like the buffer
    v: np.ndarray | None = None  # second moments, same layout
    scratch: tuple[np.ndarray, np.ndarray] = ()  # two work vectors of the same size
    layout: tuple = ()  # the ParamBuffer.layout the moments were built for


def adam_step(params: ParamBuffer, state: AdamState) -> AdamState:
    """One Adam update of params.values from params.grad. Moment and
    scratch vectors are allocated on first use.

    Raises ShapeError when the buffer's block layout differs from the one
    the state was built for, and NumericError, naming the first such parameter in
    `params.named`, when a gradient is not finite; either way nothing
    changes.
    """
    values, grad = params.values, params.grad
    if state.m is None:
        state.m, state.v = np.zeros_like(values), np.zeros_like(values)
        state.scratch = (np.empty_like(values), np.empty_like(values))
        state.layout = params.layout
    elif params.layout != state.layout:
        raise ShapeError(
            f"adam_step: state holds moments for another layout ({len(state.layout)} blocks, "
            f"{state.m.size} values), got {len(params.layout)} blocks, {values.size} values"
        )
    if not np.isfinite(grad).all():
        bad = next((t for t in params.named if not np.isfinite(t.grad).all()), None)
        name = "param" if bad is None else bad.name
        worst = grad if bad is None else bad.grad
        raise NumericError(
            f"non-finite gradient for {name}",
            details={"param": name, "step": state.t + 1, "grad_norm": float(np.abs(worst).max())},
        )
    state.t += 1
    b1, b2 = BETA1, BETA2
    m, v = state.m, state.v
    tmp, den = state.scratch
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    m *= b1
    np.multiply(grad, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    v += tmp
    # values -= step_size * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    np.divide(v, 1.0 - b2**state.t, out=den)
    np.sqrt(den, out=den)
    den += EPS
    np.divide(m, 1.0 - b1**state.t, out=tmp)
    tmp *= state.step_size
    tmp /= den
    values -= tmp
    return state
