"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor is a plain value holder. Primitives compute with numpy and, when a
Tape is active, append (output, inputs, pull) records to it. backward() walks
the records in reverse, pulling the output adjoint back onto the inputs, so
every recorded node is visited exactly once. Running a primitive with no tape
active performs the identical numpy computation and records nothing, so
forward values agree bitwise with and without a tape.

Training is bound by the Python cost of each record, not by arithmetic, so
the model is built from a few fused primitives with hand-derived pulls:
`dense` (matmul, bias and an optional ReLU), `gru_cell` (both gates, the
candidate and the state update of one GRU step), `sum_sq` (the squared
Frobenius norm of a list of tensors), and `gather` with per-element weights
(a decay table looked up and scaled in one record). The structure probe
is built from `dense` too. The small primitives remain only for the loss
(`add`, `sub`, `mul`, `scale`, `total`) and for the ReLU after the conv.

The finite-difference checker at the bottom is the independent route for
validating adjoints; it only ever calls the taped route to obtain analytic
gradients and otherwise re-evaluates the loss as a black box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_ACTIVE: "Tape | None" = None


class Tensor:
    __slots__ = ("values", "grad", "name")

    def __init__(self, values, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.shape})"


def const(values, name: str | None = None) -> Tensor:
    return Tensor(values, name=name)


class Tape:
    """Ordered record of primitive applications, replayable in reverse."""

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = None
        return False

    def __len__(self):
        return len(self._entries)

    def backward(self, loss: Tensor, params: Sequence[Tensor] | None = None) -> list[np.ndarray]:
        """Populate .grad on every tensor reachable from loss through this tape.

        Returns gradients aligned with `params` when given; parameters the loss
        never touched get exact zeros. Raises on a non-scalar loss.
        """
        if loss.values.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.values).all():
            raise NumericError("loss is not finite")
        # reset so repeated backward calls never double-accumulate
        for out, inputs, _ in self._entries:
            out.grad = None
            for t in inputs:
                t.grad = None
        params = list(params or ())
        for p in params:
            p.grad = None
        loss.grad = np.ones_like(loss.values)
        for out, _, pull in reversed(self._entries):
            if out.grad is None:
                continue
            pull(out.grad)
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.values)
        return [p.grad for p in params]  # type: ignore[misc]


def _record(out: Tensor, inputs: tuple[Tensor, ...], pull: Callable) -> Tensor:
    if _ACTIVE is not None:
        _ACTIVE._entries.append((out, inputs, pull))
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    # The first adjoint is stored as it is, so it may be shared with another
    # tensor or be a pull's own array: later ones never add in place.
    t.grad = g if t.grad is None else t.grad + g


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------- primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.values + b.values)

    def pull(g):
        _acc(a, g)
        _acc(b, g)

    return _record(out, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.values - b.values)

    def pull(g):
        _acc(a, g)
        _acc(b, -g)

    return _record(out, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.values * b.values)

    def pull(g):
        _acc(a, g * b.values)
        _acc(b, g * a.values)

    return _record(out, (a, b), pull)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.values * c)

    def pull(g):
        _acc(a, g * c)

    return _record(out, (a,), pull)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0  # subgradient 0 at the kink
    out = Tensor(np.where(mask, a.values, 0.0))

    def pull(g):
        _acc(a, g * mask)

    return _record(out, (a,), pull)


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b for a (B, I) batch, (I, M) weights and an (M,) bias, then
    max(., 0) when relu is set; one record. The ReLU passes no gradient at 0."""
    if x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: incompatible shapes {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"dense: bias shape {b.shape} does not match weights {w.shape}")
    xv, wv = x.values, w.values
    z = xv @ wv + b.values
    if relu:
        mask = z > 0
        z = np.where(mask, z, 0.0)
    out = Tensor(z)

    def pull(g):
        if relu:
            g = g * mask
        _acc(x, g @ wv.T)
        _acc(w, xv.T @ g)
        _acc(b, g.sum(axis=0))

    return _record(out, (x, w, b), pull)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|v|."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def gru_cell(
    x: Tensor, h: Tensor,
    wu: Tensor, wr: Tensor, wh: Tensor,
    uu: Tensor, ur: Tensor, uh: Tensor,
    bu: Tensor, br: Tensor, bh: Tensor,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One GRU step on a (B, I) input batch and (B, M) state, as one record:

        u  = sigmoid(x wu + h uu + bu)          update gate
        r  = sigmoid(x wr + h ur + br)          reset gate
        hc = tanh(x wh + (r * h) uh + bh)       candidate
        h' = u * hc + (1 - u) * h

    Returns h' and the gate values u and r, which are plain arrays, not
    tensors: no gradient flows through them.
    """
    if x.values.ndim != 2 or h.values.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"gru_cell: input {x.shape} does not match state {h.shape}")
    m = h.shape[1]
    for name, t, shape in (
        ("wu", wu, (x.shape[1], m)), ("wr", wr, (x.shape[1], m)), ("wh", wh, (x.shape[1], m)),
        ("uu", uu, (m, m)), ("ur", ur, (m, m)), ("uh", uh, (m, m)),
        ("bu", bu, (m,)), ("br", br, (m,)), ("bh", bh, (m,)),
    ):
        if t.shape != shape:
            raise ShapeError(f"gru_cell: {name} has shape {t.shape}, expected {shape}")
    xv, hv = x.values, h.values
    u = _sigmoid(xv @ wu.values + hv @ uu.values + bu.values)
    r = _sigmoid(xv @ wr.values + hv @ ur.values + br.values)
    rh = r * hv
    hc = np.tanh(xv @ wh.values + rh @ uh.values + bh.values)
    out = Tensor(u * hc + (1.0 - u) * hv)

    def pull(g):
        a_u = g * (hc - hv) * u * (1.0 - u)
        a_h = g * u * (1.0 - hc * hc)
        d_rh = a_h @ uh.values.T
        a_r = d_rh * hv * r * (1.0 - r)
        _acc(x, a_u @ wu.values.T + a_r @ wr.values.T + a_h @ wh.values.T)
        _acc(h, g * (1.0 - u) + d_rh * r + a_u @ uu.values.T + a_r @ ur.values.T)
        _acc(wu, xv.T @ a_u)
        _acc(wr, xv.T @ a_r)
        _acc(wh, xv.T @ a_h)
        _acc(uu, hv.T @ a_u)
        _acc(ur, hv.T @ a_r)
        _acc(uh, rh.T @ a_h)
        _acc(bu, a_u.sum(axis=0))
        _acc(br, a_r.sum(axis=0))
        _acc(bh, a_h.sum(axis=0))

    _record(out, (x, h, wu, wr, wh, uu, ur, uh, bu, br, bh), pull)
    return out, u, r


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    ndim = parts[0].values.ndim
    if any(p.values.ndim != ndim for p in parts):
        raise ShapeError(f"concat: mixed ranks {[p.shape for p in parts]}")
    if axis >= ndim:
        raise ShapeError(f"concat: axis {axis} out of range for rank {ndim}")
    out = Tensor(np.concatenate([p.values for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]

    def pull(g):
        offset = 0
        for p, size in zip(parts, sizes):
            sl = [slice(None)] * ndim
            sl[axis] = slice(offset, offset + size)
            _acc(p, g[tuple(sl)])
            offset += size

    return _record(out, tuple(parts), pull)


def conv1d(x: Tensor, kernel: Tensor, stride: int = 1, bias: Tensor | None = None) -> Tensor:
    """Single-channel valid convolution along the last axis.

    x may be a vector (n,) or a batch of rows (B, n); output length is
    (n - w) // stride + 1. bias, when given, is a scalar added everywhere.
    """
    if kernel.values.ndim != 1:
        raise ShapeError(f"conv1d: kernel must be 1-D, got {kernel.shape}")
    if x.values.ndim not in (1, 2):
        raise ShapeError(f"conv1d: input must be 1-D or 2-D, got {x.shape}")
    if stride < 1:
        raise ContractError(f"conv1d: stride must be >= 1, got {stride}")
    n = x.shape[-1]
    w = kernel.shape[0]
    if w > n:
        raise ShapeError(f"conv1d: kernel width {w} exceeds input length {n}")
    if bias is not None and bias.values.ndim != 0:
        raise ShapeError(f"conv1d: bias must be a scalar, got {bias.shape}")
    out_len = (n - w) // stride + 1
    # tap j meets x[j], x[j + stride], ...: one strided slice per kernel tap
    taps = [(..., slice(j, j + (out_len - 1) * stride + 1, stride)) for j in range(w)]
    xv, kv = x.values, kernel.values
    vals = xv[taps[0]] * kv[0]
    for j in range(1, w):
        vals += xv[taps[j]] * kv[j]
    if bias is not None:
        vals += bias.values
    out = Tensor(vals)

    def pull(g):
        dx = np.zeros_like(xv)
        dk = np.empty(w)
        for j, tap in enumerate(taps):
            dx[tap] += g * kv[j]
            dk[j] = (g * xv[tap]).sum()
        _acc(x, dx)
        _acc(kernel, dk)
        if bias is not None:
            _acc(bias, np.asarray(g.sum()))

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _record(out, inputs, pull)


def gather(vec: Tensor, idx: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """vec[idx] for a 1-D vec and an integer index array of any shape, times
    a constant array of idx's shape when weights is given."""
    if vec.values.ndim != 1:
        raise ShapeError(f"gather: source must be 1-D, got {vec.shape}")
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError(f"gather: indices must be integers, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= vec.shape[0]):
        raise ContractError(
            f"gather: index range [{idx.min()}, {idx.max()}] outside vector of length {vec.shape[0]}"
        )
    vals = vec.values[idx]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != idx.shape:
            raise ShapeError(f"gather: weights {weights.shape} do not match indices {idx.shape}")
        vals = vals * weights
    out = Tensor(vals)
    n = vec.shape[0]

    def pull(g):
        if weights is not None:
            g = g * weights
        # bincount adds in index order, the same sums np.add.at would form
        _acc(vec, np.bincount(idx.ravel(), weights=g.ravel(), minlength=n))

    return _record(out, (vec,), pull)


def total(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum())

    def pull(g):
        _acc(a, np.broadcast_to(g, a.shape).astype(np.float64))

    return _record(out, (a,), pull)


def sum_sq(parts: Sequence[Tensor]) -> Tensor:
    """Sum of the squares of every entry of every tensor in parts, as one
    record: a squared Frobenius norm summed over a list of weights."""
    if not parts:
        raise ShapeError("sum_sq of zero tensors")
    vals = [p.values for p in parts]
    acc = (vals[0] * vals[0]).sum()
    for v in vals[1:]:
        acc = acc + (v * v).sum()
    out = Tensor(acc)

    def pull(g):
        g2 = 2.0 * g
        for p, v in zip(parts, vals):
            _acc(p, g2 * v)

    return _record(out, tuple(parts), pull)


# ---------------------------------------------------------- gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: int
    worst_coord: int
    checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    max_per_param: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare taped gradients of the scalar f() against central differences.

    Relative error per coordinate is |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|). f is re-evaluated with no tape active for the
    perturbed evaluations, so the numeric route never touches the adjoints.
    """
    with Tape() as tape:
        loss = f()
    if loss.values.size != 1:
        raise ContractError(f"grad_check needs a scalar loss, got shape {loss.shape}")
    grads = tape.backward(loss, params=params)
    rng = np.random.default_rng(seed)

    def eval_loss() -> float:
        v = f().values
        if not np.isfinite(v).all():
            raise NumericError("non-finite loss during finite differencing")
        return float(v.reshape(()))

    worst = (0.0, -1, -1)
    checked = 0
    for pi, (p, g) in enumerate(zip(params, grads)):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite analytic gradient for parameter {pi}")
        size = p.values.size
        if max_per_param is not None and size > max_per_param:
            coords = rng.choice(size, size=max_per_param, replace=False)
        else:
            coords = range(size)
        for ci in coords:
            old = p.values.flat[ci]
            p.values.flat[ci] = old + eps
            fp = eval_loss()
            p.values.flat[ci] = old - eps
            fm = eval_loss()
            p.values.flat[ci] = old
            numeric = (fp - fm) / (2.0 * eps)
            analytic = float(g.flat[ci])
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            checked += 1
            if rel > worst[0]:
                worst = (rel, pi, int(ci))
    return GradCheckReport(
        max_rel_error=worst[0], worst_param=worst[1], worst_coord=worst[2],
        checked=checked, tol=tol,
    )
