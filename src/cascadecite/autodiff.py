"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor is a plain value holder. Primitives compute with numpy and, when a
Tape is active, append (output, pull) records to it. backward() walks the
records in reverse, and each pull adds the output adjoint onto the inputs it
closes over, so every recorded node is visited exactly once. Running a
primitive with no tape active performs the identical numpy computation and
records nothing, so forward values agree bitwise with and without a tape.

Parameters live in a ParamBuffer: one flat value vector and one flat
gradient vector, which every parameter tensor views. Their adjoints are
added in place, backward() clears them all by zeroing the gradient vector
once, and an optimiser updates the value vector as a whole.

Training is bound by the Python cost of each record, not by arithmetic, so
the model is built from five fused primitives with hand-derived pulls:
`embed` (a time-decay lookup and a stack of per-level dense layers over
every level at once, the later layers as one batched product), `gru` (a
whole GRU over a stack of inputs, with every input projection in one
matrix product and backpropagation through time inside its pull),
`conv1d` (a strided convolution along the last axis of a stack of any
rank, with an optional ReLU), `mlp` (a stack of dense layers) and
`sq_loss` (a scaled squared error plus a Frobenius penalty). The
structure probe is built from `mlp` and `sq_loss` too.

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
    __slots__ = ("values", "grad", "name", "buffer")

    def __init__(self, values, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name
        self.buffer: ParamBuffer | None = None  # set when values and grad view a ParamBuffer

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


class ParamBuffer:
    """Parameters laid end to end in one flat value vector, with their
    gradients at the same offsets in one flat gradient vector.

    `blocks` fixes the layout: each block is a contiguous run of both
    vectors with its own shape. A tensor from `block` or `run` views the
    same entries of both vectors, so writing its values writes the buffer
    and its adjoints are added in place into `grad`. Rebinding a tensor's
    `.values` detaches it from the buffer; assign into it instead.
    """

    def __init__(self, blocks: dict[str, tuple[int, ...]]):
        self._spans: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        size = 0
        for key, shape in blocks.items():
            n = int(np.prod(shape, dtype=np.int64))
            self._spans[key] = (size, size + n, tuple(shape))
            size += n
        # (key, start, stop, shape) per block: two buffers with equal layouts
        # hold the same parameters at the same offsets
        self.layout = tuple((key, *span) for key, span in self._spans.items())
        self.values = np.zeros(size)
        self.grad = np.zeros(size)
        self.named: list[Tensor] = []  # the tensors handed out with a name, in order

    def _view(self, index: Callable[[np.ndarray], np.ndarray], name: str | None) -> Tensor:
        t = Tensor(index(self.values), name=name)
        t.grad = index(self.grad)
        t.buffer = self
        if name is not None:
            self.named.append(t)
        return t

    def block(self, key: str, index=..., name: str | None = None) -> Tensor:
        """Block `key`, or its part `block[index]` for a basic index (an
        int, a slice, `...` or a tuple of these), as a tensor."""
        lo, hi, shape = self._spans[key]
        return self._view(lambda a: a[lo:hi].reshape(shape)[index], name)

    def run(self, first: str, last: str) -> Tensor:
        """Blocks first through last, in layout order, as one flat tensor."""
        lo, hi = self._spans[first][0], self._spans[last][1]
        return self._view(lambda a: a[lo:hi], None)


class Tape:
    """Ordered record of primitive applications, replayable in reverse."""

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable]] = []

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

    def backward(self, loss: Tensor, params: Sequence[Tensor] = ()) -> list[np.ndarray]:
        """Pull d loss back through this tape; returns gradients aligned with params.

        Each ParamBuffer behind a parameter has its gradient vector zeroed
        once, so its tensors hold exact zeros wherever the loss never
        reached them; other parameters are reset too, and get zeros when
        the loss never touched them. Every intermediate adjoint is dropped
        as soon as it has been pulled, so calling backward again with the
        same params never double-counts; a leaf tensor left out of params
        keeps adding to its .grad. Raises on a non-scalar or non-finite
        loss.
        """
        if loss.values.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.values).all():
            raise NumericError("loss is not finite")
        cleared = set()
        for p in params:
            if p.buffer is None:
                p.grad = None
            elif id(p.buffer) not in cleared:
                p.buffer.grad.fill(0.0)
                cleared.add(id(p.buffer))
        loss.grad = np.ones_like(loss.values)
        for out, pull in reversed(self._entries):
            g = out.grad
            if g is None:
                continue
            out.grad = None
            pull(g)
        return [np.zeros_like(p.values) if p.grad is None else p.grad for p in params]


def _record(out: Tensor, pull: Callable) -> Tensor:
    if _ACTIVE is not None:
        _ACTIVE._entries.append((out, pull))
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.buffer is not None:
        t.grad += g  # a view into the buffer's gradient vector
    # Elsewhere the first adjoint is stored as it is, so it may be shared with
    # another tensor or be a pull's own array: later ones never add in place.
    elif t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


# ---------------------------------------------------------------- primitives


def embed(
    decay: Tensor,
    degrees: np.ndarray,
    bins: np.ndarray,
    lengths: Sequence[int],
    layers: Sequence[tuple[Tensor, Tensor]],
) -> tuple[Tensor, np.ndarray]:
    """Every level's time decay and pre-embedding layers, as one record.

    degrees and bins are (B, T) constants holding D levels side by side,
    level k in the next lengths[k] columns. The inputs are x = degrees *
    decay[bins], for a 1-D decay. Layer 0 maps level k's columns with its
    rows of a (T, M) weight block and row k of a (D, M) bias; every later
    layer maps all levels at once, with (D, M, M) weights and a (D, M) bias.
    max(., 0) follows every layer but the last, passing no gradient at 0.
    Returns the (D, B, M) stack of level embeddings and x, a plain array
    that no gradient flows through. A bin outside decay is a ContractError.
    """
    if not layers:
        raise ShapeError("embed with zero layers")
    if decay.values.ndim != 1:
        raise ShapeError(f"embed: decay must be 1-D, got {decay.shape}")
    depth, width = len(lengths), sum(lengths)
    if degrees.ndim != 2 or degrees.shape[1] != width or bins.shape != degrees.shape:
        raise ShapeError(f"embed: degrees {degrees.shape} and bins {bins.shape}, levels want (B, {width})")
    if not np.issubdtype(bins.dtype, np.integer):
        raise ContractError(f"embed: bins must be integers, got {bins.dtype}")
    n = decay.shape[0]
    if bins.size and (bins.min() < 0 or bins.max() >= n):
        raise ContractError(f"embed: bin range [{bins.min()}, {bins.max()}] outside decay of length {n}")
    m = layers[0][1].shape[-1]
    for i, (w, b) in enumerate(layers):
        want = (width, m) if i == 0 else (depth, m, m)
        if w.shape != want or b.shape != (depth, m):
            raise ShapeError(f"embed: layer {i} has {w.shape} and {b.shape}, expected {want} and {(depth, m)}")
    spans, lo = [], 0
    for length in lengths:
        spans.append((lo, lo + length))
        lo += length
    x = decay.values[bins] * degrees
    w0 = layers[0][0].values
    z = np.empty((depth, len(x), m))
    for k, (lo, hi) in enumerate(spans):
        np.matmul(x[:, lo:hi], w0[lo:hi], out=z[k])
    last = len(layers) - 1
    ins, masks = [], []  # each later layer's input; each ReLU's mask
    for i, (w, b) in enumerate(layers):
        if i:
            ins.append(z)
            z = np.matmul(z, w.values)
        z += b.values[:, None]
        if i < last:
            masks.append(z > 0)
            z = np.where(masks[i], z, 0.0)
    out = Tensor(z)

    def pull(g):
        for i in range(last, -1, -1):
            w, b = layers[i]
            if i < last:
                g = g * masks[i]
            _acc(b, g.sum(axis=1))
            if i:
                _acc(w, np.matmul(ins[i - 1].transpose(0, 2, 1), g))
                g = np.matmul(g, w.values.transpose(0, 2, 1))
        dw0, dx = np.empty_like(w0), np.empty_like(x)
        for k, (lo, hi) in enumerate(spans):
            # a one-slot level makes this a matrix-vector product, whose last
            # bits depend on the vector's stride: use a contiguous copy
            np.matmul(np.ascontiguousarray(x[:, lo:hi]).T, g[k], out=dw0[lo:hi])
            np.matmul(g[k], w0[lo:hi].T, out=dx[:, lo:hi])
        dx *= degrees
        # one bincount over (level, bin) pairs, then the levels added deepest
        # first: the sums a level-by-level backward pass forms, bit for bit
        pairs = bins + np.repeat(np.arange(depth - 1, -1, -1) * n, lengths)
        sums = np.bincount(pairs.ravel(), weights=dx.ravel(), minlength=depth * n)
        _acc(decay, sums.reshape(depth, n).sum(axis=0))
        _acc(layers[0][0], dw0)

    _record(out, pull)
    return out, x


def gru(x: Tensor, w: Tensor, u: Tensor, uh: Tensor, b: Tensor) -> tuple[Tensor, np.ndarray]:
    """A GRU over the D steps x[0], ..., x[D-1] of a (D, B, I) stack, from
    a zero state, as one record. The gate weights come packed:
    w = [wu|wr|wh] (I, 3M), u = [uu|ur] (M, 2M), uh (M, M), b = [bu|br|bh]
    (3M,). Step k computes, from the state h before it,

        u  = sigmoid(x wu + bu + h uu)          update gate
        r  = sigmoid(x wr + br + h ur)          reset gate
        hc = tanh(x wh + bh + (r * h) uh)       candidate
        h' = h + u * (hc - h)

    The input projections of every step are one matrix product, since they
    do not depend on the recurrence, and the sigmoid is 1/2 + tanh(z/2)/2,
    which cannot overflow. Returns the (B, D, M) stack of states and the
    (D, B, 2M) gate values [u|r], a plain array that no gradient flows
    through. With no tape active nothing is kept for the pull.
    """
    if x.values.ndim != 3:
        raise ShapeError(f"gru: input must be a (D, B, I) stack, got {x.shape}")
    depth, nb, n_in = x.shape
    if not depth:
        raise ShapeError("gru over zero steps")
    m = uh.shape[0] if uh.values.ndim else 0
    for name, t, want in (
        ("w", w, (n_in, 3 * m)), ("u", u, (m, 2 * m)), ("uh", uh, (m, m)), ("b", b, (3 * m,)),
    ):
        if t.shape != want:
            raise ShapeError(f"gru: {name} has shape {t.shape}, expected {want}")
    proj = x.values.reshape(depth * nb, n_in) @ w.values
    proj += b.values
    proj = proj.reshape(depth, nb, 3 * m)
    proj[:, :, : 2 * m] *= 0.5  # the gates' tanh(z/2); scaling by 1/2 is exact
    half_u = 0.5 * u.values
    uhv = uh.values
    states = np.empty((nb, depth, m))
    gates = np.empty((depth, nb, 2 * m))
    taped = _ACTIVE is not None
    cands = np.empty((depth, nb, m)) if taped else None
    h = np.zeros((nb, m))
    for k in range(depth):
        ur = gates[k]
        if k:
            np.matmul(h, half_u, out=ur)
            ur += proj[k, :, : 2 * m]
            np.tanh(ur, out=ur)
        else:
            np.tanh(proj[0, :, : 2 * m], out=ur)
        ur *= 0.5
        ur += 0.5
        hc = (ur[:, m:] * h) @ uhv
        hc += proj[k, :, 2 * m :]
        np.tanh(hc, out=hc)
        if taped:
            cands[k] = hc
        step = hc - h
        step *= ur[:, :m]
        step += h
        h = states[:, k] = step
    out = Tensor(states)
    if not taped:
        return out, gates

    def pull(g):
        gate_u, gate_r = gates[:, :, :m], gates[:, :, m:]
        prev = np.zeros((depth, nb, m))  # the state each step starts from
        prev[1:] = states[:, :-1].transpose(1, 0, 2)
        # everything but the adjoint flowing back along h, for all steps at once
        keep = 1.0 - gate_u
        d_u = (cands - prev) * gate_u * keep
        d_hc = gate_u * (1.0 - cands * cands)
        d_r = prev * gate_r * (1.0 - gate_r)
        a = np.empty((depth, nb, 3 * m))  # pre-activation adjoints [u|r|hc]
        dh = None
        for k in reversed(range(depth)):
            gk = g[:, k] if dh is None else g[:, k] + dh
            np.multiply(gk, d_u[k], out=a[k, :, :m])
            a_h = np.multiply(gk, d_hc[k], out=a[k, :, 2 * m :])
            d_rh = a_h @ uhv.T
            np.multiply(d_rh, d_r[k], out=a[k, :, m : 2 * m])
            if k:
                dh = a[k, :, : 2 * m] @ u.values.T
                dh += gk * keep[k]
                dh += d_rh * gate_r[k]
        flat = a.reshape(depth * nb, 3 * m)
        _acc(x, (flat @ w.values.T).reshape(depth, nb, n_in))
        _acc(w, x.values.reshape(depth * nb, n_in).T @ flat)
        _acc(b, flat.sum(axis=0))
        _acc(u, prev.reshape(depth * nb, m).T @ flat[:, : 2 * m])
        _acc(uh, (gate_r * prev).reshape(depth * nb, m).T @ flat[:, 2 * m :])

    _record(out, pull)
    return out, gates


def conv1d(
    x: Tensor, kernel: Tensor, stride: int = 1, bias: Tensor | None = None, relu: bool = False
) -> Tensor:
    """Single-channel valid convolution along the last axis, then max(., 0)
    when relu is set; one record.

    x is any stack of rows (..., n), a single vector included; each row
    gives (n - w) // stride + 1 outputs. bias, when given, is a scalar added
    everywhere before the ReLU, which passes no gradient at 0.
    """
    if kernel.values.ndim != 1:
        raise ShapeError(f"conv1d: kernel must be 1-D, got {kernel.shape}")
    if x.values.ndim < 1:
        raise ShapeError(f"conv1d: input must have at least one axis, got {x.shape}")
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
    if relu:
        mask = vals > 0
        vals = np.where(mask, vals, 0.0)
    out = Tensor(vals)

    def pull(g):
        if relu:
            g = g * mask
        dx = np.zeros_like(xv)
        dk = np.empty(w)
        for j, tap in enumerate(taps):
            dx[tap] += g * kv[j]
            dk[j] = (g * xv[tap]).sum()
        _acc(x, dx)
        _acc(kernel, dk)
        if bias is not None:
            _acc(bias, np.asarray(g.sum()))

    return _record(out, pull)


def mlp(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Dense layers a @ w + b on a (B, I) batch, each (w, b) an (I, O)
    weight and an (O,) bias, with max(., 0) after every layer but the last;
    one record. x may also be (B, ...), its trailing axes flattened to
    width I. The ReLU passes no gradient at 0."""
    if not layers:
        raise ShapeError("mlp with zero layers")
    a = x.values
    if a.ndim > 2:
        a = a.reshape(len(a), -1)
    last = len(layers) - 1
    ins, masks = [], []
    for i, (w, b) in enumerate(layers):
        wv = w.values
        if a.ndim != 2 or wv.ndim != 2 or a.shape[1] != wv.shape[0]:
            raise ShapeError(f"mlp: layer {i} gets input {a.shape} for weights {w.shape}")
        if b.shape != (wv.shape[1],):
            raise ShapeError(f"mlp: layer {i} bias {b.shape} does not match weights {w.shape}")
        ins.append(a)
        a = a @ wv + b.values
        if i < last:
            masks.append(a > 0)
            a = np.where(masks[i], a, 0.0)
    out = Tensor(a)

    def pull(g):
        for i in range(last, -1, -1):
            w, b = layers[i]
            if i < last:
                g = g * masks[i]
            _acc(w, ins[i].T @ g)
            _acc(b, g.sum(axis=0))
            g = g @ w.values.T
        _acc(x, g.reshape(x.shape))

    return _record(out, pull)


def sq_loss(
    pred: Tensor, target: np.ndarray, scale: float, weights: Tensor | None = None, reg: float = 0.0
) -> Tensor:
    """scale * sum((pred - target)**2), plus reg * sum(weights**2) when
    weights are given and reg is not 0: a scaled squared error and a
    Frobenius penalty, as one scalar record. target is a constant."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"sq_loss: predictions {pred.shape} do not match targets {target.shape}")
    scale, reg = float(scale), float(reg)
    e = pred.values - target
    value = (e * e).sum() * scale
    penalized = weights is not None and reg != 0.0
    if penalized:
        wv = weights.values
        value = value + (wv * wv).sum() * reg
    out = Tensor(value)

    def pull(g):
        if penalized:
            _acc(weights, (2.0 * (g * reg)) * wv)
        _acc(pred, (2.0 * (g * scale)) * e)

    return _record(out, pull)


# ---------------------------------------------------------- gradient checking


ROUNDOFF = 1e3 * np.finfo(np.float64).eps  # relative error grad_check allows in one loss value


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

    Relative error per coordinate is max(0, |analytic - numeric| - floor) /
    max(1e-8, |analytic| + |numeric|). The floor is the round-off a central
    difference cannot resolve: each loss value is taken to carry a relative
    error of ROUNDOFF (machine epsilon times 1000, for sums whose terms
    cancel to a much smaller loss), so floor = ROUNDOFF * (|f(x+eps)| +
    |f(x-eps)|) / (2 eps). Without it a correct gradient below about 1e-7
    fails for noise alone. f is re-evaluated with no tape active for the
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
            floor = ROUNDOFF * (abs(fp) + abs(fm)) / (2.0 * eps)
            rel = max(0.0, abs(analytic - numeric) - floor) / max(1e-8, abs(analytic) + abs(numeric))
            checked += 1
            if rel > worst[0]:
                worst = (rel, pi, int(ci))
    return GradCheckReport(
        max_rel_error=worst[0], worst_param=worst[1], worst_coord=worst[2],
        checked=checked, tol=tol,
    )
