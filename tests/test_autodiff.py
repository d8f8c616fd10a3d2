"""Each primitive's adjoint against central differences, plus tape mechanics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadecite import autodiff as ad
from cascadecite.errors import ContractError, NumericError, ShapeError


def check(f, params, tol=1e-6, seed=0, eps=1e-5):
    report = ad.grad_check(f, params, eps=eps, tol=tol, seed=seed)
    assert report.passed, (
        f"max rel error {report.max_rel_error:.3e} at param {report.worst_param} "
        f"coord {report.worst_coord}"
    )
    return report


def tensors(rng, *shapes):
    return [ad.Tensor(rng.standard_normal(s), name=f"p{i}") for i, s in enumerate(shapes)]


def gru_weights(rng, n_in, m):
    """Packed w = [wu|wr|wh], u = [uu|ur], uh and b = [bu|br|bh] for an n_in -> m GRU,
    drawn gate by gate in the order wu, wr, wh, uu, ur, uh, bu, br, bh."""
    wu, wr, wh, uu, ur, uh, bu, br, bh = (
        0.5 * rng.standard_normal(s) for s in [(n_in, m)] * 3 + [(m, m)] * 3 + [(m,)] * 3
    )
    return [ad.Tensor(np.hstack(g)) for g in ([wu, wr, wh], [uu, ur], [uh], [bu, br, bh])]


def embed_inputs(rng, lengths, n_rows, bin_count):
    """(degrees, bins) for levels of the given widths: real slots carry a
    degree >= 1 and a bin in 1..bin_count, the last row is all padding, and
    the first slot of the first row sits in the top bin."""
    width = sum(lengths)
    degrees = rng.integers(0, 4, (n_rows, width)).astype(float)
    bins = rng.integers(1, bin_count + 1, (n_rows, width))
    degrees[-1] = 0.0
    degrees[0, 0] = 2.0
    bins[0, 0] = bin_count
    bins[degrees == 0] = 0
    return degrees, bins


def embed_layers(rng, lengths, m, depth):
    """Packed (weights, bias) tensors for `depth` pre-embed layers."""
    d = len(lengths)
    return [
        (ad.Tensor(rng.standard_normal((sum(lengths), m) if i == 0 else (d, m, m))),
         ad.Tensor(rng.standard_normal((d, m))))
        for i in range(depth)
    ]


def stacked(*xs):
    """The (D, B, I) stack of (B, I) tensors, as a record: test scaffolding
    that lets one tensor enter the GRU at a non-zero state."""
    out = ad.Tensor(np.stack([x.values for x in xs]))

    def pull(g):
        for x, gk in zip(xs, g):
            ad._acc(x, gk)

    return ad._record(out, pull)


def gru_reference(xs, w, u, uh, b):
    """The GRU equations step by step on plain arrays, gates unpacked."""
    m = uh.shape[0]
    wu, wr, wh = w[:, :m], w[:, m : 2 * m], w[:, 2 * m :]
    uu, ur = u[:, :m], u[:, m:]
    bu, br, bh = b[:m], b[m : 2 * m], b[2 * m :]

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros((xs[0].shape[0], m))
    states, gates = [], []
    for x in xs:
        gu = sigmoid(x @ wu + h @ uu + bu)
        gr = sigmoid(x @ wr + h @ ur + br)
        hc = np.tanh(x @ wh + (gr * h) @ uh + bh)
        h = gu * hc + (1.0 - gu) * h
        states.append(h)
        gates.append(np.hstack([gu, gr]))
    return np.stack(states, axis=1), np.stack(gates)


@pytest.mark.parametrize("reg", [0.0, 0.3])
def test_sq_loss_value_and_adjoint(reg):
    rng = np.random.default_rng(1)
    p, w = tensors(rng, (3, 4), (5,))
    target = rng.standard_normal((3, 4))
    value = ad.sq_loss(p, target, 0.7, weights=w, reg=reg).item()
    expect = 0.7 * float(((p.values - target) ** 2).sum()) + reg * float((w.values**2).sum())
    assert value == pytest.approx(expect, rel=1e-15)
    check(lambda: ad.sq_loss(p, target, 0.7, weights=w, reg=reg), [p, w])
    # the same tensor as prediction and penalized weight collects both terms
    check(lambda: ad.sq_loss(p, target, 0.7, weights=p, reg=reg), [p])


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_mlp_adjoint(depth):
    rng = np.random.default_rng(13 + depth)
    widths = [4, 5, 3, 2][: depth + 1]
    (x,) = tensors(rng, (6, 2, 2))  # flattened to width 4
    layers = [tuple(tensors(rng, (i, o), (o,))) for i, o in zip(widths, widths[1:])]
    c = rng.standard_normal((6, widths[-1]))
    check(lambda: ad.sq_loss(ad.mlp(x, layers), c, 1.0), [x, *(t for layer in layers for t in layer)])


def test_dense_relu_matches_composition():
    # mlp applies the ReLU after every layer but the last
    rng = np.random.default_rng(13)
    x, w, b = tensors(rng, (6, 4), (4, 3), (3,))
    z = x.values @ w.values + b.values
    np.testing.assert_array_equal(ad.mlp(x, [(w, b)]).values, z)
    eye = (ad.Tensor(np.eye(3)), ad.Tensor(np.zeros(3)))
    np.testing.assert_array_equal(ad.mlp(x, [(w, b), eye]).values, np.maximum(z, 0.0))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_embed_adjoint(depth):
    # levels of 3, 1 and 2 slots; a pad-only row; a slot in the top bin
    rng = np.random.default_rng(30 + depth)
    lengths = (3, 1, 2)
    degrees, bins = embed_inputs(rng, lengths, 5, bin_count=3)
    decay = ad.Tensor(rng.uniform(0.5, 1.5, 4))
    layers = embed_layers(rng, lengths, 4, depth)
    out, x = ad.embed(decay, degrees, bins, lengths, layers)
    assert out.shape == (3, 5, 4)
    np.testing.assert_array_equal(x, decay.values[bins] * degrees)
    c = rng.standard_normal((3, 5, 4))
    check(lambda: ad.sq_loss(ad.embed(decay, degrees, bins, lengths, layers)[0], c, 1.0),
          [decay, *(t for layer in layers for t in layer)])


def embed_adjoints_reference(decay, degrees, bins, lengths, layers, g_out):
    """embed's adjoints for the output adjoint g_out, level by level in NumPy,
    deepest level first, each level's decay adjoint added as it is reached."""
    last = len(layers) - 1
    d_decay = np.zeros_like(decay.values)
    d_layers = [(np.zeros_like(w.values), np.zeros_like(b.values)) for w, b in layers]
    ends = np.cumsum(lengths)
    for k in reversed(range(len(lengths))):
        cols = slice(ends[k] - lengths[k], ends[k])
        ins, masks, a = [], [], decay.values[bins[:, cols]] * degrees[:, cols]
        for i, (w, b) in enumerate(layers):
            ins.append(a)
            a = a @ (w.values[cols] if i == 0 else w.values[k]) + b.values[k]
            if i < last:
                masks.append(a > 0)
                a = np.where(masks[i], a, 0.0)
        g = g_out[k]
        for i in range(last, -1, -1):
            w = layers[i][0].values[cols] if i == 0 else layers[i][0].values[k]
            if i < last:
                g = g * masks[i]
            d_layers[i][0][cols if i == 0 else k] = ins[i].T @ g
            d_layers[i][1][k] = g.sum(axis=0)
            g = g @ w.T
        d_decay += np.bincount(bins[:, cols].ravel(), weights=(g * degrees[:, cols]).ravel(),
                               minlength=len(d_decay))
    return d_decay, d_layers


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_embed_adjoints_match_a_per_level_reference_bitwise(depth):
    # five levels, so the decay adjoint's order of addition shows in its last bits
    rng = np.random.default_rng(40 + depth)
    lengths = (4, 1, 3, 2, 5)
    degrees, bins = embed_inputs(rng, lengths, 7, bin_count=4)
    decay = ad.Tensor(rng.uniform(0.5, 1.5, 5))
    layers = embed_layers(rng, lengths, 6, depth)
    c = rng.standard_normal((5, 7, 6))
    with ad.Tape() as tape:
        out = ad.embed(decay, degrees, bins, lengths, layers)[0]
        loss = ad.sq_loss(out, c, 1.0)
    tape.backward(loss, params=[decay, *(t for layer in layers for t in layer)])
    d_decay, d_layers = embed_adjoints_reference(decay, degrees, bins, lengths, layers, 2.0 * (out.values - c))
    np.testing.assert_array_equal(decay.grad, d_decay)
    for (w, b), (dw, db) in zip(layers, d_layers):
        np.testing.assert_array_equal(w.grad, dw)
        np.testing.assert_array_equal(b.grad, db)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_gru_adjoint(depth):
    rng = np.random.default_rng(14 + depth)
    (x,) = tensors(rng, (depth, 5, 3))
    weights = gru_weights(rng, 3, 4)
    c = rng.standard_normal((5, depth, 4))
    check(lambda: ad.sq_loss(ad.gru(x, *weights)[0], c, 1.0), [x, *weights])


def test_gru_adjoint_behind_one_pre_embed_layer():
    # pre_embed_depth=1: each step's input is one dense layer over the
    # decayed degrees, with the decay shared by every step, as in the model
    rng = np.random.default_rng(19)
    lengths = (3, 2, 1)
    decay = ad.Tensor(rng.uniform(0.5, 1.5, 4))
    degrees, bins = embed_inputs(rng, lengths, 5, bin_count=3)
    pre = embed_layers(rng, lengths, 4, 1)
    weights = gru_weights(rng, 4, 4)
    c = rng.standard_normal((5, 3, 4))

    def f():
        x = ad.embed(decay, degrees, bins, lengths, pre)[0]
        return ad.sq_loss(ad.gru(x, *weights)[0], c, 1.0)

    # some recurrent-weight gradients are near 1e-5, where eps=1e-5 is round-off bound
    check(f, [decay, *pre[0], *weights], eps=1e-4)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_gru_matches_per_level_reference(depth):
    rng = np.random.default_rng(15)
    (x,) = tensors(rng, (depth, 5, 3))
    weights = gru_weights(rng, 3, 4)
    states, gates = ad.gru(x, *weights)
    want_states, want_gates = gru_reference(list(x.values), *(t.values for t in weights))
    assert states.shape == (5, depth, 4) and gates.shape == (depth, 5, 8)
    np.testing.assert_allclose(states.values, want_states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gates, want_gates, rtol=0, atol=1e-12)


def test_gru_is_stable_for_large_magnitudes():
    x = ad.Tensor(np.array([[[-800.0], [0.0], [800.0]]] * 2))
    w, u, uh = ad.Tensor(np.ones((1, 3))), ad.Tensor(np.ones((1, 2))), ad.Tensor(np.ones((1, 1)))
    b = ad.Tensor(np.zeros(3))
    with np.errstate(all="raise"):
        states, gates = ad.gru(x, w, u, uh, b)
        with ad.Tape() as tape:
            out = ad.sq_loss(ad.gru(x, w, u, uh, b)[0], np.zeros((3, 2, 1)), 1.0)
        tape.backward(out, params=[x, w, u, uh, b])
    assert gates[0, :, 0].tolist() == [0.0, 0.5, 1.0]  # update gate
    assert gates[0, :, 1].tolist() == [0.0, 0.5, 1.0]  # reset gate
    assert states.values[:, 0, 0].tolist() == [0.0, 0.0, 1.0]
    assert np.isfinite(states.values).all()
    assert all(np.isfinite(t.grad).all() for t in (x, w, u, uh, b))


@pytest.mark.parametrize("width,stride", [(2, 2), (3, 1), (3, 2)])
def test_conv1d_adjoint_kernel_geometries(width, stride):
    rng = np.random.default_rng(17)
    x, k = tensors(rng, (4, 9), (width,))
    bias = ad.Tensor(np.array(0.2))
    c = rng.standard_normal((4, (9 - width) // stride + 1))
    check(lambda: ad.sq_loss(ad.conv1d(x, k, stride=stride, bias=bias), c, 1.0), [x, k, bias])


@pytest.mark.parametrize("width,stride", [(2, 2), (1, 2), (5, 1)])
def test_stacked_conv_relu_adjoint(width, stride):
    # the model's geometry: (B, D, M) GRU states, M = 8, each level giving M/2 outputs
    rng = np.random.default_rng(20)
    x, k = tensors(rng, (3, 4, 8), (width,))
    bias = ad.Tensor(np.array(0.1))
    pre = ad.conv1d(x, k, stride=stride, bias=bias)
    assert pre.shape == (3, 4, 4)
    assert np.abs(pre.values).min() > 1e-3  # FD away from the kink
    c = rng.standard_normal((3, 4, 4))
    check(lambda: ad.sq_loss(ad.conv1d(x, k, stride=stride, bias=bias, relu=True), c, 1.0), [x, k, bias])


def test_stacked_conv_matches_per_level_conv_and_feeds_dense_flattened():
    rng = np.random.default_rng(21)
    x, k, w, b = tensors(rng, (3, 4, 8), (2,), (16, 5), (5,))
    bias = ad.Tensor(np.array(-0.2))
    out = ad.conv1d(x, k, stride=2, bias=bias, relu=True)
    for level in range(4):
        one = ad.conv1d(ad.Tensor(x.values[:, level]), k, stride=2, bias=bias, relu=True)
        np.testing.assert_array_equal(out.values[:, level], one.values)
    flat = ad.Tensor(out.values.reshape(3, 16))
    np.testing.assert_array_equal(ad.mlp(out, [(w, b)]).values, ad.mlp(flat, [(w, b)]).values)
    c = rng.standard_normal((3, 5))
    check(lambda: ad.sq_loss(ad.mlp(ad.conv1d(x, k, stride=2, bias=bias, relu=True), [(w, b)]), c, 1.0),
          [x, k, bias, w, b])


def test_weighted_gather_value_and_adjoint():
    # embed's decay lookup: one level, one linear layer of identity weights
    rng = np.random.default_rng(18)
    (v,) = tensors(rng, (4,))
    idx = np.array([[0, 3, 3], [1, 3, 0]])
    weights = rng.standard_normal(idx.shape)
    eye = [(ad.Tensor(np.eye(3)), ad.Tensor(np.zeros((1, 3))))]
    out, x = ad.embed(v, weights, idx, (3,), eye)
    np.testing.assert_array_equal(x, v.values[idx] * weights)
    np.testing.assert_array_equal(out.values[0], x)
    c = rng.standard_normal((1, 2, 3))
    check(lambda: ad.sq_loss(ad.embed(v, weights, idx, (3,), eye)[0], c, 1.0), [v])


def test_relu_adjoint_away_from_kink():
    # a width-1 unit kernel makes conv1d(relu=True) a plain ReLU
    rng = np.random.default_rng(6)
    a = ad.Tensor(rng.standard_normal(40))
    a.values[np.abs(a.values) < 1e-3] = 0.5  # keep FD away from the kink
    one = ad.Tensor(np.ones(1))
    assert ad.conv1d(a, one, relu=True).values.tolist() == np.maximum(a.values, 0.0).tolist()
    c = rng.standard_normal(40)
    check(lambda: ad.sq_loss(ad.conv1d(a, one, relu=True), c, 1.0), [a])


def test_relu_subgradient_at_zero_is_zero():
    # relu(a) = [0, 0, 2] against targets one below it: every output adjoint is 1
    a = ad.Tensor(np.array([0.0, -1.0, 2.0]))
    with ad.Tape() as tape:
        out = ad.sq_loss(ad.conv1d(a, ad.Tensor(np.ones(1)), relu=True), np.array([-1.0, -1.0, 1.0]), 0.5)
    tape.backward(out, params=[a])
    assert a.grad.tolist() == [0.0, 0.0, 1.0]
    x = ad.Tensor(np.array([[0.0, -1.0, 2.0]]))
    eye = (ad.Tensor(np.eye(3)), ad.Tensor(np.zeros(3)))
    with ad.Tape() as tape:
        out = ad.sq_loss(ad.mlp(x, [eye, eye]), np.array([[-1.0, -1.0, 1.0]]), 0.5)
    tape.backward(out, params=[x])
    assert x.grad.tolist() == [[0.0, 0.0, 1.0]]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_conv1d_adjoint_vector_input(stride, width):
    rng = np.random.default_rng(8)
    x, k = tensors(rng, (9,), (width,))
    bias = ad.Tensor(np.array(0.3))
    c = rng.standard_normal((9 - width) // stride + 1)
    check(lambda: ad.sq_loss(ad.conv1d(x, k, stride=stride, bias=bias), c, 1.0), [x, k, bias])


def test_conv1d_adjoint_batched_rows():
    rng = np.random.default_rng(9)
    x, k = tensors(rng, (5, 8), (2,))
    bias = ad.Tensor(np.array(-0.1))
    c = rng.standard_normal((5, 4))
    check(lambda: ad.sq_loss(ad.conv1d(x, k, stride=2, bias=bias), c, 1.0), [x, k, bias])


def test_conv1d_forward_matches_explicit_loop():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 10))
    k = rng.standard_normal(2)
    out = ad.conv1d(ad.Tensor(x), ad.Tensor(k), stride=2, bias=ad.Tensor(0.5)).values
    expect = np.array(
        [[x[b, 2 * i] * k[0] + x[b, 2 * i + 1] * k[1] + 0.5 for i in range(5)] for b in range(3)]
    )
    np.testing.assert_allclose(out, expect, rtol=0, atol=0)


def test_gather_adjoint_accumulates_repeats():
    # embed's decay lookup with unit degrees and a summing layer: the output
    # adjoint 1 reaches decay once per slot that reads it
    v = ad.Tensor(np.array([1.0, 2.0, 3.0]))
    idx = np.array([[0, 2], [2, 2]])
    summing = [(ad.Tensor(np.ones((2, 1))), ad.Tensor(np.zeros((1, 1))))]
    with ad.Tape() as tape:
        out = ad.embed(v, np.ones((2, 2)), idx, (2,), summing)[0]
        loss = ad.sq_loss(out, out.values - 1.0, 0.5)
    tape.backward(loss, params=[v])
    assert v.grad.tolist() == [1.0, 0.0, 3.0]


def test_gather_checks_index_range():
    v = ad.Tensor(np.zeros(3))
    one = [(ad.Tensor(np.ones((1, 1))), ad.Tensor(np.zeros((1, 1))))]
    with pytest.raises(ContractError):
        ad.embed(v, np.ones((1, 1)), np.array([[3]]), (1,), one)
    with pytest.raises(ContractError):
        ad.embed(v, np.ones((1, 1)), np.array([[-1]]), (1,), one)
    with pytest.raises(ContractError):
        ad.embed(v, np.ones((1, 1)), np.array([[1.0]]), (1,), one)


def test_mean_total_adjoints():
    # a mean is a scaled total, as in the probe's loss
    rng = np.random.default_rng(11)
    (a,) = tensors(rng, (4, 3))
    mean_sq = lambda: ad.sq_loss(a, np.zeros((4, 3)), 1.0 / a.values.size)
    assert mean_sq().item() == pytest.approx(float(np.mean(a.values**2)), rel=1e-15)
    check(mean_sq, [a])


def test_shape_mismatches_raise():
    a, b = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.sq_loss(a, np.zeros((3, 2)), 1.0)
    with pytest.raises(ShapeError):
        ad.conv1d(ad.Tensor(np.zeros(2)), ad.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        ad.mlp(a, [(a, ad.Tensor(np.zeros(3)))])
    with pytest.raises(ShapeError):
        ad.mlp(a, [(b, ad.Tensor(np.zeros(3)))])  # bias must match the output width
    with pytest.raises(ShapeError):
        ad.mlp(ad.Tensor(np.zeros((2, 2, 2))), [(b, ad.Tensor(np.zeros(2)))])  # 4 flattened vs 3
    with pytest.raises(ShapeError):
        ad.mlp(a, [(b, ad.Tensor(np.zeros(2))), (b, ad.Tensor(np.zeros(2)))])  # layers do not chain
    with pytest.raises(ShapeError):
        ad.mlp(a, [])
    with pytest.raises(ShapeError):
        ad.conv1d(ad.Tensor(np.array(1.0)), ad.Tensor(np.ones(1)))
    rng = np.random.default_rng(0)
    weights = gru_weights(rng, 3, 4)
    step = ad.Tensor(np.zeros((1, 2, 3)))
    with pytest.raises(ShapeError):
        ad.gru(ad.Tensor(np.zeros((0, 2, 3))), *weights)
    with pytest.raises(ShapeError):
        ad.gru(ad.Tensor(np.zeros((1, 2, 2))), *weights)  # input width is not w's
    with pytest.raises(ShapeError):
        ad.gru(ad.Tensor(np.zeros((2, 3))), *weights)  # the input must be (D, B, I)
    for i, bad in enumerate([np.zeros((3, 8)), np.zeros((4, 4)), np.zeros((4, 5)), np.zeros(8)]):
        wrong = list(weights)
        wrong[i] = ad.Tensor(bad)
        with pytest.raises(ShapeError):
            ad.gru(step, *wrong)
    lengths = (2, 1)
    layers = embed_layers(rng, lengths, 4, 2)
    decay, degrees, bins = ad.Tensor(np.ones(3)), np.ones((2, 3)), np.ones((2, 3), dtype=int)
    for bad in (
        dict(degrees=np.ones((2, 4)), bins=np.ones((2, 4), dtype=int)),  # 4 columns, levels hold 3
        dict(bins=np.ones((2, 2), dtype=int)),  # bins and degrees disagree
        dict(decay=ad.Tensor(np.ones((3, 1)))),
        dict(layers=[]),
        dict(layers=[layers[0], (layers[0][0], layers[1][1])]),  # a later layer is (D, M, M)
        dict(layers=[(layers[0][0], ad.Tensor(np.zeros(4)))]),  # biases are (D, M)
    ):
        args = dict(decay=decay, degrees=degrees, bins=bins, lengths=lengths, layers=layers)
        args.update(bad)
        with pytest.raises(ShapeError):
            ad.embed(**args)


def test_tapes_do_not_nest():
    with ad.Tape():
        with pytest.raises(ContractError):
            with ad.Tape():
                pass


def test_no_tape_means_no_recording_and_same_values():
    rng = np.random.default_rng(12)
    lengths = (2, 3)
    decay = ad.Tensor(rng.uniform(0.5, 1.5, 3))
    degrees, bins = embed_inputs(rng, lengths, 3, bin_count=2)
    layers = embed_layers(rng, lengths, 3, 2)
    weights = gru_weights(rng, 3, 4)

    def f():
        return ad.gru(ad.embed(decay, degrees, bins, lengths, layers)[0], *weights)[0].values

    bare = f()
    with ad.Tape() as tape:
        taped = f()
    assert len(tape) == 2
    np.testing.assert_array_equal(bare, taped)


def test_backward_requires_scalar_and_finite_loss():
    a = ad.Tensor(np.ones(3))
    with ad.Tape() as tape:
        out = ad.conv1d(a, ad.Tensor(np.array([2.0])))
    with pytest.raises(ContractError):
        tape.backward(out)
    a2 = ad.Tensor(np.array(np.inf))
    with ad.Tape() as tape2:
        out2 = ad.sq_loss(a2, np.array(0.0), 1.0)
    with pytest.raises(NumericError):
        tape2.backward(out2)


def test_repeated_backward_does_not_accumulate():
    a = ad.Tensor(np.array([2.0]))
    with ad.Tape() as tape:
        out = ad.sq_loss(a, np.zeros(1), 1.0)
    (g1,) = tape.backward(out, params=[a])
    first = g1.copy()
    (g2,) = tape.backward(out, params=[a])
    np.testing.assert_array_equal(first, g2)


def test_untouched_params_get_exact_zeros():
    a = ad.Tensor(np.array([1.0]))
    b = ad.Tensor(np.array([1.0, 2.0]))
    with ad.Tape() as tape:
        out = ad.sq_loss(a, np.zeros(1), 1.0)
    ga, gb = tape.backward(out, params=[a, b])
    assert ga.tolist() == [2.0]
    assert gb.tolist() == [0.0, 0.0]


def test_shared_subexpression_gradients_add():
    # loss = sum((x + 1)**2)/2 + sum(x*x)/2, with x reaching the loss both
    # through a unit convolution and as the penalized weight: dloss/dx = 2x + 1
    x = ad.Tensor(np.array([3.0, -1.0]))
    with ad.Tape() as tape:
        out = ad.sq_loss(ad.conv1d(x, ad.Tensor(np.ones(1))), -np.ones(2), 0.5, weights=x, reg=0.5)
    (g,) = tape.backward(out, params=[x])
    assert g.tolist() == [7.0, -1.0]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@example(rows=1, cols=3, seed=12166)
def test_chain_of_smooth_primitives_passes_grad_check(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.standard_normal((rows, cols)))
    w = ad.Tensor(rng.standard_normal((cols, 3)))
    v = ad.Tensor(rng.standard_normal(3))
    h = ad.Tensor(rng.standard_normal((rows, 3)))
    weights = gru_weights(rng, 3, 3)
    second = ad.Tensor(np.vstack([np.zeros((3, 3)), np.eye(3)]))  # picks the second level's state

    def f():
        z = ad.mlp(a, [(w, v)])
        # h is the first step, so z enters at a non-zero state, and z also feeds the loss
        hz = ad.mlp(ad.gru(stacked(h, z), *weights)[0], [(second, ad.Tensor(np.zeros(3)))])
        return ad.sq_loss(hz, np.zeros((rows, 3)), 1.0 / (rows * 3), weights=z, reg=1.0 / (rows * 3))

    # eps 1e-5, not 1e-4: at 1e-4 truncation error fails rows=2, cols=2, seed=0 (5.6e-5).
    # Gradients below about 1e-7, from an entry of a near 0, are round-off at
    # either eps; grad_check's floor keeps them from failing.
    report = ad.grad_check(f, [a, w, v], eps=1e-5, tol=1e-5, seed=seed)
    assert report.passed, report


def skewed(x, coord, factor):
    """Identity on x whose adjoint is multiplied by factor at one coordinate:
    a deliberately wrong gradient."""
    out = ad.Tensor(x.values.copy())

    def pull(g):
        g = g.copy()
        g.flat[coord] *= factor
        ad._acc(x, g)

    return ad._record(out, pull)


def half_sum_sq(x, coord=0, factor=1.0):
    """f = sum(x**2) / 2, so the gradient is x, taken through `skewed`."""
    return lambda: ad.sq_loss(skewed(x, coord, factor), np.zeros(x.shape), 0.5)


@pytest.mark.parametrize("size", [1.3, 1e-4])
def test_grad_check_rejects_one_wrong_coordinate(size):
    # the other coordinates make |f| about 1, so the round-off floor is about 1e-8
    x = ad.Tensor(np.array([0.8, size, -1.1, 0.6]))
    f = half_sum_sq(x, coord=1, factor=1.0 + 1e-3)
    for tol in (1e-4, 1e-5):
        report = ad.grad_check(f, [x], eps=1e-5, tol=tol)
        assert not report.passed, report
        assert (report.worst_param, report.worst_coord) == (0, 1)
        assert report.max_rel_error > 3e-4


def test_grad_check_passes_a_correct_gradient_below_round_off():
    # a 1e-9 gradient under |f| about 1: a central difference at eps 1e-5
    # resolves it only to about 1e-11, which fails tol 1e-5 without the floor
    x = ad.Tensor(np.array([0.8, 1e-9, -1.1, 0.6]))
    f = half_sum_sq(x)
    x.values[1] = 1e-9 + 1e-5
    fp = float(f().values)
    x.values[1] = 1e-9 - 1e-5
    fm = float(f().values)
    x.values[1] = 1e-9
    numeric = (fp - fm) / 2e-5
    assert abs(numeric - 1e-9) / (abs(numeric) + 1e-9) > 1e-5  # round-off alone fails it
    report = ad.grad_check(f, [x], eps=1e-5, tol=1e-5)
    assert report.passed, report


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 12), stride=st.integers(1, 3))
def test_conv1d_output_length_formula(seed, n, stride):
    rng = np.random.default_rng(seed)
    w = int(rng.integers(1, n + 1))
    x = ad.Tensor(rng.standard_normal(n))
    k = ad.Tensor(rng.standard_normal(w))
    out = ad.conv1d(x, k, stride=stride)
    assert out.shape == ((n - w) // stride + 1,)
