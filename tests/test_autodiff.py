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


def test_add_sub_mul_adjoints():
    rng = np.random.default_rng(1)
    a, b = tensors(rng, (3, 4), (3, 4))
    check(lambda: ad.total(ad.add(ad.mul(a, b), ad.sub(a, b))), [a, b])


def test_scale_adjoint():
    rng = np.random.default_rng(2)
    (a,) = tensors(rng, (5,))
    check(lambda: ad.total(ad.scale(ad.mul(a, a), -2.5)), [a])


@pytest.mark.parametrize("relu", [False, True])
def test_dense_adjoint(relu):
    rng = np.random.default_rng(13)
    x, w, b = tensors(rng, (5, 4), (4, 3), (3,))
    assert np.abs(x.values @ w.values + b.values).min() > 1e-3  # FD away from the kink
    c = ad.const(rng.standard_normal((5, 3)))
    check(lambda: ad.total(ad.mul(ad.dense(x, w, b, relu=relu), c)), [x, w, b])


def test_dense_relu_matches_composition():
    rng = np.random.default_rng(13)
    x, w, b = tensors(rng, (6, 4), (4, 3), (3,))
    z = x.values @ w.values + b.values
    np.testing.assert_array_equal(ad.dense(x, w, b).values, z)
    np.testing.assert_array_equal(ad.dense(x, w, b, relu=True).values, np.maximum(z, 0.0))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_gru_adjoint(depth):
    rng = np.random.default_rng(14 + depth)
    xs = tensors(rng, *[(5, 3)] * depth)
    weights = gru_weights(rng, 3, 4)
    c = ad.const(rng.standard_normal((5, depth, 4)))
    check(lambda: ad.total(ad.mul(ad.gru(xs, *weights)[0], c)), [*xs, *weights])


def test_gru_adjoint_behind_one_pre_embed_layer():
    # pre_embed_depth=1: each step's input is one dense layer over the
    # decayed degrees, with the decay shared by every step, as in the model
    rng = np.random.default_rng(19)
    decay = ad.Tensor(rng.uniform(0.5, 1.5, 4))
    bins = [rng.integers(0, 4, (5, n)) for n in (3, 2, 1)]
    degs = [rng.integers(0, 4, b.shape).astype(float) for b in bins]
    pre = [tensors(rng, (n, 4), (4,)) for n in (3, 2, 1)]
    weights = gru_weights(rng, 4, 4)
    c = ad.const(rng.standard_normal((5, 3, 4)))

    def f():
        xs = [ad.dense(ad.gather(decay, b, weights=d), w, bb) for b, d, (w, bb) in zip(bins, degs, pre)]
        return ad.total(ad.mul(ad.gru(xs, *weights)[0], c))

    # some recurrent-weight gradients are near 1e-5, where eps=1e-5 is round-off bound
    check(f, [decay, *(t for layer in pre for t in layer), *weights], eps=1e-4)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_gru_matches_per_level_reference(depth):
    rng = np.random.default_rng(15)
    xs = tensors(rng, *[(5, 3)] * depth)
    weights = gru_weights(rng, 3, 4)
    states, gates = ad.gru(xs, *weights)
    want_states, want_gates = gru_reference([x.values for x in xs], *(t.values for t in weights))
    assert states.shape == (5, depth, 4) and gates.shape == (depth, 5, 8)
    np.testing.assert_allclose(states.values, want_states, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gates, want_gates, rtol=0, atol=1e-12)


def test_gru_is_stable_for_large_magnitudes():
    xs = [ad.Tensor(np.array([[-800.0], [0.0], [800.0]]))] * 2
    w, u, uh = ad.Tensor(np.ones((1, 3))), ad.Tensor(np.ones((1, 2))), ad.Tensor(np.ones((1, 1)))
    b = ad.Tensor(np.zeros(3))
    with np.errstate(all="raise"):
        states, gates = ad.gru(xs, w, u, uh, b)
        with ad.Tape() as tape:
            out = ad.total(ad.gru(xs, w, u, uh, b)[0])
        tape.backward(out, params=[xs[0], w, u, uh, b])
    assert gates[0, :, 0].tolist() == [0.0, 0.5, 1.0]  # update gate
    assert gates[0, :, 1].tolist() == [0.0, 0.5, 1.0]  # reset gate
    assert states.values[:, 0, 0].tolist() == [0.0, 0.0, 1.0]
    assert np.isfinite(states.values).all()
    assert all(np.isfinite(t.grad).all() for t in (xs[0], w, u, uh, b))


def test_sum_sq_value_and_adjoint():
    rng = np.random.default_rng(16)
    a, b, c = tensors(rng, (3, 4), (4,), ())
    expect = sum(float((t.values**2).sum()) for t in (a, b, c))
    assert ad.sum_sq([a, b, c]).item() == pytest.approx(expect, rel=1e-15)
    check(lambda: ad.sum_sq([a, b, c]), [a, b, c])
    check(lambda: ad.sum_sq([a, a]), [a])  # a repeated tensor collects both terms


@pytest.mark.parametrize("width,stride", [(2, 2), (3, 1), (3, 2)])
def test_conv1d_adjoint_kernel_geometries(width, stride):
    rng = np.random.default_rng(17)
    x, k = tensors(rng, (4, 9), (width,))
    bias = ad.Tensor(np.array(0.2))
    c = ad.const(rng.standard_normal((4, (9 - width) // stride + 1)))
    check(lambda: ad.total(ad.mul(ad.conv1d(x, k, stride=stride, bias=bias), c)), [x, k, bias])


@pytest.mark.parametrize("width,stride", [(2, 2), (1, 2), (5, 1)])
def test_stacked_conv_relu_adjoint(width, stride):
    # the model's geometry: (B, D, M) GRU states, M = 8, each level giving M/2 outputs
    rng = np.random.default_rng(20)
    x, k = tensors(rng, (3, 4, 8), (width,))
    bias = ad.Tensor(np.array(0.1))
    pre = ad.conv1d(x, k, stride=stride, bias=bias)
    assert pre.shape == (3, 4, 4)
    assert np.abs(pre.values).min() > 1e-3  # FD away from the kink
    c = ad.const(rng.standard_normal((3, 4, 4)))
    check(lambda: ad.total(ad.mul(ad.conv1d(x, k, stride=stride, bias=bias, relu=True), c)), [x, k, bias])


def test_stacked_conv_matches_per_level_conv_and_feeds_dense_flattened():
    rng = np.random.default_rng(21)
    x, k, w, b = tensors(rng, (3, 4, 8), (2,), (16, 5), (5,))
    bias = ad.Tensor(np.array(-0.2))
    out = ad.conv1d(x, k, stride=2, bias=bias, relu=True)
    for level in range(4):
        one = ad.conv1d(ad.Tensor(x.values[:, level]), k, stride=2, bias=bias, relu=True)
        np.testing.assert_array_equal(out.values[:, level], one.values)
    flat = ad.Tensor(out.values.reshape(3, 16))
    np.testing.assert_array_equal(ad.dense(out, w, b).values, ad.dense(flat, w, b).values)
    c = ad.const(rng.standard_normal((3, 5)))
    check(lambda: ad.total(ad.mul(ad.dense(ad.conv1d(x, k, stride=2, bias=bias, relu=True), w, b), c)),
          [x, k, bias, w, b])


def test_weighted_gather_value_and_adjoint():
    rng = np.random.default_rng(18)
    (v,) = tensors(rng, (4,))
    idx = np.array([[0, 3, 3], [1, 3, 0]])
    weights = rng.standard_normal(idx.shape)
    out = ad.gather(v, idx, weights=weights)
    np.testing.assert_array_equal(out.values, v.values[idx] * weights)
    c = ad.const(rng.standard_normal(idx.shape))
    check(lambda: ad.total(ad.mul(ad.gather(v, idx, weights=weights), c)), [v])


def test_relu_adjoint_away_from_kink():
    # a width-1 unit kernel makes conv1d(relu=True) a plain ReLU
    rng = np.random.default_rng(6)
    a = ad.Tensor(rng.standard_normal(40))
    a.values[np.abs(a.values) < 1e-3] = 0.5  # keep FD away from the kink
    one = ad.Tensor(np.ones(1))
    assert ad.conv1d(a, one, relu=True).values.tolist() == np.maximum(a.values, 0.0).tolist()
    check(lambda: ad.total(ad.conv1d(a, one, relu=True)), [a])


def test_relu_subgradient_at_zero_is_zero():
    a = ad.Tensor(np.array([0.0, -1.0, 2.0]))
    with ad.Tape() as tape:
        out = ad.total(ad.conv1d(a, ad.Tensor(np.ones(1)), relu=True))
    tape.backward(out, params=[a])
    assert a.grad.tolist() == [0.0, 0.0, 1.0]
    x = ad.Tensor(np.array([[0.0, -1.0, 2.0]]))
    with ad.Tape() as tape:
        out = ad.total(ad.dense(x, ad.Tensor(np.eye(3)), ad.Tensor(np.zeros(3)), relu=True))
    tape.backward(out, params=[x])
    assert x.grad.tolist() == [[0.0, 0.0, 1.0]]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_conv1d_adjoint_vector_input(stride, width):
    rng = np.random.default_rng(8)
    x, k = tensors(rng, (9,), (width,))
    bias = ad.Tensor(np.array(0.3))
    check(lambda: ad.total(ad.conv1d(x, k, stride=stride, bias=bias)), [x, k, bias])


def test_conv1d_adjoint_batched_rows():
    rng = np.random.default_rng(9)
    x, k = tensors(rng, (5, 8), (2,))
    bias = ad.Tensor(np.array(-0.1))
    check(lambda: ad.total(ad.conv1d(x, k, stride=2, bias=bias)), [x, k, bias])


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
    v = ad.Tensor(np.array([1.0, 2.0, 3.0]))
    idx = np.array([[0, 2], [2, 2]])
    with ad.Tape() as tape:
        out = ad.total(ad.gather(v, idx))
    tape.backward(out, params=[v])
    assert v.grad.tolist() == [1.0, 0.0, 3.0]


def test_gather_checks_index_range():
    v = ad.Tensor(np.zeros(3))
    with pytest.raises(ContractError):
        ad.gather(v, np.array([3]))
    with pytest.raises(ContractError):
        ad.gather(v, np.array([-1]))


def test_mean_total_adjoints():
    # a mean is a scaled total, as in the probe's loss
    rng = np.random.default_rng(11)
    (a,) = tensors(rng, (4, 3))
    mean_sq = lambda: ad.scale(ad.total(ad.mul(a, a)), 1.0 / a.values.size)
    assert mean_sq().item() == pytest.approx(float(np.mean(a.values**2)), rel=1e-15)
    check(mean_sq, [a])


def test_shape_mismatches_raise():
    a, b = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2)))
    for op in (ad.add, ad.sub, ad.mul):
        with pytest.raises(ShapeError):
            op(a, b)
    with pytest.raises(ShapeError):
        ad.conv1d(ad.Tensor(np.zeros(2)), ad.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        ad.dense(a, a, ad.Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        ad.dense(a, b, ad.Tensor(np.zeros(3)))  # bias must match the output width
    with pytest.raises(ShapeError):
        ad.dense(ad.Tensor(np.zeros((2, 2, 2))), b, ad.Tensor(np.zeros(2)))  # 4 flattened vs 3
    with pytest.raises(ShapeError):
        ad.conv1d(ad.Tensor(np.array(1.0)), ad.Tensor(np.ones(1)))
    rng = np.random.default_rng(0)
    weights = gru_weights(rng, 3, 4)
    step = ad.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ad.gru([], *weights)
    with pytest.raises(ShapeError):
        ad.gru([step, ad.Tensor(np.zeros((3, 3)))], *weights)  # steps disagree on B
    with pytest.raises(ShapeError):
        ad.gru([ad.Tensor(np.zeros((2, 2)))], *weights)  # input width is not w's
    with pytest.raises(ShapeError):
        ad.gru([ad.Tensor(np.zeros(3))], *weights)  # a step must be (B, I)
    for i, bad in enumerate([np.zeros((3, 8)), np.zeros((4, 4)), np.zeros((4, 5)), np.zeros(8)]):
        wrong = list(weights)
        wrong[i] = ad.Tensor(bad)
        with pytest.raises(ShapeError):
            ad.gru([step], *wrong)
    with pytest.raises(ShapeError):
        ad.gather(ad.Tensor(np.zeros(3)), np.array([0, 1]), weights=np.ones(3))
    with pytest.raises(ShapeError):
        ad.sum_sq([])


def test_tapes_do_not_nest():
    with ad.Tape():
        with pytest.raises(ContractError):
            with ad.Tape():
                pass


def test_no_tape_means_no_recording_and_same_values():
    rng = np.random.default_rng(12)
    x, w, b = tensors(rng, (3, 3), (3, 3), (3,))
    weights = gru_weights(rng, 3, 4)

    def f():
        return ad.gru([ad.dense(x, w, b, relu=True), x], *weights)[0].values

    bare = f()
    with ad.Tape() as tape:
        taped = f()
    assert len(tape) == 2
    np.testing.assert_array_equal(bare, taped)


def test_backward_requires_scalar_and_finite_loss():
    a = ad.Tensor(np.ones(3))
    with ad.Tape() as tape:
        out = ad.scale(a, 2.0)
    with pytest.raises(ContractError):
        tape.backward(out)
    a2 = ad.Tensor(np.array(np.inf))
    with ad.Tape() as tape2:
        out2 = ad.scale(a2, 1.0)
    with pytest.raises(NumericError):
        tape2.backward(out2)


def test_repeated_backward_does_not_accumulate():
    a = ad.Tensor(np.array([2.0]))
    with ad.Tape() as tape:
        out = ad.total(ad.mul(a, a))
    (g1,) = tape.backward(out, params=[a])
    first = g1.copy()
    (g2,) = tape.backward(out, params=[a])
    np.testing.assert_array_equal(first, g2)


def test_untouched_params_get_exact_zeros():
    a = ad.Tensor(np.array([1.0]))
    b = ad.Tensor(np.array([1.0, 2.0]))
    with ad.Tape() as tape:
        out = ad.total(ad.mul(a, a))
    ga, gb = tape.backward(out, params=[a, b])
    assert ga.tolist() == [2.0]
    assert gb.tolist() == [0.0, 0.0]


def test_shared_subexpression_gradients_add():
    # loss = sum(x*x + x) so dloss/dx = 2x + 1
    x = ad.Tensor(np.array([3.0, -1.0]))
    with ad.Tape() as tape:
        out = ad.total(ad.add(ad.mul(x, x), x))
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
    h = ad.const(rng.standard_normal((rows, 3)))
    weights = gru_weights(rng, 3, 3)
    second = ad.const(np.vstack([np.zeros((3, 3)), np.eye(3)]))  # picks the second level's state

    def f():
        z = ad.dense(ad.mul(a, a), w, v)
        # h is the first step, so z enters at a non-zero state, and z also feeds the loss
        hz = ad.dense(ad.gru([h, z], *weights)[0], second, ad.const(np.zeros(3)))
        return ad.scale(ad.total(ad.mul(hz, z)), 1.0 / (rows * 3))

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

    return ad._record(out, (x,), pull)


def half_sum_sq(x, coord=0, factor=1.0):
    """f = sum(x**2) / 2, so the gradient is x, taken through `skewed`."""
    return lambda: ad.scale(ad.sum_sq([skewed(x, coord, factor)]), 0.5)


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
