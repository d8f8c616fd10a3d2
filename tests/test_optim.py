"""Adam against hand-computed steps and a convergence sanity check."""

import math

import numpy as np
import pytest

from cascadecite import autodiff as ad
from cascadecite.errors import NumericError, ShapeError
from cascadecite.optim import AdamState, adam_step


def buffered(*values, names=None):
    """A ParamBuffer holding one tensor per array in values, plus the tensors."""
    names = names or [f"p{i}" for i in range(len(values))]
    buf = ad.ParamBuffer({n: np.shape(v) for n, v in zip(names, values)})
    tensors = [buf.block(n, name=n) for n in names]
    for t, v in zip(tensors, values):
        t.values[...] = v
    return buf, tensors


def test_first_step_matches_hand_arithmetic():
    buf, (p,) = buffered(np.array([1.0]))
    state = AdamState()  # step 5e-3, betas 0.9/0.999, eps 1e-8
    p.grad[...] = 0.5
    adam_step(buf, state)

    m1 = 0.1 * 0.5
    v1 = 0.001 * 0.5 * 0.5
    mhat = m1 / (1.0 - 0.9)
    vhat = v1 / (1.0 - 0.999)
    expected = 1.0 - 0.005 * mhat / (math.sqrt(vhat) + 1e-8)
    assert p.values[0] == pytest.approx(expected, rel=0, abs=1e-16)


def test_second_step_accumulates_moments():
    buf, (p,) = buffered(np.array([1.0]))
    state = AdamState()
    p.grad[...] = 0.5
    adam_step(buf, state)
    p.grad[...] = -0.25
    adam_step(buf, state)

    m1, v1 = 0.1 * 0.5, 0.001 * 0.25
    p1 = 1.0 - 0.005 * (m1 / 0.1) / (math.sqrt(v1 / 0.001) + 1e-8)
    m2 = 0.9 * m1 + 0.1 * (-0.25)
    v2 = 0.999 * v1 + 0.001 * 0.0625
    mhat = m2 / (1.0 - 0.9**2)
    vhat = v2 / (1.0 - 0.999**2)
    expected = p1 - 0.005 * mhat / (math.sqrt(vhat) + 1e-8)
    assert state.t == 2
    assert p.values[0] == pytest.approx(expected, rel=0, abs=1e-15)


def test_descends_a_quadratic_bowl():
    rng = np.random.default_rng(0)
    target = rng.standard_normal(6)
    buf, (p,) = buffered(np.zeros(6))
    state = AdamState(step_size=0.05)
    for _ in range(800):
        with ad.Tape() as tape:
            loss = ad.sq_loss(p, target, 1.0)
        tape.backward(loss, params=[p])
        adam_step(buf, state)
    assert np.abs(p.values - target).max() < 1e-3


def test_zero_gradient_coordinate_never_moves():
    # mirrors the padding slot of the decay vector: grad identically zero
    buf, (p,) = buffered(np.array([0.0, 1.0]))
    state = AdamState()
    for _ in range(25):
        p.grad[...] = [0.0, 0.3]
        adam_step(buf, state)
    assert p.values[0] == 0.0
    assert p.values[1] != 1.0


def test_rejects_non_finite_gradient_with_details():
    buf, (a, theta) = buffered(np.zeros(3), np.zeros((2, 2)), names=["alpha", "theta"])
    before = buf.values.copy()
    theta.grad[1, 0] = np.nan
    state = AdamState()
    with pytest.raises(NumericError) as err:
        adam_step(buf, state)
    assert err.value.details["param"] == "theta"
    a.grad[2] = np.inf  # both now bad: the first in order is named
    with pytest.raises(NumericError) as err:
        adam_step(buf, state)
    assert err.value.details["param"] == "alpha"
    assert state.t == 0
    np.testing.assert_array_equal(buf.values, before)


def test_state_is_per_parameter_list():
    buf, _ = buffered(np.zeros(2), np.zeros((2, 2)))
    state = AdamState()
    adam_step(buf, state)
    same, _ = buffered(np.ones(2), np.ones((2, 2)))
    adam_step(same, state)  # another buffer with the same layout is fine
    assert state.t == 2
    other, _ = buffered(np.zeros(2))
    with pytest.raises(ShapeError):
        adam_step(other, state)
    # the same size, but the moments would land on other parameters
    for values, names in [
        ((np.zeros((2, 2)), np.zeros(2)), None),  # blocks swapped
        ((np.zeros(2), np.zeros((2, 2))), ["a", "b"]),  # blocks renamed
        ((np.zeros(2), np.zeros((1, 4))), None),  # a block reshaped
    ]:
        moved, tensors = buffered(*values, names=names)
        tensors[0].grad[...] = 1.0
        with pytest.raises(ShapeError):
            adam_step(moved, state)
        assert not moved.values.any()
    assert state.t == 2


def test_update_is_in_place_on_the_buffer():
    buf, (w, b) = buffered(np.ones((2, 3)), np.ones(3))
    values, w_view = buf.values, w.values
    w.grad[...] = 1.0
    adam_step(buf, AdamState())
    assert buf.values is values and w.values is w_view
    assert np.shares_memory(w.values, buf.values)
    assert (w.values < 1.0).all() and (b.values == 1.0).all()
