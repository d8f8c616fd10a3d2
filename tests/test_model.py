"""Model wiring: shapes, decay scaling, gates, loss, and checkpoints."""

import numpy as np
import pytest

from cascadecite import model as md
from cascadecite.autodiff import Tape, Tensor, _acc, _record, conv1d, grad_check, gru, sq_loss
from cascadecite.encoding import DegreeSequence, SeqEntry, stack_sequences, uniform_bin_edges, EncodingSchema
from cascadecite.errors import CheckpointError, ConfigError, ContractError, NumericError, ShapeError
from cascadecite.optim import AdamState, adam_step


def tiny_config(**kw):
    base = dict(
        level_lengths=(3, 2),
        bin_count=2,
        embed_width=4,
        pre_embed_depth=2,
        conv_kernel=2,
        conv_stride=2,
        head_widths=(3,),
    )
    base.update(kw)
    return md.ModelConfig(**base)


# the 13 matrices the Frobenius penalty covers under tiny_config()
TINY_WEIGHTS = (
    "pre0_w0", "pre0_w1", "pre1_w0", "pre1_w1",
    "gru_wu", "gru_wr", "gru_wh", "gru_uu", "gru_ur", "gru_uh",
    "conv_kernel", "head_w0", "head_w1",
)


def seq_for(cfg, rng, max_degree=4):
    levels = []
    for length in cfg.level_lengths:
        n_real = int(rng.integers(0, length + 1))
        entries = [
            SeqEntry(int(rng.integers(1, max_degree + 1)), int(rng.integers(1, cfg.bin_count + 1)), False)
            for _ in range(n_real)
        ]
        entries.sort(key=lambda e: -e.degree)
        entries += [SeqEntry(0, 0, True)] * (length - n_real)
        levels.append(tuple(entries))
    return DegreeSequence(levels=tuple(levels))


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(embed_width=5)  # odd
    with pytest.raises(ConfigError):
        tiny_config(conv_kernel=3)  # conv output would not be M/2
    with pytest.raises(ConfigError):
        tiny_config(level_lengths=())
    with pytest.raises(ConfigError):
        tiny_config(head_widths=(0,))
    with pytest.raises(ConfigError):
        tiny_config(alpha=0.0)
    with pytest.raises(ConfigError):
        tiny_config(reg_weight=-1.0)
    with pytest.raises(ConfigError):
        tiny_config(pre_embed_depth=0)


def test_config_from_schema_and_dict_roundtrip():
    schema = EncodingSchema((4, 2), 3, 50, uniform_bin_edges(3, 50))
    cfg = md.ModelConfig.from_schema(schema, embed_width=8, head_widths=(5,))
    assert cfg.level_lengths == (4, 2)
    assert cfg.bin_count == 3
    assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_expected_shapes_hand_checked():
    cfg = tiny_config()
    shapes = md.expected_shapes(cfg)
    assert shapes["decay"] == (3,)
    assert shapes["pre0_w0"] == (3, 4)
    assert shapes["pre0_w1"] == (4, 4)
    assert shapes["pre1_w0"] == (2, 4)
    assert shapes["gru_wu"] == (4, 4)
    assert shapes["gru_bu"] == (4,)
    assert shapes["conv_kernel"] == (2,)
    assert shapes["conv_bias"] == ()
    # two levels, each contributing M/2 = 2 features
    assert shapes["head_w0"] == (4, 3)
    assert shapes["head_w1"] == (3, 1)
    assert shapes["head_b1"] == (1,)


def test_init_is_seed_deterministic_with_unit_decay():
    cfg = tiny_config()
    p1 = md.init_params(cfg, seed=5)
    p2 = md.init_params(cfg, seed=5)
    for (n1, t1), (n2, t2) in zip(p1.named(), p2.named()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.values, t2.values)
    p3 = md.init_params(cfg, seed=6)
    assert any(
        not np.array_equal(t1.values, t3.values)
        for (_, t1), (_, t3) in zip(p1.named(), p3.named())
    )
    assert p1.decay.values.tolist() == [0.0, 1.0, 1.0]
    assert dict(p1.named())["gru_bu"].values.tolist() == [0.0] * 4


def test_params_reject_wrong_tensor_sets():
    cfg = tiny_config()
    good = {n: t.values for n, t in md.init_params(cfg, 0).named()}
    bad = dict(good)
    bad.pop("decay")
    with pytest.raises(ShapeError, match="missing"):
        md.ModelParams(cfg, bad)
    bad2 = dict(good)
    bad2["decay"] = np.zeros(9)
    with pytest.raises(ShapeError, match="shape"):
        md.ModelParams(cfg, bad2)
    bad3 = dict(good)
    bad3["stray"] = np.zeros(1)
    with pytest.raises(ShapeError, match="unexpected"):
        md.ModelParams(cfg, bad3)


def test_log_target_fixture_values():
    np.testing.assert_array_equal(md.log_target([0, 1, 3, 7]), [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ContractError):
        md.log_target([-1])


def test_growth_from_log_inverts_and_clamps():
    for g in (0, 1, 5, 100):
        assert md.growth_from_log(float(md.log_target(g))) == pytest.approx(g, abs=1e-9)
    assert md.growth_from_log(-4.0) == 0.0


def test_apply_time_decay_hand_values():
    cfg = tiny_config(level_lengths=(3,))
    params = md.init_params(cfg, 0)
    params.decay.values[...] = [0.0, 0.5, 0.25]  # in place: the tensor views the buffer
    seq = DegreeSequence(levels=((SeqEntry(2, 1, False), SeqEntry(3, 2, False), SeqEntry(0, 0, True)),))
    trace = {}
    md.forward_batch(params, *stack_sequences([seq], cfg.level_lengths), trace=trace)
    assert trace["decayed"][0].tolist() == [[1.0, 0.75, 0.0]]


def test_each_level_decays_its_own_columns():
    cfg = tiny_config()  # levels of 3 and 2 slots
    params = md.init_params(cfg, 0)
    params.decay.values[...] = [0.0, 0.5, 0.25]
    seq = DegreeSequence(levels=(
        (SeqEntry(2, 1, False), SeqEntry(3, 2, False), SeqEntry(0, 0, True)),
        (SeqEntry(4, 2, False), SeqEntry(0, 0, True)),
    ))
    degrees, bins = stack_sequences([seq], cfg.level_lengths)
    assert (degrees.dtype, bins.dtype) == (np.float64, np.int64)
    assert degrees.tolist() == [[2, 3, 0, 4, 0]] and bins.tolist() == [[1, 2, 0, 2, 0]]
    trace = {}
    md.forward_batch(params, degrees, bins, trace=trace)
    assert trace["decayed"][0].tolist() == [[1.0, 0.75, 0.0]]
    assert trace["decayed"][1].tolist() == [[1.0, 0.0]]
    with pytest.raises(ShapeError):
        md.forward_batch(params, degrees[:, :4], bins[:, :4])
    with pytest.raises(ShapeError):
        md.forward_batch(params, degrees, bins[:, :4])


def test_apply_time_decay_rejects_out_of_range_bins():
    cfg = tiny_config(level_lengths=(1,))
    params = md.init_params(cfg, 0)
    seq = DegreeSequence(levels=((SeqEntry(1, 7, False),),))
    with pytest.raises(ContractError):
        md.forward_batch(params, *stack_sequences([seq], cfg.level_lengths))


def test_forward_shape_gates_and_conv_sign():
    rng = np.random.default_rng(1)
    cfg = tiny_config()
    params = md.init_params(cfg, 2)
    seqs = [seq_for(cfg, rng) for _ in range(4)]
    degrees, bins = stack_sequences(seqs, cfg.level_lengths)
    trace = {}
    out = md.forward_batch(params, degrees, bins, trace=trace)
    assert out.shape == (4, 1)
    assert np.isfinite(out.values).all()
    for k in range(cfg.depth):
        assert trace["u"][k].shape == (4, cfg.embed_width)
        assert np.all((trace["u"][k] > 0) & (trace["u"][k] < 1))
        assert np.all((trace["r"][k] > 0) & (trace["r"][k] < 1))
        assert np.all(trace["conv"][k] >= 0)  # post-activation
        assert trace["conv"][k].shape == (4, cfg.conv_out)
    assert trace["concat"].shape == (4, cfg.depth * cfg.conv_out)


def test_decay_scales_inputs_linearly():
    rng = np.random.default_rng(3)
    cfg = tiny_config()
    params = md.init_params(cfg, 4)
    seq = seq_for(cfg, rng)
    degrees, bins = stack_sequences([seq], cfg.level_lengths)

    t1, t2 = {}, {}
    md.forward_batch(params, degrees, bins, trace=t1)
    params.decay.values *= 2.0
    md.forward_batch(params, degrees, bins, trace=t2)
    for k in range(cfg.depth):
        np.testing.assert_allclose(t2["decayed"][k], 2.0 * t1["decayed"][k], atol=1e-15)


def test_single_and_batched_forward_agree():
    rng = np.random.default_rng(5)
    cfg = tiny_config()
    params = md.init_params(cfg, 6)
    seqs = [seq_for(cfg, rng) for _ in range(3)]
    degrees, bins = stack_sequences(seqs, cfg.level_lengths)
    batched = md.forward_batch(params, degrees, bins).values
    singles = np.vstack([md.forward_batch(params, *stack_sequences([s], cfg.level_lengths)).values for s in seqs])
    np.testing.assert_allclose(batched, singles, atol=1e-12)


def test_forward_matches_a_per_level_reference_bitwise():
    # each level's decay and pre-embed layers, and each head layer, on its own
    # in NumPy; the GRU and the conv are the library's records
    rng = np.random.default_rng(22)
    for cfg in (tiny_config(), tiny_config(level_lengths=(1, 3, 1), pre_embed_depth=3),
                tiny_config(pre_embed_depth=1, head_widths=(5, 3))):
        params = md.init_params(cfg, 23)
        for t in params.tensors():
            t.values += rng.normal(0.0, 0.1, size=t.values.shape)
        named = dict(params.named())
        for n_rows in (1, 4):
            degrees, bins = stack_sequences([seq_for(cfg, rng) for _ in range(n_rows)], cfg.level_lengths)
            levels, lo = [], 0
            for k, length in enumerate(cfg.level_lengths):
                x = params.decay.values[bins[:, lo : lo + length]] * degrees[:, lo : lo + length]
                lo += length
                for i in range(cfg.pre_embed_depth):
                    x = x @ named[f"pre{k}_w{i}"].values + named[f"pre{k}_b{i}"].values
                    if i < cfg.pre_embed_depth - 1:
                        x = np.where(x > 0, x, 0.0)
                levels.append(x)
            hs = gru(Tensor(np.stack(levels)), *params.gru_packed)[0]
            z = conv1d(hs, params.conv_kernel, stride=cfg.conv_stride, bias=params.conv_bias, relu=True)
            z = z.values.reshape(n_rows, -1)
            for i, (w, b) in enumerate(params.head):
                z = z @ w.values + b.values
                if i < len(params.head) - 1:
                    z = np.where(z > 0, z, 0.0)
            trace = {}
            got = md.forward_batch(params, degrees, bins, trace=trace).values
            np.testing.assert_array_equal(got, z)
            for k in range(cfg.depth):
                np.testing.assert_array_equal(trace["embed"][k], levels[k])


def test_stack_rejects_mismatched_sequences():
    cfg = tiny_config()
    bad = DegreeSequence(levels=((SeqEntry(1, 1, False),),))  # one level, wrong width
    with pytest.raises(ShapeError):
        stack_sequences([bad], cfg.level_lengths)
    with pytest.raises(ContractError):
        stack_sequences([], cfg.level_lengths)


def test_loss_matches_independent_recompute():
    rng = np.random.default_rng(7)
    cfg = tiny_config(alpha=2.0, reg_weight=0.5)
    params = md.init_params(cfg, 8)
    seqs = [seq_for(cfg, rng) for _ in range(3)]
    degrees, bins = stack_sequences(seqs, cfg.level_lengths)
    preds = md.forward_batch(params, degrees, bins)
    growths = np.array([0, 3, 7])

    value = md.loss(preds, growths, params).item()
    err = preds.values[:, 0] - np.log2(growths + 1.0)
    expect = 2.0 * float(np.mean(err**2))
    named = dict(params.named())
    expect += 0.5 * sum(float((named[n].values ** 2).sum()) for n in TINY_WEIGHTS)
    assert value == pytest.approx(expect, rel=1e-12)


def test_loss_without_regularization_is_pure_data_term():
    cfg = tiny_config(alpha=1.0, reg_weight=0.0)
    params = md.init_params(cfg, 9)
    preds = md.forward_batch(params, *stack_sequences([seq_for(cfg, np.random.default_rng(0))], cfg.level_lengths))
    value = md.loss(preds, np.array([1]), params).item()
    assert value == pytest.approx(float((preds.values[0, 0] - 1.0) ** 2), rel=1e-12)


def test_regularizer_covers_weights_not_biases_or_decay():
    params = md.init_params(tiny_config(), 10)
    penalized = {n for n, t in params.named() if np.shares_memory(t.values, params.weights.values)}
    assert penalized == set(TINY_WEIGHTS)
    rest = set(md.expected_shapes(tiny_config())) - penalized
    assert all(n == "decay" or n == "conv_bias" or n.endswith(("b0", "b1", "bu", "br", "bh")) for n in rest)


def test_loss_shape_and_label_validation():
    cfg = tiny_config()
    params = md.init_params(cfg, 11)
    preds = md.forward_batch(params, *stack_sequences([seq_for(cfg, np.random.default_rng(1))], cfg.level_lengths))
    with pytest.raises(ShapeError):
        md.loss(preds, np.array([1, 2]), params)
    with pytest.raises(ContractError):
        md.loss(preds, np.array([-2]), params)


def test_training_steps_reduce_loss_for_many_seeds():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        cfg = tiny_config()
        params = md.init_params(cfg, seed)
        seqs = [seq_for(cfg, rng) for _ in range(6)]
        growths = np.asarray(rng.integers(0, 20, size=6))
        degrees, bins = stack_sequences(seqs, cfg.level_lengths)
        state = AdamState(step_size=5e-3)
        tensors = params.tensors()

        def current_loss():
            return md.loss(md.forward_batch(params, degrees, bins), growths, params).item()

        before = current_loss()
        for _ in range(60):
            with Tape() as tape:
                value = md.loss(md.forward_batch(params, degrees, bins), growths, params)
            tape.backward(value, params=tensors)
            adam_step(params.buffer, state)
        assert current_loss() < before, f"seed {seed} failed to descend"


def test_padding_decay_slot_receives_zero_gradient():
    rng = np.random.default_rng(12)
    cfg = tiny_config()
    params = md.init_params(cfg, 13)
    seqs = [seq_for(cfg, rng) for _ in range(4)]
    degrees, bins = stack_sequences(seqs, cfg.level_lengths)
    with Tape() as tape:
        value = md.loss(md.forward_batch(params, degrees, bins), np.array([1, 2, 3, 4]), params)
    (g,) = tape.backward(value, params=[params.decay])
    assert g[0] == 0.0


def test_unused_bin_gets_zero_decay_gradient():
    cfg = tiny_config(level_lengths=(2,), bin_count=3)
    params = md.init_params(cfg, 14)
    # both entries in bin 1; bins 2 and 3 never appear
    seq = DegreeSequence(levels=((SeqEntry(2, 1, False), SeqEntry(1, 1, False)),))
    degrees, bins = stack_sequences([seq], cfg.level_lengths)
    with Tape() as tape:
        value = md.loss(md.forward_batch(params, degrees, bins), np.array([2]), params)
    (g,) = tape.backward(value, params=[params.decay])
    assert g[2] == 0.0 and g[3] == 0.0
    assert g[1] != 0.0


def scaled_adjoint(x, factor):
    """Identity on x whose adjoint is multiplied by factor: a wrong gradient."""
    return _record(Tensor(x.values), lambda g: _acc(x, g * factor))


@pytest.mark.parametrize("which", range(4))  # packed w, u, uh, b
def test_full_model_grad_check_rejects_one_gru_gradient_scaled_by_1_001(monkeypatch, which):
    # the gradient-check gate's setup at its eps, tol and sampling
    rng = np.random.default_rng(31)
    cfg = tiny_config(reg_weight=1e-3)
    params = md.init_params(cfg, 5)
    for t in params.tensors():
        t.values += rng.normal(0.0, 0.1, size=t.values.shape)  # off the relu kinks
    params.decay.values[0] = 0.0
    seqs = [seq_for(cfg, rng) for _ in range(4)]
    degrees, bins = stack_sequences(seqs, cfg.level_lengths)
    growths = rng.integers(0, 40, size=4).astype(np.float64)

    def f():
        return md.loss(md.forward_batch(params, degrees, bins), growths, params)

    def check():
        return grad_check(f, params.tensors(), eps=1e-5, tol=1e-4, max_per_param=6, seed=3)

    assert check().passed
    target, gru = params.gru_packed[which], md.gru
    monkeypatch.setattr(md, "gru", lambda xs, *weights: gru(
        xs, *(scaled_adjoint(w, 1.001) if w is target else w for w in weights)))
    report = check()
    assert not report.passed, report
    names = [name for name, _ in params.named()]
    assert names[report.worst_param].startswith("gru_"), names[report.worst_param]


# ------------------------------------------------------- the flat buffer


def test_every_named_tensor_views_the_flat_buffers():
    params = md.init_params(tiny_config(), 17)
    buf = params.buffer
    assert sum(t.values.size for t in params.tensors()) == buf.values.size
    for name, t in params.named():
        assert np.shares_memory(t.values, buf.values), name
        assert np.shares_memory(t.grad, buf.grad), name
    for packed in params.gru_packed:
        assert np.shares_memory(packed.values, buf.values)
    # the packed gates are the named gates side by side
    w, u, uh, b = params.gru_packed
    g = {name[4:]: t for name, t in params.named() if name.startswith("gru_")}
    np.testing.assert_array_equal(w.values, np.hstack([g["wu"].values, g["wr"].values, g["wh"].values]))
    np.testing.assert_array_equal(u.values, np.hstack([g["uu"].values, g["ur"].values]))
    assert uh is g["uh"]
    np.testing.assert_array_equal(b.values, np.concatenate([g["bu"].values, g["br"].values, g["bh"].values]))


def test_weight_slice_is_exactly_the_weight_matrices():
    params = md.init_params(tiny_config(), 18)
    named = dict(params.named())
    weights, mats = params.weights, [named[n] for n in TINY_WEIGHTS]
    assert weights.values.base is not None and weights.values.flags.c_contiguous
    assert sum(t.values.size for t in mats) == weights.values.size
    assert all(np.shares_memory(t.values, weights.values) for t in mats)
    others = [t for t in params.tensors() if all(t is not m for m in mats)]
    assert not any(np.shares_memory(t.values, weights.values) for t in others)
    assert sq_loss(weights, np.zeros(weights.shape), 1.0).item() == pytest.approx(
        sum(float((t.values**2).sum()) for t in mats), rel=1e-14
    )


def test_second_backward_on_one_tape_does_not_double_count():
    rng = np.random.default_rng(19)
    cfg = tiny_config()
    params = md.init_params(cfg, 20)
    degrees, bins = stack_sequences([seq_for(cfg, rng) for _ in range(3)], cfg.level_lengths)
    with Tape() as tape:
        value = md.loss(md.forward_batch(params, degrees, bins), np.array([1, 2, 3]), params)
    first = [g.copy() for g in tape.backward(value, params=params.tensors())]
    flat = params.buffer.grad.copy()
    second = tape.backward(value, params=params.tensors())
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(params.buffer.grad, flat)
    assert np.abs(flat).max() > 0


def test_adam_names_the_first_non_finite_model_parameter():
    params = md.init_params(tiny_config(), 21)
    before = params.buffer.values.copy()
    params.buffer.grad.fill(0.0)
    params.head[0][0].grad[0, 0] = np.inf
    dict(params.named())["gru_ur"].grad[1, 2] = np.nan  # named before the head
    with pytest.raises(NumericError) as err:
        adam_step(params.buffer, AdamState())
    assert err.value.details["param"] == "gru_ur"
    np.testing.assert_array_equal(params.buffer.values, before)


def test_model_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    cfg = tiny_config()
    params = md.init_params(cfg, 16)
    schema = EncodingSchema(cfg.level_lengths, cfg.bin_count, 40, uniform_bin_edges(cfg.bin_count, 40))
    path = tmp_path / "model.json"
    md.save_model(path, params, schema)
    loaded, schema2 = md.load_model(path)
    assert schema2 == schema
    assert loaded.config == cfg
    for (n1, t1), (n2, t2) in zip(params.named(), loaded.named()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.values, t2.values)
    rows = stack_sequences([seq_for(cfg, rng)], cfg.level_lengths)
    np.testing.assert_array_equal(
        md.forward_batch(params, *rows).values, md.forward_batch(loaded, *rows).values
    )


def test_load_model_rejects_plain_array_files(tmp_path):
    from cascadecite import checkpoint as ck
    path = tmp_path / "bare.json"
    ck.save_arrays(path, {"w": np.ones(2)})
    with pytest.raises(CheckpointError, match="model_config"):
        md.load_model(path)
