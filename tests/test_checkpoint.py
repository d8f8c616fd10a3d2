"""Array checkpoint round-trips and refusal paths."""

import json
from pathlib import Path

import numpy as np
import pytest

from cascadecite import cascades as casc
from cascadecite import checkpoint as ck
from cascadecite import encoding as enc
from cascadecite import model as md
from cascadecite import training as tr
from cascadecite.encoding import DegreeSequence, SeqEntry, stack_sequences
from cascadecite.errors import CheckpointError

INDENTED = Path(__file__).parent / "data" / "checkpoint_indented.json"


def saved(tmp_path, arrays) -> dict:
    """The document `save_arrays` writes for these arrays."""
    path = tmp_path / "saved.json"
    ck.save_arrays(path, arrays)
    return json.loads(path.read_text())


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(4) * 1e-17,  # tiny values must survive too
        "s": np.array(2.0**-1074),            # smallest subnormal
    }
    path = tmp_path / "ck.json"
    ck.save_arrays(path, arrays, extra={"note": {"k": 1}})
    doc = json.loads(path.read_text())
    assert doc["note"] == {"k": 1}
    loaded = ck.parse_arrays(doc)
    for name, a in arrays.items():
        assert loaded[name].shape == a.shape
        np.testing.assert_array_equal(loaded[name], a)


def test_rewriting_same_arrays_is_byte_identical(tmp_path):
    arrays = {"w": np.random.default_rng(9).standard_normal((5, 2))}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    ck.save_arrays(p1, arrays)
    ck.save_arrays(p2, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_refuses_foreign_format():
    with pytest.raises(CheckpointError):
        ck.parse_arrays({"format": "other", "version": 1, "arrays": {}})


def test_refuses_future_version(tmp_path):
    doc = saved(tmp_path, {"w": np.ones(2)})
    doc["version"] = ck.VERSION + 1
    with pytest.raises(CheckpointError):
        ck.parse_arrays(doc)


def test_refuses_size_shape_mismatch(tmp_path):
    doc = saved(tmp_path, {"w": np.ones((2, 3))})
    doc["arrays"]["w"]["values"] = [1.0, 2.0]
    with pytest.raises(CheckpointError):
        ck.parse_arrays(doc)


@pytest.mark.parametrize("field, value, message", [
    ("values", ["0.5", True], "values must be JSON numbers, got '0.5'"),
    ("values", [0.5, True], "values must be JSON numbers, got True"),
    ("values", [0.5, None], "values must be JSON numbers, got None"),
    ("values", [[0.5], [1.0]], "values must be JSON numbers, got [0.5]"),
    ("values", "0.5,1.0", "values must be a list of numbers, got '0.5,1.0'"),
    ("values", [0.5, 10**400], "a value does not fit a float"),
    ("values", [0.5, float("nan")], "values must be finite, got nan"),
    ("values", [float("-inf"), 0.5], "values must be finite, got -inf"),
    ("shape", [2.0], "shape must be a list of integers >= 0, got [2.0]"),
    ("shape", [True, 2], "shape must be a list of integers >= 0, got [True, 2]"),
    ("shape", [-1, -2], "shape must be a list of integers >= 0, got [-1, -2]"),
    ("shape", 2, "shape must be a list of integers >= 0, got 2"),
], ids=["string", "bool", "null", "nested", "text", "huge integer", "NaN", "-Infinity", "float dim", "bool dim",
        "negative dims", "bare integer"])
def test_refuses_values_that_are_not_numbers_and_shapes_that_are_not_dims(tmp_path, field, value, message):
    doc = saved(tmp_path, {"w": np.ones(2)})
    doc["arrays"]["w"][field] = value
    with pytest.raises(CheckpointError) as err:
        ck.parse_arrays(doc)
    assert str(err.value) == f"array 'w': {message}"


def test_integer_values_and_an_empty_shape_load(tmp_path):
    doc = saved(tmp_path, {"w": np.ones((2, 1)), "s": np.array(3.0)})
    doc["arrays"]["w"]["values"] = [1, -2]
    loaded = ck.parse_arrays(doc)
    assert loaded["w"].dtype == np.float64 and loaded["w"].tolist() == [[1.0], [-2.0]]
    assert loaded["s"].shape == () and loaded["s"] == 3.0


@pytest.mark.parametrize("edit, message", [
    (lambda arrays: arrays.pop("gru_bh"), "parameter set mismatch: missing ['gru_bh'], unexpected []"),
    (lambda arrays: arrays.update(junk={"shape": [1], "values": [0.0]}),
     "parameter set mismatch: missing [], unexpected ['junk']"),
    (lambda arrays: arrays["pre0_w0"].update(shape=[4, 3]), "parameter 'pre0_w0' has shape (4, 3), expected (3, 4)"),
], ids=["missing", "extra", "wrong shape"])
def test_load_model_names_the_file_and_each_array_that_does_not_fit(tmp_path, edit, message):
    doc = json.loads(INDENTED.read_text())
    edit(doc["arrays"])
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as err:
        md.load_model(path)
    assert str(err.value) == f"{path}: {message}"


def test_saved_file_is_compact_and_loads_from_any_layout(tmp_path):
    arrays = {"w": np.random.default_rng(4).standard_normal((50, 4))}
    path = tmp_path / "ck.json"
    ck.save_arrays(path, arrays)
    text = path.read_text()
    assert "\n" not in text and ", " not in text
    doc = json.loads(text)
    indented = json.loads(json.dumps(doc, indent=1))
    np.testing.assert_array_equal(ck.parse_arrays(indented)["w"], arrays["w"])


def test_indented_checkpoint_from_version_0_2_0_predicts_the_same():
    # written by 0.2.0, which put one float per line; want holds that version's predictions
    params, schema = md.load_model(INDENTED)
    assert schema.level_lengths == params.config.level_lengths == (3, 2, 1)
    E, P = SeqEntry, SeqEntry(0, 0, True)
    seqs = [
        DegreeSequence(levels=((E(3, 1, False), E(2, 2, False), E(1, 1, False)), (E(2, 2, False), P), (E(1, 2, False),))),
        DegreeSequence(levels=((E(1, 1, False), P, P), (P, P), (P,))),
        DegreeSequence(levels=((E(4, 2, False), E(1, 2, False), P), (E(3, 1, False), E(1, 1, False)), (P,))),
    ]
    got = md.forward_batch(params, *stack_sequences(seqs, schema.level_lengths)).values[:, 0]
    want = [-0.48666297133517394, -0.5830268194066817, -0.6696299177513275]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_failed_writes_leave_no_partial_file(tmp_path):
    pairs = casc.generate_synthetic(3, (3, 5), 20, 1.0, seed=0)

    def broken(items):
        yield from items
        raise RuntimeError("interrupted")

    path = tmp_path / "cascades.jsonl"
    with pytest.raises(RuntimeError):
        casc.write_cascades_jsonl(path, broken(pairs))
    assert list(tmp_path.iterdir()) == []

    casc.write_cascades_jsonl(path, pairs)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        casc.write_cascades_jsonl(path, broken(pairs[:1]))
    assert path.read_bytes() == before  # the old file survives whole
    with pytest.raises(RuntimeError):
        enc.write_encoded_jsonl(tmp_path / "train.encoded.jsonl", broken([]))
    with pytest.raises(TypeError):
        ck.save_arrays(tmp_path / "ck.json", {"w": np.ones(2)}, extra={"bad": object()})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cascades.jsonl"]


def test_failed_predictions_or_schema_write_keeps_the_old_file(tmp_path, monkeypatch):
    rows = [("a", 0.5, 0.41), ("b", 1.0, 1.0)]
    preds = tmp_path / "predictions.csv"
    tr.write_predictions(preds, rows)
    before = preds.read_bytes()

    def broken(items):
        yield from items
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        tr.write_predictions(preds, broken([*rows, ("c", 2.0, 3.0)]))
    assert preds.read_bytes() == before  # not the two rows written before the failure

    schema_path = tmp_path / "schema.json"
    enc.save_schema(schema_path, enc.EncodingSchema((3, 1), 2, 10, enc.uniform_bin_edges(2, 10)))
    before_schema = schema_path.read_bytes()
    monkeypatch.setattr(enc, "schema_to_dict", lambda schema: {"edges": object()})
    with pytest.raises(TypeError):
        enc.save_schema(schema_path, enc.EncodingSchema((4,), 2, 10, enc.uniform_bin_edges(2, 10)))
    assert schema_path.read_bytes() == before_schema
    assert sorted(p.name for p in tmp_path.iterdir()) == ["predictions.csv", "schema.json"]
