"""Array checkpoint round-trips and refusal paths."""

import json

import numpy as np
import pytest

from cascadecite import checkpoint as ck
from cascadecite.errors import CheckpointError


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


def test_refuses_future_version():
    doc = ck.dump_arrays({"w": np.ones(2)})
    doc["version"] = ck.VERSION + 1
    with pytest.raises(CheckpointError):
        ck.parse_arrays(doc)


def test_refuses_size_shape_mismatch():
    doc = ck.dump_arrays({"w": np.ones((2, 3))})
    doc["arrays"]["w"]["values"] = [1.0, 2.0]
    with pytest.raises(CheckpointError):
        ck.parse_arrays(doc)


def test_expected_shapes_catch_missing_and_unexpected():
    doc = ck.dump_arrays({"w": np.ones((2, 3)), "junk": np.ones(1)})
    with pytest.raises(CheckpointError) as err:
        ck.parse_arrays(doc, expected_shapes={"w": (2, 3), "b": (3,)})
    msg = str(err.value)
    assert "b" in msg and "junk" in msg


def test_expected_shapes_catch_wrong_shape():
    doc = ck.dump_arrays({"w": np.ones((2, 3))})
    with pytest.raises(CheckpointError):
        ck.parse_arrays(doc, expected_shapes={"w": (3, 2)})
