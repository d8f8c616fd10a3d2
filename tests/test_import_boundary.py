"""Only encoding.py knows how an encoded sample stores its slots.

Every other module of the package reads samples through the stacked
(degrees, bins) matrices and the per-level counts that encoding.py hands
out. This test parses each module and fails if one imports a slot name, or
reaches one as an attribute of an imported module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cascadecite"
SLOT_NAMES = {"SeqEntry", "PAD", "pad_run", "_entry", "DegreeSequence"}


def slot_names_used(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name in SLOT_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in SLOT_NAMES:
            found.append(f"line {node.lineno}: reads .{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "encoding.py"))
def test_no_module_but_encoding_names_a_slot(module):
    assert slot_names_used((PACKAGE / module).read_text()) == []


def test_the_check_sees_each_way_of_naming_a_slot():
    assert slot_names_used("from .encoding import EncodingSchema, PAD, SeqEntry\n") == [
        "line 1: imports PAD", "line 1: imports SeqEntry"]
    assert slot_names_used("from cascadecite.encoding import pad_run as run\n") == ["line 1: imports pad_run"]
    assert slot_names_used("from . import encoding as enc\nx = enc.DegreeSequence\n") == [
        "line 2: reads .DegreeSequence"]
    assert slot_names_used("from .encoding import stack_sequences\n") == []
