"""Two boundaries, each checked by parsing the source.

Only encoding.py knows how an encoded sample stores its slots. Every other
module of the package reads samples through the stacked (degrees, bins)
matrices and the per-level counts that encoding.py hands out. The first
check fails if a module imports a slot name, or reaches one as an attribute
of an imported module.

Every public name of the package has a caller in the package or the
benchmark, so no public API is kept for tests alone. The second check fails
on a public function, class, method or property whose name nothing in
src/ or perfbench/ reads.
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


# ------------------------------------------------------- public API callers

ROOT = PACKAGE.parents[1]
REFERENCE_ROUTE = {"grad_check", "GradCheckReport.passed"}  # the gradient-check gate's reference route


def public_definitions(source: str) -> list[str]:
    """Public top-level functions and classes, and the public methods and properties of those classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def names_read(source: str) -> set[str]:
    """Every name, attribute, imported name and string constant in `source`;
    a string counts because code can reach a name by it (getattr, patching)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def names_without_callers(root: Path) -> list[str]:
    sources = [*(root / "src" / "cascadecite").glob("*.py"), *(root / "perfbench").glob("*.py")]
    read = set().union(*(names_read(p.read_text()) for p in sources))
    return [
        f"{module.name}: {name}"
        for module in sorted((root / "src" / "cascadecite").glob("*.py"))
        for name in public_definitions(module.read_text())
        if name.rpartition(".")[2] not in read and name not in REFERENCE_ROUTE
    ]


def test_every_public_name_has_a_caller_outside_tests():
    assert names_without_callers(ROOT) == []


def test_the_caller_check_sees_functions_classes_methods_and_properties():
    source = (
        "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
        "class Kept:\n    def run(self): pass\n    @property\n    def idle(self): pass\n"
        "    def __len__(self): return 0\n"
    )
    assert public_definitions(source) == ["used", "unused", "Kept", "Kept.run", "Kept.idle"]
    assert {"used", "Kept", "run"} <= names_read("from .m import used\nKept().run()\n")
    assert "idle" in names_read('patch(obj, "idle")\n')
