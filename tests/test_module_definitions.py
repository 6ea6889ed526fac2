"""No module under ``src/repro`` defines one top-level name twice.

A second module-level ``def`` or ``class`` with the same name silently
replaces the first, and every caller of the first then gets the second.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def redefinitions(path: Path):
    """``(name, first line, later line)`` for each repeated top-level def."""
    seen = {}
    repeats = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name in seen:
                repeats.append((node.name, seen[node.name], node.lineno))
            else:
                seen[node.name] = node.lineno
    return repeats


def test_no_top_level_redefinition():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    found = {str(path.relative_to(SRC)): redefinitions(path)
             for path in modules}
    assert {name: repeats for name, repeats in found.items() if repeats} == {}


def test_detects_a_redefinition(tmp_path):
    module = tmp_path / "twice.py"
    module.write_text("def f():\n    pass\n\n\nclass C:\n    pass\n\n\n"
                      "def f(x):\n    return x\n")
    assert redefinitions(module) == [("f", 1, 9)]
