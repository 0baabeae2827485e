"""Every name that ``src/`` and ``tests/`` import is used.

The repository runs no linter, so this is the F401 check in a few lines
of ``ast``: a module's imported names against the names its code reads,
string annotations included.  An import marked ``# noqa: F401`` is a
deliberate re-export and is skipped.
"""
from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_FILES = sorted((_ROOT / "src").rglob("*.py")) + sorted((_ROOT / "tests").rglob("*.py"))


def _names_read(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, in code or in string annotations."""
    names: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(path: Path) -> list[str]:
    """``line: name`` for each name the file imports and never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = _names_read(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in read:
                unused.append(f"{node.lineno}: {bound}")
    return unused


def test_every_import_is_used() -> None:
    found = {str(p.relative_to(_ROOT)): u for p in _FILES if (u := unused_imports(p))}
    assert found == {}


def test_scan_flags_an_unused_import_and_honours_noqa(tmp_path) -> None:
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "import numpy as np\n"
        "from typing import Any, Callable\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: 'Any') -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(module) == ["1: os", "3: Callable"]
