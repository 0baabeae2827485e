"""Every name that ``src/`` and ``tests/`` import is used, and every
private module-level name in ``src/pasdf`` is read by some src module.

The repository runs no linter, so these are the F401 check and a
dead-private-name check in a few lines of ``ast``: names defined against
the names code reads, string annotations included.  An import marked
``# noqa: F401`` is a deliberate re-export and is skipped.  A private
name is a module-level ``def``, ``class`` or assignment target starting
with ``_``, dunders excluded; tests do not count as readers.
"""
from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = sorted((_ROOT / "src" / "pasdf").rglob("*.py"))
_FILES = sorted((_ROOT / "src").rglob("*.py")) + sorted((_ROOT / "tests").rglob("*.py"))


def _names_read(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, in code or in string annotations."""
    names: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(paths: list[Path]) -> list[str]:
    """``file:line: name`` for each private module-level name in ``paths``
    that no module in ``paths`` reads, by name or as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    read: set[str] = set()
    for tree in trees.values():
        read |= _names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{path.name}:{node.lineno}: {name}"
                for name in targets
                if _is_private(name) and name not in read
            ]
    return unread


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


def test_every_private_name_is_read() -> None:
    assert unread_private_names(_SRC) == []


def test_scan_flags_an_unread_private_name(tmp_path) -> None:
    (tmp_path / "a.py").write_text(
        "__version__ = '1'\n"
        "_LIMIT = 3\n"
        "_LEFTOVER = 1e-9\n"
        "_x, (_y, _z) = 1, (2, 3)\n"
        "def _helper() -> int:\n"
        "    return _LIMIT + _y\n"
        "class _Gone:\n"
        "    pass\n"
        "def run() -> int:\n"
        "    return _helper()\n"
    )
    (tmp_path / "b.py").write_text("import a\nvalue = a._z\n")
    assert unread_private_names(sorted(tmp_path.glob("*.py"))) == [
        "a.py:3: _LEFTOVER",
        "a.py:4: _x",
        "a.py:7: _Gone",
    ]
