"""Every name that ``src/`` and ``tests/`` import is used, every
private module-level name in ``src/pasdf`` is read by some src module,
and every public one by some src or ``perfbench/`` module.

The repository runs no linter, so these are the F401 check and a
dead-name check in a few lines of ``ast``: names defined against the
names code reads, string annotations included.  An import marked
``# noqa: F401`` is a deliberate re-export and is skipped.  The names
checked are module-level ``def``, ``class`` and assignment targets; a
private one starts with ``_``, dunders excluded, and a public one does
not start with ``_``.  Tests do not count as readers.
"""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Sequence

_ROOT = Path(__file__).resolve().parent.parent
_SRC = sorted((_ROOT / "src" / "pasdf").rglob("*.py"))
_PERFBENCH = sorted((_ROOT / "perfbench").rglob("*.py"))
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


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def unread_names(
    paths: list[Path], readers: Sequence[Path] = (), checked: Callable[[str], bool] = _is_private
) -> list[str]:
    """``file:line: name`` for each module-level name in ``paths`` that
    ``checked`` selects and no module in ``paths`` or ``readers`` reads,
    by name or as an attribute."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in [*paths, *readers]
    }
    read: set[str] = set()
    for tree in trees.values():
        read |= _names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = []
    for path in paths:
        for node in trees[path].body:
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
                if checked(name) and name not in read
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
    assert unread_names(_SRC) == []


def test_every_public_name_is_read_by_src_or_perfbench() -> None:
    assert unread_names(_SRC, _PERFBENCH, _is_public) == []


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
    assert unread_names(sorted(tmp_path.glob("*.py"))) == [
        "a.py:3: _LEFTOVER",
        "a.py:4: _x",
        "a.py:7: _Gone",
    ]


def test_scan_flags_an_unread_public_name(tmp_path) -> None:
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "LEFTOVER, _hidden = 1e-9, 0\n"
        "def helper() -> int:\n"
        "    return LIMIT\n"
        "def orphan() -> int:\n"
        "    return 0\n"
        "class Gone:\n"
        "    pass\n"
        "class Kept:\n"
        "    pass\n"
    )
    reader = tmp_path / "bench" / "run.py"
    reader.parent.mkdir()
    reader.write_text("from a import helper\nimport a\nhelper()\nprint(a.Kept)\n")
    assert unread_names([tmp_path / "a.py"], [reader], _is_public) == [
        "a.py:2: LEFTOVER",
        "a.py:5: orphan",
        "a.py:7: Gone",
    ]
