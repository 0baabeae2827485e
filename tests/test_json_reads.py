"""JSON is parsed and typed in one home each.

``json.load`` and ``json.loads`` appear in ``src/pasdf`` only inside
``meshio.read_json`` and ``config.deserialize``, and ``get_type_hints``
only in ``meshio``, whose ``read_record`` holds the casts every typed
JSON read shares.  A second parser or a second set of casts would let
the rules for a JSON value drift apart again.  This is an ``ast`` scan in
the style of ``test_unused_imports.py``: a use is a name or attribute
that resolves, through the module's imports, to a watched name.
"""
from __future__ import annotations

import ast
from pathlib import Path

_SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "pasdf").rglob("*.py"))

_PARSERS = {"json.load", "json.loads"}
_TYPE_HINTS = {"typing.get_type_hints"}


def uses(paths: list[Path], watched: set[str]) -> list[str]:
    """``place:line: name`` for each use of a watched name, where place
    is ``module`` or ``module.function`` for the top-level definition
    holding the use."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        for statement in tree.body:
            place = path.stem
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                place = f"{path.stem}.{statement.name}"
            for node in ast.walk(statement):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    name = f"{imported.get(node.value.id, node.value.id)}.{node.attr}"
                elif isinstance(node, ast.Name):
                    name = imported.get(node.id, node.id)
                else:
                    continue
                if name in watched:
                    found.append(f"{place}:{node.lineno}: {name}")
    return found


def outside(found: list[str], homes: set[str]) -> list[str]:
    """The uses whose place is neither a home nor inside one."""
    return [
        use
        for use in found
        if not any(use.startswith((f"{home}:", f"{home}.")) for home in homes)
    ]


def test_json_is_parsed_only_by_the_two_readers() -> None:
    found = uses(_SRC, _PARSERS)
    assert outside(found, {"meshio.read_json", "config.deserialize"}) == []
    assert found


def test_type_hints_are_read_only_in_meshio() -> None:
    found = uses(_SRC, _TYPE_HINTS)
    assert outside(found, {"meshio"}) == []
    assert found


def test_scan_places_each_use(tmp_path) -> None:
    module = tmp_path / "module.py"
    module.write_text(
        "import json\n"
        "from json import loads as parse\n"
        "from typing import get_type_hints\n"
        "HINTS = get_type_hints(dict)\n"
        "def read(text):\n"
        "    return json.loads(text), parse(text)\n"
        "class Reader:\n"
        "    def read(self, fh):\n"
        "        return json.load(fh), json.dumps({})\n"
    )
    found = uses([module], _PARSERS | _TYPE_HINTS)
    assert found == [
        "module:4: typing.get_type_hints",
        "module.read:6: json.loads",
        "module.read:6: json.loads",
        "module.Reader:9: json.load",
    ]
    assert outside(found, {"module.read", "module.Reader"}) == ["module:4: typing.get_type_hints"]
