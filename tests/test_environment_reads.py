"""No module in ``src/pasdf`` reads the process environment.

Every setting comes from the run config or a function argument, so a run
is reproduced by its config and seed alone.  An environment variable read
somewhere in the library would be a hidden knob; this ``ast`` scan flags
``os.environ``, ``os.getenv`` and their bytes forms, however ``os`` or the
name was imported.
"""
from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = sorted((_ROOT / "src" / "pasdf").rglob("*.py"))
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list[str]:
    """``line: name`` for each place the file touches the environment."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in _ENVIRONMENT]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_src_module_reads_the_environment() -> None:
    found = {p.name: r for p in _SRC if (r := environment_reads(p))}
    assert found == {}


def test_scan_flags_every_way_of_reading_the_environment(tmp_path) -> None:
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "import os as system\n"
        "from os import getenv as read, path\n"
        "a = os.environ.get('A')\n"
        "b = system.getenv('B')\n"
        "c = read('C')\n"
        "d = path.join('x', 'y')\n"
        "e = os.environb[b'E']\n"
    )
    assert environment_reads(module) == ["3: getenv", "4: environ", "5: getenv", "8: environb"]
