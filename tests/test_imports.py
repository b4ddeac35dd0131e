"""Every name a package module imports is read in that module.

``__init__.py`` only re-exports, so it is exempt. A name counts as read if
it appears as an identifier anywhere in the module, annotations included
(``from __future__ import annotations`` keeps them in the AST).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dagsearch"
V2_FIXTURE = Path(__file__).resolve().parent / "data" / "two_hop_trajectory_v2.jsonl"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted((line, name) for name, line in imported.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unread]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_rule_flags_an_unread_import():
    source = (
        "import os\nimport json\nfrom typing import Any, Callable\n\n"
        "def f(x: Any) -> str:\n    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: Callable"]


def test_offline_commands_never_load_the_http_stack():
    # Only a request sent over HTTP needs ``requests``; importing the package
    # and replaying a recording offline must leave it unloaded.
    script = (
        "import sys\n"
        "import dagsearch\n"
        "from dagsearch.cli import main\n"
        "print('requests' in sys.modules)\n"
        f"code = main(['replay', '--strict', '--trajectory', {str(V2_FIXTURE)!r}])\n"
        "print(code, 'requests' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 False"
