"""The package's import graph: every import sits at a module's top, the
event layer loads nothing of the fixed-point layer, and the CLI reads result
documents only through the library's reader."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import timelyck

PACKAGE = Path(timelyck.__file__).parent


def test_no_function_body_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found


def test_events_loads_nothing_from_fixpoint():
    # the package's __init__ imports every module, so the events module is
    # imported under a bare package object that runs no __init__
    code = (
        "import json, sys, types\n"
        "pkg = types.ModuleType('timelyck')\n"
        f"pkg.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['timelyck'] = pkg\n"
        "import timelyck.events\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('timelyck.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "timelyck.events" in loaded
    assert "timelyck.fixpoint" not in loaded, loaded


def test_cli_keeps_no_document_shape_rule():
    # the field checkers belong to the document readers, not to the CLI
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"json_object", "json_int"}, imported
