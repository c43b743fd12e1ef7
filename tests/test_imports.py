"""The package's import graph: every import sits at a module's top, the
event layer loads nothing of the fixed-point layer, the CLI loads every module
(so none is reached by tests alone), the library the benchmark loads leaves
the property suite and the CLI unloaded, the test layer's definition-direct
references import nothing of the engine they check, the CLI reads result
documents only through the library's reader, and certifying and cross-checking
a scenario never load `numpy.ma`."""

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


def _loaded_by(module: str) -> list[str]:
    """The package's modules that importing `module` loads.  The package's
    __init__ imports every module, so `module` is imported under a bare
    package object that runs no __init__."""
    code = (
        "import json, sys, types\n"
        "pkg = types.ModuleType('timelyck')\n"
        f"pkg.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['timelyck'] = pkg\n"
        f"import {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('timelyck.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_events_loads_nothing_from_fixpoint():
    loaded = _loaded_by("timelyck.events")
    assert "timelyck.events" in loaded
    assert "timelyck.fixpoint" not in loaded, loaded


def test_cli_loads_every_module():
    # a module that only tests reach belongs in the test layer
    modules = {f"timelyck.{path.stem}" for path in PACKAGE.glob("*.py")} - {"timelyck.__init__"}
    loaded = set(_loaded_by("timelyck.cli"))
    assert loaded == modules, sorted(modules ^ loaded)


def test_the_library_loads_neither_the_property_suite_nor_the_cli():
    # the benchmark's set-up compiles every module the library loads; the
    # property suite and the CLI are for the command line alone
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    code = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "from workloads import MODULES\n"
        "import timelyck\n"
        "for name in MODULES:\n"
        "    importlib.import_module(f'timelyck.{name}')\n"
        "print(json.dumps([len(MODULES), 'timelyck.props' in sys.modules,\n"
        "                  'timelyck.cli' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [8, False, False]


def test_naive_references_import_nothing_of_the_engine():
    # the references may read the universe and re-export the three evaluators
    # the package keeps beside their callers; nothing of events, fixpoint,
    # _kernels, coordination, nested, optimality or scenarios
    path = Path(__file__).parent / "naive_reference.py"
    imported = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.name, set()) for a in node.names)
    ours = {m: names for m, names in imported.items() if m.split(".")[0] == "timelyck"}
    assert ours == {
        "timelyck.universe": {"Universe"},
        "timelyck.packed": {"PointSet", "all_points", "n_within"},
        "timelyck.props": {"n_delta_coordinated", "point_set"},
    }, ours


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


def test_certify_and_oracle_load_no_numpy_ma(tmp_path):
    # a bare np.unique takes a hash path that imports numpy.ma, about 1.2 MB
    # of resident memory that no verb needs
    scenario = str(timelyck.bundled_scenario_path("car_wash"))
    result = str(tmp_path / "result.json")
    code = (
        "import contextlib, io, json, sys\n"
        "from timelyck.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['solve', {scenario!r}, '-o', {result!r}]),\n"
        f"             main(['verify', {scenario!r}, {result!r}, '--optimal']),\n"
        f"             main(['oracle', {scenario!r}, '--cases', '2'])]\n"
        "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], False]
