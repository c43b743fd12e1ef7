"""The package's call reach: what the CLI's verbs and the benchmark's
operations leave uncalled.

A fresh interpreter traces call events (`sys.settrace`, no line events) from
before `import timelyck` while it runs every `cli_golden.json` verb on every
bundled scenario, `verify` and `gfp --psi` fed the scenario's own outputs,
`report` and `props --cases 2` in both formats, `generate`, `gfp` and `solve`
on a scenario whose bounds clamp (so `delta_normalized` is written), and
every input of every `perfbench` workload with its operation, probes and
checks, as `test_bench_probes` runs them.  Every function and method of
`src/timelyck` that none of this calls must be listed in `UNCALLED` with the
reason it stays; a function that gains no caller is either listed or
deleted.
"""

import json
import subprocess
import sys
from pathlib import Path

import timelyck

from test_cli import CLAMPED_SCENARIO, GOLDEN

PACKAGE = Path(timelyck.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "perfbench"

PAPER = "a paper helper that __init__ exports (ROADMAP item 6's keep-list)"
VALUE = "part of a public value type's protocol"
FAILURE = "runs only when a check fails"
SCENARIO_FILE = "writes the scenario files of the random_scenarios golden (test_cli.py)"

# module.qualname -> why it stays although no verb or benchmark operation calls it
UNCALLED = {
    "coordination.enumerate_local_ensembles": PAPER,
    "events.everyone_knows": PAPER,
    "fixpoint.common_knowledge": PAPER,
    "fixpoint.eventual_ck": PAPER,
    "fixpoint.eventual_ck.step": PAPER,
    "nested.enumerate_paths": PAPER,
    "scenarios.joint_delta": PAPER,
    "scenarios.ordered_delta": PAPER,
    "scenarios.simultaneous_delta": PAPER,
    "universe.Universe.__init__": "the constructor from per-point states; test universes use it",
    "universe.Universe.__init__.lookup": "the per-point constructor's state reader",
    "scenarios._ResponseRows.__iter__": "the Mapping protocol requires it",
    "scenarios._ResponseRows.__len__": "the Mapping protocol requires it",
    "events.Event.__contains__": VALUE,
    "events.Event.__invert__": VALUE,
    "events.Event.__repr__": VALUE,
    "events.Event.points": VALUE,
    "events.EventTuple.__repr__": VALUE,
    "events.EventTuple._like": VALUE + ": the result type of `&` and `|` on tuples",
    "fixpoint.TimingSpec.__eq__": VALUE,
    "fixpoint.TimingSpec.__repr__": VALUE,
    "universe.Universe.__repr__": VALUE,
    "scenarios.ScenarioSpec.to_json_dict": SCENARIO_FILE,
    "fixpoint.TimingSpec.to_json_dict": SCENARIO_FILE,
    "_kernels._overflowed": FAILURE + ": an enumeration stopped by its guard",
    "coordination._first_points": FAILURE + ": a correspondence counterexample",
}

CHILD = """
import contextlib, io, json, sys
codes = {}

def trace(frame, event, arg):
    codes[id(frame.f_code)] = frame.f_code

sys.path[:0] = [PACKAGE_PARENT, BENCH]
sys.settrace(trace)
import timelyck
from timelyck.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

for name in NAMES:
    scenario = str(timelyck.bundled_scenario_path(name))
    solved, psi = f"{TMP}/{name}-solve.json", f"{TMP}/{name}-psi.json"
    run("solve", scenario, "-o", solved)
    run("gfp", scenario, "-o", psi)
    with open(psi) as fh:
        psi_list = json.load(fh)["psi"]
    with open(psi, "w") as fh:
        json.dump(psi_list, fh)
    for verb in VERBS:
        extra = [solved] if verb.startswith("verify") else []
        run(*verb.split(), scenario, *extra, "-o", f"{TMP}/out.json")
    run("verify", scenario, solved, "-o", f"{TMP}/out.json")
    run("gfp", scenario, "--psi", psi, "-o", f"{TMP}/out.json")
    for fmt in ("json", "table"):
        run("report", solved, "--format", fmt, "-o", f"{TMP}/out.json")
for fmt in ("json", "table"):
    run("props", "--cases", "2", "--format", fmt, "-o", f"{TMP}/out.json")
for verb in ("generate", "gfp", "solve"):
    run(verb, CLAMPED, "-o", f"{TMP}/out.json")

import importlib, types
import numpy as np
import tracing, workloads
lib = types.SimpleNamespace(
    **{m: importlib.import_module(f"timelyck.{m}") for m in workloads.MODULES})
for workload, spec in sorted(workloads.WORKLOADS.items()):
    rng = np.random.default_rng(7)
    for inp in spec.build(rng):
        tracer = tracing.Tracer()
        tracer.begin_op(1)
        out, ctx = tracer.call("op", spec.op, lib, tracer, inp)
        workloads.probe(workload, lib, tracer, inp, out, ctx)
        assert workloads.check(workload, inp, out, ctx, rng) == [], (workload, inp.name)
sys.settrace(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in codes.values()})))
"""


def defined_functions() -> dict:
    """(file, first line, name) -> module.qualname of every function and
    method in the package; class bodies, lambdas and comprehensions are not
    functions here."""
    found = {}

    def walk(code, prefix, stem):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            name = const.co_name
            if name.startswith("<"):
                walk(const, prefix, stem)
                continue
            if const.co_flags & 1:  # CO_OPTIMIZED: a function body, not a class body
                found[(const.co_filename, const.co_firstlineno, name)] = f"{stem}.{prefix}{name}"
            walk(const, f"{prefix}{name}.", stem)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), "", path.stem)
    return found


def test_every_uncalled_function_is_listed_with_its_reason(tmp_path):
    clamped = tmp_path / "clamped.json"
    clamped.write_text(json.dumps(CLAMPED_SCENARIO))
    values = {
        "PACKAGE_PARENT": str(PACKAGE.parent), "BENCH": str(BENCH), "TMP": str(tmp_path),
        "NAMES": sorted(GOLDEN["sha256"]), "VERBS": GOLDEN["verbs"], "CLAMPED": str(clamped),
    }
    code = "".join(f"{k} = {v!r}\n" for k, v in values.items()) + CHILD
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    called = {tuple(key) for key in json.loads(proc.stdout)}
    defined = defined_functions()
    uncalled = {name for key, name in defined.items() if key not in called}
    assert uncalled == set(UNCALLED), "\n".join(
        ["uncalled but not listed:", *sorted(uncalled - set(UNCALLED)),
         "listed but called or gone:", *sorted(set(UNCALLED) - uncalled)])
    assert all(UNCALLED.values())
