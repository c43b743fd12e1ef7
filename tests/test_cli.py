"""CLI verbs, exit codes and output determinism, run in-process through
`timelyck.cli.main`; `test_acceptance` keeps a `python -m timelyck.cli` run."""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import timelyck
from timelyck import fixpoint, props
from timelyck.cli import main
from timelyck.fixpoint import EventTuple
from timelyck.nested import verify_nested_characterization
from timelyck.scenarios import ScenarioSpec, generate_system

from test_class_tables import _bundled, _spied_instance, draw_scenario

PKG_DATA = {
    name: str(timelyck.bundled_scenario_path(name))
    for name in (
        "car_wash",
        "ordered_2",
        "firing_squad_2",
        "joint_response",
        "tight_pair",
        "unsatisfiable",
    )
}

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text()
)


def run_cli(*argv):
    """Run the CLI on `argv` as a process would: the exit code, stdout and
    stderr; an exception escaping `main` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def test_generate_car_wash(tmp_path):
    out = tmp_path / "universe.json"
    proc = run_cli("generate", PKG_DATA["car_wash"], "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert len(doc["universe"]["runs"]) == 28
    assert doc["horizon"] == 14
    assert len(doc["trigger"]) == 27


def test_solve_car_wash(tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli("solve", PKG_DATA["car_wash"], "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["verdict"]["solvable"] is True
    assert all(doc["verdict"]["solution_checks"]["checks"].values())
    assert len(doc["runs"]) == 28
    never = doc["runs"]["never"]["responses"]
    assert never == {"L": None, "R": None, "D": None}
    assert doc["runs"]["t0_L1_R2_D0"]["responses"] == {"L": 1, "R": 2, "D": 8}


def test_solve_unsolvable_exit_code(tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli("solve", PKG_DATA["unsatisfiable"], "-o", str(out))
    assert proc.returncode == 5
    assert json.loads(out.read_text())["verdict"]["solvable"] is False


def test_verify_round_trip(tmp_path):
    out = tmp_path / "result.json"
    run_cli("solve", PKG_DATA["ordered_2"], "-o", str(out))
    proc = run_cli("verify", PKG_DATA["ordered_2"], str(out), "--optimal")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert all(doc["solution_checks"]["checks"].values())
    assert doc["optimality"]["optimal"] is True
    assert doc["optimality"]["necessity"] is True


def test_verify_detects_tampering(tmp_path):
    out = tmp_path / "result.json"
    run_cli("solve", PKG_DATA["firing_squad_2"], "-o", str(out))
    doc = json.loads(out.read_text())
    run = next(n for n in doc["runs"] if n != "never")
    doc["runs"][run]["responses"]["a"] = None
    out.write_text(json.dumps(doc))
    proc = run_cli("verify", PKG_DATA["firing_squad_2"], str(out))
    assert proc.returncode == 6


def test_gfp_and_report(tmp_path):
    gfp_out = tmp_path / "gfp.json"
    proc = run_cli("gfp", PKG_DATA["ordered_2"], "--diagnostics", "-o", str(gfp_out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(gfp_out.read_text())
    assert set(doc["coordinates"]) == {"first", "second"}
    assert doc["diagnostics"]["iterations"] >= 1

    res_out = tmp_path / "result.json"
    run_cli("solve", PKG_DATA["ordered_2"], "-o", str(res_out))
    proc = run_cli("report", str(res_out))
    assert proc.returncode == 0
    assert "run" in proc.stdout.splitlines()[0]
    assert "never" in proc.stdout


def test_oracle_verb(tmp_path):
    out = tmp_path / "oracle.json"
    proc = run_cli(
        "oracle", PKG_DATA["tight_pair"], "--seed", "3", "--cases", "10",
        "--explicit-paths", "-o", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["fixed_point_sweep"] == {"cases": 10, "mismatches": 0}
    assert doc["optimality_sweep"]["optimal"] is True
    assert doc["ensemble_correspondence"]["failures"] == 0


def _flip_first_point(x):
    table = x.table.copy()
    table.flat[0] = not table.flat[0]
    return EventTuple.of(x.universe, x.agents, table)


def test_oracle_verb_reports_every_fixed_point_mismatch(tmp_path, monkeypatch):
    real = props.timely_ck_oracle
    monkeypatch.setattr(
        props, "timely_ck_oracle", lambda *a, **kw: _flip_first_point(real(*a, **kw))
    )
    out = tmp_path / "oracle.json"
    proc = run_cli("oracle", PKG_DATA["tight_pair"], "--cases", "10", "-o", str(out))
    assert proc.returncode == 6
    doc = json.loads(out.read_text())
    assert doc["fixed_point_sweep"] == {"cases": 10, "mismatches": 10}
    assert doc["ensemble_correspondence"] == {"cases": 1, "failures": 0}


def test_oracle_verb_reports_every_correspondence_failure(tmp_path, monkeypatch):
    real = props.verify_greatest_coordinated_ensemble

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        report.parts["fixed_point"] = False
        return report

    monkeypatch.setattr(props, "verify_greatest_coordinated_ensemble", failing)
    out = tmp_path / "oracle.json"
    proc = run_cli("oracle", PKG_DATA["tight_pair"], "--cases", "30", "-o", str(out))
    assert proc.returncode == 6
    doc = json.loads(out.read_text())
    assert doc["fixed_point_sweep"] == {"cases": 30, "mismatches": 0}
    assert doc["ensemble_correspondence"] == {"cases": 3, "failures": 3}


@pytest.mark.parametrize("a_to_b", [2, 5])
def test_oracle_nested_report_is_the_raw_specs(tmp_path, a_to_b):
    # horizon 1: a shift of 2 from t = 0 leaves 0..1, a shift of 1 lands on 1,
    # so clamping a->b to the horizon would change the exact-shift map
    doc = {
        "agents": ["a", "b"],
        "trigger_times": [0, 1],
        "obs_delay": {"a": [0, 0], "b": [0, 0]},
        "delta": {"a->b": a_to_b, "b->a": "inf"},
        "actions": {"a": "respond", "b": "respond"},
        "horizon": 1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "oracle.json"
    proc = run_cli("oracle", str(path), "--cases", "1", "--explicit-paths", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    scenario = ScenarioSpec.from_json_dict(doc)
    instance = generate_system(scenario)
    want = verify_nested_characterization(instance.trigger_history(), scenario.timing)
    assert json.loads(out.read_text())["nested_characterisation"] == want.to_json_dict()


@pytest.mark.parametrize("guard", ["5", "0", "x"])
def test_oracle_guard_below_the_smallest_sampled_universe_is_refused(guard):
    # the sweep samples up to 3 agents on at least 1 run of 2 times
    proc = run_cli("oracle", PKG_DATA["car_wash"], "--cases", "3", "--oracle-guard", guard)
    assert proc.returncode == 2
    assert "--oracle-guard" in proc.stderr


def test_oracle_guard_at_its_floor_runs(tmp_path):
    out = tmp_path / "oracle.json"
    proc = run_cli("oracle", PKG_DATA["tight_pair"], "--cases", "3", "--oracle-guard", "6",
                   "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["fixed_point_sweep"] == {"cases": 3, "mismatches": 0}


def test_props_verb():
    proc = run_cli("props", "--seed", "1", "--cases", "20")
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert "knowledge_axioms" in proc.stdout


@pytest.mark.parametrize(
    "content",
    [b"{not json", b'\xff\xfe{"agents": []}', b"[" * 200_000 + b"]" * 200_000],
    ids=["not-json", "not-utf8", "too-deep"],
)
@pytest.mark.parametrize("read_as", ["scenario", "result", "psi"])
def test_parse_error_exit_code(tmp_path, content, read_as):
    # `_load_json` reads the scenario of every verb, the result of `verify`
    # and the event of `gfp --psi`
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "scenario": ("solve", str(bad)),
        "result": ("verify", PKG_DATA["ordered_2"], str(bad)),
        "psi": ("gfp", PKG_DATA["ordered_2"], "--psi", str(bad)),
    }[read_as]
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert f"cannot read {bad}" in proc.stderr and "Traceback" not in proc.stderr


def test_invariant_violation_exit_code(tmp_path):
    doc = json.loads(open(PKG_DATA["ordered_2"]).read())
    doc["obs_delay"]["first"] = [2, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("solve", str(bad))
    assert proc.returncode == 3


def _solve_edited(tmp_path, edit, name="ordered_2"):
    doc = json.loads(open(PKG_DATA[name]).read())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return run_cli("solve", str(bad))


def test_string_horizon_exits_3_naming_the_field(tmp_path):
    proc = _solve_edited(tmp_path, lambda doc: doc.update(horizon="9"))
    assert proc.returncode == 3, proc.stderr
    assert "horizon" in proc.stderr and "Traceback" not in proc.stderr


def test_short_obs_delay_window_exits_3_naming_the_field(tmp_path):
    proc = _solve_edited(tmp_path, lambda doc: doc["obs_delay"].update(first=[0]))
    assert proc.returncode == 3, proc.stderr
    assert "obs_delay.first" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "raw, shown",
    [('"abc"', "'abc'"), ("1e999", "got inf"), ("Infinity", "got inf")],
    ids=["string", "overflow", "infinity"],
)
def test_string_delta_exits_3_naming_the_pair(tmp_path, raw, shown):
    # a float that overflows to infinity is not the documented "inf"
    doc = json.loads(open(PKG_DATA["car_wash"]).read())
    doc["delta"]["L->R"] = "RAW"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"RAW"', raw))
    proc = run_cli("solve", str(bad))
    assert proc.returncode == 3, proc.stderr
    assert "delta.L->R" in proc.stderr and '"inf"' in proc.stderr
    assert shown in proc.stderr and "Traceback" not in proc.stderr


def test_string_trigger_time_exits_3_naming_the_field(tmp_path):
    proc = _solve_edited(tmp_path, lambda doc: doc.update(trigger_times=["0"]))
    assert proc.returncode == 3, proc.stderr
    assert "trigger_times[0]" in proc.stderr


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda doc: doc["actions"].update(a=5), "actions.a must be a string, got 5"),
        (lambda doc: doc["obs_delay"].update(a=["0", 1]), "obs_delay.a[0] must be an integer"),
    ],
    ids=["action-label", "window-element"],
)
def test_scenario_value_of_the_wrong_type_exits_3_naming_its_path(tmp_path, edit, where):
    proc = _solve_edited(tmp_path, edit, "firing_squad_2")
    assert proc.returncode == 3, proc.stderr
    assert where in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("actions", ["x"], "actions"),
        ("delta", [], "delta"),
        ("agents", [["a"]], "agents[0]"),
        ("agents", "ab", "agents"),
        ("include_never_run", "false", "include_never_run"),
    ],
    ids=["actions-value0", "delta-value1", "agents-value2", "agents-ab", "include_never_run-false"],
)
def test_scenario_field_of_the_wrong_type_exits_3_naming_it(tmp_path, field, value, path):
    proc = _solve_edited(tmp_path, lambda doc: doc.update({field: value}))
    assert proc.returncode == 3, proc.stderr
    assert f"invariant violation: {path} must be" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "psi, where",
    [
        ({"never": 0}, "psi must be"),
        ([["never", 0, 1]], "psi[0] must be"),
        ([["never", 0], [0, 0]], "psi[1] must be"),
        ([["never", "0"]], "psi[0] must be"),
        (["never"], "psi[0] must be"),
        ([["never", 0], ["nope", 0]], "psi[1] must be a point: unknown run 'nope'"),
        ([["never", 99]], "psi[0] must be a point: time 99 outside 0..2"),
    ],
)
def test_gfp_psi_that_is_not_a_list_of_points_exits_3_naming_it(tmp_path, psi, where):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(json.dumps(psi))
    proc = run_cli("gfp", PKG_DATA["ordered_2"], "--psi", str(psi_file))
    assert proc.returncode == 3, proc.stderr
    assert where in proc.stderr and "Traceback" not in proc.stderr


def test_gfp_psi_list_of_points_is_read(tmp_path):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(json.dumps([["never", 0], ["never", 1]]))
    out = tmp_path / "gfp.json"
    proc = run_cli("gfp", PKG_DATA["ordered_2"], "--psi", str(psi_file), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["psi"] == [["never", 0], ["never", 1]]


def test_scenario_array_exits_3_naming_the_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    proc = run_cli("solve", str(bad))
    assert proc.returncode == 3, proc.stderr
    assert "scenario must be an object" in proc.stderr and "Traceback" not in proc.stderr


def _verify_edited(tmp_path, edit, *flags):
    solved = tmp_path / "result.json"
    run_cli("solve", PKG_DATA["ordered_2"], "-o", str(solved))
    doc = json.loads(solved.read_text())
    doc = edit(doc) or doc
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    return run_cli("verify", PKG_DATA["ordered_2"], str(edited), *flags)


@pytest.mark.parametrize("time", ["1", 2.5, True, [1]], ids=["string", "float", "bool", "list"])
def test_verify_reports_a_response_time_that_is_not_an_integer(tmp_path, time):
    def edit(doc):
        doc["runs"]["t0_first0_second1"]["responses"]["second"] = time

    proc = _verify_edited(tmp_path, edit, "--optimal")
    assert proc.returncode == 6, proc.stderr
    report = json.loads(proc.stdout)["solution_checks"]
    assert report["checks"]["well_formed"] is False
    assert report["counterexamples"]["well_formed"] == [
        {"run": "t0_first0_second1", "agent": "second", "time": time,
         "problem": "not an integer"}
    ]


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda doc: list(doc["runs"]), "result must be an object"),
        (lambda doc: doc["runs"], None),  # a bare run -> responses object is fine
        (lambda doc: doc["runs"].update(never=[None, None]), "runs.never must be"),
        (lambda doc: doc["runs"]["never"].update(responses=[]), "runs.never.responses must be"),
        (lambda doc: {"never": 3}, "result.never must be"),
    ],
    ids=["array", "bare-object", "run-list", "responses-list", "bare-run-int"],
)
def test_verify_names_a_result_entry_that_is_not_an_object(tmp_path, edit, path):
    proc = _verify_edited(tmp_path, edit)
    if path is None:
        assert proc.returncode == 0, proc.stderr
        return
    assert proc.returncode == 3, proc.stderr
    assert path in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "doc, path",
    [({"x": 1}, "result.x must be an object"), ([1], "result must be an object"),
     ({"runs": {"r": {"responses": [1]}}}, "runs.r.responses must be an object")],
    ids=["run-int", "array", "responses-list"],
)
def test_report_names_a_field_that_is_not_an_object(tmp_path, doc, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("report", str(bad))
    assert proc.returncode == 3, proc.stderr
    assert path in proc.stderr and "Traceback" not in proc.stderr


def test_report_reads_the_responses_of_a_bare_result(tmp_path):
    res_out = tmp_path / "result.json"
    assert run_cli("solve", PKG_DATA["ordered_2"], "-o", str(res_out)).returncode == 0
    runs = json.loads(res_out.read_text())["runs"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({run: entry["responses"] for run, entry in runs.items()}))
    proc = run_cli("report", str(bare))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["resp[first]", "resp[second]"]
    by_run = {row.split()[0]: row.split()[-2:] for row in rows}
    for run, entry in runs.items():
        want = entry["responses"]
        assert by_run[run] == ["-" if t is None else str(t) for t in want.values()], run
    assert any(t is not None for e in runs.values() for t in e["responses"].values())


@pytest.mark.parametrize("name", sorted(GOLDEN["sha256"]))
def test_verify_optimal_writes_the_same_bytes_for_a_bare_result(tmp_path, name):
    scenario = str(timelyck.bundled_scenario_path(name))
    solved, bare = tmp_path / "solve.json", tmp_path / "bare.json"
    run_cli("solve", scenario, "-o", str(solved))
    runs = json.loads(solved.read_text())["runs"]
    bare.write_text(json.dumps({run: e.get("responses", {}) for run, e in runs.items()}))
    outs = [tmp_path / "from_solve.json", tmp_path / "from_bare.json"]
    codes = [run_cli("verify", scenario, str(result), "--optimal", "-o", str(out)).returncode
             for result, out in zip((solved, bare), outs)]
    assert codes[0] == codes[1] == GOLDEN["exit"][name]["verify --optimal"]
    assert outs[0].read_bytes() == outs[1].read_bytes()


# bounds past the horizon: a->b clamps to H + 1, and inf is kept as it is
CLAMPED_SCENARIO = {
    "agents": ["a", "b"], "trigger_times": [0],
    "obs_delay": {"a": [0, 1], "b": [0, 1]},
    "delta": {"a->b": 100, "b->a": "inf"},
    "actions": {"a": "respond", "b": "respond"}, "horizon": 3,
}


@pytest.mark.parametrize("verb", ["generate", "gfp", "solve"])
def test_clamped_bounds_are_reported_under_delta_normalized(tmp_path, verb):
    scenario, out = tmp_path / "clamped.json", tmp_path / "out.json"
    scenario.write_text(json.dumps(CLAMPED_SCENARIO))
    proc = run_cli(verb, str(scenario), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["delta_normalized"] == {"a->b": [100, 4]}


def test_verify_optimal_reads_an_unsolvable_solve_document_as_responding_nowhere(tmp_path):
    res_out = tmp_path / "result.json"
    assert run_cli("solve", PKG_DATA["unsatisfiable"], "-o", str(res_out)).returncode == 5
    proc = run_cli("verify", PKG_DATA["unsatisfiable"], str(res_out), "--optimal")
    assert proc.returncode == 6, proc.stderr
    report = json.loads(proc.stdout)["solution_checks"]
    assert report["checks"]["well_formed"] is True
    assert report["checks"]["covers_triggered_runs"] is False
    assert {"agent": "a", "run": "t0_a0_b0"} in report["counterexamples"]["covers_triggered_runs"]
    assert "unknown agent" not in proc.stdout + proc.stderr


def test_report_shows_the_observations_of_an_unsolvable_solve_document(tmp_path):
    res_out = tmp_path / "result.json"
    assert run_cli("solve", PKG_DATA["unsatisfiable"], "-o", str(res_out)).returncode == 5
    proc = run_cli("report", str(res_out))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["run", "trigger", "obs[a]", "obs[b]", "resp[a]", "resp[b]"]
    by_run = {row.split()[0]: row.split()[1:] for row in rows}
    assert by_run["t0_a0_b1"] == ["0", "0", "1", "-", "-"]
    assert by_run["never"] == ["-"] * 5


def test_report_shows_the_trigger_times_of_a_bare_runs_block(tmp_path):
    res_out = tmp_path / "result.json"
    assert run_cli("solve", PKG_DATA["ordered_2"], "-o", str(res_out)).returncode == 0
    runs = json.loads(res_out.read_text())["runs"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(runs))
    proc = run_cli("report", str(bare))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:2] == ["run", "trigger"]
    by_run = {row.split()[0]: row.split()[1] for row in rows}
    assert by_run == {
        run: "-" if e["trigger_time"] is None else str(e["trigger_time"])
        for run, e in runs.items()
    }
    assert any(e["trigger_time"] is not None for e in runs.values())


def test_oracle_without_the_never_run_skips_only_the_optimality_sweep(tmp_path):
    out = tmp_path / "oracle.json"
    proc = run_cli("oracle", PKG_DATA["car_wash"], "--no-never-run", "--cases", "4",
                   "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["optimality_sweep"] == {"skipped": "instance has no never-run"}
    assert doc["fixed_point_sweep"] == {"cases": 4, "mismatches": 0}
    assert doc["nested_characterisation"] and doc["ensemble_correspondence"]["failures"] == 0
    res_out = tmp_path / "result.json"
    run_cli("solve", PKG_DATA["car_wash"], "--no-never-run", "-o", str(res_out))
    proc = run_cli("verify", PKG_DATA["car_wash"], str(res_out), "--optimal", "--no-never-run")
    assert proc.returncode == 3 and "needs the never-run" in proc.stderr
    # the message begins with the field's path and names the flag that unsets it
    head = re.match(r"invariant violation: (\w+)[.\[ ]", proc.stderr)
    assert head is not None and head[1] == "include_never_run", proc.stderr
    assert "--no-never-run" in proc.stderr and proc.stdout == ""


def test_parser_defaults_are_the_library_constants():
    from timelyck.cli import build_parser
    from timelyck.fixpoint import DEFAULT_ORACLE_GUARD_BITS
    from timelyck.nested import DEFAULT_MAX_PATHS
    from timelyck.optimality import DEFAULT_ENUM_GUARD

    parser = build_parser()
    verify = parser.parse_args(["verify", "s.json", "r.json"])
    oracle = parser.parse_args(["oracle", "s.json"])
    assert verify.guard == oracle.guard == DEFAULT_ENUM_GUARD
    assert oracle.oracle_guard == DEFAULT_ORACLE_GUARD_BITS
    assert oracle.max_paths == DEFAULT_MAX_PATHS


def test_no_never_run_flag(tmp_path):
    out = tmp_path / "u.json"
    proc = run_cli("generate", PKG_DATA["firing_squad_2"], "--no-never-run", "-o", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert "never" not in doc["universe"]["runs"]


def test_no_never_run_without_trigger_times_is_refused_by_the_scenario_check(tmp_path):
    doc = json.loads(open(PKG_DATA["firing_squad_2"]).read())
    doc["trigger_times"] = []
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert run_cli("generate", str(path)).returncode == 0
    proc = run_cli("generate", str(path), "--no-never-run")
    assert proc.returncode == 3
    assert "scenario generates no runs at all" in proc.stderr


def test_async_mode_flag(tmp_path):
    out = tmp_path / "u.json"
    proc = run_cli("generate", PKG_DATA["firing_squad_2"], "--async-mode", "-o", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["universe"]["synchronous"] is False


def _rung_2501(tmp_path):
    """4 agents, trigger times 0..3 and delay window [0, 4]: 4 * 5^4 + 1 runs."""
    agents = ["a", "b", "c", "d"]
    doc = {
        "agents": agents,
        "trigger_times": [0, 1, 2, 3],
        "obs_delay": {a: [0, 4] for a in agents},
        "delta": {f"{i}->{j}": 0 for i in agents for j in agents if i != j},
        "actions": {a: "respond" for a in agents},
    }
    path = tmp_path / "rung.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_cap_flag_admits_the_2501_run_rung(tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli("solve", _rung_2501(tmp_path), "--run-cap", "4096", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 2501
    assert doc["verdict"]["solvable"] is True


def test_default_run_cap_still_refuses_the_2501_run_rung(tmp_path):
    proc = run_cli("solve", _rung_2501(tmp_path))
    assert proc.returncode == 4
    assert "scenario generates 2501 runs, above the cap 2048" in proc.stderr


@pytest.mark.parametrize("verb", ["generate", "gfp", "solve", "verify", "oracle"])
def test_every_scenario_verb_takes_the_run_cap(tmp_path, verb):
    # tight_pair generates 4 runs: three delays of b, and the never-run
    extra = []
    if verb == "verify":
        result = tmp_path / "result.json"
        run_cli("solve", PKG_DATA["tight_pair"], "-o", str(result))
        extra = [str(result)]
    proc = run_cli(verb, PKG_DATA["tight_pair"], *extra, "--run-cap", "3")
    assert proc.returncode == 4
    assert "scenario generates 4 runs, above the cap 3" in proc.stderr
    assert run_cli(verb, PKG_DATA["tight_pair"], *extra, "--run-cap", "4").returncode == 0


@pytest.mark.parametrize("cap", ["0", "-3", "x"])
def test_run_cap_must_be_a_positive_integer(cap):
    proc = run_cli("solve", PKG_DATA["tight_pair"], "--run-cap", cap)
    assert proc.returncode == 2
    assert "--run-cap" in proc.stderr


@pytest.mark.parametrize("extra", [
    {"horizon": 5_000_000_000},
    {"delta": {"a->b": 10**12, "b->a": 0}},
])
def test_points_bound_refuses_a_huge_horizon(tmp_path, extra):
    # 5 runs, far below the run cap, but too many points to allocate
    doc = {
        "agents": ["a", "b"],
        "trigger_times": [0, 1],
        "obs_delay": {"a": [0, 0], "b": [0, 1]},
        "delta": {"a->b": 0, "b->a": 0},
        "actions": {"a": "respond", "b": "respond"},
        **extra,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("solve", str(path))
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "scenario generates 5 runs of" in proc.stderr and "above the bound" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("oracle", PKG_DATA["ordered_2"], "--cases", "-1"),
    ("oracle", PKG_DATA["ordered_2"], "--guard", "0"),
    ("oracle", PKG_DATA["ordered_2"], "--max-paths", "-1"),
    ("verify", PKG_DATA["ordered_2"], "result.json", "--optimal", "--guard", "-5"),
    ("props", "--cases", "-3"),
])
def test_counts_and_guards_must_be_positive_integers(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert f"{argv[-2]}: must be at least 1, got {argv[-1]}" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("props", "--seed", "-1", "--cases", "1"),
    ("oracle", PKG_DATA["ordered_2"], "--seed", "-1", "--cases", "1"),
], ids=["props", "oracle"])
def test_seed_must_be_a_nonnegative_integer(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "--seed: must be at least 0, got -1" in proc.stderr


@pytest.mark.parametrize("backend", ["auto", "0"])
def test_determinism_across_backends(tmp_path, monkeypatch, backend):
    # numpy is the only kernel backend; a leftover TIMELYCK_NUMBA setting
    # from the retired numba switch must leave the output byte-identical.
    def oracle(path):
        proc = run_cli(
            "oracle", PKG_DATA["firing_squad_2"], "--seed", "7", "--cases", "6", "-o", str(path)
        )
        assert proc.returncode == 0, proc.stderr
        return path.read_bytes()

    monkeypatch.setenv("TIMELYCK_NUMBA", backend)
    with_setting = oracle(tmp_path / "a.json")
    monkeypatch.delenv("TIMELYCK_NUMBA")
    assert oracle(tmp_path / "b.json") == with_setting


def test_solve_outputs_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        proc = run_cli("solve", PKG_DATA["car_wash"], "-o", str(path))
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN["sha256"]))
def test_cli_output_matches_golden_hashes(tmp_path, name):
    """The output bytes of each verb on each bundled scenario are pinned.

    The hashes in tests/data/cli_golden.json were recorded from the CLI
    before its hot paths were vectorized (the `oracle` hashes before its
    optimality sweeps were rewritten, the `verify --optimal` ones before the
    runs became arrays); any change to an output byte shows up here, not
    only a change between two runs of the same code.  `verify` verbs are fed
    the scenario's own `solve` output.
    """
    scenario = str(timelyck.bundled_scenario_path(name))
    result = tmp_path / "result.json"
    main(["solve", scenario, "-o", str(result)])
    for verb in GOLDEN["verbs"]:
        out = tmp_path / (verb.replace(" ", "_") + ".json")
        argv = [*verb.split(), scenario] + ([str(result)] if verb.startswith("verify") else [])
        code = main([*argv, "-o", str(out)])
        assert code == GOLDEN["exit"][name][verb], (name, verb)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN["sha256"][name][verb], (name, verb)


class PointDescentRan(Exception):
    pass


def test_gfp_of_the_trigger_history_runs_on_observation_classes(tmp_path, monkeypatch):
    """`gfp` without `--psi` writes its golden bytes with the point descent's
    step made to raise and without interning a point state; `gfp --psi`
    still runs that step."""

    def refuse(*args):
        raise PointDescentRan

    monkeypatch.setattr(fixpoint, "_window_step", refuse)
    _, calls = _spied_instance(monkeypatch, _bundled()[0])
    verbs = [verb for verb in GOLDEN["verbs"] if verb.startswith("gfp")]
    assert len(verbs) == 5
    for name in sorted(GOLDEN["sha256"]):
        scenario = str(timelyck.bundled_scenario_path(name))
        for verb in verbs:
            out = tmp_path / f"{name}-{verb.replace(' ', '_')}.json"
            assert main([*verb.split(), scenario, "-o", str(out)]) == GOLDEN["exit"][name][verb]
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == GOLDEN["sha256"][name][verb], (name, verb)
    assert calls == []

    for name in sorted(GOLDEN["sha256"]):
        psi = tmp_path / f"{name}-psi.json"
        psi.write_text(json.dumps(json.loads((tmp_path / f"{name}-gfp.json").read_text())["psi"]))
        with pytest.raises(PointDescentRan):
            main(["gfp", str(timelyck.bundled_scenario_path(name)), "--psi", str(psi)])
    assert len(calls) == 8  # the point descent interns each universe's states first


RANDOM_VERBS = ("generate", "solve", "gfp --diagnostics", "verify --optimal")


def random_scenario_digests(tmp_path, seed, cases):
    """One sha256 per verb over `cases` scenarios drawn from `seed` by
    `draw_scenario` with 0-3 trigger times: each scenario adds its exit code
    and its output bytes (none when no output was written).  `verify` is fed
    the scenario's own `solve` output."""
    rng = np.random.default_rng(seed)
    digests = {verb: hashlib.sha256() for verb in RANDOM_VERBS}
    for case in range(cases):
        scenario = tmp_path / f"scenario{case}.json"
        scenario.write_text(json.dumps(draw_scenario(rng, min_triggers=0).to_json_dict()))
        for verb in RANDOM_VERBS:
            out = tmp_path / f"{case}-{verb.split()[0]}.json"
            argv = [*verb.split(), str(scenario)]
            if verb.startswith("verify"):
                argv.append(str(tmp_path / f"{case}-solve.json"))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([*argv, "-o", str(out)])
            digests[verb].update(f"{code}\n".encode())
            digests[verb].update(out.read_bytes() if out.exists() else b"")
    return {verb: h.hexdigest() for verb, h in digests.items()}


def test_cli_output_on_random_scenarios_matches_golden_hashes(tmp_path):
    """The output bytes of each verb on seeded random scenarios are pinned;
    tests/data/cli_golden.json records how the hashes were made."""
    pinned = GOLDEN["random_scenarios"]
    got = random_scenario_digests(tmp_path, pinned["seed"], pinned["cases"])
    assert got == pinned["sha256"]
