"""CLI verbs, exit codes and output determinism, via subprocess."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import timelyck

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


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("TIMELYCK_NUMBA", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "timelyck.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


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


def test_props_verb():
    proc = run_cli("props", "--seed", "1", "--cases", "20")
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert "knowledge_axioms" in proc.stdout


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("solve", str(bad))
    assert proc.returncode == 2


def test_invariant_violation_exit_code(tmp_path):
    doc = json.loads(open(PKG_DATA["ordered_2"]).read())
    doc["obs_delay"]["first"] = [2, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("solve", str(bad))
    assert proc.returncode == 3


def _solve_edited(tmp_path, edit):
    doc = json.loads(open(PKG_DATA["ordered_2"]).read())
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


def test_string_trigger_time_exits_3_naming_the_field(tmp_path):
    proc = _solve_edited(tmp_path, lambda doc: doc.update(trigger_times=["0"]))
    assert proc.returncode == 3, proc.stderr
    assert "trigger_times[0]" in proc.stderr


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


def test_no_never_run_flag(tmp_path):
    out = tmp_path / "u.json"
    proc = run_cli("generate", PKG_DATA["firing_squad_2"], "--no-never-run", "-o", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert "never" not in doc["universe"]["runs"]


def test_async_mode_flag(tmp_path):
    out = tmp_path / "u.json"
    proc = run_cli("generate", PKG_DATA["firing_squad_2"], "--async-mode", "-o", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["universe"]["synchronous"] is False


@pytest.mark.parametrize("backend", ["auto", "0"])
def test_determinism_across_backends(tmp_path, backend):
    # numpy is the only kernel backend; a leftover TIMELYCK_NUMBA setting
    # from the retired numba switch must leave the output byte-identical.
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path, env in ((a, {"TIMELYCK_NUMBA": backend}), (b, None)):
        proc = run_cli(
            "oracle", PKG_DATA["firing_squad_2"], "--seed", "7", "--cases", "6",
            "-o", str(path), env_extra=env,
        )
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_solve_outputs_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        proc = run_cli("solve", PKG_DATA["car_wash"], "-o", str(path))
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text()
)


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
    from timelyck.cli import main

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
