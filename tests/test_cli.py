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
    env = {"TIMELYCK_NUMBA": backend}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
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
    before its hot paths were vectorized; any change to an output byte
    shows up here, not only a change between two runs of the same code.
    """
    from timelyck.cli import main

    scenario = str(timelyck.bundled_scenario_path(name))
    for verb in GOLDEN["verbs"]:
        out = tmp_path / (verb.replace(" ", "_") + ".json")
        code = main([*verb.split(), scenario, "-o", str(out)])
        assert code == GOLDEN["exit"][name][verb], (name, verb)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN["sha256"][name][verb], (name, verb)
