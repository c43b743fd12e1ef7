"""Every randomized property group must pass at its default volume."""

import hashlib

import pytest

from timelyck import props
from timelyck.cli import main
from timelyck.errors import InternalConsistencyError
from timelyck.props import GROUPS, run_all


@pytest.mark.parametrize("name", [g[0] for g in GROUPS])
def test_property_group(name):
    import numpy as np

    idx = [g[0] for g in GROUPS].index(name)
    fn, scale = GROUPS[idx][1], GROUPS[idx][2]
    result = fn(np.random.default_rng([0, idx]), max(1, int(80 * scale)))
    assert result.ok(), result.to_json_dict()


def test_run_all_is_reproducible():
    a = [r.to_json_dict() for r in run_all(5, cases=25)]
    b = [r.to_json_dict() for r in run_all(5, cases=25)]
    assert a == b


def test_a_raising_group_fails_alone(monkeypatch, tmp_path):
    def disagree(rng, cases):
        raise InternalConsistencyError("two routes disagree")

    name = GROUPS[1][0]
    monkeypatch.setattr(
        props, "GROUPS", [(n, disagree if n == name else fn, s) for n, fn, s in GROUPS]
    )
    results = run_all(1, cases=5)
    assert [r.name for r in results] == [g[0] for g in GROUPS]
    assert [r.name for r in results if not r.ok()] == [name]
    assert results[1].error == "internal inconsistency: two routes disagree"

    out = tmp_path / "props.txt"
    assert main(["props", "--seed", "1", "--cases", "5", "-o", str(out)]) == 7
    lines = out.read_text().splitlines()
    assert sum(line.startswith("PASS") for line in lines) == len(GROUPS) - 1
    assert f"FAIL  {name}  cases=5" in lines
    assert "      internal inconsistency: two routes disagree" in lines


def test_props_output_bytes_are_pinned(tmp_path):
    # recorded before the oracle layer's sampling, packed tables and ensemble
    # enumeration became whole-array code: same draws, same verdicts, same bytes
    out = tmp_path / "props.txt"
    assert main(["props", "--seed", "3", "--cases", "40", "-o", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "573e2cb24c47da27b5e884c4e4ea24732c58c47b0572dd44f31ce38e4a8d862c"


def test_props_json_digest_is_pinned(tmp_path):
    out = tmp_path / "props.json"
    assert main(["props", "--seed", "11", "--cases", "80", "--format", "json", "-o", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "7c75ea6bda3b5832b25326631a4bdbda805171c8d8dd0d3f109f8f03be53a7cc"
