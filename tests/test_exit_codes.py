"""Every engine error leaves `timelyck.cli.main` with the exit code the
README's table gives it and its stderr label, from one clause."""

import re
from pathlib import Path

import pytest

from timelyck import cli
from timelyck.errors import (
    EngineError,
    InternalConsistencyError,
    InvariantViolation,
    SizeGuardExceeded,
    UniverseMismatch,
    Unsolvable,
    UnreadableInput,
)

from test_cli import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"

# error class -> (its meaning in the README's exit-code table, its stderr label)
EXPECTED = {
    EngineError: ("internal inconsistency", "internal inconsistency"),
    UnreadableInput: ("unreadable input", "error"),
    InvariantViolation: ("invariant violation", "invariant violation"),
    UniverseMismatch: ("invariant violation", "invariant violation"),
    SizeGuardExceeded: ("size guard exceeded", "size guard"),
    Unsolvable: ("unsolvable", "unsolvable"),
    InternalConsistencyError: ("internal inconsistency", "internal inconsistency"),
}


def _readme_exit_codes() -> dict:
    """The README's "Exit codes:" sentence as meaning -> code."""
    text = " ".join(README.read_text().split())
    sentence = text[text.index("Exit codes:") :].split(".")[0]
    return {meaning: int(code) for code, meaning in re.findall(r"`(\d)` ([a-z ]+)", sentence)}


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def test_every_engine_error_has_a_row():
    assert set(_subclasses(EngineError)) == set(EXPECTED)


@pytest.mark.parametrize("error", list(EXPECTED), ids=lambda cls: cls.__name__)
def test_an_engine_error_exits_with_its_readme_code_and_label(monkeypatch, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_report", fail)
    proc = run_cli("report", "result.json")
    meaning, label = EXPECTED[error]
    assert proc.returncode == _readme_exit_codes()[meaning]
    assert proc.stderr == f"{label}: boom\n"
