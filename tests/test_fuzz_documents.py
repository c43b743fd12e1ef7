"""Malformed documents end in a documented exit code, never in a traceback,
and an invariant violation names the field it refuses.

Each example takes a bundled scenario, its `solve` output and a `--psi` event
(the scenario's trigger), replaces one field of one of the three with a value
from a fixed pool or deletes it, and runs every verb that reads a document on
the result, in-process through `timelyck.cli.main`.  An exit-3 message must
begin with a path: a document's name (`scenario`, `result`, `psi`) or one of
its top-level keys, followed by `.`, `[` or a space.
"""

import copy
import functools
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli import PKG_DATA, run_cli

POOL = (None, True, -1, 2.5, "x", [], {}, 10**30)
DELETE = "<deleted>"
EXITS = {0, 2, 3, 4, 5, 6}


@functools.cache
def _base(name):
    """The scenario's three documents, each built once."""
    scenario = PKG_DATA[name]
    return {
        "scenario": json.loads(Path(scenario).read_text()),
        "result": json.loads(run_cli("solve", scenario).stdout),
        "psi": json.loads(run_cli("generate", scenario).stdout)["trigger"],
    }


def _paths(doc, prefix=()):
    """Every field of a JSON document as a key path, the document itself first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(PKG_DATA)))
    role = draw(st.sampled_from(("scenario", "result", "psi")))
    path = draw(st.sampled_from(list(_paths(_base(name)[role]))))
    value = draw(st.sampled_from(POOL + (DELETE,)))
    return name, role, path, value


def _mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    return {role: folder / f"{role}.json" for role in ("scenario", "result", "psi")}


def _names_a_field(name, stderr):
    """Whether an exit-3 message begins with the path of a field of one of
    the scenario's documents."""
    base = _base(name)
    heads = {"scenario", "result", "psi", *base["scenario"], *base["result"]}
    head = re.match(r"invariant violation: (\w+)[.\[ ]", stderr)
    return head is not None and head[1] in heads


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(mutation=mutations())
# messages that named no field: a delta map missing the pairs of a dropped
# agent, no agent at all, a negative trigger time
@example(mutation=("ordered_2", "scenario", ("agents", 0), DELETE))
@example(mutation=("ordered_2", "scenario", ("agents",), []))
@example(mutation=("ordered_2", "scenario", ("trigger_times", 0), -1))
def test_a_mutated_document_exits_with_a_documented_code(files, mutation):
    name, role, path, value = mutation
    for r, file in files.items():
        doc = _base(name)[r]
        if r == role:
            doc = _mutated(doc, path, value)
        # a deleted document is an empty file
        file.write_text("" if doc == DELETE else json.dumps(doc))
    scenario, result, psi = (str(files[r]) for r in ("scenario", "result", "psi"))
    for argv in (
        ("generate", scenario),
        ("solve", scenario),
        ("gfp", scenario, "--psi", psi, "--run-cap", "300"),
        ("verify", scenario, result, "--optimal"),
        ("report", result),
    ):
        proc = run_cli(*argv)
        assert proc.returncode in EXITS, (argv[0], proc.returncode, proc.stderr)
        if proc.returncode == 3:
            assert _names_a_field(name, proc.stderr), (argv[0], proc.stderr)
