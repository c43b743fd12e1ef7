import json

import numpy as np
import pytest

from timelyck.errors import InvariantViolation
from timelyck.sampling import random_spec
from timelyck.scenarios import generate_system, make_scenario
from timelyck.universe import INF, Universe, check_delta, clamp_delta


def test_basic_geometry(toy):
    assert toy.agents == ("a", "b")
    assert toy.runs == ("r0", "r1")
    assert toy.n_times == 4
    assert toy.n_points == 8


def test_state_lookup(toy):
    assert toy.state_label("a", "r1", 0) == (0, "-")
    assert toy.state_label("a", "r1", 1) == (1, 1)
    assert toy.state_label("b", "r1", 1) == (1, "-")


def test_states_must_be_total():
    with pytest.raises(InvariantViolation):
        Universe(["a"], ["r0"], 2, {("a", "r0", 0): "x", ("a", "r0", 1): "y"})


def test_synchronous_mode_rejects_time_ambiguous_states():
    states = {("a", "r0", 0): "same", ("a", "r0", 1): "same"}
    with pytest.raises(InvariantViolation):
        Universe(["a"], ["r0"], 1, states)
    # the same assignment is fine asynchronously
    u = Universe(["a"], ["r0"], 1, states, synchronous=False)
    assert u.n_state_classes("a") == 1


def test_time_ambiguity_names_agent_and_both_times():
    states = {("a", "r0", t): ("a", t) for t in range(3)}
    states.update({("b", "r0", 0): "x", ("b", "r0", 1): "y", ("b", "r0", 2): "x"})
    with pytest.raises(InvariantViolation, match=r"agent 'b' .* times 0 and 2"):
        Universe(["a", "b"], ["r0"], 2, states)
    ids = [np.array([[0, 1, 2], [0, 1, 2]]), np.array([[0, 1, 2], [1, 3, 4]])]
    labels = [["p", "q", "s"], ["u", "v", "w", "x", "y"]]
    with pytest.raises(InvariantViolation, match=r"agent 'b' .* times 0 and 1"):
        Universe.from_state_ids(["a", "b"], ["r0", "r1"], 2, ids, labels)
    u = Universe.from_state_ids(["a", "b"], ["r0", "r1"], 2, ids, labels, synchronous=False)
    assert u.state_label("b", "r1", 0) == "v"


@pytest.mark.parametrize(
    "ids, labels",
    [
        ([[0, 1]], ["x"]),  # id 1 has no label
        ([[0, 2]], ["x", "y", "z"]),  # id 1 unused
        ([[0, -1]], ["x", "y"]),
        ([[0, 1]], ["x", "x"]),
        ([[0, 1, 2]], ["x", "y", "z"]),  # wrong shape
        ([[0.0, 1.0]], ["x", "y"]),
    ],
)
def test_from_state_ids_validates(ids, labels):
    with pytest.raises(InvariantViolation):
        Universe.from_state_ids(["a"], ["r0"], 1, [np.array(ids)], [labels])


def test_generated_universe_matches_callback_universe():
    rng = np.random.default_rng(4)
    for case in range(60):
        agents = tuple("abc"[: int(rng.integers(2, 4))])
        scenario = make_scenario(
            agents,
            random_spec(rng, agents),
            obs_delay={a: sorted(int(x) for x in rng.integers(0, 4, size=2)) for a in agents},
            trigger_times=sorted({int(x) for x in rng.integers(0, 4, size=2)}),
            include_never_run=bool(rng.random() < 0.7),
        )
        synchronous = bool(rng.random() < 0.8)
        inst = generate_system(scenario, synchronous=synchronous)
        obs = {info.name: info.observations for info in inst.runs}

        def state(agent, run, t):
            seen = obs[run][agent]
            return (t, seen if seen is not None and seen <= t else None)

        u = inst.universe
        ref = Universe(u.agents, u.runs, u.horizon, state, synchronous=synchronous)
        for agent in agents:
            assert np.array_equal(u.state_ids(agent), ref.state_ids(agent)), case
            assert u.n_state_classes(agent) == ref.n_state_classes(agent)
            for run in u.runs:
                for t in range(u.n_times):
                    assert u.state_label(agent, run, t) == ref.state_label(agent, run, t)
        assert u.to_json() == ref.to_json()


def test_unknown_ids_rejected(toy):
    with pytest.raises(InvariantViolation):
        toy.agent_index("z")
    with pytest.raises(InvariantViolation):
        toy.run_index("r9")
    with pytest.raises(InvariantViolation):
        toy.check_time(4)


def test_perfect_recall(toy, toy_forgetful, single_run):
    assert toy.exhibits_perfect_recall()
    assert single_run.exhibits_perfect_recall()
    assert not toy_forgetful.exhibits_perfect_recall()


def test_json_round_trip(toy):
    doc = json.loads(toy.to_json())
    again = Universe.from_json_dict(doc)
    assert again.agents == toy.agents
    assert again.runs == toy.runs
    assert again.horizon == toy.horizon
    # labels are stringified but the indistinguishability structure is kept
    for agent in toy.agents:
        assert (again.state_ids(agent) == toy.state_ids(agent)).all()
    assert toy.to_json() == again.to_json()


def test_delta_validation():
    assert check_delta(3) == 3
    assert check_delta(INF) == INF
    with pytest.raises(InvariantViolation):
        check_delta(1.5)
    with pytest.raises(InvariantViolation):
        check_delta(INF, finite_only=True)
    with pytest.raises(InvariantViolation):
        check_delta(True)


def test_delta_clamping():
    assert clamp_delta(100, 3) == 3
    assert clamp_delta(-100, 3) == -4
    assert clamp_delta(2, 3) == 2
    assert clamp_delta(INF, 3) == INF
