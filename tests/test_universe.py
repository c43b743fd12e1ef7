import json

import numpy as np
import pytest

import timelyck
from timelyck.errors import InvariantViolation
from timelyck.sampling import random_spec, random_universe
from timelyck.scenarios import ScenarioSpec, generate_system, make_scenario
from timelyck.universe import INF, Universe, check_delta, clamp_delta

import naive_reference as naive


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


def test_time_check_matches_point_by_point_reference():
    rng = np.random.default_rng(8)
    agents = ["a", "b", "c"]
    refused = 0
    for case in range(400):
        n_runs, n_times = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        ids, labels = [], []
        for _ in agents:
            # a few ids per time, sometimes shared with a neighbouring time
            raw = np.arange(n_times) * 2 + rng.integers(0, 2 + (rng.random() < 0.3), (n_runs, n_times))
            used, agent_ids = np.unique(raw, return_inverse=True)
            ids.append(agent_ids.reshape(n_runs, n_times))
            labels.append([f"s{x}" for x in used])
        # reference: the first agent with an id seen at two times, its lowest such id
        expected = None
        for agent, agent_ids in zip(agents, ids):
            seen = {}
            for r in range(n_runs):
                for t in range(n_times):
                    seen.setdefault(int(agent_ids[r, t]), set()).add(t)
            clashes = sorted(sid for sid, ts in seen.items() if len(ts) > 1)
            if clashes:
                ts = seen[clashes[0]]
                expected = f"agent '{agent}' has the same state at times {min(ts)} and {max(ts)}"
                break
        runs = [f"r{r}" for r in range(n_runs)]
        if expected is None:
            Universe.from_state_ids(agents, runs, n_times - 1, ids, labels)
        else:
            refused += 1
            with pytest.raises(InvariantViolation) as err:
                Universe.from_state_ids(agents, runs, n_times - 1, ids, labels)
            assert str(err.value) == f"synchronous universe: {expected}", case
    assert 50 < refused < 350


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


@pytest.mark.parametrize("synchronous", [True, False])
@pytest.mark.parametrize(
    "ids, labels, agent",
    [
        ([[[0, 1]], [[0, 2]]], [["x", "y"], ["x", "y", "z"]], "b"),  # b's id 1 unused
        ([[[0, 1]], [[0, 1]]], [["x"], ["x", "y"]], "a"),  # a's id 1 has no label
        ([[[0, 1]], [[-1, 0]]], [["x", "y"], ["x"]], "b"),
        ([[[0, 10**12]], [[0, 1]]], [["x", "y"], ["x", "y"]], "a"),  # refused, not counted
    ],
)
def test_from_state_ids_names_the_agent_with_bad_ids(ids, labels, agent, synchronous):
    with pytest.raises(InvariantViolation, match=f"state ids of agent '{agent}' must use exactly"):
        Universe.from_state_ids(["a", "b"], ["r0"], 1, np.array(ids), labels,
                                synchronous=synchronous)


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
        assert u.to_json_dict() == ref.to_json_dict()


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


def _two_runs(horizon: int, diverge_at: int | None) -> Universe:
    """One agent, two runs of time-stamped states; run r1 sees "y" instead of
    "x" at time `diverge_at`.  After that time the runs' states are equal but
    their earlier states differ in one id, the one r1 interns after r0's."""
    states = {}
    for run in ("r0", "r1"):
        for t in range(horizon + 1):
            states[("a", run, t)] = (t, "y" if run == "r1" and t == diverge_at else "x")
    return Universe(["a"], ["r0", "r1"], horizon, states)


def test_perfect_recall_matches_point_by_point_reference(toy_forgetful):
    rng = np.random.default_rng(59)
    seen = {"synchronous": 0, "asynchronous": 0, "recall": 0, "forgets": 0, "words": 0}
    for case in range(360):
        kind = ("synchronous", "asynchronous", "recall")[case % 3]
        u = random_universe(rng, n_agents=1 + case % 4 % 3, max_runs=4,
                            max_times=70 if kind == "recall" else 6,
                            recall=kind == "recall", synchronous=kind != "asynchronous")
        got = u.exhibits_perfect_recall()
        assert got == naive.n_perfect_recall(u), case
        seen[kind] += 1
        seen["forgets"] += not got
        seen["words"] += max(u.n_state_classes(a) for a in u.agents) > 64
    assert min(seen.values()) >= 20, seen

    bundled = sorted(timelyck.bundled_scenario_path("car_wash").parent.glob("*.json"))
    assert len(bundled) == 8
    for name in bundled:
        doc = json.loads(name.read_text())
        u = generate_system(ScenarioSpec.from_json_dict(doc)).universe
        assert u.exhibits_perfect_recall() == naive.n_perfect_recall(u), name
    cases = [
        (toy_forgetful, False),
        (_two_runs(69, None), True),  # 70 classes, two words
        (_two_runs(69, 67), False),  # ids 67 and 70, in the second word
        (_two_runs(36, 5), False),  # ids 5 and 37, 32 bits apart in one word
    ]
    for u, want in cases:
        assert u.exhibits_perfect_recall() == naive.n_perfect_recall(u) == want


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
    assert clamp_delta(100, 3) == 4
    assert clamp_delta(-100, 3) == -4
    assert clamp_delta(2, 3) == 2
    assert clamp_delta(INF, 3) == INF
