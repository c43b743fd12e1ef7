"""Solving on the run table, each part against its point route: knowledge
decided on observation classes, deferred state interning, locality on the run
table and the array-backed synthesized result."""

import json
import tracemalloc

import numpy as np
import pytest

import timelyck
import timelyck.scenarios as scenarios
from timelyck.errors import (
    InternalConsistencyError,
    InvariantViolation,
    UniverseMismatch,
    Unsolvable,
)
from timelyck.events import Event, is_local, within
from timelyck.fixpoint import EventTuple, TimingSpec, timely_ck_info
from timelyck.optimality import verify_optimal
from timelyck.scenarios import (
    ProtocolResult,
    ScenarioSpec,
    generate_system,
    make_scenario,
    response_knowledge,
    response_knowledge_info,
    simultaneous_delta,
    solvability,
    synthesize_optimal,
    verify_solution,
)
from timelyck.universe import INF, Universe


def draw_scenario(rng, min_triggers=1):
    """A random scenario: 2-4 agents, min_triggers-3 trigger times (with the
    never-run whenever there are none), windows of width 1-3, deltas in
    -3..4 or inf, the never-run in about 80% and an explicit horizon in 30%."""
    k = int(rng.integers(2, 5))
    agents = tuple("abcd"[:k])
    delta = {
        (i, j): INF if rng.random() < 0.15 else int(rng.integers(-3, 5))
        for i in agents
        for j in agents
        if i != j
    }
    windows = {}
    for a in agents:
        lo = int(rng.integers(0, 3))
        windows[a] = (lo, lo + int(rng.integers(0, 3)))  # width 1 to 3
    triggers = rng.choice(5, size=int(rng.integers(min_triggers, 4)), replace=False)
    scenario = make_scenario(
        agents,
        TimingSpec(agents, delta),
        obs_delay=windows,
        trigger_times=triggers.tolist(),
        include_never_run=rng.random() < 0.8 or not triggers.size,
    )
    if rng.random() < 0.3:
        scenario.horizon = scenario.min_horizon() + int(rng.integers(0, 3))
    return scenario


def _bundled():
    paths = sorted(timelyck.bundled_scenario_path("car_wash").parent.glob("*.json"))
    assert len(paths) == 8
    return [ScenarioSpec.from_json_dict(json.loads(p.read_text())) for p in paths]


def test_class_knowledge_matches_the_point_descent():
    rng = np.random.default_rng(71)
    seen = dict.fromkeys(
        ("multi_trigger", "no_never_run", "inf_bound", "horizon", "solvable",
         "unsolvable", "known_unobserved", "empty", "short_agent", "disjoint_windows",
         "no_trigger"),
        0,
    )
    scenarios_ = [draw_scenario(rng, min_triggers=0) for _ in range(320)] + _bundled()
    for case, scenario in enumerate(scenarios_):
        for synchronous in (False, True):  # the counters read the synchronous instance
            instance = generate_system(scenario, synchronous=synchronous)
            info = response_knowledge_info(instance)
            want = timely_ck_info(instance.trigger_history(), instance.timing)
            got = info.value
            assert got.agents == want.value.agents and got.universe is instance.universe
            assert np.array_equal(got.table, want.value.table), (case, scenario.to_json_dict())
            assert (info.iterations, info.trace) == (want.iterations, want.trace), case
            assert response_knowledge(instance) == got

        pending = instance.observed_at.T[:, :, None] > np.arange(instance.universe.n_times)
        seen["multi_trigger"] += len(scenario.trigger_times) > 1
        seen["no_trigger"] += not scenario.trigger_times
        seen["no_never_run"] += not scenario.include_never_run
        seen["inf_bound"] += INF in [scenario.timing.delta(*p) for p in scenario.timing.pairs()]
        seen["horizon"] += scenario.horizon is not None
        seen["solvable" if solvability(instance, knowledge=got) else "unsolvable"] += 1
        seen["known_unobserved"] += bool((got.table & pending).any())
        seen["empty"] += not got.table.any()
        # the class mask where fixed-width tables would pad: an agent with
        # fewer observation columns than the widest, and an agent whose
        # windows of two trigger times do not overlap
        columns = [np.unique(col[col >= 0]).size for col in instance.observed_at.T]
        seen["short_agent"] += min(columns) < max(columns)
        spread = np.ptp(scenario.trigger_times or [0])
        seen["disjoint_windows"] += any(spread > hi - lo for lo, hi in scenario.obs_delay.values())
    assert all(n >= 10 for n in seen.values()), seen
    assert seen["short_agent"] >= 20 and seen["disjoint_windows"] >= 20, seen
    assert seen["no_trigger"] >= 20, seen


def test_class_knowledge_memory_stays_proportional_to_the_points():
    # 5 runs of 2 agents over 2,004 times: a class table over every (time,
    # observation time) pair would be (H + 1)^2 = 4 * 10^6 entries per agent,
    # about 200 bytes a point, where the observation classes need 4 columns
    timing = TimingSpec(("a", "b"), {("a", "b"): 2000, ("b", "a"): 0})
    scenario = make_scenario(("a", "b"), timing, obs_delay={"a": (0, 0), "b": (0, 1)},
                             trigger_times=(0, 1))
    instance = generate_system(scenario)
    tracemalloc.start()
    try:
        xi = response_knowledge(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    u = instance.universe
    points = u.n_points * len(u.agents)
    assert (u.horizon, points) == (2003, 20_040)
    assert xi.table.any()
    assert peak < 32 * points, peak / points


def _spied_instance(monkeypatch, scenario):
    calls = []
    real = scenarios._intern_states

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scenarios, "_intern_states", spy)
    return generate_system(scenario), calls


def _eager_universe(instance):
    """The generated states through the general constructor's interning."""
    u, agents = instance.universe, instance.scenario.agents
    obs = {(a, run): int(o) for run, row in zip(u.runs, instance.observed_at) for a, o in zip(agents, row)}

    def state(agent, run, t):
        o = obs[agent, run]
        return (t, o if 0 <= o <= t else None)

    return Universe(agents, u.runs, u.horizon, state)


def test_solving_leaves_the_generated_states_unbuilt(monkeypatch):
    rng = np.random.default_rng(73)
    built = 0
    for case in range(60):
        scenario = draw_scenario(rng)
        instance, calls = _spied_instance(monkeypatch, scenario)
        xi = response_knowledge(instance)
        if solvability(instance, knowledge=xi):
            result = synthesize_optimal(instance, knowledge=xi)
            report = verify_solution(instance, result)
            assert report.ok(), case
            if scenario.include_never_run:
                assert verify_optimal(instance, result).ok(), case
        assert calls == [], case

        u, eager = instance.universe, _eager_universe(instance)
        for agent in u.agents:
            assert np.array_equal(u.state_ids(agent), eager.state_ids(agent)), case
            assert u.n_state_classes(agent) == eager.n_state_classes(agent)
        assert u.to_json_dict() == eager.to_json_dict()
        assert len(calls) == 1  # interned once, at the first read
        built += 1
    assert built == 60


def test_solving_leaves_the_generated_states_unbuilt_without_the_never_run(monkeypatch):
    scenario = make_scenario(("a", "b"), TimingSpec(("a", "b"), {("a", "b"): 1, ("b", "a"): 1}),
                             obs_delay=(0, 1), trigger_times=(0, 2), include_never_run=False)
    instance, calls = _spied_instance(monkeypatch, scenario)
    result = synthesize_optimal(instance)
    assert verify_solution(instance, result).ok()
    with pytest.raises(InvariantViolation, match="never-run"):
        verify_optimal(instance, result)
    assert calls == []


@pytest.mark.parametrize("read", ["state_ids", "n_state_classes", "to_json_dict"])
def test_deferred_bad_ids_name_the_agent_at_the_first_read(read):
    ids = np.array([[[0, 1]], [[0, 2]]])  # b's id 1 is unused
    labels = [["x", "y"], ["x", "y", "z"]]
    u = Universe.from_interning(["a", "b"], ["r0"], 1, lambda: (ids, labels))
    for _ in range(2):  # a refused build is tried again, and refused again
        with pytest.raises(InvariantViolation, match="state ids of agent 'b' must use exactly"):
            getattr(u, read)(*(("a",) if read != "to_json_dict" else ()))


def _walked(result):
    """A plain copy of a result, read by walking its mapping."""
    return ProtocolResult({run: dict(per) for run, per in result.responses.items()})


def test_synthesized_result_is_read_only_and_matches_its_walk():
    for scenario in _bundled():
        instance = generate_system(scenario)
        if not solvability(instance):
            continue
        result = synthesize_optimal(instance)
        times, problems = result.response_times(instance)
        walked, walk_problems = _walked(result).response_times(instance)
        assert problems == walk_problems == []
        assert np.array_equal(times, walked)
        assert not times.flags.writeable
        assert result.responses == _walked(result).responses
        assert result.to_json_dict() == _walked(result).to_json_dict()
        run = instance.universe.runs[0]
        agent = instance.timing.agents[0]
        with pytest.raises(TypeError):
            result.responses[run][agent] = 0
        with pytest.raises(TypeError):
            result.responses[run] = {}
        with pytest.raises(TypeError):
            del result.responses[run]
        # the Mapping protocol: an unknown run is a KeyError, so .get and in work
        assert result.responses.get("ghost") is None and "ghost" not in result.responses
        assert run in result.responses
        assert len(result.responses) == instance.universe.n_runs
        assert list(result.responses) == list(instance.universe.runs)


def test_synthesized_result_keeps_no_per_run_object():
    # shaped like the benchmark's simultaneous-4x1876: the result's array is
    # 1,876 x 4 int64 (60 KB); one dict and one proxy per run would add ~0.5 MB
    agents = ("a", "b", "c", "d")
    scenario = make_scenario(agents, simultaneous_delta(agents), obs_delay=(0, 4),
                             trigger_times=(0, 1, 2))
    instance = generate_system(scenario)
    xi = response_knowledge(instance)
    assert instance.universe.n_runs == 1876
    tracemalloc.start()
    try:
        result = synthesize_optimal(instance, knowledge=xi)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.response_times(instance)[0].nbytes == 1876 * 4 * 8
    assert kept < 100_000, kept


def test_synthesized_result_on_another_instance_walks_its_mapping():
    timing = TimingSpec(("a", "b"), {("a", "b"): 0, ("b", "a"): 0})
    instance = generate_system(make_scenario(("a", "b"), timing, obs_delay=(0, 1)))
    result = synthesize_optimal(instance)
    twin = generate_system(instance.scenario)  # the same runs, another instance
    times, problems = result.response_times(twin)
    assert problems == []
    assert np.array_equal(times, result.response_times(instance)[0])
    assert times is not result.response_times(instance)[0]

    # one more trigger time: the runs of the first instance are all known
    other = generate_system(make_scenario(("a", "b"), timing, obs_delay=(0, 1),
                                          trigger_times=(0, 1)))
    got = result.response_times(other)
    want = _walked(result).response_times(other)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1] == []
    assert verify_solution(other, result).to_json_dict() == verify_solution(
        other, _walked(result)).to_json_dict()

    # fewer agents: the unknown agent is a problem, as the walk reports it
    solo = generate_system(make_scenario(("a",), TimingSpec(("a",), {}), obs_delay=(0, 1)))
    got = result.response_times(solo)
    want = _walked(result).response_times(solo)
    assert got[1] == want[1] and {"problem": "unknown run", "run": "t0_a0_b0"} in got[1]


def test_parsed_result_keeps_the_walk_and_its_problems():
    timing = TimingSpec(("a", "b"), {("a", "b"): 0, ("b", "a"): 0})
    instance = generate_system(make_scenario(("a", "b"), timing, obs_delay=(0, 1)))
    result = synthesize_optimal(instance)
    doc = result.to_json_dict()
    parsed = ProtocolResult.from_json_dict(doc)
    assert np.array_equal(parsed.response_times(instance)[0], result.response_times(instance)[0])
    parsed.responses["t0_a0_b0"]["a"] = True
    parsed.responses["ghost"] = {"a": 0}
    times, problems = parsed.response_times(instance)
    assert problems == [
        {"run": "t0_a0_b0", "agent": "a", "time": True, "problem": "not an integer"},
        {"run": "ghost", "problem": "unknown run"},
    ]
    assert times[instance.universe.run_index("t0_a0_b0"), 0] == -1


def test_run_table_locality_matches_is_local():
    # responses drawn anywhere, before the observation and in the never-run
    # too, decided on the run table and by `is_local` on the points
    rng = np.random.default_rng(79)
    seen = dict(local=0, nonlocal_=0, early=0)
    for case in range(150):
        instance = generate_system(draw_scenario(rng))
        u, agents = instance.universe, instance.timing.agents
        times = np.where(rng.random((u.n_runs, len(agents))) < 0.3, -1,
                         rng.integers(0, u.n_times, size=(u.n_runs, len(agents))))
        if rng.random() < 0.5:  # responses shared by each observation class
            seen_at = np.where(instance.observed_at >= 0, instance.observed_at, u.n_times)
            for a in range(len(agents)):
                _, first = np.unique(seen_at[:, a], return_inverse=True)
                pick = rng.integers(-1, u.n_times, size=first.max() + 1)
                times[:, a] = np.maximum(pick[first], np.minimum(seen_at[:, a], u.horizon))
                times[pick[first] < 0, a] = -1
        report = scenarios.check_response_times(instance, times, [])
        clock = np.arange(u.n_times)
        want = [{"agent": a} for a, col in zip(agents, times.T)
                if not is_local(a, Event(u, col[:, None] == clock))]
        assert report.counterexamples["locally_determined"] == want, case
        assert report.checks["locally_determined"] == (not want)
        seen["nonlocal_" if want else "local"] += 1
        seen["early"] += bool(((times >= 0) & (times < np.where(
            instance.observed_at >= 0, instance.observed_at, u.n_times))).any())
    assert all(n >= 20 for n in seen.values()), seen


def _pair_instance(window=(0, 1)):
    timing = TimingSpec(("a", "b"), {("a", "b"): 0, ("b", "a"): 0})
    return generate_system(make_scenario(("a", "b"), timing, obs_delay=window))


def test_knowledge_from_another_universe_is_refused():
    instance = _pair_instance()
    result = synthesize_optimal(instance)
    # the same scenario generated again, and a wider window: other universes
    for other in (_pair_instance(), _pair_instance((0, 2))):
        xi = response_knowledge(other)
        with pytest.raises(UniverseMismatch):
            solvability(instance, knowledge=xi)
        with pytest.raises(UniverseMismatch):
            synthesize_optimal(instance, knowledge=xi)
        with pytest.raises(UniverseMismatch):
            verify_optimal(instance, result, knowledge=xi)


def test_reach_table_consistency_checks_refuse_crafted_knowledge():
    instance = _pair_instance()
    u, agents = instance.universe, instance.timing.agents
    xi = response_knowledge(instance)
    assert solvability(instance, knowledge=xi)

    # a reaches its coordinate in every triggered run, b in none
    split = xi.table.copy()
    split[1] = False
    split = EventTuple.of(u, agents, split)
    with pytest.raises(InternalConsistencyError, match="differs between agents"):
        solvability(instance, knowledge=split)
    with pytest.raises(InternalConsistencyError, match="differs between agents"):
        synthesize_optimal(instance, knowledge=split)

    # a coordinate that also holds in the never-run
    stray = xi.table.copy()
    stray[0, u.run_index("never"), -1] = True
    stray = EventTuple.of(u, agents, stray)
    assert solvability(instance, knowledge=stray)
    with pytest.raises(InternalConsistencyError, match="holds in a run without a trigger"):
        synthesize_optimal(instance, knowledge=stray)

    # coordinates no agent ever reaches
    nowhere = EventTuple.of(u, agents, np.zeros(xi.table.shape, dtype=bool))
    assert not solvability(instance, knowledge=nowhere)
    with pytest.raises(Unsolvable):
        synthesize_optimal(instance, knowledge=nowhere)


def test_solving_builds_no_point_event(monkeypatch):
    built = []
    real = Event.__init__

    def spy(self, universe, table):
        built.append(table.shape)
        real(self, universe, table)

    monkeypatch.setattr(Event, "__init__", spy)
    rng = np.random.default_rng(83)
    solved = 0
    for case in range(80):
        instance = generate_system(draw_scenario(rng))
        xi = response_knowledge(instance)
        if solvability(instance, knowledge=xi):
            assert verify_solution(instance, synthesize_optimal(instance, knowledge=xi)).ok()
            solved += 1
        assert built == [], case

        u = instance.universe
        trigger = instance.trigger
        assert np.array_equal(trigger.table, np.arange(u.n_times) == instance.trigger_time[:, None])
        assert instance.trigger_history() == within(trigger, 0)
        built.clear()
    assert solved >= 20
