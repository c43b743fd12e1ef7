"""The run table and the strategy model against a literal per-run construction.

The literal side builds one record per run with an observations dict, and
walks those records for the variables, the constraints, product structure,
the projection of a result and the necessity check, as the engine did before
its runs became `(n_runs, k)` arrays.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from timelyck.errors import InvariantViolation, SizeGuardExceeded
from timelyck.events import Event
from timelyck.fixpoint import EventTuple, TimingSpec
from timelyck.optimality import (
    _assignment,
    build_strategy_model,
    greatest_solution,
    is_product_structured,
    least_solution,
    verify_optimal,
)
from timelyck.scenarios import (
    ProtocolResult,
    RunInfo,
    generate_system,
    make_scenario,
    response_knowledge,
    simultaneous_delta,
    solvability,
    synthesize_optimal,
)
from timelyck.universe import INF


def literal_runs(scenario):
    """(name, trigger time or None, {agent: observation time or None}) per run."""
    agents = scenario.agents
    ranges = [range(scenario.obs_delay[a][0], scenario.obs_delay[a][1] + 1) for a in agents]
    runs = []
    for tau in scenario.trigger_times:
        for delays in product(*ranges):
            name = f"t{tau}" + "".join(f"_{a}{d}" for a, d in zip(agents, delays))
            runs.append((name, tau, {a: tau + d for a, d in zip(agents, delays)}))
    if scenario.include_never_run:
        runs.append(("never", None, {a: None for a in agents}))
    return runs


class LiteralModel:
    """The strategy model, run by run."""

    def __init__(self, instance, runs):
        agents = instance.timing.agents
        fired = [(name, obs) for name, tau, obs in runs if tau is not None]
        self.obs_times = {a: sorted({obs[a] for _, obs in fired}) for a in agents}
        self.variables = [(a, s) for a in agents for s in self.obs_times[a]]
        index = {v: n for n, v in enumerate(self.variables)}
        self.run_vars = {name: {a: index[(a, obs[a])] for a in agents} for name, obs in fired}
        self.lo = [s for _, s in self.variables]
        self.hi = [instance.universe.horizon] * len(self.variables)
        constraints = set()
        self.realized = {}
        for name, obs in fired:
            for i in agents:
                for j in agents:
                    if i != j and instance.timing.delta(i, j) != INF:
                        d = int(instance.timing.delta(i, j))
                        constraints.add((self.run_vars[name][i], self.run_vars[name][j], d))
                        self.realized.setdefault((i, j), set()).add((obs[i], obs[j]))
        self.constraints = sorted(constraints)
        self.bounded = [
            (i, j) for i in agents for j in agents
            if i != j and instance.timing.delta(i, j) != INF
        ]

    def product_structured(self):
        return all(
            self.realized.get((i, j), set())
            == set(product(self.obs_times[i], self.obs_times[j]))
            for i, j in self.bounded
        )

    def assignment(self, result):
        t = [-1] * len(self.variables)
        for name, per in self.run_vars.items():
            for agent, v in per.items():
                rt = result.responses.get(name, {}).get(agent)
                if rt is None:
                    raise InvariantViolation(
                        f"no response for agent {agent!r} in triggered run {name!r}"
                    )
                if t[v] == -1:
                    t[v] = rt
                elif t[v] != rt:
                    raise InvariantViolation(
                        f"agent {agent!r} responds at different times in runs it "
                        f"cannot distinguish"
                    )
        return t

    def necessity_misses(self, instance, xi, least, greatest):
        class_runs = {}
        for name, per in self.run_vars.items():
            for v in per.values():
                class_runs.setdefault(v, []).append(name)
        u = instance.universe
        misses = []
        for v, (agent, _) in enumerate(self.variables):
            for t in range(int(least[v]), int(greatest[v]) + 1):
                for run in class_runs[v]:
                    if not xi[agent].table[u.run_index(run), t]:
                        misses.append({"agent": agent, "run": run, "time": t})
        return misses


def _refusal(fn, *args):
    try:
        return list(fn(*args))
    except InvariantViolation as exc:
        return str(exc)


def _rebuilt_rows(instance):
    """The run table's rows rebuilt from its arrays."""
    return [
        RunInfo(name, None if tau < 0 else tau,
                {a: None if o < 0 else o for a, o in zip(instance.scenario.agents, obs)})
        for name, tau, obs in zip(instance.universe.runs, instance.trigger_time.tolist(),
                                  instance.observed_at.tolist())
    ]


def _draw_scenario(rng):
    k = int(rng.integers(1, 4))
    agents = tuple("abc"[:k])
    delta = {
        (i, j): INF if rng.random() < 0.3 else int(rng.integers(-2, 4))
        for i in agents
        for j in agents
        if i != j
    }
    windows = {}
    for a in agents:
        lo = int(rng.integers(0, 3))
        windows[a] = (lo, lo + int(rng.integers(0, 3)))  # width 0 about a third of the time
    triggers = sorted({int(t) for t in rng.integers(0, 4, size=int(rng.integers(0, 4)))})
    scenario = make_scenario(
        agents,
        TimingSpec(agents, delta),
        obs_delay=windows,
        trigger_times=triggers,
        include_never_run=not triggers or rng.random() < 0.85,
    )
    if rng.random() < 0.2:
        scenario.horizon = scenario.min_horizon() + int(rng.integers(0, 3))
    return scenario


def test_run_table_and_model_match_the_literal_construction():
    rng = np.random.default_rng(41)
    seen = dict.fromkeys(
        ("multi_trigger", "inf_bound", "zero_width", "no_trigger", "no_never_run",
         "product", "not_product", "solvable", "necessity_miss", "missing_refusal",
         "split_refusal"),
        0,
    )
    for case in range(240):
        scenario = _draw_scenario(rng)
        instance = generate_system(scenario)
        runs = literal_runs(scenario)
        seen["multi_trigger"] += len(scenario.trigger_times) > 1
        seen["inf_bound"] += INF in [scenario.timing.delta(*p) for p in scenario.timing.pairs()]
        seen["zero_width"] += any(lo == hi for lo, hi in scenario.obs_delay.values())
        seen["no_trigger"] += not scenario.trigger_times

        # the run table
        assert list(instance.universe.runs) == [name for name, _, _ in runs], case
        assert [(r.name, r.trigger_time, r.observations) for r in instance.runs] == runs
        rebuilt = _rebuilt_rows(instance)
        rows = instance.runs
        assert list(rows) == rebuilt and len(rows) == len(rebuilt), case
        assert rows[-1] == rebuilt[-1] and rows[0] == rebuilt[0]
        assert rows[1:3] == rebuilt[1:3] and rows[::-2] == rebuilt[::-2]
        with pytest.raises(IndexError):
            rows[len(rebuilt)]
        assert instance.trigger_time.tolist() == [
            -1 if tau is None else tau for _, tau, _ in runs
        ]
        assert instance.observed_at.tolist() == [
            [-1 if obs[a] is None else obs[a] for a in scenario.agents] for _, _, obs in runs
        ]
        assert not instance.observed_at.flags.writeable

        if not scenario.include_never_run:
            seen["no_never_run"] += 1
            with pytest.raises(InvariantViolation, match="never-run"):
                build_strategy_model(instance)
            continue

        # the strategy model
        model = build_strategy_model(instance)
        literal = LiteralModel(instance, runs)
        assert model.variables == literal.variables, case
        assert model.lo.tolist() == literal.lo and model.hi.tolist() == literal.hi
        assert model.constraints == literal.constraints, case
        structured = is_product_structured(model)
        assert structured == literal.product_structured(), case
        seen["product" if structured else "not_product"] += 1

        if not solvability(instance):
            continue
        seen["solvable"] += 1
        result = synthesize_optimal(instance)
        assigned = _refusal(_assignment, model, *result.response_times(model.instance))
        assert assigned == literal.assignment(result)

        # both refusals: a missing response, and two responses in one class
        fired = [(name, obs) for name, tau, obs in runs if tau is not None]
        if fired:
            name, _ = fired[int(rng.integers(0, len(fired)))]
            agent = scenario.agents[int(rng.integers(0, len(scenario.agents)))]
            for value in (None, (result.responses[name][agent] + 1) % (instance.universe.n_times)):
                edited = ProtocolResult({r: dict(per) for r, per in result.responses.items()})
                edited.responses[name][agent] = value
                want = _refusal(literal.assignment, edited)
                assigned = _refusal(_assignment, model, *edited.response_times(model.instance))
                assert assigned == want, case
                if isinstance(want, str):
                    seen["split_refusal" if value is not None else "missing_refusal"] += 1

        # the necessity verdict, also against knowledge with points taken out
        xi = response_knowledge(instance)
        least, greatest = least_solution(model), greatest_solution(model)
        thinned = EventTuple(instance.universe, {
            a: Event(instance.universe, xi[a].table & (rng.random(xi[a].table.shape) < 0.9))
            for a in scenario.agents
        })
        for knowledge in (xi, thinned):
            report = verify_optimal(instance, result, knowledge=knowledge, guard=1)
            misses = literal.necessity_misses(instance, knowledge, least, greatest)
            assert report.necessity == (not misses), case
            assert report.to_json_dict()["violations"].get("necessity", []) == misses[:5]
            seen["necessity_miss"] += bool(misses)
    assert all(seen.values()), seen


def test_each_read_of_the_run_table_is_a_fresh_list():
    scenario = make_scenario(("a", "b"), simultaneous_delta(("a", "b")),
                             obs_delay={"a": (0, 1), "b": (0, 2)}, trigger_times=(0, 1))
    instance = generate_system(scenario)
    rebuilt = _rebuilt_rows(instance)
    rows = instance.runs
    assert rows == rebuilt and rows is not instance.runs
    rows.append(rows[0])
    assert instance.runs == rebuilt
    instance.runs[0].observations["a"] = 99
    rows[1].observations["b"] = None
    assert instance.runs == rebuilt


@pytest.mark.parametrize("hi, n_runs", [(20, 194_482), (999, 10**12 + 1)])
def test_run_cap_is_checked_before_any_run_is_built(hi, n_runs):
    agents = ("a", "b", "c", "d")
    scenario = make_scenario(agents, simultaneous_delta(agents), obs_delay=(0, hi))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardExceeded, match=f"generates {n_runs} runs"):
            generate_system(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("horizon, delta", [(5_000_000_000, 0), (None, 10**12), (None, 10**30)])
def test_points_bound_is_checked_before_any_run_is_built(horizon, delta):
    # 5 runs of 2 agents, within the run cap, whose horizon (given, or grown
    # by the largest finite delta) makes runs * times * agents unallocatable
    timing = TimingSpec(("a", "b"), {("a", "b"): delta, ("b", "a"): 0})
    scenario = make_scenario(("a", "b"), timing, obs_delay={"a": (0, 0), "b": (0, 1)},
                             trigger_times=(0, 1), horizon=horizon)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardExceeded, match="generates 5 runs of .* above the bound"):
            generate_system(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_generation_memory_stays_proportional_to_the_points():
    # 5 runs of 2 agents over 2,004 times: few runs and a long horizon, so a
    # per-agent table over every (time, observation) pair would be about
    # 4 * 10^6 entries against 20,040 points
    timing = TimingSpec(("a", "b"), {("a", "b"): 2000, ("b", "a"): 0})
    scenario = make_scenario(("a", "b"), timing, obs_delay={"a": (0, 0), "b": (0, 1)},
                             trigger_times=(0, 1))
    tracemalloc.start()
    try:
        u = generate_system(scenario).universe
        for agent in u.agents:  # the states are interned at their first read
            u.state_ids(agent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = len(u.runs) * u.n_times * len(u.agents)
    assert points == 20_040
    assert peak < 512 * points, peak / points
