"""The strategy-space sweeps behind optimality and necessity verification."""

import json
import tracemalloc
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import timelyck
from timelyck import optimality
from timelyck.errors import InvariantViolation, SizeGuardExceeded, UniverseMismatch
from timelyck.events import EventTuple
from timelyck.fixpoint import TimingSpec
from timelyck.optimality import (
    box_space,
    box_sweep,
    build_strategy_model,
    enumerate_all_solutions,
    greatest_solution,
    is_product_structured,
    StrategyModel,
    least_solution,
    result_assignment,
    verify_optimal,
)
from timelyck.scenarios import (
    ProtocolResult,
    ScenarioSpec,
    generate_system,
    make_scenario,
    ordered_delta,
    response_knowledge,
    simultaneous_delta,
    solvability,
    synthesize_optimal,
)
from timelyck.universe import INF


def editable(result):
    """A mutable copy of a result: a synthesized one's responses are read-only."""
    return ProtocolResult({run: dict(per) for run, per in result.responses.items()})


def carwash_instance():
    timing = TimingSpec(
        ("L", "R", "D"),
        {
            ("L", "R"): 3,
            ("L", "D"): 9,
            ("R", "L"): 7,
            ("R", "D"): 11,
            ("D", "L"): -4,
            ("D", "R"): -6,
        },
    )
    return generate_system(
        make_scenario(("L", "R", "D"), timing, obs_delay=(0, 2))
    )


def test_model_shape():
    inst = generate_system(
        make_scenario(("a", "b"), ordered_delta(("a", "b")), obs_delay=(0, 1))
    )
    model = build_strategy_model(inst)
    assert model.variables == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
    assert list(model.lo) == [0, 1, 0, 1]
    assert list(model.hi) == [2, 2, 2, 2]
    # only the bounded pair (b, a) contributes constraints
    assert all(c == 0 for _, _, c in model.constraints)
    assert len(model.constraints) == 4


def test_model_requires_never_run():
    inst = generate_system(
        make_scenario(
            ("a", "b"),
            ordered_delta(("a", "b")),
            obs_delay=(0, 1),
            include_never_run=False,
        )
    )
    with pytest.raises(InvariantViolation):
        build_strategy_model(inst)


def test_carwash_bounds_pinned():
    # frozen output of the difference-bound sweep: washers may act anywhere in
    # [obs, 10] and [obs, 8]; the dryer anywhere in [8, 14]
    model = build_strategy_model(carwash_instance())
    assert model.variables == [
        ("L", 0), ("L", 1), ("L", 2),
        ("R", 0), ("R", 1), ("R", 2),
        ("D", 0), ("D", 1), ("D", 2),
    ]
    assert list(least_solution(model)) == [0, 1, 2, 0, 1, 2, 8, 8, 8]
    assert list(greatest_solution(model)) == [10, 10, 10, 8, 8, 8, 14, 14, 14]
    assert model.raw_space() > 10**9  # raw enumeration is hopeless here
    assert is_product_structured(model)


def test_carwash_box_sweep_matches_propagation():
    model = build_strategy_model(carwash_instance())
    feasible, mins, attained = box_sweep(model)
    assert feasible
    least = least_solution(model)
    greatest = greatest_solution(model)
    assert np.array_equal(mins, least)
    for v in range(model.n_vars):
        expected = np.zeros(model.instance.universe.horizon + 1, dtype=bool)
        expected[least[v] : greatest[v] + 1] = True
        assert np.array_equal(attained[v], expected)


def literal_box_sweep(model):
    """box_sweep's definition, one box combination at a time."""
    agents = model.instance.timing.agents
    horizon = model.instance.universe.horizon
    obs = {a: [(v, s) for v, (b, s) in enumerate(model.variables) if b == a] for a in agents}
    boxes = [
        [(m, M) for m in range(horizon + 1)
         for M in range(max(m, max(s for _, s in obs[a])), horizon + 1)]
        for a in agents
    ]
    bounded = [
        (ai, aj, model.instance.timing.delta(i, j))
        for ai, i in enumerate(agents)
        for aj, j in enumerate(agents)
        if ai != aj and model.instance.timing.delta(i, j) != INF
    ]
    mins = np.full(model.n_vars, np.iinfo(np.int64).max, dtype=np.int64)
    attained = np.zeros((model.n_vars, horizon + 1), dtype=bool)
    feasible = False
    for combo in product(*boxes):
        if all(combo[aj][1] <= combo[ai][0] + d for ai, aj, d in bounded):
            feasible = True
            for a, (m, M) in zip(agents, combo):
                for v, s in obs[a]:
                    mins[v] = min(mins[v], max(s, m))
                    attained[v, max(s, m) : M + 1] = True
    return (True, mins, attained) if feasible else (False, None, None)


def assert_same_sweep(got, want):
    assert got[0] == want[0]
    if want[0]:
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    else:
        assert got == (False, None, None)


def seeded_box_models():
    """48 seeded product-structured models of 1 to 5 agents, each of at most
    50,000 box combinations."""
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 48:
        # from 1 to 5 agents, so both halves of the tensor's final reduction
        # are empty, single and multiple; 5 agents at horizon 2 and window
        # (0, 0) have 6^5 = 7,776 box combinations
        k = int(rng.integers(1, 6))
        agents = tuple("abcde"[:k])
        delta = {
            (i, j): (INF if rng.random() < 0.25 else int(rng.integers(-2, 5)))
            for i in agents
            for j in agents
            if i != j
        }
        inst = generate_system(
            make_scenario(
                agents,
                TimingSpec(agents, delta),
                obs_delay=(0, 0 if k == 5 else int(rng.integers(0, 2))),
                horizon={4: int(rng.integers(2, 4)), 5: 2}.get(k),
            )
        )
        model = build_strategy_model(inst)
        assert is_product_structured(model)
        if box_space(model) > 50_000:
            continue
        yield model
        checked += 1


def strictly_before_each_other_model():
    """A pair that must each respond strictly before the other: infeasible."""
    agents = ("a", "b")
    inst = generate_system(
        make_scenario(agents, TimingSpec(agents, {("a", "b"): -1, ("b", "a"): -1}))
    )
    return build_strategy_model(inst)


def test_box_sweep_matches_literal_combination_loop():
    infeasible = 0
    feasible_agent_counts = set()
    for model in seeded_box_models():
        want = literal_box_sweep(model)
        assert_same_sweep(box_sweep(model), want)
        if want[0]:
            feasible_agent_counts.add(len(model.instance.timing.agents))
        else:
            infeasible += 1
    assert infeasible and feasible_agent_counts == {1, 2, 3, 4, 5}

    model = strictly_before_each_other_model()
    assert box_sweep(model) == literal_box_sweep(model) == (False, None, None)


@pytest.mark.parametrize("block", [1, 3, 17])
def test_box_sweep_is_the_same_at_every_block_size(monkeypatch, block):
    # blocks of agent 0's boxes smaller than one row, ending inside the axis
    # and spanning several rows
    monkeypatch.setattr(optimality, "_BOX_BLOCK", block)
    alone = build_strategy_model(
        generate_system(make_scenario(("a",), TimingSpec(("a",), {}), obs_delay=(0, 2)))
    )
    # a universe's horizon is at least 1, which gives every agent at least two
    # boxes; a stand-in instance at horizon 0 gives agent 0 (and every other)
    # the single box (0, 0)
    agents = ("a", "b", "c")
    timing = TimingSpec(agents, {(i, j): 0 for i in agents for j in agents if i != j})
    model = build_strategy_model(generate_system(make_scenario(agents, timing, obs_delay=(0, 0))))
    single_box = replace(
        model, instance=SimpleNamespace(timing=timing, universe=SimpleNamespace(horizon=0))
    )
    assert box_space(single_box) == 1
    models = [*seeded_box_models(), strictly_before_each_other_model(), alone, single_box]
    for model in models:
        assert_same_sweep(box_sweep(model), literal_box_sweep(model))


def test_box_sweep_memory_is_about_one_byte_per_combination():
    agents = ("a", "b", "c", "d")
    timing = TimingSpec(agents, {(i, j): 1 for i in agents for j in agents if i != j})
    inst = generate_system(make_scenario(agents, timing, obs_delay=(0, 1), horizon=8))
    model = build_strategy_model(inst)
    combinations = box_space(model)
    assert combinations > 3 * 10**6
    tracemalloc.start()
    try:
        feasible, _, _ = box_sweep(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feasible
    assert peak < 2 * combinations


@pytest.mark.parametrize("horizon, combinations", [(8, 3_748_096), (10, 17_850_625)])
def test_box_sweep_memory_does_not_grow_with_the_box_space(horizon, combinations):
    # the sweep holds one block of agent 0's boxes at a time, not one byte
    # per combination
    agents = ("a", "b", "c", "d")
    timing = TimingSpec(agents, {(i, j): 1 for i in agents for j in agents if i != j})
    inst = generate_system(make_scenario(agents, timing, obs_delay=(0, 1), horizon=horizon))
    model = build_strategy_model(inst)
    assert box_space(model) == combinations
    tracemalloc.start()
    try:
        feasible, _, _ = box_sweep(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feasible
    assert peak < 10**6


def test_enumeration_matches_propagation_small():
    inst = generate_system(
        make_scenario(("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 1))
    )
    model = build_strategy_model(inst)
    count, mins, attained = enumerate_all_solutions(model)
    assert count == 2
    assert np.array_equal(mins, least_solution(model))


def test_enumeration_guard():
    model = build_strategy_model(carwash_instance())
    with pytest.raises(SizeGuardExceeded):
        enumerate_all_solutions(model, guard=10**6)


def test_verify_optimal_accepts_synthesized():
    for inst in (
        carwash_instance(),
        generate_system(
            make_scenario(("a", "b"), ordered_delta(("a", "b")), obs_delay=(0, 1))
        ),
    ):
        res = synthesize_optimal(inst)
        rep = verify_optimal(inst, res)
        assert rep.ok(), rep.to_json_dict()
        assert rep.necessity


def test_verify_optimal_rejects_delayed_solution():
    # push every response one step later: still a solution, no longer optimal
    inst = generate_system(
        make_scenario(("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 1))
    )
    res = synthesize_optimal(inst)
    delayed = {
        run: {a: (None if t is None else t + 1) for a, t in per.items()}
        for run, per in res.responses.items()
    }
    from timelyck.scenarios import ProtocolResult, verify_solution

    late = ProtocolResult(delayed)
    assert verify_solution(inst, late).ok()
    rep = verify_optimal(inst, late)
    assert not rep.optimal
    assert rep.violations["optimal"]
    assert rep.necessity  # still inside the knowledge coordinates


def test_verify_optimal_rejects_non_solution():
    inst = carwash_instance()
    res = editable(synthesize_optimal(inst))
    res.responses["t0_L0_R0_D0"]["D"] = None
    with pytest.raises(InvariantViolation):
        verify_optimal(inst, res)


def test_verify_optimal_reuses_the_callers_report(monkeypatch):
    # verify_optimal checks a result through check_response_times, the
    # function verify_solution calls, so patching it catches a second check
    import timelyck.optimality as optimality
    from timelyck.scenarios import verify_solution

    inst = carwash_instance()
    res = synthesize_optimal(inst)
    report = verify_solution(inst, res)
    expected = verify_optimal(inst, res).to_json_dict()

    def unexpected(*args, **kwargs):
        raise AssertionError("the solution was checked again")

    monkeypatch.setattr(optimality, "check_response_times", unexpected)
    assert verify_optimal(inst, res, report=report).to_json_dict() == expected

    bad = editable(synthesize_optimal(inst))
    bad.responses["t0_L0_R0_D0"]["D"] = None
    monkeypatch.undo()
    failing = verify_solution(inst, bad)
    monkeypatch.setattr(optimality, "check_response_times", unexpected)
    with pytest.raises(InvariantViolation):
        verify_optimal(inst, bad, report=failing)


def test_box_sweep_refuses_a_non_product_model():
    # trigger times 0 and 1 with delays 0..1: observation times 0 and 2 are
    # never realized together, so the boxes would miss combinations
    inst = generate_system(
        make_scenario(
            ("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 1),
            trigger_times=(0, 1),
        )
    )
    model = build_strategy_model(inst)
    assert not is_product_structured(model)
    with pytest.raises(InvariantViolation, match="product-structured"):
        box_sweep(model)


def test_verify_optimal_checks_product_structure_once(monkeypatch):
    import timelyck.optimality as optimality

    inst = carwash_instance()
    res = synthesize_optimal(inst)
    expected = verify_optimal(inst, res).to_json_dict()
    assert "signature_boxes" in expected["methods"]
    calls = []
    real = optimality.is_product_structured
    monkeypatch.setattr(
        optimality, "is_product_structured", lambda m: calls.append(m) or real(m)
    )
    assert verify_optimal(inst, res).to_json_dict() == expected
    assert len(calls) == 1


def test_result_assignment_requires_class_constancy():
    inst = generate_system(
        make_scenario(("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 1))
    )
    model = build_strategy_model(inst)
    res = editable(synthesize_optimal(inst))
    res.responses["t0_a0_b0"]["a"] = 2  # same observation class as t0_a0_b1
    with pytest.raises(InvariantViolation):
        result_assignment(model, res)


def test_triggerless_instance_is_trivially_optimal():
    inst = generate_system(
        make_scenario(
            ("a", "b"),
            simultaneous_delta(("a", "b")),
            obs_delay=(0, 1),
            trigger_times=(),
        )
    )
    assert solvability(inst)
    res = synthesize_optimal(inst)
    assert res.responses == {"never": {"a": None, "b": None}}
    rep = verify_optimal(inst, res)
    assert rep.ok() and rep.methods == ["empty_instance"]


def test_random_instances_cross_check(rng):
    # propagation, exhaustive enumeration and (where applicable) the signature
    # sweep must agree on every solvable draw; verify_optimal asserts that
    # internally, so a clean pass here is the cross-check
    checked = 0
    while checked < 10:
        k = int(rng.integers(2, 4))
        agents = tuple("abc"[:k])
        delta = {
            (i, j): (INF if rng.random() < 0.3 else int(rng.integers(-1, 3)))
            for i in agents
            for j in agents
            if i != j
        }
        sc = make_scenario(
            agents,
            TimingSpec(agents, delta),
            obs_delay=(0, int(rng.integers(1, 3))),
            trigger_times=(0,) if rng.random() < 0.5 else (0, 1),
        )
        inst = generate_system(sc)
        if not solvability(inst):
            continue
        rep = verify_optimal(inst, synthesize_optimal(inst), guard=3 * 10**5)
        assert rep.ok(), rep.to_json_dict()
        checked += 1


def test_propagation_extremes_match_brute_force(rng):
    # least and greatest valid assignments of random difference-bound models,
    # about half of them infeasible, against every assignment in the box
    infeasible = 0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        lo = rng.integers(0, 3, size=n)
        hi = lo + rng.integers(0, 3, size=n)
        constraints = sorted({
            (int(p), int(q), int(rng.integers(-2, 3)))
            for p, q in rng.integers(0, n, size=(int(rng.integers(0, 5)), 2))
            if p != q
        })
        model = StrategyModel(None, [("x", v) for v in range(n)], lo, hi, constraints, None)
        valid = [
            t for t in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if all(t[q] <= t[p] + c for p, q, c in constraints)
        ]
        if not valid:
            infeasible += 1
            assert least_solution(model) is None and greatest_solution(model) is None
        else:
            assert least_solution(model).tolist() == np.min(valid, axis=0).tolist()
            assert greatest_solution(model).tolist() == np.max(valid, axis=0).tolist()
    assert 30 < infeasible < 270, infeasible



def test_a_supplied_knowledge_tuple_is_refused_before_the_sweeps(monkeypatch):
    doc = json.loads(timelyck.bundled_scenario_path("firing_squad_2").read_text())
    scenario = ScenarioSpec.from_json_dict(doc)
    instance, other = generate_system(scenario), generate_system(scenario)
    result = synthesize_optimal(instance)
    assert verify_optimal(instance, result).methods == [
        "difference_bound_propagation", "exhaustive_enumeration", "signature_boxes",
    ]

    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before the knowledge tuple was checked")

    monkeypatch.setattr(optimality, "scan_solutions", sweep)
    monkeypatch.setattr(optimality, "_sweep_boxes", sweep)
    with pytest.raises(UniverseMismatch):
        verify_optimal(instance, result, knowledge=response_knowledge(other))
    xi = response_knowledge(instance)
    swapped = EventTuple(instance.universe, {a: xi[a] for a in reversed(xi.agents)})
    with pytest.raises(InvariantViolation, match="knowledge agents"):
        verify_optimal(instance, result, knowledge=swapped)
