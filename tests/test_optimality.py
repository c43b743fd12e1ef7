"""The strategy-space sweeps behind optimality and necessity verification."""

import numpy as np
import pytest

from timelyck.errors import InvariantViolation, SizeGuardExceeded
from timelyck.fixpoint import TimingSpec
from timelyck.optimality import (
    box_sweep,
    build_strategy_model,
    enumerate_all_solutions,
    greatest_solution,
    is_product_structured,
    least_solution,
    result_assignment,
    verify_optimal,
)
from timelyck.scenarios import (
    generate_system,
    make_scenario,
    ordered_delta,
    simultaneous_delta,
    solvability,
    synthesize_optimal,
)
from timelyck.universe import INF


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
    res = synthesize_optimal(inst)
    res.responses["t0_L0_R0_D0"]["D"] = None
    with pytest.raises(InvariantViolation):
        verify_optimal(inst, res)


def test_verify_optimal_reuses_the_callers_report(monkeypatch):
    import timelyck.optimality as optimality
    from timelyck.scenarios import verify_solution

    inst = carwash_instance()
    res = synthesize_optimal(inst)
    report = verify_solution(inst, res)
    expected = verify_optimal(inst, res).to_json_dict()

    def unexpected(*args, **kwargs):
        raise AssertionError("the solution was checked again")

    monkeypatch.setattr(optimality, "verify_solution", unexpected)
    assert verify_optimal(inst, res, report=report).to_json_dict() == expected

    bad = synthesize_optimal(inst)
    bad.responses["t0_L0_R0_D0"]["D"] = None
    monkeypatch.undo()
    failing = verify_solution(inst, bad)
    monkeypatch.setattr(optimality, "verify_solution", unexpected)
    with pytest.raises(InvariantViolation):
        verify_optimal(inst, bad, report=failing)


def test_result_assignment_requires_class_constancy():
    inst = generate_system(
        make_scenario(("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 1))
    )
    model = build_strategy_model(inst)
    res = synthesize_optimal(inst)
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
