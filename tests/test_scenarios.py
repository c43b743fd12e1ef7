"""Run generation, solvability, synthesis and the reduction identities."""

import numpy as np
import pytest

from timelyck.errors import (
    InvariantViolation,
    SizeGuardExceeded,
    Unsolvable,
)
from timelyck.events import knows
from timelyck.fixpoint import EventTuple, TimingSpec, common_knowledge
from timelyck.optimality import verify_optimal
from timelyck.scenarios import (
    ProtocolResult,
    ScenarioSpec,
    generate_system,
    joint_delta,
    make_scenario,
    ordered_delta,
    response_knowledge,
    simultaneous_delta,
    solvability,
    synthesize_optimal,
    verify_solution,
)
from timelyck.universe import INF

from reductions import (
    verify_joint_reduction,
    verify_ordered_reduction,
    verify_simultaneous_reduction,
)


def editable(result):
    """A mutable copy of a result: a synthesized one's responses are read-only."""
    return ProtocolResult({run: dict(per) for run, per in result.responses.items()})


def carwash_timing():
    return TimingSpec(
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


def carwash_instance(**kw):
    return generate_system(
        make_scenario(("L", "R", "D"), carwash_timing(), obs_delay=(0, 2), **kw)
    )


# -- generation -----------------------------------------------------------------


def test_generate_single_agent_degenerate():
    sc = make_scenario(
        ("a",),
        TimingSpec(("a",), {}),
        obs_delay=(0, 0),
        include_never_run=False,
    )
    inst = generate_system(sc)
    assert len(inst.runs) == 1
    assert knows("a", inst.trigger_history()) == inst.trigger_history()
    assert (inst.trigger_history().table[0, 0]).all()


def test_generate_counts_two_agents():
    sc = make_scenario(("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 1))
    inst = generate_system(sc)
    assert len(inst.runs) == 2 * 2 + 1  # delay combinations plus the never-run
    assert inst.runs[-1].name == "never"
    assert inst.runs[-1].trigger_time is None


def test_generate_carwash_counts():
    inst = carwash_instance()
    assert len(inst.runs) == 3**3 + 1
    assert inst.universe.horizon == 0 + 2 + 11 + 1
    assert inst.universe.exhibits_perfect_recall()
    assert inst.universe.synchronous
    assert inst.trigger.size == 27  # one trigger instant per triggered run


def test_generated_states_are_full_information():
    inst = generate_system(
        make_scenario(("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 1))
    )
    u = inst.universe
    assert u.state_label("a", "t0_a1_b0", 0) == (0, None)
    assert u.state_label("a", "t0_a1_b0", 1) == (1, 1)
    assert u.state_label("a", "never", 2) == (2, None)


def test_trigger_history_is_stable():
    from timelyck.events import is_stable

    inst = carwash_instance()
    assert is_stable(inst.trigger_history())
    assert not is_stable(inst.trigger)


def test_run_cap():
    sc = make_scenario(
        ("a", "b"),
        simultaneous_delta(("a", "b")),
        obs_delay=(0, 5),
        trigger_times=tuple(range(10)),
    )
    sc.run_cap = 50
    with pytest.raises(SizeGuardExceeded):
        generate_system(sc)


def test_scenario_validation():
    with pytest.raises(InvariantViolation):
        make_scenario(("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(2, 1))
    with pytest.raises(InvariantViolation):
        make_scenario(
            ("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 3), horizon=2
        )


def test_scenario_json_round_trip():
    sc = make_scenario(("a", "b"), ordered_delta(("a", "b")), obs_delay=(0, 1))
    doc = sc.to_json_dict()
    again = ScenarioSpec.from_json_dict(doc)
    assert again.to_json_dict() == doc


# -- solvability --------------------------------------------------------------


def test_carwash_solvable():
    assert solvability(carwash_instance())


def test_tight_pair_pinned_solvable():
    # simultaneity with asymmetric observation windows: under a bounded horizon
    # everyone can wait for the latest possible observation time, so the
    # instance is solvable; pinned against the exhaustive strategy sweep.
    from timelyck.optimality import build_strategy_model, enumerate_all_solutions

    sc = make_scenario(
        ("a", "b"),
        simultaneous_delta(("a", "b")),
        obs_delay={"a": (0, 0), "b": (0, 2)},
    )
    inst = generate_system(sc)
    assert solvability(inst)
    count, _, _ = enumerate_all_solutions(build_strategy_model(inst))
    assert count == 2  # everyone at t=2, or everyone at t=3


def test_contradictory_bounds_unsolvable():
    sc = make_scenario(
        ("a", "b"),
        TimingSpec(("a", "b"), {("a", "b"): -1, ("b", "a"): -1}),
        obs_delay=(0, 1),
    )
    inst = generate_system(sc)
    assert not solvability(inst)
    with pytest.raises(Unsolvable):
        synthesize_optimal(inst)


# -- synthesis and checking -------------------------------------------------------


def test_single_agent_responds_immediately():
    sc = make_scenario(
        ("a",), TimingSpec(("a",), {}), obs_delay=(0, 0), include_never_run=False
    )
    inst = generate_system(sc)
    res = synthesize_optimal(inst)
    assert res.responses == {"t0_a0": {"a": 0}}


def test_carwash_synthesis_pinned():
    # washers respond the instant they observe; the dryer always at 8
    inst = carwash_instance()
    res = synthesize_optimal(inst)
    for info in inst.runs:
        if info.trigger_time is None:
            assert res.responses[info.name] == {"L": None, "R": None, "D": None}
        else:
            assert res.responses[info.name] == {
                "L": info.observations["L"],
                "R": info.observations["R"],
                "D": 8,
            }
    assert verify_solution(inst, res).ok()


def test_knowledge_in_another_agent_order_is_refused():
    # synthesis and the necessity check read the knowledge table's rows in
    # timing order, so a tuple indexed otherwise must not be read as if it were
    inst = carwash_instance()
    xi = response_knowledge(inst)
    swapped = EventTuple(inst.universe, {a: xi[a] for a in reversed(xi.agents)})
    res = synthesize_optimal(inst, knowledge=xi)
    for call in (synthesize_optimal, solvability):
        with pytest.raises(InvariantViolation, match="knowledge agents"):
            call(inst, knowledge=swapped)
    with pytest.raises(InvariantViolation, match="knowledge agents"):
        verify_optimal(inst, res, knowledge=swapped)


def test_ordered_synthesis_pinned():
    inst = generate_system(
        make_scenario(("a", "b"), ordered_delta(("a", "b")), obs_delay=(0, 1))
    )
    res = synthesize_optimal(inst)
    for info in inst.runs:
        if info.trigger_time is None:
            continue
        # first agent acts on observation; second once it knows the first knows
        assert res.responses[info.name]["a"] == info.observations["a"]
        assert res.responses[info.name]["b"] == 1
    assert verify_solution(inst, res).ok()


def test_verify_solution_rejects_never_run_response():
    inst = carwash_instance()
    res = editable(synthesize_optimal(inst))
    res.responses["never"]["L"] = 3
    report = verify_solution(inst, res)
    assert not report.checks["follows_trigger"]


def test_verify_solution_rejects_coordination_break():
    inst = generate_system(
        make_scenario(("a", "b"), simultaneous_delta(("a", "b")), obs_delay=(0, 1))
    )
    res = editable(synthesize_optimal(inst))
    run = "t0_a0_b0"
    res.responses[run]["b"] = res.responses[run]["b"] + 1
    report = verify_solution(inst, res)
    assert not report.checks["coordinated"] or not report.checks["locally_determined"]


def test_verify_solution_names_exactly_the_broken_pair():
    # the dryer answering at 7 where the right washer saw the car at 2 breaks
    # only t_R <= t_D - 6; the other five bounds still hold in every run
    inst = carwash_instance()
    res = editable(synthesize_optimal(inst))
    assert res.responses["t0_L0_R2_D0"] == {"L": 0, "R": 2, "D": 8}
    res.responses["t0_L0_R2_D0"]["D"] = 7
    report = verify_solution(inst, res)
    assert not report.checks["coordinated"]
    assert report.counterexamples["coordinated"] == [{"pair": "D->R"}]


def test_verify_solution_rejects_missing_response():
    inst = carwash_instance()
    res = editable(synthesize_optimal(inst))
    res.responses["t0_L0_R0_D0"]["D"] = None
    report = verify_solution(inst, res)
    assert not report.checks["covers_triggered_runs"]


def test_verify_solution_rejects_out_of_horizon():
    inst = carwash_instance()
    res = editable(synthesize_optimal(inst))
    res.responses["t0_L0_R0_D0"]["D"] = 99
    report = verify_solution(inst, res)
    assert not report.checks["well_formed"]


def test_protocol_result_round_trip():
    inst = generate_system(
        make_scenario(("a", "b"), ordered_delta(("a", "b")), obs_delay=(0, 1))
    )
    res = synthesize_optimal(inst)
    doc = res.to_json_dict()
    assert ProtocolResult.from_json_dict(doc).responses == res.responses


def test_a_solve_run_without_responses_responds_nowhere():
    doc = {"runs": {
        "fired": {"trigger_time": 0, "observations": {"a": 0}, "responses": {"a": 1}},
        "never": {"trigger_time": None, "observations": {"a": None}},
    }}
    assert ProtocolResult.from_json_dict(doc).responses == {"fired": {"a": 1}, "never": {}}


# -- special-case timing matrices ---------------------------------------------------


def test_ordered_delta_matrix():
    s = ordered_delta(("x", "y"))
    assert s.delta("y", "x") == 0
    assert s.delta("x", "y") == INF


def test_simultaneous_delta_matrix():
    s = simultaneous_delta(("x", "y"))
    assert s.delta("x", "y") == 0 and s.delta("y", "x") == 0


def test_joint_delta_matrix():
    s = joint_delta([("a",), ("b", "c")])
    assert s.delta("b", "c") == 0 and s.delta("c", "b") == 0
    assert s.delta("b", "a") == 0 and s.delta("c", "a") == 0
    assert s.delta("a", "b") == INF and s.delta("a", "c") == INF


def test_joint_of_singletons_is_ordered():
    assert joint_delta([("a",), ("b",)]) == ordered_delta(("a", "b"))


# -- reduction identities ------------------------------------------------------------


def test_ordered_reduction_holds():
    for agents in (("a", "b"), ("a", "b", "c")):
        inst = generate_system(
            make_scenario(agents, ordered_delta(agents), obs_delay=(0, 1))
        )
        assert solvability(inst)
        assert all(verify_ordered_reduction(inst).values())


def test_simultaneous_reduction_holds():
    for agents in (("a", "b"), ("a", "b", "c")):
        inst = generate_system(
            make_scenario(agents, simultaneous_delta(agents), obs_delay=(0, 1))
        )
        assert all(verify_simultaneous_reduction(inst).values())


def test_joint_reduction_holds():
    part = [("a",), ("b", "c")]
    inst = generate_system(
        make_scenario(("a", "b", "c"), joint_delta(part), obs_delay=(0, 1))
    )
    assert all(verify_joint_reduction(inst, part).values())


def test_reductions_hold_on_random_instances():
    # 2 to 4 agents in a random order, random observation windows and trigger
    # times, with and without the never-run; the joint partition cuts that
    # order into random consecutive blocks
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(2, 5))
        agents = tuple(rng.permutation(list("abcd"[:k])).tolist())
        windows = {}
        for a in agents:
            lo = int(rng.integers(0, 2))
            windows[a] = (lo, lo + int(rng.integers(0, 3 if k < 4 else 2)))
        triggers = rng.integers(0, 3, size=int(rng.integers(1, 3))).tolist()
        cuts = sorted(rng.choice(np.arange(1, k), size=int(rng.integers(0, k)), replace=False))
        part = [tuple(b) for b in np.split(np.array(agents), cuts)]

        def instance(timing):
            return generate_system(make_scenario(
                agents, timing, obs_delay=windows, trigger_times=triggers,
                include_never_run=bool(rng.random() < 0.8),
            ))

        assert all(verify_ordered_reduction(instance(ordered_delta(agents))).values())
        assert all(verify_simultaneous_reduction(instance(simultaneous_delta(agents))).values())
        assert all(verify_joint_reduction(instance(joint_delta(part)), part).values())


# -- knowledge contrasts ----------------------------------------------------------


def test_trigger_instant_never_common_knowledge():
    inst = carwash_instance()
    assert not common_knowledge(("L", "R", "D"), inst.trigger).table.any()


def test_trigger_history_common_knowledge_attained():
    # the stable history does become common knowledge once all observation
    # windows have certainly closed; the contrast with the instant is the point
    inst = carwash_instance()
    ck = common_knowledge(("L", "R", "D"), inst.trigger_history())
    assert ck.table.any()


def test_never_run_flag_removes_run():
    sc = make_scenario(
        ("a", "b"),
        simultaneous_delta(("a", "b")),
        obs_delay=(0, 1),
        include_never_run=False,
    )
    inst = generate_system(sc)
    assert all(info.trigger_time is not None for info in inst.runs)


# -- information monotonicity --------------------------------------------------------


def test_solvability_monotone_in_observation_windows(rng):
    # tightening any observation window (sub-interval) keeps solvable solvable
    for _ in range(12):
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
            obs_delay={a: (0, int(rng.integers(1, 3))) for a in agents},
        )
        inst = generate_system(sc)
        if not solvability(inst):
            continue
        shrunk = dict(sc.obs_delay)
        agent = agents[int(rng.integers(0, k))]
        lo, hi = shrunk[agent]
        lo2 = int(rng.integers(lo, hi + 1))
        hi2 = int(rng.integers(lo2, hi + 1))
        shrunk[agent] = (lo2, hi2)
        sc2 = make_scenario(agents, TimingSpec(agents, delta), obs_delay=shrunk)
        assert solvability(generate_system(sc2)), (
            f"tightening {agent} from {(lo, hi)} to {(lo2, hi2)} broke solvability"
        )
