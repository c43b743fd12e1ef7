import numpy as np
import pytest

from timelyck.errors import InvariantViolation, SizeGuardExceeded
from timelyck.events import Event, knows, within
from timelyck.fixpoint import TimingSpec, common_knowledge, timely_ck_g
from timelyck.nested import (
    enumerate_paths,
    nested_conjunction,
    nested_formula,
    paths_are_finite,
    validate_path,
    verify_nested_characterization,
)
from timelyck.sampling import random_event, random_spec, random_stable_event
from timelyck.universe import INF


def spec2(dab, dba):
    return TimingSpec(("a", "b"), {("a", "b"): dab, ("b", "a"): dba})


def test_path_validation():
    s = spec2(1, INF)
    assert validate_path(s, ("a", "b")) == ("a", "b")
    with pytest.raises(InvariantViolation):
        validate_path(s, ())
    with pytest.raises(InvariantViolation):
        validate_path(s, ("a", "a"))
    with pytest.raises(InvariantViolation):
        validate_path(s, ("b", "a"))  # unbounded pair
    with pytest.raises(InvariantViolation):
        validate_path(s, ("a", "z"))


def test_enumerate_paths_two_agents():
    s = spec2(1, 1)
    assert enumerate_paths(s, "a", 3) == [("a",), ("a", "b"), ("a", "b", "a")]


def test_enumerate_paths_no_edges():
    s = spec2(INF, INF)
    assert enumerate_paths(s, "a", 5) == [("a",)]


def test_enumerate_paths_ordered_chain():
    # one-way chain c -> b -> a: the only paths walk down the chain
    s = TimingSpec(
        ("a", "b", "c"),
        {
            ("b", "a"): 0,
            ("c", "b"): 0,
            ("a", "b"): INF,
            ("a", "c"): INF,
            ("b", "c"): INF,
            ("c", "a"): INF,
        },
    )
    assert enumerate_paths(s, "c", 4) == [("c",), ("c", "b"), ("c", "b", "a")]
    assert paths_are_finite(s)
    assert not paths_are_finite(spec2(0, 0))


def test_paths_are_finite_iff_no_path_visits_more_than_every_agent():
    # a path of k + 1 agents repeats one, so the bound graph has a cycle
    rng = np.random.default_rng(83)
    seen = dict(finite=0, infinite=0, five=0)
    for case in range(200):
        k = 2 + case % 4
        agents = tuple("abcde"[:k])
        spec = random_spec(rng, agents, p_inf=(0.5, 0.7, 0.85)[case % 3])
        longest = max(len(p) for a in agents for p in enumerate_paths(spec, a, k + 1))
        assert paths_are_finite(spec) == (longest <= k), (case, spec)
        seen["finite" if longest <= k else "infinite"] += 1
        seen["five"] += k == 5
    assert min(seen.values()) >= 40, seen


def test_nested_formula_base_cases(toy, rng):
    psi = random_event(rng, toy)
    assert nested_formula(("a",), psi, spec2(1, 1)) == knows("a", psi)
    assert nested_formula(("a", "b"), psi, spec2(0, 0)) == knows("a", knows("b", psi))


def test_zero_delays_give_common_knowledge(toy, rng):
    # all-zero bounds: the conjunction collapses to common knowledge
    s = spec2(0, 0)
    for _ in range(10):
        psi = random_stable_event(rng, toy)
        ck = common_knowledge(("a", "b"), psi)
        for agent in ("a", "b"):
            assert nested_conjunction(agent, psi, s) == ck


def test_unbounded_spec_gives_plain_knowledge(toy, rng):
    s = spec2(INF, INF)
    psi = random_event(rng, toy)
    assert nested_conjunction("a", psi, s) == knows("a", psi)


def test_conjunction_matches_g_fixed_point(toy, rng):
    for _ in range(15):
        psi = random_event(rng, toy)
        s = random_spec(rng, ("a", "b"))
        fix = timely_ck_g(psi, s)
        for agent in ("a", "b"):
            assert nested_conjunction(agent, psi, s) == fix[agent]


def test_explicit_mode_guard(toy):
    with pytest.raises(SizeGuardExceeded):
        nested_conjunction("a", Event.full(toy), spec2(1, 1), max_paths=1)


def test_characterization_report_gates(toy, toy_forgetful, rng):
    # stable psi on a perfect-recall universe with nonpositive bounds: full equality
    psi = within(random_event(rng, toy), 0)
    rep = verify_nested_characterization(psi, spec2(0, 0))
    assert rep.preconditions["perfect_recall"]
    assert rep.preconditions["stable_psi"]
    assert rep.asserted_full_equality
    for agent in ("a", "b"):
        assert rep.per_agent[agent]["equals_window_fixed_point"]

    # non-stable psi: the gate stays open, nothing asserted beyond the core
    point = Event.from_json_list(toy, [["r1", 1]])
    rep = verify_nested_characterization(point, spec2(0, 0))
    assert not rep.preconditions["stable_psi"]
    assert not rep.asserted_full_equality

    # forgetting universe: recall precondition fails
    psi = within(random_event(rng, toy_forgetful), 0)
    rep = verify_nested_characterization(psi, spec2(0, 0))
    assert not rep.preconditions["perfect_recall"]
    assert not rep.asserted_full_equality


def test_acyclic_specs_need_no_paths_beyond_agent_count():
    s = TimingSpec(
        ("a", "b", "c"),
        {
            ("b", "a"): 0,
            ("c", "b"): 0,
            ("a", "b"): INF,
            ("a", "c"): INF,
            ("b", "c"): INF,
            ("c", "a"): INF,
        },
    )
    assert paths_are_finite(s)
    assert enumerate_paths(s, "c", 3) == enumerate_paths(s, "c", 10)


def test_exact_shift_fixed_point_matches_window_one_without_positive_bounds():
    import numpy as np

    from timelyck.fixpoint import timely_ck
    from timelyck.sampling import random_spec, random_stable_event, random_universe

    rng = np.random.default_rng(23)
    for _ in range(15):
        u = random_universe(rng, n_agents=2, recall=True)
        psi = random_stable_event(rng, u)
        s = random_spec(rng, u.agents, lo=-2, hi=0, p_inf=0.0)
        assert timely_ck(psi, s) == timely_ck_g(psi, s)


def test_ordered_instance_conjunction_is_knowledge_chain():
    from timelyck.scenarios import generate_system, make_scenario, ordered_delta

    inst = generate_system(
        make_scenario(("a", "b", "c"), ordered_delta(("a", "b", "c")), obs_delay=(0, 1))
    )
    psi = inst.trigger_history()
    chain = psi
    for agent in ("a", "b", "c"):
        chain = knows(agent, chain)
    assert nested_conjunction("c", psi, inst.timing) == chain


def test_mixed_bounds_can_make_fixed_points_incomparable(toy):
    # one unbounded pair, one zero bound, and a target only agent a can know:
    # the window fixed point collapses (b never learns, and a must eventually
    # see b's coordinate), while the exact-shift map simply drops the
    # unbounded pair and keeps a's knowledge
    from timelyck.fixpoint import timely_ck

    s = spec2(INF, 0)
    psi = Event.from_json_list(toy, [["r1", 1]])
    f_fix = timely_ck(psi, s)
    g_fix = timely_ck_g(psi, s)
    assert not f_fix["a"].table.any() and not f_fix["b"].table.any()
    assert g_fix["a"] == Event.from_json_list(toy, [["r1", 1]])
    assert not g_fix["b"].table.any()
    rep = verify_nested_characterization(psi, s)
    assert not rep.exact_shift_below_window
    assert not rep.asserted_full_equality


def test_all_finite_bounds_keep_exact_shift_below_window(toy, rng):
    for _ in range(20):
        psi = random_event(rng, toy)
        s = random_spec(rng, ("a", "b"), p_inf=0.0)
        rep = verify_nested_characterization(psi, s)
        assert rep.exact_shift_below_window


def test_positive_bounds_report_window_clipping(toy, rng):
    # positive finite bounds clip exact-shift windows near the horizon, so the
    # two fixed points may legitimately differ there; the report records it
    psi = within(random_event(rng, toy), 0)
    rep = verify_nested_characterization(psi, spec2(2, 2))
    assert not rep.preconditions["no_positive_finite_bounds"]
    assert not rep.asserted_full_equality
    for agent in ("a", "b"):
        assert rep.per_agent[agent]["matches_exact_shift_fixed_point"]
