import numpy as np
import pytest

from timelyck.errors import InvariantViolation, SizeGuardExceeded
from timelyck.events import Event, knows, within
from timelyck.coordination import (
    enumerate_local_ensembles,
    is_delta_coordinated,
    is_epsilon_coordinated,
    is_eventually_coordinated,
    is_perfectly_coordinated,
    verify_greatest_coordinated_ensemble,
)
from timelyck.fixpoint import (
    EventTuple,
    TimingSpec,
    common_knowledge,
    eventual_ck,
    epsilon_ck,
    timely_ck,
    tuple_union,
)
from timelyck.sampling import random_event, random_spec, random_tuple, random_universe
from timelyck.universe import INF, Universe

from naive_reference import n_delta_coordinated, n_epsilon_coordinated, point_set


def spec2(dab, dba):
    return TimingSpec(("a", "b"), {("a", "b"): dab, ("b", "a"): dba})


def tup(u, ea, eb):
    return EventTuple(u, {"a": ea, "b": eb})


def test_delta_coordination_examples(toy):
    empty = tup(toy, Event.empty(toy), Event.empty(toy))
    assert is_delta_coordinated(empty, spec2(0, 0))

    ea = Event.from_json_list(toy, [["r1", 1]])
    eb = Event.from_json_list(toy, [["r1", 2]])
    assert is_delta_coordinated(tup(toy, ea, eb), spec2(1, 0))
    assert not is_delta_coordinated(tup(toy, ea, eb), spec2(0, 0))


def _literal(ens, spec):
    return n_delta_coordinated(
        ens.universe,
        {a: point_set(ens[a]) for a in spec.agents},
        {p: spec.delta(*p) for p in spec.pairs()},
    )


def test_delta_coordination_matches_literal_quantifier(rng):
    seen = dict.fromkeys(
        ("unstable", "empty_run", "inf", "negative", "beyond_horizon", "huge", "yes", "no"),
        0,
    )
    for _ in range(400):
        u = random_universe(rng, n_agents=int(rng.integers(2, 4)), max_runs=3, max_times=5)
        h = u.horizon
        ens = random_tuple(rng, u)
        s = random_spec(rng, u.agents, lo=-(h + 2), hi=h + 2)
        if rng.random() < 0.2:  # a finite bound far beyond int64
            delta = {p: s.delta(*p) for p in s.pairs()}
            delta[s.pairs()[int(rng.integers(len(delta)))]] = int(rng.choice([-1, 1])) * 10**30
            s = TimingSpec(u.agents, delta)
        verdict = is_delta_coordinated(ens, s)
        assert verdict == _literal(ens, s)
        deltas = [s.delta(*p) for p in s.pairs()]
        seen["unstable"] += any(ens[a] != within(ens[a], 0) for a in u.agents)
        seen["empty_run"] += any(not ens[a].table.any(axis=1).all() for a in u.agents)
        seen["inf"] += INF in deltas
        seen["negative"] += any(d < 0 for d in deltas)
        seen["beyond_horizon"] += any(h < d < INF for d in deltas)
        seen["huge"] += any(abs(d) == 10**30 for d in deltas)
        seen["yes" if verdict else "no"] += 1
    assert min(seen.values()) >= 20, seen


def test_infinite_bound_needs_a_response_in_the_run():
    # regression: j's coordinate is empty in run r1 where i's holds; an infinite
    # bound must not count the missing first instant as a witness
    u = Universe(["a", "b"], ["r0", "r1"], 2, lambda agent, run, t: (t, run))
    ea = Event.from_json_list(u, [["r0", 0], ["r1", 1]])
    eb = Event.from_json_list(u, [["r0", 2]])
    spec = spec2(INF, INF)
    assert not _literal(tup(u, ea, eb), spec)
    assert not is_delta_coordinated(tup(u, ea, eb), spec)
    assert is_delta_coordinated(tup(u, ea, eb | Event.from_json_list(u, [["r1", 0]])), spec)


def test_huge_finite_bound_is_clamped_not_overflowed():
    # bounds of +-10^30 do not fit int64: they act like H and -(H+1)
    u = Universe(["a", "b"], ["r0", "r1"], 2, lambda agent, run, t: (t, run))
    ea = Event.from_json_list(u, [["r0", 0], ["r1", 1]])
    eb = Event.from_json_list(u, [["r0", 2], ["r1", 0]])
    for dab, dba in ((10**30, 10**30), (-(10**30), 10**30), (10**30, -(10**30))):
        spec = spec2(dab, dba)
        assert is_delta_coordinated(tup(u, ea, eb), spec) == _literal(tup(u, ea, eb), spec)
    assert is_delta_coordinated(tup(u, ea, eb), spec2(10**30, 10**30))
    assert not is_delta_coordinated(tup(u, ea, eb), spec2(-(10**30), 10**30))


def test_perfect_and_eventual(toy, rng):
    empty = tup(toy, Event.empty(toy), Event.empty(toy))
    assert is_perfectly_coordinated(empty)
    e = random_event(rng, toy)
    assert is_perfectly_coordinated(tup(toy, e, e))
    ea = Event.from_json_list(toy, [["r1", 1]])
    eb = Event.from_json_list(toy, [["r1", 2]])
    assert not is_perfectly_coordinated(tup(toy, ea, eb))
    assert is_eventually_coordinated(tup(toy, ea, eb))
    assert not is_eventually_coordinated(
        tup(toy, Event.from_json_list(toy, [["r0", 0]]), Event.empty(toy))
    )


def test_epsilon_coordination(toy):
    ea = Event.from_json_list(toy, [["r0", 0]])
    eb = Event.from_json_list(toy, [["r0", 3]])
    assert not is_epsilon_coordinated(tup(toy, ea, eb), 1)
    assert is_epsilon_coordinated(tup(toy, ea, eb), 3)
    empty = tup(toy, Event.empty(toy), Event.empty(toy))
    assert is_epsilon_coordinated(empty, 0)
    with pytest.raises(InvariantViolation):
        is_epsilon_coordinated(empty, -1)


def test_epsilon_coordination_matches_literal_quantifier(rng):
    seen = dict(asynchronous=0, three_agents=0, wide=0, yes=0, no=0)
    for _ in range(400):
        synchronous = rng.random() < 0.7
        u = random_universe(rng, n_agents=int(rng.integers(1, 4)), max_runs=3, max_times=5,
                            synchronous=synchronous)
        ens = random_tuple(rng, u)
        eps = int(rng.integers(0, 8))
        verdict = is_epsilon_coordinated(ens, eps)
        assert verdict == n_epsilon_coordinated(
            u, {a: point_set(ens[a]) for a in u.agents}, eps
        )
        seen["asynchronous"] += not synchronous
        seen["three_agents"] += len(u.agents) == 3
        seen["wide"] += eps >= u.horizon
        seen["yes" if verdict else "no"] += 1
    assert min(seen.values()) >= 20, seen


def test_weakening_chain(toy, rng):
    for _ in range(20):
        e = knows("a", random_event(rng, toy))  # a-local, used for both coords
        both = tup(toy, e, e)
        assert is_perfectly_coordinated(both)
        for eps in (0, 1, 2):
            assert is_epsilon_coordinated(both, eps)
        assert is_eventually_coordinated(both)


def test_delta_coordinated_implies_eventually(toy, rng):
    for _ in range(30):
        ta = random_event(rng, toy)
        tb = random_event(rng, toy)
        s = random_spec(rng, ("a", "b"))
        t = tup(toy, ta, tb)
        if is_delta_coordinated(t, s):
            assert is_eventually_coordinated(t)


def test_single_point_constant_delta_matches_epsilon(rng):
    # one point per agent per run: constant-delta coordination == window coordination
    for _ in range(40):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=4)
        eps = int(rng.integers(0, 3))
        coords = {}
        for agent in u.agents:
            table = np.zeros((u.n_runs, u.n_times), dtype=bool)
            for r in range(u.n_runs):
                if rng.random() < 0.8:
                    table[r, int(rng.integers(0, u.n_times))] = True
            coords[agent] = Event(u, table)
        t = EventTuple(u, coords)
        s = TimingSpec(u.agents, {p: eps for p in [(i, j) for i in u.agents for j in u.agents if i != j]})
        assert is_delta_coordinated(t, s) == is_epsilon_coordinated(t, eps)


def test_enumeration_guard(toy):
    with pytest.raises(SizeGuardExceeded):
        list(enumerate_local_ensembles(toy, ("a", "b"), guard=10))


def test_enumerated_ensembles_are_local(toy):
    from timelyck.events import is_local

    seen = 0
    for ens in enumerate_local_ensembles(toy, ("a", "b"), guard=10_000):
        seen += 1
        if seen > 64:
            break
        for agent in ("a", "b"):
            assert is_local(agent, ens[agent])


def test_correspondence_report_trivial_psi(toy):
    report = verify_greatest_coordinated_ensemble(Event.empty(toy), spec2(1, 1))
    assert report.ok()


def test_correspondence_report_toy(toy, rng):
    for _ in range(3):
        psi = random_event(rng, toy)
        s = random_spec(rng, ("a", "b"), lo=-2, hi=2)
        report = verify_greatest_coordinated_ensemble(psi, s)
        assert report.ok(), report.to_json_dict()
        assert report.enumerated == 128 * 64


def test_correspondence_detects_corruption(toy, rng):
    psi = within(random_event(rng, toy), 0) | Event.from_json_list(toy, [["r1", 1]])
    s = spec2(1, 1)
    xi = timely_ck(psi, s)
    table = xi["a"].table.copy()
    hits = np.argwhere(table)
    if hits.size == 0:
        pytest.skip("fixed point empty for this draw")
    r, t = hits[0]
    table[r, t] = False
    corrupted = EventTuple(toy, {"a": Event(toy, table), "b": xi["b"]})
    report = verify_greatest_coordinated_ensemble(psi, s, candidate=corrupted)
    assert not report.parts["greatest"] or not report.parts["fixed_point"]


# -- symmetric-coordination correspondences, by enumeration --------------------


def _enumerate_small(u, guard=5000):
    return enumerate_local_ensembles(u, u.agents, guard=guard)


def test_perfect_coordination_vs_common_knowledge(rng):
    for _ in range(6):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=3)
        for ens in _enumerate_small(u):
            if not is_perfectly_coordinated(ens):
                continue
            union = tuple_union(ens)
            ck = common_knowledge(u.agents, union)
            for agent in u.agents:
                assert ens[agent] <= ck
            assert union == ck


def test_eventual_coordination_vs_eventual_ck(rng):
    for _ in range(4):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=3)
        psi = random_event(rng, u)
        ck_psi = eventual_ck(u.agents, psi)
        derived = EventTuple(u, {a: knows(a, ck_psi) for a in u.agents})
        assert is_eventually_coordinated(derived)
        for ens in _enumerate_small(u):
            if not is_eventually_coordinated(ens):
                continue
            union = tuple_union(ens)
            ck = eventual_ck(u.agents, union)
            assert union <= ck
            for agent in u.agents:
                assert ens[agent] <= knows(agent, ck)


def test_epsilon_coordination_vs_epsilon_ck(rng):
    for _ in range(3):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=3)
        eps = int(rng.integers(0, 3))
        for ens in _enumerate_small(u):
            if not is_epsilon_coordinated(ens, eps):
                continue
            union = tuple_union(ens)
            ck = epsilon_ck(u.agents, union, eps)
            assert union <= ck
            for agent in u.agents:
                assert ens[agent] <= knows(agent, ck)
