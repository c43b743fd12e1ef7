"""Operator semantics on the toy universe, pinned against hand evaluation of
the definitions, plus randomized agreement with the definition-direct
evaluators in `tests/naive_reference.py`."""

import operator

import numpy as np
import pytest

from timelyck.errors import InvariantViolation, UniverseMismatch
from timelyck.events import (
    Event,
    EventTuple,
    eventually,
    everyone_knows,
    is_local,
    is_stable,
    knows,
    shift_exact,
    within,
)
from timelyck.fixpoint import common_knowledge
from timelyck.sampling import random_event, random_universe
from timelyck.universe import INF

import naive_reference as naive


def pts(u, *pairs):
    return Event.from_json_list(u, [list(p) for p in pairs])


def run_points(u, run, lo=0):
    return Event.from_json_list(u, [[run, t] for t in range(lo, u.n_times)])


# -- temporal operators ------------------------------------------------------


def test_eventually_trivial(toy):
    assert eventually(Event.empty(toy)) == Event.empty(toy)
    assert eventually(Event.full(toy)) == Event.full(toy)


def test_eventually_is_run_constant(toy):
    e = pts(toy, ("r1", 2))
    assert eventually(e) == run_points(toy, "r1")


def test_shift_exact_identity_and_moves(toy):
    e = pts(toy, ("r0", 3))
    assert shift_exact(e, 0) == e
    assert shift_exact(e, 2) == pts(toy, ("r0", 1))
    assert shift_exact(pts(toy, ("r0", 0)), -1) == pts(toy, ("r0", 1))
    # shifted time leaving 0..H drops the point
    assert shift_exact(pts(toy, ("r0", 0)), -4) == Event.empty(toy)


def test_shift_requires_finite(toy):
    with pytest.raises(InvariantViolation):
        shift_exact(Event.full(toy), INF)


def test_within_infinite_equals_eventually(toy, rng):
    for _ in range(20):
        e = random_event(rng, toy)
        assert within(e, INF) == eventually(e)


def test_within_zero_means_now_or_before(toy):
    e = pts(toy, ("r0", 2))
    assert within(e, 0) == pts(toy, ("r0", 2), ("r0", 3))


def test_within_negative(toy):
    e = pts(toy, ("r0", 0))
    assert within(e, -2) == pts(toy, ("r0", 2), ("r0", 3))


def test_stability(toy):
    assert is_stable(Event.full(toy))
    assert not is_stable(pts(toy, ("r0", 0)))
    e = pts(toy, ("r0", 1), ("r1", 3))
    assert is_stable(within(e, 0))


# -- epistemic operators -------------------------------------------------------


def test_knows_full(toy):
    assert knows("a", Event.full(toy)) == Event.full(toy)


def test_knows_toy_bit(toy):
    # a tells the runs apart from t=1, b only from t=2
    psi = run_points(toy, "r1")
    assert knows("a", psi) == run_points(toy, "r1", lo=1)
    assert knows("b", psi) == run_points(toy, "r1", lo=2)
    assert everyone_knows(["a", "b"], psi) == run_points(toy, "r1", lo=2)


def test_knowledge_axiom_random(toy, rng):
    for _ in range(30):
        e = random_event(rng, toy)
        assert knows("a", e) <= e


def test_everyone_knows_singleton_is_knows(toy, rng):
    for _ in range(10):
        e = random_event(rng, toy)
        assert everyone_knows(["b"], e) == knows("b", e)
    assert everyone_knows(["a", "b"], Event.full(toy)) == Event.full(toy)


def test_common_knowledge_toy(toy):
    psi = run_points(toy, "r1")
    assert common_knowledge(["a", "b"], psi) == run_points(toy, "r1", lo=2)
    assert common_knowledge(["a", "b"], Event.full(toy)) == Event.full(toy)
    assert common_knowledge(["a", "b"], Event.empty(toy)) == Event.empty(toy)


def test_empty_agent_sets_rejected(toy):
    with pytest.raises(InvariantViolation):
        everyone_knows([], Event.full(toy))
    with pytest.raises(InvariantViolation):
        common_knowledge([], Event.full(toy))


def test_is_local(toy, rng):
    assert is_local("a", Event.full(toy))
    assert not is_local("a", pts(toy, ("r1", 0)))
    for _ in range(20):
        e = random_event(rng, toy)
        assert is_local("a", knows("a", e))


def test_cross_universe_operations_rejected(toy, single_run):
    with pytest.raises(UniverseMismatch):
        Event.full(toy) & Event.full(single_run)
    with pytest.raises(UniverseMismatch):
        Event.full(toy) == Event.full(single_run)


def test_events_and_tuples_share_one_set_algebra(toy, single_run):
    # a kind meets only its own kind, over one universe and, for tuples, one
    # agent order; results are read-only and neither kind hashes
    e, x = Event.full(toy), EventTuple.top(toy, ("a", "b"))
    assert (e == x) is False and (x == e) is False
    for left, right in ((e, x), (x, e)):
        with pytest.raises(TypeError):
            left <= right
    with pytest.raises(UniverseMismatch):
        e & Event.full(single_run)
    with pytest.raises(UniverseMismatch):
        x & EventTuple.top(single_run, ("a", "b"))
    swapped = EventTuple.top(toy, ("b", "a"))
    for op in (operator.and_, operator.eq):
        with pytest.raises(InvariantViolation):
            op(x, swapped)
    for result in (e & e, e | e, x & x, x | x):
        with pytest.raises(ValueError):
            result.table[...] = False
    for value in (e, x):
        with pytest.raises(TypeError):
            hash(value)


def test_event_points_round_trip(toy):
    e = pts(toy, ("r1", 2), ("r0", 0))
    assert e.to_json_list() == [["r0", 0], ["r1", 2]]
    assert Event.from_json_list(toy, e.to_json_list()) == e


def test_zero_horizon_universe():
    from timelyck.fixpoint import TimingSpec, timely_ck
    from timelyck.universe import Universe

    u = Universe(
        ["a", "b"],
        ["r0", "r1"],
        0,
        {(a, r, 0): (a, r) for a in ("a", "b") for r in ("r0", "r1")},
    )
    e = pts(u, ("r0", 0))
    assert eventually(e) == e
    assert within(e, 0) == e
    assert shift_exact(e, 1) == Event.empty(u)
    assert knows("a", e) == e  # states fully distinguish the runs here
    spec = TimingSpec(("a", "b"), {("a", "b"): 0, ("b", "a"): 0})
    assert timely_ck(Event.full(u), spec) == timely_ck(Event.full(u), spec)


def test_async_knowledge_quantifies_across_times():
    from timelyck.universe import Universe

    # the agent's state repeats at both times, so knowing the event at one
    # point requires it at the other point of the same class as well
    u = Universe(
        ["a"], ["r0"], 1, {("a", "r0", 0): "s", ("a", "r0", 1): "s"},
        synchronous=False,
    )
    half = pts(u, ("r0", 0))
    assert knows("a", half) == Event.empty(u)
    assert knows("a", Event.full(u)) == Event.full(u)


# -- randomized agreement with the definition-direct evaluators ----------------


def _as_set(e):
    u = e.universe
    return frozenset((u.run_index(r), t) for r, t in e.points())


def _from_set(u, s):
    table = np.zeros((u.n_runs, u.n_times), dtype=bool)
    for r, t in s:
        table[r, t] = True
    return Event(u, table)


@pytest.mark.parametrize("synchronous", [True, False])
def test_operators_match_naive_definitions(synchronous):
    rng = np.random.default_rng(7)
    for case in range(60):
        u = random_universe(rng, n_agents=2, synchronous=synchronous)
        e = random_event(rng, u)
        s = _as_set(e)
        eps = int(rng.integers(-3, 4))
        assert _as_set(eventually(e)) == naive.n_eventually(u, s)
        assert _as_set(shift_exact(e, eps)) == naive.n_shift_exact(u, s, eps)
        assert _as_set(within(e, eps)) == naive.n_within(u, s, eps)
        assert _as_set(within(e, INF)) == naive.n_within(u, s, INF)
        for huge in (10**30, -(10**30)):  # beyond int64: clamped, not overflowed
            assert _as_set(within(e, huge)) == naive.n_within(u, s, huge)
        for agent in u.agents:
            assert _as_set(knows(agent, e)) == naive.n_knows(u, agent, s)
        assert _as_set(common_knowledge(u.agents, e)) == naive.n_common_knowledge(
            u, u.agents, s
        )
