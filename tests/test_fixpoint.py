import numpy as np
import pytest

from timelyck.errors import (
    InternalConsistencyError,
    InvariantViolation,
    SizeGuardExceeded,
)
from timelyck.events import Event, knows, shift_exact, within
from timelyck.fixpoint import (
    EventTuple,
    TimingSpec,
    apply_f,
    apply_g,
    check_induction_rule,
    common_knowledge,
    epsilon_ck,
    eventual_ck,
    timely_ck,
    timely_ck_g,
    timely_ck_g_info,
    timely_ck_info,
    timely_ck_oracle,
    tuple_union,
)
from timelyck.sampling import random_event, random_spec, random_stable_event, random_universe
from timelyck.universe import INF

import naive_reference as naive
from conftest import empty_event
from generic_gfp import gfp, gfp_bruteforce_oracle


def nowhere(u, agents):
    """The tuple that holds at no point."""
    return EventTuple.of(u, agents, np.zeros((len(agents), u.n_runs, u.n_times), dtype=bool))


def spec2(dab=1, dba=1):
    return TimingSpec(("a", "b"), {("a", "b"): dab, ("b", "a"): dba})


def random_tuple(rng, u, agents):
    return EventTuple(u, {a: random_event(rng, u) for a in agents})


# -- timing spec ------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InvariantViolation):
        TimingSpec((), {})
    with pytest.raises(InvariantViolation):
        TimingSpec(("a", "b"), {("a", "b"): 1})
    with pytest.raises(InvariantViolation):
        TimingSpec(("a", "b"), {("a", "b"): 1, ("b", "a"): 1, ("a", "a"): 0})
    # a lone agent is the degenerate case: no pairs, no constraints
    assert TimingSpec(("a",), {}).pairs() == []


def test_spec_normalization():
    s = spec2(100, -100)
    norm, changed = s.normalized(3)
    assert norm.delta("a", "b") == 4
    assert norm.delta("b", "a") == -4
    assert changed == {("a", "b"): (100, 4), ("b", "a"): (-100, -4)}
    norm2, changed2 = norm.normalized(3)
    assert norm2 == norm and changed2 == {}


def test_normalizing_a_spec_changes_neither_fixed_point():
    # bounds drawn past -(H+1)..H+1 on small universes, where a shift of H
    # and one of H+1 from the same time tell apart most often
    rng = np.random.default_rng(41)
    clamped = 0
    for _ in range(400):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=3)
        h = u.horizon
        spec = random_spec(rng, u.agents, lo=-(h + 2), hi=h + 2, p_inf=0.2)
        norm, changed = spec.normalized(h)
        clamped += bool(changed)
        psi = random_stable_event(rng, u)
        assert timely_ck(psi, norm) == timely_ck(psi, spec)
        assert timely_ck_g(psi, norm) == timely_ck_g(psi, spec)
    assert clamped >= 100


def test_bounded_pairs_are_the_finite_entries_of_pairs_in_order():
    rng = np.random.default_rng(29)
    for case in range(60):
        agents = tuple("abcd"[: 2 + case % 3])
        drawn = random_spec(rng, agents, lo=-5, hi=5, p_inf=0.4)
        # a delta map given in reverse order must not change the pair order
        spec = TimingSpec(agents, {p: drawn.delta(*p) for p in reversed(drawn.pairs())})
        want = [
            (agents.index(i), agents.index(j), spec.delta(i, j))
            for i, j in spec.pairs()
            if spec.delta(i, j) != INF
        ]
        assert spec.bounded_pairs() == want, case
        assert all(type(d) is int for _, _, d in spec.bounded_pairs())


def test_spec_json_round_trip():
    s = TimingSpec(("a", "b"), {("a", "b"): 2, ("b", "a"): INF})
    doc = s.to_json_dict()
    assert doc == {"a->b": 2, "b->a": "inf"}
    assert TimingSpec.from_json_dict(("a", "b"), doc) == s


# -- lattice ----------------------------------------------------------------


def test_tuple_lattice_laws(toy, rng):
    bot = nowhere(toy, ("a", "b"))
    for _ in range(20):
        x = random_tuple(rng, toy, ("a", "b"))
        y = random_tuple(rng, toy, ("a", "b"))
        assert x & x == x
        assert x & y <= x
        assert x <= x | y
        assert bot | x == x


def test_tuple_union(toy):
    bot = nowhere(toy, ("a", "b"))
    assert tuple_union(bot) == empty_event(toy)
    e = Event.from_json_list(toy, [["r1", 1]])
    assert tuple_union(EventTuple(toy, {"a": e, "b": e})) == e


def test_tuple_agent_mismatch(toy):
    x = nowhere(toy, ("a", "b"))
    y = nowhere(toy, ("a",))
    with pytest.raises(InvariantViolation):
        x <= y


# -- the two vectorial maps ------------------------------------------------------


def test_apply_f_trivial(toy):
    top = EventTuple.top(toy, ("a", "b"))
    # with nonnegative deltas every within-window is satisfiable everywhere
    out = apply_f(Event.full(toy), spec2(1, 0), top)
    assert out == top
    out = apply_f(empty_event(toy), spec2(), top)
    assert out == nowhere(toy, ("a", "b"))


def test_apply_f_monotone(toy, rng):
    psi = random_event(rng, toy)
    s = random_spec(rng, ("a", "b"))
    for _ in range(20):
        x = random_tuple(rng, toy, ("a", "b"))
        y = x | random_tuple(rng, toy, ("a", "b"))
        assert apply_f(psi, s, x) <= apply_f(psi, s, y)


def test_apply_g_unconstrained_pairs(toy, rng):
    s = TimingSpec(("a", "b"), {("a", "b"): INF, ("b", "a"): INF})
    psi = random_event(rng, toy)
    x = random_tuple(rng, toy, ("a", "b"))
    out = apply_g(psi, s, x)
    assert out["a"] == knows("a", psi)
    assert out["b"] == knows("b", psi)
    assert apply_g(empty_event(toy), spec2(), x) == nowhere(toy, ("a", "b"))


def test_apply_g_meet_commutation(toy, rng):
    s = random_spec(rng, ("a", "b"))
    psi = random_event(rng, toy)
    for _ in range(20):
        x = random_tuple(rng, toy, ("a", "b"))
        y = random_tuple(rng, toy, ("a", "b"))
        lhs = apply_g(psi, s, x & y)
        rhs = apply_g(psi, s, x) & apply_g(psi, s, y)
        assert lhs == rhs


# -- gfp ---------------------------------------------------------------------


def test_gfp_identity_and_constant(toy):
    top = EventTuple.top(toy, ("a", "b"))
    bot = nowhere(toy, ("a", "b"))
    assert gfp(lambda x: x, top).value == top
    assert gfp(lambda x: bot, top).value == bot


def test_gfp_rejects_non_monotone(toy):
    top = EventTuple.top(toy, ("a", "b"))
    bot = nowhere(toy, ("a", "b"))

    def flip(x):
        return bot if x == top else top

    with pytest.raises(InternalConsistencyError):
        gfp(flip, top)


def test_generic_oracle_trivials():
    u = random_universe(np.random.default_rng(1), n_agents=2, max_runs=1, max_times=3)
    top = EventTuple.top(u, u.agents)
    bot = nowhere(u, u.agents)
    assert gfp_bruteforce_oracle(lambda x: x, u, u.agents, guard_bits=8) == top
    assert gfp_bruteforce_oracle(lambda x: bot, u, u.agents, guard_bits=8) == bot


def test_gfp_agrees_with_generic_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_universe(rng, n_agents=2, bit_budget=10, max_runs=2, max_times=3)
        psi = random_event(rng, u)
        s = random_spec(rng, u.agents)
        xi = timely_ck(psi, s)
        oracle = gfp_bruteforce_oracle(
            lambda x: apply_f(psi, s, x), u, u.agents, guard_bits=10
        )
        assert xi == oracle


def test_oracle_guard():
    u = random_universe(np.random.default_rng(0), n_agents=2, max_runs=3, max_times=4)
    with pytest.raises(SizeGuardExceeded):
        gfp_bruteforce_oracle(lambda x: x, u, u.agents, guard_bits=4)


def test_packed_oracle_matches_engine(toy, rng):
    for _ in range(8):
        psi = random_event(rng, toy)
        s = random_spec(rng, ("a", "b"))
        assert timely_ck_oracle(psi, s) == timely_ck(psi, s)


# -- timely common knowledge -------------------------------------------------------


def test_timely_ck_empty_is_bottom(toy):
    assert timely_ck(empty_event(toy), spec2()) == nowhere(toy, ("a", "b"))
    assert timely_ck_g(empty_event(toy), spec2()) == nowhere(toy, ("a", "b"))


def test_timely_ck_single_run_full(single_run):
    # nonnegative windows stay satisfiable inside the horizon: nothing shrinks
    xi = timely_ck(Event.full(single_run), spec2(1, 0))
    assert xi == EventTuple.top(single_run, ("a", "b"))
    # a hard negative window cuts early times off coordinate a
    xi = timely_ck(Event.full(single_run), spec2(-2, 2))
    assert xi["a"] == Event.from_json_list(single_run, [["r0", 2], ["r0", 3]])
    oracle = timely_ck_oracle(Event.full(single_run), spec2(-2, 2))
    assert xi == oracle


def test_timely_ck_monotone_in_psi(toy, rng):
    s = random_spec(rng, ("a", "b"))
    for _ in range(10):
        psi = random_event(rng, toy)
        phi = psi | random_event(rng, toy)
        assert timely_ck(psi, s) <= timely_ck(phi, s)


def test_timely_ck_basic_properties(toy, rng):
    from timelyck.events import is_local

    for _ in range(10):
        psi = random_event(rng, toy)
        s = random_spec(rng, ("a", "b"))
        xi = timely_ck(psi, s)
        assert xi <= EventTuple(toy, {"a": psi, "b": psi})
        assert apply_f(psi, s, xi) == xi
        for agent in ("a", "b"):
            assert is_local(agent, xi[agent])


def test_timely_ck_iteration_trace(toy):
    res = timely_ck_info(Event.full(toy), spec2())
    assert res.iterations >= 1
    assert res.trace[0] == {"a": 8, "b": 8}


def _apply_f_by_within(psi, spec, x):
    """The window map composed event by event from `within` and `knows`."""
    coords = {}
    for i in spec.agents:
        body = psi
        for j in spec.agents:
            if j == i:
                continue
            body = body & within(x[j], spec.delta(i, j))
        coords[i] = knows(i, body)
    return EventTuple(psi.universe, coords)


def test_array_descent_matches_within_composed_map():
    # the stacked first-instant descent gives the value, iteration count and
    # trace of the generic gfp over the map composed from `within`, and of the
    # generic gfp over `apply_f`
    rng = np.random.default_rng(41)
    seen = dict(asynchronous=0, inf_pair=0, beyond_horizon=0, huge=0, empty_psi=0,
                emptied_run=0)
    for _ in range(400):
        k = int(rng.integers(2, 5))
        u = random_universe(
            rng, n_agents=k, max_runs=4, max_times=5, synchronous=rng.random() < 0.6
        )
        H = u.horizon
        delta = {}
        for i in u.agents:
            for j in u.agents:
                if i != j:
                    roll = rng.random()
                    if roll < 0.15:
                        delta[(i, j)] = INF
                    elif roll < 0.2:
                        delta[(i, j)] = int(rng.choice([-1, 1])) * 10**30
                    else:
                        delta[(i, j)] = int(rng.integers(-H - 3, H + 4))
        spec = TimingSpec(u.agents, delta)
        psi = empty_event(u) if rng.random() < 0.1 else random_event(rng, u)
        got = timely_ck_info(psi, spec)
        top = EventTuple.top(u, u.agents)
        for step in (lambda x: _apply_f_by_within(psi, spec, x), lambda x: apply_f(psi, spec, x)):
            want = gfp(step, top)
            assert got.value == want.value
            assert (got.iterations, got.trace) == (want.iterations, want.trace)
        x = random_tuple(rng, u, u.agents)
        image = apply_f(psi, spec, x)
        assert image == _apply_f_by_within(psi, spec, x)
        for i in u.agents:  # and with the definition-direct evaluators
            body = naive.point_set(psi)
            for j in spec.agents:
                if j == i:
                    continue
                body &= naive.n_within(u, naive.point_set(x[j]), spec.delta(i, j))
            assert naive.point_set(image[i]) == naive.n_knows(u, i, body)

        finite = [d for d in delta.values() if d != INF]
        seen["asynchronous"] += not u.synchronous
        seen["inf_pair"] += len(finite) < len(delta)
        seen["beyond_horizon"] += any(abs(d) > H for d in finite)
        seen["huge"] += any(abs(d) == 10**30 for d in finite)
        seen["empty_psi"] += not psi.table.any()
        seen["emptied_run"] += any(
            psi.table[r].any() and not got.value[a].table[r].any()
            for a in u.agents
            for r in range(u.n_runs)
        )
    assert all(n >= 10 for n in seen.values()), seen
    assert all(seen[key] >= 20 for key in ("asynchronous", "inf_pair", "huge", "empty_psi")), seen


def test_array_descent_rejects_a_step_that_does_not_descend(toy, monkeypatch):
    import timelyck.fixpoint as fixpoint

    # complementing empties the full tuple, then refills the empty one
    monkeypatch.setattr(fixpoint, "_window_step", lambda x, *operands: ~x)
    with pytest.raises(InternalConsistencyError, match="did not descend"):
        timely_ck_info(Event.full(toy), spec2())


def test_descent_rejects_a_step_that_moves_points_but_keeps_sizes(toy):
    # sizes that repeat end the descent only because every accepted step lies
    # inside its predecessor; a step that moves each coordinate's points one
    # time later keeps the sizes and must still be refused
    start = EventTuple(toy, {a: Event(toy, np.eye(2, 4, dtype=bool)) for a in ("a", "b")})

    def later(x):
        return EventTuple(toy, {a: Event(toy, np.roll(x[a].table, 1, axis=1)) for a in x.agents})

    with pytest.raises(InternalConsistencyError, match="did not descend"):
        gfp(later, start)


def _apply_g_by_shift(psi, spec, x):
    """The exact-shift map composed event by event from `shift_exact` and `knows`."""
    coords = {}
    for i in spec.agents:
        body = psi
        for j in spec.agents:
            if j == i:
                continue
            d = spec.delta(i, j)
            if d != INF:
                body = body & shift_exact(x[j], d)
        coords[i] = knows(i, body)
    return EventTuple(psi.universe, coords)


def test_shift_descent_matches_shift_composed_map():
    # the stacked exact-shift descent gives the value, iteration count and
    # trace of the generic gfp over the map composed from `shift_exact`
    rng = np.random.default_rng(43)
    seen = dict(asynchronous=0, inf_pair=0, beyond_horizon=0, huge=0, empty_psi=0)
    for _ in range(400):
        k = int(rng.integers(2, 5))
        u = random_universe(
            rng, n_agents=k, max_runs=4, max_times=5, synchronous=rng.random() < 0.6
        )
        H = u.horizon
        delta = {}
        for i in u.agents:
            for j in u.agents:
                if i != j:
                    roll = rng.random()
                    if roll < 0.15:
                        delta[(i, j)] = INF
                    elif roll < 0.2:
                        delta[(i, j)] = int(rng.choice([-1, 1])) * 10**30
                    else:
                        delta[(i, j)] = int(rng.integers(-H - 3, H + 4))
        spec = TimingSpec(u.agents, delta)
        psi = empty_event(u) if rng.random() < 0.1 else random_event(rng, u)
        got = timely_ck_g_info(psi, spec)
        want = gfp(lambda x: _apply_g_by_shift(psi, spec, x), EventTuple.top(u, u.agents))
        assert got.value == want.value
        assert (got.iterations, got.trace) == (want.iterations, want.trace)
        x = random_tuple(rng, u, u.agents)
        image = apply_g(psi, spec, x)
        assert image == _apply_g_by_shift(psi, spec, x)
        for i in u.agents:  # and with the definition-direct evaluators
            body = naive.point_set(psi)
            for j in spec.agents:
                if j == i:
                    continue
                if spec.delta(i, j) != INF:
                    body &= naive.n_shift_exact(u, naive.point_set(x[j]), spec.delta(i, j))
            assert naive.point_set(image[i]) == naive.n_knows(u, i, body)

        finite = [d for d in delta.values() if d != INF]
        seen["asynchronous"] += not u.synchronous
        seen["inf_pair"] += len(finite) < len(delta)
        seen["beyond_horizon"] += any(abs(d) > H for d in finite)
        seen["huge"] += any(abs(d) == 10**30 for d in finite)
        seen["empty_psi"] += not psi.table.any()
    assert all(n >= 10 for n in seen.values()), seen


def test_shift_descent_rejects_a_step_that_does_not_descend(toy, monkeypatch):
    import timelyck.fixpoint as fixpoint

    monkeypatch.setattr(fixpoint, "_shift_step", lambda x, *operands: ~x)
    with pytest.raises(InternalConsistencyError, match="did not descend"):
        timely_ck_g_info(Event.full(toy), spec2())


def test_induction_rule(toy, rng):
    psi = random_event(rng, toy)
    s = random_spec(rng, ("a", "b"))
    xi = timely_ck(psi, s)
    assert check_induction_rule(psi, s, xi)
    assert check_induction_rule(psi, s, nowhere(toy, ("a", "b")))


# -- degenerate variants -----------------------------------------------------------


def test_event_gfp_rejects_a_step_that_does_not_descend(toy):
    from timelyck.fixpoint import event_gfp

    assert event_gfp(lambda x: x, toy, "a") == Event.full(toy)
    with pytest.raises(InternalConsistencyError, match="did not descend"):
        event_gfp(lambda x: ~x, toy, "a")


def test_eventual_ck_full(toy):
    assert eventual_ck(("a", "b"), Event.full(toy)) == Event.full(toy)


def test_epsilon_ck_zero_is_common_knowledge(toy, rng):
    for _ in range(10):
        psi = random_event(rng, toy)
        assert epsilon_ck(("a", "b"), psi, 0) == common_knowledge(("a", "b"), psi)


def test_timely_ck_unbounded_matches_eventual(toy, rng):
    s = TimingSpec(("a", "b"), {("a", "b"): INF, ("b", "a"): INF})
    for _ in range(10):
        psi = random_event(rng, toy)
        xi = timely_ck(psi, s)
        ck = eventual_ck(("a", "b"), psi)
        for agent in ("a", "b"):
            assert xi[agent] == knows(agent, psi & ck)


def _event_tarski_gfp(u, step):
    # join of all post-fixed event masks; independent of any iteration
    import numpy as np

    def from_mask(mask):
        tbl = np.zeros(u.n_points, dtype=bool)
        for b in range(u.n_points):
            if mask >> b & 1:
                tbl[b] = True
        return Event(u, tbl.reshape(u.n_runs, u.n_times))

    def to_mask(e):
        out = 0
        for r, t in zip(*np.nonzero(e.table)):
            out |= 1 << (r * u.n_times + int(t))
        return out

    join = 0
    for mask in range(1 << u.n_points):
        if mask & ~to_mask(step(from_mask(mask))) == 0:
            join |= mask
    return from_mask(join)


def _window_everyone_knows_by_loops(agents, e, eps):
    """Window starts where every agent knows `e` somewhere in the window, then
    the points those windows cover, offset by offset and start by start."""
    u = e.universe
    eps = min(eps, u.horizon)
    n_starts = u.n_times - eps
    window_ok = np.ones((u.n_runs, n_starts), dtype=bool)
    for i in agents:
        k = knows(i, e).table
        hit = np.zeros((u.n_runs, n_starts), dtype=bool)
        for off in range(eps + 1):
            hit |= k[:, off : off + n_starts]
        window_ok &= hit
    out = np.zeros((u.n_runs, u.n_times), dtype=bool)
    for a in range(n_starts):
        out[:, a : a + eps + 1] |= window_ok[:, a : a + 1]
    return Event(u, out)


def test_window_everyone_knows_matches_the_window_loops():
    from timelyck.fixpoint import window_everyone_knows

    rng = np.random.default_rng(59)
    seen = dict(asynchronous=0, three_agents=0, wide=0)
    for _ in range(300):
        synchronous = rng.random() < 0.7
        u = random_universe(rng, n_agents=int(rng.integers(1, 4)), max_runs=3, max_times=5,
                            synchronous=synchronous)
        e, eps = random_event(rng, u), int(rng.integers(0, 8))
        want = _window_everyone_knows_by_loops(u.agents, e, eps)
        assert window_everyone_knows(u.agents, e, eps) == want
        seen["asynchronous"] += not synchronous
        seen["three_agents"] += len(u.agents) == 3
        seen["wide"] += eps >= u.horizon
    assert min(seen.values()) >= 20, seen
    with pytest.raises(InvariantViolation):
        window_everyone_knows(u.agents, e, -1)
    with pytest.raises(InvariantViolation):
        window_everyone_knows(u.agents, e, INF)


def test_variant_fixed_points_match_tarski_sweep():
    import numpy as np

    from timelyck.events import eventually
    from timelyck.fixpoint import window_everyone_knows

    rng = np.random.default_rng(31)
    checked = 0
    while checked < 12:
        u = random_universe(rng, n_agents=2, max_runs=3, max_times=4, bit_budget=16)
        if u.n_points > 8:
            continue
        psi = random_event(rng, u)
        eps = int(rng.integers(0, 4))
        got = epsilon_ck(u.agents, psi, eps)
        want = _event_tarski_gfp(
            u, lambda x: window_everyone_knows(u.agents, psi & x, eps)
        )
        assert got == want

        def ev_step(x):
            out = Event.full(u)
            for i in u.agents:
                out = out & eventually(knows(i, psi & x))
            return out

        assert eventual_ck(u.agents, psi) == _event_tarski_gfp(u, ev_step)
        checked += 1
