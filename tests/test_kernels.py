"""The vectorized sweeps must agree with their definition-direct references."""

import tracemalloc

import numpy as np
import pytest

from timelyck import _kernels
from timelyck.errors import InternalConsistencyError
from timelyck.events import within
from timelyck.fixpoint import TimingSpec, timely_ck
from timelyck.optimality import build_strategy_model
from timelyck.packed import PackedSpace
from timelyck.sampling import random_event, random_spec, random_universe
from timelyck.scenarios import generate_system, make_scenario
from timelyck.universe import INF

from naive_reference import n_scan_solutions


def test_dispatch_matches_engine_fixed_point():
    # the packed tuple sweep equals the engine's fixed point
    rng = np.random.default_rng(17)
    from timelyck.fixpoint import timely_ck_oracle

    for _ in range(5):
        u = random_universe(rng, n_agents=2, bit_budget=14, max_runs=2, max_times=3)
        spec = random_spec(rng, u.agents)
        psi = random_event(rng, u)
        assert timely_ck_oracle(psi, spec) == timely_ck(psi, spec)


def test_within_tables_match_within_on_every_mask():
    # universes of one shape share the singleton images; every table entry
    # must still be within() of the event the mask stands for
    rng = np.random.default_rng(23)
    for _ in range(12):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=4)
        space = PackedSpace(u)
        for d in (-u.horizon - 2, -1, 0, 1, u.horizon + 3, 10**30, INF):
            table = space.within_table(d)
            for mask in range(1 << space.n_bits):
                assert table[mask] == space.pack(within(space.unpack(mask), d))


def test_packed_descent_refuses_a_map_that_climbs(toy):
    # knows maps the full mask to 0 and every other mask to full, so the
    # descent from the top drops to 0 and then climbs back
    space = PackedSpace(toy)
    spec = TimingSpec(("a", "b"), {("a", "b"): 1, ("b", "a"): 1})
    within_rows, pair_index, _ = space.map_tables(spec)
    knows = np.full((2, 1 << space.n_bits), space.full_mask, dtype=np.int64)
    knows[:, space.full_mask] = 0
    with pytest.raises(InternalConsistencyError, match="did not descend"):
        space.timely_ck_masks([space.full_mask], within_rows, pair_index, knows)


def _assert_scans_agree(lo, hi, constraints, n_vals, guard):
    got = _kernels.scan_solutions(lo, hi, constraints, n_vals, guard)
    want = n_scan_solutions(lo, hi, constraints, n_vals, guard)
    assert (int(got[0]), bool(got[3])) == (want[0], want[3]), (lo, hi, constraints, guard)
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    return want


def test_solution_scan_matches_depth_first_reference():
    rng = np.random.default_rng(13)
    seen = dict(infeasible=0, self_loop=0, contradiction=0, unconstrained=0, overflow=0,
                solutions=0)
    for _ in range(400):
        V = int(rng.integers(0, 6))
        lo = rng.integers(0, 4, size=V)
        hi = lo + rng.integers(-1, 4, size=V)  # some domains are empty
        constraints = [
            (int(rng.integers(V)), int(rng.integers(V)), int(rng.integers(-2, 3)))
            for _ in range(int(rng.integers(0, 7)) if V else 0)
        ]
        guard = 10**6 if rng.random() < 0.6 else int(rng.integers(1, 40))
        count, _, _, overflowed = _assert_scans_agree(lo, hi, constraints, 8, guard)
        seen["overflow"] += overflowed
        seen["infeasible"] += not overflowed and count == 0
        seen["solutions"] += count > 0
        seen["self_loop"] += any(p == q and c >= 0 for p, q, c in constraints)
        seen["contradiction"] += any(p == q and c < 0 for p, q, c in constraints)
        seen["unconstrained"] += V > 0 and not constraints
    assert all(n >= 10 for n in seen.values()), seen


def _candidates(lo, hi, constraints):
    """Per variable, the figure the guard bounds: the consistent assignments
    of the variables before it, times its domain size."""
    out = []
    for v in range(len(lo)):
        before = [(p, q, c) for p, q, c in constraints if max(p, q) < v]
        count = n_scan_solutions(lo[:v], hi[:v], before, 8, 2**62)[0]
        out.append(count * max(0, int(hi[v] - lo[v]) + 1))
    return out


def test_free_suffix_counted_by_intervals_matches_depth_first_reference():
    # every constraint joins a variable to one at or before `split`, so the
    # variables after it (at least two of them) range over intervals the
    # prefix fixes; the sweep counts them without listing the solutions
    rng = np.random.default_rng(29)
    seen = dict(suffix_overflow=0, suffix_empty=0, unconstrained=0, no_variables=0,
                solutions=0)
    for _ in range(300):
        V = int(rng.choice([0, 2, 3, 4, 5, 6, 7]))
        split = int(rng.integers(-1, V - 2)) if V else -1
        lo = rng.integers(0, 4, size=V)
        hi = lo + rng.integers(-1, 4, size=V)  # some domains are empty
        constraints = []
        if split >= 0:
            for _ in range(int(rng.integers(1, 8))):
                a, b = int(rng.integers(0, split + 1)), int(rng.integers(0, V))
                constraints.append((a, b) if rng.random() < 0.5 else (b, a))
            constraints = [(p, q, int(rng.integers(-2, 3))) for p, q in constraints]
        if V and rng.random() < 0.3:  # t[v] <= t[v] + c on some variable
            v = int(rng.integers(0, V))
            constraints.append((v, v, int(rng.integers(-1, 2))))
        real_split = max((min(p, q) for p, q, _ in constraints if p != q), default=-1)
        assert real_split <= V - 3 or V == 0
        need = _candidates(lo, hi, constraints)
        in_prefix, anywhere = max(need[: real_split + 1], default=1), max(need, default=1)
        if rng.random() < 0.3 and in_prefix < anywhere:  # passes the prefix, not the suffix
            guard = int(rng.integers(in_prefix, anywhere))
        else:
            guard = 10**6 if rng.random() < 0.6 else int(rng.integers(1, 200))
        count, _, _, overflowed = _assert_scans_agree(lo, hi, constraints, 8, guard)
        seen["suffix_overflow"] += overflowed and max(need[: real_split + 1], default=0) <= guard
        free = range(real_split + 1, V)
        seen["suffix_empty"] += any(
            lo[v] > hi[v] or (v, v) in {(p, q) for p, q, c in constraints if c < 0} for v in free
        )
        seen["unconstrained"] += V > 0 and not constraints
        seen["no_variables"] += V == 0
        seen["solutions"] += count > 0
    assert all(n >= 10 for n in seen.values()), seen


def test_guard_above_the_int64_range_acts_as_its_maximum():
    # 21 free variables of 21 values have 21^21 > 2^63 assignments; the
    # interval products would wrap in int64, so the sweep overflows instead
    count, _, _, overflowed = _kernels.scan_solutions([0] * 21, [20] * 21, [], 21, 10**30)
    assert (int(count), bool(overflowed)) == (0, True)
    # below the range every count stays exact
    count, _, _, overflowed = _kernels.scan_solutions([0] * 13, [20] * 13, [], 21, 10**30)
    assert (int(count), bool(overflowed)) == (21**13, False)


def test_solution_scan_memory_stays_below_the_solution_count():
    # 147,690 solutions, the shape of the benchmark's enumeration-4x17: the
    # last agent's variables are counted, not listed, so the sweep's peak
    # allocation is a few bytes per solution; one int64 row per solution
    # would take several times the bound
    agents = tuple("abcd")
    spec = TimingSpec(agents, {(i, j): 3 for i in agents for j in agents if i != j})
    inst = generate_system(make_scenario(agents, spec, obs_delay=(0, 1)))
    model = build_strategy_model(inst)
    n_vals = inst.universe.horizon + 1
    tracemalloc.start()
    try:
        count, _, _, overflowed = _kernels.scan_solutions(
            model.lo, model.hi, model.constraints, n_vals, 10**6
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (int(count), bool(overflowed)) == (147_690, False)
    assert peak < 16 * count, peak / count


def test_self_constraint_with_negative_bound_is_infeasible():
    # t[0] <= t[0] - 1 holds for no value, t[0] <= t[0] + 1 for every value
    for scan in (_kernels.scan_solutions, n_scan_solutions):
        count, mins, attained, overflowed = scan([0], [2], [(0, 0, -1)], 3, 10)
        assert (int(count), bool(overflowed), attained.any()) == (0, False, False)
        count, mins, attained, overflowed = scan([0], [2], [(0, 0, 1)], 3, 10)
        assert (int(count), int(mins[0]), bool(overflowed)) == (3, 0, False)


def test_solution_scan_matches_reference_on_strategy_models():
    rng = np.random.default_rng(19)
    for _ in range(12):
        k = int(rng.integers(2, 4))
        agents = tuple("abc"[:k])
        delta = {
            (i, j): (INF if rng.random() < 0.3 else int(rng.integers(-1, 3)))
            for i in agents
            for j in agents
            if i != j
        }
        inst = generate_system(
            make_scenario(agents, TimingSpec(agents, delta), obs_delay=(0, 1))
        )
        model = build_strategy_model(inst)
        n_vals = inst.universe.horizon + 1
        _assert_scans_agree(model.lo, model.hi, model.constraints, n_vals, 10**6)
        _assert_scans_agree(model.lo, model.hi, model.constraints, n_vals, 50)
