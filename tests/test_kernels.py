"""The vectorized sweeps must agree with their definition-direct references."""

import numpy as np
import pytest

from timelyck import _kernels
from timelyck.errors import InternalConsistencyError
from timelyck.events import within
from timelyck.fixpoint import TimingSpec, timely_ck
from timelyck.naive import n_scan_solutions
from timelyck.optimality import build_strategy_model
from timelyck.packed import PackedSpace
from timelyck.sampling import random_event, random_spec, random_universe
from timelyck.scenarios import generate_system, make_scenario
from timelyck.universe import INF


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
