"""The whole-array routes of the oracle layer against literal references.

Each reference below is the per-point or per-combination loop the array code
replaced, kept here so that the two can be compared on random inputs: the
sampled universes draw by draw, the packed knows tables against
`naive_reference.n_knows`, the grid tuple sweep against
`gfp_bruteforce_oracle`, the ensemble enumeration against its old loop, and
the solution check on the run table against the same check on the response
ensemble's events.
"""

import ast
import json
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import timelyck
from timelyck import _kernels
from timelyck import coordination as coord
from timelyck.coordination import is_delta_coordinated, verify_greatest_coordinated_ensemble
from timelyck.errors import InvariantViolation, SizeGuardExceeded
from timelyck.events import Event, is_local
from timelyck.fixpoint import (
    EventTuple,
    TimingSpec,
    apply_f,
    timely_ck,
    timely_ck_oracle,
    tuple_union,
)
from timelyck.packed import PackedSpace
from timelyck.scenarios import (
    ProtocolResult,
    SolutionReport,
    generate_system,
    make_scenario,
    solvability,
    synthesize_optimal,
    verify_solution,
)
from timelyck.sampling import AGENT_POOL, random_event, random_spec, random_tuple, random_universe
from timelyck.universe import INF, Universe, clamp_delta, window_reach

import naive_reference as naive
from generic_gfp import gfp_bruteforce_oracle

# -- sampled universes ----------------------------------------------------------


def _universe_point_by_point(rng, *, n_agents=2, max_runs=3, max_times=4, bit_budget=None,
                             recall=False, synchronous=True):
    """One draw per (agent, run, time), states interned by `Universe.__init__`."""
    agents = AGENT_POOL[:n_agents]
    while True:
        n_runs = int(rng.integers(1, max_runs + 1))
        n_times = int(rng.integers(2, max_times + 1))
        if bit_budget is None or n_runs * n_times * n_agents <= bit_budget:
            break
    runs = tuple(f"r{k}" for k in range(n_runs))
    states = {}
    if recall:
        for agent in agents:
            for run in runs:
                obs = rng.integers(0, 2, size=n_times)
                for t in range(n_times):
                    states[(agent, run, t)] = (t, tuple(int(x) for x in obs[:t]))
    else:
        n_symbols = int(rng.integers(1, 3))
        for agent in agents:
            for run in runs:
                for t in range(n_times):
                    sym = int(rng.integers(0, n_symbols + 1))
                    states[(agent, run, t)] = (t, sym) if synchronous else sym
    return Universe(agents, runs, n_times - 1, states, synchronous=synchronous)


SAMPLER_SETTINGS = [
    dict(),
    dict(n_agents=3, bit_budget=16, max_runs=3, max_times=4),
    dict(n_agents=2, max_runs=2, max_times=3),
    dict(recall=True),
    dict(n_agents=3, recall=True, max_runs=4, max_times=5),
    dict(synchronous=False),
    dict(n_agents=4, synchronous=False, bit_budget=20),
    dict(recall=True, max_runs=2, max_times=80),  # histories longer than an int64
    dict(n_agents=3, bit_budget=6),  # only the smallest universe fits
]


def test_one_draw_universe_matches_point_by_point_draws():
    for seed in range(1400):
        settings = SAMPLER_SETTINGS[seed % len(SAMPLER_SETTINGS)]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        u = random_universe(rng, **settings)
        ref = _universe_point_by_point(ref_rng, **settings)
        assert rng.bit_generator.state == ref_rng.bit_generator.state, (seed, settings)
        assert (u.agents, u.runs, u.horizon, u.synchronous) == (
            ref.agents, ref.runs, ref.horizon, ref.synchronous
        )
        for agent in u.agents:
            assert np.array_equal(u.state_ids(agent), ref.state_ids(agent)), (seed, settings)
            for run in u.runs:
                for t in range(u.n_times):
                    label, ref_label = u.state_label(agent, run, t), ref.state_label(agent, run, t)
                    assert label == ref_label and repr(label) == repr(ref_label)
        assert u.to_json_dict() == ref.to_json_dict()


class _NoDraws:
    """A generator stand-in that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew rng.{name} before refusing the budget")


@pytest.mark.parametrize("n_agents, budget", [(1, 1), (2, 3), (3, 5), (2, 0)])
def test_a_budget_below_the_smallest_universe_is_refused_before_any_draw(n_agents, budget):
    # the sampler used to redraw sizes forever here
    with pytest.raises(InvariantViolation, match="bit budget"):
        random_universe(_NoDraws(), n_agents=n_agents, bit_budget=budget)


# -- packed tables ----------------------------------------------------------------


def test_packed_imports_nothing_from_fixpoint():
    # the package's __init__ imports every module, so the packed module is
    # imported under a bare package object that runs no __init__
    code = (
        "import json, sys, types\n"
        "pkg = types.ModuleType('timelyck')\n"
        f"pkg.__path__ = [{str(Path(timelyck.__file__).parent)!r}]\n"
        "sys.modules['timelyck'] = pkg\n"
        "import timelyck.packed\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('timelyck.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "timelyck.packed" in loaded
    assert "timelyck.fixpoint" not in loaded, loaded
    # nor inside a function body
    tree = ast.parse(Path(timelyck.packed.__file__).read_text())
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    imported |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "fixpoint" not in imported, imported


def _points(space, mask):
    n_times = space.universe.n_times
    return frozenset(divmod(b, n_times) for b in range(space.n_bits) if mask >> b & 1)


def test_every_knows_table_entry_matches_the_literal_evaluator():
    # per agent, and in the joint (k, 2^P) array with the agents reversed
    rng = np.random.default_rng(29)
    seen = {True: 0, False: 0}
    for case in range(40):
        synchronous = case % 2 == 0
        u = random_universe(rng, n_agents=2 + case % 3 // 2, bit_budget=16, max_runs=3,
                            max_times=4, synchronous=synchronous)
        seen[synchronous] += 1
        space = PackedSpace(u)
        order = u.agents[::-1]
        joint = space.knows_tables(order)
        assert joint.shape == (len(order), 1 << space.n_bits)
        for row, agent in enumerate(order):
            table = space.knows_table(agent)
            for mask in range(1 << space.n_bits):
                want = space._pack_pointset(naive.n_knows(u, agent, _points(space, mask)))
                assert table[mask] == want, (case, agent, mask)
                assert joint[row, mask] == want, (case, agent, mask)
    assert min(seen.values()) >= 20


def test_knows_table_blocks_do_not_change_it(monkeypatch):
    rng = np.random.default_rng(31)
    u = random_universe(rng, n_agents=2, bit_budget=24, max_runs=3, max_times=4)
    whole = {a: PackedSpace(u).knows_table(a) for a in u.agents}
    monkeypatch.setattr("timelyck.packed._KNOWS_ROWS", 5)
    for a in u.agents:
        assert np.array_equal(PackedSpace(u).knows_table(a), whole[a])


def test_unpack_inverts_pack():
    rng = np.random.default_rng(37)
    for _ in range(50):
        u = random_universe(rng, n_agents=2, max_runs=3, max_times=4)
        space = PackedSpace(u)
        events = [random_event(rng, u) for _ in range(3)]
        masks = [space.pack(e) for e in events]
        for e, mask in zip(events, masks):
            assert mask == sum(1 << (r * u.n_times + t) for r, t in naive.point_set(e))
            assert space.unpack(mask) == e
        # several masks at once, in their order
        assert np.array_equal(space.tables(np.array(masks)), np.stack([e.table for e in events]))


# -- the grid tuple sweep ---------------------------------------------------------


def _oracle_case(rng, n_agents, bit_budget):
    u = random_universe(rng, n_agents=n_agents, bit_budget=bit_budget, max_runs=3, max_times=3)
    spec = random_spec(rng, u.agents)
    kind = rng.integers(4)
    if kind == 1:  # huge finite bounds on some pairs
        delta = {p: (10**30 if rng.random() < 0.5 else -(10**30)) if rng.random() < 0.5
                 else spec.delta(*p) for p in spec.pairs()}
        spec = TimingSpec(spec.agents, delta)
    psi = Event.empty(u) if kind == 2 else random_event(rng, u)
    return u, spec, psi, kind


def test_tuple_sweep_matches_bruteforce_oracle():
    rng = np.random.default_rng(41)
    seen = dict(two=0, three=0, inf=0, huge=0, empty=0)
    for case in range(120):
        k = 2 if case % 3 else 3
        u, spec, psi, kind = _oracle_case(rng, k, 8 if k == 2 else 9)
        want = gfp_bruteforce_oracle(lambda x: apply_f(psi, spec, x), u, spec.agents)
        assert timely_ck_oracle(psi, spec) == want, case
        seen["two" if k == 2 else "three"] += 1
        seen["inf"] += any(spec.delta(*p) == INF for p in spec.pairs())
        seen["huge"] += kind == 1
        seen["empty"] += kind == 2
    assert min(seen.values()) >= 20, seen


def test_map_tables_rows_are_each_pairs_within_table():
    rng = np.random.default_rng(61)
    seen = dict(two=0, three=0, inf=0, huge=0, shared_row=0, reach_merged=0)
    for case in range(80):
        k = 2 if case % 2 else 3
        u, spec, _, kind = _oracle_case(rng, k, 6 * k)
        space = PackedSpace(u)
        within, pair_index, knows = space.map_tables(spec)
        keys = {window_reach(spec.delta(*p), u.horizon) for p in spec.pairs()}
        assert within.shape == (len(keys), 1 << space.n_bits)
        assert len(np.unique(within, axis=0)) == len(keys), case  # no row twice
        assert pair_index.shape == (k, k) and knows.shape == (k, 1 << space.n_bits)
        for ai, i in enumerate(spec.agents):
            assert np.array_equal(knows[ai], space.knows_table(i)), (case, i)
            for aj, j in enumerate(spec.agents):
                if ai != aj:
                    want = space.within_table(spec.delta(i, j))
                    assert np.array_equal(within[pair_index[ai, aj]], want), (case, i, j)
        seen["two" if k == 2 else "three"] += 1
        seen["inf"] += any(spec.delta(*p) == INF for p in spec.pairs())
        seen["huge"] += kind == 1
        seen["shared_row"] += len(keys) < len(spec.pairs())
        # bounds of H, H+1 and inf are distinct shifts but one window
        clamped = {clamp_delta(spec.delta(*p), u.horizon) for p in spec.pairs()}
        seen["reach_merged"] += len(keys) < len(clamped)
    assert min(seen.values()) >= 10, seen


def _sweep_operands(rng, k, P):
    n = 1 << P
    within = rng.integers(0, n, size=(3, n)) | rng.integers(0, n, size=(3, n))
    knows = rng.integers(0, n, size=(k, n)) & rng.integers(0, n, size=(k, n))
    return P, k, int(rng.integers(0, n)), within, rng.integers(0, 3, size=(k, k)), knows


def _universe_operands(rng):
    u = random_universe(rng, n_agents=int(rng.integers(2, 4)), bit_budget=16)
    spec, psi = random_spec(rng, u.agents), random_event(rng, u)
    space, k = PackedSpace(u), len(u.agents)
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    within = np.stack([space.within_table(spec.delta(u.agents[i], u.agents[j])) for i, j in pairs])
    pair_index = np.zeros((k, k), dtype=np.int64)
    for n, (i, j) in enumerate(pairs):
        pair_index[i, j] = n
    knows = np.stack([space.knows_table(a) for a in u.agents])
    return space.n_bits, k, space.pack(psi), within, pair_index, knows


@pytest.mark.parametrize("block", [1, 8, 64, 1 << 10])
def test_tuple_sweep_is_the_same_in_any_block_size(monkeypatch, block):
    # small blocks take the first coordinate's masks a few rows at a time
    rng = np.random.default_rng(43)
    cases = [_sweep_operands(rng, k, P) for k, P in [(2, 3), (2, 5), (3, 3), (3, 4), (4, 2)] * 4]
    cases += [_universe_operands(rng) for _ in range(40)]
    # x_1 != 0 passes only beside x_0 = 11: the last row of the first coordinate
    one_class = np.array([0, 0, 0, 3])
    cases.append((2, 2, 3, np.array([[3, 3, 3, 3], [0, 1, 2, 3]]), np.array([[0, 0], [1, 0]]),
                  np.array([[3, 3, 3, 3], one_class])))
    whole = [_kernels.scan_postfixed_join(*c) for c in cases]
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    for c, want in zip(cases, whole):
        assert np.array_equal(_kernels.scan_postfixed_join(*c), want)


def _join_tuple_by_tuple(P, k, psi, within, pair_index, knows):
    join = [0] * k
    for packed in range(1 << (P * k)):
        x = [(packed >> (P * j)) & ((1 << P) - 1) for j in range(k)]
        below = True
        for i in range(k):
            body = psi
            for j in range(k):
                if j != i:
                    body &= int(within[pair_index[i, j]][x[j]])
            below = below and x[i] & ~int(knows[i][body]) == 0
        if below:
            join = [a | b for a, b in zip(join, x)]
    return join


def test_tuple_sweep_matches_tuple_by_tuple_join_on_random_tables():
    rng = np.random.default_rng(47)
    for k, P in [(1, 4), (2, 2), (2, 4), (3, 2), (3, 3)] * 4:
        c = _sweep_operands(rng, k, P)
        assert _kernels.scan_postfixed_join(*c).tolist() == _join_tuple_by_tuple(*c)


# The parent grid-free sweep, decoding 2^13 packed tuples per block, peaked at
# these many traced bytes for the same calls (numpy 2.4, P * k = 20).
PEAK_BEFORE_GRID = {(2, 10): 534_688, (4, 5): 797_032, (5, 4): 928_216}


@pytest.mark.parametrize("k, P", sorted(PEAK_BEFORE_GRID))
def test_tuple_sweep_memory_stays_bounded(k, P):
    import tracemalloc

    operands = _sweep_operands(np.random.default_rng(1), k, P)
    tracemalloc.start()
    try:
        _kernels.scan_postfixed_join(*operands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BEFORE_GRID[(k, P)], peak


# -- the ensemble enumeration --------------------------------------------------------


def _literal_class_masks(u, agent):
    ids = u.state_ids(agent)
    return [
        sum(1 << (int(r) * u.n_times + int(t)) for r, t in zip(*np.nonzero(ids == sid)))
        for sid in range(u.n_state_classes(agent))
    ]


def _pair_within_tables(space, spec):
    return {(i, j): space.within_table(spec.delta(i, j)) for i, j in spec.pairs()}


def _scalar_descent(space, psi_mask, spec):
    within = _pair_within_tables(space, spec)
    knows = {i: space.knows_table(i) for i in spec.agents}
    xs = tuple(space.full_mask for _ in spec.agents)
    for _ in range(space.n_bits * len(spec.agents) + 2):
        nxt = []
        for i in spec.agents:
            body = psi_mask
            for aj, j in enumerate(spec.agents):
                if j != i:
                    body &= int(within[i, j][xs[aj]])
            nxt.append(int(knows[i][body]))
        if tuple(nxt) == xs:
            return xs
        xs = tuple(nxt)
    raise SizeGuardExceeded("packed fixed-point iteration failed to stabilize")


def _first_points_by_bits(space, mask, agent, cap=4):
    """A counterexample's first `cap` points, decoded from the mask bit by bit."""
    u = space.universe
    out = []
    for b in range(space.n_bits):
        if mask >> b & 1 and len(out) < cap:
            out.append({"agent": agent, "run": u.runs[b // u.n_times], "time": b % u.n_times})
    return out


def _report_by_loop(psi, spec, candidate, engine_samples, seed, engine_calls):
    """The per-combination loop; returns (parts, counterexamples, enumerated)
    and appends each union re-checked against the engine to `engine_calls`."""
    u = psi.universe
    xi = candidate if candidate is not None else timely_ck(psi, spec)
    parts, cex = {}, {}
    parts["fixed_point"] = apply_f(psi, spec, xi) == xi
    local_ok = all(is_local(a, xi[a]) for a in spec.agents)
    parts["coordinated_ensemble"] = local_ok and is_delta_coordinated(xi, spec)
    parts["union_below_psi"] = tuple_union(xi) <= psi

    space = PackedSpace(u)
    agents = spec.agents
    psi_mask = space.pack(psi)
    xi_masks = tuple(space.pack(xi[a]) for a in agents)
    per_agent = []
    for a in agents:
        classes = _literal_class_masks(u, a)
        unions = []
        for pick in range(1 << len(classes)):
            m = 0
            for c, cm in enumerate(classes):
                if pick >> c & 1:
                    m |= cm
            unions.append(m)
        per_agent.append(unions)

    greatest_ok = below_own_ck_ok = union_preserved_ok = True
    ck_cache, sampled = {}, []
    rng = np.random.default_rng(seed)
    enumerated = 0
    within = _pair_within_tables(space, spec)
    for combo in product(*per_agent):
        enumerated += 1
        coordinated = all(
            combo[a_i] & ~int(within[i, j][combo[a_j]]) == 0
            for a_i, i in enumerate(agents)
            for a_j, j in enumerate(agents)
            if a_i != a_j
        )
        if not coordinated:
            continue
        union_mask = 0
        for m in combo:
            union_mask |= m
        if union_mask & ~psi_mask == 0:
            for a_i, agent in enumerate(agents):
                if combo[a_i] & ~xi_masks[a_i]:
                    if greatest_ok:
                        extra = combo[a_i] & ~xi_masks[a_i]
                        cex["greatest"] = _first_points_by_bits(space, extra, agent)
                    greatest_ok = False
        ck = ck_cache.get(union_mask)
        if ck is None:
            ck = ck_cache[union_mask] = _scalar_descent(space, union_mask, spec)
            if len(sampled) < engine_samples and rng.random() < 0.5:
                sampled.append(union_mask)
        ck_union = 0
        for m in ck:
            ck_union |= m
        for a_i, agent in enumerate(agents):
            if combo[a_i] & ~ck[a_i]:
                if below_own_ck_ok:
                    cex["below_own_ck"] = _first_points_by_bits(
                        space, combo[a_i] & ~ck[a_i], agent
                    )
                below_own_ck_ok = False
        if ck_union != union_mask:
            if union_preserved_ok:
                cex["union_preserved"] = _first_points_by_bits(space, ck_union ^ union_mask, "-")
            union_preserved_ok = False
    engine_calls.extend(sampled)
    parts["greatest"] = greatest_ok
    parts["below_own_ck"] = below_own_ck_ok
    parts["union_preserved"] = union_preserved_ok
    return parts, cex, enumerated


def test_ensemble_report_matches_the_combination_loop(monkeypatch):
    rng = np.random.default_rng(53)
    real_knows = PackedSpace.knows_tables
    drop = {}  # agent -> bits a corrupted knows table clears from every image

    def corrupted_knows(self, agents):
        return real_knows(self, agents) & ~np.array([drop.get(a, 0) for a in agents])[:, None]

    calls = []
    real_ck = coord.timely_ck

    def recording_ck(psi, spec):
        calls.append(PackedSpace(psi.universe).pack(psi))
        return real_ck(psi, spec)

    monkeypatch.setattr(PackedSpace, "knows_tables", corrupted_knows)
    monkeypatch.setattr(coord, "timely_ck", recording_ck)
    seen = dict(greatest=0, below_own_ck=0, union_preserved=0, ok=0, three_agents=0,
                greatest_not_first=0)
    for case in range(320):
        k = 3 if case % 5 == 0 else 2
        u = random_universe(rng, n_agents=k, max_runs=2, max_times=3, bit_budget=12)
        psi = random_event(rng, u)
        spec = random_spec(rng, u.agents)
        kind = case % 4
        candidate = None
        if kind == 1 or (kind == 2 and rng.random() < 0.5):
            shape = (len(u.agents), u.n_runs, u.n_times)
            bottom = EventTuple.of(u, u.agents, np.zeros(shape, dtype=bool))
            candidate = random_tuple(rng, u) if rng.random() < 0.5 else bottom
        drop.clear()
        samples, seed = 4, int(rng.integers(0, 2**31))
        if kind == 2:  # packed descents that no longer match the engine
            drop.update({a: int(rng.integers(1, 1 << u.n_points)) for a in u.agents})
            samples = 0
        want_calls = []
        parts, cex, enumerated = _report_by_loop(psi, spec, candidate, samples, seed, want_calls)
        if candidate is None:
            want_calls.insert(0, PackedSpace(u).pack(psi))
        calls.clear()
        report = verify_greatest_coordinated_ensemble(
            psi, spec, candidate=candidate, engine_samples=samples, seed=seed
        )
        assert report.parts == parts, case
        assert list(report.counterexamples.items()) == list(cex.items()), case
        assert report.enumerated == enumerated
        assert calls == want_calls, case
        for key in ("greatest", "below_own_ck", "union_preserved"):
            seen[key] += key in cex
        # a part failing at an earlier combination is reported first
        seen["greatest_not_first"] += "greatest" in cex and list(cex)[0] != "greatest"
        seen["ok"] += report.ok()
        seen["three_agents"] += k == 3
    reordered = seen.pop("greatest_not_first")
    assert min(seen.values()) >= 10 and reordered >= 3, (seen, reordered)


# -- the solution check ------------------------------------------------------------


def _verify_solution_by_points(instance, result) -> SolutionReport:
    """`verify_solution` on the response ensemble's events: the ensemble
    builds one (k, n_runs, n_times) table, and each condition is decided by
    the event operators."""
    checks: dict = {}
    cex: dict = {}

    times, problems = result.response_times(instance)
    checks["well_formed"] = not problems
    cex["well_formed"] = problems
    if problems:
        for name in ("coordinated", "follows_trigger", "covers_triggered_runs", "locally_determined"):
            checks[name] = False
        return SolutionReport(checks, cex)

    ensemble = result.response_events(instance)
    broken = coord.uncoordinated_pairs(ensemble, instance.timing)
    checks["coordinated"] = not broken
    if broken:
        cex["coordinated"] = [{"pair": f"{i}->{j}"} for i, j in broken]

    stray = tuple_union(ensemble) - instance.trigger_history()
    checks["follows_trigger"] = not stray.table.any()
    if stray.table.any():
        cex["follows_trigger"] = [
            {"run": p.run, "time": p.time} for p in stray.points()[:5]
        ]

    agents, fired = instance.timing.agents, instance.trigger_time >= 0
    misses = [
        {"agent": agent, "run": instance.universe.runs[r]}
        for agent, col in zip(agents, times.T)
        for r in np.flatnonzero(fired & (col < 0))[:3]
    ]
    checks["covers_triggered_runs"] = not misses
    cex["covers_triggered_runs"] = misses

    nonlocal_agents = [{"agent": a} for a in agents if not is_local(a, ensemble[a])]
    checks["locally_determined"] = not nonlocal_agents
    cex["locally_determined"] = nonlocal_agents

    return SolutionReport(checks, cex)


def _solvable_instances(rng, count):
    """Small generated instances with 1 to 3 agents that admit a solution."""
    found = []
    while len(found) < count:
        k = int(rng.integers(1, 4))
        agents = tuple("abc"[:k])
        delta = {
            (i, j): INF if rng.random() < 0.2 else int(rng.integers(-1, 4))
            for i in agents for j in agents if i != j
        }
        lo = int(rng.integers(0, 2))
        instance = generate_system(make_scenario(
            agents, TimingSpec(agents, delta),
            obs_delay=(lo, lo + int(rng.integers(0, 3))),
            trigger_times=sorted({int(t) for t in rng.integers(0, 3, size=int(rng.integers(1, 3)))}),
            include_never_run=rng.random() < 0.85,
        ))
        if solvability(instance):
            found.append(instance)
    return found


def test_solution_check_on_the_run_table_matches_the_point_route():
    rng = np.random.default_rng(61)
    names = ("well_formed", "coordinated", "follows_trigger", "covers_triggered_runs",
             "locally_determined")
    failed = dict.fromkeys(names, 0)
    cases = passed = 0
    for instance in _solvable_instances(rng, 40):
        u, agents = instance.universe, instance.timing.agents
        optimal = synthesize_optimal(instance).responses
        for trial in range(16):
            responses = {run: dict(per) for run, per in optimal.items()}
            for _ in range(int(rng.integers(0 if trial == 0 else 1, 4))):
                run = u.runs[int(rng.integers(0, u.n_runs))]
                agent = agents[int(rng.integers(0, len(agents)))]
                draw = rng.random()
                if draw < 0.06:  # a malformed entry
                    responses[run][agent] = [u.horizon + 1, -1, 1.5, True, "x"][int(rng.integers(0, 5))]
                elif draw < 0.3:
                    responses[run][agent] = None
                else:
                    responses[run][agent] = int(rng.integers(0, u.n_times))
            result = ProtocolResult(responses)
            got, want = verify_solution(instance, result), _verify_solution_by_points(instance, result)
            assert got.to_json_dict() == want.to_json_dict(), (cases, responses)
            checks = want.to_json_dict()["checks"]
            if checks["well_formed"]:
                for name in names[1:]:
                    failed[name] += not checks[name]
            else:
                failed["well_formed"] += 1
            passed += want.ok()
            cases += 1
    assert cases >= 600 and passed >= 40, (cases, passed)
    assert min(failed.values()) >= 50, failed
