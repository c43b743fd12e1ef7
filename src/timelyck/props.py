"""Seeded randomized property suite.

Each group draws its own small random universes and checks one family of
operator or engine laws; shift/window laws that interact with the end of time
are asserted on the horizon-interior region they provably hold on, with the
filters spelled out inline.  The CLI `props` verb runs every group and prints
one verdict line per group; the `oracle` verb runs `oracle_agreement` and
`ensemble_correspondence` on its own seeded generator; the acceptance suite
reruns the operator-law groups at higher case counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coordination import (
    is_delta_coordinated,
    is_epsilon_coordinated,
    is_eventually_coordinated,
    is_perfectly_coordinated,
    verify_greatest_coordinated_ensemble,
)
from .errors import InternalConsistencyError
from .events import (
    Event,
    EventTuple,
    eventually,
    is_local,
    is_stable,
    knows,
    shift_exact,
    within,
)
from .fixpoint import (
    TimingSpec,
    apply_f,
    check_induction_rule,
    epsilon_ck,
    timely_ck,
    timely_ck_g,
    timely_ck_oracle,
)
from .nested import nested_conjunction, verify_nested_characterization
from .packed import PointSet
from .sampling import (
    random_event,
    random_spec,
    random_stable_event,
    random_tuple,
    random_universe,
)
from .scenarios import generate_system, make_scenario, solvability
from .universe import INF, DeltaValue, Universe


@dataclass
class PropResult:
    name: str
    cases: int
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    error: str | None = None  # an InternalConsistencyError the group raised

    def ok(self) -> bool:
        return not self.failures and self.error is None

    def to_json_dict(self) -> dict:
        out = {"group": self.name, "cases": self.cases, "ok": self.ok()}
        if self.error is not None:
            out["error"] = self.error
        if self.failures:
            out["failures"] = self.failures[:5]
        if self.info:
            out["info"] = self.info
        return out


def _result(name, cases, failures, info=None):
    return PropResult(name, cases, failures, info or {})


# -- operator-law groups -----------------------------------------------------------


def check_knowledge_axioms(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2, synchronous=bool(rng.random() < 0.8))
        e = random_event(rng, u)
        f = random_event(rng, u)
        agent = u.agents[int(rng.integers(0, 2))]
        ke = knows(agent, e)
        if not ke <= e:
            failures.append(f"case {case}: truth axiom")
        if knows(agent, ke) != ke:
            failures.append(f"case {case}: positive introspection")
        if not knows(agent, e & f) <= knows(agent, e | f):
            failures.append(f"case {case}: monotonicity")
        if knows(agent, e & f) != knows(agent, e) & knows(agent, f):
            failures.append(f"case {case}: meet commutation")
    return _result("knowledge_axioms", cases, failures)


def check_window_laws(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2)
        h = u.horizon
        e = random_event(rng, u)
        f = random_event(rng, u)
        if within(e, INF) != eventually(e):
            failures.append(f"case {case}: infinite window is eventuality")
        d1 = int(rng.integers(-2, 3))
        d2 = int(rng.integers(-2, 3))
        if d1 <= d2 and not within(e, d1) <= within(f | e, d2):
            failures.append(f"case {case}: monotonicity")
        if within(e & f, d1) != within(e & f, d1) & within(e, d1) & within(f, d1):
            failures.append(f"case {case}: window of meet exceeds meet of windows")

        # additivity within(within(e, a), b) == within(e, a+b) holds where the
        # outer offset stays inside time; negative inner offsets additionally
        # need the event clear of the last |a| slots
        a = int(rng.integers(-2, 3))
        b = int(rng.integers(-2, 3))
        src = e
        if a < 0:
            table = src.table.copy()
            table[:, max(0, h + a + 1) :] = False
            src = Event(u, table)
        lhs = within(within(src, a), b).table
        rhs = within(src, a + b).table
        tmask = (np.arange(u.n_times) + b >= 0) & (np.arange(u.n_times) + b <= h)
        if not np.array_equal(lhs[:, tmask], rhs[:, tmask]):
            failures.append(f"case {case}: additivity (a={a}, b={b})")
    return _result("window_laws", cases, failures)


def check_shift_laws(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2)
        h = u.horizon
        e = random_event(rng, u)
        f = random_event(rng, u)
        d = int(rng.integers(-2, 3))
        if not shift_exact(e, d) <= within(e, d):
            failures.append(f"case {case}: exact shift must imply window")
        if shift_exact(e & f, d) != shift_exact(e, d) & shift_exact(f, d):
            failures.append(f"case {case}: shift/meet commutation")

        # exchange: shifting a window == windowing a shift == one wide window,
        # on points whose outer shift stays inside time, for events whose
        # support keeps the inner shift inside time
        e1 = int(rng.integers(-2, 3))
        e2 = int(rng.integers(-2, 3))
        table = e.table.copy()
        lo_keep = max(0, e2)
        hi_keep = min(h, h + e2)
        keep = np.zeros(u.n_times, dtype=bool)
        if lo_keep <= hi_keep:
            keep[lo_keep : hi_keep + 1] = True
        table[:, ~keep] = False
        src = Event(u, table)
        one_window = within(src, e1 + e2).table
        shifted_window = shift_exact(within(src, e2), e1).table
        windowed_shift = within(shift_exact(src, e2), e1).table
        tmask = (np.arange(u.n_times) + e1 >= 0) & (np.arange(u.n_times) + e1 <= h)
        if not np.array_equal(shifted_window[:, tmask], one_window[:, tmask]):
            failures.append(f"case {case}: shift-of-window (e1={e1}, e2={e2})")
        if not np.array_equal(windowed_shift, one_window):
            failures.append(f"case {case}: window-of-shift (e1={e1}, e2={e2})")
    return _result("shift_laws", cases, failures)


def check_stability_laws(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2)
        e = random_event(rng, u)
        f = random_event(rng, u)
        if not is_stable(within(e, 0)):
            failures.append(f"case {case}: history closure must be stable")
        if within(within(e, 0), 0) != within(e, 0):
            failures.append(f"case {case}: history closure idempotence")
        if not is_stable(within(e, 0) & within(f, 0)):
            failures.append(f"case {case}: stability closed under meet")
        if not is_stable(Event.full(u)):
            failures.append(f"case {case}: full event must be stable")
    return _result("stability_laws", cases, failures)


def check_recall_laws(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2, recall=True)
        agent = u.agents[int(rng.integers(0, 2))]
        e = random_event(rng, u)
        stable = random_stable_event(rng, u)
        if not is_stable(knows(agent, stable)):
            failures.append(f"case {case}: knowledge of a stable event must stay")
        if not within(knows(agent, e), 0) <= knows(agent, within(e, 0)):
            failures.append(f"case {case}: past knowledge implies knowledge of past")
    return _result("recall_laws", cases, failures)


def check_coordinate_stability(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2, recall=True)
        psi = random_stable_event(rng, u)
        spec = random_spec(rng, u.agents)
        xi = timely_ck(psi, spec)
        for agent in u.agents:
            if not is_stable(xi[agent]):
                failures.append(f"case {case}: coordinate for {agent} not stable")
    return _result("knowledge_coordinate_stability", cases, failures)


# -- engine-law groups -----------------------------------------------------------


def check_fixed_point_laws(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2)
        spec = random_spec(rng, u.agents)
        psi = random_event(rng, u)
        xi = timely_ck(psi, spec)
        if apply_f(psi, spec, xi) != xi:
            failures.append(f"case {case}: not a fixed point")
        for agent in u.agents:
            if not xi[agent] <= psi:
                failures.append(f"case {case}: coordinate exceeds the target event")
            if not is_local(agent, xi[agent]):
                failures.append(f"case {case}: coordinate not local to {agent}")
        phi = psi | random_event(rng, u)
        if not xi <= timely_ck(phi, spec):
            failures.append(f"case {case}: not monotone in the target event")
        sub = psi & random_event(rng, u)
        if not check_induction_rule(psi, spec, timely_ck(sub, spec)):
            failures.append(f"case {case}: shrunk fixed point not below its map")
    return _result("fixed_point_laws", cases, failures)


def check_oracle_agreement(rng, cases: int, *, guard_bits: int = 14) -> PropResult:
    """The iterative window fixed point against the packed Tarski sweep, on
    universes of at most min(guard_bits, 16) points times agents."""
    failures = []
    for case in range(cases):
        k = int(rng.integers(2, 4))
        u = random_universe(
            rng, n_agents=k, bit_budget=min(guard_bits, 16), max_runs=3, max_times=4
        )
        spec = random_spec(rng, u.agents)
        psi = random_event(rng, u)
        if timely_ck(psi, spec) != timely_ck_oracle(psi, spec, guard_bits=guard_bits):
            failures.append(f"case {case}: iterative and swept fixed points differ")
    return _result("oracle_agreement", cases, failures)


def point_set(e) -> PointSet:
    """The points of an `events.Event` as (run_index, time) pairs."""
    runs, times = e.table.nonzero()
    return frozenset(zip(runs.tolist(), times.tolist()))


def n_delta_coordinated(
    u: Universe, coords: Mapping[str, PointSet], delta: Mapping[tuple, DeltaValue]
) -> bool:
    """Every point of coordinate i has a point of coordinate j in its run, at
    most delta[(i, j)] steps later, for every ordered pair of distinct agents."""
    return all(
        any(t2 <= t + delta[(i, j)] and (r, t2) in coords[j] for t2 in range(u.n_times))
        for i in coords
        for j in coords
        if i != j
        for r, t in coords[i]
    )


def check_coordination_laws(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=4)
        spec = random_spec(rng, u.agents)
        x = EventTuple(u, {a: random_event(rng, u) for a in u.agents})
        coordinated = is_delta_coordinated(x, spec)
        if coordinated and not is_eventually_coordinated(x):
            failures.append(f"case {case}: bounded coordination must imply eventual")
        e = knows(u.agents[0], random_event(rng, u))
        same = EventTuple(u, {a: e for a in u.agents})
        eps = int(rng.integers(0, 3))
        if not (
            is_perfectly_coordinated(same)
            and is_epsilon_coordinated(same, eps)
            and is_eventually_coordinated(same)
        ):
            failures.append(f"case {case}: weakening chain broken")
        # at most one point per agent per run: constant bound == window bound
        coords = {}
        for agent in u.agents:
            table = np.zeros((u.n_runs, u.n_times), dtype=bool)
            for r in range(u.n_runs):
                if rng.random() < 0.8:
                    table[r, int(rng.integers(0, u.n_times))] = True
            coords[agent] = Event(u, table)
        single = EventTuple(u, coords)
        const = TimingSpec(u.agents, {p: eps for p in spec.pairs()})
        if is_delta_coordinated(single, const) != is_epsilon_coordinated(single, eps):
            failures.append(f"case {case}: constant bound vs window mismatch")
        # the literal point quantifier, on unstable coordinates that are empty
        # in some runs, with bounds from below -(H+1) to above H and inf
        y = random_tuple(rng, u)
        h = u.horizon
        wide = random_spec(rng, u.agents, lo=-(h + 2), hi=h + 2)
        literal = n_delta_coordinated(
            u, {a: point_set(y[a]) for a in u.agents}, {p: wide.delta(*p) for p in wide.pairs()}
        )
        if is_delta_coordinated(y, wide) != literal:
            failures.append(f"case {case}: predicate vs literal point quantifier")
    return _result("coordination_laws", cases, failures)


def check_ensemble_correspondence(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=3)
        psi = random_event(rng, u)
        spec = random_spec(rng, u.agents)
        report = verify_greatest_coordinated_ensemble(
            psi, spec, enum_guard=1 << 14, seed=int(rng.integers(0, 2**31))
        )
        if not report.ok():
            failing = [k for k, v in report.parts.items() if not v]
            failures.append(f"case {case}: parts failing {failing}")
    return _result("ensemble_correspondence", cases, failures)


def check_nested_agreement(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=4)
        psi = random_event(rng, u)
        spec = random_spec(rng, u.agents)
        fix = timely_ck_g(psi, spec)
        for agent in u.agents:
            if nested_conjunction(agent, psi, spec, max_paths=4096) != fix[agent]:
                failures.append(f"case {case}: explicit conjunction off for {agent}")
    return _result("nested_agreement", cases, failures)


def check_scenario_properties(rng, cases: int) -> PropResult:
    failures = []
    for case in range(cases):
        k = int(rng.integers(2, 4))
        agents = tuple("abcd"[:k])
        spec = random_spec(rng, agents, lo=-1, hi=2, p_inf=0.3)
        sc = make_scenario(
            agents,
            spec,
            obs_delay={a: (0, int(rng.integers(1, 3))) for a in agents},
            trigger_times=(0,) if rng.random() < 0.7 else (0, 1),
        )
        inst = generate_system(sc)
        if not inst.universe.exhibits_perfect_recall():
            failures.append(f"case {case}: generated universe forgets")
        if not is_stable(inst.trigger_history()):
            failures.append(f"case {case}: trigger history not stable")
        solvable = solvability(inst)  # also cross-checks per-agent agreement
        if solvable:
            # raises InternalConsistencyError if the characterisation breaks
            verify_nested_characterization(inst.trigger_history(), inst.timing)
            # tightening an observation window must preserve solvability
            agent = agents[int(rng.integers(0, k))]
            lo, hi = sc.obs_delay[agent]
            lo2 = int(rng.integers(lo, hi + 1))
            hi2 = int(rng.integers(lo2, hi + 1))
            shrunk = dict(sc.obs_delay)
            shrunk[agent] = (lo2, hi2)
            sc2 = make_scenario(
                agents, spec, obs_delay=shrunk, trigger_times=sc.trigger_times
            )
            if not solvability(generate_system(sc2)):
                failures.append(f"case {case}: tighter observation broke solvability")
    return _result("scenario_properties", cases, failures)


def check_window_vs_constant_bound(rng, cases: int) -> PropResult:
    """Empirical comparison only: constant-bound timely knowledge versus the
    window variant of common knowledge, for small positive bounds on stable
    events under perfect recall.  Observed agreement is reported, nothing is
    asserted either way."""
    agree = 0
    total = 0
    for _ in range(cases):
        u = random_universe(rng, n_agents=2, recall=True, max_runs=2, max_times=4)
        psi = random_stable_event(rng, u)
        eps = int(rng.integers(1, 3))
        spec = TimingSpec(u.agents, {p: eps for p in [(i, j) for i in u.agents for j in u.agents if i != j]})
        xi = timely_ck(psi, spec)
        ck = epsilon_ck(u.agents, psi, eps)
        total += 1
        if all(xi[a] == knows(a, psi & ck) for a in u.agents):
            agree += 1
    return _result(
        "window_vs_constant_bound",
        cases,
        [],
        {"observed_agreement": agree, "cases": total, "asserted": False},
    )


GROUPS = [
    ("knowledge_axioms", check_knowledge_axioms, 1.0),
    ("window_laws", check_window_laws, 1.0),
    ("shift_laws", check_shift_laws, 1.0),
    ("stability_laws", check_stability_laws, 1.0),
    ("recall_laws", check_recall_laws, 1.0),
    ("knowledge_coordinate_stability", check_coordinate_stability, 0.4),
    ("fixed_point_laws", check_fixed_point_laws, 0.4),
    ("oracle_agreement", check_oracle_agreement, 0.25),
    ("coordination_laws", check_coordination_laws, 0.5),
    ("ensemble_correspondence", check_ensemble_correspondence, 0.1),
    ("nested_agreement", check_nested_agreement, 0.4),
    ("scenario_properties", check_scenario_properties, 0.15),
    ("window_vs_constant_bound", check_window_vs_constant_bound, 0.2),
]


def run_all(seed: int, cases: int = 120) -> list[PropResult]:
    """Run every group; a group whose two routes disagree (it raises
    InternalConsistencyError) fails with the message, and the rest still run."""
    results = []
    for idx, (name, fn, scale) in enumerate(GROUPS):
        rng = np.random.default_rng([seed, idx])
        n = max(1, int(cases * scale))
        try:
            results.append(fn(rng, n))
        except InternalConsistencyError as exc:
            results.append(PropResult(name, n, error=f"{exc.label}: {exc}"))
    return results
