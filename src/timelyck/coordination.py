"""Coordination predicates on agent-indexed event ensembles, and the
correspondence check between timely common knowledge and coordinated
ensembles.

An ensemble is an event tuple whose coordinate for agent i is i-local (the
agent can always tell whether its coordinate holds, which `is_local`
decides); the predicates take a plain `EventTuple`.  Timing coordination of
an ensemble says: whenever agent i's coordinate holds, agent j's coordinate
holds somewhere in the run no later than delta(i, j) steps away.  It is
decided on first instants; the literal point quantifier is
`props.n_delta_coordinated`, which the test and property suites check it
against.

`verify_greatest_coordinated_ensemble` checks, by exhaustive enumeration of
local ensembles on small universes, that the timely-common-knowledge tuple is
exactly the greatest coordinated ensemble whose union implies the target
event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, SizeGuardExceeded
from .events import Event, EventTuple, first_instants, is_local, window_cover
from .fixpoint import TimingSpec, apply_f, late_pairs, timely_ck, tuple_union
from .packed import PackedSpace
from .universe import Universe

DEFAULT_ENSEMBLE_GUARD = 50_000  # local ensembles the correspondence check may enumerate


def uncoordinated_pairs(ensemble: EventTuple, spec: TimingSpec) -> list[tuple]:
    """The pairs (i, j), in `spec.pairs()` order, where some occurrence of e_i
    is not answered by e_j within delta(i, j): `late_pairs` of their first
    instants, deltas clamped to the horizon and inf acting like H."""
    ensemble.conform(ensemble.universe, spec.agents, "ensemble")
    bad = late_pairs(first_instants(ensemble.table), spec, ensemble.universe.horizon)
    return [(spec.agents[i], spec.agents[j]) for i, j in zip(*np.nonzero(bad))]


def is_delta_coordinated(ensemble: EventTuple, spec: TimingSpec) -> bool:
    """Whether every occurrence of e_i is answered by e_j within delta(i, j)."""
    return not uncoordinated_pairs(ensemble, spec)


def is_perfectly_coordinated(ensemble: EventTuple) -> bool:
    table = ensemble.table
    return bool((table == table[0]).all())


def is_eventually_coordinated(ensemble: EventTuple) -> bool:
    """In every run, either every coordinate holds somewhere or none does."""
    hit = ensemble.table.any(axis=2)  # (agent, run)
    return bool((hit.all(axis=0) | ~hit.any(axis=0)).all())


def is_epsilon_coordinated(ensemble: EventTuple, eps: int) -> bool:
    """Every occurrence sits in a length-eps window meeting every coordinate;
    the literal point quantifier is `naive_reference.n_epsilon_coordinated`."""
    tables = ensemble.table
    return not (tables & ~window_cover(tables, eps)).any()


# -- local-ensemble enumeration ----------------------------------------------------


def local_event_masks(space: PackedSpace, agent: str) -> np.ndarray:
    """All i-local events as packed masks: unions of the agent's state classes,
    the union at index `pick` holding class c iff bit c of `pick` is set."""
    classes = space.class_masks(agent)
    picks = np.arange(1 << classes.size)
    # classes are disjoint, so summing the picked ones ORs them
    return ((picks[:, None] >> np.arange(classes.size)) & 1) @ classes


def local_combinations(space: PackedSpace, agents, guard: int) -> np.ndarray:
    """Every combination of the agents' local events as packed masks, an
    (n_combos, k) array in `itertools.product` order.  The count, the product
    of 2^classes over the agents, is checked against `guard` before any mask
    is built."""
    total = 1 << sum(space.universe.n_state_classes(a) for a in agents)
    if total > guard:
        raise SizeGuardExceeded(
            f"{total} local ensembles exceed the enumeration guard {guard}"
        )
    grid = np.meshgrid(*[local_event_masks(space, a) for a in agents], indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def enumerate_local_ensembles(universe: Universe, agents, *, guard: int = DEFAULT_ENSEMBLE_GUARD):
    """Yield every ensemble of local events, one per combination of class unions."""
    agents = tuple(agents)
    space = PackedSpace(universe)
    for combo in local_combinations(space, agents, guard):
        yield EventTuple.of(universe, agents, space.tables(combo))


# -- the correspondence report ---------------------------------------------------


@dataclass
class CorrespondenceReport:
    parts: dict = field(default_factory=dict)
    counterexamples: dict = field(default_factory=dict)
    enumerated: int = 0

    def ok(self) -> bool:
        return all(self.parts.values())

    def to_json_dict(self) -> dict:
        return {
            "parts": dict(self.parts),
            "counterexamples": {k: v for k, v in self.counterexamples.items() if v},
            "enumerated_ensembles": self.enumerated,
        }


def _first_points(space: PackedSpace, mask: int, agent: str, cap: int = 4):
    return [
        {"agent": agent, "run": p.run, "time": p.time} for p in space.unpack(mask).points()[:cap]
    ]


def verify_greatest_coordinated_ensemble(
    psi: Event,
    spec: TimingSpec,
    *,
    candidate: EventTuple | None = None,
    enum_guard: int = DEFAULT_ENSEMBLE_GUARD,
    engine_samples: int = 4,
    seed: int = 0,
) -> CorrespondenceReport:
    """Exhaustively confirm the coordinated-ensemble characterisation.

    Checks, for xi = timely_ck(psi, spec) (or a supplied candidate):
      fixed_point            xi is a fixed point of the coordination map
      coordinated_ensemble   xi is a local, timing-coordinated ensemble
      union_below_psi        the union of xi's coordinates implies psi
      greatest               every enumerated coordinated local ensemble whose
                             union implies psi sits below xi
      below_own_ck           every enumerated coordinated local ensemble sits
                             below the timely common knowledge of its union
      union_preserved        ... and taking timely common knowledge of that
                             union does not change the union

    Enumeration runs in the packed engine over every combination of class
    unions at once, as an (n_combos, k) array in `itertools.product` order;
    the timely common knowledge of each distinct union comes from one batched
    packed descent.  Each counterexample is the first failing (combination,
    agent) in that order.  A seeded sample of the distinct unions, drawn in
    first-appearance order, is re-checked against the event-level engine to
    tie the two representations together.
    """
    u = psi.universe
    xi = candidate if candidate is not None else timely_ck(psi, spec)
    report = CorrespondenceReport()

    report.parts["fixed_point"] = apply_f(psi, spec, xi) == xi

    local_ok = all(is_local(a, xi[a]) for a in spec.agents)
    report.parts["coordinated_ensemble"] = local_ok and is_delta_coordinated(xi, spec)
    report.parts["union_below_psi"] = tuple_union(xi) <= psi

    space = PackedSpace(u)
    agents = spec.agents
    psi_mask = space.pack(psi)
    xi_masks = np.array([space.pack(xi[a]) for a in agents], dtype=np.int64)

    combos = local_combinations(space, agents, enum_guard)
    report.enumerated = combos.shape[0]

    within, pair_index, knows = space.map_tables(spec)
    coordinated = np.ones(combos.shape[0], dtype=bool)
    for i in range(len(agents)):
        for j in range(len(agents)):
            if i != j:
                answered = within[pair_index[i, j]][combos[:, j]]
                coordinated &= (combos[:, i] & ~answered) == 0
    combos = combos[coordinated]
    unions = np.bitwise_or.reduce(combos, axis=1)

    distinct, first, inverse = np.unique(unions, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct unions in first-appearance order
    cks = space.timely_ck_masks(distinct[order], within, pair_index, knows)
    ck = cks[np.argsort(order)[inverse]]  # each combination's union's fixed point
    ck_unions = np.bitwise_or.reduce(ck, axis=1)

    implies_psi = ((unions & ~psi_mask) == 0)[:, None]
    beyond_xi = np.where(implies_psi, combos & ~xi_masks, 0)
    beyond_ck = combos & ~ck
    changed = (ck_unions ^ unions)[:, None]
    # name, failing bits per (combination, agent), agent names; a combination
    # failing several parts reports them in this order
    checks = [
        ("greatest", beyond_xi, agents),
        ("below_own_ck", beyond_ck, agents),
        ("union_preserved", changed, ("-",)),
    ]
    found = []
    for rank, (name, bits, names) in enumerate(checks):
        rows, cols = np.nonzero(bits)
        report.parts[name] = rows.size == 0
        if rows.size:
            r, c = rows[0], cols[0]
            found.append((r, rank, name, _first_points(space, int(bits[r, c]), names[c])))
    report.counterexamples = {name: points for _, _, name, points in sorted(found)}

    # tie the packed fixed point back to the event-level engine
    sampled = []
    rng = np.random.default_rng(seed)
    for union_mask, union_ck in zip(distinct[order], cks):
        if len(sampled) >= engine_samples:
            break
        if rng.random() < 0.5:
            sampled.append((union_mask, union_ck))
    for union_mask, union_ck in sampled:
        engine = timely_ck(space.unpack(union_mask), spec)
        if [space.pack(engine[a]) for a in agents] != union_ck.tolist():
            raise InternalConsistencyError(
                "packed and event-level fixed points disagree"
            )
    return report
