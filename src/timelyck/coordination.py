"""Coordination predicates on agent-indexed event ensembles, and the
correspondence check between timely common knowledge and coordinated
ensembles.

An ensemble is an event tuple whose coordinate for agent i is i-local (the
agent can always tell whether its coordinate holds).  Timing coordination of
an ensemble says: whenever agent i's coordinate holds, agent j's coordinate
holds somewhere in the run no later than delta(i, j) steps away.

`verify_greatest_coordinated_ensemble` checks, by exhaustive enumeration of
local ensembles on small universes, that the timely-common-knowledge tuple is
exactly the greatest coordinated ensemble whose union implies the target
event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import InternalConsistencyError, InvariantViolation, SizeGuardExceeded
from .events import Event, eventually, is_local, within
from .fixpoint import EventTuple, TimingSpec, apply_f, timely_ck, tuple_union
from .packed import PackedSpace
from .universe import Universe, check_delta


class Ensemble:
    """An event tuple with verified per-coordinate locality."""

    __slots__ = ("tuple", "locality_verified")

    def __init__(self, tup: EventTuple):
        for agent in tup.agents:
            if not is_local(agent, tup[agent]):
                raise InvariantViolation(
                    f"coordinate for agent {agent!r} is not determined by its local state"
                )
        self.tuple = tup
        self.locality_verified = True

    def __getitem__(self, agent: str) -> Event:
        return self.tuple[agent]

    @property
    def agents(self):
        return self.tuple.agents


def _coords(e) -> EventTuple:
    return e.tuple if isinstance(e, Ensemble) else e


def is_delta_coordinated(ensemble, spec: TimingSpec) -> bool:
    """Whether every occurrence of e_i is answered by e_j within delta(i, j).

    Computed two independent ways and cross-checked:

    * by first instants: in every run where e_i holds, e_j holds too and
      its first instant is at most e_i's first instant plus delta(i, j);
    * by window containment: e_i <= within(e_j, delta(i, j)).

    The literal point quantifier is `naive.n_delta_coordinated`, which the
    test suite and the property suite check this predicate against.
    """
    tup = _coords(ensemble)
    if tup.agents != spec.agents:
        raise InvariantViolation("ensemble agents do not match the timing spec")

    holds = {a: tup[a].table.any(axis=1) for a in spec.agents}
    first = {a: tup[a].table.argmax(axis=1) for a in spec.agents}
    by_first = all(
        np.all(~holds[i] | (holds[j] & (first[j] <= first[i] + spec.delta(i, j))))
        for i, j in spec.pairs()
    )

    by_windows = all(
        tup[i] <= within(tup[j], spec.delta(i, j)) for i, j in spec.pairs()
    )
    if by_first != by_windows:
        raise InternalConsistencyError(
            "the two formulations of timing coordination disagree"
        )
    return by_windows


def is_perfectly_coordinated(ensemble) -> bool:
    tup = _coords(ensemble)
    first = tup[tup.agents[0]]
    return all(tup[a] == first for a in tup.agents[1:])


def is_eventually_coordinated(ensemble) -> bool:
    tup = _coords(ensemble)
    return all(
        tup[i] <= eventually(tup[j])
        for i in tup.agents
        for j in tup.agents
        if i != j
    )


def is_epsilon_coordinated(ensemble, eps: int) -> bool:
    """Every occurrence sits in a length-eps window meeting every coordinate."""
    eps = check_delta(eps, finite_only=True)
    if eps < 0:
        raise InvariantViolation("epsilon must be nonnegative")
    tup = _coords(ensemble)
    u = tup.universe
    eps = min(eps, u.horizon)
    for i in tup.agents:
        for r, t in zip(*np.nonzero(tup[i].table)):
            found = False
            for a in range(max(0, t - eps), min(t, u.horizon - eps) + 1):
                if all(
                    tup[j].table[r, a : a + eps + 1].any() for j in tup.agents
                ):
                    found = True
                    break
            if not found:
                return False
    return True


# re-exported here because the union operation belongs to ensemble analysis
union = tuple_union


# -- local-ensemble enumeration ----------------------------------------------------


def local_event_masks(space: PackedSpace, agent: str) -> list[int]:
    """All i-local events as packed masks: unions of the agent's state classes."""
    classes = space.class_masks(agent)
    masks = []
    for pick in range(1 << len(classes)):
        m = 0
        for c, cm in enumerate(classes):
            if pick >> c & 1:
                m |= cm
        masks.append(m)
    return masks


def count_local_ensembles(universe: Universe, agents) -> int:
    total = 1
    for agent in agents:
        total *= 1 << universe.n_state_classes(agent)
    return total


def enumerate_local_ensembles(universe: Universe, agents, *, guard: int = 50_000):
    """Yield every ensemble of local events, one per combination of class unions."""
    agents = tuple(agents)
    total = count_local_ensembles(universe, agents)
    if total > guard:
        raise SizeGuardExceeded(
            f"{total} local ensembles exceed the enumeration guard {guard}"
        )
    space = PackedSpace(universe)
    per_agent = [local_event_masks(space, a) for a in agents]
    for combo in product(*per_agent):
        yield EventTuple(
            universe, {a: space.unpack(m) for a, m in zip(agents, combo)}
        )


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
    u = space.universe
    out = []
    for b in range(space.n_bits):
        if mask >> b & 1:
            out.append({"agent": agent, "run": u.runs[b // u.n_times], "time": b % u.n_times})
            if len(out) >= cap:
                break
    return out


def verify_greatest_coordinated_ensemble(
    psi: Event,
    spec: TimingSpec,
    *,
    candidate: EventTuple | None = None,
    enum_guard: int = 50_000,
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

    Enumeration runs in the packed engine; a seeded sample of the enumerated
    ensembles is re-checked against the event-level engine to tie the two
    representations together.
    """
    u = psi.universe
    xi = candidate if candidate is not None else timely_ck(psi, spec)
    report = CorrespondenceReport()
    cex = report.counterexamples

    report.parts["fixed_point"] = apply_f(psi, spec, xi) == xi

    local_ok = all(is_local(a, xi[a]) for a in spec.agents)
    report.parts["coordinated_ensemble"] = local_ok and is_delta_coordinated(xi, spec)
    report.parts["union_below_psi"] = tuple_union(xi) <= psi

    space = PackedSpace(u)
    agents = spec.agents
    psi_mask = space.pack(psi)
    xi_masks = tuple(space.pack(xi[a]) for a in agents)

    total = count_local_ensembles(u, agents)
    if total > enum_guard:
        raise SizeGuardExceeded(
            f"{total} local ensembles exceed the enumeration guard {enum_guard}"
        )
    per_agent = [local_event_masks(space, a) for a in agents]
    wtabs = [
        [space.within_table(spec.delta(i, j)) if i != j else None for j in agents]
        for i in agents
    ]

    greatest_ok = True
    below_own_ck_ok = True
    union_preserved_ok = True
    ck_cache: dict[int, tuple] = {}
    sampled: list[tuple] = []
    rng = np.random.default_rng(seed)
    enumerated = 0

    for combo in product(*per_agent):
        enumerated += 1
        coordinated = True
        for a_i in range(len(agents)):
            for a_j in range(len(agents)):
                if a_i == a_j:
                    continue
                w = int(wtabs[a_i][a_j][combo[a_j]])
                if combo[a_i] & ~w:
                    coordinated = False
                    break
            if not coordinated:
                break
        if not coordinated:
            continue

        union_mask = 0
        for m in combo:
            union_mask |= m

        if (union_mask & ~psi_mask) == 0:  # union implies psi
            for a_i, agent in enumerate(agents):
                if combo[a_i] & ~xi_masks[a_i]:
                    if greatest_ok:
                        cex["greatest"] = _first_points(
                            space, combo[a_i] & ~xi_masks[a_i], agent
                        )
                    greatest_ok = False

        ck = ck_cache.get(union_mask)
        if ck is None:
            ck = space.timely_ck_masks(union_mask, spec)
            ck_cache[union_mask] = ck
            if len(sampled) < engine_samples and rng.random() < 0.5:
                sampled.append((union_mask, ck))
        ck_union = 0
        for m in ck:
            ck_union |= m
        for a_i, agent in enumerate(agents):
            if combo[a_i] & ~ck[a_i]:
                if below_own_ck_ok:
                    cex["below_own_ck"] = _first_points(
                        space, combo[a_i] & ~ck[a_i], agent
                    )
                below_own_ck_ok = False
        if ck_union != union_mask:
            if union_preserved_ok:
                cex["union_preserved"] = _first_points(
                    space, ck_union ^ union_mask, "-"
                )
            union_preserved_ok = False

    # tie the packed fixed point back to the event-level engine
    for union_mask, ck in sampled:
        engine = timely_ck(space.unpack(union_mask), spec)
        if tuple(space.pack(engine[a]) for a in agents) != ck:
            raise InternalConsistencyError(
                "packed and event-level fixed points disagree"
            )

    report.parts["greatest"] = greatest_ok
    report.parts["below_own_ck"] = below_own_ck_ok
    report.parts["union_preserved"] = union_preserved_ok
    report.enumerated = enumerated
    return report
