"""Definition-direct evaluators over explicit point sets.

Deliberately slow, loop-based transcriptions of the operator definitions.
They share nothing with the vectorized implementations in `events` and serve
as independent oracles in the test suite; the packed brute-force engines also
build their lookup tables from these.

Events here are plain frozensets of (run_index, time) pairs.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, Iterable, Mapping, Tuple

from .universe import DeltaValue, Universe

PointSet = FrozenSet[Tuple[int, int]]


def point_set(e) -> PointSet:
    """The points of an `events.Event` as (run_index, time) pairs."""
    runs, times = e.table.nonzero()
    return frozenset(zip(runs.tolist(), times.tolist()))


def all_points(u: Universe) -> PointSet:
    return frozenset(product(range(u.n_runs), range(u.n_times)))


def n_eventually(u: Universe, e: PointSet) -> PointSet:
    return frozenset(
        (r, t)
        for r, t in all_points(u)
        if any((r, t2) in e for t2 in range(u.n_times))
    )


def n_shift_exact(u: Universe, e: PointSet, eps: int) -> PointSet:
    return frozenset(
        (r, t)
        for r, t in all_points(u)
        if 0 <= t + eps <= u.horizon and (r, t + eps) in e
    )


def n_within(u: Universe, e: PointSet, eps: DeltaValue) -> PointSet:
    return frozenset(
        (r, t)
        for r, t in all_points(u)
        if any(t2 <= t + eps and (r, t2) in e for t2 in range(u.n_times))
    )


def n_knows(u: Universe, agent: str, e: PointSet) -> PointSet:
    ids = u.state_ids(agent)
    out = set()
    for r, t in all_points(u):
        sid = ids[r, t]
        if all(
            (r2, t2) in e
            for r2, t2 in all_points(u)
            if ids[r2, t2] == sid
        ):
            out.add((r, t))
    return frozenset(out)


def n_everyone_knows(u: Universe, agents: Iterable[str], e: PointSet) -> PointSet:
    out = all_points(u)
    for agent in agents:
        out &= n_knows(u, agent, e)
    return out


def n_common_knowledge(u: Universe, agents: Iterable[str], e: PointSet) -> PointSet:
    agents = tuple(agents)
    cur = n_everyone_knows(u, agents, e)
    while True:
        nxt = n_everyone_knows(u, agents, cur)
        if nxt == cur:
            return cur
        cur = nxt


def n_is_local(u: Universe, agent: str, e: PointSet) -> bool:
    return n_knows(u, agent, e) == e


def n_is_stable(u: Universe, e: PointSet) -> bool:
    return n_within(u, e, 0) == e


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
