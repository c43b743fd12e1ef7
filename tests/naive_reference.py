"""Definition-direct evaluators over explicit point sets, as test references.

Deliberately slow, loop-based transcriptions of the operator definitions.
They share nothing with the vectorized implementations in `events` and serve
as independent oracles for the engine: `n_scan_solutions` is the depth-first
reference for the vectorized solution sweep in `_kernels`,
`n_perfect_recall` the point-by-point reference for
`Universe.exhibits_perfect_recall`, and `n_epsilon_coordinated` the literal
window quantifier behind `coordination.is_epsilon_coordinated`.

The package keeps the three evaluators a verb runs, each beside its only
caller: `packed.n_within` (with the `all_points` it reads) builds the packed
`within` tables, and `props.point_set` and `props.n_delta_coordinated` give
the `coordination_laws` group its literal timing quantifier.  They are
re-exported here, so the tests read every reference from one place.

Events here are plain frozensets of (run_index, time) pairs.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from timelyck.packed import PointSet, all_points, n_within  # noqa: F401  (re-exported)
from timelyck.props import n_delta_coordinated, point_set  # noqa: F401  (re-exported)
from timelyck.universe import Universe


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


def n_perfect_recall(u: Universe) -> bool:
    """Whether equal state ids of an agent at any two points come with equal
    sets of strictly earlier state ids along the respective runs."""
    for agent in u.agents:
        ids = u.state_ids(agent)
        history: dict[int, frozenset] = {}
        for r in range(u.n_runs):
            for t in range(u.n_times):
                prior = frozenset(int(s) for s in ids[r, :t])
                if history.setdefault(int(ids[r, t]), prior) != prior:
                    return False
    return True


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


def n_epsilon_coordinated(u: Universe, coords: Mapping[str, PointSet], eps: int) -> bool:
    """Every point of every coordinate lies in some window {a .. a+eps} inside
    0..H (eps clamped to the horizon) in which every coordinate has a point of
    that run."""
    eps = min(eps, u.horizon)
    return all(
        any(
            all(any((r, t2) in coords[j] for t2 in range(a, a + eps + 1)) for j in coords)
            for a in range(max(0, t - eps), min(t, u.horizon - eps) + 1)
        )
        for i in coords
        for r, t in coords[i]
    )


def n_scan_solutions(lo, hi, constraints, n_vals: int, guard: int):
    """Depth-first enumeration of the integer assignments with lo[v] <= t[v] <=
    hi[v] and t[q] <= t[p] + c for every constraint (p, q, c).

    Returns (count, mins, attained, overflowed) like `_kernels.scan_solutions`,
    under the same guard: it overflows, returning no solutions, when the
    assignments of some prefix of the variables that satisfy the constraints
    among them, times the next variable's domain size, exceed `guard`.
    """
    V = len(lo)
    lo = [int(x) for x in lo]
    hi = [int(x) for x in hi]
    sizes = [max(0, h - l + 1) for l, h in zip(lo, hi)]
    uppers = [[] for _ in range(V)]  # v -> [(p, c)]: t[v] <= t[p] + c, p < v
    lowers = [[] for _ in range(V)]  # v -> [(q, c)]: t[v] >= t[q] - c, q < v
    selfs = [[] for _ in range(V)]  # v -> [c]: t[v] <= t[v] + c
    for p, q, c in constraints:
        if p < q:
            uppers[q].append((p, int(c)))
        elif q < p:
            lowers[p].append((q, int(c)))
        else:
            selfs[p].append(int(c))

    mins = np.full(V, 2**62, dtype=np.int64)
    attained = np.zeros((V, n_vals), dtype=bool)
    prefixes = [0] * V  # prefixes[d]: consistent assignments of variables 0..d
    val = [0] * V
    count = 0

    def extend(depth) -> bool:
        nonlocal count
        if depth == V:
            count += 1
            for v, x in enumerate(val):
                mins[v] = min(mins[v], x)
                attained[v, x] = True
            return True
        lo_d = max([lo[depth]] + [val[q] - c for q, c in lowers[depth]])
        hi_d = min([hi[depth]] + [val[p] + c for p, c in uppers[depth]])
        for x in range(lo_d, hi_d + 1):
            if not all(x <= x + c for c in selfs[depth]):
                continue
            val[depth] = x
            prefixes[depth] += 1
            if depth + 1 < V and prefixes[depth] * sizes[depth + 1] > guard:
                return False
            if not extend(depth + 1):
                return False
        return True

    if (V and sizes[0] > guard) or not extend(0):
        return 0, np.full(V, 2**62, dtype=np.int64), np.zeros((V, n_vals), bool), True
    return count, mins, attained, False
