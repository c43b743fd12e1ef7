"""Nested-knowledge characterisation of timely common knowledge.

A path is a non-stuttering agent sequence whose consecutive pairs carry finite
timing bounds.  Each path denotes a nested formula

    knows(i1, shift(knows(i2, shift(... knows(in, psi) ...))))

with the exact shift of delta(i_m, i_m+1) between levels.  Intersecting these
formulae over all paths from an agent reconstructs that agent's coordinate of
the exact-shift fixed point `timely_ck_g`.

Folding shared path suffixes makes the depth-n conjunction of the whole path
family exactly the n-th descending iterate of the exact-shift map, so the
production route to that coordinate is `timely_ck_g` itself.
`nested_conjunction` evaluates every path separately with the event operators
and asserts that its running conjunction stays between consecutive iterates and
lands on the fixed point; it is the independent check this module provides on
the fixed-point engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvariantViolation, SizeGuardExceeded
from .events import Event, EventTuple, eventually, first_instants, is_stable, knows, shift_exact
from .fixpoint import TimingSpec, apply_g, timely_ck, timely_ck_g_info
from .universe import is_finite_delta

DeltaPath = tuple  # of agent ids

DEFAULT_MAX_PATHS = 50_000  # paths `nested_conjunction` may evaluate; `--max-paths` sets it


def validate_path(spec: TimingSpec, path) -> DeltaPath:
    path = tuple(path)
    if not path:
        raise InvariantViolation("a path needs at least one agent")
    for agent in path:
        if agent not in spec.agents:
            raise InvariantViolation(f"path agent {agent!r} is not in the timing spec")
    for a, b in zip(path, path[1:]):
        if a == b:
            raise InvariantViolation("paths may not stutter")
        if not is_finite_delta(spec.delta(a, b)):
            raise InvariantViolation(
                f"path uses the unbounded pair ({a!r}, {b!r})"
            )
    return path


def finite_successors(spec: TimingSpec, agent: str) -> list[str]:
    return [j for j in spec.agents if j != agent and is_finite_delta(spec.delta(agent, j))]


def _extend_paths(spec: TimingSpec, frontier: list) -> list[DeltaPath]:
    """Each path of the frontier extended by each finite-bound successor of its
    last agent, in spec agent order."""
    return [path + (succ,) for path in frontier for succ in finite_successors(spec, path[-1])]


def paths_are_finite(spec: TimingSpec) -> bool:
    """Whether the bound graph (an edge i -> j per finitely bounded pair) is
    acyclic, making the path set finite.  A graph on k agents is acyclic iff
    it has no walk of k steps: the k-th boolean power of its adjacency matrix
    is empty."""
    k = len(spec.agents)
    adjacent = np.zeros((k, k), dtype=bool)
    for i, j, _ in spec.bounded_pairs():
        adjacent[i, j] = True
    return not np.linalg.matrix_power(adjacent, k).any()


def enumerate_paths(spec: TimingSpec, start: str, max_len: int) -> list[DeltaPath]:
    """All finite-bound paths from `start` up to `max_len`, shortest first and
    lexicographic (in spec agent order) within each length."""
    if start not in spec.agents:
        raise InvariantViolation(f"start agent {start!r} is not in the timing spec")
    if max_len < 1:
        raise InvariantViolation("max_len must be positive")
    out: list[DeltaPath] = []
    frontier = [(start,)]
    for _ in range(max_len):
        out.extend(frontier)
        frontier = _extend_paths(spec, frontier)
        if not frontier:
            break
    return out


def nested_formula(path, psi: Event, spec: TimingSpec) -> Event:
    """Evaluate the path's nested formula right to left."""
    path = validate_path(spec, path)
    value = knows(path[-1], psi)
    for m in range(len(path) - 2, -1, -1):
        value = knows(path[m], shift_exact(value, spec.delta(path[m], path[m + 1])))
    return value


def nested_conjunction(
    start: str, psi: Event, spec: TimingSpec, *, max_paths: int = DEFAULT_MAX_PATHS
) -> Event:
    """Intersection of all nested path formulae rooted at `start`, evaluated
    path by path with the event operators.

    The running value after depth n is wedged between consecutive exact-shift
    iterates, and must land exactly on the fixed point one depth after the
    iterates stabilize; both facts are asserted.
    """
    if start not in spec.agents:
        raise InvariantViolation(f"start agent {start!r} is not in the timing spec")
    u = psi.universe
    g_prev = EventTuple.top(u, spec.agents)
    running = Event.full(u)
    frontier = [(start,)]
    total = 0
    bound = u.n_points * len(spec.agents) + 2
    for depth in range(1, bound + 1):
        total += len(frontier)
        if total > max_paths:
            raise SizeGuardExceeded(
                f"explicit path evaluation needs more than {max_paths} paths"
            )
        for path in frontier:
            running = running & nested_formula(path, psi, spec)
        g_cur = apply_g(psi, spec, g_prev)
        if not (g_cur[start] <= running and running <= g_prev[start]):
            raise InternalConsistencyError(
                "explicit path conjunction escaped the exact-shift iterate bracket"
            )
        if g_cur == g_prev:
            if running != g_cur[start]:
                raise InternalConsistencyError(
                    "explicit path conjunction missed the exact-shift fixed point"
                )
            return running
        g_prev = g_cur
        frontier = _extend_paths(spec, frontier)
        if not frontier:  # no extensions: the conjunction is already complete
            if running != g_cur[start]:
                raise InternalConsistencyError(
                    "exhausted path family disagrees with the exact-shift fixed point"
                )
            return running
    raise InternalConsistencyError("explicit path evaluation failed to stabilize")


# -- the characterisation report ------------------------------------------------


@dataclass
class NestedReport:
    preconditions: dict
    per_agent: dict
    depths: int
    per_depth_sizes: list
    asserted_full_equality: bool
    exact_shift_below_window: bool = True

    def to_json_dict(self) -> dict:
        return {
            "preconditions": dict(self.preconditions),
            "per_agent": {a: dict(v) for a, v in self.per_agent.items()},
            "depths": self.depths,
            "per_depth_sizes": [dict(s) for s in self.per_depth_sizes],
            "asserted_full_equality": self.asserted_full_equality,
            "exact_shift_below_window": self.exact_shift_below_window,
        }


def verify_nested_characterization(
    psi: Event,
    spec: TimingSpec,
    *,
    explicit_paths: bool = False,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> NestedReport:
    """Compare the nested-path conjunction with both fixed points.

    The depth-n conjunction is the n-th exact-shift iterate, so `depths` and
    `per_depth_sizes` are the iteration count and trace of `timely_ck_g`.
    With `explicit_paths` every agent's `nested_conjunction` is also evaluated
    path by path and asserted equal to the exact-shift fixed point.

    The relation between the two fixed points depends on the bounds.  With all
    bounds finite the exact-shift fixed point must sit below the window one
    (asserted); an unbounded pair is simply dropped by the exact-shift map, so
    with mixed bounds the two can be incomparable and the report only records
    the relation.  Full equality is provable — and asserted — when the
    universe has perfect recall, psi is stable, no finite bound is positive
    (a positive bound's exact shifts clip at the horizon), and either all
    bounds are finite or psi guarantees every window coordinate eventually
    (the solvability condition).
    """
    u = psi.universe
    g_info = timely_ck_g_info(psi, spec)
    g_fix = g_info.value
    f_fix = timely_ck(psi, spec)

    if explicit_paths:
        for agent in spec.agents:
            if nested_conjunction(agent, psi, spec, max_paths=max_paths) != g_fix[agent]:
                raise InternalConsistencyError(
                    "explicit path conjunction disagrees with the exact-shift fixed point"
                )

    g_below_f = g_fix <= f_fix
    if spec.all_finite() and not g_below_f:
        raise InternalConsistencyError(
            "with finite bounds the exact-shift fixed point must sit below "
            "the window fixed point"
        )

    solvability_condition = all(
        psi <= eventually(f_fix[i]) for i in spec.agents
    )
    pre = {
        "perfect_recall": u.exhibits_perfect_recall(),
        "stable_psi": is_stable(psi),
        "all_finite": spec.all_finite(),
        "solvability_condition": solvability_condition,
        "no_positive_finite_bounds": spec.max_positive_finite() == 0,
        # acyclic bound graph: finitely many paths, depth |I| already exhaustive
        "finite_path_set": paths_are_finite(spec),
    }
    gate = (
        pre["perfect_recall"]
        and pre["stable_psi"]
        and (pre["all_finite"] or pre["solvability_condition"])
    )

    per_agent = {}
    for agent in spec.agents:
        window_only = f_fix[agent] - g_fix[agent]
        shift_only = g_fix[agent] - f_fix[agent]
        per_agent[agent] = {
            "matches_exact_shift_fixed_point": True,
            "equals_window_fixed_point": f_fix[agent] == g_fix[agent],
            "window_only_points": window_only.size,
            "exact_shift_only_points": shift_only.size,
            "first_instants_agree": np.array_equal(
                first_instants(f_fix[agent].table), first_instants(g_fix[agent].table)
            ),
        }

    asserted = False
    if gate and pre["no_positive_finite_bounds"]:
        asserted = True
        if any(not per_agent[a]["equals_window_fixed_point"] for a in spec.agents):
            raise InternalConsistencyError(
                "fixed points differ although no window can clip at the horizon"
            )

    return NestedReport(
        pre,
        per_agent,
        g_info.iterations,
        g_info.trace[1:],
        asserted,
        exact_shift_below_window=g_below_f,
    )
