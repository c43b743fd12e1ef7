"""Brute-force optimality and necessity checking for response protocols.

With the never-run present, a valid protocol can only respond at states that
have already observed the trigger (responding at an unobserved state would
force the same response in the never-run).  A run-equivalent solution is
therefore exactly a choice, per agent and per observation time s, of one
response time in [s, H], subject to the pairwise difference bounds induced
run by run.  That search space is swept three independent ways:

  * difference-bound propagation: the solution set of such constraints is
    closed under pointwise min and max, so it has a least and a greatest
    element, computed by chaotic iteration; every value between the two
    extremes of a variable is attained by some solution (raising one variable
    propagates along nonnegative cycles only);
  * enumeration of every solution, extending the partial assignments one
    variable at a time and testing each candidate value against the
    constraints that variable closes, feasible when the raw candidate space
    fits the guard;
  * for product-structured instances (every observation-time combination of
    every pair realized in some run), a sweep over every combination of
    per-agent (min, max) signature boxes, which the pairwise constraints see
    exhaustively.  A pair's bound reads only its two agents' boxes, so the
    sweep builds one boolean table per bounded pair and ANDs the tables by
    broadcasting into a feasibility tensor of one byte per combination.

A protocol is time-optimal iff it is the least solution; necessity holds iff
every attainable response point lies inside the corresponding coordinate of
timely common knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from ._kernels import scan_solutions
from .errors import (
    InternalConsistencyError,
    InvariantViolation,
    SizeGuardExceeded,
)
from .fixpoint import EventTuple
from .scenarios import ProtocolResult, SolutionReport, TCRInstance, verify_solution
from .universe import is_finite_delta

DEFAULT_ENUM_GUARD = 10**6


@dataclass
class StrategyModel:
    instance: TCRInstance
    variables: list  # (agent, observation time)
    var_index: dict
    lo: np.ndarray
    hi: np.ndarray
    constraints: list  # (p, q, c): t[q] <= t[p] + c
    run_vars: dict  # triggered run name -> {agent -> variable index}

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def domain_sizes(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def raw_space(self) -> int:
        return int(np.prod(self.domain_sizes(), dtype=object))


def build_strategy_model(instance: TCRInstance) -> StrategyModel:
    if not instance.scenario.include_never_run:
        raise InvariantViolation(
            "optimality sweep needs the never-run: without it responses are "
            "not pinned to observed states and the strategy space is not "
            "observation-indexed"
        )
    agents = instance.timing.agents
    horizon = instance.universe.horizon

    obs_times = {a: sorted({info.observations[a] for info in instance.runs
                            if info.trigger_time is not None}) for a in agents}
    variables = [(a, s) for a in agents for s in obs_times[a]]
    var_index = {v: k for k, v in enumerate(variables)}
    lo = np.array([s for _, s in variables], dtype=np.int64)
    hi = np.full(len(variables), horizon, dtype=np.int64)

    constraints = set()
    run_vars = {}
    for info in instance.runs:
        if info.trigger_time is None:
            continue
        run_vars[info.name] = {
            a: var_index[(a, info.observations[a])] for a in agents
        }
        for i in agents:
            for j in agents:
                if i == j:
                    continue
                d = instance.timing.delta(i, j)
                if is_finite_delta(d):
                    constraints.add(
                        (run_vars[info.name][i], run_vars[info.name][j], int(d))
                    )
    return StrategyModel(
        instance, variables, var_index, lo, hi, sorted(constraints), run_vars
    )


# -- difference-bound propagation ----------------------------------------------


def least_solution(model: StrategyModel):
    """Pointwise least valid assignment, or None when none exists."""
    t = model.lo.copy()
    changed = True
    while changed:
        changed = False
        for p, q, c in model.constraints:
            if t[q] > t[p] + c:
                t[p] = t[q] - c
                if t[p] > model.hi[p]:
                    return None
                changed = True
    return t


def greatest_solution(model: StrategyModel):
    t = model.hi.copy()
    changed = True
    while changed:
        changed = False
        for p, q, c in model.constraints:
            if t[q] > t[p] + c:
                t[q] = t[p] + c
                if t[q] < model.lo[q]:
                    return None
                changed = True
    return t


def is_valid_assignment(model: StrategyModel, t) -> bool:
    if np.any(t < model.lo) or np.any(t > model.hi):
        return False
    return all(t[q] <= t[p] + c for p, q, c in model.constraints)


# -- exhaustive sweep ----------------------------------------------------------


def enumerate_all_solutions(model: StrategyModel, *, guard: int = DEFAULT_ENUM_GUARD):
    """(count, per-variable minima, per-variable attained-value table)."""
    if model.raw_space() > guard:
        raise SizeGuardExceeded(
            f"solution space has {model.raw_space()} raw candidates, above the "
            f"guard {guard}"
        )
    n_vals = instance_horizon(model) + 1
    count, mins, attained, overflow = scan_solutions(
        model.lo, model.hi, model.constraints, n_vals, guard
    )
    if overflow:
        raise SizeGuardExceeded(
            f"solution sweep met more than {guard} candidate partial assignments "
            f"at one variable"
        )
    return int(count), mins, attained


def instance_horizon(model: StrategyModel) -> int:
    return model.instance.universe.horizon


# -- signature-box sweep -------------------------------------------------------------


def is_product_structured(model: StrategyModel) -> bool:
    """Every pair of observation times co-realized for every constrained pair."""
    agents = model.instance.timing.agents
    obs = {a: sorted({s for (b, s) in model.variables if b == a}) for a in agents}
    realized = {}
    for info in model.instance.runs:
        if info.trigger_time is None:
            continue
        for i in agents:
            for j in agents:
                if i != j:
                    realized.setdefault((i, j), set()).add(
                        (info.observations[i], info.observations[j])
                    )
    for i in agents:
        for j in agents:
            if i == j or not is_finite_delta(model.instance.timing.delta(i, j)):
                continue
            if realized.get((i, j), set()) != {
                (si, sj) for si in obs[i] for sj in obs[j]
            }:
                return False
    return True


BOX_SWEEP_CAP = 3 * 10**7


def box_space(model: StrategyModel) -> int:
    """Number of per-agent response-range box combinations the sweep visits."""
    horizon = instance_horizon(model)
    total = 1
    for a in model.instance.timing.agents:
        s_max = max(s for (b, s) in model.variables if b == a)
        total *= sum(horizon + 1 - max(m, s_max) for m in range(horizon + 1))
    return total


def box_sweep(model: StrategyModel, *, cap: int = BOX_SWEEP_CAP):
    """Sweep per-agent (min, max) response-range boxes.

    For product-structured instances every pairwise bound only constrains the
    extremes of each agent's response range, so the boxes see the whole
    solution set: a box combination is feasible iff max_j <= min_i + delta(i,j)
    for every bounded pair, and within a feasible combination each variable
    (agent, s) attains exactly [max(s, min_i), max_i].

    Returns (feasible, mins, attained) like the exhaustive sweep.
    """
    if not is_product_structured(model):
        raise InvariantViolation("signature boxes require a product-structured instance")
    if box_space(model) > cap:
        raise SizeGuardExceeded(
            f"{box_space(model)} box combinations exceed the sweep cap {cap}"
        )
    return _sweep_boxes(model)


def _sweep_boxes(model: StrategyModel):
    """`box_sweep` on a model already known to be product-structured."""
    agents = model.instance.timing.agents
    horizon = instance_horizon(model)
    k = len(agents)
    box_min, box_max = [], []  # per agent: its boxes' (m, M), m <= M, M >= s_max
    for a in agents:
        s_max = max(s for (b, s) in model.variables if b == a)
        m, M = np.triu_indices(horizon + 1)
        box_min.append(m[M >= s_max])
        box_max.append(M[M >= s_max])

    def along(values, axis):  # lay one agent's box values along its tensor axis
        shape = [1] * k
        shape[axis] = -1
        return values.reshape(shape)

    # feasible[b_0, ..., b_k-1]: every bounded pair holds in that combination;
    # a bound max_j <= min_i + delta(i, j) reads only the boxes of i and j, so
    # each pair contributes an n_i x n_j table, broadcast over the other axes
    feasible = np.ones([len(m) for m in box_min], dtype=bool)
    for ai, aj in permutations(range(k), 2):
        d = model.instance.timing.delta(agents[ai], agents[aj])
        if is_finite_delta(d):
            feasible &= along(box_max[aj], aj) <= along(box_min[ai], ai) + int(d)

    if not feasible.any():
        return False, None, None

    mins = np.full(model.n_vars, np.iinfo(np.int64).max, dtype=np.int64)
    attained = np.zeros((model.n_vars, horizon + 1), dtype=bool)
    times = np.arange(horizon + 1)
    for ai, a in enumerate(agents):
        used = feasible.any(axis=tuple(x for x in range(k) if x != ai))
        m, M = box_min[ai][used], box_max[ai][used]
        v, obs = np.array([(v, s) for v, (b, s) in enumerate(model.variables) if b == a]).T
        # within a box, (a, s) attains [max(s, m), M]; M >= s by construction
        first = np.maximum(obs[:, None], m[None, :])
        mins[v] = first.min(axis=1)
        attained[v] = (
            (first[:, :, None] <= times) & (times <= M[None, :, None])
        ).any(axis=1)
    return True, mins, attained


# -- the optimality report ---------------------------------------------------------


@dataclass
class OptimalityReport:
    solvable_space: bool
    optimal: bool
    necessity: bool
    methods: list
    enumerated_solutions: int | None
    earliest: dict
    latest: dict
    violations: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return self.solvable_space and self.optimal and self.necessity

    def to_json_dict(self) -> dict:
        return {
            "solvable_space": self.solvable_space,
            "optimal": self.optimal,
            "necessity": self.necessity,
            "methods": list(self.methods),
            "enumerated_solutions": self.enumerated_solutions,
            "earliest_response_per_class": {
                f"{a}@{s}": int(t) for (a, s), t in self.earliest.items()
            },
            "latest_response_per_class": {
                f"{a}@{s}": int(t) for (a, s), t in self.latest.items()
            },
            "violations": {k: v for k, v in self.violations.items() if v},
        }


def result_assignment(model: StrategyModel, result: ProtocolResult) -> np.ndarray:
    """Project a protocol result onto the strategy variables.

    Requires the result to be observation-indexed: the same response time in
    every run sharing an observation class.
    """
    t = np.full(model.n_vars, -1, dtype=np.int64)
    for info in model.instance.runs:
        if info.trigger_time is None:
            continue
        for agent, v in model.run_vars[info.name].items():
            rt = result.responses.get(info.name, {}).get(agent)
            if rt is None:
                raise InvariantViolation(
                    f"no response for agent {agent!r} in triggered run {info.name!r}"
                )
            if t[v] == -1:
                t[v] = rt
            elif t[v] != rt:
                raise InvariantViolation(
                    f"agent {agent!r} responds at different times in runs it "
                    f"cannot distinguish"
                )
    if np.any(t < 0):
        raise InvariantViolation("some observation class never responds")
    return t


def verify_optimal(
    instance: TCRInstance,
    result: ProtocolResult,
    *,
    knowledge: EventTuple | None = None,
    report: SolutionReport | None = None,
    guard: int = DEFAULT_ENUM_GUARD,
) -> OptimalityReport:
    """Confirm no run-equivalent solution ever responds earlier, and that every
    possible response point lies inside timely common knowledge's coordinate.

    The supplied result must pass `verify_solution`; pass that call's report
    as `report` to skip checking the result again.
    """
    solution_report = report if report is not None else verify_solution(instance, result)
    if not solution_report.ok():
        raise InvariantViolation(
            f"result is not a solution: {solution_report.to_json_dict()}"
        )

    model = build_strategy_model(instance)
    if model.n_vars == 0:  # no triggered runs: the empty protocol is the answer
        return OptimalityReport(
            solvable_space=True,
            optimal=True,
            necessity=True,
            methods=["empty_instance"],
            enumerated_solutions=1,
            earliest={},
            latest={},
        )
    assignment = result_assignment(model, result)
    if not is_valid_assignment(model, assignment):
        raise InternalConsistencyError(
            "a verified solution does not satisfy the strategy-space constraints"
        )

    methods = ["difference_bound_propagation"]
    least = least_solution(model)
    greatest = greatest_solution(model)
    if least is None or greatest is None:
        raise InternalConsistencyError(
            "a solution exists but constraint propagation found the space empty"
        )

    violations: dict = {}
    optimal = bool(np.array_equal(assignment, least))
    if not optimal:
        violations["optimal"] = [
            {"agent": a, "observed_at": int(s), "responds": int(assignment[v]),
             "earliest_possible": int(least[v])}
            for v, (a, s) in enumerate(model.variables)
            if assignment[v] != least[v]
        ][:5]

    horizon = instance_horizon(model)
    enumerated = None
    if model.raw_space() <= guard:
        methods.append("exhaustive_enumeration")
        count, mins, attained = enumerate_all_solutions(model, guard=guard)
        if count <= 0:
            raise InternalConsistencyError("exhaustive sweep found no solutions")
        enumerated = count
        expected = np.zeros_like(attained)
        for v in range(model.n_vars):
            expected[v, least[v] : greatest[v] + 1] = True
        if not np.array_equal(mins, least) or not np.array_equal(attained, expected):
            raise InternalConsistencyError(
                "exhaustive sweep disagrees with constraint propagation"
            )

    if is_product_structured(model) and box_space(model) <= BOX_SWEEP_CAP:
        methods.append("signature_boxes")
        feasible, mins, attained = _sweep_boxes(model)
        if not feasible:
            raise InternalConsistencyError("signature sweep found no solutions")
        expected = np.zeros_like(attained)
        for v in range(model.n_vars):
            expected[v, least[v] : greatest[v] + 1] = True
        if not np.array_equal(mins, least) or not np.array_equal(attained, expected):
            raise InternalConsistencyError(
                "signature sweep disagrees with constraint propagation"
            )

    # necessity: every attainable response point sits inside the corresponding
    # coordinate of timely common knowledge
    from .scenarios import response_knowledge

    xi = knowledge if knowledge is not None else response_knowledge(instance)
    u = instance.universe
    necessity = True
    misses = []
    class_runs: dict = {}
    for info in instance.runs:
        if info.trigger_time is None:
            continue
        for agent, v in model.run_vars[info.name].items():
            class_runs.setdefault(v, []).append(info.name)
    for v, (agent, s) in enumerate(model.variables):
        table = xi[agent].table
        for t in range(int(least[v]), int(greatest[v]) + 1):
            for run in class_runs[v]:
                if not table[u.run_index(run), t]:
                    necessity = False
                    misses.append({"agent": agent, "run": run, "time": t})
    violations["necessity"] = misses[:5]

    earliest = {model.variables[v]: int(least[v]) for v in range(model.n_vars)}
    latest = {model.variables[v]: int(greatest[v]) for v in range(model.n_vars)}
    return OptimalityReport(
        solvable_space=True,
        optimal=optimal,
        necessity=necessity,
        methods=methods,
        enumerated_solutions=enumerated,
        earliest=earliest,
        latest=latest,
        violations=violations,
    )
