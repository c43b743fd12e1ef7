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
  * enumeration of every solution, feasible when the raw candidate space fits
    the guard.  It extends the partial assignments one variable at a time up
    to the last agent's variables, testing each candidate value against the
    constraints that variable closes.  No constraint joins two variables of
    one agent, so each prefix fixes an interval for every variable of the
    last agent, and those are counted by interval products, not listed;
  * for product-structured instances (every observation-time combination of
    every pair realized in some run), a sweep over every combination of
    per-agent (min, max) signature boxes, which the pairwise constraints see
    exhaustively.  A pair's bound reads only its two agents' boxes, so the
    sweep builds one boolean table per pair of agents and grows a feasibility
    tensor of one byte per combination one agent axis at a time, ANDing in
    the tables that agent closes with the agents before it.  The tensor is
    built one block of agent 0's boxes at a time, each block reduced onto the
    leading half of the axes (its own rows) and the trailing half (ORed over
    the blocks); those two reductions give each agent's boxes in use.  So the
    sweep holds at most max(_BOX_BLOCK, one row of agent 0) combinations at
    once, plus the pair tables and the two reductions, however large the box
    space.

A protocol is time-optimal iff it is the least solution; necessity holds iff
every attainable response point lies inside the corresponding coordinate of
timely common knowledge.

The model is read off the instance's run table.  Its `var_of` matrix names each
triggered run's variable per agent; the constraints, product structure, the
projection of a result and the necessity check are array operations on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import scan_solutions
from .errors import (
    InternalConsistencyError,
    InvariantViolation,
    SizeGuardExceeded,
)
from .events import EventTuple
from .scenarios import (
    ProtocolResult,
    SolutionReport,
    TCRInstance,
    check_response_times,
    knowledge_for,
)

DEFAULT_ENUM_GUARD = 10**6


@dataclass
class StrategyModel:
    instance: TCRInstance
    variables: list  # (agent, observation time), agents in timing order
    lo: np.ndarray
    hi: np.ndarray
    constraints: list  # (p, q, c): t[q] <= t[p] + c, sorted
    var_of: np.ndarray  # (n_triggered, k): each triggered run's variable per agent

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def raw_space(self) -> int:
        return int(np.prod(self.hi - self.lo + 1, dtype=object))


def build_strategy_model(instance: TCRInstance) -> StrategyModel:
    """The variables are the observation times seen per agent in the triggered
    runs; each bounded pair (i, j) contributes t[q] <= t[p] + delta(i, j) for
    every distinct (p, q) = (var of i, var of j) those runs realize."""
    if not instance.scenario.include_never_run:
        raise InvariantViolation(
            "include_never_run is false or --no-never-run is set: the optimality "
            "sweep needs the never-run, without which responses are not pinned to "
            "observed states and the strategy space is not observation-indexed"
        )
    agents = instance.timing.agents
    observed = instance.observed_at[instance.trigger_time >= 0]
    columns = [np.unique(col, return_inverse=True) for col in observed.T]
    variables = [(a, s) for a, (seen, _) in zip(agents, columns) for s in seen.tolist()]
    offsets = np.cumsum([0] + [len(seen) for seen, _ in columns])
    var_of = np.stack([inverse + off for (_, inverse), off in zip(columns, offsets)], axis=1)
    lo = np.concatenate([seen for seen, _ in columns]).astype(np.int64)
    hi = np.full(len(variables), instance.universe.horizon, dtype=np.int64)

    n, k = len(variables), len(agents)
    ai, aj, d = np.array(instance.timing.bounded_pairs(), dtype=np.int64).reshape(-1, 3).T
    bound = np.zeros((k, k), dtype=np.int64)
    bound[ai, aj] = d
    # one code p * n + q per realized variable pair of every bounded pair; a
    # pair of variables names its pair of agents, so the codes sort the
    # constraints.  They are deduplicated by a sort and an adjacent-difference
    # mask: a bare np.unique takes a hash path that imports numpy.ma
    codes = np.sort(var_of[:, ai] * n + var_of[:, aj], axis=None)
    p, q = np.divmod(codes[np.diff(codes, prepend=-1) != 0], max(n, 1))
    agent_of = np.repeat(np.arange(k), np.diff(offsets))
    constraints = list(zip(p.tolist(), q.tolist(), bound[agent_of[p], agent_of[q]].tolist()))
    return StrategyModel(instance, variables, lo, hi, constraints, var_of)


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
    """Pointwise greatest valid assignment, or None when none exists: the
    negated least solution of the mirrored model u = -t, whose bounds are
    [-hi, -lo] and in which t[q] <= t[p] + c reads u[p] <= u[q] + c."""
    mirrored = replace(
        model, lo=-model.hi, hi=-model.lo, constraints=[(q, p, c) for p, q, c in model.constraints]
    )
    u = least_solution(mirrored)
    return None if u is None else -u


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
    n_vals = model.instance.universe.horizon + 1
    count, mins, attained, overflow = scan_solutions(
        model.lo, model.hi, model.constraints, n_vals, guard
    )
    if overflow:
        raise SizeGuardExceeded(
            f"solution sweep met more than {guard} candidate partial assignments "
            f"at one variable"
        )
    return int(count), mins, attained


# -- signature-box sweep -------------------------------------------------------------


def is_product_structured(model: StrategyModel) -> bool:
    """Every pair of observation times co-realized for every bounded pair.

    A bounded pair (i, j) has one constraint per realized pair of observation
    times, at most n_i * n_j, so counting the constraints decides it."""
    timing = model.instance.timing
    n = [sum(a == b for b, _ in model.variables) for a in timing.agents]
    return len(model.constraints) == sum(n[i] * n[j] for i, j, _ in timing.bounded_pairs())


BOX_SWEEP_CAP = 3 * 10**7
_BOX_BLOCK = 1 << 18  # box combinations the sweep holds at once, or one row of agent 0


def box_space(model: StrategyModel) -> int:
    """Number of per-agent response-range box combinations the sweep visits."""
    horizon = model.instance.universe.horizon
    total = 1
    for a in model.instance.timing.agents:
        s_max = max(s for (b, s) in model.variables if b == a)
        total *= sum(horizon + 1 - max(m, s_max) for m in range(horizon + 1))
    return total


def box_sweep(model: StrategyModel):
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
    if box_space(model) > BOX_SWEEP_CAP:
        raise SizeGuardExceeded(
            f"{box_space(model)} box combinations exceed the sweep cap {BOX_SWEEP_CAP}"
        )
    return _sweep_boxes(model)


def _sweep_boxes(model: StrategyModel):
    """`box_sweep` on a model already known to be product-structured."""
    agents = model.instance.timing.agents
    horizon = model.instance.universe.horizon
    k = len(agents)
    box_min, box_max = [], []  # per agent: its boxes' (m, M), m <= M, M >= s_max
    m, M = np.triu_indices(horizon + 1)
    for a in agents:
        s_max = max(s for (b, s) in model.variables if b == a)
        box_min.append(m[M >= s_max])
        box_max.append(M[M >= s_max])

    def along(values, axis):  # lay one agent's box values along its tensor axis
        shape = [1] * k
        shape[axis] = -1
        return values.reshape(shape)

    # feasible[b_0, ..., b_k-1]: every bounded pair holds in that combination.
    # A bound max_j <= min_i + delta(i, j) reads only the boxes of i and j, so
    # each pair of agents gives one n_i x n_j table, both directions ANDed
    tables = {}  # (earlier agent, later agent) -> the pair's table
    for ai, aj, d in model.instance.timing.bounded_pairs():
        key = (min(ai, aj), max(ai, aj))
        tables[key] = tables.get(key, True) & (along(box_max[aj], aj) <= along(box_min[ai], ai) + d)

    # the tensor is built one block of agent 0's boxes at a time, so the
    # sweep's memory does not grow with the box space.  A block grows one
    # agent axis at a time, ANDing in the tables of the pairs that agent
    # closes with the agents before it, agent 0's tables sliced to the block.
    # It writes its rows of the reduction onto the leading half of the axes,
    # which holds agent 0's, and ORs its reduction onto the trailing half
    # into one accumulator
    n = [len(b) for b in box_min]
    half = max(k // 2, 1)
    lead = np.empty(n[:half], dtype=bool)
    trail = np.zeros(n[half:], dtype=bool)
    rows = max(_BOX_BLOCK // math.prod(n[1:]), 1)
    for lo in range(0, n[0], rows):
        block = along(np.ones(min(rows, n[0] - lo), dtype=bool), 0)
        for a in range(1, k):
            closing = [
                table[lo : lo + rows] if earlier == 0 else table
                for (earlier, later), table in tables.items() if later == a
            ]
            first, *rest = closing or [along(np.ones(n[a], dtype=bool), a)]
            block = block & first  # lays out axis a
            for table in rest:
                block &= table
        lead[lo : lo + rows] = block.any(axis=tuple(range(half, k)))
        trail |= block.any(axis=tuple(range(half)))

    if not lead.any():
        return False, None, None

    # the boxes each agent uses, read off the two reductions
    used = [
        reduced.any(axis=tuple(y for y in range(reduced.ndim) if y != x))
        for reduced in (lead, trail)
        for x in range(reduced.ndim)
    ]

    mins = np.full(model.n_vars, np.iinfo(np.int64).max, dtype=np.int64)
    attained = np.zeros((model.n_vars, horizon + 1), dtype=bool)
    times = np.arange(horizon + 1)
    for ai, a in enumerate(agents):
        m, M = box_min[ai][used[ai]], box_max[ai][used[ai]]
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


def _assignment(model: StrategyModel, times: np.ndarray, problems: list) -> np.ndarray:
    """Project a protocol result, as `ProtocolResult.response_times` returns
    it, onto the strategy variables.  The result must be observation-indexed:
    a response by every agent in every triggered run, the same in every run
    sharing an observation class."""
    instance = model.instance
    if problems:
        raise InvariantViolation(f"malformed response: {problems[0]}")
    fired = np.flatnonzero(instance.trigger_time >= 0)
    times = times[fired]
    missing = np.argwhere(times < 0)
    if missing.size:
        r, a = missing[0]
        raise InvariantViolation(
            f"no response for agent {instance.timing.agents[a]!r} in triggered run "
            f"{instance.universe.runs[fired[r]]!r}"
        )
    t = np.empty(model.n_vars, dtype=np.int64)
    t[model.var_of] = times  # every variable has a triggered run
    split = np.argwhere(t[model.var_of] != times)
    if split.size:
        raise InvariantViolation(
            f"agent {instance.timing.agents[split[0][1]]!r} responds at different "
            f"times in runs it cannot distinguish"
        )
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
    as `report` to skip checking the result again.  The result is read once,
    for the check and for the projection onto the strategy variables; so is
    `knowledge` (by default the response knowledge), before any sweep runs.
    """
    responses, problems = result.response_times(instance)
    if report is None:
        report = check_response_times(instance, responses, problems)
    if not report.ok():
        raise InvariantViolation(f"result is not a solution: {report.to_json_dict()}")
    xi = knowledge_for(instance, knowledge)

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
    assignment = _assignment(model, responses, problems)
    if not is_valid_assignment(model, assignment):
        raise InternalConsistencyError(
            "a verified solution does not satisfy the strategy-space constraints"
        )

    methods = ["difference_bound_propagation"]
    least, greatest = least_solution(model), greatest_solution(model)
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

    # every value between a variable's extremes is attained by some solution
    times = np.arange(instance.universe.n_times)
    expected = (least[:, None] <= times) & (times <= greatest[:, None])

    def check_sweep(route, mins, attained):
        if not np.array_equal(mins, least) or not np.array_equal(attained, expected):
            raise InternalConsistencyError(f"{route} disagrees with constraint propagation")

    enumerated = None
    if model.raw_space() <= guard:
        methods.append("exhaustive_enumeration")
        enumerated, mins, attained = enumerate_all_solutions(model, guard=guard)
        if enumerated <= 0:
            raise InternalConsistencyError("exhaustive sweep found no solutions")
        check_sweep("exhaustive sweep", mins, attained)

    if is_product_structured(model) and box_space(model) <= BOX_SWEEP_CAP:
        methods.append("signature_boxes")
        feasible, mins, attained = _sweep_boxes(model)
        if not feasible:
            raise InternalConsistencyError("signature sweep found no solutions")
        check_sweep("signature sweep", mins, attained)

    # necessity: every attainable response point sits inside the corresponding
    # coordinate of timely common knowledge, in every run of its class
    agents = instance.timing.agents
    fired = np.flatnonzero(instance.trigger_time >= 0)
    a, r, t = np.nonzero(expected[model.var_of.T] & ~xi.table[:, fired])
    first = np.lexsort((r, t, model.var_of[r, a]))[:5]  # by variable, time, run
    violations["necessity"] = [
        {"agent": agents[a[n]], "run": instance.universe.runs[fired[r[n]]], "time": int(t[n])}
        for n in first
    ]

    return OptimalityReport(
        solvable_space=True,
        optimal=optimal,
        necessity=r.size == 0,
        methods=methods,
        enumerated_solutions=enumerated,
        earliest=dict(zip(model.variables, least.tolist())),
        latest=dict(zip(model.variables, greatest.tolist())),
        violations=violations,
    )
