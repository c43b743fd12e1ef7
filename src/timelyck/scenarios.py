"""Bounded-delay observation contexts: run generation, response-task
instances, solvability, synthesis and solution verification.

A scenario fixes a set of agents, the times at which a one-shot trigger may
fire (plus, by default, a run in which it never does), and, per agent, a
bounded window of private observation delays.  One run is generated per
combination of trigger time and delay vector; local states are
full-information records (current time plus the observation time, once seen),
so generated universes are synchronous and never forget.

The solvable instances are exactly those in which the trigger guarantees that
every agent eventually reaches its coordinate of timely common knowledge of
the trigger's history; the time-optimal protocol responds at the first instant
that coordinate holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvariantViolation,
    SizeGuardExceeded,
    Unsolvable,
)
from .events import (
    Event,
    common_knowledge,
    eventually,
    is_local,
    knows,
    within,
)
from .fixpoint import EventTuple, TimingSpec, timely_ck, tuple_union
from .universe import INF, Universe


@dataclass
class ScenarioSpec:
    agents: tuple
    trigger_times: tuple
    obs_delay: dict  # agent -> (lo, hi)
    timing: TimingSpec
    actions: dict  # agent -> action label
    include_never_run: bool = True
    horizon: int | None = None
    run_cap: int = 2048

    def __post_init__(self):
        self.agents = tuple(self.agents)
        self.trigger_times = tuple(sorted(set(int(t) for t in self.trigger_times)))
        if self.agents != self.timing.agents:
            raise InvariantViolation("scenario agents must match the timing spec agents")
        if set(self.actions) != set(self.agents):
            raise InvariantViolation("actions must name exactly the scenario agents")
        if set(self.obs_delay) != set(self.agents):
            raise InvariantViolation("obs_delay must name exactly the scenario agents")
        for agent, (lo, hi) in self.obs_delay.items():
            if not (0 <= lo <= hi):
                raise InvariantViolation(
                    f"obs_delay for {agent!r} must satisfy 0 <= lo <= hi"
                )
        if not self.trigger_times and not self.include_never_run:
            raise InvariantViolation("scenario generates no runs at all")
        if any(t < 0 for t in self.trigger_times):
            raise InvariantViolation("trigger times must be nonnegative")
        if self.horizon is not None and self.horizon < self.min_horizon():
            raise InvariantViolation(
                f"horizon {self.horizon} too small; observations need at least "
                f"{self.min_horizon()}"
            )

    def max_hi(self) -> int:
        return max(hi for _, hi in self.obs_delay.values())

    def min_horizon(self) -> int:
        return (max(self.trigger_times) if self.trigger_times else 0) + self.max_hi()

    def auto_horizon(self) -> int:
        # large enough that no response is ever clipped by the end of time
        return self.min_horizon() + self.timing.max_positive_finite() + 1

    def effective_horizon(self) -> int:
        return self.horizon if self.horizon is not None else self.auto_horizon()

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "agents": list(self.agents),
            "trigger_times": list(self.trigger_times),
            "include_never_run": self.include_never_run,
            "obs_delay": {a: list(self.obs_delay[a]) for a in self.agents},
            "delta": self.timing.to_json_dict(),
            "actions": {a: self.actions[a] for a in self.agents},
        }
        if self.horizon is not None:
            doc["horizon"] = self.horizon
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioSpec":
        try:
            agents = tuple(doc["agents"])
            timing = TimingSpec.from_json_dict(agents, doc["delta"])
            trigger_times = doc["trigger_times"]
            if not isinstance(trigger_times, (list, tuple)):
                raise InvariantViolation(
                    f"trigger_times must be a list, got {trigger_times!r}"
                )
            obs_delay = doc["obs_delay"]
            if not isinstance(obs_delay, dict):
                raise InvariantViolation(f"obs_delay must be an object, got {obs_delay!r}")
            windows = {}
            for a, window in obs_delay.items():
                if not isinstance(window, (list, tuple)) or len(window) != 2:
                    raise InvariantViolation(
                        f"obs_delay.{a} must be a [lo, hi] pair, got {window!r}"
                    )
                windows[a] = tuple(_json_int(v, f"obs_delay.{a}") for v in window)
            horizon = doc.get("horizon")
            return cls(
                agents=agents,
                trigger_times=tuple(
                    _json_int(t, f"trigger_times[{n}]") for n, t in enumerate(trigger_times)
                ),
                obs_delay=windows,
                timing=timing,
                actions=dict(doc["actions"]),
                include_never_run=doc.get("include_never_run", True),
                horizon=None if horizon is None else _json_int(horizon, "horizon"),
            )
        except KeyError as exc:
            raise InvariantViolation(f"scenario document missing field {exc}") from None


def _json_int(value, field: str) -> int:
    """A JSON integer, or an InvariantViolation naming the field it came from."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvariantViolation(f"{field} must be an integer, got {value!r}")
    return int(value)


NEVER_RUN = "never"


@dataclass
class RunInfo:
    name: str
    trigger_time: int | None
    observations: dict  # agent -> observation time or None


@dataclass
class TCRInstance:
    """A generated universe plus the task parameters acting on it."""

    scenario: ScenarioSpec
    universe: Universe
    trigger: Event
    runs: list  # of RunInfo
    timing: TimingSpec  # normalized against the generated horizon
    delta_normalizations: dict = field(default_factory=dict)

    @property
    def actions(self) -> dict:
        return self.scenario.actions

    def trigger_history(self) -> Event:
        return within(self.trigger, 0)


def _none_as_minus_one(times) -> np.ndarray:
    return np.array([-1 if t is None else t for t in times], dtype=np.int64)


def generate_system(scenario: ScenarioSpec, *, synchronous: bool = True) -> TCRInstance:
    """One run per trigger time and per in-window observation-delay vector.

    Generated local states carry the current time, so dropping the synchronous
    flag changes no indistinguishability class; it only skips the clock check.
    """
    horizon = scenario.effective_horizon()
    if scenario.trigger_times and scenario.trigger_times[-1] + scenario.max_hi() > horizon:
        raise InvariantViolation("an observation would land outside the horizon")

    runs: list[RunInfo] = []
    ranges = [
        range(scenario.obs_delay[a][0], scenario.obs_delay[a][1] + 1)
        for a in scenario.agents
    ]
    for tau in scenario.trigger_times:
        for delays in product(*ranges):
            name = f"t{tau}" + "".join(
                f"_{a}{d}" for a, d in zip(scenario.agents, delays)
            )
            obs = {a: tau + d for a, d in zip(scenario.agents, delays)}
            runs.append(RunInfo(name, tau, obs))
    if scenario.include_never_run:
        runs.append(RunInfo(NEVER_RUN, None, {a: None for a in scenario.agents}))
    if len(runs) > scenario.run_cap:
        raise SizeGuardExceeded(
            f"scenario generates {len(runs)} runs, above the cap {scenario.run_cap}"
        )

    # agent a's state at (run, t) is (t, obs if obs <= t else None), coded as
    # t * (H + 2) + (obs + 1, or 0 for None), then interned by first appearance
    clock = np.arange(horizon + 1)
    state_ids, labels = [], []
    for agent in scenario.agents:
        obs = _none_as_minus_one(info.observations[agent] for info in runs)[:, None]
        codes = clock * (horizon + 2) + np.where(obs <= clock, obs + 1, 0)
        uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        state_ids.append(rank[inverse].reshape(codes.shape))
        t_of, seen_of = np.divmod(uniq[order], horizon + 2)
        labels.append(
            [(t, s - 1 if s else None) for t, s in zip(t_of.tolist(), seen_of.tolist())]
        )

    universe = Universe.from_state_ids(
        scenario.agents,
        [info.name for info in runs],
        horizon,
        state_ids,
        labels,
        synchronous=synchronous,
    )
    fired_at = _none_as_minus_one(info.trigger_time for info in runs)
    trigger = Event(universe, clock == fired_at[:, None])
    timing, changed = scenario.timing.normalized(horizon)
    return TCRInstance(scenario, universe, trigger, runs, timing, changed)


# -- solvability and synthesis ---------------------------------------------------


def response_knowledge(instance: TCRInstance) -> EventTuple:
    """Timely common knowledge of the trigger's history, per agent."""
    return timely_ck(instance.trigger_history(), instance.timing)


def solvability(instance: TCRInstance, *, knowledge: EventTuple | None = None) -> bool:
    """Whether the trigger guarantees every agent eventually reaches its
    coordinate; per-agent verdicts must coincide, and are cross-checked."""
    xi = knowledge if knowledge is not None else response_knowledge(instance)
    verdicts = [
        instance.trigger <= eventually(xi[agent]) for agent in instance.timing.agents
    ]
    if len(set(verdicts)) > 1:
        raise InternalConsistencyError(
            "solvability verdict differs between agents; for-every and "
            "for-some characterisations must coincide"
        )
    return verdicts[0]


@dataclass
class ProtocolResult:
    responses: dict  # run name -> {agent -> response time or None}

    def response_events(self, instance: TCRInstance) -> EventTuple:
        u = instance.universe
        rows = np.array([u.run_index(run) for run in self.responses], dtype=np.intp)
        coords = {}
        for agent in instance.timing.agents:
            times = [per.get(agent) for per in self.responses.values()]
            hit = np.array([t is not None for t in times], dtype=bool)
            at = np.array([t for t in times if t is not None], dtype=np.int64)
            outside = (at < 0) | (at > u.horizon)
            if outside.any():
                raise InvariantViolation(
                    f"time {at[outside][0]} outside 0..{u.horizon}"
                )
            table = np.zeros((u.n_runs, u.n_times), dtype=bool)
            table[rows[hit], at] = True
            coords[agent] = Event(u, table)
        return EventTuple(u, coords)

    def to_json_dict(self) -> dict:
        return {
            run: {a: t for a, t in sorted(per.items())}
            for run, per in sorted(self.responses.items())
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProtocolResult":
        return cls({run: dict(per) for run, per in doc.items()})


def synthesize_optimal(
    instance: TCRInstance, *, knowledge: EventTuple | None = None
) -> ProtocolResult:
    """Respond at the first instant the agent's knowledge coordinate holds."""
    xi = knowledge if knowledge is not None else response_knowledge(instance)
    if not solvability(instance, knowledge=xi):
        raise Unsolvable("instance admits no coordinated response protocol")
    u = instance.universe
    agents = instance.timing.agents
    tables = np.stack([xi[agent].table for agent in agents])  # (agent, run, time)
    holds = tables.any(axis=2)
    fired = instance.trigger.table.any(axis=1)
    if (holds & ~fired).any():
        raise InternalConsistencyError(
            "knowledge coordinate holds in a run without a trigger"
        )
    if (~holds & fired).any():
        raise InternalConsistencyError(
            "solvable instance left an agent without a response time"
        )
    first = np.where(holds, tables.argmax(axis=2), -1).T.tolist()  # (run, agent)
    responses = {
        run: {agent: (t if t >= 0 else None) for agent, t in zip(agents, row)}
        for run, row in zip(u.runs, first)
    }
    return ProtocolResult(responses)


# -- solution checking ----------------------------------------------------------


@dataclass
class SolutionReport:
    checks: dict
    counterexamples: dict

    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "checks": dict(self.checks),
            "counterexamples": {k: v for k, v in self.counterexamples.items() if v},
        }


def verify_solution(instance: TCRInstance, result: ProtocolResult) -> SolutionReport:
    """The four defining conditions of a solution, plus local determination.

    * each agent responds at most once per run, within the horizon;
    * the response ensemble respects every pairwise timing bound;
    * responses happen only at or after the trigger;
    * in every triggered run every agent responds;
    * each agent's response set is determined by its own local state.
    """
    u = instance.universe
    checks: dict = {}
    cex: dict = {}

    well_formed = True
    problems = []
    known_runs = {info.name for info in instance.runs}
    for run, per in result.responses.items():
        if run not in known_runs:
            well_formed = False
            problems.append({"run": run, "problem": "unknown run"})
            continue
        for agent, t in per.items():
            if agent not in instance.timing.agents:
                well_formed = False
                problems.append({"run": run, "agent": agent, "problem": "unknown agent"})
            elif t is not None and not (0 <= t <= u.horizon):
                well_formed = False
                problems.append({"run": run, "agent": agent, "time": t, "problem": "outside horizon"})
    checks["well_formed"] = well_formed
    cex["well_formed"] = problems
    if not well_formed:
        for name in ("coordinated", "follows_trigger", "covers_triggered_runs", "locally_determined"):
            checks[name] = False
        return SolutionReport(checks, cex)

    ensemble = result.response_events(instance)

    from .coordination import uncoordinated_pairs

    broken = uncoordinated_pairs(ensemble, instance.timing)
    checks["coordinated"] = not broken
    if broken:
        cex["coordinated"] = [{"pair": f"{i}->{j}"} for i, j in broken]

    history = instance.trigger_history()
    stray = tuple_union(ensemble) - history
    checks["follows_trigger"] = stray.is_empty()
    if not stray.is_empty():
        cex["follows_trigger"] = [
            {"run": p.run, "time": p.time} for p in stray.points()[:5]
        ]

    covered = True
    misses = []
    for agent in instance.timing.agents:
        gap = instance.trigger - eventually(ensemble[agent])
        if not gap.is_empty():
            covered = False
            misses.extend(
                {"agent": agent, "run": p.run} for p in gap.points()[:3]
            )
    checks["covers_triggered_runs"] = covered
    cex["covers_triggered_runs"] = misses

    local = True
    nonlocal_agents = []
    for agent in instance.timing.agents:
        if not is_local(agent, ensemble[agent]):
            local = False
            nonlocal_agents.append({"agent": agent})
    checks["locally_determined"] = local
    cex["locally_determined"] = nonlocal_agents

    return SolutionReport(checks, cex)


# -- special-case timing matrices ----------------------------------------------


def ordered_delta(agents) -> TimingSpec:
    """Each agent may act only once its predecessor in the list has."""
    agents = tuple(agents)
    delta = {}
    for ki, i in enumerate(agents):
        for kj, j in enumerate(agents):
            if i != j:
                delta[(i, j)] = 0 if ki == kj + 1 else INF
    return TimingSpec(agents, delta)


def simultaneous_delta(agents) -> TimingSpec:
    agents = tuple(agents)
    return TimingSpec(
        agents, {(i, j): 0 for i in agents for j in agents if i != j}
    )


def joint_delta(partition) -> TimingSpec:
    """Blocks act simultaneously, each block only after the previous one."""
    partition = [tuple(block) for block in partition]
    agents = tuple(a for block in partition for a in block)
    if len(set(agents)) != len(agents):
        raise InvariantViolation("partition blocks must be disjoint")
    block_of = {a: k for k, block in enumerate(partition) for a in block}
    delta = {}
    for i in agents:
        for j in agents:
            if i == j:
                continue
            same = block_of[i] == block_of[j]
            succ = block_of[i] == block_of[j] + 1
            delta[(i, j)] = 0 if same or succ else INF
    return TimingSpec(agents, delta)


def make_scenario(
    agents,
    timing: TimingSpec,
    *,
    obs_delay=(0, 1),
    trigger_times=(0,),
    include_never_run: bool = True,
    horizon: int | None = None,
    action: str = "respond",
) -> ScenarioSpec:
    agents = tuple(agents)
    if isinstance(obs_delay, dict):
        per_agent = {a: tuple(obs_delay[a]) for a in agents}
    else:
        per_agent = {a: tuple(obs_delay) for a in agents}
    return ScenarioSpec(
        agents=agents,
        trigger_times=tuple(trigger_times),
        obs_delay=per_agent,
        timing=timing,
        actions={a: action for a in agents},
        include_never_run=include_never_run,
        horizon=horizon,
    )


# -- reduction identities ---------------------------------------------------------


def verify_ordered_reduction(instance: TCRInstance) -> dict:
    """Coordinate m must equal the knowledge chain down the response order."""
    psi = instance.trigger_history()
    xi = response_knowledge(instance)
    agents = instance.timing.agents
    out = {}
    chain = psi
    for agent in agents:
        chain = knows(agent, chain)
        out[agent] = xi[agent] == chain
    return out


def verify_simultaneous_reduction(instance: TCRInstance) -> dict:
    """Every coordinate must equal plain common knowledge of the history."""
    psi = instance.trigger_history()
    xi = response_knowledge(instance)
    ck = common_knowledge(instance.timing.agents, psi)
    return {agent: xi[agent] == ck for agent in instance.timing.agents}


def verify_joint_reduction(instance: TCRInstance, partition) -> dict:
    """Block m's coordinates must equal the nested block-wise common knowledge."""
    psi = instance.trigger_history()
    xi = response_knowledge(instance)
    out = {}
    value = psi
    for block in [tuple(b) for b in partition]:
        value = common_knowledge(block, value)
        for agent in block:
            out[agent] = xi[agent] == value
    return out
