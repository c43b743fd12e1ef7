"""Bounded-delay observation contexts: run generation, response-task
instances, solvability, synthesis and solution verification.

A scenario fixes a set of agents, the times at which a one-shot trigger may
fire (plus, by default, a run in which it never does), and, per agent, a
bounded window of private observation delays.  One run is generated per
combination of trigger time and delay vector; local states are
full-information records (current time plus the observation time, once seen),
so generated universes are synchronous and never forget.  An instance keeps
its runs as a table (a trigger-time vector and an (n_runs, k) observation
matrix, -1 for never), counted against the run cap before it is built.

The solvable instances are exactly those in which the trigger guarantees that
every agent eventually reaches its coordinate of timely common knowledge of
the trigger's history; the time-optimal protocol responds at the first instant
that coordinate holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .coordination import uncoordinated_pairs
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
        self.include_never_run = bool(self.include_never_run)
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
        json_object(doc, "scenario")
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


def json_object(value, field: str) -> dict:
    """A JSON object, or an InvariantViolation naming the field it came from."""
    if not isinstance(value, dict):
        raise InvariantViolation(f"{field} must be an object, got {type(value).__name__}")
    return value


NEVER_RUN = "never"


@dataclass(frozen=True)
class RunInfo:
    """One row of an instance's run table, with None for never."""

    name: str
    trigger_time: int | None
    observations: dict  # agent -> observation time or None


@dataclass
class TCRInstance:
    """A generated universe plus the task parameters acting on it.

    The runs form a table in the universe's run order: `trigger_time[r]` and
    `observed_at[r, a]` (agents in scenario order) are read-only int arrays
    holding -1 where the trigger never fires, and so is never observed.
    """

    scenario: ScenarioSpec
    universe: Universe
    trigger: Event
    trigger_time: np.ndarray  # (n_runs,)
    observed_at: np.ndarray  # (n_runs, k)
    timing: TimingSpec  # normalized against the generated horizon
    delta_normalizations: dict = field(default_factory=dict)

    @property
    def runs(self) -> list:
        """The run table as RunInfo rows, built afresh on each access."""
        agents, fired = self.scenario.agents, self.trigger_time.tolist()
        return [
            RunInfo(name, t, dict(zip(agents, row))) if t >= 0
            else RunInfo(name, None, dict.fromkeys(agents))
            for name, t, row in zip(self.universe.runs, fired, self.observed_at.tolist())
        ]

    def trigger_history(self) -> Event:
        return within(self.trigger, 0)


def generate_system(scenario: ScenarioSpec, *, synchronous: bool = True) -> TCRInstance:
    """One run per trigger time and per in-window observation-delay vector, in
    `itertools.product` order, then the never-run.

    The run count is checked against the cap before anything is allocated.
    Generated local states carry the current time, so dropping the synchronous
    flag changes no indistinguishability class; it only skips the clock check.
    """
    horizon = scenario.effective_horizon()
    if scenario.trigger_times and scenario.trigger_times[-1] + scenario.max_hi() > horizon:
        raise InvariantViolation("an observation would land outside the horizon")
    agents = scenario.agents
    lo = [scenario.obs_delay[a][0] for a in agents]
    sizes = [scenario.obs_delay[a][1] - first + 1 for a, first in zip(agents, lo)]
    n_runs = len(scenario.trigger_times) * math.prod(sizes) + scenario.include_never_run
    if n_runs > scenario.run_cap:
        raise SizeGuardExceeded(
            f"scenario generates {n_runs} runs, above the cap {scenario.run_cap}"
        )

    delays = np.indices(sizes).reshape(len(agents), -1).T + lo  # product order
    triggers = np.array(scenario.trigger_times, dtype=np.int64)
    n_fired = len(triggers) * len(delays)
    trigger_time = np.full(n_runs, -1, dtype=np.int64)  # the never-run stays -1
    observed_at = np.full((n_runs, len(agents)), -1, dtype=np.int64)
    trigger_time[:n_fired] = np.repeat(triggers, len(delays))
    observed_at[:n_fired] = (triggers[:, None, None] + delays).reshape(-1, len(agents))
    suffixes = [
        [f"_{a}{d}" for d in range(first, first + n)] for a, first, n in zip(agents, lo, sizes)
    ]
    names = [
        f"t{tau}" + "".join(parts)
        for tau in scenario.trigger_times
        for parts in product(*suffixes)
    ] + [NEVER_RUN] * scenario.include_never_run
    for table in (trigger_time, observed_at):
        table.setflags(write=False)

    # agent a's state at (run, t) is (t, obs if obs <= t else None), coded as
    # t * (H + 2) + (obs + 1, or 0 for None), then interned by first appearance
    clock = np.arange(horizon + 1)
    state_ids, labels = [], []
    for obs in observed_at.T:
        obs = obs[:, None]
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
        agents, names, horizon, state_ids, labels, synchronous=synchronous
    )
    trigger = Event(universe, clock == trigger_time[:, None])
    timing, changed = scenario.timing.normalized(horizon)
    return TCRInstance(
        scenario, universe, trigger, trigger_time, observed_at, timing, changed
    )


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

    def response_times(self, instance: TCRInstance) -> tuple[np.ndarray, list]:
        """The responses as an (n_runs, k) array in the instance's run and agent
        order, -1 for no response, and the well-formedness problems: unknown
        runs and agents, times that are not JSON integers or null, and times
        outside the horizon.  An entry with a problem stays -1."""
        u, k = instance.universe, len(instance.timing.agents)
        column = {a: c for c, a in enumerate(instance.timing.agents)}
        offset = {run: r * k for r, run in enumerate(u.runs)}
        flat = [-1] * (u.n_runs * k)
        problems = []
        for run, per in self.responses.items():
            at = offset.get(run)
            if at is None:
                problems.append({"run": run, "problem": "unknown run"})
                continue
            for agent, t in per.items():
                c = column.get(agent)
                if c is None:
                    problems.append({"run": run, "agent": agent, "problem": "unknown agent"})
                elif t is None:
                    continue
                elif type(t) is not int and (isinstance(t, bool) or not isinstance(t, np.integer)):
                    problems.append({"run": run, "agent": agent, "time": t, "problem": "not an integer"})
                elif not 0 <= t <= u.horizon:
                    problems.append({"run": run, "agent": agent, "time": t, "problem": "outside horizon"})
                else:
                    flat[at + c] = t
        return np.array(flat, dtype=np.int64).reshape(u.n_runs, k), problems

    def response_events(self, instance: TCRInstance) -> EventTuple:
        times, problems = self.response_times(instance)
        if problems:
            raise InvariantViolation(f"malformed response: {problems[0]}")
        return _response_events(instance, times)

    def to_json_dict(self) -> dict:
        return {
            run: {a: t for a, t in sorted(per.items())}
            for run, per in sorted(self.responses.items())
        }

    @classmethod
    def from_json_dict(cls, doc) -> "ProtocolResult":
        """Responses from a run -> {agent -> time} object, or from a `solve`
        document whose runs carry their responses.  Times are kept as given;
        `response_times` judges them."""
        where = "result"
        if isinstance(doc, dict) and "runs" in doc:
            doc, where = doc["runs"], "runs"
        runs = json_object(doc, where)
        first = next(iter(runs.values()), None)
        nested = isinstance(first, dict) and "responses" in first
        responses = {}
        for run, per in runs.items():
            path = f"{where}.{run}"
            if nested:
                per = json_object(per, path).get("responses")
                path += ".responses"
            responses[run] = dict(json_object(per, path))
        return cls(responses)


def _response_events(instance: TCRInstance, times: np.ndarray) -> EventTuple:
    """Agent a's event holds at (r, times[r, a]); -1 matches no time."""
    u = instance.universe
    at = times[:, :, None] == np.arange(u.n_times)  # (run, agent, time)
    return EventTuple(u, {a: Event(u, at[:, c]) for c, a in enumerate(instance.timing.agents)})


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

    * each agent responds at most once per run, at an integer time within the horizon;
    * the response ensemble respects every pairwise timing bound;
    * responses happen only at or after the trigger;
    * in every triggered run every agent responds;
    * each agent's response set is determined by its own local state.
    """
    checks: dict = {}
    cex: dict = {}

    times, problems = result.response_times(instance)
    checks["well_formed"] = not problems
    cex["well_formed"] = problems
    if problems:
        for name in ("coordinated", "follows_trigger", "covers_triggered_runs", "locally_determined"):
            checks[name] = False
        return SolutionReport(checks, cex)

    ensemble = _response_events(instance, times)
    broken = uncoordinated_pairs(ensemble, instance.timing)
    checks["coordinated"] = not broken
    if broken:
        cex["coordinated"] = [{"pair": f"{i}->{j}"} for i, j in broken]

    stray = tuple_union(ensemble) - instance.trigger_history()
    checks["follows_trigger"] = stray.is_empty()
    if not stray.is_empty():
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
