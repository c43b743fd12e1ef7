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
Solving works on that table and builds no point event: knowledge is decided
on per-agent observation classes, solvability and synthesis read one (k,
n_runs) table of the runs each coordinate reaches, a synthesized result keeps
its (n_runs, k) response array, and a result is checked on such an array.  The
universe's states are interned, and the trigger event built, only when
something reads them.

The solvable instances are exactly those in which the trigger guarantees that
every agent eventually reaches its coordinate of timely common knowledge of
the trigger's history; the time-optimal protocol responds at the first instant
that coordinate holds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvariantViolation,
    SizeGuardExceeded,
    Unsolvable,
)
from .events import Event, EventTuple, within
from .fixpoint import GfpResult, TimingSpec, _descend, late_pairs, reach_matrix
from .universe import (
    INF, Universe, json_bool, json_int, json_list, json_object, json_str,
)


DEFAULT_RUN_CAP = 2048  # runs a generated scenario may have; `--run-cap` sets it
POINTS_PER_CAPPED_RUN = 2**11  # the cap also bounds runs * times * agents by cap * this


@dataclass
class ScenarioSpec:
    agents: tuple
    trigger_times: tuple
    obs_delay: dict  # agent -> (lo, hi)
    timing: TimingSpec
    actions: dict  # agent -> action label
    include_never_run: bool = True
    horizon: int | None = None
    run_cap: int = DEFAULT_RUN_CAP

    def __post_init__(self):
        self.agents = tuple(self.agents)
        self.include_never_run = bool(self.include_never_run)
        self.trigger_times = tuple(sorted(set(int(t) for t in self.trigger_times)))
        if self.agents != self.timing.agents:
            raise InvariantViolation("agents must match the timing spec agents")
        if set(self.actions) != set(self.agents):
            raise InvariantViolation("actions must name exactly the scenario agents")
        if set(self.obs_delay) != set(self.agents):
            raise InvariantViolation("obs_delay must name exactly the scenario agents")
        for agent, (lo, hi) in self.obs_delay.items():
            if not (0 <= lo <= hi):
                raise InvariantViolation(
                    f"obs_delay.{agent} must satisfy 0 <= lo <= hi, got [{lo}, {hi}]"
                )
        if not self.trigger_times and not self.include_never_run:
            raise InvariantViolation("scenario generates no runs at all")
        if any(t < 0 for t in self.trigger_times):
            raise InvariantViolation(f"trigger_times must be nonnegative, got {self.trigger_times[0]}")
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
        """A scenario document, every field read by a `universe.json_*` reader."""
        doc = json_object(doc, "scenario")
        try:
            agents = tuple(json_list(doc["agents"], "agents", json_str))
            timing = TimingSpec.from_json_dict(agents, json_object(doc["delta"], "delta"))
            return cls(
                agents=agents,
                trigger_times=tuple(json_list(doc["trigger_times"], "trigger_times", json_int)),
                obs_delay={
                    a: tuple(json_list(window, f"obs_delay.{a}", json_int, 2))
                    for a, window in json_object(doc["obs_delay"], "obs_delay").items()
                },
                timing=timing,
                actions={
                    a: json_str(label, f"actions.{a}")
                    for a, label in json_object(doc["actions"], "actions").items()
                },
                include_never_run=json_bool(doc.get("include_never_run", True), "include_never_run"),
                horizon=None if doc.get("horizon") is None else json_int(doc["horizon"], "horizon"),
            )
        except KeyError as exc:
            raise InvariantViolation(f"scenario document missing field {exc}") from None


NEVER_RUN = "never"


class RunInfo(NamedTuple):
    """One row of an instance's run table, with None for never."""

    name: str
    trigger_time: int | None
    observations: dict  # agent -> observation time or None


def row_dict(keys: tuple, cells: list) -> dict:
    """One run-table row as keys -> cells, None where it holds -1."""
    if -1 in cells:  # mostly the never-run's row
        cells = [None if cell < 0 else cell for cell in cells]
    return dict(zip(keys, cells))


class _RunRows(Sequence):
    """An instance's run table as RunInfo rows in run order, each built when it is read."""

    def __init__(self, instance: TCRInstance):
        self.instance = instance

    def __len__(self) -> int:
        return self.instance.universe.n_runs

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows(index))
        return self[index : index + 1 or None][0]  # an empty slice is an IndexError

    def __iter__(self):
        return self._rows(slice(None))

    def _rows(self, span: slice):
        inst, taus = self.instance, self.instance.trigger_time[span]
        return map(RunInfo, inst.universe.runs[span], np.where(taus < 0, None, taus).tolist(),
                   map(partial(row_dict, inst.scenario.agents), inst.observed_at[span].tolist()))


@dataclass
class TCRInstance:
    """A generated universe plus the task parameters acting on it.

    The runs form a table in the universe's run order: `trigger_time[r]` and
    `observed_at[r, a]` (agents in scenario order) are read-only int arrays
    holding -1 where the trigger never fires, and so is never observed.  `runs`
    reads the table as RunInfo rows, each built when it is read.
    """

    scenario: ScenarioSpec
    universe: Universe
    trigger_time: np.ndarray  # (n_runs,)
    observed_at: np.ndarray  # (n_runs, k)
    timing: TimingSpec  # normalized against the generated horizon
    delta_normalizations: dict = field(default_factory=dict)

    runs = property(_RunRows)

    @property
    def trigger(self) -> Event:
        """The trigger event, each run's trigger time, built afresh on each access."""
        return Event(self.universe, np.arange(self.universe.n_times) == self.trigger_time[:, None])

    def trigger_history(self) -> Event:
        return within(self.trigger, 0)


def _intern_states(observed_at: np.ndarray, horizon: int) -> tuple[list, list]:
    """A generated universe's state ids and labels, per agent.

    Agent a's state at (run, t) is (t, obs if obs <= t else None), coded as
    t * (H + 2) + (obs + 1, or 0 for None), then interned by first appearance.
    """
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
    return state_ids, labels


def generate_system(scenario: ScenarioSpec, *, synchronous: bool = True) -> TCRInstance:
    """One run per trigger time and per in-window observation-delay vector, in
    `itertools.product` order, then the never-run.

    The run count is checked against the cap, and runs * times * agents against
    the cap times `POINTS_PER_CAPPED_RUN`, before anything is allocated.
    Generated local states carry the current time, so dropping the synchronous
    flag changes no indistinguishability class; it only skips the clock check.
    The universe gets `_intern_states` as its deferred interning step, so the
    states are built only when something reads them.
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
    points = n_runs * (int(horizon) + 1) * len(agents)
    if points > scenario.run_cap * POINTS_PER_CAPPED_RUN:
        raise SizeGuardExceeded(
            f"scenario generates {n_runs} runs of {int(horizon) + 1} times for {len(agents)} "
            f"agents, {points} points, above the bound {scenario.run_cap * POINTS_PER_CAPPED_RUN}"
        )

    delays = np.indices(sizes).reshape(len(agents), -1).T + lo  # product order
    triggers = np.array(scenario.trigger_times, dtype=np.int64)
    n_fired = len(triggers) * len(delays)
    trigger_time = np.full(n_runs, -1, dtype=np.int64)  # the never-run stays -1
    observed_at = np.full((n_runs, len(agents)), -1, dtype=np.int64)
    trigger_time[:n_fired] = np.repeat(triggers, len(delays))
    observed_at[:n_fired] = (triggers[:, None, None] + delays).reshape(-1, len(agents))
    names = [f"t{tau}" for tau in scenario.trigger_times]
    for a, first, n in zip(agents, lo, sizes):  # product order: the last agent innermost
        suffixes = [f"_{a}{d}" for d in range(first, first + n)]
        names = [prefix + suffix for prefix in names for suffix in suffixes]
    names += [NEVER_RUN] * scenario.include_never_run
    for table in (trigger_time, observed_at):
        table.setflags(write=False)

    universe = Universe.from_interning(
        agents, names, horizon, partial(_intern_states, observed_at, horizon),
        synchronous=synchronous,
    )
    timing, changed = scenario.timing.normalized(horizon)
    return TCRInstance(scenario, universe, trigger_time, observed_at, timing, changed)


# -- solvability and synthesis ---------------------------------------------------


def response_knowledge_info(instance: TCRInstance) -> GfpResult:
    """Timely common knowledge of the trigger's history, per agent, decided on
    the agents' observation classes, with its iteration trace; `timely_ck_info`
    on the trigger history is the point route it equals, count and trace too.

    Agent i's state at (r, t) is (t, o) once it has observed the trigger at o
    and (t, None) before, so each coordinate is a union of classes.  The
    descent holds, per agent, a boolean table over one column per distinct
    observation time o and one unobserved column, by time; every column is
    true from its class's first instant on.  From such a table, f_j(o) is
    agent j's first instant in the runs it observes at o (the unobserved
    column's, when that is earlier than o), and M_j(T) is the maximum of f_j
    over T + j's delay window: the runs triggered at T realize every delay of
    every agent.  The observed class (i, t, o) then holds iff t >= o and
    M_j(T) <= t + reach(i, j) for every partner j and every trigger time T
    with o - T in i's window.  One boolean (k, columns, n_trig) mask marks
    each agent's columns in each trigger time's window, and both maxima are
    masked by it: M_j(T) over the columns, a class's bound over the triggers.
    The unobserved class (i, t) is false when the never-run is included;
    otherwise it holds iff every trigger time T whose runs may leave i
    unobserved at t (T + i's latest delay > t) has T <= t and meets the same
    bounds.  The descent runs through `_descend`, and a `searchsorted` per
    agent then finds each run's column, giving the (k, n_runs, n_times) tuple.

    The trace counts points: agent a's size sums runs(a, c) * |row(a, c)| over
    columns c, the rows as the final gather builds them.  An entry no run reads
    (padding, a column before its time, the unobserved column from a's last
    observation on without the never-run) keeps its value from the top on.
    """
    scenario, u, agents = instance.scenario, instance.universe, instance.timing.agents
    triggers = scenario.trigger_times
    k, n = len(agents), u.n_times
    never = 2 * n  # the first instant of a class that never holds, as in `first_instants`
    windows = [scenario.obs_delay[a] for a in agents]
    seen = [sorted({tau + d for tau in triggers for d in range(lo, hi + 1)}) for lo, hi in windows]
    lo, hi = np.array(windows).T
    unobserved = max(map(len, seen))  # the last column; shorter agents are padded before it
    # obs_of[a, c]: column c's observation time, `never` for padding and the
    # unobserved column, which therefore lie in no trigger time's window
    obs_of = np.array([times + [never] * (unobserved + 1 - len(times)) for times in seen])
    fired = np.array(triggers, dtype=np.int64)
    delay = obs_of[:, :, None] - fired
    in_window = (lo[:, None, None] <= delay) & (delay <= hi[:, None, None])
    lag = -reach_matrix(instance.timing, u.horizon)[:, :, None]
    clock = np.arange(n)
    first_of_suffix = np.concatenate(([never], np.arange(n - 1, -1, -1)))
    cutoff = fired + hi[:, None]  # (k, n_trig): past T + hi, no run of T is unobserved

    # masked maxima fill with 0, as does a bound over no trigger time: first
    # instants are >= 0 and a bound is raised to its observation time anyway,
    # which is `never` in every column when there is no trigger time
    def step(x):
        first = first_of_suffix[x.sum(axis=2)]  # every column is a suffix in time
        unseen = first[:, unobserved:]  # a run observing at o holds from here if before o
        first = np.minimum(first, np.where(unseen < obs_of, unseen, never))
        latest = np.where(in_window, first[:, :, None], 0).max(axis=1)  # M_j(T)
        need = (latest + lag).max(axis=1)  # (i, T): max over j of M_j(T) - reach(i, j)
        start = np.maximum(np.where(in_window, need[:, None], 0).max(axis=2, initial=0), obs_of)
        if not scenario.include_never_run:
            start[:, unobserved] = np.minimum(cutoff, np.maximum(fired, need)).max(axis=1)
        return clock >= start[:, :, None]

    observed = clock >= obs_of[:, :, None]
    obs = instance.observed_at.T
    column = np.where(obs >= 0, [np.searchsorted(times, o) for times, o in zip(seen, obs)], unobserved)
    runs = np.stack([np.bincount(col, minlength=unobserved + 1) for col in column])

    def rows(x):
        # row (a, c): a's value in the runs observing at column c's time, the
        # unobserved column's before that time and column c's from it on
        return np.where(observed, x, x[:, unobserved:])

    top = observed.copy()
    top[:, unobserved] = True
    value, iterations, trace = _descend(
        step, top, agents, lambda x: (rows(x).sum(axis=2) * runs).sum(axis=1).tolist())
    value = EventTuple.of(u, agents, rows(value)[np.arange(k)[:, None], column])
    return GfpResult(value, iterations, trace)


def response_knowledge(instance: TCRInstance) -> EventTuple:
    return response_knowledge_info(instance).value


def knowledge_for(instance: TCRInstance, knowledge: EventTuple | None) -> EventTuple:
    """A supplied knowledge tuple, which must live in the instance's universe
    with its table rows the instance's agents in timing order, or else the
    instance's response knowledge."""
    if knowledge is None:
        return response_knowledge(instance)
    return knowledge.conform(instance.universe, instance.timing.agents, "knowledge")


def _reach_table(instance: TCRInstance, knowledge: EventTuple | None):
    """The knowledge tuple, its (k, n_runs) reach table (the runs in which each
    agent's coordinate ever holds) and whether every triggered run reaches
    every coordinate; the per-agent verdicts must coincide, and are
    cross-checked."""
    xi = knowledge_for(instance, knowledge)
    reached = xi.table.any(axis=2)
    verdicts = (reached | (instance.trigger_time < 0)).all(axis=1)
    if verdicts.min() != verdicts.max():
        raise InternalConsistencyError(
            "solvability verdict differs between agents; for-every and "
            "for-some characterisations must coincide"
        )
    return xi, reached, bool(verdicts[0])


def solvability(instance: TCRInstance, *, knowledge: EventTuple | None = None) -> bool:
    """Whether the trigger guarantees every agent eventually reaches its
    coordinate, read off the reach table: every triggered run reaches it."""
    return _reach_table(instance, knowledge)[2]


class _ResponseRows(Mapping):
    """A response array as run -> read-only {agent -> time or None}, built on read."""

    def __init__(self, instance: TCRInstance, times: np.ndarray):
        self.instance, self.times = instance, times

    def __getitem__(self, run):
        try:
            r = self.instance.universe.run_index(run)
        except InvariantViolation:
            raise KeyError(run) from None
        return MappingProxyType(row_dict(self.instance.timing.agents, self.times[r].tolist()))

    def __iter__(self):
        return iter(self.instance.universe.runs)

    def __len__(self) -> int:
        return self.instance.universe.n_runs


@dataclass
class ProtocolResult:
    """A protocol's responses, run name -> {agent -> response time or None}.

    A synthesized result (`from_times`) keeps the (n_runs, k) response array of
    its instance, and its `responses` is a read-only view of that array that
    builds a run's row when it is read, so the two cannot drift apart.  Any
    other result, a parsed document included, is read by walking its mapping.
    """

    responses: Mapping

    @classmethod
    def from_times(cls, instance: TCRInstance, times: np.ndarray) -> "ProtocolResult":
        """The result responding at `times[r, a]` (-1 for never) in the
        instance's run and agent order; the array is made read-only."""
        times.setflags(write=False)
        return cls(_ResponseRows(instance, times))

    def response_times(self, instance: TCRInstance) -> tuple[np.ndarray, list]:
        """The responses as an (n_runs, k) array in the instance's run and agent
        order, -1 for no response, and the well-formedness problems: unknown
        runs and agents, times that are not JSON integers or null, and times
        outside the horizon.  An entry with a problem stays -1.  A synthesized
        result returns its own array for its own instance."""
        if isinstance(self.responses, _ResponseRows) and self.responses.instance is instance:
            return self.responses.times, []
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
        u = instance.universe  # agent a's event holds at (r, times[r, a])
        return EventTuple.of(u, instance.timing.agents, times.T[..., None] == np.arange(u.n_times))

    def to_json_dict(self) -> dict:
        return {
            run: {a: t for a, t in sorted(per.items())}
            for run, per in sorted(self.responses.items())
        }

    @classmethod
    def from_json_dict(cls, doc) -> "ProtocolResult":
        """The responses of a result document as `read_runs` reads it; a run
        without responses responds nowhere.  Times are kept as given;
        `response_times` judges them."""
        return cls({run: dict(responses) for run, (_, _, responses) in read_runs(doc).items()})


def read_runs(doc) -> dict:
    """A result document's runs, run -> (trigger time, observations,
    responses), the last two agent -> time objects, every value as given.

    A document with `runs` is a `solve` document, and a run entry there
    without `responses` responds nowhere.  Any other document is a bare run ->
    agent -> time map of responses, but an entry carrying `responses` reads as
    a `solve` run entry, so a `solve` runs block reads on its own too.  A
    field that is not an object is an InvariantViolation naming its path."""
    doc = json_object(doc, "result")
    where = "runs" if "runs" in doc else "result"
    out = {}
    for run, entry in json_object(doc.get("runs", doc), where).items():
        path = f"{where}.{run}"
        if "responses" in json_object(entry, path) or where == "runs":
            out[run] = (entry.get("trigger_time"), *(
                json_object(entry.get(key, {}), f"{path}.{key}")
                for key in ("observations", "responses")))
        else:
            out[run] = (None, {}, entry)  # a bare run -> agent -> time map
    return out


def synthesize_optimal(
    instance: TCRInstance, *, knowledge: EventTuple | None = None
) -> ProtocolResult:
    """Respond at the first instant the agent's knowledge coordinate holds, on
    the reach table that decides solvability."""
    xi, reached, solvable = _reach_table(instance, knowledge)
    if not solvable:
        raise Unsolvable("instance admits no coordinated response protocol")
    if (reached & (instance.trigger_time < 0)).any():
        raise InternalConsistencyError("knowledge coordinate holds in a run without a trigger")
    return ProtocolResult.from_times(instance, np.where(reached, xi.table.argmax(axis=2), -1).T)


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
    return check_response_times(instance, *result.response_times(instance))


def check_response_times(instance: TCRInstance, times, problems: list) -> SolutionReport:
    """`verify_solution` on what `ProtocolResult.response_times` returns.

    The broken pairs are `late_pairs` of the responses, 2 * n_times standing
    for none.  A response is stray in an untriggered run or before the trigger
    time, listed in run-then-time order.  Locality is decided on the run table:
    agent a's state at (r, t) is (t, its observation time) once it has
    observed, so a response at or after the observation must be the same in
    every run observing at that time, and a response at t before it must be
    made at t in every run observing later than t; the never-run observes at
    H + 1.  Both tests read tables of least and greatest responses per
    (agent, observation time): the first compares a group's least and greatest
    response at or after its observation, the second reads the least and
    greatest response over the groups observing after t.
    """
    checks: dict = {}
    cex: dict = {}
    checks["well_formed"] = not problems
    cex["well_formed"] = problems
    if problems:
        for name in ("coordinated", "follows_trigger", "covers_triggered_runs", "locally_determined"):
            checks[name] = False
        return SolutionReport(checks, cex)

    u, agents = instance.universe, instance.timing.agents
    responds = times.T >= 0  # (k, n_runs), runs innermost
    first = np.where(responds, times.T, 2 * u.n_times)
    broken = np.argwhere(late_pairs(first, instance.timing, u.horizon))
    checks["coordinated"] = not broken.size
    if broken.size:
        cex["coordinated"] = [{"pair": f"{agents[i]}->{agents[j]}"} for i, j in broken]

    fired_at = instance.trigger_time[:, None]  # -1 where the trigger never fires
    r, a = np.nonzero(responds.T & ((fired_at < 0) | (times < fired_at)))
    stray = sorted(set((r * u.n_times + times[r, a]).tolist()))  # usually none
    checks["follows_trigger"] = not stray
    if stray:
        cex["follows_trigger"] = [
            {"run": u.runs[p // u.n_times], "time": p % u.n_times} for p in stray[:5]
        ]

    fired = instance.trigger_time >= 0
    misses = [
        {"agent": agent, "run": u.runs[r]}
        for agent, col in zip(agents, times.T)
        for r in np.flatnonzero(fired & (col < 0))[:3]
    ]
    checks["covers_triggered_runs"] = not misses
    cex["covers_triggered_runs"] = misses

    # per agent and observation time o (the never-run's as H + 1): the least
    # and greatest response at or after o, and of any response, over its runs
    k, width = len(agents), u.n_times + 1
    seen = np.where(instance.observed_at.T >= 0, instance.observed_at.T, u.n_times)
    said = times.T
    values = np.stack((np.where(said >= seen, said, -1), said))
    group = seen + width * np.arange(2 * k).reshape(2, k, 1)
    low = np.full((2, k, width), u.n_times)  # above every response
    high = np.full((2, k, width), -2)  # below every response and every -1
    np.minimum.at(low.reshape(-1), group.ravel(), values.ravel())
    np.maximum.at(high.reshape(-1), group.ravel(), values.ravel())
    bad = ((low[0] != high[0]) & (high[0] >= -1)).any(axis=1)
    later_low = np.minimum.accumulate(low[1][:, ::-1], axis=1)[:, ::-1]
    later_high = np.maximum.accumulate(high[1][:, ::-1], axis=1)[:, ::-1]
    a, r = np.nonzero((said >= 0) & (said < seen))
    t = said[a, r]
    bad[a[(later_low[a, t + 1] != t) | (later_high[a, t + 1] != t)]] = True
    nonlocal_agents = [{"agent": agents[n]} for n in np.flatnonzero(bad)]
    checks["locally_determined"] = not nonlocal_agents
    cex["locally_determined"] = nonlocal_agents

    return SolutionReport(checks, cex)


# -- special-case timing matrices ----------------------------------------------


def ordered_delta(agents) -> TimingSpec:
    """Each agent may act only once its predecessor in the list has."""
    return joint_delta([(a,) for a in agents])


def simultaneous_delta(agents) -> TimingSpec:
    """Every agent acts together with every other."""
    return joint_delta([tuple(agents)])


def joint_delta(partition) -> TimingSpec:
    """Blocks act simultaneously, each block only after the previous one."""
    partition = [tuple(block) for block in partition]
    agents = tuple(a for block in partition for a in block)
    if len(set(agents)) != len(agents):
        raise InvariantViolation("partition blocks must be disjoint")
    block_of = {a: k for k, block in enumerate(partition) for a in block}
    delta = {
        (i, j): 0 if block_of[i] - block_of[j] in (0, 1) else INF
        for i in agents for j in agents if i != j
    }
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
    per_agent = {a: tuple(obs_delay[a] if isinstance(obs_delay, dict) else obs_delay) for a in agents}
    return ScenarioSpec(
        agents=agents,
        trigger_times=tuple(trigger_times),
        obs_delay=per_agent,
        timing=timing,
        actions={a: action for a in agents},
        include_never_run=include_never_run,
        horizon=horizon,
    )
