"""Finite universes of runs over discrete time.

A universe fixes an ordered set of agents, an ordered set of runs, a time
horizon H (times range over 0..H inclusive) and, for every (agent, run, time)
triple, an opaque local-state value.  Two points are indistinguishable to an
agent exactly when the agent's local state at both points is identical; all
knowledge operators are derived from that relation alone.

In synchronous mode the current time must be recoverable from every local
state (states of one agent at two distinct times are never equal), which is
validated at construction.  Asynchronous mode drops that requirement, so a
state may recur at different times and knowledge then quantifies across time.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import InvariantViolation

INF = math.inf

DeltaValue = Union[int, float]  # float is only ever +inf


class Point(NamedTuple):
    run: str
    time: int


def is_finite_delta(value: DeltaValue) -> bool:
    return value != INF


def check_delta(value, *, finite_only: bool = False) -> DeltaValue:
    """Validate a time-difference value: an int, or +inf."""
    if value == INF:
        if finite_only:
            raise InvariantViolation("a finite time difference is required here")
        return INF
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvariantViolation(f"time difference must be an integer or inf, got {value!r}")
    return int(value)


def clamp_delta(value: DeltaValue, horizon: int) -> DeltaValue:
    """Canonicalize a delta against a horizon.

    Any finite value above H behaves exactly like H (the window already covers
    every time), and any value below -(H+1) behaves exactly like -(H+1) (the
    window is empty at every point).  Values in between are kept as-is.
    """
    if value == INF:
        return INF
    return max(-(horizon + 1), min(int(value), horizon))


def delta_to_json(value: DeltaValue):
    return "inf" if value == INF else int(value)


def delta_from_json(raw) -> DeltaValue:
    if raw == "inf" or raw == INF:
        return INF
    return check_delta(raw)


StateMap = Union[
    Mapping[tuple, Hashable],
    Callable[[str, str, int], Hashable],
]


class Universe:
    """A finite system of runs with per-agent local-state assignments."""

    __slots__ = (
        "agents",
        "runs",
        "horizon",
        "synchronous",
        "_agent_pos",
        "_run_pos",
        "_state_ids",
        "_id_labels",
        "_n_classes",
    )

    def __init__(
        self,
        agents: Iterable[str],
        runs: Iterable[str],
        horizon: int,
        states: StateMap,
        *,
        synchronous: bool = True,
    ):
        self._set_geometry(agents, runs, horizon, synchronous)
        if callable(states):
            lookup = states
        else:
            mapping = dict(states)

            def lookup(agent, run, t):
                try:
                    return mapping[(agent, run, t)]
                except KeyError:
                    raise InvariantViolation(
                        f"local state undefined for ({agent!r}, {run!r}, {t})"
                    ) from None

        # intern labels in first-appearance order, run by run, time by time
        times = range(self.n_times)
        state_ids, labels = [], []
        for agent in self.agents:
            interned: dict = {}
            flat = np.fromiter(
                (
                    interned.setdefault(lookup(agent, run, t), len(interned))
                    for run in self.runs
                    for t in times
                ),
                dtype=np.int64,
                count=self.n_points,
            )
            state_ids.append(flat.reshape(self.n_runs, self.n_times))
            labels.append(list(interned))
        self._set_states(state_ids, labels)

    @classmethod
    def from_state_ids(
        cls,
        agents: Iterable[str],
        runs: Iterable[str],
        horizon: int,
        state_ids,
        labels,
        *,
        synchronous: bool = True,
    ) -> "Universe":
        """A universe from interned states: per agent, an integer array of shape
        (n_runs, n_times) of ids 0..n-1 (every id used) and the n distinct
        labels the ids stand for."""
        u = cls.__new__(cls)
        u._set_geometry(agents, runs, horizon, synchronous)
        u._set_states(state_ids, labels)
        return u

    def _set_geometry(self, agents, runs, horizon, synchronous) -> None:
        self.agents = tuple(agents)
        self.runs = tuple(runs)
        if not self.agents:
            raise InvariantViolation("a universe needs at least one agent")
        if not self.runs:
            raise InvariantViolation("a universe needs at least one run")
        if len(set(self.agents)) != len(self.agents):
            raise InvariantViolation("duplicate agent ids")
        if len(set(self.runs)) != len(self.runs):
            raise InvariantViolation("duplicate run ids")
        if horizon < 0:
            raise InvariantViolation("horizon must be nonnegative")
        self.horizon = int(horizon)
        self.synchronous = bool(synchronous)
        self._agent_pos = {a: k for k, a in enumerate(self.agents)}
        self._run_pos = {r: k for k, r in enumerate(self.runs)}

    def _set_states(self, state_ids, labels) -> None:
        if len(state_ids) != len(self.agents) or len(labels) != len(self.agents):
            raise InvariantViolation("need one state-id array and label list per agent")
        self._state_ids = []
        self._id_labels = []
        self._n_classes = []
        for agent, ids, names in zip(self.agents, state_ids, labels):
            if not np.issubdtype(np.asarray(ids).dtype, np.integer):
                raise InvariantViolation(f"state ids of agent {agent!r} must be integers")
            ids = np.array(ids, dtype=np.int64)
            names = list(names)
            if ids.shape != (self.n_runs, self.n_times):
                raise InvariantViolation(
                    f"state ids of agent {agent!r} have shape {ids.shape}, "
                    f"expected {(self.n_runs, self.n_times)}"
                )
            used = np.bincount(ids.ravel()) if ids.min() >= 0 else np.zeros(0)
            if used.size != len(names) or not used.all():
                raise InvariantViolation(
                    f"state ids of agent {agent!r} must use exactly 0..{len(names) - 1}"
                )
            if len(set(names)) != len(names):
                raise InvariantViolation(f"duplicate state labels for agent {agent!r}")
            ids.setflags(write=False)
            self._state_ids.append(ids)
            self._id_labels.append(names)
            self._n_classes.append(len(names))
        if self.synchronous:
            self._check_time_in_state()

    def _check_time_in_state(self) -> None:
        """Each state id of each agent must occur at exactly one time."""
        times = np.tile(np.arange(self.n_times), self.n_runs)
        for agent, ids, n in zip(self.agents, self._state_ids, self._n_classes):
            flat = ids.ravel()
            first = np.full(n, self.n_times, dtype=np.int64)
            last = np.full(n, -1, dtype=np.int64)
            np.minimum.at(first, flat, times)
            np.maximum.at(last, flat, times)
            bad = np.flatnonzero(first != last)
            if bad.size:
                sid = bad[0]
                raise InvariantViolation(
                    f"synchronous universe: agent {agent!r} has the same "
                    f"state at times {first[sid]} and {last[sid]}"
                )

    # -- basic geometry ----------------------------------------------------

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_times(self) -> int:
        return self.horizon + 1

    @property
    def n_points(self) -> int:
        return self.n_runs * self.n_times

    def agent_index(self, agent: str) -> int:
        try:
            return self._agent_pos[agent]
        except KeyError:
            raise InvariantViolation(f"unknown agent {agent!r}") from None

    def run_index(self, run: str) -> int:
        try:
            return self._run_pos[run]
        except KeyError:
            raise InvariantViolation(f"unknown run {run!r}") from None

    def check_time(self, t: int) -> int:
        if not 0 <= t <= self.horizon:
            raise InvariantViolation(f"time {t} outside 0..{self.horizon}")
        return int(t)

    # -- local states --------------------------------------------------------

    def state_ids(self, agent: str) -> np.ndarray:
        """Interned state ids of one agent, shape (n_runs, n_times)."""
        return self._state_ids[self.agent_index(agent)]

    def n_state_classes(self, agent: str) -> int:
        return self._n_classes[self.agent_index(agent)]

    def state_label(self, agent: str, run: str, t: int) -> Hashable:
        ai = self.agent_index(agent)
        sid = self._state_ids[ai][self.run_index(run), self.check_time(t)]
        return self._id_labels[ai][int(sid)]

    def exhibits_perfect_recall(self) -> bool:
        """Whether every agent's current state determines its set of past states.

        Checked literally: for each agent, equal state ids at any two points
        must come with equal sets of strictly earlier state ids along the
        respective runs.
        """
        for ids in self._state_ids:
            history: dict[int, frozenset] = {}
            for ri in range(self.n_runs):
                row = ids[ri]
                for t in range(self.n_times):
                    prior = frozenset(int(s) for s in row[:t])
                    sid = int(row[t])
                    if history.setdefault(sid, prior) != prior:
                        return False
        return True

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        states = {}
        for agent, ids, labels in zip(self.agents, self._state_ids, self._id_labels):
            names = [str(label) for label in labels]
            states[agent] = {
                run: [names[sid] for sid in row] for run, row in zip(self.runs, ids.tolist())
            }
        return {
            "agents": list(self.agents),
            "runs": list(self.runs),
            "horizon": self.horizon,
            "synchronous": self.synchronous,
            "states": states,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Universe":
        try:
            agents = doc["agents"]
            runs = doc["runs"]
            horizon = doc["horizon"]
            states = doc["states"]
        except KeyError as exc:
            raise InvariantViolation(f"universe document missing field {exc}") from None

        def lookup(agent, run, t):
            try:
                return states[agent][run][t]
            except (KeyError, IndexError):
                raise InvariantViolation(
                    f"universe document: no state for ({agent!r}, {run!r}, {t})"
                ) from None

        return cls(
            agents,
            runs,
            horizon,
            lookup,
            synchronous=doc.get("synchronous", True),
        )

    def __repr__(self) -> str:
        mode = "sync" if self.synchronous else "async"
        return (
            f"Universe(agents={list(self.agents)}, runs={len(self.runs)}, "
            f"horizon={self.horizon}, {mode})"
        )
