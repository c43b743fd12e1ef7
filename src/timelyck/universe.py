"""Finite universes of runs over discrete time.

A universe fixes an ordered set of agents, an ordered set of runs, a time
horizon H (times range over 0..H inclusive) and, for every (agent, run, time)
triple, an opaque local-state value.  Two points are indistinguishable to an
agent exactly when the agent's local state at both points is identical; all
knowledge operators are derived from that relation alone.

In synchronous mode the current time must be recoverable from every local
state (states of one agent at two distinct times are never equal), which is
validated with the states.  Asynchronous mode drops that requirement, so a
state may recur at different times and knowledge then quantifies across time.

A universe may defer its states (`from_interning`): it keeps the step that
interns them and runs it, with the validation, at the first state read, so a
caller that decides everything from its own tables never pays for them.

The `json_*` readers check every document field's JSON type: each returns the
value or an InvariantViolation whose message begins with the field's path.
"""

from __future__ import annotations

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


def json_int(value, field: str) -> int:
    """A JSON integer (not a bool), or an InvariantViolation naming its field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvariantViolation(f"{field} must be an integer, got {value!r}")
    return int(value)


def json_str(value, field: str) -> str:
    """A JSON string, or an InvariantViolation naming its field."""
    if not isinstance(value, str):
        raise InvariantViolation(f"{field} must be a string, got {value!r}")
    return value


def json_bool(value, field: str) -> bool:
    """A JSON true or false, or an InvariantViolation naming its field."""
    if not isinstance(value, bool):
        raise InvariantViolation(f"{field} must be true or false, got {value!r}")
    return value


def json_object(value, field: str) -> dict:
    """A JSON object, or an InvariantViolation naming the field it came from."""
    if not isinstance(value, dict):
        raise InvariantViolation(f"{field} must be an object, got {type(value).__name__}")
    return value


def json_list(value, field: str, item: Callable | None = None, length: int | None = None) -> list:
    """A JSON array of `length` entries if given, each read by `item(entry,
    f"{field}[{n}]")` if given, or an InvariantViolation naming its path."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length}"
        raise InvariantViolation(f"{field} must be a list{size}, got {value!r}")
    return value if item is None else [item(v, f"{field}[{n}]") for n, v in enumerate(value)]


def check_delta(value, field: str = "time difference", *, finite_only: bool = False) -> DeltaValue:
    """Validate a time difference: an int, or +inf; a bad value is an
    InvariantViolation naming `field`."""
    if value == INF:
        if finite_only:
            raise InvariantViolation("a finite time difference is required here")
        return INF
    return json_int(value, f'{field}, if not "inf",')


def clamp_delta(value: DeltaValue, horizon: int) -> DeltaValue:
    """Canonicalize a bound as an exact shift against a horizon H: a finite
    value is clamped into -(H+1)..H+1, inf is kept.  A shift of H+1 or more
    leaves 0..H from every time while one of H from time 0 lands on H, so the
    clamp changes no shift; windows read a bound through `window_reach`."""
    if value == INF:
        return INF
    return max(-(horizon + 1), min(int(value), horizon + 1))


def window_reach(value: DeltaValue, horizon: int) -> int:
    """How far a window of bound `value` reaches inside 0..H: within(x, d)
    holds at t iff x holds at some time up to t + d, so on 0..H every bound of
    H or more, inf too, acts like H and every bound of -(H+1) or less like
    -(H+1).  Plain ints, no numpy: it runs per pair on every fixed-point call."""
    if value == INF:
        return horizon
    return max(-(horizon + 1), min(int(value), horizon))


def delta_to_json(value: DeltaValue):
    return "inf" if value == INF else int(value)


def delta_from_json(raw, field: str) -> DeltaValue:
    """A bound as JSON writes it, an integer or "inf"; a bad value is an
    InvariantViolation naming `field`."""
    return INF if raw == "inf" else check_delta(raw, field)


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
        "_intern",
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
        labels the ids stand for.  An int64 array is kept without a copy and
        made read-only."""
        u = cls.__new__(cls)
        u._set_geometry(agents, runs, horizon, synchronous)
        u._set_states(state_ids, labels)
        return u

    @classmethod
    def from_interning(
        cls,
        agents: Iterable[str],
        runs: Iterable[str],
        horizon: int,
        intern: Callable[[], tuple],
        *,
        synchronous: bool = True,
    ) -> "Universe":
        """A universe whose states `intern()` returns at the first state read,
        as the (state_ids, labels) pair `from_state_ids` takes; they are
        validated then, and a refused build is retried at the next read."""
        u = cls.__new__(cls)
        u._set_geometry(agents, runs, horizon, synchronous)
        u._intern = intern
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
        self._intern = None
        self._agent_pos = {a: k for k, a in enumerate(self.agents)}
        self._run_pos = {r: k for k, r in enumerate(self.runs)}

    def _set_states(self, state_ids, labels) -> None:
        if len(state_ids) != len(self.agents) or len(labels) != len(self.agents):
            raise InvariantViolation("need one state-id array and label list per agent")
        self._state_ids = []
        self._id_labels = []
        self._n_classes = []
        for agent, ids, names in zip(self.agents, state_ids, labels):
            ids = np.asarray(ids)
            if ids.dtype.kind not in "iu":
                raise InvariantViolation(f"state ids of agent {agent!r} must be integers")
            ids = ids.astype(np.int64, copy=False)
            names = list(names)
            if ids.shape != (self.n_runs, self.n_times):
                raise InvariantViolation(
                    f"state ids of agent {agent!r} have shape {ids.shape}, "
                    f"expected {(self.n_runs, self.n_times)}"
                )
            n = len(names)
            # the range is checked before counting, so a huge id is refused
            # rather than sizing the count array
            if not (
                0 <= ids.min() <= ids.max() < n
                and np.bincount(ids.ravel(), minlength=n).all()
            ):
                raise InvariantViolation(
                    f"state ids of agent {agent!r} must use exactly 0..{n - 1}"
                )
            if len(set(names)) != n:
                raise InvariantViolation(f"duplicate state labels for agent {agent!r}")
            ids.setflags(write=False)
            self._state_ids.append(ids)
            self._id_labels.append(names)
            self._n_classes.append(n)
        if self.synchronous:
            self._check_time_in_state()

    def _states(self) -> tuple:
        """Per agent: the state ids, their labels and the class count, built
        first by a deferred interning step."""
        if self._intern is not None:
            self._set_states(*self._intern())
            self._intern = None
        return self._state_ids, self._id_labels, self._n_classes

    def _check_time_in_state(self) -> None:
        """Each state id of each agent must occur at exactly one time.

        Scatters each point's time onto its id and reads it back: a point
        whose time was overwritten has an id that occurs at two times.
        """
        times = np.arange(self.n_times)
        for agent, ids, n in zip(self.agents, self._state_ids, self._n_classes):
            when = np.empty(n, dtype=np.int64)
            when[ids] = times
            moved = when[ids] != times
            if moved.any():
                sid = ids[moved].min()
                seen = np.broadcast_to(times, ids.shape)[ids == sid]
                raise InvariantViolation(
                    f"synchronous universe: agent {agent!r} has the same "
                    f"state at times {seen.min()} and {seen.max()}"
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
        return self._states()[0][self.agent_index(agent)]

    def n_state_classes(self, agent: str) -> int:
        return self._states()[2][self.agent_index(agent)]

    def state_label(self, agent: str, run: str, t: int) -> Hashable:
        ai = self.agent_index(agent)
        ids, labels, _ = self._states()
        return labels[ai][int(ids[ai][self.run_index(run), self.check_time(t)])]

    def exhibits_perfect_recall(self) -> bool:
        """Whether every agent's current state determines its set of past states.

        For each agent, equal state ids at any two points must come with equal
        sets of strictly earlier state ids along the respective runs.  Each
        point's set is packed into ceil(classes / 64) words, as a running OR
        along its run, and compared with the set at the first point of its id.
        The tests' `naive_reference.n_perfect_recall` is the pointwise reference.
        """
        rows = np.arange(self.n_points)
        state_ids, _, n_classes = self._states()
        for ids, n in zip(state_ids, n_classes):
            flat = ids.ravel()
            bit = np.zeros((self.n_points, -(-n // 64)), dtype=np.uint64)
            bit[rows, flat >> 6] = np.left_shift(np.uint64(1), (flat & 63).astype(np.uint64))
            bit = bit.reshape(self.n_runs, self.n_times, -1)
            earlier = np.zeros_like(bit)
            np.bitwise_or.accumulate(bit[:, :-1], axis=1, out=earlier[:, 1:])
            earlier = earlier.reshape(self.n_points, -1)
            first = np.unique(flat, return_index=True)[1]
            if (earlier != earlier[first[flat]]).any():
                return False
        return True

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        states = {}
        for agent, ids, labels in zip(self.agents, *self._states()[:2]):
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

    def __repr__(self) -> str:
        mode = "sync" if self.synchronous else "async"
        return (
            f"Universe(agents={list(self.agents)}, runs={len(self.runs)}, "
            f"horizon={self.horizon}, {mode})"
        )
