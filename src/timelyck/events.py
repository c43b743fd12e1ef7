"""Events and agent-indexed event tuples over a universe, and the temporal /
epistemic operators acting on them.

An event is a set of (run, time) points, a dense boolean (n_runs, n_times)
table; an event tuple holds one event per agent as one (k, n_runs, n_times)
table.  One base keeps either table read-only and owns the set algebra and its
kind and universe check; `EventTuple.conform` adds the agent order.
`knows_by_ids` is the one home of the knows rule.  All operators are pure:
they return fresh events and never mutate their inputs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvariantViolation, UniverseMismatch
from .universe import (
    DeltaValue, Point, Universe, check_delta, json_int, json_list, json_str, window_reach,
)


class _PointTable:
    """A read-only boolean table over the points of one universe, shared by
    `Event` and `EventTuple`: ``&``, ``|``, ``<=`` and ``==`` act entrywise
    between tables of one kind over one universe (and, for tuples, one agent
    order), and give a table of the same kind."""

    __slots__ = ("universe", "table")

    def _store(self, universe: Universe, table: np.ndarray, shape: tuple) -> None:
        if table.shape != shape:
            raise InvariantViolation(
                f"{type(self).__name__} table shape {table.shape} is not {shape}"
            )
        table = np.ascontiguousarray(table, dtype=bool)
        table.setflags(write=False)
        self.universe, self.table = universe, table

    def _same(self, other: "_PointTable") -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected an {type(self).__name__}, got {type(other).__name__}")
        if other.universe is not self.universe:
            raise UniverseMismatch(f"{type(self).__name__}s belong to different universes")

    def __and__(self, other):
        self._same(other)
        return self._like(self.table & other.table)

    def __or__(self, other):
        self._same(other)
        return self._like(self.table | other.table)

    def __le__(self, other) -> bool:
        self._same(other)
        return bool((self.table <= other.table).all())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        self._same(other)
        return bool(np.array_equal(self.table, other.table))

    __hash__ = None  # mutable-free but identity hashing would invite mistakes


class Event(_PointTable):
    """A set of points of one universe, as a dense boolean membership table."""

    __slots__ = ()

    def __init__(self, universe: Universe, table: np.ndarray):
        self._store(universe, table, (universe.n_runs, universe.n_times))

    def _like(self, table: np.ndarray) -> "Event":
        return Event(self.universe, table)

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, universe: Universe) -> "Event":
        return cls(universe, np.zeros((universe.n_runs, universe.n_times), dtype=bool))

    @classmethod
    def full(cls, universe: Universe) -> "Event":
        return cls(universe, np.ones((universe.n_runs, universe.n_times), dtype=bool))

    def __sub__(self, other: "Event") -> "Event":
        self._same(other)
        return Event(self.universe, self.table & ~other.table)

    def __invert__(self) -> "Event":
        return Event(self.universe, ~self.table)

    @property
    def size(self) -> int:
        return int(self.table.sum())

    def __contains__(self, point) -> bool:
        run, t = point
        return bool(self.table[self.universe.run_index(run), self.universe.check_time(t)])

    def points(self) -> list[Point]:
        u = self.universe
        return [Point(u.runs[r], int(t)) for r, t in zip(*np.nonzero(self.table))]

    def to_json_list(self) -> list:
        runs, (r, t) = self.universe.runs, np.nonzero(self.table)
        return sorted([runs[n], time] for n, time in zip(r.tolist(), t.tolist()))

    @classmethod
    def from_json_list(cls, universe: Universe, doc: Sequence, field: str = "event") -> "Event":
        """An event from a list of [run, time] pairs; a document of another
        shape, or a pair that is no point of the universe, is an
        InvariantViolation naming `field` or the pair's path `field[n]`."""
        table = np.zeros((universe.n_runs, universe.n_times), dtype=bool)
        for n, point in enumerate(json_list(doc, field)):
            path = f"{field}[{n}]"
            run, t = json_list(point, path, length=2)
            try:
                r = universe.run_index(json_str(run, "its run"))
                table[r, universe.check_time(json_int(t, "its time"))] = True
            except InvariantViolation as exc:
                raise InvariantViolation(f"{path} must be a point: {exc}") from None
        return cls(universe, table)

    def __repr__(self) -> str:
        return f"Event({self.size} of {self.universe.n_points} points)"


class EventTuple(_PointTable):
    """An agent-indexed tuple of events over one universe, held as one read-only
    boolean table of shape (k, n_runs, n_times) whose row n is the coordinate of
    ``agents[n]``; indexing by an agent gives an `Event` over a view of its row.
    The set algebra acts coordinatewise, between tuples of one agent order."""

    __slots__ = ("agents",)

    def __init__(self, universe: Universe, coords: Mapping[str, Event]):
        for agent, e in coords.items():
            if e.universe is not universe:
                raise UniverseMismatch(f"coordinate {agent!r} lives in another universe")
        self._set(universe, tuple(coords), np.array([e.table for e in coords.values()]))

    @classmethod
    def of(cls, universe: Universe, agents: Iterable[str], table: np.ndarray) -> "EventTuple":
        """The tuple whose coordinate for ``agents[n]`` is ``table[n]``."""
        out = cls.__new__(cls)
        out._set(universe, tuple(agents), table)
        return out

    def _set(self, universe: Universe, agents: tuple, table: np.ndarray) -> None:
        if not agents:
            raise InvariantViolation("an event tuple needs at least one coordinate")
        for agent in agents:
            universe.agent_index(agent)
        self._store(universe, table, (len(agents), universe.n_runs, universe.n_times))
        self.agents = agents

    def _like(self, table: np.ndarray) -> "EventTuple":
        return EventTuple.of(self.universe, self.agents, table)

    def _same(self, other: "EventTuple") -> None:
        super()._same(other)
        other.conform(self.universe, self.agents)

    def conform(self, universe: Universe, agents: tuple, what: str = "tuple") -> "EventTuple":
        """This tuple, if it lives in `universe` with its rows in the order of
        `agents`; otherwise a UniverseMismatch or InvariantViolation naming it
        as `what`."""
        if self.universe is not universe:
            raise UniverseMismatch(f"{what} belongs to another universe")
        if self.agents != agents:
            raise InvariantViolation(f"{what} agents {self.agents} are not {agents}")
        return self

    @classmethod
    def top(cls, universe: Universe, agents: Iterable[str]) -> "EventTuple":
        agents = tuple(agents)
        shape = (len(agents), universe.n_runs, universe.n_times)
        return cls.of(universe, agents, np.ones(shape, dtype=bool))

    def __getitem__(self, agent: str) -> Event:
        if agent not in self.agents:
            raise KeyError(agent)
        return Event(self.universe, self.table[self.agents.index(agent)])

    def to_json_dict(self) -> dict:
        return {a: self[a].to_json_list() for a in self.agents}

    def __repr__(self) -> str:
        sizes = self.table.reshape(len(self.agents), -1).sum(axis=1).tolist()
        inner = ", ".join(f"{a}:{n}" for a, n in zip(self.agents, sizes))
        return f"EventTuple({inner})"


# -- temporal operators ---------------------------------------------------------


def eventually(e: Event) -> Event:
    """Points of runs in which the event holds at some time (past or future)."""
    hit = e.table.any(axis=1)
    return Event(e.universe, np.repeat(hit[:, None], e.universe.n_times, axis=1))


def shift_exact(e: Event, eps: DeltaValue) -> Event:
    """The event holds exactly `eps` steps from now; shifts leaving 0..H are false."""
    eps = check_delta(eps, finite_only=True)
    u = e.universe
    out = np.zeros_like(e.table)
    n = u.n_times
    lo = max(0, -eps)
    hi = min(n, n - eps)
    if lo < hi:
        out[:, lo:hi] = e.table[:, lo + eps : hi + eps]
    return Event(u, out)


def first_instants(table: np.ndarray) -> np.ndarray:
    """Per run, the first time a (..., n_runs, n_times) table holds.

    A run where it never holds gets 2 * n_times, which lies beyond every
    window a clamped delta can open.
    """
    n_times = table.shape[-1]
    return np.where(table.any(axis=-1), table.argmax(axis=-1), 2 * n_times)


def window_cover(tables: np.ndarray, eps: int) -> np.ndarray:
    """The points of a (n_runs, n_times) grid that lie in some window
    {a .. a+eps} inside 0..H in which each of the stacked (m, n_runs, n_times)
    tables holds somewhere; eps is clamped to the horizon.

    The first sliding reduction marks the window starts every table hits, the
    second, over those marks padded by eps on each side, the points they cover.
    """
    eps = check_delta(eps, finite_only=True)
    if eps < 0:
        raise InvariantViolation("window width must be nonnegative")
    eps = min(eps, tables.shape[-1] - 1)
    hit = sliding_window_view(tables, eps + 1, axis=-1).any(axis=-1).all(axis=0)
    padded = np.pad(hit, ((0, 0), (eps, eps)))
    return sliding_window_view(padded, eps + 1, axis=-1).any(axis=-1)


def within(e: Event, eps: DeltaValue) -> Event:
    """The event holds at some time no later than `eps` steps from now.

    The witness time ranges over the whole horizon 0..H, so for eps = inf this
    is exactly `eventually`, and for eps = 0 it means "now or previously".
    It holds at (r, t) iff t >= first[r] - window_reach(eps), where first[r]
    is the event's first instant in run r.
    """
    u = e.universe
    d = window_reach(check_delta(eps), u.horizon)
    out = np.arange(u.n_times) >= (first_instants(e.table) - d)[:, None]
    return Event(u, out)


def is_stable(e: Event) -> bool:
    """True iff once the event holds in a run it holds for the rest of it."""
    return e == within(e, 0)


# -- epistemic operators ----------------------------------------------------------


def knows_by_ids(body: np.ndarray, ids: np.ndarray, n_ids: int) -> np.ndarray:
    """knows on a boolean table: the entries whose whole class lies in `body`,
    the classes being the state ids 0..n_ids-1 of the same-shaped `ids`."""
    ok = np.ones(n_ids, dtype=bool)
    ok[ids[~body]] = False
    return ok[ids]


def knows(agent: str, e: Event) -> Event:
    """Points at which every point the agent cannot distinguish satisfies `e`."""
    u = e.universe
    return Event(u, knows_by_ids(e.table, u.state_ids(agent), u.n_state_classes(agent)))


def everyone_knows(agents: Iterable[str], e: Event) -> Event:
    agents = tuple(agents)
    if not agents:
        raise InvariantViolation("everyone_knows requires a nonempty agent set")
    out = knows(agents[0], e)
    for agent in agents[1:]:
        out = out & knows(agent, e)
    return out


def is_local(agent: str, e: Event) -> bool:
    """True iff the event's truth is determined by the agent's local state."""
    return e == knows(agent, e)
