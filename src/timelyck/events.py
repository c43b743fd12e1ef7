"""Events over a universe and the temporal / epistemic operators acting on them.

An event is a set of (run, time) points, stored as a dense boolean table of
shape (n_runs, n_times).  All operators are pure: they return fresh events and
never mutate their inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvariantViolation, UniverseMismatch
from .universe import DeltaValue, Point, Universe, check_delta, json_int, window_reach


class Event:
    """A set of points of one universe, as a dense boolean membership table."""

    __slots__ = ("universe", "table")

    def __init__(self, universe: Universe, table: np.ndarray):
        if table.shape != (universe.n_runs, universe.n_times):
            raise InvariantViolation(
                f"event table shape {table.shape} does not match universe "
                f"({universe.n_runs}, {universe.n_times})"
            )
        table = np.ascontiguousarray(table, dtype=bool)
        table.setflags(write=False)
        self.universe = universe
        self.table = table

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, universe: Universe) -> "Event":
        return cls(universe, np.zeros((universe.n_runs, universe.n_times), dtype=bool))

    @classmethod
    def full(cls, universe: Universe) -> "Event":
        return cls(universe, np.ones((universe.n_runs, universe.n_times), dtype=bool))

    @classmethod
    def from_points(cls, universe: Universe, points: Iterable) -> "Event":
        table = np.zeros((universe.n_runs, universe.n_times), dtype=bool)
        for run, t in points:
            table[universe.run_index(run), universe.check_time(t)] = True
        return cls(universe, table)

    # -- set algebra -----------------------------------------------------------

    def _same(self, other: "Event") -> None:
        if not isinstance(other, Event):
            raise TypeError(f"expected an Event, got {type(other).__name__}")
        if other.universe is not self.universe:
            raise UniverseMismatch("events belong to different universes")

    def __and__(self, other: "Event") -> "Event":
        self._same(other)
        return Event(self.universe, self.table & other.table)

    def __or__(self, other: "Event") -> "Event":
        self._same(other)
        return Event(self.universe, self.table | other.table)

    def __sub__(self, other: "Event") -> "Event":
        self._same(other)
        return Event(self.universe, self.table & ~other.table)

    def __invert__(self) -> "Event":
        return Event(self.universe, ~self.table)

    def __le__(self, other: "Event") -> bool:
        self._same(other)
        return bool(np.all(~self.table | other.table))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        self._same(other)
        return bool(np.array_equal(self.table, other.table))

    __hash__ = None  # mutable-free but identity hashing would invite mistakes

    def is_empty(self) -> bool:
        return not self.table.any()

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
        return sorted([p.run, p.time] for p in self.points())

    @classmethod
    def from_json_list(cls, universe: Universe, doc: Sequence, field: str = "event") -> "Event":
        """An event from a list of [run, time] pairs; a document of another
        shape, or a pair that is no point of the universe, is an
        InvariantViolation naming `field` or the pair."""
        if not isinstance(doc, list):
            raise InvariantViolation(f"{field} must be a list of [run, time] pairs")
        table = np.zeros((universe.n_runs, universe.n_times), dtype=bool)
        for n, point in enumerate(doc):
            if not (isinstance(point, list) and len(point) == 2 and isinstance(point[0], str)):
                raise InvariantViolation(
                    f"{field}[{n}] must be a [run, time] pair, got {point!r}"
                )
            try:
                r = universe.run_index(point[0])
                table[r, universe.check_time(json_int(point[1], "its time"))] = True
            except InvariantViolation as exc:
                raise InvariantViolation(f"{field}[{n}] must be a point: {exc}") from None
        return cls(universe, table)

    def __repr__(self) -> str:
        return f"Event({self.size} of {self.universe.n_points} points)"


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


def knows(agent: str, e: Event) -> Event:
    """Points at which every point the agent cannot distinguish satisfies `e`."""
    u = e.universe
    ids = u.state_ids(agent)
    ok = np.ones(u.n_state_classes(agent), dtype=bool)
    ok[ids[~e.table]] = False
    return Event(u, ok[ids])


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
