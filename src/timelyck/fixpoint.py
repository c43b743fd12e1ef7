"""Timing specs and greatest fixed points over agent-indexed event tuples.

The central object is `timely_ck(psi, spec)`: the greatest fixed point of the
vectorial map whose coordinate for agent i is

    knows(i, psi & AND_j within(x_j, delta(i, j)))     (j ranging over the
                                                        other agents)

computed by descending iteration from the all-full tuple.  An `EventTuple`
(`events`) holds its coordinates as one (k, n_runs, n_times) boolean table,
and the descent runs on that table and works on first instants: within(x_j,
d) holds at (r, t) iff x_j's first instant in run r is at most t + d, so each
step takes every coordinate's first instants, gives agent i the per-run
threshold max_j(first_j[r] - window_reach(delta(i, j))) (an empty run putting
the threshold past H), ANDs it with psi and applies `knows_by_ids` through
the state ids.
The operands (psi's table, the negated reach matrix, the clock and the agents'
state ids shifted into one id range) are built once per call.  The tuple is
built only for the final value; `apply_f` is one such step.

`timely_ck_g` is the companion fixed point that uses exact shifts instead of
within-windows and skips unbounded pairs; it is the one the nested-knowledge
characterisation reconstructs path by path.  Its step gathers every partner's
coordinate at the shifted time, and `apply_g` is one such step.  Both fixed
points, the single-event fixed points (`event_gfp`: common, eventual and
window common knowledge) and the class-table descent of
`scenarios.response_knowledge_info` run through one descent loop (`_descend`)
with one descent check, iteration bound and trace.  Of the verbs, `gfp --psi`
and the `oracle` fixed-point sweep and nested characterisation run the point
descent; `gfp` without `--psi`, `solve`, `verify --optimal` and the `oracle`
optimality sweep run the class descent on the trigger's history.

`timely_ck_oracle` provides the independent check: enumerate every tuple in
the (finite) lattice, keep the ones below their own image, and join them.  It
takes its operator tables from `PackedSpace.map_tables`, which builds them
from the definition-direct `packed.n_within` and the state classes, so it
shares no operator code with the iterative engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from ._kernels import scan_postfixed_join
from .errors import InternalConsistencyError, InvariantViolation, SizeGuardExceeded
from .events import (
    Event,
    EventTuple,
    eventually,
    everyone_knows,
    first_instants,
    knows,
    knows_by_ids,
    window_cover,
)
from .packed import PackedSpace
from .universe import (
    DeltaValue,
    Universe,
    check_delta,
    clamp_delta,
    delta_from_json,
    delta_to_json,
    is_finite_delta,
    window_reach,
)

DEFAULT_ORACLE_GUARD_BITS = 16


class TimingSpec:
    """A set of at least two agents plus pairwise response-time bounds.

    ``delta(i, j)`` bounds how much later than i's action j's action may
    happen; negative values force j to act before i, inf leaves the pair
    unconstrained.
    """

    __slots__ = ("agents", "_delta")

    def __init__(self, agents: Iterable[str], delta: Mapping[tuple, DeltaValue]):
        self.agents = tuple(agents)
        if not self.agents:
            raise InvariantViolation("agents must name at least one agent")
        if len(set(self.agents)) != len(self.agents):
            raise InvariantViolation(f"agents must be distinct, got {list(self.agents)}")
        pairs = {(i, j) for i in self.agents for j in self.agents if i != j}
        given = set(delta)
        if given != pairs:
            parts = [
                f"{what} {sorted(f'{i}->{j}' for i, j in keys)}"
                for what, keys in (("missing", pairs - given), ("unexpected", given - pairs))
                if keys
            ]
            raise InvariantViolation("delta must bound each pair of agents: " + "; ".join(parts))
        self._delta = {pair: check_delta(v) for pair, v in delta.items()}

    def delta(self, i: str, j: str) -> DeltaValue:
        try:
            return self._delta[(i, j)]
        except KeyError:
            raise InvariantViolation(f"no delta for pair ({i!r}, {j!r})") from None

    def pairs(self):
        return [(i, j) for i in self.agents for j in self.agents if i != j]

    def bounded_pairs(self) -> list[tuple[int, int, int]]:
        """(index of i, index of j, delta(i, j)) for every finitely bounded
        pair, in `pairs()` order: the edges of the bound graph."""
        at = {a: n for n, a in enumerate(self.agents)}
        bounded = [(i, j) for i, j in self.pairs() if is_finite_delta(self._delta[i, j])]
        return [(at[i], at[j], int(self._delta[i, j])) for i, j in bounded]

    def normalized(self, horizon: int) -> tuple["TimingSpec", dict]:
        """Clamp finite deltas into -(H+1)..H+1 for horizon H (`clamp_delta`),
        which changes neither the window nor the exact-shift map.

        Returns the canonical spec and a map of the changed pairs.
        """
        changed = {}
        new = {}
        for pair, v in self._delta.items():
            nv = clamp_delta(v, horizon)
            new[pair] = nv
            if nv != v:
                changed[pair] = (v, nv)
        return TimingSpec(self.agents, new), changed

    def max_positive_finite(self) -> int:
        return max((d for _, _, d in self.bounded_pairs() if d > 0), default=0)

    def all_finite(self) -> bool:
        return all(is_finite_delta(v) for v in self._delta.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimingSpec):
            return NotImplemented
        return self.agents == other.agents and self._delta == other._delta

    def to_json_dict(self) -> dict:
        return {f"{i}->{j}": delta_to_json(v) for (i, j), v in sorted(self._delta.items())}

    @classmethod
    def from_json_dict(cls, agents: Iterable[str], doc: Mapping[str, object]) -> "TimingSpec":
        delta = {}
        for key, raw in doc.items():
            try:
                i, j = key.split("->")
            except ValueError:
                raise InvariantViolation(f"delta.{key} is not an 'i->j' key") from None
            delta[(i, j)] = delta_from_json(raw, f"delta.{key}")
        return cls(agents, delta)

    def __repr__(self) -> str:
        return f"TimingSpec({list(self.agents)}, {self.to_json_dict()})"


def tuple_union(x: EventTuple) -> Event:
    return Event(x.universe, x.table.any(axis=0))


# -- the vectorial maps ------------------------------------------------------


def _operands(psi: Event, spec: TimingSpec, *constants) -> tuple:
    """The operands of one map: psi's table, the map's own constants, the
    agents' state ids shifted into one shared id range and stacked to shape
    (k, n_runs, n_times), and the size of that range."""
    u = psi.universe
    ids = np.empty((len(spec.agents), u.n_runs, u.n_times), dtype=np.int64)
    n_ids = 0
    for n, a in enumerate(spec.agents):
        np.add(u.state_ids(a), n_ids, out=ids[n])
        n_ids += u.n_state_classes(a)
    return (psi.table, *constants, ids, n_ids)


def reach_matrix(spec: TimingSpec, horizon: int) -> np.ndarray:
    """The (k, k) matrix of each pair's `window_reach` against horizon H; the
    diagonal is so large that an agent's own coordinate never binds."""

    def reach(i, j):
        if i == j:
            return 4 * (horizon + 1)
        return window_reach(spec.delta(i, j), horizon)

    return np.array([[reach(i, j) for j in spec.agents] for i in spec.agents], dtype=np.int64)


def late_pairs(first: np.ndarray, spec: TimingSpec, horizon: int) -> np.ndarray:
    """The (k, k) boolean matrix of the pairs (i, j) such that, in some run
    where i's coordinate holds, j's first instant is later than i's plus
    `reach_matrix`'s (i, j); `first` is (k, n_runs) as `first_instants` gives
    it, H + 1 or more for a run where the coordinate never holds."""
    late = first[None, :, :] > first[:, None, :] + reach_matrix(spec, horizon)[:, :, None]
    return (late & (first <= horizon)[:, None, :]).any(axis=2)


def _window_operands(psi: Event, spec: TimingSpec) -> tuple:
    """The window map's operands: its constants are the negated reach matrix
    laid out as (k_i, k_j, 1) and the clock 0..H."""
    u = psi.universe
    return _operands(psi, spec, -reach_matrix(spec, u.horizon)[:, :, None], np.arange(u.n_times))


def _window_step(x: np.ndarray, psi, lag, clock, ids, n_ids) -> np.ndarray:
    """The window map on a tuple table of shape (k, n_runs, n_times).

    within(x_j, d) holds at (r, t) iff t >= first_j[r] - d, so agent i's body
    is psi from the latest of those thresholds over its partners j on; knows
    then keeps the points whose whole state class lies in the body.
    """
    start = (first_instants(x) + lag).max(axis=1)
    return knows_by_ids(psi & (clock >= start[:, :, None]), ids, n_ids)


def _shift_columns(spec: TimingSpec, universe: Universe) -> np.ndarray:
    """cols[i, j, t]: the column of x_j that agent i reads at time t, in x
    padded with a False column (n_times) and a True column (n_times + 1).

    It is t + delta(i, j) when that lies in 0..H, the False column when the
    shift leaves 0..H, and the True column for an unbounded pair or i == j;
    `clamp_delta` keeps the shifts in range without changing a column.
    """
    k, n = len(spec.agents), universe.n_times
    cols = np.full((k, k, n), n + 1, dtype=np.int64)
    for ai, aj, d in spec.bounded_pairs():
        s = np.arange(n) + clamp_delta(d, universe.horizon)
        cols[ai, aj] = np.where((s >= 0) & (s < n), s, n)
    return cols


def _shift_step(x: np.ndarray, psi, cols, ids, n_ids) -> np.ndarray:
    """The exact-shift map on a tuple table of shape (k, n_runs, n_times):
    agent i's body is psi and every x_j read at the columns cols[i, j]."""
    k, n_runs, _ = x.shape
    pad = np.zeros((k, n_runs, 2), dtype=bool)
    pad[..., 1] = True
    # (k_i, k_j, n_times, n_runs): partner j's value at agent i's shifted time
    read = np.concatenate((x, pad), axis=2)[np.arange(k)[None, :, None], :, cols]
    return knows_by_ids(psi & read.all(axis=1).transpose(0, 2, 1), ids, n_ids)


def apply_f(psi: Event, spec: TimingSpec, x: EventTuple) -> EventTuple:
    """One application of the window-based coordination map."""
    x.conform(psi.universe, spec.agents)
    operands = _window_operands(psi, spec)
    return EventTuple.of(psi.universe, spec.agents, _window_step(x.table, *operands))


def apply_g(psi: Event, spec: TimingSpec, x: EventTuple) -> EventTuple:
    """One application of the exact-shift map; unbounded pairs impose nothing."""
    x.conform(psi.universe, spec.agents)
    operands = _operands(psi, spec, _shift_columns(spec, psi.universe))
    return EventTuple.of(psi.universe, spec.agents, _shift_step(x.table, *operands))


# -- greatest fixed points ---------------------------------------------------


@dataclass
class GfpResult:
    value: EventTuple
    iterations: int
    trace: list  # per-iteration coordinate sizes


def _descend(step, start: np.ndarray, agents: tuple,
             count=lambda x: x.reshape(len(x), -1).sum(axis=1).tolist()) -> tuple:
    """Iterate a monotone map on boolean tables of shape (k, ...), row n for
    ``agents[n]``, from `start` until two iterates coincide.  `count` maps a
    table to its per-row sizes, by default its row counts; another count must
    weigh every entry an iterate can lose.  Returns the value table, the
    iteration count and the trace.

    On a finite lattice the stabilized value of a descending Kleene iteration
    from the top is the greatest fixed point.  Each strict step must remove at
    least one entry from at least one row, which bounds the iteration count by
    the table size; exceeding the bound, or any non-descending step, means the
    supplied map was not monotone and is reported as an internal error.  Since
    every accepted step lies inside its predecessor, two iterates coincide
    exactly when their sizes, recorded for the trace, do.
    """
    bound = start.size + 1
    cur = start
    sizes = count(cur)
    trace = [dict(zip(agents, sizes))]
    for iteration in range(1, bound + 1):
        nxt = step(cur)
        if (nxt > cur).any():
            raise InternalConsistencyError(
                "fixed-point iteration did not descend; the map is not monotone"
            )
        new_sizes = count(nxt)
        trace.append(dict(zip(agents, new_sizes)))
        if new_sizes == sizes:
            return nxt, iteration, trace
        cur, sizes = nxt, new_sizes
    raise InternalConsistencyError(
        f"fixed-point iteration failed to stabilize within {bound} steps"
    )


def _descend_from_top(step, universe: Universe, agents: tuple) -> GfpResult:
    """`_descend` on (k, n_runs, n_times) tuple tables from the all-full one;
    the tuple is built only for the final value."""
    start = np.ones((len(agents), universe.n_runs, universe.n_times), dtype=bool)
    table, iterations, trace = _descend(step, start, agents)
    return GfpResult(EventTuple.of(universe, agents, table), iterations, trace)


def event_gfp(step: Callable[[Event], Event], universe: Universe, agent: str) -> Event:
    """The greatest fixed point of a monotone map on single events, descended
    from the full event as a one-coordinate tuple labelled `agent`."""
    return _descend_from_top(
        lambda x: step(Event(universe, x[0])).table[None], universe, (agent,)
    ).value[agent]


def timely_ck_info(psi: Event, spec: TimingSpec) -> GfpResult:
    """The greatest fixed point of the window map, with its iteration trace."""
    operands = _window_operands(psi, spec)
    return _descend_from_top(lambda x: _window_step(x, *operands), psi.universe, spec.agents)


def timely_ck(psi: Event, spec: TimingSpec) -> EventTuple:
    return timely_ck_info(psi, spec).value


def timely_ck_g_info(psi: Event, spec: TimingSpec) -> GfpResult:
    """The greatest fixed point of the exact-shift map, with its iteration trace."""
    operands = _operands(psi, spec, _shift_columns(spec, psi.universe))
    return _descend_from_top(lambda x: _shift_step(x, *operands), psi.universe, spec.agents)


def timely_ck_g(psi: Event, spec: TimingSpec) -> EventTuple:
    return timely_ck_g_info(psi, spec).value


def check_induction_rule(psi: Event, spec: TimingSpec, xi: EventTuple) -> bool:
    """Whether `xi` is below its own image; such tuples must sit below the gfp.

    Returns the pre-fixed-point verdict.  When it is true but `xi` is not below
    `timely_ck(psi, spec)`, the greatest-fixed-point computation is broken and
    an internal error is raised.
    """
    pre_fixed = xi <= apply_f(psi, spec, xi)
    if pre_fixed and not xi <= timely_ck(psi, spec):
        raise InternalConsistencyError(
            "a tuple below its own image escaped the greatest fixed point"
        )
    return pre_fixed


# -- the brute-force oracle ------------------------------------------------------


def _oracle_bits(universe: Universe, n_agents: int, guard_bits: int) -> int:
    bits = universe.n_points * n_agents
    if bits > guard_bits:
        raise SizeGuardExceeded(
            f"oracle would sweep 2^{bits} tuples; guard is 2^{guard_bits}"
        )
    return bits


def timely_ck_oracle(
    psi: Event,
    spec: TimingSpec,
    *,
    guard_bits: int = DEFAULT_ORACLE_GUARD_BITS,
) -> EventTuple:
    """Packed-bitmask version of the Tarski sweep for the window-based map:
    the join of every tuple below its packed image.

    The operator tables come from the definition-direct evaluators, and the
    numpy kernel walks all 2^(P * k) packed tuples; nothing is shared with
    `timely_ck` except the universe itself.
    """
    u, k = psi.universe, len(spec.agents)
    _oracle_bits(u, k, guard_bits)
    space = PackedSpace(u)
    join = scan_postfixed_join(space.n_bits, k, space.pack(psi), *space.map_tables(spec))
    return EventTuple.of(u, spec.agents, space.tables(join))


# -- degenerate fixed points ---------------------------------------------------


def common_knowledge(agents: Iterable[str], e: Event) -> Event:
    """Common knowledge of `e`: the greatest fixed point of
    x -> everyone_knows(e & x), descended from the full event.

    It equals the stabilized intersection of iterated everyone-knows, which
    the tests' `naive_reference.n_common_knowledge` computes independently.
    """
    agents = tuple(agents)
    if not agents:
        raise InvariantViolation("common_knowledge requires a nonempty agent set")
    return event_gfp(lambda x: everyone_knows(agents, e & x), e.universe, agents[0])


def eventual_ck(agents: Iterable[str], psi: Event) -> Event:
    """Greatest fixed point of x -> AND_i eventually(knows(i, psi & x))."""
    agents = tuple(agents)
    if not agents:
        raise InvariantViolation("eventual_ck requires a nonempty agent set")

    def step(x: Event) -> Event:
        out = Event.full(psi.universe)
        for i in agents:
            out = out & eventually(knows(i, psi & x))
        return out

    return event_gfp(step, psi.universe, agents[0])


def window_everyone_knows(agents: Iterable[str], e: Event, eps: int) -> Event:
    """Points covered by a length-eps time window in which every agent knows `e`
    somewhere.

    A window is a full interval {a .. a+eps} inside 0..H containing the point's
    time; eps is clamped to the horizon, where the single window is 0..H.
    """
    return Event(e.universe, window_cover(np.stack([knows(i, e).table for i in agents]), eps))


def epsilon_ck(agents: Iterable[str], psi: Event, eps: int) -> Event:
    """Greatest fixed point of x -> window_everyone_knows(psi & x, eps)."""
    agents = tuple(agents)
    if not agents:
        raise InvariantViolation("epsilon_ck requires a nonempty agent set")
    return event_gfp(
        lambda x: window_everyone_knows(agents, psi & x, eps), psi.universe, agents[0]
    )
