"""Packed-bitmask engine for exhaustive sweeps over small universes.

Events become integers with one bit per point (bit = run * n_times + time).
Operator lookup tables cover every mask and are built without the vectorized
operators, so results obtained here count as an independent route: `within`
images come from `n_within` on single points, a loop-by-loop transcription of
the definition over (run_index, time) sets that calls nothing in `events`;
`knows` images from the state classes, each packed from the universe's
state-id array with one scatter of bit weights.

`map_tables(spec)` builds the packed window map's operands once per spec: one
`within` row per distinct window reach (`window_reach`: bounds of H, H+1 and
inf share a row), all rows filled by one doubling pass, the (k, k) index of
each ordered pair's row, and every agent's `knows` table.
Three readers share them: the fixed-point oracle's tuple sweep
(`fixpoint.timely_ck_oracle`), the batched descent `timely_ck_masks`, and the
coordination filter of the local-ensemble enumeration in `coordination`.
`within_table` and `knows_table` are the one-row cases of `within_tables` and
`knows_tables`; `tables` unpacks several masks with one shift-and-mask and
`unpack` is its one-mask case.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import InternalConsistencyError, SizeGuardExceeded
from .events import Event
from .universe import DeltaValue, Universe, window_reach

MAX_PACKED_POINTS = 20  # full tables are 2^P entries

# Masks per block of the knows-table containment test, which holds a
# (masks, classes) matrix, with at most MAX_PACKED_POINTS classes.
_KNOWS_ROWS = 1 << 12

# The bitmask images of within(single point, d) depend only on the geometry
# and the window reach of d, so every universe of one shape shares them; keyed
# by (n_runs, n_times, reach), and MAX_PACKED_POINTS bounds the keys.
_WITHIN_SINGLES: dict[tuple, list[int]] = {}

PointSet = frozenset[tuple[int, int]]


def all_points(u: Universe) -> PointSet:
    return frozenset(product(range(u.n_runs), range(u.n_times)))


def n_within(u: Universe, e: PointSet, eps: DeltaValue) -> PointSet:
    return frozenset(
        (r, t)
        for r, t in all_points(u)
        if any(t2 <= t + eps and (r, t2) in e for t2 in range(u.n_times))
    )


class PackedSpace:
    """Bitmask view of one universe plus its operator tables."""

    def __init__(self, universe: Universe):
        if universe.n_points > MAX_PACKED_POINTS:
            raise SizeGuardExceeded(
                f"packed engine supports up to {MAX_PACKED_POINTS} points, "
                f"universe has {universe.n_points}"
            )
        self.universe = universe
        self.n_bits = universe.n_points
        self.full_mask = (1 << self.n_bits) - 1
        self._shifts = np.arange(self.n_bits, dtype=np.int64)
        self._weights = 1 << self._shifts

    # -- conversions -------------------------------------------------------

    def pack(self, e: Event) -> int:
        return int(self._weights[e.table.ravel()].sum())

    def unpack(self, mask: int) -> Event:
        return Event(self.universe, self.tables(mask))

    def tables(self, masks) -> np.ndarray:
        """The membership tables of packed masks, shape
        masks.shape + (n_runs, n_times)."""
        u = self.universe
        bits = (np.asarray(masks, dtype=np.int64)[..., None] >> self._shifts) & 1
        return bits.astype(bool).reshape(bits.shape[:-1] + (u.n_runs, u.n_times))

    def _pack_pointset(self, pts) -> int:
        return sum(1 << (r * self.universe.n_times + t) for r, t in pts)

    # -- tables (definition-direct) -----------------------------------------

    def within_tables(self, deltas) -> np.ndarray:
        """within(., d) for every possible event mask, one row per delta, via
        union of singletons: masks with top bit b map to their image without
        b plus b's image, so every row gains bit b in the same step."""
        u = self.universe
        singles = []
        for d in deltas:
            key = (u.n_runs, u.n_times, window_reach(d, u.horizon))
            if key not in _WITHIN_SINGLES:
                points = [frozenset({divmod(b, u.n_times)}) for b in range(self.n_bits)]
                _WITHIN_SINGLES[key] = [
                    self._pack_pointset(n_within(u, p, key[2])) for p in points
                ]
            singles.append(_WITHIN_SINGLES[key])
        singles = np.array(singles, dtype=np.int64).reshape(-1, self.n_bits)
        tab = np.zeros((singles.shape[0], 1 << self.n_bits), dtype=np.int64)
        for b in range(self.n_bits):
            np.bitwise_or(tab[:, : 1 << b], singles[:, b, None], out=tab[:, 1 << b : 2 << b])
        return tab

    def within_table(self, d: DeltaValue) -> np.ndarray:
        """within(., d) for every possible event mask."""
        return self.within_tables((d,))[0]

    def knows_tables(self, agents) -> np.ndarray:
        """knows(a, .) for every possible event mask, one row per agent: the
        union of the agent's state classes that the mask contains."""
        n = 1 << self.n_bits
        classes = [self.class_masks(a) for a in agents]
        out = np.empty((len(classes), n), dtype=np.int64)
        for start in range(0, n, _KNOWS_ROWS):
            masks = np.arange(start, min(start + _KNOWS_ROWS, n), dtype=np.int64)[:, None]
            for a, cms in enumerate(classes):
                # classes are disjoint, so summing the contained ones ORs them
                out[a, start : start + masks.size] = ((masks & cms) == cms) @ cms
        return out

    def knows_table(self, agent: str) -> np.ndarray:
        """knows(agent, .) for every possible event mask."""
        return self.knows_tables((agent,))[0]

    def class_masks(self, agent: str) -> np.ndarray:
        """The bitmask of each of the agent's state classes, by state id."""
        u = self.universe
        masks = np.zeros(u.n_state_classes(agent), dtype=np.int64)
        np.bitwise_or.at(masks, u.state_ids(agent).ravel(), self._weights)
        return masks

    def map_tables(self, spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The packed window map's operands for `spec`: the within tables, one
        row per distinct window reach; the (k, k) pair index, entry [i, j]
        naming pair (i, j)'s row (0 on the never-read diagonal); and the
        (k, 2^P) knows tables in `spec.agents` order."""
        k = len(spec.agents)
        key_of: dict = {}  # window reach -> its row of the within tables
        pair_index = np.zeros((k, k), dtype=np.int64)
        for ai, i in enumerate(spec.agents):
            for aj, j in enumerate(spec.agents):
                if ai != aj:
                    key = window_reach(spec.delta(i, j), self.universe.horizon)
                    pair_index[ai, aj] = key_of.setdefault(key, len(key_of))
        return self.within_tables(key_of), pair_index, self.knows_tables(spec.agents)

    # -- packed engine ops -----------------------------------------------------

    def timely_ck_masks(self, psi_masks, within, pair_index, knows) -> np.ndarray:
        """Descending iteration of the packed window map, on operands from
        `map_tables`, from the all-full tuple for every target mask of a batch
        at once; row r is psi_masks[r]'s fixed point, its coordinates in the
        spec's agent order.

        Every step must stay inside its predecessor, so the iteration stops
        within n_bits * k + 1 steps; a step that adds a point means the tables
        do not describe a monotone map and is an internal error."""
        psi_masks = np.asarray(psi_masks, dtype=np.int64)
        k = len(knows)
        xs = np.full((psi_masks.size, k), self.full_mask, dtype=np.int64)
        while True:
            nxt = np.empty_like(xs)
            for i in range(k):
                body = psi_masks
                for j in range(k):
                    if j != i:
                        body = body & within[pair_index[i, j]][xs[:, j]]
                nxt[:, i] = knows[i][body]
            if (nxt & ~xs).any():
                raise InternalConsistencyError(
                    "packed fixed-point iteration did not descend; the map is not monotone"
                )
            if np.array_equal(nxt, xs):
                return xs
            xs = nxt
