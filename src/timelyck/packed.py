"""Packed-bitmask engine for exhaustive sweeps over small universes.

Events become integers with one bit per point (bit = run * n_times + time).
Operator lookup tables cover every mask and are built without the vectorized
operators, so results obtained here count as an independent route: `within`
images come from the definition-direct `naive.n_within` on single points,
`knows` images from the state classes, each packed from the universe's
state-id array with one scatter of bit weights.

Used by the fixed-point oracle, which builds all its operands in one pass
(`packed_timely_ck_oracle`), and by the local-ensemble enumeration in the
coordination checks.  `knows_tables` writes several agents' knows tables into
one array and `knows_table` is its one-agent case; `tables` unpacks several
masks with one shift-and-mask and `unpack` is its one-mask case;
`timely_ck_masks` descends a whole batch of target masks at once.
"""

from __future__ import annotations

import numpy as np

from . import naive
from ._kernels import scan_postfixed_join
from .errors import SizeGuardExceeded
from .events import Event
from .universe import DeltaValue, Universe, clamp_delta

MAX_PACKED_POINTS = 20  # full tables are 2^P entries

# Masks per block of the knows-table containment test, which holds a
# (masks, classes) matrix, with at most MAX_PACKED_POINTS classes.
_KNOWS_ROWS = 1 << 12

# The bitmask images of within(single point, d) depend only on the geometry
# and the clamped delta, so every universe of one shape shares them; keyed by
# (n_runs, n_times, d), and MAX_PACKED_POINTS bounds the keys.
_WITHIN_SINGLES: dict[tuple, list[int]] = {}


class PackedSpace:
    """Bitmask view of one universe plus lazily built operator tables."""

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
        self._within_full: dict[DeltaValue, np.ndarray] = {}
        self._knows_full: dict[str, np.ndarray] = {}

    # -- conversions -------------------------------------------------------

    def bit(self, run_idx: int, t: int) -> int:
        return run_idx * self.universe.n_times + t

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
        mask = 0
        for r, t in pts:
            mask |= 1 << self.bit(r, t)
        return mask

    # -- tables (definition-direct) -----------------------------------------

    def within_table(self, d: DeltaValue) -> np.ndarray:
        """within(., d) for every possible event mask, via union of singletons."""
        u = self.universe
        key = clamp_delta(d, u.horizon)
        tab = self._within_full.get(key)
        if tab is None:
            singles = _WITHIN_SINGLES.get((u.n_runs, u.n_times, key))
            if singles is None:
                singles = []
                for b in range(self.n_bits):
                    pts = frozenset({divmod(b, u.n_times)})
                    singles.append(self._pack_pointset(naive.n_within(u, pts, key)))
                _WITHIN_SINGLES[(u.n_runs, u.n_times, key)] = singles
            # masks with top bit b map to their image without b, plus b's image
            tab = np.zeros(1 << self.n_bits, dtype=np.int64)
            for b, single in enumerate(singles):
                np.bitwise_or(tab[: 1 << b], single, out=tab[1 << b : 2 << b])
            self._within_full[key] = tab
        return tab

    def knows_table(self, agent: str) -> np.ndarray:
        """knows(agent, .) for every possible event mask."""
        tab = self._knows_full.get(agent)
        if tab is None:
            tab = self._knows_full[agent] = self.knows_tables((agent,))[0]
        return tab

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

    def class_masks(self, agent: str) -> np.ndarray:
        """The bitmask of each of the agent's state classes, by state id."""
        u = self.universe
        masks = np.zeros(u.n_state_classes(agent), dtype=np.int64)
        np.bitwise_or.at(masks, u.state_ids(agent).ravel(), self._weights)
        return masks

    # -- packed engine ops -----------------------------------------------------

    def apply_f_masks(self, psi_masks: np.ndarray, spec, xs: np.ndarray) -> np.ndarray:
        """Packed analogue of the window-based coordination map, on a batch:
        row r of `xs` (coordinates in `spec.agents` order) is mapped under the
        target mask `psi_masks[r]`."""
        agents = spec.agents
        out = np.empty_like(xs)
        for ai, i in enumerate(agents):
            body = psi_masks
            for aj, j in enumerate(agents):
                if aj != ai:
                    body = body & self.within_table(spec.delta(i, j))[xs[:, aj]]
            out[:, ai] = self.knows_table(i)[body]
        return out

    def timely_ck_masks(self, psi_masks, spec) -> np.ndarray:
        """Descending iteration of the packed map from the all-full tuple, for
        every target mask of a batch at once; row r is psi_masks[r]'s fixed
        point."""
        psi_masks = np.asarray(psi_masks, dtype=np.int64)
        xs = np.full((psi_masks.size, len(spec.agents)), self.full_mask, dtype=np.int64)
        for _ in range(self.n_bits * len(spec.agents) + 2):
            nxt = self.apply_f_masks(psi_masks, spec, xs)
            if np.array_equal(nxt, xs):
                return xs
            xs = nxt
        raise SizeGuardExceeded("packed fixed-point iteration failed to stabilize")


def packed_timely_ck_oracle(psi: Event, spec) -> "EventTuple":
    """Tarski sweep: join of every tuple below its packed image.

    Each pair's delta is clamped once and each distinct clamped delta fetches
    one `within` table; every agent's `knows` table is written into one
    (k, 2^P) array.  The numpy kernel walks all 2^(P * k) packed tuples, and
    the k joined masks are unpacked together.
    """
    from .fixpoint import EventTuple

    u = psi.universe
    space = PackedSpace(u)
    agents = spec.agents
    key_of: dict = {}  # clamped delta -> its row of the within tables

    def row(i, j):
        return key_of.setdefault(clamp_delta(spec.delta(i, j), u.horizon), len(key_of))

    pair_index = np.array(
        [[0 if i == j else row(i, j) for j in agents] for i in agents], dtype=np.int64
    )
    if key_of:
        within_tables = np.array([space.within_table(key) for key in key_of])
    else:
        within_tables = np.zeros((1, 1 << space.n_bits), dtype=np.int64)
    join = scan_postfixed_join(
        space.n_bits, len(agents), space.pack(psi), within_tables, pair_index,
        space.knows_tables(agents),
    )
    x = space.tables(join)
    return EventTuple(u, {a: Event(u, x[n]) for n, a in enumerate(agents)})
