"""Packed-bitmask engine for exhaustive sweeps over small universes.

Events become integers with one bit per point (bit = run * n_times + time).
Operator lookup tables are built from the definition-direct evaluators in
`naive`, not from the vectorized operators, so results obtained here count as
an independent route.

Used by the fixed-point oracle and by the local-ensemble enumeration in the
coordination checks.
"""

from __future__ import annotations

import numpy as np

from . import naive
from ._kernels import scan_postfixed_join
from .errors import SizeGuardExceeded
from .events import Event
from .universe import DeltaValue, Universe, clamp_delta

MAX_PACKED_POINTS = 20  # full tables are 2^P entries

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
        self._indices = np.arange(1 << self.n_bits, dtype=np.int64)
        self._within_full: dict[DeltaValue, np.ndarray] = {}
        self._knows_full: dict[str, np.ndarray] = {}

    # -- conversions -------------------------------------------------------

    def bit(self, run_idx: int, t: int) -> int:
        return run_idx * self.universe.n_times + t

    def pack(self, e: Event) -> int:
        flat = e.table.ravel()
        return int(sum(1 << b for b in np.flatnonzero(flat)))

    def unpack(self, mask: int) -> Event:
        flat = np.zeros(self.n_bits, dtype=bool)
        for b in range(self.n_bits):
            if mask >> b & 1:
                flat[b] = True
        u = self.universe
        return Event(u, flat.reshape(u.n_runs, u.n_times))

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
                tab[1 << b : 2 << b] = tab[: 1 << b] | single
            self._within_full[key] = tab
        return tab

    def knows_table(self, agent: str) -> np.ndarray:
        """knows(agent, .) for every possible event mask, from state classes."""
        tab = self._knows_full.get(agent)
        if tab is None:
            tab = np.zeros(1 << self.n_bits, dtype=np.int64)
            for cm in self.class_masks(agent):
                tab[(self._indices & cm) == cm] |= cm
            self._knows_full[agent] = tab
        return tab

    def class_masks(self, agent: str) -> list[int]:
        u = self.universe
        ids = u.state_ids(agent)
        out = []
        for sid in range(u.n_state_classes(agent)):
            pts = [(int(r), int(t)) for r, t in zip(*np.nonzero(ids == sid))]
            out.append(self._pack_pointset(pts))
        return out

    # -- packed engine ops -----------------------------------------------------

    def apply_f_masks(self, psi_mask: int, spec, xs: tuple) -> tuple:
        """Packed analogue of the window-based coordination map."""
        agents = spec.agents
        out = []
        for ai, i in enumerate(agents):
            body = psi_mask
            for aj, j in enumerate(agents):
                if aj != ai:
                    body &= int(self.within_table(spec.delta(i, j))[xs[aj]])
            out.append(int(self.knows_table(i)[body]))
        return tuple(out)

    def timely_ck_masks(self, psi_mask: int, spec) -> tuple:
        """Descending iteration of the packed map from the all-full tuple."""
        xs = tuple(self.full_mask for _ in spec.agents)
        for _ in range(self.n_bits * len(spec.agents) + 2):
            nxt = self.apply_f_masks(psi_mask, spec, xs)
            if nxt == xs:
                return xs
            xs = nxt
        raise SizeGuardExceeded("packed fixed-point iteration failed to stabilize")


def packed_timely_ck_oracle(psi: Event, spec) -> "EventTuple":
    """Tarski sweep: join of every tuple below its packed image.

    The numpy kernel walks all 2^(P * k) packed tuples.
    """
    from .fixpoint import EventTuple

    space = PackedSpace(psi.universe)
    agents = spec.agents
    k = len(agents)

    pair_index = np.zeros((k, k), dtype=np.int64)
    tables = []
    key_of = {}
    for ai, i in enumerate(agents):
        for aj, j in enumerate(agents):
            if ai == aj:
                continue
            d = spec.delta(i, j)
            key = clamp_delta(d, psi.universe.horizon)
            if key not in key_of:
                key_of[key] = len(tables)
                tables.append(space.within_table(key))
            pair_index[ai, aj] = key_of[key]
    within_tables = np.stack(tables) if tables else np.zeros((1, 1 << space.n_bits), np.int64)
    knows_tables = np.stack([space.knows_table(i) for i in agents])

    join = scan_postfixed_join(
        space.n_bits, k, space.pack(psi), within_tables, pair_index, knows_tables
    )
    return EventTuple(
        psi.universe, {a: space.unpack(int(join[ai])) for ai, a in enumerate(agents)}
    )
