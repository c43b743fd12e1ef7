"""The generic greatest fixed point on event tuples and its brute-force
oracle, as test references.

`gfp` runs an arbitrary monotone tuple map through the engine's descent loop,
so a map composed event by event from the operators can be compared with the
engine's stacked maps value, iteration count and trace alike.
`gfp_bruteforce_oracle` joins every tuple below its own image by sweeping the
whole tuple lattice, with no iteration at all.  The engine computes only its
own maps' fixed points.
"""

from typing import Callable, Iterable

import numpy as np

from timelyck.fixpoint import (
    DEFAULT_ORACLE_GUARD_BITS,
    EventTuple,
    GfpResult,
    _descend,
    _oracle_bits,
)
from timelyck.packed import PackedSpace
from timelyck.universe import Universe


def gfp(step: Callable[[EventTuple], EventTuple], start: EventTuple) -> GfpResult:
    """Iterate a monotone tuple map from `start` until two iterates coincide."""
    u, agents = start.universe, start.agents

    def table_step(x: np.ndarray) -> np.ndarray:
        image = step(EventTuple.of(u, agents, x))
        start._same(image)
        return image.table

    table, iterations, trace = _descend(table_step, start.table, agents)
    return GfpResult(EventTuple.of(u, agents, table), iterations, trace)


def gfp_bruteforce_oracle(
    step: Callable[[EventTuple], EventTuple],
    universe: Universe,
    agents: Iterable[str],
    *,
    guard_bits: int = DEFAULT_ORACLE_GUARD_BITS,
) -> EventTuple:
    """Join of all tuples below their own image, by explicit enumeration.
    Exponential, hence guarded like the packed oracle."""
    agents = tuple(agents)
    p = universe.n_points
    _oracle_bits(universe, len(agents), guard_bits)
    space = PackedSpace(universe)

    shape = (len(agents), universe.n_runs, universe.n_times)
    join = EventTuple.of(universe, agents, np.zeros(shape, dtype=bool))
    for packed in range(1 << (p * len(agents))):
        masks = [(packed >> (p * n)) & ((1 << p) - 1) for n in range(len(agents))]
        x = EventTuple.of(universe, agents, space.tables(masks))
        if x <= step(x):
            join = join | x
    return join
