"""Seeded random generators for small universes, events and timing specs.

Used by the randomized property suite (CLI `props` verb) and by the tests.
Everything is driven by an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .events import Event, within
from .fixpoint import EventTuple, TimingSpec
from .universe import INF, Universe

AGENT_POOL = ("a", "b", "c", "d")


def random_universe(
    rng: np.random.Generator,
    *,
    n_agents: int = 2,
    max_runs: int = 3,
    max_times: int = 4,
    bit_budget: int | None = None,
    recall: bool = False,
    synchronous: bool = True,
) -> Universe:
    """A random small universe.

    With ``recall=True`` local states are full observation histories (a per-run
    random bit string, revealed prefix by prefix), which guarantees perfect
    recall.  Otherwise states are (time, random symbol) pairs, which keeps the
    universe synchronous but typically forgets.

    ``bit_budget`` caps n_runs * n_times * n_agents, the tuple-lattice size the
    brute-force fixed-point oracle has to sweep.
    """
    agents = AGENT_POOL[:n_agents]
    while True:
        n_runs = int(rng.integers(1, max_runs + 1))
        n_times = int(rng.integers(2, max_times + 1))
        if bit_budget is None or n_runs * n_times * n_agents <= bit_budget:
            break
    runs = tuple(f"r{k}" for k in range(n_runs))

    states = {}
    if recall:
        for agent in agents:
            for run in runs:
                obs = rng.integers(0, 2, size=n_times)
                for t in range(n_times):
                    states[(agent, run, t)] = (t, tuple(int(x) for x in obs[:t]))
    else:
        n_symbols = int(rng.integers(1, 3))
        for agent in agents:
            for run in runs:
                for t in range(n_times):
                    sym = int(rng.integers(0, n_symbols + 1))
                    states[(agent, run, t)] = (t, sym) if synchronous else sym

    return Universe(agents, runs, n_times - 1, states, synchronous=synchronous)


def random_event(rng: np.random.Generator, u: Universe, *, density: float | None = None) -> Event:
    if density is None:
        density = float(rng.uniform(0.2, 0.8))
    table = rng.random((u.n_runs, u.n_times)) < density
    return Event(u, table)


def random_stable_event(rng: np.random.Generator, u: Universe) -> Event:
    return within(random_event(rng, u), 0)


def random_tuple(rng: np.random.Generator, u: Universe) -> EventTuple:
    """One random, generally unstable event per agent, each cleared in about
    30% of the runs."""
    coords = {}
    for agent in u.agents:
        table = random_event(rng, u, density=float(rng.uniform(0.1, 0.6))).table.copy()
        table[rng.random(u.n_runs) < 0.3] = False
        coords[agent] = Event(u, table)
    return EventTuple(u, coords)


def random_delta(rng: np.random.Generator, *, lo: int = -2, hi: int = 2, p_inf: float = 0.25):
    if rng.random() < p_inf:
        return INF
    return int(rng.integers(lo, hi + 1))


def random_spec(
    rng: np.random.Generator,
    agents,
    *,
    lo: int = -2,
    hi: int = 2,
    p_inf: float = 0.25,
) -> TimingSpec:
    agents = tuple(agents)
    delta = {
        (i, j): random_delta(rng, lo=lo, hi=hi, p_inf=p_inf)
        for i in agents
        for j in agents
        if i != j
    }
    return TimingSpec(agents, delta)
