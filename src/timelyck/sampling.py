"""Seeded random generators for small universes, events and timing specs.

Used by the randomized property suite (CLI `props` verb) and by the tests.
Everything is driven by an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation
from .events import Event, EventTuple, within
from .fixpoint import TimingSpec
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
    brute-force fixed-point oracle has to sweep; a budget below the smallest
    universe's (1 run, 2 times) is an InvariantViolation, raised before any
    draw.

    All (agent, run, time) values come from one draw, which leaves the
    generator where drawing them one at a time in that order would.  Each
    state is an integer code, interned per agent in first-appearance order
    run by run, time by time, and labelled with the state it stands for.
    """
    agents = AGENT_POOL[:n_agents]
    if bit_budget is not None and bit_budget < 2 * n_agents:
        raise InvariantViolation(
            f"bit budget {bit_budget} is below {2 * n_agents}, the size of the "
            f"smallest universe (1 run, 2 times) of {n_agents} agents"
        )
    while True:
        n_runs = int(rng.integers(1, max_runs + 1))
        n_times = int(rng.integers(2, max_times + 1))
        if bit_budget is None or n_runs * n_times * n_agents <= bit_budget:
            break
    shape = (n_agents, n_runs, n_times)
    t = np.arange(n_times, dtype=np.int64 if n_times < 63 else object)  # codes reach bit t
    if recall:
        # the observations before t, read as bits, behind a leading 1 at bit t
        obs = rng.integers(0, 2, size=shape) << t
        codes = (1 << t) | (np.cumsum(obs, axis=2) - obs)

        def label(code):
            time = code.bit_length() - 1
            return (time, tuple(code >> s & 1 for s in range(time)))

    else:
        n_symbols = int(rng.integers(1, 3))
        codes = rng.integers(0, n_symbols + 1, size=shape)
        if synchronous:
            codes = codes + t * (n_symbols + 1)

        def label(code):
            return divmod(code, n_symbols + 1) if synchronous else code

    state_ids, labels = [], []
    for agent_codes in codes.reshape(n_agents, -1).tolist():
        interned: dict = {}
        ids = [interned.setdefault(code, len(interned)) for code in agent_codes]
        state_ids.append(np.array(ids).reshape(n_runs, n_times))
        labels.append([label(code) for code in interned])
    runs = tuple(f"r{k}" for k in range(n_runs))
    return Universe.from_state_ids(
        agents, runs, n_times - 1, state_ids, labels, synchronous=synchronous
    )


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
