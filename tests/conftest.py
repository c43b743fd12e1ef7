import numpy as np
import pytest

from timelyck.events import Event
from timelyck.universe import Universe

BOT = "-"  # nothing observed yet


def state_label(u: Universe, agent: str, run: str, t: int):
    """The label of `agent`'s interned local state at (run, t)."""
    ids, labels, _ = u._states()
    ai = u.agent_index(agent)
    return labels[ai][int(ids[ai][u.run_index(run), u.check_time(t)])]


def empty_event(u: Universe) -> Event:
    """The event that holds at no point of `u`."""
    return Event(u, np.zeros((u.n_runs, u.n_times), dtype=bool))


def _toy_states(b_sees_at: int = 2, a_forgets: bool = False):
    """Two runs that differ in one bit; agent a sees it at t=1, b at t=2."""
    states = {}
    for run, bit in (("r0", 0), ("r1", 1)):
        for t in range(4):
            a_val = bit if t >= 1 else BOT
            if a_forgets and t >= 2:
                a_val = BOT
            states[("a", run, t)] = (t, a_val)
            states[("b", run, t)] = (t, bit if t >= b_sees_at else BOT)
    return states


@pytest.fixture
def toy():
    """The canonical two-run staggered-observation universe used by examples."""
    return Universe(["a", "b"], ["r0", "r1"], 3, _toy_states())


@pytest.fixture
def toy_forgetful():
    """Variant where agent a's observation is erased again from t=2 on."""
    return Universe(["a", "b"], ["r0", "r1"], 3, _toy_states(a_forgets=True))


@pytest.fixture
def single_run():
    states = {("a", "r0", t): t for t in range(4)}
    states.update({("b", "r0", t): t for t in range(4)})
    return Universe(["a", "b"], ["r0"], 3, states)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
