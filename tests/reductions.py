"""The paper's special cases of timely common knowledge, as coordinate
identities on a response-task instance.

Each function maps every agent to whether its coordinate of
`response_knowledge(instance)` equals the closed form the special case
predicts.  They are test references: the engine computes only the fixed point.
"""

from timelyck.events import knows
from timelyck.fixpoint import common_knowledge
from timelyck.scenarios import TCRInstance, response_knowledge


def verify_ordered_reduction(instance: TCRInstance) -> dict:
    """Coordinate m must equal the knowledge chain down the response order."""
    psi = instance.trigger_history()
    xi = response_knowledge(instance)
    agents = instance.timing.agents
    out = {}
    chain = psi
    for agent in agents:
        chain = knows(agent, chain)
        out[agent] = xi[agent] == chain
    return out


def verify_simultaneous_reduction(instance: TCRInstance) -> dict:
    """Every coordinate must equal plain common knowledge of the history."""
    psi = instance.trigger_history()
    xi = response_knowledge(instance)
    ck = common_knowledge(instance.timing.agents, psi)
    return {agent: xi[agent] == ck for agent in instance.timing.agents}


def verify_joint_reduction(instance: TCRInstance, partition) -> dict:
    """Block m's coordinates must equal the nested block-wise common knowledge."""
    psi = instance.trigger_history()
    xi = response_knowledge(instance)
    out = {}
    value = psi
    for block in [tuple(b) for b in partition]:
        value = common_knowledge(block, value)
        for agent in block:
            out[agent] = xi[agent] == value
    return out
