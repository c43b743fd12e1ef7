"""Finite-universe temporal-epistemic engine.

Computes timely common knowledge — an agent-indexed greatest fixed point over
finite systems of runs — and uses it to decide solvability of, synthesize, and
verify time-optimal solutions to coordinated-response tasks with pairwise
timing bounds.
"""

from importlib import resources

from .errors import (
    EngineError,
    InternalConsistencyError,
    InvariantViolation,
    SizeGuardExceeded,
    UniverseMismatch,
    Unsolvable,
)
from .events import (
    Event,
    EventTuple,
    eventually,
    everyone_knows,
    is_local,
    is_stable,
    knows,
    shift_exact,
    within,
)
from .fixpoint import (
    TimingSpec,
    apply_f,
    apply_g,
    check_induction_rule,
    common_knowledge,
    epsilon_ck,
    eventual_ck,
    timely_ck,
    timely_ck_g,
    timely_ck_oracle,
    tuple_union,
)
from .coordination import (
    enumerate_local_ensembles,
    is_delta_coordinated,
    is_epsilon_coordinated,
    is_eventually_coordinated,
    is_perfectly_coordinated,
    verify_greatest_coordinated_ensemble,
)
from .nested import (
    enumerate_paths,
    nested_conjunction,
    nested_formula,
    paths_are_finite,
    verify_nested_characterization,
)
from .scenarios import (
    ProtocolResult,
    ScenarioSpec,
    TCRInstance,
    generate_system,
    joint_delta,
    make_scenario,
    ordered_delta,
    response_knowledge,
    simultaneous_delta,
    solvability,
    synthesize_optimal,
    verify_solution,
)
from .optimality import build_strategy_model, verify_optimal
from .universe import INF, Point, Universe

__version__ = "0.1.0"


def bundled_scenario_path(name: str):
    """Filesystem path of a bundled scenario, e.g. ``car_wash``."""
    return resources.files(__name__) / "data" / f"{name}.json"
