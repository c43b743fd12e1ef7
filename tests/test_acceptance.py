"""Acceptance suite: one test per criterion, each printing its verdict line.

Every tolerance here is exact set/bit equality; randomized volumes and the
runtime bounds are as pinned below.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import subprocess
import sys
import time

import numpy as np

import timelyck
from timelyck.coordination import verify_greatest_coordinated_ensemble
from timelyck.events import knows
from timelyck.fixpoint import (
    TimingSpec,
    common_knowledge,
    eventual_ck,
    timely_ck,
    timely_ck_g,
    timely_ck_oracle,
)
from timelyck.nested import verify_nested_characterization
from timelyck.optimality import verify_optimal
from timelyck.props import (
    check_coordinate_stability,
    check_knowledge_axioms,
    check_recall_laws,
    check_shift_laws,
    check_stability_laws,
    check_window_laws,
)
from timelyck.sampling import random_event, random_spec, random_universe
from timelyck.scenarios import (
    ScenarioSpec,
    generate_system,
    response_knowledge,
    solvability,
    synthesize_optimal,
    verify_solution,
)
from timelyck.universe import INF

from reductions import (
    verify_joint_reduction,
    verify_ordered_reduction,
    verify_simultaneous_reduction,
)


def _pass(n, label):
    print(f"\nACCEPTANCE {n} {label}: PASS")


def load_instance(name, **kw):
    doc = json.loads(timelyck.bundled_scenario_path(name).read_text())
    return generate_system(ScenarioSpec.from_json_dict(doc), **kw)


PINNED_SOLVABLE = (
    "car_wash",
    "ordered_2",
    "ordered_3",
    "firing_squad_2",
    "firing_squad_3",
    "joint_response",
    "tight_pair",
)


def test_01_fixed_point_matches_bruteforce_oracle():
    """>= 200 random universes, exact agreement, under a minute total."""
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    cases = 0
    while cases < 200:
        n_agents = int(rng.integers(2, 4))
        u = random_universe(
            rng, n_agents=n_agents, bit_budget=16, max_runs=4, max_times=5
        )
        psi = random_event(rng, u)
        spec = random_spec(rng, u.agents, lo=-3, hi=3)
        assert timely_ck(psi, spec) == timely_ck_oracle(psi, spec, guard_bits=16)
        cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _pass(1, f"fixed point vs exhaustive sweep ({cases} universes, {elapsed:.1f}s)")


def test_02_coordinated_ensemble_characterisation():
    """All five correspondence parts on >= 100 random small universes."""
    rng = np.random.default_rng(7)
    for case in range(100):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=3)
        psi = random_event(rng, u)
        spec = random_spec(rng, u.agents)
        report = verify_greatest_coordinated_ensemble(
            psi, spec, enum_guard=1 << 14, seed=case
        )
        assert report.ok(), f"case {case}: {report.to_json_dict()}"
    _pass(2, "greatest coordinated ensemble characterisation (100 universes)")


def test_03_operator_law_suite():
    """Knowledge, window, shift, stability and recall laws, 500 cases each."""
    groups = [
        check_knowledge_axioms,
        check_window_laws,
        check_shift_laws,
        check_stability_laws,
        check_recall_laws,
        check_coordinate_stability,
    ]
    for idx, group in enumerate(groups):
        result = group(np.random.default_rng([99, idx]), 500)
        assert result.ok(), result.to_json_dict()
    _pass(3, "operator-law suite (6 groups x 500 cases)")


def test_04_nested_characterisation_on_generated_scenarios():
    """Path conjunction == exact-shift fixed point with per-depth agreement on
    every pinned solvable scenario; full window-fixed-point equality whenever
    no positive finite bound can clip at the horizon."""
    for name in PINNED_SOLVABLE:
        instance = load_instance(name)
        assert solvability(instance), name
        report = verify_nested_characterization(
            instance.trigger_history(),
            instance.timing,
            explicit_paths=True,
            max_paths=50_000,
        )
        for agent, verdicts in report.per_agent.items():
            assert verdicts["matches_exact_shift_fixed_point"], (name, agent)
        if instance.timing.max_positive_finite() == 0:
            assert report.asserted_full_equality, name
            assert all(
                v["equals_window_fixed_point"] for v in report.per_agent.values()
            ), name
        else:
            # positive bounds reach past the horizon: the exact-shift windows
            # clip there, and on the car wash the positive-weight bound cycles
            # empty the exact-shift fixed point entirely
            g_fix = timely_ck_g(instance.trigger_history(), instance.timing)
            assert all(not g_fix[a].table.any() for a in instance.timing.agents), name
    _pass(4, f"nested characterisation on {len(PINNED_SOLVABLE)} scenarios")


def test_05_reduction_identities():
    """Ordered chain, plain common knowledge, and block-nested common
    knowledge coordinate identities, exactly, with observation windows (0,1)."""
    ordered2 = load_instance("ordered_2")
    ordered3 = load_instance("ordered_3")
    assert all(verify_ordered_reduction(ordered2).values())
    assert all(verify_ordered_reduction(ordered3).values())
    for name in ("firing_squad_2", "firing_squad_3"):
        assert all(verify_simultaneous_reduction(load_instance(name)).values())
    joint = load_instance("joint_response")
    assert all(
        verify_joint_reduction(joint, [("scout",), ("left", "right")]).values()
    )
    _pass(5, "reduction identities (ordered, simultaneous, joint)")


def test_06_car_wash_end_to_end():
    started = time.monotonic()
    instance = load_instance("car_wash")
    xi = response_knowledge(instance)
    assert solvability(instance, knowledge=xi)
    result = synthesize_optimal(instance, knowledge=xi)
    assert verify_solution(instance, result).ok()

    # nobody can respond earlier anywhere: exhaustive over the quotiented
    # strategy space (propagation + signature boxes; raw space ~2e10)
    report = verify_optimal(instance, result, knowledge=xi)
    assert report.optimal and report.necessity, report.to_json_dict()
    assert "signature_boxes" in report.methods

    # the synthesized times themselves, pinned: washers respond on observation,
    # the dryer at 8 in every triggered run
    for info in instance.runs:
        expected = (
            {"L": None, "R": None, "D": None}
            if info.trigger_time is None
            else {"L": info.observations["L"], "R": info.observations["R"], "D": 8}
        )
        assert result.responses[info.name] == expected

    # the car's arrival instant never becomes common knowledge while the
    # never-run is around, even though the coordinated response is attainable
    assert not common_knowledge(("L", "R", "D"), instance.trigger).table.any()

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"car wash end-to-end took {elapsed:.1f}s"
    _pass(6, f"car wash end-to-end ({elapsed:.1f}s)")


def test_07_necessity_of_knowledge_coordinates():
    """Every response point of every valid run-equivalent solution of every
    pinned instance lies in the agent's knowledge coordinate: zero exceptions.
    The attainable-interval sweep covers all solutions; where the raw space
    fits the guard the literal enumeration re-confirms it."""
    for name in PINNED_SOLVABLE:
        instance = load_instance(name)
        result = synthesize_optimal(instance)
        report = verify_optimal(instance, result)
        assert report.necessity, (name, report.to_json_dict())
        assert not report.violations.get("necessity"), name
        if name != "car_wash":
            assert "exhaustive_enumeration" in report.methods, name
            assert report.enumerated_solutions > 0, name
    _pass(7, f"necessity on {len(PINNED_SOLVABLE)} pinned instances")


def test_08_constant_bound_degenerations():
    """Zero bounds collapse to common knowledge; unbounded specs collapse to
    knowledge of the eventual variant, coordinate by coordinate, exactly."""
    for name in PINNED_SOLVABLE:
        instance = load_instance(name)
        u = instance.universe
        psi = instance.trigger_history()
        agents = instance.timing.agents
        pairs = [(i, j) for i in agents for j in agents if i != j]

        zero = TimingSpec(agents, {p: 0 for p in pairs})
        ck = common_knowledge(agents, psi)
        xi = timely_ck(psi, zero)
        assert all(xi[a] == ck for a in agents), name

        unbounded = TimingSpec(agents, {p: INF for p in pairs})
        ev = eventual_ck(agents, psi)
        xi = timely_ck(psi, unbounded)
        assert all(xi[a] == knows(a, psi & ev) for a in agents), name
    _pass(8, "zero-bound and unbounded degenerations")


def test_09_cli_determinism(tmp_path):
    """Same inputs and seed give byte-identical files, twice over, per verb."""
    scenario = str(timelyck.bundled_scenario_path("car_wash"))
    outputs = []
    for tag in ("x", "y"):
        solve_out = tmp_path / f"solve_{tag}.json"
        oracle_out = tmp_path / f"oracle_{tag}.json"
        props_out = tmp_path / f"props_{tag}.json"
        for argv in (
            ["solve", scenario, "-o", str(solve_out)],
            ["oracle", scenario, "--seed", "11", "--cases", "8", "-o", str(oracle_out)],
            ["props", "--seed", "11", "--cases", "15", "--format", "json", "-o", str(props_out)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "timelyck.cli", *argv],
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
        outputs.append(
            (solve_out.read_bytes(), oracle_out.read_bytes(), props_out.read_bytes())
        )
    assert outputs[0] == outputs[1]
    _pass(9, "CLI determinism under a fixed seed")
