"""Each output check accepts the program's output and refuses a corrupted copy.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy

import numpy as np
import pytest

from reference import DifferenceConstraints, check_descent, check_oracle, check_solve, check_verify
from tracing import NULL_TRACER
from workloads import (
    BOXES,
    ENUMERATION,
    PROPAGATION,
    Input,
    Library,
    descent_problems,
    leader_first,
    op_oracle,
    op_solve,
    op_verify,
    scenario_doc,
)


@pytest.fixture(scope="module")
def lib():
    return Library()


def solve_output(lib, doc):
    return op_solve(lib, NULL_TRACER, Input("small", doc))[0]


def test_solve_check_refuses_a_later_response(lib):
    doc = scenario_doc(["ab", "cd", "ef"], [0, 1], (0, 1), leader_first)
    cons = DifferenceConstraints(doc)
    out = solve_output(lib, doc)
    assert cons.feasible and check_solve(cons, out) == []
    run = next(name for name in out["runs"] if name != "never")
    agent = doc["agents"][1]
    bad = copy.deepcopy(out)
    bad["runs"][run]["responses"][agent] += 1
    assert check_solve(cons, bad)


def test_solve_check_refuses_a_wrong_verdict(lib):
    doc = scenario_doc(["ab", "cd"], [0], (0, 2), lambda i, j: -1)
    cons = DifferenceConstraints(doc)
    out = solve_output(lib, doc)
    assert not cons.feasible and check_solve(cons, out) == []
    bad = copy.deepcopy(out)
    bad["verdict"]["solvable"] = True
    assert check_solve(cons, bad)


def test_difference_constraints_agree_with_solvability(lib):
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        bounds = rng.choice([-1, 0, 1, 2, 3, "inf"], size=(k, k))
        doc = scenario_doc([f"a{n}" for n in range(k)], [0, 1], (0, 1),
                           lambda i, j: bounds[i, j] if bounds[i, j] == "inf" else int(bounds[i, j]))
        assert check_solve(DifferenceConstraints(doc), solve_output(lib, doc)) == []


def test_verify_check_refuses_a_dropped_route_and_a_moved_bound(lib):
    doc = scenario_doc(["ab", "cd", "ef"], [0], (0, 1), lambda i, j: 1)
    cons = DifferenceConstraints(doc)
    routes = (PROPAGATION, ENUMERATION, BOXES)
    inp = Input("small", doc, routes=routes, result_doc=cons.result_document())
    out = op_verify(lib, NULL_TRACER, inp)[0]
    assert check_verify(cons, routes, out) == []
    dropped = copy.deepcopy(out)
    dropped["optimality"]["methods"].remove(BOXES)
    assert check_verify(cons, routes, dropped)
    moved = copy.deepcopy(out)
    key = next(iter(moved["optimality"]["latest_response_per_class"]))
    moved["optimality"]["latest_response_per_class"][key] -= 1
    assert check_verify(cons, routes, moved)


def test_verify_check_refuses_a_later_protocol(lib):
    doc = scenario_doc(["ab", "cd", "ef"], [0], (0, 1), lambda i, j: 1)
    cons = DifferenceConstraints(doc)
    late = cons.result_document()
    for entry in late["runs"].values():
        entry["responses"] = {a: None if t is None else t + 1
                              for a, t in entry["responses"].items()}
    out = op_verify(lib, NULL_TRACER, Input("late", doc, result_doc=late))[0]
    assert check_verify(cons, (PROPAGATION,), out)


def test_oracle_checks_refuse_a_flipped_point_and_a_mismatch(lib):
    doc = scenario_doc(["ab", "cd"], [0], (0, 1), lambda i, j: 0)
    inp = Input("small", doc, oracle_seed=3)
    out, ctx = op_oracle(lib, NULL_TRACER, inp)
    assert check_oracle(inp.reference(), 50, out) == []
    assert all(descent_problems(case) == [] for case in ctx.sweep)

    u, spec, psi, engine = ctx.sweep[0]
    agents = spec.agents
    states = {a: u.state_ids(a).tolist() for a in agents}
    delta = {(i, j): None if spec.delta(i, j) == float("inf") else int(spec.delta(i, j))
             for i in agents for j in agents if i != j}
    psi_points = {(int(r), int(t)) for r, t in zip(*np.nonzero(psi.table))}
    coords = {a: {(int(r), int(t)) for r, t in zip(*np.nonzero(engine[a].table))} for a in agents}
    coords[agents[0]] ^= {(0, 0)}
    assert check_descent(agents, states, psi_points, delta, coords)

    bad = copy.deepcopy(out)
    bad["fixed_point_sweep"]["mismatches"] = 1
    assert check_oracle(inp.reference(), 50, bad)
