"""The three workloads: their inputs, operations, checks and trace probes.

Every operation makes the library calls of one CLI verb, in the order the verb
makes them, starting from the scenario document: `solve`, `verify --optimal`
or `oracle`.  It builds the verb's output document and serializes it, and
returns the document with the intermediate objects the checks and probes need.

The benchmark seed relabels the agents and orders the inputs within a pass.
It changes no input's size or timing matrix, so every seed does the same work.
"""

from __future__ import annotations

import importlib
import json
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import (
    INF_JSON,
    DifferenceConstraints,
    check_descent,
    check_oracle,
    check_solve,
    check_verify,
    scenario_horizon,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("scenarios", "fixpoint", "coordination", "optimality", "nested",
           "sampling", "packed", "_kernels")

GUARD = 10**6  # `verify --guard` and `oracle --guard` default
ORACLE_CASES = 50  # `oracle --cases` default
ORACLE_GUARD_BITS = 16  # `oracle --oracle-guard` default
DESCENT_SAMPLE = 4  # sweep cases per oracle operation re-checked by the direct descent

PROPAGATION, ENUMERATION, BOXES = (
    "difference_bound_propagation", "exhaustive_enumeration", "signature_boxes")


class Library:
    """The timelyck modules the operations call, imported afresh.

    Removing the package from `sys.modules` first makes each construction pay
    the package's whole import, as a new `timelyck` process does.
    """

    def __init__(self):
        if not (SRC / "timelyck" / "__init__.py").is_file():
            raise ImportError(f"no timelyck package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules if m == "timelyck" or m.startswith("timelyck.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"timelyck.{name}"))


@dataclass
class Input:
    name: str
    doc: dict
    routes: tuple = ()  # certify: the optimality routes the input must run
    oracle_seed: int = 0
    result_doc: dict | None = None  # certify: the protocol to verify
    constraints: DifferenceConstraints | None = None
    peak_mb: float | None = None  # certify and cross-check traces: the box sweep's peak

    def reference(self) -> DifferenceConstraints:
        if self.constraints is None:
            self.constraints = DifferenceConstraints(self.doc)
        return self.constraints


@dataclass
class Context:
    """Intermediate objects of one operation, for the checks and probes."""

    instance: object = None
    result: object = None
    sweep: list = field(default_factory=list)  # oracle: (universe, spec, psi, engine value)
    ensembles: int = 0


# -- inputs ------------------------------------------------------------------------


def agent_names(rng, k: int) -> list:
    """k distinct two-letter names, drawn from the seed."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    while True:
        names = ["".join(rng.choice(letters, 2)) for _ in range(k)]
        if len(set(names)) == k:
            return names


def scenario_doc(names, triggers, window, bound, horizon=None) -> dict:
    """A scenario whose bound for the pair (i, j) is bound(position of i, position of j)."""
    k = len(names)
    doc = {
        "agents": list(names),
        "trigger_times": list(triggers),
        "include_never_run": True,
        "obs_delay": {a: list(window) for a in names},
        "delta": {f"{names[i]}->{names[j]}": bound(i, j)
                  for i in range(k) for j in range(k) if i != j},
        "actions": {a: "respond" for a in names},
    }
    doc["horizon"] = scenario_horizon(doc) if horizon is None else horizon
    return doc


def relabel(doc: dict, names) -> dict:
    """The same scenario with its agents renamed, in order."""
    rename = dict(zip(doc["agents"], names))
    out = dict(doc)
    out["agents"] = [rename[a] for a in doc["agents"]]
    out["obs_delay"] = {rename[a]: v for a, v in doc["obs_delay"].items()}
    out["actions"] = {rename[a]: v for a, v in doc["actions"].items()}
    out["delta"] = {"->".join(rename[a] for a in key.split("->")): v
                    for key, v in doc["delta"].items()}
    return out


def simultaneous(i, j):
    return 0


def ordered(i, j):
    return 0 if i == j + 1 else INF_JSON


def leader_first(i, j):
    """Agent 0 acts strictly first; the others follow within 3 and each other within 1."""
    return -1 if j == 0 else 3 if i == 0 else 1


def solve_large_inputs(rng) -> list:
    specs = [
        ("simultaneous-4x1876", 4, [0, 1, 2], (0, 4), simultaneous),
        ("ordered-4x1876", 4, [0, 1, 2], (0, 4), ordered),
        ("loose-5x1025", 5, [0], (0, 3), lambda i, j: 3),
        ("mixed-sign-5x730", 5, [0, 1, 2], (0, 2), leader_first),
        ("unsolvable-4x513", 4, [0, 1], (0, 3), lambda i, j: -1),
    ]
    return [Input(name, scenario_doc(agent_names(rng, k), triggers, window, bound))
            for name, k, triggers, window, bound in specs]


def certify_inputs(rng) -> list:
    specs = [
        ("enumeration-4x17", 4, [0], (0, 1), lambda i, j: 3, None,
         (PROPAGATION, ENUMERATION, BOXES)),
        ("boxes-3x9", 3, [0], (0, 1), lambda i, j: 2, 12, (PROPAGATION, BOXES)),
        ("boxes-4x17", 4, [0], (0, 1), lambda i, j: 1, 6, (PROPAGATION, BOXES)),
        ("multi-trigger-4x244", 4, [0, 1, 2], (0, 2), leader_first, None, (PROPAGATION,)),
    ]
    inputs = []
    for name, k, triggers, window, bound, horizon, routes in specs:
        inp = Input(name, scenario_doc(agent_names(rng, k), triggers, window, bound, horizon),
                    routes=routes)
        inp.result_doc = inp.reference().result_document()
        inputs.append(inp)
    return inputs


def cross_check_inputs(rng) -> list:
    data = sorted((SRC / "timelyck" / "data").glob("*.json"))
    inputs = []
    for k, path in enumerate(data):
        with open(path) as fh:
            doc = json.load(fh)
        inputs.append(Input(path.stem, relabel(doc, agent_names(rng, len(doc["agents"]))),
                            oracle_seed=k))
    return inputs


# -- operations --------------------------------------------------------------------


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_instance(lib, tr, doc):
    scenario = tr.call("parse", lib.scenarios.ScenarioSpec.from_json_dict, doc)
    return tr.call("generate", lib.scenarios.generate_system, scenario, synchronous=True)


def _runs_block(instance, result) -> dict:
    out = {}
    for info in instance.runs:
        entry = {"trigger_time": info.trigger_time, "observations": dict(info.observations)}
        if result is not None:
            entry["responses"] = dict(result.responses[info.name])
        out[info.name] = entry
    return out


def _normalization_block(instance) -> dict:
    return {f"{i}->{j}": [old if old != float("inf") else "inf", new]
            for (i, j), (old, new) in sorted(instance.delta_normalizations.items())}


def op_solve(lib, tr, inp: Input):
    sc = lib.scenarios
    instance = _load_instance(lib, tr, inp.doc)
    xi = tr.call("gfp", sc.response_knowledge, instance)
    solvable = tr.call("solvability", sc.solvability, instance, knowledge=xi)
    out = {"horizon": instance.universe.horizon,
           "delta_normalized": _normalization_block(instance),
           "verdict": {"solvable": solvable}}
    result = None
    if solvable:
        result = tr.call("synthesize", sc.synthesize_optimal, instance, knowledge=xi)
        report = tr.call("check", sc.verify_solution, instance, result)
        out["verdict"]["solution_checks"] = report.to_json_dict()
    out["runs"] = _runs_block(instance, result)
    tr.call("emit", _dump, out)
    return out, Context(instance=instance, result=result)


def op_verify(lib, tr, inp: Input):
    sc = lib.scenarios
    instance = _load_instance(lib, tr, inp.doc)
    responses = {run: entry["responses"] for run, entry in inp.result_doc["runs"].items()}
    result = tr.call("parse", sc.ProtocolResult.from_json_dict, responses)
    report = tr.call("check", sc.verify_solution, instance, result)
    out = {"solution_checks": report.to_json_dict()}
    if report.ok():
        opt = tr.call("certify", lib.optimality.verify_optimal, instance, result, guard=GUARD)
        out["optimality"] = opt.to_json_dict()
    tr.call("emit", _dump, out)
    return out, Context(instance=instance, result=result)


def op_oracle(lib, tr, inp: Input):
    sc, fp, smp = lib.scenarios, lib.fixpoint, lib.sampling
    instance = _load_instance(lib, tr, inp.doc)
    ctx = Context(instance=instance)
    out: dict = {}

    rng = np.random.default_rng(inp.oracle_seed)
    mismatches = 0
    for _ in range(ORACLE_CASES):
        u = tr.call("sample", smp.random_universe, rng, n_agents=int(rng.integers(2, 4)),
                    bit_budget=ORACLE_GUARD_BITS, max_runs=3, max_times=4)
        spec = tr.call("sample", smp.random_spec, rng, u.agents)
        psi = tr.call("sample", smp.random_event, rng, u)
        engine = tr.call("gfp", fp.timely_ck, psi, spec)
        ctx.sweep.append((u, spec, psi, engine))
        if engine != tr.call("oracle_gfp", fp.timely_ck_oracle, psi, spec,
                             guard_bits=ORACLE_GUARD_BITS):
            mismatches += 1
    out["fixed_point_sweep"] = {"cases": ORACLE_CASES, "mismatches": mismatches}

    xi = tr.call("gfp", sc.response_knowledge, instance)
    if tr.call("solvability", sc.solvability, instance, knowledge=xi):
        ctx.result = tr.call("synthesize", sc.synthesize_optimal, instance, knowledge=xi)
        opt = tr.call("certify", lib.optimality.verify_optimal, instance, ctx.result,
                      knowledge=xi, guard=GUARD)
        out["optimality_sweep"] = opt.to_json_dict()
    else:
        out["optimality_sweep"] = {"skipped": "instance unsolvable"}

    nested = tr.call("nested", lib.nested.verify_nested_characterization,
                     instance.trigger_history(), instance.timing,
                     explicit_paths=False, max_paths=50_000)
    out["nested_characterisation"] = nested.to_json_dict()

    corr_cases = max(1, ORACLE_CASES // 10)
    failures = 0
    for _ in range(corr_cases):
        u = tr.call("sample", smp.random_universe, rng, n_agents=2, max_runs=2, max_times=3)
        psi = tr.call("sample", smp.random_event, rng, u)
        spec = tr.call("sample", smp.random_spec, rng, u.agents)
        report = tr.call("correspondence", lib.coordination.verify_greatest_coordinated_ensemble,
                         psi, spec, enum_guard=1 << 14, seed=int(rng.integers(0, 2**31)))
        ctx.ensembles += report.enumerated
        if not report.ok():
            failures += 1
    out["ensemble_correspondence"] = {"cases": corr_cases, "failures": failures}
    tr.call("emit", _dump, out)
    return out, ctx


# -- checks ------------------------------------------------------------------------


def _point_set(table) -> set:
    return {(int(r), int(t)) for r, t in zip(*np.nonzero(table))}


def descent_problems(case) -> list:
    """One oracle sweep case against the definition-direct descent."""
    u, spec, psi, engine = case
    agents = spec.agents
    states = {a: u.state_ids(a).tolist() for a in agents}
    delta = {(i, j): None if spec.delta(i, j) == float("inf") else int(spec.delta(i, j))
             for i in agents for j in agents if i != j}
    return check_descent(agents, states, _point_set(psi.table), delta,
                         {a: _point_set(engine[a].table) for a in agents})


def check(workload: str, inp: Input, out: dict, ctx: Context, rng) -> list:
    cons = inp.reference()
    if workload == "solve-large":
        return check_solve(cons, out)
    if workload == "certify":
        return check_verify(cons, inp.routes, out)
    problems = check_oracle(cons, ORACLE_CASES, out)
    for k in rng.choice(len(ctx.sweep), DESCENT_SAMPLE, replace=False):
        problems += descent_problems(ctx.sweep[k])
    return problems


# -- trace probes ------------------------------------------------------------------
#
# Layers reached only through another layer get one extra call of their public
# function on the same inputs, under a span of their own.  Probes run after the
# operation, outside its span.


def _probe_generate(tr, instance) -> None:
    u = instance.universe
    tr.count("generate.points", u.n_points)
    tr.count("generate.state_classes", sum(u.n_state_classes(a) for a in u.agents))


def _probe_gfp(lib, tr, psi, spec, span="gfp.info") -> None:
    tr.count("gfp.iterations", tr.call(span, lib.fixpoint.timely_ck_info, psi, spec).iterations)


def _probe_coordinated(lib, tr, instance, result) -> None:
    ensemble = result.response_events(instance)
    tr.call("coordinated", lib.coordination.is_delta_coordinated, ensemble, instance.timing)


def _probe_optimality(lib, tr, inp: Input, instance) -> None:
    opt = lib.optimality
    model = tr.call("model", opt.build_strategy_model, instance)
    tr.count("model.variables", model.n_vars)
    tr.count("model.constraints", len(model.constraints))
    tr.call("propagation", lambda: (opt.least_solution(model), opt.greatest_solution(model)))
    if model.raw_space() <= GUARD:
        count = tr.call("enumeration", opt.enumerate_all_solutions, model, guard=GUARD)[0]
        tr.count("enumeration.solutions", count)
    if opt.is_product_structured(model) and opt.box_space(model) <= opt.BOX_SWEEP_CAP:
        tr.call("boxes", opt.box_sweep, model)
        tr.count("boxes.count", opt.box_space(model))
        if inp.peak_mb is None:  # the sweep's allocation peak is the same every pass
            tracemalloc.start()
            opt.box_sweep(model)
            inp.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        tr.count("boxes.peak_mb", inp.peak_mb)


def _probe_packed(lib, tr, psi, spec) -> None:
    """The tables and the tuple sweep inside `timely_ck_oracle`, called apart."""
    agents, k = spec.agents, len(spec.agents)

    def tables():
        space = lib.packed.PackedSpace(psi.universe)
        pair_index = np.zeros((k, k), dtype=np.int64)
        within, key_of = [], {}
        for ai, i in enumerate(agents):
            for aj, j in enumerate(agents):
                if ai != aj:
                    d = spec.delta(i, j)
                    if d not in key_of:
                        key_of[d] = len(within)
                        within.append(space.within_table(d))
                    pair_index[ai, aj] = key_of[d]
        knows = np.stack([space.knows_table(a) for a in agents])
        return space, np.stack(within), pair_index, knows

    space, within, pair_index, knows = tr.call("tables", tables)
    tr.call("tuple_sweep", lib._kernels.scan_postfixed_join,
            space.n_bits, k, space.pack(psi), within, pair_index, knows)
    tr.count("tuple_sweep.tuples", 2 ** (space.n_bits * k))


def probe(workload: str, lib, tr, inp: Input, out: dict, ctx: Context) -> None:
    instance = ctx.instance
    _probe_generate(tr, instance)
    if workload == "certify":
        _probe_gfp(lib, tr, instance.trigger_history(), instance.timing, span="gfp")
        _probe_coordinated(lib, tr, instance, ctx.result)
        _probe_optimality(lib, tr, inp, instance)
        return
    _probe_gfp(lib, tr, instance.trigger_history(), instance.timing)
    if workload == "solve-large":
        if ctx.result is not None:
            _probe_coordinated(lib, tr, instance, ctx.result)
        return
    for _, spec, psi, _ in ctx.sweep:
        _probe_gfp(lib, tr, psi, spec)
        _probe_packed(lib, tr, psi, spec)
    if ctx.result is not None:
        _probe_optimality(lib, tr, inp, instance)
    tr.count("nested.depths", out["nested_characterisation"]["depths"])
    tr.count("correspondence.ensembles", ctx.ensembles)


@dataclass(frozen=True)
class Workload:
    build: object
    op: object


WORKLOADS = {
    "solve-large": Workload(solve_large_inputs, op_solve),
    "certify": Workload(certify_inputs, op_verify),
    "cross-check": Workload(cross_check_inputs, op_oracle),
}
