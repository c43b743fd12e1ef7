"""Command-line front end.

Verbs
    generate   emit the generated universe, runs and trigger for a scenario
    gfp        emit the timely-common-knowledge tuple for a scenario
    solve      check solvability, synthesize the earliest protocol, verify it
    verify     re-check a previously produced protocol result
    oracle     run the brute-force cross-checks (fixed-point sweep, optimality
               sweep, nested-path characterisation, ensemble correspondence)
    props      run the randomized property suite
    report     render a result file as a table

Exit codes: 0 ok, 2 unreadable input, 3 invariant violation, 4 size guard,
5 unsolvable, 6 verification failure, 7 internal inconsistency.

All emitted JSON is key-sorted and newline-terminated, so identical inputs and
seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    InternalConsistencyError,
    InvariantViolation,
    SizeGuardExceeded,
    Unsolvable,
)
from .events import Event
from .fixpoint import timely_ck_info, timely_ck, timely_ck_oracle
from .coordination import verify_greatest_coordinated_ensemble
from .nested import verify_nested_characterization
from .optimality import verify_optimal
from .sampling import random_event, random_spec, random_universe
from .scenarios import (
    ProtocolResult,
    ScenarioSpec,
    TCRInstance,
    generate_system,
    json_object,
    response_knowledge,
    solvability,
    synthesize_optimal,
    verify_solution,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_GUARD = 4
EXIT_UNSOLVABLE = 5
EXIT_VERIFY = 6
EXIT_INTERNAL = 7


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(doc, path: str | None) -> None:
    text = _dump(doc)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseError(f"cannot read {path}: {exc}") from None


class _ParseError(Exception):
    pass


def _load_instance(args) -> TCRInstance:
    doc = _load_json(args.scenario)
    scenario = ScenarioSpec.from_json_dict(doc)
    if getattr(args, "no_never_run", False):
        scenario.include_never_run = False
    return generate_system(
        scenario, synchronous=not getattr(args, "async_mode", False)
    )


def _runs_block(instance: TCRInstance, result: ProtocolResult | None) -> dict:
    out = {}
    for info in instance.runs:
        entry = {"trigger_time": info.trigger_time, "observations": info.observations}
        if result is not None:
            entry["responses"] = dict(result.responses[info.name])
        out[info.name] = entry
    return out


def _normalization_block(instance: TCRInstance) -> dict:
    return {
        f"{i}->{j}": [old if old != float("inf") else "inf", new]
        for (i, j), (old, new) in sorted(instance.delta_normalizations.items())
    }


# -- verbs ---------------------------------------------------------------------


def cmd_generate(args) -> int:
    instance = _load_instance(args)
    doc = {
        "universe": instance.universe.to_json_dict(),
        "runs": _runs_block(instance, None),
        "trigger": instance.trigger.to_json_list(),
        "horizon": instance.universe.horizon,
        "delta_normalized": _normalization_block(instance),
    }
    _emit(doc, args.output)
    return EXIT_OK


def cmd_gfp(args) -> int:
    instance = _load_instance(args)
    if args.psi:
        psi = Event.from_json_list(instance.universe, _load_json(args.psi))
    else:
        psi = instance.trigger_history()
    info = timely_ck_info(psi, instance.timing)
    doc = {
        "psi": psi.to_json_list(),
        "coordinates": info.value.to_json_dict(),
        "horizon": instance.universe.horizon,
        "delta_normalized": _normalization_block(instance),
    }
    if args.diagnostics:
        doc["diagnostics"] = {
            "iterations": info.iterations,
            "coordinate_sizes_per_iteration": info.trace,
        }
    _emit(doc, args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = _load_instance(args)
    xi = response_knowledge(instance)
    solvable = solvability(instance, knowledge=xi)
    doc = {
        "horizon": instance.universe.horizon,
        "delta_normalized": _normalization_block(instance),
        "verdict": {"solvable": solvable},
    }
    if not solvable:
        doc["runs"] = _runs_block(instance, None)
        _emit(doc, args.output)
        sys.stderr.write("unsolvable: no coordinated response protocol exists\n")
        return EXIT_UNSOLVABLE
    result = synthesize_optimal(instance, knowledge=xi)
    report = verify_solution(instance, result)
    doc["runs"] = _runs_block(instance, result)
    doc["verdict"]["solution_checks"] = report.to_json_dict()
    _emit(doc, args.output)
    return EXIT_OK if report.ok() else EXIT_VERIFY


def cmd_verify(args) -> int:
    instance = _load_instance(args)
    result = ProtocolResult.from_json_dict(_load_json(args.result))
    report = verify_solution(instance, result)
    doc = {"solution_checks": report.to_json_dict()}
    ok = report.ok()
    if args.optimal and ok:
        opt = verify_optimal(instance, result, report=report, guard=args.guard)
        doc["optimality"] = opt.to_json_dict()
        ok = ok and opt.ok()
    _emit(doc, args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_oracle(args) -> int:
    import numpy as np

    instance = _load_instance(args)
    doc: dict = {}
    ok = True

    rng = np.random.default_rng(args.seed)
    sweep_cases = args.cases
    mismatches = 0
    for _ in range(sweep_cases):
        u = random_universe(
            rng,
            n_agents=int(rng.integers(2, 4)),
            bit_budget=min(args.oracle_guard, 16),
            max_runs=3,
            max_times=4,
        )
        spec = random_spec(rng, u.agents)
        psi = random_event(rng, u)
        if timely_ck(psi, spec) != timely_ck_oracle(
            psi, spec, guard_bits=args.oracle_guard
        ):
            mismatches += 1
    doc["fixed_point_sweep"] = {"cases": sweep_cases, "mismatches": mismatches}
    ok = ok and mismatches == 0

    xi = response_knowledge(instance)
    if solvability(instance, knowledge=xi):
        result = synthesize_optimal(instance, knowledge=xi)
        opt = verify_optimal(instance, result, knowledge=xi, guard=args.guard)
        doc["optimality_sweep"] = opt.to_json_dict()
        ok = ok and opt.ok()
    else:
        doc["optimality_sweep"] = {"skipped": "instance unsolvable"}

    nested = verify_nested_characterization(
        instance.trigger_history(),
        instance.timing,
        explicit_paths=args.explicit_paths,
        max_paths=args.max_paths,
    )
    doc["nested_characterisation"] = nested.to_json_dict()

    corr_cases = max(1, sweep_cases // 10)
    corr_failures = 0
    for _ in range(corr_cases):
        u = random_universe(rng, n_agents=2, max_runs=2, max_times=3)
        psi = random_event(rng, u)
        spec = random_spec(rng, u.agents)
        report = verify_greatest_coordinated_ensemble(
            psi, spec, enum_guard=1 << 14, seed=int(rng.integers(0, 2**31))
        )
        if not report.ok():
            corr_failures += 1
    doc["ensemble_correspondence"] = {"cases": corr_cases, "failures": corr_failures}
    ok = ok and corr_failures == 0

    _emit(doc, args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_props(args) -> int:
    from .props import run_all

    results = run_all(args.seed, cases=args.cases)
    if args.format == "json":
        _emit([r.to_json_dict() for r in results], args.output)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.ok() else "FAIL"
            extra = f"  {r.info}" if r.info else ""
            lines.append(f"{status}  {r.name}  cases={r.cases}{extra}")
            for f in ([r.error] if r.error else []) + r.failures[:3]:
                lines.append(f"      {f}")
        text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    if any(r.error for r in results):
        return EXIT_INTERNAL
    return EXIT_OK if all(r.ok() for r in results) else EXIT_VERIFY


def cmd_report(args) -> int:
    doc = json_object(_load_json(args.result), "result")
    where = "runs" if "runs" in doc else "result"
    runs = json_object(doc.get("runs", doc), where)
    if args.format == "json":
        _emit(doc, args.output)
        return EXIT_OK
    table = {}
    for name, entry in runs.items():
        entry = json_object(entry, f"{where}.{name}")
        table[name] = [entry.get("trigger_time")] + [
            json_object(entry.get(key, {}), f"{where}.{name}.{key}")
            for key in ("observations", "responses")
        ]
    agents = list(dict.fromkeys(a for _, _, responses in table.values() for a in responses))
    header = ["run", "trigger"]
    header += [f"obs[{a}]" for a in agents] + [f"resp[{a}]" for a in agents]
    rows = [header]
    for name in sorted(table):
        trigger, observations, responses = table[name]
        row = [name, _cell(trigger)]
        row += [_cell(observations.get(a)) for a in agents]
        row += [_cell(responses.get(a)) for a in agents]
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cell(v) -> str:
    return "-" if v is None else str(v)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timelyck",
        description="timely-common-knowledge engine for coordinated response tasks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def scenario_flags(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--no-never-run", action="store_true", dest="no_never_run",
                       help="drop the run in which the trigger never fires")
        p.add_argument("--async-mode", action="store_true", dest="async_mode",
                       help="build the universe without the synchronous-clock check")
        p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("generate", help="emit the generated universe")
    scenario_flags(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("gfp", help="emit the timely-common-knowledge tuple")
    scenario_flags(p)
    p.add_argument("--psi", default=None,
                   help="event JSON file; defaults to the trigger's history")
    p.add_argument("--diagnostics", action="store_true",
                   help="include iteration counts and per-iteration sizes")
    p.set_defaults(fn=cmd_gfp)

    p = sub.add_parser("solve", help="solvability, synthesis and verification")
    scenario_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="re-check a protocol result file")
    scenario_flags(p)
    p.add_argument("result", help="result JSON file (from solve)")
    p.add_argument("--optimal", action="store_true",
                   help="also run the optimality and necessity sweeps")
    p.add_argument("--guard", type=int, default=10**6,
                   help="candidate guard for the exhaustive solution sweep")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="run the brute-force cross-checks")
    scenario_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50,
                   help="random universes for the fixed-point sweep")
    p.add_argument("--oracle-guard", type=int, default=16, dest="oracle_guard",
                   help="max universe-points times agents for the tuple sweep")
    p.add_argument("--guard", type=int, default=10**6,
                   help="candidate guard for the exhaustive solution sweep")
    p.add_argument("--explicit-paths", action="store_true", dest="explicit_paths",
                   help="also evaluate every nested path separately")
    p.add_argument("--max-paths", type=int, default=50_000, dest="max_paths")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("props", help="run the randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=120)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_props)

    p = sub.add_parser("report", help="render a result file")
    p.add_argument("result")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except SizeGuardExceeded as exc:
        sys.stderr.write(f"size guard: {exc}\n")
        return EXIT_GUARD
    except Unsolvable as exc:
        sys.stderr.write(f"unsolvable: {exc}\n")
        return EXIT_UNSOLVABLE
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
