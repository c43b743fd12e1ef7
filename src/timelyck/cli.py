"""Command-line front end.

Verbs
    generate   emit the generated universe, runs and trigger for a scenario
    gfp        emit the timely-common-knowledge tuple for a scenario: of the
               trigger's history on classes, as `solve`; of `--psi` on points
    solve      check solvability, synthesize the earliest protocol, verify it
    verify     re-check a previously produced protocol result
    oracle     run the brute-force cross-checks: the `props` groups
               oracle_agreement (fixed-point sweep) and ensemble_correspondence
               on one seeded generator, plus the scenario's optimality sweep and
               nested-path characterisation
    props      run the randomized property suite
    report     render a result file as a table

Exit codes: 0 ok, 2 unreadable input, 3 invariant violation, 4 size guard,
5 unsolvable, 6 verification failure, 7 internal inconsistency.  An engine
error carries its code and stderr label (`errors`); `main` reports any in one
clause.  Verbs return 0 and 6, and `props` 7 for a group that raised.

All emitted JSON is key-sorted and newline-terminated, so identical inputs and
seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import EngineError, UnreadableInput, Unsolvable
from .events import Event
from .fixpoint import DEFAULT_ORACLE_GUARD_BITS, timely_ck_info
from .nested import DEFAULT_MAX_PATHS, verify_nested_characterization
from .optimality import DEFAULT_ENUM_GUARD, verify_optimal
from .props import check_ensemble_correspondence, check_oracle_agreement, run_all
from .scenarios import (
    DEFAULT_RUN_CAP,
    ProtocolResult,
    ScenarioSpec,
    TCRInstance,
    generate_system,
    read_runs,
    response_knowledge,
    response_knowledge_info,
    row_dict,
    solvability,
    synthesize_optimal,
    verify_solution,
)
from .universe import delta_to_json

EXIT_OK = 0
EXIT_VERIFY = 6
EXIT_INTERNAL = 7


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise UnreadableInput(f"cannot read {path}: {exc}") from None


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _load_instance(args) -> TCRInstance:
    scenario = ScenarioSpec.from_json_dict(_load_json(args.scenario))
    # replace() reruns the scenario's validation on the flag-adjusted fields
    scenario = dataclasses.replace(
        scenario,
        include_never_run=scenario.include_never_run and not args.no_never_run,
        run_cap=args.run_cap,
    )
    return generate_system(scenario, synchronous=not args.async_mode)


def _runs_block(instance: TCRInstance, result: ProtocolResult | None) -> dict:
    out = {info.name: {"trigger_time": info.trigger_time, "observations": info.observations}
           for info in instance.runs}
    if result is not None:
        for entry, cells in zip(out.values(), result.response_times(instance)[0].tolist()):
            entry["responses"] = row_dict(instance.timing.agents, cells)
    return out


def _normalization_block(instance: TCRInstance) -> dict:
    return {
        f"{i}->{j}": [delta_to_json(old), new]
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
    _write(_dump(doc), args.output)
    return EXIT_OK


def cmd_gfp(args) -> int:
    instance = _load_instance(args)
    if args.psi:
        psi = Event.from_json_list(instance.universe, _load_json(args.psi), "psi")
        info = timely_ck_info(psi, instance.timing)
    else:  # the trigger's history, on observation classes
        psi, info = instance.trigger_history(), response_knowledge_info(instance)
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
    _write(_dump(doc), args.output)
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
        _write(_dump(doc), args.output)
        raise Unsolvable("no coordinated response protocol exists")
    result = synthesize_optimal(instance, knowledge=xi)
    report = verify_solution(instance, result)
    doc["runs"] = _runs_block(instance, result)
    doc["verdict"]["solution_checks"] = report.to_json_dict()
    _write(_dump(doc), args.output)
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
    _write(_dump(doc), args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_oracle(args) -> int:
    instance = _load_instance(args)
    doc: dict = {}
    rng = np.random.default_rng(args.seed)
    sweep = check_oracle_agreement(rng, args.cases, guard_bits=args.oracle_guard)
    doc["fixed_point_sweep"] = {"cases": sweep.cases, "mismatches": len(sweep.failures)}
    ok = sweep.ok()

    xi = response_knowledge(instance)
    if not solvability(instance, knowledge=xi):
        doc["optimality_sweep"] = {"skipped": "instance unsolvable"}
    elif not instance.scenario.include_never_run:
        doc["optimality_sweep"] = {"skipped": "instance has no never-run"}
    else:
        result = synthesize_optimal(instance, knowledge=xi)
        opt = verify_optimal(instance, result, knowledge=xi, guard=args.guard)
        doc["optimality_sweep"] = opt.to_json_dict()
        ok = ok and opt.ok()

    nested = verify_nested_characterization(
        instance.trigger_history(),
        instance.timing,
        explicit_paths=args.explicit_paths,
        max_paths=args.max_paths,
    )
    doc["nested_characterisation"] = nested.to_json_dict()

    corr = check_ensemble_correspondence(rng, max(1, args.cases // 10))
    doc["ensemble_correspondence"] = {"cases": corr.cases, "failures": len(corr.failures)}
    ok = ok and corr.ok()

    _write(_dump(doc), args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_props(args) -> int:
    results = run_all(args.seed, cases=args.cases)
    if args.format == "json":
        _write(_dump([r.to_json_dict() for r in results]), args.output)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.ok() else "FAIL"
            extra = f"  {r.info}" if r.info else ""
            lines.append(f"{status}  {r.name}  cases={r.cases}{extra}")
            for f in ([r.error] if r.error else []) + r.failures[:3]:
                lines.append(f"      {f}")
        _write("\n".join(lines) + "\n", args.output)
    if any(r.error for r in results):
        return EXIT_INTERNAL
    return EXIT_OK if all(r.ok() for r in results) else EXIT_VERIFY


def cmd_report(args) -> int:
    doc = _load_json(args.result)
    table = read_runs(doc)
    if args.format == "json":
        _write(_dump(doc), args.output)
        return EXIT_OK
    agents = list(dict.fromkeys(a for _, obs, resp in table.values() for a in (*obs, *resp)))
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
    lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)
    _write("\n".join(lines) + "\n", args.output)
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
        p.add_argument("--run-cap", type=_int_at_least(1), default=DEFAULT_RUN_CAP,
                       dest="run_cap", help="refuse scenarios that generate more runs "
                       f"(default {DEFAULT_RUN_CAP}); checked before anything is allocated")
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
    p.add_argument("--guard", type=_int_at_least(1), default=DEFAULT_ENUM_GUARD,
                   help="candidate guard for the exhaustive solution sweep")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="run the brute-force cross-checks")
    scenario_flags(p)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--cases", type=_int_at_least(1), default=50,
                   help="random universes for the fixed-point sweep")
    # the sweep samples up to 3 agents, and the smallest universe has 1 run of 2 times
    p.add_argument("--oracle-guard", type=_int_at_least(6), default=DEFAULT_ORACLE_GUARD_BITS,
                   dest="oracle_guard",
                   help="max universe-points times agents for the tuple sweep (at least 6)")
    p.add_argument("--guard", type=_int_at_least(1), default=DEFAULT_ENUM_GUARD,
                   help="candidate guard for the exhaustive solution sweep")
    p.add_argument("--explicit-paths", action="store_true", dest="explicit_paths",
                   help="also evaluate every nested path separately")
    p.add_argument("--max-paths", type=_int_at_least(1), default=DEFAULT_MAX_PATHS,
                   dest="max_paths")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("props", help="run the randomized property suite")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--cases", type=_int_at_least(1), default=120)
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
    except EngineError as exc:
        sys.stderr.write(f"{exc.label}: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
