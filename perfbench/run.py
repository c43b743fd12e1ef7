"""Benchmark of the three things a timelyck user waits on.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in one single-threaded process, as a closed loop of passes.
A pass runs every input of the workload once; the first pass warms up and is
not timed.  Every operation's output is checked against the independent
computations in `reference.py`.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  A
human-readable report goes to standard error.  `--workload all` runs each
workload in its own child process, one after another.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # numpy's BLAS would otherwise start worker threads

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import NULL_TRACER, Tracer
from workloads import WORKLOADS, Library, probe, check

HERE = Path(__file__).resolve().parent
SETUPS = 9  # set-ups per run, spread evenly over it; setup_s is their median
MIN_PASSES = 3  # measured passes per run, however short --seconds is

TIME_SPANS = ("generate", "gfp", "solvability", "synthesize", "check", "coordinated",
              "correspondence", "certify", "model", "propagation", "enumeration", "boxes",
              "oracle_gfp", "tables", "tuple_sweep", "nested", "sample")
COUNTS = ("generate.points", "generate.state_classes", "gfp.iterations",
          "correspondence.ensembles", "model.variables", "model.constraints",
          "enumeration.solutions", "boxes.count", "tuple_sweep.tuples", "nested.depths")


def per_input_sum(samples: dict) -> float:
    """Sum over inputs of the 90th percentile of each input's values.

    The host runs in phases of different speed that last seconds to minutes.
    The fast phases come and go from run to run, so a minimum or a low
    quantile follows them; the 90th percentile reads the common slower phase
    and is the steadiest of the quantiles tried (see README.md).
    """
    return sum(float(np.percentile(xs, 90)) for xs in samples.values() if xs)


def setup(workload: str, seed: int):
    """Import timelyck afresh and build the workload's inputs."""
    t0 = perf_counter()
    lib = Library()
    inputs = WORKLOADS[workload].build(np.random.default_rng(seed))
    return perf_counter() - t0, lib, inputs


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    dt, lib, inputs = setup(workload, seed)
    setup_times = [dt]
    rng = np.random.default_rng([seed, 1])
    order = [inputs[k] for k in rng.permutation(len(inputs))]
    op = WORKLOADS[workload].op
    tracer = Tracer() if trace else NULL_TRACER

    samples = {inp.name: [] for inp in order}  # seconds per measured operation
    op_input: dict = {}  # id of each operation that returned -> (input name, measured)
    attempted = failed = 0
    problems: list = []
    passes = 0
    start = None
    while start is None or passes < MIN_PASSES or perf_counter() - start < seconds:
        measured = start is not None
        for inp in order:
            gc.collect()
            attempted += 1
            tracer.begin_op(attempted)
            t0 = perf_counter()
            try:
                out, ctx = tracer.call("op", op, lib, tracer, inp)
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                if failed == 1:
                    traceback.print_exc()
                continue
            elapsed = perf_counter() - t0
            op_input[attempted] = (inp.name, measured)
            if measured:
                samples[inp.name].append(elapsed)
            if trace:
                probe(workload, lib, tracer, inp, out, ctx)
            problems += [f"{inp.name}: {p}" for p in check(workload, inp, out, ctx, rng)]
            del out, ctx
        if measured:
            passes += 1
        else:
            start = perf_counter()
        # Later set-ups replace the library but keep the first inputs, whose
        # reference answers are already computed; they are the same inputs.
        if len(setup_times) < SETUPS and perf_counter() - start >= len(setup_times) * seconds / SETUPS:
            dt, lib, _ = setup(workload, seed)
            setup_times.append(dt)
    while len(setup_times) < SETUPS:
        setup_times.append(setup(workload, seed)[0])

    report = {
        "workload": workload, "seed": seed, "passes": passes, "attempted": attempted,
        "failed": failed, "problems": problems[:10], "setup_s": setup_times,
        "samples_ms": {name: [x * 1e3 for x in xs] for name, xs in samples.items()},
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    if trace:
        tracer.write(HERE / "out" / f"trace-{workload}-seed{seed}.json")
        result["metrics"] = layer_metrics(tracer, op_input)
        report["traced_pass_ms"] = per_input_sum(samples) * 1e3
    else:
        result["metrics"] = {
            "pass_ms": {"value": per_input_sum(samples) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print_report(report, result)
    return result


def _by_input(per_op: dict, op_input: dict, name: str) -> dict:
    """input name -> values of one per-op figure over the measured passes."""
    out: dict = {}
    for op, (inp, measured) in op_input.items():
        if measured:
            out.setdefault(inp, []).append(per_op.get(op, {}).get(name, 0.0))
    return out


def layer_metrics(tracer: Tracer, op_input: dict) -> dict:
    """Per-layer self times and counts per pass, reduced like pass_ms."""
    per_op = tracer.self_times()
    for op, counts in tracer.counts.items():
        per_op.setdefault(op, {}).update(counts)
    metrics = {f"{span}.ms": {"value": per_input_sum(_by_input(per_op, op_input, span)),
                              "unit": "ms"} for span in TIME_SPANS}
    for name in COUNTS:
        metrics[name] = {"value": per_input_sum(_by_input(per_op, op_input, name)),
                         "unit": "count"}
    peaks = _by_input(per_op, op_input, "boxes.peak_mb").values()
    metrics["boxes.peak_mb"] = {"value": max((max(xs) for xs in peaks), default=0.0),
                                "unit": "MB"}
    iterations = metrics["gfp.iterations"]["value"]
    metrics["gfp.ms_per_iteration"] = {
        "value": metrics["gfp.ms"]["value"] / iterations if iterations else 0.0, "unit": "ms"}
    return metrics


def print_report(report: dict, result: dict) -> None:
    err = sys.stderr
    print(f"{report['workload']} seed={report['seed']}: {report['passes']} measured passes, "
          f"{report['attempted']} operations attempted, {report['failed']} failed", file=err)
    for problem in report["problems"]:
        print(f"  WRONG {problem}", file=err)
    print("  setup_s samples: " + " ".join(f"{x:.4f}" for x in report["setup_s"]), file=err)
    pooled = [x for xs in report["samples_ms"].values() for x in xs]
    print(f"  {'input':<22} {'n':>4} {'min':>9} {'median':>9} {'p90':>9}  (ms per operation)",
          file=err)
    for name, xs in report["samples_ms"].items():
        if xs:
            print(f"  {name:<22} {len(xs):>4} {min(xs):>9.2f} "
                  f"{statistics.median(xs):>9.2f} {np.percentile(xs, 90):>9.2f}", file=err)
    if pooled:
        print(f"  {'all operations':<22} {len(pooled):>4} {'':>9} "
              f"{statistics.median(pooled):>9.2f} {np.percentile(pooled, 90):>9.2f}", file=err)
    if "traced_pass_ms" in report:
        print(f"  traced pass: {report['traced_pass_ms']:.2f} ms", file=err)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:<12} {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
