"""The benchmark's traced run, one input per workload.

`perfbench/run.py --trace 1` calls `workloads.probe` after each operation.
The probes reach into the program directly (`PackedSpace.within_table`,
`.knows_table`, `.pack`, `.n_bits`, `_kernels.scan_postfixed_join`,
`timely_ck_info`, the optimality model), so a change to any of those
signatures would break the traced run without failing an untraced one.  Each
test runs one input's operation, its probes and its output checks under a
`Tracer`, which keeps its spans in memory; nothing is written.
"""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# per workload: the input to run, and spans and counts its probes must record
CASES = {
    "solve-large": ("mixed-sign-5x730", {"generate", "gfp", "gfp.info", "coordinated"},
                    {"generate.points", "gfp.iterations"}),
    "certify": ("enumeration-4x17", {"certify", "model", "propagation", "enumeration", "boxes"},
                {"model.variables", "enumeration.solutions", "boxes.count", "boxes.peak_mb"}),
    "cross-check": ("ordered_2", {"oracle_gfp", "gfp.info", "tables", "tuple_sweep", "nested",
                                  "correspondence", "sample"},
                    {"tuple_sweep.tuples", "correspondence.ensembles", "nested.depths"}),
}


@pytest.fixture(scope="module")
def lib():
    # the package this test session imported, not a fresh import
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"timelyck.{name}") for name in workloads.MODULES}
    )


@pytest.mark.parametrize("workload", sorted(CASES))
def test_traced_operation_probes_and_checks(lib, workload):
    name, spans, counts = CASES[workload]
    rng = np.random.default_rng(7)
    inp = {i.name: i for i in workloads.WORKLOADS[workload].build(rng)}[name]
    tracer = tracing.Tracer()
    tracer.begin_op(1)
    out, ctx = tracer.call("op", workloads.WORKLOADS[workload].op, lib, tracer, inp)
    workloads.probe(workload, lib, tracer, inp, out, ctx)
    assert workloads.check(workload, inp, out, ctx, rng) == []
    recorded = tracer.self_times()[1]
    assert spans <= set(recorded), spans - set(recorded)
    assert counts <= set(tracer.counts[1]), counts - set(tracer.counts[1])
    assert all(v > 0 for k, v in tracer.counts[1].items() if k in counts)
