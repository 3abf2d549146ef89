"""Self-tests of the benchmark: tiny sizes, so they run with the unit tests.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_tracing  # noqa: E402
import report  # noqa: E402
from bench_tracing import Span, Tracer, layer_metrics, nesting_errors, self_time  # noqa: E402
from bench_workloads import (  # noqa: E402
    REFERENCES,
    WORKLOADS,
    Gate,
    run_pass,
    workload_ops,
)

TOLERANCES = json.loads(REFERENCES.read_text())["tolerances"]


def _traced_pass(ops, workdir):
    tracer = Tracer()
    with bench_tracing.installed(tracer):
        _, outcomes = run_pass(ops, workdir, tracer)
    return tracer.spans, outcomes


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_tiny_passes_meet_the_invariant_gate(workload, seed, tmp_path):
    ops = workload_ops(workload, seed, tiny=True)
    gate = Gate()
    for _ in range(2):
        _, outcomes = run_pass(ops, tmp_path)
        gate.add(outcomes)
    assert gate.messages == []
    assert gate.attempted == 2 * len(ops)
    assert list(tmp_path.iterdir()) == []  # each pass removes its artifacts


def test_seed_changes_generated_inputs_only():
    a, b = workload_ops("scan-low", 0), workload_ops("scan-low", 3)
    assert [op.model for op in a] == [op.model for op in b]
    assert (a[0].lam_min, a[0].lam_max) == (1e-4, 1e-1)
    assert a[0].lam_min != b[0].lam_min
    assert workload_ops("scan-low", 3)[0].lam_min == b[0].lam_min


def test_perturbed_reference_counts_as_failure(tmp_path):
    _, outcomes = run_pass(workload_ops("scan-high", 0, tiny=True), tmp_path)
    refs = {o.label: json.loads(json.dumps(o.record)) for o in outcomes}
    gate = Gate(refs, TOLERANCES)
    gate.add(outcomes)
    assert (gate.attempted, gate.failed) == (2, 0)

    label = outcomes[0].label
    refs[label]["norms"][3] *= 1.0 + 10 * TOLERANCES["norms"]["rtol"]
    gate = Gate(refs, TOLERANCES)
    gate.add(outcomes)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.messages[0].startswith(f"{label}: norms")


def test_missing_reference_and_changed_output_fail(tmp_path):
    _, outcomes = run_pass(workload_ops("decay", 0, tiny=True), tmp_path)
    gate = Gate({}, TOLERANCES)
    gate.add(outcomes)
    assert gate.failed == 1 and "no reference" in gate.messages[0]

    gate = Gate()
    gate.add(outcomes)
    outcomes[0].digest = "0" * 64
    gate.add(outcomes)
    assert gate.failed == 1 and "differ from the first pass" in gate.messages[0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 3.0),
        Span(2, 0, 0, "b", 2.0, 4.0),   # overlaps a: counted once
        Span(3, 2, 0, "c", 2.5, 3.5),   # grandchild: not the root's child
        Span(4, 0, 0, "d", 6.0, 7.0),
    ]

    def kids(i):
        return [s for s in spans if s.parent == i]

    assert self_time(spans[0], kids(0)) == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(spans[2], kids(2)) == pytest.approx(1.0)
    assert nesting_errors(spans) == []
    spans.append(Span(5, 0, 0, "late", 9.0, 11.0))
    assert nesting_errors(spans) == ["span late#5 escapes parent root#0"]


def test_traced_spans_nest_and_scan_time_splits_exactly(tmp_path):
    ops = workload_ops("scan-low", 0, tiny=True)
    spans, outcomes = _traced_pass(ops, tmp_path)
    assert all(not o.failures for o in outcomes)
    assert nesting_errors(spans) == []
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"] * len(ops)
    assert all(self_time(s, [c for c in spans if c.parent == s.id]) >= 0 for s in spans)
    m = layer_metrics(spans, 0)
    parts = (m["resolvent.factor_s"] + m["resolvent.solve_s"]
             + m["resolvent.lanczos_other_s"] + m["resolvent.fit_s"])
    assert parts == pytest.approx(m["resolvent.scan_s"], rel=1e-9)
    assert m["resolvent.solves_per_shift"] > 0


def test_tracing_restores_the_program_and_keeps_outputs(tmp_path):
    import fracdamp.cli
    import fracdamp.resolvent

    before = (fracdamp.cli.simulate, fracdamp.cli.assemble_operator,
              fracdamp.resolvent.resolvent_norm)
    ops = workload_ops("decay", 0, tiny=True)
    _, plain = run_pass(ops, tmp_path)
    spans, traced = _traced_pass(ops, tmp_path)
    assert (fracdamp.cli.simulate, fracdamp.cli.assemble_operator,
            fracdamp.resolvent.resolvent_norm) == before
    assert [o.digest for o in traced] == [o.digest for o in plain]
    # the lambda=0 Lanczos solve of the near-kernel projection is traced too
    assert layer_metrics(spans, ops[0].march_steps)["resolvent.solves_per_shift"] > 0


def test_solves_per_shift_repeats_exactly(tmp_path):
    counts = []
    for _ in range(2):
        spans, _ = _traced_pass(workload_ops("scan-high", 0, tiny=True), tmp_path)
        counts.append(layer_metrics(spans, 0)["resolvent.solves_per_shift"])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scan-high", "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in bench[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_other_thread_settings(tmp_path, capsys):
    env = {"kernel_backend": "numpy", "blas_threads": "1", "nproc": 2}
    base = {"env": env, "workloads": {}}
    new = {"env": dict(env, blas_threads="2"), "workloads": {}}
    paths = []
    for name, doc in (("base.json", base), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    assert report.main(["compare", str(paths[0]), str(paths[0])]) == 0
    assert report.main(["compare", *map(str, paths)]) == 2
    assert "blas_threads" in capsys.readouterr().err
