"""Measurement loop of the fracdamp benchmark: one run of one workload.

Untraced run (``trace=0``), the end-to-end metrics:

* ``setup_s``     - median over fresh interpreters of ``import fracdamp`` plus
  building the workload's grids, quadratures and operators;
* ``wall_s``      - median time of one pass, after a warm-up pass;
* ``peak_rss_mb`` - peak resident set of a fresh process running one pass.

Traced run (``trace=1``), the per-layer metrics: untraced and traced passes
alternate; the per-layer numbers are medians over the traced passes, and
``trace.overhead_ratio`` is the traced over the untraced median pass time.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bench_tracing
from bench_workloads import (
    DEFAULT_SEED,
    Gate,
    Outcome,
    load_references,
    run_pass,
    workload_ops,
)

RUN_PY = Path(__file__).resolve().parent / "run.py"
SETUP_SAMPLES = 3   # fresh interpreters timed per run (after one warm-up)
MIN_PASSES = 3      # timed passes per untraced run, however short --seconds
MIN_PAIRS = 2       # untraced/traced pass pairs per traced run
CHILD_TIMEOUT = 170


@dataclass
class RunResult:
    metrics: dict      # name -> value
    samples: dict      # name -> number of samples behind the value
    gate: Gate
    operations: list   # what the warm-up pass's operations reported
    pass_seconds: list  # every timed untraced pass
    traced_seconds: list  # every traced pass (trace runs only)


def environment() -> dict:
    """What a result depends on besides the code; results that differ in the
    backend or thread settings are not comparable."""
    import numpy
    import scipy
    from fracdamp import _kernels

    def openblas(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "kernel_backend": _kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": openblas(numpy),
        "openblas_scipy": openblas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _child(kind: str, workload: str, seed: int, workdir: Path, tiny: bool) -> dict:
    cmd = [sys.executable, str(RUN_PY), "--child", kind, "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)] + (["--tiny"] if tiny else [])
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from a warm bytecode cache
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_rss(workload: str, seed: int, workdir: Path, tiny: bool) -> dict:
    """One pass in this (fresh) process; its peak RSS and its outcomes."""
    _, outcomes = run_pass(workload_ops(workload, seed, tiny), workdir)
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": [o.__dict__ for o in outcomes],
    }


def _gate(workload: str, seed: int, tiny: bool) -> Gate:
    if seed == DEFAULT_SEED and not tiny:
        return Gate(*load_references(workload))
    return Gate()


def _timed_passes(ops, workdir, gate, seconds, minimum, traced: bool):
    """Alternate untraced (and, if `traced`, traced) passes for `seconds`."""
    plain, with_trace, layers = [], [], []
    start = time.perf_counter()
    while len(plain) < minimum or time.perf_counter() - start < seconds:
        t, outcomes = run_pass(ops, workdir)
        gate.add(outcomes)
        plain.append(t)
        if traced:
            tracer = bench_tracing.Tracer()
            with bench_tracing.installed(tracer):
                t, outcomes = run_pass(ops, workdir, tracer)
            gate.add(outcomes)
            with_trace.append(t)
            bad = bench_tracing.nesting_errors(tracer.spans)
            if bad:
                raise RuntimeError("broken span nesting: " + "; ".join(bad[:5]))
            steps = sum(op.march_steps for op in ops)
            layers.append(bench_tracing.layer_metrics(tracer.spans, steps))
    return plain, with_trace, layers


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            tiny: bool = False):
    """One benchmark run of `workload` for about `seconds` of timed passes."""
    ops = workload_ops(workload, seed, tiny)
    gate = _gate(workload, seed, tiny)
    _child("setup", workload, seed, workdir, tiny)  # warm caches; not counted
    setups = [_child("setup", workload, seed, workdir, tiny)
              for _ in range(1 if tiny else SETUP_SAMPLES)]
    metrics, samples = {}, {}
    if not trace:
        metrics["setup_s"] = statistics.median(s["import_s"] + s["build_s"] for s in setups)
        samples["setup_s"] = len(setups)
        rss = _child("rss", workload, seed, workdir, tiny)
        gate.add([Outcome(**d) for d in rss["outcomes"]])
        metrics["peak_rss_mb"] = rss["peak_rss_mb"]
        samples["peak_rss_mb"] = 1
    _, warm = run_pass(ops, workdir)  # warm-up; gated, not timed
    gate.add(warm)
    plain, traced, layers = _timed_passes(ops, workdir, gate, seconds,
                                          MIN_PAIRS if trace else MIN_PASSES, trace)
    if trace:
        metrics["package.import_s"] = statistics.median(s["import_s"] for s in setups)
        samples["package.import_s"] = len(setups)
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
            samples[name] = len(layers)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        samples["trace.overhead_ratio"] = len(traced)
    else:
        metrics["wall_s"] = statistics.median(plain)
        samples["wall_s"] = len(plain)
    return RunResult(metrics, samples, gate, [o.info | {"label": o.label} for o in warm],
                     plain, traced)

