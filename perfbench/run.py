#!/usr/bin/env python3
"""Benchmark of the fracdamp lab (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload decay --seed 0 --seconds 10 --trace 0

Workloads: decay, scan-low, scan-high, validate.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Human-readable lines
come first; the last line of standard output is the JSON result.  The
program is imported from ``src/`` of the checkout, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One process, one BLAS thread: steadier than two on a 2-core machine shared
# with other work, and within nproc everywhere.  Set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_setup(workload: str, seed: int, tiny: bool) -> dict:
    t0 = time.perf_counter()
    import fracdamp  # noqa: F401  (timed: the package import users pay)

    t1 = time.perf_counter()
    from bench_workloads import workload_ops

    ops = workload_ops(workload, seed, tiny)
    t2 = time.perf_counter()
    for op in ops:
        op.build()
    return {"import_s": t1 - t0, "build_s": time.perf_counter() - t2}


def _units() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _print_run(workload, seed, trace, run, env, units) -> None:
    gate = run.gate
    print(f"workload {workload}  seed {seed}  trace {trace}  backend {env['kernel_backend']}"
          f"  blas_threads {env['blas_threads']}  nproc {env['nproc']}")
    for name, value in run.metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]:<6} (n={run.samples[name]})")
    if not trace:
        print(f"  {'(fastest pass)':<28} {min(run.pass_seconds):>14.6g} s")
    print(f"  {'fail_rate':<28} {gate.failed / gate.attempted:>14.6g} {'ratio':<6}"
          f" ({gate.failed}/{gate.attempted} operations)")
    for op in run.operations:
        if "predicted" in op:
            print(f"  {op['label']}: measured slope {op['measured']:.4f},"
                  f" predicted {op['relation']} {op['predicted']:.4f}")
    for msg in gate.messages[:20]:
        print(f"  FAIL {msg}")
    detail = {"workload": workload, "seed": seed, "trace": trace, "env": env,
              "samples": run.samples, "pass_seconds": run.pass_seconds,
              "traced_seconds": run.traced_seconds,
              "fail_rate": gate.failed / gate.attempted,
              "failures": gate.messages[:50], "operations": run.operations}
    print("detail: " + json.dumps(detail, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)  # self-tests
    p.add_argument("--child", choices=("setup", "rss"), help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    os.environ.update(THREAD_ENV)
    if not (SRC / "fracdamp" / "__init__.py").is_file():
        print(f"error: no fracdamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.child == "setup":
        print(json.dumps(_child_setup(args.workload, args.seed, args.tiny)))
        return 0
    import bench_measure
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.child == "rss":
        print(json.dumps(bench_measure.child_rss(args.workload, args.seed,
                                                 Path(args.workdir), args.tiny)))
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = bench_measure.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    units = _units()
    _print_run(args.workload, args.seed, args.trace, run, bench_measure.environment(), units)
    result = {
        "correct": run.gate.failed == 0,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
