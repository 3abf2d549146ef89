#!/usr/bin/env python3
"""Drive perfbench/run.py: all workloads at once, seed spreads, comparisons.

    python3 perfbench/report.py all [--seed 0] [--out FILE]
        every workload, untraced then traced; prints each metric with its
        unit and sample count plus fail_rate, and writes one result file.
    python3 perfbench/report.py spread --workload W [--seeds 1-10]
        the untraced run once per seed; prints each end-to-end metric's
        median and quartile spread (share of the median) against its bound.
    python3 perfbench/report.py compare BASE.json NEW.json
        per-metric ratio NEW/BASE; refuses results whose kernel backend or
        thread settings differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A result measured with another backend or thread count is another experiment.
COMPARABLE_ENV = ("kernel_backend", "blas_threads", "nproc")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln[len("detail: "):]) for ln in lines if ln.startswith("detail: "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def cmd_all(args) -> int:
    seconds = args.seconds or _bench()["run_seconds"]
    doc = {"seed": args.seed, "run_seconds": seconds, "workloads": {}}
    print(f"{'workload':<10} {'metric':<28} {'value':>12} {'unit':<6} samples")
    for name in (w["name"] for w in _bench()["workloads"]):
        runs = [run_once(name, args.seed, trace, seconds) for trace in (0, 1)]
        doc["env"] = runs[0]["detail"]["env"]
        doc["workloads"][name] = {"end_to_end": runs[0], "per_layer": runs[1]}
        for run in runs:
            samples = run["detail"]["samples"]
            for metric, m in run["result"]["metrics"].items():
                print(f"{name:<10} {metric:<28} {m['value']:>12.6g} {m['unit']:<6} {samples[metric]}")
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{name:<10} {'fail_rate':<28} {failed / attempted:>12.6g} {'ratio':<6} {attempted}")
        for run in runs[:1]:
            for op in run["detail"]["operations"]:
                if "predicted" in op:
                    print(f"{name:<10}   {op['label']}: measured {op['measured']:.4f},"
                          f" predicted {op['relation']} {op['predicted']:.4f}")
    print(f"env: {json.dumps(doc['env'], sort_keys=True)}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartile_spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def cmd_spread(args) -> int:
    bench = _bench()
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in _seeds(args.seeds):
        run = run_once(args.workload, seed, 0, seconds)
        if not run["result"]["correct"]:
            print(f"seed {seed}: FAILED {run['detail']['failures'][:3]}")
        for metric, m in run["result"]["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    for e in bench["end_to_end"]:
        v = values[e["name"]]
        s = quartile_spread(v) if len(v) >= 2 else float("nan")
        print(f"{args.workload:<10} {e['name']:<14} median {statistics.median(v):.5g} {e['unit']:<4}"
              f" spread {s:.4f}  bound {e['bound']}  (bound/3 {e['bound'] / 3:.4f})")
    return 0


def cmd_compare(args) -> int:
    base, new = (json.loads(Path(p).read_text()) for p in (args.base, args.new))
    differ = [k for k in COMPARABLE_ENV if base["env"].get(k) != new["env"].get(k)]
    if differ:
        print("refusing to compare: " + ", ".join(
            f"{k} {base['env'].get(k)!r} vs {new['env'].get(k)!r}" for k in differ), file=sys.stderr)
        return 2
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            continue
        for part in ("end_to_end", "per_layer"):
            for metric, bm in b[part]["result"]["metrics"].items():
                nm = n[part]["result"]["metrics"].get(metric)
                if nm is None:
                    continue
                ratio = nm["value"] / bm["value"] if bm["value"] else float("nan")
                print(f"{name:<10} {metric:<28} {bm['value']:>12.6g} -> {nm['value']:>12.6g}"
                      f" {bm['unit']:<6} x{ratio:.3f}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    a = sub.add_parser("all")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--seconds", type=float, default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_all)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=float, default=None)
    s.set_defaults(func=cmd_spread)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
