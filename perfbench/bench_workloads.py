"""Workloads, operations and the correctness gate of the fracdamp benchmark.

A workload is a list of operations; an operation is one ``fracdamp.cli.main``
call or one call of a public function.  One *pass* runs every operation of
the workload once, into a fresh directory.  The seed changes only generated
inputs (lambda-grid endpoints, the fit window, the oracle shift, the kernel
tau range, the flux-signal amplitude); the default seed reproduces the
README and acceptance configurations exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

import fracdamp.cli
from fracdamp.diffusive import (
    build_xi_quadrature,
    direct_fractional_integral,
    evolve_psi_forced,
)
from fracdamp.model import PowerLawKappa, ProblemSpec, Variant
from fracdamp.operator import assemble_operator, build_x_grid, default_grading

DEFAULT_SEED = 0
WORKLOADS = ("decay", "scan-low", "scan-high", "validate")
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Energy may not grow along a midpoint march by more than this share of E(0).
ENERGY_ROUNDOFF = 1e-12
# Criterion 2: relaxation-mode flux against the closed form on t >= 0.1.
FLUX_RTOL = 1e-3
# The product-rectangle convolution is exact for a constant signal.
CONV_RTOL = 1e-8


def _num(v: float) -> str:
    return repr(float(v))


def _sha(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Model:
    """A problem plus its grids, in the CLI's terms."""

    problem: str
    alpha: float
    beta: float = 0.5
    rho: float = 1.0
    nx: int = 400
    nxi: int = 200

    def argv(self) -> List[str]:
        return ["--problem", self.problem, "--alpha", _num(self.alpha),
                "--beta", _num(self.beta), "--rho", _num(self.rho),
                "--nx", str(self.nx), "--nxi", str(self.nxi)]

    def build(self):
        spec = ProblemSpec(variant=Variant(self.problem), kappa=PowerLawKappa(self.alpha),
                           beta=self.beta, rho=self.rho)
        xg = build_x_grid(self.nx, default_grading(spec))
        return assemble_operator(spec, xg, build_xi_quadrature(self.beta, self.nxi))


@dataclass
class Outcome:
    """What one operation of one pass produced, read back after the pass."""

    label: str
    failures: List[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)  # values compared with references
    info: dict = field(default_factory=dict)    # printed, never gated
    digest: str = ""                            # must repeat across passes


class CliOp:
    """One ``fracdamp`` command; subclasses read its artifacts back."""

    label = ""
    march_steps = 0

    def argv(self) -> List[str]:
        raise NotImplementedError

    def call(self, out: Path, tracer=None):
        argv = self.argv() + ["--out", str(out)]
        try:
            if tracer is None:
                return fracdamp.cli.main(argv)
            return tracer.call("cli.main", fracdamp.cli.main, argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code

    def evaluate(self, out: Path, rc) -> Outcome:
        o = Outcome(self.label)
        if rc != 0:
            o.failures.append(f"exit code {rc}")
            return o
        o.digest = _sha(out.glob("*.csv"))
        self.read(out, o)
        return o

    def read(self, out: Path, o: Outcome) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError


class Simulate(CliOp):
    def __init__(self, model: Model, t_final: float, dt: Optional[float], y0: str,
                 window=None):
        self.model, self.t_final, self.dt, self.y0, self.window = model, t_final, dt, y0, window
        self.label = f"simulate {model.problem} alpha={model.alpha} y0={y0}"
        self.march_steps = round(t_final / (dt if dt is not None else t_final / 2e4))

    def argv(self):
        a = ["simulate"] + self.model.argv() + ["--t-final", _num(self.t_final), "--y0", self.y0]
        if self.dt is not None:
            a += ["--dt", _num(self.dt)]
        if self.window is not None:
            a += ["--fit-window", f"{_num(self.window[0])}:{_num(self.window[1])}"]
        return a

    def read(self, out, o):
        energy = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, usecols=1)
        rise = float(np.max(np.diff(energy)))
        if not np.all(np.isfinite(energy)) or rise > ENERGY_ROUNDOFF * energy[0]:
            o.failures.append(f"energy increases by {rise:.3e} (E0={energy[0]:.3e})")
        exponent = json.loads((out / "fit.json").read_text())["exponent"]
        if exponent is None or not math.isfinite(exponent):
            o.failures.append(f"no decay fit: {exponent}")
        o.record["decay_exponent"] = exponent
        o.info["decay_exponent"] = exponent

    def build(self):
        self.model.build()


class Scan(CliOp):
    def __init__(self, model: Model, lam_min: float, lam_max: float, points: int, regime: str):
        self.model, self.lam_min, self.lam_max = model, lam_min, lam_max
        self.points, self.regime = points, regime
        self.label = f"scan {model.problem} alpha={model.alpha} regime={regime}"

    def argv(self):
        return ["scan"] + self.model.argv() + [
            "--lambda-min", _num(self.lam_min), "--lambda-max", _num(self.lam_max),
            "--points", str(self.points), "--regime", self.regime]

    def read(self, out, o):
        norms = np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1, usecols=1)
        if not np.all(np.isfinite(norms) & (norms > 0)):
            o.failures.append("non-finite or non-positive resolvent norm")
        fit = json.loads((out / "fit.json").read_text())
        if not math.isfinite(fit["exponent"]):
            o.failures.append(f"no scan fit: {fit['exponent']}")
        o.record["scan_exponent"] = fit["exponent"]
        o.record["norms"] = norms.tolist()
        # the theory's slope: -theta near zero, +upsilon (an upper bound) at
        # high frequency; printed beside the measured slope, not gated
        if self.regime == "low":
            o.info.update(measured=fit["exponent"], predicted=-fit["theta_theoretical"], relation="=")
        else:
            o.info.update(measured=fit["exponent"], predicted=fit["upsilon_theoretical"], relation="<=")

    def build(self):
        self.model.build()


class OracleCompare(CliOp):
    NXI, XI_MAX, GRADE = 800, 1e6, 2.0  # the CLI's oracle-compare defaults

    def __init__(self, alpha: float, beta: float, lam: float, nx_list, nxi: int = NXI):
        self.alpha, self.beta, self.lam, self.nx_list, self.nxi = alpha, beta, lam, nx_list, nxi
        self.label = f"oracle-compare alpha={alpha}"

    def argv(self):
        return ["oracle-compare", "--alpha", _num(self.alpha), "--beta", _num(self.beta),
                "--lambda", _num(self.lam), "--nx-list", ",".join(map(str, self.nx_list)),
                "--nxi", str(self.nxi)]

    def read(self, out, o):
        l2 = np.loadtxt(out / "oracle.csv", delimiter=",", skiprows=1, usecols=1, ndmin=1)
        if not (np.all(np.isfinite(l2)) and np.all(np.diff(l2) < 0)):
            o.failures.append(f"oracle errors do not fall along the ladder: {l2.tolist()}")
        o.record["oracle_l2"] = l2.tolist()
        o.info["oracle_l2"] = l2.tolist()

    def build(self):
        spec = ProblemSpec(variant=Variant.P, kappa=PowerLawKappa(self.alpha),
                           beta=self.beta, rho=1.0)
        xig = build_xi_quadrature(self.beta, self.nxi, 1e-4, self.XI_MAX)
        for nx in self.nx_list:
            assemble_operator(spec, build_x_grid(nx, self.GRADE), xig)


class VerifyKernel(CliOp):
    def __init__(self, beta: float, tau_min: float, tau_max: float):
        self.beta, self.tau_min, self.tau_max = beta, tau_min, tau_max
        self.label = f"verify-kernel beta={beta}"

    def argv(self):
        return ["verify-kernel", "--beta", _num(self.beta),
                "--tau-min", _num(self.tau_min), "--tau-max", _num(self.tau_max)]

    def read(self, out, o):
        pass  # the command itself exits 4 above its 1e-4 threshold

    def build(self):
        build_xi_quadrature(self.beta)


class FluxCall:
    """Criterion 2 on a constant boundary signal of the given amplitude.

    ``psi`` drives the relaxation modes (``evolve_psi_forced``), ``conv``
    evaluates the convolution oracle (``direct_fractional_integral``); both
    must reproduce amplitude * t^(1-beta) / Gamma(2-beta).
    """

    march_steps = 0

    def __init__(self, kind: str, beta: float, dt: float, n_steps: int, amplitude: float):
        self.kind, self.beta, self.dt, self.n_steps, self.amplitude = kind, beta, dt, n_steps, amplitude
        self.label = f"{kind} flux beta={beta}"

    def _signal(self):
        t = self.dt * np.arange(self.n_steps + 1)
        return t, np.full(t.size, self.amplitude)

    def call(self, out: Path, tracer=None):
        t, s = self._signal()
        if self.kind == "psi":
            name, fn = "diffusive.evolve_psi_forced", self._psi
        else:
            name, fn = "diffusive.direct_fractional_integral", direct_fractional_integral
        if tracer is None:
            return fn(s, t, self.beta)
        return tracer.call(name, fn, s, t, self.beta)

    def _psi(self, s, t, beta):
        grid = build_xi_quadrature(beta)
        _, flux = evolve_psi_forced(grid, s, self.dt)  # drop the mode history
        return flux.real

    def evaluate(self, out: Path, result) -> Outcome:
        o = Outcome(self.label)
        t, _ = self._signal()
        exact = self.amplitude * t ** (1.0 - self.beta) / math.gamma(2.0 - self.beta)
        mask = t >= 0.1
        rel = float(np.max(np.abs(result[mask] - exact[mask]) / exact[mask]))
        limit = FLUX_RTOL if self.kind == "psi" else CONV_RTOL
        if not rel < limit:
            o.failures.append(f"max rel error {rel:.3e} >= {limit:.0e}")
        o.digest = hashlib.sha256(np.ascontiguousarray(result).tobytes()).hexdigest()
        o.info["max_rel_error"] = rel
        return o

    def build(self):
        if self.kind == "psi":
            build_xi_quadrature(self.beta)


def workload_ops(name: str, seed: int = DEFAULT_SEED, tiny: bool = False) -> list:
    """The operations of one pass; `tiny` shrinks every size for self-tests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)

    def jitter(decades: float) -> float:
        # a factor 10^U(-decades, decades); exactly 1 at the default seed
        return 1.0 if seed == DEFAULT_SEED else float(10.0 ** rng.uniform(-decades, decades))

    nx, nxi = (32, 16) if tiny else (400, 200)
    if name == "decay":
        t_final, dt = (2.0, 0.01) if tiny else (200.0, 0.005)
        window = (t_final / 10.0 * jitter(0.05), t_final)
        return [Simulate(Model("P", 0.5, nx=nx, nxi=nxi), t_final, dt, "smooth-bump", window)]
    if name in ("scan-low", "scan-high"):
        nx = 32 if tiny else 800
        points = 12 if tiny else 25
        low = name == "scan-low"
        lo, hi = (1e-4, 1e-1) if low else (1e1, 1e4)
        lo, hi = lo * jitter(0.02), hi * jitter(0.02)
        models = [("P", 0.5), ("Pprime", 0.5)] + ([("Pprime", 1.5)] if low else [])
        return [Scan(Model(p, a, nx=nx, nxi=nxi), lo, hi, points, "low" if low else "high")
                for p, a in models]
    # validate
    t_final, dt = (2.0, 0.01) if tiny else (20.0, None)
    flux_steps = 200 if tiny else 20000
    amplitude = 1.0 if seed == DEFAULT_SEED else float(rng.uniform(0.5, 2.0))
    return [
        Simulate(Model("P", 0.5, nx=nx, nxi=nxi), t_final, dt, "lowest-mode"),
        FluxCall("psi", 0.5, 1e-3, flux_steps, amplitude),
        FluxCall("conv", 0.5, 1e-3, flux_steps, amplitude),
        OracleCompare(0.5, 0.5, 1e-3 * jitter(0.2),
                      (32, 64) if tiny else (100, 200, 400, 800), nxi=64 if tiny else 800),
        VerifyKernel(0.5, 1e-2 * jitter(0.1), 1e2 * jitter(0.1)),
    ]


def run_pass(ops, workdir: Path, tracer=None):
    """Run every operation once; returns (seconds, outcomes).

    Only the calls are timed; artifacts are read back and checked after.
    """
    out = Path(tempfile.mkdtemp(dir=workdir))
    try:
        dirs = [out / f"op{i}" for i in range(len(ops))]
        results = []
        t0 = time.perf_counter()
        for i, (op, d) in enumerate(zip(ops, dirs)):
            if tracer is not None:
                tracer.trace = i
            try:
                results.append(op.call(d, tracer))
            except Exception as exc:  # an operation that raises is a failure, not a crash
                results.append(exc)
        seconds = time.perf_counter() - t0
        outcomes = []
        for op, d, res in zip(ops, dirs, results):
            if isinstance(res, Exception):
                outcomes.append(Outcome(op.label, [f"raised {type(res).__name__}: {res}"]))
                continue
            try:
                outcomes.append(op.evaluate(d, res))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outcomes.append(Outcome(op.label, [f"unreadable output: {exc}"]))
        return seconds, outcomes
    finally:
        shutil.rmtree(out, ignore_errors=True)


def load_references(workload: str, path: Path = REFERENCES):
    """(references for `workload` keyed by operation label, tolerances)."""
    doc = json.loads(path.read_text())
    return doc["workloads"][workload], doc["tolerances"]


def reference_errors(record: dict, ref: dict, tolerances: dict) -> List[str]:
    out = []
    for key, want in ref.items():
        tol = tolerances[key]
        want = np.asarray(want, dtype=float)
        got = np.asarray(record.get(key, np.nan), dtype=float)
        if got.shape != want.shape:
            out.append(f"{key}: shape {got.shape} != reference {want.shape}")
            continue
        err = np.abs(got - want)
        bound = tol.get("atol", 0.0) + tol.get("rtol", 0.0) * np.abs(want)
        if not np.all(err <= bound):
            k = int(np.argmax(err - bound))
            out.append(f"{key}: {got.flat[k]!r} vs reference {want.flat[k]!r}")
    return out


class Gate:
    """Counts operations attempted and failed across the passes of one run.

    Every seed: exit codes, readable artifacts, the invariants each operation
    checks, and outputs identical to the first pass.  With `references`
    (the default seed only): the recorded values within their tolerances.
    """

    def __init__(self, references: Optional[dict] = None, tolerances: Optional[dict] = None):
        self.references = references
        self.tolerances = tolerances or {}
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, outcomes) -> None:
        for o in outcomes:
            fails = list(o.failures)
            if self.references is not None and not fails:
                if o.label not in self.references:
                    fails.append("no reference recorded")
                else:
                    fails += reference_errors(o.record, self.references[o.label], self.tolerances)
            if o.digest and self.digests.setdefault(o.label, o.digest) != o.digest:
                fails.append("outputs differ from the first pass")
            self.attempted += 1
            if fails:
                self.failed += 1
                self.messages += [f"{o.label}: {m}" for m in fails]
