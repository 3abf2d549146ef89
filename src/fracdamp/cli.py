"""Command-line surface producing reproducible CSV/JSON artifacts.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 threshold
failure (verify-kernel).  Every run writes a manifest with the resolved
configuration, a content hash of it, the kernel backend and the BLAS thread
settings, so reruns of a manifest reproduce the CSV outputs byte for byte.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _csv, _kernels, bessel, evolution
from .diffusive import build_xi_quadrature, kernel_check
from .errors import FracdampError, NumericalError
from .evolution import fit_decay_exponent, prepare_initial_state, simulate
from .model import PowerLawKappa, ProblemSpec, Variant
from .operator import assemble_operator, build_x_grid, default_grading
from .resolvent import (
    MIN_SCAN_POINTS,
    forcing_integral,
    scan_resolvent,
    solve_resolvent,
    theoretical_exponents,
)

USAGE_EXIT = 2
NUMERICAL_EXIT = 3
THRESHOLD_EXIT = 4
#: the lambda bounds of each --regime, where --lambda-min/--lambda-max are not given
_SCAN_WINDOW = {"low": (1e-4, 1e-1), "high": (1e1, 1e4)}


def _blas_threads() -> dict:
    """The BLAS thread variables as this process sees them; with two BLAS
    threads the blocked march can wait on thread wake-ups."""
    return {name: os.environ.get(name, "unset")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}


def _json_default(value):
    """JSON for the numpy scalars and complex numbers of diagnostics: a
    complex value as [re, im], a numpy scalar as the Python number."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path: Path, doc: dict) -> None:
    """fit.json, orders.json and the manifest: two-space indent, sorted keys,
    a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_manifest(out: Path, command: str, config: dict, outputs, error=None,
                    diagnostics=None) -> None:
    out.mkdir(parents=True, exist_ok=True)  # an error manifest may be the first file
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    manifest = {
        "command": command,
        "config": config,
        "input_hash": hashlib.sha256(blob).hexdigest(),
        "tool_version": __version__,
        "kernel_backend": _kernels.backend_name(),
        "blas_threads": _blas_threads(),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(str(p.name) for p in outputs),
    }
    if error is not None:
        manifest["error"] = error
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    _write_json(out / "manifest.json", manifest)


class _Stages:
    """Wall time of each stage of a command, summed over its repeats;
    telemetry for the manifest only."""

    def __init__(self):
        self.seconds = {}
        self._clock = time.perf_counter()

    def lap(self, stage):
        """Add the time since the last lap (or since creation) to ``stage``."""
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._clock
        self._clock = now


def _numerical_failure(out: Path, command: str, config: dict, exc: NumericalError) -> int:
    """An error manifest with the failure's diagnostics, the message on
    stderr and the numerical-failure exit code."""
    _write_manifest(out, command, config, [], error={"message": str(exc), **exc.diagnostics})
    print(f"numerical failure: {exc}", file=sys.stderr)
    return NUMERICAL_EXIT


def _load_json_object(parser, flag: str, path) -> dict:
    """The JSON object in the file given to `flag`; a file that cannot be
    read or holds anything else is a usage error."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read {flag} {path}: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"{flag} {path} does not hold a JSON object")
    return doc


def _problem_from_args(args, parser) -> ProblemSpec:
    doc = {}
    if getattr(args, "config", None):
        doc = _load_json_object(parser, "--config", args.config)
    if args.problem is not None:
        doc["variant"] = args.problem
    if getattr(args, "alpha", None) is not None:
        doc["alpha"] = args.alpha
        doc.pop("kappa_samples", None)
    if getattr(args, "kappa", None) is not None:
        doc["kappa_samples"] = _load_json_object(parser, "--kappa", args.kappa)
        doc.pop("alpha", None)
    for name in ("beta", "rho"):
        val = getattr(args, name, None)
        if val is not None:
            doc[name] = val
    doc.setdefault("rho", 1.0)
    if "variant" not in doc or "beta" not in doc:
        parser.error("a problem needs at least --problem and --beta (or --config)")
    return ProblemSpec.from_json(doc)


def _grids_from_args(args, spec: ProblemSpec):
    """The x grid and the xi quadrature of `simulate` and `scan`, and the
    configuration that records them."""
    grade = args.grade if args.grade is not None else default_grading(spec)
    xg = build_x_grid(args.nx, grade)
    xig = build_xi_quadrature(spec.beta, args.nxi, args.xi_min, args.xi_max)
    config = {"spec": spec.to_json(), "nx": args.nx, "grade": grade, "nxi": args.nxi,
              "xi_min": args.xi_min, "xi_max": args.xi_max}
    return xg, xig, config


def _fit_window(text: str):
    """LO:HI, two numbers with 0 < LO < HI, for --fit-window."""
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if not 0.0 < lo < hi:
        raise argparse.ArgumentTypeError(f"needs 0 < LO < HI, got {text!r}")
    return lo, hi


def _add_xi_flags(p, nxi=200, xi_max=1e4):
    """--nxi, --xi-min and --xi-max, the xi quadrature of every command."""
    p.add_argument("--nxi", type=int, default=nxi)
    p.add_argument("--xi-min", dest="xi_min", type=float, default=1e-4)
    p.add_argument("--xi-max", dest="xi_max", type=float, default=xi_max)


def _add_problem_flags(p):
    p.add_argument("--problem", choices=["P", "Pprime"], default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--kappa", default=None, metavar="FILE",
                   help="JSON file with tabulated coefficient {x: [...], values: [...]}")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--config", default=None, metavar="FILE",
                   help="problem JSON; explicit flags override its entries")
    p.add_argument("--nx", type=int, default=400)
    p.add_argument("--grade", type=float, default=None,
                   help="mesh grading exponent (default: 2 for strong degeneracy, else 1)")
    _add_xi_flags(p)


def _cmd_simulate(args, parser) -> int:
    out = Path(args.out)
    spec = _problem_from_args(args, parser)
    xg, xig, config = _grids_from_args(args, spec)
    dt = args.dt if args.dt is not None else args.t_final / 2e4
    n_steps = evolution._step_count(args.t_final, dt)  # a bad time is refused before any work
    lo, hi = args.fit_window or (args.t_final / 10.0, args.t_final)
    config.update({"t_final": args.t_final, "dt": dt, "y0": args.y0,
                   "fit_window": [lo, hi], "scheme": "implicit_midpoint"})
    stages = _Stages()
    try:
        op = assemble_operator(spec, xg, xig)
        stages.lap("assembly")
        initial_state = {}
        y0 = prepare_initial_state(op, args.y0, report=initial_state)
        stages.lap("preparation")
        trace = simulate(op, y0, args.t_final, dt)  # field coordinates included
        stages.lap("march")
        fit = None
        fit_error = None
        try:
            fit = fit_decay_exponent(trace, (lo, hi))
        except FracdampError as exc:
            fit_error = str(exc)
        stages.lap("fit")
    except NumericalError as exc:
        return _numerical_failure(out, "simulate", config, exc)
    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out / "trace.csv")
    fit_doc = {
        "window": [lo, hi],
        "exponent": None if fit is None else fit.exponent,
        "intercept": None if fit is None else fit.intercept,
        "r_squared": None if fit is None else fit.r_squared,
    }
    if fit_error:
        fit_doc["error"] = fit_error
    _write_json(out / "fit.json", fit_doc)
    # the midpoint rule is contractive, so the largest sampled energy change
    # relative to E[0] (prepared states have unit energy) should be roundoff
    # or below; initial_state is what the preparation measured, march the
    # field modes stepped and the share of E[0] in the modes left out.  The
    # midpoint factor of relaxation mode xi, (1 - xi^2 dt/2)/(1 + xi^2 dt/2),
    # is about -1 + 4/(xi^2 dt) when xi^2 dt >> 1, so the stiffest mode
    # flips sign every step and lives about stiff_lifetime = xi_max^2 dt^2/4
    # rather than 1/xi_max^2: a fit window that starts before it reads a
    # time-step artifact
    diagnostics = {
        "march_steps": n_steps,
        "max_energy_rise": float(np.max(np.diff(trace.E))) / trace.E[0],
        "march": {"coupled_modes": trace.coupled_modes, "field_modes": int(xg.x.size),
                  "uncoupled_energy_share": trace.uncoupled_energy / float(trace.E[0])},
        "stage_s": stages.seconds,
        "initial_state": initial_state,
        "stiff_lifetime": xig.xi_max**2 * dt**2 / 4.0,
    }
    _write_manifest(out, "simulate", config, [out / "trace.csv", out / "fit.json"],
                    diagnostics=diagnostics)
    return 0


def _cmd_scan(args, parser) -> int:
    lo, hi = _SCAN_WINDOW[args.regime]
    lo = lo if args.lambda_min is None else args.lambda_min
    hi = hi if args.lambda_max is None else args.lambda_max
    if not all(math.isfinite(v) and v != 0.0 for v in (lo, hi)) or (lo > 0) != (hi > 0):
        parser.error("--lambda-min and --lambda-max must be finite, nonzero and of one sign, "
                     f"got {lo:g} and {hi:g}")
    if args.points < MIN_SCAN_POINTS:
        parser.error(f"--points must be at least {MIN_SCAN_POINTS}, got {args.points}")
    out = Path(args.out)
    lams = np.geomspace(lo, hi, args.points)
    spec = _problem_from_args(args, parser)
    xg, xig, config = _grids_from_args(args, spec)
    config.update({"points": args.points, "lambda_min": lo, "lambda_max": hi,
                   "regime": args.regime})
    stages = _Stages()
    op = assemble_operator(spec, xg, xig)
    stages.lap("assembly")
    prediction = theoretical_exponents(spec)
    try:
        scan = scan_resolvent(op, lams)
    except NumericalError as exc:
        return _numerical_failure(out, "scan", config, exc)
    out.mkdir(parents=True, exist_ok=True)
    scan.to_csv(out / "scan.csv")
    fit = scan.fit
    fit_doc = {
        # the label is read from the lambdas scanned, not from --regime
        "regime": "near_zero" if np.max(np.abs(lams)) <= 1.0 else "high_frequency",
        "exponent": None if fit is None else fit.exponent,
        "r_squared": None if fit is None else fit.r_squared,
        "window": None if fit is None else [float(scan.lam[i]) for i in fit.window],
        "theta_theoretical": prediction.theta,
        "upsilon_theoretical": prediction.upsilon,
        "decay_exponent_predicted": prediction.decay_exponent,
    }
    if scan.fit_error:
        fit_doc["error"] = scan.fit_error
    _write_json(out / "fit.json", fit_doc)
    # per shift: the field share of the top singular vector of the
    # resolvent, |lambda|*||R|| - 1 (about 0 on the relaxation floor), the
    # singular-value counts spent and the certificate gap; the shifts with
    # |lambda| at or below the slowest relaxation rate xi_min^2; for the fit
    # (null without one): its window's indices, R^2 and the largest
    # |log norm - line| inside it
    xi_min_squared = float(xig.xi_min) ** 2
    diagnostics = {
        "shifts": [
            {"lambda": r.lam, "field_share": r.field_share,
             "lambda_norm_minus_one": abs(r.lam) * r.norm - 1.0,
             "count_evaluations": r.evaluations, "certificate_gap": r.certificate_gap}
            for r in scan.shifts
        ],
        "relaxation_floor": {
            "xi_min_squared": xi_min_squared,
            "shifts_below": int(np.count_nonzero(np.abs(scan.lam) <= xi_min_squared)),
        },
        "fit": None if fit is None else {"window_index": list(fit.window),
                                         "r_squared": fit.r_squared,
                                         "max_abs_residual": fit.max_residual},
        "stage_s": {**stages.seconds, **scan.stage_s},
    }
    _write_manifest(out, "scan", config, [out / "scan.csv", out / "fit.json"],
                    diagnostics=diagnostics)
    return 0


def _cmd_verify_kernel(args, parser) -> int:
    if not all(math.isfinite(v) and v > 0.0 for v in (args.tau_min, args.tau_max)):
        parser.error("--tau-min and --tau-max must be finite and positive, "
                     f"got {args.tau_min:g} and {args.tau_max:g}")
    if args.points < 1:
        parser.error(f"--points must be at least 1, got {args.points}")
    out = Path(args.out)
    grid = build_xi_quadrature(args.beta, args.nxi, args.xi_min, args.xi_max)
    taus = np.geomspace(args.tau_min, args.tau_max, args.points)
    check = kernel_check(grid, args.rho, taus)
    out.mkdir(parents=True, exist_ok=True)
    check.to_csv(out / "kernel.csv")
    config = {"beta": args.beta, "rho": args.rho, "nxi": args.nxi,
              "xi_min": args.xi_min, "xi_max": args.xi_max,
              "tau_min": args.tau_min, "tau_max": args.tau_max, "points": args.points}
    error = None
    if not check.max_rel_error <= 1e-4:  # nan fails it
        error = {"message": f"kernel check failed: max rel error {check.max_rel_error:.3e} > 1e-4",
                 "max_rel_error": check.max_rel_error}
    _write_manifest(out, "verify-kernel", config, [out / "kernel.csv"], error=error)
    if error is not None:
        print(error["message"], file=sys.stderr)
        return THRESHOLD_EXIT
    return 0


def _cmd_oracle_compare(args, parser) -> int:
    # imported at call time: perfbench wraps bessel's attribute, not a copy bound here
    from .bessel import analytic_resolvent_P

    if not (math.isfinite(args.lam) and args.lam > 0.0):
        parser.error(f"--lambda must be finite and positive, got {args.lam:g}")
    out = Path(args.out)
    try:
        nx_list = [int(v) for v in args.nx_list.split(",")]
    except ValueError:
        parser.error("--nx-list must be a comma-separated integer list")
    spec = ProblemSpec(
        variant=Variant.P, kappa=PowerLawKappa(args.alpha), beta=args.beta, rho=args.rho
    )
    lam_max = bessel.lambda_max(args.alpha)
    if args.lam > lam_max:
        parser.error(f"--lambda must be at most {lam_max:.10g} at alpha={args.alpha:g}, where "
                     f"the Bessel series oracle holds (|z| <= {bessel._Z_MAX:g}), "
                     f"got {args.lam:.10g}")
    xgrids = [build_x_grid(nx, args.grade) for nx in nx_list]  # a bad nx before any work
    xig = build_xi_quadrature(args.beta, args.nxi, args.xi_min, args.xi_max)
    f_psi = xig.eta * np.exp(-xig.xi**2)
    config = {"spec": spec.to_json(), "lambda": args.lam, "nx_list": nx_list,
              "grade": args.grade, "nxi": args.nxi, "xi_min": args.xi_min,
              "xi_max": args.xi_max}
    rows = []
    errors = []
    # summed over the ladder; the oracle's first call loads scipy's Gamma
    stages = _Stages()
    try:
        for nx, xg in zip(nx_list, xgrids):
            op = assemble_operator(spec, xg, xig)
            stages.lap("assembly")
            c_const = forcing_integral(op, args.lam, f_psi)
            zd = solve_resolvent(op, args.lam, np.zeros(nx), f_psi)
            stages.lap("discrete_solve")
            oracle = analytic_resolvent_P(args.lam, xg.x, c_const,
                                          args.alpha, args.beta, args.rho)
            diff = zd.y - oracle.y
            l2 = math.sqrt(float(np.dot(xg.h, np.abs(diff) ** 2)))
            linf = float(np.abs(diff).max())
            rows.append([args.lam, l2, linf, nx])
            errors.append(l2)
            stages.lap("oracle")
    except NumericalError as exc:
        return _numerical_failure(out, "oracle-compare", config, exc)
    out.mkdir(parents=True, exist_ok=True)
    _csv.write_csv(out / "oracle.csv", ["lambda", "l2_error", "linf_error", "nx"], zip(*rows))
    orders = []
    for k in range(1, len(errors)):
        if errors[k] > 0 and errors[k - 1] > 0 and nx_list[k] != nx_list[k - 1]:
            orders.append(
                math.log(errors[k - 1] / errors[k]) / math.log(nx_list[k] / nx_list[k - 1])
            )
    summary = {"orders": orders, "observed_order": min(orders) if orders else None}
    _write_json(out / "orders.json", summary)
    _write_manifest(out, "oracle-compare", config,
                    [out / "oracle.csv", out / "orders.json"],
                    diagnostics={"stage_s": stages.seconds})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdamp",
        description="Degenerate Schrodinger systems with fractional boundary damping",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="time evolution + decay-exponent fit")
    _add_problem_flags(p)
    p.add_argument("--t-final", dest="t_final", type=float, required=True)
    p.add_argument("--dt", type=float, default=None, help="default t_final/20000")
    p.add_argument("--y0", choices=["smooth-bump", "lowest-mode"], default="smooth-bump")
    p.add_argument("--fit-window", dest="fit_window", type=_fit_window, default=None,
                   metavar="LO:HI")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scan", help="resolvent-norm scan + power-law fit")
    _add_problem_flags(p)
    p.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--regime", choices=["low", "high"], default="low",
                   help="the default lambda window: low [1e-4, 1e-1], high [10, 1e4]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify-kernel", help="quadrature kernel vs closed form")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--tau-min", dest="tau_min", type=float, default=1e-2)
    p.add_argument("--tau-max", dest="tau_max", type=float, default=1e2)
    p.add_argument("--points", type=int, default=61)
    _add_xi_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_kernel)

    p = sub.add_parser("oracle-compare", help="discrete vs closed-form resolvent")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--nx-list", dest="nx_list", required=True)
    p.add_argument("--grade", type=float, default=2.0, help="default 2 (convergence studies)")
    _add_xi_flags(p, 800, 1e6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except FracdampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
