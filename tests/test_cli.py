import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracdamp
from conftest import make_operator
from fracdamp.cli import main
from fracdamp.diffusive import KernelCheck
from fracdamp.evolution import EnergyTrace
from fracdamp.model import ProblemSpec
from fracdamp.resolvent import scan_resolvent


def run_cli(*args):
    return main([str(a) for a in args])


class TestVerifyKernel:
    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("verify-kernel", "--beta", 0.5, "--out", out)
        assert code == 0
        lines = (out / "kernel.csv").read_text().splitlines()
        assert lines[0] == "tau,quadrature,exact,rel_error"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "verify-kernel"
        assert "input_hash" in manifest
        assert manifest["kernel_backend"] == "numpy"
        assert set(manifest["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}

    def test_beta_09_passes(self, tmp_path):
        assert run_cli("verify-kernel", "--beta", 0.9, "--out", tmp_path / "b9") == 0

    def test_unresolved_grid_fails_threshold(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = run_cli(
            "verify-kernel", "--beta", 0.5, "--nxi", 16, "--xi-min", 0.05,
            "--xi-max", 20, "--out", out,
        )
        assert code == 4
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert set(error) == {"message", "max_rel_error"}
        assert error["max_rel_error"] > 1e-4
        assert error["message"] in capsys.readouterr().err

    def test_nonpositive_rho_is_usage_error(self, tmp_path):
        assert run_cli("verify-kernel", "--beta", 0.5, "--rho", 0,
                       "--out", tmp_path / "rho0") == 2

    @pytest.mark.parametrize("flag, value", [("--tau-min", "0"), ("--tau-min", "nan"),
                                             ("--tau-min", "-1e-2"), ("--tau-min", "inf"),
                                             ("--tau-max", "0"), ("--tau-max", "nan"),
                                             ("--tau-max", "inf")])
    def test_bad_tau_bounds_are_refused_before_any_work(self, tmp_path, flag, value):
        # tau-min 0 reached np.geomspace (raw ValueError, exit 1) and nan ran
        # to a threshold failure (exit 4)
        out = tmp_path / "kernel"
        with pytest.raises(SystemExit) as exc:
            run_cli("verify-kernel", "--beta", 0.5, f"{flag}={value}", "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_no_tau_in_the_resolved_window_is_a_usage_error(self, tmp_path, capsys):
        # exited 4 with "max_rel_error": NaN, not JSON, in its manifest
        out = tmp_path / "kernel"
        code = run_cli("verify-kernel", "--beta", 0.5, "--tau-min", 1e-9, "--tau-max", 1e-8,
                       "--out", out)
        assert code == 2
        assert "resolved window [2e-07, 5e+04]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", [-1, 0])
    def test_fewer_than_one_point_is_refused_before_any_work(self, tmp_path, points):
        # -1 reached np.geomspace (raw ValueError, exit 1) and 0 ran on an
        # empty tau grid to a threshold failure (exit 4)
        out = tmp_path / "kernel"
        with pytest.raises(SystemExit) as exc:
            run_cli("verify-kernel", "--beta", 0.5, f"--points={points}", "--out", out)
        assert exc.value.code == 2
        assert not out.exists()


class TestSimulate:
    def test_small_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli(
            "simulate", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
            "--rho", 1, "--nx", 48, "--nxi", 32, "--t-final", 2.0,
            "--dt", 0.01, "--out", out,
        )
        assert code == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,E,D,flux_re,flux_im"
        fit = json.loads((out / "fit.json").read_text())
        assert set(fit) >= {"window", "exponent", "intercept", "r_squared"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["spec"]["variant"] == "P"
        diag = manifest["diagnostics"]
        assert diag["march_steps"] == 200
        assert diag["max_energy_rise"] <= 1e-12

    def test_manifest_stage_times(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
            "--nx", 32, "--nxi", 24, "--t-final", 1.0, "--out", out,
        ) == 0
        stage_s = json.loads((out / "manifest.json").read_text())["diagnostics"]["stage_s"]
        assert set(stage_s) == {"assembly", "preparation", "march", "fit"}
        assert all(v >= 0.0 for v in stage_s.values())

    @pytest.mark.parametrize("problem, alpha", [("P", 0.5), ("Pprime", 0.5)])
    def test_manifest_march(self, tmp_path, problem, alpha):
        # nx=100: on P 40 field modes do not reach the damped cell and the bump
        # leaves them about 1e-11 of its energy; on P' every mode is coupled
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--problem", problem, "--alpha", alpha, "--beta", 0.5,
            "--nx", 100, "--nxi", 64, "--t-final", 1.0, "--dt", 0.01, "--out", out,
        ) == 0
        march = json.loads((out / "manifest.json").read_text())["diagnostics"]["march"]
        assert set(march) == {"coupled_modes", "field_modes", "uncoupled_energy_share"}
        assert march["field_modes"] == 100
        if problem == "P":
            assert 0 < march["coupled_modes"] < march["field_modes"]
            assert 0.0 < march["uncoupled_energy_share"] < 1e-9
        else:
            assert march["coupled_modes"] == march["field_modes"]
            assert abs(march["uncoupled_energy_share"]) <= 1e-12

    def test_manifest_records_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
            "--nx", 32, "--nxi", 16, "--t-final", 1.0, "--out", out,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "unset"}

    @pytest.mark.parametrize("y0", ["lowest-mode", "smooth-bump"])
    def test_manifest_initial_state(self, tmp_path, y0):
        out = tmp_path / "sim"
        assert run_cli(
            "simulate", "--problem", "Pprime", "--alpha", 1.5, "--beta", 0.5,
            "--nx", 48, "--nxi", 32, "--t-final", 1.0, "--dt", 0.01, "--y0", y0, "--out", out,
        ) == 0
        report = json.loads((out / "manifest.json").read_text())["diagnostics"]["initial_state"]
        if y0 == "smooth-bump":
            assert set(report) == {"sigma_min"}
            assert report["sigma_min"] > 0.0
            return
        assert set(report) == {"eigenvalue", "boundary_weight", "field_energy_share",
                               "residual", "relative_residual", "census", "census_s"}
        assert len(report["eigenvalue"]) == 2 and report["eigenvalue"][0] < 0.0
        assert 0.0 <= report["boundary_weight"] <= 1.0
        assert 0.0 <= report["field_energy_share"] <= 1.0
        assert report["residual"] <= 1e-8
        assert report["relative_residual"] <= 64 * np.finfo(float).eps
        census = report["census"]
        assert set(census) == {"expected", "unconverged", "recovered",
                               "max_newton_iterations", "trace_defect"}
        assert census["expected"] > 0
        assert census["trace_defect"] <= 64 * np.finfo(float).eps
        assert report["census_s"] >= 0.0

    @pytest.mark.parametrize("window", ["1", "a:b", "1:2:3", "5:2", "0:2"])
    def test_bad_fit_window_is_refused_before_any_work(self, tmp_path, window):
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
                    "--nx", 32, "--nxi", 16, "--t-final", 5.0, "--fit-window", window,
                    "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("t_final,dt", [("nan", "0.01"), ("inf", "0.01"), ("1.0", "inf"),
                                            ("-1", None), ("20", "0")])
    def test_non_finite_time_is_a_usage_error(self, tmp_path, capsys, monkeypatch, t_final, dt):
        # each was refused only by simulate, after the operator was assembled
        # and the initial state prepared
        from fracdamp import cli

        def refuse(*args, **kwargs):
            raise AssertionError("the operator was assembled")

        monkeypatch.setattr(cli, "assemble_operator", refuse)
        out = tmp_path / "sim"
        code = run_cli("simulate", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
                       "--nx", 32, "--nxi", 16, "--y0", "lowest-mode", "--t-final", t_final,
                       *(() if dt is None else ("--dt", dt)), "--out", out)
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_window_is_used(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
                       "--nx", 32, "--nxi", 16, "--t-final", 5.0, "--dt", 0.01,
                       "--fit-window", "1:4.5", "--out", out) == 0
        assert json.loads((out / "fit.json").read_text())["window"] == [1.0, 4.5]

    def test_short_fit_window_keeps_the_trace(self, tmp_path):
        # 6 samples in [1.95, 2]: no fit, the trace and manifest still written
        out = tmp_path / "sim"
        assert run_cli("simulate", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
                       "--nx", 32, "--nxi", 16, "--t-final", 2.0, "--dt", 0.01,
                       "--fit-window", "1.95:2", "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["fit.json", "manifest.json",
                                                         "trace.csv"]
        fit = json.loads((out / "fit.json").read_text())
        assert fit["window"] == [1.95, 2.0]
        assert fit["exponent"] is fit["intercept"] is fit["r_squared"] is None
        assert "found 6" in fit["error"]

    @pytest.mark.parametrize("power, grade, dirichlet", [(0.5, 1.0, True), (1.5, 2.0, False)])
    def test_tabulated_kappa(self, tmp_path, power, grade, dirichlet):
        # samples of x^0.5 (m_kappa < 1, Dirichlet at x = 0) and x^1.5 (zero
        # weighted flux at x = 0, graded mesh) through --kappa FILE
        x = np.linspace(1.0 / 200, 1.0, 200)
        table = tmp_path / "kappa.json"
        table.write_text(json.dumps({"x": x.tolist(), "values": (x**power).tolist()}))
        out = tmp_path / "sim"
        assert run_cli("simulate", "--problem", "Pprime", "--kappa", table, "--beta", 0.5,
                       "--nx", 64, "--nxi", 32, "--t-final", 5.0, "--dt", 0.01,
                       "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["max_energy_rise"] <= 1e-12
        assert np.isfinite(json.loads((out / "fit.json").read_text())["exponent"])
        config = manifest["config"]
        assert config["grade"] == grade
        assert config["spec"]["kappa_samples"]["values"] == (x**power).tolist()
        assert ProblemSpec.from_json(config["spec"]).dirichlet_at_zero is dirichlet

    def test_invalid_variant_alpha_combination(self, tmp_path):
        code = run_cli(
            "simulate", "--problem", "P", "--alpha", 1.5, "--beta", 0.5,
            "--t-final", 1.0, "--out", tmp_path / "bad",
        )
        assert code == 2

    def test_reproducible_reruns(self, tmp_path):
        args = (
            "simulate", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
            "--nx", 32, "--nxi", 24, "--t-final", 1.0, "--dt", 0.01,
        )
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()
        assert (tmp_path / "a/fit.json").read_bytes() == (tmp_path / "b/fit.json").read_bytes()
        ma = json.loads((tmp_path / "a/manifest.json").read_text())
        mb = json.loads((tmp_path / "b/manifest.json").read_text())
        assert ma["input_hash"] == mb["input_hash"]

    def test_config_file_merge_flags_win(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(
            {"variant": "P", "alpha": 0.5, "beta": 0.25, "rho": 1.0, "gamma": 0.0}
        ))
        out = tmp_path / "cfg"
        code = run_cli(
            "simulate", "--config", cfg, "--beta", 0.5, "--nx", 32, "--nxi", 24,
            "--t-final", 1.0, "--dt", 0.01, "--out", out,
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["spec"]["beta"] == 0.5  # flag overrides file


class TestScan:
    def test_variant_p_scan_small(self, tmp_path):
        out = tmp_path / "scanp"
        code = run_cli(
            "scan", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
            "--nx", 100, "--nxi", 64, "--points", 13, "--out", out,
        )
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert set(fit) == {
            "regime", "exponent", "r_squared", "window",
            "theta_theoretical", "upsilon_theoretical", "decay_exponent_predicted",
        }
        assert fit["theta_theoretical"] == 1.0
        assert fit["decay_exponent_predicted"] == 2.0
        assert fit["exponent"] == pytest.approx(-1.0, abs=0.15)

    def test_manifest_diagnostics(self, tmp_path):
        out = tmp_path / "scand"
        code = run_cli(
            "scan", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
            "--nx", 64, "--nxi", 32, "--points", 9, "--out", out,
        )
        assert code == 0
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert set(diag) == {"shifts", "fit", "stage_s"}
        fit = json.loads((out / "fit.json").read_text())
        i0, i1 = diag["fit"]["window_index"]
        assert 0 <= i0 < i1 < 9
        assert diag["fit"]["r_squared"] == fit["r_squared"]
        rows = [[float(v) for v in line.split(",")]
                for line in (out / "scan.csv").read_text().splitlines()[1:]]
        assert [rows[i0][0], rows[i1][0]] == fit["window"]
        # the residual about the fitted line, recomputed from scan.csv
        logx = np.log([r[0] for r in rows[i0 : i1 + 1]])
        logy = np.log([r[1] for r in rows[i0 : i1 + 1]])
        slope, intercept = np.polyfit(logx, logy, 1)
        assert fit["exponent"] == pytest.approx(slope, rel=1e-12)
        residual = np.abs(logy - (slope * logx + intercept)).max()
        assert diag["fit"]["max_abs_residual"] == pytest.approx(residual, rel=1e-9, abs=1e-15)
        assert set(diag["stage_s"]) == {"assembly", "eigensolve", "shifts", "fit"}
        assert all(v >= 0.0 for v in diag["stage_s"].values())
        lams = [float(v) for v in
                (out / "scan.csv").read_text().splitlines()[1:] for v in [v.split(",")[0]]]
        assert [s["lambda"] for s in diag["shifts"]] == pytest.approx(lams, rel=1e-15)
        for shift in diag["shifts"]:
            assert set(shift) == {"lambda", "field_share", "lambda_norm_minus_one",
                                  "count_evaluations", "certificate_gap"}
            assert 0.0 <= shift["field_share"] <= 1.0
            assert shift["count_evaluations"] >= 1
            assert abs(shift["certificate_gap"]) < 1e-7
            assert shift["lambda_norm_minus_one"] >= -1e-6  # the relaxation floor

    def test_general_coefficient_prediction(self, tmp_path):
        out = tmp_path / "scang"
        code = run_cli(
            "scan", "--problem", "Pprime", "--alpha", 1.5, "--beta", 0.5,
            "--nx", 64, "--nxi", 48, "--points", 10, "--out", out,
        )
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["theta_theoretical"] == 1.5
        assert fit["decay_exponent_predicted"] == pytest.approx(2.0 / 1.5)

    @pytest.mark.parametrize("regime", ["high", "low"])
    def test_high_lambdas_are_labelled_high_frequency(self, tmp_path, regime):
        # the label is read from the lambdas scanned: --regime low said
        # "near_zero" whatever the bounds
        out = tmp_path / "scanh"
        code = run_cli(
            "scan", "--problem", "Pprime", "--alpha", 0.5, "--beta", 0.5,
            "--nx", 100, "--nxi", 48, "--points", 10, "--regime", regime,
            "--lambda-min", 10, "--lambda-max", 1e3, "--out", out,
        )
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["regime"] == "high_frequency"

    @pytest.mark.parametrize("regime,window,label", [
        ("high", (10.0, 1e4), "high_frequency"), ("low", (1e-4, 1e-1), "near_zero")])
    def test_regime_picks_the_default_window(self, tmp_path, regime, window, label):
        out = tmp_path / "scan"
        assert run_cli("scan", *_PROBLEM, "--nx", 32, "--nxi", 24, "--points", 8,
                       "--regime", regime, "--out", out) == 0
        rows = list(csv.DictReader(io.StringIO((out / "scan.csv").read_text())))
        assert (float(rows[0]["lambda"]), float(rows[-1]["lambda"])) == window
        assert json.loads((out / "fit.json").read_text())["regime"] == label
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["lambda_min"], config["lambda_max"]) == window
        assert config["regime"] == regime

    @pytest.mark.parametrize("bounds", [("0", "0.1"), ("1e-4", "0"), ("nan", "0.1"),
                                        ("1e-4", "nan"), ("inf", "0.1"), ("1e-4", "inf"),
                                        ("-1e-3", "0.1"), ("1e-4", "-0.1")])
    def test_bad_lambda_bounds_are_refused_before_any_work(self, tmp_path, bounds):
        out = tmp_path / "scan"
        with pytest.raises(SystemExit) as exc:
            run_cli("scan", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
                    "--nx", 32, "--nxi", 24, f"--lambda-min={bounds[0]}",
                    f"--lambda-max={bounds[1]}", "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_equal_lambda_bounds_are_refused_before_any_norm(self, tmp_path):
        # 25 equal lambdas computed 25 equal norms, warned in the fit and
        # exited 0 with a null exponent
        out = tmp_path / "scan"
        assert run_cli("scan", *_PROBLEM, "--nx", 32, "--nxi", 24, "--lambda-min", 1e-3,
                       "--lambda-max", 1e-3, "--out", out) == 2
        assert not out.exists()

    def test_negative_lambda_range(self, tmp_path):
        out = tmp_path / "scan"
        assert run_cli("scan", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
                       "--nx", 32, "--nxi", 24, "--points", 8, "--lambda-min=-1e-4",
                       "--lambda-max=-1e-1", "--out", out) == 0
        rows = csv.DictReader(io.StringIO((out / "scan.csv").read_text()))
        lams = [float(r["lambda"]) for r in rows]
        assert len(lams) == 8 and all(v < 0 for v in lams)

    def test_unfitted_scan_keeps_its_norms(self, tmp_path):
        # on lambda < 0 the geometric grid hits and misses the resonances, so
        # no window has a stable slope; all 25 norms were computed, then the
        # run exited 2 and wrote nothing
        out = tmp_path / "scan"
        assert run_cli("scan", *_PROBLEM, "--nx", 100, "--nxi", 64, "--lambda-min=-10",
                       "--lambda-max=-1e4", "--out", out) == 0
        norms = np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1)
        assert norms.shape == (25, 2) and np.all(np.isfinite(norms[:, 1]) & (norms[:, 1] > 0))
        fit = json.loads((out / "fit.json").read_text())
        assert fit["exponent"] is fit["r_squared"] is fit["window"] is None
        assert "no sub-window of 8 or more points with stable local slope" in fit["error"]
        assert fit["regime"] == "high_frequency"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "error" not in manifest
        assert manifest["outputs"] == ["fit.json", "scan.csv"]
        assert manifest["diagnostics"]["fit"] is None
        assert len(manifest["diagnostics"]["shifts"]) == 25

    @pytest.mark.parametrize("points", [-3, 0, 1, 2, 7])
    def test_fewer_than_min_scan_points_are_refused_before_any_work(self, tmp_path, points,
                                                                    monkeypatch):
        # -3 reached np.geomspace (raw ValueError, exit 1); 2 to 7 passed a
        # check of 2, computed every norm, then failed the fit's minimum of 8
        from fracdamp import cli

        def refuse(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(cli, "scan_resolvent", refuse)
        out = tmp_path / "scan"
        with pytest.raises(SystemExit) as exc:
            run_cli("scan", "--problem", "P", "--alpha", 0.5, "--beta", 0.5,
                    "--nx", 32, "--nxi", 24, f"--points={points}", "--out", out)
        assert exc.value.code == 2
        assert not out.exists()


@pytest.mark.parametrize("command, target, args", [
    ("simulate", "simulate", ("--problem", "P", "--alpha", 0.5, "--beta", 0.5, "--nx", 32,
                              "--nxi", 24, "--t-final", 1.0)),
    ("scan", "scan_resolvent", ("--problem", "P", "--alpha", 0.5, "--beta", 0.5, "--nx", 32,
                                "--nxi", 24, "--points", 8)),
    ("oracle-compare", "solve_resolvent", ("--alpha", 0.5, "--beta", 0.5, "--lambda", 1e-3,
                                           "--nx-list", "32,64", "--nxi", 24)),
])
def test_numerical_failure_writes_an_error_manifest(tmp_path, monkeypatch, command, target,
                                                    args):
    # a NumericalError with diagnostics: exit 3, the message and diagnostics
    # (a complex value as [re, im]) in the manifest's error, and no artifact
    from fracdamp import cli
    from fracdamp.errors import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure", {"lambda": 0.1, "shift": 2j, "steps": 7})

    monkeypatch.setattr(cli, target, boom)
    out = tmp_path / "fail"
    assert run_cli(command, *args, "--out", out) == 3
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == {"message": "synthetic failure", "lambda": 0.1,
                                 "shift": [0.0, 2.0], "steps": 7}
    assert manifest["outputs"] == []


class TestOracleCompare:
    def test_errors_decrease(self, tmp_path):
        out = tmp_path / "oc"
        code = run_cli(
            "oracle-compare", "--alpha", 0.5, "--beta", 0.5, "--lambda", 1e-3,
            "--nx-list", "50,100,200", "--nxi", 200, "--xi-max", 1e5,
            "--grade", 2, "--out", out,
        )
        assert code == 0
        rows = (out / "oracle.csv").read_text().splitlines()
        assert rows[0] == "lambda,l2_error,linf_error,nx"
        errs = [float(r.split(",")[1]) for r in rows[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_manifest_stage_times_and_default_grade(self, tmp_path):
        out = tmp_path / "oc"
        assert run_cli("oracle-compare", "--alpha", 0.5, "--beta", 0.5, "--lambda", 1e-3,
                       "--nx-list", "50,100", "--nxi", 64, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["grade"] == 2.0
        stage_s = manifest["diagnostics"]["stage_s"]
        assert set(stage_s) == {"assembly", "discrete_solve", "oracle"}
        assert all(v >= 0.0 for v in stage_s.values())

    def test_bad_nx_list_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("oracle-compare", "--alpha", 0.5, "--beta", 0.5,
                    "--lambda", 1e-3, "--nx-list", "fifty", "--out", tmp_path / "x")
        assert exc.value.code == 2

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "0", "-1e-3", "1e3"])
    def test_bad_lambda_is_refused_before_any_work(self, tmp_path, monkeypatch, lam):
        # nan ran the solves and failed writing the error manifest (exit 1);
        # 1e3 is above the oracle's series range |z| = (2/(2-alpha)) sqrt(lambda)
        # <= 20 (lambda <= 225 at alpha = 0.5), and ran the first rung's solve
        from fracdamp import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("solve_resolvent reached")

        monkeypatch.setattr(cli, "solve_resolvent", unreachable)
        out = tmp_path / "oc"
        with pytest.raises(SystemExit) as exc:
            run_cli("oracle-compare", "--alpha", 0.5, "--beta", 0.5, f"--lambda={lam}",
                    "--nx-list", "50,100", "--nxi", 64, "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_lambda_at_the_oracle_range_runs(self, tmp_path):
        out = tmp_path / "oc"
        assert run_cli("oracle-compare", "--alpha", 0.5, "--beta", 0.5, "--lambda", 225,
                       "--nx-list", "32,64", "--nxi", 64, "--out", out) == 0
        assert (out / "oracle.csv").exists()

    def test_oracle_is_looked_up_on_bessel_at_call_time(self, tmp_path, monkeypatch):
        # perfbench times the oracle by wrapping bessel.analytic_resolvent_P;
        # a copy bound in cli at import would bypass the wrapper
        from fracdamp import bessel

        calls = []
        oracle = bessel.analytic_resolvent_P

        def counted(*args, **kwargs):
            calls.append(args[0])
            return oracle(*args, **kwargs)

        monkeypatch.setattr(bessel, "analytic_resolvent_P", counted)
        assert run_cli("oracle-compare", "--alpha", 0.5, "--beta", 0.5, "--lambda", 1e-3,
                       "--nx-list", "32,64", "--nxi", 64, "--out", tmp_path / "oc") == 0
        assert calls == [1e-3, 1e-3]

    def test_manifest_takes_complex_and_numpy_diagnostics(self, tmp_path):
        from fracdamp.cli import _write_manifest

        diagnostics = {"shift": np.complex128(1e-3 + 2j), "eigenvalue": -0.5j,
                       "sigma": np.float64(0.25), "count": np.int64(7), "ok": np.bool_(True)}
        _write_manifest(tmp_path, "oracle-compare", {"lambda": 1e-3}, [],
                        error={"message": "m", **diagnostics}, diagnostics=diagnostics)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        want = {"shift": [1e-3, 2.0], "eigenvalue": [0.0, -0.5], "sigma": 0.25, "count": 7,
                "ok": True}
        assert manifest["diagnostics"] == want
        assert manifest["error"] == {"message": "m", **want}


def _csv_writer_bytes(header, rows):
    """csv.writer's rendering in its default dialect, every value as ".17g"."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".17g") for v in row])
    return buf.getvalue().encode()


_PROBLEM = ("--problem", "P", "--alpha", 0.5, "--beta", 0.5)


@pytest.mark.parametrize("args", [
    ("simulate", "--alpha", 0.5, "--beta", 0.5, "--t-final", 1.0),
    ("simulate", "--config", "tempered.json", "--nx", 32, "--nxi", 16, "--t-final", 1.0),
    ("scan", "--config", "tempered.json", "--nx", 32, "--nxi", 16),
    ("simulate", *_PROBLEM, "--gamma", 0.0, "--t-final", 1.0),
    ("scan", *_PROBLEM, "--gamma", 0.0),
    ("scan", *_PROBLEM, "--nx", 8),
    ("simulate", *_PROBLEM, "--nx", 32, "--nxi", 16, "--t-final", "nan"),
    ("verify-kernel", "--beta", 0.5, "--nxi", 8),
    ("oracle-compare", "--alpha", 0.5, "--beta", 0.5, "--lambda", 1e-3, "--nx-list", "100,x"),
    ("oracle-compare", "--alpha", 0.5, "--beta", 0.5, "--lambda", 1e-3, "--nx-list", "32,8"),
    ("simulate", "--config", "variant-q.json", "--t-final", 1.0),
    ("scan", "--config", "beta-x.json"),
    ("simulate", "--config", "malformed.json", "--t-final", 1.0),
    ("simulate", "--config", "list.json", "--t-final", 1.0),
    ("simulate", "--config", "missing.json", "--t-final", 1.0),
    ("simulate", "--problem", "Pprime", "--beta", 0.5, "--kappa", "missing.json",
     "--t-final", 1.0),
    ("scan", "--problem", "Pprime", "--beta", 0.5, "--kappa", "no-values.json"),
], ids=["no-problem", "simulate-gamma", "scan-gamma", "simulate-gamma-flag",
        "scan-gamma-flag", "scan-nx", "simulate-t-final", "kernel-nxi", "oracle-nx-list",
        "oracle-nx", "config-variant", "config-beta", "config-malformed", "config-list",
        "config-missing", "kappa-missing", "kappa-no-values"])
def test_usage_error_leaves_no_directory(tmp_path, monkeypatch, args):
    # each command made --out before it checked its arguments, problem and
    # grids, and left it empty on exit 2; --gamma is no longer a flag.  A
    # problem file that cannot be read, is not a JSON object or holds a bad
    # value is a usage error too, not a traceback
    monkeypatch.chdir(tmp_path)
    spec = {"variant": "P", "alpha": 0.5, "beta": 0.5, "rho": 1.0}
    for name, doc in (("tempered.json", {**spec, "gamma": 0.5}),
                      ("variant-q.json", {**spec, "variant": "Q"}),
                      ("beta-x.json", {**spec, "beta": "x"}),
                      ("list.json", [spec]),
                      ("no-values.json", {"x": [0.25, 0.5, 1.0]})):
        Path(name).write_text(json.dumps(doc))
    Path("malformed.json").write_text('{"variant": "P", "alpha": 0.5,')
    out = tmp_path / "run"
    try:
        code = run_cli(*args, "--out", out)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not out.exists()


class TestCsvArtifacts:
    # signed zeros, thirds, a subnormal, large, non-finite and integral values
    VALUES = np.array([0.0, -0.0, 0.1, -1.0 / 3.0, 5e-324, 6.02214076e23,
                       np.inf, -np.inf, np.nan, 12345.0])

    def test_trace_scan_and_kernel_bytes_are_csv_writer_bytes(self, tmp_path):
        v = self.VALUES
        flux = np.empty(v.size, dtype=complex)
        flux.real, flux.imag = v[::-1], np.roll(v, 3)
        EnergyTrace(t=v, E=np.roll(v, 1), D=-v, flux=flux).to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == _csv_writer_bytes(
            ["t", "E", "D", "flux_re", "flux_im"],
            zip(v, np.roll(v, 1), -v, flux.real, flux.imag),
        )
        scan = scan_resolvent(make_operator(nx=32, nxi=16), np.geomspace(1e-3, 1e-1, v.size))
        scan.to_csv(tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_bytes() == _csv_writer_bytes(
            ["lambda", "norm"], zip(scan.lam, scan.norm)
        )
        KernelCheck(tau=v, quadrature_value=np.roll(v, 2), exact_value=-v, rel_error=v[::-1],
                    max_rel_error=0.0).to_csv(tmp_path / "kernel.csv")
        assert (tmp_path / "kernel.csv").read_bytes() == _csv_writer_bytes(
            ["tau", "quadrature", "exact", "rel_error"], zip(v, np.roll(v, 2), -v, v[::-1])
        )

    def test_oracle_bytes_are_csv_writer_bytes(self, tmp_path):
        code = run_cli("oracle-compare", "--alpha", 0.5, "--beta", 0.5, "--lambda", 1e-3,
                       "--nx-list", "50,100", "--nxi", 64, "--out", tmp_path)
        assert code == 0
        got = (tmp_path / "oracle.csv").read_bytes()
        # .17g reads back to the same double, so the parsed values are the written ones
        header, *rows = csv.reader(io.StringIO(got.decode(), newline=""))
        values = [[float(lam), float(l2), float(linf), int(nx)] for lam, l2, linf, nx in rows]
        assert [row[3] for row in values] == [50, 100]
        assert got == _csv_writer_bytes(header, values)

    def test_row_template_bytes_are_the_per_value_format(self, tmp_path):
        # one "%.17g" template per row against format(v, ".17g") per value:
        # the edge values, ints, bools and random doubles over many decades
        from fracdamp._csv import write_csv

        rng = np.random.default_rng(0)
        doubles = rng.standard_normal(3000) * 10.0 ** rng.uniform(-320, 307, 3000)
        edges = np.concatenate((self.VALUES, [np.finfo(float).tiny / 3, -5e-324,
                                              np.finfo(float).max, 2.0**53 + 2]))
        floats = np.concatenate((doubles, np.resize(edges, 3000)))
        ints = rng.integers(-2**62, 2**62, floats.size)
        bools = rng.random(floats.size) < 0.5
        write_csv(tmp_path / "rows.csv", ["f", "g", "i", "b"], [floats, floats[::-1], ints, bools])
        want = _csv_writer_bytes(["f", "g", "i", "b"],
                                 zip(floats.tolist(), floats[::-1].tolist(), ints.tolist(),
                                     bools.tolist()))
        assert (tmp_path / "rows.csv").read_bytes() == want


class TestPackageSurface:
    def test_all_is_what_the_cli_imports(self):
        # every name cli.py imports from a subpackage (the lazy import inside
        # oracle-compare included), plus the state type
        tree = ast.parse(Path(fracdamp.cli.__file__).read_text())
        used = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        assert set(fracdamp.__all__) == used | {"StateVector"}
        assert len(fracdamp.__all__) == len(set(fracdamp.__all__))
        assert all(hasattr(fracdamp, name) for name in fracdamp.__all__)

    def test_every_src_name_has_a_caller_outside_the_tests(self):
        # each module-level def and class of the package is named (Name,
        # Attribute or ImportFrom) somewhere in src/ or perfbench/ other than
        # its own definition; what only the tests call lives in tests/
        root = Path(__file__).resolve().parent.parent
        package = root / "src" / "fracdamp"
        defined, named = set(), set()
        for path in [*package.glob("*.py"), *(root / "perfbench").glob("*.py")]:
            tree = ast.parse(path.read_text())
            if path.parent == package:
                defined |= {f"{path.stem}.{node.name}" for node in tree.body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    named.update(alias.name for alias in node.names)
        assert defined
        assert sorted(d for d in defined if d.split(".")[1] not in named) == []

    def test_every_src_default_is_passed_outside_the_tests(self):
        # each parameter with a default, of a function or method of the
        # package, is passed by some call in src/ or perfbench/ to a callee
        # of that name (a class for __init__), by position or by keyword; a
        # value that only the tests set is a constant, not a parameter
        root = Path(__file__).resolve().parent.parent
        package = root / "src" / "fracdamp"
        settable, calls = {}, []  # (module.callee, parameter) -> position or None
        for path in [*package.glob("*.py"), *(root / "perfbench").glob("*.py")]:
            tree = ast.parse(path.read_text())
            calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
            if path.parent != package:
                continue
            for parent in ast.walk(tree):
                for fn in ast.iter_child_nodes(parent):
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    method = isinstance(parent, ast.ClassDef) and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list)
                    callee = parent.name if method and fn.name == "__init__" else fn.name
                    name = f"{path.stem}.{callee}"
                    positional = [*fn.args.posonlyargs, *fn.args.args][int(method):]
                    first = len(positional) - len(fn.args.defaults)
                    settable.update({(name, a.arg): i for i, a in enumerate(positional)
                                     if i >= first})
                    settable.update({(name, a.arg): None for a, d in
                                     zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None})

        def passes(call, callee, param, index):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name == callee and (
                any(k.arg in (param, None) for k in call.keywords)
                or (index is not None and len(call.args) > index)
                or any(isinstance(a, ast.Starred) for a in call.args))

        assert settable
        unset = [f"{name}({param}=)" for (name, param), index in sorted(settable.items())
                 if not any(passes(c, name.split(".")[1], param, index) for c in calls)]
        assert unset == []

    def test_cli_import_leaves_scipy_sparse_out(self, tmp_path):
        # import and the README decay and scan runs load scipy's LAPACK
        # extension alone, not the scipy.linalg package or scipy.special;
        # the Bessel oracle loads scipy's Gamma extension alone when it is
        # first called, still without the scipy.special package
        src = str(Path(fracdamp.__file__).parent.parent)
        code = """
import json, sys
import fracdamp.cli

def loaded():
    names = ("scipy.sparse", "scipy.linalg", "scipy.linalg._flapack", "scipy.special",
             "scipy.special._special_ufuncs")
    return [name for name in names if name in sys.modules]

seen = {"import": loaded()}
decay = ["simulate", "--problem", "P", "--alpha", "0.5", "--beta", "0.5", "--rho", "1",
         "--nx", "400", "--nxi", "200", "--t-final", "200", "--dt", "0.005"]
scan = ["scan", "--problem", "Pprime", "--alpha", "0.5", "--beta", "0.5", "--nx", "800",
        "--nxi", "200", "--lambda-min", "1e-4", "--lambda-max", "1e-1", "--points", "25"]
for name, args in (("decay", decay), ("scan", scan)):
    assert fracdamp.cli.main([*args, "--out", sys.argv[1] + "/" + name]) == 0
    seen[name] = loaded()
fracdamp.analytic_resolvent_P(1e-3, [0.25, 0.5, 1.0], None, 0.0, 0.5, 0.5, 1.0)
seen["oracle"] = loaded()
print(json.dumps(seen))
"""
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        seen = json.loads(out.stdout)
        lapack_only = ["scipy.linalg._flapack"]
        assert seen == {"import": lapack_only, "decay": lapack_only, "scan": lapack_only,
                        "oracle": [*lapack_only, "scipy.special._special_ufuncs"]}
