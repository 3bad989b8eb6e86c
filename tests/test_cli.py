"""End-to-end CLI runs against temporary configs and output directories."""

import importlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import rtstab
from bench.inputs import WORKLOADS, cli_argv
from bench.spans import TARGETS
from rtstab import evolve, variational
from rtstab.cli import COMMANDS, main, parse_args
from rtstab.config import load_config
from rtstab.errors import ConfigError
from tests.oracles import min_eig_dense


def write_config(path, *, k_plus=1.0, k_minus=2.0, sigma_plus=0.0,
                 sigma_minus=0.0, mu_minus=1.0, n=24, cutoff=1.8, **numerics):
    doc = {
        "geometry": {"b": 1.0, "ell": 1.0, "L1": 1.0, "L2": 1.0},
        "gravity": 1.0,
        "atmosphere": 1.0,
        "fluids": {
            "plus": {"law": {"kind": "isothermal", "params": [k_plus]},
                     "mu": 1.0, "mu_prime": 0.0},
            "minus": {"law": {"kind": "isothermal", "params": [k_minus]},
                      "mu": mu_minus, "mu_prime": 0.0},
        },
        "surface_tension": {"sigma_plus": sigma_plus, "sigma_minus": sigma_minus},
        "numerics": {"n_minus": n, "n_plus": n, "n_samples": 65,
                     "xi_cutoff": cutoff, **numerics},
    }
    path.write_text(json.dumps(doc))
    return path


def test_classify_unstable(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "regime.json").read_text())
    assert report["regime"] == "nonlinearly_unstable"
    assert report["jump"] > 0


def test_classify_zero_epsilon_rounds_jump(tmp_path):
    # equal laws: |jump| ~ 1e-13 from round-off, rounded to exactly 0
    cfg = write_config(tmp_path / "cfg.json", k_plus=1.5, k_minus=1.5)
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "regime.json").read_text())
    assert report["jump"] == 0.0
    assert report["regime"] == "locally_well_posed"


def test_dispersion_supercritical_all_zero(tmp_path):
    sigma_c = float(np.e / 2)
    cfg = write_config(tmp_path / "cfg.json", sigma_plus=0.1,
                       sigma_minus=1.1 * sigma_c, cutoff=1.6)
    out = tmp_path / "o"
    assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "dispersion.csv").read_text().splitlines()[1:]
    assert len(rows) >= 2
    assert all(float(r.split(",")[3]) == 0.0 for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["Lambda"] == 0.0 and summary["attained"] is True


def test_dispersion_unstable_and_determinism(tmp_path):
    # --threads is accepted and changes no byte
    cfg = write_config(tmp_path / "cfg.json", cutoff=1.5)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["dispersion", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["dispersion", "--config", str(cfg), "--out", str(out2),
                 "--threads", "3"]) == 0
    assert (out1 / "dispersion.csv").read_bytes() == (out2 / "dispersion.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["Lambda"] > 0
    assert summary["xi_c"] == "inf"


def test_dispersion_readme_config_is_deterministic(tmp_path):
    # the README config: one chain of 8 growing rows, each after the first
    # started from its predecessor's root vector
    cfg = write_config(tmp_path / "cfg.json", n=100, cutoff=4.0, n_samples=513)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("dispersion.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = (out1 / "dispersion.csv").read_text().splitlines()[1:]
    assert len(rows) == 8 and all(r.endswith(",true") for r in rows)


def test_alpha_prints_value(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["alpha", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--xi", "1.0", "--s", "0.01"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed < 0


@pytest.mark.parametrize("k", [0, 1])
def test_alpha_prints_only_a_certified_smallest_eigenvalue(k, tmp_path, capsys,
                                                          monkeypatch):
    # eigenpair k of the dense reference: the second has a round-off
    # residual, but the certificate refuses it, so nothing is printed
    monkeypatch.setattr("rtstab.cli.min_eig",
                        lambda forms, s: min_eig_dense(forms, s, k))
    cfg = write_config(tmp_path / "cfg.json")
    code = main(["alpha", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--xi", "1.0", "--s", "0.01"])
    out, err = capsys.readouterr()
    if k == 0:
        assert code == 0 and float(out) < 0
    else:
        assert code == 3 and out == "" and err.startswith("solver error")


def test_alpha_refuses_a_residual_above_eig_tol(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", eig_tol=1e-300)
    assert main(["alpha", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--xi", "1.0", "--s", "0.01"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "eig_tol" in err


@pytest.mark.parametrize("command, artifact", [("mode", "mode.csv"),
                                               ("oracle", "rate.json")])
def test_mode_and_oracle_refuse_a_root_that_is_not_converged(tmp_path, capsys,
                                                             command, artifact):
    cfg = write_config(tmp_path / "cfg.json", eig_tol=1e-300)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--xi", "1.0"]) == 3
    assert "eig_tol" in capsys.readouterr().err
    assert not (out / artifact).exists()


def test_growth_and_mode_artifacts(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "o"
    assert main(["growth", "--config", str(cfg), "--out", str(out),
                 "--xi", "1.0"]) == 0
    growth = json.loads((out / "growth.json").read_text())
    assert growth["lambda"] > 0 and growth["converged"] is True
    assert main(["mode", "--config", str(cfg), "--out", str(out),
                 "--xi", "1.0"]) == 0
    sidecar = json.loads((out / "mode.json").read_text())
    assert sidecar["lambda"] == pytest.approx(growth["lambda"], rel=1e-12)


def test_growth_converged_follows_eig_tol(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", eig_tol=1e-300)
    out = tmp_path / "o"
    assert main(["growth", "--config", str(cfg), "--out", str(out),
                 "--xi", "1.0"]) == 0
    growth = json.loads((out / "growth.json").read_text())
    assert growth["lambda"] > 0 and growth["converged"] is False


def test_mode_rejects_stable_frequency(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", k_plus=2.0, k_minus=1.0)
    assert main(["mode", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--xi", "1.0"]) == 2


def test_oracle_artifacts(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", n=40, t_final=None)
    out = tmp_path / "o"
    assert main(["oracle", "--config", str(cfg), "--out", str(out),
                 "--xi", "1.0"]) == 0
    rate = json.loads((out / "rate.json").read_text())
    assert rate["fitted_rate"] == pytest.approx(rate["lambda_variational"], rel=0.05)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,abs_eta_minus,abs_eta_plus,energy,dissipation,balance_residual"


def test_oracle_rate_reports_the_relative_gap(tmp_path):
    # |fitted - lambda| / lambda for a growing mode, null when lambda is 0
    for name, k_plus, k_minus in (("grow", 1.0, 2.0), ("stable", 2.0, 1.0)):
        cfg = write_config(tmp_path / f"{name}.json", k_plus=k_plus, k_minus=k_minus)
        out = tmp_path / name
        assert main(["oracle", "--config", str(cfg), "--out", str(out),
                     "--xi", "1.0"]) == 0
        rate = json.loads((out / "rate.json").read_text())
        lam, fitted = rate["lambda_variational"], rate["fitted_rate"]
        if name == "grow":
            assert lam > 0 and rate["relative_gap"] == abs(fitted - lam) / lam
        else:
            assert lam == 0.0 and rate["relative_gap"] is None


def test_oracle_rate_reports_the_reached_time(tmp_path):
    # round(1.0 / 0.3) = 3 steps end at t = 0.9, not at the requested 1.0
    cfg = write_config(tmp_path / "cfg.json", dt=0.3, t_final=1.0)
    out = tmp_path / "o"
    assert main(["oracle", "--config", str(cfg), "--out", str(out),
                 "--xi", "1.0"]) == 0
    rate = json.loads((out / "rate.json").read_text())
    last = (out / "trajectory.csv").read_text().splitlines()[-1]
    assert rate["t_final"] == float(last.split(",")[0]) == 3 * 0.3
    assert rate["dt"] == 0.3


def test_oracle_too_short_names_the_keys(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", dt=2.0, t_final=0.5)
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--xi", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "numerics.t_final" in err and "numerics.dt" in err


def test_oracle_readme_config_steps_without_pivoting(tmp_path, monkeypatch):
    # the README pair at 400 elements per layer (the benchmark's oracle
    # size): the velocity step matrix L is positive definite, so cholesky
    # factors it and no step goes through the pivoted band LU
    calls, lu = [], evolve.lu
    monkeypatch.setattr(evolve, "lu", lambda ab: calls.append(1) or lu(ab))
    cfg = write_config(tmp_path / "cfg.json", n=400, cutoff=4.0, n_samples=513)
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--xi", "1.0"]) == 0
    assert calls == []


def test_oracle_overflowing_energy_exit_3(tmp_path, capsys):
    # 6,000 steps of dt = 1 grow the mode past |y| ~ 1e154, where its
    # quadratic energy overflows while the states stay finite: the run fails
    # at that step, before any file is written and without a warning
    cfg = write_config(tmp_path / "cfg.json", n=12, dt=1.0, t_final=6000.0)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["oracle", "--config", str(cfg), "--out", str(out), "--xi", "1.0"])
    err = capsys.readouterr().err
    assert code == 3 and caught == []
    assert err.startswith("solver error: ") and err.count("\n") == 1, err
    assert "energy" in err and "step" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["mode", "oracle"])
def test_mode_and_oracle_determinism(tmp_path, command):
    # both read the minimizer that the dispersion solve returns
    artifacts = {"mode": ("mode.csv", "mode.json"),
                 "oracle": ("trajectory.csv", "rate.json")}[command]
    cfg = write_config(tmp_path / "cfg.json", n=40, t_final=None)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--xi", "1.0"]) == 0
    for name in artifacts:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_extend_artifacts(tmp_path):
    from rtstab.poisson_ext import PeriodicField, write_field_csv
    rng = np.random.default_rng(0)
    grid = tmp_path / "grid.csv"
    write_field_csv(PeriodicField(rng.standard_normal((8, 8)), 1.0, 1.0), grid)
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "o"
    assert main(["extend", "--config", str(cfg), "--out", str(out),
                 "--input", str(grid), "--m", "2", "--levels", "5"]) == 0
    rows = (out / "extension.csv").read_text().splitlines()
    assert rows[0] == "x3,i1,i2,value"
    assert len(rows) == 1 + 5 * 64


def write_field_header(path, L1, L2):
    path.write_text(f"N1,N2,L1,L2\n2,2,{L1},{L2}\n0.5,1.5\n1.0,2.0\n")
    return path


def assert_one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(needle in err for needle in needles), err
    return err


@pytest.mark.parametrize("period", ["nan", "inf"])
@pytest.mark.parametrize("side", ["L1", "L2"])
def test_extend_rejects_bad_period_exit_2(tmp_path, capsys, side, period):
    lengths = {"L1": "1", "L2": "1", side: period}
    grid = write_field_header(tmp_path / "grid.csv", lengths["L1"], lengths["L2"])
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--input", str(grid)]) == 2
    assert_one_error_line(capsys, "periodicity lengths must be finite and > 0")
    assert not (tmp_path / "o" / "extension.csv").exists()


@pytest.mark.parametrize("order, code", [("-1", 2), ("0", 0), ("12", 0), ("13", 2),
                                         ("1000000", 2)])
def test_extend_order_flag(tmp_path, capsys, order, code):
    # --m 0 is value matching with a single term; the default nodes refuse
    # order 13 and above in floating point, before any exact arithmetic
    grid = write_field_header(tmp_path / "grid.csv", 1, 1)
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["extend", "--config", str(cfg), "--out", str(out),
                 "--input", str(grid), "--m", order, "--levels", "3"]) == code
    assert time.perf_counter() - start < 2.0
    if code:
        assert_one_error_line(capsys, "--m")
    else:
        assert len((out / "extension.csv").read_text().splitlines()) == 1 + 3 * 4


@pytest.mark.parametrize("body, line", [
    pytest.param("2,2,1,1\n0.5,abc\n1.0,2.0\n", "line 3", id="not_a_number"),
    pytest.param("2,2,1,1\n0.5,1.5\n1.0,nan\n", "line 4", id="not_finite"),
    pytest.param("3,2,1,1\n0.5,1.5\n1.0,2.0\n", "line 5", id="fewer_rows_than_n1"),
    pytest.param("2,2,1,1\n0.5,1.5\n1.0,2.0\n\n3.0,4.0\n", "line 6",
                 id="rows_past_n1"),
    pytest.param("2,2,1,1\n0.5\n1.0,2.0\n", "line 3", id="short_row"),
    pytest.param("2,2,1,1\n0.5,1.5\n1.0,2.0,3.0\n", "line 4", id="long_row"),
    pytest.param("2,x,1,1\n0.5,1.5\n1.0,2.0\n", "line 2", id="n2_not_an_integer"),
    pytest.param("2,2,1\n0.5,1.5\n1.0,2.0\n", "line 2", id="l2_missing"),
    pytest.param("1,2,1,1\n0.5,1.5\n", "line 2", id="n1_below_2")])
def test_extend_malformed_field_csv_exit_2(tmp_path, capsys, body, line):
    grid = tmp_path / "grid.csv"
    grid.write_text("N1,N2,L1,L2\n" + body)
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--input", str(grid)]) == 2
    assert_one_error_line(capsys, "grid.csv", line + ": expected")


@pytest.mark.parametrize("k", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_bad_pressure_coefficient_exit_2(tmp_path, capsys, side, k):
    cfg = write_config(tmp_path / "cfg.json", **{f"k_{side}": k})
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = assert_one_error_line(capsys, f"fluids.{side}.law", "K must be finite and > 0")
    assert "polytropic" not in err


def test_io_errors_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["extend", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--input", str(tmp_path / "missing.csv")]) == 2
    assert_one_error_line(capsys, "missing.csv")
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["classify", "--config", str(cfg), "--out", str(taken)]) == 2
    assert_one_error_line(capsys, "taken")


def test_bench_argv_parses():
    # the benchmark passes --threads, so the flag must stay accepted until
    # its argv stops passing it
    for workload in WORKLOADS:
        args = parse_args(cli_argv(workload, "cfg.json", "out"))
        assert args.command == WORKLOADS[workload][0] and args.threads == 1


def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", mu_minus=-1.0)
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "mu" in capsys.readouterr().err


def test_unreadable_config_exit_2(tmp_path):
    assert main(["classify", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_solver_error_exit_3(tmp_path, capsys):
    # tabulated law whose table cannot reach p_atm: InverseFailure -> exit 3
    doc = json.loads(write_config(tmp_path / "base.json").read_text())
    doc["fluids"]["plus"]["law"] = {"kind": "tabulated",
                                    "rho": [1.0, 1.2, 1.4, 1.6],
                                    "p": [0.05, 0.08, 0.11, 0.14]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["equilibrium", "classify"])
def test_pressure_overflow_exit_3(tmp_path, capsys, command):
    # K rho^2.5 overflows in the lower layer of a column 1e300 deep
    doc = json.loads(write_config(tmp_path / "base.json").read_text())
    doc["geometry"]["b"] = 1e300
    for side in ("plus", "minus"):
        doc["fluids"][side]["law"] = {"kind": "polytropic", "params": [1.0, 2.5]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: P") and " x3 " in err, err
    assert list(out.iterdir()) == []


def test_linalg_error_exit_3(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet a failed factorization is a
    # solver failure, not a configuration error
    def failing_eigensolve(forms, s):
        raise np.linalg.LinAlgError("eigenvalue algorithm did not converge")

    monkeypatch.setattr("rtstab.cli.min_eig", failing_eigensolve)
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["alpha", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--xi", "1.0", "--s", "0.1"]) == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    *((command, flag, value)
      for command, flag in (("growth", "--xi"), ("oracle", "--xi"),
                            ("alpha", "--xi"), ("alpha", "--s"))
      for value in ("nan", "inf", "0", "-1")),
    ("dispersion", "--threads", "0"), ("dispersion", "--threads", "-1"),
    ("extend", "--levels", "0"), ("extend", "--levels", "-3")])
def test_nonpositive_or_nonfinite_flag_exit_2(tmp_path, capsys, command, flag, value):
    # the flags are checked before any file is read, so extend's --input
    # need not exist
    cfg = write_config(tmp_path / "cfg.json")
    args = {"alpha": {"--xi": "1.0", "--s": "0.1"}, "dispersion": {},
            "extend": {"--input": str(tmp_path / "field.csv")}}.get(command, {"--xi": "1.0"})
    args[flag] = value
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv + [a for kv in args.items() for a in kv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{flag} must be finite and > 0" in err


# what no command of the benchmark may load: any scipy module (its package
# init included), numpy.polynomial, fractions, the modules of classify and
# extend, and argparse with the gettext and locale of its first parse
UNLOADED = ("import sys\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith("
            "('scipy.', 'numpy.polynomial')) or m in ('fractions', 'decimal', "
            "'rtstab.classify', 'rtstab.poisson_ext', 'argparse', 'gettext', "
            "'locale')))\n")


def _run_fresh(code: str) -> list[str]:
    """The lines that code prints in a fresh interpreter importing rtstab
    from this checkout."""
    src = str(Path(rtstab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_default_run_skips_interpolate_and_optimize(tmp_path):
    # neither the isothermal path nor a tabulated law, whose PCHIP and
    # inverse are rtstab's own, loads any scipy module
    cfg = write_config(tmp_path / "cfg.json", n=12, cutoff=1.2)
    doc = json.loads(cfg.read_text())
    rho = np.linspace(0.5, 3.0, 60).tolist()
    doc["fluids"]["plus"]["law"] = {"kind": "tabulated", "rho": rho, "p": rho}
    tabulated = tmp_path / "tabulated.json"
    tabulated.write_text(json.dumps(doc))
    for config in (cfg, tabulated):
        out = tmp_path / config.stem
        code = ("from rtstab.cli import main\n"
                f"assert main(['dispersion', '--config', {str(config)!r}, "
                f"'--out', {str(out)!r}]) == 0\n" + UNLOADED)
        assert _run_fresh(code) == ["[]"]
        assert (out / "dispersion.csv").is_file()


def test_startup_loads_no_scipy_subpackage(tmp_path):
    # scipy.linalg and scipy.sparse load scipy._lib._util, whose array-API
    # layer imports numpy.f2py and numpy.testing: most of a bare start-up.
    # Neither the import nor a dispersion, a mode and an oracle run may load
    # them, nor anything else of UNLOADED
    cfg = write_config(tmp_path / "cfg.json", n=12)
    heavy = ("numpy.f2py", "numpy.testing")
    code = ("import sys\n"
            "import rtstab.cli\n"
            f"heavy = {heavy!r}\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n" + UNLOADED +
            f"base = ['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]\n"
            "assert rtstab.cli.main(['dispersion'] + base) == 0\n"
            "assert rtstab.cli.main(['mode', '--xi', '1.0'] + base) == 0\n"
            "assert rtstab.cli.main(['oracle', '--xi', '1.0'] + base) == 0\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n" + UNLOADED)
    assert _run_fresh(code) == ["[]"] * 4
    assert (tmp_path / "o" / "mode.csv").is_file()
    assert (tmp_path / "o" / "trajectory.csv").is_file()


@pytest.mark.parametrize("argv", [["-h"], ["rayleigh"], []])
def test_help_lists_every_command(argv, capsys):
    # main builds the parser of the one command it runs; help, an unknown
    # command and none at all still name every command
    with pytest.raises(SystemExit):
        main(argv)
    captured = capsys.readouterr()
    assert len(COMMANDS) == 8
    assert "{" + ",".join(COMMANDS) + "}" in captured.out + captured.err


@pytest.mark.parametrize("argv, code", [
    (["growth", "--config", "c", "--xi", "1", "--tau", "2"], 2),  # unknown flag
    (["dispersion", "--config", "c", "--xi", "1"], 2),  # a flag dispersion lacks
    (["growth", "--config", "c", "--xi"], 2),  # no value
    (["growth", "--config", "c", "--xi", "abc"], 2),  # not a float
    (["growth", "--xi", "1"], 2),  # no --config
    (["oracle", "-h"], 0),
])
def test_parse_args_syntax_and_usage_errors(argv, code, capsys):
    # both flag spellings give one namespace; a usage error exits 2 with the
    # usage line and an error on stderr, and -h exits 0 naming the flags
    assert (parse_args(["growth", "--config", "c", "--xi", "1.0"])
            == parse_args(["growth", "--config=c", "--xi=1.0"]))
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    if code:
        assert "rtstab: error: " in captured.err and captured.out == ""
    else:
        assert "--xi XI" in captured.out and captured.err == ""


def test_load_config_validates(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    rc = load_config(cfg)
    assert rc.numerics.n_minus == 24
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    cfg2 = write_config(tmp_path / "cfg2.json", scheme="rk9")
    with pytest.raises(ConfigError, match="unknown numerics option: scheme"):
        load_config(cfg2)
    # a value of the wrong JSON type names its key and the expected type
    for i, (key, value) in enumerate([
            ("eig_tol", "1e-10"), ("eig_tol", True), ("root_tol", [1e-10]),
            ("dt", "0.1"), ("n_minus", True), ("n_plus", "24")]):
        cfg_t = write_config(tmp_path / f"type{i}.json", **{key: value})
        kind = "an integer" if key.startswith("n_") else r"a number \(int or float\)"
        with pytest.raises(ConfigError, match=f"numerics.{key} must be {kind}"):
            load_config(cfg_t)
    for factor in (0.5, 1.0):  # S_max must lie above the growth bound
        cfg3 = write_config(tmp_path / "cfg3.json", s_max_factor=factor)
        with pytest.raises(ConfigError, match="s_max_factor must be > 1"):
            load_config(cfg3)
    # json.load accepts NaN and Infinity; counts must be JSON integers
    nan, inf = float("nan"), float("inf")
    for i, kwargs in enumerate([
            {"eig_tol": nan}, {"root_tol": nan}, {"zero_epsilon": nan},
            {"xi_cutoff": inf}, {"s_max_factor": nan}, {"s_max_factor": inf},
            {"fit_window": nan}, {"dt": nan}, {"t_final": inf},
            {"n_minus": 40.5}, {"n_plus": 24.0}, {"n_samples": 64.5},
            {"sigma_minus": nan}, {"sigma_plus": inf}, {"mu_minus": nan},
            {"k_minus": nan}, {"k_plus": inf}]):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / f"bad{i}.json", **kwargs))
    for i, (where, value) in enumerate([
            (("geometry", "b"), nan), (("gravity",), inf),
            (("fluids", "minus", "law"), {"kind": "polytropic", "params": [1.0, nan]}),
            (("fluids", "minus", "law"),
             {"kind": "tabulated", "rho": [0.5, 1.0, 2.0, 3.0], "p": [1.0, 2.0, 4.0, nan]})]):
        doc = json.loads(cfg.read_text())
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(path)
    # a section that is not an object, and a physical value of the wrong
    # JSON type, name their key
    for i, (where, value, match) in enumerate([
            (("surface_tension",), None, "surface_tension must be a JSON object"),
            (("surface_tension",), [], "surface_tension must be a JSON object"),
            (("surface_tension",), "x", "surface_tension must be a JSON object"),
            (("surface_tension",), 3, "surface_tension must be a JSON object"),
            (("gravity",), True, "gravity must be a number"),
            (("gravity",), "1.0", "gravity must be a number"),
            (("atmosphere",), "2", "atmosphere must be a number"),
            (("geometry", "ell"), False, "geometry.ell must be a number"),
            (("fluids", "plus", "mu"), "1", "fluids.plus.mu must be a number"),
            (("fluids", "minus", "mu_prime"), True, "fluids.minus.mu_prime must be a number"),
            (("surface_tension", "sigma_minus"), "0.1",
             "surface_tension.sigma_minus must be a number"),
            (("fluids", "plus", "law"), {"kind": "isothermal", "params": [True]},
             r"fluids.plus.law.params must be a number"),
            (("fluids", "minus", "law"), {"kind": "polytropic", "params": [1.0, "2"]},
             r"fluids.minus.law.params must be a number"),
            (("fluids", "minus", "law"),
             {"kind": "tabulated", "rho": [0.5, 1.0, True, 3.0], "p": [1.0, 2.0, 4.0, 8.0]},
             r"fluids.minus.law.rho must be a number")]):
        doc = json.loads(cfg.read_text())
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path = tmp_path / f"typed{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    nan_tol = write_config(tmp_path / "nan_tol.json", eig_tol=nan)
    assert main(["growth", "--config", str(nan_tol), "--out", str(tmp_path / "o"),
                 "--xi", "1.0"]) == 2


def test_missing_pressure_law_exits_2(tmp_path, capsys):
    for side in ("plus", "minus"):
        doc = json.loads(write_config(tmp_path / "cfg.json").read_text())
        del doc["fluids"][side]["law"]
        path = tmp_path / f"no_law_{side}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"missing config key: fluids.{side}.law"):
            load_config(path)
        assert main(["growth", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--xi", "1.0"]) == 2
        assert f"fluids.{side}.law" in capsys.readouterr().err



@pytest.mark.parametrize("kind, params", [("isothermal", []), ("isothermal", [1.0, 2.0]),
                                          ("polytropic", [1.0]),
                                          ("polytropic", [1.0, 2.0, 3.0])])
def test_closed_form_law_takes_exactly_its_parameters(tmp_path, capsys, kind, params):
    # isothermal is [K] and polytropic [K, gamma]: a missing number is not
    # defaulted and an extra one is not dropped or read as gamma
    doc = json.loads(write_config(tmp_path / "cfg.json").read_text())
    doc["fluids"]["minus"]["law"] = {"kind": kind, "params": params}
    path = tmp_path / "arity.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="fluids.minus.law"):
        load_config(path)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert_one_error_line(capsys, "fluids.minus.law")

def test_bench_span_targets_resolve_but_assemble_forms():
    # the benchmark times each layer by wrapping these names in place, and a
    # name that no longer resolves is timed as 0 instead of failing the run.
    # The one-frequency assembler left the package for tests/oracles.py: the
    # forms come from form_coefficients, which the benchmark does not wrap yet
    for module, attr, _span, _attrs in TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        if (module, attr) == ("rtstab.dispersion", "assemble_forms"):
            assert fn is None
        else:
            assert callable(fn), f"{module}.{attr}"


@pytest.mark.parametrize("command", ["alpha", "dispersion", "growth", "mode", "oracle",
                                     "equilibrium", "classify"])
def test_one_field_evaluation_per_command(command, tmp_path, monkeypatch):
    # every command that solves at a frequency reads one FormCoefficients,
    # so the mesh is built and the profile fields are evaluated once per
    # run; the profile-only commands build neither
    calls = 0 if command in ("equilibrium", "classify") else 1
    names = ("build_mesh", "layer_fields", "form_coefficients")
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(variational, name)

        def counted(*args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("rtstab") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    cfg = write_config(tmp_path / "cfg.json", n=12)
    extra = {"alpha": ["--xi", "1.0", "--s", "0.1"], "growth": ["--xi", "1.0"],
             "mode": ["--xi", "1.0"], "oracle": ["--xi", "1.0"]}.get(command, [])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *extra]) == 0
    assert counts == dict.fromkeys(names, calls)
