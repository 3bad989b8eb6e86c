"""Command-line driver: config in, CSV/JSON artifacts out.

Subcommands:
    equilibrium   profile.csv
    alpha         print alpha(s) for --xi, --s, once certified smallest
    dispersion    dispersion.csv + summary.json (lattice sweep up to cutoff)
    growth        growth.json for a single --xi
    classify      regime.json
    mode          mode.csv + mode.json for --xi
    oracle        trajectory.csv + rate.json for --xi
    extend        extension.csv for --input grid, order --m

Shared flags: --config PATH (required), --out DIR, --threads N (accepted
and ignored: every command runs serially; the flag stays only while the
benchmark passes it).  Exit codes: 0 success, 2 configuration/contract or
I/O error, 3 solver failure.  Artifacts are deterministic: rtstab.artifacts
writes them all, CSV floats with %.17g and JSON with sorted keys.

Start-up loads only what dispersion, growth, mode and oracle run: classify
and extend import their modules when they run, and main builds the parser of
the one command it was given (all of them for -h or an unknown command).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dispersion as disp
from . import evolve
from . import modes as modes_mod
from .artifacts import write_csv
from .artifacts import write_json as _write_json  # the name a tracer wraps
from .config import RunConfig, load_config
from .equilibrium import export_profile_csv, solve_equilibrium
from .errors import AnalyzerError, ConfigError, InvalidInput, SolverDivergence
from .variational import build_mesh, form_coefficients, is_min_eigenpair, min_eig


def _profile(cfg: RunConfig):
    return solve_equilibrium(cfg.law_plus, cfg.law_minus, cfg.params,
                             cfg.numerics.n_samples)


def _form_coefficients(cfg: RunConfig):
    """The one FormCoefficients of a run: its profile on the configured mesh."""
    mesh = build_mesh(cfg.params.b, cfg.params.ell,
                      cfg.numerics.n_minus, cfg.numerics.n_plus)
    return form_coefficients(mesh, _profile(cfg))


def _rounded_regime_inputs(profile, eps: float):
    """Apply the configured zero epsilon before the exact-table call."""
    params = profile.params
    jump = profile.jump if abs(profile.jump) > eps else 0.0
    sp = params.sigma_plus if abs(params.sigma_plus) > eps else 0.0
    sm = params.sigma_minus if abs(params.sigma_minus) > eps else 0.0
    sigma_c = disp.critical_tension(profile)
    if abs(sm - sigma_c) <= eps:
        sm = sigma_c
    return jump, sp, sm, sigma_c


def cmd_equilibrium(cfg, out, args) -> int:
    export_profile_csv(_profile(cfg), out / "profile.csv")
    return 0


def cmd_alpha(cfg, out, args) -> int:
    forms = _form_coefficients(cfg).at(args.xi)
    alpha, v = min_eig(forms, args.s)
    if not is_min_eigenpair(forms, args.s, alpha, v, cfg.numerics.eig_tol):
        raise SolverDivergence(
            f"alpha({args.s}) = {alpha!r} at |xi| = {args.xi} failed the "
            "smallest-eigenvalue certificate or the eig_tol residual test")
    print(f"{alpha:.17g}")
    return 0


def cmd_dispersion(cfg, out, args) -> int:
    summary = disp.sweep_lattice(_form_coefficients(cfg), cfg.numerics.xi_cutoff,
                                 cfg.numerics)
    disp.write_dispersion_csv(summary.curve, out / "dispersion.csv")
    _write_json(disp.summary_dict(summary), out / "summary.json")
    return 0


def cmd_growth(cfg, out, args) -> int:
    pt = disp.growth_rate(_form_coefficients(cfg), args.xi, cfg.numerics)
    _write_json({"xi": list(pt.xi), "xi_abs": pt.xi_abs, "lambda": pt.lam,
                 "alpha_at_star": pt.alpha_at_star, "iterations": pt.iterations,
                 "converged": pt.converged}, out / "growth.json")
    return 0


def cmd_classify(cfg, out, args) -> int:
    from .classify import regime_report
    inputs = _rounded_regime_inputs(_profile(cfg), cfg.numerics.zero_epsilon)
    _write_json(regime_report(*inputs), out / "regime.json")
    return 0


def _converged_point(cfg, xi):
    """The run's FormCoefficients and its growth_rate point at |xi| = xi,
    or SolverDivergence unless the point is converged."""
    coeffs = _form_coefficients(cfg)
    pt = disp.growth_rate(coeffs, xi, cfg.numerics)
    if not pt.converged:
        raise SolverDivergence(f"the point at |xi| = {xi} failed the smallest-eigenvalue "
                               "certificate or the eig_tol residual test")
    return coeffs, pt


def cmd_mode(cfg, out, args) -> int:
    coeffs, pt = _converged_point(cfg, args.xi)
    if pt.lam <= 0:
        raise InvalidInput(f"no growing mode at |xi| = {args.xi} (lambda = 0)")
    mode = modes_mod.assemble_mode(pt, coeffs)
    modes_mod.export_mode(mode, out / "mode.csv", out / "mode.json")
    return 0


def cmd_oracle(cfg, out, args) -> int:
    coeffs, pt = _converged_point(cfg, args.xi)
    ops = evolve.semidiscretize(coeffs, args.xi)
    if pt.lam > 0:
        state = evolve.state_from_mode(ops, modes_mod.assemble_mode(pt, coeffs))
        dt = cfg.numerics.dt if cfg.numerics.dt else 0.01 / pt.lam
        t_final = cfg.numerics.t_final if cfg.numerics.t_final else 6.0 / pt.lam
    else:
        state = evolve.interface_bump_state(ops)
        dt = cfg.numerics.dt if cfg.numerics.dt else 0.05
        t_final = cfg.numerics.t_final if cfg.numerics.t_final else 20.0
    if round(t_final / dt) < 1:
        raise InvalidInput(f"numerics.t_final = {t_final!r} must cover at least "
                           f"one step of numerics.dt = {dt!r}")
    traj = evolve.advance(state, ops, dt, t_final)
    evolve.write_trajectory_csv(traj, out / "trajectory.csv")
    fitted = evolve.measure_growth(traj, cfg.numerics.fit_window)
    # the run ends at the multiple of dt nearest the requested t_final
    gap = abs(fitted - pt.lam) / pt.lam if pt.lam > 0 else None
    _write_json({"xi_abs": args.xi, "lambda_variational": pt.lam,
                 "fitted_rate": fitted, "relative_gap": gap, "dt": dt,
                 "t_final": float(traj.times[-1])}, out / "rate.json")
    return 0


def cmd_extend(cfg, out, args) -> int:
    from .poisson_ext import ExtensionParams, InterfaceExtension, read_field_csv
    field = read_field_csv(args.input)
    try:
        params = ExtensionParams.default(args.m)
    except ValueError as exc:
        raise InvalidInput(f"--m {args.m} is not a supported matching order: {exc}") from exc
    ext = InterfaceExtension(field, params)
    levels = np.linspace(-cfg.params.b, cfg.params.ell, args.levels)
    grids = [np.real(ext.evaluate(float(x3))) for x3 in levels]
    i, j = np.indices(grids[0].shape).reshape(2, -1)
    write_csv(out / "extension.csv", "x3,i1,i2,value",
              [np.repeat(levels, i.size), np.tile(i, len(levels)),
               np.tile(j, len(levels)), np.concatenate([g.ravel() for g in grids])])
    return 0


COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "alpha": cmd_alpha,
    "dispersion": cmd_dispersion,
    "growth": cmd_growth,
    "classify": cmd_classify,
    "mode": cmd_mode,
    "oracle": cmd_oracle,
    "extend": cmd_extend,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the sub-parser of `command` alone, or of every
    command when command is None or unknown, so that -h lists them all."""
    ap = argparse.ArgumentParser(prog="rtstab",
                                 description="Two-layer compressible viscous "
                                             "stability analyzer")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; kept only while the "
                            "benchmark passes it")
        if name in ("alpha", "growth", "mode", "oracle"):
            p.add_argument("--xi", type=float, required=True,
                           help="frequency magnitude |xi|")
        if name == "alpha":
            p.add_argument("--s", type=float, required=True,
                           help="modified-problem parameter s")
        if name == "extend":
            p.add_argument("--input", required=True, help="grid field CSV")
            p.add_argument("--m", type=int, default=2, help="matching order, 0 to 12")
            p.add_argument("--levels", type=int, default=9,
                           help="number of x3 evaluation levels")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        for flag in ("xi", "s", "threads", "levels"):
            value = getattr(args, flag, None)
            if value is not None and not 0.0 < value < np.inf:
                raise InvalidInput(f"--{flag} must be finite and > 0, got {value}")
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out, args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but a solver failure
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InvalidInput, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalyzerError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
