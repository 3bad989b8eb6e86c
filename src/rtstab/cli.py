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
and extend import their modules when they run, and parse_args reads argv
from the FLAGS table without argparse, whose import and first parse (it
loads gettext and locale) cost about 3 ms per run.  A flag is
`--name value` or `--name=value`, with no abbreviations; a usage error
prints the usage line and exits 2, and -h prints it and exits 0.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

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

# each command's flags, name -> (type, default); a default of None marks a
# required flag
_SHARED = {"config": (str, None), "out": (str, "out"), "threads": (int, 1)}
_XI = {"xi": (float, None)}
FLAGS = {
    "equilibrium": _SHARED,
    "alpha": {**_SHARED, **_XI, "s": (float, None)},
    "dispersion": _SHARED,
    "growth": {**_SHARED, **_XI},
    "classify": _SHARED,
    "mode": {**_SHARED, **_XI},
    "oracle": {**_SHARED, **_XI},
    "extend": {**_SHARED, "input": (str, None), "m": (int, 2), "levels": (int, 9)},
}


def _usage(command: str | None) -> str:
    """The usage line of `command`, or of rtstab when it is None."""
    if command is None:
        return f"usage: rtstab [-h] {{{','.join(COMMANDS)}}} ..."
    flags = [f"--{name} {name.upper()}" if default is None
             else f"[--{name} {name.upper()}]"
             for name, (_type, default) in FLAGS[command].items()]
    return f"usage: rtstab {command} [-h] {' '.join(flags)}"


def _print_usage(command: str | None) -> NoReturn:
    print(_usage(command))
    raise SystemExit(0)


def _usage_error(command: str | None, message: str) -> NoReturn:
    print(f"{_usage(command)}\nrtstab: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its flags from argv, `--name value` or `--name=value`
    (the last of a repeated flag wins), as a namespace of command and flag
    names.  -h prints the usage line and exits 0; a usage error prints it
    with the error and exits 2."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _print_usage(None)
    if command not in COMMANDS:
        _usage_error(None, "a command is required" if command is None else
                     f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    flags, tokens = FLAGS[command], iter(argv[1:])
    values = {name: default for name, (_type, default) in flags.items()}
    for token in tokens:
        if token in ("-h", "--help"):
            _print_usage(command)
        name, eq, text = token.partition("=")
        if not name.startswith("--") or name[2:] not in flags:
            _usage_error(command, f"unrecognized argument {token!r}")
        name = name[2:]
        if not eq:
            text = next(tokens, None)
            if text is None:
                _usage_error(command, f"argument --{name}: expected one argument")
        type_ = flags[name][0]
        try:
            values[name] = type_(text)
        except ValueError:
            _usage_error(command, f"argument --{name}: invalid {type_.__name__} "
                                  f"value: {text!r}")
    missing = [f"--{name}" for name, value in values.items() if value is None]
    if missing:
        _usage_error(command, "the following arguments are required: "
                              + ", ".join(missing))
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
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
