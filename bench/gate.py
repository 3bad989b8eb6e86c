"""Output gates: tolerances and invariants that any correct solver meets.

Nothing here compares bytes, iteration counts, `converged` flags or timings,
so a faster root solve, another eigensolver or a vectorised assembler passes
as long as its answers stay within the solver's stated accuracy.  Each check
returns a list of problems; an empty list means the artifacts pass.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

from inputs import density_jump

S_MAX_FACTOR = 1.25      # numerics.s_max_factor; the configs keep the default
ROOT_TOL_MULTIPLE = 10   # lambda agrees with a reference to 10 root_tol S_max
ALPHA_TOL = 1e-8         # alpha_at_star agrees with a reference to this
PROBE_ALPHA_FLOOR = -1e-9
ORACLE_RATE_TOL = 0.02   # |fitted - variational| / variational
BALANCE_TOL = 1e-10      # energy identity at round-off (3.4e-13 at n = 400)
ORACLE_ROWS = 601        # t_final / dt = 600 steps plus the initial state
REL_EQ = 1e-12           # equality of floats that went through a text file


class _Problems(list):
    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def _physics(cfg: dict):
    """(cap, S_max) with cap = b g [rho] / mu_minus from the closed-form jump."""
    k = cfg["fluids"]["minus"]["law"]["params"][0]
    geo = cfg["geometry"]
    cap = geo["b"] * cfg["gravity"] * density_jump(k) / cfg["fluids"]["minus"]["mu"]
    return cap, S_MAX_FACTOR * cap


def lattice_keys(cfg: dict) -> Counter:
    """Exact |xi|^2 of the deduplicated lattice frequencies below the cutoff."""
    geo = cfg["geometry"]
    l1sq, l2sq = Fraction(geo["L1"]) ** 2, Fraction(geo["L2"]) ** 2
    cutoff_sq = Fraction(cfg["numerics"]["xi_cutoff"]) ** 2
    m_max = math.ceil(cfg["numerics"]["xi_cutoff"] * geo["L1"])
    n_max = math.ceil(cfg["numerics"]["xi_cutoff"] * geo["L2"])
    keys = {Fraction(m * m) / l1sq + Fraction(n * n) / l2sq
            for m in range(m_max + 1) for n in range(n_max + 1)}
    return Counter(k for k in keys if 0 < k < cutoff_sq)


def _row_key(cfg: dict, xi1: float, xi2: float) -> Fraction | None:
    """Exact |xi|^2 of a lattice point given as floats, None if off-lattice."""
    geo = cfg["geometry"]
    m, n = xi1 * geo["L1"], xi2 * geo["L2"]
    if not (math.isfinite(m) and math.isfinite(n)):
        return None
    if abs(m - round(m)) > 1e-9 or abs(n - round(n)) > 1e-9:
        return None
    return (Fraction(round(m) ** 2) / Fraction(geo["L1"]) ** 2
            + Fraction(round(n) ** 2) / Fraction(geo["L2"]) ** 2)


def _close(a: float, b: float, rel: float = REL_EQ) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def read_curve(out_dir) -> list[dict]:
    with open(Path(out_dir) / "dispersion.csv", newline="", encoding="utf-8") as fh:
        return [{"xi1": float(r["xi1"]), "xi2": float(r["xi2"]),
                 "xi_abs": float(r["xi_abs"]), "lambda": float(r["lambda"]),
                 "alpha": float(r["alpha_at_star"])}
                for r in csv.DictReader(fh)]


def _check_curve(cfg: dict, rows: list[dict], summary: dict, p: _Problems):
    """Shared checks: the rows are the exact lattice set and sigma_c holds."""
    keys = []
    for r in rows:
        key = _row_key(cfg, r["xi1"], r["xi2"])
        if p.check(key is not None, f"row xi = ({r['xi1']}, {r['xi2']}) is off the lattice"):
            keys.append(key)
            p.check(_close(r["xi_abs"], math.sqrt(key)),
                    f"row xi_abs {r['xi_abs']} != |({r['xi1']}, {r['xi2']})|")
        r["key"] = key
    expected = lattice_keys(cfg)
    got = Counter(keys)
    missing = sorted(float(k) for k in expected - got)
    extra = sorted(float(k) for k in got - expected)
    p.check(not missing, f"lattice |xi|^2 missing from dispersion.csv: {missing}")
    p.check(not extra, f"extra or duplicated |xi|^2 rows in dispersion.csv: {extra}")
    sigma_c = density_jump(cfg["fluids"]["minus"]["law"]["params"][0]) * cfg["gravity"] * max(
        cfg["geometry"]["L1"] ** 2, cfg["geometry"]["L2"] ** 2)
    p.check(_close(summary.get("sigma_c", math.nan), sigma_c, 1e-9),
            f"sigma_c {summary.get('sigma_c')} != closed form {sigma_c}")


def _check_reference(cfg: dict, rows: list[dict], reference: dict, p: _Problems):
    _cap, s_max = _physics(cfg)
    lam_tol = ROOT_TOL_MULTIPLE * cfg["numerics"]["root_tol"] * s_max
    ref = {_row_key(cfg, r["xi1"], r["xi2"]): r for r in reference["rows"]}
    for r in rows:
        want = ref.get(r["key"])
        if want is None:
            continue  # already reported by the lattice check
        p.check(abs(r["lambda"] - want["lambda"]) <= lam_tol,
                f"lambda at |xi| = {r['xi_abs']}: {r['lambda']} vs reference "
                f"{want['lambda']} (tol {lam_tol:.3g})")
        p.check(abs(r["alpha"] - want["alpha"]) <= ALPHA_TOL,
                f"alpha at |xi| = {r['xi_abs']}: {r['alpha']} vs reference "
                f"{want['alpha']} (tol {ALPHA_TOL:.3g})")


def check_sweep(out_dir, cfg: dict, reference: dict | None = None) -> list[str]:
    p = _Problems()
    rows = read_curve(out_dir)
    summary = json.loads((Path(out_dir) / "summary.json").read_text(encoding="utf-8"))
    _check_curve(cfg, rows, summary, p)
    cap, s_max = _physics(cfg)
    res_tol = ROOT_TOL_MULTIPLE * cfg["numerics"]["root_tol"] * s_max ** 2
    for r in rows:
        p.check(0.0 < r["lambda"] <= cap * (1 + 1e-9),
                f"lambda {r['lambda']} at |xi| = {r['xi_abs']} outside (0, {cap}]")
        p.check(abs(r["lambda"] ** 2 + r["alpha"]) <= res_tol,
                f"lambda^2 + alpha = {r['lambda'] ** 2 + r['alpha']:.3g} at "
                f"|xi| = {r['xi_abs']} exceeds {res_tol:.3g}")
    if rows:
        best = max(rows, key=lambda r: r["lambda"])
        p.check(_close(summary.get("Lambda", math.nan), best["lambda"]),
                f"Lambda {summary.get('Lambda')} != max row lambda {best['lambda']}")
        arg = summary.get("argmax_xi") or [math.nan, math.nan]
        p.check(_row_key(cfg, *arg) == best["key"],
                f"argmax_xi {summary.get('argmax_xi')} is not the row with the max lambda")
    if reference is not None:
        _check_reference(cfg, rows, reference, p)
    return p


def check_probe_scan(out_dir, cfg: dict, reference: dict | None = None) -> list[str]:
    p = _Problems()
    rows = read_curve(out_dir)
    summary = json.loads((Path(out_dir) / "summary.json").read_text(encoding="utf-8"))
    _check_curve(cfg, rows, summary, p)
    for r in rows:
        p.check(r["lambda"] == 0.0, f"probe row |xi| = {r['xi_abs']} has lambda {r['lambda']}")
        p.check(r["alpha"] >= PROBE_ALPHA_FLOOR,
                f"probe row |xi| = {r['xi_abs']} has alpha {r['alpha']} < {PROBE_ALPHA_FLOOR}")
    p.check(summary.get("Lambda") == 0.0, f"Lambda {summary.get('Lambda')} != 0")
    p.check(summary.get("attained") is True, f"attained {summary.get('attained')} is not true")
    if reference is not None:
        _check_reference(cfg, rows, reference, p)
    return p


def check_oracle(out_dir, cfg: dict, reference: dict | None = None) -> list[str]:
    p = _Problems()
    rate = json.loads((Path(out_dir) / "rate.json").read_text(encoding="utf-8"))
    lam, fitted = rate["lambda_variational"], rate["fitted_rate"]
    cap, s_max = _physics(cfg)
    if p.check(0.0 < lam <= cap * (1 + 1e-9), f"lambda_variational {lam} outside (0, {cap}]"):
        p.check(abs(fitted - lam) / lam <= ORACLE_RATE_TOL,
                f"fitted rate {fitted} vs lambda_variational {lam}: relative "
                f"mismatch {abs(fitted - lam) / lam:.3g} > {ORACLE_RATE_TOL}")
    with open(Path(out_dir) / "trajectory.csv", newline="", encoding="utf-8") as fh:
        traj = [(float(r["t"]), float(r["balance_residual"])) for r in csv.DictReader(fh)]
    p.check(len(traj) == ORACLE_ROWS, f"trajectory has {len(traj)} rows, not {ORACLE_ROWS}")
    residuals = [abs(b) for _t, b in traj]
    p.check(all(r <= BALANCE_TOL for r in residuals),  # a NaN fails too
            f"max |balance_residual| {max(residuals, default=math.nan):.3g} > {BALANCE_TOL}")
    times = [t for t, _b in traj]
    p.check(all(a < b for a, b in zip(times, times[1:])), "trajectory times are not increasing")
    if reference is not None:
        tol = ROOT_TOL_MULTIPLE * cfg["numerics"]["root_tol"] * s_max
        want = reference["lambda_variational"]
        p.check(abs(lam - want) <= tol,
                f"lambda_variational {lam} vs reference {want} (tol {tol:.3g})")
    return p


CHECKS = {"sweep": check_sweep, "probe_scan": check_probe_scan, "oracle": check_oracle}


def check(workload: str, out_dir, cfg: dict, reference: dict | None = None) -> list[str]:
    """Problems with one run's artifacts; unreadable artifacts are a problem too."""
    try:
        return list(CHECKS[workload](out_dir, cfg, reference))
    except (OSError, KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
