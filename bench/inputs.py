"""Seeded benchmark inputs: one rtstab JSON config per workload and seed.

Every workload uses the README's unit isothermal pair (k_plus = 1 and
b = ell = g = p_atm = mu = L1 = L2 = 1).  The seed only draws k_minus from
K_MINUS_RANGE; seed 0 gives exactly 2, the README scenario.  The program
receives the generated files and nothing else.
"""

from __future__ import annotations

import math
import random

K_MINUS_RANGE = (1.8, 2.2)
ROOT_TOL = 1e-10  # numerics.root_tol, written into every config

# (subcommand, extra argv, elements per layer)
WORKLOADS = {
    "sweep": ("dispersion", [], 100),
    "probe_scan": ("dispersion", [], 100),
    "oracle": ("oracle", ["--xi", "1.0"], 400),
}


def k_minus(seed: int) -> float:
    """Lower-layer isothermal constant drawn from the seed."""
    if seed == 0:
        return 2.0
    return random.Random(seed).uniform(*K_MINUS_RANGE)


def density_jump(k: float) -> float:
    """Closed-form [rho] = e (1 - 1/k_minus) of the unit isothermal pair.

    The upper layer is rho_+(x3) = exp(1 - x3), so the interface pressure is
    e and the lower layer starts at e / k_minus.
    """
    return math.e * (1.0 - 1.0 / k)


def make_config(workload: str, seed: int) -> dict:
    """The JSON config document for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    k = k_minus(seed)
    n = WORKLOADS[workload][2]
    numerics = {"n_minus": n, "n_plus": n, "root_tol": ROOT_TOL}
    tension = {"sigma_plus": 0.0, "sigma_minus": 0.0}
    if workload == "sweep":
        numerics["xi_cutoff"] = 4.0
    elif workload == "probe_scan":
        # Just past sigma_c = [rho] g max(L1, L2)^2: the instability window
        # closes below the smallest lattice frequency, so every point is a probe.
        numerics["xi_cutoff"] = 12.0
        tension = {"sigma_plus": 0.1, "sigma_minus": 1.05 * density_jump(k)}
    return {
        "geometry": {"b": 1.0, "ell": 1.0, "L1": 1.0, "L2": 1.0},
        "gravity": 1.0,
        "atmosphere": 1.0,
        "fluids": {
            "plus": {"law": {"kind": "isothermal", "params": [1.0]},
                     "mu": 1.0, "mu_prime": 0.0},
            "minus": {"law": {"kind": "isothermal", "params": [k]},
                      "mu": 1.0, "mu_prime": 0.0},
        },
        "surface_tension": tension,
        "numerics": numerics,
    }


def cli_argv(workload: str, config_path, out_dir) -> list[str]:
    """Arguments for rtstab.cli.main: single-threaded, artifacts in out_dir."""
    command, extra, _n = WORKLOADS[workload]
    return [command, "--config", str(config_path), "--out", str(out_dir),
            "--threads", "1", *extra]
