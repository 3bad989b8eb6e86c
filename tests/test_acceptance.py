"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The shared scenario is the unit isothermal pair (P+ = rho,
P- = 2 rho, b = ell = g = p_atm = mu = 1): interface jump e/2 > 0.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from rtstab.classify import RegimeLabel, classify_regime
from rtstab.dispersion import critical_tension, growth_rate, sweep_lattice
from rtstab.equilibrium import PressureLaw, solve_equilibrium
from rtstab.evolve import (advance, interface_bump_state, measure_growth,
                           semidiscretize, state_from_mode)
from rtstab.modes import assemble_mode
from rtstab.variational import (build_mesh, evaluate_energy, form_coefficients,
                                min_eig)
from tests.conftest import unit_params, unit_profile
from tests.oracles import (assemble_forms_3field, dense, full_energy,
                           min_eig_3field, min_eig_dense, psi_bump,
                           psi_bump_norm_sq, rotate_mode)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def coeffs100(unstable_profile, mesh100):
    return form_coefficients(mesh100, unstable_profile)


@pytest.fixture(scope="module")
def rate_at_one(coeffs100):
    return growth_rate(coeffs100, 1.0)


def test_criterion_01_equilibrium_exactness(params):
    t0 = time.time()
    prof = solve_equilibrium(PressureLaw.isothermal(1.0),
                             PressureLaw.isothermal(2.0), params, 257)
    xs = np.linspace(0.0, 1.0, 257)
    xm = np.linspace(-1.0, 0.0, 257)
    rel_p = np.abs(prof.rho_plus(xs) - np.exp(1 - xs)) / np.exp(1 - xs)
    exact_m = 0.5 * np.e * np.exp(-xm / 2)
    rel_m = np.abs(prof.rho_minus(xm) - exact_m) / exact_m
    worst = max(rel_p.max(), rel_m.max())
    elapsed = time.time() - t0
    report(1, "equilibrium reproduces the closed-form profiles to 1e-8",
           worst <= 1e-8 and elapsed < 1.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_bump_norm():
    t0 = time.time()
    closed = psi_bump_norm_sq(1.0, 1.0, 5.0)
    lo, _ = quad(lambda x: psi_bump(x, 1.0, 1.0, 5.0) ** 2, -1.0, 0.0)
    hi, _ = quad(lambda x: psi_bump(x, 1.0, 1.0, 5.0) ** 2, 0.0, 1.0)
    numeric = lo + hi
    printed = 120.0 / 162.421875
    ok = abs(closed - numeric) <= 1e-6 and abs(closed - printed) <= 1e-12
    elapsed = time.time() - t0
    report(2, "bump-candidate norm matches the closed form 120/162.421875",
           ok and elapsed < 1.0, f"closed {closed:.9f} vs quad {numeric:.9f}")


def test_criterion_03_energy_lower_bound(params):
    t0 = time.time()
    configs = [
        (PressureLaw.isothermal(1.0), PressureLaw.isothermal(2.0), unit_params()),
        (PressureLaw.isothermal(0.5), PressureLaw.isothermal(1.7),
         unit_params(mu_prime_plus=0.3, mu_prime_minus=0.1)),
        (PressureLaw.polytropic(1.0, 2.0), PressureLaw.polytropic(2.0, 2.0),
         unit_params(g=1.5, p_atm=0.8)),
        (PressureLaw.isothermal(1.0), PressureLaw.polytropic(1.5, 1.4),
         unit_params(sigma_minus=0.2, sigma_plus=0.1)),
        (PressureLaw.isothermal(0.8), PressureLaw.isothermal(2.5),
         unit_params(mu_plus=0.4, mu_minus=2.0)),
    ]
    mesh = build_mesh(1.0, 1.0, 30, 30)
    rng = np.random.default_rng(2024)
    worst_margin = math.inf
    for law_p, law_m, prm in configs:
        prof = solve_equilibrium(law_p, law_m, prm, 129)
        assert prof.jump > 0
        coeffs = form_coefficients(mesh, prof)
        for _ in range(4):
            xi = float(rng.uniform(0.3, 3.0))
            s = float(rng.uniform(1e-4, 1.0))
            forms = coeffs.at(xi)
            M = dense(forms.M)
            for _ in range(50):
                v = rng.standard_normal(mesh.ndof)
                v /= math.sqrt(v @ M @ v)
                e, _ = evaluate_energy(forms, v, s)
                worst_margin = min(worst_margin, e + prm.g * xi)
    elapsed = time.time() - t0
    report(3, "E(v;s) >= -g|xi| - 1e-10 on 1000 random J-normalized vectors",
           worst_margin >= -1e-10 and elapsed < 10.0,
           f"worst margin {worst_margin:.3e}, {elapsed:.1f}s")


def test_criterion_04_monotonicity(unstable_profile, params, coeffs100):
    t0 = time.time()
    forms = coeffs100.at(1.0)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    s_grid = np.geomspace(1e-4 * s_max, s_max, 10)
    K1 = dense(forms.K1)
    alphas, e1s = [], []
    for s in s_grid:
        a, v = min_eig(forms, float(s))
        alphas.append(a)
        e1s.append(float(v @ K1 @ v))
    ok = True
    for i in range(9):
        if alphas[i + 1] < alphas[i] - 1e-12:
            ok = False
        if e1s[i + 1] > 1e-12 and alphas[i + 1] - alphas[i] <= 0:
            ok = False
    elapsed = time.time() - t0
    report(4, "alpha(s) nondecreasing on a 10-point geometric grid, strict "
              "when E1 > 1e-12", ok and elapsed < 30.0,
           f"alpha range [{alphas[0]:.4f}, {alphas[-1]:.4f}], {elapsed:.1f}s")


def test_criterion_05_growth_bound(unstable_profile, params):
    t0 = time.time()
    mesh = build_mesh(1.0, 1.0, 64, 64)
    summary = sweep_lattice(form_coefficients(mesh, unstable_profile), cutoff=7.0)
    bound = params.b * params.g * unstable_profile.jump / params.mu_minus
    n_pts = len(summary.curve)
    worst = max(p.lam / bound for p in summary.curve)
    elapsed = time.time() - t0
    report(5, "every swept rate obeys lambda <= b g jump / mu_minus",
           n_pts >= 20 and worst <= 1.0 + 1e-6 and elapsed < 300.0,
           f"{n_pts} frequencies, max lambda/bound {worst:.4f}, {elapsed:.0f}s")


def test_criterion_06_stability_threshold(unstable_profile):
    t0 = time.time()
    sigma_c = critical_tension(unstable_profile)
    mesh = build_mesh(1.0, 1.0, 48, 48)
    hi = sweep_lattice(form_coefficients(
        mesh, unit_profile(sigma_plus=0.1, sigma_minus=1.05 * sigma_c)), cutoff=2.5)
    probes_ok = all(p.alpha_at_star >= -1e-9 for p in hi.curve)
    lo = sweep_lattice(form_coefficients(
        mesh, unit_profile(sigma_plus=0.1, sigma_minus=0.5 * sigma_c)), cutoff=2.0)
    elapsed = time.time() - t0
    report(6, "sigma_- = 1.05 sigma_c stabilizes every frequency; "
              "0.5 sigma_c leaves a growing one",
           probes_ok and hi.Lambda == 0.0 and lo.Lambda > 0 and elapsed < 300.0,
           f"Lambda(1.05) = {hi.Lambda}, Lambda(0.5) = {lo.Lambda:.5f}, {elapsed:.0f}s")


def test_criterion_07_eigensolver_oracle(params):
    t0 = time.time()
    mesh = build_mesh(1.0, 1.0, 20, 20)  # 80 dofs
    profiles = [
        solve_equilibrium(PressureLaw.isothermal(1.0), PressureLaw.isothermal(2.0),
                          params, 65),
        solve_equilibrium(PressureLaw.isothermal(2.0), PressureLaw.isothermal(1.0),
                          params, 65),
        solve_equilibrium(PressureLaw.polytropic(1.0, 2.0),
                          PressureLaw.polytropic(1.6, 2.0), params, 65),
    ]
    coeffs = [form_coefficients(mesh, prof) for prof in profiles]
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(50):
        xi = float(rng.uniform(0.2, 4.0))
        s = float(rng.uniform(1e-4, 1.6))
        forms = coeffs[k % 3].at(xi)
        a_dense, _ = min_eig_dense(forms, s)
        a_iter, _ = min_eig(forms, s)
        worst = max(worst, abs(a_dense - a_iter))
    elapsed = time.time() - t0
    report(7, "dense and banded bisection eigensolves agree to 1e-9 on 50 triples",
           worst <= 1e-9 and elapsed < 60.0, f"max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_mesh_convergence(unstable_profile):
    t0 = time.time()
    samples = [(1.0, 0.075), (2.0, 0.05), (0.7, 0.3)]
    worst_order = math.inf
    for xi, s in samples:
        alphas = []
        for n in (25, 50, 100, 200):
            mesh = build_mesh(1.0, 1.0, n, n)
            forms = form_coefficients(mesh, unstable_profile).at(xi)
            a, _ = min_eig(forms, s)
            alphas.append(a)
        d = np.abs(np.diff(alphas))
        orders = np.log2(d[:-1] / d[1:])
        worst_order = min(worst_order, orders.min())
    elapsed = time.time() - t0
    report(8, "alpha(s) Richardson order >= 1.9 over n in {25,50,100,200}",
           worst_order >= 1.9 and elapsed < 120.0,
           f"min order {worst_order:.2f}, {elapsed:.0f}s")


def test_criterion_09_time_evolution_oracle(unstable_profile):
    t0 = time.time()
    mesh = build_mesh(1.0, 1.0, 200, 200)
    coeffs = form_coefficients(mesh, unstable_profile)
    pt = growth_rate(coeffs, 1.0)
    mode = assemble_mode(pt, coeffs)
    ops = semidiscretize(coeffs, 1.0)
    traj = advance(state_from_mode(ops, mode), ops, 0.01 / pt.lam, 6.0 / pt.lam)
    fitted = measure_growth(traj, 0.5)
    rel = abs(fitted - pt.lam) / pt.lam
    elapsed = time.time() - t0
    report(9, "fitted exponential rate matches the variational lambda to 2%",
           rel <= 0.02 and elapsed < 60.0,
           f"lambda {pt.lam:.6f} vs fit {fitted:.6f}, rel {rel:.2%}, {elapsed:.0f}s")


def test_criterion_10_energy_identity(stable_profile, rate_at_one, coeffs100):
    t0 = time.time()
    ops_s = semidiscretize(
        form_coefficients(build_mesh(1.0, 1.0, 60, 60), stable_profile), 1.0)
    traj_s = advance(interface_bump_state(ops_s), ops_s, 0.05, 20.0)
    fe = full_energy(ops_s, traj_s)
    non_increasing = bool(np.all(np.diff(fe) <= 1e-10 * np.maximum(fe[:-1], 1e-300)))

    pt = rate_at_one
    mode = assemble_mode(pt, coeffs100)
    ops_u = semidiscretize(coeffs100, 1.0)
    traj_u = advance(state_from_mode(ops_u, mode), ops_u, 0.01 / pt.lam, 6.0 / pt.lam)
    egy = traj_u.energy[::10]
    tt = traj_u.times[::10]
    half = tt.size // 2
    rate = float(np.polyfit(tt[half:], np.log(egy[half:]), 1)[0])
    rel = abs(rate - 2 * pt.lam) / (2 * pt.lam)
    elapsed = time.time() - t0
    report(10, "stable full energy non-increasing; unstable energy grows at 2 lambda",
           non_increasing and rel <= 0.02 and elapsed < 120.0,
           f"energy rate {rate:.6f} vs 2 lambda {2 * pt.lam:.6f}, {elapsed:.0f}s")


def test_criterion_11_equivariance_and_theta(unstable_profile, rate_at_one, coeffs100,
                                             mesh100):
    t0 = time.time()
    mode = assemble_mode(rate_at_one, coeffs100)
    t = 0.93
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    back = rotate_mode(rotate_mode(mode, R), R.T)
    scale = np.abs(mode.phi).max()
    round_trip = max(np.abs(back.phi - mode.phi).max() / scale,
                     np.abs(back.theta - mode.theta).max() / scale,
                     abs(back.xi[0] - mode.xi[0]), abs(back.xi[1] - mode.xi[1]))
    f3 = assemble_forms_3field(mesh100, unstable_profile, (1.0, 0.0))
    _a3, v3 = min_eig_3field(f3, rate_at_one.lam)
    theta = v3[1::3]
    mass = f3.M[1::3, 1::3]
    theta_norm = math.sqrt(abs(theta @ mass @ theta))
    elapsed = time.time() - t0
    report(11, "rotation round-trip exact to 1e-15; 3-field theta-norm <= 1e-8",
           round_trip <= 1e-15 and theta_norm <= 1e-8 and elapsed < 60.0,
           f"round-trip {round_trip:.1e}, theta {theta_norm:.1e}, {elapsed:.0f}s")


def test_criterion_12_regime_table():
    t0 = time.time()
    cells = [
        ((-1.0, 0.0, 0.0, -2.0), RegimeLabel.STABLE_ALMOST_EXPONENTIAL_DECAY),
        ((0.0, 0.0, 0.0, 0.0), RegimeLabel.LOCALLY_WELL_POSED),
        ((1.0, 0.0, 0.0, 2.0), RegimeLabel.NONLINEARLY_UNSTABLE),
        ((-1.0, 1.0, 0.5, -2.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
        ((0.0, 1.0, 0.5, 0.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
        ((1.0, 1.0, 0.5, 2.0), RegimeLabel.NONLINEARLY_UNSTABLE),
        ((-1.0, 1.0, 2.0, -2.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
        ((0.0, 1.0, 2.0, 0.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
        ((1.0, 1.0, 2.0, 2.0), RegimeLabel.LOCALLY_WELL_POSED),
        ((-1.0, 1.0, 3.0, -2.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
        ((0.0, 1.0, 3.0, 0.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
        ((1.0, 1.0, 3.0, 2.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
    ]
    ok = all(classify_regime(*args) is want for args, want in cells)
    elapsed = time.time() - t0
    report(12, "all 12 regime-table cells reproduced exactly",
           ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_13_vandermonde_and_matching():
    from rtstab.poisson_ext import (DownwardExtension, ExtensionParams,
                                    InterfaceExtension, PeriodicField)
    t0 = time.time()
    moments_ok = True
    for m in range(7):
        p = ExtensionParams.default(m)
        for ell in range(m + 1):
            moment = float(np.sum(p.alphas * (-p.lambdas) ** ell))
            if abs(moment - 1.0) > 1e-10:
                moments_ok = False
    rng = np.random.default_rng(5)
    field = PeriodicField(rng.standard_normal((16, 16)), 1.0, 2.0)
    trace = np.abs(DownwardExtension(field, 0.7).evaluate(0.7) - field.values).max()
    p2 = ExtensionParams.default(2)
    two = InterfaceExtension(field, p2)
    scale = np.abs(field.values).max()
    match = max(np.abs(two.up.evaluate(0.0, ell) - two.down.evaluate(0.0, ell)).max()
                / (scale * 10.0 ** ell) for ell in range(p2.m + 1))
    beyond = np.abs(two.up.evaluate(0.0, p2.m + 1)
                    - two.down.evaluate(0.0, p2.m + 1)).max()
    elapsed = time.time() - t0
    report(13, "moment identities to 1e-10, trace to 1e-12, derivative "
               "matching through order m",
           moments_ok and trace <= 1e-12 and match <= 1e-10 and beyond > 1e-6
           and elapsed < 5.0,
           f"trace {trace:.1e}, match {match:.1e}, {elapsed:.1f}s")
