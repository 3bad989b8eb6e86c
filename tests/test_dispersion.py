"""Fixed-point rates, lattice sweep, critical quantities, bump candidate."""

import math

import numpy as np
import pytest

from rtstab.config import NumericsConfig
from rtstab.dispersion import (DispersionPoint, _bisect_root, _dedup_lattice,
                               critical_frequency, critical_tension,
                               growth_rate, negativity_probe, psi_bump,
                               psi_bump_norm_sq, sweep_lattice,
                               write_dispersion_csv)
from rtstab.errors import NoSignChange, NotUnstableOrientation
from rtstab.variational import assemble_forms, build_mesh, min_eig
from tests.conftest import unit_params


def test_critical_tension_examples(unstable_profile, params):
    assert critical_tension(unstable_profile, params) == \
        pytest.approx(np.e / 2, rel=1e-9)
    prm = unit_params(L1=2.0, L2=1.0)
    # jump*g = 1 scenario via direct formula check: sigma_c = max{4,1}*jump*g
    assert critical_tension(unstable_profile, prm) == \
        pytest.approx(4 * np.e / 2, rel=1e-9)


def test_critical_tension_zero_jump(params):
    from rtstab.equilibrium import PressureLaw, solve_equilibrium
    prof = solve_equilibrium(PressureLaw.isothermal(1.0),
                             PressureLaw.isothermal(1.0), params)
    assert abs(critical_tension(prof, params)) < 1e-12


def test_critical_frequency(unstable_profile, stable_profile):
    prm = unit_params(sigma_minus=0.5)
    assert critical_frequency(unstable_profile, prm) == \
        pytest.approx(math.sqrt(math.e), rel=1e-9)
    assert critical_frequency(unstable_profile, unit_params()) == math.inf
    with pytest.raises(NotUnstableOrientation):
        critical_frequency(stable_profile, prm)


def test_bump_norm_formula_vs_quadrature():
    from scipy.integrate import quad
    for b, ell, a in [(1.0, 1.0, 5.0), (0.7, 1.3, 6.0), (1.0, 1.0, 8.0)]:
        closed = psi_bump_norm_sq(b, ell, a)
        lo, _ = quad(lambda x: psi_bump(x, b, ell, a) ** 2, -b, 0.0)
        hi, _ = quad(lambda x: psi_bump(x, b, ell, a) ** 2, 0.0, ell)
        assert closed == pytest.approx(lo + hi, abs=1e-6)
    assert psi_bump_norm_sq(1.0, 1.0, 5.0) == \
        pytest.approx(120.0 / 162.421875, rel=1e-12)


def test_bump_shape():
    assert psi_bump(0.0, 1.0, 2.0, 5.0) == 1.0
    assert psi_bump(2.0, 1.0, 2.0, 5.0) == 0.0
    assert psi_bump(-1.0, 1.0, 2.0, 5.0) == 0.0


def test_negativity_probe_unstable(unstable_profile, params, mesh40):
    e_val = negativity_probe(unstable_profile, 1.0, 1e-3, mesh40, params)
    assert e_val < 0
    forms = assemble_forms(mesh40, unstable_profile, 1.0, params)
    alpha, _ = min_eig(forms, 1e-3)
    assert alpha < 0  # probe certificate agrees with the eigensolve


def test_negativity_probe_contract(unstable_profile, params, mesh40):
    with pytest.raises(ValueError):
        negativity_probe(unstable_profile, 1.0, 1e-3, mesh40, params, exponent=4)
    with pytest.raises(ValueError):
        negativity_probe(unstable_profile, 0.0, 1e-3, mesh40, params)


def test_growth_rate_unstable(unstable_profile, params, mesh40):
    pt = growth_rate(unstable_profile, 1.0, mesh40, params)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    assert pt.converged and pt.lam > 0
    assert abs(pt.lam ** 2 + pt.alpha_at_star) <= 1e-8 * s_max ** 2
    assert pt.alpha_at_star < 0
    assert pt.lam <= params.b * params.g * unstable_profile.jump / params.mu_minus + 1e-9


def test_growth_rate_unique_sign_change(unstable_profile, params, mesh40):
    # f is increasing: exactly one sign change over a 32-point bracket scan
    pt = growth_rate(unstable_profile, 1.0, mesh40, params)
    forms = assemble_forms(mesh40, unstable_profile, 1.0, params)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    svals = np.linspace(1e-8 * s_max, s_max, 32)
    signs = []
    for s in svals:
        a, _ = min_eig(forms, float(s))
        signs.append(math.copysign(1.0, s * s + a))
    flips = sum(1 for i in range(31) if signs[i] != signs[i + 1])
    assert flips == 1
    assert svals[signs.index(1.0) - 1] <= pt.lam <= svals[signs.index(1.0)]


def test_growth_rate_zero_above_cutoff(unstable_profile):
    prm = unit_params(sigma_minus=0.5)
    mesh = build_mesh(1.0, 1.0, 30, 30)
    xi_c = critical_frequency(unstable_profile, prm)
    pt = growth_rate(unstable_profile, xi_c * 1.05, mesh, prm)
    assert pt.lam == 0.0 and pt.alpha_at_star >= 0


def test_growth_rate_zero_stable_orientation(stable_profile, params, mesh40):
    pt = growth_rate(stable_profile, 1.0, mesh40, params)
    assert pt.lam == 0.0 and pt.alpha_at_star >= 0


def test_bisect_root_contracts():
    f = lambda s: (s - 2.0, None)
    root, val, _, iters = _bisect_root(f, 0.0, 10.0, -2.0, 8.0, 1e-12, 1e-12, 200)
    assert root == pytest.approx(2.0, abs=1e-11)
    with pytest.raises(NoSignChange):
        _bisect_root(f, 3.0, 10.0, 1.0, 8.0, 1e-12, 1e-12, 200)


def test_newton_in_bracket_falls_back_to_bisection():
    f = lambda s: (s - 2.0, None)
    plain = _bisect_root(f, 0.0, 10.0, -2.0, 8.0, 1e-12, 1e-12, 200)
    # a slope this small sends every Newton step far outside the bracket
    overshoot = _bisect_root(f, 0.0, 10.0, -2.0, 8.0, 1e-12, 1e-12, 200,
                             slope=lambda s, payload: 1e-9)
    assert overshoot[0] == pytest.approx(2.0, abs=1e-11)
    assert overshoot == plain  # every iterate was the bracket midpoint
    # the exact slope lands on the root right after the first midpoint
    root, val, _, iters = _bisect_root(f, 0.0, 10.0, -2.0, 8.0, 1e-12, 1e-12,
                                       200, slope=lambda s, payload: 1.0)
    assert (root, val, iters) == (2.0, 0.0, 2)


def test_newton_in_bracket_contracts_on_a_curved_f():
    f = lambda s: (s ** 3 + s - 10.0, None)
    root, val, _, iters = _bisect_root(f, 0.0, 10.0, -10.0, 1000.0, 1e-13,
                                       1e-13, 200,
                                       slope=lambda s, payload: 3 * s * s + 1)
    assert root == pytest.approx(2.0, abs=1e-13) and abs(val) <= 1e-13
    assert iters <= 10


def test_growth_rate_newton_readme_scenario(unstable_profile, params, mesh100):
    pt = growth_rate(unstable_profile, 1.0, mesh100, params)
    assert pt.converged and pt.iterations <= 12
    # the same root by plain bisection on the same forms
    forms = assemble_forms(mesh100, unstable_profile, 1.0, params)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    f = lambda s: (s * s + min_eig(forms, s)[0], None)
    lo, hi = 1e-8 * s_max, s_max
    root, *_ = _bisect_root(f, lo, hi, f(lo)[0], f(hi)[0], 1e-10 * s_max ** 2,
                            1e-10 * s_max, 200)
    assert abs(pt.lam - root) <= 10 * 1e-10 * s_max
    assert abs(pt.lam ** 2 + pt.alpha_at_star) <= 10 * 1e-10 * s_max ** 2


def test_converged_flag_comes_from_the_eigen_residual(unstable_profile, params,
                                                      mesh40):
    assert growth_rate(unstable_profile, 1.0, mesh40, params).converged
    strict = NumericsConfig(eig_tol=1e-300)
    assert not growth_rate(unstable_profile, 1.0, mesh40, params, strict).converged
    prm = unit_params(sigma_minus=0.5)
    probe = growth_rate(unstable_profile, 3.0, mesh40, prm, strict)
    assert probe.lam == 0.0 and not probe.converged


def test_dedup_lattice_exact(params):
    groups = _dedup_lattice(params, 1.5)
    keys = [float(k) for k, _ in groups]
    assert keys == [1.0, 2.0]
    assert groups[0][1] == (1, 0)
    assert groups[1][1] == (1, 1)
    # rectangular cell: (1,0) and (0,2) coincide when L2 = 2 L1
    prm = unit_params(L1=1.0, L2=2.0)
    groups = _dedup_lattice(prm, 1.2)
    reps = {float(k): mn for k, mn in groups}
    assert reps[1.0] == (1, 0)  # (0, +-2) deduplicated into the same class
    assert 0.25 in reps and reps[0.25] == (0, 1)


def test_sweep_admissible_set(unstable_profile):
    # sigma_minus tuned so the instability window holds |xi| in {1, sqrt(2)}
    prm = unit_params(sigma_minus=unstable_profile.jump / 1.5 ** 2)
    mesh = build_mesh(1.0, 1.0, 24, 24)
    summary = sweep_lattice(unstable_profile, mesh, prm, cutoff=1.5)
    assert [round(p.xi_abs ** 2, 12) for p in summary.curve] == [1.0, 2.0]
    assert all(p.lam > 0 for p in summary.curve)
    assert summary.attained


def test_sweep_supercritical_all_zero(unstable_profile):
    sigma_c = unstable_profile.jump  # g = L = 1
    prm = unit_params(sigma_minus=1.05 * sigma_c, sigma_plus=0.1)
    mesh = build_mesh(1.0, 1.0, 24, 24)
    summary = sweep_lattice(unstable_profile, mesh, prm, cutoff=2.5)
    assert summary.Lambda == 0.0
    assert len(summary.curve) >= 3
    assert all(p.lam == 0.0 for p in summary.curve)
    assert all(p.alpha_at_star >= 0 for p in summary.curve)


def test_sweep_window_and_probes(unstable_profile):
    # 0 < sigma_minus < sigma_c puts xi_c = sqrt(2.5) inside the cutoff:
    # |xi| in {1, sqrt(2)} grow, and the rest are zero by a nonnegative probe
    prm = unit_params(sigma_minus=0.4 * unstable_profile.jump)
    mesh = build_mesh(1.0, 1.0, 24, 24)
    summary = sweep_lattice(unstable_profile, mesh, prm, cutoff=3.0)
    assert summary.xi_c == pytest.approx(math.sqrt(2.5), rel=1e-12)
    growing = [p for p in summary.curve if p.lam > 0]
    zero = [p for p in summary.curve if p.lam == 0.0]
    assert [round(p.xi_abs ** 2, 12) for p in growing] == [1.0, 2.0]
    assert len(zero) >= 3 and len(growing) + len(zero) == len(summary.curve)
    assert all(p.alpha_at_star >= 0 for p in zero)


def test_sweep_unstable_bound_and_threads(unstable_profile, params):
    mesh = build_mesh(1.0, 1.0, 24, 24)
    summary = sweep_lattice(unstable_profile, mesh, params, cutoff=3.0)
    bound = params.b * params.g * unstable_profile.jump / params.mu_minus
    assert summary.Lambda > 0
    assert all(p.lam <= bound * (1 + 1e-6) for p in summary.curve)
    assert not summary.attained  # sigma_minus = 0: cutoff-limited scan
    # thread pool reduces to identical results
    par = sweep_lattice(unstable_profile, mesh, params, cutoff=3.0, threads=4)
    assert [p.lam for p in par.curve] == [p.lam for p in summary.curve]


def test_sweep_requires_finite_cutoff(unstable_profile, params, mesh40):
    with pytest.raises(ValueError):
        sweep_lattice(unstable_profile, mesh40, params, cutoff=math.inf)


def test_dispersion_csv(tmp_path):
    pt = DispersionPoint((1.0, 0.0), 1.0, 0.5, -0.25, np.zeros(2), 7, True)
    path = tmp_path / "curve.csv"
    write_dispersion_csv([pt], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "xi1,xi2,xi_abs,lambda,alpha_at_star,iterations,converged"
    assert lines[1] == "1,0,1,0.5,-0.25,7,true"
