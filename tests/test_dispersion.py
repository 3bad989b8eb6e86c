"""Fixed-point rates, lattice sweep, critical quantities, bump candidate."""

import math

import numpy as np
import pytest

from rtstab import dispersion, variational
from rtstab.config import NumericsConfig
from rtstab.dispersion import (DispersionPoint, _bisect_root, _dedup_lattice,
                               critical_frequency, critical_tension,
                               growth_rate, psi_bump, psi_bump_norm_sq,
                               sweep_lattice, write_dispersion_csv)
from rtstab.equilibrium import PressureLaw, solve_equilibrium
from rtstab.errors import NoSignChange, NotUnstableOrientation, SolverDivergence
from rtstab.evolve import EvolutionOperators, semidiscretize
from rtstab.variational import (build_mesh, eig_residual, form_coefficients,
                                min_eig)
from tests.conftest import unit_params, unit_profile
from tests.oracles import negativity_probe


def test_critical_tension_examples(unstable_profile):
    assert critical_tension(unstable_profile) == pytest.approx(np.e / 2, rel=1e-9)
    # direct formula check: sigma_c = max{4,1}*jump*g
    assert critical_tension(unit_profile(L1=2.0, L2=1.0)) == \
        pytest.approx(4 * np.e / 2, rel=1e-9)
    # g enters through the profile, whose jump it also sets: e^2/2 at g = 2
    assert critical_tension(unit_profile(g=2.0)) == pytest.approx(np.e ** 2, rel=1e-9)


def test_critical_tension_zero_jump(params):
    from rtstab.equilibrium import PressureLaw, solve_equilibrium
    prof = solve_equilibrium(PressureLaw.isothermal(1.0),
                             PressureLaw.isothermal(1.0), params)
    assert abs(critical_tension(prof)) < 1e-12


def test_critical_frequency(unstable_profile, stable_profile):
    assert critical_frequency(unit_profile(sigma_minus=0.5)) == \
        pytest.approx(math.sqrt(math.e), rel=1e-9)
    assert critical_frequency(unstable_profile) == math.inf
    with pytest.raises(NotUnstableOrientation):
        critical_frequency(stable_profile)


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


def test_negativity_probe_unstable(unstable_profile, mesh40):
    e_val = negativity_probe(unstable_profile, 1.0, 1e-3, mesh40)
    assert e_val < 0
    forms = form_coefficients(mesh40, unstable_profile).at(1.0)
    alpha, _ = min_eig(forms, 1e-3)
    assert alpha < 0  # probe certificate agrees with the eigensolve


def test_negativity_probe_contract(unstable_profile, mesh40):
    with pytest.raises(ValueError):
        negativity_probe(unstable_profile, 1.0, 1e-3, mesh40, exponent=4)
    with pytest.raises(ValueError):
        negativity_probe(unstable_profile, 0.0, 1e-3, mesh40)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_frequency_and_s_must_be_finite_and_positive(bad, unstable_profile,
                                                     mesh40):
    # NaN passed the old `<= 0` guards and reached LAPACK
    coeffs = form_coefficients(mesh40, unstable_profile)
    for entry in (coeffs.at, lambda xi: growth_rate(coeffs, xi),
                  lambda xi: semidiscretize(coeffs, xi),
                  lambda xi: EvolutionOperators(coeffs, xi),
                  lambda s: min_eig(coeffs.at(1.0), s)):
        with pytest.raises(ValueError):
            entry(bad)


def test_growth_rate_unstable(unstable_profile, params, mesh40):
    pt = growth_rate(form_coefficients(mesh40, unstable_profile), 1.0)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    assert pt.converged and pt.lam > 0
    assert abs(pt.lam ** 2 + pt.alpha_at_star) <= 1e-8 * s_max ** 2
    assert pt.alpha_at_star < 0
    assert pt.lam <= params.b * params.g * unstable_profile.jump / params.mu_minus + 1e-9


def test_growth_rate_unique_sign_change(unstable_profile, params, mesh40):
    # f is increasing: exactly one sign change over a 32-point bracket scan
    coeffs = form_coefficients(mesh40, unstable_profile)
    pt, forms = growth_rate(coeffs, 1.0), coeffs.at(1.0)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    svals = np.linspace(1e-8 * s_max, s_max, 32)
    signs = []
    for s in svals:
        a, _ = min_eig(forms, float(s))
        signs.append(math.copysign(1.0, s * s + a))
    flips = sum(1 for i in range(31) if signs[i] != signs[i + 1])
    assert flips == 1
    assert svals[signs.index(1.0) - 1] <= pt.lam <= svals[signs.index(1.0)]


def test_growth_rate_zero_above_cutoff():
    prof = unit_profile(sigma_minus=0.5)
    mesh = build_mesh(1.0, 1.0, 30, 30)
    pt = growth_rate(form_coefficients(mesh, prof), critical_frequency(prof) * 1.05)
    assert pt.lam == 0.0 and pt.alpha_at_star >= 0


def test_growth_rate_zero_stable_orientation(stable_profile, mesh40):
    pt = growth_rate(form_coefficients(mesh40, stable_profile), 1.0)
    assert pt.lam == 0.0 and pt.alpha_at_star >= 0


def test_bisect_root_contracts():
    calls = []

    def above(s):
        calls.append(s)
        return s > 2.0

    root, iters = _bisect_root(above, 0.0, 10.0, 1e-12, 200)
    assert root == pytest.approx(2.0, abs=1e-12) and iters == len(calls)
    # the width is tested before each halving: 10 / 2^44 is the first
    # bracket at most 1e-12 wide, and no call is spent past it
    assert iters == 44 == math.ceil(math.log2(10.0 / 1e-12))
    assert _bisect_root(above, 1.0, 1.5, 1.0, 200) == (1.25, 0)
    with pytest.raises(SolverDivergence):
        _bisect_root(above, 0.0, 10.0, 1e-12, 10)


def test_growth_rate_newton_readme_scenario(unstable_profile, params, mesh100):
    coeffs = form_coefficients(mesh100, unstable_profile)
    pt, forms = growth_rate(coeffs, 1.0), coeffs.at(1.0)
    assert pt.converged and pt.iterations <= 12
    # the same root by plain bisection on the sign of s^2 + alpha(s)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    root, _ = _bisect_root(lambda s: s * s + min_eig(forms, s)[0] > 0,
                           1e-8 * s_max, s_max, 1e-10 * s_max, 200)
    assert abs(pt.lam - root) <= 10 * 1e-10 * s_max
    assert abs(pt.lam ** 2 + pt.alpha_at_star) <= 10 * 1e-10 * s_max ** 2


def _tight_root(forms, s_max):
    """Reference root: bisection on the sign of s^2 + alpha(s) from min_eig,
    to a bracket of 1e-13 S_max."""
    return _bisect_root(lambda s: s * s + min_eig(forms, s)[0] > 0,
                        1e-8 * s_max, s_max, 1e-13 * s_max, 200)[0]


def _scenario(name, unstable_profile):
    """(profile, |xi|, S_max) of the enclosure scenarios."""
    if name == "polytropic":
        prm = unit_params(mu_prime_plus=0.3, mu_prime_minus=0.2, sigma_plus=0.1)
        prof = solve_equilibrium(PressureLaw.polytropic(1.0, 1.4),
                                 PressureLaw.polytropic(2.0, 1.4), prm)
        xi = 1.0
    elif name == "isothermal":
        prof, xi = unstable_profile, 1.0
    else:  # a fraction of xi_c at sigma_minus = 0.1
        prof = unit_profile(sigma_minus=0.1)
        xi = float(name) * critical_frequency(prof)
    prm = prof.params
    s_max = 1.25 * prm.b * prm.g * prof.jump / prm.mu_minus
    return prof, xi, s_max


def _count_min_eig(monkeypatch):
    calls = []

    def counted(forms, s):
        calls.append(s)
        return min_eig(forms, s)

    monkeypatch.setattr(dispersion, "min_eig", counted)
    return calls


@pytest.mark.parametrize("name", ["isothermal", "polytropic", "0.5", "0.99", "0.999"])
def test_rayleigh_functional_encloses_the_root(name, unstable_profile, mesh100,
                                               monkeypatch):
    prof, xi, s_max = _scenario(name, unstable_profile)
    calls = _count_min_eig(monkeypatch)
    coeffs = form_coefficients(mesh100, prof)
    pt = growth_rate(coeffs, xi)
    assert len(calls) == 1  # the probe: the root took factorizations only
    assert pt.converged and pt.lam > 0 and pt.iterations <= 10
    delta = 1e-10 * s_max
    forms = coeffs.at(xi)
    assert pt.lam - delta <= _tight_root(forms, s_max) <= pt.lam + delta
    assert abs(pt.lam ** 2 + pt.alpha_at_star) <= 1e-12 * s_max ** 2
    assert eig_residual(forms, pt.lam, pt.alpha_at_star, pt.minimizer) <= 1e-12


def test_forced_fallback_bisects_to_the_root(unstable_profile, params, mesh100,
                                             monkeypatch):
    monkeypatch.setattr(dispersion, "_rf_iterate",
                        lambda forms, v, s_min, s_max, delta: (math.nan, v, 0))
    calls = _count_min_eig(monkeypatch)
    coeffs = form_coefficients(mesh100, unstable_profile)
    pt, forms = growth_rate(coeffs, 1.0), coeffs.at(1.0)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    assert abs(pt.lam - _tight_root(forms, s_max)) <= 10 * 1e-10 * s_max
    assert pt.converged and len(calls) == 2  # the probe and one at the root
    # the probe, the Cholesky test of T(S_max), 34 sign tests that halve
    # [s_min, S_max] below 1e-10 S_max, and the eigensolve at the root
    assert pt.iterations == 37


@pytest.mark.parametrize("plant", ["probe_start", "below_root"])
def test_certificate_rejects_a_planted_wrong_root(plant, unstable_profile, params,
                                                  mesh100, monkeypatch):
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    delta = 1e-10 * s_max
    coeffs = form_coefficients(mesh100, unstable_profile)
    forms = coeffs.at(1.0)
    root = _tight_root(forms, s_max)
    planted = []

    def plant_iterate(forms, v, s_min, s_max, delta):
        # the probe's own Rayleigh functional, a valid lower bound well short
        # of the root, or an iterate 100 delta below the root
        rho = (dispersion._rayleigh_functional(forms, v) if plant == "probe_start"
               else root - 100 * delta)
        planted.append(rho)
        return rho, v, 1

    monkeypatch.setattr(dispersion, "_rf_iterate", plant_iterate)
    pt = growth_rate(coeffs, 1.0)
    assert planted[0] < root - delta
    assert not dispersion._definite(forms, planted[0] + delta)
    assert abs(pt.lam - root) <= 10 * delta and pt.converged


def test_rayleigh_functional_iteration_gives_up(unstable_profile, params, mesh100,
                                                monkeypatch):
    coeffs = form_coefficients(mesh100, unstable_profile)
    forms = coeffs.at(1.0)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    args = (1e-8 * s_max, s_max, 1e-10 * s_max)
    # psi(0) = 0 leaves only the nonnegative bulk energy: v^T K0 v > 0
    v = np.zeros(mesh100.ndof)
    v[1] = 1.0
    lam, _v, count = dispersion._rf_iterate(forms, v, *args)
    assert math.isnan(lam) and count == 0
    # a cap of one step cannot settle from the probe vector
    _alpha, v0 = min_eig(forms, args[0])
    monkeypatch.setattr(dispersion, "RF_MAX_ITER", 1)
    lam, _v, count = dispersion._rf_iterate(forms, v0, *args)
    assert math.isnan(lam) and count == 1
    pt = growth_rate(coeffs, 1.0)
    assert abs(pt.lam - _tight_root(forms, s_max)) <= 10 * args[2] and pt.converged


def test_root_above_s_max_raises(unstable_profile, mesh40, monkeypatch):
    # a bracket whose upper end lies below the root: the iterates leave it and
    # the Cholesky factorization of T(S_max) fails
    monkeypatch.setattr(dispersion, "_bracket", lambda *a: (1e-9, 0.05))
    with pytest.raises(NoSignChange):
        growth_rate(form_coefficients(mesh40, unstable_profile), 1.0)


def test_one_eigensolve_per_frequency(unstable_profile, mesh100, monkeypatch):
    # the README scenario's sweep: each root's only eigensolve is its probe
    calls = _count_min_eig(monkeypatch)
    summary = sweep_lattice(form_coefficients(mesh100, unstable_profile), cutoff=4.0)
    assert len(summary.curve) == 8 and len(calls) == 8
    assert all(p.lam > 0 and p.converged and p.iterations <= 10
               for p in summary.curve)


def test_sweep_assembles_once_per_mesh(unstable_profile, mesh40, monkeypatch):
    # the forms at each frequency are a band combination of coefficients
    # built once per mesh before the sweep, so the sweep calls no kernel
    coeffs = form_coefficients(mesh40, unstable_profile)
    kernel, calls = variational.assemble, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(variational, "assemble", counted)
    for cutoff, points in ((4.0, 8), (12.0, 57)):
        summary = sweep_lattice(coeffs, cutoff=cutoff)
        assert len(summary.curve) == points
    assert calls == []


def test_growth_rate_and_sweep_take_one_path(unstable_profile, mesh40):
    # a single-frequency solve and the sweep's row at the same |xi| agree bit
    # for bit
    coeffs = form_coefficients(mesh40, unit_profile(sigma_minus=0.2, sigma_plus=0.1))
    alone = growth_rate(coeffs, 2.0)
    summary = sweep_lattice(coeffs, cutoff=3.0)
    (row,) = [p for p in summary.curve if p.xi_abs == 2.0]
    assert alone.lam > 0 and row.xi == (2.0, 0.0)
    assert (row.lam, row.alpha_at_star, row.iterations, row.converged) == \
        (alone.lam, alone.alpha_at_star, alone.iterations, alone.converged)
    assert np.array_equal(row.minimizer, alone.minimizer)


def test_converged_flag_comes_from_the_eigen_residual(unstable_profile,
                                                      mesh40):
    coeffs = form_coefficients(mesh40, unstable_profile)
    assert growth_rate(coeffs, 1.0).converged
    strict = NumericsConfig(eig_tol=1e-300)
    assert not growth_rate(coeffs, 1.0, strict).converged
    probe = growth_rate(form_coefficients(mesh40, unit_profile(sigma_minus=0.5)), 3.0,
                        strict)
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
    prof = unit_profile(sigma_minus=unstable_profile.jump / 1.5 ** 2)
    mesh = build_mesh(1.0, 1.0, 24, 24)
    summary = sweep_lattice(form_coefficients(mesh, prof), cutoff=1.5)
    assert [round(p.xi_abs ** 2, 12) for p in summary.curve] == [1.0, 2.0]
    assert all(p.lam > 0 for p in summary.curve)
    assert summary.attained


def test_sweep_supercritical_all_zero(unstable_profile):
    sigma_c = unstable_profile.jump  # g = L = 1
    prof = unit_profile(sigma_minus=1.05 * sigma_c, sigma_plus=0.1)
    mesh = build_mesh(1.0, 1.0, 24, 24)
    summary = sweep_lattice(form_coefficients(mesh, prof), cutoff=2.5)
    assert summary.Lambda == 0.0
    assert len(summary.curve) >= 3
    assert all(p.lam == 0.0 for p in summary.curve)
    assert all(p.alpha_at_star >= 0 for p in summary.curve)


def test_sweep_window_and_probes(unstable_profile):
    # 0 < sigma_minus < sigma_c puts xi_c = sqrt(2.5) inside the cutoff:
    # |xi| in {1, sqrt(2)} grow, and the rest are zero by a nonnegative probe
    prof = unit_profile(sigma_minus=0.4 * unstable_profile.jump)
    mesh = build_mesh(1.0, 1.0, 24, 24)
    summary = sweep_lattice(form_coefficients(mesh, prof), cutoff=3.0)
    assert summary.xi_c == pytest.approx(math.sqrt(2.5), rel=1e-12)
    growing = [p for p in summary.curve if p.lam > 0]
    zero = [p for p in summary.curve if p.lam == 0.0]
    assert [round(p.xi_abs ** 2, 12) for p in growing] == [1.0, 2.0]
    assert len(zero) >= 3 and len(growing) + len(zero) == len(summary.curve)
    assert all(p.alpha_at_star >= 0 for p in zero)


def test_sweep_unstable_bound(unstable_profile, params):
    coeffs = form_coefficients(build_mesh(1.0, 1.0, 24, 24), unstable_profile)
    summary = sweep_lattice(coeffs, cutoff=3.0)
    bound = params.b * params.g * unstable_profile.jump / params.mu_minus
    assert summary.Lambda > 0
    assert all(p.lam <= bound * (1 + 1e-6) for p in summary.curve)
    assert not summary.attained  # sigma_minus = 0: cutoff-limited scan


def test_sweep_requires_finite_cutoff(unstable_profile, mesh40):
    with pytest.raises(ValueError):
        sweep_lattice(form_coefficients(mesh40, unstable_profile), cutoff=math.inf)


def test_dispersion_csv(tmp_path):
    pt = DispersionPoint((1.0, 0.0), 1.0, 0.5, -0.25, np.zeros(2), 7, True)
    path = tmp_path / "curve.csv"
    write_dispersion_csv([pt], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "xi1,xi2,xi_abs,lambda,alpha_at_star,iterations,converged"
    assert lines[1] == "1,0,1,0.5,-0.25,7,true"
