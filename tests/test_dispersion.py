"""Fixed-point rates, lattice sweep, critical quantities, bump candidate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtstab import dispersion, variational
from rtstab.config import NumericsConfig
from rtstab.dispersion import (DispersionPoint, _dedup_lattice,
                               critical_frequency, critical_tension,
                               growth_rate, sweep_lattice,
                               write_dispersion_csv)
from rtstab.equilibrium import PolytropicLaw, solve_equilibrium
from rtstab.errors import NoSignChange, NotUnstableOrientation, SolverDivergence
from rtstab.evolve import EvolutionOperators, semidiscretize
from rtstab.variational import (band_mv, below_spectrum, bisect_root, build_mesh,
                                eig_residual, form_coefficients,
                                is_min_eigenpair, lu, min_eig)
from tests.conftest import unit_params, unit_profile
from tests.oracles import (continuum_rate, dedup_lattice_fraction, min_eig_dense,
                           negativity_probe, psi_bump, psi_bump_norm_sq)


def test_critical_tension_examples(unstable_profile):
    assert critical_tension(unstable_profile) == pytest.approx(np.e / 2, rel=1e-9)
    # direct formula check: sigma_c = max{4,1}*jump*g
    assert critical_tension(unit_profile(L1=2.0, L2=1.0)) == \
        pytest.approx(4 * np.e / 2, rel=1e-9)
    # g enters through the profile, whose jump it also sets: e^2/2 at g = 2
    assert critical_tension(unit_profile(g=2.0)) == pytest.approx(np.e ** 2, rel=1e-9)


def test_critical_tension_zero_jump(params):
    from rtstab.equilibrium import PolytropicLaw, solve_equilibrium
    prof = solve_equilibrium(PolytropicLaw(1.0, 1.0),
                             PolytropicLaw(1.0, 1.0), params)
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

    root, iters = bisect_root(above, 0.0, 10.0, 1e-12, 200)
    assert root == pytest.approx(2.0, abs=1e-12) and iters == len(calls)
    # the width is tested before each halving: 10 / 2^44 is the first
    # bracket at most 1e-12 wide, and no call is spent past it
    assert iters == 44 == math.ceil(math.log2(10.0 / 1e-12))
    assert bisect_root(above, 1.0, 1.5, 1.0, 200) == (1.25, 0)
    with pytest.raises(SolverDivergence):
        bisect_root(above, 0.0, 10.0, 1e-12, 10)


def test_growth_rate_newton_readme_scenario(unstable_profile, params, mesh100,
                                            monkeypatch):
    coeffs = form_coefficients(mesh100, unstable_profile)
    lu_calls = _count_lu(monkeypatch)
    pt, forms = growth_rate(coeffs, 1.0), coeffs.at(1.0)
    # at most 10 Rayleigh-functional steps: 12 factorizations and eigensolves
    # less the probe and the certificate
    assert pt.converged and len(lu_calls) <= 10
    # the same root by plain bisection on the sign of s^2 + alpha(s)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    root, _ = bisect_root(lambda s: s * s + min_eig(forms, s)[0] > 0,
                          1e-8 * s_max, s_max, 1e-10 * s_max, 200)
    assert abs(pt.lam - root) <= 10 * 1e-10 * s_max
    assert abs(pt.lam ** 2 + pt.alpha_at_star) <= 10 * 1e-10 * s_max ** 2


def _tight_root(forms, s_max):
    """Reference root: bisection on the sign of s^2 + alpha(s) from min_eig,
    to a bracket of 1e-13 S_max."""
    return bisect_root(lambda s: s * s + min_eig(forms, s)[0] > 0,
                       1e-8 * s_max, s_max, 1e-13 * s_max, 200)[0]


def _scenario(name, unstable_profile):
    """(profile, |xi|, S_max) of the enclosure scenarios."""
    if name == "polytropic":
        prm = unit_params(mu_prime_plus=0.3, mu_prime_minus=0.2, sigma_plus=0.1)
        prof = solve_equilibrium(PolytropicLaw(1.0, 1.4),
                                 PolytropicLaw(2.0, 1.4), prm)
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
    """Record every min_eig call in dispersion as (frequency, whether it was
    given a start)."""
    calls = []

    def counted(forms, s, start=None):
        calls.append((forms.xi_abs, start is not None))
        return min_eig(forms, s, start)

    monkeypatch.setattr(dispersion, "min_eig", counted)
    return calls


def _cold(calls):
    """The frequencies of the cold min_eig calls (no start) among calls."""
    return [xi for xi, started in calls if not started]


def _count_lu(monkeypatch):
    """Record every band LU factorization of the shifted inverse iteration:
    the steps of the Rayleigh-functional iteration and of min_eig's started
    Rayleigh-quotient round."""
    calls = []
    monkeypatch.setattr(variational, "lu", lambda ab: calls.append(1) or lu(ab))
    return calls


@pytest.mark.parametrize("name", ["isothermal", "polytropic", "0.5", "0.99", "0.999"])
def test_rayleigh_functional_encloses_the_root(name, unstable_profile, mesh100,
                                               monkeypatch):
    prof, xi, s_max = _scenario(name, unstable_profile)
    calls, lu_calls = _count_min_eig(monkeypatch), _count_lu(monkeypatch)
    coeffs = form_coefficients(mesh100, prof)
    pt = growth_rate(coeffs, xi)
    assert len(calls) == 1  # the probe: the root took factorizations only
    # 10 eigensolves and factorizations less the probe and the certificate
    assert pt.converged and pt.lam > 0 and len(lu_calls) <= 8
    delta = 1e-10 * s_max
    forms = coeffs.at(xi)
    assert pt.lam - delta <= _tight_root(forms, s_max) <= pt.lam + delta
    assert abs(pt.lam ** 2 + pt.alpha_at_star) <= 1e-12 * s_max ** 2
    assert eig_residual(forms, pt.lam, pt.alpha_at_star, pt.minimizer) <= 1e-12


def test_forced_fallback_bisects_to_the_root(unstable_profile, params, mesh100,
                                             monkeypatch):
    monkeypatch.setattr(dispersion, "_rf_iterate",
                        lambda forms, v, s_min, s_max, delta: (math.nan, v))
    calls, tests = _count_min_eig(monkeypatch), []
    definite = dispersion._definite
    monkeypatch.setattr(dispersion, "_definite",
                        lambda forms, s: tests.append(s) or definite(forms, s))
    coeffs = form_coefficients(mesh100, unstable_profile)
    pt, forms = growth_rate(coeffs, 1.0), coeffs.at(1.0)
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    assert abs(pt.lam - _tight_root(forms, s_max)) <= 10 * 1e-10 * s_max
    assert pt.converged and len(calls) == 2  # the probe and one at the root
    # the Cholesky test of T(S_max) and 34 sign tests that halve
    # [s_min, S_max] below 1e-10 S_max
    assert tests[0] == s_max and len(tests) == 35


def test_iterations_count_every_band_factorization(unstable_profile, mesh100,
                                                   monkeypatch):
    # on every kind of row, iterations is the number of dpbtrf and dgbtrf
    # calls made for it, the certificates behind converged included
    growing = form_coefficients(mesh100, unstable_profile)
    decaying = form_coefficients(mesh100, _past_sigma_c("isothermal"))
    start_g, start_d = (growth_rate(c, 1.0).minimizer for c in (growing, decaying))
    factorizations = []
    for name in ("dpbtrf", "dgbtrf"):
        monkeypatch.setattr(variational, name,
                            lambda *a, _fn=getattr(variational, name), **k:
                            factorizations.append(1) or _fn(*a, **k))
    eigensolves = _count_min_eig(monkeypatch)

    def row(coeffs, start=None):
        """(growing, eigensolves) of the row at the sweep's second |xi|."""
        factorizations.clear(), eigensolves.clear()
        pt = growth_rate(coeffs, math.sqrt(2.0), start=start)
        assert pt.converged and pt.iterations == len(factorizations)
        return pt.lam > 0, len(_cold(eigensolves))

    assert row(growing) == (True, 1)  # cold: the probe
    assert row(growing, start_g) == (True, 0)  # continued
    assert row(decaying) == (False, 1)
    assert row(decaying, start_d) == (False, 0)
    monkeypatch.setattr(dispersion, "_rf_iterate",
                        lambda forms, v, s_min, s_max, delta: (math.nan, v))
    assert row(growing) == (True, 2)  # the forced fallback: the probe and the root


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
        return rho, v

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
    lu_calls = _count_lu(monkeypatch)
    lam, _v = dispersion._rf_iterate(forms, v, *args)
    assert math.isnan(lam) and lu_calls == []
    # a cap of one step cannot settle from the probe vector
    _alpha, v0 = min_eig(forms, args[0])
    monkeypatch.setattr(dispersion, "RF_MAX_ITER", 1)
    lam, _v = dispersion._rf_iterate(forms, v0, *args)
    assert math.isnan(lam) and len(lu_calls) == 1
    pt = growth_rate(coeffs, 1.0)
    assert abs(pt.lam - _tight_root(forms, s_max)) <= 10 * args[2] and pt.converged


def test_root_above_s_max_raises(unstable_profile, mesh40, monkeypatch):
    # a bracket whose upper end lies below the root: the iterates leave it and
    # the Cholesky factorization of T(S_max) fails
    monkeypatch.setattr(dispersion, "_bracket", lambda *a: (1e-9, 0.05))
    with pytest.raises(NoSignChange):
        growth_rate(form_coefficients(mesh40, unstable_profile), 1.0)


def test_one_eigensolve_per_chain(unstable_profile, mesh100, monkeypatch):
    # the README scenario's sweep is one chain of growing frequencies: its
    # first row's probe is the only eigensolve, and every later row starts
    # from its predecessor's root vector
    calls, lu_calls, rows = _count_min_eig(monkeypatch), _count_lu(monkeypatch), []
    solve = dispersion.growth_rate

    def counted(*args, **kwargs):
        lu_calls.clear()
        pt = solve(*args, **kwargs)
        rows.append(len(lu_calls))
        return pt

    monkeypatch.setattr(dispersion, "growth_rate", counted)
    summary = sweep_lattice(form_coefficients(mesh100, unstable_profile), cutoff=4.0)
    assert len(summary.curve) == 8 and len(calls) == 1
    assert all(p.lam > 0 and p.converged for p in summary.curve)
    # at most 8 Rayleigh-functional steps per row: 10 eigensolves and
    # factorizations less the probe or the Cholesky test of T(s_min), and
    # the certificate
    assert len(rows) == 8 and max(rows) <= 8


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
    # a single-frequency solve given the previous row's minimizer, its phi
    # dofs scaled by |xi_prev| / |xi|, as start, and the sweep's row at the
    # same |xi|, agree bit for bit; the first row has no predecessor and is
    # the solve without start
    coeffs = form_coefficients(mesh40, unit_profile(sigma_minus=0.2, sigma_plus=0.1))
    summary = sweep_lattice(coeffs, cutoff=3.0)
    i = [p.xi_abs for p in summary.curve].index(2.0)
    prev, row = summary.curve[i - 1], summary.curve[i]
    start = prev.minimizer.copy()
    start[0::2] *= prev.xi_abs / 2.0
    pairs = [(summary.curve[0], growth_rate(coeffs, summary.curve[0].xi_abs)),
             (row, growth_rate(coeffs, 2.0, start=start))]
    assert prev.lam > 0 and row.lam > 0 and row.xi == (2.0, 0.0)
    for swept, alone in pairs:
        assert (swept.lam, swept.alpha_at_star, swept.iterations, swept.converged) == \
            (alone.lam, alone.alpha_at_star, alone.iterations, alone.converged)
        assert np.array_equal(swept.minimizer, alone.minimizer)


def test_rejected_start_takes_the_probe_path(unstable_profile, mesh100,
                                            monkeypatch):
    # psi(0) = 0 leaves only the nonnegative bulk energy, v^T K0 v > 0: the
    # start has no Rayleigh functional, and the probe path gives the root
    coeffs = form_coefficients(mesh100, unstable_profile)
    bad = np.zeros(mesh100.ndof)
    bad[1] = 1.0
    assert math.isnan(dispersion._rayleigh_functional(coeffs.at(1.0), bad))
    alone = growth_rate(coeffs, 1.0)
    calls = _count_min_eig(monkeypatch)
    pt = growth_rate(coeffs, 1.0, start=bad)
    assert len(calls) == 1  # the probe
    assert (pt.lam, pt.alpha_at_star, pt.converged) == \
        (alone.lam, alone.alpha_at_star, alone.converged)
    assert np.array_equal(pt.minimizer, alone.minimizer)
    assert pt.iterations == alone.iterations  # both test T(s_min) once
    assert pt.lam > 0 and pt.converged


def test_chain_across_the_window_edge(mesh100, monkeypatch):
    # sigma_minus = 0.1 puts xi_c = 3.69 inside the cutoff: the chain of
    # growing rows ends there, and the rows above it continue the probe from
    # their predecessor's vector, with no eigensolve
    prof = unit_profile(sigma_minus=0.1)
    xi_c = critical_frequency(prof)
    coeffs = form_coefficients(mesh100, prof)
    calls = _count_min_eig(monkeypatch)
    curve = sweep_lattice(coeffs, cutoff=6.0).curve
    growing = [p for p in curve if p.lam > 0]
    decaying = [p for p in curve if p.lam == 0.0]
    assert all(p.xi_abs < xi_c for p in growing)
    assert all(p.xi_abs > xi_c for p in decaying) and len(decaying) >= 5
    assert all(p.alpha_at_star >= 0 and p.converged for p in decaying)
    # each decaying row counts the Cholesky test of T(s_min), at least one
    # LU step and the certificate, and no row falls back to the probe
    assert all(3 <= p.iterations <= variational.RQ_MAX_ITER + 2 for p in decaying)
    # one probe for the chain's first row, and at most one more where a
    # start is rejected next to xi_c, below it
    cold = _cold(calls)
    assert cold[0] == curve[0].xi_abs and len(cold) <= 2
    assert all(xi < xi_c for xi in cold)
    s_max = 1.25 * prof.params.b * prof.params.g * prof.jump / prof.params.mu_minus
    s_min = 1e-8 * s_max
    for p in decaying:
        forms = coeffs.at(p.xi_abs)
        eps = forms.certificate_eps(s_min)
        assert abs(p.alpha_at_star - min_eig(forms, s_min)[0]) <= eps
    for p in growing:
        assert p.converged
        assert abs(p.lam - growth_rate(coeffs, p.xi_abs).lam) <= 1e-10 * s_max


@pytest.mark.parametrize("name", ["isothermal", "polytropic", "mu_prime"])
def test_continued_rows_match_standalone_solves(name, unstable_profile, mesh100):
    if name == "mu_prime":
        prof = unit_profile(mu_prime_plus=0.3, mu_prime_minus=0.2)
    else:
        prof = _scenario(name, unstable_profile)[0]
    prm = prof.params
    s_max = 1.25 * prm.b * prm.g * prof.jump / prm.mu_minus
    coeffs = form_coefficients(mesh100, prof)
    curve = sweep_lattice(coeffs, cutoff=6.0).curve
    continued = [p for prev, p in zip(curve, curve[1:]) if prev.lam > 0]
    assert len(continued) == len(curve) - 1 >= 15
    for p in continued:
        alone = growth_rate(coeffs, p.xi_abs)
        assert p.converged and alone.converged
        assert abs(p.lam - alone.lam) <= 1e-10 * s_max


def _past_sigma_c(name):
    """A pair just past its critical tension, sigma_minus = 1.05 sigma_c
    (g = L1 = L2 = 1) and sigma_plus = 0.1, as in the benchmark's probe
    scan: the README pair, gamma = 1.4, mu' != 0 or the stiff pair."""
    plus, minus, extra = {
        "isothermal": (PolytropicLaw(1.0, 1.0), PolytropicLaw(2.0, 1.0), {}),
        "polytropic": (PolytropicLaw(1.0, 1.4),
                       PolytropicLaw(2.0, 1.4), {}),
        "mu_prime": (PolytropicLaw(1.0, 1.0), PolytropicLaw(2.0, 1.0),
                     {"mu_prime_plus": 0.3, "mu_prime_minus": 0.2}),
        "stiff": (PolytropicLaw(400.0, 1.0), PolytropicLaw(800.0, 1.0),
                  {"p_atm": 400.0}),
    }[name]
    jump = solve_equilibrium(plus, minus, unit_params(**extra)).jump
    return solve_equilibrium(plus, minus,
                             unit_params(sigma_minus=1.05 * jump, sigma_plus=0.1, **extra))


@pytest.mark.parametrize("name, cutoff, rows", [("isothermal", 12.0, 57),
                                                ("polytropic", 6.0, 17),
                                                ("mu_prime", 6.0, 17),
                                                ("stiff", 6.0, 17)])
def test_continued_probes_match_standalone_probes(name, cutoff, rows, mesh100,
                                                  monkeypatch):
    # past sigma_c every row decays; after the first, each continues the
    # probe from its predecessor's minimizer and meets min_eig to eps, so the
    # scan takes one eigensolve (the isothermal case is the benchmark's probe
    # scan at seed 0)
    prof = _past_sigma_c(name)
    coeffs = form_coefficients(mesh100, prof)
    calls = _count_min_eig(monkeypatch)
    curve = sweep_lattice(coeffs, cutoff).curve
    assert len(curve) == rows and _cold(calls) == [1.0]
    s_min = dispersion._bracket(prof, NumericsConfig())[0]
    for p in curve:
        forms = coeffs.at(p.xi_abs)
        alpha, v = min_eig(forms, s_min)
        eps = forms.certificate_eps(s_min)
        assert p.lam == 0.0 and p.converged
        assert abs(p.alpha_at_star - alpha) <= eps
        assert abs(p.minimizer @ band_mv(forms.M, v)) == pytest.approx(1.0, abs=1e-6)


def test_certificate_rejects_a_planted_second_eigenvector(mesh100, monkeypatch):
    # the second eigenvector as start: the started Rayleigh-quotient round
    # stays on it, the certificate of is_min_eigenpair refuses its
    # eigenvalue and certifies the cold probe's, and the row is the cold
    # probe's row
    prof = _past_sigma_c("isothermal")
    coeffs = form_coefficients(mesh100, prof)
    forms = coeffs.at(2.0)
    s_min = dispersion._bracket(prof, NumericsConfig())[0]
    alpha2, v2 = min_eig_dense(forms, s_min, k=1)
    cold = growth_rate(coeffs, 2.0)
    asked = []

    def recorded(forms, s, alpha):
        asked.append((alpha, below_spectrum(forms, s, alpha)))
        return asked[-1][1]

    monkeypatch.setattr(variational, "below_spectrum", recorded)
    calls = _count_min_eig(monkeypatch)
    pt = growth_rate(coeffs, 2.0, start=v2)
    eps = forms.certificate_eps(s_min)
    assert [certified for _alpha, certified in asked] == [False, True]
    assert abs(asked[0][0] - alpha2) <= eps and alpha2 > cold.alpha_at_star + 1e3 * eps
    assert asked[1][0] == cold.alpha_at_star
    assert calls == [(2.0, True), (2.0, False)]  # the started round, then the fallback probe
    assert (pt.lam, pt.alpha_at_star, pt.converged) == \
        (cold.lam, cold.alpha_at_star, cold.converged)
    assert np.array_equal(pt.minimizer, cold.minimizer) and pt.converged
    # one LU step or more and the certificate on top of the cold row, which
    # makes the same Cholesky test of T(s_min)
    assert pt.iterations >= cold.iterations + 2


@pytest.mark.parametrize("n_samples", [257, 513, 1025, 2049])
def test_stiff_sweep_continues_its_starts(n_samples, mesh100, monkeypatch):
    # on the stiff pair the previous row's minimizer, carried with its phi
    # dofs scaled by |xi_prev| / |xi|, keeps v^T K0 v < 0 at the next |xi|
    # (unscaled, every row's start was rejected: 16 probes), and an iterate
    # whose T(rho + delta) fails the Cholesky test at round-off is certified
    # by T(rho + 2 delta): the chain takes the first row's probe alone
    prof = solve_equilibrium(PolytropicLaw(400.0, 1.0), PolytropicLaw(800.0, 1.0),
                             unit_params(p_atm=400.0), n_samples)
    calls = _count_min_eig(monkeypatch)
    curve = sweep_lattice(form_coefficients(mesh100, prof), cutoff=6.0).curve
    assert len(curve) == 17 and all(p.lam > 0 and p.converged for p in curve)
    assert _cold(calls) == [curve[0].xi_abs]


def test_certificate_steps_once_past_a_short_iterate(unstable_profile, params, mesh100,
                                                     monkeypatch):
    # an iterate 1.5 delta short of the root: T(rho + delta) is not definite
    # and T(rho + 2 delta) is, so [rho + delta, rho + 2 delta) encloses the
    # root and the row needs no fallback eigensolve
    s_max = 1.25 * params.b * params.g * unstable_profile.jump / params.mu_minus
    delta = 1e-10 * s_max
    coeffs = form_coefficients(mesh100, unstable_profile)
    forms = coeffs.at(1.0)
    root = _tight_root(forms, s_max)
    rho, v = root - 1.5 * delta, min_eig(forms, root)[1]
    monkeypatch.setattr(dispersion, "_rf_iterate",
                        lambda forms, _v, s_min, s_max, delta: (rho, v))
    calls = _count_min_eig(monkeypatch)
    pt = growth_rate(coeffs, 1.0)
    assert not dispersion._definite(forms, rho + delta)
    assert pt.lam == rho + delta and pt.converged and len(calls) == 1


def test_growing_row_ignores_a_planted_nonnegative_probe(unstable_profile, mesh40,
                                                         monkeypatch):
    # T(s_min) is not definite, so the row grows whatever the sign of the
    # probe: a probe value of +1e-12 with the true minimizer starts the root
    coeffs = form_coefficients(mesh40, unstable_profile)
    true = growth_rate(coeffs, 1.0)
    s_min = dispersion._bracket(unstable_profile, NumericsConfig())[0]
    monkeypatch.setattr(dispersion, "min_eig", lambda forms, s: (
        (1e-12, min_eig(forms, s)[1]) if s == s_min else min_eig(forms, s)))
    pt = growth_rate(coeffs, 1.0)
    assert pt.lam == true.lam == pytest.approx(0.0750890777386107, rel=1e-12)
    assert pt.converged


def test_decaying_row_reports_a_planted_sliver_probe(mesh40, monkeypatch):
    # T(s_min) is definite, so the row decays: a probe value of -s_min^2 / 2,
    # negative but above -s_min^2, is reported as it is, and the residual
    # test refuses it
    prof = unit_profile(sigma_minus=0.5)
    s_min = dispersion._bracket(prof, NumericsConfig())[0]
    monkeypatch.setattr(dispersion, "min_eig",
                        lambda forms, s: (-s_min ** 2 / 2, min_eig(forms, s)[1]))
    pt = growth_rate(form_coefficients(mesh40, prof), 3.0)
    assert pt.lam == 0.0 and pt.alpha_at_star == -s_min ** 2 / 2
    assert not pt.converged


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(k=st.floats(0.5, 1000.0), gamma=st.floats(1.0, 2.0),
       tension=st.floats(0.0, 1.5))
def test_cholesky_of_t_s_min_decides_every_row(k, gamma, tension):
    # the pair P = K rho^gamma over P = 2 K rho^gamma under p_atm = K, at
    # sigma_minus = tension * sigma_c: a row grows exactly when T(s_min) is
    # not positive definite, swept and cold solves agree (a decaying row's
    # probe to the certificate's eps), every row is converged, and no rate
    # exceeds b g [rho] / mu_minus or, E1 being >= 0, sqrt(-alpha(0)); at the
    # first lattice |xi|, alpha(s) does not decrease from s_min to S_max / 2
    plus, minus = PolytropicLaw(k, gamma), PolytropicLaw(2 * k, gamma)
    jump = solve_equilibrium(plus, minus, unit_params(p_atm=k)).jump
    prof = solve_equilibrium(plus, minus,
                             unit_params(p_atm=k, sigma_minus=tension * jump))
    prm = prof.params
    bound = prm.b * prm.g * prof.jump / prm.mu_minus
    s_max, s_min = 1.25 * bound, 1.25e-8 * bound
    coeffs = form_coefficients(build_mesh(1.0, 1.0, 40, 40), prof)
    curve = sweep_lattice(coeffs, cutoff=4.0).curve
    for p in curve:
        forms, cold = coeffs.at(p.xi_abs), growth_rate(coeffs, p.xi_abs)
        pencil = forms.K0 + s_min * forms.K1 + s_min ** 2 * forms.M
        assert (p.lam > 0) is (variational.cholesky(pencil) is None)
        assert abs(p.lam - cold.lam) <= 1e-10 * s_max
        if p.lam == 0.0:
            assert abs(p.alpha_at_star - cold.alpha_at_star) <= forms.certificate_eps(s_min)
        else:
            assert p.lam <= math.sqrt(-min_eig_dense(forms, 0.0)[0])
        assert p.converged and p.lam <= bound
    forms = coeffs.at(curve[0].xi_abs)
    alphas = [min_eig(forms, float(s))[0] for s in np.linspace(s_min, s_max / 2, 5)]
    assert all(a <= b for a, b in zip(alphas, alphas[1:]))


_PAIRS = {  # the README pair, gamma = 1.4 (K = 0.5 over 1) and the stiff pair
    "isothermal": (PolytropicLaw(1.0, 1.0), PolytropicLaw(2.0, 1.0), {}),
    "polytropic": (PolytropicLaw(0.5, 1.4), PolytropicLaw(1.0, 1.4), {}),
    "stiff": (PolytropicLaw(400.0, 1.0), PolytropicLaw(800.0, 1.0), {"p_atm": 400.0}),
}


def _rates_by_viscosity(name, xi_abs):
    """lam at |xi| = xi_abs with mu_+ = mu_- = 2, 1, 0.5, 0.25 (mu' = 0), 40
    elements per layer, and sqrt(-alpha(0)) by the dense reference (alpha(0)
    = min E0 / J reads no viscosity)."""
    plus, minus, extra = _PAIRS[name]
    mesh, rates = build_mesh(1.0, 1.0, 40, 40), []
    for mu in (2.0, 1.0, 0.5, 0.25):
        prof = solve_equilibrium(plus, minus, unit_params(mu_plus=mu, mu_minus=mu, **extra))
        coeffs = form_coefficients(mesh, prof)
        p = growth_rate(coeffs, xi_abs)
        assert p.converged
        rates.append(p.lam)
    return rates, math.sqrt(-min_eig_dense(coeffs.at(xi_abs), 0.0)[0])


# lam - continuum_rate at 100 elements per layer, measured when the gate
# was written; the gate's bound is twice it
_CONTINUUM_ERROR_100 = {("isothermal", 1.0): -2.172e-5, ("isothermal", 4.0): -5.674e-5,
                        ("polytropic", 1.0): -3.843e-5, ("polytropic", 4.0): -1.068e-4}


@pytest.mark.parametrize("xi_abs", [1.0, 4.0])
@pytest.mark.parametrize("name", ["isothermal", "polytropic"])
def test_rate_converges_to_the_continuum_at_second_order(name, xi_abs):
    # the p-version reference is settled in p (p and p + 4 agree to 1e-9),
    # and the P1 rate at 100 and 200 elements per layer approaches it at an
    # observed order of 2
    plus, minus, extra = _PAIRS[name]
    prof = solve_equilibrium(plus, minus, unit_params(**extra))
    ref = continuum_rate(prof, xi_abs, 16)
    assert abs(continuum_rate(prof, xi_abs, 20) - ref) <= 1e-9 * ref
    e100, e200 = (growth_rate(form_coefficients(build_mesh(1.0, 1.0, n, n), prof),
                              xi_abs).lam - ref for n in (100, 200))
    assert e100 * e200 > 0 and 1.9 <= math.log2(e100 / e200) <= 2.1
    assert abs(e100) <= 2 * abs(_CONTINUUM_ERROR_100[name, xi_abs])


@pytest.mark.parametrize("sigma_minus", [0.5, 1.0])
@pytest.mark.parametrize("name", ["isothermal", "polytropic"])
def test_the_continuum_grows_only_below_the_critical_frequency(name, sigma_minus):
    # surface tension on the lower layer closes the instability window at
    # xi_c = sqrt(jump g / sigma_-): the continuum rate is positive just
    # below xi_c and vanishes past it.  Past xi_c, K0 is only semidefinite,
    # so the Cholesky test fails at s = 0 and the bisection ends at round-off
    # above 0 (measured <= 4e-16), not at exactly 0
    plus, minus, extra = _PAIRS[name]
    prof = solve_equilibrium(plus, minus, unit_params(sigma_plus=0.1,
                                                      sigma_minus=sigma_minus, **extra))
    xi_c = critical_frequency(prof)
    # measured 1.75e-5 and 1.32e-5 (isothermal), 2.36e-5 and 1.89e-5 (polytropic)
    assert continuum_rate(prof, (1 - 1e-4) * xi_c, 12) >= 5e-6
    for past in (1 + 1e-4, 1 + 1e-3):
        assert continuum_rate(prof, past * xi_c, 12) <= 1e-12


@pytest.mark.parametrize("xi_abs", [1.0, 4.0])
@pytest.mark.parametrize("name", list(_PAIRS))
def test_rate_is_below_the_inviscid_root(name, xi_abs):
    # E1 >= 0, so alpha(s) >= alpha(0) and the root of s^2 + alpha(s) = 0 is
    # at most sqrt(-alpha(0)), the rate without viscosity, at every mu
    rates, inviscid = _rates_by_viscosity(name, xi_abs)
    assert all(0.0 < lam <= inviscid for lam in rates)


@pytest.mark.parametrize("xi_abs", [1.0, 4.0])
@pytest.mark.parametrize("name", list(_PAIRS))
def test_rate_rises_as_both_viscosities_fall(name, xi_abs):
    # scaling mu_+ = mu_- by c scales E1 by c and leaves E0 and J alone, so a
    # smaller c lowers alpha(s) at every s > 0 and raises the root
    rates, _inviscid = _rates_by_viscosity(name, xi_abs)
    assert all(a < b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("k", [0, 1])
def test_converged_needs_the_smallest_eigenvalue(k, mesh40, monkeypatch):
    # eigenpair k of the dense reference: the second passes the residual
    # test, and the certificate below_spectrum refuses it
    prof = unit_profile(sigma_minus=0.5)
    coeffs = form_coefficients(mesh40, prof)
    s_min = dispersion._bracket(prof, NumericsConfig())[0]
    alpha, v = min_eig_dense(coeffs.at(3.0), s_min, k)
    assert eig_residual(coeffs.at(3.0), s_min, alpha, v) <= 1e-13
    monkeypatch.setattr(dispersion, "min_eig", lambda forms, s: min_eig_dense(forms, s, k))
    probe = growth_rate(coeffs, 3.0)
    assert probe.lam == 0.0 and probe.alpha_at_star == alpha
    assert probe.converged is (k == 0)
    # and at a growing root
    coeffs = form_coefficients(mesh40, unit_profile())
    root, forms = growth_rate(coeffs, 1.0), coeffs.at(1.0)
    pair = min_eig_dense(forms, root.lam, k)
    assert is_min_eigenpair(forms, root.lam, *pair, 1e-10) is (k == 0)


def test_converged_flag_comes_from_the_eigen_residual(unstable_profile,
                                                      mesh40):
    coeffs = form_coefficients(mesh40, unstable_profile)
    assert growth_rate(coeffs, 1.0).converged
    strict = NumericsConfig(eig_tol=1e-300)
    assert not growth_rate(coeffs, 1.0, strict).converged
    probe = growth_rate(form_coefficients(mesh40, unit_profile(sigma_minus=0.5)), 3.0,
                        strict)
    assert probe.lam == 0.0 and not probe.converged


def test_refused_started_probe_takes_one_cold_probe(mesh40, monkeypatch):
    # at eig_tol = 1e-300 the residual test refuses every pair: the started
    # round's pair falls back to the cold probe once, and the row reports
    # that probe as not converged
    coeffs = form_coefficients(mesh40, unit_profile(sigma_minus=0.5))
    start, strict = growth_rate(coeffs, 3.0).minimizer, NumericsConfig(eig_tol=1e-300)
    cold = growth_rate(coeffs, 3.0, strict)
    calls = _count_min_eig(monkeypatch)
    pt = growth_rate(coeffs, 3.0, strict, start)
    assert calls == [(3.0, True), (3.0, False)]
    assert pt.lam == 0.0 and not pt.converged and pt.alpha_at_star == cold.alpha_at_star


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


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@example(L1=0.7, L2=1.3, limit=9.0)
@example(L1=1.3, L2=0.7, limit=4.0)
@example(L1=1.0, L2=2.0, limit=1.2)
@example(L1=1.0, L2=1.0, limit=12.0)
@given(L1=st.floats(0.05, 5.0), L2=st.floats(0.05, 5.0), limit=st.floats(0.1, 8.0))
def test_dedup_lattice_matches_the_fraction_reference(L1, L2, limit):
    # integer keys: the same rows, representatives, order and |xi|^2, which
    # comes as the float nearest the exact ratio
    prm = unit_params(L1=L1, L2=L2)
    assert _dedup_lattice(prm, limit) == [(float(key), mn) for key, mn
                                          in dedup_lattice_fraction(prm, limit)]


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
