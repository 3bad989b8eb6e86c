"""Semidiscrete evolution: oracle agreement, energy identity, time stepping."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rtstab import evolve
from rtstab.config import NumericsConfig
from rtstab.dispersion import growth_rate
from rtstab.equilibrium import PolytropicLaw, solve_equilibrium
from rtstab.errors import SingularStep, ZeroSignal
from rtstab.evolve import (BLOCK, Trajectory, advance, energy_balance_residual,
                           interface_bump_state, measure_growth,
                           semidiscretize, state_from_mode,
                           write_trajectory_csv)
from rtstab.modes import assemble_mode
from rtstab.variational import BAND, build_mesh, form_coefficients, lu
from tests.conftest import unit_params, unit_profile
from tests.oracles import (advance_dense, complex_operators, dense, embed_state,
                           energy_balance_two_pass, full_energy, lu_step,
                           oracle_pencil, pencil_root, random_state, rotate_mode)


@pytest.fixture(scope="module")
def unstable_setup(unstable_profile):
    mesh = build_mesh(1.0, 1.0, 60, 60)
    coeffs = form_coefficients(mesh, unstable_profile)
    pt = growth_rate(coeffs, 1.0)
    mode = assemble_mode(pt, coeffs)
    ops = semidiscretize(coeffs, 1.0)
    return mesh, pt, mode, ops


def test_boundary_coefficients_match_variational(unstable_setup, unstable_profile):
    _mesh, _pt, _mode, ops = unstable_setup
    params = unstable_profile.params
    forms = ops.coeffs.at(1.0)
    k0_int = 0.5 * (params.sigma_minus - unstable_profile.jump * params.g)
    k0_top = 0.5 * (params.sigma_plus + unstable_profile.rho1 * params.g)
    assert abs(ops.sigma_int_coef - 2 * k0_int) <= 1e-12
    assert abs(ops.sigma_top_coef - 2 * k0_top) <= 1e-12
    assert forms.K0[BAND, forms.psi_interface_dof] != 0.0


def test_viscous_pairing_matches_e1(unstable_setup):
    # <D u, u> at the mode velocity equals twice the variational E1
    _mesh, _pt, mode, ops = unstable_setup
    y = state_from_mode(ops, mode)
    duu = energy_balance_residual(y[None], ops, 1.0)[2][0]
    forms = ops.coeffs.at(1.0)
    v = np.stack([mode.phi[1:], mode.psi[1:]], axis=1).ravel()
    e1 = float(v @ dense(forms.K1) @ v)
    assert duu == pytest.approx(2.0 * e1, rel=1e-12)


def test_zero_state_stays_zero(unstable_setup):
    _mesh, _pt, _mode, ops = unstable_setup
    z = interface_bump_state(ops)
    z[ops.eta_minus_idx] = 0.0
    traj = advance(z, ops, 0.1, 1.0)
    assert not np.any(traj.final)
    for series in (traj.eta_minus, traj.eta_plus, traj.energy, traj.dissipation,
                   traj.balance_residual):
        assert not np.any(series)


def test_one_step_amplification(unstable_setup):
    _mesh, pt, mode, ops = unstable_setup
    lam = pt.lam
    dt = 0.01 / lam
    y0 = state_from_mode(ops, mode)
    ratio = np.linalg.norm(advance(y0, ops, dt, dt).final) / np.linalg.norm(y0)
    predicted = (1 + lam * dt / 2) / (1 - lam * dt / 2)
    # eigen-direction analysis up to O(dt^3 + h^2)
    assert ratio == pytest.approx(predicted, abs=5e-3)


def test_time_reversal_single_step(unstable_setup):
    _mesh, _pt, _mode, ops = unstable_setup
    y0 = random_state(ops, seed=5)
    fwd = advance(y0, ops, 0.01, 0.01)
    back = advance(fwd.final, ops, -0.01, -0.01)
    rel = np.linalg.norm(back.final - y0) / np.linalg.norm(y0)
    assert rel <= 1e-10


def test_oracle_rate_agreement(unstable_setup):
    _mesh, pt, mode, ops = unstable_setup
    lam = pt.lam
    traj = advance(state_from_mode(ops, mode), ops, 0.01 / lam, 6.0 / lam)
    fitted = measure_growth(traj, 0.5)
    assert fitted == pytest.approx(lam, rel=0.02)


def test_random_data_converges_to_dominant_rate(unstable_setup):
    _mesh, pt, _mode, ops = unstable_setup
    lam = pt.lam
    traj = advance(random_state(ops, seed=8, scale=1e-3), ops, 0.02 / lam, 14.0 / lam)
    fitted = measure_growth(traj, 0.3)
    assert fitted == pytest.approx(lam, rel=0.03)


def test_trapezoidal_balance_residual_machine_zero(unstable_setup):
    _mesh, pt, mode, ops = unstable_setup
    traj = advance(state_from_mode(ops, mode), ops, 0.05 / pt.lam, 1.0 / pt.lam)
    assert np.abs(traj.balance_residual).max() <= 1e-12


def test_energy_grows_at_twice_lambda(unstable_setup):
    _mesh, pt, mode, ops = unstable_setup
    lam = pt.lam
    traj = advance(state_from_mode(ops, mode), ops, 0.01 / lam, 6.0 / lam)
    egy = traj.energy[::20]
    tt = traj.times[::20]
    half = tt.size // 2
    rate = np.polyfit(tt[half:], np.log(egy[half:]), 1)[0]
    assert rate == pytest.approx(2 * lam, rel=0.02)


def test_stable_full_energy_monotone(stable_profile):
    mesh = build_mesh(1.0, 1.0, 40, 40)
    ops = semidiscretize(form_coefficients(mesh, stable_profile), 1.0)
    traj = advance(interface_bump_state(ops), ops, 0.05, 20.0)
    fe = full_energy(ops, traj)
    assert np.all(np.diff(fe) <= 1e-10 * np.maximum(fe[:-1], 1e-300))
    # interface amplitude never exceeds its running maximum
    em = traj.eta_minus_abs
    runmax = np.maximum.accumulate(em)
    assert np.all(em[1:] <= (1 + 1e-6) * runmax[:-1])


def test_supercritical_tension_no_growth(unstable_profile):
    sigma_c = unstable_profile.jump
    prof = unit_profile(sigma_minus=1.5 * sigma_c, sigma_plus=0.5)
    mesh = build_mesh(1.0, 1.0, 40, 40)
    ops = semidiscretize(form_coefficients(mesh, prof), 1.0)
    traj = advance(interface_bump_state(ops), ops, 0.05, 20.0)
    em = traj.eta_minus_abs
    runmax = np.maximum.accumulate(em)
    assert np.all(em[1:] <= (1 + 1e-6) * runmax[:-1])


def test_trapezoidal_rate_error_second_order(unstable_setup):
    # Richardson at fixed mesh: rate(dt) - rate(dt/2) should shrink 4x
    _mesh, pt, mode, ops = unstable_setup
    lam = pt.lam
    rates = []
    for dt_frac in (0.4, 0.2, 0.1):
        traj = advance(state_from_mode(ops, mode), ops, dt_frac / lam, 4.0 / lam)
        rates.append(measure_growth(traj, 0.5))
    order = math.log2(abs(rates[0] - rates[1]) / abs(rates[1] - rates[2]))
    assert order == pytest.approx(2.0, abs=0.3)


def _signal_record(t, eta_minus):
    """A Trajectory whose only signal is eta_minus at the times t."""
    zeros = np.zeros_like(t)
    return Trajectory(t, eta_minus, zeros, zeros, zeros, zeros[1:], zeros[:2],
                      t[1] - t[0])


def test_measure_growth_exact_exponential():
    t = np.linspace(0.0, 3.0, 301)
    traj = _signal_record(t, np.exp(0.7 * t))
    assert measure_growth(traj, 0.6) == pytest.approx(0.7, abs=1e-10)
    with pytest.raises(ValueError):
        measure_growth(traj, 0.0)


def test_zero_signal_raises():
    t = np.linspace(0.0, 1.0, 11)
    traj = _signal_record(t, np.zeros_like(t))
    with pytest.raises(ZeroSignal):
        measure_growth(traj, 0.5)


@pytest.mark.parametrize("dt, n_steps, pivoted, zero", [
    (0.1, 1, False, False), (0.1, 37, False, False), (0.1, 2 * BLOCK, False, False),
    (0.1, 600, False, False), (-0.1, 1, True, False), (-0.1, 37, True, False),
    (40.0, 1, True, False), (40.0, 37, True, False), (0.1, 600, False, True),
    (-0.1, 600, True, True), (40.0, 600, True, True)])
def test_streamed_record_equals_the_full_record(monkeypatch, dt, n_steps, pivoted, zero):
    # the ring of BLOCK + 1 states, balanced ring by ring, does the arithmetic
    # of the full (n_steps + 1, n) record and its second pass bit for bit, on
    # both step paths (dt = -0.1, and dt = 40 at |xi| = 1, pivot) and for step
    # counts below, at and off multiples of BLOCK.  Random states overflow
    # within 600 pivoted steps, so those runs start from the zero state
    prof = unit_profile(mu_plus=0.7, mu_prime_minus=0.3, sigma_plus=0.2,
                        sigma_minus=0.1)
    ops = semidiscretize(form_coefficients(build_mesh(1.0, 1.0, 20, 20), prof), 1.0)
    y0 = np.zeros(ops.n) if zero else random_state(ops, seed=3)
    calls = []
    monkeypatch.setattr(evolve, "lu", lambda ab: calls.append(1) or lu(ab))
    traj = advance(y0, ops, dt, n_steps * dt)
    assert len(calls) == pivoted
    ref = advance_dense(y0, ops, dt, n_steps * dt)
    res, energy, diss = energy_balance_two_pass(ref, ops)
    pairs = {"times": (traj.times, ref.times),
             "eta_minus": (traj.eta_minus, ref.states[:, ops.eta_minus_idx]),
             "eta_plus": (traj.eta_plus, ref.states[:, ops.eta_plus_idx]),
             "energy": (traj.energy, energy), "dissipation": (traj.dissipation, diss),
             "balance_residual": (traj.balance_residual, res),
             "final": (traj.final, ref.states[-1])}
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape and np.array_equal(got, want), name
    assert traj.dt == dt
    # one call on any run of states gives the same record
    res, energy, diss = energy_balance_residual(ref.states[:BLOCK + 1], ops, dt)
    assert np.array_equal(energy, traj.energy[:BLOCK + 1])
    assert np.array_equal(res, traj.balance_residual[:BLOCK])


def test_advance_memory_does_not_grow_with_the_states(stable_profile):
    # a step adds a few scalars to the record (the time, eta+-, energy,
    # dissipation and balance defect: 48 bytes) and no state (n = 242 here,
    # 1,936 bytes), so 1,800 more steps may add less than 64 bytes each
    ops = semidiscretize(form_coefficients(build_mesh(1.0, 1.0, 40, 40), stable_profile), 1.0)
    y0 = interface_bump_state(ops)
    advance(y0, ops, 0.05, 0.05)  # lazy set-up in scipy stays out of the peaks

    def peak(n_steps):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            advance(y0, ops, 0.05, 0.05 * n_steps)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(2000) - peak(200) < 1800 * 64


def test_singular_step_raises(unstable_setup):
    # a step matrix L that is zero fails cholesky and then lu
    _mesh, _pt, _mode, ops = unstable_setup

    class Degenerate:
        Mu = Du = S = ops.Mu * 0.0
        F, G, n = ops.F, ops.G, ops.n

    with pytest.raises(SingularStep):
        advance(interface_bump_state(ops), Degenerate(), 0.1, 0.5)


def _step_against_complex_lu(prof, mesh, xi, dt):
    """One in-plane step y0 -> y1 of the oracle against the complex packed
    (q | u1, u2, u3 | eta) system with the full-velocity dissipation and
    one q per element, stepped by SuperLU without eliminating q and eta:
    the relative error of the step, and its normwise backward error in the
    reference's matrices."""
    ops = semidiscretize(form_coefficients(mesh, prof), math.hypot(*xi))
    y0 = random_state(ops, seed=3)
    y1 = advance(y0, ops, dt, dt).final
    M, A = complex_operators(prof, mesh, xi)
    x0, x1 = embed_state(ops, y0, xi), embed_state(ops, y1, xi)
    ref = lu_step(M, A, x0, dt)
    lhs = M - 0.5 * dt * A
    r = lhs @ x1 - (M + 0.5 * dt * A) @ x0
    backward = np.abs(r).max() / (abs(lhs).sum(axis=1).max() * np.abs(x1).max())
    return np.linalg.norm(x1 - ref) / np.linalg.norm(ref), backward


def test_banded_step_matches_complex_lu():
    prof = unit_profile(mu_plus=0.7, mu_prime_minus=0.3, sigma_plus=0.2,
                        sigma_minus=0.1)
    mesh = build_mesh(1.0, 1.0, 40, 40)
    for xi in ((0.6, 0.8), (1.02, 1.36)):
        rel, backward = _step_against_complex_lu(prof, mesh, xi, 0.1)
        assert rel <= 1e-11
        assert backward <= 1e-14


@pytest.mark.parametrize("dt, xi, pivoted", [(5.0, (1.02, 1.36), False),
                                             (5.0, (0.6, 0.8), False),
                                             (-0.1, (1.02, 1.36), True),
                                             (40.0, (0.6, 0.8), True)])
def test_both_step_paths_hold_the_backward_error(monkeypatch, dt, xi, pivoted):
    # the Cholesky factors serve when L = Mu + dt/2 Du + dt^2/4 S is
    # positive definite, as at dt = 5; a negative dt, or dt = 40 at |xi| = 1,
    # where the negative interface coefficient wins, makes it indefinite and
    # the step falls back to the pivoted lu.  Either path holds the bounds of
    # test_banded_step_matches_complex_lu
    prof = unit_profile(mu_plus=0.7, mu_prime_minus=0.3, sigma_plus=0.2,
                        sigma_minus=0.1)
    calls = []
    monkeypatch.setattr(evolve, "lu", lambda ab: calls.append(1) or lu(ab))
    rel, backward = _step_against_complex_lu(prof, build_mesh(1.0, 1.0, 40, 40), xi, dt)
    assert len(calls) == pivoted
    assert rel <= 1e-11
    assert backward <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_phased_step_matrices_real_and_banded(unstable_profile, n):
    # in the unknowns (v = i u_parallel, w = u3) the velocity is the forms'
    # two-field unknown in their dof order, so its mass and dissipation are
    # the real band arrays 2 M and 2 K1 bit for bit, and the fields' index
    # arrays lay out the state without gaps or overlaps
    coeffs = form_coefficients(build_mesh(1.0, 1.0, n, n + 1), unstable_profile)
    ops, forms = semidiscretize(coeffs, 1.0), coeffs.at(1.0)
    assert ops.Mu.dtype == np.float64 and ops.Mu.shape == (2 * BAND + 1, forms.M.shape[1])
    assert np.array_equal(ops.Mu, 2.0 * forms.M)
    assert np.array_equal(ops.Du, 2.0 * forms.K1)
    layout = np.concatenate([ops.v, ops.w, ops.q, [ops.eta_minus_idx, ops.eta_plus_idx]])
    assert np.array_equal(np.sort(layout), np.arange(ops.n))


def test_advance_rejects_complex_state(unstable_setup):
    # the operators are real: a complex state is two real trajectories
    _mesh, _pt, _mode, ops = unstable_setup
    y0 = interface_bump_state(ops).astype(complex)
    with pytest.raises(ValueError, match="real"):
        advance(y0, ops, 0.1, 0.1)


def test_trajectory_csv(tmp_path, unstable_setup):
    _mesh, pt, mode, ops = unstable_setup
    traj = advance(state_from_mode(ops, mode), ops, 0.2 / pt.lam, 1.0 / pt.lam)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,abs_eta_minus,abs_eta_plus,energy,dissipation,balance_residual"
    assert len(lines) == traj.times.size + 1


def test_state_from_mode_rejects_nonzero_bottom(unstable_setup):
    _mesh, _pt, mode, ops = unstable_setup
    phi = mode.phi.copy()
    phi[0] = 1.0
    with pytest.raises(ValueError):
        state_from_mode(ops, replace(mode, phi=phi))


def test_state_from_mode_rejects_other_mesh(unstable_setup, unstable_profile):
    _mesh, _pt, mode, _ops = unstable_setup

    def ops_on(n_minus, n_plus):
        mesh = build_mesh(1.0, 1.0, n_minus, n_plus)
        return semidiscretize(form_coefficients(mesh, unstable_profile), 1.0)

    with pytest.raises(ValueError):
        state_from_mode(ops_on(10, 10), mode)
    # the same node and q counts with another layer split
    coeffs = form_coefficients(build_mesh(1.0, 1.0, 10, 30), unstable_profile)
    split = assemble_mode(growth_rate(coeffs, 1.0), coeffs)
    state_from_mode(ops_on(10, 30), split)
    with pytest.raises(ValueError, match="mesh"):
        state_from_mode(ops_on(30, 10), split)


def test_state_from_mode_rejects_nonzero_theta(unstable_setup):
    # a rotated mode's velocity is not along (1, 0): theta would be dropped
    _mesh, _pt, mode, ops = unstable_setup
    t = 0.4
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    with pytest.raises(ValueError, match="theta"):
        state_from_mode(ops, rotate_mode(mode, R))


@pytest.mark.parametrize("k_plus, k_minus, p_atm", [(1.0, 2.0, 1.0), (400.0, 800.0, 400.0)])
@pytest.mark.parametrize("xi_abs", [1.0, 4.0])
def test_oracle_rate_is_the_root_of_its_own_pencil(k_plus, k_minus, p_atm, xi_abs):
    # run as `rtstab oracle` does, at 100 elements per layer, the fitted rate
    # is the root of the oracle's own normal-mode pencil up to the fit and
    # the trapezoidal error, on the README pair and on a stiff (nearly
    # incompressible) pair.  The locked lambda_variational of the root solve
    # stays 9.57% (|xi| = 1) and 20.1% (|xi| = 4) away on the stiff pair
    # until the E0 bulk term is projected the same way (ROADMAP item 1)
    prof = solve_equilibrium(PolytropicLaw(k_plus, 1.0), PolytropicLaw(k_minus, 1.0),
                             unit_params(p_atm=p_atm))
    coeffs = form_coefficients(build_mesh(1.0, 1.0, 100, 100), prof)
    pt = growth_rate(coeffs, xi_abs)
    ops = semidiscretize(coeffs, xi_abs)
    traj = advance(state_from_mode(ops, assemble_mode(pt, coeffs)), ops,
                   0.01 / pt.lam, 6.0 / pt.lam)
    fitted = measure_growth(traj, NumericsConfig().fit_window)
    root = pencil_root(*oracle_pencil(coeffs, xi_abs), hi=2.0 * pt.lam)
    assert abs(fitted - root) <= 1e-4 * root
