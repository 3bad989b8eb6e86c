"""Semidiscrete evolution: oracle agreement, energy identity, time stepping."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rtstab.dispersion import growth_rate
from rtstab.errors import BandOverflow, InvalidInput, SingularStep, ZeroSignal
from rtstab.evolve import (STEP_BAND, Trajectory, _phased, advance,
                           energy_balance_residual, interface_bump_state,
                           measure_growth, semidiscretize, state_from_mode,
                           write_trajectory_csv)
from rtstab.modes import assemble_mode
from rtstab.variational import assemble_forms, build_mesh
from tests.oracles import lu_step, random_state


@pytest.fixture(scope="module")
def unstable_setup(unstable_profile, params):
    mesh = build_mesh(1.0, 1.0, 60, 60)
    pt = growth_rate(unstable_profile, 1.0, mesh, params)
    mode = assemble_mode(pt, unstable_profile, mesh)
    ops = semidiscretize(unstable_profile, mesh, (1.0, 0.0), params)
    return mesh, pt, mode, ops


def test_boundary_coefficients_match_variational(unstable_setup, unstable_profile, params):
    mesh, _pt, _mode, ops = unstable_setup
    forms = assemble_forms(mesh, unstable_profile, 1.0, params)
    k0_int = 0.5 * (params.sigma_minus - unstable_profile.jump * params.g)
    k0_top = 0.5 * (params.sigma_plus + unstable_profile.rho1 * params.g)
    assert abs(ops.sigma_int_coef - 2 * k0_int) <= 1e-12
    assert abs(ops.sigma_top_coef - 2 * k0_top) <= 1e-12
    assert forms.K0[forms.psi_interface_dof, forms.psi_interface_dof] != 0.0


def test_viscous_pairing_matches_e1(unstable_setup, unstable_profile, params):
    # <D u, u> at the mode velocity equals twice the variational E1
    mesh, _pt, mode, ops = unstable_setup
    y = state_from_mode(ops, mode)
    u = y[ops.nq:ops.nq + ops.nu]
    duu = float(np.real(np.vdot(u, ops.D @ u)))
    forms = assemble_forms(mesh, unstable_profile, 1.0, params)
    v = np.concatenate([mode.phi[1:], mode.psi[1:]])
    e1 = float(v @ forms.K1 @ v)
    assert duu == pytest.approx(2.0 * e1, rel=1e-12)


def test_zero_state_stays_zero(unstable_setup):
    _mesh, _pt, _mode, ops = unstable_setup
    z = interface_bump_state(ops)
    z[ops.eta_minus_idx] = 0.0
    traj = advance(z, ops, 0.1, 1.0)
    assert np.abs(traj.states).max() == 0.0


def test_one_step_amplification(unstable_setup):
    _mesh, pt, mode, ops = unstable_setup
    lam = pt.lam
    dt = 0.01 / lam
    traj = advance(state_from_mode(ops, mode), ops, dt, dt)
    ratio = np.linalg.norm(traj.states[1]) / np.linalg.norm(traj.states[0])
    predicted = (1 + lam * dt / 2) / (1 - lam * dt / 2)
    # eigen-direction analysis up to O(dt^3 + h^2)
    assert ratio == pytest.approx(predicted, abs=5e-3)


def test_time_reversal_single_step(unstable_setup):
    _mesh, _pt, _mode, ops = unstable_setup
    y0 = random_state(ops, seed=5)
    fwd = advance(y0, ops, 0.01, 0.01)
    back = advance(fwd.states[-1], ops, -0.01, -0.01)
    rel = np.linalg.norm(back.states[-1] - y0) / np.linalg.norm(y0)
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
    res, _energy, _diss = energy_balance_residual(traj, ops)
    assert np.abs(res).max() <= 1e-12


def test_energy_grows_at_twice_lambda(unstable_setup):
    _mesh, pt, mode, ops = unstable_setup
    lam = pt.lam
    traj = advance(state_from_mode(ops, mode), ops, 0.01 / lam, 6.0 / lam)
    egy = np.array([ops.energy(y) for y in traj.states[::20]])
    tt = traj.times[::20]
    half = tt.size // 2
    rate = np.polyfit(tt[half:], np.log(egy[half:]), 1)[0]
    assert rate == pytest.approx(2 * lam, rel=0.02)


def test_stable_full_energy_monotone(stable_profile, params):
    mesh = build_mesh(1.0, 1.0, 40, 40)
    ops = semidiscretize(stable_profile, mesh, (1.0, 0.0), params)
    traj = advance(interface_bump_state(ops), ops, 0.05, 20.0)
    fe = np.array([ops.full_energy(y) for y in traj.states])
    assert np.all(np.diff(fe) <= 1e-10 * np.maximum(fe[:-1], 1e-300))
    # interface amplitude never exceeds its running maximum
    em = traj.eta_minus_abs
    runmax = np.maximum.accumulate(em)
    assert np.all(em[1:] <= (1 + 1e-6) * runmax[:-1])


def test_supercritical_tension_no_growth(unstable_profile):
    from tests.conftest import unit_params
    sigma_c = unstable_profile.jump
    prm = unit_params(sigma_minus=1.5 * sigma_c, sigma_plus=0.5)
    mesh = build_mesh(1.0, 1.0, 40, 40)
    ops = semidiscretize(unstable_profile, mesh, (1.0, 0.0), prm)
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


def test_measure_growth_exact_exponential():
    t = np.linspace(0.0, 3.0, 301)
    states = np.zeros((301, 2), dtype=complex)
    states[:, 1] = np.exp(0.7 * t)
    traj = Trajectory(t, states, t[1] - t[0], 0, 1)
    assert measure_growth(traj, 0.6) == pytest.approx(0.7, abs=1e-10)
    with pytest.raises(ValueError):
        measure_growth(traj, 0.0)


def test_zero_signal_raises():
    t = np.linspace(0.0, 1.0, 11)
    states = np.zeros((11, 2), dtype=complex)
    traj = Trajectory(t, states, 0.1, 0, 1)
    with pytest.raises(ZeroSignal):
        measure_growth(traj, 0.5)


def test_singular_step_raises(unstable_setup):
    _mesh, _pt, _mode, ops = unstable_setup

    class Degenerate:
        M = ops.M * 0.0
        A = ops.A * 0.0
        n = ops.n
        phase = ops.phase
        order = ops.order

    with pytest.raises(SingularStep):
        advance(interface_bump_state(ops), Degenerate(), 0.1, 0.5)


def test_banded_step_matches_complex_lu(unstable_profile, params):
    mesh = build_mesh(1.0, 1.0, 40, 40)
    ops = semidiscretize(unstable_profile, mesh, (0.6, 0.8), params)
    y0, dt = random_state(ops, seed=3), 0.1
    y1 = advance(y0, ops, dt, dt).states[1]
    ref = lu_step(ops, y0, dt)
    assert np.linalg.norm(y1 - ref) <= 1e-11 * np.linalg.norm(ref)
    # normwise backward error of the banded step in the packed complex system
    lhs = ops.M - 0.5 * dt * ops.A
    r = lhs @ y1 - (ops.M + 0.5 * dt * ops.A) @ y0
    scale = abs(lhs).sum(axis=1).max() * np.abs(y1).max()
    assert np.abs(r).max() <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_phased_step_matrices_real_and_banded(unstable_profile, params, n):
    ops = semidiscretize(unstable_profile, build_mesh(1.0, 1.0, n, n + 1),
                         (0.6, 0.8), params)
    assert np.array_equal(np.sort(ops.order), np.arange(ops.n))
    step = _phased(ops.M, ops) - 0.05 * _phased(ops.A, ops)
    assert np.abs(step.todia().offsets).max() == STEP_BAND


def test_non_real_or_wide_step_raises(unstable_setup):
    _mesh, _pt, _mode, ops = unstable_setup

    class Unphased:  # without u_h -> -i u_h the step matrices stay complex
        M, A, n, order = ops.M, ops.A, ops.n, ops.order
        phase = np.ones(ops.n, dtype=complex)

    class Packed:  # the packed layout is far wider than the band
        M, A, n, phase = ops.M, ops.A, ops.n, ops.phase
        order = np.arange(ops.n)

    with pytest.raises(InvalidInput, match="not real"):
        advance(interface_bump_state(ops), Unphased(), 0.1, 0.1)
    with pytest.raises(BandOverflow):
        advance(interface_bump_state(ops), Packed(), 0.1, 0.1)


def test_trajectory_csv(tmp_path, unstable_setup):
    _mesh, pt, mode, ops = unstable_setup
    traj = advance(state_from_mode(ops, mode), ops, 0.2 / pt.lam, 1.0 / pt.lam)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, ops, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,abs_eta_minus,abs_eta_plus,energy,dissipation,balance_residual"
    assert len(lines) == traj.times.size + 1


def test_state_from_mode_rejects_nonzero_bottom(unstable_setup):
    _mesh, _pt, mode, ops = unstable_setup
    phi = mode.phi.copy()
    phi[0] = 1.0
    with pytest.raises(ValueError):
        state_from_mode(ops, replace(mode, phi=phi))


def test_state_from_mode_rejects_other_mesh(unstable_setup, unstable_profile, params):
    _mesh, _pt, mode, _ops = unstable_setup
    other = semidiscretize(unstable_profile, build_mesh(1.0, 1.0, 10, 10),
                           (1.0, 0.0), params)
    with pytest.raises(ValueError):
        state_from_mode(other, mode)
