"""Mode assembly, equivariance, residual decay, and export round-trips."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from rtstab.dispersion import growth_rate
from rtstab.errors import DegenerateMode
from rtstab.evolve import csr_product, semidiscretize, state_from_mode
from rtstab.modes import assemble_mode, export_mode
from rtstab.variational import build_mesh, form_coefficients
from tests.oracles import NotARotation, import_mode_csv, ode_residual, rotate_mode


@pytest.fixture(scope="module")
def coeffs40(unstable_profile, mesh40):
    return form_coefficients(mesh40, unstable_profile)


@pytest.fixture(scope="module")
def mode_point(coeffs40):
    return growth_rate(coeffs40, 1.0)


@pytest.fixture(scope="module")
def mode(mode_point, coeffs40):
    return assemble_mode(mode_point, coeffs40)


def test_normalization(mode, params):
    cell = 2.0 * math.pi * math.sqrt(params.L1 * params.L2)
    assert abs(mode.eta_tilde_minus) * cell == pytest.approx(1.0, abs=1e-12)
    assert mode.eta_tilde_minus > 0  # interface sign convention


def test_kinematic_identities(mode, mesh40):
    # eta = psi / lam at both boundaries, by construction
    assert mode.lam * mode.eta_tilde_minus == \
        pytest.approx(mode.psi[mesh40.interface_index], rel=1e-14)
    assert mode.lam * mode.eta_tilde_plus == pytest.approx(mode.psi[-1], rel=1e-14)


def test_continuity_identity_per_element(mode, coeffs40):
    # lam H_e q_e + r_e . u_e = 0 with the rows the oracle steps
    H, r = coeffs40.continuity(1.0)
    u = np.stack([mode.phi[:-1], mode.phi[1:], mode.psi[:-1], mode.psi[1:]], axis=1)
    flux = np.einsum("ei,ei->e", r, u)
    assert mode.q_tilde.shape == (coeffs40.mesh.n_elements,)
    assert np.abs(mode.lam * H * mode.q_tilde + flux).max() <= 1e-14 * np.abs(flux).max()


def test_q_tilde_jumps_at_interface(mode, mesh40):
    # compressible two-layer: the density perturbation is discontinuous
    i0 = mesh40.interface_index
    assert mode.q_tilde[i0 - 1] != pytest.approx(mode.q_tilde[i0], abs=1e-6)


def test_state_from_mode_is_the_oracles_own_z(mode, coeffs40):
    # q and eta of the mode are G u / lam of the oracle's dz/dt = G u, each
    # to round-off in the sum of its terms' magnitudes (q_e is a cancelling
    # sum, up to about 300 times smaller than its terms here)
    ops = semidiscretize(coeffs40, 1.0)
    u = np.stack([mode.phi[1:], mode.psi[1:]], axis=1).ravel()
    want = np.concatenate([u, csr_product(ops.G, u) / mode.lam])
    indptr, indices, data = ops.G
    terms = np.concatenate([np.abs(u), csr_product((indptr, indices, np.abs(data)),
                                                   np.abs(u)) / mode.lam])
    got = state_from_mode(ops, mode)
    assert np.all(np.abs(got - want) <= 1e-14 * terms)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(ValueError, match="xi"):
        state_from_mode(semidiscretize(coeffs40, 2.0), mode)


def test_rotate_identity_bit_for_bit(mode):
    out = rotate_mode(mode, np.eye(2))
    assert out.xi == mode.xi
    assert np.array_equal(out.phi, mode.phi)
    assert np.array_equal(out.theta, mode.theta)
    assert np.array_equal(out.psi, mode.psi)


def test_rotate_quarter_turn(mode):
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = rotate_mode(mode, R)
    assert out.xi == pytest.approx((0.0, mode.xi[0]))
    assert np.abs(out.phi).max() == 0.0
    assert np.array_equal(out.theta, mode.phi)
    assert np.array_equal(out.psi, mode.psi)
    assert out.lam == mode.lam


def test_rotate_round_trip(mode):
    t = 0.81
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    out = rotate_mode(rotate_mode(mode, R), R.T)
    assert np.abs(out.phi - mode.phi).max() <= 1e-15 * np.abs(mode.phi).max()
    assert np.abs(np.asarray(out.xi) - np.asarray(mode.xi)).max() <= 1e-15


def test_rotate_rejects_non_rotation(mode):
    with pytest.raises(NotARotation):
        rotate_mode(mode, np.array([[1.0, 0.0], [0.0, -1.0]]))  # det -1
    with pytest.raises(NotARotation):
        rotate_mode(mode, 1.0000001 * np.eye(2))


def test_degenerate_mode_rejected(mode_point, coeffs40):
    from dataclasses import replace
    bad = replace(mode_point, minimizer=np.zeros_like(mode_point.minimizer))
    with pytest.raises(DegenerateMode):
        assemble_mode(bad, coeffs40)
    with pytest.raises(ValueError):
        assemble_mode(replace(mode_point, lam=0.0), coeffs40)


def test_dirichlet_rows_exact(mode, unstable_profile):
    rep = ode_residual(mode, unstable_profile)
    assert rep.bottom_phi == 0.0
    assert rep.bottom_psi == 0.0
    assert rep.theta_interior == 0.0  # theta = 0 solves its equation vacuously


def test_residual_decay_under_refinement(unstable_profile):
    worst = []
    for n in (25, 50, 100):
        mesh = build_mesh(1.0, 1.0, n, n)
        coeffs = form_coefficients(mesh, unstable_profile)
        mode_n = assemble_mode(growth_rate(coeffs, 1.0), coeffs)
        rep = asdict(ode_residual(mode_n, unstable_profile))
        worst.append(max(rep.values()))
    order = math.log2(worst[0] / worst[1]) if worst[1] else 2.0
    order2 = math.log2(worst[1] / worst[2]) if worst[2] else 2.0
    assert min(order, order2) >= 0.9


def test_residual_rotation_invariant(mode, unstable_profile):
    base = asdict(ode_residual(mode, unstable_profile))
    t = 1.1
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    rot = asdict(ode_residual(rotate_mode(mode, R), unstable_profile))
    for key, val in base.items():
        assert rot[key] == pytest.approx(val, abs=1e-12)


def test_export_round_trip(tmp_path, mode):
    csv_path = tmp_path / "mode.csv"
    export_mode(mode, csv_path, tmp_path / "mode.json")
    cols = import_mode_csv(csv_path)
    assert list(cols) == ["x3_lo", "x3_hi", "phi_lo", "phi_hi", "theta_lo",
                          "theta_hi", "psi_lo", "psi_hi", "q_tilde"]
    assert cols["x3_lo"].size == mode.mesh.n_elements  # one row per element
    for name, f in (("x3", mode.mesh.nodes), ("phi", mode.phi),
                    ("theta", mode.theta), ("psi", mode.psi)):
        assert np.array_equal(cols[f"{name}_lo"], f[:-1])
        assert np.array_equal(cols[f"{name}_hi"], f[1:])
    assert np.array_equal(cols["q_tilde"], mode.q_tilde)
    sidecar = json.loads((tmp_path / "mode.json").read_text())
    assert sidecar["lambda"] == mode.lam
    assert sidecar["eta_minus"] == mode.eta_tilde_minus


def test_export_rotated_sidecar(tmp_path, mode):
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    rot = rotate_mode(mode, R)
    export_mode(rot, tmp_path / "m.csv", tmp_path / "m.json")
    sidecar = json.loads((tmp_path / "m.json").read_text())
    assert sidecar["xi"] == [rot.xi[0], rot.xi[1]]


def test_export_unwritable_path(mode, tmp_path):
    with pytest.raises(OSError):
        export_mode(mode, tmp_path / "nope" / "mode.csv",
                    tmp_path / "nope" / "mode.json")
