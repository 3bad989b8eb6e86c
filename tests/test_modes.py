"""Mode assembly, equivariance, residual decay, and export round-trips."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from rtstab.dispersion import growth_rate
from rtstab.errors import DegenerateMode, NotARotation
from rtstab.modes import assemble_mode, export_mode, ode_residual, rotate_mode
from rtstab.variational import build_mesh, form_coefficients
from tests.oracles import import_mode_csv


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


def test_continuity_identity_at_quadrature(mode, coeffs40, mesh40):
    # lam q + Proj[(rho psi)' + rho xi1 phi] = 0 with the stored projection
    from rtstab.modes import project_q_tilde
    qm, qp = project_q_tilde(coeffs40, mode.phi, mode.theta, mode.psi, mode.xi,
                             mode.lam)
    i0 = mesh40.interface_index
    scale = max(np.abs(qm).max(), np.abs(qp).max())
    for e in range(mesh40.n_elements):
        N = mesh40.quad[2][e]
        if e < i0:
            qvals = N[:, 0] * qm[e] + N[:, 1] * qm[e + 1]
            stored = N[:, 0] * mode.q_tilde_minus[e] + N[:, 1] * mode.q_tilde_minus[e + 1]
        else:
            qvals = N[:, 0] * qp[e - i0] + N[:, 1] * qp[e - i0 + 1]
            stored = N[:, 0] * mode.q_tilde_plus[e - i0] + N[:, 1] * mode.q_tilde_plus[e - i0 + 1]
        assert np.abs(qvals - stored).max() <= 1e-10 * scale


def test_q_tilde_jumps_at_interface(mode):
    # compressible two-layer: the density perturbation is discontinuous
    assert mode.q_tilde_minus[-1] != pytest.approx(mode.q_tilde_plus[0], abs=1e-6)


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
    i0 = mode.mesh.interface_index
    n = mode.mesh.n_nodes
    assert cols["x3"].size == n + 1  # interface row per layer
    assert np.array_equal(cols["phi"][:i0 + 1], mode.phi[:i0 + 1])
    assert np.array_equal(cols["psi"][i0 + 1:], mode.psi[i0:])
    assert np.array_equal(cols["q_tilde"][:i0 + 1], mode.q_tilde_minus)
    assert np.array_equal(cols["q_tilde"][i0 + 1:], mode.q_tilde_plus)
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
