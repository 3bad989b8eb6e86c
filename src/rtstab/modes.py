"""Growing-mode assembly, rotation equivariance, and residual diagnostics.

A converged dispersion point at frequency magnitude |xi| carries the
minimizer (phi, psi) and the rate lam.  The full normal-mode fields follow
from the mode ansatz: with xi = (|xi|, 0) and theta = 0,

    w = (-i phi, -i theta, psi) e^{i xi.x'},
    q_tilde  = -(1/lam) [ (rho psi)' + rho (xi1 phi + xi2 theta) ],
    eta_tilde(+/-) = psi(ell)/lam, psi(0)/lam,

normalized so the interface displacement has unit L2 norm over the periodic
cell: |eta_tilde_minus| * 2 pi sqrt(L1 L2) = 1 (single-Fourier-mode
convention).  q_tilde has one value per element, the one the evolution
oracle steps: lam H_e q_e = -r_e . u_e with the continuity rows (H, r) of
FormCoefficients.continuity, the h'(rho)-weighted element mean of the
expression above.  So it jumps at the interface like the exact density
perturbation.

Rotating the frequency maps (phi, theta) by the same rotation and leaves
psi, lam, q_tilde unchanged.

ode_residual evaluates the strong form of the reduced two-field system at
element midpoints plus every boundary/jump condition.  P1 fields have no
second derivatives, so fluxes are recovered from their midpoint samples with
per-layer finite differences (global L2 recovery pollutes the end elements
of each layer), which restores O(h)-or-better residual decay under
refinement for a converged eigenmode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import write_csv, write_json
from .dispersion import DispersionPoint
from .equilibrium import EquilibriumProfile
from .errors import DegenerateMode, NotARotation
from .variational import FormCoefficients, Mesh1D, layer_fields, surface_coefficients


@dataclass(frozen=True)
class GrowingMode:
    """Normal-mode profiles: phi, theta, psi at the mesh nodes (bottom value
    0) and q_tilde, one value per element."""

    xi: tuple[float, float]
    lam: float
    mesh: Mesh1D
    phi: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    q_tilde: np.ndarray
    eta_tilde_plus: float
    eta_tilde_minus: float


def assemble_mode(point: DispersionPoint, coeffs: FormCoefficients) -> GrowingMode:
    """Build the normalized growing mode from a converged dispersion point
    solved on coeffs (growth_rate), on the same mesh and fields."""
    if point.lam <= 0:
        raise ValueError("assemble_mode requires a growing point (lam > 0)")
    mesh = coeffs.mesh
    phi = np.zeros(mesh.n_nodes)
    psi = np.zeros(mesh.n_nodes)
    phi[1:] = point.minimizer[0::2]
    psi[1:] = point.minimizer[1::2]
    psi0 = psi[mesh.interface_index]
    if abs(psi0) < 1e-10:
        raise DegenerateMode(f"interface psi = {psi0} below 1e-10")
    params = coeffs.profile.params
    lam = point.lam
    # |eta_minus| * 2 pi sqrt(L1 L2) = 1 after scaling.
    eta_minus_raw = psi0 / lam
    scale = 1.0 / (abs(eta_minus_raw) * 2.0 * math.pi * math.sqrt(params.L1 * params.L2))
    phi *= scale
    psi *= scale
    H, r = coeffs.continuity(point.xi_abs)
    u = np.stack([phi[:-1], phi[1:], psi[:-1], psi[1:]], axis=1)  # mesh.dofs(2) order
    q_tilde = -np.einsum("ei,ei->e", r, u) / (lam * H)
    return GrowingMode((point.xi_abs, 0.0), lam, mesh, phi, np.zeros_like(phi), psi,
                       q_tilde, eta_tilde_plus=psi[-1] / lam,
                       eta_tilde_minus=psi[mesh.interface_index] / lam)


def rotate_mode(mode: GrowingMode, R: np.ndarray) -> GrowingMode:
    """Map the mode to the rotated frequency R xi; psi and lam are unchanged
    while (phi, theta) rotate by R."""
    R = np.asarray(R, dtype=float)
    if R.shape != (2, 2) or np.abs(R.T @ R - np.eye(2)).max() > 1e-12 \
            or abs(np.linalg.det(R) - 1.0) > 1e-12:
        raise NotARotation("R must be a 2x2 proper rotation to 1e-12")
    xi_new = tuple(R @ np.asarray(mode.xi))
    phi_new = R[0, 0] * mode.phi + R[0, 1] * mode.theta
    theta_new = R[1, 0] * mode.phi + R[1, 1] * mode.theta
    return replace(mode, xi=(float(xi_new[0]), float(xi_new[1])),
                   phi=phi_new, theta=theta_new)


@dataclass(frozen=True)
class OdeResidualReport:
    """Max-abs strong-form residuals, one entry per equation/condition."""

    phi_interior: float
    psi_interior: float
    theta_interior: float
    top_shear: float
    top_stress: float
    jump_shear: float
    jump_stress: float
    bottom_phi: float
    bottom_psi: float


def _flux_slope(mesh: Mesh1D, f_mid: np.ndarray) -> np.ndarray:
    """d/dx3 of a per-element flux at element midpoints, per layer.

    One np.gradient per layer: central differences in the layer interior,
    one-sided at the first/last element of each layer (consistent, O(h)).
    build_mesh gives every layer the two elements np.gradient needs.
    """
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    i0 = mesh.interface_index
    return np.concatenate([np.gradient(f_mid[:i0], mids[:i0]),
                           np.gradient(f_mid[i0:], mids[i0:])])


def _flux_ends(mesh: Mesh1D, f_mid: np.ndarray) -> dict[str, float]:
    """Linear extrapolation of midpoint flux samples to the layer end nodes."""
    i0 = mesh.interface_index
    f_lo, f_hi = f_mid[:i0], f_mid[i0:]
    return {
        "bottom": 1.5 * f_lo[0] - 0.5 * f_lo[1],
        "int_minus": 1.5 * f_lo[-1] - 0.5 * f_lo[-2],
        "int_plus": 1.5 * f_hi[0] - 0.5 * f_hi[1],
        "top": 1.5 * f_hi[-1] - 0.5 * f_hi[-2],
    }


def ode_residual(mode: GrowingMode, profile: EquilibriumProfile) -> OdeResidualReport:
    """Strong-form residuals of the reduced normal-mode ODE system.

    The in-plane component (xi1 phi + xi2 theta)/|xi| feeds the phi equation;
    the transverse component feeds the decoupled theta equation (identically
    zero for modes built here).  Interior residuals are evaluated at element
    midpoints with recovered fluxes; boundary and jump rows use the recovered
    one-sided flux values at the end nodes.
    """
    mesh = mode.mesh
    lam = mode.lam
    xi_abs = math.hypot(*mode.xi)
    if xi_abs == 0:
        raise ValueError("mode frequency must be nonzero")
    phi_par = (mode.xi[0] * mode.phi + mode.xi[1] * mode.theta) / xi_abs
    phi_perp = (-mode.xi[1] * mode.phi + mode.xi[0] * mode.theta) / xi_abs
    psi = mode.psi
    nodes = mesh.nodes
    h = np.diff(nodes)
    dphi = np.diff(phi_par) / h
    dperp = np.diff(phi_perp) / h
    dpsi = np.diff(psi) / h
    i0 = mesh.interface_index

    # Midpoint flux samples.  flux_phi = lam mu phi'; flux_perp likewise for
    # the transverse field; flux_v = (4 lam mu/3 + lam mu') psi'
    #                              + (lam mu' + lam mu/3) |xi| phi;
    # flux_p = h'(rho) [ (rho psi)' + rho |xi| phi ]  (note P' = rho h').
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    rho, drho, dp, mu, mu_p = layer_fields(mesh, profile, mids)
    phi_mid = 0.5 * (phi_par[:-1] + phi_par[1:])
    psi_mid = 0.5 * (psi[:-1] + psi[1:])
    perp_mid = 0.5 * (phi_perp[:-1] + phi_perp[1:])
    f_phi = lam * mu * dphi
    f_perp = lam * mu * dperp
    f_v = (4 * lam * mu / 3 + lam * mu_p) * dpsi \
        + (lam * mu_p + lam * mu / 3) * xi_abs * phi_mid
    f_p = (dp / rho) * (drho * psi_mid + rho * dpsi + rho * xi_abs * phi_mid)
    df_phi, df_perp, df_v, df_p = (_flux_slope(mesh, f)
                                   for f in (f_phi, f_perp, f_v, f_p))

    a_coef = lam**2 * rho + lam * mu * xi_abs**2 \
        + xi_abs**2 * (lam * mu_p + lam * mu / 3 + dp * rho)
    b_term = xi_abs * ((lam * mu_p + lam * mu / 3) * dpsi
                       + dp * (drho * psi_mid + rho * dpsi))
    inertia = lam**2 * rho + lam * mu * xi_abs**2
    r_phi = float(np.abs(-df_phi + a_coef * phi_mid + b_term).max())
    r_psi = float(np.abs(-df_v - rho * df_p + inertia * psi_mid).max())
    r_perp = float(np.abs(-df_perp + inertia * perp_mid).max())

    # Boundary and jump rows from layer-end extrapolated fluxes.
    mu_pl = profile.params.mu_plus
    mu_mi = profile.params.mu_minus
    ends_v = _flux_ends(mesh, f_v)
    ends_p = _flux_ends(mesh, f_p)
    ends_dphi = _flux_ends(mesh, dphi)
    top_shear = abs(mu_pl * lam * (xi_abs * psi[-1] - ends_dphi["top"]))
    A, C = surface_coefficients(profile)
    interface_coef, top_coef = A + xi_abs**2 * C
    # normal stress at the top: -flux_v + lam mu |xi| phi - rho1 flux_p
    #                           = (rho1 g + sigma_+ |xi|^2) psi
    top_stress = abs(-ends_v["top"] + lam * mu_pl * xi_abs * phi_par[-1]
                     - profile.rho1 * ends_p["top"] - top_coef * psi[-1])
    jump_shear = abs(mu_pl * lam * (xi_abs * psi[i0] - ends_dphi["int_plus"])
                     - mu_mi * lam * (xi_abs * psi[i0] - ends_dphi["int_minus"]))
    # jump of (flux_v - lam mu |xi| phi + rho flux_p) balances
    # -(jump g - sigma_- |xi|^2) psi(0)
    jump_stress = abs((ends_v["int_plus"] - lam * mu_pl * xi_abs * phi_par[i0]
                       + profile.rho_top_interface * ends_p["int_plus"])
                      - (ends_v["int_minus"] - lam * mu_mi * xi_abs * phi_par[i0]
                         + profile.rho_bot_interface * ends_p["int_minus"])
                      - interface_coef * psi[i0])
    return OdeResidualReport(r_phi, r_psi, r_perp, top_shear, top_stress,
                             jump_shear, jump_stress,
                             abs(phi_par[0]), abs(psi[0]))


def export_mode(mode: GrowingMode, csv_path, json_path) -> None:
    """Write the mode's CSV, one row per element (its x3 ends, phi, theta and
    psi there, then its one q_tilde), and a JSON sidecar with xi, lam, eta."""
    write_csv(csv_path, "x3_lo,x3_hi,phi_lo,phi_hi,theta_lo,theta_hi,psi_lo,psi_hi,q_tilde",
              [end for f in (mode.mesh.nodes, mode.phi, mode.theta, mode.psi)
               for end in (f[:-1], f[1:])] + [mode.q_tilde])
    write_json({"xi": [mode.xi[0], mode.xi[1]], "lambda": mode.lam,
                "eta_plus": mode.eta_tilde_plus, "eta_minus": mode.eta_tilde_minus},
               json_path)
