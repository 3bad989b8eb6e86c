"""Growing-mode assembly and export.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_json
from .dispersion import DispersionPoint
from .errors import DegenerateMode
from .variational import FormCoefficients, Mesh1D


@dataclass(frozen=True, eq=False)
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
    u = np.append(scale * point.minimizer, 0.0)[mesh.dofs(2)]  # dof -1 reads the pad
    q_tilde = -np.einsum("ei,ei->e", r, u) / (lam * H)
    return GrowingMode((point.xi_abs, 0.0), lam, mesh, phi, np.zeros_like(phi), psi,
                       q_tilde, eta_tilde_plus=psi[-1] / lam,
                       eta_tilde_minus=psi[mesh.interface_index] / lam)


def export_mode(mode: GrowingMode, csv_path, json_path) -> None:
    """Write the mode's CSV, one row per element (its x3 ends, phi, theta and
    psi there, then its one q_tilde), and a JSON sidecar with xi, lam, eta."""
    write_csv(csv_path, "x3_lo,x3_hi,phi_lo,phi_hi,theta_lo,theta_hi,psi_lo,psi_hi,q_tilde",
              [end for f in (mode.mesh.nodes, mode.phi, mode.theta, mode.psi)
               for end in (f[:-1], f[1:])] + [mode.q_tilde])
    write_json({"xi": [mode.xi[0], mode.xi[1]], "lambda": mode.lam,
                "eta_plus": mode.eta_tilde_plus, "eta_minus": mode.eta_tilde_minus},
               json_path)
