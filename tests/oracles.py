"""Independent references that tests compare the solver with, and helpers
only tests use: an alternate assembly for the element kernel, a dense
full-spectrum eigensolve, the three-field pencil, a layer-checked enthalpy
weight, random oracle states, a complex sparse-LU time step and a mode CSV
reader."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import splu

from rtstab.equilibrium import EquilibriumProfile, PhysicalParams, PressureLaw
from rtstab.evolve import EvolutionOperators
from rtstab.variational import (Mesh1D, QuadraticForms, _fix_sign, assemble,
                                field_rows, layer_fields, viscous_terms)


def element_layer(mesh: Mesh1D, e: int) -> str:
    return "minus" if e < mesh.n_minus else "plus"


def add_element(K: np.ndarray, mesh: Mesh1D, e: int, local: np.ndarray) -> None:
    """Add element e's (phi_l, phi_r, psi_l, psi_r) matrix `local` into the
    dense two-field matrix K; rows and columns of the bottom node are dropped."""
    nf = mesh.n_free
    gdof = [e - 1, e, nf + e - 1, nf + e]
    free = [e > 0, True, e > 0, True]
    for i in range(4):
        for j in range(4):
            if free[i] and free[j]:
                K[gdof[i], gdof[j]] += local[i, j]


def assemble_forms_alt(mesh: Mesh1D, profile: EquilibriumProfile, xi_abs: float,
                       params: PhysicalParams) -> np.ndarray:
    """Alternate E0 assembly obtained by integrating the gravity term by parts:

        E0 = sigma_- xi^2/2 psi(0)^2 + sigma_+ xi^2/2 psi(ell)^2
           + 1/2 int P'(rho) rho (psi' + xi phi)^2 - 2 g rho xi psi phi.

    Agrees with the primary K0 up to quadrature error.  A dense per-element,
    per-point loop, kept apart from the vectorised kernel on purpose.
    """
    xi = float(xi_abs)
    K = np.zeros((mesh.ndof, mesh.ndof))
    for e in range(mesh.n_elements):
        layer = element_layer(mesh, e)
        xq, wq, N, dN = (a[e] for a in mesh.quad)
        rho = np.asarray(profile.rho(xq, layer), float)
        dp = np.asarray(profile.law(layer).derivative(rho), float)
        k = np.zeros((4, 4))
        for q in range(xq.size):
            w = wq[q]
            row_phi = np.array([N[q, 0], N[q, 1], 0.0, 0.0])
            row_psi = np.array([0.0, 0.0, N[q, 0], N[q, 1]])
            row_dpsi = np.array([0.0, 0.0, dN[q, 0], dN[q, 1]])
            c = row_dpsi + xi * row_phi
            k += w * 0.5 * dp[q] * rho[q] * np.outer(c, c)
            cross = np.outer(row_psi, row_phi)
            k -= w * params.g * rho[q] * xi * 0.5 * (cross + cross.T)
        add_element(K, mesh, e, k)
    psi0 = mesh.n_free + mesh.interface_index - 1
    K[psi0, psi0] += 0.5 * params.sigma_minus * xi**2
    K[-1, -1] += 0.5 * params.sigma_plus * xi**2
    return K


def enthalpy_weight(profile: EquilibriumProfile, x3: float,
                    law: PressureLaw | None = None) -> float:
    """h'(rho(x3)) = P'(rho(x3))/rho(x3); `law` picks the layer at x3 = 0."""
    p = profile.params
    if not (-p.b <= x3 <= p.ell):
        raise ValueError(f"x3 = {x3} outside [{-p.b}, {p.ell}]")
    if law is None:
        layer = "plus" if x3 >= 0 else "minus"
    elif law is profile.law_plus:
        layer = "plus"
    elif law is profile.law_minus:
        layer = "minus"
    else:
        raise ValueError("law does not belong to this profile")
    if layer == "plus" and x3 < 0:
        raise ValueError(f"x3 = {x3} not in the upper layer")
    if layer == "minus" and x3 > 0:
        raise ValueError(f"x3 = {x3} not in the lower layer")
    rho = profile.rho(x3, layer)
    return float(profile.law(layer).derivative(rho) / rho)


def _dense_min(K: np.ndarray, M: np.ndarray,
               psi_interface_dof: int) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of K v = alpha M v from the full spectrum,
    J-normalized with the interface psi value >= 0."""
    vals, vecs = scipy.linalg.eigh(K, M)
    v = vecs[:, 0] / np.sqrt(vecs[:, 0] @ M @ vecs[:, 0])
    return float(vals[0]), _fix_sign(v, psi_interface_dof)


def min_eig_dense(forms: QuadraticForms, s: float) -> tuple[float, np.ndarray]:
    """Dense reference for variational.min_eig: Cholesky reduction of M and
    the full spectrum of the two-field pencil."""
    return _dense_min((forms.K0 + s * forms.K1).toarray(), forms.M.toarray(),
                      forms.psi_interface_dof)


@dataclass(frozen=True)
class Forms3Field:
    """Three-field (phi, theta, psi) matrices; dof blocks in that order."""

    K0: np.ndarray
    K1: np.ndarray
    M: np.ndarray
    xi: tuple[float, float]
    n_free: int
    psi_interface_dof: int


def assemble_forms_3field(mesh: Mesh1D, profile: EquilibriumProfile,
                          xi: tuple[float, float], params: PhysicalParams) -> Forms3Field:
    """Full quadratic structure at a frequency vector xi = (xi1, xi2).

    E1 is the viscous dissipation (viscous_terms) of the normal-mode
    velocity u = (-i phi, -i theta, psi) exp(i xi.x'), the field the
    evolution oracle starts from; it is real.  At xi2 = 0 the theta block
    decouples from (phi, psi) and is coercive, the discrete counterpart of
    dropping theta from the two-field reduction.
    """
    xi1, xi2 = float(xi[0]), float(xi[1])
    nf = mesh.n_free
    rho, drho, dp, mu, mu_p = layer_fields(mesh, profile, params, mesh.quad[0])
    (phi, theta, psi), (dphi, dtheta, dpsi) = field_rows(mesh, 3)
    r, dr = rho[..., None], drho[..., None]
    dofs = mesh.dofs(3)
    shape = (3 * nf, 3 * nf)
    K0 = assemble(mesh, [(0.5 * dp / rho,
                          dr * psi + r * dpsi + r * (xi1 * phi + xi2 * theta))],
                  dofs, dofs, shape).toarray()
    K1 = assemble(mesh, viscous_terms(mu, mu_p, (-1j * phi, -1j * theta, psi),
                                      (-1j * dphi, -1j * dtheta, dpsi),
                                      (1j * xi1, 1j * xi2)),
                  dofs, dofs, shape).toarray().real
    M = assemble(mesh, [(0.5 * rho, f) for f in (phi, theta, psi)],
                 dofs, dofs, shape).toarray()
    xi_sq = xi1**2 + xi2**2
    psi0, psiL = 2 * nf + mesh.interface_index - 1, 3 * nf - 1
    K0[psi0, psi0] += 0.5 * (params.sigma_minus * xi_sq - profile.jump * params.g)
    K0[psiL, psiL] += 0.5 * (params.sigma_plus * xi_sq + profile.rho1 * params.g)
    return Forms3Field(K0, K1, M, (xi1, xi2), nf, psi0)


def min_eig_3field(forms: Forms3Field, s: float) -> tuple[float, np.ndarray]:
    """Dense smallest eigenpair of the three-field pencil, J-normalized."""
    if s <= 0:
        raise ValueError("modified-problem parameter s must be > 0")
    return _dense_min(forms.K0 + s * forms.K1, forms.M, forms.psi_interface_dof)


def random_state(ops: EvolutionOperators, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """Random complex packed state; the bottom velocity node is drawn and
    dropped, so the essential constraint holds."""
    rng = np.random.default_rng(seed)
    mesh = ops.mesh
    q = scale * (rng.standard_normal(ops.nq) + 1j * rng.standard_normal(ops.nq))
    u = scale * (rng.standard_normal((3, mesh.n_nodes))
                 + 1j * rng.standard_normal((3, mesh.n_nodes)))
    eta_p = scale * complex(rng.standard_normal(), rng.standard_normal())
    eta_m = scale * complex(rng.standard_normal(), rng.standard_normal())
    return np.concatenate([q, u[:, 1:].ravel(), [eta_p, eta_m]])


def lu_step(ops: EvolutionOperators, y: np.ndarray, dt: float) -> np.ndarray:
    """One trapezoidal step (M - dt/2 A) y+ = (M + dt/2 A) y of the complex
    packed state by SuperLU, without the phase change or the band order."""
    lhs = (ops.M - 0.5 * dt * ops.A).tocsc()
    return splu(lhs).solve((ops.M + 0.5 * dt * ops.A) @ y)


def import_mode_csv(csv_path) -> dict[str, np.ndarray]:
    """Re-read an exported mode CSV into column arrays (round-trip exact)."""
    data = np.genfromtxt(csv_path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}
