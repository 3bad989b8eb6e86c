"""Reduced variational eigenvalue problem for the two-layer column.

For a horizontal frequency of magnitude xi = |(xi1, xi2)| the normal-mode
reduction leaves two real profiles (phi, psi) on (-b, ell), both vanishing at
the bottom and continuous across the interface.  The quadratic functionals

    E0(phi, psi) = (sigma_- xi^2 - jump*g)/2 * psi(0)^2
                 + (sigma_+ xi^2 + rho1*g)/2 * psi(ell)^2
                 + 1/2 int h'(rho) ((rho psi)' + rho xi phi)^2,

    E1(phi, psi) = 1/2 int mu ((phi' - xi psi)^2 + (psi' - xi phi)^2
                 + (psi' + xi phi)^2 / 3) + mu' (psi' + xi phi)^2,

    J(phi, psi)  = 1/2 int rho (phi^2 + psi^2),

are discretized with conforming piecewise-linear elements and 4-point Gauss
quadrature, giving symmetric matrices (K0, K1, M) with v^T K v equal to the
functional value.  The modified-problem eigenvalue is

    alpha(s) = min { E0(v) + s E1(v) : J(v) = 1 }
             = smallest eigenvalue of (K0 + s K1) v = alpha M v.

E0 is indefinite when the heavy fluid sits on top (jump > 0) and the internal
surface tension is subcritical; M is positive definite, so the pencil is
well-posed regardless.  The matrices are sparse: each dof couples only to
its own node and the two neighbouring nodes.

A three-field variant (phi, theta, psi) assembles the full quadratic
structure at a general frequency vector; at xi = (|xi|, 0) the theta block
decouples and is coercive, which is the discrete counterpart of dropping
theta from the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                 LinearOperator, eigsh, splu)

from .equilibrium import EquilibriumProfile, PhysicalParams
from .errors import SolverDivergence

GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class Mesh1D:
    """Uniform-per-layer P1 mesh on [-b, ell] with a node exactly at 0.

    Scalar unknowns carry one dof per node except the bottom node, where the
    essential condition removes it.  Two-field dof order: all phi then all
    psi, each in node order 1..n_nodes-1.
    """

    nodes: np.ndarray
    n_minus: int
    n_plus: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def interface_index(self) -> int:
        return self.n_minus

    @property
    def n_free(self) -> int:
        """Free nodes per scalar field (bottom node eliminated)."""
        return self.n_nodes - 1

    @property
    def ndof(self) -> int:
        """Two-field (phi, psi) dof count."""
        return 2 * self.n_free

    def element_layer(self, e: int) -> str:
        return "minus" if e < self.n_minus else "plus"

    def element_quad(self, e: int):
        """Quadrature points/weights and local P1 data on element e."""
        xl, xr = self.nodes[e], self.nodes[e + 1]
        h = xr - xl
        xq = 0.5 * (xl + xr) + 0.5 * h * GAUSS_X
        wq = 0.5 * h * GAUSS_W
        n1 = (xr - xq) / h
        n2 = (xq - xl) / h
        dn = np.array([-1.0 / h, 1.0 / h])
        return xq, wq, np.stack([n1, n2], axis=1), dn

    def node_dof(self, node: int) -> int | None:
        """Scalar-field dof index of a node; None at the constrained bottom."""
        return None if node == 0 else node - 1


def build_mesh(b: float, ell: float, n_minus: int, n_plus: int) -> Mesh1D:
    """Uniform nodes per layer with the interface node shared."""
    if n_minus < 2 or n_plus < 2:
        raise ValueError("element counts must be >= 2 per layer")
    if b <= 0 or ell <= 0:
        raise ValueError("layer depths must be positive")
    lower = np.linspace(-b, 0.0, n_minus + 1)
    upper = np.linspace(0.0, ell, n_plus + 1)
    return Mesh1D(np.concatenate([lower, upper[1:]]), n_minus, n_plus)


@dataclass(frozen=True)
class QuadraticForms:
    """Sparse symmetric matrices with v^T K0 v = E0(v), v^T K1 v = E1(v),
    v^T M v = J(v), in the two-field dof order of Mesh1D."""

    K0: sp.csr_array
    K1: sp.csr_array
    M: sp.csr_array
    xi_abs: float
    g: float
    psi_interface_dof: int
    psi_top_dof: int

    @cached_property
    def interleaved(self):
        """(K0, K1, M, perm): the matrices as CSC in (phi_1, psi_1, phi_2,
        psi_2, ...) order, where the half-bandwidth is 3; row k there is dof
        perm[k] here."""
        n_free = self.K0.shape[0] // 2
        perm = np.stack([np.arange(n_free), n_free + np.arange(n_free)],
                        axis=1).ravel()
        return (*(A[perm][:, perm].tocsc() for A in (self.K0, self.K1, self.M)),
                perm)


def _layer_fields(profile: EquilibriumProfile, layer: str, xq: np.ndarray):
    rho = np.asarray(profile.rho(xq, layer), float)
    law = profile.law(layer)
    dp = np.asarray(law.derivative(rho), float)
    drho = -profile.params.g * rho / dp
    return rho, drho, dp


def _scatter(mesh: Mesh1D, local: np.ndarray) -> sp.csr_array:
    """Sum per-element (phi_l, phi_r, psi_l, psi_r) matrices into a sparse
    two-field matrix, dropping the constrained bottom dofs."""
    nf = mesh.n_free
    left = np.arange(mesh.n_elements) - 1  # scalar dof of each left node
    gdof = np.stack([left, left + 1, nf + left, nf + left + 1], axis=1)
    gdof[0, [0, 2]] = -1  # the bottom node carries no dof
    rows = np.repeat(gdof, 4, axis=1)
    cols = np.tile(gdof, (1, 4))
    keep = (rows >= 0) & (cols >= 0)
    vals = local.reshape(mesh.n_elements, 16)[keep]
    return sp.coo_array((vals, (rows[keep], cols[keep])),
                        shape=(mesh.ndof, mesh.ndof)).tocsr()


def assemble_forms(mesh: Mesh1D, profile: EquilibriumProfile, xi_abs: float,
                   params: PhysicalParams) -> QuadraticForms:
    """Assemble (K0, K1, M) at frequency magnitude xi_abs.

    Local dof order per element is (phi_l, phi_r, psi_l, psi_r); the bulk
    integrands are squares of linear functionals of these, so each matrix is
    a sum of outer products and exactly symmetric.
    """
    xi = float(xi_abs)
    nf = mesh.n_free
    k0 = np.zeros((mesh.n_elements, 4, 4))
    k1 = np.zeros_like(k0)
    m = np.zeros_like(k0)
    for e in range(mesh.n_elements):
        layer = mesh.element_layer(e)
        mu = params.mu(layer)
        mu_p = params.mu_prime(layer)
        xq, wq, N, dN = mesh.element_quad(e)
        rho, drho, dp = _layer_fields(profile, layer, xq)
        h_prime = dp / rho
        for q in range(xq.size):
            w = wq[q]
            row_phi = np.array([N[q, 0], N[q, 1], 0.0, 0.0])
            row_psi = np.array([0.0, 0.0, N[q, 0], N[q, 1]])
            row_dphi = np.array([dN[0], dN[1], 0.0, 0.0])
            row_dpsi = np.array([0.0, 0.0, dN[0], dN[1]])
            gvec = drho[q] * row_psi + rho[q] * row_dpsi + rho[q] * xi * row_phi
            k0[e] += w * 0.5 * h_prime[q] * np.outer(gvec, gvec)
            a = row_dphi - xi * row_psi
            bb = row_dpsi - xi * row_phi
            c = row_dpsi + xi * row_phi
            k1[e] += w * 0.5 * (mu * (np.outer(a, a) + np.outer(bb, bb)
                                      + np.outer(c, c) / 3.0)
                                + mu_p * np.outer(c, c))
            m[e] += w * 0.5 * rho[q] * (np.outer(row_phi, row_phi)
                                        + np.outer(row_psi, row_psi))
    psi0 = nf + mesh.node_dof(mesh.interface_index)
    psiL = nf + mesh.node_dof(mesh.n_nodes - 1)
    K0 = _scatter(mesh, k0)
    K0[psi0, psi0] += 0.5 * (params.sigma_minus * xi**2 - profile.jump * params.g)
    K0[psiL, psiL] += 0.5 * (params.sigma_plus * xi**2 + profile.rho1 * params.g)
    return QuadraticForms(K0, _scatter(mesh, k1), _scatter(mesh, m),
                          xi, params.g, psi0, psiL)


def assemble_forms_alt(mesh: Mesh1D, profile: EquilibriumProfile, xi_abs: float,
                       params: PhysicalParams) -> np.ndarray:
    """Alternate E0 assembly obtained by integrating the gravity term by parts:

        E0 = sigma_- xi^2/2 psi(0)^2 + sigma_+ xi^2/2 psi(ell)^2
           + 1/2 int P'(rho) rho (psi' + xi phi)^2 - 2 g rho xi psi phi.

    Agrees with the primary K0 up to quadrature error.
    """
    xi = float(xi_abs)
    nf = mesh.n_free
    K = np.zeros((mesh.ndof, mesh.ndof))
    for e in range(mesh.n_elements):
        layer = mesh.element_layer(e)
        xq, wq, N, dN = mesh.element_quad(e)
        rho, _drho, dp = _layer_fields(profile, layer, xq)
        k = np.zeros((4, 4))
        for q in range(xq.size):
            w = wq[q]
            row_phi = np.array([N[q, 0], N[q, 1], 0.0, 0.0])
            row_psi = np.array([0.0, 0.0, N[q, 0], N[q, 1]])
            row_dpsi = np.array([0.0, 0.0, dN[0], dN[1]])
            c = row_dpsi + xi * row_phi
            k += w * 0.5 * dp[q] * rho[q] * np.outer(c, c)
            cross = np.outer(row_psi, row_phi)
            k -= w * params.g * rho[q] * xi * 0.5 * (cross + cross.T)
        dofs = [mesh.node_dof(e), mesh.node_dof(e + 1)]
        gdof = [dofs[0], dofs[1],
                None if dofs[0] is None else nf + dofs[0],
                None if dofs[1] is None else nf + dofs[1]]
        for i in range(4):
            if gdof[i] is None:
                continue
            for j in range(4):
                if gdof[j] is None:
                    continue
                K[gdof[i], gdof[j]] += k[i, j]
    psi0 = nf + mesh.node_dof(mesh.interface_index)
    psiL = nf + mesh.node_dof(mesh.n_nodes - 1)
    K[psi0, psi0] += 0.5 * params.sigma_minus * xi**2
    K[psiL, psiL] += 0.5 * params.sigma_plus * xi**2
    return K


def _fix_sign(v: np.ndarray, psi_interface_dof: int) -> np.ndarray:
    s = v[psi_interface_dof]
    if s < 0:
        return -v
    if s == 0 and v[np.argmax(np.abs(v))] < 0:
        return -v
    return v


def _ldl(A: sp.csc_array):
    """Unpivoted LU of a symmetric band matrix, which is its LDL^T
    factorization, and whether it certifies A positive definite: the row and
    column permutations are the identity and every pivot is > 0 (Sylvester's
    law of inertia)."""
    lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    natural = np.arange(A.shape[0])
    certified = (np.array_equal(lu.perm_r, natural)
                 and np.array_equal(lu.perm_c, natural)
                 and bool(np.all(lu.U.diagonal() > 0)))
    return lu, certified


def _shift_invert_min(forms: QuadraticForms, s: float) -> tuple[float, np.ndarray]:
    """Smallest eigenpair by shift-invert Lanczos at a shift certified to lie
    below the spectrum; the eigenvector comes back in the two-field order."""
    K0, K1, M, perm = forms.interleaved
    K = K0 + s * K1
    try:
        lu, below = _ldl(K)
    except RuntimeError:  # exactly singular: 0 is an eigenvalue
        below = False
    shift = 0.0
    if not below:
        shift = -1.1 * forms.g * forms.xi_abs - 1.0
        try:
            lu, _ = _ldl(K - shift * M)
        except RuntimeError as exc:
            raise SolverDivergence(f"shift-invert factorization failed: {exc}") from exc
    n = K.shape[0]
    rng = np.random.default_rng(0)
    try:
        vals, vecs = eigsh(K, k=1, M=M, sigma=shift, which="LM",
                           OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
                           v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    except (ArpackNoConvergence, ArpackError, RuntimeError) as exc:
        raise SolverDivergence(f"shift-invert eigensolve failed: {exc}") from exc
    v = np.empty(n)
    v[perm] = vecs[:, 0]
    return float(vals[0]), v


def min_eig(forms: QuadraticForms, s: float,
            method: str = "iterative") -> tuple[float, np.ndarray]:
    """Smallest eigenpair of (K0 + s K1) v = alpha M v.

    The minimizer is returned J-normalized (v^T M v = 1) with the interface
    psi value >= 0.  method "iterative" runs shift-invert Lanczos on the
    sparse pencil in interleaved (phi_i, psi_i) order, where K = K0 + s K1
    has half-bandwidth 3 and an unpivoted LDL^T factorization costs O(n).
    If every pivot of K is positive, K is positive definite, so the shift 0
    lies below the spectrum and that factorization is the shift-invert
    operator; this keeps Lanczos fast when the lowest eigenvalues cluster
    just above 0.  Otherwise the shift is the proven lower bound
    -1.1 g|xi| - 1 < -g|xi| <= alpha.  Lanczos starts from a fixed vector,
    so equal inputs give bit-identical results.  method "dense" reduces via
    Cholesky of M and solves the full spectrum: the reference the sparse path
    is tested against.
    """
    if s <= 0:
        raise ValueError("modified-problem parameter s must be > 0")
    if method == "dense":
        vals, vecs = scipy.linalg.eigh((forms.K0 + s * forms.K1).toarray(),
                                       forms.M.toarray())
        alpha, v = float(vals[0]), vecs[:, 0]
    elif method == "iterative":
        alpha, v = _shift_invert_min(forms, s)
    else:
        raise ValueError(f"unknown eigensolve method {method!r}")
    v = v / np.sqrt(v @ forms.M @ v)
    return alpha, _fix_sign(v, forms.psi_interface_dof)


def eig_residual(forms: QuadraticForms, s: float, alpha: float,
                 v: np.ndarray) -> float:
    """Normwise relative residual of an eigenpair of K = K0 + s K1:
    ||(K - alpha M) v|| / ((||K||_1 + |alpha| ||M||_1) ||v||)."""
    K = forms.K0 + s * forms.K1
    r = K @ v - alpha * (forms.M @ v)
    scale = (abs(K).sum(axis=0).max()
             + abs(alpha) * abs(forms.M).sum(axis=0).max()) * np.linalg.norm(v)
    return float(np.linalg.norm(r) / scale)


def evaluate_energy(forms: QuadraticForms, v: np.ndarray, s: float) -> tuple[float, float]:
    """(E, J) = (v^T (K0 + s K1) v, v^T M v)."""
    e = float(v @ forms.K0 @ v + s * (v @ forms.K1 @ v))
    j = float(v @ forms.M @ v)
    return e, j


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

    E1 comes from the viscous dissipation of the normal-mode velocity field:
    E1 = int mu/4 |D0|^2 + mu'/2 (div)^2 with the six independent tensor
    entries written as linear functionals of (phi, theta, psi) and their
    derivatives.  At xi2 = 0 the theta block decouples from (phi, psi).
    """
    xi1, xi2 = float(xi[0]), float(xi[1])
    nf = mesh.n_free
    ndof = 3 * nf
    K0 = np.zeros((ndof, ndof))
    K1 = np.zeros_like(K0)
    M = np.zeros_like(K0)
    for e in range(mesh.n_elements):
        layer = mesh.element_layer(e)
        mu = params.mu(layer)
        mu_p = params.mu_prime(layer)
        xq, wq, N, dN = mesh.element_quad(e)
        rho, drho, dp = _layer_fields(profile, layer, xq)
        h_prime = dp / rho
        k0 = np.zeros((6, 6))
        k1 = np.zeros((6, 6))
        m = np.zeros((6, 6))
        for q in range(xq.size):
            w = wq[q]
            z = np.zeros(2)
            nn, dd = N[q], dN
            r_phi = np.concatenate([nn, z, z])
            r_theta = np.concatenate([z, nn, z])
            r_psi = np.concatenate([z, z, nn])
            r_dphi = np.concatenate([dd, z, z])
            r_dtheta = np.concatenate([z, dd, z])
            r_dpsi = np.concatenate([z, z, dd])
            gvec = (drho[q] * r_psi + rho[q] * r_dpsi
                    + rho[q] * (xi1 * r_phi + xi2 * r_theta))
            k0 += w * 0.5 * h_prime[q] * np.outer(gvec, gvec)
            dv = xi1 * r_phi + xi2 * r_theta + r_dpsi
            d11 = 2.0 * xi1 * r_phi - (2.0 / 3.0) * dv
            d22 = 2.0 * xi2 * r_theta - (2.0 / 3.0) * dv
            d33 = 2.0 * r_dpsi - (2.0 / 3.0) * dv
            d12 = xi1 * r_theta + xi2 * r_phi
            d13 = xi1 * r_psi - r_dphi
            d23 = xi2 * r_psi - r_dtheta
            dev = (np.outer(d11, d11) + np.outer(d22, d22) + np.outer(d33, d33)
                   + 2.0 * (np.outer(d12, d12) + np.outer(d13, d13)
                            + np.outer(d23, d23)))
            k1 += w * (0.25 * mu * dev + 0.5 * mu_p * np.outer(dv, dv))
            m += w * 0.5 * rho[q] * (np.outer(r_phi, r_phi)
                                     + np.outer(r_theta, r_theta)
                                     + np.outer(r_psi, r_psi))
        dn0, dn1 = mesh.node_dof(e), mesh.node_dof(e + 1)
        gdof = []
        for block in range(3):
            gdof += [None if dn0 is None else block * nf + dn0,
                     None if dn1 is None else block * nf + dn1]
        # local order above is (phi_l, phi_r, theta_l, theta_r, psi_l, psi_r)
        for i in range(6):
            if gdof[i] is None:
                continue
            for j in range(6):
                if gdof[j] is None:
                    continue
                K0[gdof[i], gdof[j]] += k0[i, j]
                K1[gdof[i], gdof[j]] += k1[i, j]
                M[gdof[i], gdof[j]] += m[i, j]
    xi_sq = xi1**2 + xi2**2
    psi0 = 2 * nf + mesh.node_dof(mesh.interface_index)
    psiL = 2 * nf + mesh.node_dof(mesh.n_nodes - 1)
    K0[psi0, psi0] += 0.5 * (params.sigma_minus * xi_sq - profile.jump * params.g)
    K0[psiL, psiL] += 0.5 * (params.sigma_plus * xi_sq + profile.rho1 * params.g)
    return Forms3Field(K0, K1, M, (xi1, xi2), nf, psi0)


def min_eig_3field(forms: Forms3Field, s: float) -> tuple[float, np.ndarray]:
    """Dense smallest eigenpair of the three-field pencil, J-normalized."""
    if s <= 0:
        raise ValueError("modified-problem parameter s must be > 0")
    vals, vecs = scipy.linalg.eigh(forms.K0 + s * forms.K1, forms.M)
    v = vecs[:, 0]
    v = v / np.sqrt(v @ forms.M @ v)
    return float(vals[0]), _fix_sign(v, forms.psi_interface_dof)


def export_matrix_coordinate(mat: np.ndarray, path) -> None:
    """Debug export in coordinate text format: i j value, zero entries skipped."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"% {mat.shape[0]} {mat.shape[1]}\n")
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                if mat[i, j] != 0.0:
                    fh.write(f"{i} {j} {mat[i, j]:.17g}\n")
