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
its own node and the two neighbouring nodes, so in the interleaved order
(phi_1, psi_1, phi_2, psi_2, ...) they are banded with half-bandwidth 3 and
QuadraticForms keeps them in LAPACK band storage.  min_eig finds the smallest
eigenpair by Lanczos on U (K - shift M)^-1 U^T, where M = U^T U, with banded
Cholesky factorizations only: a shift is certified below the spectrum exactly
when the Cholesky factorization of K - shift M succeeds.

Every matrix here, the evolution oracle's (M, A) and both P1 projections
come from one vectorised element kernel, `assemble`: a list of terms
(c, B[, C]) of quadrature-point coefficients and linear-functional rows,
summed as w c conj(B)^T C over all elements and points at once and
scattered into CSR through a dof map such as `Mesh1D.dofs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbmv, dtbsv
from scipy.linalg.lapack import dpbtrf, dpbtrs, dptsv
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .equilibrium import EquilibriumProfile, PhysicalParams
from .errors import BandOverflow, SolverDivergence

GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(4)
BAND = 3  # half-bandwidth of the two-field pencil in interleaved order


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

    @cached_property
    def quad(self):
        """(xq, wq, N, dN) on every element: Gauss points and weights of shape
        (E, Q), and the values and slopes of the element's (left, right) P1
        shape functions there, of shape (E, Q, 2)."""
        xl, xr = self.nodes[:-1, None], self.nodes[1:, None]
        h = xr - xl
        xq = 0.5 * (xl + xr) + 0.5 * h * GAUSS_X
        wq = 0.5 * h * GAUSS_W
        N = np.stack([(xr - xq) / h, (xq - xl) / h], axis=-1)
        dN = np.broadcast_to(np.stack([-1.0 / h, 1.0 / h], axis=-1), N.shape)
        return xq, wq, N, dN

    def dofs(self, blocks: int) -> np.ndarray:
        """(E, 2 blocks) global dofs of each element's (left, right) node in
        each of `blocks` scalar fields of n_free dofs; -1 at the bottom node."""
        left = np.arange(self.n_elements)[:, None] - 1
        out = np.concatenate([left + [k * self.n_free, k * self.n_free + 1]
                              for k in range(blocks)], axis=1)
        out[0, 0::2] = -1
        return out


def build_mesh(b: float, ell: float, n_minus: int, n_plus: int) -> Mesh1D:
    """Uniform nodes per layer with the interface node shared."""
    if n_minus < 2 or n_plus < 2:
        raise ValueError("element counts must be >= 2 per layer")
    if b <= 0 or ell <= 0:
        raise ValueError("layer depths must be positive")
    lower = np.linspace(-b, 0.0, n_minus + 1)
    upper = np.linspace(0.0, ell, n_plus + 1)
    return Mesh1D(np.concatenate([lower, upper[1:]]), n_minus, n_plus)


def layer_fields(mesh: Mesh1D, profile: EquilibriumProfile,
                 params: PhysicalParams, xq: np.ndarray) -> np.ndarray:
    """rho, rho' = -g rho / P'(rho), P'(rho), mu and mu' at the points xq,
    stacked as (5, *xq.shape); row e of xq holds points of element e, such as
    its quadrature points mesh.quad[0] or its midpoint, and takes the values
    of that element's layer."""
    out = np.empty((5, *xq.shape))
    for layer, rows in (("minus", slice(0, mesh.n_minus)),
                        ("plus", slice(mesh.n_minus, None))):
        rho = np.asarray(profile.rho(xq[rows], layer), float)
        dp = np.asarray(profile.law(layer).derivative(rho), float)
        out[:, rows] = np.broadcast_arrays(rho, -profile.params.g * rho / dp, dp,
                                           params.mu(layer), params.mu_prime(layer))
    return out


def field_rows(mesh: Mesh1D, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope rows, each (blocks, E, Q, 2 blocks): row k evaluates
    scalar field k, whose (left, right) local dofs are 2k and 2k + 1."""
    _xq, _wq, N, dN = mesh.quad
    val = np.zeros((blocks, *N.shape[:2], 2 * blocks))
    der = np.zeros_like(val)
    for k in range(blocks):
        val[k, ..., 2 * k:2 * k + 2] = N
        der[k, ..., 2 * k:2 * k + 2] = dN
    return val, der


def assemble(mesh: Mesh1D, terms, row_dofs: np.ndarray, col_dofs: np.ndarray,
             shape: tuple[int, int]) -> sp.csr_array:
    """The element kernel: sum over elements e and quadrature points q of

        w c conj(B)^T C

    for every term (c, B) or (c, B, C), with C = B when omitted.  c has shape
    (E, Q) and the rows B, C have shape (E, Q, I) and (E, Q, J): linear
    functionals of the element's local dofs.  Each outer product is formed
    before it is weighted and the points are summed in order, so a term with
    C = B gives an exactly symmetric matrix.  The (E, I, J) element matrices
    are scattered once through the (E, I) and (E, J) global dof maps; a dof
    of -1 is dropped.
    """
    local = 0.0
    for c, B, *C in terms:
        C = C[0] if C else B
        wc = mesh.quad[1] * c
        B = np.conj(B)
        for q in range(wc.shape[1]):
            local = local + wc[:, q, None, None] * (B[:, q, :, None] * C[:, q, None, :])
    n_i, n_j = row_dofs.shape[1], col_dofs.shape[1]
    rows = np.repeat(row_dofs, n_j, axis=1)
    cols = np.tile(col_dofs, (1, n_i))
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_array((local.reshape(rows.shape)[keep], (rows[keep], cols[keep])),
                        shape=shape).tocsr()


def project_p1(mesh: Mesh1D, values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """L2 projection of quadrature-point samples (E, Q) onto continuous P1 on
    elements lo..hi-1; returns the values at nodes lo..hi.  The P1 mass is
    SPD tridiagonal and is solved from its two diagonals by dptsv."""
    N = mesh.quad[2]
    e = np.arange(mesh.n_elements)[:, None]
    dofs = np.where((lo <= e) & (e < hi), e - lo + [0, 1], -1)
    n = hi - lo + 1
    mass = assemble(mesh, [(1.0, N)], dofs, dofs, (n, n))
    rhs = assemble(mesh, [(values, N, np.ones_like(N[..., :1]))], dofs,
                   np.zeros_like(dofs[:, :1]), (n, 1))
    _d, _e, x, info = dptsv(mass.diagonal(), mass.diagonal(1), rhs.toarray())
    if info != 0:
        raise SolverDivergence(f"P1 mass matrix is not positive definite (info {info})")
    return x[:, 0]


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
    def band(self):
        """(K0, K1, M, perm): the matrices in LAPACK upper band storage for
        the (phi_1, psi_1, phi_2, psi_2, ...) order, where the half-bandwidth
        is BAND; entry (i, j), i <= j, sits at [BAND + i - j, j], and row k
        there is dof perm[k] here."""
        n = self.K0.shape[0]
        perm = np.arange(n).reshape(2, -1).T.ravel()
        out = []
        for A in (self.K0, self.K1, self.M):
            dia = A[perm][:, perm].todia()  # offset d: A[j - d, j] at column j
            if np.abs(dia.offsets).max() > BAND:
                raise BandOverflow("matrix is wider than the interleaved band")
            upper = dia.offsets >= 0
            ab = np.zeros((BAND + 1, n))
            ab[BAND - dia.offsets[upper]] = dia.data[upper]
            out.append(ab)
        return (*out, perm)

    @cached_property
    def m_factor(self) -> np.ndarray:
        """Upper band Cholesky factor U of M = U^T U in the banded order."""
        U, info = dpbtrf(self.band[2])
        if info != 0:
            raise SolverDivergence(f"mass matrix is not positive definite (info {info})")
        return U


def form_terms(mesh: Mesh1D, profile: EquilibriumProfile, xi_abs: float,
               params: PhysicalParams):
    """The bulk kernel terms (div, visc, mass) of E0, E1 and J at frequency
    magnitude xi_abs, in the (phi, psi) rows of field_rows(mesh, 2): div is
    E0's one term (h'(rho)/2, (rho psi)' + rho xi phi), visc the three of E1
    and mass the two of J.  The evolution oracle reads the same lists for its
    velocity (v, w) = (i u_parallel, u3), whose mass, dissipation and
    divergence are 2 J, 2 E1 and the row of div."""
    xi = float(xi_abs)
    rho, drho, dp, mu, mu_p = layer_fields(mesh, profile, params, mesh.quad[0])
    (phi, psi), (dphi, dpsi) = field_rows(mesh, 2)
    r, dr = rho[..., None], drho[..., None]
    dv = dpsi + xi * phi
    div = (0.5 * dp / rho, dr * psi + r * dpsi + r * xi * phi)
    visc = [(0.5 * mu, dphi - xi * psi), (0.5 * mu, dpsi - xi * phi),
            (mu / 6.0 + 0.5 * mu_p, dv)]
    mass = [(0.5 * rho, phi), (0.5 * rho, psi)]
    return div, visc, mass


def assemble_forms(mesh: Mesh1D, profile: EquilibriumProfile, xi_abs: float,
                   params: PhysicalParams) -> QuadraticForms:
    """Assemble (K0, K1, M) at frequency magnitude xi_abs.

    Local dof order per element is (phi_l, phi_r, psi_l, psi_r); the bulk
    integrands are squares of linear functionals of these (form_terms), so
    each matrix is a sum of outer products and exactly symmetric.
    """
    xi = float(xi_abs)
    nf = mesh.n_free
    div, visc, mass = form_terms(mesh, profile, xi, params)
    dofs = mesh.dofs(2)
    shape = (mesh.ndof, mesh.ndof)
    K0 = assemble(mesh, [div], dofs, dofs, shape)
    K1 = assemble(mesh, visc, dofs, dofs, shape)
    M = assemble(mesh, mass, dofs, dofs, shape)
    psi0, psiL = nf + mesh.interface_index - 1, 2 * nf - 1
    K0[psi0, psi0] += 0.5 * (params.sigma_minus * xi**2 - profile.jump * params.g)
    K0[psiL, psiL] += 0.5 * (params.sigma_plus * xi**2 + profile.rho1 * params.g)
    return QuadraticForms(K0, K1, M, xi, params.g, psi0, psiL)


def _fix_sign(v: np.ndarray, psi_interface_dof: int) -> np.ndarray:
    s = v[psi_interface_dof]
    if s < 0:
        return -v
    if s == 0 and v[np.argmax(np.abs(v))] < 0:
        return -v
    return v


def _shift_invert_min(forms: QuadraticForms, s: float,
                      below: float | None) -> tuple[float, np.ndarray]:
    """Smallest eigenpair from the largest eigenvalue theta = 1/(alpha -
    shift) of U (K - shift M)^-1 U^T, M = U^T U, and its vector w = U v; v
    comes back in the two-field order."""
    K0, K1, M, perm = forms.band
    K = K0 + s * K1
    for shift in (0.0, below, -1.1 * forms.g * forms.xi_abs - 1.0):
        if shift is not None:
            F, info = dpbtrf(K - shift * M)
            if info == 0:
                break
    else:
        raise SolverDivergence("no shift-invert shift is below the spectrum")
    U = forms.m_factor

    def apply(x):
        return dtbmv(BAND, U, dpbtrs(F, dtbmv(BAND, U, x, trans=1))[0])

    n = K.shape[1]
    rng = np.random.default_rng(0)
    try:
        theta, w = eigsh(LinearOperator((n, n), matvec=apply, dtype=float), k=1,
                         which="LA", v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    except ArpackError as exc:
        raise SolverDivergence(f"shift-invert eigensolve failed: {exc}") from exc
    v = np.empty(n)
    v[perm] = dtbsv(BAND, U, w[:, 0])
    return shift + 1.0 / float(theta[0]), v


def min_eig(forms: QuadraticForms, s: float,
            below: float | None = None) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of (K0 + s K1) v = alpha M v.

    The minimizer is returned J-normalized (v^T M v = 1) with the interface
    psi value >= 0.  The solve is the banded shift-invert Lanczos of the
    module docstring, at the first of 0, `below` (a caller's guess under
    alpha) and the proven bound -1.1 g|xi| - 1 < -g|xi| <= alpha whose
    Cholesky factorization certifies it below the spectrum; the closer the
    shift, the fewer the Lanczos steps.  Lanczos starts from a fixed vector,
    so equal inputs give bit-identical results.
    """
    if s <= 0:
        raise ValueError("modified-problem parameter s must be > 0")
    alpha, v = _shift_invert_min(forms, s, below)
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
