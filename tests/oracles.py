"""Independent references that tests compare the solver with, and helpers
only tests use: dense and CSR copies of band storage, csr_array views of
the oracle's CSR triples, the kernel assembly of the forms at one
frequency, a dense per-element assembly of the forms and an alternate one
of E0, the bump candidate and the negativity probe built on it with its
dense P1 projection, a dense full-spectrum eigensolve (any eigenpair, for
the certificate tests), the Fraction arithmetic of the lattice
deduplication, the viscous dissipation of a full 3-component velocity, the
three-field pencil, a layer-checked enthalpy weight, random oracle states
and the oracle's full energy, the complex evolution operators at a
frequency vector with their sparse-LU time step, the element continuity
rows and the dense pencil of the oracle's normal modes with its root, a
mode CSV reader, the rotation of a growing mode to another frequency
direction (rotate_mode, which raises NotARotation), the strong-form
residuals of a growing mode's ODE system from recovered fluxes
(ode_residual), and the oracle's full-record stepping with its two-pass
energy balance."""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs
from scipy.sparse.linalg import splu

from rtstab.equilibrium import EquilibriumProfile, PressureLaw
from rtstab.errors import AnalyzerError, SingularStep
from rtstab.evolve import BLOCK, EvolutionOperators
from rtstab.modes import GrowingMode
from rtstab.variational import (BAND, Mesh1D, QuadraticForms, _fix_sign, assemble,
                                evaluate_energy, field_rows, form_coefficients,
                                form_terms, layer_fields, surface_coefficients)


def dense(ab: np.ndarray) -> np.ndarray:
    """The n x n matrix A of the band storage ab[w + i - j, j] = A[i, j]."""
    w, n = ab.shape[0] // 2, ab.shape[1]
    k, j = np.indices(ab.shape)
    i = j + k - w
    inside = (0 <= i) & (i < n)
    A = np.zeros((n, n), ab.dtype)
    A[i[inside], j[inside]] = ab[inside]
    return A


def csr(ab: np.ndarray) -> sp.csr_array:
    """The same matrix as a CSR array, through a zero-copy DIA view."""
    w, n = ab.shape[0] // 2, ab.shape[1]
    return sp.dia_array((ab, w - np.arange(2 * w + 1)), shape=(n, n)).tocsr()


def csr_view(A, n_cols: int) -> sp.csr_array:
    """The CSR triple (indptr, indices, data) of an evolve operator as a
    csr_array with n_cols columns, sharing its arrays."""
    indptr, indices, data = A
    return sp.csr_array((data, indices, indptr), shape=(indptr.size - 1, n_cols))


def element_layer(mesh: Mesh1D, e: int) -> str:
    return "minus" if e < mesh.n_minus else "plus"


def add_element(K: np.ndarray, mesh: Mesh1D, e: int, local: np.ndarray) -> None:
    """Add element e's (phi_l, phi_r, psi_l, psi_r) matrix `local` into the
    dense two-field matrix K, whose dofs run node by node (phi_1, psi_1,
    phi_2, ...); rows and columns of the bottom node are dropped."""
    gdof = [2 * e - 2, 2 * e, 2 * e - 1, 2 * e + 1]
    free = [e > 0, True, e > 0, True]
    for i in range(4):
        for j in range(4):
            if free[i] and free[j]:
                K[gdof[i], gdof[j]] += local[i, j]


def assemble_forms(mesh: Mesh1D, profile: EquilibriumProfile,
                   xi_abs: float) -> QuadraticForms:
    """Assemble (K0, K1, M) at frequency magnitude xi_abs by the kernel: the
    one-frequency reference that form_coefficients is tested against.

    Local dof order per element is (phi_l, phi_r, psi_l, psi_r); the bulk
    integrands are squares of linear functionals of these (form_terms), so
    each matrix is a sum of outer products and exactly symmetric.  The
    boundary terms of E0 sit on the diagonal, row BAND of the band storage.
    """
    xi, params = float(xi_abs), profile.params
    fields = layer_fields(mesh, profile, mesh.quad[0])
    div, visc, mass = form_terms(mesh, fields, xi)
    dofs = mesh.dofs(2)
    K0, K1, M = (assemble(mesh, terms, dofs, dofs, mesh.ndof, BAND)
                 for terms in ([div], visc, mass))
    psi0, psiL = 2 * mesh.interface_index - 1, mesh.ndof - 1
    K0[BAND, psi0] += 0.5 * (params.sigma_minus * xi**2 - profile.jump * params.g)
    K0[BAND, psiL] += 0.5 * (params.sigma_plus * xi**2 + profile.rho1 * params.g)
    return QuadraticForms(K0, K1, M, xi, params.g, psi0)


def psi_bump(x3, b: float, ell: float, exponent: float):
    """Compactly supported candidate profile ((1 - x3^2/d^2))^(exponent/2)
    with d = ell above and d = b below the interface; vanishes with its slope
    at both outer boundaries for exponent >= 5 and equals 1 at the interface."""
    x = np.asarray(x3, dtype=float)
    d = np.where(x >= 0, ell, b)
    base = np.clip(1.0 - (x / d) ** 2, 0.0, None)
    return base ** (exponent / 2.0)


def psi_bump_norm_sq(b: float, ell: float, exponent: float) -> float:
    """Closed form of int psi_bump^2 over (-b, ell):
    sqrt(pi) (b + ell) Gamma(a+1) / (2 Gamma(a + 3/2)) for a = exponent."""
    a = float(exponent)
    return math.sqrt(math.pi) * (b + ell) * math.gamma(a + 1.0) / (2.0 * math.gamma(a + 1.5))


def p1_projection(mesh: Mesh1D, f: np.ndarray) -> np.ndarray:
    """Nodal values of the L2 projection of the element constants f onto
    continuous P1 on the whole mesh: the P1 mass, h/6 [[2, 1], [1, 2]] per
    element, against the load int_e f N_i = f_e h/2, by a dense solve."""
    h, n = np.diff(mesh.nodes), mesh.n_nodes
    mass, load = np.zeros((n, n)), np.zeros(n)
    for e in range(mesh.n_elements):
        mass[e:e + 2, e:e + 2] += h[e] / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        load[e:e + 2] += 0.5 * f[e] * h[e]
    return np.linalg.solve(mass, load)


def negativity_probe(profile: EquilibriumProfile, xi_abs: float, s: float,
                     mesh: Mesh1D, exponent: float = 5.0) -> float:
    """Energy E(.; s) at the interpolated bump candidate with phi = -psi'/|xi|.

    E < 0 certifies alpha(s) < 0 without an eigensolve (the candidate is an
    upper bound for the constrained infimum after J-normalization).  psi' is
    the elementwise derivative of the nodal interpolant, L2-projected back to
    the nodes (p1_projection); the essential value at -b is then enforced.
    """
    if xi_abs <= 0:
        raise ValueError("xi_abs must be > 0")
    if exponent < 5:
        raise ValueError("exponent must be >= 5 for an admissible candidate")
    psi_nodes = psi_bump(mesh.nodes, profile.params.b, profile.params.ell, exponent)
    dpsi_elem = np.diff(psi_nodes) / np.diff(mesh.nodes)

    phi_nodes = p1_projection(mesh, -dpsi_elem / xi_abs)
    phi_nodes[0] = 0.0
    v = np.empty(mesh.ndof)
    v[0::2], v[1::2] = phi_nodes[1:], psi_nodes[1:]
    forms = form_coefficients(mesh, profile).at(xi_abs)
    e_val, _j = evaluate_energy(forms, v, s)
    return e_val


def dense_forms(mesh: Mesh1D, profile: EquilibriumProfile, xi: float):
    """(K0, K1, M) at frequency magnitude xi, summed element by element and
    point by point into dense matrices through add_element, written out from
    the functionals of the variational module docstring."""
    n, prm = mesh.ndof, profile.params
    K0, K1, M = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    fields = layer_fields(mesh, profile, mesh.quad[0])
    for e in range(mesh.n_elements):
        _xq, wq, N, dN = (a[e] for a in mesh.quad)
        rho, drho, dp, mu, mu_p = fields[:, e]
        k0, k1, m = np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4))
        for q in range(wq.size):
            phi, psi = np.r_[N[q], 0, 0], np.r_[0, 0, N[q]]
            dphi, dpsi = np.r_[dN[q], 0, 0], np.r_[0, 0, dN[q]]
            div = drho[q] * psi + rho[q] * dpsi + rho[q] * xi * phi
            k0 += wq[q] * 0.5 * dp[q] / rho[q] * np.outer(div, div)
            for c, row in ((0.5 * mu[q], dphi - xi * psi), (0.5 * mu[q], dpsi - xi * phi),
                           (mu[q] / 6 + 0.5 * mu_p[q], dpsi + xi * phi)):
                k1 += wq[q] * c * np.outer(row, row)
            m += wq[q] * 0.5 * rho[q] * (np.outer(phi, phi) + np.outer(psi, psi))
        for K, local in ((K0, k0), (K1, k1), (M, m)):
            add_element(K, mesh, e, local)
    i0 = 2 * mesh.interface_index - 1
    K0[i0, i0] += 0.5 * (prm.sigma_minus * xi**2 - profile.jump * prm.g)
    K0[-1, -1] += 0.5 * (prm.sigma_plus * xi**2 + profile.rho1 * prm.g)
    return K0, K1, M


def assemble_forms_alt(mesh: Mesh1D, profile: EquilibriumProfile,
                       xi_abs: float) -> np.ndarray:
    """Alternate E0 assembly obtained by integrating the gravity term by parts:

        E0 = sigma_- xi^2/2 psi(0)^2 + sigma_+ xi^2/2 psi(ell)^2
           + 1/2 int P'(rho) rho (psi' + xi phi)^2 - 2 g rho xi psi phi.

    Agrees with the primary K0 up to quadrature error.  A dense per-element,
    per-point loop, kept apart from the vectorised kernel on purpose.
    """
    xi, params = float(xi_abs), profile.params
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
    psi0 = 2 * mesh.interface_index - 1
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


def _dense_min(K: np.ndarray, M: np.ndarray, psi_interface_dof: int,
               k: int = 0) -> tuple[float, np.ndarray]:
    """Eigenpair k (0 the smallest) of K v = alpha M v from the full
    spectrum, J-normalized with the interface psi value >= 0."""
    vals, vecs = scipy.linalg.eigh(K, M)
    v = vecs[:, k] / np.sqrt(vecs[:, k] @ M @ vecs[:, k])
    return float(vals[k]), _fix_sign(v, psi_interface_dof)


def min_eig_dense(forms: QuadraticForms, s: float,
                  k: int = 0) -> tuple[float, np.ndarray]:
    """Dense reference for variational.min_eig: Cholesky reduction of M and
    the full spectrum of the two-field pencil; k = 1 gives the second
    eigenpair, which the smallest-eigenvalue certificate must reject."""
    return _dense_min(dense(forms.K0 + s * forms.K1), dense(forms.M),
                      forms.psi_interface_dof, k)


def viscous_terms(mu, mu_p, u, du, k):
    """Yield the kernel terms of the dissipation

        int mu/4 |D0|^2 + mu'/2 |div u|^2

    of a velocity with component rows u = (u1, u2, u3) and vertical
    derivatives du, where the horizontal derivatives are k = (k1, k2) times
    the field (k = i xi for one Fourier mode) and D0 is the deviatoric part
    of grad u + grad u^T; the off-diagonal entries count twice."""
    (u1, u2, u3), (du1, du2, du3), (k1, k2) = u, du, k
    dv = k1 * u1 + k2 * u2 + du3
    yield 0.25 * mu, 2.0 * k1 * u1 - (2.0 / 3.0) * dv
    yield 0.25 * mu, 2.0 * k2 * u2 - (2.0 / 3.0) * dv
    yield 0.25 * mu, 2.0 * du3 - (2.0 / 3.0) * dv
    yield 0.5 * mu, k1 * u2 + k2 * u1
    yield 0.5 * mu, k1 * u3 + du1
    yield 0.5 * mu, k2 * u3 + du2
    yield 0.5 * mu_p, dv


@dataclass(frozen=True)
class Forms3Field:
    """Three-field matrices, dofs node by node (phi_1, theta_1, psi_1,
    phi_2, ...)."""

    K0: np.ndarray
    K1: np.ndarray
    M: np.ndarray
    xi: tuple[float, float]
    n_free: int
    psi_interface_dof: int


def assemble_forms_3field(mesh: Mesh1D, profile: EquilibriumProfile,
                          xi: tuple[float, float]) -> Forms3Field:
    """Full quadratic structure at a frequency vector xi = (xi1, xi2).

    E1 is the viscous dissipation (viscous_terms) of the normal-mode
    velocity u = (-i phi, -i theta, psi) exp(i xi.x'), the field the
    evolution oracle starts from; it is real.  At xi2 = 0 the theta block
    decouples from (phi, psi) and is coercive, the discrete counterpart of
    dropping theta from the two-field reduction.
    """
    xi1, xi2 = float(xi[0]), float(xi[1])
    nf, params = mesh.n_free, profile.params
    rho, drho, dp, mu, mu_p = layer_fields(mesh, profile, mesh.quad[0])
    (phi, theta, psi), (dphi, dtheta, dpsi) = field_rows(mesh, 3)
    r, dr = rho[..., None], drho[..., None]
    dofs = mesh.dofs(3)
    n, w = 3 * nf, 5  # phi_l to psi_r is 5 apart
    K0 = dense(assemble(mesh, [(0.5 * dp / rho,
                                dr * psi + r * dpsi + r * (xi1 * phi + xi2 * theta))],
                        dofs, dofs, n, w))
    K1 = dense(assemble(mesh, viscous_terms(mu, mu_p, (-1j * phi, -1j * theta, psi),
                                            (-1j * dphi, -1j * dtheta, dpsi),
                                            (1j * xi1, 1j * xi2)),
                        dofs, dofs, n, w)).real
    M = dense(assemble(mesh, [(0.5 * rho, f) for f in (phi, theta, psi)],
                       dofs, dofs, n, w))
    xi_sq = xi1**2 + xi2**2
    psi0, psiL = 3 * mesh.interface_index - 1, 3 * nf - 1
    K0[psi0, psi0] += 0.5 * (params.sigma_minus * xi_sq - profile.jump * params.g)
    K0[psiL, psiL] += 0.5 * (params.sigma_plus * xi_sq + profile.rho1 * params.g)
    return Forms3Field(K0, K1, M, (xi1, xi2), nf, psi0)


def min_eig_3field(forms: Forms3Field, s: float) -> tuple[float, np.ndarray]:
    """Dense smallest eigenpair of the three-field pencil, J-normalized."""
    if s <= 0:
        raise ValueError("modified-problem parameter s must be > 0")
    return _dense_min(forms.K0 + s * forms.K1, forms.M, forms.psi_interface_dof)


def random_state(ops: EvolutionOperators, seed: int = 0, scale: float = 1.0) -> np.ndarray:
    """Random real in-plane state (v, w, q, eta+-); the bottom velocity node
    is drawn and dropped, so the essential constraint holds."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(ops.q.size)
    v, w = rng.standard_normal((2, ops.mesh.n_nodes))
    y = np.empty(ops.n)
    y[ops.q], y[ops.v], y[ops.w] = q, v[1:], w[1:]
    y[[ops.eta_plus_idx, ops.eta_minus_idx]] = rng.standard_normal(2)
    return scale * y


def full_energy(ops: EvolutionOperators, traj) -> np.ndarray:
    """The oracle's energy at every state of the record traj plus the
    interface term -1/2 jump g eta_-^2 (positive when the orientation is
    stable); non-increasing along exact dynamics."""
    return traj.energy + 0.5 * ops.interface_gravity * traj.eta_minus ** 2


def complex_operators(profile: EquilibriumProfile, mesh: Mesh1D,
                      xi: tuple[float, float]):
    """(M, A) of the complex packed system M dy/dt = A y at a frequency
    vector xi, y = [q (one per element) | (u1, u2, u3) node by node |
    eta_+, eta_-], with the dissipation from viscous_terms of the full
    velocity at k = i xi: the reference for the in-plane operators, built
    without variational.form_terms and stepped without eliminating q and
    eta.  The kernel assembles at half-bandwidth n - 1, wide enough for any
    coupling, and the blocks are combined as CSR."""
    xi1, xi2 = float(xi[0]), float(xi[1])
    xi_sq = xi1 * xi1 + xi2 * xi2
    nf, params = mesh.n_free, profile.params
    nq = mesh.n_elements
    n = nq + 3 * nf + 2
    qdofs = np.arange(nq)[:, None]
    udofs = mesh.dofs(3)
    udofs[udofs >= 0] += nq
    rho, drho, dp, mu, mu_p = layer_fields(mesh, profile, mesh.quad[0])
    N = np.ones((*rho.shape, 1))
    u, du = field_rows(mesh, 3)
    r = rho[..., None]
    w = n - 1
    # div_xi(rho u) = i xi1 rho u1 + i xi2 rho u2 + (rho u3)'
    div_rho_u = (1j * xi1 * r * u[0] + 1j * xi2 * r * u[1]
                 + drho[..., None] * u[2] + r * du[2])
    B = csr(assemble(mesh, [(dp / rho, N, div_rho_u)], qdofs, udofs, n, w))
    D = csr(assemble(mesh, ((2.0 * c, row) for c, row in viscous_terms(
        mu, mu_p, u, du, (1j * xi1, 1j * xi2))), udofs, udofs, n, w))
    top = profile.rho1 * params.g + params.sigma_plus * xi_sq
    interface = params.sigma_minus * xi_sq - profile.jump * params.g
    i, j = n - 2, n - 1
    u3_top, u3_int = nq + 3 * nf - 1, nq + 3 * mesh.interface_index - 1
    eta = sp.coo_array(([1.0, 1.0, -top, -interface],
                        ([i, j, u3_top, u3_int], [u3_top, u3_int, i, j])), shape=(n, n))
    eta_mass = sp.coo_array(([1.0, 1.0], ([i, j], [i, j])), shape=(n, n))
    M = (csr(assemble(mesh, [(dp / rho, N)], qdofs, qdofs, n, w))
         + csr(assemble(mesh, [(rho, row) for row in u], udofs, udofs, n, w))
         + eta_mass).astype(complex).tocsr()
    return M, (B.conj().T - B - D + eta).tocsr()


def embed_state(ops: EvolutionOperators, y: np.ndarray,
                xi: tuple[float, float]) -> np.ndarray:
    """The complex packed state of a real in-plane state y of ops:
    u_h = -i v xi/|xi|, u3 = w, q and eta unchanged."""
    xi_abs = math.hypot(*xi)
    v = y[ops.v]
    u = np.stack([-1j * v * xi[0] / xi_abs, -1j * v * xi[1] / xi_abs, y[ops.w]], axis=1)
    return np.concatenate([y[ops.q], u.ravel(),
                           [y[ops.eta_plus_idx], y[ops.eta_minus_idx]]])


def lu_step(M: sp.csr_array, A: sp.csr_array, y: np.ndarray, dt: float) -> np.ndarray:
    """One trapezoidal step (M - dt/2 A) y+ = (M + dt/2 A) y of a complex
    packed state by SuperLU."""
    return splu((M - 0.5 * dt * A).tocsc()).solve((M + 0.5 * dt * A) @ y)


def continuity_rows(coeffs, xi_abs: float):
    """(H, r) of FormCoefficients.continuity, integrated here from the layer
    fields and the field rows, without variational.form_terms: H_e =
    int_e h'(rho) and r_e = int_e h'(rho) ((rho psi)' + rho xi phi) in the
    local dofs of mesh.dofs(2)."""
    mesh, profile = coeffs.mesh, coeffs.profile
    rho, drho, dp, _mu, _mu_p = layer_fields(mesh, profile, mesh.quad[0])
    (phi, psi), (_dphi, dpsi) = field_rows(mesh, 2)
    r = rho[..., None]
    hw = mesh.quad[1] * dp / rho  # h'(rho) times the Gauss weights
    return hw.sum(axis=1), np.einsum("eq,eqi->ei", hw, drho[..., None] * psi + r * dpsi
                                     + r * float(xi_abs) * phi)


def oracle_pencil(coeffs, xi_abs: float):
    """Dense (K0, K1, M) whose T(s) = K0 + s K1 + s^2 M is singular exactly
    at the oracle's normal-mode rates: with z = G u / s eliminated, the
    oracle's modes solve (s^2 Mu + s Du + S) u = 0, and halved that is
    K0 = S/2 = B^T H^-1 B / 2 plus E0's surface terms, with K1 and M of the
    forms.  B and H are continuity_rows."""
    mesh, profile = coeffs.mesh, coeffs.profile
    params, xi = profile.params, float(xi_abs)
    H, rows = continuity_rows(coeffs, xi)
    B = np.zeros((mesh.n_elements, mesh.ndof))
    for e, (dofs, row) in enumerate(zip(mesh.dofs(2), rows)):
        B[e, dofs[dofs >= 0]] += row[dofs >= 0]
    K0 = 0.5 * B.T @ (B / H[:, None])
    psi0 = 2 * mesh.interface_index - 1
    K0[psi0, psi0] += 0.5 * (params.sigma_minus * xi**2 - profile.jump * params.g)
    K0[-1, -1] += 0.5 * (params.sigma_plus * xi**2 + profile.rho1 * params.g)
    forms = coeffs.at(xi)
    return K0, dense(forms.K1), dense(forms.M)


def pencil_root(K0: np.ndarray, K1: np.ndarray, M: np.ndarray, hi: float,
                steps: int = 60) -> float:
    """The s in (0, hi) where T(s) = K0 + s K1 + s^2 M turns positive
    definite, by bisection on the success of np.linalg.cholesky; T(0) must
    be indefinite and T(hi) definite."""

    def definite(s):
        try:
            np.linalg.cholesky(K0 + s * K1 + s * s * M)
        except np.linalg.LinAlgError:
            return False
        return True

    lo = 0.0
    assert not definite(lo) and definite(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if definite(mid) else (mid, hi)
    return 0.5 * (lo + hi)


def import_mode_csv(csv_path) -> dict[str, np.ndarray]:
    """Re-read an exported mode CSV into column arrays (round-trip exact)."""
    data = np.genfromtxt(csv_path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


class NotARotation(AnalyzerError):
    """Matrix is not a proper rotation to tolerance."""


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


def dedup_lattice_fraction(params, limit: float):
    """Reference for dispersion._dedup_lattice: the nonzero lattice points
    below limit grouped by |xi|^2 = (m/L1)^2 + (n/L2)^2 in Fraction
    arithmetic, as [(|xi|^2, largest (m, n) with m, n >= 0)] in ascending
    |xi|^2."""
    l1sq = Fraction(params.L1) ** 2
    l2sq = Fraction(params.L2) ** 2
    m_max = int(math.floor(limit * params.L1)) + 1
    n_max = int(math.floor(limit * params.L2)) + 1
    groups: dict[Fraction, tuple[int, int]] = {}
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            key = Fraction(m * m) / l1sq + Fraction(n * n) / l2sq
            if key and float(key) < limit * limit:
                groups[key] = (m, n)  # (m, n) ascends: the last seen is the largest
    return sorted(groups.items(), key=lambda kv: kv[0])


@dataclass(frozen=True)
class DenseTrajectory:
    """Dense record of an advance_dense() run; states[k] is the step-k dof vector."""

    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, n) real
    dt: float
    eta_plus_idx: int
    eta_minus_idx: int

    @property
    def eta_minus_abs(self) -> np.ndarray:
        return np.abs(self.states[:, self.eta_minus_idx])

    @property
    def eta_plus_abs(self) -> np.ndarray:
        return np.abs(self.states[:, self.eta_plus_idx])


def advance_dense(y0: np.ndarray, ops: EvolutionOperators, dt: float,
                  t_final: float) -> DenseTrajectory:
    """The full-record advance() before it streamed, kept as its reference:
    every state in one (n_steps + 1, n) array.

    Integrate the semidiscrete system from the real state y0 at t = 0 by
    trapezoidal steps.  dt may be negative (time reversal), in which case
    t_final must be too.  The run takes round(t_final / dt) steps, so it
    ends at the multiple of dt nearest t_final, which is times[-1].

    With z+ = z + dt/2 G (u + u+) substituted, the step for the velocity is

        L u+ = (2 Mu - L) u + dt F z,   L = Mu + dt/2 Du + dt^2/4 S,

    one CSR product and one band solve written straight into the
    (n_steps + 1, n) record, and then z+ is one CSR product more.  L is
    factorized once: by dpbtrf, and each solve is one dpbtrs, when L is
    positive definite; otherwise by dgbtrf with BAND zero rows on top of the
    band storage as room for the fill of the pivoting, and each solve is one
    dgbtrs.  A complex y0 raises ValueError: the operators are real, so its
    real and imaginary parts are two separate trajectories.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if np.iscomplexobj(y0):
        raise ValueError("y0 must be real; step the real and imaginary parts apart")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError("t_final must cover at least one step of size dt")
    h, nu = 0.5 * dt, ops.Mu.shape[1]
    lhs = ops.Mu + h * ops.Du + (h * h) * ops.S
    factor, info = dpbtrf(lhs[:BAND + 1])
    if info == 0:
        def solve(b):
            return dpbtrs(factor, b, overwrite_b=1)[0]
    else:
        pivoted = np.zeros((3 * BAND + 1, nu), order="F")
        pivoted[BAND:] = lhs
        lu, piv, info = dgbtrf(pivoted, BAND, BAND, overwrite_ab=1)
        if info > 0:
            raise SingularStep(f"implicit step matrix is singular (zero pivot {info})")

        def solve(b):
            return dgbtrs(lu, BAND, BAND, b, piv, overwrite_b=1)[0]
    rhs = sp.hstack([csr(ops.Mu - h * ops.Du - (h * h) * ops.S),
                     dt * csr_view(ops.F, ops.n - nu)], format="csr")
    update = h * csr_view(ops.G, nu)
    out = np.empty((n_steps + 1, ops.n))
    out[0] = y0
    for k in range(n_steps):
        y, nxt = out[k], out[k + 1]
        nxt[:nu] = solve(rhs @ y)
        nxt[nu:] = y[nu:] + update @ (y[:nu] + nxt[:nu])
        if not np.all(np.isfinite(nxt)):
            raise SingularStep(f"non-finite state at step {k + 1}")
    return DenseTrajectory(dt * np.arange(n_steps + 1), out, dt,
                           ops.eta_plus_idx, ops.eta_minus_idx)


def energy_balance_two_pass(traj: DenseTrajectory, ops: EvolutionOperators):
    """The second pass over a DenseTrajectory that energy_balance_residual
    made before advance() streamed, kept as its reference.

    Per-step defect of the discrete energy identity, relative to the energy.

    The identity is evaluated at step midpoints, where the trapezoidal rule
    holds it to round-off.  The states are read BLOCK + 1 rows at a time,
    copied once into a contiguous block with one state per column that the
    CSR copies of W and D multiply without a further copy, and each quadratic
    form is a column-wise dot product, so no temporary grows with the step
    count.  Returns
    (residual, energy, dissipation): the defect of each step and the last
    two at every state.
    """
    W, D = csr(ops.W), csr(ops.D)
    n_steps = traj.states.shape[0] - 1
    energy, diss = np.empty(n_steps + 1), np.empty(n_steps + 1)
    cross = np.empty(n_steps)  # y_k^T D y_k+1
    for a in range(0, n_steps, BLOCK):
        # one contiguous copy, one state per column, that both products read
        Y = np.ascontiguousarray(traj.states[a:a + BLOCK + 1].T)
        DY, k = D @ Y, Y.shape[1]
        energy[a:a + k] = 0.5 * np.einsum("ji,ji->i", Y, W @ Y)
        diss[a:a + k] = np.einsum("ji,ji->i", Y, DY)
        cross[a:a + k - 1] = np.einsum("ji,ji->i", Y[:, :-1], DY[:, 1:])
    eta = traj.states[:, ops.eta_minus_idx]
    w = traj.states[:, ops.u3_int]
    # at the midpoint m of y_k and y_k+1, D symmetric gives
    # m^T D m = (d_k + d_k+1 + 2 y_k^T D y_k+1) / 4
    d_mid = 0.25 * (diss[:-1] + diss[1:]) + 0.5 * cross
    eta, w = 0.5 * (eta[:-1] + eta[1:]), 0.5 * (w[:-1] + w[1:])
    flux = -ops.interface_gravity * eta * w - d_mid
    scale = np.maximum(np.maximum(np.abs(energy[:-1]), np.abs(energy[1:])), 1e-300)
    res = (energy[1:] - energy[:-1] - traj.dt * flux) / scale
    return res, energy, diss
