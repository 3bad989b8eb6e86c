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
its own node and the two neighbouring nodes, so in the node-by-node order
(phi_1, psi_1, phi_2, psi_2, ...) of Mesh1D.dofs they are banded with
half-bandwidth 3 and are assembled straight into LAPACK band storage.
Every factorization of that storage, here, in dispersion and in evolve, is
a call of cholesky or lu, which return a solve and add one to the count
FACTORIZATIONS.  A shift lies below the spectrum exactly when the banded
Cholesky factorization of K - shift M succeeds: min_eig runs inverse
iteration from the lower end of a bracket that it bisects on that test
(Barth, Martin and Wilkinson, Numer. Math. 9, 1967) until the Rayleigh
quotient settles to a round-off margin (QuadraticForms.certificate_eps),
or, given a start, runs Rayleigh-quotient steps from it (_shifted_iterate,
which dispersion's root solve shares).  below_spectrum makes the test at a
computed eigenvalue minus that margin, which certifies it as the smallest
eigenvalue, and is_min_eigenpair adds the residual test: the two checks
behind every `converged` flag and `rtstab alpha`.  The norms behind the
margin and the residual are measured once per QuadraticForms and s.

Every matrix here comes from one vectorised element kernel, `assemble`: a
list of terms (c, B[, C]) of quadrature-point coefficients and
linear-functional rows, summed as w c conj(B)^T C over all elements and
points at once, and handed to `scatter`, which sums element matrices
through a dof map such as `Mesh1D.dofs` into the LAPACK general band
storage that every solver reads.

xi enters the bulk integrands only through rows affine in xi, and the
boundary terms through sigma_± xi^2, so K0(xi) = A0 + xi B0 + xi^2 C0,
likewise K1, and M does not depend on xi.  form_coefficients evaluates the
profile fields at the quadrature points and assembles these coefficients
once per mesh and profile, whose params are the only physical parameters
read here; the sweep and every command take their forms from
FormCoefficients.at(xi), one band combination per frequency.  The growing
mode and the evolution oracle take one density perturbation per element
from FormCoefficients.continuity(xi), the h'(rho)-weighted element
integrals of E0's divergence row, and the oracle also its M and K1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import dgbmv, dgbtrf, dgbtrs, dpbtrf, dpbtrs
from .equilibrium import EquilibriumProfile
from .errors import BandOverflow, SolverDivergence

# numpy.polynomial.legendre.leggauss(4) as round-trip literals, which spares
# start-up the import of numpy.polynomial
GAUSS_X = np.array([-0.8611363115940526, -0.33998104358485626,
                    0.33998104358485626, 0.8611363115940526])
GAUSS_W = np.array([0.34785484513745357, 0.6521451548625464,
                    0.6521451548625464, 0.34785484513745357])
BAND = 3  # half-bandwidth of the two-field pencil in node-by-node order
CERT_ULPS = 128  # QuadraticForms.certificate_eps in unit roundoffs of ||K||_1 / ||M||_1
MAX_BISECT = 200  # bisection steps (factorizations in min_eig) before SolverDivergence
FACTORIZATIONS = [0]  # band factorizations by cholesky and lu since import; read its rise
INV_MAX_ITER = 8  # inverse-iteration steps of one round of min_eig
INV_CONTRACTION = 0.25  # a round of min_eig ends at a step that moves alpha more than this
#                         fraction of the previous step's move
RQ_MAX_ITER = 8  # Rayleigh-quotient steps of min_eig's started round


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Uniform-per-layer P1 mesh on [-b, ell] with a node exactly at 0.

    Scalar unknowns carry one dof per node except the bottom node, where the
    essential condition removes it.  Several fields are numbered node by
    node: two-field dofs are (phi_1, psi_1, phi_2, psi_2, ...) over nodes
    1..n_nodes-1.
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

    @property
    def surface_dofs(self) -> tuple[int, int]:
        """The two-field dofs (interface psi, top psi) of the surface terms:
        node m's psi is dof 2m - 1."""
        return 2 * self.interface_index - 1, self.ndof - 1

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
        each of `blocks` scalar fields, numbered node by node: field k at
        node m >= 1 is dof (m - 1) blocks + k; -1 at the bottom node."""
        left = np.arange(self.n_elements)[:, None] - 1
        out = np.concatenate([blocks * (left + [0, 1]) + k for k in range(blocks)],
                             axis=1)
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


def layer_fields(mesh: Mesh1D, profile: EquilibriumProfile, xq: np.ndarray) -> np.ndarray:
    """rho, rho' = -g rho / P'(rho), P'(rho), mu and mu' at the points xq,
    stacked as (5, *xq.shape); row e of xq holds points of element e, such as
    its quadrature points mesh.quad[0] or its midpoint, and takes the values
    of that element's layer."""
    params = profile.params
    out = np.empty((5, *xq.shape))
    for layer, rows in (("minus", slice(0, mesh.n_minus)),
                        ("plus", slice(mesh.n_minus, None))):
        rho = profile.rho(xq[rows], layer)
        dp = profile.law(layer).derivative(rho)
        out[:, rows] = np.broadcast_arrays(rho, -params.g * rho / dp, dp,
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
             n: int, w: int) -> np.ndarray:
    """The element kernel: the n x n matrix A summed over elements e and
    quadrature points q from

        w c conj(B)^T C

    for every term (c, B) or (c, B, C), with C = B when omitted.  c has shape
    (E, Q) and the rows B, C have shape (E, Q, I) and (E, Q, J): linear
    functionals of the element's local dofs.  Each outer product is formed
    before it is weighted and the points are summed in order, so a term with
    C = B gives an exactly symmetric matrix.  The (E, I, J) element matrices
    go through scatter once.
    """
    local = 0.0
    for c, B, *C in terms:
        C = C[0] if C else B
        wc = mesh.quad[1] * c
        B = np.conj(B)
        for q in range(wc.shape[1]):
            local = local + wc[:, q, None, None] * (B[:, q, :, None] * C[:, q, None, :])
    return scatter(local, row_dofs, col_dofs, n, w)


def scatter(local: np.ndarray, row_dofs: np.ndarray, col_dofs: np.ndarray,
            n: int, w: int) -> np.ndarray:
    """The n x n matrix A summed from the (E, I, J) element matrices local
    through the (E, I) and (E, J) global dof maps, in LAPACK general band
    storage of half-bandwidth w,

        ab[w + i - j, j] = A[i, j],   ab of shape (2 w + 1, n),

    so that ab[:w + 1] is the upper band storage of a symmetric A.  A dof of
    -1 is dropped; an entry more than w off the diagonal raises BandOverflow.
    ab is returned as the transpose of an (n, 2 w + 1) array, so it is
    Fortran-ordered and BLAS/LAPACK read it without a copy.
    """
    n_i, n_j = row_dofs.shape[1], col_dofs.shape[1]
    rows = np.repeat(row_dofs, n_j, axis=1)
    cols = np.tile(col_dofs, (1, n_i))
    keep = (rows >= 0) & (cols >= 0)
    rows, cols, values = rows[keep], cols[keep], local.reshape(keep.shape)[keep]
    if np.abs(rows - cols).max() > w:
        raise BandOverflow(f"dof map is wider than the half-bandwidth {w}")
    at, size = cols * (2 * w + 1) + w + rows - cols, (2 * w + 1) * n
    ab = np.bincount(at, values.real, size)
    if np.iscomplexobj(values):
        ab = ab + 1j * np.bincount(at, values.imag, size)
    return ab.reshape(n, 2 * w + 1).T


def band_mv(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for one vector x and A in the band storage of assemble."""
    w, n = ab.shape[0] // 2, ab.shape[1]
    return dgbmv(n, n, w, w, 1.0, ab, x)


def cholesky(ab: np.ndarray):
    """solve(b) = A^-1 b by the banded Cholesky factorization of the
    symmetric A in the band storage of assemble with half-bandwidth BAND,
    of which dpbtrf reads rows :BAND + 1 only (a caller may pass just
    those), or None when the factorization fails, which happens exactly
    when A is not positive definite.  solve may overwrite b."""
    FACTORIZATIONS[0] += 1
    U, info = dpbtrf(ab[:BAND + 1])
    if info != 0:
        return None
    return lambda b: dpbtrs(U, b, overwrite_b=1)[0]


def lu(ab: np.ndarray):
    """solve(b) = A^-1 b by the band LU factorization with partial pivoting
    of A in the band storage of assemble with half-bandwidth BAND, which
    dgbtrf reads below BAND zero rows of room for the fill, or None when
    A is exactly singular.  solve may overwrite b."""
    FACTORIZATIONS[0] += 1
    fill = np.zeros((3 * BAND + 1, ab.shape[1]), order="F")
    fill[BAND:] = ab
    factor, piv, info = dgbtrf(fill, BAND, BAND, overwrite_ab=1)
    if info != 0:
        return None
    return lambda b: dgbtrs(factor, BAND, BAND, b, piv, overwrite_b=1)[0]


@dataclass(frozen=True, eq=False)
class QuadraticForms:
    """Symmetric matrices with v^T K0 v = E0(v), v^T K1 v = E1(v),
    v^T M v = J(v) for v in the node-by-node order (phi_1, psi_1, phi_2,
    psi_2, ...) of Mesh1D.dofs, each in the band storage of assemble with
    half-bandwidth BAND: entry (i, j) sits at [BAND + i - j, j], so rows
    :BAND + 1 are LAPACK's upper band storage."""

    K0: np.ndarray
    K1: np.ndarray
    M: np.ndarray
    xi_abs: float
    g: float
    psi_interface_dof: int

    @cached_property
    def m_norm1(self) -> float:
        """||M||_1, measured once per forms."""
        return _norm1(self.M)

    def stiffness(self, s: float) -> tuple[np.ndarray, float]:
        """(K, ||K||_1) for K = K0 + s K1, formed and measured once per s:
        min_eig, its certificate and the residual test share them."""
        memo = self.__dict__.setdefault("_stiffness", {})
        if s not in memo:
            K = self.K0 + s * self.K1
            K.flags.writeable = False  # shared by every later caller at s
            memo[s] = K, _norm1(K)
        return memo[s]

    def certificate_eps(self, s: float) -> float:
        """eps = CERT_ULPS u ||K||_1 / ||M||_1 for K = K0 + s K1 (u the unit
        roundoff), the round-off scale of the eigenvalues of (K, M) and the
        margin of below_spectrum."""
        return CERT_ULPS * np.finfo(float).eps / 2 * self.stiffness(s)[1] / self.m_norm1


def divergence_term(mesh: Mesh1D, fields: np.ndarray, xi_abs: float):
    """E0's one bulk term (h'(rho)/2, (rho psi)' + rho xi phi) at frequency
    magnitude xi_abs, in the (phi, psi) rows of field_rows(mesh, 2), from the
    layer_fields at the quadrature points.  FormCoefficients.continuity
    integrates its row per element."""
    xi = float(xi_abs)
    rho, drho, dp, _mu, _mu_p = fields
    (phi, psi), (_dphi, dpsi) = field_rows(mesh, 2)
    r = rho[..., None]
    return 0.5 * dp / rho, drho[..., None] * psi + r * dpsi + r * xi * phi


def form_terms(mesh: Mesh1D, fields: np.ndarray, xi_abs: float):
    """The bulk kernel terms (div, visc, mass) of E0, E1 and J at frequency
    magnitude xi_abs, in the (phi, psi) rows of field_rows(mesh, 2), from the
    layer_fields at the quadrature points: div is E0's one term
    (divergence_term), visc the three of E1 and mass the two of J."""
    xi = float(xi_abs)
    rho, _drho, _dp, mu, mu_p = fields
    (phi, psi), (dphi, dpsi) = field_rows(mesh, 2)
    return (divergence_term(mesh, fields, xi),
            [(0.5 * mu, dphi - xi * psi), (0.5 * mu, dpsi - xi * phi),
             (mu / 6.0 + 0.5 * mu_p, dpsi + xi * phi)],
            [(0.5 * rho, phi), (0.5 * rho, psi)])


def surface_coefficients(profile: EquilibriumProfile) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (sigma_- xi^2 - jump g, rho1 g + sigma_+ xi^2) of
    E0's surface terms, 1/2 coefficient psi^2 at the interface and the top,
    as (A, C) with coefficient = A + xi^2 C."""
    params = profile.params
    return (np.array([-profile.jump * params.g, profile.rho1 * params.g]),
            np.array([params.sigma_minus, params.sigma_plus]))


def check_frequency(xi_abs: float) -> float:
    """xi_abs as a float; ValueError unless 0 < xi_abs < inf (NaN fails)."""
    xi = float(xi_abs)
    if not 0.0 < xi < math.inf:
        raise ValueError(f"frequency magnitude must be finite and > 0, got {xi_abs}")
    return xi


@dataclass(frozen=True, eq=False)
class FormCoefficients:
    """The forms of one mesh and profile as quadratic polynomials in
    the frequency magnitude xi: K0(xi) = A0 + xi B0 + xi^2 C0 with K0 =
    (A0, B0, C0), likewise K1, and the mass M, which does not depend on xi.
    fields holds the layer_fields at the quadrature points mesh.quad[0] that
    they were assembled from.  Every array is read-only and every form is
    exactly symmetric band storage, so one object serves all the frequencies
    of a sweep."""

    mesh: Mesh1D
    profile: EquilibriumProfile
    fields: np.ndarray
    K0: tuple[np.ndarray, np.ndarray, np.ndarray]
    K1: tuple[np.ndarray, np.ndarray, np.ndarray]
    M: np.ndarray

    def at(self, xi_abs: float) -> QuadraticForms:
        """The forms at frequency magnitude xi_abs (0 < xi_abs < inf)."""
        xi = check_frequency(xi_abs)
        K0, K1 = (A + xi * B + (xi * xi) * C for A, B, C in (self.K0, self.K1))
        return QuadraticForms(K0, K1, self.M, xi, self.profile.params.g,
                              self.mesh.surface_dofs[0])

    def continuity(self, xi_abs: float) -> tuple[np.ndarray, np.ndarray]:
        """(H, r) of the continuity equation H_e dq_e/dt = -r_e . u of one
        density value per element at |xi| = xi_abs, from the fields: H_e =
        int_e h'(rho) of shape (E,), r_e = int_e h'(rho) ((rho psi)' + rho xi
        phi) of shape (E, 4) in the local dofs of mesh.dofs(2)."""
        half_hp, div = divergence_term(self.mesh, self.fields, check_frequency(xi_abs))
        hw = 2.0 * half_hp * self.mesh.quad[1]  # h'(rho) times the Gauss weights
        return np.einsum("eq->e", hw), np.einsum("eq,eqi->ei", hw, div)


def form_coefficients(mesh: Mesh1D, profile: EquilibriumProfile) -> FormCoefficients:
    """The coefficients of the forms in xi by the three-point rule on the
    kernel: A = K(0), B = (K(1) - K(-1))/2 and C = (K(1) + K(-1))/2 - K(0),
    exact up to round-off because the bulk terms are quadratic in xi.

    Flipping the sign of every phi dof maps K(xi) to K(-xi) bit for bit and
    negates exactly the band rows that couple phi to psi (odd i - j), so
    K(-1) is not assembled: B is K(1) on those rows and C is K(1) - K(0) on
    the others, the rule's values to the bit.  The surface terms of E0
    (surface_coefficients) go straight into A and C.  The mesh must span
    the profile's [-b, ell]; otherwise ValueError.
    """
    ref = profile.params
    if mesh.nodes[0] != -ref.b or mesh.nodes[-1] != ref.ell:
        raise ValueError(f"mesh spans [{mesh.nodes[0]}, {mesh.nodes[-1]}], "
                         f"not [-b, ell] = [{-ref.b}, {ref.ell}]")
    fields = layer_fields(mesh, profile, mesh.quad[0])
    fields.flags.writeable = False
    dofs = mesh.dofs(2)
    cross = (np.arange(2 * BAND + 1) - BAND) % 2 == 1
    (div0, visc0, mass), (div1, visc1, _mass) = (form_terms(mesh, fields, xi)
                                                 for xi in (0.0, 1.0))

    def coefficients(terms0, terms1):
        A, K = (assemble(mesh, terms, dofs, dofs, mesh.ndof, BAND)
                for terms in (terms0, terms1))
        B, C = K, K - A
        B[~cross], C[cross] = 0.0, 0.0
        return A, B, C

    (A0, B0, C0), K1 = coefficients([div0], [div1]), coefficients(visc0, visc1)
    M = assemble(mesh, mass, dofs, dofs, mesh.ndof, BAND)
    surface = list(mesh.surface_dofs)
    A, C = surface_coefficients(profile)
    A0[BAND, surface] += 0.5 * A
    C0[BAND, surface] += 0.5 * C
    for ab in (A0, B0, C0, *K1, M):
        ab.flags.writeable = False
    return FormCoefficients(mesh, profile, fields, (A0, B0, C0), K1, M)


def _fix_sign(v: np.ndarray, psi_interface_dof: int) -> np.ndarray:
    s = v[psi_interface_dof]
    if s < 0:
        return -v
    if s == 0 and v[np.argmax(np.abs(v))] < 0:
        return -v
    return v


def j_normalize(forms: QuadraticForms, v: np.ndarray) -> np.ndarray:
    """v scaled to v^T M v = 1 with its interface psi value >= 0."""
    return _fix_sign(v / np.sqrt(v @ band_mv(forms.M, v)), forms.psi_interface_dof)


def bisect_root(above, lo: float, hi: float, wtol: float, max_iter: int = MAX_BISECT):
    """Bisection of the bracket [lo, hi] of a root r, where above(s) says
    whether s > r, until it is at most wtol wide.  Returns (midpoint of the
    last bracket, calls of above)."""
    calls = 0
    while hi - lo > wtol:
        if calls == max_iter:
            raise SolverDivergence(f"bisection exceeded {max_iter} steps")
        s, calls = 0.5 * (lo + hi), calls + 1
        lo, hi = (lo, s) if above(s) else (s, hi)
    return 0.5 * (lo + hi), calls


def _shifted_iterate(shifted, functional, v: np.ndarray, M: np.ndarray, tol: float,
                     max_iter: int, lo: float = -math.inf,
                     hi: float = math.inf) -> tuple[float, np.ndarray]:
    """Inverse iteration with a moving shift from v: rho = functional(v),
    then v <- shifted(rho)^-1 M v by one band LU factorization (lu) per
    step and rho = functional(v) again.  Returns (rho, v), where the last
    step moved rho by at most tol; rho is nan when it leaves [lo, hi] (nan
    included), shifted(rho) is exactly singular or max_iter steps do not
    settle."""
    rho, step = functional(v), math.inf
    for _step in range(max_iter):
        if not (lo <= rho <= hi and abs(rho - step) > tol):
            break
        solve = lu(shifted(rho))
        if solve is None:
            return math.nan, v
        v = solve(band_mv(M, v))
        v /= np.abs(v).max()
        step, rho = rho, functional(v)
    settled = lo <= rho <= hi and abs(rho - step) <= tol
    return (rho if settled else math.nan), v


def min_eig(forms: QuadraticForms, s: float,
            start: tuple | None = None) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of (K0 + s K1) v = alpha M v.

    The minimizer is returned J-normalized (v^T M v = 1) with the interface
    psi value >= 0, by j_normalize.  The lower end lo of a bracket of the
    smallest eigenvalue starts at the first of 0 and the proven bound
    -1.1 g|xi| - 1 < -g|xi| <= alpha that the Cholesky test puts below the
    spectrum, and v at the vector of ones.  Each round runs inverse
    iteration with the factor at lo until alpha, the Rayleigh quotient and
    an upper end of the bracket, moves by at most eps =
    forms.certificate_eps(s), or a step shrinks the move by less than
    INV_CONTRACTION, or INV_MAX_ITER steps pass.  A settled alpha is
    returned once lo >= alpha - eps; otherwise the factorization of
    below_spectrum at alpha - eps, when it succeeds, makes that shift lo, so
    the next round refines v with a shift within eps of the spectrum.  A
    round that does not settle, or a failed certificate, takes one
    bisection step of the bracket (Cholesky test at its midpoint).  Nothing
    is random, so equal inputs give bit-identical results.
    SolverDivergence when no first shift is certified, inverse iteration
    does not settle in a bracket eps wide, or MAX_BISECT factorizations pass.

    start = (u, solve), solve the Cholesky solve of T(s) = K + s^2 M, runs
    the started round instead: v <- T(s)^-1 M u (the shift -s^2 lies below
    the spectrum, so this damps the higher eigenvectors), then
    Rayleigh-quotient steps by the band LU of K - alpha M (_shifted_iterate)
    until alpha moves by at most eps or RQ_MAX_ITER steps pass.  Its pair is
    not certified (is_min_eigenpair tests it); alpha is nan when a
    factorization is singular or the iteration does not settle.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"modified-problem parameter s must be finite and > 0, got {s}")
    K, M, eps = forms.stiffness(s)[0], forms.M, forms.certificate_eps(s)

    def quotient(u: np.ndarray) -> float:
        return float(u @ band_mv(K, u)) / float(u @ band_mv(M, u))

    if start is not None:
        u, solve = start
        alpha, v = _shifted_iterate(lambda rho: K - rho * M, quotient,
                                    solve(band_mv(M, u)), M, eps, RQ_MAX_ITER)
        return alpha, j_normalize(forms, v)
    first = FACTORIZATIONS[0]

    def factor(shift: float):
        """The Cholesky solve of K - shift M, None when shift is not below
        the spectrum."""
        if FACTORIZATIONS[0] - first == MAX_BISECT:
            raise SolverDivergence(f"bisection exceeded {MAX_BISECT} steps")
        return cholesky(K[:BAND + 1] - shift * M[:BAND + 1])

    lo, solve = next(((t, f) for t in (0.0, -1.1 * forms.g * forms.xi_abs - 1.0)
                      if (f := factor(t)) is not None), (None, None))
    if solve is None:
        raise SolverDivergence("no shift is below the spectrum")
    v, hi = np.ones(K.shape[1]), math.inf
    while True:
        alpha, move = math.inf, math.inf
        for _step in range(INV_MAX_ITER):
            v = solve(band_mv(M, v))
            v /= np.abs(v).max()
            prev, alpha = alpha, quotient(v)
            move, last = abs(alpha - prev), move
            if move <= eps or move > INV_CONTRACTION * last:
                break
        hi = min(hi, alpha)
        if move <= eps:
            if alpha - eps <= lo:  # lo < alpha_1 <= alpha: certified
                return alpha, j_normalize(forms, v)
            cert = factor(alpha - eps)
            if cert is not None:
                lo, solve = alpha - eps, cert
                continue
            hi = min(hi, alpha - eps)
        if hi - lo <= eps:
            raise SolverDivergence(f"inverse iteration did not settle in {INV_MAX_ITER} steps")
        mid = 0.5 * (lo + hi)
        below = factor(mid)
        if below is None:
            hi = mid
        else:
            lo, solve = mid, below


def _norm1(ab: np.ndarray) -> float:
    # column j of the band storage holds column j of the matrix; summing the
    # band rows of a C-ordered copy is about 3 times faster than the
    # Fortran-ordered storage of assemble
    return float(np.abs(ab, order="C").sum(axis=0).max())


def eig_residual(forms: QuadraticForms, s: float, alpha: float,
                 v: np.ndarray) -> float:
    """Normwise relative residual of an eigenpair of K = K0 + s K1:
    ||(K - alpha M) v|| / ((||K||_1 + |alpha| ||M||_1) ||v||)."""
    K, k_norm = forms.stiffness(s)
    r = band_mv(K, v) - alpha * band_mv(forms.M, v)
    scale = (k_norm + abs(alpha) * forms.m_norm1) * np.linalg.norm(v)
    return float(np.linalg.norm(r) / scale)


def below_spectrum(forms: QuadraticForms, s: float, alpha: float) -> bool:
    """Whether the banded Cholesky factorization of K - (alpha - eps) M
    succeeds, K = K0 + s K1 and eps = forms.certificate_eps(s), which proves
    that every eigenvalue of K v = alpha M v exceeds alpha - eps.  A
    Rayleigh quotient alpha of K is at least the smallest eigenvalue, so
    success certifies alpha as that eigenvalue to eps; a higher eigenvalue
    fails."""
    K, M = forms.stiffness(s)[0], forms.M
    shift = alpha - forms.certificate_eps(s)
    return cholesky(K[:BAND + 1] - shift * M[:BAND + 1]) is not None


def is_min_eigenpair(forms: QuadraticForms, s: float, alpha: float,
                     v: np.ndarray, eig_tol: float) -> bool:
    """The test behind every `converged` flag: (alpha, v) is an eigenpair of
    K0 + s K1 to the relative residual eig_tol (eig_residual) and alpha its
    smallest eigenvalue to eps (below_spectrum)."""
    return (eig_residual(forms, s, alpha, v) <= eig_tol
            and below_spectrum(forms, s, alpha))


def evaluate_energy(forms: QuadraticForms, v: np.ndarray, s: float) -> tuple[float, float]:
    """(E, J) = (v^T (K0 + s K1) v, v^T M v)."""
    e = float(v @ band_mv(forms.K0, v) + s * (v @ band_mv(forms.K1, v)))
    j = float(v @ band_mv(forms.M, v))
    return e, j
