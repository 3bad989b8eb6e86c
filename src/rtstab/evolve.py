"""Time-evolution oracle: semidiscrete linearized dynamics at one frequency.

Restricting the linearized system to a single horizontal Fourier mode
exp(i xi.x') leaves profiles (q_hat(x3), u_hat(x3), eta_hat+-) governed by

    dq/dt = -div_xi(rho u),
    rho du/dt = -rho grad_xi(h'(rho) q) + div_xi S(u),
    deta+-/dt = u3 at the top / interface,

with grad_xi, div_xi the Fourier-substituted operators (horizontal
derivatives become i xi1, i xi2) and the dynamic boundary conditions entering
the weak momentum equation as natural terms with coefficients

    rho1 g + sigma_+ |xi|^2   at the top,
    -(jump g - sigma_- |xi|^2) at the interface.

The horizontal velocity splits into its components along and across xi.
The across part is a shear that decouples from everything else, and the
normal modes carry none of it, so the oracle steps the in-plane system: the
velocity u_h = -i v xi/|xi|, u3 = w, with q, v, w and eta+- real.  In these
unknowns every coefficient is real and depends on xi only through |xi|: the
velocity mass, the dissipation and the divergence row are 2 J, 2 E1 and the
E0 divergence row of the variational forms (variational.form_terms of the
FormCoefficients' fields), and the boundary coefficients are twice the
variational point masses (variational.surface_coefficients).  v and w
live in continuous P1 (essential zero at the bottom); q lives in P1 broken
at the interface with an h'(rho)-weighted projection of the continuity
equation, which makes the semidiscrete energy identity

    d/dt E + y^T D y = jump * g * eta_- w(0)
    E = 1/2 y^T W y = 1/2 int rho (v^2 + w^2) + 1/2 int h'(rho) q^2
      + 1/2 (rho1 g + sigma_+ |xi|^2) eta_+^2 + 1/2 sigma_- |xi|^2 eta_-^2

hold exactly.  A state is one real vector y, listed node by node in the
order in which the step matrices are banded with half-bandwidth STEP_BAND
(layout in EvolutionOperators), and every operator is assembled straight
into the LAPACK band storage of variational.assemble.  It is advanced by
the trapezoidal rule, which inherits the identity exactly at step midpoints
(quadratic invariants are preserved) and is second order in dt.  The step
matrix T = M - dt/2 A is factorized once.  When dpbtrf certifies its
symmetric part positive definite (the usual case for a small forward dt),
T has an LU factorization without row interchanges whose factors keep its
half-bandwidth, and each step is one CSR product and two dtbsv triangular
solves.  Otherwise (dt < 0, or a dt large enough for the boundary coupling
to make the symmetric part indefinite) T is factorized by dgbtrf with
partial pivoting, and each step is one CSR product and one dgbtrs.
For a stable orientation (jump < 0) the full energy adds -1/2 jump g eta_-^2
> 0 and is non-increasing at every step, to round-off.  Growth rates are
measured by least squares on log|eta_-(t)| and cross-checked against the
variational fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf
from scipy.sparse.linalg import splu

from .errors import SingularStep, ZeroSignal
from .modes import GrowingMode
from .variational import (FormCoefficients, assemble, band_mv, check_frequency,
                          form_terms, surface_coefficients)

BLOCK = 16  # states per block of the energy-balance pass (32 adds 1-2 MB of peak RSS)
STEP_BAND = 6  # half-bandwidth of the step matrices in the node-by-node order


class EvolutionOperators:
    """Assembled semidiscrete system M dy/dt = A y with energy functionals.

    State layout, node by node: q at the bottom node, then (q, v, w) at
    each other node; the interface node's triple holds the lower q and is
    followed by the upper q and eta_-, and eta_+ comes last.  The index
    arrays q (the lower layer's nodes, then the upper layer's), v and w
    (nodes 1 .. n_nodes - 1) give each field's place in y.  M, A, the
    energy matrix W and the dissipation D are in the band storage of
    variational.assemble with half-bandwidth STEP_BAND.
    """

    def __init__(self, coeffs: FormCoefficients, xi_abs: float):
        self.coeffs = coeffs
        self.mesh = mesh = coeffs.mesh
        self.xi_abs = check_frequency(xi_abs)
        xi_sq = self.xi_abs * self.xi_abs
        A, C = surface_coefficients(coeffs.profile)
        self.sigma_int_coef, self.sigma_top_coef = A + xi_sq * C
        self.interface_gravity = A[0]  # -jump g, the part without sigma_-
        i0, node = mesh.interface_index, np.arange(mesh.n_nodes)
        at = 3 * node - 2 + 2 * (node > i0)  # place of node k's (lower) q, k >= 1
        self.n = 3 * mesh.n_nodes + 1
        self.q = np.concatenate([[0], at[1:i0 + 1], [at[i0] + 3], at[i0 + 1:]])
        self.v, self.w = at[1:] + 1, at[1:] + 2
        self.eta_minus_idx, self.eta_plus_idx = at[i0] + 4, self.n - 1
        self.u3_int, self.u3_top = at[i0] + 2, at[-1] + 2

        e = np.arange(mesh.n_elements)[:, None]
        qdofs = self.q[e + [0, 1] + (e >= i0)]
        udofs = mesh.dofs(2)  # (v, w) node by node
        udofs = np.where(udofs >= 0, (at[1:, None] + [1, 2]).ravel()[udofs], -1)
        (c, div), visc, mass = form_terms(mesh, coeffs.fields, self.xi_abs)
        N = mesh.quad[2]
        n, band = self.n, STEP_BAND
        # h'(rho) = 2 c weighs the q rows: the q mass, and B, the divergence
        # of rho u tested with q; B^T swaps B's two rows and two dof maps
        B = assemble(mesh, [(2.0 * c, N, div)], qdofs, udofs, n, band)
        BT = assemble(mesh, [(2.0 * c, div, N)], udofs, qdofs, n, band)
        fields = (assemble(mesh, [(2.0 * c, N)], qdofs, qdofs, n, band)
                  + 2.0 * assemble(mesh, mass, udofs, udofs, n, band))
        self.D = 2.0 * assemble(mesh, visc, udofs, udofs, n, band)
        i, j, top, mid = self.eta_plus_idx, self.eta_minus_idx, self.u3_top, self.u3_int
        self.M, self.W = fields.copy(order="F"), fields
        self.M[band, [i, j]] = 1.0
        self.W[band, [i, j]] = self.sigma_top_coef, xi_sq * C[0]
        # A rows: q gets -B u; u gets +B^T q - D u; eta gets deta/dt = w, and
        # w the boundary forces
        self.A = BT - B - self.D
        rows, cols = np.array([i, j, top, mid]), np.array([top, mid, i, j])
        self.A[band + rows - cols, cols] = (1.0, 1.0, -self.sigma_top_coef,
                                            -self.sigma_int_coef)

    # -- quadratic functionals of one state (n,) --------------------------
    def energy(self, y: np.ndarray) -> float:
        return 0.5 * float(y @ band_mv(self.W, y))

    def full_energy(self, y: np.ndarray) -> float:
        """Energy plus the interface term -1/2 jump g eta_-^2 (positive when
        the orientation is stable); non-increasing along exact dynamics."""
        return self.energy(y) + 0.5 * self.interface_gravity * y[self.eta_minus_idx] ** 2

    def dissipation(self, y: np.ndarray) -> float:
        return float(y @ band_mv(self.D, y))


def semidiscretize(coeffs: FormCoefficients, xi_abs: float) -> EvolutionOperators:
    """Assemble the in-plane semidiscrete operators (mass, dynamics) at the
    frequency magnitude xi_abs from the fields and surface coefficients of
    coeffs."""
    return EvolutionOperators(coeffs, xi_abs)


def state_from_mode(ops: EvolutionOperators, mode: GrowingMode) -> np.ndarray:
    """Growing-mode initial data: v = phi, w = psi (u = (-i phi, 0, psi)),
    q = q_tilde, eta = eta_tilde; an approximate eigenvector of the
    semidiscrete system.  Raises ValueError if the mode has a nonzero theta
    (its velocity is not along (1, 0), e.g. after rotate_mode), if its
    velocity does not vanish at the bottom, or if it lives on another mesh
    than ops (other nodes or another layer split)."""
    if np.any(mode.theta != 0):
        raise ValueError("mode must have theta = 0 (frequency along x1)")
    if mode.mesh.n_minus != ops.mesh.n_minus \
            or not np.array_equal(mode.mesh.nodes, ops.mesh.nodes):
        raise ValueError("mode lives on another mesh than the operators")
    u = np.stack([mode.phi, mode.psi])
    if np.abs(u[:, 0]).max() > 1e-13 * max(1.0, np.abs(u).max()):
        raise ValueError("mode velocity must vanish at the bottom node")
    q = np.concatenate([mode.q_tilde_minus, mode.q_tilde_plus])
    y = np.empty(ops.n)
    y[ops.q], y[ops.v], y[ops.w] = q, u[0, 1:], u[1, 1:]
    y[ops.eta_plus_idx], y[ops.eta_minus_idx] = mode.eta_tilde_plus, mode.eta_tilde_minus
    return y


def interface_bump_state(ops: EvolutionOperators) -> np.ndarray:
    """Quiescent state with a unit interface displacement."""
    y = np.zeros(ops.n)
    y[ops.eta_minus_idx] = 1.0
    return y


@dataclass(frozen=True)
class Trajectory:
    """Dense record of an advance() run; states[k] is the step-k dof vector."""

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


def _csr(ab: np.ndarray) -> sp.csr_array:
    """CSR copy of a band array of half-bandwidth STEP_BAND, through a
    zero-copy DIA view, for repeated and block products."""
    return sp.dia_array((ab, STEP_BAND - np.arange(2 * STEP_BAND + 1)),
                        shape=(ab.shape[1],) * 2).tocsr()


def _pivot_free_factors(lhs: np.ndarray):
    """Unit lower and upper band factors (half-bandwidth STEP_BAND each, in
    the lower and upper dtbsv band storage) of the band array lhs factorized
    without row interchanges, or None when that is not certified safe.

    The certificate is one dpbtrf of the symmetric part (T + T^T)/2 in upper
    band storage: if it is positive definite, every leading principal minor
    of T is nonzero, so the elimination without pivoting exists, and its
    growth is bounded (Golub & Van Loan, Linear Algebra Appl. 28, 1979); its
    L and U keep the band of T.  SuperLU factors T in the natural order
    with the diagonal as every pivot, which is checked.
    """
    w, n = STEP_BAND, lhs.shape[1]
    sym = np.zeros((w + 1, n), order="F")
    for o in range(w + 1):
        sym[w - o, o:] = 0.5 * (lhs[w - o, o:] + lhs[w + o, :n - o])
    if dpbtrf(sym, overwrite_ab=1)[1] != 0:
        return None
    lu = splu(sp.dia_array((lhs, w - np.arange(2 * w + 1)), shape=(n, n)).tocsc(),
              permc_spec="NATURAL", diag_pivot_thresh=0.0)
    identity = np.arange(n)
    if not (np.array_equal(lu.perm_r, identity) and np.array_equal(lu.perm_c, identity)):
        return None
    L, U = lu.L.tocoo(), lu.U.tocoo()
    lower, upper = np.zeros((w + 1, n), order="F"), np.zeros((w + 1, n), order="F")
    lower[L.row - L.col, L.col] = L.data
    upper[w + U.row - U.col, U.col] = U.data
    return lower, upper


def advance(y0: np.ndarray, ops: EvolutionOperators, dt: float,
            t_final: float) -> Trajectory:
    """Integrate M dy/dt = A y from the real state y0 at t = 0 by trapezoidal
    steps (M - dt/2 A) y+ = (M + dt/2 A) y.  dt may be negative (time
    reversal), in which case t_final must be too.  The run takes
    round(t_final / dt) steps, so it ends at the multiple of dt nearest
    t_final, which is times[-1].

    Each step is one CSR product with M + dt/2 A, then a solve with
    M - dt/2 A written straight into the (n_steps + 1, n) record.  When the
    symmetric part of M - dt/2 A is positive definite the solve is two
    dtbsv calls with its pivot-free band factors (_pivot_free_factors);
    otherwise it is one dgbtrs with the dgbtrf factors, computed with
    STEP_BAND zero rows on top of the band storage as room for the fill of
    the pivoting.  A complex y0 raises ValueError: the operators are real,
    so its real and imaginary parts are two separate trajectories.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if np.iscomplexobj(y0):
        raise ValueError("y0 must be real; step the real and imaginary parts apart")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError("t_final must cover at least one step of size dt")
    w, lhs = STEP_BAND, ops.M - 0.5 * dt * ops.A
    factors = _pivot_free_factors(lhs)
    if factors is not None:
        lower, upper = factors

        def solve(b):
            b = dtbsv(w, lower, b, lower=1, diag=1, overwrite_x=1)
            return dtbsv(w, upper, b, overwrite_x=1)
    else:
        pivoted = np.zeros((3 * w + 1, ops.n), order="F")
        pivoted[w:] = lhs
        lu, piv, info = dgbtrf(pivoted, w, w, overwrite_ab=1)
        if info > 0:
            raise SingularStep(f"implicit step matrix is singular (zero pivot {info})")

        def solve(b):
            return dgbtrs(lu, w, w, b, piv, overwrite_b=1)[0]
    rhs = _csr(ops.M + 0.5 * dt * ops.A)
    out = np.empty((n_steps + 1, ops.n))
    out[0] = y0
    for k in range(n_steps):
        out[k + 1] = solve(rhs @ out[k])
        if not np.all(np.isfinite(out[k + 1])):
            raise SingularStep(f"non-finite state at step {k + 1}")
    return Trajectory(dt * np.arange(n_steps + 1), out, dt,
                      ops.eta_plus_idx, ops.eta_minus_idx)


def measure_growth(traj: Trajectory, fit_window: float) -> float:
    """Least-squares slope of log|eta_-(t)| over the trailing window fraction."""
    if not 0 < fit_window <= 1:
        raise ValueError("fit_window must lie in (0, 1]")
    sig = traj.eta_minus_abs
    k0 = int(math.floor((1.0 - fit_window) * (sig.size - 1)))
    k0 = min(k0, sig.size - 2)
    window = sig[k0:]
    if np.any(window <= 0.0) or not np.all(np.isfinite(window)):
        raise ZeroSignal("interface signal vanished or overflowed in the fit window")
    t = traj.times[k0:]
    return float(np.polyfit(t, np.log(window), 1)[0])


def energy_balance_residual(traj: Trajectory, ops: EvolutionOperators):
    """Per-step defect of the discrete energy identity, relative to the energy.

    The identity is evaluated at step midpoints, where the trapezoidal rule
    holds it to round-off.  The states are read BLOCK + 1 rows at a time,
    copied once into a contiguous block with one state per column that the
    CSR copies of W and D multiply without a further copy, and each quadratic
    form is a column-wise dot product, so no temporary grows with the step
    count.  Returns
    (residual, energy, dissipation): the defect of each step and the last
    two at every state.
    """
    W, D = _csr(ops.W), _csr(ops.D)
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


def write_trajectory_csv(traj: Trajectory, ops: EvolutionOperators, path) -> None:
    """CSV: t,abs_eta_minus,abs_eta_plus,energy,dissipation,balance_residual."""
    resid, energy, diss = energy_balance_residual(traj, ops)
    resid = np.concatenate([[0.0], resid])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,abs_eta_minus,abs_eta_plus,energy,dissipation,balance_residual\n")
        for row in zip(traj.times, traj.eta_minus_abs, traj.eta_plus_abs,
                       energy, diss, resid):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
