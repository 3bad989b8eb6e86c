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
E0 divergence row of the variational forms (variational.form_terms), and
the boundary coefficients are twice the variational point masses.  v and w
live in continuous P1 (essential zero at the bottom); q lives in P1 broken
at the interface with an h'(rho)-weighted projection of the continuity
equation, which makes the semidiscrete energy identity

    d/dt E + y^T D y = jump * g * eta_- w(0)
    E = 1/2 y^T W y = 1/2 int rho (v^2 + w^2) + 1/2 int h'(rho) q^2
      + 1/2 (rho1 g + sigma_+ |xi|^2) eta_+^2 + 1/2 sigma_- |xi|^2 eta_-^2

hold exactly.  A state is one real vector y, listed node by node in the
order in which the step matrices are banded with half-bandwidth STEP_BAND
(layout in EvolutionOperators).  It is advanced by the trapezoidal rule,
which inherits the identity exactly at step midpoints (quadratic invariants
are preserved) and is second order in dt: the step matrix is factorized
once by LAPACK dgbtrf, and each step is one sparse product and one dgbtrs.
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
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .equilibrium import EquilibriumProfile, PhysicalParams
from .errors import BandOverflow, SingularStep, ZeroSignal
from .modes import GrowingMode
from .variational import Mesh1D, assemble, form_terms

BLOCK = 8  # states per vectorised block of the energy-balance pass
STEP_BAND = 6  # half-bandwidth of the step matrices in the node-by-node order


class EvolutionOperators:
    """Assembled semidiscrete system M dy/dt = A y with energy functionals.

    State layout, node by node: q at the bottom node, then (q, v, w) at
    each other node; the interface node's triple holds the lower q and is
    followed by the upper q and eta_-, and eta_+ comes last.  The index
    arrays q (the lower layer's nodes, then the upper layer's), v and w
    (nodes 1 .. n_nodes - 1) give each field's place in y.
    """

    def __init__(self, mesh: Mesh1D, profile: EquilibriumProfile, xi_abs: float,
                 params: PhysicalParams):
        self.mesh = mesh
        self.profile = profile
        self.xi_abs = float(xi_abs)
        self.params = params
        xi_sq = self.xi_abs * self.xi_abs
        self.sigma_top_coef = profile.rho1 * params.g + params.sigma_plus * xi_sq
        self.sigma_int_coef = params.sigma_minus * xi_sq - profile.jump * params.g
        i0, node = mesh.interface_index, np.arange(mesh.n_nodes)
        at = 3 * node - 2 + 2 * (node > i0)  # place of node k's (lower) q, k >= 1
        self.n = 3 * mesh.n_nodes + 1
        self.q = np.concatenate([[0], at[1:i0 + 1], [at[i0] + 3], at[i0 + 1:]])
        self.v, self.w = at[1:] + 1, at[1:] + 2
        self.eta_minus_idx, self.eta_plus_idx = at[i0] + 4, self.n - 1
        self.u3_int, self.u3_top = at[i0] + 2, at[-1] + 2

        e = np.arange(mesh.n_elements)[:, None]
        qdofs = self.q[e + [0, 1] + (e >= i0)]
        udofs = mesh.dofs(2)
        udofs = np.where(udofs >= 0, np.concatenate([self.v, self.w])[udofs], -1)
        (c, div), visc, mass = form_terms(mesh, profile, self.xi_abs, params)
        N = mesh.quad[2]
        shape = (self.n, self.n)
        # h'(rho) = 2 c weighs the q rows: the q mass, and B, the divergence
        # of rho u tested with q
        B = assemble(mesh, [(2.0 * c, N, div)], qdofs, udofs, shape)
        fields = (assemble(mesh, [(2.0 * c, N)], qdofs, qdofs, shape)
                  + 2.0 * assemble(mesh, mass, udofs, udofs, shape))
        self.D = 2.0 * assemble(mesh, visc, udofs, udofs, shape)
        i, j, top, mid = self.eta_plus_idx, self.eta_minus_idx, self.u3_top, self.u3_int

        def entries(values, rows, cols):
            return sp.coo_array((values, (rows, cols)), shape=shape)

        self.M = (fields + entries([1.0, 1.0], [i, j], [i, j])).tocsr()
        self.W = (fields + entries([self.sigma_top_coef, params.sigma_minus * xi_sq],
                                   [i, j], [i, j])).tocsr()
        # A rows: q gets -B u; u gets +B^T q - D u; eta gets deta/dt = w, and
        # w the boundary forces
        self.A = (B.T - B - self.D
                  + entries([1.0, 1.0, -self.sigma_top_coef, -self.sigma_int_coef],
                            [i, j, top, mid], [top, mid, i, j])).tocsr()

    # -- quadratic functionals -------------------------------------------
    # Each takes one state (n,) or a block of states (n, k), one per column.
    def energy(self, y: np.ndarray):
        return 0.5 * (y * (self.W @ y)).sum(axis=0)

    def full_energy(self, y: np.ndarray):
        """Energy plus the interface term -1/2 jump g eta_-^2 (positive when
        the orientation is stable); non-increasing along exact dynamics."""
        return self.energy(y) - 0.5 * self.profile.jump * self.params.g \
            * y[self.eta_minus_idx] ** 2

    def dissipation(self, y: np.ndarray):
        return (y * (self.D @ y)).sum(axis=0)


def semidiscretize(profile: EquilibriumProfile, mesh: Mesh1D, xi_abs: float,
                   params: PhysicalParams) -> EvolutionOperators:
    """Assemble the in-plane semidiscrete operators (mass, dynamics) at the
    frequency magnitude xi_abs."""
    return EvolutionOperators(mesh, profile, xi_abs, params)


def state_from_mode(ops: EvolutionOperators, mode: GrowingMode) -> np.ndarray:
    """Growing-mode initial data: v = phi, w = psi (u = (-i phi, 0, psi)),
    q = q_tilde, eta = eta_tilde; an approximate eigenvector of the
    semidiscrete system.  Raises ValueError if the mode has a nonzero theta
    (its velocity is not along (1, 0), e.g. after rotate_mode), if its
    velocity does not vanish at the bottom, or if it lives on another mesh
    than ops."""
    if np.any(mode.theta != 0):
        raise ValueError("mode must have theta = 0 (frequency along x1)")
    u = np.stack([mode.phi, mode.psi])
    if np.abs(u[:, 0]).max() > 1e-13 * max(1.0, np.abs(u).max()):
        raise ValueError("mode velocity must vanish at the bottom node")
    q = np.concatenate([mode.q_tilde_minus, mode.q_tilde_plus])
    if u.shape[1] != ops.mesh.n_nodes or q.size != ops.q.size:
        raise ValueError(f"mode has {u.shape[1]} nodes, the operators "
                         f"{ops.mesh.n_nodes}")
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


def _band(A: sp.csr_array) -> np.ndarray:
    """A in the general band storage of dgbtrf with kl = ku = STEP_BAND:
    entry (i, j) sits at [2 STEP_BAND + i - j, j], and the top STEP_BAND
    rows are room for the fill of the pivoting."""
    ab = np.zeros((3 * STEP_BAND + 1, A.shape[0]), order="F")
    dia = A.todia()  # offset d: A[j - d, j] at column j
    for d, diagonal in zip(dia.offsets, dia.data):
        if abs(d) > STEP_BAND:
            raise BandOverflow("step matrix is wider than the node-by-node band")
        ab[2 * STEP_BAND - d] = diagonal
    return ab


def advance(y0: np.ndarray, ops: EvolutionOperators, dt: float,
            t_final: float) -> Trajectory:
    """Integrate M dy/dt = A y from the real state y0 at t = 0 by trapezoidal
    steps (M - dt/2 A) y+ = (M + dt/2 A) y.  dt may be negative (time
    reversal), in which case t_final must be too.

    M - dt/2 A is factorized once by dgbtrf in the band storage of the
    node-by-node order, and each step is one sparse product with M + dt/2 A
    and one dgbtrs, written straight into the (n_steps + 1, n) record.  A
    complex y0 raises ValueError: the operators are real, so its real and
    imaginary parts are two separate trajectories.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if np.iscomplexobj(y0):
        raise ValueError("y0 must be real; step the real and imaginary parts apart")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError("t_final must cover at least one step of size dt")
    lu, piv, info = dgbtrf(_band(ops.M - 0.5 * dt * ops.A), STEP_BAND, STEP_BAND,
                           overwrite_ab=1)
    if info > 0:
        raise SingularStep(f"implicit step matrix is singular (zero pivot {info})")
    rhs = ops.M + 0.5 * dt * ops.A
    out = np.empty((n_steps + 1, ops.n))
    out[0] = y0
    for k in range(n_steps):
        out[k + 1] = dgbtrs(lu, STEP_BAND, STEP_BAND, rhs @ out[k], piv,
                            overwrite_b=1)[0]
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
    holds it to round-off.  States are taken BLOCK at a time, so no
    temporary grows with the step count.  Returns (residual, energy,
    dissipation): the defect of each step and the last two at every state.
    """
    n_steps = traj.states.shape[0] - 1
    energy, diss = np.empty(n_steps + 1), np.empty(n_steps + 1)
    cross = np.empty(n_steps)  # y_k^T D y_k+1
    for a in range(0, n_steps, BLOCK):
        Y = traj.states[a:a + BLOCK + 1].T  # one state per column
        DY, k = ops.D @ Y, Y.shape[1]
        energy[a:a + k] = ops.energy(Y)
        diss[a:a + k] = (Y * DY).sum(axis=0)
        cross[a:a + k - 1] = (Y[:, :-1] * DY[:, 1:]).sum(axis=0)
    eta = traj.states[:, ops.eta_minus_idx]
    w = traj.states[:, ops.u3_int]
    # at the midpoint m of y_k and y_k+1, D symmetric gives
    # m^T D m = (d_k + d_k+1 + 2 y_k^T D y_k+1) / 4
    d_mid = 0.25 * (diss[:-1] + diss[1:]) + 0.5 * cross
    eta, w = 0.5 * (eta[:-1] + eta[1:]), 0.5 * (w[:-1] + w[1:])
    flux = ops.profile.jump * ops.params.g * eta * w - d_mid
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
