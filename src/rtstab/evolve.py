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
    -(jump g - sigma_- |xi|^2) at the interface,

the same numbers that appear as the variational point masses (times 2, the
matrices there absorb the 1/2).  Velocity components live in continuous P1
(essential zero at the bottom); q lives in P1 broken at the interface with an
h'(rho)-weighted projection of the continuity equation, which makes the
semidiscrete energy identity

    d/dt E + <D u, u> = jump * g * Re(eta_- conj(u3(0)))
    E = 1/2 int rho |u|^2 + 1/2 int h'(rho) |q|^2
      + 1/2 (rho1 g + sigma_+ |xi|^2) |eta_+|^2 + 1/2 sigma_- |xi|^2 |eta_-|^2

hold exactly.  A state is one packed complex vector
y = [q | u1, u2, u3 without the bottom node | eta_+, eta_-] (layout in
EvolutionOperators), advanced by the trapezoidal rule, which inherits the
identity exactly at step midpoints (quadratic invariants are preserved) and
is second order in dt.  For a stable orientation (jump < 0) the full energy
adds -1/2 jump g |eta_-|^2 > 0 and is non-increasing at every step, to
round-off.  Growth rates are measured by least squares on
log|eta_-(t)| and cross-checked against the variational fixed point.

The only complex coefficients are the i xi1, i xi2 of the horizontal
derivatives.  After the phase change u_h -> -i u_h, y = T z with
T = diag(1, -i, -i, 1, 1) on the (q, u1, u2, u3, eta) blocks, the divergence
and every strain entry are real rows in z times 1 or i, so T^H M T and
T^H A T are exactly real and z steps as two real columns (Re z, Im z).
Listed node by node, both matrices are banded with half-bandwidth
STEP_BAND, so advance factorizes the step matrix once by LAPACK dgbtrf and
takes each step with one sparse product and one dgbtrs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .equilibrium import EquilibriumProfile, PhysicalParams
from .errors import BandOverflow, InvalidInput, SingularStep, ZeroSignal
from .modes import GrowingMode
from .variational import (Mesh1D, assemble, field_rows, layer_fields,
                          viscous_terms)

BLOCK = 8  # states per vectorised block of the energy-balance pass
STEP_BAND = 8  # half-bandwidth of the phased step matrices in the interleaved order


class EvolutionOperators:
    """Assembled semidiscrete system M dy/dt = A y with energy functionals.

    State layout: y = [q (nq) | u1, u2, u3 (each n_free) | eta_+, eta_-].
    advance steps in another basis: `phase` is the diagonal of the phase
    change T of the module docstring, and `order` lists the dofs node by node
    (q, u1, u2, u3 at each node; the upper q and eta_- at the interface
    node, eta_+ at the top node), the order in which T^H M T and T^H A T
    have half-bandwidth STEP_BAND.
    """

    def __init__(self, mesh: Mesh1D, profile: EquilibriumProfile,
                 xi: tuple[float, float], params: PhysicalParams):
        self.mesh = mesh
        self.profile = profile
        self.xi = (float(xi[0]), float(xi[1]))
        self.params = params
        xi1, xi2 = self.xi
        xi_sq = xi1 * xi1 + xi2 * xi2
        nf = mesh.n_free
        nq = mesh.n_nodes + 1  # broken at the interface
        self.nq, self.nf = nq, nf
        self.nu = 3 * nf
        self.n = nq + self.nu + 2
        self.sigma_top_coef = profile.rho1 * params.g + params.sigma_plus * xi_sq
        self.sigma_int_coef = params.sigma_minus * xi_sq - profile.jump * params.g
        self.u3_top = nq + 3 * nf - 1
        self.u3_int = nq + 2 * nf + mesh.interface_index - 1
        self.eta_plus_idx = nq + self.nu
        self.eta_minus_idx = nq + self.nu + 1
        self.phase = np.ones(self.n, dtype=complex)
        self.phase[nq:nq + 2 * nf] = -1j
        # q, u1, u2, u3 at each node; the interface node's own q is the
        # lower one, and the upper q and eta_- follow its block
        i0 = mesh.interface_index
        node = np.arange(1, mesh.n_nodes)
        q = node + (node > i0)
        per_node = np.stack([q] + [nq + k * nf + node - 1 for k in range(3)], axis=1)
        self.order = np.concatenate([[0], per_node[:i0].ravel(),
                                     [i0 + 1, self.eta_minus_idx],
                                     per_node[i0:].ravel(), [self.eta_plus_idx]])

        e = np.arange(mesh.n_elements)[:, None]
        qdofs = e + [0, 1] + (e >= mesh.interface_index)
        udofs = mesh.dofs(3)
        udofs[udofs >= 0] += nq
        rho, drho, dp, mu, mu_p = layer_fields(mesh, profile, params, mesh.quad[0])
        N = mesh.quad[2]
        u, du = field_rows(mesh, 3)
        r = rho[..., None]
        shape = (self.n, self.n)
        # div_xi(rho u) = i xi1 rho u1 + i xi2 rho u2 + (rho u3)'
        div_rho_u = (1j * xi1 * r * u[0] + 1j * xi2 * r * u[1]
                     + drho[..., None] * u[2] + r * du[2])
        B = assemble(mesh, [(dp / rho, N, div_rho_u)], qdofs, udofs, shape)
        D = assemble(mesh, ((2.0 * c, row) for c, row in viscous_terms(
            mu, mu_p, u, du, (1j * xi1, 1j * xi2))), udofs, udofs, shape)
        i, j = self.eta_plus_idx, self.eta_minus_idx
        # kinematic rows deta/dt = u3 and the boundary forces on u3
        eta = sp.coo_array(([1.0, 1.0, -self.sigma_top_coef, -self.sigma_int_coef],
                            ([i, j, self.u3_top, self.u3_int],
                             [self.u3_top, self.u3_int, i, j])), shape=shape)
        eta_mass = sp.coo_array(([1.0, 1.0], ([i, j], [i, j])), shape=shape)
        self.M = (assemble(mesh, [(dp / rho, N)], qdofs, qdofs, shape)
                  + assemble(mesh, [(rho, row) for row in u], udofs, udofs, shape)
                  + eta_mass).astype(complex)
        # A rows: q gets -B u; u gets +B^H q - D u
        self.A = (B.conj().T - B - D + eta).tocsr()
        # blocks reused by the quadratic functionals
        self.Mq_block = self.M[:nq, :nq]
        self.Mu_block = self.M[nq:nq + self.nu, nq:nq + self.nu]
        # Hermitian dissipation block, kept separately for diagnostics.
        self.D = -self.A[nq:nq + self.nu, nq:nq + self.nu]

    # -- quadratic functionals -------------------------------------------
    # Each takes one state (n,) or a block of states (n, k), one per column.
    def energy(self, y: np.ndarray):
        q = y[:self.nq]
        u = y[self.nq:self.nq + self.nu]
        xi_sq = self.xi[0]**2 + self.xi[1]**2
        return 0.5 * (_dot(q, self.Mq_block @ q) + _dot(u, self.Mu_block @ u)
                      + self.sigma_top_coef * np.abs(y[self.eta_plus_idx])**2
                      + self.params.sigma_minus * xi_sq
                      * np.abs(y[self.eta_minus_idx])**2)

    def full_energy(self, y: np.ndarray):
        """Energy plus the interface term -1/2 jump g |eta_-|^2 (positive when
        the orientation is stable); non-increasing along exact dynamics."""
        return self.energy(y) - 0.5 * self.profile.jump * self.params.g \
            * abs(y[self.eta_minus_idx]) ** 2

    def dissipation(self, y: np.ndarray):
        u = y[self.nq:self.nq + self.nu]
        return _dot(u, self.D @ u)


def _dot(x: np.ndarray, ax: np.ndarray):
    """Re x^H ax of each column: a scalar for vectors, (k,) for (m, k).  The
    real views of x and ax pair real with real and imaginary with imaginary
    parts, so the sum needs no conjugated copy."""
    d = np.einsum("i...,i...->...", x.view(float), ax.view(float))
    return d if x.ndim == 1 else d.reshape(-1, 2).sum(axis=1)


def semidiscretize(profile: EquilibriumProfile, mesh: Mesh1D,
                   xi: tuple[float, float], params: PhysicalParams) -> EvolutionOperators:
    """Assemble the single-frequency semidiscrete operators (mass, dynamics)."""
    return EvolutionOperators(mesh, profile, xi, params)


def state_from_mode(ops: EvolutionOperators, mode: GrowingMode) -> np.ndarray:
    """Growing-mode initial data: u = (-i phi, -i theta, psi), q = q_tilde,
    eta = eta_tilde; an approximate eigenvector of the semidiscrete system.
    Raises ValueError if the mode's velocity does not vanish at the bottom
    or the mode lives on another mesh than ops."""
    u = np.array([-1j * mode.phi, -1j * mode.theta, mode.psi])
    if np.abs(u[:, 0]).max() > 1e-13 * max(1.0, np.abs(u).max()):
        raise ValueError("mode velocity must vanish at the bottom node")
    y = np.concatenate([mode.q_tilde_minus, mode.q_tilde_plus, u[:, 1:].ravel(),
                        [mode.eta_tilde_plus, mode.eta_tilde_minus]]).astype(complex)
    if y.size != ops.n:
        raise ValueError(f"mode has {y.size} dofs, the operators {ops.n}")
    return y


def interface_bump_state(ops: EvolutionOperators) -> np.ndarray:
    """Quiescent state with a unit interface displacement."""
    y = np.zeros(ops.n, dtype=complex)
    y[ops.eta_minus_idx] = 1.0
    return y


@dataclass(frozen=True)
class Trajectory:
    """Dense record of an advance() run; states[k] is the step-k dof vector."""

    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, n) complex
    dt: float
    eta_plus_idx: int
    eta_minus_idx: int

    @property
    def eta_minus_abs(self) -> np.ndarray:
        return np.abs(self.states[:, self.eta_minus_idx])

    @property
    def eta_plus_abs(self) -> np.ndarray:
        return np.abs(self.states[:, self.eta_plus_idx])


def _phased(A: sp.csr_array, ops: EvolutionOperators) -> sp.csr_array:
    """T^H A T in ops.order, T = diag(ops.phase), as a real matrix; raises
    InvalidInput if any entry has a nonzero imaginary part."""
    C = A.tocoo()
    data = np.conj(ops.phase[C.row]) * C.data * ops.phase[C.col]
    if np.any(data.imag != 0):
        raise InvalidInput("phase-transformed operator is not real")
    pos = np.argsort(ops.order)
    return sp.csr_array((data.real, (pos[C.row], pos[C.col])), shape=A.shape)


def _band(A: sp.csr_array) -> np.ndarray:
    """A in the general band storage of dgbtrf with kl = ku = STEP_BAND:
    entry (i, j) sits at [2 STEP_BAND + i - j, j], and the top STEP_BAND
    rows are room for the fill of the pivoting."""
    ab = np.zeros((3 * STEP_BAND + 1, A.shape[0]), order="F")
    dia = A.todia()  # offset d: A[j - d, j] at column j
    for d, diagonal in zip(dia.offsets, dia.data):
        if abs(d) > STEP_BAND:
            raise BandOverflow("step matrix is wider than the interleaved band")
        ab[2 * STEP_BAND - d] = diagonal
    return ab


def _step_system(ops: EvolutionOperators, dt: float):
    """(lu, piv, rhs) for the step L z+ = R z in ops.order, with
    L = T^H (M - dt/2 A) T and R = T^H (M + dt/2 A) T: the dgbtrf factors of
    L and R as a real CSR matrix.  The phased M and A die here, before
    advance fills its state buffer, so they add nothing to the peak memory."""
    M, A = _phased(ops.M, ops), _phased(ops.A, ops)
    lu, piv, info = dgbtrf(_band(M - 0.5 * dt * A), STEP_BAND, STEP_BAND,
                           overwrite_ab=1)
    if info > 0:
        raise SingularStep(f"implicit step matrix is singular (zero pivot {info})")
    return lu, piv, M + 0.5 * dt * A


def advance(y0: np.ndarray, ops: EvolutionOperators, dt: float,
            t_final: float) -> Trajectory:
    """Integrate M dy/dt = A y from y0 at t = 0 by trapezoidal steps
    (M - dt/2 A) y+ = (M + dt/2 A) y.  dt may be negative (time reversal),
    in which case t_final must be too.

    The steps run on z = T^-1 y in the interleaved order (EvolutionOperators),
    where both step matrices are real and banded: the real and imaginary
    parts of z are two real columns, the left matrix is factorized once by
    dgbtrf, and each step is a sparse product of the right matrix with both
    columns and one dgbtrs.  Every step is written straight back into the
    complex packed layout.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError("t_final must cover at least one step of size dt")
    lu, piv, rhs = _step_system(ops, dt)
    # y = T z is a signed permutation of w = [Re z | Im z]: in the real view
    # of y, dof j holds (Re z_j, Im z_j) where its phase is 1 and
    # (Im z_j, -Re z_j) where it is -i
    n, turned = ops.n, ops.phase == -1j
    pos = np.argsort(ops.order)
    src = np.stack([pos + n * turned, pos + n * ~turned], axis=1).ravel()
    sign = np.stack([np.ones(n), np.where(turned, -1.0, 1.0)], axis=1).ravel()
    out = np.empty((n_steps + 1, n), dtype=complex)
    out[0] = y0
    real_view = out.view(float)
    w = np.empty(2 * n)
    w[src] = sign * real_view[0]
    z = w.reshape(2, n).T  # the (n, 2) block (Re z, Im z), column-major
    for k in range(n_steps):
        b = np.empty((n, 2), order="F")
        b[:, 0], b[:, 1] = rhs @ z[:, 0], rhs @ z[:, 1]
        z = dgbtrs(lu, STEP_BAND, STEP_BAND, b, piv, overwrite_b=1)[0]
        if not np.all(np.isfinite(z)):
            raise SingularStep(f"non-finite state at step {k + 1}")
        np.multiply(z.T.ravel()[src], sign, out=real_view[k + 1])
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
    cross = np.empty(n_steps)  # Re u_k^H D u_k+1
    u = slice(ops.nq, ops.nq + ops.nu)
    for a in range(0, n_steps, BLOCK):
        Y = traj.states[a:a + BLOCK + 1].T.copy()  # one state per column
        U, k = Y[u], Y.shape[1]
        DU = ops.D @ U
        energy[a:a + k] = ops.energy(Y)
        diss[a:a + k] = _dot(U, DU)
        cross[a:a + k - 1] = _dot(U[:, :-1], DU[:, 1:])
    eta = traj.states[:, ops.eta_minus_idx]
    u3 = traj.states[:, ops.u3_int]
    # at the midpoint m of y_k and y_k+1, D Hermitian gives
    # Re m^H D m = (d_k + d_k+1 + 2 Re u_k^H D u_k+1) / 4
    d_mid = 0.25 * (diss[:-1] + diss[1:]) + 0.5 * cross
    eta, u3 = 0.5 * (eta[:-1] + eta[1:]), 0.5 * (u3[:-1] + u3[1:])
    flux = ops.profile.jump * ops.params.g * np.real(eta * np.conj(u3)) - d_mid
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
