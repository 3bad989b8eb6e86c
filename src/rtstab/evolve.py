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
unknowns every coefficient is real and depends on xi only through |xi|.
The velocity u = (v, w) is the two-field unknown of the variational forms,
in their dof order (continuous P1, zero at the bottom), and its mass and
dissipation are the forms' own 2 M and 2 K1 at |xi|.  The density
perturbation q has one value q_e per element, and the continuity equation
is the h'(rho)-weighted element mean of the E0 divergence row, with the
rows (H, r) of FormCoefficients.continuity:

    H_e dq_e/dt = -r_e . u,   H_e = int_e h'(rho),   r_e = int_e h'(rho) div,

with B the (E x ndof) matrix of the rows r_e.  The boundary coefficients c
are twice the variational point masses (variational.surface_coefficients).
With z = (q, eta_-, eta_+) the system is

    Mu du/dt = -Du u + F z,    dz/dt = G u,

where G stacks -H^-1 B and the picks of w at the interface and the top,
and F stacks B^T and the forces -c eta on those two w rows.  Its energy
identity holds exactly:

    d/dt E + u^T Du u = jump * g * eta_- w(0)
    E = 1/2 u^T Mu u + 1/2 sum_e H_e q_e^2
      + 1/2 (rho1 g + sigma_+ |xi|^2) eta_+^2 + 1/2 sigma_- |xi|^2 eta_-^2.

A state is one real vector y = (u, z).  It is advanced by the trapezoidal
rule, which inherits the identity exactly at step midpoints (quadratic
invariants are preserved) and is second order in dt.  For this linear
system the trapezoidal step is the implicit midpoint step: with the
midpoint velocity m = (u + u+)/2 and h = dt/2 it reads

    L m = Mu u + h F z,   u+ = 2 m - u,   z+ = z + dt G m.

The masses of q and eta are diagonal, so each step eliminates z and solves
for the velocity alone with the symmetric band matrix

    L = Mu + h Du + h^2 S,   S = -F G = B^T H^-1 B + diag(c),

of the forms' half-bandwidth BAND, factorized once per run by
variational.cholesky when L is positive definite (the usual case for a
small forward dt), whose success is the certificate, else by
variational.lu with partial pivoting (dt < 0, or a dt large enough for a
negative interface coefficient to win).  For a stable orientation (jump <
0) the full energy adds -1/2 jump g eta_-^2 > 0 and is non-increasing at
every step, to round-off.  A run checks the
identity on each ring of BLOCK steps and keeps no state but its last.
Growth rates are measured by least squares on log|eta_-(t)| and
cross-checked against the variational fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import csr_matvec, csr_matvecs
from .artifacts import write_csv
from .errors import SingularStep, ZeroSignal
from .modes import GrowingMode
from .variational import (BAND, FormCoefficients, check_frequency, cholesky, lu,
                          scatter, surface_coefficients)

BLOCK = 16  # steps per ring of states in advance(); its energy balance runs per ring


class EvolutionOperators:
    """The semidiscrete system Mu du/dt = -Du u + F z, dz/dt = G u at one
    frequency magnitude (module docstring).

    State layout: the velocity u in the forms' order (v_1, w_1, v_2, w_2,
    ...) over nodes 1 .. n_nodes - 1, then z = (q_1 .. q_E, eta_-, eta_+).
    The index arrays v, w and q give each field's place in y.  Mu, Du and S
    are band storage of half-bandwidth BAND over the velocity, and the
    energy and dissipation matrices W and D over the whole state; F, G and
    WD (W over D, for energy_balance_residual) are CSR triples (indptr,
    indices, data) for scipy's CSR kernels.
    """

    def __init__(self, coeffs: FormCoefficients, xi_abs: float):
        self.coeffs = coeffs
        self.mesh = mesh = coeffs.mesh
        self.xi_abs = check_frequency(xi_abs)
        forms = coeffs.at(self.xi_abs)
        xi_sq = self.xi_abs * self.xi_abs
        A, C = surface_coefficients(coeffs.profile)
        c = A + xi_sq * C
        self.sigma_int_coef, self.sigma_top_coef = c
        self.interface_gravity = A[0]  # -jump g, the part without sigma_-
        nu, ne = mesh.ndof, mesh.n_elements
        self.n = nu + ne + 2
        self.v, self.w = np.arange(0, nu, 2), np.arange(1, nu, 2)
        self.q = nu + np.arange(ne)
        self.eta_minus_idx, self.eta_plus_idx = nu + ne, nu + ne + 1
        self.u3_int, self.u3_top = mesh.surface_dofs

        H, r = coeffs.continuity(self.xi_abs)
        dofs = mesh.dofs(2)
        keep = dofs >= 0
        e, surface = np.nonzero(keep)[0], [self.u3_int, self.u3_top]
        self.G = _csr(ne + 2, (e, dofs[keep], (-1.0 / H)[e] * r[keep]),
                      ([ne, ne + 1], surface, [1.0, 1.0]))
        self.F = _csr(nu, (dofs[keep], e, r[keep]), (surface, [ne, ne + 1], -c))
        self.S = scatter(r[:, :, None] * r[:, None, :] / H[:, None, None], dofs, dofs, nu, BAND)
        self.S[BAND, surface] += c
        self.W = np.zeros((2 * BAND + 1, self.n), order="F")
        self.D = np.zeros_like(self.W)
        self.W[:, :nu], self.D[:, :nu] = 2.0 * forms.M, 2.0 * forms.K1
        self.W[BAND, nu:] = np.concatenate([H, [xi_sq * C[0], self.sigma_top_coef]])
        self.Mu, self.Du = self.W[:, :nu], self.D[:, :nu]
        self.WD = _csr(2 * self.n, _band_entries(self.W), _band_entries(self.D, self.n))


def semidiscretize(coeffs: FormCoefficients, xi_abs: float) -> EvolutionOperators:
    """The in-plane semidiscrete operators at the frequency magnitude xi_abs,
    from the forms, fields and surface coefficients of coeffs."""
    return EvolutionOperators(coeffs, xi_abs)


def state_from_mode(ops: EvolutionOperators, mode: GrowingMode) -> np.ndarray:
    """Growing-mode initial data: v = phi, w = psi (u = (-i phi, 0, psi)),
    and z = (q_tilde, eta_tilde_-, eta_tilde_+), which assemble_mode builds
    from the continuity rows that G reads, so z = G u / lam up to round-off;
    an approximate eigenvector of the semidiscrete system.  Raises
    ValueError if the mode has a nonzero theta (its velocity is not along
    (1, 0)), if its |xi| is not ops.xi_abs, if its velocity does not vanish
    at the bottom, or if it lives on another mesh than ops (other nodes or
    another layer split)."""
    if np.any(mode.theta != 0):
        raise ValueError("mode must have theta = 0 (frequency along x1)")
    if math.hypot(*mode.xi) != ops.xi_abs:
        raise ValueError(f"mode |xi| = {math.hypot(*mode.xi)} is not {ops.xi_abs}")
    if mode.mesh.n_minus != ops.mesh.n_minus \
            or not np.array_equal(mode.mesh.nodes, ops.mesh.nodes):
        raise ValueError("mode lives on another mesh than the operators")
    u = np.stack([mode.phi, mode.psi], axis=1)
    if np.abs(u[0]).max() > 1e-13 * max(1.0, np.abs(u).max()):
        raise ValueError("mode velocity must vanish at the bottom node")
    return np.concatenate([u[1:].ravel(), mode.q_tilde,
                           [mode.eta_tilde_minus, mode.eta_tilde_plus]])


def interface_bump_state(ops: EvolutionOperators) -> np.ndarray:
    """Quiescent state with a unit interface displacement."""
    y = np.zeros(ops.n)
    y[ops.eta_minus_idx] = 1.0
    return y


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Record of an advance() run: per state its time, signed eta+-, energy
    and dissipation; per step its balance defect; and the last state."""

    times: np.ndarray
    eta_minus: np.ndarray
    eta_plus: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    balance_residual: np.ndarray  # (n_steps,)
    final: np.ndarray  # (n,) the state at times[-1]
    dt: float

    @property
    def eta_minus_abs(self) -> np.ndarray:
        return np.abs(self.eta_minus)

    @property
    def eta_plus_abs(self) -> np.ndarray:
        return np.abs(self.eta_plus)


def _band_entries(ab: np.ndarray, row0: int = 0):
    """(rows, columns, values) of the nonzero entries of the n x n matrix in
    the band storage ab of half-bandwidth BAND, its rows numbered from row0."""
    k, j = np.nonzero(ab)
    i = j + k - BAND
    inside = (0 <= i) & (i < ab.shape[1])
    return i[inside] + row0, j[inside], ab[k[inside], j[inside]]


def _csr(n_rows: int, *blocks):
    """CSR (indptr, indices, data) of the blocks' (rows, columns, values), by row
    and then column and without exact zeros, as in scipy's dia_array.tocsr."""
    rows, cols, values = (np.concatenate(part) for part in zip(*blocks))
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep].astype(np.intc), values[keep]
    # the order of np.lexsort((cols, rows)) for indices below 2**31, 4x faster
    order = np.argsort(rows.astype(np.int64) << 32 | cols, kind="stable")
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n_rows))].astype(np.intc)
    return indptr, cols[order], values[order]


def csr_product(A, x: np.ndarray) -> np.ndarray:
    """A x for a CSR triple A and a vector or (n, k) block x, into a zeroed
    output by the kernels of scipy's csr_array product, without its checks."""
    indptr, indices, data = A
    x = np.ascontiguousarray(x, dtype=float)
    out = np.zeros((indptr.size - 1, *x.shape[1:]))
    if x.ndim == 1:
        csr_matvec(out.shape[0], x.size, indptr, indices, data, x, out)
    else:
        csr_matvecs(out.shape[0], *x.shape, indptr, indices, data, x.ravel(), out.ravel())
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow raises SingularStep
def advance(y0: np.ndarray, ops: EvolutionOperators, dt: float,
            t_final: float) -> Trajectory:
    """Integrate the semidiscrete system from the real state y0 at t = 0 by
    trapezoidal steps.  dt may be negative (time reversal), in which case
    t_final must be too.  The run takes round(t_final / dt) steps, so it
    ends at the multiple of dt nearest t_final, which is times[-1].

    For a linear system the trapezoidal step is the implicit midpoint step:
    with the midpoint m = (u + u+)/2 and h = dt/2 it is

        L m = Mu u + h F z,   u+ = 2 m - u,   z+ = z + dt G m,

    with L = Mu + h Du + h^2 S.  The loop solves for p = 2 m = u + u+ with
    [2 Mu | dt F] and h G, the same numbers to the bit (scaling by 2 is
    exact away from underflow), so that u+ = p - u.  A step is one CSR
    product into the zeroed velocity of the next state, one band solve in
    place there and one CSR product into its zeroed z; it allocates no
    array.  L is factorized once: by cholesky when L is positive definite,
    otherwise by the pivoted lu.  The steps fill a ring of BLOCK + 1
    states, which goes to energy_balance_residual when full or at the end;
    its last state starts the next ring.  A complex y0 raises ValueError:
    the operators are real, so its real and imaginary parts are two
    separate trajectories.  A step whose balance is not finite (the energy
    overflows once |y| > ~1e154, or a state is not finite) raises
    SingularStep.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if np.iscomplexobj(y0):
        raise ValueError("y0 must be real; step the real and imaginary parts apart")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError("t_final must cover at least one step of size dt")
    h, n, nu = 0.5 * dt, ops.n, ops.Mu.shape[1]
    lhs = ops.Mu + h * ops.Du + (h * h) * ops.S
    solve = cholesky(lhs) or lu(lhs)
    if solve is None:
        raise SingularStep("implicit step matrix is singular")
    indptr, cols, values = ops.F
    r_ptr, r_cols, r_values = _csr(nu, _band_entries(2.0 * ops.Mu),
                                   (np.repeat(np.arange(nu), np.diff(indptr)), cols + nu,
                                    dt * values))
    g_ptr, g_cols, g_values = ops.G
    g_values = h * g_values
    times, resid = dt * np.arange(n_steps + 1), np.empty(n_steps)
    eta_minus, eta_plus, energy, diss = np.empty((4, n_steps + 1))
    ring = np.empty((BLOCK + 1, n))
    ring[0] = y0
    # fixed views of each state of the ring, its velocity and its z
    states, us, zs = list(ring), list(ring[:, :nu]), list(ring[:, nu:])
    for a in range(0, n_steps, BLOCK):
        k = min(BLOCK, n_steps - a) + 1  # states in this ring, both ends
        for j in range(k - 1):
            u, z = us[j + 1], zs[j + 1]
            u.fill(0.0)
            csr_matvec(nu, n, r_ptr, r_cols, r_values, states[j], u)
            p = solve(u)
            z.fill(0.0)
            csr_matvec(n - nu, nu, g_ptr, g_cols, g_values, p, z)
            np.add(z, zs[j], out=z)
            np.subtract(p, us[j], out=u)
        resid[a:a + k - 1], energy[a:a + k], diss[a:a + k] = \
            energy_balance_residual(ring[:k], ops, dt)
        # a defect is finite only if its energies and dissipations are
        bad = np.flatnonzero(~np.isfinite(resid[a:a + k - 1]))
        if bad.size:
            raise SingularStep(f"non-finite energy balance at step {a + bad[0] + 1}")
        eta_minus[a:a + k] = ring[:k, ops.eta_minus_idx]
        eta_plus[a:a + k] = ring[:k, ops.eta_plus_idx]
        ring[0] = ring[k - 1]
    return Trajectory(times, eta_minus, eta_plus, energy, diss, resid,
                      ring[0].copy(), dt)


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


def energy_balance_residual(states: np.ndarray, ops: EvolutionOperators,
                            dt: float):
    """Defect of the discrete energy identity over the consecutive states
    (k, n) of a run with step dt, relative to the energy.

    The identity is evaluated at step midpoints, where the trapezoidal rule
    holds it to round-off.  The states are copied once into a contiguous
    block with one state per column, which one product with the CSR matrix
    WD (W over D) reads without a further copy, and each quadratic form is a
    column-wise dot product.  Returns (residual, energy, dissipation): the
    defect of each of the k - 1 steps and the last two at every state.
    """
    Y = np.ascontiguousarray(states.T)
    WDY = csr_product(ops.WD, Y)
    WY, DY = WDY[:ops.n], WDY[ops.n:]
    energy = 0.5 * np.einsum("ji,ji->i", Y, WY)
    diss = np.einsum("ji,ji->i", Y, DY)
    cross = np.einsum("ji,ji->i", Y[:, :-1], DY[:, 1:])  # y_k^T D y_k+1
    # at the midpoint m of y_k and y_k+1, D symmetric gives
    # m^T D m = (d_k + d_k+1 + 2 y_k^T D y_k+1) / 4
    d_mid = 0.25 * (diss[:-1] + diss[1:]) + 0.5 * cross
    eta, w = Y[ops.eta_minus_idx], Y[ops.u3_int]
    eta, w = 0.5 * (eta[:-1] + eta[1:]), 0.5 * (w[:-1] + w[1:])
    flux = -ops.interface_gravity * eta * w - d_mid
    scale = np.maximum(np.maximum(np.abs(energy[:-1]), np.abs(energy[1:])), 1e-300)
    return (energy[1:] - energy[:-1] - dt * flux) / scale, energy, diss


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One CSV row per state; the first row's balance_residual is 0."""
    write_csv(path, "t,abs_eta_minus,abs_eta_plus,energy,dissipation,balance_residual",
              (traj.times, traj.eta_minus_abs, traj.eta_plus_abs, traj.energy,
               traj.dissipation, np.concatenate([[0.0], traj.balance_residual])))
