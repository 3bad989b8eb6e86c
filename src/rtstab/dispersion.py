"""Growth-rate dispersion curve, lattice sweep, and critical quantities.

At each admissible frequency magnitude the growth rate solves the fixed
point s = sqrt(-alpha(s)), i.e. the unique root of

    f(s) = s^2 + alpha(s)

on (0, S_max].  alpha is continuous and strictly increasing in s, so f is
too and a sign-change bracket always contains the root.  Every rate obeys
lambda <= b g jump / mu_minus, which caps the bracket at

    S_max = s_max_factor * b * g * jump / mu_minus.

The root solve is a safeguarded Newton iteration inside that bracket.  By
Hellmann-Feynman, alpha'(s) = v^T K1 v at the J-normalized minimizer v, so
each eigensolve also gives the slope f'(s) = 2 s + v^T K1 v for free.  The
next iterate is the Newton step when it falls strictly inside the current
bracket and the midpoint otherwise, so the bracket never loses the root and
the iteration converges whenever bisection would, typically in a handful of
eigensolves instead of thirty-odd.  Since alpha increases in s, alpha at the
bracket's lower end less 1% lies below alpha at every later iterate; each
eigensolve offers it to min_eig as a shift-invert shift, which min_eig uses
only if a Cholesky factorization certifies it below the spectrum.

Instability is confined to the frequency window 0 < |xi| < xi_c with
xi_c = sqrt(jump g / sigma_minus) (all frequencies when sigma_minus = 0),
and disappears entirely once sigma_minus reaches the critical tension

    sigma_c = jump * g * max(L1^2, L2^2),

because the smallest nonzero lattice frequency then falls outside the
window.  The sweep enumerates xi in (1/L1)Z x (1/L2)Z, deduplicates by |xi|
(rates depend on the magnitude alone) and calls growth_rate at every point;
outside the window that call ends at its nonnegative alpha probe.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .config import NumericsConfig
from .equilibrium import EquilibriumProfile, PhysicalParams
from .errors import NoSignChange, NotUnstableOrientation, SolverDivergence
from .variational import (Mesh1D, QuadraticForms, assemble_forms, band_mv,
                          eig_residual, evaluate_energy, min_eig, project_p1)


S_MIN_FRAC = 1e-8  # s_min = S_MIN_FRAC * S_max, the stability probe point
MAX_ITER = 200  # root-solve iterations before SolverDivergence


@dataclass(frozen=True)
class DispersionPoint:
    """One lattice frequency with its growth rate and solve metadata.

    lam is the fixed-point rate (0 when no growing mode exists at this
    frequency); alpha_at_star is alpha evaluated at the returned s (for
    lam = 0 it is the stability probe alpha(s_min) >= 0); converged says
    that the minimizer's relative eigen-residual is within eig_tol.  The
    minimizer lists (phi, psi) node by node, (phi_1, psi_1, phi_2, psi_2,
    ...), in the dof order of Mesh1D.dofs.
    """

    xi: tuple[float, float]
    xi_abs: float
    lam: float
    alpha_at_star: float
    minimizer: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class GrowthSummary:
    """Sweep result: the sharp rate over the scanned lattice.

    Lambda is attained for sigma_minus > 0 (finitely many admissible
    frequencies); for sigma_minus = 0 the scan is cutoff-limited, attained is
    False and Lambda is the achieved lattice maximum without a guarantee that
    it exceeds half the true supremum.
    """

    Lambda: float
    argmax_xi: tuple[float, float] | None
    attained: bool
    curve: tuple[DispersionPoint, ...]
    sigma_c: float
    xi_c: float


def critical_tension(profile: EquilibriumProfile, params: PhysicalParams) -> float:
    """sigma_c = jump * g * max(L1^2, L2^2)."""
    return profile.jump * params.g * max(params.L1**2, params.L2**2)


def critical_frequency(profile: EquilibriumProfile, params: PhysicalParams) -> float:
    """Frequency cutoff sqrt(jump*g/sigma_minus); +inf when sigma_minus = 0."""
    if profile.jump <= 0:
        raise NotUnstableOrientation(f"density jump {profile.jump} <= 0")
    if params.sigma_minus == 0:
        return math.inf
    return math.sqrt(profile.jump * params.g / params.sigma_minus)


def _bisect_root(f, lo: float, hi: float, f_lo: float, f_hi: float,
                 ftol: float, wtol: float, max_iter: int, slope=None):
    """Bracketed root of an increasing f with f(lo) < 0 < f(hi).

    f returns (value, payload).  Without `slope` every iterate is the
    bracket midpoint.  With slope(s, payload) -> f'(s), the iterate after s
    is the Newton step from s when it lies strictly inside the updated
    bracket, and the midpoint otherwise.  Stops when |f| <= ftol or the
    bracket is at most wtol wide.  Returns (root, f(root), payload,
    iterations).
    """
    if f_lo > 0 or f_hi <= 0:
        raise NoSignChange(f"f({lo}) = {f_lo}, f({hi}) = {f_hi} do not bracket a root")
    s = 0.5 * (lo + hi)
    for iterations in range(1, max_iter + 1):
        val, payload = f(s)
        if abs(val) <= ftol or (hi - lo) <= wtol:
            return s, val, payload, iterations
        if val < 0:
            lo = s
        else:
            hi = s
        step = math.nan
        if slope is not None:
            d = slope(s, payload)
            if d > 0:
                step = s - val / d
        s = step if lo < step < hi else 0.5 * (lo + hi)
    raise SolverDivergence(f"root solve exceeded {max_iter} iterations")


def _bracket(profile: EquilibriumProfile, params: PhysicalParams,
             numerics: NumericsConfig) -> tuple[float, float]:
    """(s_min, S_max): S_max = s_max_factor * b g jump / mu_minus, or
    b g / mu_minus when the orientation is stable, and s_min = S_MIN_FRAC S_max."""
    bound = params.b * params.g * max(profile.jump, 0.0) / params.mu_minus
    s_max = numerics.s_max_factor * bound if bound > 0 else params.b * params.g / params.mu_minus
    return S_MIN_FRAC * s_max, s_max


def _converged(forms: QuadraticForms, s: float, alpha: float, v: np.ndarray,
               numerics: NumericsConfig) -> bool:
    return eig_residual(forms, s, alpha, v) <= numerics.eig_tol


def growth_rate(profile: EquilibriumProfile, xi_abs: float, mesh: Mesh1D,
                params: PhysicalParams,
                numerics: NumericsConfig = NumericsConfig()) -> DispersionPoint:
    """Solve s^2 + alpha(s) = 0 at one frequency magnitude.

    If the probe alpha(s_min) is already nonnegative there is no growing
    mode and lam = 0 is returned with the probe value.  A negative probe
    with no sign change on the bracket is an inconsistency and raises
    NoSignChange rather than being repaired.  Otherwise the root comes from
    Newton steps inside [s_min, S_max]; iterations counts every eigensolve,
    the two end-point probes included.  numerics supplies s_max_factor,
    root_tol and eig_tol.
    """
    if xi_abs <= 0:
        raise ValueError("xi_abs must be > 0")
    forms = assemble_forms(mesh, profile, xi_abs, params)
    s_min, s_max = _bracket(profile, params, numerics)
    alpha0, v0 = min_eig(forms, s_min)
    xi = (float(xi_abs), 0.0)
    if alpha0 >= 0:
        return DispersionPoint(xi, float(xi_abs), 0.0, alpha0, v0, 1,
                               _converged(forms, s_min, alpha0, v0, numerics))
    f_lo = s_min**2 + alpha0
    if f_lo > 0:
        raise NoSignChange(
            f"alpha({s_min}) = {alpha0} < 0 but f(s_min) = {f_lo} > 0 at |xi| = {xi_abs}")
    # alpha at the bracket's lower end, less 1%, lies below alpha at every
    # later iterate (alpha increases in s): a shift for min_eig to certify
    lower = alpha0

    def eig(s):
        return min_eig(forms, s, below=lower - 0.01 * abs(lower))

    alpha1, _v1 = eig(s_max)
    f_hi = s_max**2 + alpha1
    if f_hi <= 0:
        raise NoSignChange(
            f"f(S_max) = {f_hi} <= 0 at |xi| = {xi_abs}; root exceeds the growth bound")

    def f(s):
        nonlocal lower
        alpha, v = eig(s)
        if s * s + alpha < 0:  # s becomes the bracket's lower end
            lower = alpha
        return s * s + alpha, (alpha, v)

    def slope(s, payload):
        _alpha, v = payload
        return 2.0 * s + float(v @ band_mv(forms.K1, v))  # Hellmann-Feynman

    ftol = numerics.root_tol * s_max**2
    wtol = numerics.root_tol * s_max
    root, _fval, (alpha, v), iters = _bisect_root(
        f, s_min, s_max, f_lo, f_hi, ftol, wtol, MAX_ITER, slope)
    return DispersionPoint(xi, float(xi_abs), root, alpha, v, iters + 2,
                           _converged(forms, root, alpha, v, numerics))


def _dedup_lattice(params: PhysicalParams, limit: float):
    """Nonzero lattice points below `limit`, grouped by exact |xi|^2.

    |xi|^2 = (m/L1)^2 + (n/L2)^2 is compared as an exact rational of the
    float inputs, so lattice images of equal magnitude collapse to a single
    representative (nonnegative components preferred, then largest m).
    """
    l1sq = Fraction(params.L1) ** 2
    l2sq = Fraction(params.L2) ** 2
    m_max = int(math.floor(limit * params.L1)) + 1
    n_max = int(math.floor(limit * params.L2)) + 1
    groups: dict[Fraction, tuple[int, int]] = {}
    for m in range(-m_max, m_max + 1):
        for n in range(-n_max, n_max + 1):
            if m == 0 and n == 0:
                continue
            key = Fraction(m * m) / l1sq + Fraction(n * n) / l2sq
            if float(key) >= limit * limit:
                continue
            cand = (m, n)
            best = groups.get(key)
            if best is None or (cand[0] >= 0, cand[1] >= 0, cand) > (
                    best[0] >= 0, best[1] >= 0, best):
                groups[key] = cand
    return sorted(groups.items(), key=lambda kv: kv[0])


def sweep_lattice(profile: EquilibriumProfile, mesh: Mesh1D, params: PhysicalParams,
                  cutoff: float, numerics: NumericsConfig = NumericsConfig(),
                  threads: int = 1) -> GrowthSummary:
    """Scan lattice frequencies 0 < |xi| < cutoff and maximize the rate.

    Every frequency goes through growth_rate, so a point gets lam = 0 only
    when its probe alpha(s_min) is nonnegative; outside the instability
    window that probe is the whole solve.  Points are independent, so the
    solve may run on a thread pool; results are reduced deterministically in
    ascending |xi|^2 order.
    """
    if not math.isfinite(cutoff) or cutoff <= 0:
        raise ValueError("cutoff must be finite and > 0")
    jump = profile.jump
    # a stable orientation has no instability window at all
    xi_c = critical_frequency(profile, params) if jump > 0 else math.nan
    groups = _dedup_lattice(params, cutoff)

    def solve_one(item):
        key, (m, n) = item
        xi_abs = math.sqrt(float(key))
        point = growth_rate(profile, xi_abs, mesh, params, numerics)
        return replace(point, xi=(m / params.L1, n / params.L2))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            curve = list(pool.map(solve_one, groups))
    else:
        curve = [solve_one(item) for item in groups]

    lam_max = 0.0
    argmax = None
    for pt in curve:
        if pt.lam > lam_max:
            lam_max = pt.lam
            argmax = pt.xi
    attained = jump <= 0 or params.sigma_minus > 0
    return GrowthSummary(lam_max, argmax, attained, tuple(curve),
                         critical_tension(profile, params), xi_c)


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


def negativity_probe(profile: EquilibriumProfile, xi_abs: float, s: float,
                     mesh: Mesh1D, params: PhysicalParams,
                     exponent: float = 5.0) -> float:
    """Energy E(.; s) at the interpolated bump candidate with phi = -psi'/|xi|.

    E < 0 certifies alpha(s) < 0 without an eigensolve (the candidate is an
    upper bound for the constrained infimum after J-normalization).  psi' is
    the elementwise derivative of the nodal interpolant, L2-projected back to
    the nodes; the essential value at -b is then enforced.
    """
    if xi_abs <= 0:
        raise ValueError("xi_abs must be > 0")
    if exponent < 5:
        raise ValueError("exponent must be >= 5 for an admissible candidate")
    psi_nodes = psi_bump(mesh.nodes, params.b, params.ell, exponent)
    dpsi_elem = np.diff(psi_nodes) / np.diff(mesh.nodes)

    phi_nodes = project_p1(mesh, np.broadcast_to(-dpsi_elem[:, None] / xi_abs,
                                                 mesh.quad[0].shape), 0, mesh.n_elements)
    phi_nodes[0] = 0.0
    v = np.empty(mesh.ndof)
    v[0::2], v[1::2] = phi_nodes[1:], psi_nodes[1:]
    forms = assemble_forms(mesh, profile, xi_abs, params)
    e_val, _j = evaluate_energy(forms, v, s)
    return e_val


def write_dispersion_csv(curve, path) -> None:
    """Curve CSV: xi1,xi2,xi_abs,lambda,alpha_at_star,iterations,converged."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("xi1,xi2,xi_abs,lambda,alpha_at_star,iterations,converged\n")
        for pt in curve:
            fh.write(f"{pt.xi[0]:.17g},{pt.xi[1]:.17g},{pt.xi_abs:.17g},"
                     f"{pt.lam:.17g},{pt.alpha_at_star:.17g},{pt.iterations},"
                     f"{'true' if pt.converged else 'false'}\n")


def summary_dict(summary: GrowthSummary) -> dict:
    """JSON-ready summary; an infinite cutoff serializes as the string 'inf'
    and a stable orientation (no cutoff at all) as null."""
    if math.isfinite(summary.xi_c):
        xi_c = summary.xi_c
    elif math.isinf(summary.xi_c):
        xi_c = "inf"
    else:
        xi_c = None
    return {
        "Lambda": summary.Lambda,
        "argmax_xi": list(summary.argmax_xi) if summary.argmax_xi else None,
        "attained": summary.attained,
        "sigma_c": summary.sigma_c,
        "xi_c": xi_c,
    }
