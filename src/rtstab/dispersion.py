"""Growth-rate dispersion curve, lattice sweep, and critical quantities.

At each admissible frequency magnitude the growth rate solves the fixed
point s = sqrt(-alpha(s)), i.e. the unique root of

    f(s) = s^2 + alpha(s)

on (0, S_max].  alpha is continuous and strictly increasing in s, so f is
too.  Every rate obeys lambda <= b g jump / mu_minus, which caps the search
at

    S_max = s_max_factor * b * g * jump / mu_minus.

Since s^2 + alpha(s) is the smallest eigenvalue of the pencil

    T(s) = K0 + s K1 + s^2 M   against M,

T(s) is positive definite exactly when s > lambda: the root is where T stops
being definite, and it needs banded factorizations of T, not eigensolves.
The root solve is a nonlinear Rayleigh-functional iteration (Ruhe, SIAM J.
Numer. Anal. 10, 1973; Schwetlick and Schreiber, Linear Algebra Appl. 436,
2012).  For any v with v^T K0 v < 0 the Rayleigh functional rho(v), the
positive root of the scalar quadratic v^T T(s) v = 0, is at most lambda,
because v^T T(rho) v = 0 makes rho^2 + alpha(rho) <= 0.  Starting from the
stability probe's minimizer, each step sets v <- T(rho)^-1 M v by one band
LU factorization and takes the new rho(v); once rho moves by at most
delta = root_tol S_max, a successful Cholesky factorization of T(rho +
delta) proves lambda < rho + delta, so [rho, rho + delta] encloses the
root.  When that certificate fails, or the iteration cannot proceed, a
bisection on the sign of the Cholesky test of T(s) takes over.

Instability is confined to the frequency window 0 < |xi| < xi_c with
xi_c = sqrt(jump g / sigma_minus) (all frequencies when sigma_minus = 0),
and disappears entirely once sigma_minus reaches the critical tension

    sigma_c = jump * g * max(L1^2, L2^2),

because the smallest nonzero lattice frequency then falls outside the
window.  The sweep enumerates xi in (1/L1)Z x (1/L2)Z and deduplicates by
|xi| (rates depend on the magnitude alone).  Like growth_rate, it takes the
forms' quadratic coefficients in |xi| (variational.form_coefficients) and
reads every physical parameter from their profile.  It is one serial pass
of growth_rate in ascending |xi|^2, which takes the forms at each point
from the coefficients, one band combination each; outside the window that
call ends at its nonnegative alpha probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf

from .config import NumericsConfig
from .equilibrium import EquilibriumProfile, PhysicalParams
from .errors import NoSignChange, NotUnstableOrientation, SolverDivergence
from .variational import (BAND, FormCoefficients, QuadraticForms, band_mv,
                          eig_residual, evaluate_energy, j_normalize, min_eig)


S_MIN_FRAC = 1e-8  # s_min = S_MIN_FRAC * S_max, the stability probe point
MAX_ITER = 200  # bisection steps before SolverDivergence
RF_MAX_ITER = 30  # Rayleigh-functional steps before the bisection takes over


@dataclass(frozen=True)
class DispersionPoint:
    """One lattice frequency with its growth rate and solve metadata.

    lam is the fixed-point rate (0 when no growing mode exists at this
    frequency); alpha_at_star is the Rayleigh quotient of K0 + lam K1 at the
    minimizer, alpha(lam) (for lam = 0 it is the stability probe
    alpha(s_min) >= 0); iterations counts the probe eigensolve and every
    factorization of T(s) (growth_rate); converged says that a growing
    rate's enclosure was certified and, for every point, that the
    minimizer's relative eigen-residual is within eig_tol.  The minimizer
    lists (phi, psi) node by node, (phi_1, psi_1, phi_2, psi_2, ...), in the
    dof order of Mesh1D.dofs.
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


def critical_tension(profile: EquilibriumProfile) -> float:
    """sigma_c = jump * g * max(L1^2, L2^2)."""
    params = profile.params
    return profile.jump * params.g * max(params.L1**2, params.L2**2)


def critical_frequency(profile: EquilibriumProfile) -> float:
    """Frequency cutoff sqrt(jump*g/sigma_minus); +inf when sigma_minus = 0."""
    params = profile.params
    if profile.jump <= 0:
        raise NotUnstableOrientation(f"density jump {profile.jump} <= 0")
    if params.sigma_minus == 0:
        return math.inf
    return math.sqrt(profile.jump * params.g / params.sigma_minus)


def _bisect_root(above, lo: float, hi: float, wtol: float, max_iter: int):
    """Bisection of the bracket [lo, hi] of a root r, where above(s) says
    whether s > r, until it is at most wtol wide.  Returns (midpoint of the
    last bracket, calls of above)."""
    calls = 0
    while hi - lo > wtol:
        if calls == max_iter:
            raise SolverDivergence(f"root solve exceeded {max_iter} iterations")
        s = 0.5 * (lo + hi)
        calls += 1
        if above(s):
            hi = s
        else:
            lo = s
    return 0.5 * (lo + hi), calls


def _bracket(profile: EquilibriumProfile, numerics: NumericsConfig) -> tuple[float, float]:
    """(s_min, S_max): S_max = s_max_factor * b g jump / mu_minus, or
    b g / mu_minus when the orientation is stable, and s_min = S_MIN_FRAC S_max."""
    params = profile.params
    bound = params.b * params.g * max(profile.jump, 0.0) / params.mu_minus
    s_max = numerics.s_max_factor * bound if bound > 0 else params.b * params.g / params.mu_minus
    return S_MIN_FRAC * s_max, s_max


def _pencil(forms: QuadraticForms, s: float) -> np.ndarray:
    """T(s) = K0 + s K1 + s^2 M in the band storage of the forms."""
    return forms.K0 + s * forms.K1 + (s * s) * forms.M


def _definite(forms: QuadraticForms, s: float) -> bool:
    """Whether the banded Cholesky factorization of T(s) succeeds, which
    holds exactly when s > lambda."""
    return dpbtrf(_pencil(forms, s)[:BAND + 1])[1] == 0


def _rayleigh_functional(forms: QuadraticForms, v: np.ndarray) -> float:
    """The positive root of v^T T(s) v = 0, or nan when v^T K0 v >= 0."""
    a, b, c = (float(v @ band_mv(X, v)) for X in (forms.M, forms.K1, forms.K0))
    if not c < 0:
        return math.nan
    return -2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c))  # no cancellation


def _rf_iterate(forms: QuadraticForms, v: np.ndarray, s_min: float,
                s_max: float, delta: float) -> tuple[float, np.ndarray, int]:
    """Rayleigh-functional iteration from v: (rho, v, factorizations), where
    the last step moved rho by at most delta.  rho is nan when an iterate
    leaves [s_min, s_max] (v^T K0 v >= 0 included), T(rho) is exactly
    singular or RF_MAX_ITER steps do not settle."""
    lu = np.zeros((3 * BAND + 1, v.size), order="F")  # BAND rows for the fill
    rho, step, count = _rayleigh_functional(forms, v), math.inf, 0
    while count < RF_MAX_ITER and s_min <= rho <= s_max and abs(rho - step) > delta:
        lu[BAND:] = _pencil(forms, rho)
        factor, piv, info = dgbtrf(lu, BAND, BAND)
        count += 1
        if info != 0:
            return math.nan, v, count
        v = dgbtrs(factor, BAND, BAND, band_mv(forms.M, v), piv)[0]
        v /= np.abs(v).max()
        step, rho = rho, _rayleigh_functional(forms, v)
    settled = s_min <= rho <= s_max and abs(rho - step) <= delta
    return (rho if settled else math.nan), v, count


def _converged(forms: QuadraticForms, s: float, alpha: float, v: np.ndarray,
               numerics: NumericsConfig) -> bool:
    return eig_residual(forms, s, alpha, v) <= numerics.eig_tol


def growth_rate(coeffs: FormCoefficients, xi_abs: float,
                numerics: NumericsConfig = NumericsConfig()) -> DispersionPoint:
    """Solve s^2 + alpha(s) = 0 at one frequency magnitude, on the forms
    coeffs.at(xi_abs) of the mesh and profile coeffs was built from.

    If the probe alpha(s_min) is already nonnegative there is no growing
    mode and lam = 0 is returned with the probe value; a negative probe
    with s_min^2 + alpha(s_min) > 0 raises NoSignChange.  Otherwise the
    certified Rayleigh-functional iteration of the module docstring runs
    from the probe's minimizer, with delta = root_tol S_max.  If the
    certificate fails, v^T K0 v >= 0, an iterate leaves [s_min, S_max] or
    the iteration does not settle, the root comes from the Cholesky-sign
    bisection on [s_min, S_max] (NoSignChange if T(S_max) is not definite)
    and one eigensolve there.  numerics supplies s_max_factor, root_tol
    and eig_tol.  xi_abs must be finite and > 0 (ValueError from coeffs.at).
    """
    forms = coeffs.at(xi_abs)
    s_min, s_max = _bracket(coeffs.profile, numerics)
    alpha0, v0 = min_eig(forms, s_min)
    xi = (float(xi_abs), 0.0)
    if alpha0 >= 0:
        return DispersionPoint(xi, float(xi_abs), 0.0, alpha0, v0, 1,
                               _converged(forms, s_min, alpha0, v0, numerics))
    f_lo = s_min**2 + alpha0
    if f_lo > 0:
        raise NoSignChange(
            f"alpha({s_min}) = {alpha0} < 0 but f(s_min) = {f_lo} > 0 at |xi| = {xi_abs}")
    delta = numerics.root_tol * s_max
    lam, v, count = _rf_iterate(forms, v0, s_min, s_max, delta)
    iters = 1 + count  # the probe and the factorizations of T so far
    if math.isfinite(lam):
        iters += 1
        if _definite(forms, lam + delta):  # lam <= lambda < lam + delta
            v = j_normalize(forms, v)
            e_val, j_val = evaluate_energy(forms, v, lam)
            alpha = e_val / j_val
            return DispersionPoint(xi, float(xi_abs), lam, alpha, v, iters,
                                   _converged(forms, lam, alpha, v, numerics))
    iters += 1  # the Cholesky test of T(S_max)
    if not _definite(forms, s_max):
        raise NoSignChange(
            f"T(S_max) is not definite at |xi| = {xi_abs}; root exceeds the growth bound")
    lam, steps = _bisect_root(lambda s: _definite(forms, s), s_min, s_max, delta,
                              MAX_ITER)
    alpha, v = min_eig(forms, lam)
    return DispersionPoint(xi, float(xi_abs), lam, alpha, v, iters + steps + 1,
                           _converged(forms, lam, alpha, v, numerics))


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


def sweep_lattice(coeffs: FormCoefficients, cutoff: float,
                  numerics: NumericsConfig = NumericsConfig()) -> GrowthSummary:
    """Scan lattice frequencies 0 < |xi| < cutoff and maximize the rate.

    Every frequency goes through growth_rate on coeffs, in ascending |xi|^2,
    so a point gets lam = 0 only when its probe alpha(s_min) is nonnegative;
    outside the instability window that probe is the whole solve.  Each row
    carries its lattice representative as xi.
    """
    if not math.isfinite(cutoff) or cutoff <= 0:
        raise ValueError("cutoff must be finite and > 0")
    profile = coeffs.profile
    params, jump = profile.params, profile.jump
    # a stable orientation has no instability window at all
    xi_c = critical_frequency(profile) if jump > 0 else math.nan
    curve = [replace(growth_rate(coeffs, math.sqrt(float(key)), numerics),
                     xi=(m / params.L1, n / params.L2))
             for key, (m, n) in _dedup_lattice(params, cutoff)]
    lam_max = 0.0
    argmax = None
    for pt in curve:
        if pt.lam > lam_max:
            lam_max = pt.lam
            argmax = pt.xi
    attained = jump <= 0 or params.sigma_minus > 0
    return GrowthSummary(lam_max, argmax, attained, tuple(curve),
                         critical_tension(profile), xi_c)


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
