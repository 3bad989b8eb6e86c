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
because v^T T(rho) v = 0 makes rho^2 + alpha(rho) <= 0.  From any start
vector (the stability probe's minimizer, or a neighbouring root's vector),
each step sets v <- T(rho)^-1 M v by one band LU factorization and takes
the new rho(v); once rho moves by at most delta = root_tol S_max, a
successful Cholesky factorization of T(rho + delta) proves lambda < rho +
delta, so [rho, rho + delta] encloses the root; when it fails, a successful
one of T(rho + 2 delta) encloses it in [rho + delta, rho + 2 delta).  When
both fail, or the iteration cannot proceed, a bisection on the sign of the
Cholesky test of T(s) takes over.

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
from the coefficients, one band combination each.  One Cholesky test of
T(s_min) decides every row.  When it fails (growth), the row's start vector
starts the Rayleigh-functional iteration; when it succeeds (lambda <
s_min), the probe alpha(s_min) is min_eig's started round from the start
and that factor, and is_min_eigenpair tests it like every other pair.
Every row after the first starts from its predecessor's vector, its phi
dofs scaled by |xi_prev| / |xi| to keep the divergence (rho psi)' + rho xi
phi, so a chain of growing or decaying frequencies takes one cold
eigensolve, at its first row.  A start the iteration or the test rejects
takes the cold probe, whose cost is counted on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import write_csv
from .config import NumericsConfig
from .equilibrium import EquilibriumProfile, PhysicalParams
from .errors import NoSignChange, NotUnstableOrientation
from .variational import (FACTORIZATIONS, FormCoefficients, QuadraticForms,
                          _shifted_iterate, band_mv, bisect_root, cholesky,
                          evaluate_energy, is_min_eigenpair, j_normalize, min_eig)


S_MIN_FRAC = 1e-8  # s_min = S_MIN_FRAC * S_max, the stability probe point
RF_MAX_ITER = 30  # Rayleigh-functional steps before the bisection takes over


@dataclass(frozen=True, eq=False)
class DispersionPoint:
    """One lattice frequency with its growth rate and solve metadata.

    lam is the fixed-point rate (0 when T(s_min) is positive definite, so
    that no growing mode exists at this frequency); alpha_at_star is the
    Rayleigh quotient of K0 + lam K1 at the minimizer, alpha(lam) (for lam =
    0 it is the stability probe alpha(s_min) > -s_min^2); iterations counts
    every band factorization made for the row, the certificates behind
    converged included; converged says that a growing rate's enclosure was
    certified and, for every point, that the minimizer's relative
    eigen-residual is within eig_tol and that a Cholesky factorization
    certifies alpha_at_star as the smallest eigenvalue to
    QuadraticForms.certificate_eps.  The minimizer lists (phi, psi) node by
    node, (phi_1, psi_1, phi_2, psi_2, ...), in the dof order of Mesh1D.dofs.
    """

    xi: tuple[float, float]
    xi_abs: float
    lam: float
    alpha_at_star: float
    minimizer: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
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
    return cholesky(_pencil(forms, s)) is not None


def _rayleigh_functional(forms: QuadraticForms, v: np.ndarray) -> float:
    """The positive root of v^T T(s) v = 0, or nan when v^T K0 v >= 0."""
    a, b, c = (float(v @ band_mv(X, v)) for X in (forms.M, forms.K1, forms.K0))
    if not c < 0:
        return math.nan
    return -2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c))  # no cancellation


def _rf_iterate(forms: QuadraticForms, v: np.ndarray, s_min: float,
                s_max: float, delta: float) -> tuple[float, np.ndarray]:
    """Rayleigh-functional iteration from v on T(rho) (_shifted_iterate) in
    [s_min, s_max], to a step of at most delta and RF_MAX_ITER steps."""
    return _shifted_iterate(lambda rho: _pencil(forms, rho),
                            lambda u: _rayleigh_functional(forms, u), v, forms.M,
                            delta, RF_MAX_ITER, s_min, s_max)


def _certified_root(forms: QuadraticForms, v: np.ndarray, s_min: float,
                    s_max: float, delta: float) -> tuple[float, np.ndarray]:
    """_rf_iterate from v to rho, then the certificate: (lam, v) with lam = rho
    if the Cholesky test of T(rho + delta) succeeds, else rho + delta if that
    of T(rho + 2 delta) does, else nan; either proves lam <= lambda < lam + delta."""
    lam, v = _rf_iterate(forms, v, s_min, s_max, delta)
    if math.isfinite(lam) and not _definite(forms, lam + delta):
        lam = lam + delta if _definite(forms, lam + 2 * delta) else math.nan
    return lam, v


def growth_rate(coeffs: FormCoefficients, xi_abs: float,
                numerics: NumericsConfig = NumericsConfig(),
                start: np.ndarray | None = None) -> DispersionPoint:
    """Solve s^2 + alpha(s) = 0 at one frequency magnitude, on the forms
    coeffs.at(xi_abs) of the mesh and profile coeffs was built from.

    One Cholesky factorization of T(s_min) decides the row before any
    eigensolve.  When it succeeds (lambda < s_min), lam = 0 is returned with
    the probe alpha(s_min): min_eig's started round from start and that
    factor, or, without a start or when is_min_eigenpair refuses the
    started pair, the cold min_eig; converged is is_min_eigenpair of the
    pair returned.  When it fails, the certified Rayleigh-functional
    iteration of the module docstring runs from start, with delta =
    root_tol S_max, and, without a start or when that is rejected, from the
    probe's minimizer.  If the certificate fails, v^T K0 v >= 0, an iterate
    leaves [s_min, S_max] or the iteration does not settle, the root comes
    from the Cholesky-sign bisection on [s_min, S_max] (NoSignChange if
    T(S_max) is not definite) and one eigensolve there.  The point's
    iterations is the rise of variational.FACTORIZATIONS during the call,
    the started round's factorizations included.  numerics supplies
    s_max_factor, root_tol and eig_tol.  xi_abs must be finite and > 0
    (ValueError from coeffs.at).
    """
    forms = coeffs.at(xi_abs)
    s_min, s_max = _bracket(coeffs.profile, numerics)
    delta, eig_tol = numerics.root_tol * s_max, numerics.eig_tol
    first = FACTORIZATIONS[0]

    def point(rate, alpha, v, converged):
        # converged is evaluated first, so its certificate is counted too
        return DispersionPoint((float(xi_abs), 0.0), float(xi_abs), rate, alpha, v,
                               FACTORIZATIONS[0] - first, converged)

    solve = cholesky(_pencil(forms, s_min))
    if solve is not None:  # lambda < s_min: the row decays
        if start is not None:
            alpha, v = min_eig(forms, s_min, (start, solve))
            if is_min_eigenpair(forms, s_min, alpha, v, eig_tol):
                return point(0.0, alpha, v, True)
        alpha, v = min_eig(forms, s_min)
        return point(0.0, alpha, v, is_min_eigenpair(forms, s_min, alpha, v, eig_tol))
    lam = math.nan  # s_min < lambda: a growing frequency
    if start is not None:
        lam, v = _certified_root(forms, start, s_min, s_max, delta)
    if not math.isfinite(lam):
        lam, v = _certified_root(forms, min_eig(forms, s_min)[1], s_min, s_max, delta)
    if math.isfinite(lam):
        v = j_normalize(forms, v)
        e_val, j_val = evaluate_energy(forms, v, lam)
        alpha = e_val / j_val
        return point(lam, alpha, v, is_min_eigenpair(forms, lam, alpha, v, eig_tol))
    if not _definite(forms, s_max):
        raise NoSignChange(
            f"T(S_max) is not definite at |xi| = {xi_abs}; root exceeds the growth bound")
    lam = bisect_root(lambda s: _definite(forms, s), s_min, s_max, delta)[0]
    alpha, v = min_eig(forms, lam)
    return point(lam, alpha, v, is_min_eigenpair(forms, lam, alpha, v, eig_tol))


def _dedup_lattice(params: PhysicalParams, limit: float):
    """Nonzero lattice points below `limit`, grouped by exact |xi|^2.

    With the float inputs as exact rationals L1 = a1/b1 and L2 = a2/b2,
    |xi|^2 = (m/L1)^2 + (n/L2)^2 is the integer m^2 b1^2 a2^2 + n^2 b2^2 a1^2
    over (a1 a2)^2, so lattice images of equal magnitude collapse to a single
    representative: the largest (m, n) with m, n >= 0.  Sign flips do not
    change |xi|, so only that quadrant is walked.  Each kept |xi|^2 is
    returned as the float nearest that ratio.
    """
    (a1, b1), (a2, b2) = (float(L).as_integer_ratio() for L in (params.L1, params.L2))
    wm, wn, den = (b1 * a2) ** 2, (b2 * a1) ** 2, (a1 * a2) ** 2
    m_max = int(math.floor(limit * params.L1)) + 1
    n_max = int(math.floor(limit * params.L2)) + 1
    groups: dict[int, tuple[int, int]] = {}
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            # (m, n) ascends: the last seen is the largest
            groups[m * m * wm + n * n * wn] = (m, n)
    # int / int is correctly rounded
    return [(key / den, groups[key]) for key in sorted(groups)
            if key and key / den < limit * limit]


def sweep_lattice(coeffs: FormCoefficients, cutoff: float,
                  numerics: NumericsConfig = NumericsConfig()) -> GrowthSummary:
    """Scan lattice frequencies 0 < |xi| < cutoff and maximize the rate.

    Every frequency goes through growth_rate on coeffs, in ascending |xi|^2,
    with the previous row's minimizer, its phi dofs scaled by |xi_prev| /
    |xi|, as start (None for the first row), so a point gets lam = 0 exactly
    when T(s_min) is positive definite; outside the instability window
    min_eig's started round is the whole solve.  Each row carries its lattice
    representative as xi.
    """
    if not math.isfinite(cutoff) or cutoff <= 0:
        raise ValueError("cutoff must be finite and > 0")
    profile = coeffs.profile
    params, jump = profile.params, profile.jump
    # a stable orientation has no instability window at all
    xi_c = critical_frequency(profile) if jump > 0 else math.nan
    curve, start = [], None
    for key, (m, n) in _dedup_lattice(params, cutoff):
        xi_abs = math.sqrt(key)
        if curve:  # phi scaled by |xi_prev| / |xi| keeps (rho psi)' + rho xi phi
            start = curve[-1].minimizer.copy()
            start[0::2] *= curve[-1].xi_abs / xi_abs
        pt = growth_rate(coeffs, xi_abs, numerics, start)
        curve.append(replace(pt, xi=(m / params.L1, n / params.L2)))
    lam_max = 0.0
    argmax = None
    for pt in curve:
        if pt.lam > lam_max:
            lam_max = pt.lam
            argmax = pt.xi
    attained = jump <= 0 or params.sigma_minus > 0
    return GrowthSummary(lam_max, argmax, attained, tuple(curve),
                         critical_tension(profile), xi_c)


def write_dispersion_csv(curve, path) -> None:
    """Curve CSV: xi1,xi2,xi_abs,lambda,alpha_at_star,iterations,converged."""
    write_csv(path, "xi1,xi2,xi_abs,lambda,alpha_at_star,iterations,converged",
              zip(*[(*pt.xi, pt.xi_abs, pt.lam, pt.alpha_at_star, pt.iterations,
                     pt.converged) for pt in curve]))


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
