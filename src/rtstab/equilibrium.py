"""Hydrostatic equilibrium of a two-layer barotropic fluid column.

The steady column occupies [-b, 0] (lower fluid, "-") and [0, ell] (upper
fluid, "+").  In each layer the density profile solves

    d(P(rho))/dx3 = -g * rho        <=>      drho/dx3 = -g * rho / P'(rho),

anchored by the atmospheric condition P_plus(rho_plus(ell)) = p_atm at the top
and pressure continuity P_plus(rho_plus(0)) = P_minus(rho_minus(0)) at the
internal interface.  The density itself may jump there; the sign of

    jump = rho_plus(0) - rho_minus(0)

decides between the heavy-above-light (unstable, jump > 0) and stable
orientations.  Everything downstream consumes the profile through rho, its
hydrostatic derivative, and the enthalpy weight h'(rho) = P'(rho)/rho.

Profiles are integrated top-down with classical fixed-step RK4 and stored as
dense samples.  EquilibriumProfile.interp holds a cubic Hermite interpolant
per layer whose node slopes are the exact hydrostatic -g rho_i / P'(rho_i),
so interpolation error stays at the integrator's O(h^4) node error.  A law
is a PolytropicLaw, P = K rho^gamma (isothermal is gamma = 1), or a
TabulatedLaw: the monotone PCHIP cubic through its samples, with scipy's
PchipInterpolator slopes, evaluated by the same Hermite interpolant as the
profile and inverted by bisection, in numpy alone.  Closed-form profiles
(gamma = 1 and 2) serve as test oracles only; the solver path is always the
integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv
from .errors import (DegeneratePressure, InverseFailure, NonPositiveDensity,
                     OutsideTable)

# P'(rho) at or below this value aborts the hydrostatic integration.
PRESSURE_SLOPE_TOL = 1e-12
# check_admissibility bounds: the midpoint hydrostatic residual, and the
# pressure mismatch at the interface and against p_atm at the top.
HYDRO_TOL = 1e-6
MATCH_TOL = 1e-9
# a tabulated law's inverse stops once its bracket is at most
# INVERSE_TOL (1 + |rho|) wide: scipy's brentq at xtol = rtol = 1e-15
INVERSE_TOL = 1e-15


@dataclass(frozen=True)
class PolytropicLaw:
    """P = K rho^gamma with gamma >= 1; isothermal P = K rho is gamma = 1.
    value and derivative are vectorized and map a scalar to a scalar."""

    k: float
    gamma: float

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not 0 < self.k < math.inf:
            raise ValueError(f"pressure coefficient K must be finite and > 0, got {self.k}")
        if not 1 <= self.gamma < math.inf:
            raise ValueError(f"exponent gamma must be finite and >= 1, got {self.gamma}")

    def value(self, rho):
        return self.k * rho ** self.gamma

    def derivative(self, rho):
        return self.k * self.gamma * rho ** (self.gamma - 1.0)

    def inverse(self, p: float) -> float:
        """rho with P(rho) = p."""
        if p <= 0:
            raise InverseFailure(f"pressure-law inverse undefined for p = {p}")
        return (p / self.k) ** (1.0 / self.gamma)


class TabulatedLaw:
    """The monotone PCHIP cubic through strictly increasing (rho, P) samples.

    It is defined on [rho_table[0], rho_table[-1]] only: value and
    derivative raise OutsideTable beyond it instead of extrapolating.  It
    compares by identity.
    """

    def __init__(self, rho, p):
        rho = np.asarray(rho, dtype=float)
        p = np.asarray(p, dtype=float)
        if rho.ndim != 1 or rho.shape != p.shape or rho.size < 4:
            raise ValueError("tabulated law needs matching 1d tables, >= 4 points")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(p))):
            raise ValueError("tabulated law tables must be finite")
        if np.any(np.diff(rho) <= 0) or np.any(np.diff(p) <= 0):
            raise ValueError("tabulated law must be strictly increasing in rho and P")
        if rho[0] <= 0 or p[0] <= 0:
            raise ValueError("tabulated law must have positive rho and P")
        self.rho_table, self.p_table = rho, p
        # strictly increasing data give a monotone PCHIP cubic
        self._interp = _hermite(rho, p, _pchip_slopes(rho, p))

    def value(self, rho):
        return self._interp(self._in_table(rho))

    def derivative(self, rho):
        return self._interp(self._in_table(rho), 1)

    def _in_table(self, rho):
        r = np.asarray(rho, float)
        lo, hi = self.rho_table[0], self.rho_table[-1]
        if np.any((r < lo) | (r > hi)):
            raise OutsideTable(f"density {r.min()} .. {r.max()} outside the "
                               f"pressure table [{lo}, {hi}]")
        return r

    def inverse(self, p: float) -> float:
        """rho with P(rho) = p, to relative tolerance 1e-12: bisection of the
        increasing interpolant to INVERSE_TOL, up to the larger of
        p_table[-1] and its value at rho_table[-1], which the last cubic can
        round above p_table[-1]."""
        lo = float(self.p_table[0])
        hi = max(float(self.p_table[-1]), float(self._interp(self.rho_table[-1])))
        if not (lo <= p <= hi):
            raise InverseFailure(f"pressure {p} outside table range [{lo}, {hi}]")
        a, b = float(self.rho_table[0]), float(self.rho_table[-1])
        while True:
            mid = 0.5 * (a + b)
            if b - a <= INVERSE_TOL * (1.0 + abs(mid)) or mid in (a, b):
                return mid
            value = float(self._interp(mid))
            if value == p:
                return mid
            a, b = (mid, b) if value < p else (a, mid)


# A barotropic law P(rho) with derivative and inverse: smooth, positive and
# strictly increasing on the traversed density range.
PressureLaw = PolytropicLaw | TabulatedLaw


@dataclass(frozen=True)
class PhysicalParams:
    """Geometry, gravity, atmosphere, viscosities and surface tensions."""

    b: float
    ell: float
    L1: float
    L2: float
    g: float
    p_atm: float
    mu_plus: float
    mu_minus: float
    mu_prime_plus: float = 0.0
    mu_prime_minus: float = 0.0
    sigma_plus: float = 0.0
    sigma_minus: float = 0.0

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        for name in ("b", "ell", "L1", "L2", "g", "p_atm", "mu_plus", "mu_minus"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("mu_prime_plus", "mu_prime_minus", "sigma_plus", "sigma_minus"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    def mu(self, layer: str) -> float:
        return self.mu_plus if layer == "plus" else self.mu_minus

    def mu_prime(self, layer: str) -> float:
        return self.mu_prime_plus if layer == "plus" else self.mu_prime_minus


@dataclass(frozen=True, eq=False)
class EquilibriumProfile:
    """Piecewise equilibrium density, a cubic Hermite interpolant per layer.

    rho1 is the density at the top surface, rho_top_interface and
    rho_bot_interface the one-sided values at the internal interface, and
    jump their difference (upper minus lower).  interp maps "plus" and
    "minus" to the layer's interpolant: f(x3) is the density and f(x3, 1)
    its slope.
    """

    law_plus: PressureLaw
    law_minus: PressureLaw
    params: PhysicalParams
    x_plus: np.ndarray
    rho_plus_samples: np.ndarray
    x_minus: np.ndarray
    rho_minus_samples: np.ndarray
    rho1: float
    rho_top_interface: float
    rho_bot_interface: float
    jump: float
    interp: dict = field(repr=False)

    @classmethod
    def from_samples(cls, law_plus, law_minus, params, x_plus, rho_plus,
                     x_minus, rho_minus) -> "EquilibriumProfile":
        x_plus = np.asarray(x_plus, float)
        x_minus = np.asarray(x_minus, float)
        rho_plus = np.asarray(rho_plus, float)
        rho_minus = np.asarray(rho_minus, float)
        # node slopes: the exact hydrostatic -g rho / P'(rho)
        interp = {side: _hermite(x, r, -params.g * r / law.derivative(r))
                  for side, x, r, law in (("plus", x_plus, rho_plus, law_plus),
                                          ("minus", x_minus, rho_minus, law_minus))}
        return cls(law_plus, law_minus, params, x_plus, rho_plus, x_minus,
                   rho_minus, rho1=float(rho_plus[-1]),
                   rho_top_interface=float(rho_plus[0]),
                   rho_bot_interface=float(rho_minus[-1]),
                   jump=float(rho_plus[0]) - float(rho_minus[-1]), interp=interp)

    def law(self, layer: str) -> PressureLaw:
        return self.law_plus if layer == "plus" else self.law_minus

    def rho(self, x3, layer: str):
        """Density at x3 from `layer`'s interpolant ("plus" or "minus"), which
        also picks the side of the jump at the interface."""
        return self.interp[layer](x3)


def _hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray):
    """Piecewise cubic Hermite interpolant through (x_i, y_i) with slopes dy_i:
    f(t) is the value and f(t, 1) the first derivative; on [x_i, x_i+1] it is
    y_i + c1 s + c2 s^2 + c3 s^3 with s = (t - x_i)/h_i, continued past the ends."""
    h, dlt = np.diff(x), np.diff(y)
    c1 = h * dy[:-1]
    c2 = 3.0 * dlt - h * (2.0 * dy[:-1] + dy[1:])
    c3 = h * (dy[:-1] + dy[1:]) - 2.0 * dlt
    inner = x[1:-1]  # searching these gives the interval index, ends included

    def f(t, nu: int = 0):
        t = np.asarray(t, float)
        i = np.searchsorted(inner, t, side="right")
        s = (t - x[i]) / h[i]
        if nu == 0:
            return y[i] + s * (c1[i] + s * (c2[i] + s * c3[i]))
        return (c1[i] + s * (2.0 * c2[i] + 3.0 * s * c3[i])) / h[i]

    return f


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone PCHIP cubic through strictly increasing
    data (Fritsch and Butland, SIAM J. Sci. Stat. Comput. 5, 1984), with the
    operations of scipy's PchipInterpolator: inside, the weighted harmonic
    mean of the two neighbouring secants; at each end, the one-sided
    three-point estimate, or 0 where it is not positive.  scipy's other end
    rule, 3 times the end secant, needs secants of both signs."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.empty(y.size)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]),
                                (-1, h[-1], h[-2], m[-1], m[-2])):
        estimate = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d[end] = estimate if estimate > 0 else 0.0
    return d


def _rk4_down(law: PressureLaw, g: float, rho_start: float, x_start: float,
              x_end: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate drho/dx = -g rho/P'(rho) from x_start down to x_end < x_start.

    Overflow is checked, not warned about: DegeneratePressure names the
    first rho and x3 where P' is at most PRESSURE_SLOPE_TOL, or P or P' is
    not finite."""

    def f(rho):
        try:
            dp = float(law.derivative(rho))
        except OverflowError:  # a float's ** raises where numpy gives inf
            dp = math.inf
        if dp <= PRESSURE_SLOPE_TOL or dp == math.inf:  # nan fails the step
            raise DegeneratePressure(f"P'({rho}) = {dp} is not in "
                                     f"({PRESSURE_SLOPE_TOL}, inf)")
        return -g * rho / dp

    xs = np.linspace(x_start, x_end, n_nodes)
    h = float(xs[1] - xs[0])  # negative
    rhos = np.empty(n_nodes)
    rhos[0] = r = float(rho_start)
    with np.errstate(over="ignore"):
        for i in range(n_nodes - 1):
            try:
                k1 = f(r)
                k2 = f(r + 0.5 * h * k1)
                k3 = f(r + 0.5 * h * k2)
                k4 = f(r + h * k3)
            except DegeneratePressure as exc:
                raise DegeneratePressure(
                    f"{exc} on x3 in [{xs[i + 1]}, {xs[i]}]") from None
            r = r + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if r <= 0 or not math.isfinite(r):
                raise NonPositiveDensity(f"rho = {r} at x3 = {xs[i + 1]}")
            rhos[i + 1] = r
        p, dp = law.value(rhos), law.derivative(rhos)
    bad = np.flatnonzero(~(np.isfinite(p) & np.isfinite(dp)))
    if bad.size:
        i = bad[0]
        raise DegeneratePressure(f"P({rhos[i]}) = {p[i]}, P' = {dp[i]} at "
                                 f"x3 = {xs[i]}: not finite")
    return xs[::-1].copy(), rhos[::-1].copy()


def solve_equilibrium(law_plus: PressureLaw, law_minus: PressureLaw,
                      params: PhysicalParams, n_samples: int = 513) -> EquilibriumProfile:
    """Solve the two-layer hydrostatic ODE system.

    Integrates the upper layer down from rho_plus(ell) = P_plus^{-1}(p_atm),
    matches the pressure at the interface to seed rho_minus(0), then
    integrates the lower layer down to -b.  n_samples is the node count per
    layer for the stored profile.
    """
    if n_samples < 8:
        raise ValueError("n_samples must be >= 8 per layer")
    g = params.g
    rho_top = law_plus.inverse(params.p_atm)
    if rho_top <= 0:
        raise NonPositiveDensity(f"top density {rho_top} <= 0")
    x_p, rho_p = _rk4_down(law_plus, g, rho_top, params.ell, 0.0, n_samples)
    p_interface = float(law_plus.value(rho_p[0]))
    rho_minus_top = law_minus.inverse(p_interface)
    if rho_minus_top <= 0:
        raise NonPositiveDensity(f"lower interface density {rho_minus_top} <= 0")
    x_m, rho_m = _rk4_down(law_minus, g, rho_minus_top, 0.0, -params.b, n_samples)
    return EquilibriumProfile.from_samples(law_plus, law_minus, params,
                                           x_p, rho_p, x_m, rho_m)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Numeric admissibility summary for an equilibrium profile."""

    min_density: float
    argmin_x3: float
    max_hydrostatic_residual: float
    pressure_continuity_residual: float
    top_pressure_residual: float
    min_pressure_slope: float
    passed: bool
    failures: tuple[str, ...]


def check_admissibility(profile: EquilibriumProfile) -> AdmissibilityReport:
    """Check positivity, P' > 0, the hydrostatic residual and pressure matching.

    Density and P' are checked at the nodes and interval midpoints; the
    hydrostatic residual |d(P(rho))/dx3 + g rho| at the midpoints only, where
    the Hermite slope is not the formula itself and its own error vanishes to
    leading order, so the residual measures the O(h^4) integration error.
    """
    p = profile.params
    failures = []
    min_density = math.inf
    argmin = 0.0
    max_resid = 0.0
    min_slope = math.inf
    for layer in ("minus", "plus"):
        nodes = profile.x_plus if layer == "plus" else profile.x_minus
        f = profile.interp[layer]
        m = nodes.size
        xs = np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1])])
        rho = f(xs)
        i = int(np.argmin(rho))
        if rho[i] < min_density:
            min_density, argmin = float(rho[i]), float(xs[i])
        if not rho[i] > 0:
            failures.append("NonPositiveDensity")
            continue
        dp = profile.law(layer).derivative(rho)
        min_slope = min(min_slope, float(np.min(dp)))
        resid = np.abs(dp[m:] * f(xs[m:], 1) + p.g * rho[m:])
        max_resid = max(max_resid, float(np.max(resid)))
    if min_slope <= PRESSURE_SLOPE_TOL:
        failures.append("DegeneratePressure")
    if max_resid > HYDRO_TOL:
        failures.append("HydrostaticResidual")
    # numpy scalars: a Python float to a fractional power is complex when
    # negative, where numpy gives the nan that the density check reports
    plus, minus = profile.rho_plus_samples, profile.rho_minus_samples
    cont = abs(float(profile.law_plus.value(plus[0]))
               - float(profile.law_minus.value(minus[-1])))
    top = abs(float(profile.law_plus.value(plus[-1])) - p.p_atm)
    if cont > MATCH_TOL:
        failures.append("PressureContinuity")
    if top > MATCH_TOL:
        failures.append("TopPressure")
    return AdmissibilityReport(min_density, argmin, max_resid, cont, top,
                               min_slope, not failures, tuple(failures))


def export_profile_csv(profile: EquilibriumProfile, path) -> None:
    """Write the sampled profile as CSV: x3,rho,pressure,h_prime,layer."""
    parts = []
    for layer, xs, rhos in (("minus", profile.x_minus, profile.rho_minus_samples),
                            ("plus", profile.x_plus, profile.rho_plus_samples)):
        law = profile.law(layer)
        parts.append((xs, rhos, law.value(rhos), law.derivative(rhos) / rhos,
                      [layer] * len(xs)))
    write_csv(path, "x3,rho,pressure,h_prime,layer", map(np.concatenate, zip(*parts)))
