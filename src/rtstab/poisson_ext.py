"""Poisson-type extensions of periodic surface data, spectral implementation.

A field f on the torus (2 pi L1) x (2 pi L2) expands in modes
e^{i xi.x'} / (2 pi sqrt(L1 L2)) over xi in (1/L1)Z x (1/L2)Z.  Extending
from the level x3 = j downward damps each mode by e^{|xi|(x3 - j)}; that
extension is harmonic and reproduces f exactly on the level.

Upward extension from x3 = 0 uses the specialized sum

    sum_j alpha_j e^{-|xi| lambda_j x3},     0 < lambda_0 < ... < lambda_m,

with alpha solving the Vandermonde system V alpha = (1,...,1)^T,
V_ij = (-lambda_j)^i, in closed form (a Lagrange basis at the nodes
-lambda_j).  The moment identities sum_j alpha_j (-lambda_j)^l = 1
for 0 <= l <= m make every vertical derivative up to order m match the
downward extension at the interface, so the two-sided interface extension is
C^m across x3 = 0.  The lambda_j are otherwise free; lambda_j = j + 1 is the
documented default, for orders m = 0 to 12.

A grid field is transformed once: PeriodicField.spectrum caches its FFT
coefficients and |xi|, and every evaluator, both halves of an interface
extension included, synthesizes from that one spectrum the values on the same
horizontal grid at any requested height, with analytic x3-derivatives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .artifacts import write_csv
from .errors import IllConditioned


@dataclass(frozen=True, eq=False)
class PeriodicField:
    """Samples on a uniform N1 x N2 grid over the (2 pi L1) x (2 pi L2) torus."""

    values: np.ndarray
    L1: float
    L2: float

    def __post_init__(self):
        v = np.array(self.values)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError("values must be a 2d grid with sizes >= 2")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must all be finite numbers")
        if not (0 < self.L1 < np.inf and 0 < self.L2 < np.inf):
            raise ValueError(f"periodicity lengths must be finite and > 0, "
                             f"got L1 = {self.L1}, L2 = {self.L2}")
        v.flags.writeable = False  # a private read-only copy: spectrum stays valid
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(fft2 coefficients, |xi|), both in the FFT coefficient layout."""
        n1, n2 = self.shape
        xi1 = np.fft.fftfreq(n1, d=1.0 / n1)[:, None] / self.L1
        xi2 = np.fft.fftfreq(n2, d=1.0 / n2)[None, :] / self.L2
        return np.fft.fft2(self.values), np.hypot(xi1, xi2)

    def synthesize(self, multiplier: np.ndarray) -> np.ndarray:
        """Grid values of the spectrum times multiplier; real for real input."""
        out = np.fft.ifft2(self.spectrum[0] * multiplier)
        return out.real if np.isrealobj(self.values) else out


def _check_nodes(lam: np.ndarray) -> None:
    """Refuse nodes that are not finite, positive and strictly increasing.
    Finiteness is tested first and the comparisons fail on NaN, so bad nodes
    raise before any arithmetic on them."""
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("lambdas must be a nonempty 1d sequence")
    if not (np.all(np.isfinite(lam)) and lam[0] > 0 and np.all(np.diff(lam) > 0)):
        raise ValueError(f"lambdas must be finite, positive and strictly "
                         f"increasing, got {lam}")


def vandermonde_coeffs(lambdas) -> np.ndarray:
    """Solve V alpha = (1,...,1)^T with V_ij = (-lambda_j)^i.

    The system says sum_j alpha_j p(-lambda_j) = p(1) for every polynomial p
    of degree <= m, so alpha_j is the Lagrange basis polynomial at the nodes
    -lambda_j evaluated at 1: prod_{k != j} (1 + lambda_k)/(lambda_k - lambda_j).
    Vandermonde systems are badly conditioned in floating point, so the
    product is formed in exact rational arithmetic (floats are rationals) and
    only the result is rounded.  The rounded coefficients are then residual-
    checked; clustered lambdas blow up |alpha| and fail the check.
    """
    lam = np.asarray(lambdas, dtype=float)
    _check_nodes(lam)
    lam_q = [Fraction(x) for x in lam]
    alphas = np.array([float(math.prod((1 + lk) / (lk - lj)
                                       for k, lk in enumerate(lam_q) if k != j))
                       for j, lj in enumerate(lam_q)])
    # Residual of the rounded coefficients against the exact system; rounding
    # of huge alphas (clustered lambdas) is what shows up here.
    resid = max(abs(sum(Fraction(a) * (-lq) ** i for a, lq in zip(alphas, lam_q)) - 1)
                for i in range(lam.size))
    if resid > Fraction(1, 10**8):
        raise IllConditioned(f"Vandermonde solve residual {float(resid)} > 1e-8")
    return alphas


@dataclass(frozen=True, eq=False)
class ExtensionParams:
    """Order-m matching data: nodes lambda_0..lambda_m and coefficients alpha."""

    lambdas: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, float)
        al = np.asarray(self.alphas, float)
        if lam.shape != al.shape:
            raise ValueError("lambdas and alphas must have equal length")
        _check_nodes(lam)
        if not np.all(np.isfinite(al)):
            raise ValueError(f"alphas must be finite, got {al}")
        for ell in range(lam.size):
            moment = np.sum(al * (-lam) ** ell)
            if not abs(moment - 1.0) <= 1e-10:
                raise ValueError(f"moment condition l={ell} violated: {moment}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "alphas", al)

    @property
    def m(self) -> int:
        return self.lambdas.size - 1

    @classmethod
    def from_lambdas(cls, lambdas) -> "ExtensionParams":
        return cls(np.asarray(lambdas, float), vandermonde_coeffs(lambdas))

    @classmethod
    def default(cls, m: int) -> "ExtensionParams":
        """lambda_j = j + 1 (an arbitrary documented choice), for orders 0 to
        12: from order 13 on, their rounded alphas fail the moment check."""
        if not 0 <= m <= 12:
            raise ValueError(f"the default nodes support orders 0 to 12, got {m}")
        return cls.from_lambdas(np.arange(1.0, m + 2.0))


def _check_deriv(deriv) -> None:
    """ValueError unless deriv, the order of the x3-derivative, is an
    integer >= 0 (a bool is refused, not read as 0 or 1)."""
    if isinstance(deriv, bool) or not isinstance(deriv, numbers.Integral) or deriv < 0:
        raise ValueError(f"deriv must be an integer >= 0, got {deriv!r}")


class DownwardExtension:
    """Harmonic extension below the level x3 = level: modes damp as
    e^{|xi| (x3 - level)}."""

    def __init__(self, field: PeriodicField, level: float):
        self.field = field
        self.level = float(level)
        if not -np.inf < self.level < np.inf:
            raise ValueError(f"extension level must be finite, got {level}")

    def evaluate(self, x3: float, deriv: int = 0) -> np.ndarray:
        _check_deriv(deriv)
        if not -np.inf < x3 <= self.level + 1e-12:
            raise ValueError(f"x3 = {x3} is not a finite height at or below the "
                             f"extension level {self.level}")
        xi_abs = self.field.spectrum[1]
        return self.field.synthesize(xi_abs ** deriv * np.exp(xi_abs * (x3 - self.level)))


class UpwardExtension:
    """Specialized extension above x3 = 0 with order-m derivative matching."""

    def __init__(self, field: PeriodicField, params: ExtensionParams):
        self.field = field
        self.params = params

    def evaluate(self, x3: float, deriv: int = 0) -> np.ndarray:
        _check_deriv(deriv)
        if not -1e-12 <= x3 < np.inf:
            raise ValueError(f"x3 = {x3} is not a finite height in the upward "
                             f"extension domain x3 >= 0")
        xi_abs = self.field.spectrum[1]
        mult = np.zeros_like(xi_abs)
        for lam, al in zip(self.params.lambdas, self.params.alphas):
            mult = mult + al * (-lam * xi_abs) ** deriv * np.exp(-lam * xi_abs * x3)
        return self.field.synthesize(mult)


class InterfaceExtension:
    """Two-sided extension of interface data: downward harmonic below zero,
    specialized upward sum above; vertical derivatives match through order m.
    Both halves synthesize from the field's one spectrum."""

    def __init__(self, field: PeriodicField, params: ExtensionParams):
        self.down = DownwardExtension(field, 0.0)
        self.up = UpwardExtension(field, params)

    def evaluate(self, x3: float, deriv: int = 0) -> np.ndarray:
        if x3 > 0:
            return self.up.evaluate(x3, deriv)
        return self.down.evaluate(x3, deriv)


def write_field_csv(field: PeriodicField, path) -> None:
    """Row-major CSV with a two-line header carrying N1, N2, L1, L2.  The
    format holds real values, so a complex grid raises ValueError."""
    if np.iscomplexobj(field.values):
        raise ValueError("the field CSV format holds real values; got a complex grid")
    n1, n2 = field.shape
    write_csv(path, f"N1,N2,L1,L2\n{n1},{n2},{field.L1:.17g},{field.L2:.17g}",
              field.values.T)


def read_field_csv(path) -> PeriodicField:
    """Read the format of write_field_csv.  A malformed file raises ValueError
    naming the file, the line and what that line should hold."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]

    def bad(lineno: int, what: str) -> ValueError:
        got = repr(lines[lineno - 1]) if lineno <= len(lines) else "end of file"
        return ValueError(f"{path}, line {lineno}: expected {what}, got {got}")

    if lines[:1] != ["N1,N2,L1,L2"]:
        raise bad(1, "the header N1,N2,L1,L2")
    try:
        n1_s, n2_s, l1_s, l2_s = lines[1].split(",")
        n1, n2, L1, L2 = int(n1_s), int(n2_s), float(l1_s), float(l2_s)
        if n1 < 2 or n2 < 2:
            raise ValueError
    except (IndexError, ValueError):
        raise bad(2, "integers N1, N2 >= 2 and numbers L1, L2") from None
    rows = []
    for lineno in range(3, 3 + n1):
        try:
            rows.append([float(cell) for cell in lines[lineno - 1].split(",")])
            if len(rows[-1]) != n2 or not all(map(math.isfinite, rows[-1])):
                raise ValueError
        except (IndexError, ValueError):
            raise bad(lineno, f"grid row {lineno - 2} of {n1}: "
                              f"{n2} comma-separated finite numbers") from None
    for lineno in range(3 + n1, len(lines) + 1):
        if lines[lineno - 1]:
            raise bad(lineno, f"the end of the file after {n1} grid rows")
    return PeriodicField(np.array(rows), L1, L2)
