"""Poisson-type extensions of periodic surface data, spectral implementation.

A field f on the torus (2 pi L1) x (2 pi L2) expands in modes
e^{i xi.x'} / (2 pi sqrt(L1 L2)) over xi in (1/L1)Z x (1/L2)Z.  Extending
from the level x3 = j downward damps each mode by e^{|xi|(x3 - j)}; that
extension is harmonic and reproduces f exactly on the level.

Upward extension from x3 = 0 uses the specialized sum

    sum_j alpha_j e^{-|xi| lambda_j x3},     0 < lambda_0 < ... < lambda_m,

with alpha solving the Vandermonde system V alpha = (1,...,1)^T,
V_ij = (-lambda_j)^i.  The moment identities sum_j alpha_j (-lambda_j)^l = 1
for 0 <= l <= m make every vertical derivative up to order m match the
downward extension at the interface, so the two-sided interface extension is
C^m across x3 = 0.  The lambda_j are otherwise free; lambda_j = j + 1 is the
documented default.

Grid fields are transformed with the FFT; evaluators return values on the
same horizontal grid at any requested height, with analytic x3-derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IllConditioned


@dataclass(frozen=True)
class PeriodicField:
    """Samples on a uniform N1 x N2 grid over the (2 pi L1) x (2 pi L2) torus."""

    values: np.ndarray
    L1: float
    L2: float

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError("values must be a 2d grid with sizes >= 2")
        if self.L1 <= 0 or self.L2 <= 0:
            raise ValueError("periodicity lengths must be > 0")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def xi_grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xi1, xi2, |xi|) arrays matching the FFT coefficient layout."""
        n1, n2 = self.shape
        m = np.fft.fftfreq(n1, d=1.0 / n1)
        n = np.fft.fftfreq(n2, d=1.0 / n2)
        xi1 = m[:, None] / self.L1
        xi2 = n[None, :] / self.L2
        return xi1, xi2, np.hypot(xi1, xi2)


def vandermonde_coeffs(lambdas) -> np.ndarray:
    """Solve V alpha = (1,...,1)^T with V_ij = (-lambda_j)^i.

    Vandermonde matrices are badly conditioned in floating point, so the
    system is solved in exact rational arithmetic (floats are rationals) and
    only the result is rounded.  The rounded coefficients are then residual-
    checked; clustered lambdas blow up |alpha| and fail the check.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("lambdas must be a nonempty 1d sequence")
    if lam[0] <= 0 or np.any(np.diff(lam) <= 0):
        raise ValueError("lambdas must be strictly increasing and positive")
    m1 = lam.size
    lam_q = [Fraction(x) for x in lam]
    aug = [[(-lam_q[j]) ** i for j in range(m1)] + [Fraction(1)] for i in range(m1)]
    for col in range(m1):
        pivot = max(range(col, m1), key=lambda r: abs(aug[r][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(m1):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col] / aug[col][col]
                aug[row] = [a - factor * b for a, b in zip(aug[row], aug[col])]
    alphas = np.array([float(aug[i][m1] / aug[i][i]) for i in range(m1)])
    # Residual of the rounded coefficients against the exact system; rounding
    # of huge alphas (clustered lambdas) is what shows up here.
    resid = max(abs(sum(Fraction(a) * (-lq) ** i for a, lq in zip(alphas, lam_q)) - 1)
                for i in range(m1))
    if resid > Fraction(1, 10**8):
        raise IllConditioned(f"Vandermonde solve residual {float(resid)} > 1e-8")
    return alphas


@dataclass(frozen=True)
class ExtensionParams:
    """Order-m matching data: nodes lambda_0..lambda_m and coefficients alpha."""

    lambdas: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, float)
        al = np.asarray(self.alphas, float)
        if lam.shape != al.shape:
            raise ValueError("lambdas and alphas must have equal length")
        if lam[0] <= 0 or np.any(np.diff(lam) <= 0):
            raise ValueError("lambdas must be strictly increasing and positive")
        for ell in range(lam.size):
            moment = np.sum(al * (-lam) ** ell)
            if abs(moment - 1.0) > 1e-10:
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
        """lambda_j = j + 1 (an arbitrary documented choice)."""
        return cls.from_lambdas(np.arange(1.0, m + 2.0))


class _SpectralExtension:
    """Shared FFT plumbing: holds coefficients and synthesizes grid values."""

    def __init__(self, field: PeriodicField):
        self.field = field
        self.coeffs = np.fft.fft2(field.values)
        self.xi1, self.xi2, self.xi_abs = field.xi_grids()
        self.real_input = np.isrealobj(field.values)

    def _synthesize(self, multiplier: np.ndarray) -> np.ndarray:
        out = np.fft.ifft2(self.coeffs * multiplier)
        return out.real if self.real_input else out


class DownwardExtension(_SpectralExtension):
    """Harmonic extension below the level x3 = level: modes damp as
    e^{|xi| (x3 - level)}."""

    def __init__(self, field: PeriodicField, level: float):
        super().__init__(field)
        self.level = float(level)

    def evaluate(self, x3: float, deriv: int = 0) -> np.ndarray:
        if x3 > self.level + 1e-12:
            raise ValueError(f"x3 = {x3} above the extension level {self.level}")
        mult = self.xi_abs ** deriv * np.exp(self.xi_abs * (x3 - self.level))
        return self._synthesize(mult)


class UpwardExtension(_SpectralExtension):
    """Specialized extension above x3 = 0 with order-m derivative matching."""

    def __init__(self, field: PeriodicField, params: ExtensionParams):
        super().__init__(field)
        self.params = params

    def evaluate(self, x3: float, deriv: int = 0) -> np.ndarray:
        if x3 < -1e-12:
            raise ValueError(f"x3 = {x3} below the upward extension domain")
        mult = np.zeros_like(self.xi_abs)
        for lam, al in zip(self.params.lambdas, self.params.alphas):
            mult = mult + al * (-lam * self.xi_abs) ** deriv \
                * np.exp(-lam * self.xi_abs * x3)
        return self._synthesize(mult)


class InterfaceExtension:
    """Two-sided extension of interface data: downward harmonic below zero,
    specialized upward sum above; vertical derivatives match through order m."""

    def __init__(self, field: PeriodicField, params: ExtensionParams):
        self.down = DownwardExtension(field, 0.0)
        self.up = UpwardExtension(field, params)
        self.params = params

    def evaluate(self, x3: float, deriv: int = 0) -> np.ndarray:
        if x3 > 0:
            return self.up.evaluate(x3, deriv)
        return self.down.evaluate(x3, deriv)


def write_field_csv(field: PeriodicField, path) -> None:
    """Row-major CSV with a two-line header carrying N1, N2, L1, L2."""
    n1, n2 = field.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N1,N2,L1,L2\n")
        fh.write(f"{n1},{n2},{field.L1:.17g},{field.L2:.17g}\n")
        for i in range(n1):
            fh.write(",".join(f"{field.values[i, j]:.17g}" for j in range(n2)))
            fh.write("\n")


def read_field_csv(path) -> PeriodicField:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["N1", "N2", "L1", "L2"]:
            raise ValueError(f"unexpected field CSV header {header}")
        n1_s, n2_s, l1_s, l2_s = fh.readline().strip().split(",")
        n1, n2 = int(n1_s), int(n2_s)
        rows = [np.fromstring(fh.readline(), sep=",") for _ in range(n1)]
    values = np.vstack(rows)
    if values.shape != (n1, n2):
        raise ValueError(f"field CSV body {values.shape} != header sizes ({n1}, {n2})")
    return PeriodicField(values, float(l1_s), float(l2_s))
