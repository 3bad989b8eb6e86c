"""Exception hierarchy for the stability analyzer.

Validation problems (bad configuration, contract violations on exact inputs)
map to CLI exit code 2; numerical failures during a solve map to exit code 3.
"""


class AnalyzerError(Exception):
    """Base class for all analyzer-specific errors."""


class ConfigError(AnalyzerError):
    """Run configuration failed validation."""


class InvalidInput(AnalyzerError):
    """Inputs violate an exact contract (e.g. an unclassifiable regime row)."""


class InverseFailure(AnalyzerError):
    """Pressure-law inverse undefined at the requested pressure."""


class OutsideTable(AnalyzerError):
    """A tabulated pressure law was evaluated outside its density table."""


class NonPositiveDensity(AnalyzerError):
    """Equilibrium integration produced a density <= 0."""


class DegeneratePressure(AnalyzerError):
    """P'(rho) dropped to or below tolerance during a solve."""


class BandOverflow(AnalyzerError):
    """An assembled matrix has entries outside its fixed band storage."""


class SolverDivergence(AnalyzerError):
    """An iterative solver failed to converge within its iteration budget."""


class NoSignChange(AnalyzerError):
    """Growth-rate root solve could not bracket a root: T(S_max) is not
    positive definite."""


class NotUnstableOrientation(AnalyzerError):
    """Operation requires a positive interface density jump."""


class DegenerateMode(AnalyzerError):
    """Minimizer has (numerically) vanishing interface displacement."""


class NotARotation(AnalyzerError):
    """Matrix is not a proper rotation to tolerance."""


class IllConditioned(AnalyzerError):
    """Linear solve residual too large (e.g. clustered Vandermonde nodes)."""


class SingularStep(AnalyzerError):
    """Implicit time-step matrix is singular."""


class ZeroSignal(AnalyzerError):
    """Trajectory signal underflowed; no rate can be fitted."""
