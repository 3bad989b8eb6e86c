"""Linear-stability analyzer for two stacked compressible viscous fluids.

Computes hydrostatic equilibrium profiles, the growth-rate dispersion curve
lambda(|xi|) via a constrained variational eigenvalue problem, the sharp rate
over the frequency lattice, the critical surface tension, and the stability
regime, with a time-evolution oracle checking every rate.
"""

from .classify import RegimeLabel, classify_regime, regime_report
from .dispersion import (DispersionPoint, GrowthSummary, critical_frequency,
                         critical_tension, growth_rate, sweep_lattice)
from .equilibrium import (EquilibriumProfile, PhysicalParams, PressureLaw,
                          check_admissibility, solve_equilibrium)
from .evolve import (Trajectory, advance, energy_balance_residual,
                     measure_growth, semidiscretize)
from .modes import (GrowingMode, assemble_mode, export_mode, ode_residual,
                    rotate_mode)
from .poisson_ext import (DownwardExtension, ExtensionParams,
                          InterfaceExtension, PeriodicField, UpwardExtension,
                          vandermonde_coeffs)
from .variational import (FormCoefficients, Mesh1D, QuadraticForms, build_mesh,
                          evaluate_energy, form_coefficients, min_eig)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
