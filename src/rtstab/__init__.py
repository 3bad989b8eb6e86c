"""Linear-stability analyzer for two stacked compressible viscous fluids.

Computes hydrostatic equilibrium profiles, the growth-rate dispersion curve
lambda(|xi|) via a constrained variational eigenvalue problem, the sharp rate
over the frequency lattice, the critical surface tension, and the stability
regime, with a time-evolution oracle checking every rate.

The package imports none of its modules: import the one you use, such as
rtstab.dispersion or rtstab.equilibrium, so that a command loads only what
it runs.
"""

__version__ = "0.1.0"
