"""Shared scenarios: the unit-box isothermal pair in both orientations."""

import pytest

from rtstab.equilibrium import PhysicalParams, PolytropicLaw, solve_equilibrium
from rtstab.variational import build_mesh


def unit_params(**overrides) -> PhysicalParams:
    base = dict(b=1.0, ell=1.0, L1=1.0, L2=1.0, g=1.0, p_atm=1.0,
                mu_plus=1.0, mu_minus=1.0, mu_prime_plus=0.0,
                mu_prime_minus=0.0, sigma_plus=0.0, sigma_minus=0.0)
    base.update(overrides)
    return PhysicalParams(**base)


def unit_profile(**overrides):
    """The unstable isothermal pair, k_plus = 1 over k_minus = 2 (heavy above
    light along the interface, jump > 0; e/2 at unit g), solved at
    unit_params(**overrides)."""
    return solve_equilibrium(PolytropicLaw(1.0, 1.0),
                             PolytropicLaw(2.0, 1.0), unit_params(**overrides))


@pytest.fixture(scope="session")
def params():
    return unit_params()


@pytest.fixture(scope="session")
def unstable_profile():
    return unit_profile()


@pytest.fixture(scope="session")
def stable_profile(params):
    return solve_equilibrium(PolytropicLaw(2.0, 1.0),
                             PolytropicLaw(1.0, 1.0), params)


@pytest.fixture(scope="session")
def mesh40():
    return build_mesh(1.0, 1.0, 40, 40)


@pytest.fixture(scope="session")
def mesh100():
    return build_mesh(1.0, 1.0, 100, 100)
