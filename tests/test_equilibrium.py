"""Equilibrium solver against closed-form profiles and contract checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtstab.equilibrium import (INVERSE_TOL, EquilibriumProfile, PolytropicLaw,
                                TabulatedLaw, _pchip_slopes, check_admissibility,
                                export_profile_csv, solve_equilibrium)
from rtstab.errors import DegeneratePressure, InverseFailure, OutsideTable
from tests.conftest import unit_params
from tests.oracles import enthalpy_weight, rk4_down_numpy


def test_isothermal_matches_closed_form(unstable_profile):
    # rho_plus = e^{1-x}, rho_minus = (e/2) e^{-x/2}
    xs = np.linspace(0.0, 1.0, 257)
    exact = np.exp(1.0 - xs)
    rel = np.abs(unstable_profile.rho(xs, "plus") - exact) / exact
    assert rel.max() <= 1e-8
    xm = np.linspace(-1.0, 0.0, 257)
    exact_m = 0.5 * np.e * np.exp(-xm / 2.0)
    rel_m = np.abs(unstable_profile.rho(xm, "minus") - exact_m) / exact_m
    assert rel_m.max() <= 1e-8


def test_hermite_profile_matches_closed_form_at_midpoints(unstable_profile):
    # midpoints are where a cubic Hermite interpolant is farthest from its nodes
    for x, f, exact in ((unstable_profile.x_plus, unstable_profile.interp["plus"],
                         lambda t: np.exp(1.0 - t)),
                        (unstable_profile.x_minus, unstable_profile.interp["minus"],
                         lambda t: 0.5 * np.e * np.exp(-t / 2.0))):
        mids = 0.5 * (x[1:] + x[:-1])
        assert np.max(np.abs(f(mids) - exact(mids)) / exact(mids)) <= 1e-12


def test_top_boundary_value_exact(unstable_profile):
    # forced by the atmospheric condition P_plus(rho(ell)) = p_atm
    assert unstable_profile.rho1 == 1.0


def test_interface_values_and_jump(unstable_profile, stable_profile):
    assert unstable_profile.rho_top_interface == pytest.approx(np.e, rel=1e-10)
    assert unstable_profile.rho_bot_interface == pytest.approx(np.e / 2, rel=1e-10)
    assert unstable_profile.jump == pytest.approx(np.e / 2, rel=1e-10)
    swapped = math.exp(0.5) / 2 - math.exp(0.5)
    assert stable_profile.jump == pytest.approx(swapped, rel=1e-10)


def test_identical_laws_zero_jump(params):
    prof = solve_equilibrium(PolytropicLaw(1.5, 1.0),
                             PolytropicLaw(1.5, 1.0), params)
    assert abs(prof.jump) < 1e-13


def test_jump_sign_flips_with_swapped_constants(params):
    for k1, k2 in [(1.0, 2.0), (0.7, 1.9), (3.0, 5.0)]:
        a = solve_equilibrium(PolytropicLaw(k1, 1.0),
                              PolytropicLaw(k2, 1.0), params)
        b = solve_equilibrium(PolytropicLaw(k2, 1.0),
                              PolytropicLaw(k1, 1.0), params)
        assert a.jump > 0 > b.jump


def test_polytropic_gamma2_linear_profile(params):
    # P = K rho^2 gives drho/dx = -g/(2K): an exactly linear layer profile
    k = 1.3
    prof = solve_equilibrium(PolytropicLaw(k, 2.0),
                             PolytropicLaw(k, 2.0), params)
    xs = np.linspace(0.0, 1.0, 33)
    top = math.sqrt(params.p_atm / k)
    exact = top + (1.0 - xs) / (2.0 * k)
    assert np.abs(prof.rho(xs, "plus") - exact).max() < 1e-10


def test_integrator_order_four(params):
    errs = []
    ns = [17, 33, 65, 129]
    for n in ns:
        prof = solve_equilibrium(PolytropicLaw(1.0, 1.0),
                                 PolytropicLaw(2.0, 1.0), params, n)
        exact = np.exp(1.0 - prof.x_plus)
        errs.append(np.abs(prof.rho_plus_samples - exact).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) > 3.7


def test_hydrostatic_residual_refines_at_design_order(params):
    resids = []
    for n in (17, 33, 65):
        prof = solve_equilibrium(PolytropicLaw(1.0, 1.0),
                                 PolytropicLaw(2.0, 1.0), params, n)
        resids.append(check_admissibility(prof).max_hydrostatic_residual)
    orders = [math.log2(resids[i] / resids[i + 1]) for i in range(len(resids) - 1)]
    assert min(orders) > 3.5


def test_enthalpy_weight(unstable_profile):
    # isothermal: h' = K / rho
    assert enthalpy_weight(unstable_profile, 1.0) == pytest.approx(1.0, rel=1e-9)
    assert enthalpy_weight(unstable_profile, 0.0,
                           unstable_profile.law_plus) == pytest.approx(1 / np.e, rel=1e-8)
    assert enthalpy_weight(unstable_profile, 0.0,
                           unstable_profile.law_minus) == pytest.approx(2 / (np.e / 2), rel=1e-8)
    with pytest.raises(ValueError):
        enthalpy_weight(unstable_profile, 1.5)
    with pytest.raises(ValueError):
        enthalpy_weight(unstable_profile, -0.5, unstable_profile.law_plus)


def test_isothermal_is_polytropic_gamma_one():
    law = PolytropicLaw(2.5, 1.0)
    assert law == PolytropicLaw(2.5, 1.0)
    rho = np.linspace(0.1, 7.0, 33)
    for r in (1.3, np.float64(0.7), rho):
        assert np.array_equal(law.value(r), 2.5 * r)
        assert np.array_equal(law.derivative(r), np.full_like(np.asarray(r), 2.5))
    for p in (0.3, 1.0, 4.75):
        assert law.inverse(p) == p / 2.5


@pytest.mark.parametrize("law", [PolytropicLaw(2.0, 1.0),
                                 PolytropicLaw(1.0, 1.4)])
def test_closed_form_law_maps_scalars_to_scalars(law):
    for method in (law.value, law.derivative):
        out = method(1.5)
        assert not isinstance(out, np.ndarray) and np.ndim(out) == 0
        assert method(np.array([1.5, 2.0])).shape == (2,)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_pressure_law_rejects_bad_coefficient(k):
    with pytest.raises(ValueError, match="K must be finite and > 0") as info:
        PolytropicLaw(k, 1.0)
    assert "polytropic" not in str(info.value)
    with pytest.raises(ValueError, match="K must be finite and > 0"):
        PolytropicLaw(k, 1.4)


@pytest.mark.parametrize("gamma", [0.5, math.nan, math.inf])
def test_pressure_law_rejects_bad_exponent(gamma):
    with pytest.raises(ValueError, match="gamma must be finite and >= 1"):
        PolytropicLaw(1.0, gamma)


def test_polytropic_weight_direct():
    law = PolytropicLaw(1.0, 2.0)
    # P' = 2 rho, so h'(2) = P'(2)/2 = 2
    assert float(law.derivative(2.0)) / 2.0 == pytest.approx(2.0)


def test_admissibility_pass(unstable_profile):
    report = check_admissibility(unstable_profile)
    assert report.passed
    assert report.min_density == pytest.approx(1.0, rel=1e-10)
    assert report.argmin_x3 == pytest.approx(1.0)


def test_admissibility_flags_perturbed_sample(unstable_profile, params):
    # a node-only residual would miss this: the Hermite slope there is the
    # formula at the perturbed value, so only the midpoints see the defect
    rho = unstable_profile.rho_plus_samples.copy()
    rho[len(rho) // 2] += 1e-6
    bad = EquilibriumProfile.from_samples(
        unstable_profile.law_plus, unstable_profile.law_minus, params,
        unstable_profile.x_plus, rho,
        unstable_profile.x_minus, unstable_profile.rho_minus_samples)
    report = check_admissibility(bad)
    assert check_admissibility(unstable_profile).max_hydrostatic_residual < 1e-10
    assert not report.passed
    assert report.failures == ("HydrostaticResidual",)


def test_admissibility_flags_negative_density(unstable_profile, params):
    rho = unstable_profile.rho_plus_samples.copy()
    rho[len(rho) // 2] = -0.1
    bad = EquilibriumProfile.from_samples(
        unstable_profile.law_plus, unstable_profile.law_minus, params,
        unstable_profile.x_plus, rho,
        unstable_profile.x_minus, unstable_profile.rho_minus_samples)
    report = check_admissibility(bad)
    assert not report.passed
    assert "NonPositiveDensity" in report.failures


def test_admissibility_flags_negative_interface_density(params):
    # P of a negative density is nan at gamma = 1.4: the pressure checks must
    # leave it to the density check, not fail on it
    prof = solve_equilibrium(PolytropicLaw(1.0, 1.4),
                             PolytropicLaw(2.0, 1.4), params)
    rho = prof.rho_plus_samples.copy()
    rho[0] = -0.1
    with np.errstate(invalid="ignore"):
        bad = EquilibriumProfile.from_samples(
            prof.law_plus, prof.law_minus, params, prof.x_plus, rho,
            prof.x_minus, prof.rho_minus_samples)
        report = check_admissibility(bad)
    assert not report.passed
    assert "NonPositiveDensity" in report.failures


def test_admissibility_flags_pressure_mismatch(unstable_profile, params):
    # bump the lower interface sample so P_minus(rho^-) shifts by exactly 0.1
    rho_m = unstable_profile.rho_minus_samples.copy()
    rho_m[-1] += 0.05  # P_minus = 2 rho
    bad = EquilibriumProfile.from_samples(
        unstable_profile.law_plus, unstable_profile.law_minus, params,
        unstable_profile.x_plus, unstable_profile.rho_plus_samples,
        unstable_profile.x_minus, rho_m)
    report = check_admissibility(bad)
    assert not report.passed
    assert "PressureContinuity" in report.failures
    assert report.pressure_continuity_residual == pytest.approx(0.1, rel=1e-12)


def test_tabulated_law_roundtrip(params):
    rho = np.linspace(0.3, 5.0, 200)
    table = TabulatedLaw(rho, 1.0 * rho)  # isothermal K=1 sampled
    prof = solve_equilibrium(table, PolytropicLaw(2.0, 1.0), params)
    xs = np.linspace(0.0, 1.0, 65)
    rel = np.abs(prof.rho(xs, "plus") - np.exp(1 - xs)) / np.exp(1 - xs)
    assert rel.max() < 1e-6
    for p in (0.5, 1.0, 3.0):
        assert abs(float(table.value(table.inverse(p))) - p) <= 1e-12 * p


def test_tabulated_law_rejects_nonmonotone():
    rho = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        TabulatedLaw(rho, np.array([1.0, 2.0, 1.5, 4.0]))


def test_tabulated_law_accepts_an_end_slope_rounded_below_zero():
    # the last cubic's derivative at rho_table[-1] rounds to about -3e-14
    # instead of its zero end slope; the table is strictly increasing, so
    # the law is accepted and P' there is zero to round-off
    rho = np.array([1.2252379256545407, 1.5359686108064539, 1.6476694027681293,
                    3.3022236786886285])
    p = np.array([0.016468385496857148, 0.12448837538087693, 47.884107620756716,
                  87.86872864066004])
    law = TabulatedLaw(rho, p)
    assert abs(float(law.derivative(rho[-1]))) <= 1e-12


def test_tabulated_inverse_reaches_the_top_of_its_interpolant():
    # value(rho[-1]) rounds 2.8e-14 above p[-1]: the inverse of either
    # pressure is rho[-1]
    rho = np.array([0.11730780875088981, 1.6882639772654038, 3.6219312106973183,
                    3.9234828236666504, 4.299079239204389, 5.041039490288388])
    p = np.array([47.35446385158705, 47.75230928123166, 80.87462367195755,
                  91.69499370172743, 91.73564667540741, 136.8920851514969])
    law = TabulatedLaw(rho, p)
    top = float(law.value(rho[-1]))
    assert top > p[-1]
    for q in (top, p[-1]):
        assert abs(law.inverse(q) - rho[-1]) <= INVERSE_TOL * (1.0 + rho[-1])


def test_inverse_failure_outside_table(params):
    rho = np.linspace(1.0, 2.0, 16)
    law = TabulatedLaw(rho, 0.1 * rho)  # table max pressure 0.2 < p_atm
    with pytest.raises(InverseFailure):
        solve_equilibrium(law, PolytropicLaw(1.0, 1.0), params)


def test_degenerate_pressure_detected():
    # the [2, 3] table segment is flat to 1e-13, so P' collapses below the
    # slope tolerance once the descent (rho grows downward from 1.5) enters it
    rho = np.array([0.5, 1.0, 2.0, 3.0, 3.5])
    p = np.array([0.5, 1.0, 2.0, 2.0 + 1e-13, 2.5])
    law = TabulatedLaw(rho, p)
    prm = unit_params(p_atm=1.5)
    with pytest.raises(DegeneratePressure):
        solve_equilibrium(law, PolytropicLaw(1.0, 1.0), prm)


@pytest.mark.parametrize("gamma", [2.5, 3.0])
@pytest.mark.parametrize("b", [1e300, 1e150])
def test_pressure_overflow_raises(gamma, b):
    # the lower layer's density grows past the range where K rho^gamma (at
    # b = 1e150) or its derivative (at b = 1e300) is finite; no overflow
    # warning escapes (pytest turns warnings into errors)
    law = PolytropicLaw(1.0, gamma)
    with pytest.raises(DegeneratePressure, match=r"^P'?\([\d.]+e\+\d+\) = .* x3 .*-[\d.]+e\+\d+"):
        solve_equilibrium(law, law, unit_params(b=b))


_TABLE = np.linspace(0.5, 3.0, 60)
_RK4_PAIRS = {  # the README pair, gamma = 1.4 (K = 0.5 over 1), the stiff pair
    # and the README pair tabulated
    "readme": (PolytropicLaw(1.0, 1.0), PolytropicLaw(2.0, 1.0), {}),
    "polytropic": (PolytropicLaw(0.5, 1.4), PolytropicLaw(1.0, 1.4), {}),
    "stiff": (PolytropicLaw(400.0, 1.0), PolytropicLaw(800.0, 1.0), {"p_atm": 400.0}),
    "tabulated": (TabulatedLaw(_TABLE, _TABLE),
                  TabulatedLaw(_TABLE, 2.0 * _TABLE), {}),
}


@pytest.mark.parametrize("name", list(_RK4_PAIRS))
def test_rk4_on_floats_matches_numpy_scalars_bitwise(name):
    # the same IEEE operations on Python floats and on numpy scalars, so
    # the samples of both layers agree to the bit
    plus, minus, extra = _RK4_PAIRS[name]
    prm = unit_params(**extra)
    prof = solve_equilibrium(plus, minus, prm, 513)
    for law, rho_start, x_start, x_end, x, rho in (
            (plus, prof.rho1, prm.ell, 0.0, prof.x_plus, prof.rho_plus_samples),
            (minus, prof.rho_bot_interface, 0.0, -prm.b, prof.x_minus,
             prof.rho_minus_samples)):
        ref_x, ref_rho = rk4_down_numpy(law, prm.g, rho_start, x_start, x_end, 513)
        assert np.array_equal(x, ref_x) and np.array_equal(rho, ref_rho)


def test_tabulated_law_does_not_extrapolate(params):
    # isothermal K = 1 tabulated on rho in [0.5, 1.5]: the upper layer's
    # descent from rho = 1 would reach e = 2.72 at the interface
    rho = np.linspace(0.5, 1.5, 16)
    law = TabulatedLaw(rho, rho)
    assert float(law.value(1.5)) == pytest.approx(1.5, rel=1e-12)
    for outside in (0.4, 1.6, np.array([1.0, 2.72])):
        with pytest.raises(OutsideTable):
            law.value(outside)
        with pytest.raises(OutsideTable):
            law.derivative(outside)
    with pytest.raises(OutsideTable):
        solve_equilibrium(law, PolytropicLaw(2.0, 1.0), params)


@st.composite
def monotone_tables(draw):
    """(rho, P) tables of 4 to 24 strictly increasing samples whose steps
    span 1.5 decades in rho and 4 in P, so the end secants range from far
    flatter to far steeper than their neighbours."""
    n = draw(st.integers(4, 24))
    steps = (draw(st.lists(st.floats(lo, hi), min_size=n - 1, max_size=n - 1))
             for lo, hi in ((-1.0, 0.5), (-2.0, 2.0)))
    return tuple(draw(st.floats(0.1, 2.0)) + np.concatenate([[0.0], np.cumsum(10.0 ** np.array(d))])
                 for d in steps)


# (rho, P) with flat end secants next to steep ones, where the three-point
# end estimate is negative and PCHIP takes 0, and the reverse, where it
# keeps the estimate
FLAT_ENDS = (np.arange(6.0) + 1.0, np.cumsum([1.0, 1e-2, 1e2, 1.0, 1e2, 1e-2]))
STEEP_ENDS = (np.arange(5.0) + 1.0, np.cumsum([1.0, 1e2, 1.0, 1.0, 1e2]))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@example(table=FLAT_ENDS)
@example(table=STEEP_ENDS)
@given(table=monotone_tables())
def test_tabulated_law_is_scipys_pchip(table):
    # the node slopes are scipy's PchipInterpolator's to the bit (c[2] holds
    # them on every interval but the last); values and slopes between the
    # nodes agree to round-off: at most 1.1e-15 and 1.6e-15 measured
    from scipy.interpolate import PchipInterpolator
    rho, p = table
    law, ref = TabulatedLaw(rho, p), PchipInterpolator(rho, p)
    assert np.array_equal(_pchip_slopes(rho, p)[:-1], ref.c[2])
    t = np.concatenate([rho, np.linspace(rho[0], rho[-1], 301)])
    assert np.max(np.abs(law.value(t) - ref(t)) / ref(t)) <= 2.5e-15
    slope = ref.derivative()(t)
    assert np.max(np.abs(law.derivative(t) - slope)) <= 3.5e-15 * np.abs(slope).max()


def test_pchip_end_rules():
    # a negative three-point estimate gives slope 0 at that end, a positive
    # one is kept, as in scipy
    for (rho, p), ends in ((FLAT_ENDS, (0.0, 0.0)), (STEEP_ENDS, (149.5, 149.5))):
        d = _pchip_slopes(rho, p)
        assert (d[0], d[-1]) == pytest.approx(ends, rel=1e-15, abs=0.0)
        assert np.all(d[1:-1] > 0)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@example(table=FLAT_ENDS)
@given(table=monotone_tables())
def test_tabulated_inverse_round_trips(table):
    # the bisection's own tolerance plus the shift of rho that rounding p
    # makes; the worst measured error was 0.44 of this bound
    law = TabulatedLaw(*table)
    for r in np.linspace(table[0][0], table[0][-1], 41)[1:-1]:
        p, slope = float(law.value(r)), float(law.derivative(r))
        bound = INVERSE_TOL * (1.0 + r) + 2.0 * np.finfo(float).eps * p / slope
        assert abs(law.inverse(p) - r) <= bound


def test_profile_csv_export(tmp_path, unstable_profile):
    path = tmp_path / "profile.csv"
    export_profile_csv(unstable_profile, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x3,rho,pressure,h_prime,layer"
    assert lines[1].endswith(",minus") and lines[-1].endswith(",plus")
    # re-read the numeric columns and spot-check hydrostatic consistency
    x3, rho = [], []
    for ln in lines[1:]:
        c = ln.split(",")
        x3.append(float(c[0]))
        rho.append(float(c[1]))
    assert len(x3) == 2 * unstable_profile.x_plus.size


def test_validation_of_params():
    with pytest.raises(ValueError):
        unit_params(mu_plus=-1.0)
    with pytest.raises(ValueError):
        unit_params(b=0.0)
    with pytest.raises(ValueError):
        unit_params(sigma_minus=-0.1)
