"""Regime table: all twelve cells and the rejected inputs."""

import pytest

from rtstab.classify import RegimeLabel, classify_regime, regime_report
from rtstab.errors import InvalidInput

TABLE = [
    # (jump, sigma_plus, sigma_minus, sigma_c) -> label
    ((-1.0, 0.0, 0.0, -2.0), RegimeLabel.STABLE_ALMOST_EXPONENTIAL_DECAY),
    ((0.0, 0.0, 0.0, 0.0), RegimeLabel.LOCALLY_WELL_POSED),
    ((1.0, 0.0, 0.0, 2.0), RegimeLabel.NONLINEARLY_UNSTABLE),
    ((-1.0, 1.0, 0.5, -2.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
    ((0.0, 1.0, 0.5, 0.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
    ((1.0, 1.0, 0.5, 2.0), RegimeLabel.NONLINEARLY_UNSTABLE),
    ((-1.0, 1.0, 2.0, -2.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
    ((0.0, 1.0, 2.0, 0.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
    ((1.0, 1.0, 2.0, 2.0), RegimeLabel.LOCALLY_WELL_POSED),
    ((-1.0, 1.0, 3.0, -2.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
    ((0.0, 1.0, 3.0, 0.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
    ((1.0, 1.0, 3.0, 2.0), RegimeLabel.STABLE_EXPONENTIAL_DECAY),
]


@pytest.mark.parametrize("args,expected", TABLE)
def test_table_cells(args, expected):
    assert classify_regime(*args) is expected


def test_sigma_minus_zero_with_positive_sigma_plus():
    # the sigma_+ > 0 rows admit sigma_- = 0 (it is below sigma_c)
    assert classify_regime(1.0, 1.0, 0.0, 2.0) is RegimeLabel.NONLINEARLY_UNSTABLE
    assert classify_regime(-1.0, 1.0, 0.0, -2.0) is RegimeLabel.STABLE_EXPONENTIAL_DECAY


def test_rejected_inputs():
    with pytest.raises(InvalidInput):
        classify_regime(1.0, 0.0, 0.5, 2.0)  # not a table row
    with pytest.raises(InvalidInput):
        classify_regime(1.0, -0.1, 0.0, 2.0)
    with pytest.raises(InvalidInput):
        classify_regime(1.0, 0.1, -0.5, 2.0)


def test_exact_zero_semantics():
    # no tolerance applied here: 1e-300 is a positive jump
    assert classify_regime(1e-300, 0.0, 0.0, 0.0) is RegimeLabel.NONLINEARLY_UNSTABLE


def test_report_shape():
    rep = regime_report(-1.0, 0.0, 0.0, -2.0)
    assert rep["regime"] == "stable_almost_exponential_decay"
    assert rep["decay_claim"] == "almost_exponential"
    rep2 = regime_report(1.0, 1.0, 0.5, 2.0)
    assert rep2["decay_claim"] is None


def test_consistency_with_dispersion(unstable_profile, mesh40):
    # unstable cell <-> positive sharp rate; supercritical cell <-> flat curve
    from tests.conftest import unit_profile
    from rtstab.dispersion import critical_tension, sweep_lattice
    from rtstab.variational import form_coefficients
    sigma_c = critical_tension(unstable_profile)
    label = classify_regime(unstable_profile.jump, 0.0, 0.0, sigma_c)
    assert label is RegimeLabel.NONLINEARLY_UNSTABLE
    summary = sweep_lattice(form_coefficients(mesh40, unstable_profile), cutoff=1.8)
    assert summary.Lambda > 0
    prof = unit_profile(sigma_plus=0.1, sigma_minus=1.2 * sigma_c)
    label2 = classify_regime(prof.jump, prof.params.sigma_plus,
                             prof.params.sigma_minus, sigma_c)
    assert label2 is RegimeLabel.STABLE_EXPONENTIAL_DECAY
    summary2 = sweep_lattice(form_coefficients(mesh40, prof), cutoff=1.8)
    assert summary2.Lambda == 0.0
