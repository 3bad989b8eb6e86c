"""Vandermonde coefficients and spectral extensions of periodic data."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rtstab.errors import IllConditioned
from rtstab.poisson_ext import (DownwardExtension, ExtensionParams,
                                InterfaceExtension, PeriodicField,
                                UpwardExtension, read_field_csv,
                                vandermonde_coeffs, write_field_csv)


def band_limited(seed=1, n1=16, n2=16, L1=1.0, L2=2.0):
    rng = np.random.default_rng(seed)
    return PeriodicField(rng.standard_normal((n1, n2)), L1, L2)


def test_vandermonde_hand_examples():
    assert np.allclose(vandermonde_coeffs([1.0, 2.0]), [3.0, -2.0], atol=1e-14)
    assert np.allclose(vandermonde_coeffs([2.5]), [1.0])
    a = vandermonde_coeffs([1.0, 2.0, 3.0])
    lam = np.array([1.0, 2.0, 3.0])
    for ell in range(3):
        assert np.sum(a * (-lam) ** ell) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(13))
def test_moment_identities_default_lambdas(m):
    p = ExtensionParams.default(m)
    assert np.allclose(p.lambdas, np.arange(1.0, m + 2.0))
    for ell in range(m + 1):
        assert np.sum(p.alphas * (-p.lambdas) ** ell) == \
            pytest.approx(1.0, abs=1e-10)


def test_default_nodes_order_range():
    for m in (-1, 13, 10**6):
        with pytest.raises(ValueError, match="orders 0 to 12"):
            ExtensionParams.default(m)
    # the cap is the float moment check's own verdict on these nodes
    for m in (13, 14):
        lam = np.arange(1.0, m + 2.0)
        with pytest.raises(ValueError, match="moment condition"):
            ExtensionParams(lam, vandermonde_coeffs(lam))


def test_ill_conditioned_cluster():
    with pytest.raises(IllConditioned):
        vandermonde_coeffs([1.0, 1.0 + 1e-15, 1.0 + 2e-15])


def test_lambda_ordering_enforced():
    with pytest.raises(ValueError):
        vandermonde_coeffs([2.0, 1.0])
    with pytest.raises(ValueError):
        vandermonde_coeffs([-1.0, 2.0])


def test_extend_down_trace_fidelity():
    f = band_limited()
    ext = DownwardExtension(f, 0.5)
    assert np.abs(ext.evaluate(0.5) - f.values).max() <= 1e-12


def test_extend_down_single_mode_decay():
    n = 16
    x = 2 * math.pi * np.arange(n) / n
    f = PeriodicField(np.cos(x)[:, None] * np.ones((1, n)), 1.0, 1.0)
    ext = DownwardExtension(f, 0.0)
    # |xi| = 1 mode damps by e^{-|xi|} per unit depth
    assert np.abs(ext.evaluate(-1.0)).max() == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert np.abs(ext.evaluate(-1.0, deriv=1)).max() == \
        pytest.approx(math.exp(-1.0), rel=1e-12)


def test_extend_down_constant():
    f = PeriodicField(3.5 * np.ones((8, 8)), 1.0, 1.0)
    ext = DownwardExtension(f, 2.0)
    assert np.abs(ext.evaluate(-5.0) - 3.5).max() <= 1e-13


def test_extend_up_constant_and_decay():
    p = ExtensionParams.default(1)
    f = PeriodicField(2.0 * np.ones((8, 8)), 1.0, 1.0)
    up = UpwardExtension(f, p)
    assert np.abs(up.evaluate(7.0) - 2.0).max() <= 1e-13  # zero mode persists
    n = 16
    x = 2 * math.pi * np.arange(n) / n
    mode = PeriodicField(np.cos(x)[:, None] * np.ones((1, n)), 1.0, 1.0)
    up2 = UpwardExtension(mode, ExtensionParams.from_lambdas([1.0, 2.0]))
    # alpha = (3, -2): value 3 e^{-x} - 2 e^{-2x} at |xi| = 1
    x3 = 0.8
    expected = 3 * math.exp(-x3) - 2 * math.exp(-2 * x3)
    assert np.abs(up2.evaluate(x3)).max() == pytest.approx(abs(expected), rel=1e-12)
    assert np.abs(up2.evaluate(40.0)).max() < 1e-15


def test_interface_derivative_matching_analytic():
    f = band_limited(seed=3)
    p = ExtensionParams.default(2)
    two = InterfaceExtension(f, p)
    scale = np.abs(f.values).max()
    for ell in range(p.m + 1):
        lo = two.down.evaluate(0.0, deriv=ell)
        hi = two.up.evaluate(0.0, deriv=ell)
        assert np.abs(hi - lo).max() <= 1e-10 * scale * 10 ** ell
    # order m + 1 generically breaks
    lo = two.down.evaluate(0.0, deriv=p.m + 1)
    hi = two.up.evaluate(0.0, deriv=p.m + 1)
    assert np.abs(hi - lo).max() > 1e-6


def test_interface_matching_by_finite_differences():
    f = band_limited(seed=4, n1=8, n2=8)
    p = ExtensionParams.default(2)
    two = InterfaceExtension(f, p)

    def probe(ell, h):
        # one-sided 2nd-order stencils above and below the interface
        if ell == 0:
            up = 2 * two.evaluate(h) - two.evaluate(2 * h)
            dn = 2 * two.evaluate(-h) - two.evaluate(-2 * h)
            return up, dn
        if ell == 1:
            up = (-3 * two.evaluate(0.0) + 4 * two.evaluate(h)
                  - two.evaluate(2 * h)) / (2 * h)
            dn = (3 * two.evaluate(0.0) - 4 * two.evaluate(-h)
                  + two.evaluate(-2 * h)) / (2 * h)
            return up, dn
        up = (2 * two.evaluate(0.0) - 5 * two.evaluate(h) + 4 * two.evaluate(2 * h)
              - two.evaluate(3 * h)) / h ** 2
        dn = (2 * two.evaluate(0.0) - 5 * two.evaluate(-h) + 4 * two.evaluate(-2 * h)
              - two.evaluate(-3 * h)) / h ** 2
        return up, dn

    for ell in (0, 1, 2):
        gaps = []
        for h in (1e-2, 5e-3):
            up, dn = probe(ell, h)
            gaps.append(np.abs(up - dn).max())
        # gap is all finite-difference error: shrinks ~4x with h -> h/2
        assert gaps[1] <= 0.35 * gaps[0] + 1e-10


def test_zero_field_zero_extension():
    f = PeriodicField(np.zeros((8, 8)), 1.0, 1.0)
    two = InterfaceExtension(f, ExtensionParams.default(3))
    assert np.abs(two.evaluate(1.3)).max() == 0.0
    assert np.abs(two.evaluate(-0.4)).max() == 0.0


def test_upward_amplitude_bounded_by_alpha_sum():
    f = band_limited(seed=9)
    p = ExtensionParams.default(3)
    up = UpwardExtension(f, p)
    bound = np.sum(np.abs(p.alphas)) * np.abs(f.values).max()
    for x3 in (0.1, 0.5, 2.0):
        assert np.abs(up.evaluate(x3)).max() <= bound * (1 + 1e-12)


def test_field_csv_round_trip(tmp_path):
    f = band_limited(seed=12, n1=6, n2=10, L1=0.7, L2=1.9)
    path = tmp_path / "grid.csv"
    write_field_csv(f, path)
    g = read_field_csv(path)
    assert g.L1 == f.L1 and g.L2 == f.L2
    assert np.array_equal(g.values, f.values)


def test_extension_params_validation():
    with pytest.raises(ValueError):
        ExtensionParams(np.array([1.0, 2.0]), np.array([1.0, 1.0]))  # bad moments


@pytest.mark.parametrize("period", [math.nan, math.inf, -1.0, 0.0])
def test_periodic_field_rejects_bad_period(period):
    # NaN fails every comparison, so the check must be 0 < L < inf
    for lengths in ((period, 1.0), (1.0, period)):
        with pytest.raises(ValueError, match="finite and > 0"):
            PeriodicField(np.zeros((2, 2)), *lengths)


def test_read_field_csv_refuses_rows_past_n1(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("N1,N2,L1,L2\n2,2,1,1\n0.5,1.5\n1.0,2.0\n\n  \n")
    assert read_field_csv(path).shape == (2, 2)  # blank trailing lines pass
    path.write_text("N1,N2,L1,L2\n2,2,1,1\n0.5,1.5\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match=r"grid.csv, line 5: expected the end of "
                                         r"the file after 2 grid rows, got '3.0,4.0'"):
        read_field_csv(path)


def test_write_field_csv_refuses_complex_grid(tmp_path):
    f = PeriodicField(np.array([[1 + 2j, 2.0], [0.5, 1.0]]), 1.0, 1.0)
    with pytest.raises(ValueError, match="real values"):
        write_field_csv(f, tmp_path / "grid.csv")
    assert not (tmp_path / "grid.csv").exists()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
periods = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(2, 5)),
                     elements=finite_floats),
       L1=periods, L2=periods)
def test_field_csv_round_trip_is_bit_exact(values, L1, L2):
    f = PeriodicField(values, L1, L2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        write_field_csv(f, path)
        g = read_field_csv(path)
    assert (g.L1, g.L2) == (L1, L2)
    assert g.values.dtype == f.values.dtype
    assert g.values.tobytes() == f.values.tobytes()  # signed zeros included


@pytest.mark.parametrize("lambdas, alphas", [([math.nan, 1.0], [1.0, 0.0]),
                                             ([1.0, math.inf], [1.0, 0.0]),
                                             ([1.0, 2.0], [math.nan, 0.0])])
def test_extension_params_refuse_non_finite_input(lambdas, alphas):
    # warnings are errors here: the checks must run before any moment sum
    with pytest.raises(ValueError, match="must be finite"):
        ExtensionParams(lambdas, alphas)


@pytest.mark.parametrize("lambdas", [[1.0, math.inf], [math.nan, 1.0], [math.inf]])
def test_vandermonde_refuses_non_finite_nodes(lambdas):
    with pytest.raises(ValueError, match="must be finite"):
        vandermonde_coeffs(lambdas)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
def test_periodic_field_rejects_non_finite_values(bad):
    values = np.zeros((3, 3), dtype=type(bad))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="values must all be finite"):
        PeriodicField(values, 1.0, 1.0)


@pytest.mark.parametrize("x3", [math.nan, -math.inf])
def test_downward_extension_refuses_non_finite_heights(x3):
    f = band_limited(n1=4, n2=4)
    with pytest.raises(ValueError, match="extension level must be finite"):
        DownwardExtension(f, x3)
    with pytest.raises(ValueError, match="not a finite height"):
        DownwardExtension(f, 0.0).evaluate(x3)
    with pytest.raises(ValueError, match="not a finite height"):
        InterfaceExtension(f, ExtensionParams.default(1)).evaluate(x3)


@pytest.mark.parametrize("x3", [math.nan, math.inf])
def test_upward_extension_refuses_non_finite_heights(x3):
    f = band_limited(n1=4, n2=4)
    with pytest.raises(ValueError, match="not a finite height"):
        UpwardExtension(f, ExtensionParams.default(1)).evaluate(x3)


def test_interface_extension_transforms_once(monkeypatch):
    calls = []
    fft2 = np.fft.fft2
    monkeypatch.setattr(np.fft, "fft2", lambda a: calls.append(a) or fft2(a))
    two = InterfaceExtension(band_limited(seed=6), ExtensionParams.default(2))
    for x3 in (0.5, -0.5):
        two.evaluate(x3)
        two.evaluate(x3, deriv=1)
    assert len(calls) == 1
    assert two.up.field.spectrum is two.down.field.spectrum


def test_periodic_field_keeps_a_read_only_copy():
    values = np.ones((4, 4))
    f = PeriodicField(values, 1.0, 1.0)
    before = f.spectrum[0].copy()
    values[0, 0] = 5.0  # the caller's array stays the caller's
    assert np.array_equal(f.values, np.ones((4, 4)))
    with pytest.raises(ValueError, match="read-only"):
        f.values[0, 0] = 5.0
    assert np.array_equal(f.spectrum[0], before)


@pytest.mark.parametrize("deriv", [-1, 1.5, True])
@pytest.mark.parametrize("x3", [-0.5, 0.5])
def test_extensions_refuse_a_bad_derivative_order(deriv, x3):
    # -1 divided by the zero mode and 1.5 gave NaN above the interface;
    # True passed as 1.  Each is refused before the field is transformed
    f = band_limited(n1=4, n2=4)
    ext = DownwardExtension(f, 0.0) if x3 < 0 else UpwardExtension(f, ExtensionParams.default(1))
    for evaluator in (ext, InterfaceExtension(f, ExtensionParams.default(1))):
        with pytest.raises(ValueError, match="deriv must be an integer >= 0"):
            evaluator.evaluate(x3, deriv)
    assert "spectrum" not in f.__dict__
    assert np.all(np.isfinite(ext.evaluate(x3, np.int64(2))))
