"""Bump function, smooth cutoff, and mollified Laplacian symbol."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from greendecay import (
    MollifierSpec,
    ParameterError,
    build_grid,
    bump_phi,
    h_on_grid,
    h_symbol,
    theta,
    theta_on_grid,
)

KC_VALUES = (62.8, 157.1, 628.3)

# independent quadrature of the normalized bump profile over [-1, 1];
# frozen from a 50-digit evaluation of the same integral
PROFILE_INTEGRAL = 0.4439938161680794


def test_spec_validation():
    MollifierSpec(sigma=0.05)
    with pytest.raises(ParameterError):
        MollifierSpec(sigma=0.2)
    with pytest.raises(ParameterError):
        MollifierSpec(sigma=0.0)
    with pytest.raises(ParameterError):
        MollifierSpec(sigma=float("nan"))


def test_bump_vanishes_at_support_boundary():
    spec = MollifierSpec()
    for kc in KC_VALUES:
        assert bump_phi(spec.sigma * kc, kc, spec) == 0.0
        assert bump_phi(-spec.sigma * kc, kc, spec) == 0.0
        assert bump_phi(spec.sigma * kc * 1.5, kc, spec) == 0.0


def test_bump_peak_value():
    # phi(0) = Z exp(-1) with Z = 1 / (sigma kc * profile integral)
    spec = MollifierSpec()
    for kc in KC_VALUES:
        Z = 1.0 / (spec.sigma * kc * PROFILE_INTEGRAL)
        assert_allclose(bump_phi(0.0, kc, spec), Z * np.exp(-1.0), rtol=1e-12)


def test_bump_normalization_by_independent_quadrature():
    spec = MollifierSpec()
    kc = 157.1
    total, _ = quad(lambda k: bump_phi(k, kc, spec), -spec.sigma * kc, spec.sigma * kc,
                    epsabs=1e-14, epsrel=1e-11, limit=200)
    assert_allclose(total, 1.0, rtol=1e-10)


def test_bump_scale_invariance():
    # Z * sigma * kc is a universal constant independent of kc
    spec = MollifierSpec()
    products = [bump_phi(0.0, kc, spec) * spec.sigma * kc for kc in KC_VALUES]
    assert_allclose(products, products[0], rtol=1e-13)


def test_theta_plateaus_are_exact():
    spec = MollifierSpec()
    for kc in KC_VALUES:
        assert theta(0.4 * kc, kc, spec) == 1.0
        assert theta(0.5 * kc, kc, spec) == 1.0
        assert theta(0.0, kc, spec) == 1.0
        assert theta(0.75 * kc, kc, spec) == 0.0
        assert theta(0.8 * kc, kc, spec) == 0.0
        assert theta(2.0 * kc, kc, spec) == 0.0


def test_theta_halfway_at_step_location():
    # even bump convolved with a step: theta((5/8) kc) = 1/2
    spec = MollifierSpec()
    for kc in KC_VALUES:
        assert_allclose(theta(0.625 * kc, kc, spec), 0.5, atol=1e-10)


def test_theta_even_and_bounded():
    spec = MollifierSpec()
    kc = 157.1
    ks = np.linspace(-0.9 * kc, 0.9 * kc, 501)
    vals = theta(ks, kc, spec)
    assert_allclose(vals, vals[::-1], atol=1e-12)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)


def test_theta_monotone_on_positive_axis():
    spec = MollifierSpec()
    kc = 62.8
    ks = np.linspace(0.0, 0.9 * kc, 800)
    vals = theta(ks, kc, spec)
    assert np.all(np.diff(vals) <= 1e-12)


def test_h_symbol_inner_region_is_k_squared():
    spec = MollifierSpec()
    for kc in KC_VALUES:
        k = 0.3 * kc
        assert h_symbol(k, kc, spec) == k * k
        assert_allclose(h_symbol(k, kc, spec), 0.09 * kc * kc, rtol=1e-12)


def test_h_symbol_outer_plateau():
    spec = MollifierSpec()
    for kc in KC_VALUES:
        assert h_symbol(0.9 * kc, kc, spec) == kc * kc
        assert h_symbol(0.75 * kc, kc, spec) == kc * kc


def test_h_symbol_wedged_between_k2_and_kc2():
    spec = MollifierSpec()
    kc = 157.1
    ks = np.linspace(-kc, kc, 1001)
    h = h_symbol(ks, kc, spec)
    assert np.all(h >= ks * ks - 1e-9 * kc * kc)
    assert np.all(h <= kc * kc * (1 + 1e-15))


def test_h_symbol_even():
    spec = MollifierSpec()
    kc = 62.8
    ks = np.linspace(0.0, kc, 400)
    assert_allclose(h_symbol(ks, kc, spec), h_symbol(-ks, kc, spec), rtol=1e-12)


def test_smoothness_proxy_uniform_in_kc():
    # centered differences of theta of orders 1..4, scaled by kc^m, collapse to
    # the same universal profile values for every kc
    spec = MollifierSpec()
    results = {m: [] for m in (1, 2, 3, 4)}
    for kc in KC_VALUES:
        h = kc / 2000.0
        ks = np.arange(0.45 * kc, 0.8 * kc, h)
        v = theta(ks, kc, spec)
        d1 = (v[3:-1] - v[1:-3]) / (2 * h)
        d2 = (v[3:-1] - 2 * v[2:-2] + v[1:-3]) / h**2
        d3 = (v[4:] - 2 * v[3:-1] + 2 * v[1:-3] - v[:-4]) / (2 * h**3)
        d4 = (v[4:] - 4 * v[3:-1] + 6 * v[2:-2] - 4 * v[1:-3] + v[:-4]) / h**4
        for m, d in ((1, d1), (2, d2), (3, d3), (4, d4)):
            results[m].append(np.max(np.abs(d)) * kc**m)
    for m, vals in results.items():
        assert max(vals) <= 2.0 * min(vals), f"order {m}: {vals}"


def test_grid_memoization_returns_same_object():
    grid = build_grid(40.0, 800)
    spec = MollifierSpec()
    a = theta_on_grid(grid, spec)
    b = theta_on_grid(build_grid(40.0, 800), spec)
    assert a is b
    assert not a.flags.writeable


def test_grid_values_match_scalar_calls():
    grid = build_grid(40.0, 800)
    spec = MollifierSpec()
    th = theta_on_grid(grid, spec)
    for pos in (0, 100, 250, 300, 399, 799):
        assert th[pos] == theta(float(grid.k[pos]), grid.kc, spec)
    h = h_on_grid(grid, spec)
    for pos in (0, 100, 250, 300, 399, 799):
        assert h[pos] == h_symbol(float(grid.k[pos]), grid.kc, spec)


# ---------------------------------------------------------------- mpmath oracle


def _mp_bump_mass(a, b):
    """30-digit integral of exp(-1/(1-t^2)) over [a, b], a subset of [-1, 1]."""
    with mpmath.workdps(30):
        return mpmath.quad(lambda t: mpmath.exp(-1 / (1 - t * t)), [a, b])


def test_profile_integral_against_mpmath():
    # bump_phi(0) * sigma * kc = exp(-1) / (profile integral)
    spec = MollifierSpec()
    kc = 157.1
    profile = np.exp(-1.0) / (bump_phi(0.0, kc, spec) * spec.sigma * kc)
    exact = _mp_bump_mass(-1, 1)
    assert abs(profile - float(exact)) <= 1e-15


@pytest.mark.parametrize("sigma", [0.125, 0.05])
def test_theta_band_against_mpmath(sigma):
    # theta in the band is the bump's mass over [t0, 1], t0 = (|k| - 5kc/8)/(sigma kc)
    spec = MollifierSpec(sigma=sigma)
    kc = 157.1
    ks = np.linspace(0.5 * kc, 0.75 * kc, 62)[1:-1]
    vals = theta(ks, kc, spec)
    total = _mp_bump_mass(-1, 1)
    worst = 0.0
    for k, v in zip(ks, vals):
        t0 = min(max((k - 0.625 * kc) / (sigma * kc), -1.0), 1.0)
        exact = _mp_bump_mass(mpmath.mpf(t0), 1) / total
        worst = max(worst, abs(v - float(exact)))
    assert worst <= 1e-15
