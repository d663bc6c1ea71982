"""Grid construction, transforms, norms, and distance functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from greendecay import (
    GridSpec,
    LatticeFunction,
    ParameterError,
    SpectralFunction,
    build_grid,
    dft,
    idft,
    mollified_distance,
    norm,
    periodic_distance,
)
from greendecay.lattice import dft_values, idft_values


def random_function(grid, rng):
    return LatticeFunction(grid, rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N))


# ---------------------------------------------------------------- grids


def test_build_grid_paper_scale():
    grid = build_grid(40.0, 2000)
    assert grid.dx == 0.02
    assert_allclose(grid.dk, 2 * np.pi / 40.0, rtol=1e-15)
    assert_allclose(grid.kc, np.pi / 0.02, rtol=1e-12)
    assert grid.N * grid.dx == grid.L


def test_build_grid_coarse():
    grid = build_grid(40.0, 800)
    assert grid.dx == 0.05
    assert_allclose(grid.kc, 62.83185307, rtol=1e-8)


def test_build_grid_smallest_admissible():
    # N = 4 with dx = 1 exactly; canonical Fourier order is {-1, 0, 1, 2} * dk
    grid = build_grid(4.0, 4)
    assert grid.dx == 1.0
    assert_allclose(grid.dk, np.pi / 2, rtol=1e-15)
    assert_allclose(grid.kc, np.pi, rtol=1e-15)
    assert_allclose(grid.k, np.array([-1.0, 0.0, 1.0, 2.0]) * np.pi / 2, atol=1e-15)


@pytest.mark.parametrize(
    "L, N",
    [(40.0, 2001), (40.0, 2), (0.5, 8), (2 * np.pi, 4), (40.0, 41)],
)
def test_build_grid_rejects_bad_parameters(L, N):
    # odd N, tiny N, L < 1, and dx > 1 must all be rejected
    with pytest.raises(ParameterError):
        build_grid(L, N)


@pytest.mark.parametrize("L", [float("nan"), float("inf"), -float("inf")])
def test_grid_rejects_non_finite_length(L):
    with pytest.raises(ParameterError):
        GridSpec(L, 100)


def test_build_grid_rejects_coarse_spacing():
    with pytest.raises(ParameterError):
        build_grid(100.0, 50)  # dx = 2 > 1


def test_kc_is_largest_grid_frequency():
    grid = build_grid(37.0, 74)
    assert grid.k[-1] == grid.kc
    assert grid.kc >= np.pi


def test_lattice_function_length_checked():
    grid = build_grid(8.0, 16)
    with pytest.raises(ParameterError):
        LatticeFunction(grid, np.zeros(15))
    with pytest.raises(ParameterError):
        SpectralFunction(grid, np.zeros(17))


# ---------------------------------------------------------------- transforms


def test_dft_of_delta_is_constant():
    grid = build_grid(40.0, 64)
    v = np.zeros(64)
    v[0] = 1.0 / grid.dx
    fh = dft(LatticeFunction(grid, v))
    assert_allclose(fh.values, np.ones(64), rtol=0, atol=1e-13)


def test_dft_of_constant_is_scaled_delta():
    grid = build_grid(40.0, 64)
    fh = dft(LatticeFunction(grid, np.ones(64)))
    expected = np.zeros(64)
    expected[np.nonzero(grid.spectral_indices == 0)[0][0]] = grid.L
    assert_allclose(fh.values, expected, atol=1e-11)


def test_idft_of_constant_coefficients_is_delta():
    grid = build_grid(40.0, 64)
    f = idft(SpectralFunction(grid, np.ones(64)))
    expected = np.zeros(64)
    expected[0] = 1.0 / grid.dx
    assert_allclose(f.values, expected, atol=1e-12)


def test_idft_recovers_constant():
    grid = build_grid(40.0, 64)
    coeffs = np.zeros(64)
    coeffs[np.nonzero(grid.spectral_indices == 0)[0][0]] = grid.L
    f = idft(SpectralFunction(grid, coeffs))
    assert_allclose(f.values, np.ones(64), rtol=1e-13)


def test_round_trip_both_ways():
    rng = np.random.default_rng(7)
    grid = build_grid(17.0, 170)
    f = random_function(grid, rng)
    back = idft(dft(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    fh = SpectralFunction(grid, rng.standard_normal(170) + 1j * rng.standard_normal(170))
    back_h = dft(idft(fh))
    assert np.max(np.abs(back_h.values - fh.values)) <= 1e-12 * np.max(np.abs(fh.values))


def test_block_transforms_act_column_by_column():
    rng = np.random.default_rng(8)
    grid = build_grid(17.0, 170)
    block = rng.standard_normal((170, 5)) + 1j * rng.standard_normal((170, 5))
    for transform in (dft_values, idft_values):
        whole = transform(grid, block)
        by_column = np.column_stack([transform(grid, block[:, j]) for j in range(5)])
        assert whole.shape == block.shape
        assert np.max(np.abs(whole - by_column)) <= 1e-15 * np.max(np.abs(by_column))


@pytest.mark.parametrize("N", [64, 128])
def test_parseval_identity(N):
    rng = np.random.default_rng(11)
    grid = build_grid(40.0, N)
    f = random_function(grid, rng)
    ratio = norm(dft(f)) ** 2 / norm(f) ** 2
    assert_allclose(ratio, 2 * np.pi, rtol=1e-12)


def test_single_mode_transforms_to_spike():
    # f(x) = exp(i k x) for a grid frequency has dft = L at that k, 0 elsewhere
    grid = build_grid(10.0, 20)
    k = grid.k[3]
    f = LatticeFunction(grid, np.exp(1j * k * grid.x))
    fh = dft(f)
    expected = np.zeros(20)
    expected[3] = grid.L
    assert_allclose(fh.values, expected, atol=1e-12 * grid.L)


# ---------------------------------------------------------------- norms


def test_l2_norm_of_constant():
    grid = build_grid(40.0, 256)
    assert_allclose(norm(LatticeFunction(grid, np.ones(256))), np.sqrt(grid.L), rtol=1e-14)


def test_l2_norm_of_single_point():
    grid = build_grid(40.0, 256)
    v = np.zeros(256)
    v[0] = 1.0
    assert_allclose(norm(LatticeFunction(grid, v)), np.sqrt(grid.dx), rtol=1e-14)


def test_linf_norm():
    grid = build_grid(8.0, 16)
    v = np.zeros(16, dtype=complex)
    v[5] = -3.0 + 4.0j
    assert norm(LatticeFunction(grid, v), "linf") == 5.0


def test_norm_rejects_unknown_kind():
    grid = build_grid(8.0, 16)
    with pytest.raises(ParameterError):
        norm(LatticeFunction(grid, np.zeros(16)), "l7")


# ---------------------------------------------------------------- distances


def test_periodic_distance_examples():
    assert periodic_distance(1.0, 0.0, 40.0) == 1.0
    assert_allclose(periodic_distance(39.98, 0.0, 40.0), 0.02, atol=1e-12)
    assert periodic_distance(20.0, 0.0, 40.0) == 20.0


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-1e4, 1e4, allow_nan=False),
    y=st.floats(-1e4, 1e4, allow_nan=False),
    L=st.floats(1.0, 1e3, allow_nan=False),
)
def test_periodic_distance_properties(x, y, L):
    d = periodic_distance(x, y, L)
    assert 0.0 <= d <= L / 2 + 1e-9 * L
    assert_allclose(d, periodic_distance(y, x, L), atol=1e-9 * L)
    assert_allclose(d, periodic_distance(x + L, y, L), atol=1e-9 * L)


def test_mollified_distance_at_source():
    dmax = np.sqrt(401.0)
    value, d1, _ = mollified_distance(0.0, 0.0, 40.0)
    assert_allclose(value, dmax - np.sqrt((dmax - 1.0) ** 2 + 1.0), rtol=1e-15)
    assert d1 == 0.0


def test_mollified_distance_flat_at_antipode():
    _, d1, _ = mollified_distance(20.0, 0.0, 40.0)
    assert d1 == 0.0


def test_mollified_distance_slope_bounded():
    rng = np.random.default_rng(3)
    x = rng.uniform(-40.0, 80.0, 10_000)
    _, d1, d2 = mollified_distance(x, 0.0, 40.0)
    assert np.max(np.abs(d1)) <= 1.0
    assert np.all(np.isfinite(d2))


def test_mollified_distance_curvature_bounded_in_L():
    # second derivative stays O(1) as the domain grows
    for L in (1.0, 40.0, 400.0):
        x = np.linspace(0.0, L, 1001)
        _, _, d2 = mollified_distance(x, 0.0, L)
        assert np.max(np.abs(d2)) <= 2.0


def test_mollified_distance_derivatives_match_finite_differences():
    # d1 against a centered difference of the value, d2 against a centered
    # difference of d1; both at h = 1e-5 and 1e-6 absolute tolerance.  A second
    # difference of the value itself carries ~1e-4 roundoff at this h, so d2 is
    # verified through d1 at full precision and against the value loosely.
    h = 1e-5
    x = np.linspace(-5.0, 45.0, 2001)
    vp, d1p, _ = mollified_distance(x + h, 0.0, 40.0)
    vm, d1m, _ = mollified_distance(x - h, 0.0, 40.0)
    v0, d1, d2 = mollified_distance(x, 0.0, 40.0)
    assert np.max(np.abs((vp - vm) / (2 * h) - d1)) <= 1e-6
    assert np.max(np.abs((d1p - d1m) / (2 * h) - d2)) <= 1e-6
    assert np.max(np.abs((vp - 2 * v0 + vm) / h**2 - d2)) <= 5e-4


def test_mollified_distance_monotone_in_base_distance():
    xs = np.linspace(0.0, 20.0, 4001)  # base distance increases on [0, L/2]
    value, _, _ = mollified_distance(xs, 0.0, 40.0)
    assert np.all(np.diff(value) > 0)


def test_mollified_distance_rejects_small_domain():
    with pytest.raises(ParameterError):
        mollified_distance(0.5, 0.0, 0.5)


@pytest.mark.parametrize("L", [float("nan"), float("inf")])
def test_mollified_distance_rejects_non_finite_domain(L):
    with pytest.raises(ParameterError):
        mollified_distance(1.0, 0.0, L)


def test_phase_gap_lower_bound_with_edge_equality():
    # |exp(i dk x) - 1| / dk >= 2 |x| / pi on the half interval, equality at L/2
    for L, N in ((40.0, 2000), (2 * np.pi, 16), (1.0, 64)):
        grid = build_grid(L, N)
        xs = grid.x[grid.x <= L / 2 + 1e-12 * L]
        lhs = np.abs(np.exp(1j * grid.dk * xs) - 1.0) / grid.dk
        assert np.all(lhs >= 2 * xs / np.pi - 1e-12)
        edge = abs(np.exp(1j * grid.dk * (L / 2)) - 1.0) / grid.dk
        assert_allclose(edge, 2 * (L / 2) / np.pi, rtol=1e-12)


def test_values_are_immutable():
    grid = build_grid(8.0, 16)
    f = LatticeFunction(grid, np.zeros(16))
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        grid.x[0] = 5.0
