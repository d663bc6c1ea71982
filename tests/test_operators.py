"""Difference operators, Hamiltonians, and the Fourier-space matrix."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from greendecay import (
    FD2,
    MPS,
    PS,
    LatticeFunction,
    ParameterError,
    PotentialSpec,
    ProblemSpec,
    SpectralFunction,
    apply_hamiltonian,
    build_grid,
    dft,
    difference,
    fd_laplacian,
    fd_symbol,
    fourier_hamiltonian_matrix,
    h_on_grid,
    scheme_symbol,
    spectral_difference,
)
from greendecay.lattice import dft_values


def random_lattice(grid, rng):
    return LatticeFunction(grid, rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N))


def hamiltonian_matrix_real_space(spec):
    """Materialize H by applying it to every basis vector (test oracle)."""
    N = spec.grid.N
    cols = np.empty((N, N), dtype=complex)
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        cols[:, j] = apply_hamiltonian(spec, LatticeFunction(spec.grid, e)).values
    return cols


# ---------------------------------------------------------------- potentials


def test_gaussian_potential_periodized():
    grid = build_grid(40.0, 400)
    V = PotentialSpec.gaussian(10.0, 0.2).evaluate(grid)
    d = np.minimum(grid.x, 40.0 - grid.x)
    assert_allclose(V, 10.0 * np.exp(-0.2 * d * d), rtol=1e-15)
    assert V.dtype == np.float64


def test_gaussian_potential_off_center():
    grid = build_grid(40.0, 400)
    V = PotentialSpec.gaussian(2.0, 0.5, center=35.0).evaluate(grid)
    assert np.argmax(V) == int(round(35.0 / grid.dx))


def test_tabulated_potential_checked():
    with pytest.raises(ParameterError):
        PotentialSpec.tabulated(np.array([1.0, 2.0 + 1j]))
    with pytest.raises(ParameterError):
        PotentialSpec.tabulated(np.array([1.0, np.inf]))
    pot = PotentialSpec.tabulated(np.arange(8.0))
    with pytest.raises(ParameterError):
        pot.evaluate(build_grid(16.0, 16))


def test_problem_spec_rejects_unknown_scheme():
    grid = build_grid(8.0, 16)
    with pytest.raises(ParameterError):
        ProblemSpec(grid, -1.0, PotentialSpec.zero(), "spectral")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("lam", [NAN, INF, complex(-1.0, NAN), complex(-INF, 1.0)])
def test_problem_spec_rejects_non_finite_lam(lam):
    with pytest.raises(ParameterError):
        ProblemSpec(build_grid(8.0, 16), lam, PotentialSpec.zero(), MPS)


@pytest.mark.parametrize("params", [(NAN, 0.2), (10.0, INF), (10.0, NAN), (INF, 0.2), (10.0, 0.2, NAN)])
def test_gaussian_potential_rejects_non_finite_parameters(params):
    with pytest.raises(ParameterError):
        PotentialSpec.gaussian(*params)


# ---------------------------------------------------------------- differences


def test_difference_of_constant_vanishes():
    grid = build_grid(8.0, 16)
    f = LatticeFunction(grid, np.full(16, 3.7))
    for direction in ("forward", "backward"):
        assert_allclose(difference(f, direction).values, 0.0, atol=1e-13)


def test_forward_difference_wraps():
    grid = build_grid(8.0, 16)
    v = np.zeros(16)
    v[0] = 1.0
    out = difference(LatticeFunction(grid, v), "forward").values
    assert_allclose(out[-1], 1.0 / grid.dx, rtol=1e-15)


def test_difference_rejects_bad_direction():
    grid = build_grid(8.0, 16)
    with pytest.raises(ParameterError):
        difference(LatticeFunction(grid, np.zeros(16)), "central")


def test_backward_leibniz_rule_exact():
    rng = np.random.default_rng(5)
    grid = build_grid(20.0, 80)
    for _ in range(50):
        f = random_lattice(grid, rng)
        g = random_lattice(grid, rng)
        fg = LatticeFunction(grid, f.values * g.values)
        lhs = difference(fg, "backward").values
        rhs = difference(f, "backward").values * g.values \
            + np.roll(f.values, 1) * difference(g, "backward").values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_fd_laplacian_stencil_and_factorization():
    rng = np.random.default_rng(6)
    grid = build_grid(20.0, 80)
    f = random_lattice(grid, rng)
    lap = fd_laplacian(f).values
    via_differences = difference(difference(f, "backward"), "forward").values
    assert_allclose(lap, via_differences, rtol=0, atol=1e-10)
    assert_allclose(fd_laplacian(LatticeFunction(grid, np.ones(80))).values, 0.0, atol=1e-12)


def test_fd_laplacian_eigenfunctions():
    grid = build_grid(20.0, 80)
    for k in (grid.k[5], grid.k[40], grid.k[-1]):
        f = LatticeFunction(grid, np.exp(1j * k * grid.x))
        lap = fd_laplacian(f).values
        expected = -(4.0 / grid.dx**2) * np.sin(k * grid.dx / 2.0) ** 2 * f.values
        assert_allclose(lap, expected, rtol=1e-10, atol=1e-10 / grid.dx**2)


# ---------------------------------------------------------------- Hamiltonians


def test_ps_hamiltonian_eigenfunctions():
    grid = build_grid(20.0, 80)
    spec = ProblemSpec(grid, -1.0, PotentialSpec.zero(), PS)
    for pos in (3, 41, 79):
        k = grid.k[pos]
        f = LatticeFunction(grid, np.exp(1j * k * grid.x))
        out = apply_hamiltonian(spec, f).values
        assert_allclose(out, k * k * f.values, rtol=1e-12, atol=1e-10)


def test_mps_plateau_eigenfunctions():
    grid = build_grid(40.0, 800)
    spec = ProblemSpec(grid, -1.0, PotentialSpec.zero(), MPS)
    for frac in (0.75, 0.8, 1.0):
        pos = int(np.argmin(np.abs(grid.k - frac * grid.kc)))
        k = grid.k[pos]
        assert abs(k) >= 0.75 * grid.kc - 1e-9
        f = LatticeFunction(grid, np.exp(1j * k * grid.x))
        out = apply_hamiltonian(spec, f).values
        assert_allclose(out, grid.kc**2 * f.values, rtol=1e-12)


def test_fd2_symbol_identity():
    # dft(H f) = (4/dx^2) sin^2(k dx/2) dft(f) for the free fd2 operator
    rng = np.random.default_rng(8)
    grid = build_grid(20.0, 128)
    spec = ProblemSpec(grid, -1.0, PotentialSpec.zero(), FD2)
    f = random_lattice(grid, rng)
    lhs = dft(apply_hamiltonian(spec, f)).values
    rhs = fd_symbol(grid) * dft(f).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_mps_equals_ps_on_bandlimited_input():
    # functions supported on |k| <= kc/2 see identical mps and ps operators
    rng = np.random.default_rng(9)
    grid = build_grid(20.0, 128)
    coeffs = np.zeros(128, dtype=complex)
    inner = np.abs(grid.k) <= grid.kc / 2.0
    coeffs[inner] = rng.standard_normal(inner.sum()) + 1j * rng.standard_normal(inner.sum())
    from greendecay import idft

    f = idft(SpectralFunction(grid, coeffs))
    pot = PotentialSpec.gaussian(3.0, 0.1)
    out_ps = apply_hamiltonian(ProblemSpec(grid, -1.0, pot, PS), f).values
    out_mps = apply_hamiltonian(ProblemSpec(grid, -1.0, pot, MPS), f).values
    assert_allclose(out_mps, out_ps, rtol=0, atol=1e-12 * np.max(np.abs(out_ps)))


def test_fd2_matrix_symmetric_for_real_potential():
    grid = build_grid(8.0, 32)
    spec = ProblemSpec(grid, -2.0, PotentialSpec.gaussian(1.0, 0.3), FD2)
    H = hamiltonian_matrix_real_space(spec)
    assert np.max(np.abs(H.imag)) <= 1e-12 / grid.dx**2
    assert_allclose(H, H.T, rtol=0, atol=1e-9)


@pytest.mark.parametrize("scheme", [PS, MPS])
def test_spectral_matrices_hermitian_for_real_potential(scheme):
    grid = build_grid(8.0, 32)
    spec = ProblemSpec(grid, -2.0, PotentialSpec.gaussian(1.0, 0.3), scheme)
    H = hamiltonian_matrix_real_space(spec)
    assert_allclose(H, H.conj().T, rtol=0, atol=1e-9)


# ---------------------------------------------------------------- Fourier matrix


def test_fourier_matrix_diagonal_without_potential():
    grid = build_grid(40.0, 64)
    for scheme in (PS, MPS):
        spec = ProblemSpec(grid, -1.0, PotentialSpec.zero(), scheme)
        H = fourier_hamiltonian_matrix(spec)
        assert_allclose(H, np.diag(scheme_symbol(spec)), rtol=0, atol=0)


def test_fourier_matrix_matches_brute_force_folding():
    rng = np.random.default_rng(10)
    grid = build_grid(8.0, 16)
    pot = PotentialSpec.tabulated(rng.standard_normal(16))
    spec = ProblemSpec(grid, -3.0, pot, MPS)
    H = fourier_hamiltonian_matrix(spec)
    n = grid.spectral_indices
    Vh = dft_values(grid, pot.evaluate(grid).astype(complex))
    pos = np.mod(n[:, None] - n[None, :] + grid.N // 2 - 1, grid.N)
    brute = Vh[pos] / grid.L + np.diag(scheme_symbol(spec).astype(complex))
    assert_allclose(H, brute, rtol=0, atol=0)


@pytest.mark.parametrize("scheme", [PS, MPS])
def test_fourier_matrix_consistent_with_matrix_free_application(scheme):
    rng = np.random.default_rng(12)
    grid = build_grid(20.0, 128)
    pot = PotentialSpec.gaussian(5.0, 0.4, center=3.0)
    spec = ProblemSpec(grid, -1.0, pot, scheme)
    H = fourier_hamiltonian_matrix(spec)
    f = random_lattice(grid, rng)
    lhs = H @ dft(f).values
    rhs = dft(apply_hamiltonian(spec, f)).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_fourier_matrix_convolution_block_hermitian():
    # real V forces Vhat_{-m} = conj(Vhat_m), so the convolution block is Hermitian
    grid = build_grid(8.0, 16)
    pot = PotentialSpec.gaussian(2.0, 0.7, center=1.0)
    spec = ProblemSpec(grid, 0.0, pot, PS)
    block = fourier_hamiltonian_matrix(spec) - np.diag(scheme_symbol(spec).astype(complex))
    assert_allclose(block, block.conj().T, rtol=0, atol=1e-14)


def test_fourier_matrix_rejects_fd2():
    grid = build_grid(8.0, 16)
    with pytest.raises(ParameterError):
        fourier_hamiltonian_matrix(ProblemSpec(grid, -1.0, PotentialSpec.zero(), FD2))


# ---------------------------------------------------------------- spectral difference


def test_spectral_difference_of_constant_vanishes():
    grid = build_grid(8.0, 16)
    fh = SpectralFunction(grid, np.full(16, 2.0 + 1.0j))
    assert_allclose(spectral_difference(fh).values, 0.0, atol=1e-14)


def test_spectral_difference_wraps_at_lowest_index():
    grid = build_grid(8.0, 16)
    v = np.zeros(16, dtype=complex)
    v[-1] = 1.0  # coefficient at the highest index n = N/2
    out = spectral_difference(SpectralFunction(grid, v)).values
    assert_allclose(out[0], -1.0 / grid.dk, rtol=1e-15)  # k_{-N/2+1} sees it as its left neighbor
    assert_allclose(out[-1], 1.0 / grid.dk, rtol=1e-15)


def test_spectral_product_rule_exact_both_forms():
    rng = np.random.default_rng(13)
    grid = build_grid(20.0, 64)
    for _ in range(50):
        fh = SpectralFunction(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        gh = SpectralFunction(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        prod = SpectralFunction(grid, fh.values * gh.values)
        lhs = spectral_difference(prod).values
        rhs_a = spectral_difference(fh).values * np.roll(gh.values, 1) \
            + fh.values * spectral_difference(gh).values
        rhs_b = spectral_difference(fh).values * gh.values \
            + np.roll(fh.values, 1) * spectral_difference(gh).values
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs_a)) <= 1e-12 * scale
        assert np.max(np.abs(lhs - rhs_b)) <= 1e-12 * scale


def test_spectral_difference_commutes_with_convolution():
    rng = np.random.default_rng(14)
    grid = build_grid(20.0, 64)
    N = grid.N
    pos = np.mod(np.arange(N)[:, None] - np.arange(N)[None, :] + N // 2 - 1, N)
    for _ in range(20):
        Vh = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        gh = SpectralFunction(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        conv = Vh[pos]
        lhs = spectral_difference(SpectralFunction(grid, conv @ gh.values)).values
        rhs = conv @ spectral_difference(gh).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_spectral_difference_is_linear():
    rng = np.random.default_rng(15)
    grid = build_grid(8.0, 16)
    a = SpectralFunction(grid, rng.standard_normal(16) + 0j)
    b = SpectralFunction(grid, rng.standard_normal(16) + 0j)
    combo = SpectralFunction(grid, 2.0 * a.values - 3.0 * b.values)
    lhs = spectral_difference(combo).values
    rhs = 2.0 * spectral_difference(a).values - 3.0 * spectral_difference(b).values
    assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_spectral_difference_order_bounds():
    grid = build_grid(8.0, 16)
    fh = SpectralFunction(grid, np.zeros(16))
    with pytest.raises(ParameterError):
        spectral_difference(fh, 0)
    with pytest.raises(ParameterError):
        spectral_difference(fh, 16)
    spectral_difference(fh, 15)


def test_mps_symbol_smooth_across_wrap():
    # second differences of h stay O(1) across the periodic edge; k^2 has a
    # kink there whose second difference blows up like kc/dk
    grid = build_grid(40.0, 800)
    spec = ProblemSpec(grid, -1.0, PotentialSpec.zero(), MPS)
    d2h = spectral_difference(SpectralFunction(grid, h_on_grid(grid, spec.mollifier) + 0j), 2)
    d2k = spectral_difference(SpectralFunction(grid, grid.k**2 + 0j), 2)
    assert np.max(np.abs(d2h.values)) <= 100.0  # bump-profile constant, kc-independent
    assert np.max(np.abs(d2k.values)) > grid.kc / grid.dk  # kink at the wrap
