"""Decay rates, profiles, moment bounds, and weighted norms."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from greendecay import (
    FD2,
    MPS,
    PS,
    CapExceeded,
    DegenerateProfile,
    GreensColumn,
    LatticeFunction,
    MollifierSpec,
    ParameterError,
    PotentialSpec,
    ProblemSpec,
    SingularResolvent,
    SpectralFunction,
    build_grid,
    decay_profile,
    decay_report,
    fd_characteristic_rate,
    fourier_hamiltonian_matrix,
    h_on_grid,
    h_ratio_sup,
    matrix_2norm,
    measure_gamma,
    mollified_distance,
    moment_check,
    periodic_distance,
    solve_green_column,
    solve_green_matrix,
    spectral_difference,
    weighted_G_h_norm,
    weighted_resolvent_norm,
)


def synthetic_column(grid, values, scheme=FD2, lam=-1.0, y_index=0):
    problem = ProblemSpec(grid, lam, PotentialSpec.zero(), scheme)
    return GreensColumn(problem, y_index, LatticeFunction(grid, values), 0.0)


# ---------------------------------------------------------------- gamma


def test_gamma_on_synthetic_exponential():
    grid = build_grid(40.0, 2000)
    d = periodic_distance(grid.x, 0.0, grid.L)
    col = synthetic_column(grid, np.exp(-2.0 * d))
    assert_allclose(measure_gamma(col, 1.0, 7.0), 2.0, rtol=1e-12)


def test_gamma_scale_invariant():
    grid = build_grid(40.0, 2000)
    d = periodic_distance(grid.x, 0.0, grid.L)
    col_a = synthetic_column(grid, np.exp(-1.3 * d))
    col_b = synthetic_column(grid, -17.0 * np.exp(-1.3 * d))
    assert_allclose(measure_gamma(col_a), measure_gamma(col_b), rtol=1e-13)


def test_gamma_respects_source_offset():
    grid = build_grid(40.0, 2000)
    d = periodic_distance(grid.x, grid.x[300], grid.L)
    col = synthetic_column(grid, np.exp(-2.0 * d), y_index=300)
    assert_allclose(measure_gamma(col, 1.0, 7.0), 2.0, rtol=1e-12)


def test_gamma_fd_free_field_matches_characteristic_root():
    spec = ProblemSpec(build_grid(40.0, 2000), -10.0, PotentialSpec.zero(), FD2)
    col = solve_green_column(spec, 0)
    kappa = fd_characteristic_rate(-10.0, 0.02)
    assert abs(measure_gamma(col, 1.0, 7.0) - kappa) <= 1e-3 * kappa


def test_gamma_validation():
    grid = build_grid(40.0, 2000)
    col = synthetic_column(grid, np.ones(2000))
    with pytest.raises(ParameterError):
        measure_gamma(col, 1.005, 7.0)  # not a grid point
    with pytest.raises(ParameterError):
        measure_gamma(col, 7.0, 1.0)  # reversed
    with pytest.raises(ParameterError):
        measure_gamma(col, 1.0, 21.0)  # beyond L/2


def test_gamma_degenerate_profile():
    grid = build_grid(40.0, 2000)
    v = np.ones(2000)
    v[350] = 0.0  # exact zero at x2 = 7
    col = synthetic_column(grid, v)
    with pytest.raises(DegenerateProfile):
        measure_gamma(col, 1.0, 7.0)


def test_fd_characteristic_rate_values():
    # frozen from acosh(1 + |lam| dx^2 / 2)/dx at lam = -10
    assert_allclose(fd_characteristic_rate(-10.0, 0.02), 3.1617508509214334, rtol=1e-13)
    assert_allclose(fd_characteristic_rate(-10.0, 0.005), 3.1622447207016235, rtol=1e-13)
    assert fd_characteristic_rate(-10.0, 1e-4) == pytest.approx(np.sqrt(10.0), rel=1e-7)


# ---------------------------------------------------------------- profiles


def test_profile_shape_and_grid():
    spec = ProblemSpec(build_grid(40.0, 800), -10.0, PotentialSpec.zero(), FD2)
    prof = decay_profile(solve_green_column(spec, 0))
    assert prof.shape == (401, 2)
    assert prof[0, 0] == 0.0
    assert_allclose(prof[-1, 0], 20.0, rtol=1e-15)
    assert np.all(np.diff(prof[:, 0]) > 0)


def test_profile_even_for_free_field():
    spec = ProblemSpec(build_grid(40.0, 800), -3.0, PotentialSpec.zero(), PS)
    col = solve_green_column(spec, 0)
    g = np.abs(col.g.values)
    assert_allclose(g[1:400], g[-1:-400:-1], rtol=0, atol=1e-12 * g.max())


def test_profile_offset_source():
    spec = ProblemSpec(build_grid(40.0, 800), -3.0, PotentialSpec.zero(), FD2)
    col0 = solve_green_column(spec, 0)
    col7 = solve_green_column(spec, 7)
    assert_allclose(decay_profile(col7)[:, 1], decay_profile(col0)[:, 1], rtol=1e-10)


# ---------------------------------------------------------------- moments


def test_moment_zero_is_parseval():
    spec = ProblemSpec(build_grid(40.0, 800), -1.0, PotentialSpec.zero(), MPS)
    lhs, rhs = moment_check(solve_green_column(spec, 0), 0)
    assert_allclose(lhs, rhs, rtol=1e-12)


def test_moment_bound_holds_for_arbitrary_functions():
    # the bound is stated for any lattice function, not only Green's columns
    rng = np.random.default_rng(21)
    grid = build_grid(40.0, 320)
    for _ in range(200):
        col = synthetic_column(grid, rng.standard_normal(320) + 1j * rng.standard_normal(320))
        for m in (1, 2, 3):
            lhs, rhs = moment_check(col, m)
            assert lhs <= rhs * (1.0 + 1e-10)


def test_moment_bound_random_source_offset():
    rng = np.random.default_rng(22)
    grid = build_grid(40.0, 320)
    col = synthetic_column(grid, rng.standard_normal(320), y_index=123)
    for m in (1, 2):
        lhs, rhs = moment_check(col, m)
        assert lhs <= rhs * (1.0 + 1e-10)


def test_moment_order_cap():
    grid = build_grid(40.0, 320)
    col = synthetic_column(grid, np.ones(320))
    moment_check(col, 20)
    with pytest.raises(ParameterError):
        moment_check(col, 21)  # N/16 = 20


# ---------------------------------------------------------------- h ratio


def test_h_ratio_m1_uniform_over_kc():
    spec = MollifierSpec()
    vals = [h_ratio_sup(build_grid(40.0, int(40 / dx)), spec, 1) for dx in (0.05, 0.02, 0.005)]
    assert max(vals) <= 4.0 * min(vals)
    # the interior |2k - dk| / (1 + k^2) contribution is bounded by 1 + dk
    for grid_dx, val in zip((0.05, 0.02, 0.005), vals):
        grid = build_grid(40.0, int(40 / grid_dx))
        assert val <= 1.0 + grid.dk + 0.2


def test_h_ratio_m1_interior_bound():
    grid = build_grid(40.0, 800)
    inner = np.abs(grid.k) <= grid.kc / 2.0 - grid.dk
    contrib = np.abs(2.0 * grid.k[inner] - grid.dk) / (1.0 + grid.k[inner] ** 2)
    assert np.max(contrib) <= 1.0 + grid.dk


def test_h_ratio_m2_attains_two_at_origin():
    spec = MollifierSpec()
    for dx in (0.05, 0.02):
        grid = build_grid(40.0, int(40 / dx))
        val = h_ratio_sup(grid, spec, 2)
        assert_allclose(val, 2.0, rtol=1e-9)


def test_h_ratio_m2_inner_quarter_is_exactly_two():
    grid = build_grid(40.0, 800)
    spec = MollifierSpec()
    h = h_on_grid(grid, spec)
    d2 = spectral_difference(SpectralFunction(grid, h + 0j), 2).values
    inner = np.abs(grid.k) <= grid.kc / 4.0
    assert_allclose(d2[inner].real, 2.0, atol=1e-9)
    assert np.all(2.0 / (1.0 + h[inner]) <= 2.0)


def test_h_ratio_bounded_by_cutoff_difference_constants():
    # the proof bounds D^m h/(1+h) by combinations of sup |D^j theta|; check the
    # final inequality with the measured difference norms
    spec = MollifierSpec()
    for dx in (0.05, 0.02):
        grid = build_grid(40.0, int(40 / dx))
        from greendecay import theta_on_grid

        th = SpectralFunction(grid, theta_on_grid(grid, spec) + 0j)
        sup = {0: 1.0}
        for j in (1, 2, 3):
            sup[j] = float(np.max(np.abs(spectral_difference(th, j).values)))
        assert h_ratio_sup(grid, spec, 1) <= 32 * sup[1] + 10 * sup[0] + 1e-9
        for m in (2, 3):
            c = 32 * sup[m] + 2 * m * sup[m - 1] + m * (m - 1) * sup[m - 2]
            assert h_ratio_sup(grid, spec, m) <= c + 1e-9


def test_h_ratio_order_cap():
    grid = build_grid(40.0, 320)
    with pytest.raises(ParameterError):
        h_ratio_sup(grid, MollifierSpec(), 21)
    with pytest.raises(ParameterError):
        h_ratio_sup(grid, MollifierSpec(), 0)


# ---------------------------------------------------------------- weighted norms


def test_weighted_norm_gamma_zero_is_resolvent_norm():
    grid = build_grid(40.0, 400)
    spec = ProblemSpec(grid, -10.0, PotentialSpec.zero(), FD2)
    value = weighted_resolvent_norm(spec, 0.0, 0)
    resolvent = solve_green_matrix(spec) * grid.dx
    assert_allclose(value, matrix_2norm(resolvent), rtol=1e-10)
    # free field: the norm is the reciprocal distance from lam to the symbol range
    assert_allclose(value, 1.0 / 10.0, rtol=1e-10)


def test_weighted_norm_negative_control_blows_up_beyond_rate():
    # pushing gamma above the decay rate must break uniformity in L; at L = 160 the weighted
    # sigma_min (2e-20) is far below the rank tolerance, while lam = -10 stays regular
    vals = []
    for L in (40.0, 80.0, 160.0):
        grid = build_grid(L, int(round(L / 0.05)))
        spec = ProblemSpec(grid, -10.0, PotentialSpec.zero(), FD2)
        kappa = fd_characteristic_rate(-10.0, grid.dx)
        vals.append(weighted_resolvent_norm(spec, 1.2 * kappa, 0))
    assert vals[1] >= 100.0 * vals[0]
    assert vals[2] >= 100.0 * vals[1]


def test_weighted_norm_requires_fd2():
    grid = build_grid(40.0, 400)
    with pytest.raises(ParameterError):
        weighted_resolvent_norm(ProblemSpec(grid, -10.0, PotentialSpec.zero(), PS), 1.0, 0)


def dense_weighted_resolvent_norm(spec, gamma, y_index):
    """The weighted resolvent formed entry by entry from the Green's matrix, then a full SVD."""
    grid = spec.grid
    d, _, _ = mollified_distance(grid.x, grid.x[y_index], grid.L)
    weighted = np.exp(gamma * (d[:, None] - d[None, :])) * solve_green_matrix(spec) * grid.dx
    return scipy.linalg.svdvals(weighted)[0]


@pytest.mark.parametrize("y_third", [False, True])
@pytest.mark.parametrize("gamma_factor", [0.0, 0.5, 1.2])
@pytest.mark.parametrize("lam", [-10.0, complex(-1.0, 0.5)])
@pytest.mark.parametrize("potential", [PotentialSpec.zero(), PotentialSpec.gaussian(10.0, 0.2, 3.0)],
                         ids=["zero", "gaussian"])
@pytest.mark.parametrize("N", [128, 400])
def test_weighted_norm_matches_dense_svd(N, potential, lam, gamma_factor, y_third):
    grid = build_grid(40.0, N)
    spec = ProblemSpec(grid, lam, potential, FD2)
    gamma = gamma_factor * fd_characteristic_rate(lam, grid.dx)
    y = N // 3 if y_third else 0
    assert_allclose(weighted_resolvent_norm(spec, gamma, y),
                    dense_weighted_resolvent_norm(spec, gamma, y), rtol=1e-10)


@pytest.mark.parametrize("j", [1, 7, 100])
def test_weighted_norm_singular_on_fd2_symbol(j):
    grid = build_grid(40.0, 400)
    lam = (4.0 / grid.dx ** 2) * np.sin(j * grid.dk * grid.dx / 2.0) ** 2
    spec = ProblemSpec(grid, lam, PotentialSpec.zero(), FD2)
    for gamma in (0.0, 0.5 * fd_characteristic_rate(lam, grid.dx)):
        with pytest.raises(SingularResolvent):
            weighted_resolvent_norm(spec, gamma, 0)


def test_weighted_norm_has_no_size_cap():
    grid = build_grid(160.0, 8192)
    spec = ProblemSpec(grid, -10.0, PotentialSpec.gaussian(10.0, 0.2), FD2)
    value = weighted_resolvent_norm(spec, 0.5 * fd_characteristic_rate(-10.0, grid.dx), 0)
    assert np.isfinite(value) and value > 0.0


def test_weighted_G_h_norm_free_field_oracle():
    # with V = 0 everything diagonalizes: value = max (1+h)/|lam - h|
    grid = build_grid(40.0, 800)
    spec = ProblemSpec(grid, -10.0, PotentialSpec.zero(), MPS)
    res = weighted_G_h_norm(spec)
    h = h_on_grid(grid, spec.mollifier)
    expected = np.max((1.0 + h) / np.abs(spec.lam - h))
    assert_allclose(res.value, expected, rtol=1e-8)
    assert_allclose(res.resolvent_norm, np.max(1.0 / np.abs(spec.lam - h)), rtol=1e-8)
    assert res.value <= res.bound


def test_weighted_G_h_norm_gaussian_satisfies_bound():
    grid = build_grid(40.0, 800)
    spec = ProblemSpec(grid, -10.0, PotentialSpec.gaussian(10.0, 0.2), MPS)
    res = weighted_G_h_norm(spec)
    assert res.value <= res.bound
    assert res.bound == pytest.approx(
        1.0 + res.resolvent_norm * (9.0 + np.sqrt(2 * np.pi) * 10.0), rel=1e-12
    )


def dense_inverse_G_h_norms(spec):
    """(||Ghat (1+h)||, ||Ghat||) through the explicit inverse and two full SVDs."""
    ghat = np.linalg.inv(spec.lam * np.eye(spec.grid.N) - fourier_hamiltonian_matrix(spec))
    h = h_on_grid(spec.grid, spec.mollifier)
    return (scipy.linalg.svdvals(ghat * (1.0 + h)[None, :])[0],
            scipy.linalg.svdvals(ghat)[0])


@pytest.mark.parametrize("lam", [-10.0, -1.0, complex(-1.0, 0.5), complex(30.0, 2.0)])
@pytest.mark.parametrize("L, N", [(40.0, 256), (10.0, 64), (16.0, 128)])
def test_weighted_G_h_norm_matches_dense_inverse(lam, L, N):
    spec = ProblemSpec(build_grid(L, N), lam, PotentialSpec.gaussian(10.0, 0.2, 3.0), MPS)
    res = weighted_G_h_norm(spec)
    value, resolvent_norm = dense_inverse_G_h_norms(spec)
    assert_allclose(res.value, value, rtol=1e-11)
    assert_allclose(res.resolvent_norm, resolvent_norm, rtol=1e-11)
    assert res.value <= res.bound


@pytest.mark.parametrize("L, dx", [(40.0, 0.05), (40.0, 0.025), (80.0, 0.05)])
def test_weighted_G_h_norm_plateau_identity(L, dx):
    # h = kc^2 on |k| >= 3 kc/4: there sigma_min(diag(1+h)^-1 (lam - Hhat)) sits at the plateau
    grid = build_grid(L, int(round(L / dx)))
    pot = PotentialSpec.gaussian(10.0, 0.2)
    lam = -10.0
    res = weighted_G_h_norm(ProblemSpec(grid, lam, pot, MPS))
    plateau = (1.0 + grid.kc ** 2) / abs(lam - grid.kc ** 2 - pot.evaluate(grid).min())
    assert_allclose(res.value, plateau, rtol=1e-12)


def test_weighted_G_h_norm_singular_at_eigenvalue():
    grid = build_grid(40.0, 128)
    pot = PotentialSpec.gaussian(10.0, 0.2)
    mu = scipy.linalg.eigvalsh(fourier_hamiltonian_matrix(ProblemSpec(grid, 0.0, pot, MPS)))
    for j in (0, 40, 127):
        with pytest.raises(SingularResolvent):
            weighted_G_h_norm(ProblemSpec(grid, mu[j], pot, MPS))


def test_weighted_G_h_norm_cap():
    spec = ProblemSpec(build_grid(40.0, 256), -10.0, PotentialSpec.gaussian(10.0, 0.2), MPS)
    with pytest.raises(CapExceeded):
        weighted_G_h_norm(spec, dense_cap=128)
    weighted_G_h_norm(spec, dense_cap=256)


def test_weighted_G_h_norm_requires_mps():
    grid = build_grid(40.0, 400)
    with pytest.raises(ParameterError):
        weighted_G_h_norm(ProblemSpec(grid, -10.0, PotentialSpec.zero(), PS))


# ---------------------------------------------------------------- 2-norm engine


def test_matrix_2norm_methods_agree_random():
    rng = np.random.default_rng(30)
    A = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    a = matrix_2norm(A, method="svd")
    b = matrix_2norm(A, method="lanczos")
    assert abs(a - b) <= 1e-6 * a


def test_matrix_2norm_methods_agree_on_weighted_resolvent():
    grid = build_grid(40.0, 800)
    spec = ProblemSpec(grid, -10.0, PotentialSpec.zero(), FD2)
    resolvent = solve_green_matrix(spec) * grid.dx
    d, _, _ = mollified_distance(grid.x, 0.0, grid.L)
    kappa = fd_characteristic_rate(-10.0, grid.dx)
    W = np.exp(0.5 * kappa * (d[:, None] - d[None, :])) * resolvent
    a = matrix_2norm(W, method="svd")
    b = matrix_2norm(W, method="lanczos")
    assert abs(a - b) <= 1e-6 * a


def test_matrix_2norm_rejects_unknown_method():
    with pytest.raises(ParameterError):
        matrix_2norm(np.eye(4), method="qr")


# ---------------------------------------------------------------- report


def test_decay_report_assembly():
    spec = ProblemSpec(build_grid(40.0, 800), -10.0, PotentialSpec.zero(), FD2)
    col = solve_green_column(spec, 0)
    report = decay_report(col, 1.0, 7.0, moments=(0, 1, 2))
    assert report.profile.shape == (401, 2)
    assert report.moment_table.shape == (3, 3)
    assert np.all(report.moment_table[:, 1] <= report.moment_table[:, 2] * (1 + 1e-10))
    assert report.gamma == measure_gamma(col, 1.0, 7.0)
    assert np.all(report.profile[:, 0] <= 20.0)
