"""Green's column and matrix solvers across the three schemes."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from greendecay import (
    FD2,
    MPS,
    PS,
    CapExceeded,
    LatticeFunction,
    ParameterError,
    PotentialSpec,
    ProblemSpec,
    SingularResolvent,
    apply_hamiltonian,
    build_grid,
    closed_form_ghat,
    dft,
    idft,
    periodic_distance,
    solve_green_column,
    solve_green_matrix,
)

ALL_SCHEMES = (FD2, PS, MPS)


def free_problem(scheme, lam=-1.0, L=40.0, N=800):
    return ProblemSpec(build_grid(L, N), lam, PotentialSpec.zero(), scheme)


# ---------------------------------------------------------------- closed forms


def test_closed_form_ps_matches_paper_symbol():
    spec = free_problem(PS)
    gh = closed_form_ghat(spec)
    assert np.max(np.abs(gh.values + 1.0 / (1.0 + spec.grid.k**2))) == 0.0


def test_closed_form_mps():
    from greendecay import h_on_grid

    spec = free_problem(MPS)
    gh = closed_form_ghat(spec)
    h = h_on_grid(spec.grid, spec.mollifier)
    assert np.max(np.abs(gh.values + 1.0 / (1.0 + h))) == 0.0


def test_closed_form_fd2_against_direct_solve():
    # circulant diagonalization oracle: idft of the symbol formula must agree
    # with the periodic tridiagonal solve
    spec = free_problem(FD2)
    gh = closed_form_ghat(spec)
    expected = -1.0 / (1.0 + (4.0 / spec.grid.dx**2) * np.sin(spec.grid.k * spec.grid.dx / 2) ** 2)
    assert_allclose(gh.values, expected, rtol=0, atol=0)
    col = solve_green_column(spec, 0)
    direct = idft(gh).values
    assert np.max(np.abs(col.g.values - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_closed_form_requires_zero_potential():
    grid = build_grid(40.0, 80)
    spec = ProblemSpec(grid, -1.0, PotentialSpec.gaussian(1.0, 0.1), PS)
    with pytest.raises(ParameterError):
        closed_form_ghat(spec)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_singular_lambda_detected(scheme):
    # lam = 0 hits the symbol of every scheme at k = 0
    with pytest.raises(SingularResolvent):
        closed_form_ghat(free_problem(scheme, lam=0.0))


def test_singular_lambda_detected_in_solver():
    with pytest.raises(SingularResolvent):
        solve_green_column(free_problem(PS, lam=0.0, N=64), 0)


# ---------------------------------------------------------------- column solves


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_solver_matches_closed_form_shifted(scheme):
    spec = free_problem(scheme, lam=-2.5, N=400)
    base = idft(closed_form_ghat(spec)).values
    col = solve_green_column(spec, 25)
    expected = np.roll(base, 25)
    assert np.max(np.abs(col.g.values - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_residual_contract(scheme):
    spec = ProblemSpec(build_grid(40.0, 800), -10.0, PotentialSpec.gaussian(10.0, 0.2), scheme)
    col = solve_green_column(spec, 0)
    assert col.residual <= 1e-10
    # independent recomputation of the residual
    rhs = np.zeros(800, dtype=complex)
    rhs[0] = 1.0 / spec.grid.dx
    r = spec.lam * col.g.values - apply_hamiltonian(spec, col.g).values - rhs
    assert np.linalg.norm(r) / np.linalg.norm(rhs) <= 1e-10


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_translation_invariance_free_field(scheme):
    spec = free_problem(scheme, lam=-3.0, N=256)
    g0 = solve_green_column(spec, 0).g.values
    for j in (1, 17, 128, 255):
        gj = solve_green_column(spec, j).g.values
        assert np.max(np.abs(gj - np.roll(g0, j))) <= 1e-12 * np.max(np.abs(g0))


def test_fd_yukawa_second_order_convergence():
    # continuous Green's function of (1 - d^2/dx^2) at lam = -1 is -exp(-|x|)/2
    errors = []
    for N in (1000, 2000, 4000):
        spec = free_problem(FD2, lam=-1.0, N=N)
        col = solve_green_column(spec, 0)
        d = periodic_distance(spec.grid.x, 0.0, spec.grid.L)
        errors.append(np.max(np.abs(col.g.values + np.exp(-d) / 2.0)))
    assert 3.4 <= errors[0] / errors[1] <= 4.6
    assert 3.4 <= errors[1] / errors[2] <= 4.6


def test_complex_lambda_supported():
    spec = free_problem(PS, lam=complex(-1.0, 2.0), N=128)
    col = solve_green_column(spec, 0)
    assert col.residual <= 1e-10
    gh = dft(col.g).values
    assert_allclose(gh, 1.0 / (spec.lam - spec.grid.k**2), rtol=1e-12)


def test_y_index_validated():
    spec = free_problem(FD2, N=64)
    with pytest.raises(ParameterError):
        solve_green_column(spec, 64)
    with pytest.raises(ParameterError):
        solve_green_column(spec, -1)


def test_dense_cap_enforced_for_fourier_column():
    spec = free_problem(PS, N=256)
    with pytest.raises(CapExceeded):
        solve_green_column(spec, 0, dense_cap=128)
    solve_green_column(spec, 0, dense_cap=256)


def _mp_free_mps_column(L, N, lam, i):
    """30-digit direct sum G(x_i) = (1/L) sum_k exp(i k x_i)/(lam - h(k)), theta by mpmath.quad."""
    with mpmath.workdps(30):
        L, lam = mpmath.mpf(L), mpmath.mpf(lam)
        dk = 2 * mpmath.pi / L
        kc = (N // 2) * dk
        x = i * L / N
        bump = lambda t: mpmath.exp(-1 / (1 - t * t))  # noqa: E731
        profile = mpmath.quad(bump, [-1, 1])
        total = mpmath.mpf(0)
        for n in range(N // 2 + 1):  # h is even: n and -n pair up, n = N/2 stands alone
            k = n * dk
            if k <= kc / 2:
                h = k * k
            elif k >= 3 * kc / 4:
                h = kc * kc
            else:
                theta = mpmath.quad(bump, [(k - 5 * kc / 8) / (kc / 8), 1]) / profile
                h = theta * (k * k - kc * kc) + kc * kc
            total += (1 if n in (0, N // 2) else 2) * mpmath.cos(k * x) / (lam - h)
        return total / L


def test_mps_free_column_tail_against_mpmath():
    # C7's free mps column at x = 15 sits at 4.5e-14 of max|G|, where the accuracy
    # of theta shows; a 30-digit sum with the exact cutoff gives 7.18664e-15
    L, N, lam, i15 = 40.0, 2000, -10.0, 750
    col = solve_green_column(free_problem(MPS, lam=lam, L=L, N=N), 0)
    exact = float(_mp_free_mps_column(L, N, lam, i15))
    assert abs(exact) == pytest.approx(7.18664e-15, rel=1e-5)
    assert abs(abs(col.g.values[i15]) - abs(exact)) <= 3e-4 * abs(exact)


# ---------------------------------------------------------------- matrices


def hamiltonian_matrix_real_space(spec):
    N = spec.grid.N
    cols = np.empty((N, N), dtype=complex)
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        cols[:, j] = apply_hamiltonian(spec, LatticeFunction(spec.grid, e)).values
    return cols


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_green_matrix_solves_identity(scheme):
    grid = build_grid(16.0, 64)
    spec = ProblemSpec(grid, -4.0, PotentialSpec.gaussian(2.0, 0.5), scheme)
    G = solve_green_matrix(spec)
    H = hamiltonian_matrix_real_space(spec)
    lhs = (spec.lam * np.eye(64) - H) @ G
    assert np.max(np.abs(lhs - np.eye(64) / grid.dx)) <= 1e-9


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_green_matrix_columns_match_column_solver(scheme):
    grid = build_grid(16.0, 64)
    spec = ProblemSpec(grid, -4.0, PotentialSpec.gaussian(2.0, 0.5), scheme)
    G = solve_green_matrix(spec)
    for j in (0, 13, 63):
        col = solve_green_column(spec, j)
        assert np.max(np.abs(G[:, j] - col.g.values)) <= 1e-10 * np.max(np.abs(col.g.values))


def test_green_matrix_circulant_for_free_field():
    spec = free_problem(PS, lam=-2.0, N=64)
    G = solve_green_matrix(spec)
    first = G[:, 0]
    for j in (1, 30, 63):
        assert_allclose(G[:, j], np.roll(first, j), atol=1e-13 * np.max(np.abs(first)))


def test_green_matrix_real_symmetric_for_real_data():
    grid = build_grid(16.0, 64)
    for scheme in ALL_SCHEMES:
        spec = ProblemSpec(grid, -4.0, PotentialSpec.gaussian(2.0, 0.5), scheme)
        G = solve_green_matrix(spec)
        assert np.max(np.abs(G.imag)) <= 1e-12 * np.max(np.abs(G.real))
        assert_allclose(G, G.T, rtol=0, atol=1e-11 * np.max(np.abs(G)))


def test_green_matrix_negative_diagonal_below_spectrum():
    # resolvent of a nonnegative operator at lam = -10 is negative definite
    grid = build_grid(40.0, 800)
    pot = PotentialSpec.gaussian(10.0, 0.2)
    for scheme in ALL_SCHEMES:
        G = solve_green_matrix(ProblemSpec(grid, -10.0, pot, scheme))
        assert np.all(G.diagonal().real < 0.0)


def test_green_matrix_cap():
    spec = free_problem(FD2, N=256)
    with pytest.raises(CapExceeded):
        solve_green_matrix(spec, dense_cap=255)
