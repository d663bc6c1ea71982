"""Green's column and matrix solvers across the three schemes."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
    scheme_symbol,
    solve_green_column,
    solve_green_matrix,
)
from greendecay.greens import KRYLOV_MAXITER, KRYLOV_RESTART

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


def test_spectral_column_has_no_size_cap():
    # N = 8192 is above the 4096 that caps the dense paths; the column is matrix-free
    spec = ProblemSpec(build_grid(40.0, 8192), -10.0, PotentialSpec.gaussian(10.0, 0.2), MPS)
    col = solve_green_column(spec, 100)
    assert col.solver == "spectral-krylov"
    assert col.residual <= 1e-10


@pytest.mark.parametrize("scheme, potential, solver", [
    (FD2, PotentialSpec.gaussian(10.0, 0.2), "fd2-banded"),
    (PS, PotentialSpec.zero(), "spectral-closed-form"),
    (MPS, PotentialSpec.zero(), "spectral-closed-form"),
    (PS, PotentialSpec.gaussian(10.0, 0.2), "spectral-krylov"),
    (MPS, PotentialSpec.gaussian(10.0, 0.2), "spectral-krylov"),
])
def test_column_records_its_solver(scheme, potential, solver):
    col = solve_green_column(ProblemSpec(build_grid(40.0, 800), -1.0, potential, scheme), 3)
    assert col.solver == solver
    if solver == "spectral-krylov":
        assert 1 <= col.iterations <= KRYLOV_RESTART * KRYLOV_MAXITER
    else:
        assert col.iterations == 0


@pytest.mark.parametrize("scheme", (PS, MPS))
def test_lambda_on_symbol_raises_for_free_column(scheme):
    spec = free_problem(scheme, N=128)
    for j in (70, 90):  # k = 7 dk and k = 27 dk, inside and past the mps transition
        on_symbol = ProblemSpec(spec.grid, scheme_symbol(spec)[j], PotentialSpec.zero(), scheme)
        with pytest.raises(SingularResolvent):
            solve_green_column(on_symbol, 5)


def test_lambda_on_shifted_symbol_raises_for_constant_potential():
    # with V = 2 everywhere lam - H is the Fourier diagonal lam - 2 - s(k), zero at k = 13 dk
    grid = build_grid(40.0, 64)
    lam = scheme_symbol(free_problem(PS, N=64))[40] + 2.0
    spec = ProblemSpec(grid, lam, PotentialSpec.tabulated(np.full(64, 2.0)), PS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularResolvent):
            solve_green_column(spec, 0)


def _dense_fourier_hamiltonian(spec):
    """Hhat_kl = s(k) delta_kl + (1/L) Vhat_{k-l}, Vhat = dx sum_x e^{-i k x} V(x), k - l mod N dk."""
    grid = spec.grid
    n = grid.spectral_indices
    vhat = grid.dx * np.exp(-1j * grid.dk * np.outer(n, grid.x)) @ spec.potential.evaluate(grid)
    shift = np.mod(n[:, None] - n[None, :] + grid.N // 2 - 1, grid.N)  # position of n_k - n_l
    return np.diag(scheme_symbol(spec)) + vhat[shift] / grid.L


def _lambda(kind, value, imag):
    if kind == "negative":
        return complex(-value)
    if kind == "complex":
        return complex(value - 10.0, imag)
    return complex(value)  # real and positive: inside the spectrum of H unless kc is small


@settings(max_examples=60, deadline=None)
@given(
    L=st.floats(8.0, 64.0),
    half_n=st.integers(8, 128),
    scheme=st.sampled_from((PS, MPS)),
    kind=st.sampled_from(("negative", "complex", "inside")),
    value=st.floats(0.5, 60.0),
    imag=st.floats(-5.0, 5.0).filter(lambda t: abs(t) >= 0.05),
    amplitude=st.floats(-10.0, 10.0).filter(lambda a: abs(a) >= 0.1),
    rate=st.floats(0.05, 2.0),
    center=st.floats(0.0, 1.0),
    y_frac=st.floats(0.0, 1.0),
)
def test_krylov_column_matches_dense_solve(L, half_n, scheme, kind, value, imag,
                                           amplitude, rate, center, y_frac):
    assume(L <= 2 * half_n)  # dx <= 1
    grid = build_grid(L, 2 * half_n)
    spec = ProblemSpec(grid, _lambda(kind, value, imag),
                       PotentialSpec.gaussian(amplitude, rate, center * L), scheme)
    Hhat = _dense_fourier_hamiltonian(spec)
    # leave out lam within 1e-2 of an eigenvalue of H, where both paths lose digits
    assume(np.min(np.abs(spec.lam - np.linalg.eigvalsh(Hhat))) >= 1e-2)
    y = min(int(y_frac * grid.N), grid.N - 1)
    col = solve_green_column(spec, y)
    ghat = np.linalg.solve(spec.lam * np.eye(grid.N) - Hhat, np.exp(-1j * grid.k * grid.x[y]))
    ref = np.exp(1j * np.outer(grid.x, grid.k)) @ ghat / grid.L  # g(x) = (1/L) sum_k e^{ikx} ghat_k
    assert col.solver == "spectral-krylov"
    assert np.max(np.abs(col.g.values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("offset", [0.0, 1e-8])
def test_krylov_column_next_to_a_preconditioner_pole(offset):
    # lam = s(k) + mean(V) zeroes one entry of the Fourier diagonal M; an exact
    # 1/M there leaves a residual of 1e-8 at offset 1e-8 (490 steps) and 35 at offset 0
    grid = build_grid(40.0, 256)
    pot = PotentialSpec.gaussian(10.0, 0.2, 3.0)
    lam = grid.k[140] ** 2 + np.mean(pot.evaluate(grid)) + offset
    spec = ProblemSpec(grid, lam, pot, PS)
    Hhat = _dense_fourier_hamiltonian(spec)
    ghat = np.linalg.solve(spec.lam * np.eye(grid.N) - Hhat, np.ones(grid.N))
    ref = np.exp(1j * np.outer(grid.x, grid.k)) @ ghat / grid.L
    col = solve_green_column(spec, 0)
    assert col.residual <= 1e-10
    assert np.max(np.abs(col.g.values - ref)) <= 1e-12 * np.max(np.abs(ref))


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
