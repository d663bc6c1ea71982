"""Solvers for (lam - H) g = e_y / dx and full discretized Green's matrices.

The fd2 scheme solves the periodic tridiagonal system in O(N) via a rank-one
corner correction of a banded solve.  A ps or mps column is the inverse
transform of e^{-i k x_y} / (lam - s(k)) for V = 0, and otherwise comes from
GMRES with lam - H applied by FFT, O(N log N) per step.  Only the Green's
matrix, itself dense, assembles and factorizes lam - Hhat.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import CapExceeded, ParameterError, SingularResolvent
from .lattice import LatticeFunction, SpectralFunction, _check_index, idft_values, to_fft_order
from .operators import FD2, ProblemSpec, apply_hamiltonian, fourier_hamiltonian_matrix, scheme_symbol

__all__ = [
    "DENSE_CAP_DEFAULT",
    "GreensColumn",
    "closed_form_ghat",
    "solve_green_column",
    "solve_green_matrix",
]

DENSE_CAP_DEFAULT = 4096

# relative residual contract on every returned column
RESIDUAL_TOL = 1e-10

KRYLOV_RTOL = 1e-14  # GMRES on ps/mps columns, see _solve_fourier_krylov
KRYLOV_RESTART = 64  # most solves end within the first cycle
KRYLOV_MAXITER = 8  # restart cycles
PRECOND_FLOOR = 0.1  # fraction of max|V - mean(V)|


@dataclass(frozen=True, eq=False)
class GreensColumn:
    """One column g of the Green's function, (lam - H) g = e_y / dx.

    residual is ||(lam - H) g - e_y/dx||_2 / ||e_y/dx||_2, measured through the
    matrix-free operator application (independent of the solve path).  solver
    is "fd2-banded", "spectral-closed-form" or "spectral-krylov" (None for a
    column built by hand); iterations counts GMRES steps, 0 on direct paths.
    """

    problem: ProblemSpec
    y_index: int
    g: LatticeFunction
    residual: float
    solver: str | None = None
    iterations: int = 0


def closed_form_ghat(spec: ProblemSpec) -> SpectralFunction:
    """Fourier coefficients ghat_k = 1/(lam - s(k)) of the free Green's column at y=0.

    Requires a zero potential; each scheme contributes its own symbol s.
    """
    if not spec.potential.is_zero():
        raise ParameterError("closed_form_ghat requires a zero potential")
    sym = scheme_symbol(spec)
    denom = spec.lam - sym
    if np.min(np.abs(denom)) < 1e-14 * (1.0 + abs(spec.lam)):
        raise SingularResolvent(
            f"lam = {spec.lam} collides with the {spec.scheme} symbol on the grid"
        )
    return SpectralFunction(spec.grid, 1.0 / denom)


def _delta_rhs(spec: ProblemSpec, y_index: int) -> np.ndarray:
    rhs = np.zeros(spec.grid.N, dtype=complex)
    rhs[y_index] = 1.0 / spec.grid.dx
    return rhs


def _fd_banded_parts(spec: ProblemSpec):
    """Banded interior of lam - H for fd2 plus the Sherman-Morrison corner data.

    lam - H = lam + Lap - V has diagonal a_i = lam - 2/dx^2 - V_i, constant
    off-diagonals c = 1/dx^2, and corner entries c from periodicity.  Writing
    the corner part as u v^T leaves a plain tridiagonal T.
    """
    grid = spec.grid
    N = grid.N
    c = 1.0 / grid.dx ** 2
    a = spec.lam - 2.0 * c - spec.potential.evaluate(grid)
    pivot = -a[0]
    if pivot == 0:
        pivot = c  # any nonzero choice is valid; a[0] = 0 only for exotic lam, V
    ab = np.zeros((3, N), dtype=complex)
    ab[0, 1:] = c
    ab[1] = a
    ab[1, 0] = a[0] - pivot
    ab[1, -1] = a[-1] - c * c / pivot
    ab[2, :-1] = c
    u = np.zeros(N, dtype=complex)
    v = np.zeros(N, dtype=complex)
    u[0], u[-1] = pivot, c
    v[0], v[-1] = 1.0, c / pivot
    return ab, u, v


def _solve_fd(spec: ProblemSpec, rhs: np.ndarray) -> np.ndarray:
    """Periodic tridiagonal solve; rhs may be a vector or a matrix of columns."""
    ab, u, v = _fd_banded_parts(spec)
    try:
        z = scipy.linalg.solve_banded((1, 1), ab, rhs)
        q = scipy.linalg.solve_banded((1, 1), ab, u)
    except scipy.linalg.LinAlgError as err:
        raise SingularResolvent(f"banded factorization failed: {err}") from None
    denom = 1.0 + v @ q
    if abs(denom) < 1e-14 * (1.0 + np.linalg.norm(q)):
        raise SingularResolvent("corner correction is singular; lam is not in the resolvent set")
    if rhs.ndim == 1:
        return z - q * ((v @ z) / denom)
    return z - np.outer(q, (v @ z) / denom)


def _check_dense_cap(N: int, dense_cap: int) -> None:
    if N > dense_cap:
        raise CapExceeded(
            f"dense path needs N = {N} <= dense_cap = {dense_cap}; "
            "raise the cap explicitly to acknowledge the memory cost"
        )


def _solve_fourier_krylov(spec: ProblemSpec, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """ps/mps (lam - H) g = rhs by right-preconditioned GMRES; returns g and the step count.

    lam - H = M - W: M = lam - s(k) - mean(V) is diagonal in Fourier space and
    W = V - mean(V) multiplies.  GMRES solves (lam - H) P z = rhs, minimizing
    the true residual, and g = P z; a step costs three FFTs.  P is 1/M with |M|
    floored at PRECOND_FLOOR * max|W|, so a lam next to some s(k) + mean(V)
    cannot blow it up.
    """
    V = spec.potential.evaluate(spec.grid)
    W = V - V.mean()
    m = to_fft_order(spec.lam - scheme_symbol(spec) - V.mean(), V.size)
    floor = PRECOND_FLOOR * np.max(np.abs(W))
    m_pre = np.where(np.abs(m) < floor, floor, m)
    if not np.all(m_pre):  # V is constant, so lam - H = M, and M has a zero
        raise SingularResolvent(f"lam - mean(V) = {spec.lam - V.mean()} is on the {spec.scheme} symbol")

    def apply(z):  # (lam - H) P z
        u = np.fft.fft(z) / m_pre
        return np.fft.ifft(m * u) - W * np.fft.ifft(u)

    steps = []
    op = scipy.sparse.linalg.LinearOperator((V.size, V.size), matvec=apply, dtype=complex)
    z, _ = scipy.sparse.linalg.gmres(op, rhs, rtol=KRYLOV_RTOL, restart=KRYLOV_RESTART,
                                     maxiter=KRYLOV_MAXITER, callback=steps.append,
                                     callback_type="pr_norm")
    return np.fft.ifft(np.fft.fft(z) / m_pre), len(steps)


def _column_residual(spec: ProblemSpec, g: np.ndarray, y_index: int) -> float:
    rhs = _delta_rhs(spec, y_index)
    r = spec.lam * g - apply_hamiltonian(spec, LatticeFunction(spec.grid, g)).values - rhs
    return float(np.linalg.norm(r) / np.linalg.norm(rhs))


def solve_green_column(spec: ProblemSpec, y_index: int) -> GreensColumn:
    """Solve (lam - H) g = e_y / dx for one source index y.

    fd2 takes the banded solve; ps and mps the closed form when V = 0 and
    matrix-free GMRES otherwise.  The column carries its measured relative
    residual, which must be below 1e-10; otherwise lam is treated as
    numerically outside the resolvent set and SingularResolvent is raised.
    """
    y_index = _check_index(spec.grid, y_index)
    grid = spec.grid
    iterations = 0
    if spec.scheme == FD2:
        solver, g = "fd2-banded", _solve_fd(spec, _delta_rhs(spec, y_index))
    elif spec.potential.is_zero():
        solver = "spectral-closed-form"
        g = idft_values(grid, closed_form_ghat(spec).values * np.exp(-1j * grid.k * grid.x[y_index]))
    else:
        solver = "spectral-krylov"
        g, iterations = _solve_fourier_krylov(spec, _delta_rhs(spec, y_index))
    residual = _column_residual(spec, g, y_index)
    if not residual <= RESIDUAL_TOL:
        raise SingularResolvent(
            f"solve left relative residual {residual:.3e} > {RESIDUAL_TOL:.0e}; "
            "lam is numerically singular for this discretization"
        )
    return GreensColumn(spec, y_index, LatticeFunction(grid, g), residual, solver, iterations)


def solve_green_matrix(spec: ProblemSpec, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Full Green's matrix G with (lam - H) G = I / dx; column j is the y=j column.

    One factorization serves all N right-hand sides.  Every scheme's matrix
    path is capped at dense_cap because the result itself is dense N x N.
    """
    grid = spec.grid
    _check_dense_cap(grid.N, dense_cap)
    if spec.scheme == FD2:
        return _solve_fd(spec, np.eye(grid.N, dtype=complex) / grid.dx)
    A = -fourier_hamiltonian_matrix(spec)  # lam - Hhat
    A[np.arange(grid.N), np.arange(grid.N)] += spec.lam
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(A)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as err:
        raise SingularResolvent(f"dense factorization failed: {err}") from None
    # DFT of e_y/dx for every y at once: bhat[k, y] = exp(-i k x_y)
    bhat = np.exp(-1j * np.outer(grid.k, grid.x))
    return idft_values(grid, scipy.linalg.lu_solve(lu, bhat))
