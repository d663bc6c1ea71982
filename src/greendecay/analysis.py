"""Decay measurement and numerical verification of the decay estimates.

Two distance functions coexist on purpose: the piecewise-linear d(x, y)
(x-offset on [0, L/2], reflected on [L/2, L)) that enters the moment bounds,
and the twice-differentiable mollified distance that enters the weighted
resolvent norms.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import DegenerateProfile, ParameterError, SingularResolvent
from .greens import DENSE_CAP_DEFAULT, GreensColumn, _assemble_fourier_system, solve_green_matrix
from .lattice import GridSpec, SpectralFunction, _check_index, dft_values, mollified_distance
from .mollifier import MollifierSpec, h_on_grid
from .operators import FD2, MPS, ProblemSpec, spectral_difference

__all__ = [
    "DecayReport",
    "decay_profile",
    "decay_report",
    "fd_characteristic_rate",
    "h_ratio_sup",
    "matrix_2norm",
    "measure_gamma",
    "moment_check",
    "weighted_resolvent_norm",
    "weighted_G_h_norm",
    "WeightedHNorm",
]

SVD_MAX_N = 1024


@dataclass(frozen=True, eq=False)
class DecayReport:
    """Bundle of decay diagnostics for one Green's column."""

    gamma: float
    x1: float
    x2: float
    profile: np.ndarray  # (npts, 2) columns: x offset in [0, L/2], |G|
    moment_table: np.ndarray  # (nm, 3) columns: m, lhs, rhs


def fd_characteristic_rate(lam: complex, dx: float) -> float:
    """Exact decay rate of the free fd2 Green's column: acosh(1 + |lam| dx^2/2)/dx.

    Follows from the characteristic equation 2 cosh(kappa dx) - 2 = |lam| dx^2
    of the three-point stencil; tends to sqrt(|lam|) as dx -> 0.
    """
    return float(np.arccosh(1.0 + abs(lam) * dx * dx / 2.0) / dx)


def _offset_index(grid: GridSpec, x: float, name: str) -> int:
    steps = x / grid.dx
    i = int(round(steps))
    if abs(steps - i) > 1e-9 * max(1.0, abs(steps)):
        raise ParameterError(f"{name} = {x} is not a grid point (dx = {grid.dx})")
    return i


def measure_gamma(col: GreensColumn, x1: float = 1.0, x2: float = 7.0) -> float:
    """Two-point exponential decay rate -(log|G(x2)| - log|G(x1)|)/(x2 - x1).

    x1 and x2 are offsets from the source, must be grid points with
    0 < x1 < x2 <= L/2, and are read from the column magnitudes.  Only fd2
    columns are sign-definite (for real lam < min V, lam - H is minus an
    M-matrix and the column is negative); ps and mps columns can change sign,
    and a rate taken across a sign change reads a value near a node, not a
    decay rate.  A small gamma flags sub-exponential decay.
    """
    grid = col.problem.grid
    i1 = _offset_index(grid, x1, "x1")
    i2 = _offset_index(grid, x2, "x2")
    if not 0 < i1 < i2 <= grid.N // 2:
        raise ParameterError(f"need 0 < x1 < x2 <= L/2, got x1={x1}, x2={x2}")
    g = col.g.values
    a1 = abs(g[(col.y_index + i1) % grid.N])
    a2 = abs(g[(col.y_index + i2) % grid.N])
    if a1 == 0.0 or a2 == 0.0:
        raise DegenerateProfile("Green's column magnitude underflowed to zero at x1 or x2")
    return float(-(np.log(a2) - np.log(a1)) / (x2 - x1))


def decay_profile(col: GreensColumn) -> np.ndarray:
    """(x, |G(x + y, y)|) for offsets x on the half interval [0, L/2], ascending.

    Returns an (N/2 + 1, 2) array ready for CSV emission.
    """
    grid = col.problem.grid
    idx = (col.y_index + np.arange(grid.N // 2 + 1)) % grid.N
    xs = np.arange(grid.N // 2 + 1) * grid.dx
    return np.column_stack((xs, np.abs(col.g.values[idx])))


def _sawtooth_distance(grid: GridSpec, y_index: int) -> np.ndarray:
    """Piecewise-linear distance from the source: offset on [0, L/2), L-offset after."""
    off = np.remainder(np.arange(grid.N) - y_index, grid.N) * grid.dx
    return np.where(off < grid.L / 2.0, off, grid.L - off)


def moment_check(col: GreensColumn, m: int) -> tuple[float, float]:
    """Both sides of the m-th moment bound ||d^m g||_2 <= (pi/2)^m (2 pi)^{-1/2} ||D^m ghat||_2.

    m = 0 reduces to Parseval (lhs = rhs).  m may not exceed N/16, the range
    where the mollified-symbol difference bounds are available.
    """
    grid = col.problem.grid
    if not 0 <= m <= grid.N // 16:
        raise ParameterError(f"moment order m must satisfy 0 <= m <= N/16 = {grid.N // 16}")
    d = _sawtooth_distance(grid, col.y_index)
    lhs = float(np.sqrt(grid.dx * np.sum(np.abs(d ** m * col.g.values) ** 2)))
    ghat = SpectralFunction(grid, dft_values(grid, col.g.values))
    if m > 0:
        ghat = spectral_difference(ghat, m)
    rhs_norm = float(np.sqrt(grid.dk * np.sum(np.abs(ghat.values) ** 2)))
    rhs = (np.pi / 2.0) ** m / np.sqrt(2.0 * np.pi) * rhs_norm
    return lhs, rhs


def h_ratio_sup(grid: GridSpec, spec: MollifierSpec, m: int) -> float:
    """sup over K of |D^m h| / (1 + h) for the mollified symbol, m <= N/16."""
    if not 1 <= m <= grid.N // 16:
        raise ParameterError(f"order m must satisfy 1 <= m <= N/16 = {grid.N // 16}")
    h = h_on_grid(grid, spec)
    diff = spectral_difference(SpectralFunction(grid, h.astype(complex)), m).values
    return float(np.max(np.abs(diff) / (1.0 + h)))


def _lanczos_2norm(A: np.ndarray, seed: int = 142) -> float:
    n = min(A.shape)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    s = scipy.sparse.linalg.svds(
        A, k=1, which="LM", tol=1e-6, ncv=min(64, n - 1), v0=v0,
        maxiter=60, return_singular_vectors=False,
    )
    return float(s[0])


def matrix_2norm(A: np.ndarray, method: str = "auto") -> float:
    """Spectral norm: full SVD up to N = 1024, Lanczos (ARPACK svds) above.

    Plain power iteration on the Gram operator stalls on these weighted
    resolvents (their top singular values are nearly degenerate), so the
    large-N route uses a Krylov method with a deterministic start vector and
    falls back to the full SVD if the spectrum defeats ARPACK too.
    """
    if method == "auto":
        method = "svd" if max(A.shape) <= SVD_MAX_N else "lanczos"
    if method == "svd":
        return float(scipy.linalg.svdvals(A)[0])
    if method == "lanczos":
        try:
            return _lanczos_2norm(A)
        except scipy.sparse.linalg.ArpackError:
            return float(scipy.linalg.svdvals(A)[0])
    raise ParameterError(f"unknown 2-norm method {method!r}")


def weighted_resolvent_norm(
    spec: ProblemSpec,
    gamma: float,
    y_index: int = 0,
    dense_cap: int = DENSE_CAP_DEFAULT,
) -> float:
    """|| exp(gamma d(., y)) (lam - H)^{-1} exp(-gamma d(., y)) ||_2 for the fd2 scheme.

    d is the mollified distance; boundedness of this norm uniformly in L and
    dx (for gamma below the decay rate) is the discrete Combes-Thomas
    estimate.  gamma defaults are the caller's business; kappa/2 with kappa
    from fd_characteristic_rate stays safely inside the admissible range.
    """
    if spec.scheme != FD2:
        raise ParameterError("weighted_resolvent_norm is defined for the fd2 scheme")
    if gamma < 0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    grid = spec.grid
    resolvent = solve_green_matrix(spec, dense_cap=dense_cap) * grid.dx
    d, _, _ = mollified_distance(grid.x, grid.x[_check_index(grid, y_index)], grid.L)
    weighted = np.exp(gamma * (d[:, None] - d[None, :])) * resolvent
    return matrix_2norm(weighted)


class WeightedHNorm(NamedTuple):
    """||Ghat (1 + h)||_2 together with its a-priori bound and ||Ghat||_2."""

    value: float
    bound: float
    resolvent_norm: float


def weighted_G_h_norm(spec: ProblemSpec, dense_cap: int = DENSE_CAP_DEFAULT) -> WeightedHNorm:
    """2-norm of Ghat (1 + h) = (lam - Hhat)^{-1} diag(1 + h) for the mps scheme.

    Also returns the a-priori bound 1 + ||Ghat||_2 (|1 + lam| + sqrt(2 pi)
    ||V||_inf), which the computed value must never exceed, and ||Ghat||_2
    itself.  Both norms are read from A = lam - Hhat without inverting it.
    V is real, so Hhat is Hermitian and A is normal: ||Ghat||_2 is
    1/min|lam - mu| over the eigenvalues mu of Hhat, for complex lam too.
    And (Ghat D)^{-1} = D^{-1} A with D = diag(1 + h), so ||Ghat D||_2 is
    1/sigma_min(D^{-1} A).
    """
    if spec.scheme != MPS:
        raise ParameterError("weighted_G_h_norm is defined for the mps scheme")
    grid = spec.grid
    N = grid.N
    A = _assemble_fourier_system(spec, dense_cap)
    hhat = -A
    hhat[np.arange(N), np.arange(N)] += spec.lam
    # LAPACK gets the transposes, Fortran-ordered views it overwrites without a copy;
    # the transpose of Hhat is Hermitian with the same eigenvalues
    dist = np.abs(spec.lam - scipy.linalg.eigvalsh(hhat.T, overwrite_a=True))
    # the rank tolerance of numpy.linalg.matrix_rank, applied to the singular values of A
    if dist.min() <= N * np.finfo(float).eps * dist.max():
        raise SingularResolvent(f"lam = {spec.lam} is an eigenvalue of the mps operator")
    resolvent_norm = 1.0 / float(dist.min())
    A /= (1.0 + h_on_grid(grid, spec.mollifier))[:, None]
    value = 1.0 / float(scipy.linalg.svdvals(A.T, overwrite_a=True)[-1])
    vmax = float(np.max(np.abs(spec.potential.evaluate(grid))))
    bound = 1.0 + resolvent_norm * (abs(1.0 + spec.lam) + np.sqrt(2.0 * np.pi) * vmax)
    return WeightedHNorm(value, bound, resolvent_norm)


def decay_report(
    col: GreensColumn,
    x1: float = 1.0,
    x2: float = 7.0,
    moments: tuple[int, ...] = (),
) -> DecayReport:
    """Assemble gamma, the half-interval profile, and any moment rows."""
    table = np.array(
        [(m,) + moment_check(col, m) for m in moments], dtype=float
    ).reshape(-1, 3)
    return DecayReport(
        gamma=measure_gamma(col, x1, x2),
        x1=x1,
        x2=x2,
        profile=decay_profile(col),
        moment_table=table,
    )
