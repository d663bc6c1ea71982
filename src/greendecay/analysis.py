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
from .greens import DENSE_CAP_DEFAULT, GreensColumn, _check_dense_cap
from .lattice import GridSpec, SpectralFunction, _check_index, dft_values, mollified_distance, to_fft_order
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
    """Spectral norm of a dense matrix: full SVD up to N = 1024, Lanczos (ARPACK svds) above.

    The Lanczos route has a deterministic start vector and falls back to the
    full SVD if ARPACK fails.  The weighted-norm verifiers no longer call it.
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


def _conjugated_sigma_min(spec: ProblemSpec, weight: np.ndarray) -> tuple[float, float]:
    """sigma_min(B) and ||B||_inf for the fd2 B = E (lam - H) E^{-1}, E = diag(e^weight).

    B is periodic tridiagonal, real when lam is: diagonal lam - 2c - V with
    c = 1/dx^2, off-diagonals c e^{weight_i - weight_j}.  One sparse LU of B
    serves Lanczos on B^{-1} B^{-H}, whose top eigenvalue is sigma_min(B)^-2.
    """
    grid = spec.grid
    c = 1.0 / grid.dx ** 2
    i = np.arange(grid.N)
    up = np.roll(i, -1)
    lam = spec.lam if spec.lam.imag else spec.lam.real
    entries = np.concatenate((lam - 2.0 * c - spec.potential.evaluate(grid),
                              c * np.exp(weight - weight[up]), c * np.exp(weight[up] - weight)))
    B = scipy.sparse.csc_matrix((entries, (np.r_[i, i, up], np.r_[i, up, i])), shape=(grid.N, grid.N))
    norm_inf = float(abs(B).sum(axis=1).max())
    try:
        lu = scipy.sparse.linalg.splu(B)
    except RuntimeError:  # an exactly zero pivot
        return 0.0, norm_inf
    op = scipy.sparse.linalg.LinearOperator(B.shape, lambda x: lu.solve(lu.solve(x, trans="H")),
                                            dtype=B.dtype)
    v0 = np.random.default_rng(142).standard_normal(grid.N)
    top = scipy.sparse.linalg.eigsh(op, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)[0]
    return float(1.0 / np.sqrt(top)), norm_inf


def weighted_resolvent_norm(spec: ProblemSpec, gamma: float, y_index: int = 0) -> float:
    """|| exp(gamma d(., y)) (lam - H)^{-1} exp(-gamma d(., y)) ||_2 for the fd2 scheme.

    d is the mollified distance; boundedness of this norm uniformly in L and
    dx (for gamma below the decay rate) is the discrete Combes-Thomas
    estimate.  gamma defaults are the caller's business; kappa/2 with kappa
    from fd_characteristic_rate stays safely inside the admissible range.
    The weighted resolvent is B^{-1} with B = E (lam - H) E^{-1} and E =
    diag(e^{gamma d}), so the norm is 1/sigma_min(B), from a sparse LU of B.
    """
    if spec.scheme != FD2:
        raise ParameterError("weighted_resolvent_norm is defined for the fd2 scheme")
    if gamma < 0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    grid = spec.grid
    d, _, _ = mollified_distance(grid.x, grid.x[_check_index(grid, y_index)], grid.L)
    sigma, norm_inf = _conjugated_sigma_min(spec, gamma * d)
    # rank tolerance on lam - H, with ||B||_inf >= ||lam - H||_2 for sigma_max.  B^{-1} is similar
    # to the normal (lam - H)^{-1}, so dist(lam, spec H) >= sigma: only a small sigma needs gamma = 0
    tol = grid.N * np.finfo(float).eps * norm_inf
    if not sigma > tol and not _conjugated_sigma_min(spec, np.zeros_like(d))[0] > tol:
        raise SingularResolvent(f"lam = {spec.lam} is an eigenvalue of the fd2 operator")
    return 1.0 / sigma


class WeightedHNorm(NamedTuple):
    """||Ghat (1 + h)||_2 together with its a-priori bound and ||Ghat||_2."""

    value: float
    bound: float
    resolvent_norm: float


def weighted_G_h_norm(spec: ProblemSpec, dense_cap: int = DENSE_CAP_DEFAULT) -> WeightedHNorm:
    """2-norm of Ghat (1 + h) = (lam - Hhat)^{-1} diag(1 + h) for the mps scheme.

    Also returns the a-priori bound 1 + ||Ghat||_2 (|1 + lam| + sqrt(2 pi)
    ||V||_inf), which the computed value must never exceed, and ||Ghat||_2
    itself.  Both are read in the position basis, where the unitary DFT carries
    Hhat to the real symmetric H = C_h + diag(V), with C_s = circulant(ifft(s))
    for an even symbol s.  So ||Ghat||_2 = 1/min|lam - eigvalsh(H)|, and
    diag(1 + h)^{-1} becomes C_w, w = 1/(1 + h), so ||Ghat (1 + h)||_2 =
    1/sigma_min(C_w (lam - H)); both matrices are real for real lam.
    """
    if spec.scheme != MPS:
        raise ParameterError("weighted_G_h_norm is defined for the mps scheme")
    grid = spec.grid
    N = grid.N
    _check_dense_cap(N, dense_cap)
    lam = spec.lam if spec.lam.imag else spec.lam.real
    h = to_fft_order(h_on_grid(grid, spec.mollifier), N)
    V = spec.potential.evaluate(grid)
    H = scipy.linalg.circulant(np.fft.ifft(h).real)
    H[np.arange(N), np.arange(N)] += V
    # LAPACK gets H.T, a Fortran-ordered view of the symmetric H it overwrites without a copy
    dist = np.abs(lam - scipy.linalg.eigvalsh(H.T, overwrite_a=True))
    # the rank tolerance of numpy.linalg.matrix_rank, applied to the singular values of lam - H
    if dist.min() <= N * np.finfo(float).eps * dist.max():
        raise SingularResolvent(f"lam = {spec.lam} is an eigenvalue of the mps operator")
    resolvent_norm = 1.0 / float(dist.min())
    w = 1.0 / (1.0 + h)
    # (lam - H) C_w, the transpose of C_w (lam - H), with C_h C_w = C_{h w}
    AC = (lam - V)[:, None] * scipy.linalg.circulant(np.fft.ifft(w).real)
    AC -= scipy.linalg.circulant(np.fft.ifft(h * w).real)
    value = 1.0 / float(scipy.linalg.svdvals(AC.T, overwrite_a=True)[-1])
    bound = 1.0 + resolvent_norm * (abs(1.0 + spec.lam) + np.sqrt(2.0 * np.pi) * float(np.max(np.abs(V))))
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
