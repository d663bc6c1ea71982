"""Independent checks for the benchmark.

Everything here is built from numpy and scipy alone and never imports the
package under test: the operators, the mollified symbol, the distances and
the norms are coded again from their definitions in the README.

Conventions are the package's: N points on [0, L), dx = L/N, dk = 2 pi/L,
kc = (N/2) dk, forward transform dx * fft, columns solve (lam - H) g = e_y/dx.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from numpy.polynomial.legendre import leggauss

RESIDUAL_TOL = 1e-10  # the package's contract on every returned column
SIGMA = 0.125  # default bump half-width, as a fraction of kc
_NODES, _WEIGHTS = leggauss(128)


class CheckFailed(AssertionError):
    """A program output disagrees with its independent check."""


def expect(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def rel(a, b) -> float:
    """Relative difference |a - b| / |b| (b nonzero)."""
    return float(abs(a - b) / abs(b))


# -- grids, potential, distances ---------------------------------------------


def periodic_distance(x, c, L):
    r = np.mod(np.asarray(x, dtype=float) - c, L)
    return np.minimum(r, L - r)


def gaussian(L, N, amplitude, rate, center):
    """Periodized Gaussian A exp(-rate d(x, c)^2) on the lattice i*L/N."""
    d = periodic_distance(np.arange(N) * (L / N), center, L)
    return amplitude * np.exp(-rate * d * d)


def fft_wavenumbers(L, N):
    """Wavenumbers in numpy FFT order; the Nyquist entry carries -kc (symbols are even)."""
    return np.fft.fftfreq(N, 1.0 / N) * (2.0 * np.pi / L)


def mollified_distance(x, y, L):
    """dmax - sqrt((dmax - sqrt(dt^2 + 1))^2 + 1), dmax = sqrt(L^2/4 + 1), dt periodic."""
    dmax = np.sqrt(L * L / 4.0 + 1.0)
    dt = periodic_distance(x, y, L)
    return dmax - np.sqrt((dmax - np.sqrt(dt * dt + 1.0)) ** 2 + 1.0)


# -- mollified symbol ---------------------------------------------------------


def _bump(t):
    w = 1.0 - t * t
    out = np.zeros_like(t)
    inside = w > 0.0
    out[inside] = np.exp(-1.0 / w[inside])
    return out


def _bump_integral(a, b):
    """Gauss-Legendre integral of exp(-1/(1-t^2)) over [a, b] (arrays), 128 nodes.

    Against a 30-digit mpmath quadrature this is exact to 5e-16 on [-1, 1].
    """
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    t = 0.5 * (b - a) * _NODES + 0.5 * (a + b)
    return 0.5 * (b - a)[..., 0] * (_bump(t) @ _WEIGHTS)


def theta(absk, kc):
    """Cutoff 1_{|k| <= 5kc/8} convolved with the unit-mass bump of half-width kc/8.

    Exactly 1 on |k| <= kc/2 and exactly 0 on |k| >= 3kc/4.  In the band the
    convolution covers [|k| - 5kc/8, kc/8], so theta is the bump's mass to the
    right of t0 = (|k| - 5kc/8)/(kc/8).
    """
    out = np.where(absk <= kc / 2.0, 1.0, 0.0)
    band = (absk > kc / 2.0) & (absk < 0.75 * kc)
    t0 = (absk[band] - 0.625 * kc) / (SIGMA * kc)
    out[band] = _bump_integral(t0, np.ones_like(t0)) / _bump_integral(-1.0, 1.0)
    return out


def mps_symbol(k, kc):
    """h(k) = theta (k^2 - kc^2) + kc^2, evaluated so that both plateaus are exact."""
    absk = np.abs(k)
    h = theta(absk, kc) * (k * k - kc * kc) + kc * kc
    h = np.where(absk <= kc / 2.0, k * k, h)
    h = np.where(absk >= 0.75 * kc, kc * kc, h)
    expect(np.array_equal(h[absk <= kc / 2.0], (k * k)[absk <= kc / 2.0]),
           "oracle symbol is not k^2 on |k| <= kc/2")
    expect(np.all(h[absk >= 0.75 * kc] == kc * kc), "oracle symbol is not kc^2 on |k| >= 3kc/4")
    return h


def theta_midpoint_error() -> float:
    """|theta(5kc/8) - 1/2|: the bump is even, so its CDF at the centre is exactly 1/2."""
    kc = 100.0
    return abs(float(theta(np.array([0.625 * kc]), kc)[0]) - 0.5)


# -- operators and columns ----------------------------------------------------


def fd2_apply(g, L, V):
    """H g = -(g[i+1] - 2 g[i] + g[i-1])/dx^2 + V g on the periodic lattice."""
    dx = L / len(g)
    return -(np.roll(g, -1) - 2.0 * g + np.roll(g, 1)) / (dx * dx) + V * g


def mps_apply(g, L, V, h_fft):
    """H g = IDFT(h DFT g) + V g with h given in FFT order."""
    return np.fft.ifft(h_fft * np.fft.fft(g)) + V * g


def column_residual(g, y, lam, L, apply_h) -> float:
    """||(lam - H) g - e_y/dx|| / ||e_y/dx||, with H applied by the caller's own operator."""
    dx = L / len(g)
    r = lam * g - apply_h(g)
    r[y] -= 1.0 / dx
    return float(np.linalg.norm(r) * dx)


def fd2_column(L, N, lam, V, y=0):
    """fd2 column by a sparse LU of the periodic tridiagonal lam - H (SuperLU)."""
    dx = L / N
    c = 1.0 / (dx * dx)
    i = np.arange(N)
    rows = np.concatenate([i, i, i])
    cols = np.concatenate([i, (i + 1) % N, (i - 1) % N])
    vals = np.concatenate([lam - 2.0 * c - V, np.full(N, c), np.full(N, c)]).astype(complex)
    A = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(N, N))
    rhs = np.zeros(N, dtype=complex)
    rhs[y] = 1.0 / dx
    return scipy.sparse.linalg.spsolve(A, rhs)


def moment_sides(g, y, L, m):
    """Both sides of ||d^m g|| <= (pi/2)^m (2 pi)^-1/2 ||D^m ghat||, d the sawtooth distance."""
    N = len(g)
    dx, dk = L / N, 2.0 * np.pi / L
    off = np.mod(np.arange(N) - y, N) * dx
    d = np.where(off < L / 2.0, off, L - off)
    lhs = np.sqrt(dx * np.sum(np.abs(d ** m * g) ** 2))
    ghat = np.fft.fft(g) * dx  # FFT order is a cyclic shift, and D^m commutes with it
    for _ in range(m):
        ghat = (ghat - np.roll(ghat, 1)) / dk
    rhs = (np.pi / 2.0) ** m / np.sqrt(2.0 * np.pi) * np.sqrt(dk * np.sum(np.abs(ghat) ** 2))
    return float(lhs), float(rhs)


# -- weighted norms -------------------------------------------------------------


def _interleave(N):
    """Order 0, N-1, 1, N-2, ...: nearest neighbours on the ring land within two places."""
    p = np.empty(N, dtype=int)
    p[0::2] = np.arange(N // 2)
    p[1::2] = N - 1 - np.arange(N // 2)
    return p


def _smallest_singular_banded(B):
    """sigma_min of a sparse matrix whose rows and columns are already banded.

    The Hermitian dilation [[0, B], [B^H, 0]] has eigenvalues +-sigma_i; with
    the two blocks interleaved it is banded, and its N-th eigenvalue (0-based,
    ascending) is sigma_min.  No squaring, so the error is eps * ||B||.
    """
    N = B.shape[0]
    B = B.tocoo()
    rows = np.concatenate([2 * B.row, 2 * B.col + 1])
    cols = np.concatenate([2 * B.col + 1, 2 * B.row])
    vals = np.concatenate([B.data, np.conj(B.data)])
    upper = rows <= cols
    rows, cols, vals = rows[upper], cols[upper], vals[upper]
    u = int(np.max(cols - rows))
    ab = np.zeros((u + 1, 2 * N), dtype=complex)
    ab[u + rows - cols, cols] = vals
    ev = scipy.linalg.eig_banded(ab, lower=False, eigvals_only=True,
                                 select="i", select_range=(N, N))
    return float(ev[0])


def fd2_weighted_norm(L, N, lam, V, gamma, y):
    """||e^{gamma d} (lam - H)^{-1} e^{-gamma d}|| = 1 / sigma_min(lam - H_gamma).

    H_gamma = e^{gamma d} H e^{-gamma d} is the conjugated periodic tridiagonal:
    same diagonal, off-diagonals c e^{gamma (d_i - d_j)}.
    """
    dx = L / N
    c = 1.0 / (dx * dx)
    d = mollified_distance(np.arange(N) * dx, y * dx, L)
    i = np.arange(N)
    up, down = (i + 1) % N, (i - 1) % N
    pos = np.empty(N, dtype=int)
    pos[_interleave(N)] = np.arange(N)
    rows = pos[np.concatenate([i, i, i])]
    cols = pos[np.concatenate([i, up, down])]
    vals = np.concatenate([
        lam - 2.0 * c - V,
        c * np.exp(gamma * (d - d[up])),
        c * np.exp(gamma * (d - d[down])),
    ]).astype(complex)
    B = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(N, N))
    return 1.0 / _smallest_singular_banded(B)


def mps_fourier_system(L, N, lam, V):
    """lam - Hhat in canonical order: Hhat_pq = h_p delta_pq + (1/L) Vhat_{n_p - n_q}."""
    dx, dk = L / N, 2.0 * np.pi / L
    n = np.arange(-(N // 2) + 1, N // 2 + 1)
    h = mps_symbol(n * dk, (N // 2) * dk)
    vhat = np.fft.fft(V) * dx  # FFT order: entry m holds index m mod N
    A = -vhat[np.subtract.outer(n, n) % N] / L
    A[np.arange(N), np.arange(N)] += lam - h
    return A, h


def mps_weighted_norms(L, N, lam, V):
    """(||Ghat (1+h)||, a-priori bound, ||Ghat||) for real lam and V.

    A = lam - Hhat is Hermitian, so ||Ghat|| = 1/min|eig A|; and
    (Ghat D)^-1 = D^-1 A with D = diag(1 + h), so ||Ghat D|| = 1/sigma_min(D^-1 A).
    """
    A, h = mps_fourier_system(L, N, lam, V)
    resolvent_norm = 1.0 / float(np.min(np.abs(scipy.linalg.eigvalsh(A))))
    value = 1.0 / float(scipy.linalg.svdvals(A / (1.0 + h)[:, None])[-1])
    bound = 1.0 + resolvent_norm * (abs(1.0 + lam) + np.sqrt(2.0 * np.pi) * float(np.max(np.abs(V))))
    return value, bound, resolvent_norm
