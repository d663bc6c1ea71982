"""Periodic real-space lattice, Fourier grid, discrete transforms, and distances.

Conventions (used everywhere downstream):

* real lattice  X = {i*dx, i = 0..N-1},  dx = L/N
* Fourier grid  K = {n*dk, n = -N/2+1..N/2},  dk = 2*pi/L, stored with n ascending
* forward transform   fh_k = dx * sum_x exp(-i k x) f(x)
* inverse transform   f(x) = (1/L) * sum_k exp(i k x) fh_k
* norms  ||f||_{L2(X)}^2 = dx * sum |f|^2,  ||fh||_{L2(K)}^2 = dk * sum |fh|^2

With these normalizations Parseval reads ||fh||_2^2 = 2*pi*||f||_2^2.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError

__all__ = [
    "GridSpec",
    "LatticeFunction",
    "SpectralFunction",
    "build_grid",
    "dft",
    "idft",
    "norm",
    "periodic_distance",
    "mollified_distance",
]


def _readonly(a):
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _check_index(grid: "GridSpec", y_index: int) -> int:
    if not 0 <= y_index < grid.N:
        raise ParameterError(f"y_index must be in [0, {grid.N}), got {y_index}")
    return int(y_index)


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid with N equispaced points on [0, L).

    Requires finite L >= 1, N even and >= 4, and dx = L/N <= 1 (so the Fourier
    edge kc = pi/dx is at least pi).
    """

    L: float
    N: int

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)):
            raise ParameterError(f"N must be an integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "L", float(self.L))
        if self.N < 4 or self.N % 2 != 0:
            raise ParameterError(f"N must be even and >= 4, got {self.N}")
        if not 1.0 <= self.L < np.inf:
            raise ParameterError(f"L must be finite and >= 1, got {self.L}")
        if self.L / self.N > 1.0:
            raise ParameterError(
                f"grid spacing dx = L/N = {self.L / self.N} exceeds 1; refine the grid"
            )

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / self.L

    @property
    def kc(self) -> float:
        """Fourier edge pi/dx, computed as (N/2)*dk so that it equals k[-1] exactly."""
        return (self.N // 2) * self.dk

    @cached_property
    def x(self) -> np.ndarray:
        """Lattice points i*dx for i = 0..N-1."""
        return _readonly(np.arange(self.N) * self.dx)

    @cached_property
    def spectral_indices(self) -> np.ndarray:
        """Integer indices n = -N/2+1..N/2 in canonical (ascending) order."""
        return _readonly(np.arange(-(self.N // 2) + 1, self.N // 2 + 1))

    @cached_property
    def k(self) -> np.ndarray:
        """Fourier grid points n*dk in canonical order."""
        return _readonly(self.spectral_indices * self.dk)


def build_grid(L: float, N: int) -> GridSpec:
    """Validate (L, N) and return the grid with all derived spacings."""
    return GridSpec(L, N)


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """Complex-valued samples on the real lattice X."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.N,):
            raise ParameterError(
                f"values must have shape ({self.grid.N},), got {v.shape}"
            )
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Complex-valued samples on the Fourier grid K, stored with n ascending.

    Storage position p holds the coefficient for k = (p - N/2 + 1)*dk; the
    map position -> index is p + (-N/2 + 1), its inverse is n + N/2 - 1.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.N,):
            raise ParameterError(
                f"values must have shape ({self.grid.N},), got {v.shape}"
            )
        object.__setattr__(self, "values", _readonly(v))


# -- canonical order <-> FFT order -------------------------------------------
#
# numpy's fft orders frequencies as n = 0, 1, .., N-1 (mod N); the canonical
# storage is n = -N/2+1 .. N/2.  Position of index n in canonical order is
# (n + N/2 - 1) mod N, hence the two orders differ by a roll of N/2 - 1.
# All four helpers act along axis 0, so an N x M block is handled column by
# column.


def to_fft_order(values: np.ndarray, N: int) -> np.ndarray:
    return np.roll(values, -(N // 2 - 1), axis=0)


def from_fft_order(values: np.ndarray, N: int) -> np.ndarray:
    return np.roll(values, N // 2 - 1, axis=0)


def dft_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Forward transform of raw samples; returns canonical-order coefficients."""
    return from_fft_order(np.fft.fft(values, axis=0) * grid.dx, grid.N)


def idft_values(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform of canonical-order coefficients; returns raw samples."""
    return np.fft.ifft(to_fft_order(coeffs, grid.N), axis=0) / grid.dx


def dft(f: LatticeFunction) -> SpectralFunction:
    """Discrete Fourier transform fh_k = dx * sum_x exp(-i k x) f(x).

    Computed by FFT with the dx scaling applied afterwards; output is in
    canonical (n ascending) order.
    """
    return SpectralFunction(f.grid, dft_values(f.grid, f.values))


def idft(fh: SpectralFunction) -> LatticeFunction:
    """Inverse transform f(x) = (1/L) * sum_k exp(i k x) fh_k."""
    return LatticeFunction(fh.grid, idft_values(fh.grid, fh.values))


def norm(f, kind: str = "l2") -> float:
    """Discrete norm of a LatticeFunction (weight dx) or SpectralFunction (weight dk).

    kind is "l2" or "linf".
    """
    if isinstance(f, LatticeFunction):
        weight = f.grid.dx
    elif isinstance(f, SpectralFunction):
        weight = f.grid.dk
    else:
        raise ParameterError(f"expected a lattice or spectral function, got {type(f)}")
    if kind == "l2":
        return float(np.sqrt(weight * np.sum(np.abs(f.values) ** 2)))
    if kind == "linf":
        return float(np.max(np.abs(f.values)))
    raise ParameterError(f"unknown norm kind {kind!r}")


def periodic_distance(x, y, L: float):
    """Distance on the circle of circumference L: min_k |x - y - L*k|.

    Inputs are reduced modulo L; ties at exactly L/2 return L/2.  Accepts
    scalars or arrays (broadcasting).
    """
    r = np.remainder(np.asarray(x, dtype=float) - y, L)
    d = np.minimum(r, L - r)
    if d.ndim == 0:
        return float(d)
    return d


def _phi_ratio(t):
    """t / sqrt(t^2 + 1), the building block of the distance derivatives."""
    return t / np.sqrt(t * t + 1.0)


def _phi_ratio_prime(t):
    return (t * t + 1.0) ** -1.5


def mollified_distance(x, y, L: float):
    """Twice-differentiable periodic distance and its first two x-derivatives.

    Returns (value, d1, d2) where

        value = dmax - sqrt((dmax - sqrt(dt^2 + 1))^2 + 1),
        dmax  = sqrt(L^2/4 + 1),  dt = periodic distance,

    and d1, d2 are the closed-form first and second derivatives in x.  The
    first derivative satisfies |d1| <= 1 and the second is bounded uniformly
    in L.  Accepts scalars or arrays; x, y need not be lattice points.
    """
    if not 1.0 <= L < np.inf:
        raise ParameterError(f"L must be finite and >= 1, got {L}")
    dmax = np.sqrt(L * L / 4.0 + 1.0)
    u = np.remainder(np.asarray(x, dtype=float) - y, L)
    # two branches: u in [0, L/2) uses s = u, u in [L/2, L) uses s = L - u
    second = u >= L / 2.0
    s = np.where(second, L - u, u)
    sign = np.where(second, -1.0, 1.0)
    root = np.sqrt(s * s + 1.0)
    inner = dmax - root
    value = dmax - np.sqrt(inner * inner + 1.0)
    d1 = sign * _phi_ratio(s) * _phi_ratio(inner)
    d2 = _phi_ratio_prime(s) * _phi_ratio(inner) - _phi_ratio(s) ** 2 * _phi_ratio_prime(inner)
    if value.ndim == 0:
        return float(value), float(d1), float(d2)
    return value, d1, d2
