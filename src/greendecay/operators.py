"""Difference operators and the three discretized Hamiltonians.

Sign convention: H = -Laplacian + V for every scheme, so the canonical linear
system reads (lam - H) g = lam*g + Lap*g - V*g.  In Fourier variables H acts
as multiplication by the scheme symbol s(k) plus convolution with the
transformed potential:

    fd2:  s(k) = (4/dx^2) sin^2(k dx / 2)
    ps:   s(k) = k^2
    mps:  s(k) = h(k)   (mollified symbol, see mollifier module)
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import circulant

from .errors import ParameterError
from .lattice import (
    GridSpec,
    LatticeFunction,
    SpectralFunction,
    dft_values,
    idft_values,
    periodic_distance,
    _readonly,
)
from .mollifier import MollifierSpec, h_on_grid

__all__ = [
    "FD2",
    "PS",
    "MPS",
    "SCHEMES",
    "PotentialSpec",
    "ProblemSpec",
    "difference",
    "fd_laplacian",
    "fd_symbol",
    "ps_symbol",
    "scheme_symbol",
    "apply_hamiltonian",
    "fourier_hamiltonian_matrix",
    "spectral_difference",
]

FD2 = "fd2"
PS = "ps"
MPS = "mps"
SCHEMES = frozenset((FD2, PS, MPS))


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Potential on the lattice: zero, periodized Gaussian, or tabulated values.

    The Gaussian variant evaluates A * exp(-rate * d(x, center)^2) with d the
    periodic distance, which keeps V smooth on the torus.
    """

    kind: str
    amplitude: float = 0.0
    rate: float = 0.0
    center: float = 0.0
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("zero", "gaussian", "tabulated"):
            raise ParameterError(f"unknown potential kind {self.kind!r}")
        if not np.all(np.isfinite((self.amplitude, self.rate, self.center))):
            raise ParameterError(
                f"potential parameters must be finite, got amplitude={self.amplitude}, "
                f"rate={self.rate}, center={self.center}"
            )
        if self.kind == "tabulated":
            v = np.asarray(self.table)
            if np.iscomplexobj(v) and np.any(v.imag != 0):
                raise ParameterError("tabulated potential must be real-valued")
            v = np.asarray(v, dtype=float)
            if v.ndim != 1 or not np.all(np.isfinite(v)):
                raise ParameterError("tabulated potential must be a finite 1-d sequence")
            object.__setattr__(self, "table", _readonly(v))

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls("zero")

    @classmethod
    def gaussian(cls, amplitude: float, rate: float, center: float = 0.0) -> "PotentialSpec":
        return cls("gaussian", amplitude=float(amplitude), rate=float(rate), center=float(center))

    @classmethod
    def tabulated(cls, values) -> "PotentialSpec":
        return cls("tabulated", table=values)

    def evaluate(self, grid: GridSpec) -> np.ndarray:
        """Real lattice samples of V on the grid."""
        if self.kind == "zero":
            return np.zeros(grid.N)
        if self.kind == "gaussian":
            d = periodic_distance(grid.x, self.center, grid.L)
            return self.amplitude * np.exp(-self.rate * d * d)
        if len(self.table) != grid.N:
            raise ParameterError(
                f"tabulated potential has {len(self.table)} entries, grid needs {grid.N}"
            )
        return np.asarray(self.table, dtype=float)

    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "tabulated" and not np.any(self.table))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything that determines the operator lam - H: grid, lam, V, scheme."""

    grid: GridSpec
    lam: complex
    potential: PotentialSpec
    scheme: str
    mollifier: MollifierSpec = MollifierSpec()

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ParameterError(f"scheme must be one of {sorted(SCHEMES)}, got {self.scheme!r}")
        object.__setattr__(self, "lam", complex(self.lam))
        if not np.isfinite(self.lam):
            raise ParameterError(f"lam must be finite, got {self.lam}")


def difference(f: LatticeFunction, direction: str) -> LatticeFunction:
    """Forward (f(x+dx)-f(x))/dx or backward (f(x)-f(x-dx))/dx difference, periodic."""
    v = f.values
    dx = f.grid.dx
    if direction == "forward":
        out = (np.roll(v, -1) - v) / dx
    elif direction == "backward":
        out = (v - np.roll(v, 1)) / dx
    else:
        raise ParameterError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return LatticeFunction(f.grid, out)


def fd_laplacian(f: LatticeFunction) -> LatticeFunction:
    """Second-order discrete Laplacian (f(x+dx) - 2 f(x) + f(x-dx)) / dx^2, periodic.

    Identical to applying the backward then the forward difference.
    """
    v = f.values
    dx2 = f.grid.dx ** 2
    return LatticeFunction(f.grid, (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / dx2)


def fd_symbol(grid: GridSpec) -> np.ndarray:
    """Fourier symbol of the finite-difference -Laplacian: (4/dx^2) sin^2(k dx/2)."""
    return (4.0 / grid.dx ** 2) * np.sin(grid.k * grid.dx / 2.0) ** 2


def ps_symbol(grid: GridSpec) -> np.ndarray:
    """Fourier symbol of the pseudo-spectral -Laplacian: k^2 on the grid K."""
    return grid.k ** 2


def scheme_symbol(spec: ProblemSpec) -> np.ndarray:
    """Symbol s(k) of the kinetic part of H under the problem's scheme."""
    if spec.scheme == FD2:
        return fd_symbol(spec.grid)
    if spec.scheme == PS:
        return ps_symbol(spec.grid)
    return h_on_grid(spec.grid, spec.mollifier)


def apply_hamiltonian(spec: ProblemSpec, f: LatticeFunction) -> LatticeFunction:
    """Apply H = -Laplacian_scheme + V to lattice samples in O(N log N)."""
    if f.grid != spec.grid:
        raise ParameterError("function and problem live on different grids")
    V = spec.potential.evaluate(spec.grid)
    if spec.scheme == FD2:
        kinetic = -fd_laplacian(f).values
    else:
        sym = scheme_symbol(spec)
        kinetic = idft_values(spec.grid, sym * dft_values(spec.grid, f.values))
    return LatticeFunction(spec.grid, kinetic + V * f.values)


def fourier_hamiltonian_matrix(spec: ProblemSpec) -> np.ndarray:
    """Dense matrix of H in the Fourier basis: H_kl = s_k delta_kl + (1/L) Vhat_{k-l}.

    Defined for the ps and mps schemes, whose Fourier kinetic part is diagonal;
    rows and columns follow the canonical K ordering.  The index k - l is
    folded back into K through the N*dk periodicity of the discrete transform
    of V, so the block is the circulant whose first column (k - l = 0, -1,
    -2, ...) is Vhat/L in FFT order.
    """
    if spec.scheme == FD2:
        raise ParameterError("fourier_hamiltonian_matrix is defined for ps and mps schemes")
    grid = spec.grid
    V = spec.potential.evaluate(grid).astype(complex)
    H = circulant(np.fft.fft(V) * grid.dx / grid.L)
    H[np.arange(grid.N), np.arange(grid.N)] += scheme_symbol(spec)
    return H


def spectral_difference(fh: SpectralFunction, m: int = 1) -> SpectralFunction:
    """m-fold backward difference on the Fourier grid, (D fh)_k = (fh_k - fh_{k-dk})/dk.

    The entry below the lowest index n = -N/2+1 wraps periodically to the
    highest index n = N/2.
    """
    if not 1 <= m < fh.grid.N:
        raise ParameterError(f"difference order m must satisfy 1 <= m < N, got {m}")
    v = fh.values
    for _ in range(m):
        v = (v - np.roll(v, 1)) / fh.grid.dk
    return SpectralFunction(fh.grid, v)
