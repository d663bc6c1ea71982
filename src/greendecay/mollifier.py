"""Smooth Fourier cutoff built from a compactly supported bump.

The cutoff theta equals 1 on |k| <= kc/2 and 0 on |k| >= (3/4)kc; in between
it is the sharp cutoff 1_{|k| <= (5/8)kc} convolved with a C-infinity bump of
half-width sigma*kc.  The mollified Laplacian symbol replaces k^2 by

    h(k) = theta(k) * (k^2 - kc^2) + kc^2,

which agrees with k^2 on the inner half of the grid, is constant kc^2 near the
edge, and is smooth across the periodic wrap at +-kc.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .lattice import GridSpec, _readonly

__all__ = ["MollifierSpec", "bump_phi", "theta", "h_symbol", "theta_on_grid", "h_on_grid"]


@dataclass(frozen=True)
class MollifierSpec:
    """Bump half-width as a fraction of kc.

    sigma must stay in (0, 1/8]: wider bumps would smear the cutoff outside
    the [kc/2, (3/4)kc] transition band and destroy the plateau guarantees.
    """

    sigma: float = 0.125

    def __post_init__(self):
        if not 0.0 < self.sigma <= 0.125:
            raise ParameterError(f"sigma must be in (0, 1/8], got {self.sigma}")


# The bump profile exp(-1/(1-t^2)) has an essential singularity at t = +-1 that
# caps plain Gauss-Legendre near 3e-15.  Under t = tanh(u) its mass element is
# exp(-cosh(u)^2)/cosh(u)^2 du, an entire integrand below 1e-119 beyond
# u = 3.5, so fixed nodes on [atanh(t0), 3.5] converge geometrically (2e-16
# against 30-digit quadrature with 80 nodes).
_U_MAX = 3.5
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(80)


def _tail_mass(t0):
    """Integral of exp(-1/(1-t^2)) over [t0, 1] for t0 in [0, 1] (arrays)."""
    u0 = np.arctanh(np.minimum(t0, np.tanh(_U_MAX)))[..., None]
    half = 0.5 * (_U_MAX - u0)
    c2 = np.cosh(u0 + half * (_NODES + 1.0)) ** 2
    return half[..., 0] * np.sum(_WEIGHTS * np.exp(-c2) / c2, axis=-1)


# integral of the bump profile over [-1, 1], a universal constant
_PROFILE_INTEGRAL = 2.0 * float(_tail_mass(0.0))


def bump_phi(k, kc: float, spec: MollifierSpec = MollifierSpec()):
    """C-infinity bump Z*exp(-sigma^2 kc^2/(sigma^2 kc^2 - k^2)) supported on |k| < sigma*kc.

    Z*sigma*kc is scale invariant (substitute u = k/(sigma*kc)): it is the
    reciprocal of the universal profile integral.
    """
    if kc < np.pi:
        raise ParameterError(f"kc must be >= pi, got {kc}")
    half = spec.sigma * kc
    Z = 1.0 / (half * _PROFILE_INTEGRAL)
    k = np.asarray(k, dtype=float)
    out = np.zeros_like(k)
    inside = np.abs(k) < half
    w = 1.0 - (k[inside] / half) ** 2
    out[inside] = Z * np.exp(-1.0 / w)
    if out.ndim == 0:
        return float(out)
    return out


def theta(k, kc: float, spec: MollifierSpec = MollifierSpec()):
    """Smooth cutoff: 1 for |k| <= kc/2, 0 for |k| >= (3/4)kc, monotone between.

    Inside the transition band the value is the bump's mass to the right of
    t0 = (|k| - (5/8)kc)/(sigma*kc), in units of its half-width (the cutoff's
    far edge lies beyond the bump for sigma <= 1/8); by the bump's symmetry
    only t0 >= 0 is integrated.  The plateaus are exact.
    """
    if kc < np.pi:
        raise ParameterError(f"kc must be >= pi, got {kc}")
    k = np.asarray(k, dtype=float)
    a = np.abs(k)
    out = np.where(a <= kc / 2.0, 1.0, 0.0)
    band = (a > kc / 2.0) & (a < 0.75 * kc)
    t0 = np.clip((a[band] - 0.625 * kc) / (spec.sigma * kc), -1.0, 1.0)
    mass = _tail_mass(np.abs(t0)) / _PROFILE_INTEGRAL
    out[band] = np.clip(np.where(t0 < 0.0, 1.0 - mass, mass), 0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def h_symbol(k, kc: float, spec: MollifierSpec = MollifierSpec()):
    """Mollified Laplacian symbol theta(k)*(k^2 - kc^2) + kc^2.

    Evaluated piecewise so the plateau identities are exact: h = k^2 for
    |k| <= kc/2 and h = kc^2 for |k| >= (3/4)kc.
    """
    k = np.asarray(k, dtype=float)
    out = np.where(np.abs(k) <= kc / 2.0, k * k, theta(k, kc, spec) * (k * k - kc * kc) + kc * kc)
    if out.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=32)
def theta_on_grid(grid: GridSpec, spec: MollifierSpec = MollifierSpec()) -> np.ndarray:
    """Cutoff sampled on the Fourier grid K (canonical order), memoized."""
    return _readonly(theta(grid.k, grid.kc, spec))


@lru_cache(maxsize=32)
def h_on_grid(grid: GridSpec, spec: MollifierSpec = MollifierSpec()) -> np.ndarray:
    """Mollified symbol h_symbol sampled on K (canonical order), memoized."""
    return _readonly(h_symbol(grid.k, grid.kc, spec))
