"""Uniform angular grids and FFT-based periodic calculus.

Everything downstream works on 2*pi-periodic samples over a uniform grid in
the normal angle. Differentiation and quadrature are realized spectrally:
derivatives multiply Fourier coefficients by (i*m)^order, integrals are the
trapezoid rule (exact for resolved trigonometric content). The stepping
kernel applies the same symbols to its own transforms (see `_kernels`).

The `*_values` helpers act along the last axis, so a (B, n) array is B
periods at once. They transform, reduce and index row by row, never by
matrix products, so each row comes out bit for bit as it would alone; a
reduction gives one value per row, and a numpy scalar for one period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# the one definition of 2*pi in the package; every other module imports it
TWO_PI = 2.0 * math.pi


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class AngularGrid:
    """Uniform grid theta_j = j * 2*pi/n, j = 0..n-1. n must be even, >= 16."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise GridError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 16 or self.n % 2 != 0:
            raise GridError(
                f"grid size must be an even integer >= 16, got n={self.n}"
            )

    @property
    def dtheta(self) -> float:
        return TWO_PI / self.n

    @property
    def theta(self) -> np.ndarray:
        return _grid_arrays(self.n)[0]

    @property
    def cos(self) -> np.ndarray:
        return _grid_arrays(self.n)[1]

    @property
    def sin(self) -> np.ndarray:
        return _grid_arrays(self.n)[2]


@lru_cache(maxsize=32)
def _grid_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    theta = np.arange(n) * (TWO_PI / n)
    cos = np.cos(theta)
    sin = np.sin(theta)
    for a in (theta, cos, sin):
        a.setflags(write=False)
    return theta, cos, sin


def deriv_values(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral d^order/dtheta^order of one period of samples.

    Odd orders zero the Nyquist mode (its derivative is not representable on
    the grid); even orders keep it with the real symbol -(n/2)^2.
    """
    return np.fft.irfft(deriv_spectrum(np.fft.rfft(values), order), values.shape[-1])


def deriv_spectrum(coef: np.ndarray, order: int) -> np.ndarray:
    """The rfft of `deriv_values` from the rfft of the samples (a new array)."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    m = np.arange(coef.shape[-1], dtype=np.float64)
    if order == 1:
        out = coef * (1j * m)
        out[..., -1] = 0.0
        return out
    return coef * -(m * m)


def integrate_values(values: np.ndarray):
    """Trapezoid quadrature over the period; spectrally accurate."""
    n = values.shape[-1]
    return (TWO_PI / n) * values.sum(axis=-1)


def first_harmonics_values(values: np.ndarray):
    """(integral of f*cos, integral of f*sin) over one period."""
    n = values.shape[-1]
    _, cos, sin = _grid_arrays(n)
    d = TWO_PI / n
    return d * np.vecdot(values, cos), d * np.vecdot(values, sin)


def resample_values(values: np.ndarray, n_fine: int) -> np.ndarray:
    """Trigonometric interpolation of samples onto a finer uniform grid."""
    return resample_spectrum(np.fft.rfft(values), values.shape[-1], n_fine)


def resample_spectrum(coef: np.ndarray, n: int, n_fine: int) -> np.ndarray:
    """`resample_values` of n samples from their rfft, which is not changed."""
    if n_fine < n:
        raise ValueError("resample target must not be coarser")
    # the coarse Nyquist bin becomes an interior mode on the fine grid and
    # would otherwise be double-counted by irfft's conjugate symmetry
    if n_fine > n:
        coef = coef.copy()
        coef[..., n // 2] *= 0.5
    # irfft pads the n // 2 + 1 bins with zeros up to n_fine // 2 + 1
    fine = np.fft.irfft(coef, n_fine)
    fine *= n_fine / n
    return fine


def refined_extremum_values(values: np.ndarray, want_max: bool):
    """Grid extremum sharpened by a parabola through the three samples.

    The vertex correction is bounded by the local sample variation, so
    flat or noisy data cannot send it far from the raw extremum.
    """
    n = values.shape[-1]
    j = values.argmax(axis=-1) if want_max else values.argmin(axis=-1)
    j = j[..., None]
    f0 = np.take_along_axis(values, j, -1)[..., 0]
    fm = np.take_along_axis(values, (j - 1) % n, -1)[..., 0]
    fp = np.take_along_axis(values, (j + 1) % n, -1)[..., 0]
    curv = fp - 2.0 * f0 + fm
    flat = np.abs(curv) < 1e-14 * np.maximum(1.0, np.abs(f0))
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = f0 - (fp - fm) ** 2 / (8.0 * curv)
    return np.where(flat, f0, vertex)[()]


def antiderivative_values(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (G, mean) with G(theta_j) = integral of the zero-mean part
    from 0 to theta_j; the caller adds mean*theta for the full primitive.

    The Nyquist bin is dropped: its primitive sin((n/2)*theta)/(n/2)
    vanishes at every grid node.
    """
    n = values.shape[-1]
    coef = np.fft.rfft(values)
    mean = coef[..., 0].real / n
    m = np.arange(n // 2 + 1, dtype=np.float64)
    m[0] = 1.0
    coef = coef / (1j * m)
    coef[..., 0] = 0.0
    coef[..., -1] = 0.0
    g = np.fft.irfft(coef, n)
    return g - g[..., :1], mean
