"""Uniform angular grids and FFT-based periodic calculus.

Everything downstream works on 2*pi-periodic samples over a uniform grid in
the normal angle. Differentiation and quadrature are realized spectrally:
derivatives multiply Fourier coefficients by (i*m)^order, integrals are the
trapezoid rule (exact for resolved trigonometric content). The stepping
kernel applies the same symbols to its own transforms (see `_kernels`).
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
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    n = values.shape[0]
    coef = np.fft.rfft(values)
    m = np.arange(n // 2 + 1, dtype=np.float64)
    if order == 1:
        coef *= 1j * m
        coef[-1] = 0.0
    else:
        coef *= -(m * m)
    return np.fft.irfft(coef, n)


def integrate_values(values: np.ndarray) -> float:
    """Trapezoid quadrature over the period; spectrally accurate."""
    n = values.shape[0]
    return (TWO_PI / n) * float(values.sum())


def first_harmonics_values(values: np.ndarray) -> tuple[float, float]:
    """(integral of f*cos, integral of f*sin) over one period."""
    n = values.shape[0]
    _, cos, sin = _grid_arrays(n)
    d = TWO_PI / n
    return d * float(values @ cos), d * float(values @ sin)


def resample_values(values: np.ndarray, n_fine: int) -> np.ndarray:
    """Trigonometric interpolation of samples onto a finer uniform grid."""
    return resample_spectrum(np.fft.rfft(values), values.shape[0], n_fine)


def resample_spectrum(coef: np.ndarray, n: int, n_fine: int) -> np.ndarray:
    """`resample_values` of n samples from their rfft, which is not changed."""
    if n_fine < n:
        raise ValueError("resample target must not be coarser")
    out = np.zeros(n_fine // 2 + 1, dtype=complex)
    out[: n // 2 + 1] = coef
    # the coarse Nyquist bin becomes an interior mode on the fine grid and
    # would otherwise be double-counted by irfft's conjugate symmetry
    if n_fine > n:
        out[n // 2] *= 0.5
    return np.fft.irfft(out, n_fine) * (n_fine / n)


def refined_extremum_values(values: np.ndarray, want_max: bool) -> float:
    """Grid extremum sharpened by a parabola through the three samples.

    The vertex correction is bounded by the local sample variation, so
    flat or noisy data cannot send it far from the raw extremum.
    """
    j = int(values.argmax() if want_max else values.argmin())
    n = values.shape[0]
    f0 = values[j]
    fm = values[(j - 1) % n]
    fp = values[(j + 1) % n]
    curv = fp - 2.0 * f0 + fm
    if abs(curv) < 1e-14 * max(1.0, abs(f0)):
        return float(f0)
    return float(f0 - (fp - fm) ** 2 / (8.0 * curv))


def antiderivative_values(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (G, mean) with G(theta_j) = integral of the zero-mean part
    from 0 to theta_j; the caller adds mean*theta for the full primitive.

    The Nyquist bin is dropped: its primitive sin((n/2)*theta)/(n/2)
    vanishes at every grid node.
    """
    n = values.shape[0]
    coef = np.fft.rfft(values)
    mean = coef[0].real / n
    m = np.arange(n // 2 + 1, dtype=np.float64)
    m[0] = 1.0
    coef = coef / (1j * m)
    coef[0] = 0.0
    coef[-1] = 0.0
    g = np.fft.irfft(coef, n)
    return g - g[0], mean
