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
# terms, angles times modes, that `interpolant_derivatives` forms at once
# (64 KiB of complex values)
_TERMS = 1 << 12


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


def resample_spectrum(coef: np.ndarray, n: int, n_fine: int) -> np.ndarray:
    """Trigonometric interpolation onto a finer uniform grid of n_fine
    points, from the rfft `coef` of n samples, which is not changed."""
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


def interpolant_derivatives(
    coef: np.ndarray, theta: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """(f, f', f'', f''') as one (4, angles, ...) array: the trigonometric
    interpolants f of the samples whose rfft is `coef` (rows, ..., modes)
    and their first three derivatives at the angles theta, theta[i] on
    coef[rows[i]].

    Each value is a sum along the modes, one dot product per angle and
    interpolant, so it does not depend on the other rows or angles. The
    terms are formed for `_TERMS` of them at a time, or for one angle
    where that takes more.
    """
    out = np.empty((4,) + theta.shape + coef.shape[1:-1])
    step = max(1, _TERMS // coef[0].size)
    m = np.arange(coef.shape[-1], dtype=np.float64)
    table = _derivative_weights(coef.shape[-1])
    for i in range(0, len(theta), step):
        part = slice(i, i + step)
        phase = np.multiply.outer(theta[part], m).reshape(
            (-1,) + (1,) * (coef.ndim - 2) + m.shape
        )
        turn = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=turn.real)
        np.sin(phase, out=turn.imag)
        del phase
        terms = coef[rows[part]]
        terms *= turn
        del turn
        even = np.vecdot(terms.real[..., None, :], table[0::2])  # f, -f''
        odd = np.vecdot(terms.imag[..., None, :], table[1::2])  # -f', f'''
        out[0, part], out[1, part] = even[..., 0], -odd[..., 0]
        out[2, part], out[3, part] = -even[..., 1], odd[..., 1]
    return out


@lru_cache(maxsize=8)
def _derivative_weights(modes: int) -> np.ndarray:
    """For `interpolant_derivatives`: the rows c_m m^p, p = 0..3, over
    the rfft bins m, c_m the weight of bin m in the interpolant (the
    mean and the Nyquist bin count once, the others twice, over the
    2 (modes - 1) samples)."""
    n = 2 * (modes - 1)
    weight = np.full(modes, 2.0 / n)
    weight[0] = weight[-1] = 1.0 / n
    table = weight * np.arange(modes, dtype=np.float64) ** np.arange(4)[:, None]
    table.setflags(write=False)
    return table


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
