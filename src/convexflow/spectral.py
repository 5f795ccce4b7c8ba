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


def window_values(
    coef: np.ndarray, n: int, centers: np.ndarray, factor: int, reach: int = 1
) -> np.ndarray:
    """`resample_spectrum(coef, n, factor * n)` near chosen nodes only.

    For each coarse node j in `centers` (..., K) it gives the fine samples
    j factor - reach factor - 1 ... j factor + reach factor + 1, which
    span the `reach` cells on either side of j and one fine step beyond:
    (..., K, 2 reach factor + 3). Each sample is a sum over the n // 2 + 1
    modes, one dot product per sample and row, so it does not depend on
    the other rows or centres.
    """
    cos_o, sin_o, weight = _window_tables(n, factor * reach + 1, factor)
    # e^{i m theta_j} for each mode and centre, from the grid table
    _, cos_n, sin_n = _grid_arrays(n)
    turn = centers[..., None] * np.arange(n // 2 + 1)
    turn %= n
    er, ei = cos_n[turn], sin_n[turn]
    # each (..., K, n/2 + 1) temporary is freed once used: they set the
    # peak memory of a block's collection
    del turn
    c = coef * weight
    cr, ci = c.real[..., None, :], c.imag[..., None, :]
    # at offset +-o: sum of Re(c e^{i m theta_j}) cos(m o d) -+ Im(...) sin(m o d)
    part, term = cr * er, ci * ei
    part -= term
    even = np.vecdot(part[..., None, :], cos_o)
    np.multiply(cr, ei, out=part)
    np.multiply(ci, er, out=term)
    part += term
    odd = np.vecdot(part[..., None, :], sin_o)
    del er, ei, part, term
    last = even.shape[-1] - 1
    out = np.empty(even.shape[:-1] + (2 * last + 1,))
    np.add(even[..., :0:-1], odd[..., :0:-1], out=out[..., :last])
    np.subtract(even, odd, out=out[..., last:])
    return out


@lru_cache(maxsize=8)
def _window_tables(n: int, last: int, factor: int) -> tuple[np.ndarray, ...]:
    """For `window_values`: cos and sin of m o 2 pi/(factor n) for offsets
    o = 0..last (rows) and modes m = 0..n/2 (columns), and the weight of
    each mode in the resample (the mean and the halved Nyquist bin count
    once, the others twice, over n)."""
    turn = (np.arange(last + 1)[:, None] * np.arange(n // 2 + 1)) % (factor * n)
    angle = turn * (TWO_PI / (factor * n))
    weight = np.full(n // 2 + 1, 2.0 / n)
    weight[0] = weight[-1] = 1.0 / n
    tables = np.cos(angle), np.sin(angle), weight
    for a in tables:
        a.setflags(write=False)
    return tables


def refined_extremum_values(values: np.ndarray, want_max: bool):
    """Grid extremum sharpened by a parabola through the three samples
    (`parabola_vertex`)."""
    n = values.shape[-1]
    j = values.argmax(axis=-1) if want_max else values.argmin(axis=-1)
    j = j[..., None]
    f0 = np.take_along_axis(values, j, -1)[..., 0]
    fm = np.take_along_axis(values, (j - 1) % n, -1)[..., 0]
    fp = np.take_along_axis(values, (j + 1) % n, -1)[..., 0]
    return parabola_vertex(fm, f0, fp)


def parabola_vertex(fm: np.ndarray, f0: np.ndarray, fp: np.ndarray):
    """The vertex value of the parabola through three equally spaced
    samples, f0 in the middle.

    The vertex correction is bounded by the local sample variation, so
    flat or noisy data cannot send it far from the middle sample.
    """
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
