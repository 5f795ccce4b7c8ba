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
# a candidate cell whose bound reaches this far above the largest node
# value, relative, is searched for the interpolant's maximum; a row
# without one keeps its largest node value
_RIVAL_RTOL = 1e-12
# the search in a cell ends once the cubic Taylor term at the Newton
# point, the error of the quadratic model's maximum, is below this,
# relative to the value
_NEWTON_RTOL = np.finfo(float).eps
# most evaluations per cell: bisection halves a cell 20 times
_MAX_NEWTON = 20


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


def _mode_sums(coef: np.ndarray, power: int):
    """Sum of m^power |c_m| over the interpolant with rfft `coef` (of
    2 (len - 1) samples), one per row: a bound on |f^(power)| of that
    interpolant f everywhere (power at most 3)."""
    return np.vecdot(np.abs(coef), _derivative_weights(coef.shape[-1])[power])


def _slopes(coef: np.ndarray, n: int) -> np.ndarray:
    """(first, second) derivative of the interpolant with rfft `coef` at
    the nodes of the n grid (its own grid or every other node of it)."""
    size = 2 * (coef.shape[-1] - 1)
    spectra = np.stack([deriv_spectrum(coef, 1), deriv_spectrum(coef, 2)])
    return np.ascontiguousarray(np.fft.irfft(spectra, size)[..., :: size // n])


def _cell_bound(g, slope, curv, third):
    """An upper bound of a smooth periodic g over each cell [theta_j,
    theta_j+1], from its value, slope and curvature at the nodes and a
    bound `third` on |g'''| (one per row).

    Over the half cell next to a node, g stays below its Taylor
    polynomial with the positive parts of the slope (towards the cell)
    and curvature, plus the cubic term at its bound.
    """
    half = TWO_PI / g.shape[-1] / 2.0
    # in place where it can be: a block's collection peaks here
    lift = np.maximum(curv, 0.0)
    lift *= 0.5 * half * half
    lift += g
    ahead = np.maximum(slope, 0.0)
    ahead *= half
    ahead += lift
    behind = np.minimum(slope, 0.0)
    behind *= -half
    behind += lift
    del lift
    np.maximum(ahead, np.concatenate([behind[:, 1:], behind[:, :1]], -1), out=ahead)
    ahead += (half ** 3 / 6.0) * third[:, None]
    return ahead


def _refined_max(F, slopes, excess, derivs):
    """(maximum, angle): the maximum over each row of a smooth periodic
    function, exact to round-off where it lies between the nodes, and
    the angle in [0, 2 pi) where it lies, to round-off once Newton
    converges there.

    F (rows, n) holds the function at the nodes and slopes its first and
    second derivatives there. excess (rows, n) bounds over each cell a
    function that is positive exactly where the function exceeds a
    level, on the scale of F minus that level (`_cell_bound`): the row's
    largest node value for the maximum itself, or a higher threshold
    where only a maximum past it matters. A cell whose excess is -inf is
    left out. derivs(rows, theta) gives the function and its first three
    derivatives, (4, angles), at one angle per entry of rows.

    The cells searched are those whose excess reaches more than
    `_RIVAL_RTOL` times the row's largest node value, in magnitude, and
    whose end slopes bracket a maximum; a maximum above both ends of a cell with
    end slopes of one sign would need a minimum next to it in the same
    cell, which a resolved interpolant does not have. In each, the root
    of f' is found by Newton safeguarded by bisection inside the
    bracket ("rtsafe", Numerical Recipes 9.4), from the root of the
    cubic Hermite interpolant of the inverse of f' on the cell, and a
    cell's value is the maximum of the quadratic Taylor polynomial at
    the last point evaluated.
    """
    n = F.shape[-1]
    h = TWO_PI / n
    top = F.max(-1)
    where = F.argmax(-1) * h
    slope, curv = slopes
    rows, j = np.nonzero(excess > _RIVAL_RTOL * np.abs(top)[:, None])
    s0, s1 = slope[rows, j], slope[rows, (j + 1) % n]
    bracket = (s0 >= 0.0) & (s1 <= 0.0)
    if not bracket.any():
        return top, where
    rows, j, s0, s1 = rows[bracket], j[bracket], s0[bracket], s1[bracket]
    c0, c1 = curv[rows, j], curv[rows, (j + 1) % n]
    tau = np.divide(s0, s0 - s1, out=np.full(rows.size, 0.5), where=s0 > s1)
    # the inverse x(f') on [0, h] through (s0, 0) and (s1, h) with the
    # slopes 1/f'' of the two ends, at f' = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = tau * tau * (3.0 - 2.0 * tau) * h + tau * (1.0 - tau) * (s1 - s0) * (
            (1.0 - tau) / c0 - tau / c1
        )
    x = np.where((x > 0.0) & (x < h), x, tau * h)
    lo, hi = np.zeros(rows.size), np.full(rows.size, h)
    value = np.full(rows.size, -np.inf)
    todo = np.arange(rows.size)
    for _ in range(_MAX_NEWTON):
        at = x[todo]
        f, f1, f2, f3 = derivs(rows[todo], j[todo] * h + at)
        value[todo] = np.maximum(value[todo], f)
        rising = f1 > 0.0
        lo[todo] = np.where(rising, at, lo[todo])
        hi[todo] = np.where(rising, hi[todo], at)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -f1 / f2
        newton = (f2 < 0.0) & (at + step >= lo[todo]) & (at + step <= hi[todo])
        # converged where the cubic Taylor term is round-off, and the
        # quadratic model's maximum lies in the bracket or gains round-off
        tiny = _NEWTON_RTOL * np.abs(f)
        done = np.abs(f3 * step**3) <= 6.0 * tiny
        done &= newton | (np.abs(f1 * step) <= 2.0 * tiny)
        value[todo[done]] = np.maximum(value[todo[done]], (f + 0.5 * f1 * step)[done])
        # the next point; a cell that ends keeps the point of its value
        ahead = np.where(newton, at + step, 0.5 * (lo[todo] + hi[todo]))
        x[todo] = np.where(done & ~newton, at, ahead)
        todo = todo[~done]
        if not todo.size:
            break
    np.maximum.at(top, rows, value)
    # x is where each cell's maximum lies, or, where the search ran out of
    # evaluations, the next point inside its bracket
    won = value == top[rows]
    where[rows[won]] = (j[won] * h + x[won]) % TWO_PI
    return top, where


def _interpolant_max(F: np.ndarray, coef: np.ndarray, slopes=None):
    """`_refined_max` of the interpolant with rfft `coef` (rows, modes),
    F its values at the nodes (and `slopes` its `_slopes`)."""
    if slopes is None:
        slopes = _slopes(coef, F.shape[-1])
    excess = _cell_bound(F, *slopes, _mode_sums(coef, 3))
    excess -= F.max(-1)[:, None]
    return _refined_max(
        F, slopes, excess, lambda rows, th: interpolant_derivatives(coef, th, rows)
    )


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
