"""Generators of valid convex closed initial profiles.

All generators go through support functions: a trigonometric polynomial
u(theta) gives the radius of curvature rho = u'' + u in closed form, so the
produced profiles close exactly (no first harmonic in rho by construction)
and convexity is checked at generation time, before any flow sees the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ConvexityError, CurvatureProfile
from .spectral import TWO_PI, AngularGrid

DEFAULT_GRID_N = 256


@dataclass(frozen=True)
class Circle:
    r: float
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError(f"circle radius must be positive, got {self.r}")


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self) -> None:
        if not (self.a >= self.b > 0.0):
            raise ValueError(
                f"ellipse semi-axes must satisfy a >= b > 0, got a={self.a}, b={self.b}"
            )


@dataclass(frozen=True)
class PerturbedCircle:
    """u = r0 + sum of amp*cos(m*theta - phase) over the (m, amp, phase)
    modes, each m an integer from 2 to below grid_n/2, the modes the grid
    holds without aliasing."""

    r0: float
    modes: tuple[tuple[int, float, float], ...] = field(default_factory=tuple)
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self) -> None:
        if not self.r0 > 0.0:
            raise ValueError(f"base radius must be positive, got {self.r0}")
        modes = []
        for m, amp, phase in self.modes:
            if not float(m).is_integer():
                raise ValueError(f"perturbation mode {m} is not an integer")
            m = int(m)
            if m == 1:
                raise ValueError(
                    "mode 1 is a pure translation of the support function "
                    "and is not allowed"
                )
            if m < 2:
                raise ValueError(f"perturbation modes must be >= 2, got {m}")
            if 2 * m >= self.grid_n:
                raise ValueError(
                    f"perturbation mode {m} needs grid_n > {2 * m}, got {self.grid_n}"
                )
            modes.append((m, float(amp), float(phase)))
        object.__setattr__(self, "modes", tuple(modes))


CurveSpec = Circle | Ellipse | PerturbedCircle


def _rho_values(spec: PerturbedCircle, theta: np.ndarray) -> np.ndarray:
    """rho = u'' + u = r0 + sum of (1 - m^2) amp cos(m theta - phase)."""
    rho = np.full_like(theta, spec.r0)
    for m, amp, phase in spec.modes:
        c = (1 - m * m) * amp * math.cos(phase)
        s = (1 - m * m) * amp * math.sin(phase)
        rho += c * np.cos(m * theta) + s * np.sin(m * theta)
    return rho


def ellipse_curvature(a: float, b: float, theta) -> np.ndarray:
    """Curvature at normal angle theta: (a^2 cos^2 + b^2 sin^2)^(3/2)/(a b)^2."""
    theta = np.asarray(theta, dtype=float)
    g = a * a * np.cos(theta) ** 2 + b * b * np.sin(theta) ** 2
    return g**1.5 / (a * a * b * b)


def generate(spec: CurveSpec) -> CurvatureProfile:
    """Materialize a CurveSpec as a curvature profile on its grid."""
    grid = AngularGrid(spec.grid_n)
    if isinstance(spec, Circle):
        return CurvatureProfile(grid, np.full(grid.n, 1.0 / spec.r))
    if isinstance(spec, Ellipse):
        return CurvatureProfile(grid, ellipse_curvature(spec.a, spec.b, grid.theta))

    # convexity check on a refined grid so dips between samples are caught
    fine = np.arange(8 * grid.n) * (TWO_PI / (8 * grid.n))
    rho_fine = _rho_values(spec, fine)
    j = int(rho_fine.argmin())
    if rho_fine[j] <= 0.0:
        raise ConvexityError(
            f"support spec is not convex: radius of curvature "
            f"{rho_fine[j]:.6g} at theta={fine[j]:.6f}"
        )
    return CurvatureProfile(grid, 1.0 / _rho_values(spec, grid.theta))


def random_convex(
    seed: int,
    r0: float = 1.0,
    max_mode: int = 6,
    budget: float = 0.8,
    grid_n: int = DEFAULT_GRID_N,
) -> CurvatureProfile:
    """Deterministic-in-seed random convex profile.

    Amplitudes over modes 2..max_mode are scaled so that
    sum (m^2-1)|a_m| = budget*r0 < r0, which keeps rho = u'' + u positive
    regardless of phases; the construction never needs rejection.
    """
    if not 0.0 <= budget < 1.0:
        raise ValueError(f"budget must lie in [0, 1), got {budget}")
    if max_mode < 2:
        raise ValueError(f"max_mode must be >= 2, got {max_mode}")
    rng = np.random.default_rng(seed)
    modes = []
    if budget > 0.0:
        ms = np.arange(2, max_mode + 1)
        shares = rng.uniform(0.2, 1.0, ms.size)
        shares /= shares.sum()
        phases = rng.uniform(0.0, TWO_PI, ms.size)
        modes = [
            (int(m), budget * r0 * sh / (m * m - 1.0), ph)
            for m, sh, ph in zip(ms, shares, phases)
        ]
    return generate(PerturbedCircle(r0=r0, modes=tuple(modes), grid_n=grid_n))
