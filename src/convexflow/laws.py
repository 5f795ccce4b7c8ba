"""The five speed laws: nonlocal term lambda(t), normal speed, and the
curvature-evolution right-hand side k_t = k^2 [(k^a)'' + k^a - lambda].

LP fixes length, AP fixes area, G1/G2 are the alpha >= 1 variants whose
lambda mixes L and A, Contraction has lambda = 0 and shrinks to a point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import CurvatureProfile
from .spectral import PeriodicField, TWO_PI, deriv_values, integrate_values


class LawError(ValueError):
    pass


class BlowUpError(FloatingPointError):
    pass


class FlowKind(enum.Enum):
    LP = "LP"
    AP = "AP"
    G1 = "G1"
    G2 = "G2"
    CONTRACTION = "Contraction"


@dataclass(frozen=True)
class FlowLaw:
    kind: FlowKind
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FlowKind):
            object.__setattr__(self, "kind", FlowKind(self.kind))
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise LawError(f"alpha must be positive, got {self.alpha}")
        if self.kind in (FlowKind.G1, FlowKind.G2) and self.alpha < 1.0:
            raise LawError("alpha must be >= 1 for G1/G2")


@dataclass(frozen=True)
class LambdaValue:
    value: float
    t: float = 0.0


def power(k: np.ndarray, alpha: float) -> np.ndarray:
    """k^alpha as exp(alpha*log k); k > 0 is an invariant so log is safe.

    The stepping kernel uses the same form except at alpha = 1, where it
    takes k itself, so the two agree to round-off, not bit for bit.
    """
    return np.exp(alpha * np.log(k))


def lambda_value(law: FlowLaw, kp: CurvatureProfile, t: float = 0.0) -> LambdaValue:
    """The law's nonlocal term for the given profile."""
    if law.kind is FlowKind.CONTRACTION:
        return LambdaValue(0.0, t)
    v = power(kp.k, law.alpha)
    if law.kind is FlowKind.LP:
        lam = integrate_values(v) / TWO_PI
    elif law.kind is FlowKind.AP:
        lam = integrate_values(v * kp.w) / integrate_values(kp.w)
    elif law.kind is FlowKind.G1:
        L = geometry.length(kp)
        A = geometry.area(kp)
        lam = (2.0 * A / (L * L)) * integrate_values(v)
    else:  # G2
        L = geometry.length(kp)
        A = geometry.area(kp)
        lam = (L / (4.0 * math.pi * A)) * integrate_values(v * kp.w)
    return LambdaValue(lam, t)


def curvature_rhs(law: FlowLaw, kp: CurvatureProfile) -> PeriodicField:
    """Pointwise k_t = k^2 ((k^a)_thth + k^a - lambda)."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = power(kp.k, law.alpha)
        lam = lambda_value(law, kp).value
        rhs = kp.k * kp.k * (deriv_values(v, 2) + v - lam)
    if not np.all(np.isfinite(rhs)):
        raise BlowUpError(
            f"curvature power overflow at k_max={kp.k.max():.6e}, "
            f"alpha={law.alpha}"
        )
    return PeriodicField(kp.grid, rhs)


def normal_speed(law: FlowLaw, kp: CurvatureProfile) -> PeriodicField:
    """k^alpha - lambda; positive where the curve moves inward."""
    v = power(kp.k, law.alpha)
    lam = lambda_value(law, kp).value
    return PeriodicField(kp.grid, v - lam)
