"""The five speed laws and their nonlocal term lambda(t); a curve moves
with normal speed k^alpha - lambda, k^alpha from `power`, lambda from
`nonlocal_lambda` of the integrals that `integrals` gives.

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
from .spectral import TWO_PI, integrate_values


class LawError(ValueError):
    pass


class FlowKind(enum.Enum):
    LP = "LP"
    AP = "AP"
    G1 = "G1"
    G2 = "G2"
    CONTRACTION = "Contraction"


# plain names for the members: attribute access on an Enum class costs
# more than the arithmetic of nonlocal_lambda, which every ETDRK4 stage calls
_LP, _AP, _G1, _G2 = FlowKind.LP, FlowKind.AP, FlowKind.G1, FlowKind.G2


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


def _float_power(base: float, exponent: float) -> float:
    """base ** exponent of Python floats, +inf where the result passes the
    float range: float ** raises OverflowError there, and a bound or a
    coefficient that large is no finite one."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def power(w: np.ndarray, alpha, out=None) -> np.ndarray:
    """k^alpha from the radius of curvature w = 1/k > 0: 1/w at alpha = 1,
    exp(-alpha log w) otherwise. The one k^alpha of the kernel's stages and
    of every profile or block (from `kp.w`). An array of exponents
    broadcasts against w; `out` is an output buffer."""
    if not isinstance(alpha, np.ndarray) and alpha == 1.0:
        return np.divide(1.0, w, out=out)
    v = np.multiply(np.log(w, out=out), -alpha, out=out)
    return np.exp(v, out=v)


def nonlocal_lambda(kind: FlowKind, q: float, qw: float, L: float, A: float) -> float:
    """lambda of a law from q = integral of k^alpha, qw = integral of
    k^alpha/k (both over the normal angle), the length L and the area A.

    Each law reads only its own terms: LP q; AP qw and L; G1 q, L and A;
    G2 qw, L and A; Contraction none. The others may be NaN.
    """
    if kind is _LP:
        return q / TWO_PI
    if kind is _AP:
        return qw / L
    if kind is _G1:
        return (2.0 * A / (L * L)) * q
    if kind is _G2:
        return (L / (2.0 * TWO_PI * A)) * qw
    return 0.0


def integrals(kp: CurvatureProfile, alpha: float):
    """(v, q, qw, L, A) of a profile or a (B, n) block, with no closure
    check: v = k^alpha, q and qw the integrals of v and v/k over the
    normal angle, the length L and the `geometry.parseval_area` A, each a
    numpy scalar or one value per row. (The kernel reads its own.)"""
    w = kp.w
    v = power(w, alpha)
    L, A = geometry.length(kp), geometry.parseval_area(kp.W)
    return v, integrate_values(v), integrate_values(v * w), L, A


def lambda_value(law: FlowLaw, kp: CurvatureProfile):
    """The law's nonlocal term for a profile (a numpy scalar) or a (B, n)
    block (one value per row)."""
    if law.kind is FlowKind.CONTRACTION:
        return np.zeros(kp.k.shape[:-1])[()]
    _, q, qw, L, A = integrals(kp, law.alpha)
    return nonlocal_lambda(law.kind, q, qw, L, A)
