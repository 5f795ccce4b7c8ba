"""The five speed laws and their nonlocal term lambda(t); a curve moves
with normal speed k^alpha - lambda.

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


def power(k: np.ndarray, alpha: float) -> np.ndarray:
    """k^alpha as exp(alpha*log k); k > 0 is an invariant so log is safe.

    `lambda_value` and the diagnostics take k^alpha from here. The
    stepping kernel, which holds w = 1/k, computes it as exp(-alpha*log w),
    or 1/w at alpha = 1, so its lambda and `lambda_value` agree to
    round-off, not bit for bit.
    """
    return np.exp(alpha * np.log(k))


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


def lambda_value(law: FlowLaw, kp: CurvatureProfile):
    """The law's nonlocal term for the given profile: a numpy scalar, or
    one value per row of a (B, n) block.

    Like the stepping kernel, it does not require a closed curve, so it
    also evaluates the open intermediate states of a step.
    """
    if law.kind is FlowKind.CONTRACTION:
        return np.zeros(kp.k.shape[:-1])[()]
    v = power(kp.k, law.alpha)
    w = kp.w
    return nonlocal_lambda(
        law.kind,
        integrate_values(v),
        integrate_values(v * w),
        integrate_values(w),
        geometry.parseval_area(kp.W),
    )
