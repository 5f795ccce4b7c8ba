"""Adaptive explicit time stepping for the curvature evolution.

The scheme is classical four-stage Runge-Kutta on the method-of-lines
system, with the step size tied to the parabolic stability bound of the
diffusion coefficient alpha*k^(alpha+1). Runs advance sample interval by
sample interval through the kernel (`_kernels`); each boundary is landed on
exactly so that series from different resolutions or safety factors can
be compared at matched times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import _kernels, diagnostics
from .diagnostics import AUDIT_NAMES, DEFAULT_BETAS, DiagnosticsCollector, DiagnosticsSeries
from .geometry import ConvexityError, CurvatureProfile, _require_closed
from .laws import BlowUpError, FlowKind, FlowLaw


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class StepControl:
    """Step-size, guard, and convergence settings for a run.

    safety scales the raw stability bound; values up to ~0.28 keep the
    stiffest Fourier mode inside the RK4 real-axis stability interval,
    and the default leaves margin for the nonlinearity.
    """

    safety: float = 0.25
    dt_min: float = 0.0
    dt_max: float = math.inf
    max_steps: int = 10_000_000
    convergence_tol: float = 1e-3
    blowup_k: float = 1e6

    def __post_init__(self) -> None:
        if not (0.0 < self.safety <= 1.0):
            raise ConfigurationError(f"safety must be in (0, 1], got {self.safety}")
        if math.isnan(self.dt_min) or math.isnan(self.dt_max):
            raise ConfigurationError("dt_min/dt_max must not be NaN")
        if not (0.0 <= self.dt_min <= self.dt_max):
            raise ConfigurationError(
                f"need 0 <= dt_min <= dt_max, got dt_min={self.dt_min}, "
                f"dt_max={self.dt_max}"
            )
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (self.convergence_tol > 0.0):
            raise ConfigurationError(
                f"convergence_tol must be positive, got {self.convergence_tol}"
            )
        if not (self.blowup_k > 0.0):
            raise ConfigurationError(f"blowup_k must be positive, got {self.blowup_k}")


class RunStatus(Enum):
    CONVERGED = "Converged"
    TIME_LIMIT = "TimeLimit"
    STEP_LIMIT = "StepLimit"
    BLOW_UP = "BlowUp"
    CONVEXITY_LOST = "ConvexityLost"


@dataclass(frozen=True)
class RunResult:
    """Outcome of run(). `guard` names the guard that ended the run: None,
    "convexity", "blowup", "nonfinite" or "step_limit"."""

    status: RunStatus
    final: CurvatureProfile
    series: DiagnosticsSeries
    t_final: float
    steps: int
    guard: str | None

    backend = "numpy"  # the one stepping lane; perfbench records still name it


def stable_dt(law: FlowLaw, kp: CurvatureProfile, ctl: StepControl | None = None) -> float:
    """Clamped parabolic stability bound for the profile's stiffest point."""
    ctl = StepControl() if ctl is None else ctl
    dtheta = kp.grid.dtheta
    raw = ctl.safety * dtheta * dtheta / (law.alpha * float(kp.k.max()) ** (law.alpha + 1.0))
    if ctl.dt_min > raw:
        raise ConfigurationError(
            f"dt_min={ctl.dt_min:.6e} exceeds the stability bound {raw:.6e}; "
            "refusing to run unstably"
        )
    return float(min(max(raw, ctl.dt_min), ctl.dt_max))


# kernel status -> (run status, the guard named in RunResult.guard)
_GUARD_TRIPS = {
    _kernels.STATUS_CONVEXITY: (RunStatus.CONVEXITY_LOST, "convexity"),
    _kernels.STATUS_BLOWUP: (RunStatus.BLOW_UP, "blowup"),
    _kernels.STATUS_NONFINITE: (RunStatus.BLOW_UP, "nonfinite"),
}


def step(
    law: FlowLaw,
    kp: CurvatureProfile,
    dt: float,
) -> CurvatureProfile:
    """One forced RK4 step of exactly dt.

    No adaptivity: the caller owns the stability question (stable_dt
    gives the bound). Guard trips raise instead of returning a status.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    k, _, _, _, code = _kernels.advance(
        kp.k.copy(), 0.0, dt, law.alpha, law.kind,
        1.0, dt, dt, math.inf, False, 8,
    )
    if code == _kernels.STATUS_CONVEXITY:
        raise ConvexityError("curvature lost positivity during the step")
    if code in (_kernels.STATUS_BLOWUP, _kernels.STATUS_NONFINITE):
        raise BlowUpError(f"curvature blew up during a step of dt={dt:.6e}")
    return CurvatureProfile(kp.grid, k)


def run(
    law: FlowLaw,
    kp0: CurvatureProfile,
    ctl: StepControl | None = None,
    t_end: float = 1.0,
    *,
    sample_dt: float | None = None,
    sample_every: int | None = None,
    audits: Sequence[str] = AUDIT_NAMES,
    betas: Sequence[float] = DEFAULT_BETAS,
    projection: bool = False,
    on_sample: Callable[[float, CurvatureProfile, int], None] | None = None,
) -> RunResult:
    """Advance to t_end, a guard trip, convergence, or the step cap.

    Sampling cadence is either time-based (sample_dt, boundaries landed
    on exactly; the default, t_end/200) or step-based (sample_every
    steps). Convergence means relative curvature oscillation at or below
    ctl.convergence_tol at a sample; the pure contraction flow is exempt
    (it shrinks self-similarly instead of settling) and runs to its
    horizon or blow-up. On a guard trip the result carries the last good
    state and a final partial-interval sample, and `guard` names the
    guard that ended it.
    """
    ctl = StepControl() if ctl is None else ctl
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigurationError(f"t_end must be positive and finite, got {t_end}")
    if sample_dt is not None and sample_every is not None:
        raise ConfigurationError("pass sample_dt or sample_every, not both")
    if sample_every is not None and sample_every < 1:
        raise ConfigurationError(f"sample_every must be >= 1, got {sample_every}")
    if sample_dt is not None and not (math.isfinite(sample_dt) and sample_dt > 0.0):
        raise ConfigurationError(f"sample_dt must be positive, got {sample_dt}")
    if sample_dt is None and sample_every is None:
        sample_dt = t_end / 200.0

    _require_closed(kp0, "run")
    stable_dt(law, kp0, ctl)  # validates dt_min against the bound up front

    grid = kp0.grid

    collector = DiagnosticsCollector(law, kp0, audits=audits, betas=betas)
    record = collector.collect(0.0, kp0, 0.0)
    if on_sample is not None:
        on_sample(0.0, kp0, 0)

    check_convergence = law.kind is not FlowKind.CONTRACTION
    if check_convergence and record.oscillation <= ctl.convergence_tol:
        return RunResult(RunStatus.CONVERGED, kp0, collector.series, 0.0, 0, None)
    if float(kp0.k.max()) >= ctl.blowup_k:
        return RunResult(RunStatus.BLOW_UP, kp0, collector.series, 0.0, 0, "blowup")

    k = kp0.k.copy()
    kp_cur = kp0
    s_accum = 0.0
    t_cur = 0.0
    steps_used = 0
    sample_idx = 0
    boundary = 0
    status: RunStatus | None = None
    guard: str | None = None

    while status is None and t_cur < t_end:
        remaining = ctl.max_steps - steps_used
        if remaining <= 0:
            status = RunStatus.STEP_LIMIT
            break
        if sample_dt is not None:
            boundary += 1
            t_next = min(boundary * sample_dt, t_end)
            span = t_next - t_cur
            budget = remaining
        else:
            t_next = t_end
            span = t_end - t_cur
            budget = min(sample_every, remaining)
        if span <= 0.0:
            continue

        k, s_accum, t_adv, n_steps, code = _kernels.advance(
            k, s_accum, span, law.alpha, law.kind,
            ctl.safety, ctl.dt_min, ctl.dt_max, ctl.blowup_k,
            projection, budget,
        )
        steps_used += n_steps

        if code == _kernels.STATUS_OK:
            t_sample = t_next
        else:
            t_sample = t_cur + t_adv
        if code in _GUARD_TRIPS:
            status, guard = _GUARD_TRIPS[code]
        elif code == _kernels.STATUS_BUDGET and steps_used >= ctl.max_steps:
            status = RunStatus.STEP_LIMIT

        if t_sample > t_cur:
            t_cur = t_sample
            kp_cur = CurvatureProfile(grid, k)
            record = collector.collect(t_cur, kp_cur, s_accum)
            sample_idx += 1
            if on_sample is not None:
                on_sample(t_cur, kp_cur, sample_idx)
            if (
                status is None
                and check_convergence
                and record.oscillation <= ctl.convergence_tol
            ):
                status = RunStatus.CONVERGED

    if status is None:
        status = RunStatus.TIME_LIMIT if t_cur >= t_end else RunStatus.STEP_LIMIT
    if status is RunStatus.STEP_LIMIT:
        guard = "step_limit"
    return RunResult(status, kp_cur, collector.series, t_cur, steps_used, guard)
