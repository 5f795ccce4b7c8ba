"""Adaptive time stepping for the curvature evolution.

The scheme is exponential time differencing RK4 (Cox and Matthews) on
the method-of-lines system for the radius of curvature 1/k: a constant
diffusion sigma*(d^2 + 1) is integrated exactly mode by mode and the
rest explicitly, so the step size is set by accuracy alone, through a
step-doubling error estimate, and not by the grid. sigma is half the
stiffest coefficient alpha*k_max^(alpha+1), refreshed within a 5% band,
which is the least that keeps the explicit remainder stable; the whole
coefficient would take 1.6 to 1.75 times the steps. One kernel state
(`_kernels.Stepper`) carries the step size across sample intervals; each
boundary is landed on exactly so that series from different resolutions
or safety factors can be compared at matched times.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from . import _kernels
from .diagnostics import (
    AUDIT_NAMES,
    DiagnosticsCollector,
    DiagnosticsSeries,
    oscillation,
)
from .geometry import CurvatureProfile, _require_closed
from .laws import FlowKind, FlowLaw


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class StepControl:
    """Step-size, guard, and convergence settings for a run.

    safety scales the local error tolerance of a step: a step is accepted
    when its step-doubling estimate of the largest relative error of 1/k
    is at most 4e-9 * safety (1e-9 at the default), so halving safety
    halves the tolerance.
    """

    safety: float = 0.25
    max_steps: int = 10_000_000
    convergence_tol: float = 1e-3
    blowup_k: float = 1e6

    def __post_init__(self) -> None:
        if not (0.0 < self.safety <= 1.0):
            raise ConfigurationError(f"safety must be in (0, 1], got {self.safety}")
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
class RunTimings:
    """Wall seconds of one run in the stepping kernel (`Stepper.advance`)
    and in collecting its diagnostics. Not deterministic, so no emitted
    file records them."""

    kernel_s: float = 0.0
    collect_s: float = 0.0


@dataclass(frozen=True)
class RunResult:
    """Outcome of run(). `guard` names the guard that ended the run: None,
    "convexity", "blowup", "nonfinite" or "step_limit". `steps` counts
    accepted steps and `rejected` the step attempts thrown away;
    `dt_range` is the (smallest, largest) accepted step, None when no step
    was taken. `timings` is left out of comparisons."""

    status: RunStatus
    final: CurvatureProfile
    series: DiagnosticsSeries
    t_final: float
    steps: int
    guard: str | None
    rejected: int = 0
    dt_range: tuple[float, float] | None = None
    timings: RunTimings = field(default_factory=RunTimings, compare=False)

    backend = "numpy"  # the one stepping lane; perfbench records still name it


# kernel status -> (run status, the guard named in RunResult.guard)
_GUARD_TRIPS = {
    _kernels.STATUS_CONVEXITY: (RunStatus.CONVEXITY_LOST, "convexity"),
    _kernels.STATUS_BLOWUP: (RunStatus.BLOW_UP, "blowup"),
    _kernels.STATUS_NONFINITE: (RunStatus.BLOW_UP, "nonfinite"),
}


def run(
    law: FlowLaw,
    kp0: CurvatureProfile,
    ctl: StepControl | None = None,
    t_end: float = 1.0,
    *,
    sample_dt: float | None = None,
    sample_every: int | None = None,
    audits: Sequence[str] = AUDIT_NAMES,
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

    Each sample is handed to the collector one sample late, once the
    run knows whether another follows: all but the last are queued for
    block collection, and the last computes what is still queued.
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

    grid = kp0.grid

    kernel_s = 0.0
    start = time.perf_counter()
    collector = DiagnosticsCollector(law, kp0, audits=audits)
    check_convergence = law.kind is not FlowKind.CONTRACTION
    converged = check_convergence and oscillation(kp0) <= ctl.convergence_tol
    collect_s = time.perf_counter() - start
    if on_sample is not None:
        on_sample(0.0, kp0, 0)

    stepper = _kernels.Stepper(kp0.k, law.alpha, law.kind, ctl.safety, ctl.blowup_k)
    kp_cur = kp0
    held = (0.0, kp0, 0.0)  # the latest sample, not yet collected
    t_cur = 0.0
    steps_used = 0
    sample_idx = 0
    boundary = 0
    # a start at or above blowup_k trips the stepper's entry guard
    status: RunStatus | None = RunStatus.CONVERGED if converged else None
    guard: str | None = None

    while status is None and t_cur < t_end:
        remaining = ctl.max_steps - steps_used
        if remaining <= 0:
            status = RunStatus.STEP_LIMIT
            break
        if sample_dt is not None:
            boundary += 1
            t_next = min(boundary * sample_dt, t_end)
            budget = remaining
        else:
            t_next = t_end
            budget = min(sample_every, remaining)

        start = time.perf_counter()
        n_steps, code = stepper.advance(t_next, budget)
        kernel_s += time.perf_counter() - start
        steps_used += n_steps
        t_sample = stepper.t
        if code in _GUARD_TRIPS:
            status, guard = _GUARD_TRIPS[code]
        elif code == _kernels.STATUS_BUDGET and steps_used >= ctl.max_steps:
            status = RunStatus.STEP_LIMIT

        if t_sample > t_cur:
            t_cur = t_sample
            kp_cur = CurvatureProfile(grid, stepper.k())
            start = time.perf_counter()
            collector.collect(*held, defer=True)
            held = (t_cur, kp_cur, stepper.s)
            converged = check_convergence and oscillation(kp_cur) <= ctl.convergence_tol
            collect_s += time.perf_counter() - start
            sample_idx += 1
            if on_sample is not None:
                on_sample(t_cur, kp_cur, sample_idx)
            if status is None and converged:
                status = RunStatus.CONVERGED

    start = time.perf_counter()
    collector.collect(*held)
    collect_s += time.perf_counter() - start

    if status is None:
        status = RunStatus.TIME_LIMIT if t_cur >= t_end else RunStatus.STEP_LIMIT
    if status is RunStatus.STEP_LIMIT:
        guard = "step_limit"
    dt_range = (stepper.h_min, stepper.h_max) if steps_used else None
    return RunResult(
        status, kp_cur, collector.series, t_cur, steps_used, guard,
        stepper.rejected, dt_range, RunTimings(kernel_s, collect_s),
    )
