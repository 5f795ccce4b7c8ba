"""The run loop: sampling, convergence, and how a run ends.

`run()` drives one `_kernels.Stepper`, which steps the state (the scheme
is documented there), counts its steps and names the guard that stopped
it. run() lands on each sample boundary exactly, so that series from
different resolutions or safety factors can be compared at matched
times, hands each sample to the diagnostics collector, and reads the
run's status off the stepper's guard.
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


def check_t_end(t_end: float) -> None:
    """The horizon t_end must be positive and finite."""
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigurationError(f"t_end must be positive and finite, got {t_end}")


def check_cadence(sample_dt: float | None, sample_every: int | None) -> None:
    """At most one sample cadence: sample_dt positive and finite, or
    sample_every >= 1."""
    if sample_dt is not None and sample_every is not None:
        raise ConfigurationError("give sample_dt or sample_every, not both")
    if sample_every is not None and sample_every < 1:
        raise ConfigurationError(f"sample_every must be >= 1, got {sample_every}")
    if sample_dt is not None and not (math.isfinite(sample_dt) and sample_dt > 0.0):
        raise ConfigurationError(
            f"sample_dt must be positive and finite, got {sample_dt}"
        )


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


# the guard that stopped the stepper -> the run's status
_GUARD_TRIPS = {
    "convexity": RunStatus.CONVEXITY_LOST,
    "blowup": RunStatus.BLOW_UP,
    "nonfinite": RunStatus.BLOW_UP,
    "step_limit": RunStatus.STEP_LIMIT,
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
    check_t_end(t_end)
    check_cadence(sample_dt, sample_every)
    if sample_dt is None and sample_every is None:
        sample_dt = t_end / 200.0

    _require_closed(kp0, "run")

    kernel_s = 0.0
    start = time.perf_counter()
    collector = DiagnosticsCollector(law, kp0, audits=audits)
    check_convergence = law.kind is not FlowKind.CONTRACTION
    converged = check_convergence and oscillation(kp0) <= ctl.convergence_tol
    collect_s = time.perf_counter() - start
    if on_sample is not None:
        on_sample(0.0, kp0, 0)

    stepper = _kernels.Stepper(
        kp0.k, law.alpha, law.kind, ctl.safety, ctl.blowup_k, ctl.max_steps
    )
    kp_cur = kp0
    held = (0.0, kp0, 0.0)  # the latest sample, not yet collected
    sample_idx = 0
    boundary = 0
    # a start at or above blowup_k trips the stepper's entry guard, which
    # the first advance returns; a start that has converged takes none
    guard: str | None = None

    while guard is None and not converged and stepper.t < t_end:
        start = time.perf_counter()
        if sample_dt is None:
            guard = stepper.advance(t_end, sample_every)
        else:
            boundary += 1
            guard = stepper.advance(min(boundary * sample_dt, t_end))
        kernel_s += time.perf_counter() - start

        if stepper.t > held[0]:
            kp_cur = CurvatureProfile(kp0.grid, stepper.k())
            start = time.perf_counter()
            collector.collect(*held, defer=True)
            held = (stepper.t, kp_cur, stepper.s)
            converged = check_convergence and oscillation(kp_cur) <= ctl.convergence_tol
            collect_s += time.perf_counter() - start
            sample_idx += 1
            if on_sample is not None:
                on_sample(stepper.t, kp_cur, sample_idx)

    start = time.perf_counter()
    collector.collect(*held)
    collect_s += time.perf_counter() - start

    if guard is not None:  # a trip outranks a sample that converged
        status = _GUARD_TRIPS[guard]
    else:
        status = RunStatus.CONVERGED if converged else RunStatus.TIME_LIMIT
    dt_range = (stepper.h_min, stepper.h_max) if stepper.steps else None
    return RunResult(
        status, kp_cur, collector.series, stepper.t, stepper.steps, guard,
        stepper.rejected, dt_range, RunTimings(kernel_s, collect_s),
    )
