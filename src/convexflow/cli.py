"""Command-line surface: run, audit, sweep.

Exit codes: 0 for a clean run (Converged or TimeLimit with every audit
passing), 1 when the flow tripped a guard or an audit failed, 2 for
configuration and I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .diagnostics import audit_series, failed_margins, fit_decay_rate, inequality_audit
from .generators import generate
from .geometry import area, length
from .scenario import (
    Scenario,
    ScenarioError,
    Snapshot,
    emit,
    parse_curve,
    parse_scenario,
    snapshot_of,
    with_alpha,
)
from .stepping import RunResult, RunStatus, run

CLEAN = (RunStatus.CONVERGED, RunStatus.TIME_LIMIT)


def _execute(scenario: Scenario) -> tuple[RunResult, list[Snapshot]]:
    kp0 = generate(scenario.curve)
    L0 = length(kp0)
    A0 = area(kp0)
    snapshots: list[Snapshot] = []

    def on_sample(t, kp, index):
        if scenario.snapshot_every and index % scenario.snapshot_every == 0:
            snapshots.append(
                snapshot_of(len(snapshots), t, kp, scenario.law, L0, A0)
            )

    result = run(
        scenario.law,
        kp0,
        scenario.control,
        scenario.t_end,
        sample_dt=scenario.sample_dt,
        sample_every=scenario.sample_every,
        audits=scenario.audits,
        on_sample=on_sample,
    )
    return result, snapshots


def _stepping(result: RunResult) -> dict:
    """The run's deterministic step counters, as the manifest records them."""
    return {
        "steps": result.steps,
        "rejected": result.rejected,
        "dt_range": None if result.dt_range is None else list(result.dt_range),
    }


def _finish(scenario: Scenario, result: RunResult, snapshots) -> tuple[bool, list[str]]:
    emit(
        result.series,
        snapshots,
        scenario.output_dir,
        scenario=scenario,
        status=result.status.value,
        guard=result.guard,
        stepping=_stepping(result),
    )
    problems = audit_series(result.series)
    ok = result.status in CLEAN and not problems
    return ok, problems


def _cmd_run(args) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text())
    result, snapshots = _execute(scenario)
    ok, problems = _finish(scenario, result, snapshots)
    dt = "none" if result.dt_range is None else "{:.3g}..{:.3g}".format(*result.dt_range)
    print(
        f"{result.status.value}: t={result.t_final:.6g} after {result.steps} "
        f"steps, {result.rejected} rejected, dt {dt} "
        f"(guard: {result.guard or 'none'}), {len(result.series)} samples, "
        f"{len(snapshots)} snapshots -> {scenario.output_dir} "
        f"(kernel {result.timings.kernel_s:.3g} s, "
        f"collect {result.timings.collect_s:.3g} s)"
    )
    for msg in problems:
        print(f"audit: {msg}")
    return 0 if ok else 1


def _cmd_audit(args) -> int:
    text = Path(args.config).read_text()
    doc = json.loads(text)
    if isinstance(doc, dict) and "curve" in doc:
        scenario = parse_scenario(text)
        curve, alpha = scenario.curve, scenario.law.alpha
    else:
        curve, alpha = parse_curve(doc), args.alpha
    margins = inequality_audit(generate(curve), alpha=alpha)
    print(f"{'margin':<16} {'value':>14} {'scale':>12}  status")
    for name in sorted(margins):
        m = margins[name]
        flag = "ok" if m.ok() else "FAIL"
        print(f"{name:<16} {m.value:>14.6e} {m.scale:>12.3e}  {flag}")
    return 0 if not failed_margins(margins) else 1


def _sweep_one(scenario: Scenario) -> tuple[bool, dict]:
    result, snapshots = _execute(scenario)
    ok, _ = _finish(scenario, result, snapshots)
    series = result.series
    return ok, {
        "alpha": scenario.law.alpha,
        "t_converge": (
            result.t_final if result.status is RunStatus.CONVERGED else math.nan
        ),
        "final_oscillation": (
            series.column("oscillation")[-1] if len(series) else math.nan
        ),
        "decay_rate": fit_decay_rate(series),
    }


def _cmd_sweep(args) -> int:
    base = parse_scenario(Path(args.scenario).read_text())
    out = Path(base.output_dir)
    # alpha validity (the G1/G2 floor) surfaces here, before any run starts
    scenarios = [
        with_alpha(base, alpha, str(out / f"alpha_{alpha:g}"))
        for alpha in args.alpha
    ]
    # one after another: the runs hold the GIL, so threads gain nothing
    outcomes = [_sweep_one(scenario) for scenario in scenarios]

    out.mkdir(parents=True, exist_ok=True)
    names = ("alpha", "t_converge", "final_oscillation", "decay_rate")
    lines = [",".join(names)]
    for _, row in outcomes:
        lines.append(",".join(f"{row[name]:.17g}" for name in names))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")

    for ok, row in outcomes:
        print(
            f"alpha={row['alpha']:g}: t_converge={row['t_converge']:.6g} "
            f"oscillation={row['final_oscillation']:.3e} "
            f"decay_rate={row['decay_rate']:.6g} [{'ok' if ok else 'FAIL'}]"
        )
    print(f"summary -> {out / 'summary.csv'}")
    return 0 if all(ok for ok, _ in outcomes) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="convexflow",
        description=(
            "Nonlocal curvature flows of convex closed plane curves "
            "on the normal-angle grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate one scenario and emit its outputs")
    p.add_argument("scenario", help="path to a scenario JSON document")

    p = sub.add_parser(
        "audit", help="inequality margins of an initial curve, no integration"
    )
    p.add_argument("config", help="scenario JSON or a bare curve-spec JSON")
    p.add_argument(
        "--alpha",
        type=float,
        default=1.0,
        help="exponent for bare curve specs (scenarios carry their own)",
    )

    p = sub.add_parser(
        "sweep", help="run the scenario once per exponent, in turn"
    )
    p.add_argument("scenario", help="path to a scenario JSON document")
    p.add_argument(
        "--alpha", type=float, nargs="+", required=True, help="exponents to run"
    )

    args = parser.parse_args(argv)
    commands = {
        "run": _cmd_run,
        "audit": _cmd_audit,
        "sweep": _cmd_sweep,
    }
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
