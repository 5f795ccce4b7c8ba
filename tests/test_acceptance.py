"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line; run with `-s` to watch them
appear as the runs complete. The module takes about 20 seconds: the
robustness check repeats every conservation run at doubled resolution
and halved safety (half the local error tolerance of a step), and the
convergence targets integrate until the oscillation actually dies.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from convexflow import (
    Circle,
    Ellipse,
    FlowKind,
    FlowLaw,
    RunStatus,
    StepControl,
    TsoContext,
    generate,
    random_convex,
    run,
)
from convexflow.diagnostics import (
    closure_violations,
    failed_margins,
    fit_decay_rate,
    inequality_audit,
    monotonicity_violations,
    psi_violations,
    rate_violations,
    tso_violations,
)

import oracles

GRID_N = 256
CONTRACTION_ALPHAS = (0.5, 1.0, 2.0)
CONSERVING_ALPHAS = (0.5, 1.0, 2.0, 3.0)
# Per-exponent horizons: long enough for visible dynamics, short enough
# that n=256 still resolves the profile. alpha=3 develops a steep
# transition zone whose Fourier tail outgrows the grid past t ~ 0.02,
# so its window stops before that.
HORIZONS = {0.5: 0.4, 1.0: 0.3, 2.0: 0.12, 3.0: 0.015}
SAMPLES = 80
CONVERGENCE_TOL = 5e-4


def _ellipse(n: int = GRID_N):
    return generate(Ellipse(a=2.0, b=1.0, grid_n=n))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def contraction_runs():
    out = {}
    for alpha in CONTRACTION_ALPHAS:
        t_end = 0.9 * oracles.extinction_time(1.0, alpha)
        out[alpha] = run(
            FlowLaw(FlowKind.CONTRACTION, alpha),
            generate(Circle(r=1.0, grid_n=GRID_N)),
            t_end=t_end,
            sample_dt=t_end / 100,
        )
    return out


@pytest.fixture(scope="module")
def conserving_runs():
    out = {}
    for kind in (FlowKind.LP, FlowKind.AP):
        for alpha in CONSERVING_ALPHAS:
            t_end = HORIZONS[alpha]
            out[kind, alpha] = run(
                FlowLaw(kind, alpha),
                _ellipse(),
                t_end=t_end,
                sample_dt=t_end / SAMPLES,
            )
    return out


@pytest.fixture(scope="module")
def fine_runs():
    out = {}
    for kind in (FlowKind.LP, FlowKind.AP):
        for alpha in CONSERVING_ALPHAS:
            t_end = HORIZONS[alpha]
            out[kind, alpha] = run(
                FlowLaw(kind, alpha),
                _ellipse(2 * GRID_N),
                StepControl(safety=0.125),
                t_end=t_end,
                sample_dt=t_end / SAMPLES,
            )
    return out


@pytest.fixture(scope="module")
def converged_runs():
    # sample_dt matches the conserving runs of the same exponent: fine
    # enough that centered differences of L and A resolve the initial
    # layer, which the rate cross-check rides on
    ctl = StepControl(convergence_tol=CONVERGENCE_TOL)
    return {
        FlowKind.LP: run(
            FlowLaw(FlowKind.LP, 1.0),
            _ellipse(),
            ctl,
            t_end=12.0,
            sample_dt=HORIZONS[1.0] / SAMPLES,
        ),
        FlowKind.AP: run(
            FlowLaw(FlowKind.AP, 2.0),
            _ellipse(),
            ctl,
            t_end=8.0,
            sample_dt=HORIZONS[2.0] / SAMPLES,
        ),
    }


@pytest.fixture(scope="module")
def ratio_runs():
    # sampled at the alpha=2 density: the initial layer of these laws
    # sits between the alpha=1 and alpha=2 stiffness scales
    return {
        kind: run(
            FlowLaw(kind, 1.5),
            _ellipse(),
            t_end=0.5,
            sample_dt=HORIZONS[2.0] / SAMPLES,
        )
        for kind in (FlowKind.G1, FlowKind.G2)
    }


@pytest.fixture(scope="module")
def tso_run():
    kp = _ellipse()
    T1 = TsoContext.from_initial(kp, 1.0).T1
    return run(FlowLaw(FlowKind.LP, 1.0), kp, t_end=T1, sample_dt=T1 / 62)


@pytest.fixture(scope="module")
def all_runs(
    contraction_runs, conserving_runs, fine_runs, converged_runs, ratio_runs, tso_run
):
    runs = [(f"Contraction alpha={a:g}", r) for a, r in contraction_runs.items()]
    runs += [
        (f"{k.value} alpha={a:g} n={GRID_N}", r)
        for (k, a), r in conserving_runs.items()
    ]
    runs += [
        (f"{k.value} alpha={a:g} n={2 * GRID_N}", r)
        for (k, a), r in fine_runs.items()
    ]
    runs += [(f"{k.value} to convergence", r) for k, r in converged_runs.items()]
    runs += [(f"{k.value} alpha=1.5", r) for k, r in ratio_runs.items()]
    runs.append(("LP curvature-bound window", tso_run))
    return runs


def test_criterion_1_exact_contraction(contraction_runs):
    worst = 0.0
    for alpha, res in contraction_runs.items():
        assert res.status is RunStatus.TIME_LIMIT, (alpha, res.status)
        r_t = oracles.shrinking_circle_radius(1.0, alpha, res.t_final)
        worst = max(worst, float(np.abs(res.final.k * r_t - 1.0).max()))
    report(
        1,
        worst <= 1e-6,
        f"shrinking-circle curvature error {worst:.2e}"
        f" (tol 1e-6, alpha in {CONTRACTION_ALPHAS})",
    )


def test_criterion_2_conservation(conserving_runs):
    worst = 0.0
    for (kind, alpha), res in conserving_runs.items():
        assert res.status is RunStatus.TIME_LIMIT, (kind, alpha, res.status)
        col = res.series.column("L" if kind is FlowKind.LP else "A")
        worst = max(worst, float(np.abs(col - col[0]).max() / col[0]))
    report(
        2,
        worst <= 1e-6,
        f"worst drift of the conserved quantity {worst:.2e}"
        f" over eight LP/AP runs (tol 1e-6)",
    )


def test_criterion_3_convergence_targets(converged_runs):
    ok = True
    details = []
    for kind, res in converged_runs.items():
        ok = ok and res.status is RunStatus.CONVERGED
        if kind is FlowKind.LP:
            k_inf = 2.0 * math.pi / res.series.column("L")[0]
        else:
            k_inf = math.sqrt(math.pi / res.series.column("A")[0])
        dev = float(np.abs(res.final.k / k_inf - 1.0).max())
        ok = ok and dev <= 1e-3
        details.append(f"{kind.value} dev {dev:.2e} at t={res.t_final:.2f}")
    report(3, ok, "; ".join(details) + " (tol 1e-3, both Converged)")


def test_criterion_4_monotonicity_suite(all_runs):
    problems = []
    for name, res in all_runs:
        problems += [f"{name}: {v}" for v in monotonicity_violations(res.series)]
        problems += [f"{name}: {v}" for v in psi_violations(res.series)]
    detail = (
        f"isoperimetric ratio, entropy, Phi and Psi comparisons over"
        f" {len(all_runs)} runs, {len(problems)} violations"
    )
    if problems:
        detail += "; first: " + problems[0]
    report(4, not problems, detail)


def test_criterion_5_curvature_bound(tso_run):
    series = tso_run.series
    bad = tso_violations(series)
    precondition = bool(series.column("Q_ok").all())
    inside = int((series.column("t") > 0.0).sum())
    ok = not bad and precondition and inside >= 60
    if ok:
        detail = (
            f"Q_max within the a-priori bound at {inside} samples on (0, T1],"
            f" precondition min u >= 2 beta held throughout"
        )
    else:
        detail = f"{len(bad)} bound violations, precondition ok={precondition}"
        if bad:
            detail += "; first: " + bad[0]
    report(5, ok, detail)


def test_criterion_6_inequality_fuzz():
    t0 = time.perf_counter()
    alphas = (1.0, 1.5, 2.0, 3.0)
    bad: list[str] = []
    for seed in range(1000):
        kp = random_convex(seed, budget=0.8)
        names = failed_margins(inequality_audit(kp, alpha=alphas[seed % 4]))
        bad += [f"seed {seed}: {n}" for n in names]
    eq_worst = 0.0
    for r in (0.5, 1.0, 2.0):
        kp = generate(Circle(r=r, grid_n=GRID_N))
        for alpha in (1.0, 2.0):
            for m in inequality_audit(kp, alpha=alpha).values():
                eq_worst = max(eq_worst, abs(m.value))
    elapsed = time.perf_counter() - t0
    ok = not bad and eq_worst <= 1e-10 and elapsed <= 120.0
    detail = (
        f"1000 random profiles clean, circle equality residual {eq_worst:.1e}"
        f" (tol 1e-10), {elapsed:.1f}s (cap 120)"
    )
    if bad:
        detail += f"; {len(bad)} failures, first: {bad[0]}"
    report(6, ok, detail)


def test_criterion_7_rate_formulas(all_runs):
    problems = []
    for name, res in all_runs:
        problems += [f"{name}: {v}" for v in rate_violations(res.series)]
    detail = (
        f"centered differences of L and A match the rate formulas on"
        f" {len(all_runs)} runs, {len(problems)} mismatches"
    )
    if problems:
        detail += "; first: " + problems[0]
    report(7, not problems, detail)


def _worst_column_change(sa, sb):
    # same scaling the shared fixture uses, kept here for the report line
    L0 = sa.column("L")[0]
    worst, worst_name = 0.0, "none"
    for name in sa.column_names():
        if name in ("t", "Q_ok"):
            continue
        a, b = sa.column(name), sb.column(name)
        good = ~np.isnan(a)
        a, b = a[good], b[good]
        diff = np.abs(a - b)
        if not diff.any():
            continue
        floor = 1e-6 * L0 if name == "closure_defect" else 1e-3 * np.abs(a).max()
        rel = float((diff / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)).max())
        if rel > worst:
            worst, worst_name = rel, name
    return worst, worst_name


def test_criterion_8_discretization_robustness(
    conserving_runs, fine_runs, assert_matched_scalars
):
    worst, label = 0.0, "none"
    for key, coarse in conserving_runs.items():
        fine = fine_runs[key]
        assert_matched_scalars(coarse.series, fine.series, 1e-7)
        w, name = _worst_column_change(coarse.series, fine.series)
        if w > worst:
            worst, label = w, f"{name} on {key[0].value} alpha={key[1]:g}"
    report(
        8,
        worst < 1e-7,
        f"doubling n and halving safety moves recorded scalars by at most"
        f" {worst:.1e} ({label}; tol 1e-7)",
    )


def test_criterion_9_closure_preservation(all_runs):
    problems = []
    worst = 0.0
    for name, res in all_runs:
        problems += [f"{name}: {v}" for v in closure_violations(res.series)]
        defect = res.series.column("closure_defect")
        worst = max(worst, float(defect.max() / res.series.column("L")[0]))
    report(
        9,
        not problems,
        f"closure defect at most {worst:.1e} of L(0) across {len(all_runs)}"
        f" runs, none re-closed after a step (budget 1e-6)",
    )


def test_criterion_10_decay_rates(conserving_runs, converged_runs):
    ok = True
    rates = []
    for kind, res in converged_runs.items():
        rate = fit_decay_rate(res.series)
        ok = ok and math.isfinite(rate) and rate < 0.0
        rates.append(f"{kind.value} converged {rate:.3f}")
    short = []
    for (kind, alpha), res in conserving_runs.items():
        rate = fit_decay_rate(res.series)
        ok = ok and math.isfinite(rate) and rate < 0.0
        short.append(rate)
    report(
        10,
        ok,
        f"fitted k_max - k_min decay rates finite and negative:"
        f" {', '.join(rates)}; short runs in"
        f" [{min(short):.2f}, {max(short):.2f}]",
    )
