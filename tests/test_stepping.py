"""Integrator tests: stability control, single steps, full runs, guards."""

from __future__ import annotations

import math

import numpy as np
import pytest

import convexflow as cf
from convexflow import _kernels, diagnostics
from convexflow.geometry import ClosureError, CurvatureProfile
from convexflow.spectral import AngularGrid
from convexflow.stepping import ConfigurationError

NONLOCAL = ("LP", "AP", "G1", "G2")
LAWS = NONLOCAL + ("Contraction",)

# circle radius under the pure contraction flow, alpha = 1
def circle_radius(r0: float, alpha: float, t: float) -> float:
    return (r0 ** (1.0 + alpha) - (1.0 + alpha) * t) ** (1.0 / (1.0 + alpha))


class TestStepControl:
    def test_defaults(self):
        ctl = cf.StepControl()
        assert ctl.safety == 0.25
        assert ctl.convergence_tol == 1e-3
        assert ctl.blowup_k == 1e6

    @pytest.mark.parametrize("safety", [0.0, -0.1, 1.5])
    def test_bad_safety(self, safety):
        with pytest.raises(ConfigurationError, match="safety"):
            cf.StepControl(safety=safety)

    def test_bad_dt_window(self):
        with pytest.raises(ConfigurationError, match="dt_min"):
            cf.StepControl(dt_min=1.0, dt_max=0.5)

    def test_bad_caps(self):
        with pytest.raises(ConfigurationError, match="max_steps"):
            cf.StepControl(max_steps=0)
        with pytest.raises(ConfigurationError, match="convergence_tol"):
            cf.StepControl(convergence_tol=0.0)
        with pytest.raises(ConfigurationError, match="blowup_k"):
            cf.StepControl(blowup_k=-1.0)


class TestStableDt:
    def test_unit_circle_formula(self, unit_circle):
        dt = cf.stable_dt(cf.FlowLaw("LP", 1.0), unit_circle)
        assert dt == pytest.approx(0.25 * (2.0 * np.pi / 256) ** 2, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_kmax_doubling(self, alpha):
        big = cf.generate(cf.Circle(1.0))
        small = cf.generate(cf.Circle(0.5))  # k doubles
        law = cf.FlowLaw("LP", alpha)
        ratio = cf.stable_dt(law, big) / cf.stable_dt(law, small)
        assert ratio == pytest.approx(2.0 ** (alpha + 1.0), rel=1e-12)

    def test_ellipse_alpha2_factor_eight(self, unit_circle, ellipse21):
        law = cf.FlowLaw("LP", 2.0)
        dt_circle = cf.stable_dt(law, unit_circle)
        dt_ellipse = cf.stable_dt(law, ellipse21)
        assert dt_circle / dt_ellipse == pytest.approx(8.0, rel=1e-12)

    def test_dt_min_conflict(self, unit_circle):
        law = cf.FlowLaw("LP", 1.0)
        bound = cf.stable_dt(law, unit_circle)
        with pytest.raises(ConfigurationError, match="refusing to run unstably"):
            cf.stable_dt(law, unit_circle, cf.StepControl(dt_min=2.0 * bound))

    def test_clamping(self, unit_circle):
        law = cf.FlowLaw("LP", 1.0)
        dt = cf.stable_dt(law, unit_circle, cf.StepControl(dt_max=1e-6))
        assert dt == 1e-6


class TestStep:
    @pytest.mark.parametrize("kind", NONLOCAL)
    def test_circle_equilibrium(self, kind):
        kp = cf.generate(cf.Circle(2.0))
        law = cf.FlowLaw(kind, 1.5)
        dt = cf.stable_dt(law, kp)
        out = cf.step(law, kp, dt)
        assert np.abs(out.k - kp.k).max() < 1e-12

    def test_bad_dt(self, unit_circle):
        with pytest.raises(ConfigurationError, match="dt"):
            cf.step(cf.FlowLaw("LP", 1.0), unit_circle, 0.0)

    def test_step_doubling_fourth_order(self):
        # local accuracy: one step vs two half steps against an 8-substep
        # reference; the error ratio of a 4th-order one-step method is ~16
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        law = cf.FlowLaw("LP", 1.0)
        dt = 0.5 * cf.stable_dt(law, kp)

        def substeps(m: int) -> np.ndarray:
            cur = kp
            for _ in range(m):
                cur = cf.step(law, cur, dt / m)
            return cur.k

        ref = substeps(8)
        e1 = np.abs(substeps(1) - ref).max()
        e2 = np.abs(substeps(2) - ref).max()
        assert 12.0 < e1 / e2 < 20.0

    def test_contraction_circle_closed_form(self):
        # integrate the shrinking circle to t = 0.375; r goes 1 -> 0.5
        kp = cf.generate(cf.Circle(1.0, grid_n=128))
        law = cf.FlowLaw("Contraction", 1.0)
        res = cf.run(law, kp, None, 0.375, sample_dt=0.125, audits=())
        k_exact = 1.0 / circle_radius(1.0, 1.0, 0.375)
        assert k_exact == pytest.approx(2.0)
        assert np.abs(res.final.k / k_exact - 1.0).max() < 1e-6


class TestRunSampling:
    def test_time_mode_boundaries_exact(self, unit_circle):
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        res = cf.run(cf.FlowLaw("LP", 1.0), kp, None, 0.05, sample_dt=0.01,
                     audits=("rates",))
        expected = np.minimum(np.arange(6) * 0.01, 0.05)
        assert np.array_equal(res.series.column("t"), expected)
        assert res.status is cf.RunStatus.TIME_LIMIT
        assert res.t_final == 0.05

    def test_step_mode_cadence(self):
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        res = cf.run(cf.FlowLaw("LP", 1.0), kp, None, 0.02, sample_every=10,
                     audits=())
        assert res.status is cf.RunStatus.TIME_LIMIT
        assert len(res.series) == 1 + math.ceil(res.steps / 10)

    def test_sampling_config_conflicts(self, ellipse21):
        law = cf.FlowLaw("LP", 1.0)
        with pytest.raises(ConfigurationError, match="not both"):
            cf.run(law, ellipse21, None, 1.0, sample_dt=0.1, sample_every=5)
        with pytest.raises(ConfigurationError, match="sample_every"):
            cf.run(law, ellipse21, None, 1.0, sample_every=0)
        with pytest.raises(ConfigurationError, match="t_end"):
            cf.run(law, ellipse21, None, 0.0)

    def test_open_curve_rejected(self):
        grid = AngularGrid(64)
        k = 1.0 / (1.0 + 0.3 * grid.cos)
        kp = CurvatureProfile(grid, k)
        with pytest.raises(ClosureError, match="run"):
            cf.run(cf.FlowLaw("LP", 1.0), kp, None, 0.1)

    def test_on_sample_callback(self):
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        seen = []
        cf.run(cf.FlowLaw("LP", 1.0), kp, None, 0.03, sample_dt=0.01,
               audits=(), on_sample=lambda t, prof, i: seen.append((i, t)))
        assert [i for i, _ in seen] == [0, 1, 2, 3]
        assert seen[-1][1] == pytest.approx(0.03)


class TestRunStatuses:
    def test_circle_converges_immediately(self, unit_circle):
        res = cf.run(cf.FlowLaw("LP", 1.0), unit_circle, None, 1.0, audits=())
        assert res.status is cf.RunStatus.CONVERGED
        assert res.t_final == 0.0
        assert res.steps == 0
        assert len(res.series) == 1

    def test_contraction_circle_not_converged_at_zero(self):
        # constant curvature, but the contraction flow is exempt from the
        # degenerate-input rule: it must actually run
        kp = cf.generate(cf.Circle(1.0, grid_n=128))
        res = cf.run(cf.FlowLaw("Contraction", 1.0), kp, None, 0.1,
                     sample_dt=0.05, audits=())
        assert res.status is cf.RunStatus.TIME_LIMIT
        assert res.steps > 0

    def test_contraction_time_limit_before_extinction(self):
        kp = cf.generate(cf.Circle(1.0, grid_n=128))
        res = cf.run(cf.FlowLaw("Contraction", 1.0), kp, None, 0.49,
                     sample_dt=0.07, audits=())
        assert res.status is cf.RunStatus.TIME_LIMIT
        r = circle_radius(1.0, 1.0, 0.49)
        assert np.abs(res.final.k * r - 1.0).max() < 1e-5

    def test_contraction_blowup_past_extinction(self):
        # extinction at t = 1/2; asking for 0.51 must trip the guard
        kp = cf.generate(cf.Circle(1.0, grid_n=128))
        res = cf.run(cf.FlowLaw("Contraction", 1.0), kp, None, 0.51,
                     sample_dt=0.05, audits=())
        assert res.status is cf.RunStatus.BLOW_UP
        assert res.t_final < 0.51
        assert res.final.k.max() < cf.StepControl().blowup_k
        # the guard fired close to the true extinction time
        assert res.t_final == pytest.approx(0.5, abs=2e-3)

    def test_step_limit(self, ellipse21):
        res = cf.run(cf.FlowLaw("LP", 1.0), ellipse21,
                     cf.StepControl(max_steps=50), 1.0, audits=())
        assert res.status is cf.RunStatus.STEP_LIMIT
        assert res.steps == 50
        assert res.t_final < 1.0

    def test_converged_means_small_oscillation(self):
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=128))
        ctl = cf.StepControl(convergence_tol=1e-2)
        res = cf.run(cf.FlowLaw("LP", 1.0), kp, ctl, 10.0, sample_dt=0.05,
                     audits=())
        assert res.status is cf.RunStatus.CONVERGED
        assert res.series[-1].oscillation <= 1e-2
        assert res.t_final < 10.0


class TestRunTargets:
    def test_lp_limit_radius(self):
        # length-preserving flow rounds the ellipse out at radius L0/(2 pi)
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=128))
        L0 = cf.length(kp)
        res = cf.run(cf.FlowLaw("LP", 1.0), kp, None, 12.0, sample_dt=0.1,
                     audits=("rates",))
        assert res.status is cf.RunStatus.CONVERGED
        k_inf = 2.0 * np.pi / L0
        assert np.abs(res.final.k / k_inf - 1.0).max() <= 1e-3
        # length held through the whole run
        L = res.series.column("L")
        assert np.abs(L / L0 - 1.0).max() <= 1e-6

    def test_ap_limit_radius(self):
        # area-preserving flow settles at radius sqrt(A0/pi)
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=128))
        A0 = cf.area(kp)
        res = cf.run(cf.FlowLaw("AP", 2.0), kp, None, 8.0, sample_dt=0.1,
                     audits=("rates",))
        assert res.status is cf.RunStatus.CONVERGED
        k_inf = np.sqrt(np.pi / A0)
        assert np.abs(res.final.k / k_inf - 1.0).max() <= 1e-3
        A = res.series.column("A")
        assert np.abs(A / A0 - 1.0).max() <= 1e-6

    @pytest.mark.parametrize("kind", ["G1", "G2"])
    def test_gage_variants_monotone(self, kind):
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=128))
        res = cf.run(cf.FlowLaw(kind, 1.0), kp, None, 0.5, sample_dt=0.025,
                     audits=("rates", "entropy", "phi"))
        assert res.status in (cf.RunStatus.TIME_LIMIT, cf.RunStatus.CONVERGED)
        assert diagnostics.monotonicity_violations(res.series) == []

    def test_projection_keeps_closure(self):
        kp = cf.generate(cf.PerturbedCircle(1.0, ((3, 0.05, 0.4),), grid_n=128))
        res = cf.run(cf.FlowLaw("LP", 1.0), kp, None, 0.2, sample_dt=0.02,
                     audits=(), projection=True)
        assert res.status in (cf.RunStatus.TIME_LIMIT, cf.RunStatus.CONVERGED)
        defects = [cf.closure_defect(CurvatureProfile(kp.grid, res.final.k))]
        assert max(defects) < 1e-10


def advance(k, span=1.0, law=cf.FlowKind.LP, alpha=1.0, *, safety=0.25,
            blowup_k=1e6, budget=100_000):
    return _kernels.advance(
        np.array(k, dtype=float), 0.0, span, alpha, law,
        safety, 0.0, math.inf, blowup_k, False, budget,
    )


def circle_k(r, n=64):
    return cf.generate(cf.Circle(r, grid_n=n)).k.copy()


class TestKernel:
    @pytest.mark.parametrize("kind", LAWS)
    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    @pytest.mark.parametrize("n", [64, 512])
    def test_stage_matches_curvature_rhs(self, kind, alpha, n):
        kp = cf.random_convex(1, grid_n=n)
        law = cf.FlowLaw(kind, alpha)
        rhs = _kernels.Derivative(n, alpha, law.kind)
        f = np.empty(n)
        q = rhs(kp.k.copy(), f)
        expect = cf.curvature_rhs(law, kp).values
        assert np.abs(f - expect).max() <= 1e-12 * np.abs(expect).max()
        v = kp.k ** alpha
        assert q == pytest.approx(cf.integrate(cf.PeriodicField(kp.grid, v)), rel=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_parseval_length_and_area(self, seed):
        kp = cf.random_convex(seed, grid_n=128)
        rhs = _kernels.Derivative(128, 1.0, cf.FlowKind.G1)
        rhs(kp.k.copy(), np.empty(128))
        L, A = rhs.length_area()
        assert L == pytest.approx(cf.length(kp), rel=1e-12)
        assert A == pytest.approx(cf.area(kp), rel=1e-12)

    def test_parseval_area_ignores_mode_one(self):
        # u = (d^2 + 1)^-1 w off mode 1, A = (1/2) integral of u w: the
        # cos(theta) term of w must not contribute, the others exactly
        g = AngularGrid(64)
        w = (1.0 + 0.3 * np.cos(2 * g.theta) + 0.05 * np.sin(4 * g.theta)
             + 0.2 * np.cos(g.theta))
        rhs = _kernels.Derivative(64, 1.0, cf.FlowKind.G1)
        rhs(1.0 / w, np.empty(64))
        L, A = rhs.length_area()
        assert L == pytest.approx(2.0 * np.pi, rel=1e-14)
        u_dot_w = 2.0 * np.pi - np.pi * 0.3 * 0.1 - np.pi * 0.05 * 0.05 / 15.0
        assert A == pytest.approx(0.5 * u_dot_w, rel=1e-14)

    def test_transforms_match_numpy(self):
        x = np.random.default_rng(0).random((2, 64))
        spec = np.empty((2, 33), dtype=complex)
        _kernels._rfft(x, 1.0, out=spec)
        assert np.array_equal(spec, np.fft.rfft(x))
        back = np.empty(64)
        _kernels._irfft(spec[1], 1.0 / 64, out=back)
        assert np.array_equal(back, np.fft.irfft(spec[1], 64))

    @pytest.mark.parametrize("bad, status", [
        (math.nan, _kernels.STATUS_NONFINITE),
        (math.inf, _kernels.STATUS_NONFINITE),
        (-math.inf, _kernels.STATUS_NONFINITE),
        (0.0, _kernels.STATUS_CONVEXITY),
        (-0.5, _kernels.STATUS_CONVEXITY),
    ])
    def test_entry_guards(self, bad, status):
        k = circle_k(1.0)
        k[5] = bad
        out, _, t, steps, code = advance(k)
        assert (code, t, steps) == (status, 0.0, 0)
        assert np.array_equal(out, k, equal_nan=True)

    def test_entry_blowup(self):
        k = circle_k(0.5)
        assert advance(k, blowup_k=2.0)[3:] == (0, _kernels.STATUS_BLOWUP)

    def test_budget(self):
        _, _, t, steps, code = advance(circle_k(1.0), budget=3)
        assert (steps, code) == (3, _kernels.STATUS_BUDGET)
        assert 0.0 < t < 1.0

    def test_blowup_during_run(self):
        # the contracting circle crosses k = 1.01 after a few dozen steps
        k0 = circle_k(1.0)
        out, _, t, steps, code = advance(k0, law=cf.FlowKind.CONTRACTION,
                                         blowup_k=1.01)
        assert code == _kernels.STATUS_BLOWUP
        assert steps > 0 and t > 0.0
        assert 1.0 < out.max() < 1.01

    def test_convexity_during_run(self):
        # safety 1 puts the stiffest mode outside the RK4 stability interval
        k0 = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64)).k
        out, _, _, steps, code = advance(k0, safety=1.0)
        assert code == _kernels.STATUS_CONVEXITY
        assert steps > 0 and out.min() > 0.0

    def test_nonfinite_during_run(self):
        # k^(alpha+2) overflows near k = 1050 while the step-size bound,
        # k^(alpha+1), is still finite and k is far below blowup_k
        with np.errstate(over="ignore", invalid="ignore"):
            out, _, _, steps, code = advance(
                circle_k(1e-3), law=cf.FlowKind.CONTRACTION, alpha=100.0
            )
        assert code == _kernels.STATUS_NONFINITE
        assert steps > 0
        assert np.all(np.isfinite(out)) and out.max() < 1e6

    @pytest.mark.parametrize("kind", LAWS)
    def test_step_is_rk4_of_curvature_rhs(self, kind):
        # curvature_rhs of G1/G2 needs closed stage states: the ellipse's
        # symmetry keeps them closed, a random_convex profile drifts past
        # the closure tolerance within one step at this dt
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        law = cf.FlowLaw(kind, 2.0)
        dt = cf.stable_dt(law, kp)

        def f(k):
            return cf.curvature_rhs(law, CurvatureProfile(kp.grid, k)).values

        f1 = f(kp.k)
        f2 = f(kp.k + 0.5 * dt * f1)
        f3 = f(kp.k + 0.5 * dt * f2)
        f4 = f(kp.k + dt * f3)
        increment = (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        got = cf.step(law, kp, dt).k - kp.k
        assert np.abs(got - increment).max() <= 1e-12 * np.abs(increment).max()


class TestGuardNames:
    def test_clean_runs_name_no_guard(self, unit_circle):
        law = cf.FlowLaw("LP", 1.0)
        assert cf.run(law, unit_circle, None, 1.0, audits=()).guard is None
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        res = cf.run(law, kp, None, 0.01, audits=())
        assert (res.status, res.guard) == (cf.RunStatus.TIME_LIMIT, None)
        assert res.backend == "numpy"

    def test_step_limit(self, ellipse21):
        res = cf.run(cf.FlowLaw("LP", 1.0), ellipse21,
                     cf.StepControl(max_steps=5), 1.0, audits=())
        assert (res.status, res.guard) == (cf.RunStatus.STEP_LIMIT, "step_limit")

    def test_convexity(self):
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        res = cf.run(cf.FlowLaw("LP", 1.0), kp, cf.StepControl(safety=1.0), 0.5,
                     audits=())
        assert (res.status, res.guard) == (cf.RunStatus.CONVEXITY_LOST, "convexity")

    def test_blowup(self):
        kp = cf.generate(cf.Circle(1.0, grid_n=64))
        law = cf.FlowLaw("Contraction", 1.0)
        for ctl in (cf.StepControl(blowup_k=1.01), cf.StepControl(blowup_k=1.0)):
            res = cf.run(law, kp, ctl, 1.0, audits=())
            assert (res.status, res.guard) == (cf.RunStatus.BLOW_UP, "blowup")

    def test_nonfinite_is_not_blowup(self):
        kp = cf.generate(cf.Circle(1e-3, grid_n=64))
        with np.errstate(over="ignore", invalid="ignore"):
            res = cf.run(cf.FlowLaw("Contraction", 100.0), kp, None, 1.0, audits=())
        assert (res.status, res.guard) == (cf.RunStatus.BLOW_UP, "nonfinite")
        assert res.final.k.max() < cf.StepControl().blowup_k


class TestTemporalRobustness:
    def test_halving_safety_leaves_scalars(self, assert_matched_scalars):
        # halving the step size must not move any recorded scalar at t = 1
        # beyond 1e-8 relative
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        law = cf.FlowLaw("LP", 1.0)
        runs = [
            cf.run(law, kp, cf.StepControl(safety=s), 1.0, sample_dt=0.25)
            for s in (0.25, 0.125)
        ]
        assert_matched_scalars(runs[0].series, runs[1].series, 1e-8)
