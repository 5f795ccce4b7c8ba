"""Integrator tests: stability control, single steps, full runs, guards."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

import convexflow as cf
from convexflow import _kernels, diagnostics
from convexflow.geometry import ClosureError, ConvexityError, CurvatureProfile
from convexflow.spectral import AngularGrid
from convexflow.stepping import ConfigurationError

import oracles

NONLOCAL = ("LP", "AP", "G1", "G2")
LAWS = NONLOCAL + ("Contraction",)

# PerturbedCircle (r0, modes) with closed-form areas (oracles)
AREA_SPECS = [
    (1.0, ((2, 0.2, 0.0),)),
    (1.0, ((2, 0.05, 0.3), (3, 0.02, 1.1), (6, 0.004, -0.4))),
    (2.5, ((4, 0.1, 2.0), (7, 0.01, 0.5))),
    (0.3, ((5, 0.005, 0.0), (9, 0.0007, 3.0))),
]


def forced_step(law, kp, dt):
    """One ETDRK4 step of exactly dt, with no error control
    (`_kernels.Stepper.force`); a guard trip raises."""
    stepper = _kernels.Stepper(kp.k, law.alpha, law.kind, 1.0, math.inf, 1)
    code = stepper.force(dt)
    if code == "convexity":
        raise ConvexityError("curvature lost positivity during the step")
    assert code is None, code
    return CurvatureProfile(kp.grid, stepper.k())


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

    def test_bad_caps(self):
        with pytest.raises(ConfigurationError, match="max_steps"):
            cf.StepControl(max_steps=0)
        with pytest.raises(ConfigurationError, match="convergence_tol"):
            cf.StepControl(convergence_tol=0.0)
        with pytest.raises(ConfigurationError, match="blowup_k"):
            cf.StepControl(blowup_k=-1.0)


class TestStep:
    @pytest.mark.parametrize("kind", NONLOCAL)
    def test_circle_equilibrium(self, kind):
        kp = cf.generate(cf.Circle(2.0))
        law = cf.FlowLaw(kind, 1.5)
        out = forced_step(law, kp, 5.7e-4)
        assert np.abs(out.k - kp.k).max() < 1e-12

    def test_step_doubling_fourth_order(self):
        # local accuracy: one step vs two half steps against an 8-substep
        # reference; the error ratio of a 4th-order one-step method is ~16
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        law = cf.FlowLaw("LP", 1.0)
        dt = 3.0e-4

        def substeps(m: int) -> np.ndarray:
            cur = kp
            for _ in range(m):
                cur = forced_step(law, cur, dt / m)
            return cur.k

        ref = substeps(8)
        e1 = np.abs(substeps(1) - ref).max()
        e2 = np.abs(substeps(2) - ref).max()
        assert 12.0 < e1 / e2 < 20.0

    def test_forced_step_loses_convexity(self):
        # a step far past what the error control would take: a stage of it
        # leaves 1/k > 0 on the 6:1 ellipse
        kp = cf.generate(cf.Ellipse(6.0, 1.0, grid_n=64))
        with pytest.raises(ConvexityError, match="positivity"):
            forced_step(cf.FlowLaw("AP", 2.0), kp, 0.1)

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
        with pytest.raises(ConfigurationError, match="sample_dt"):
            cf.run(law, ellipse21, None, 1.0, sample_dt=0.0)
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


def assert_stopped_at_start(res, kp0):
    # a run that ends before its first step records the start alone
    assert (res.steps, res.rejected, res.dt_range) == (0, 0, None)
    assert res.t_final == 0.0
    assert res.final is kp0
    assert res.series.column("t").tolist() == [0.0]


class TestRunStatuses:
    def test_circle_converges_immediately(self, unit_circle):
        for sampling in ({}, {"sample_every": 10}):
            res = cf.run(cf.FlowLaw("LP", 1.0), unit_circle, None, 1.0,
                         audits=(), **sampling)
            assert (res.status, res.guard) == (cf.RunStatus.CONVERGED, None)
            assert_stopped_at_start(res, unit_circle)

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
        assert res.series.column("oscillation")[-1] <= 1e-2
        assert res.t_final < 10.0

    def test_step_counters(self):
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        law = cf.FlowLaw("LP", 1.0)
        res = cf.run(law, kp, None, 0.3, sample_dt=0.01, audits=())
        lo, hi = res.dt_range
        assert 0.0 < lo <= hi <= 0.01
        assert lo * res.steps <= res.t_final <= hi * res.steps
        assert res.rejected >= 0
        again = cf.run(law, kp, None, 0.3, sample_dt=0.01, audits=())
        assert (again.steps, again.rejected, again.dt_range) == (
            res.steps, res.rejected, res.dt_range
        )
        # a run that takes no step has no range
        assert cf.run(law, cf.generate(cf.Circle(1.0)), None, 1.0,
                      audits=()).dt_range is None


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

    def test_exact_invariants(self):
        # in w = 1/k, closure (mode 1 of w) is a linear invariant of every
        # law and the length (mode 0) one of LP; ETDRK4 leaves both modes
        # to round-off, far inside the 1e-6 closure budget
        kp = cf.random_convex(0, grid_n=256)
        res = cf.run(cf.FlowLaw("G1", 2.0), kp, None, 0.12, sample_every=25,
                     audits=())
        assert res.status is cf.RunStatus.TIME_LIMIT
        defect = res.series.column("closure_defect")
        assert defect.max() <= 1e-14 * res.series.column("L")[0]

        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=128))
        res = cf.run(cf.FlowLaw("LP", 1.0), kp, None, 1.0, sample_dt=0.005,
                     audits=())
        assert res.status is cf.RunStatus.TIME_LIMIT
        L = res.series.column("L")
        assert np.abs(L / L[0] - 1.0).max() <= 1e-14


def advance(k, span=1.0, law=cf.FlowKind.LP, alpha=1.0, *, safety=0.25,
            blowup_k=1e6, budget=100_000, max_steps=100_000):
    """One Stepper advance from t = 0: (k, s, t, steps, guard)."""
    stepper = _kernels.Stepper(np.array(k, dtype=float), alpha, law, safety, blowup_k,
                               max_steps)
    code = stepper.advance(span, budget)
    return stepper.k(), stepper.s, stepper.t, stepper.steps, code


def spectrum(w):
    """rfft of w as the float view of its (re, im) pairs the kernel reads,
    one row per state."""
    return np.atleast_2d(np.fft.rfft(w).view(np.float64))


def rate(kind, alpha, S):
    """(R, w, q) of the kernel's right-hand side on the rows S."""
    B, pairs = S.shape
    n = pairs - 2
    w, R = np.empty((B, n)), np.empty((B, pairs))
    q = _kernels.Derivative(n, alpha, cf.FlowKind(kind), rows=B)(S, w, R)
    return R, w, q


def kernel_lambda(kind, S):
    """The lambda the kernel forms at alpha = 1 for one state, from mode 0
    of its rate, n (lambda - mean v), and q = dtheta V_0."""
    n = S.shape[-1] - 2
    R, _, [q] = rate(kind, 1.0, S)
    return (R[0, 0] + q * n / (2.0 * np.pi)) / n, q


def kernel_length_area(S):
    """(L, A) the kernel reads off one state's spectrum at alpha = 1: AP's
    lambda is (integral of v w)/L with v w = 1, and G1's 2 A q / L^2."""
    L = 2.0 * np.pi / kernel_lambda("AP", S)[0]
    lam, q = kernel_lambda("G1", S)
    return L, lam * L * L / (2.0 * q)


def circle_k(r, n=64):
    return cf.generate(cf.Circle(r, grid_n=n)).k.copy()


class TestKernel:
    @pytest.mark.parametrize("kind", LAWS)
    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    @pytest.mark.parametrize("n", [64, 512])
    def test_stage_matches_curvature_rhs(self, kind, alpha, n):
        kp = cf.random_convex(1, grid_n=n)
        law = cf.FlowLaw(kind, alpha)
        R, w, [q] = rate(kind, alpha, spectrum(kp.w))
        assert np.abs(w[0] - kp.w).max() <= 1e-14 * kp.w.max()
        # w_t = -k_t / k^2, returned as its spectrum
        f = np.fft.irfft(R[0].view(complex), n)
        expect = -oracles.curvature_rhs(law, kp) * kp.w * kp.w
        assert np.abs(f - expect).max() <= 1e-12 * np.abs(expect).max()
        v = kp.k ** alpha
        assert q == pytest.approx(cf.integrate_values(v), rel=1e-13)

    @pytest.mark.parametrize("case", range(4))
    def test_parseval_length_and_area(self, case):
        r0, modes = AREA_SPECS[case]
        for n in (128, 256):
            kp = cf.generate(cf.PerturbedCircle(r0=r0, modes=modes, grid_n=n))
            L, A = kernel_length_area(spectrum(kp.w))
            # u = r0 + modes has perimeter 2 pi r0 (the modes integrate to 0)
            assert L == pytest.approx(2.0 * np.pi * r0, rel=1e-12)
            # the kernel and geometry.area share one formula; hold both
            # to the closed form
            expect = oracles.support_polynomial_area(r0, modes)
            assert A == pytest.approx(expect, rel=1e-12)
            assert cf.area(kp) == pytest.approx(expect, rel=1e-12)

    def test_parseval_area_ignores_mode_one(self):
        # u = (d^2 + 1)^-1 w off mode 1, A = (1/2) integral of u w: the
        # cos(theta) term of w must not contribute, the others exactly
        g = AngularGrid(64)
        w = (1.0 + 0.3 * np.cos(2 * g.theta) + 0.05 * np.sin(4 * g.theta)
             + 0.2 * np.cos(g.theta))
        L, A = kernel_length_area(spectrum(w))
        assert L == pytest.approx(2.0 * np.pi, rel=1e-14)
        u_dot_w = 2.0 * np.pi - np.pi * 0.3 * 0.1 - np.pi * 0.05 * 0.05 / 15.0
        assert A == pytest.approx(0.5 * u_dot_w, rel=1e-14)

    @pytest.mark.parametrize("kind", LAWS)
    def test_rows_have_the_bits_of_single_rows(self, kind):
        S = np.concatenate([spectrum(cf.random_convex(seed, grid_n=128).w)
                            for seed in (1, 2)])
        R, w, q = rate(kind, 2.0, S)
        for i in (0, 1):
            R1, w1, q1 = rate(kind, 2.0, S[i:i + 1])
            assert R1.tobytes() == R[i].tobytes()
            assert w1.tobytes() == w[i].tobytes()
            assert q1 == [q[i]]

    @pytest.mark.parametrize("kind", LAWS)
    def test_doubling_pair_rows_are_single_steps(self, kind):
        # step doubling takes its h step and its first h/2 step from the
        # held state as the two rows of one pass; each row has the bits of
        # a pass on that row alone
        kp = cf.random_convex(2, grid_n=128)
        stepper = _kernels.Stepper(kp.k, 2.0, cf.FlowKind(kind), 0.25, math.inf, 10)
        assert stepper._refresh_sigma()
        co = stepper._coefficients(4.0 * stepper.h)
        S0, R0 = (np.repeat(x, 2, axis=0) for x in (stepper.S, stepper.R))
        pair = np.empty_like(S0)
        assert stepper._etd(co, S0, R0, pair)
        for i in (0, 1):
            one = np.empty_like(stepper.S)
            assert stepper._etd(co[:, i:i + 1], stepper.S, stepper.R, one)
            assert one.tobytes() == pair[i].tobytes()
        # and an attempt of that step makes the same pass
        stepper._attempt(4.0 * stepper.h)
        assert stepper._pair.tobytes() == pair.tobytes()

    def test_coefficients_match_the_per_step_formulas(self):
        # the h and h/2 sets are built in one vectorised pass; this is the
        # loop over the two steps they replaced
        c = -np.linspace(0.0, 4e4, 130)
        h = 1.7e-4
        z = h * c
        zz = np.stack((z, 0.5 * z, 0.25 * z))
        p1, p2, p3 = _kernels.phi_functions(zz)
        ez = np.exp(zz)
        want = np.empty((2, 6, c.size))
        for half in (0, 1):
            step = h * 0.5**half
            want[half, 0] = ez[half]
            want[half, 1] = ez[half + 1]
            want[half, 2] = (0.5 * step) * p1[half + 1]
            want[half, 3] = step * (p1[half] - 3.0 * p2[half] + 4.0 * p3[half])
            want[half, 4] = (2.0 * step) * (p2[half] - 2.0 * p3[half])
            want[half, 5] = step * (4.0 * p3[half] - p2[half])
        got = _kernels._etd_coefficients(c, h)
        assert got.tobytes() == want.transpose(1, 0, 2).tobytes()

    def test_transforms_match_numpy(self):
        x = np.random.default_rng(0).random((2, 64))
        spec = np.empty((2, 33), dtype=complex)
        _kernels._rfft(x, 1.0, out=spec)
        assert np.array_equal(spec, np.fft.rfft(x))
        back = np.empty(64)
        _kernels._irfft(spec[1], 1.0 / 64, out=back)
        assert np.array_equal(back, np.fft.irfft(spec[1], 64))

    @pytest.mark.parametrize("bad, status", [
        (math.nan, "nonfinite"),
        (math.inf, "nonfinite"),
        (-math.inf, "nonfinite"),
        (0.0, "convexity"),
        (-0.5, "convexity"),
    ])
    def test_entry_guards(self, bad, status):
        k = circle_k(1.0)
        k[5] = bad
        out, _, t, steps, code = advance(k)
        assert (code, t, steps) == (status, 0.0, 0)
        assert np.array_equal(out, k, equal_nan=True)

    def test_entry_blowup(self):
        k = circle_k(0.5)
        assert advance(k, blowup_k=2.0)[3:] == (0, "blowup")

    def test_budget(self):
        # the ellipse is not an equilibrium, so the span takes many steps
        k0 = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64)).k
        _, _, t, steps, code = advance(k0, budget=3)
        assert (steps, code) == (3, None)
        assert 0.0 < t < 1.0
        # the step cap, unlike a budget, is a guard that holds for good
        stepper = _kernels.Stepper(k0, 1.0, cf.FlowKind.LP, 0.25, 1e6, 3)
        assert stepper.advance(1.0, 5) == "step_limit"
        assert (stepper.steps, stepper.guard, stepper.advance(1.0)) == (
            3, "step_limit", "step_limit"
        )

    def test_blowup_during_run(self):
        # the contracting circle crosses k = 1.01 in its second step
        k0 = circle_k(1.0)
        out, _, t, steps, code = advance(k0, law=cf.FlowKind.CONTRACTION,
                                         blowup_k=1.01)
        assert code == "blowup"
        assert steps > 0 and t > 0.0
        assert 1.0 < out.max() < 1.01

    def test_convexity_during_run(self):
        # a forced step far past what the error control would take: a
        # stage leaves w > 0, and the held state is kept
        k0 = cf.generate(cf.Ellipse(6.0, 1.0, grid_n=64)).k
        stepper = _kernels.Stepper(k0, 2.0, cf.FlowKind.AP, 0.25, 1e6, 1)
        held = stepper.k()
        assert stepper.force(0.1) == "convexity"
        assert np.array_equal(stepper.k(), held)

    def test_positivity_cut_recovers(self, monkeypatch):
        # a first step of 0.1 leaves w > 0 in a stage: the attempt comes
        # back with err = inf, the next one tries a quarter of its step,
        # and the run lands where a stepper from its own first step does
        k0 = cf.generate(cf.Ellipse(6.0, 1.0, grid_n=64)).k
        log = []  # (h on entry, step tried, err = inf) per attempt
        attempt = _kernels.Stepper._attempt

        def logged(self, h):
            entry = self.h
            out = attempt(self, h)
            log.append((entry, h, out[1] is None and math.isinf(out[0])))
            return out

        monkeypatch.setattr(_kernels.Stepper, "_attempt", logged)
        plain = _kernels.Stepper(k0, 2.0, cf.FlowKind.AP, 0.25, 1e6, 100_000)
        assert plain.advance(0.05, 100_000) is None
        assert not any(inf for _, _, inf in log)
        log.clear()
        stepper = _kernels.Stepper(k0, 2.0, cf.FlowKind.AP, 0.25, 1e6, 100_000)
        stepper.h = 0.1
        assert stepper.advance(0.05, 100_000) is None
        cut = [i for i, (_, _, inf) in enumerate(log) if inf]
        assert cut
        for i in cut:
            assert log[i + 1][0] == log[i][1] * _kernels._POSITIVITY_CUT
        assert stepper.t == 0.05
        assert stepper.rejected > plain.rejected
        np.testing.assert_allclose(stepper.k(), plain.k(), rtol=1e-10, atol=0.0)

    def test_step_size_underflow_is_convexity(self):
        # with the blowup guard off, the contracting circle runs into its
        # singularity until no representable step is small enough
        with np.errstate(over="ignore"):
            out, _, t, steps, code = advance(
                circle_k(1.0), span=0.6, law=cf.FlowKind.CONTRACTION,
                blowup_k=math.inf,
            )
        assert code == "convexity"
        assert steps > 0 and t == pytest.approx(0.5, abs=1e-9)
        assert np.all(np.isfinite(out)) and out.min() > 1e6

    def test_nonfinite_during_run(self):
        # sigma = alpha*k^(alpha+1) overflows near k = 1100, far below
        # blowup_k
        with np.errstate(over="ignore", invalid="ignore"):
            out, _, _, steps, code = advance(
                circle_k(1e-3), law=cf.FlowKind.CONTRACTION, alpha=100.0
            )
        assert code == "nonfinite"
        assert steps > 0
        assert np.all(np.isfinite(out)) and out.max() < 1e6

    def test_nonfinite_sigma_warns_nothing(self):
        # the same run with every warning an error: sigma (n/2)^2 passes
        # the float range before any coefficient or stage overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, t, steps, code = advance(
                circle_k(1e-3), span=1e-6, law=cf.FlowKind.CONTRACTION, alpha=100.0
            )
        assert code == "nonfinite"
        assert steps > 0 and 0.0 < t < 1e-6

    @pytest.mark.parametrize("kind", LAWS)
    def test_step_is_rk4_of_curvature_rhs(self, kind):
        # one forced step is Cox-Matthews ETDRK4 of the w-form rate
        # w_t = -k_t / k^2, split as c w + N with c_m = sigma (1 - m^2) off
        # modes 0 and 1, sigma = (1.05 / 2) alpha k_max^(alpha+1), and its
        # phi coefficients taken from the matrix-exponential oracle
        law = cf.FlowLaw(kind, 2.0)
        dt = 1e-3
        for kp in (cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64)),
                   cf.random_convex(2, grid_n=64)):
            n = kp.grid.n

            def N(S):
                w = np.fft.irfft(S, n)
                prof = CurvatureProfile(kp.grid, 1.0 / w)
                return np.fft.rfft(-oracles.curvature_rhs(law, prof) * w * w) - c * S

            m = np.arange(n // 2 + 1)
            sigma = 0.5 * 1.05 * 2.0 * kp.k.max() ** 3
            c = np.where(m >= 2, sigma * (1.0 - m * m), 0.0)
            z = dt * c
            p1, p2, p3 = oracles.phi_functions(z)
            half1, _, _ = oracles.phi_functions(0.5 * z)
            E, E2, Q = np.exp(z), np.exp(0.5 * z), 0.5 * dt * half1

            S = np.fft.rfft(kp.w)
            Nu = N(S)
            a = E2 * S + Q * Nu
            Na = N(a)
            b = E2 * S + Q * Na
            Nb = N(b)
            cs = E2 * a + Q * (2.0 * Nb - Nu)
            Nc = N(cs)
            new = E * S + dt * ((p1 - 3.0 * p2 + 4.0 * p3) * Nu
                                + 2.0 * (p2 - 2.0 * p3) * (Na + Nb)
                                + (4.0 * p3 - p2) * Nc)
            increment = np.fft.irfft(new, n) - kp.w
            got = forced_step(law, kp, dt).w - kp.w
            assert np.abs(got - increment).max() <= 1e-12 * np.abs(increment).max()

    @pytest.mark.parametrize(
        "law, n, t_end, sample_dt, steps_at_most, rejected_at_most", [
            # the `sampled` benchmark run: 758 steps with sigma at the maximum
            ("LP", 128, 1.0, 0.005, 520, 0),
            # towards extinction at t = 1 k_max grows; a band on k_max in
            # place of the coefficient lets it climb past 2 sigma and
            # rejects 33
            ("Contraction", 256, 0.9, None, 800, 2),
        ])
    def test_sigma_is_half_the_stiffest_coefficient(
        self, monkeypatch, law, n, t_end, sample_dt, steps_at_most, rejected_at_most
    ):
        # sigma is refreshed to (1 + SIGMA_DRIFT)/2 of the stiffest diffusion
        # coefficient alpha k_max^(alpha+1) once that coefficient leaves a
        # SIGMA_DRIFT band, so every step starts with it at most 2 sigma:
        # the large-step stability bound |1 - a/sigma| <= 1 of the explicit
        # remainder
        ratios, sigmas = [], set()
        refresh = _kernels.Stepper._refresh_sigma

        def spy(stepper):
            ok = refresh(stepper)
            coefficient = stepper.alpha * (1.0 / stepper.w.min()) ** (stepper.alpha + 1.0)
            ratios.append(coefficient / stepper.sigma)
            sigmas.add(stepper.sigma)
            return ok

        monkeypatch.setattr(_kernels.Stepper, "_refresh_sigma", spy)
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=n))
        res = cf.run(cf.FlowLaw(law, 1.0), kp, None, t_end, sample_dt=sample_dt,
                     audits=())
        assert res.status is cf.RunStatus.TIME_LIMIT
        assert res.steps <= steps_at_most
        assert res.rejected <= rejected_at_most
        assert len(ratios) == res.steps + res.rejected and len(sigmas) > 1
        assert max(ratios) <= 2.0 * (1.0 + 1e-12)

    def test_phi_functions_match_expm(self):
        # the kernel's phi_1..3 against the 4x4 matrix exponential, from
        # the Taylor branch across the |z| = 1/2 switch to the closed forms
        z = -np.concatenate([np.logspace(-10, 4, 141),
                             np.linspace(0.49, 0.51, 21), [0.5]])
        for got, want in zip(_kernels.phi_functions(z), oracles.phi_functions(z)):
            assert np.abs(got / want - 1.0).max() <= 1e-13
        assert [f[0] for f in _kernels.phi_functions([0.0])] == [1.0, 0.5, 1.0 / 6.0]

    def test_step_count_independent_of_n(self):
        # the stiff diffusion is integrated exactly, so the error control
        # alone sets the steps: about the same count at every n
        law = cf.FlowLaw("LP", 1.0)
        counts = []
        for n in (128, 256, 512):
            kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=n))
            res = cf.run(law, kp, None, 0.3, sample_dt=0.3 / 80, audits=())
            assert res.status is cf.RunStatus.TIME_LIMIT
            counts.append(res.steps)
        assert max(counts) < 1000
        assert max(counts) <= 1.05 * min(counts), counts


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

    @pytest.mark.parametrize("cap", [25, 20])
    def test_step_limit_under_sample_every(self, cap):
        # the cap between two samples of the cadence, or on one: the run
        # stops at it and records that state as its last sample
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        res = cf.run(cf.FlowLaw("LP", 1.0), kp, cf.StepControl(max_steps=cap),
                     1.0, sample_every=10, audits=())
        assert (res.status, res.guard, res.steps) == (
            cf.RunStatus.STEP_LIMIT, "step_limit", cap
        )
        t = res.series.column("t")
        assert len(t) == 1 + math.ceil(cap / 10)
        assert 0.0 < t[-1] == res.t_final < 1.0

    def test_step_limit_on_a_sample_boundary(self):
        # a cap whose last step lands on a sample_dt boundary stops the run
        # there, unless that sample converged; on t_end it is a time limit
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        law = cf.FlowLaw("LP", 1.0)
        cap = cf.run(law, kp, None, 0.01, sample_dt=0.01, audits=()).steps
        ctl = cf.StepControl(max_steps=cap)
        res = cf.run(law, kp, ctl, 0.05, sample_dt=0.01, audits=())
        assert (res.status, res.guard, res.steps, res.t_final) == (
            cf.RunStatus.STEP_LIMIT, "step_limit", cap, 0.01
        )
        assert res.series.column("t").tolist() == [0.0, 0.01]
        osc = res.series.column("oscillation")
        assert osc[1] < osc[0]
        ctl = dataclasses.replace(ctl, convergence_tol=0.5 * (osc[0] + osc[1]))
        res = cf.run(law, kp, ctl, 0.05, sample_dt=0.01, audits=())
        assert (res.status, res.guard, res.steps, res.t_final) == (
            cf.RunStatus.CONVERGED, None, cap, 0.01
        )
        res = cf.run(law, kp, cf.StepControl(max_steps=cap), 0.01, sample_dt=0.01,
                     audits=())
        assert (res.status, res.guard, res.steps) == (cf.RunStatus.TIME_LIMIT, None, cap)

    def test_convexity(self):
        # with the blowup guard off, a contraction past extinction shrinks
        # its step until t + dt == t, which the kernel reports as convexity
        kp = cf.generate(cf.Circle(1.0, grid_n=64))
        ctl = cf.StepControl(blowup_k=math.inf)
        with np.errstate(over="ignore"):
            res = cf.run(cf.FlowLaw("Contraction", 1.0), kp, ctl, 0.6, audits=())
        assert (res.status, res.guard) == (cf.RunStatus.CONVEXITY_LOST, "convexity")
        assert res.t_final == pytest.approx(0.5, abs=1e-9)

    def test_blowup(self):
        kp = cf.generate(cf.Circle(1.0, grid_n=64))
        law = cf.FlowLaw("Contraction", 1.0)
        res = cf.run(law, kp, cf.StepControl(blowup_k=1.01), 1.0, audits=())
        assert (res.status, res.guard) == (cf.RunStatus.BLOW_UP, "blowup")
        assert res.steps > 0
        # k_max = 1 >= blowup_k at the start: the stepper's entry guard trips
        for sampling in ({}, {"sample_every": 10}):
            res = cf.run(law, kp, cf.StepControl(blowup_k=1.0), 1.0, audits=(),
                         **sampling)
            assert (res.status, res.guard) == (cf.RunStatus.BLOW_UP, "blowup")
            assert_stopped_at_start(res, kp)

    def test_nonfinite_is_not_blowup(self):
        kp = cf.generate(cf.Circle(1e-3, grid_n=64))
        with np.errstate(over="ignore", invalid="ignore"):
            res = cf.run(cf.FlowLaw("Contraction", 100.0), kp, None, 1.0, audits=())
        assert (res.status, res.guard) == (cf.RunStatus.BLOW_UP, "nonfinite")
        assert res.final.k.max() < cf.StepControl().blowup_k


class TestTemporalRobustness:
    def test_halving_safety_leaves_scalars(self, assert_matched_scalars):
        # halving safety, and with it the local error tolerance of a step,
        # must not move any recorded scalar at t = 1 beyond 1e-8 relative
        kp = cf.generate(cf.Ellipse(2.0, 1.0, grid_n=64))
        law = cf.FlowLaw("LP", 1.0)
        runs = [
            cf.run(law, kp, cf.StepControl(safety=s), 1.0, sample_dt=0.25)
            for s in (0.25, 0.125)
        ]
        assert_matched_scalars(runs[0].series, runs[1].series, 1e-8)


class TestBlockCollection:
    # run() queues each sample for block collection and computes what is
    # queued at the last one; whatever ends the run, every sample it
    # handed to on_sample must come out as a computed row. Blocks hold 64
    # rows at n=64, so each run samples often enough to span more than one
    @pytest.mark.parametrize(
        "law, curve, ctl, t_end, status",
        [
            ("LP", cf.Ellipse(2.0, 1.0, grid_n=64), None, 0.1, "TIME_LIMIT"),
            ("LP", cf.Ellipse(2.0, 1.0, grid_n=64),
             cf.StepControl(convergence_tol=0.8), 10.0, "CONVERGED"),
            ("LP", cf.Ellipse(2.0, 1.0, grid_n=64),
             cf.StepControl(max_steps=120), 10.0, "STEP_LIMIT"),
            ("Contraction", cf.Circle(1.0, grid_n=64), None, 0.51, "BLOW_UP"),
            ("Contraction", cf.Circle(1.0, grid_n=64),
             cf.StepControl(blowup_k=math.inf), 0.6, "CONVEXITY_LOST"),
        ],
    )
    def test_every_sample_is_collected(self, law, curve, ctl, t_end, status):
        seen = []
        with np.errstate(over="ignore"):
            res = cf.run(cf.FlowLaw(law, 1.0), cf.generate(curve), ctl, t_end,
                         sample_dt=0.001,
                         on_sample=lambda t, kp, i: seen.append(t))
        assert res.status is getattr(cf.RunStatus, status)
        assert len(seen) > diagnostics.DiagnosticsCollector(
            cf.FlowLaw(law, 1.0), cf.generate(curve)).block_rows
        assert res.series.column("t").tolist() == seen
        assert not np.isnan(res.series.column("L")).any()
        assert not np.isnan(res.series.column("r_in")).any()

    def test_timings(self, ellipse21):
        res = cf.run(cf.FlowLaw("LP", 1.0), ellipse21, None, 0.05)
        assert res.timings.kernel_s > 0.0
        assert res.timings.collect_s > 0.0
        # not deterministic, so not part of what makes two results equal
        timings = [f for f in dataclasses.fields(cf.RunResult) if f.name == "timings"]
        assert [f.compare for f in timings] == [False]
