import dataclasses
import functools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convexflow
from convexflow import (
    AngularGrid,
    Circle,
    ClosureError,
    CurvatureProfile,
    Ellipse,
    FlowKind,
    FlowLaw,
    PerturbedCircle,
    area,
    bonnesen_sigma,
    closure_defect,
    generate,
    inradius_outradius,
    length,
    random_convex,
    reconstruct_points,
    run,
    support_about_centroid,
)
from convexflow import geometry
from convexflow.geometry import (
    ConvexityError,
    DomainError,
    isoperimetric_ratio,
)

import oracles
from oracles import resample_values, support_identity_residual

TWO_PI = 2.0 * math.pi

# frozen from oracles.ellipse_perimeter(2, 1)
ELLIPSE21_PERIMETER = 9.688448220547676
# analytic first harmonic of 1/k = 1 + 0.3cos(theta): defect 0.3*pi
OPEN_CURVE_DEFECT = 0.3 * math.pi


def open_curve(n=256):
    grid = AngularGrid(n)
    return CurvatureProfile(grid, 1.0 / (1.0 + 0.3 * np.cos(grid.theta)))


class TestCurvatureProfile:
    def test_rejects_nonpositive(self, grid256):
        k = np.ones(256)
        k[10] = -0.5
        with pytest.raises(ConvexityError, match="index 10"):
            CurvatureProfile(grid256, k)

    def test_rejects_non_finite(self, grid256):
        k = np.ones(256)
        k[3] = np.inf
        with pytest.raises(ConvexityError, match="index 3"):
            CurvatureProfile(grid256, k)

    def test_samples_readonly(self, unit_circle):
        with pytest.raises(ValueError):
            unit_circle.k[0] = 2.0


class TestCurvatureBlock:
    # a (B, n) k holds B profiles of one grid, one per row
    @pytest.mark.parametrize("bad", [-0.5, 0.0, np.inf, np.nan])
    def test_bad_entry_names_its_index_and_theta_in_the_row(self, grid256, bad):
        k = np.ones((3, 256))
        k[1, 10] = bad
        theta = f"theta={grid256.theta[10]:.6f} (index 10)"
        with pytest.raises(ConvexityError, match=re.escape(theta)):
            CurvatureProfile(grid256, k)

    @pytest.mark.parametrize("shape", [(3, 255), (255,), (2, 3, 256), ()])
    def test_rejects_other_shapes(self, grid256, shape):
        with pytest.raises(ConvexityError, match="256 curvature samples"):
            CurvatureProfile(grid256, np.ones(shape))

    def test_closed_curve_operations_take_one_profile(self, ellipse21):
        block = CurvatureProfile(ellipse21.grid, np.stack([ellipse21.k] * 3))
        with pytest.raises(ValueError, match="area takes one profile, got a block of 3"):
            area(block)
        with pytest.raises(ValueError, match="support_about_centroid takes one"):
            inradius_outradius(block)

    def test_block_is_read_only(self, ellipse21, unit_circle):
        block = CurvatureProfile(ellipse21.grid, np.stack([ellipse21.k, unit_circle.k]))
        for a in (block.k, block.w, block.W):
            assert a.shape[0] == 2
            with pytest.raises(ValueError):
                a[0, 0] = 1.0


class TestLengthAreaClosure:
    def test_circle_radius_two(self):
        kp = generate(Circle(r=2.0))
        assert abs(length(kp) - 4.0 * math.pi) < 1e-12
        assert abs(area(kp) - 4.0 * math.pi) < 1e-12

    def test_unit_circle(self, unit_circle):
        assert abs(length(unit_circle) - TWO_PI) < 1e-13
        assert abs(area(unit_circle) - math.pi) < 1e-13

    def test_ellipse_against_quadrature_oracle(self, ellipse21):
        assert abs(oracles.ellipse_perimeter(2.0, 1.0) - ELLIPSE21_PERIMETER) < 1e-12
        assert abs(length(ellipse21) - ELLIPSE21_PERIMETER) < 1e-8
        assert abs(area(ellipse21) - 2.0 * math.pi) < 1e-8

    def test_closure_defect_circle(self, unit_circle):
        assert closure_defect(unit_circle) < 1e-12

    def test_closure_defect_ellipse(self, ellipse21):
        assert closure_defect(ellipse21) < 1e-10

    def test_closure_defect_open_curve(self):
        assert abs(closure_defect(open_curve()) - OPEN_CURVE_DEFECT) < 1e-12

    def test_closed_ops_reject_open_curve(self):
        kp = open_curve()
        with pytest.raises(ClosureError):
            area(kp)
        with pytest.raises(ClosureError):
            support_about_centroid(kp)


class TestReconstruction:
    def test_unit_circle_centered_at_origin(self, unit_circle):
        pts = reconstruct_points(unit_circle) + np.array([1.0, 0.0])
        grid = unit_circle.grid
        expect = np.stack([np.cos(grid.theta), np.sin(grid.theta)], axis=1)
        assert np.abs(pts[:-1] - expect).max() < 1e-10

    def test_ellipse_points_match_analytic(self, ellipse21):
        anchor = oracles.ellipse_point(2.0, 1.0, 0.0)
        pts = reconstruct_points(ellipse21) + anchor
        expect = oracles.ellipse_point(2.0, 1.0, ellipse21.grid.theta)
        assert np.abs(pts[:-1] - expect).max() < 1e-8

    def test_endpoint_gap_equals_defect(self):
        kp = open_curve()
        pts = reconstruct_points(kp)
        gap = math.hypot(*(pts[-1] - pts[0]))
        assert abs(gap - closure_defect(kp)) < 1e-12


class TestSupport:
    def test_circle_support_constant(self):
        kp = generate(Circle(r=1.5))
        u, _ = support_about_centroid(kp)
        assert np.abs(u - 1.5).max() < 1e-12

    def test_ellipse_support_on_axes(self, ellipse21):
        u, center = support_about_centroid(ellipse21)
        n = ellipse21.grid.n
        assert abs(u[0] - 2.0) < 1e-8
        assert abs(u[n // 4] - 1.0) < 1e-8
        # anchor X(0)=(0,0) puts the ellipse center, hence centroid, at (-a, 0)
        assert abs(center[0] + 2.0) < 1e-10
        assert abs(center[1]) < 1e-10

    def test_ellipse_support_everywhere(self, ellipse21):
        u, _ = support_about_centroid(ellipse21)
        expect = oracles.ellipse_support(2.0, 1.0, ellipse21.grid.theta)
        assert np.abs(u - expect).max() < 1e-8

    def test_identity_residual_generators(self, ellipse21, unit_circle):
        for kp in (unit_circle, ellipse21):
            scale = np.abs(kp.w).max()
            assert support_identity_residual(kp) < 1e-10 * scale

    def test_identity_residual_fuzz(self):
        for seed in range(8):
            kp = random_convex(seed)
            scale = np.abs(kp.w).max()
            assert support_identity_residual(kp) < 1e-8 * scale


class TestRadii:
    def test_circle(self):
        kp = generate(Circle(r=2.0))
        inner, outer = inradius_outradius(kp)
        assert abs(inner.radius - 2.0) < 1e-7
        assert abs(outer.radius - 2.0) < 1e-7

    def test_ellipse_semi_axes(self, ellipse21):
        inner, outer = inradius_outradius(ellipse21)
        assert abs(inner.radius - 1.0) < 1e-6
        assert abs(outer.radius - 2.0) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_bonnesen_window_and_ratio(self, seed):
        kp = random_convex(seed)
        r_in, r_out = (c.radius for c in inradius_outradius(kp))
        assert r_in <= r_out + 1e-12
        lo, hi = oracles.bonnesen_window(length(kp), area(kp))
        assert lo - 1e-8 <= r_in and r_out <= hi + 1e-8
        sig = bonnesen_sigma(isoperimetric_ratio(kp))
        assert r_out / r_in <= sig + 1e-6


@functools.cache
def contraction_curve():
    """The final curve of criterion 1's alpha=1 run: a circle shrunk by
    the flow, so its support carries time-stepping round-off."""
    t_end = 0.9 * oracles.extinction_time(1.0, 1.0)
    res = run(
        FlowLaw(FlowKind.CONTRACTION, 1.0),
        generate(Circle(r=1.0)),
        t_end=t_end,
        sample_dt=t_end,
        audits=(),
    )
    return res.final


# near-circles with high modes, which a resample-based certificate got
# wrong: the ROADMAP's reproducer, whose inradius had no certificate; one
# whose Newton met a singular system with a fourth contact, and whose
# certified outradius lay 3.3e-6 below a peak between the points of the
# 4x resample; one whose Newton steps, with a fourth contact too, grew
# past the float range; and the worst of the seeded near-circles below,
# whose certified inradius the curve crossed by 4.3e-4
NEAR_CIRCLES = {
    "reproducer": PerturbedCircle(r0=1.0, grid_n=64, modes=(
        (14, 0.001021446754621413, 0.5995203619863351),
        (19, 0.0005257548495545336, 4.158438873041206),
        (22, 4.199331613702206e-05, 6.086551639502771),
    )),
    "singular Newton": PerturbedCircle(r0=1.0, grid_n=64, modes=(
        (8, 0.0037326386319756133, 2.1644256963491113),
        (15, 0.00018175054992182512, 4.173759303971676),
    )),
    "divergent Newton": PerturbedCircle(r0=1.0, grid_n=32, modes=(
        (5, 0.001931522866148831, 2.352522565855929),
        (8, 0.0033528185318546315, 5.833386804218813),
        (4, 0.018707813118794357, 6.059950113741607),
    )),
    "crossed by 4.3e-4": PerturbedCircle(r0=1.0, grid_n=32, modes=(
        (15, 0.0019015013809841324, 1.0153483493544975),
        (12, 0.002095209518977209, 6.011931245384083),
    )),
}


def near_circles(count):
    """Seeded near-circles with high modes: n from 32 to 256, one to
    three modes m from 2 to n/2 - 1, each of amplitude b/k/(m^2 - 1) for
    k modes and b uniform in [0.05, 0.95], so rho stays above 0.05."""
    rng = random.Random(7)
    for _ in range(count):
        n = rng.choice((32, 64, 128, 256))
        k = rng.randint(1, 3)
        modes = []
        for _ in range(k):
            m = rng.randint(2, n // 2 - 1)
            amp = rng.uniform(0.05, 0.95) / k / (m * m - 1)
            modes.append((m, amp, rng.uniform(0.0, TWO_PI)))
        yield PerturbedCircle(r0=1.0, grid_n=n, modes=tuple(modes))


CERTIFIED_CURVES = {
    "circle": lambda: generate(Circle(r=2.0)),
    "ellipse n=128": lambda: generate(Ellipse(a=2.0, b=1.0, grid_n=128)),
    "ellipse n=512": lambda: generate(Ellipse(a=2.0, b=1.0, grid_n=512)),
    **{f"random_convex({s})": (lambda s=s: random_convex(s)) for s in range(8)},
    "contraction": contraction_curve,
    **{name: (lambda spec=spec: generate(spec)) for name, spec in NEAR_CIRCLES.items()},
}


def assert_hold_on_a_dense_resample(u, inner, outer):
    """No point of a 64x resample of u lies across either circle."""
    dense = AngularGrid(64 * u.size)
    u = resample_values(u, dense.n)
    f_in = u - inner.center[0] * dense.cos - inner.center[1] * dense.sin
    f_out = u - outer.center[0] * dense.cos - outer.center[1] * dense.sin
    assert f_in.min() >= inner.radius * (1.0 - 1e-12)
    assert f_out.max() <= outer.radius * (1.0 + 1e-12)


def assert_weights_balance(circles):
    for circle in circles:
        w, th = circle.weights, circle.theta
        assert w.size >= 2 and np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert abs(w @ np.cos(th)) < 1e-12 and abs(w @ np.sin(th)) < 1e-12


class TestRadiusCertificate:
    @pytest.mark.parametrize("name", sorted(CERTIFIED_CURVES))
    def test_circles_hold_on_a_dense_resample(self, name):
        kp = CERTIFIED_CURVES[name]()
        u, _ = support_about_centroid(kp)
        assert_hold_on_a_dense_resample(u, *inradius_outradius(kp, u))

    @pytest.mark.parametrize("name", sorted(CERTIFIED_CURVES))
    def test_contact_weights_balance(self, name):
        assert_weights_balance(inradius_outradius(CERTIFIED_CURVES[name]()))

    def test_seeded_near_circles_are_certified(self):
        # the certificate holds where the curve peaks between resample
        # points; against the 4x resample, 25 of these 200 circles were
        # crossed and 2 had no certificate
        for spec in near_circles(100):
            kp = generate(spec)
            u, _ = support_about_centroid(kp)
            circles = inradius_outradius(kp, u)
            assert_hold_on_a_dense_resample(u, *circles)
            assert_weights_balance(circles)

    def test_ellipse_touches_at_the_axis_ends(self, ellipse21):
        inner, outer = inradius_outradius(ellipse21)
        assert np.sort(inner.theta) == pytest.approx([math.pi / 2, 3 * math.pi / 2])
        assert np.sort(outer.theta) == pytest.approx([0.0, math.pi], abs=1e-12)

    def test_random_convex_0_is_not_overstated(self):
        # a center search over the refined resample minimum reported
        # 0.9195150579, 1e-6 above the largest circle the curve holds
        r_in = inradius_outradius(random_convex(0))[0].radius
        assert r_in == pytest.approx(0.9195140659, abs=1e-10)
        assert r_in < 0.9195150579 - 9e-7

    def test_uncertified_answer_is_nan(self, ellipse21, monkeypatch):
        kp = one_sample_later(ellipse21)
        start = inradius_outradius(ellipse21)
        block, u = block_of([ellipse21, kp])
        monkeypatch.setattr(geometry, "_MAX_NEWTON", 1)
        for circle in inradius_outradius(ellipse21):
            assert_no_certificate(circle)
        # the row whose start is its answer needs no Newton step, so it
        # stays certified; the other finds no certificate, cold or warm
        certified, uncertified = inradius_outradius(block, u, start=start)
        for got, want in zip(certified, start):
            assert got.radius == want.radius
            assert np.array_equal(got.theta, want.theta)
        for circle in uncertified:
            assert_no_certificate(circle)


def assert_no_certificate(circle):
    assert math.isnan(circle.radius) and np.isnan(circle.center).all()
    assert circle.theta.size == circle.weights.size == 0


# the near-circles that had a circle without a certificate; each now has
# both, so Newton is cut to one step to take that path
UNCERTIFIED = ("reproducer", "singular Newton", "divergent Newton")


@pytest.mark.parametrize("name", UNCERTIFIED)
class TestNoCertificate:
    def test_reads_nan_not_a_raise(self, name, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_NEWTON", 1)
        for circle in inradius_outradius(generate(NEAR_CIRCLES[name])):
            assert_no_certificate(circle)

    def test_prints_nothing(self, name, capfd, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_NEWTON", 1)
        inradius_outradius(generate(NEAR_CIRCLES[name]))
        assert capfd.readouterr() == ("", "")


class TestKktPolish:
    """Newton on the contact conditions, for rows of one contact count."""

    kp = generate(Ellipse(a=2.0, b=1.0, grid_n=64))

    def polish(self, theta, lam):
        U = np.fft.rfft(support_about_centroid(self.kp)[0])[None].repeat(len(theta), 0)
        rows = len(theta)
        return geometry._kkt_polish(
            U, 1.0, np.zeros((rows, 2)), np.ones(rows), np.array(theta),
            np.array(lam), np.full(rows, 1e-13),
        )

    def test_singular_row_is_left_undone(self, capfd):
        # two contacts at one angle make the Newton system singular; that
        # row stays where it is, the other settles at the axis ends, and
        # no least-squares solve prints LAPACK's DLASCL error on stdout
        theta = [[1.5, 4.7], [2.0, 2.0]]
        c, r, th, lam, done = self.polish(theta, [[0.5, 0.5], [0.5, 0.5]])
        assert done.tolist() == [True, False]
        assert np.array_equal(th[1], theta[1]) and r[1] == 1.0
        inner = inradius_outradius(self.kp)[0]
        assert np.sort(th[0]) == pytest.approx(np.sort(inner.theta), abs=1e-12)
        assert r[0] == pytest.approx(inner.radius, rel=1e-13)
        assert capfd.readouterr() == ("", "")


def one_sample_later(kp, dt=0.01):
    """kp after one LP alpha=1 sample interval: the next curve of a run."""
    law = FlowLaw(FlowKind.LP, 1.0)
    return run(law, kp, t_end=dt, sample_dt=dt, audits=()).final


def no_exchange(*args):
    raise AssertionError("the exchange ran")


class TestWarmStart:
    """Radii solved from the contacts of a nearby curve's circles."""

    @pytest.mark.parametrize(
        "name",
        ["ellipse n=128", "ellipse n=512", "random_convex(1)", "random_convex(5)"],
    )
    def test_warm_circles_hold_on_a_dense_resample(self, name, monkeypatch):
        kp0 = CERTIFIED_CURVES[name]()
        kp1 = one_sample_later(kp0)
        u, _ = support_about_centroid(kp1)
        cold = inradius_outradius(kp1, u)
        start = inradius_outradius(kp0)
        monkeypatch.setattr(geometry, "_exchange", no_exchange)
        warm = inradius_outradius(kp1, u, start=start)
        assert_hold_on_a_dense_resample(u, *warm)
        assert_weights_balance(warm)
        for w, c in zip(warm, cold):
            assert w.radius == pytest.approx(c.radius, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("foreign", ["random_convex(3)", "rotated contacts"])
    def test_foreign_start_gives_the_cold_answer(self, foreign):
        kp = random_convex(0)
        u, _ = support_about_centroid(kp)
        cold = inradius_outradius(kp, u)
        if foreign == "random_convex(3)":
            start = inradius_outradius(random_convex(3))
        else:
            start = tuple(
                dataclasses.replace(c, theta=c.theta + math.pi / 2) for c in cold
            )
        warm = inradius_outradius(kp, u, start=start)
        assert_hold_on_a_dense_resample(u, *warm)
        assert_weights_balance(warm)
        for w, c in zip(warm, cold):
            assert w.radius == pytest.approx(c.radius, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", ["circle", "contraction"])
    def test_near_circle_takes_the_discrete_branch(self, name):
        kp = CERTIFIED_CURVES[name]()
        cold = inradius_outradius(kp)
        fine = AngularGrid(geometry._OVERSAMPLE * kp.grid.n)
        ellipse = inradius_outradius(CERTIFIED_CURVES["ellipse n=128"]())
        for start in (cold, ellipse):
            warm = inradius_outradius(kp, start=start)
            for w, c in zip(warm, cold):
                # the discrete answer touches at resample points
                assert np.isin(w.theta, fine.theta).all()
                assert w.radius == c.radius
                assert np.array_equal(w.theta, c.theta)
                assert np.array_equal(w.weights, c.weights)


def flowed_profiles(law, kp0, t_end, samples):
    """kp0 and the profiles a run samples from it."""
    profiles = []
    run(law, kp0, t_end=t_end, sample_dt=t_end / samples, audits=(),
        on_sample=lambda t, kp, index: profiles.append(kp))
    return profiles


def block_of(profiles):
    block = CurvatureProfile(profiles[0].grid, np.stack([kp.k for kp in profiles]))
    return block, geometry._support_pipeline(block)[0]


def radii_in_blocks(profiles, rows):
    """Each profile's circles, solved as the collector solves them: in
    blocks of `rows`, each started from the last circles of the one
    before, the first block cold."""
    pairs, start = [], None
    for lo in range(0, len(profiles), rows):
        block, u = block_of(profiles[lo : lo + rows])
        pairs += inradius_outradius(block, u, start=start)
        start = pairs[-1]
    return pairs


@pytest.fixture
def solver_calls(monkeypatch):
    """Exchanges run and rows polished while the test runs."""
    calls = {"exchanges": 0, "polished": 0}
    exchange, polish = geometry._exchange, geometry._kkt_polish

    def exchanged(*args):
        calls["exchanges"] += 1
        return exchange(*args)

    def polished(*args):
        calls["polished"] += len(args[4])
        return polish(*args)

    monkeypatch.setattr(geometry, "_exchange", exchanged)
    monkeypatch.setattr(geometry, "_kkt_polish", polished)
    return calls


LP1, G1 = FlowLaw(FlowKind.LP, 1.0), FlowLaw(FlowKind.G1, 2.0)
# (profiles, rows per block, whether some rows leave the block solve);
# the G1 runs change their contacts between 2 and 3 in the first block
BLOCK_RUNS = {
    "ellipse n=128": (lambda: flowed_profiles(
        LP1, CERTIFIED_CURVES["ellipse n=128"](), 0.5, 40), 32, False),
    "ellipse n=512": (lambda: flowed_profiles(
        LP1, CERTIFIED_CURVES["ellipse n=512"](), 0.3, 24), 8, False),
    "LP alpha=3 n=256": (lambda: flowed_profiles(
        FlowLaw(FlowKind.LP, 3.0), generate(Ellipse(a=2.0, b=1.0, grid_n=256)),
        0.02, 32), 16, False),
    "G1 random_convex(1)": (lambda: flowed_profiles(
        G1, random_convex(1), 0.075, 15), 16, True),
    "G1 random_convex(3)": (lambda: flowed_profiles(
        G1, random_convex(3), 0.075, 15), 16, True),
}


class TestBlockRadii:
    """A block's rows solved at once match each row solved cold."""

    @pytest.mark.parametrize("name", sorted(BLOCK_RUNS))
    def test_block_matches_a_cold_solve_per_row(self, name, solver_calls):
        profiles, rows, falls_back = BLOCK_RUNS[name]
        profiles = profiles()
        pairs = radii_in_blocks(profiles, rows)
        # the exchange runs for the first row only, once per circle, and
        # a row whose start leads to no certificate is polished again
        assert solver_calls["exchanges"] == 2
        assert (solver_calls["polished"] > 2 * len(profiles)) == falls_back
        assert len(pairs) == len(profiles)
        for kp, pair in zip(profiles, pairs):
            for got, cold in zip(pair, inradius_outradius(kp)):
                assert got.radius == pytest.approx(cold.radius, rel=1e-13, abs=0.0)
        for j in (0, len(profiles) // 2, len(profiles) - 1):
            u, _ = support_about_centroid(profiles[j])
            assert_hold_on_a_dense_resample(u, *pairs[j])
            assert_weights_balance(pairs[j])

    def test_circle_rows_take_the_discrete_branch(self, solver_calls):
        # criterion 1's circle, shrunk by the flow: flat at every start,
        # so every row takes the exchange and touches at resample points
        t_end = 0.9 * oracles.extinction_time(1.0, 1.0)
        profiles = flowed_profiles(
            FlowLaw(FlowKind.CONTRACTION, 1.0), generate(Circle(r=1.0)), t_end, 9
        )
        fine = AngularGrid(geometry._OVERSAMPLE * profiles[0].grid.n)
        block, u = block_of(profiles)
        cold = inradius_outradius(profiles[0])
        for start in (None, cold):
            solver_calls.update(exchanges=0, polished=0)
            pairs = inradius_outradius(block, u, start=start)
            assert solver_calls == {"exchanges": 2 * len(profiles), "polished": 0}
            for kp, pair in zip(profiles, pairs):
                for got, want in zip(pair, inradius_outradius(kp)):
                    assert np.isin(got.theta, fine.theta).all()
                    assert got.radius == want.radius
                    assert np.array_equal(got.theta, want.theta)
                    assert np.array_equal(got.weights, want.weights)

    def test_one_row_block_is_the_profile_alone(self, ellipse21):
        kp = one_sample_later(ellipse21)
        block, u = block_of([kp])
        for start in (None, inradius_outradius(ellipse21)):
            (pair,) = inradius_outradius(block, u, start=start)
            for got, want in zip(pair, inradius_outradius(kp, u[0], start=start)):
                assert got.radius == want.radius
                assert np.array_equal(got.center, want.center)
                assert np.array_equal(got.theta, want.theta)

    def test_run_at_n512_makes_two_exchanges(self, monkeypatch):
        # three blocks of 8 rows: the exchange runs for the first row only
        exchanges = []
        exchange = geometry._exchange

        def counted(*args):
            exchanges.append(1)
            return exchange(*args)

        monkeypatch.setattr(geometry, "_exchange", counted)
        res = run(LP1, CERTIFIED_CURVES["ellipse n=512"](), t_end=0.3,
                  sample_dt=0.3 / 24, audits=("radii",))
        assert len(res.series) == 25
        assert len(exchanges) == 2


def test_import_loads_no_scipy():
    src = str(Path(convexflow.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, convexflow; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate', "
        "'scipy.linalg') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestBonnesenSigma:
    def test_circle_value(self):
        assert bonnesen_sigma(1.0) == 1.0

    def test_two(self):
        assert abs(bonnesen_sigma(2.0) - (3.0 + 2.0 * math.sqrt(2.0))) < 1e-14

    def test_ellipse_ratio_consistent(self, ellipse21):
        I = isoperimetric_ratio(ellipse21)
        expect = (math.sqrt(I) + math.sqrt(I - 1.0)) ** 2
        assert abs(bonnesen_sigma(I) - expect) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bonnesen_sigma(0.5)

    def test_roundoff_below_one_clamped(self):
        assert bonnesen_sigma(1.0 - 1e-14) == 1.0


class TestScaling:
    @pytest.mark.parametrize("s", [2.0, 2.7])
    def test_scale_equivariance(self, s):
        base = PerturbedCircle(r0=1.0, modes=((2, 0.1, 0.3), (5, 0.01, 1.0)))
        scaled = PerturbedCircle(
            r0=s * base.r0, modes=tuple((m, s * a, p) for m, a, p in base.modes)
        )
        kp0, kp1 = generate(base), generate(scaled)
        assert abs(length(kp1) - s * length(kp0)) < 1e-10 * length(kp1)
        assert abs(area(kp1) - s * s * area(kp0)) < 1e-10 * area(kp1)
        I0, I1 = isoperimetric_ratio(kp0), isoperimetric_ratio(kp1)
        assert abs(I1 - I0) < 1e-10
        in0, out0 = inradius_outradius(kp0)
        in1, out1 = inradius_outradius(kp1)
        assert abs(out1.radius / in1.radius - out0.radius / in0.radius) < 1e-7


class TestMeasure:
    @pytest.mark.parametrize("seed", range(4))
    def test_isoperimetric_inequality(self, seed):
        kp = random_convex(seed, budget=0.7)
        L, A = length(kp), area(kp)
        assert 4.0 * math.pi * A <= L * L * (1.0 + 1e-10)


def test_every_export_resolves():
    # a stale name in __all__ makes `from convexflow import *` raise
    assert [name for name in convexflow.__all__ if not hasattr(convexflow, name)] == []
