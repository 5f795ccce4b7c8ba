import math

import numpy as np
import pytest

from convexflow import (
    Circle,
    CurvatureProfile,
    Ellipse,
    FlowKind,
    FlowLaw,
    generate,
    lambda_value,
    random_convex,
)
from convexflow.laws import LawError, power
from convexflow.spectral import AngularGrid

import oracles
from oracles import curvature_rhs, normal_speed

NONLOCAL_KINDS = (FlowKind.LP, FlowKind.AP, FlowKind.G1, FlowKind.G2)


def perturbed(eps=0.1, n=256):
    grid = AngularGrid(n)
    return CurvatureProfile(grid, 1.0 + eps * np.cos(2.0 * grid.theta))


class TestFlowLaw:
    def test_alpha_positive_required(self):
        with pytest.raises(LawError):
            FlowLaw(FlowKind.LP, 0.0)
        with pytest.raises(LawError):
            FlowLaw(FlowKind.AP, -1.0)

    def test_g1_g2_alpha_restriction(self):
        with pytest.raises(LawError, match="alpha must be >= 1 for G1/G2"):
            FlowLaw(FlowKind.G1, 0.5)
        with pytest.raises(LawError, match="alpha must be >= 1 for G1/G2"):
            FlowLaw(FlowKind.G2, 0.99)
        FlowLaw(FlowKind.G1, 1.0)

    def test_kind_coercion_from_string(self):
        law = FlowLaw("Contraction", 2.0)
        assert law.kind is FlowKind.CONTRACTION


class TestLambda:
    @pytest.mark.parametrize("kind", NONLOCAL_KINDS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 3.0])
    def test_circle_stationary_value(self, kind, alpha):
        if kind in (FlowKind.G1, FlowKind.G2) and alpha < 1.0:
            pytest.skip("law restricted to alpha >= 1")
        kp = generate(Circle(r=2.0))
        lam = lambda_value(FlowLaw(kind, alpha), kp)
        assert lam == pytest.approx(2.0**-alpha, rel=1e-12)

    def test_contraction_lambda_zero(self):
        kp = generate(Circle(r=2.0))
        assert lambda_value(FlowLaw(FlowKind.CONTRACTION, 1.0), kp) == 0.0

    def test_contraction_lambda_per_row(self, ellipse21):
        # a (2, n) block gets one zero per row, one profile a numpy scalar,
        # as for the other laws
        law = FlowLaw(FlowKind.CONTRACTION, 1.0)
        block = CurvatureProfile(
            ellipse21.grid, np.stack([ellipse21.k, random_convex(1).k])
        )
        lam = lambda_value(law, block)
        assert isinstance(lam, np.ndarray) and lam.shape == (2,)
        assert np.array_equal(lam, [0.0, 0.0])
        one = lambda_value(law, ellipse21)
        assert isinstance(one, np.float64) and one == 0.0
        lp = lambda_value(FlowLaw(FlowKind.LP, 1.0), block)
        assert lp.shape == (2,)

    def test_holder_ordering_on_ellipse(self, ellipse21):
        lp = lambda_value(FlowLaw(FlowKind.LP, 1.0), ellipse21)
        ap = lambda_value(FlowLaw(FlowKind.AP, 1.0), ellipse21)
        assert ap <= lp * (1.0 + 1e-10)
        assert lp - ap > 1e-3  # strict on a genuine non-circle

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("alpha", [1.0, 1.7, 3.0])
    def test_lambda_sandwich(self, seed, alpha):
        kp = random_convex(seed)
        lam = {
            kind: lambda_value(FlowLaw(kind, alpha), kp)
            for kind in NONLOCAL_KINDS
        }
        slack = 1e-10 * lam[FlowKind.LP]
        assert lam[FlowKind.AP] <= lam[FlowKind.G1] + slack
        assert lam[FlowKind.AP] <= lam[FlowKind.G2] + slack
        assert lam[FlowKind.G1] <= lam[FlowKind.LP] + slack
        assert lam[FlowKind.G2] <= lam[FlowKind.LP] + slack

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_holder_all_alpha(self, alpha):
        for seed in range(5):
            kp = random_convex(seed)
            lp = lambda_value(FlowLaw(FlowKind.LP, alpha), kp)
            ap = lambda_value(FlowLaw(FlowKind.AP, alpha), kp)
            assert ap <= lp * (1.0 + 1e-10)


class TestCurvatureRhs:
    @pytest.mark.parametrize("kind", NONLOCAL_KINDS)
    def test_circle_equilibrium(self, kind):
        kp = generate(Circle(r=2.0))
        rhs = curvature_rhs(FlowLaw(kind, 1.5), kp)
        assert np.abs(rhs).max() < 1e-10

    def test_contraction_circle(self):
        kp = generate(Circle(r=2.0))
        rhs = curvature_rhs(FlowLaw(FlowKind.CONTRACTION, 1.0), kp)
        assert np.abs(rhs - 2.0**-3).max() < 1e-12

    def test_perturbed_matches_hand_expansion(self):
        kp = perturbed(eps=0.1)
        rhs = curvature_rhs(FlowLaw(FlowKind.LP, 1.0), kp)
        assert rhs[0] == pytest.approx(
            oracles.perturbed_circle_rhs_at_zero(0.1), abs=1e-12
        )

    def test_perturbed_matches_fine_fd(self):
        # same check, but the second derivative comes from an independent
        # stencil at dtheta/16 applied to the analytic curvature
        kp = perturbed(eps=0.1)
        grid = kp.grid
        k_fn = lambda th: 1.0 + 0.1 * np.cos(2.0 * th)
        d2 = oracles.fd_deriv_callable(k_fn, np.array([0.0]), 2, grid.dtheta / 16)[0]
        k0 = k_fn(np.array([0.0]))[0]
        lam = lambda_value(FlowLaw(FlowKind.LP, 1.0), kp)
        expect = k0 * k0 * (d2 + k0 - lam)
        rhs = curvature_rhs(FlowLaw(FlowKind.LP, 1.0), kp)
        assert abs(rhs[0] - expect) < 1e-6

    def test_overflow_reports_k_max(self, grid256):
        huge = np.full(256, 1e200)
        huge[0] = 1e250
        kp = CurvatureProfile(grid256, huge)
        with pytest.raises(FloatingPointError, match=r"k_max=1\.0\d*e\+250"):
            curvature_rhs(FlowLaw(FlowKind.CONTRACTION, 3.0), kp)


class TestNormalSpeed:
    @pytest.mark.parametrize("kind", NONLOCAL_KINDS)
    def test_circle_speed_zero(self, kind):
        kp = generate(Circle(r=0.7))
        speed = normal_speed(FlowLaw(kind, 2.0), kp)
        assert np.abs(speed).max() < 1e-10

    def test_contraction_speed_positive(self, ellipse21):
        speed = normal_speed(FlowLaw(FlowKind.CONTRACTION, 1.0), ellipse21)
        assert np.array_equal(speed, oracles.power(ellipse21.k, 1.0))
        assert speed.min() > 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_lp_speed_sign_at_extremes(self, seed):
        kp = random_convex(seed)
        speed = normal_speed(FlowLaw(FlowKind.LP, 1.3), kp)
        assert speed[kp.k.argmax()] > 0.0
        assert speed[kp.k.argmin()] < 0.0


class TestPower:
    def test_matches_numpy_pow(self):
        k = np.linspace(0.1, 5.0, 100)
        assert np.allclose(power(1.0 / k, 2.5), k**2.5, rtol=1e-14)

    def test_integer_alpha_consistent(self):
        k = np.linspace(0.5, 2.0, 64)
        assert np.abs(power(1.0 / k, 1.0) - k).max() < 1e-15

    def test_alpha_one_is_the_reciprocal(self):
        w = np.linspace(0.5, 2.0, 64)
        assert np.array_equal(power(w, 1.0), 1.0 / w)

    def test_exponent_array_broadcasts(self):
        # the beta family: one row per exponent, each that exponent's power
        w = np.linspace(0.2, 3.0, 32).reshape(2, 16)
        betas = np.array([0.0, 1.0, 2.5]).reshape(-1, 1, 1)
        rows = power(w, betas)
        assert rows.shape == (3, 2, 16)
        assert np.array_equal(rows[0], np.ones_like(w))
        assert np.allclose(rows[1], 1.0 / w, rtol=1e-14, atol=0.0)
        assert np.array_equal(rows[2], power(w, 2.5))

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_out_buffer(self, alpha):
        w = np.linspace(0.5, 2.0, 64)
        out = np.empty_like(w)
        assert power(w, alpha, out=out) is out
        assert np.array_equal(out, power(w, alpha))
