import math
import re

import numpy as np
import pytest

from convexflow import (
    Circle,
    Ellipse,
    PerturbedCircle,
    closure_defect,
    generate,
    random_convex,
)
from convexflow.geometry import ConvexityError

from oracles import support_identity_residual


class TestCircleEllipse:
    def test_circle(self):
        kp = generate(Circle(r=2.0))
        assert np.all(kp.k == 0.5)

    def test_ellipse_axis_curvatures(self):
        kp = generate(Ellipse(a=2.0, b=1.0))
        n = kp.grid.n
        assert kp.k[0] == pytest.approx(2.0, abs=1e-14)
        assert kp.k[n // 4] == pytest.approx(0.25, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            Circle(r=0.0)
        with pytest.raises(ValueError):
            Ellipse(a=1.0, b=2.0)
        with pytest.raises(ValueError):
            Ellipse(a=1.0, b=-1.0)
        with pytest.raises(ValueError, match="base radius"):
            PerturbedCircle(r0=0.0)

    @pytest.mark.parametrize("s", [2.0, 4.0])
    def test_power_of_two_scaling_exact(self, s):
        kp = generate(Circle(r=1.0))
        scaled = generate(Circle(r=s))
        assert np.array_equal(scaled.k, kp.k / s)
        e = generate(Ellipse(a=2.0, b=1.0))
        se = generate(Ellipse(a=2.0 * s, b=s))
        assert np.abs(se.k - e.k / s).max() <= 1e-16 / s


class TestPerturbedCircle:
    def test_accepted_amplitude(self):
        kp = generate(PerturbedCircle(r0=1.0, modes=((2, 0.2, 0.0),)))
        # 1/k = 1 - 0.6 cos 2theta, so k(0) = 1/0.4
        assert kp.k[0] == pytest.approx(2.5, rel=1e-12)

    def test_rejected_amplitude_reports_theta(self):
        with pytest.raises(ConvexityError, match="theta=0.000000"):
            generate(PerturbedCircle(r0=1.0, modes=((2, 0.4, 0.0),)))

    def test_dip_between_every_sample_is_caught(self):
        # rho = 1 - 1.002 cos(16 theta - pi/32) dips to -0.002 at
        # theta = pi/512 (and every 2 pi/16 on), between the samples of
        # n = 64 and of its 8x grid alike, where it stays above 0.0028
        modes = ((16, 1.002 / 255, math.pi / 32),)
        with pytest.raises(ConvexityError, match="not convex") as excinfo:
            generate(PerturbedCircle(r0=1.0, grid_n=64, modes=modes))
        found = re.search(r"curvature (\S+) at theta=(\S+)", str(excinfo.value))
        rho, theta = found.groups()
        assert float(rho) == pytest.approx(-0.002, rel=1e-5)
        period = 2.0 * math.pi / 16
        assert float(theta) % period == pytest.approx(math.pi / 512, abs=1e-6)

    def test_mode_one_forbidden(self):
        with pytest.raises(ValueError, match="translation"):
            PerturbedCircle(r0=1.0, modes=((1, 0.1, 0.0),))
        with pytest.raises(ValueError, match="must be >= 2, got 0"):
            PerturbedCircle(r0=1.0, modes=((0, 0.1, 0.0),))

    @pytest.mark.parametrize("m", [2.7, 1.5, math.nan, math.inf])
    def test_fractional_mode_named(self, m):
        with pytest.raises(ValueError, match=f"mode {m} is not an integer"):
            PerturbedCircle(r0=1.0, modes=((m, 0.05, 0.0),))

    @pytest.mark.parametrize("m, n", [(130, 256), (128, 256), (32, 64)])
    def test_mode_the_grid_cannot_hold(self, m, n):
        # at n = 256, mode 130 samples as mode 126 and 128 as a cosine alone
        with pytest.raises(ValueError, match=f"mode {m} needs grid_n > {2 * m}"):
            PerturbedCircle(r0=1.0, modes=((m, 1e-6, 0.3),), grid_n=n)
        top = n // 2 - 1  # the highest mode the grid holds
        spec = PerturbedCircle(r0=1.0, modes=((float(top), 1e-6, 0.3),), grid_n=n)
        assert spec.modes == ((top, 1e-6, 0.3),)
        assert closure_defect(generate(spec)) < 1e-12

    def test_modes_are_amplitude_and_phase(self):
        # u = r0 + amp cos(m theta - phase), so 1/k = u'' + u is
        # r0 + (1 - m^2) amp cos(m theta - phase)
        kp = generate(PerturbedCircle(r0=1.0, modes=((3, 0.05, 0.7),), grid_n=64))
        rho = 1.0 - 8.0 * 0.05 * np.cos(3.0 * kp.grid.theta - 0.7)
        assert np.abs(kp.w - rho).max() < 1e-14

    def test_generated_curves_close(self):
        specs = [
            Circle(r=3.0),
            Ellipse(a=2.0, b=1.0),
            PerturbedCircle(r0=1.0, modes=((2, 0.1, 0.4), (7, 0.005, 2.0))),
            PerturbedCircle(r0=2.0, modes=((2, 0.15, -0.5), (4, 0.02, 2.3))),
        ]
        for spec in specs:
            kp = generate(spec)
            assert closure_defect(kp) < 1e-10
            assert support_identity_residual(kp) < 1e-10 * np.abs(kp.w).max()


class TestRandomConvex:
    def test_budget_zero_is_circle(self):
        kp = random_convex(seed=5, r0=1.5, budget=0.0)
        assert np.all(kp.k == 1.0 / 1.5)

    def test_deterministic_in_seed(self):
        a = random_convex(seed=123)
        b = random_convex(seed=123)
        assert np.array_equal(a.k, b.k)
        c = random_convex(seed=124)
        assert not np.array_equal(a.k, c.k)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            random_convex(seed=0, budget=1.0)
        with pytest.raises(ValueError):
            random_convex(seed=0, budget=-0.1)
        with pytest.raises(ValueError, match="max_mode"):
            random_convex(seed=0, max_mode=1)

    @pytest.mark.parametrize("seed", range(25))
    def test_seeds_valid_convex_closed(self, seed):
        kp = random_convex(seed, budget=0.8)
        assert kp.k.min() > 0.0
        assert closure_defect(kp) < 1e-10

    def test_budget_spent_exactly(self):
        # reconstruct the modes' contribution to min(rho): worst case is
        # r0*(1 - budget), so min curvature radius must stay above it
        kp = random_convex(seed=7, r0=2.0, budget=0.8)
        assert kp.w.min() > 2.0 * (1.0 - 0.8) - 1e-12
