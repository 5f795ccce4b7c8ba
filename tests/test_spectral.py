import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from convexflow.spectral import (
    AngularGrid,
    GridError,
    antiderivative_values,
    deriv_values,
    first_harmonics_values,
    integrate_values,
    interpolant_derivatives,
    resample_spectrum,
)

import oracles
from oracles import refined_extremum_values, resample_values

TWO_PI = 2.0 * math.pi

# frozen from oracles.integral_inv_two_plus_sin()
INT_INV_TWO_PLUS_SIN = 3.6275987284684357


class TestAngularGrid:
    def test_spacing_exact(self):
        g = AngularGrid(256)
        assert g.dtheta == TWO_PI / 256
        assert g.theta[0] == 0.0
        assert g.theta.shape == (256,)
        assert g.theta[-1] == pytest.approx(TWO_PI - g.dtheta, abs=1e-15)

    @pytest.mark.parametrize("n", [15, 17, 8, 0, -32, 255])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(GridError):
            AngularGrid(n)

    def test_rejects_non_integer(self):
        with pytest.raises(GridError):
            AngularGrid(32.0)

    def test_trig_tables_readonly(self):
        g = AngularGrid(64)
        with pytest.raises(ValueError):
            g.cos[0] = 5.0


class TestDeriv:
    def test_cos_first_derivative(self):
        g = AngularGrid(64)
        out = deriv_values(np.cos(g.theta), 1)
        assert np.abs(out + np.sin(g.theta)).max() < 1e-12

    def test_cos_second_derivative(self):
        g = AngularGrid(64)
        out = deriv_values(np.cos(g.theta), 2)
        assert np.abs(out + np.cos(g.theta)).max() < 1e-12

    def test_exp_sin_vs_fine_fd(self):
        # independent oracle: centered stencil at dtheta/16 on the callable
        g = AngularGrid(256)
        f = np.exp(np.sin(g.theta))
        h = g.dtheta / 16.0
        ref = oracles.fd_deriv_callable(
            lambda th: np.exp(np.sin(th)), g.theta, 2, h
        )
        assert np.abs(deriv_values(f, 2) - ref).max() < 1e-6

    def test_order_validated(self, field_of):
        f = field_of(np.cos, n=64)
        with pytest.raises(ValueError):
            deriv_values(f, 3)

    def test_composed_first_matches_second(self, field_of):
        f = field_of(lambda th: np.exp(np.sin(th)), n=256)
        twice = deriv_values(deriv_values(f, 1), 1)
        once = deriv_values(f, 2)
        scale = np.abs(once).max()
        assert np.abs(twice - once).max() < 1e-9 * scale

    @given(
        values=arrays(
            np.float64,
            64,
            elements=st.floats(-10.0, 10.0, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_derivative_integrates_to_zero(self, values):
        total = integrate_values(deriv_values(values, 1))
        assert abs(total) < 1e-12 * max(1.0, np.abs(values).max())

    def test_nyquist_mode_convention(self):
        # pure Nyquist cosine: odd derivative unrepresentable -> zeroed,
        # even derivative keeps the -(n/2)^2 symbol
        g = AngularGrid(32)
        nyq = np.cos(16 * g.theta)
        assert np.abs(deriv_values(nyq, 1)).max() < 1e-12
        assert np.abs(deriv_values(nyq, 2) + 256.0 * nyq).max() < 1e-10


class TestIntegrate:
    def test_constant(self, field_of):
        f = field_of(lambda th: np.ones_like(th), n=64)
        assert abs(integrate_values(f) - TWO_PI) < 1e-14

    def test_cos_squared(self, field_of):
        f = field_of(lambda th: np.cos(th) ** 2, n=64)
        assert abs(integrate_values(f) - math.pi) < 1e-12

    def test_inv_two_plus_sin(self, field_of):
        f = field_of(lambda th: 1.0 / (2.0 + np.sin(th)), n=256)
        assert abs(integrate_values(f) - INT_INV_TWO_PLUS_SIN) < 1e-10
        assert abs(oracles.integral_inv_two_plus_sin() - INT_INV_TWO_PLUS_SIN) < 1e-15

    def test_doubling_n_is_converged(self):
        vals = []
        for n in (256, 512):
            g = AngularGrid(n)
            vals.append(integrate_values(np.exp(np.cos(g.theta))))
        assert abs(vals[1] - vals[0]) < 1e-10 * abs(vals[0])


class TestFirstHarmonics:
    def test_constant(self, field_of):
        c1, s1 = first_harmonics_values(field_of(lambda th: np.ones_like(th), n=64))
        assert abs(c1) < 1e-14 and abs(s1) < 1e-14

    def test_cos(self, field_of):
        c1, s1 = first_harmonics_values(field_of(np.cos, n=64))
        assert abs(c1 - math.pi) < 1e-12
        assert abs(s1) < 1e-12

    def test_shifted_sin(self, field_of):
        c1, s1 = first_harmonics_values(field_of(lambda th: 2.0 + 0.5 * np.sin(th), n=64))
        assert abs(c1) < 1e-12
        assert abs(s1 - 0.5 * math.pi) < 1e-12


class TestInternals:
    def test_resample_matches_analytic(self):
        g = AngularGrid(64)
        vals = 1.0 + 0.2 * np.cos(3 * g.theta) - 0.1 * np.sin(5 * g.theta)
        fine = AngularGrid(256)
        expect = 1.0 + 0.2 * np.cos(3 * fine.theta) - 0.1 * np.sin(5 * fine.theta)
        assert np.abs(resample_values(vals, 256) - expect).max() < 1e-13

    def test_antiderivative_splits_mean(self):
        g = AngularGrid(64)
        vals = 2.0 + np.cos(g.theta)
        G, mean = antiderivative_values(vals)
        assert mean == pytest.approx(2.0, abs=1e-14)
        # periodic part of the primitive is sin(theta), pinned to G(0)=0
        assert np.abs(G - np.sin(g.theta)).max() < 1e-13


class TestRefinedExtremum:
    def test_recovers_off_grid_peak(self):
        # shift chosen so the true max of cos falls mid-cell
        g = AngularGrid(128)
        vals = np.cos(g.theta - 0.5 * g.dtheta)
        raw = vals.max()
        fine = resample_values(vals, 1024)
        assert raw < 1.0 - 1e-4
        assert refined_extremum_values(fine, True) == pytest.approx(1.0, abs=1e-10)
        assert refined_extremum_values(fine, False) == pytest.approx(-1.0, abs=1e-10)

    def test_flat_data_passes_through(self):
        vals = np.full(32, 2.5)
        assert refined_extremum_values(vals, True) == 2.5
        assert refined_extremum_values(vals, False) == 2.5

    def test_never_below_grid_max(self):
        rng = np.random.default_rng(7)
        g = AngularGrid(64)
        for _ in range(20):
            c = rng.normal(size=3) * [1.0, 0.3, 0.1]
            vals = 2.0 + c[0] * np.cos(g.theta) + c[1] * np.sin(2 * g.theta) + c[2] * np.cos(5 * g.theta)
            assert refined_extremum_values(vals, True) >= vals.max()
            assert refined_extremum_values(vals, False) <= vals.min()


class TestInterpolantDerivatives:
    # f = 1 + 0.2 cos 3t - 0.1 sin 5t + 0.05 cos 8t on 16 nodes, 8 the
    # Nyquist mode; each term a cos(m t + phase) has the p-th derivative
    # a m^p cos(m t + phase + p pi/2)
    TERMS = ((1.0, 0, 0.0), (0.2, 3, 0.0), (0.1, 5, 0.5 * math.pi), (0.05, 8, 0.0))

    def closed_form(self, theta, p):
        return sum(a * m**p * np.cos(m * theta + phase + 0.5 * p * math.pi)
                   for a, m, phase in self.TERMS)

    def test_matches_the_closed_form(self):
        coef = np.fft.rfft(self.closed_form(AngularGrid(16).theta, 0))
        theta = np.random.default_rng(2).uniform(0.0, TWO_PI, size=15)
        got = interpolant_derivatives(coef[None], theta, np.zeros(15, dtype=int))
        assert got.shape == (4, 15)
        for p, values in enumerate(got):
            assert np.abs(values - self.closed_form(theta, p)).max() < 1e-13 * 8**p

    def test_rows_do_not_depend_on_the_block(self):
        # an angle on a row gives the same bits whatever else is
        # evaluated with it, also when the terms are formed in slices
        rng = np.random.default_rng(3)
        coef = np.fft.rfft(rng.normal(size=(4, 2, 4096)))
        rows = rng.integers(0, 4, size=9)
        theta = rng.uniform(0.0, TWO_PI, size=9)
        block = interpolant_derivatives(coef, theta, rows)
        assert block.shape == (4, 9, 2)
        for i in range(9):
            one = interpolant_derivatives(coef, theta[i : i + 1], rows[i : i + 1])
            assert np.array_equal(one, block[:, i : i + 1])
