import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from convexflow import (
    AngularGrid,
    Circle,
    CurvatureProfile,
    DiagnosticsCollector,
    DiagnosticsSeries,
    Ellipse,
    FlowKind,
    FlowLaw,
    Margin,
    PerturbedCircle,
    StepControl,
    TsoContext,
    area,
    entropy,
    generate,
    gradient_functional,
    inequality_audit,
    lambda_value,
    lower_bound_functional,
    random_convex,
    rate_formulas,
    run,
    support_about_centroid,
    to_csv,
    tso_quantity,
)
from convexflow import diagnostics, geometry, spectral
from convexflow.diagnostics import (
    COLUMNS,
    AuditError,
    DEFAULT_BETAS,
    closure_violations,
    conservation_violations,
    entropy_direction,
    failed_margins,
    fit_decay_rate,
    margin_violations,
    monotonicity_violations,
    oscillation,
    psi_violations,
    radii_violations,
    rate_fd_pairs,
    rate_violations,
    tso_violations,
)
from convexflow.laws import integrals
from convexflow.spectral import deriv_spectrum, integrate_values, resample_spectrum

import oracles
from oracles import power, refined_extremum_values, resample_values

TWO_PI = 2.0 * math.pi

# frozen from the quadrature/closed-form oracles for the 2x1 ellipse
ELLIPSE21_PERIMETER = 9.688448220547676
ELLIPSE21_AREA = TWO_PI
ELLIPSE21_MEAN_K = 1.0561569375553084  # ellipse_curvature_integral(2,1,1)/2pi
# Tso constants of the 2x1 ellipse at alpha = 1
ELLIPSE21_SIGMA = 2.32524667917367
ELLIPSE21_BETA = 0.21503094896481545
ELLIPSE21_T1 = 0.09247661802541811
ELLIPSE21_Q0 = 86.50835390413087
# continuum max of k^2 + (k')^2, frozen from a 4e6-point closed-form scan;
# the maximizer sits at theta ~ 0.506, between any uniform grid's nodes
ELLIPSE21_PSI = 5.234684284149571

NONLOCAL = (FlowKind.LP, FlowKind.AP, FlowKind.G1, FlowKind.G2)


def series_of(kind=FlowKind.LP, alpha=1.0, tso=None, phi_enabled=False):
    return DiagnosticsSeries(FlowLaw(kind, alpha), tso, phi_enabled)


def record(t, **overrides):
    """The COLUMNS of one sample, with plausible circle-at-rest defaults."""
    base = {
        "t": t, "L": TWO_PI, "A": math.pi, "I": 1.0, "k_min": 1.0, "k_max": 1.0,
        "lambda": 1.0, "closure_defect": 0.0, "r_in": 1.0, "r_out": 1.0,
        "dA_dt_formula": 0.0, "dL_dt_formula": 0.0, "Q_max": math.nan,
        "Q_ok": False, "Psi_max": math.nan, "Phi_max": math.nan,
        "entropy": math.nan, "oscillation": 0.0,
    }
    base.update(overrides)
    return base


def columns_of(series):
    """A writable copy of the COLUMNS of a series, by name."""
    return {name: series.column(name).copy() for name in COLUMNS}


def sample(series, j=-1):
    """Sample j of a series as column name -> value."""
    return {name: series.column(name)[j] for name in series.column_names()}


class TestTsoContext:
    def test_matches_quadrature_constants(self, ellipse21):
        ctx = TsoContext.from_initial(ellipse21, 1.0)
        L = oracles.ellipse_perimeter(2.0, 1.0)
        A = oracles.ellipse_area(2.0, 1.0)
        ref = oracles.tso_constants(A, L * L / (2.0 * TWO_PI * A), 1.0)
        assert ctx.alpha == 1.0
        assert ctx.sigma == pytest.approx(ref["sigma"], rel=1e-10)
        assert ctx.beta == pytest.approx(ref["beta"], rel=1e-10)
        assert ctx.T1 == pytest.approx(ref["T1"], rel=1e-10)
        assert ctx.Q0 == pytest.approx(ref["Q0"], rel=1e-10)

    def test_frozen_values(self, ellipse21):
        ctx = TsoContext.from_initial(ellipse21, 1.0)
        assert ctx.sigma == pytest.approx(ELLIPSE21_SIGMA, rel=1e-10)
        assert ctx.beta == pytest.approx(ELLIPSE21_BETA, rel=1e-10)
        assert ctx.T1 == pytest.approx(ELLIPSE21_T1, rel=1e-10)
        assert ctx.Q0 == pytest.approx(ELLIPSE21_Q0, rel=1e-10)

    def test_circle_closed_forms(self):
        # I = 1 collapses sigma to 1; beta, T1, Q0 reduce to powers of r
        kp = generate(Circle(r=2.0))
        ctx = TsoContext.from_initial(kp, 2.0)
        assert ctx.sigma == pytest.approx(1.0, rel=1e-6)
        assert ctx.beta == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-6)
        assert ctx.T1 == pytest.approx(8.0 / 6.0, rel=1e-6)
        assert ctx.Q0 == pytest.approx(18.0, rel=1e-6)

    @pytest.mark.parametrize("r, alpha, infinite", [
        (1e4, 100.0, "T1"),  # root ** (1 + alpha) passes the float range
        (1e-3, 100.0, "Q0"),  # Q0 passes it
        (1e-4, 0.01, "Q0"),  # beta ** (1 + 1/alpha) underflows to 0
    ])
    def test_out_of_range_constants_are_infinite(self, r, alpha, infinite):
        ctx = TsoContext.from_initial(generate(Circle(r=r, grid_n=64)), alpha)
        assert getattr(ctx, infinite) == math.inf
        assert math.isfinite(ctx.beta) and ctx.beta > 0.0

    def test_bound_plateau_and_spike(self, ellipse21):
        ctx = TsoContext.from_initial(ellipse21, 1.0)
        assert ctx.bound_at(0.0) == math.inf
        assert ctx.bound_at(-1.0) == math.inf
        # late times sit on the plateau, early times on the 1/t spike
        assert ctx.bound_at(ctx.T1) == ctx.Q0
        t_knee = 1.0 / ((ctx.alpha + 1.0) * ctx.Q0)
        assert ctx.bound_at(0.1 * t_knee) == pytest.approx(10.0 * ctx.Q0)
        ts = np.linspace(1e-4, ctx.T1, 50)
        bounds = [ctx.bound_at(t) for t in ts]
        assert all(x >= y for x, y in zip(bounds, bounds[1:]))


class TestTsoQuantity:
    def test_circle_quotient(self):
        kp = generate(Circle(r=2.0))
        ctx = TsoContext(alpha=1.0, beta=0.5, sigma=1.0, T1=1.0, Q0=1.0)
        q, ok = tso_quantity(kp, ctx)
        assert q == pytest.approx(0.5 / 1.5, rel=1e-12)
        assert ok  # u = 2 >= 2*beta = 1

    def test_precondition_band(self):
        # beta < u_min < 2 beta: finite quotient, precondition not met
        kp = generate(Circle(r=1.0))
        ctx = TsoContext(alpha=1.0, beta=0.6, sigma=1.0, T1=1.0, Q0=1.0)
        q, ok = tso_quantity(kp, ctx)
        assert q == pytest.approx(2.5, rel=1e-12)
        assert not ok

    def test_support_at_offset_is_nan(self):
        kp = generate(Circle(r=1.0))
        for beta in (1.0, 1.5):
            ctx = TsoContext(alpha=1.0, beta=beta, sigma=1.0, T1=1.0, Q0=1.0)
            q, ok = tso_quantity(kp, ctx)
            assert math.isnan(q)
            assert not ok

    def test_ellipse_against_closed_forms(self, ellipse21, grid256):
        # centroid is the center, so support and curvature have closed forms
        ctx = TsoContext.from_initial(ellipse21, 1.0)
        q, ok = tso_quantity(ellipse21, ctx)
        assert ok
        k_ref = oracles.ellipse_curvature(2.0, 1.0, grid256.theta)
        u_ref = oracles.ellipse_support(2.0, 1.0, grid256.theta)
        assert q == pytest.approx((k_ref / (u_ref - ctx.beta)).max(), rel=1e-10)


class TestPointwiseFunctionals:
    def test_gradient_functional_circle(self):
        kp = generate(Circle(r=2.0))
        for alpha in (0.5, 1.0, 2.0):
            assert gradient_functional(kp, alpha) == pytest.approx(
                2.0 ** (-2.0 * alpha), rel=1e-13
            )

    def test_gradient_functional_perturbed(self, grid256):
        # k = 1 + eps*cos has exact spectral derivative; hand maximum
        eps = 0.05
        kp = CurvatureProfile(grid256, 1.0 + eps * np.cos(grid256.theta))
        assert gradient_functional(kp, 1.0) == pytest.approx(
            oracles.gradient_functional_perturbed(eps), rel=1e-12
        )

    def test_lower_bound_functional(self, unit_circle, ellipse21):
        assert abs(lower_bound_functional(0.0, unit_circle)) < 1e-14
        phi0 = lower_bound_functional(0.0, ellipse21)
        assert phi0 == pytest.approx(
            4.0 - oracles.ellipse_perimeter(2.0, 1.0) / TWO_PI, rel=1e-12
        )
        # the accumulated quadrature only shifts it down
        assert lower_bound_functional(0.7, ellipse21) == pytest.approx(
            phi0 - 0.7 / TWO_PI, rel=1e-12
        )
        assert math.isnan(lower_bound_functional(None, ellipse21))

    def test_oscillation(self, unit_circle, grid256):
        assert oscillation(unit_circle) == 0.0
        kp = CurvatureProfile(grid256, 2.0 + np.cos(grid256.theta))
        assert oscillation(kp) == pytest.approx(1.0, rel=1e-13)


class TestEntropy:
    @pytest.mark.parametrize(
        "kind,alpha,expect",
        [
            (FlowKind.LP, 1.0, 0),
            (FlowKind.LP, 0.5, 1),
            (FlowKind.LP, 3.0, -1),
            (FlowKind.AP, 0.5, 1),
            (FlowKind.AP, 1.0, -1),
            (FlowKind.AP, 3.0, -1),
            (FlowKind.G1, 2.0, None),
            (FlowKind.G2, 1.0, None),
            (FlowKind.CONTRACTION, 0.5, None),
        ],
    )
    def test_direction_table(self, kind, alpha, expect):
        assert entropy_direction(FlowLaw(kind, alpha)) == expect

    def test_lp_alpha_one_is_total_angle(self, ellipse21, unit_circle):
        for kp in (ellipse21, unit_circle):
            e = entropy(FlowLaw(FlowKind.LP, 1.0), kp)
            assert e == pytest.approx(TWO_PI, rel=1e-14)

    def test_circle_closed_forms(self):
        kp = generate(Circle(r=2.0))
        e = entropy(FlowLaw(FlowKind.LP, 3.0), kp)
        assert e == pytest.approx(math.pi / 2.0, rel=1e-12)
        e = entropy(FlowLaw(FlowKind.AP, 1.0), kp)
        assert e == pytest.approx(TWO_PI * math.log(TWO_PI), rel=1e-12)
        e = entropy(FlowLaw(FlowKind.AP, 3.0), kp)
        assert e == pytest.approx(8.0 * math.pi**3, rel=1e-12)

    def test_other_laws_record_plain_integral(self, ellipse21):
        _, _, base, _, _ = integrals(ellipse21, 2.0)
        for kind in (FlowKind.G1, FlowKind.G2, FlowKind.CONTRACTION):
            e = entropy(FlowLaw(kind, 2.0), ellipse21)
            assert e == base
        plain = integrate_values(power(ellipse21.k, 2.0) * ellipse21.w)
        assert base == pytest.approx(plain, rel=1e-14)


class TestRateFormulas:
    @pytest.mark.parametrize("kind", NONLOCAL)
    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_circle_is_stationary(self, kind, alpha):
        kp = generate(Circle(r=2.0))
        dA, dL = rate_formulas(FlowLaw(kind, alpha), kp)
        assert abs(dA) < 1e-12
        assert abs(dL) < 1e-12

    def test_contraction_circle_closed_form(self):
        kp = generate(Circle(r=2.0))
        dA, dL = rate_formulas(FlowLaw(FlowKind.CONTRACTION, 2.0), kp)
        assert dA == pytest.approx(-math.pi, rel=1e-13)
        assert dL == pytest.approx(-math.pi / 2.0, rel=1e-13)

    def test_conserved_rates_are_literal_zero(self, ellipse21):
        dA, dL = rate_formulas(FlowLaw(FlowKind.LP, 2.0), ellipse21)
        assert dL == 0.0
        assert dA > 0.0  # area grows while length holds
        dA, dL = rate_formulas(FlowLaw(FlowKind.AP, 2.0), ellipse21)
        assert dA == 0.0
        assert dL < 0.0  # length shrinks while area holds

    @pytest.mark.parametrize("kind", [*NONLOCAL, FlowKind.CONTRACTION])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_support_identities(self, kind, seed):
        # dA = integral (lam - v) w, dL = integral (lam - v); the conserving
        # laws hard-code their zero, which must agree with the identity
        alpha = 1.5
        kp = random_convex(seed)
        law = FlowLaw(kind, alpha)
        lam = lambda_value(law, kp)
        v = power(kp.k, alpha)
        dA_id = integrate_values((lam - v) * kp.w)
        dL_id = TWO_PI * lam - integrate_values(v)
        dA, dL = rate_formulas(law, kp)
        scale = integrate_values(v * kp.w)
        assert dA == pytest.approx(dA_id, abs=1e-12 * scale)
        assert dL == pytest.approx(dL_id, abs=1e-12 * scale)


class TestInequalityAudit:
    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_circle_margins_vanish(self, r, alpha):
        margins = inequality_audit(generate(Circle(r=r)), alpha=alpha)
        assert failed_margins(margins) == []
        for name, m in margins.items():
            assert abs(m.value) <= 1e-12 * max(m.scale, 1e-300), name

    def test_holder_against_quadrature(self, ellipse21):
        margins = inequality_audit(ellipse21, alpha=1.0)
        expect = ELLIPSE21_MEAN_K - TWO_PI / ELLIPSE21_PERIMETER
        assert margins["holder"].value == pytest.approx(expect, rel=1e-9)
        assert margins["holder"].value == pytest.approx(
            oracles.ellipse_curvature_integral(2.0, 1.0, 1.0) / TWO_PI
            - TWO_PI / oracles.ellipse_perimeter(2.0, 1.0),
            rel=1e-9,
        )

    def test_exponent_families_against_quadrature(self, ellipse21):
        L = oracles.ellipse_perimeter(2.0, 1.0)
        A = oracles.ellipse_area(2.0, 1.0)
        Iq = lambda p: oracles.ellipse_curvature_integral(2.0, 1.0, p)
        margins = inequality_audit(ellipse21, alpha=1.0)
        assert margins["ineq11_b2"].value == pytest.approx(
            (L / TWO_PI) * Iq(2.0) - Iq(1.0), rel=1e-9
        )
        assert margins["ineq22_b2"].value == pytest.approx(
            (2.0 * A / L) * Iq(3.0) - Iq(2.0), rel=1e-9
        )

    def test_gage_is_the_zeroth_exponent_case(self, ellipse21):
        margins = inequality_audit(ellipse21, alpha=1.0)
        assert margins["gage"].value == margins["ineq22_b0"].value
        assert margins["gage"].value > 0.0

    @pytest.mark.parametrize("seed", [0, 7, 19])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_sandwich_matches_lambda_differences(self, seed, alpha):
        kp = random_convex(seed)
        lam = {
            kind: lambda_value(FlowLaw(kind, alpha), kp) for kind in NONLOCAL
        }
        margins = inequality_audit(kp, alpha=alpha)
        rel = 1e-12
        assert margins["holder"].value == pytest.approx(
            lam[FlowKind.LP] - lam[FlowKind.AP], rel=rel
        )
        assert margins["gage1_lower"].value == pytest.approx(
            lam[FlowKind.G1] - lam[FlowKind.AP], rel=rel
        )
        assert margins["gage1_upper"].value == pytest.approx(
            lam[FlowKind.LP] - lam[FlowKind.G1], rel=rel
        )
        assert margins["gage2_lower"].value == pytest.approx(
            lam[FlowKind.G2] - lam[FlowKind.AP], rel=rel
        )
        assert margins["gage2_upper"].value == pytest.approx(
            lam[FlowKind.LP] - lam[FlowKind.G2], rel=rel
        )

    def test_sandwich_absent_below_alpha_one(self, ellipse21):
        margins = inequality_audit(ellipse21, alpha=0.5)
        assert "gage1_lower" not in margins
        assert "gage2_upper" not in margins
        assert "holder" in margins

    @pytest.mark.parametrize("seed", [2, 13])
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0])
    def test_all_margins_nonnegative_on_fuzz(self, seed, alpha):
        kp = random_convex(seed, max_mode=8)
        assert failed_margins(inequality_audit(kp, alpha=alpha)) == []

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_quadratic_margins_by_parseval(self, ellipse21, alpha):
        # coefficient-space route: no differentiation, Parseval core
        margins = inequality_audit(ellipse21, alpha=alpha)
        v = power(ellipse21.k, alpha)
        L = integrate_values(ellipse21.w)
        A = oracles.ellipse_area(2.0, 1.0)
        for name, lam in (
            ("lp", integrate_values(v) / TWO_PI),
            ("ap", integrate_values(v * ellipse21.w) / L),
        ):
            phi = v - lam
            core = oracles.fourier_quadratic_core(phi)
            dual1 = integrate_values(phi) ** 2 - TWO_PI * core
            dual2 = integrate_values(phi * ellipse21.w) ** 2 - 2.0 * A * core
            scale = margins[f"mink1_{name}"].scale
            assert margins[f"mink1_{name}"].value == pytest.approx(
                dual1, abs=1e-12 * scale
            )
            scale = margins[f"mink2_{name}"].scale
            assert margins[f"mink2_{name}"].value == pytest.approx(
                dual2, abs=1e-12 * scale
            )

    def test_nonpositive_alpha_rejected(self, ellipse21):
        # every audited inequality presumes a positive exponent; margins
        # for alpha <= 0 would print as meaningless FAILs
        for alpha in (0.0, -1.0, math.nan):
            with pytest.raises(AuditError, match="positive"):
                inequality_audit(ellipse21, alpha=alpha)

    def test_margin_ok_threshold(self):
        assert Margin(-1e-10, 1.0).ok()
        assert not Margin(-1e-8, 1.0).ok()


class TestCollector:
    def test_unknown_audit_named(self, ellipse21):
        with pytest.raises(AuditError, match="bogus"):
            DiagnosticsCollector(
                FlowLaw(FlowKind.LP, 1.0), ellipse21, audits=("rates", "bogus")
            )

    def test_full_collection(self, ellipse21):
        coll = DiagnosticsCollector(FlowLaw(FlowKind.LP, 1.0), ellipse21)
        assert coll.collect(0.0, ellipse21, s_accum=0.0) is None
        rec = sample(coll.series)
        assert rec["L"] == pytest.approx(ELLIPSE21_PERIMETER, rel=1e-10)
        assert rec["A"] == pytest.approx(ELLIPSE21_AREA, rel=1e-10)
        assert rec["lambda"] == pytest.approx(ELLIPSE21_MEAN_K, rel=1e-9)
        assert rec["Q_ok"]
        assert rec["entropy"] == pytest.approx(TWO_PI, rel=1e-13)
        assert rec["Phi_max"] == pytest.approx(4.0 - rec["L"] / TWO_PI, rel=1e-12)
        # the gradient term peaks between the tips, off any uniform grid
        assert rec["Psi_max"] == pytest.approx(ELLIPSE21_PSI, rel=1e-8)
        assert set(coll.series.margin_names) >= {"holder", "gage", "andrews"}
        assert rec["k_max"] == pytest.approx(2.0)
        assert rec["k_min"] == pytest.approx(0.25)
        assert rec["I"] >= 1.0
        lo, hi = oracles.bonnesen_window(rec["L"], rec["A"])
        assert lo - 1e-8 <= rec["r_in"] <= rec["r_out"] <= hi + 1e-8

    def test_recorded_margins_match_the_audit(self, ellipse21):
        # the series keeps margins compactly; reading them back gives the
        # audit's own Margin values, bit for bit
        law = FlowLaw(FlowKind.LP, 1.0)
        coll = DiagnosticsCollector(law, ellipse21)
        coll.collect(0.0, ellipse21, s_accum=0.0)
        audit = inequality_audit(ellipse21, alpha=1.0)
        names, values, scales = coll.series.margin_table()
        assert names == tuple(sorted(audit))
        margins = {
            name: Margin(values[i, 0], scales[i, 0]) for i, name in enumerate(names)
        }
        assert margins == audit
        assert failed_margins(margins) == failed_margins(audit)

    def test_recorded_functionals_match_standalone_calls(self, ellipse21):
        # collect shares one rfft of 1/k and one dense resample of k^alpha
        # between the functionals; each records what it computes alone
        law = FlowLaw(FlowKind.LP, 1.0)
        coll = DiagnosticsCollector(law, ellipse21)
        coll.collect(0.0, ellipse21, s_accum=0.0)
        rec = sample(coll.series)
        u, _ = support_about_centroid(ellipse21)
        assert rec["A"] == area(ellipse21)
        assert rec["lambda"] == lambda_value(law, ellipse21)
        rates = rate_formulas(law, ellipse21)
        assert (rec["dA_dt_formula"], rec["dL_dt_formula"]) == rates
        tso = tso_quantity(ellipse21, coll.series.tso, u=u)
        assert (rec["Q_max"], rec["Q_ok"]) == tso
        assert rec["Psi_max"] == gradient_functional(ellipse21, 1.0)

    def test_profile_spectrum_is_cached_and_read_only(self, ellipse21):
        assert ellipse21.W is ellipse21.W
        assert np.array_equal(ellipse21.W, np.fft.rfft(ellipse21.w))
        assert not ellipse21.W.flags.writeable

    def test_disabled_audits_record_nan(self, ellipse21):
        coll = DiagnosticsCollector(
            FlowLaw(FlowKind.LP, 1.0), ellipse21, audits=("rates",)
        )
        coll.collect(0.0, ellipse21, s_accum=0.0)
        rec = sample(coll.series)
        for name in ("r_in", "r_out", "Q_max", "Psi_max", "Phi_max", "entropy"):
            assert math.isnan(rec[name]), name
        assert not rec["Q_ok"]
        assert coll.series.margin_names == ()
        assert not math.isnan(rec["dA_dt_formula"])
        assert coll.series.tso is None
        assert coll.series.column_names()[-1] == "oscillation"

    def test_phi_needs_accumulator(self, ellipse21):
        coll = DiagnosticsCollector(FlowLaw(FlowKind.LP, 1.0), ellipse21)
        coll.collect(0.0, ellipse21)  # no s_accum available
        assert math.isnan(coll.series.column("Phi_max")[0])

    def test_time_must_increase(self, ellipse21):
        coll = DiagnosticsCollector(FlowLaw(FlowKind.LP, 1.0), ellipse21)
        coll.collect(0.1, ellipse21)
        with pytest.raises(AuditError, match="increase"):
            coll.collect(0.1, ellipse21)

    def test_column_access(self, ellipse21, unit_circle):
        law = FlowLaw(FlowKind.AP, 1.0)
        coll = DiagnosticsCollector(law, ellipse21)
        coll.collect(0.0, ellipse21)
        coll.collect(0.5, unit_circle)
        series = coll.series
        profiles = (ellipse21, unit_circle)
        assert np.array_equal(series.column("t"), [0.0, 0.5])
        assert np.array_equal(
            series.column("lambda"), [lambda_value(law, kp) for kp in profiles]
        )
        assert np.array_equal(
            series.column("margin_holder"),
            [inequality_audit(kp, alpha=1.0)["holder"].value for kp in profiles],
        )
        with pytest.raises(AttributeError):
            series.column("no_such_column")


class TestWarmRadii:
    @pytest.mark.parametrize(
        "kind, alpha, curve, t_end",
        [
            (FlowKind.LP, 1.0, Ellipse(a=2.0, b=1.0, grid_n=128), 0.5),
            (FlowKind.AP, 2.0, Ellipse(a=2.0, b=1.0, grid_n=128), 0.5),
            (
                FlowKind.G1,
                2.0,
                PerturbedCircle(r0=1.0, modes=((2, 0.1, 0.3), (3, 0.05, 1.0)), grid_n=128),
                0.2,
            ),
        ],
    )
    def test_collector_radii_match_a_cold_solve(
        self, kind, alpha, curve, t_end, monkeypatch
    ):
        # the collector starts each sample's radii at the previous
        # sample's contacts; only the first sample runs the exchange
        exchanges = []
        exchange = geometry._exchange

        def counted(*args):
            exchanges.append(1)
            return exchange(*args)

        monkeypatch.setattr(geometry, "_exchange", counted)
        profiles = []
        res = run(
            FlowLaw(kind, alpha),
            generate(curve),
            t_end=t_end,
            sample_dt=t_end / 40,
            audits=("radii",),
            on_sample=lambda t, kp, index: profiles.append(kp),
        )
        assert len(exchanges) == 2
        assert len(profiles) == len(res.series) == 41
        radii = zip(profiles, res.series.column("r_in"), res.series.column("r_out"))
        for kp, r_in, r_out in radii:
            inner, outer = geometry.inradius_outradius(kp)
            assert r_in == pytest.approx(inner.radius, rel=1e-13, abs=0.0)
            assert r_out == pytest.approx(outer.radius, rel=1e-13, abs=0.0)

    def test_block_after_an_uncertified_row_starts_from_the_last_certified(
        self, monkeypatch
    ):
        # two blocks of 8 rows at n=512; the first block's last pair is
        # made uncertified, so the second starts from the pair before it
        profiles = []
        run(FlowLaw(FlowKind.LP, 1.0), generate(Ellipse(a=2.0, b=1.0, grid_n=512)),
            t_end=0.15, sample_dt=0.01, audits=(),
            on_sample=lambda t, kp, index: profiles.append(kp))
        calls = []
        radii = geometry.inradius_outradius
        nan = geometry.TouchingCircle(
            math.nan, np.full(2, math.nan), np.empty(0), np.empty(0)
        )

        def last_uncertified(block, u, start):
            pairs = radii(block, u=u, start=start)
            calls.append((start, pairs))
            return pairs[:-1] + [(nan, nan)] if len(calls) == 1 else pairs

        monkeypatch.setattr(geometry, "inradius_outradius", last_uncertified)
        coll = DiagnosticsCollector(FlowLaw(FlowKind.LP, 1.0), profiles[0], ("radii",))
        assert coll.block_rows == 8
        for j, kp in enumerate(profiles):
            coll.collect(0.01 * j, kp, defer=True)
        coll.collect(0.16, profiles[-1])
        (first, pairs), (second, _), _ = calls
        assert first is None
        assert second is pairs[-2]
        r_in = coll.series.column("r_in")
        assert np.isnan(r_in[7]) and not np.isnan(r_in[:7]).any()
        assert not np.isnan(r_in[8:]).any()


class TestBlocks:
    @pytest.mark.parametrize(
        "kind, alpha, curve, t_end",
        [
            (FlowKind.LP, 1.0, Ellipse(a=2.0, b=1.0, grid_n=128), 0.5),
            (FlowKind.AP, 2.0, Ellipse(a=2.0, b=1.0, grid_n=128), 0.5),
            (
                FlowKind.G1,
                2.0,
                PerturbedCircle(r0=1.0, modes=((2, 0.1, 0.3), (3, 0.05, 1.0)), grid_n=128),
                0.2,
            ),
        ],
    )
    def test_rows_match_single_sample_collect(
        self, kind, alpha, curve, t_end, monkeypatch
    ):
        # run() collects in blocks of 32 rows at n=128; collecting the same
        # samples one at a time must give the same series bit for bit, the
        # radii (warm-started along either sequence) to 1e-13
        law = FlowLaw(kind, alpha)
        kp0 = generate(curve)
        samples = []
        collect = DiagnosticsCollector.collect

        def recorded(self, t, kp, s_accum=None, **kwargs):
            samples.append((t, kp, s_accum))
            return collect(self, t, kp, s_accum, **kwargs)

        monkeypatch.setattr(DiagnosticsCollector, "collect", recorded)
        profiles = []
        res = run(law, kp0, t_end=t_end, sample_dt=t_end / 40,
                  on_sample=lambda t, kp, index: profiles.append(kp))
        monkeypatch.undo()
        assert [kp for _, kp, _ in samples] == profiles
        assert DiagnosticsCollector(law, kp0).block_rows == 32 < len(res.series) == 41

        single = DiagnosticsCollector(law, kp0)
        for t, kp, s_accum in samples:
            single.collect(t, kp, s_accum)
        assert single.series.column_names() == res.series.column_names()
        for name in res.series.column_names():
            got, want = res.series.column(name), single.series.column(name)
            if name in ("r_in", "r_out"):
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            else:
                assert np.array_equal(got, want, equal_nan=True), name
        names, values, scales = res.series.margin_table()
        assert names == single.series.margin_table()[0]
        assert np.array_equal(values, single.series.margin_table()[1])
        assert np.array_equal(scales, single.series.margin_table()[2])

    def test_block_rows_follow_the_memory_budget(self):
        law = FlowLaw(FlowKind.LP, 1.0)
        rows = {
            n: DiagnosticsCollector(law, generate(Circle(r=1.0, grid_n=n))).block_rows
            for n in (64, 128, 512, 1024, 4096)
        }
        assert rows == {64: 64, 128: 32, 512: 8, 1024: 4, 4096: 1}

    def test_deferred_samples_are_computed_with_the_next_direct_call(
        self, ellipse21, unit_circle
    ):
        coll = DiagnosticsCollector(FlowLaw(FlowKind.LP, 1.0), ellipse21)
        assert coll.collect(0.0, ellipse21, 0.0, defer=True) is None
        assert len(coll.series) == 0
        with pytest.raises(AuditError, match="increase"):
            coll.collect(0.0, unit_circle, defer=True)
        assert coll.collect(0.5, unit_circle, 0.1) is None
        assert len(coll.series) == 2
        assert coll.series.column("k_max")[0] == pytest.approx(2.0)
        assert coll.series.column("oscillation")[1] == 0.0

    def test_functionals_take_a_block_or_one_profile(self, ellipse21):
        # a (3, n) block gives each row bit for bit what its profile gives
        # alone, and one profile gives scalars, not 0-d arrays
        law = FlowLaw(FlowKind.AP, 1.5)
        profiles = [ellipse21, random_convex(1), random_convex(2)]
        block = CurvatureProfile(ellipse21.grid, np.stack([kp.k for kp in profiles]))
        ctx = TsoContext.from_initial(ellipse21, law.alpha)
        u, _ = geometry._support_pipeline(block)
        s_accum = np.array([0.0, 0.5, 1.0])

        def values(kp, s, u=None):
            return {
                "oscillation": oscillation(kp),
                "dA_dt": rate_formulas(law, kp)[0],
                "dL_dt": rate_formulas(law, kp)[1],
                "Q_max": tso_quantity(kp, ctx, u=u)[0],
                "psi": gradient_functional(kp, law.alpha),
                "phi": lower_bound_functional(s, kp),
                "entropy": entropy(law, kp),
                "lambda": lambda_value(law, kp),
                "length": geometry.length(kp),
                "area": geometry.parseval_area(kp.W),
                "closure_defect": geometry.closure_defect(kp),
            }

        rows = values(block, s_accum, u)
        q_ok = tso_quantity(block, ctx, u=u)[1]
        margins = inequality_audit(block, alpha=law.alpha)
        for i, kp in enumerate(profiles):
            one = values(kp, s_accum[i])
            one["area"] = area(kp)
            one["phi_disabled"] = lower_bound_functional(None, kp)
            one["dL_dt_lp"] = rate_formulas(FlowLaw(FlowKind.LP, 1.5), kp)[1]
            for name, x in one.items():
                assert isinstance(x, float) and not isinstance(x, np.ndarray), name
            assert {name: rows[name][i] for name in rows} == {
                name: x for name, x in one.items() if name in rows
            }
            assert math.isnan(one["phi_disabled"])
            ok = tso_quantity(kp, ctx)[1]
            assert not isinstance(ok, np.ndarray) and ok == q_ok[i]
            audit = inequality_audit(kp, alpha=law.alpha)
            assert list(audit) == list(margins)
            for name, m in audit.items():
                for x in (m.value, m.scale):
                    assert isinstance(x, float) and not isinstance(x, np.ndarray), name
            assert audit == {
                name: Margin(m.value[i], m.scale[i]) for name, m in margins.items()
            }

    def test_block_compute_memory(self):
        # the extrema evaluate the interpolants only in candidate cells,
        # with no dense resample, so a full block stays within a few times
        # its (rows, n) arrays: 8 rows at n=512, 32 at n=128
        law = FlowLaw(FlowKind.LP, 1.0)
        for n, t_end in ((512, 0.05), (128, 0.2)):
            kp0 = generate(Ellipse(a=2.0, b=1.0, grid_n=n))
            rows = DiagnosticsCollector(law, kp0).block_rows
            samples = []
            run(law, kp0, t_end=t_end, sample_dt=t_end / (rows + 1),
                audits=("rates",),
                on_sample=lambda t, kp, index: samples.append((t, kp, 0.1 * t)))
            queue = samples[1: rows + 1]
            assert len(queue) == rows
            DiagnosticsCollector(law, kp0)._compute(queue)  # warm the caches
            coll = DiagnosticsCollector(law, kp0)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                coll._compute(queue)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert len(coll.series) == rows
            assert peak < 768 * 1024, (n, peak)


# the exact extrema against the parabola-refined maximum of a 1024x
# resample, whose own error is at most 3.3e-12 relative (against a 4096x
# one on random_convex(2, 3, 6)); the five near-tied sharp peaks take a
# 16384x one, as the 1024x one is 8.8e-12 off there
DENSE_FACTOR = 1024
EXTREMA_RTOL = 1e-11


def dense_max(fine):
    return refined_extremum_values(fine, True)


def dense_tso(kp, ctx, u, factor=DENSE_FACTOR):
    """(Q_max, min u) from the factor-times resamples of k^alpha and u."""
    n = kp.grid.n
    u_fine = resample_values(u, factor * n)
    u_min = refined_extremum_values(u_fine, False)
    if u_min <= ctx.beta:
        return math.nan, u_min
    u_fine -= ctx.beta
    v_fine = resample_values(power(kp.k, ctx.alpha), factor * n)
    return dense_max(v_fine / u_fine), u_min


def dense_maxima(kp, alpha, factor=DENSE_FACTOR):
    """(Psi_max, max of 1/k) from the factor-times resamples."""
    n = kp.grid.n
    V = np.fft.rfft(power(kp.k, alpha))
    square = resample_spectrum(deriv_spectrum(V, 1), n, factor * n) ** 2
    square += resample_spectrum(V, n, factor * n) ** 2
    return dense_max(square), dense_max(resample_spectrum(kp.W, n, factor * n))


def flowed(kind, alpha, n, t):
    """The 2:1 ellipse's profile after time t of the flow."""
    profiles = []
    run(FlowLaw(kind, alpha), generate(Ellipse(a=2.0, b=1.0, grid_n=n)),
        t_end=t, sample_dt=t, audits=(),
        on_sample=lambda t, kp, index: profiles.append(kp))
    return profiles[-1]


def two_peak_profile():
    """1/k of 64 nodes with a peak on node 10 and a higher, sharper one
    mid-cell at 40.5, whose nodes both sample below the first."""
    theta = AngularGrid(64).theta
    h = TWO_PI / 64

    def bump(center):
        return ((1.0 + np.cos(theta - center)) / 2.0) ** 16

    w = 2.0 + bump(10 * h) + 1.005 * bump(40.5 * h)
    return CurvatureProfile(AngularGrid(64), 1.0 / w)


def five_peak_profile():
    """1/k of 64 nodes with five near-tied peaks; the highest sits
    mid-cell at 0.5 and samples lowest on the nodes."""
    theta = AngularGrid(64).theta
    h = TWO_PI / 64
    w = 2.0 + 0.5 * np.cos(5.0 * (theta - h / 2)) + 0.001 * np.cos(theta - h / 2)
    return CurvatureProfile(AngularGrid(64), 1.0 / w)


def quartic_peak_profile():
    """1/k of 64 nodes, 3 + (cos x - cos(2x)/4)/2 with x = theta - 10.5 h:
    3.375 - x^4/16 + ..., a peak mid-cell with no curvature."""
    x = AngularGrid(64).theta - 10.5 * TWO_PI / 64
    w = 3.0 + 0.5 * (np.cos(x) - np.cos(2 * x) / 4)
    return CurvatureProfile(AngularGrid(64), 1.0 / w)


class TestExactExtrema:
    """min u, Q, Psi and max 1/k are the maxima of the interpolants,
    searched in the cells around the peaks."""

    CASES = {
        "ellipse n=128": lambda: (generate(Ellipse(a=2.0, b=1.0, grid_n=128)), 1.0),
        "ellipse n=512": lambda: (generate(Ellipse(a=2.0, b=1.0, grid_n=512)), 1.0),
        **{
            f"random seed {seed}": (lambda seed=seed: (random_convex(seed), 2.0))
            for seed in range(8)
        },
        # sharp asymmetric peaks of k^3
        "LP a=3 t=0.015": lambda: (flowed(FlowKind.LP, 3.0, 256, 0.015), 3.0),
    }

    def check(self, kp, alpha, ctx=None, factor=DENSE_FACTOR):
        # ctx None: a curve without a support function, so no Tso quotient
        if ctx is not None:
            u, _ = support_about_centroid(kp)
            q_ref, u_min = dense_tso(kp, ctx, u, factor)
            q_max, ok = tso_quantity(kp, ctx, u=u)
            assert ok == (ctx.beta < u_min and u_min >= 2.0 * ctx.beta)
            if math.isnan(q_ref):
                assert math.isnan(q_max)
            else:
                assert q_max == pytest.approx(q_ref, rel=EXTREMA_RTOL, abs=0.0)
                # min u, read through the precondition min u >= 2 beta
                for side in (-1.0, 1.0):
                    beta = 0.5 * u_min * (1.0 + side * EXTREMA_RTOL)
                    near = dataclasses.replace(ctx, beta=beta)
                    assert tso_quantity(kp, near, u=u)[1] == (side < 0.0)
        psi_ref, w_ref = dense_maxima(kp, alpha, factor)
        psi = gradient_functional(kp, alpha)
        assert psi == pytest.approx(psi_ref, rel=EXTREMA_RTOL, abs=0.0)
        phi = lower_bound_functional(0.25, kp)
        w_max = phi + (geometry.length(kp) + 0.25) / TWO_PI
        assert w_max == pytest.approx(w_ref, rel=EXTREMA_RTOL, abs=0.0)

    def check_curve(self, kp, alpha):
        self.check(kp, alpha, TsoContext.from_initial(kp, alpha))

    def test_cell_bound_holds_over_every_cell(self):
        # the bound that rules cells out is at or above every sample of a
        # 256x resample of the cell, for spectra that decay slowly or fast
        rng = np.random.default_rng(5)
        n = 32
        m = np.arange(n // 2 + 1)
        for _ in range(50):
            coef = rng.normal(size=(4, n // 2 + 1)) + 1j * rng.normal(size=(4, n // 2 + 1))
            coef *= n * np.exp(-m / rng.uniform(1.0, 60.0))
            coef[:, [0, -1]] = coef[:, [0, -1]].real
            g = np.fft.irfft(coef, n)
            slope, curv = spectral._slopes(coef, n)
            bound = spectral._cell_bound(g, slope, curv, spectral._mode_sums(coef, 3))
            cells = resample_spectrum(coef, n, 256 * n).reshape(4, n, 256).max(-1)
            assert (cells <= bound + 1e-13 * np.abs(g).max()).all()

    @pytest.mark.parametrize("case", CASES)
    def test_match_the_full_resample_from_one_cell(self, case):
        # tied peaks (the ellipse's at 0 and pi, Psi's four) are each
        # found in the cell whose end slopes bracket them
        self.check_curve(*self.CASES[case]())

    def test_flat_peak(self):
        # late in the LP flow of the ellipse, Psi's peak at the tip is so
        # flat that cells two away can still reach it
        self.check_curve(flowed(FlowKind.LP, 1.0, 512, 0.25), 1.0)
        # a peak mid-cell where f'' vanishes too: Newton on f' converges
        # only linearly, but to the closed-form maximum
        kp = quartic_peak_profile()
        self.check(kp, 1.0)
        w_max = lower_bound_functional(0.0, kp) + geometry.length(kp) / TWO_PI
        assert w_max == pytest.approx(3.375, rel=1e-14, abs=0.0)

    def test_circle_keeps_its_node_value(self):
        # no cell of a circle can beat its largest node by more than
        # round-off, so each maximum is that node value
        kp = generate(Circle(r=1.0, grid_n=128))
        self.check_curve(kp, 1.0)
        ctx = TsoContext.from_initial(kp, 1.0)
        u, _ = support_about_centroid(kp)
        assert tso_quantity(kp, ctx, u=u)[0] == (kp.k / (u - ctx.beta)).max()
        phi = lower_bound_functional(0.0, kp)
        assert phi == kp.w.max() - geometry.length(kp) / TWO_PI
        V = np.fft.rfft(kp.k)
        square = resample_spectrum(deriv_spectrum(V, 1), 128, 256) ** 2
        square += resample_spectrum(V, 128, 256) ** 2
        assert gradient_functional(kp, 1.0) == square[::2].max()

    def test_crossed_row_reads_nan(self):
        # u of the ellipse spans [1, 2]: beta = 1.5 crosses it, and the
        # quotient reads NaN; on a circle of radius 2 it stays finite
        ctx = TsoContext(alpha=1.0, beta=1.5, sigma=1.0, T1=1.0, Q0=1.0)
        ellipse = generate(Ellipse(a=2.0, b=1.0, grid_n=128))
        circle = generate(Circle(r=2.0, grid_n=128))
        self.check(ellipse, 1.0, ctx)
        self.check(circle, 1.0, ctx)
        block = CurvatureProfile(ellipse.grid, np.stack([ellipse.k, circle.k]))
        u, _ = geometry._support_pipeline(block)
        q_max, ok = tso_quantity(block, ctx, u=u)
        assert math.isnan(q_max[0]) and not ok.any()
        assert q_max[1] == tso_quantity(circle, ctx)[0] == pytest.approx(1.0)

    def test_peak_in_another_cell(self):
        # the largest node of 1/k is not next to the cell holding the
        # interpolant's maximum
        kp = two_peak_profile()
        fine = resample_spectrum(kp.W, 64, DENSE_FACTOR * 64)
        assert kp.w.argmax() == 10 and fine.argmax() // DENSE_FACTOR == 40
        self.check(kp, 1.0)

    def test_five_near_tied_peaks(self):
        # four peaks sample higher than the one that holds the maximum
        kp = five_peak_profile()
        fine = resample_spectrum(kp.W, 64, DENSE_FACTOR * 64)
        ring = np.concatenate([kp.w[-1:], kp.w, kp.w[:1]])
        peaks = np.flatnonzero((kp.w >= ring[:-2]) & (kp.w >= ring[2:]))
        assert sorted(peaks, key=lambda j: -kp.w[j])[:4] == [26, 39, 13, 52]
        assert fine.argmax() // DENSE_FACTOR == 0
        self.check(kp, 1.0, factor=16384)


class TestColumnarSeries:
    def test_column_is_read_only(self, ellipse21):
        coll = DiagnosticsCollector(FlowLaw(FlowKind.LP, 1.0), ellipse21)
        coll.collect(0.0, ellipse21, s_accum=0.0)
        for name in ("t", "L", "margin_holder"):
            col = coll.series.column(name)
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1.0
        assert coll.series.column("t")[0] == 0.0
        assert math.isnan(coll.series.column("margin_no_such_margin")[0])

    def test_records_round_trip(self):
        # 20 samples one at a time and in one block give the same table
        j = np.arange(20.0)
        columns = record(0.1 * j, L=1.0 + j, Q_max=2.0, Q_ok=j % 2 == 1,
                         Psi_max=3.0, Phi_max=0.5, entropy=1.0)
        margins = {"b": Margin(-1.0 * j, 2.0), "a": Margin(3.0, j)}

        def at(x, i):
            return np.broadcast_to(x, j.shape)[i]

        s = series_of(FlowKind.G1, 2.0)
        for i in range(20):
            s.extend(
                {name: at(x, i) for name, x in columns.items()},
                {name: Margin(at(m.value, i), at(m.scale, i))
                 for name, m in margins.items()},
            )
        block = series_of(FlowKind.G1, 2.0)
        block.extend(columns, margins)
        assert len(s) == len(block) == 20
        assert s.margin_names == block.margin_names == ("a", "b")
        assert s.column_names() == block.column_names()
        for name in s.column_names():
            assert np.array_equal(s.column(name), block.column(name), equal_nan=True)
        for name in COLUMNS:
            want = np.broadcast_to(columns[name], j.shape)
            assert np.array_equal(s.column(name), want, equal_nan=True), name
        names, values, scales = s.margin_table()
        assert np.array_equal(values, [np.full(20, 3.0), -j])
        assert np.array_equal(scales, [j, np.full(20, 2.0)])
        with pytest.raises(AuditError, match="margin names"):
            s.extend(record(5.0), {"a": Margin(1.0, 1.0)})
        with pytest.raises(AuditError, match="increase"):
            s.extend(record(1.9), margins)
        with pytest.raises(AuditError, match="increase"):
            block.extend(record(np.array([3.0, 3.0])),
                         dict.fromkeys("ab", Margin(1.0, 1.0)))
        assert len(s) == len(block) == 20

    def test_result_footprint(self):
        # the series keeps one float64 per scalar and two per margin for
        # each sample, with no spare capacity once the run is over
        law = FlowLaw(FlowKind.LP, 1.0)
        kp0 = generate(Ellipse(a=2.0, b=1.0, grid_n=128))
        run(law, kp0, t_end=1.0, sample_dt=1 / 200)  # warm the caches
        tracemalloc.start()
        try:
            res = run(law, kp0, t_end=1.0, sample_dt=1 / 200)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            assert len(res.series) == 201
            del res
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 100 * 1024


class TestCsv:
    def test_round_trip(self, ellipse21, unit_circle):
        coll = DiagnosticsCollector(FlowLaw(FlowKind.LP, 1.0), ellipse21)
        coll.collect(0.0, ellipse21, s_accum=0.0)
        coll.collect(0.25, unit_circle, s_accum=0.3)
        text = to_csv(coll.series)
        names = coll.series.column_names()
        assert text.splitlines()[0] == ",".join(names) == (
            "t,L,A,I,k_min,k_max,lambda,closure_defect,r_in,r_out,"
            "dA_dt_formula,dL_dt_formula,Q_max,Q_ok,Psi_max,Phi_max,entropy,"
            "oscillation,margin_andrews,margin_gage,margin_gage1_lower,"
            "margin_gage1_upper,margin_gage2_lower,margin_gage2_upper,"
            "margin_holder,margin_ineq11_b0,margin_ineq11_b0.5,margin_ineq11_b1,"
            "margin_ineq11_b2,margin_ineq11_b3,margin_ineq22_b0,"
            "margin_ineq22_b0.5,margin_ineq22_b1,margin_ineq22_b2,"
            "margin_ineq22_b3,margin_mink1_ap,margin_mink1_lp,margin_mink2_ap,"
            "margin_mink2_lp"
        )
        parsed = np.genfromtxt(
            text.splitlines(), delimiter=",", names=True, deletechars=""
        )
        assert parsed.dtype.names == names
        for name in names:
            col = coll.series.column(name)
            back = parsed[name]
            both_nan = np.isnan(col) & np.isnan(back)
            assert np.array_equal(col[~both_nan], back[~both_nan]), name


class TestSeriesAudits:
    def test_monotone_clean_and_flagged(self):
        s = series_of(FlowKind.LP, 2.0)
        s.extend(record(0.0, I=1.2, entropy=5.0))
        s.extend(record(0.1, I=1.1, entropy=4.0))
        s.extend(record(0.2, I=1.05, entropy=3.5))
        assert monotonicity_violations(s) == []
        s = series_of(FlowKind.LP, 2.0)
        s.extend(record(0.0, I=1.1, entropy=5.0))
        s.extend(record(0.1, I=1.2, entropy=6.0))
        out = monotonicity_violations(s)
        assert len(out) == 2
        assert any("isoperimetric" in msg for msg in out)
        assert any("entropy" in msg for msg in out)

    def test_monotone_directions_by_law(self):
        # G1 adds length down / area up; contraction drops the ratio check
        s = series_of(FlowKind.G1, 1.0)
        s.extend(record(0.0, L=6.0, A=3.0))
        s.extend(record(0.1, L=6.1, A=2.9))
        out = monotonicity_violations(s)
        assert any("length" in msg for msg in out)
        assert any("area" in msg for msg in out)
        s = series_of(FlowKind.CONTRACTION, 1.0)
        s.extend(record(0.0, I=1.0))
        s.extend(record(0.1, I=1.5))
        assert monotonicity_violations(s) == []

    def test_monotone_tolerates_roundoff(self):
        s = series_of(FlowKind.LP, 1.0)
        s.extend(record(0.0, I=1.1))
        s.extend(record(0.1, I=1.1 * (1.0 + 1e-13)))
        assert monotonicity_violations(s) == []

    def test_phi_checked_only_when_enabled(self):
        for enabled, expect in ((True, 1), (False, 0)):
            s = series_of(FlowKind.LP, 1.0, phi_enabled=enabled)
            s.extend(record(0.0, Phi_max=0.5))
            s.extend(record(0.1, Phi_max=0.6))
            assert len(monotonicity_violations(s)) == expect

    def test_psi_running_max(self):
        s = series_of(FlowKind.LP, 1.0)
        s.extend(record(0.0, Psi_max=4.0, k_max=2.0))
        s.extend(record(0.1, Psi_max=3.0, k_max=1.5))
        s.extend(record(0.2, Psi_max=3.9, k_max=1.2))
        assert psi_violations(s) == []
        s = series_of(FlowKind.LP, 1.0)
        s.extend(record(0.0, Psi_max=4.0, k_max=2.0))
        s.extend(record(0.1, Psi_max=4.5, k_max=1.5))
        assert len(psi_violations(s)) == 1
        # a growing curvature maximum raises the allowance
        s = series_of(FlowKind.LP, 1.0)
        s.extend(record(0.0, Psi_max=4.0, k_max=2.0))
        s.extend(record(0.1, Psi_max=8.9, k_max=3.0))
        assert psi_violations(s) == []

    def test_psi_allowance_past_the_float_range(self):
        # k_max ** (2 alpha) overflows a float: the allowance is infinite
        s = series_of(FlowKind.CONTRACTION, 100.0)
        s.extend(record(0.0, Psi_max=4.0, k_max=1e3))
        s.extend(record(0.1, Psi_max=1e300, k_max=1e4))
        assert psi_violations(s) == []

    def test_psi_skipped_when_disabled(self):
        s = series_of(FlowKind.LP, 1.0)
        s.extend(record(0.0, Psi_max=math.nan, k_max=2.0))
        s.extend(record(0.1, Psi_max=math.nan, k_max=9.0))
        assert psi_violations(s) == []

    def test_tso_bound(self):
        ctx = TsoContext(alpha=1.0, beta=0.1, sigma=1.0, T1=1.0, Q0=5.0)
        s = series_of(FlowKind.LP, 1.0, tso=ctx)
        s.extend(record(0.0, Q_max=100.0, Q_ok=True))  # t = 0 exempt
        s.extend(record(0.2, Q_max=2.49, Q_ok=True))  # spike allows 2.5
        s.extend(record(0.6, Q_max=4.9, Q_ok=True))  # plateau allows 5
        s.extend(record(0.8, Q_max=50.0, Q_ok=False))  # precondition lost
        s.extend(record(2.0, Q_max=50.0, Q_ok=True))  # past T1
        assert tso_violations(s) == []
        s = series_of(FlowKind.LP, 1.0, tso=ctx)
        s.extend(record(0.6, Q_max=5.1, Q_ok=True))
        assert len(tso_violations(s)) == 1

    def test_tso_asserted_for_conserving_laws_only(self):
        ctx = TsoContext(alpha=1.0, beta=0.1, sigma=1.0, T1=1.0, Q0=5.0)
        s = series_of(FlowKind.G1, 1.0, tso=ctx)
        s.extend(record(0.5, Q_max=1e9, Q_ok=True))
        assert tso_violations(s) == []

    def test_margin_violations(self):
        s = series_of()
        s.extend(record(0.0), {"holder": Margin(-1.0, 1.0)})
        out = margin_violations(s)
        assert len(out) == 1 and "holder" in out[0]

    def test_conservation(self):
        s = series_of(FlowKind.LP, 1.0)
        s.extend(record(0.0, L=TWO_PI))
        s.extend(record(0.1, L=TWO_PI * (1.0 + 2e-6)))
        assert len(conservation_violations(s)) == 1
        s = series_of(FlowKind.LP, 1.0)
        s.extend(record(0.0, L=TWO_PI))
        s.extend(record(0.1, L=TWO_PI * (1.0 + 5e-7)))
        assert conservation_violations(s) == []
        # AP watches area instead, G1 watches neither
        s = series_of(FlowKind.AP, 1.0)
        s.extend(record(0.0, L=TWO_PI, A=math.pi))
        s.extend(record(0.1, L=5.0, A=math.pi * (1.0 + 2e-6)))
        assert len(conservation_violations(s)) == 1
        s = series_of(FlowKind.G1, 1.0)
        s.extend(record(0.0, L=TWO_PI, A=math.pi))
        s.extend(record(0.1, L=5.0, A=4.0))
        assert conservation_violations(s) == []

    def test_closure(self):
        s = series_of()
        s.extend(record(0.0, L=TWO_PI, closure_defect=0.0))
        s.extend(record(0.1, closure_defect=TWO_PI * 2e-6))
        assert len(closure_violations(s)) == 1
        s = series_of()
        s.extend(record(0.0, L=TWO_PI, closure_defect=0.0))
        s.extend(record(0.1, closure_defect=TWO_PI * 5e-7))
        assert closure_violations(s) == []

    @pytest.mark.parametrize(
        "check", [psi_violations, conservation_violations, closure_violations]
    )
    def test_empty_series_checks_nothing(self, check):
        assert check(series_of(FlowKind.LP, 1.0)) == []


def ellipse_at(n):
    return generate(Ellipse(a=2.0, b=1.0, grid_n=n))


G1_ALPHA2 = FlowLaw(FlowKind.G1, 2.0)
# the benchmark's runs and their kind: LP from the ellipse at n=128 and
# n=512, G1 from random_convex(0) under both cadences, and runs to
# convergence
RADII_RUNS = {
    "LP alpha=1 n=128": lambda: run(
        FlowLaw(FlowKind.LP, 1.0), ellipse_at(128), t_end=1.0, sample_dt=0.005),
    "LP alpha=1 n=512": lambda: run(
        FlowLaw(FlowKind.LP, 1.0), ellipse_at(512), t_end=0.3, sample_dt=0.3 / 80),
    "G1 alpha=2 step cadence": lambda: run(
        G1_ALPHA2, random_convex(0), t_end=0.12, sample_every=25),
    "G1 alpha=2 time cadence": lambda: run(
        G1_ALPHA2, random_convex(0), t_end=0.12, sample_dt=0.0012),
    "LP alpha=1 to convergence": lambda: run(
        FlowLaw(FlowKind.LP, 1.0), ellipse_at(128), t_end=20.0, sample_dt=0.02),
    "G1 alpha=2 to convergence": lambda: run(
        G1_ALPHA2, random_convex(0), StepControl(convergence_tol=5e-4),
        t_end=3.0, sample_dt=0.005),
    "AP alpha=3": lambda: run(
        FlowLaw(FlowKind.AP, 3.0), ellipse_at(128), t_end=0.01, sample_dt=0.0002),
}


class TestRadiiAudit:
    @pytest.mark.parametrize("name", sorted(RADII_RUNS))
    def test_clean_on_flows(self, name):
        res = RADII_RUNS[name]()
        assert not np.isnan(res.series.column("r_out")).any()
        assert radii_violations(res.series) == []

    def test_lifted_outradius_is_named_at_its_time(self):
        res = run(FlowLaw(FlowKind.LP, 1.0), ellipse_at(128), t_end=0.1,
                  sample_dt=0.005)
        columns = columns_of(res.series)
        hi = oracles.bonnesen_window(columns["L"][7], columns["A"][7])[1]
        columns["r_out"][7] = hi + 1e-7
        s = series_of()
        s.extend(columns)
        (msg,) = radii_violations(s)
        assert msg.startswith("r_out") and msg.endswith(f"t={columns['t'][7]:.6g}")

    def test_bonnesen_inequality_and_window(self):
        # L = 8, A = 3.5: the window is (8 -+ 2 sqrt(16 - 3.5 pi)) / 2 pi
        L, A = 8.0, 3.5
        lo, hi = oracles.bonnesen_window(L, A)
        slack = 0.9e-8 * L / TWO_PI
        s = series_of()
        s.extend(record(0.0, L=L, A=A, r_in=lo, r_out=hi))
        s.extend(record(0.1, L=L, A=A, r_in=lo - slack, r_out=hi))
        assert radii_violations(s) == []
        # each radius within the window's slack, their difference not
        s.extend(record(0.2, L=L, A=A, r_in=lo - slack, r_out=hi + slack))
        (msg,) = radii_violations(s)
        assert "Bonnesen" in msg and msg.endswith("t=0.2")
        # beyond the slack, a radius leaves the window and so widens the gap
        s.extend(record(0.3, L=L, A=A, r_in=lo - 2 * slack, r_out=hi))
        below, *gaps = radii_violations(s)
        assert below.startswith("r_in") and below.endswith("t=0.3")
        assert [m[-5:] for m in gaps] == ["t=0.2", "t=0.3"]

    def test_near_circle_deficit_round_off(self):
        # u = R + eps cos 2 theta: r_in, r_out = R -+ eps, and the deficit
        # L^2 - 4 pi A is 6 pi^2 eps^2, recorded here 1e-14 low, as its
        # round-off leaves it near convergence
        R, eps = 1.54, 1.5e-8
        L = TWO_PI * R
        deficit = 6.0 * math.pi**2 * eps**2
        A = (L * L - (deficit - 1e-14)) / (4.0 * math.pi)
        assert L * L - 4.0 * math.pi * A < 0.3 * deficit
        s = series_of()
        s.extend(record(0.0, L=L, A=A, r_in=R - eps, r_out=R + eps))
        assert radii_violations(s) == []
        # an outradius 1e-6 too large still leaves the window and the gap
        s.extend(record(0.1, L=L, A=A, r_in=R - eps, r_out=R + 1e-6))
        msgs = radii_violations(s)
        assert len(msgs) == 2 and all(m.endswith("t=0.1") for m in msgs)

    def test_radii_off_gives_nothing(self, ellipse21):
        res = run(FlowLaw(FlowKind.LP, 1.0), ellipse21, t_end=0.02,
                  audits=("rates",))
        assert np.isnan(res.series.column("r_in")).all()
        assert radii_violations(res.series) == []


class TestRateAudit:
    @staticmethod
    def exp_series(h, n):
        # L = A = exp(t) with exact rate columns
        s = series_of(FlowKind.G1, 1.0)
        for j in range(n):
            t = j * h
            s.extend(
                record(
                    t, L=math.exp(t), A=math.exp(t),
                    dL_dt_formula=math.exp(t), dA_dt_formula=math.exp(t),
                )
            )
        return s

    def test_pairs_agree_to_fourth_order(self):
        s = self.exp_series(0.05, 9)
        fd, avg = rate_fd_pairs(s, "L")
        assert len(fd) == 7
        # both sides carry the same h^2/6 term; the residual is h^4/180
        diff = np.abs(fd - avg)
        assert diff.max() < 1e-7
        assert diff.max() > 1e-9
        assert rate_violations(s) == []

    def test_unequal_spacing_skipped(self):
        s = self.exp_series(0.05, 5)
        s.extend(record(0.33, L=math.exp(0.33), A=math.exp(0.33),
                        dL_dt_formula=math.exp(0.33), dA_dt_formula=math.exp(0.33)))
        fd, _ = rate_fd_pairs(s, "L")
        assert len(fd) == 3  # interior points flanked by equal steps only

    def test_corrupt_formula_flagged(self):
        columns = columns_of(self.exp_series(0.05, 9))
        columns["dL_dt_formula"][4] *= 1.01
        s = series_of(FlowKind.G1, 1.0)
        s.extend(columns)
        assert s.column("dL_dt_formula")[4] == pytest.approx(
            1.01 * math.exp(0.2), rel=1e-15
        )
        assert any("dL/dt" in msg for msg in rate_violations(s))
        assert not any("dA/dt" in msg for msg in rate_violations(s))

    def test_bad_quantity(self):
        with pytest.raises(AuditError, match="'L' or 'A'"):
            rate_fd_pairs(self.exp_series(0.1, 4), "I")


class TestDecayRate:
    def test_recovers_exponential_rate(self):
        s = series_of()
        for t in np.linspace(0.0, 3.0, 40):
            s.extend(record(t, k_min=1.0, k_max=1.0 + math.exp(-3.0 * t)))
        assert fit_decay_rate(s) == pytest.approx(-3.0, rel=1e-9)

    def test_uses_final_decade_only(self):
        # early plateau would bias the fit; the cutoff must exclude it
        s = series_of()
        for t in np.linspace(0.0, 1.0, 10):
            s.extend(record(t, k_min=1.0, k_max=2.0))
        for t in np.linspace(1.1, 4.0, 30):
            s.extend(record(t, k_min=1.0, k_max=1.0 + math.exp(-2.0 * (t - 1.0))))
        assert fit_decay_rate(s) == pytest.approx(-2.0, rel=1e-6)

    def test_degenerate_series(self):
        s = series_of()
        for t in (0.0, 0.1, 0.2):
            s.extend(record(t, k_min=1.0, k_max=1.0 + math.exp(-t)))
        assert math.isnan(fit_decay_rate(s))  # too few points
        s = series_of()
        for t in (0.0, 0.1, 0.2, 0.3, 0.4):
            s.extend(record(t, k_min=1.0, k_max=1.0))
        assert math.isnan(fit_decay_rate(s))  # gap identically zero
