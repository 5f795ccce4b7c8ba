"""Run-time functionals and inequality audits for the nonlocal flows.

Everything here is a pure function of a curvature profile plus, at most,
scalars the integrator accumulates (time, the running time integral of
the curvature-power quadrature). Each functional computes with
transforms and sums along the last axis of `CurvatureProfile.k`, so it
takes one profile, giving numpy scalars, or a (B, n) block, giving one
value per row; a row's value does not depend on the block it sits in.
A collector threads the per-sample results, a block at a time, into a
time-ordered series, one table with a row per column; the audit helpers
then re-check the recorded series as a whole: conservation, monotone
functionals, the support bound on Q, and finite-difference consistency
of the rate formulas.

Margins are oriented so that nonnegative means the inequality holds.
Every margin carries its own magnitude scale; equality cases (circles)
produce values and scales near zero, so the scale is floored by a
flow-level unit to keep round-off from being judged against round-off.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import CurvatureProfile
from .laws import FlowKind, FlowLaw, _float_power, integrals, nonlocal_lambda
from .laws import power, power_spectrum
from .spectral import (
    TWO_PI,
    _cell_bound,
    _interpolant_max,
    _mode_sums,
    _refined_max,
    _slopes,
    deriv_spectrum,
    deriv_values,
    integrate_values,
    interpolant_derivatives,
    resample_spectrum,
)

AUDIT_NAMES = ("rates", "radii", "tso", "psi", "phi", "entropy", "margins")
DEFAULT_BETAS = (0.0, 0.5, 1.0, 2.0, 3.0)

# slack for "nonnegative" margins and monotone sequences, relative to the
# quantity's own scale
MARGIN_RTOL = 1e-9
MONOTONE_RTOL = 1e-9
# absolute allowance for monotone diffs whose values pass through zero:
# a few ulps of an O(1) quadrature over a few hundred nodes
MONOTONE_ATOL = 5e-13
PSI_RTOL = 1e-6
TSO_RTOL = 1e-6
# drift of the conserved L (LP) or A (AP), relative to its initial value
CONSERVATION_RTOL = 1e-6
# mismatch of a rate formula with the finite difference of its column:
# relative to the formula's value, with an absolute floor near zero rates
RATE_RTOL = 1e-4
RATE_ATOL = 1e-10
# slack of the radii audit, relative to L / 2 pi, the radius of the
# circle of the same length
RADII_RTOL = 1e-8
# round-off of the recorded deficit L^2 - 4 pi A, relative to L^2: it
# reads up to 3.5 ulp off the cancellation-free mode sum on runs to
# convergence at 1e-7, and Bonnesen's square root would magnify that
# near a circle, so the audit raises the deficit by this much first
DEFICIT_RTOL = 32 * np.finfo(float).eps

# grid points per collected block: a block holds max(1, this // n)
# samples, so each (rows, n) float64 array of a block is 32 KB whatever n
# is (32 rows at n=128, 8 at n=512)
_BLOCK_POINTS = 1 << 12


class AuditError(ValueError):
    pass


@dataclass(frozen=True)
class Margin:
    """One audited inequality: value = large side - small side.

    For a block of profiles, value and scale hold one entry per row, and
    so does `ok()`. A NaN value, as when k^alpha overflows, is not
    judged: it is not checked rather than failed.
    """

    value: float
    scale: float

    def ok(self):
        return np.logical_not(self.value < -MARGIN_RTOL * self.scale)


@dataclass(frozen=True)
class TsoContext:
    """Frozen constants for the support-quotient bound.

    beta is the support offset in Q = k^alpha/(u - beta), sigma the
    Bonnesen eccentricity of the initial curve, T1 the horizon on which
    the bound is asserted, Q0 its plateau value.
    """

    alpha: float
    beta: float
    sigma: float
    T1: float
    Q0: float

    @classmethod
    def from_initial(cls, kp: CurvatureProfile, alpha: float) -> "TsoContext":
        A0 = geometry.area(kp)
        I0 = geometry.isoperimetric_ratio(kp)
        sigma = geometry.bonnesen_sigma(I0)
        root = math.sqrt(A0 / math.pi) / sigma
        beta = 0.5 ** ((2.0 + alpha) / (1.0 + alpha)) * root
        T1 = _float_power(root, 1.0 + alpha) / (2.0 + 2.0 * alpha)
        # a denominator that underflows to 0 stands for a Q0 past the range
        scaled = alpha * beta ** (1.0 + 1.0 / alpha)
        ratio = math.inf if scaled == 0.0 else 2.0 * (alpha + 1.0) / scaled
        Q0 = _float_power(ratio, alpha)
        return cls(alpha=alpha, beta=beta, sigma=sigma, T1=T1, Q0=Q0)

    def bound_at(self, t: float) -> float:
        """max(Q0, 1/((alpha+1) t)); only meaningful for 0 < t <= T1."""
        if t <= 0.0:
            return math.inf
        return max(self.Q0, 1.0 / ((self.alpha + 1.0) * t))


# the scalar columns of a series, in CSV order; Q_ok is stored as 0.0 or 1.0
COLUMNS = (
    "t", "L", "A", "I", "k_min", "k_max", "lambda", "closure_defect", "r_in",
    "r_out", "dA_dt_formula", "dL_dt_formula", "Q_max", "Q_ok", "Psi_max",
    "Phi_max", "entropy", "oscillation",
)


def _require_after(t_prev: float, t: float) -> None:
    if t <= t_prev:
        raise AuditError(
            f"sample times must increase: got t={t!r} after t={t_prev!r}"
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


class DiagnosticsSeries:
    """Time-ordered samples of one run, stored by column.

    One float64 table that grows by doubling holds a row per name of
    COLUMNS, then, for the margins in name order, one row of values each
    ("margin_<name>") and one row of scales each; the first `extend`
    fixes the margin names. `column` and `margin_table` read the table
    without copying it.
    """

    def __init__(self, law: FlowLaw, tso: TsoContext | None):
        self.law = law
        self.tso = tso
        self._n = 0
        self._table = np.empty((len(COLUMNS), 0))
        self._rows = {name: i for i, name in enumerate(COLUMNS)}
        self._margin_names: tuple[str, ...] | None = None

    def extend(
        self,
        columns: Mapping[str, object],
        margins: Mapping[str, Margin] = {},
    ) -> None:
        """Append samples: `columns` maps every name of COLUMNS to a scalar
        or to one value per sample, `margins` names to Margins of the same
        shape."""
        names = tuple(sorted(margins))
        if self._margin_names is not None and names != self._margin_names:
            raise AuditError(
                f"margin names {list(names)} differ from the series' "
                f"{list(self._margin_names)}"
            )
        rows = [columns[name] for name in COLUMNS]
        rows += [margins[name].value for name in names]
        rows += [margins[name].scale for name in names]
        block = np.array(np.broadcast_arrays(*rows), dtype=float)
        block = block.reshape(len(rows), -1)
        times = np.concatenate([self._table[0, self._n - 1 : self._n], block[0]])
        bad = np.flatnonzero(times[1:] <= times[:-1])
        if bad.size:
            _require_after(float(times[bad[0]]), float(times[bad[0] + 1]))
        if self._margin_names is None:
            self._margin_names = names
            self._rows.update(
                ("margin_" + name, len(COLUMNS) + i) for i, name in enumerate(names)
            )
            self._table = np.empty((len(rows), 0))
        n, end = self._n, self._n + block.shape[1]
        if end > self._table.shape[1]:
            self._resize(max(end, 2 * self._table.shape[1], 16))
        self._table[:, n:end] = block
        self._n = end

    def _resize(self, capacity: int) -> None:
        table = np.empty((self._table.shape[0], capacity))
        table[:, : self._n] = self._table[:, : self._n]
        self._table = table

    def _trim(self) -> None:
        """Release the capacity beyond the last sample."""
        if self._table.shape[1] > self._n:
            self._resize(self._n)

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """One scalar per sample (read-only); margin columns via
        'margin_<name>', all NaN for a margin the series does not hold."""
        if name in self._rows:
            return _read_only(self._table[self._rows[name], : self._n])
        if name.startswith("margin_"):
            return np.full(self._n, math.nan)
        raise AttributeError(f"no series column {name!r}")

    def margin_table(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """(names, values, scales), sorted by name, one row per margin
        (read-only)."""
        names = self.margin_names
        rows = _read_only(self._table[len(COLUMNS) :, : self._n])
        return names, rows[: len(names)], rows[len(names) :]

    @property
    def margin_names(self) -> tuple[str, ...]:
        return self._margin_names or ()

    def column_names(self) -> tuple[str, ...]:
        return COLUMNS + tuple("margin_" + m for m in self.margin_names)


def to_csv(series: DiagnosticsSeries) -> str:
    """Render the series as CSV, one row per sample, 17 significant digits."""
    names = series.column_names()
    columns = [series.column(name).tolist() for name in names]
    lines = [",".join(names)]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def oscillation(kp: CurvatureProfile):
    """(k_max - k_min)/k_mean, the convergence metric."""
    k = kp.k
    return (k.max(axis=-1) - k.min(axis=-1)) / k.mean(axis=-1)


def rate_formulas(law: FlowLaw, kp: CurvatureProfile):
    """Instantaneous (dA_dt, dL_dt) = (lambda L - qw, 2 pi lambda - q),
    q and qw the integrals of k^alpha and k^alpha/k (`laws.integrals`).

    LP pins dL_dt to literally 0.0 and AP pins dA_dt to 0.0; those are
    the conserved quantities, and reporting the algebraic zero keeps the
    conservation audit independent of this function.
    """
    _, q, qw, L, A = integrals(kp, law.alpha)
    lam = nonlocal_lambda(law.kind, q, qw, L, A)
    dA_dt, dL_dt = lam * L - qw, TWO_PI * lam - q
    if law.kind is FlowKind.LP:
        dL_dt = np.zeros_like(q)[()]
    elif law.kind is FlowKind.AP:
        dA_dt = np.zeros_like(q)[()]
    return dA_dt, dL_dt


def tso_quantity(kp: CurvatureProfile, ctx: TsoContext):
    """(Q_max, precondition_ok) for Q = k^alpha/(u - beta).

    Q_max is NaN when u dips to beta or below (the quotient loses
    meaning); precondition_ok reports the stronger condition min u >= 2
    beta under which the a-priori bound is proved. Both extrema are those
    of the trigonometric interpolants of k^alpha and u, exact to
    round-off (`_refined_max`), so the value does not depend on where the
    grid happens to land. k^alpha, u and their rffts are those kept on
    the profile; one profile must be closed, a block is read unchecked.
    """
    shape = kp.k.shape[:-1]
    n = kp.grid.n
    beta = ctx.beta
    v, V = np.atleast_2d(*power_spectrum(kp, ctx.alpha))
    u, _, U = kp.support
    u, U = np.atleast_2d(u, U)
    slopes = _slopes(np.stack([V, U]), n)
    dv, du = slopes[:, 0], slopes[:, 1]
    u_min = -_interpolant_max(-u, -U, (-du[0], -du[1]))[0]
    crossed = u_min <= beta
    ok = (u_min >= 2.0 * beta) & ~crossed

    VU = np.stack([V, U], 1)

    def derivs(rows, theta):
        # Q and its derivatives from v = Q (u - beta) by the product rule
        (v0, u0), (v1, u1), (v2, u2), (v3, u3) = interpolant_derivatives(
            VU, theta, rows
        ).transpose(0, 2, 1)
        u0 -= beta
        q0 = v0 / u0
        q1 = (v1 - q0 * u1) / u0
        q2 = (v2 - 2.0 * q1 * u1 - q0 * u2) / u0
        q3 = (v3 - 3.0 * (q2 * u1 + q1 * u2) - q0 * u3) / u0
        return q0, q1, q2, q3

    with np.errstate(divide="ignore", invalid="ignore"):
        q = v / (u - beta)
        # Q > T where v - T (u - beta) > 0 as long as u > beta, which holds
        # unless the row is crossed (and reads NaN); over the largest
        # u - beta, that polynomial is on the scale of Q - T
        T, scale = q.max(-1)[:, None], u.max(-1)[:, None] - beta
        excess = _cell_bound(
            *[(a - T * b) / scale
              for a, b in ((v, u - beta), (dv[0], du[0]), (dv[1], du[1]))],
            _mode_sums(V - T * U, 3) / scale[:, 0],
        )
        excess[crossed] = -np.inf
        q1 = (dv[0] - q * du[0]) / (u - beta)
        q2 = (dv[1] - 2.0 * q1 * du[0] - q * du[1]) / (u - beta)
        del slopes, dv, du
        q_max = _refined_max(q, (q1, q2), excess, derivs)[0]
    q_max = np.where(crossed, math.nan, q_max)
    return q_max.reshape(shape)[()], ok.reshape(shape)[()]


@np.errstate(over="ignore", invalid="ignore")
def gradient_functional(kp: CurvatureProfile, alpha: float):
    """max of k^(2 alpha) + ((k^alpha)')^2, grid-independent.

    The maximizer generally falls between nodes. The square sum of the
    trigonometric interpolants of k^alpha and of its derivative has
    degree n, so its 2n samples give its exact spectrum, and its maximum
    is that interpolant's, exact to round-off (`_refined_max`); the rfft
    of k^alpha is the one kept on the profile (`laws.power_spectrum`).
    On a steep start the square overflows, and the maximum reads inf or
    NaN without a warning.
    """
    shape = kp.k.shape[:-1]
    n = kp.grid.n
    V = np.atleast_2d(power_spectrum(kp, alpha)[1])
    square = resample_spectrum(deriv_spectrum(V, 1), n, 2 * n)
    square *= square
    square += resample_spectrum(V, n, 2 * n) ** 2
    nodes = square[:, ::2].copy()
    coef = np.fft.rfft(square)
    del square
    return _interpolant_max(nodes, coef)[0].reshape(shape)[()]


def lower_bound_functional(s_accum, kp: CurvatureProfile):
    """max of 1/k - L/(2 pi) - s_accum/(2 pi).

    s_accum is the integrator's running time integral of the curvature
    power quadrature (for a block, one per row, NaN where there is
    none); None (no accumulator available) yields NaN, which the
    monotonicity audit does not check. The max of 1/k is that of its
    trigonometric interpolant, exact to round-off (`_refined_max`).
    """
    shape = kp.k.shape[:-1]
    if s_accum is None:
        return np.full(shape, math.nan)[()]
    w_max = _interpolant_max(*np.atleast_2d(kp.w, kp.W))[0].reshape(shape)[()]
    return w_max - (geometry.length(kp) + s_accum) / TWO_PI


def entropy_direction(law: FlowLaw) -> int | None:
    """Expected monotone direction of entropy() along the flow."""
    if law.kind is FlowKind.LP:
        if law.alpha == 1.0:
            return 0
        return 1 if law.alpha < 1.0 else -1
    if law.kind is FlowKind.AP:
        return 1 if law.alpha < 1.0 else -1
    return None


def entropy(law: FlowLaw, kp: CurvatureProfile):
    """The law-and-alpha-appropriate entropy integral.

    LP tracks the curvature-power integral of order alpha-1 (constant 2
    pi when alpha = 1, recorded but exempt from monotonicity); AP weights
    it by L^(alpha-1), except alpha = 1 where the logarithmic integral of
    k L takes over. The remaining laws record the LP integrand with no
    monotonicity claim attached; `entropy_direction` gives the claim.
    The integrals are those of `laws.integrals`.
    """
    _, _, base, L, _ = integrals(kp, law.alpha)
    if law.kind is FlowKind.AP:
        if law.alpha == 1.0:
            base = integrate_values(np.log(kp.k * np.expand_dims(L, -1)))
        else:
            # the ufunc, as for a block: a scalar ** may differ in the last bit
            base = np.power(L, law.alpha - 1.0) * base
    return base


def _named_phi_margins(
    name: str,
    phi: np.ndarray,
    w: np.ndarray,
    A: np.ndarray,
    unit: np.ndarray,
    out: dict[str, Margin],
) -> None:
    # both inequalities share the core integral of phi (phi'' + phi)
    core = integrate_values(phi * (deriv_values(phi, 2) + phi))
    lhs1 = integrate_values(phi) ** 2
    out[f"mink1_{name}"] = Margin(
        lhs1 - TWO_PI * core,
        np.maximum(np.maximum(abs(lhs1), abs(TWO_PI * core)), TWO_PI * unit),
    )
    lhs2 = integrate_values(phi * w) ** 2
    out[f"mink2_{name}"] = Margin(
        lhs2 - 2.0 * A * core,
        np.maximum(np.maximum(abs(lhs2), abs(2.0 * A * core)), 2.0 * A * unit),
    )


@np.errstate(over="ignore", invalid="ignore")
def inequality_audit(kp: CurvatureProfile, alpha: float = 1.0) -> dict[str, Margin]:
    """Every audited inequality as named margins (large - small side).

    Exponent-family margins run over DEFAULT_BETAS. The quadratic
    test-function margins take the two flow speeds (curvature power
    minus the length- resp. area-stabilizing nonlocal term), for which
    one side vanishes identically. Margins comparing the four nonlocal
    terms appear only for alpha >= 1, their domain of validity. For a
    block, each Margin holds one value and scale per row. A margin that
    overflows reads inf or NaN, without a warning, and a NaN margin is
    not checked.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise AuditError(f"alpha must be finite and positive, got {alpha}")
    k = kp.k
    w = kp.w
    v, iv, ivw, L, A = integrals(kp, alpha)
    lam_lp, lam_ap, lam_g1, lam_g2 = (
        nonlocal_lambda(kind, iv, ivw, L, A)
        for kind in (FlowKind.LP, FlowKind.AP, FlowKind.G1, FlowKind.G2)
    )
    lam_scale = np.maximum(abs(lam_lp), abs(lam_ap))

    margins: dict[str, Margin] = {}
    margins["holder"] = Margin(lam_lp - lam_ap, lam_scale)

    # every exponent at once, on a leading axis: (betas, n) or (betas, rows, n)
    kb = power(w, np.reshape(DEFAULT_BETAS, (-1,) + (1,) * k.ndim))
    int_kb = integrate_values(kb)
    large = (L / TWO_PI) * int_kb
    small = integrate_values(kb * w)
    ineq11 = large - small, np.maximum(large, small)
    large = (2.0 * A / L) * integrate_values(kb * k)
    ineq22 = large - int_kb, np.maximum(large, int_kb)
    for j, b in enumerate(DEFAULT_BETAS):
        margins[f"ineq11_b{b:g}"] = Margin(ineq11[0][j], ineq11[1][j])
        margins[f"ineq22_b{b:g}"] = Margin(ineq22[0][j], ineq22[1][j])

    # classical isoperimetric-type bound on the total turning
    gage_large = (2.0 * A / L) * integrate_values(k)
    margins["gage"] = Margin(gage_large - TWO_PI, np.maximum(gage_large, TWO_PI))

    if alpha >= 1.0:
        margins["gage1_lower"] = Margin(lam_g1 - lam_ap, lam_scale)
        margins["gage1_upper"] = Margin(lam_lp - lam_g1, lam_scale)
        margins["gage2_lower"] = Margin(lam_g2 - lam_ap, lam_scale)
        margins["gage2_upper"] = Margin(lam_lp - lam_g2, lam_scale)

    unit = lam_scale * lam_scale
    _named_phi_margins("lp", v - np.expand_dims(lam_lp, -1), w, A, unit, margins)
    _named_phi_margins("ap", v - np.expand_dims(lam_ap, -1), w, A, unit, margins)

    andrews_large = L * iv
    andrews_small = TWO_PI * ivw
    margins["andrews"] = Margin(
        andrews_large - andrews_small, np.maximum(andrews_large, andrews_small)
    )
    return margins


def failed_margins(margins: Mapping[str, Margin]) -> list[str]:
    return [name for name, m in sorted(margins.items()) if not m.ok()]


def check_audits(audits: Sequence[str]) -> None:
    """Each name in `audits` must be one of AUDIT_NAMES."""
    unknown = sorted(set(audits) - set(AUDIT_NAMES))
    if unknown:
        raise AuditError(
            f"unknown audit name(s) {', '.join(unknown)}; "
            f"expected among {', '.join(AUDIT_NAMES)}"
        )


class DiagnosticsCollector:
    """Accumulates a DiagnosticsSeries sample by sample during a run.

    `audits` selects which diagnostics are computed; disabled ones record
    NaN columns. Samples are computed in blocks: `collect(..., defer=True)`
    queues a sample, and the queue is computed as one `CurvatureProfile`
    block, its k in (B, n) rows, once it holds
    `max(1, _BLOCK_POINTS // n)` samples, or at the next call without
    `defer`, which also releases the series' spare capacity. Each block
    enters the series in one `DiagnosticsSeries.extend`. The block size
    keeps each (rows, n) array at 32 KB; the pointwise extrema evaluate
    their interpolants only at the Newton points of the cells that can
    hold a maximum (`_refined_max`).

    The block is its audits' context: each functional reads what the
    `CurvatureProfile` keeps, formed by the first that asks for it, so a
    block's support function (reconstruction and centroid) and its rfft,
    k^alpha and its rfft, and the integrals q, qw, L and A are each
    formed once. None is checked for closure, so a run that drifts open
    is recorded (closure_defect) rather than stopped.
    The radii of a block are solved in one `geometry.inradius_outradius`
    call, every row from the contacts of the inscribed and circumscribed
    circles of the last sample certified before the block, which the
    collector carries; it is one run's state, so each run needs its own
    collector.
    """

    def __init__(
        self,
        law: FlowLaw,
        kp0: CurvatureProfile,
        audits: Sequence[str] = AUDIT_NAMES,
    ):
        check_audits(audits)
        self.law = law
        self.audits = frozenset(audits)
        tso = TsoContext.from_initial(kp0, law.alpha) if "tso" in self.audits else None
        self.series = DiagnosticsSeries(law, tso)
        self.block_rows = max(1, _BLOCK_POINTS // kp0.grid.n)
        self._queue: list[tuple[float, CurvatureProfile, float | None]] = []
        self._circles: tuple[geometry.TouchingCircle, ...] | None = None

    def collect(
        self,
        t: float,
        kp: CurvatureProfile,
        s_accum: float | None = None,
        *,
        defer: bool = False,
    ) -> None:
        """Record the sample at t: at once, or with `defer` queued for its
        block."""
        if self._queue:
            _require_after(self._queue[-1][0], t)
        elif len(self.series):
            _require_after(float(self.series.column("t")[-1]), t)
        self._queue.append((t, kp, s_accum))
        if defer and len(self._queue) < self.block_rows:
            return
        queue, self._queue = self._queue, []
        self._compute(queue)
        if not defer:
            self.series._trim()

    def _radii(self, block: CurvatureProfile) -> np.ndarray:
        """(r_in, r_out) rows of a block, NaN where no certificate was
        found. The block's last certified pair, if it has one, starts the
        next block; the other rows' circles are freed on return, before
        the rest of the block is computed."""
        pairs = geometry.inradius_outradius(block, start=self._circles)
        radii = np.array([[circle.radius for circle in pair] for pair in pairs])
        certified = np.flatnonzero(~np.isnan(radii).any(axis=-1))
        if certified.size:
            self._circles = pairs[certified[-1]]
        return radii.T

    def _compute(self, queue: list[tuple[float, CurvatureProfile, float | None]]):
        law, tso, audits = self.law, self.series.tso, self.audits
        times, profiles, accums = zip(*queue)
        block = CurvatureProfile(profiles[0].grid, np.stack([kp.k for kp in profiles]))
        nan = np.full(len(queue), math.nan)
        s_accum = np.array([math.nan if s is None else s for s in accums])
        _, q, qw, L, A = integrals(block, law.alpha)
        r_in, r_out = self._radii(block) if "radii" in audits else (nan, nan)
        dA_dt, dL_dt = rate_formulas(law, block) if "rates" in audits else (nan, nan)
        q_max, q_ok = tso_quantity(block, tso) if tso else (nan, np.zeros_like(nan))
        psi = gradient_functional(block, law.alpha) if "psi" in audits else nan
        phi = lower_bound_functional(s_accum, block) if "phi" in audits else nan
        ent = entropy(law, block) if "entropy" in audits else nan
        margins = inequality_audit(block, law.alpha) if "margins" in audits else {}

        k = block.k
        columns = {
            "t": times,
            "L": L,
            "A": A,
            "I": L * L / (2.0 * TWO_PI * A),
            "k_min": k.min(axis=-1),
            "k_max": k.max(axis=-1),
            "lambda": nonlocal_lambda(law.kind, q, qw, L, A),
            "closure_defect": geometry.closure_defect(block),
            "r_in": r_in,
            "r_out": r_out,
            "dA_dt_formula": dA_dt,
            "dL_dt_formula": dL_dt,
            "Q_max": q_max,
            "Q_ok": q_ok,
            "Psi_max": psi,
            "Phi_max": phi,
            "entropy": ent,
            "oscillation": oscillation(block),
        }
        self.series.extend(columns, margins)


# ---------------------------------------------------------------------------
# series-level audits


def _mono_violations(
    t: np.ndarray,
    q: np.ndarray,
    direction: int,
    label: str,
) -> list[str]:
    a, b = q[:-1], q[1:]
    slack = MONOTONE_RTOL * np.maximum(abs(a), abs(b)) + MONOTONE_ATOL
    drift = (b - a) if direction < 0 else (a - b)
    return [
        f"{label} moved {'up' if direction < 0 else 'down'} by "
        f"{drift[j]:.3e} at t={t[j + 1]:.6g} (allowed {slack[j]:.3e})"
        for j in np.flatnonzero(drift > slack)
    ]


def monotonicity_violations(series: DiagnosticsSeries) -> list[str]:
    """Per-sample monotonicity checks appropriate to the series' law. A
    NaN sample, as in the column of an audit that is switched off, is not
    checked."""
    law = series.law
    t = series.column("t")
    out: list[str] = []
    if law.kind is not FlowKind.CONTRACTION:
        out += _mono_violations(t, series.column("I"), -1, "isoperimetric ratio")
    if law.kind in (FlowKind.G1, FlowKind.G2):
        out += _mono_violations(t, series.column("L"), -1, "length")
        out += _mono_violations(t, series.column("A"), +1, "area")
    direction = entropy_direction(law)
    if direction:
        out += _mono_violations(t, series.column("entropy"), direction, "entropy")
    out += _mono_violations(t, series.column("Phi_max"), -1, "Phi_max")
    return out


def psi_violations(series: DiagnosticsSeries) -> list[str]:
    """Running max of Psi must not exceed max(Psi(0), running max of v^2)."""
    alpha = series.law.alpha
    out: list[str] = []
    if not len(series):
        return out
    t, psi, k_max = (series.column(name).tolist() for name in ("t", "Psi_max", "k_max"))
    psi0 = psi[0]
    if math.isnan(psi0):
        return out
    run_psi = -math.inf
    run_v2 = -math.inf
    for tj, psi_j, k_j in zip(t, psi, k_max):
        run_v2 = max(run_v2, _float_power(k_j, 2.0 * alpha))
        run_psi = max(run_psi, psi_j)
        bound = max(psi0, run_v2) * (1.0 + PSI_RTOL)
        if run_psi > bound:
            out.append(
                f"Psi running max {run_psi:.12e} exceeds bound {bound:.12e} "
                f"at t={tj:.6g}"
            )
    return out


def tso_violations(series: DiagnosticsSeries) -> list[str]:
    """Q_max against its a-priori bound, asserted only where proved.

    The bound applies to the two conserving laws, on 0 < t <= T1, and
    only while the support stays two offsets above the origin shift.
    """
    ctx = series.tso
    out: list[str] = []
    if ctx is None or series.law.kind not in (FlowKind.LP, FlowKind.AP):
        return out
    columns = (series.column(name).tolist() for name in ("t", "Q_ok", "Q_max"))
    for t, q_ok, q_max in zip(*columns):
        if not (0.0 < t <= ctx.T1) or not q_ok or math.isnan(q_max):
            continue
        bound = ctx.bound_at(t) * (1.0 + TSO_RTOL)
        if q_max > bound:
            out.append(f"Q_max {q_max:.12e} exceeds bound {bound:.12e} at t={t:.6g}")
    return out


def margin_violations(series: DiagnosticsSeries) -> list[str]:
    names, values, scales = series.margin_table()
    t = series.column("t")
    failed = ~Margin(values, scales).ok()
    return [
        f"margin {names[i]} = {values[i, j]:.3e} below -{MARGIN_RTOL:.0e}*scale "
        f"(scale {scales[i, j]:.3e}) at sample {j}, t={t[j]:.6g}"
        for j, i in zip(*np.nonzero(failed.T))
    ]


def conservation_violations(series: DiagnosticsSeries) -> list[str]:
    """LP must hold L, AP must hold A, to CONSERVATION_RTOL relative."""
    law = series.law
    out: list[str] = []
    if not len(series):
        return out
    if law.kind is FlowKind.LP:
        name, col = "L", series.column("L")
    elif law.kind is FlowKind.AP:
        name, col = "A", series.column("A")
    else:
        return out
    ref = col[0]
    drift = np.abs(col - ref) / abs(ref)
    worst = int(drift.argmax())
    if drift[worst] > CONSERVATION_RTOL:
        out.append(
            f"{name} drifted {drift[worst]:.3e} relative at "
            f"t={series.column('t')[worst]:.6g} (allowed {CONSERVATION_RTOL:.0e})"
        )
    return out


def closure_violations(series: DiagnosticsSeries) -> list[str]:
    """Every recorded closure defect within geometry.CLOSURE_RTOL * L(0)."""
    out: list[str] = []
    if not len(series):
        return out
    limit = geometry.CLOSURE_RTOL * series.column("L")[0]
    defect = series.column("closure_defect")
    t = series.column("t")
    return [
        f"closure defect {defect[j]:.3e} exceeds "
        f"{geometry.CLOSURE_RTOL:.0e}*L(0) = {limit:.3e} at t={t[j]:.6g}"
        for j in np.flatnonzero(defect > limit)
    ]


def rate_fd_pairs(
    series: DiagnosticsSeries, quantity: str
) -> tuple[np.ndarray, np.ndarray]:
    """Centered differences vs window-averaged formula values.

    quantity is "L" or "A". For each interior sample with equal spacing
    on both sides, pairs the centered difference of the recorded column
    with the Simpson average (f[j-1] + 4 f[j] + f[j+1])/6 of the recorded
    rate formula; both approximate the midpoint rate to fourth order, so
    their mismatch isolates recording errors rather than sampling error.
    """
    if quantity not in ("L", "A"):
        raise AuditError(f"quantity must be 'L' or 'A', got {quantity!r}")
    t = series.column("t")
    col = series.column(quantity)
    f = series.column("dL_dt_formula" if quantity == "L" else "dA_dt_formula")
    h0 = t[1:-1] - t[:-2]
    h1 = t[2:] - t[1:-1]
    equal = ~(abs(h1 - h0) > 1e-9 * np.maximum(h0, h1))
    fd = (col[2:] - col[:-2]) / (h0 + h1)
    avg = (f[:-2] + 4.0 * f[1:-1] + f[2:]) / 6.0
    return fd[equal], avg[equal]


def rate_violations(series: DiagnosticsSeries) -> list[str]:
    out: list[str] = []
    for quantity in ("A", "L"):
        fd, avg = rate_fd_pairs(series, quantity)
        beyond = abs(fd - avg) > np.maximum(RATE_RTOL * abs(avg), RATE_ATOL)
        out += [
            f"d{quantity}/dt finite difference {x:.12e} vs formula "
            f"{y:.12e} beyond max({RATE_RTOL:.0e} rel, {RATE_ATOL:.0e} abs)"
            for x, y in zip(fd[beyond], avg[beyond])
        ]
    return out


def bonnesen_window(L, A):
    """(lo, hi) = (L -+ sqrt(L^2 - 4 pi A)) / 2 pi: Bonnesen's bounds on
    the inradius (lo <= r_in) and the outradius (r_out <= hi), for
    floats or arrays of L and A."""
    s = np.sqrt(np.maximum(L * L - 4.0 * math.pi * A, 0.0))
    return (L - s) / TWO_PI, (L + s) / TWO_PI


def radii_violations(series: DiagnosticsSeries) -> list[str]:
    """The recorded radii against Bonnesen's bounds, sample by sample.

    Both radii must lie in `bonnesen_window(L, A)`, and
    pi^2 (r_out - r_in)^2 <= L^2 - 4 pi A must hold, each within
    RADII_RTOL * L / 2 pi once the deficit L^2 - 4 pi A is raised by
    DEFICIT_RTOL * L^2, its round-off; so the square roots are of at
    least that round-off and do not magnify it. Samples without radii
    (NaN) are not checked.
    """
    t, L, A, r_in, r_out = (
        series.column(name) for name in ("t", "L", "A", "r_in", "r_out")
    )
    # lowering A by d / 4 pi raises the deficit by d
    lo, hi = bonnesen_window(L, A - DEFICIT_RTOL * L * L / (4.0 * math.pi))
    spread = hi - lo  # sqrt(L^2 - 4 pi A + d) / pi
    slack = RADII_RTOL * L / TWO_PI
    out: list[str] = []
    for j in np.flatnonzero(r_in < lo - slack):
        out.append(
            f"r_in {r_in[j]:.12e} below the Bonnesen window's {lo[j]:.12e} "
            f"at t={t[j]:.6g}"
        )
    for j in np.flatnonzero(r_out > hi + slack):
        out.append(
            f"r_out {r_out[j]:.12e} above the Bonnesen window's {hi[j]:.12e} "
            f"at t={t[j]:.6g}"
        )
    for j in np.flatnonzero(r_out - r_in > spread + slack):
        out.append(
            f"r_out - r_in = {r_out[j] - r_in[j]:.12e} exceeds Bonnesen's "
            f"sqrt(L^2 - 4 pi A)/pi = {spread[j]:.12e} at t={t[j]:.6g}"
        )
    return out


def audit_series(series: DiagnosticsSeries) -> list[str]:
    """All applicable post-run checks; empty list means a clean run."""
    out: list[str] = []
    out += conservation_violations(series)
    out += closure_violations(series)
    out += monotonicity_violations(series)
    out += psi_violations(series)
    out += tso_violations(series)
    out += margin_violations(series)
    out += radii_violations(series)
    out += rate_violations(series)
    return out


def fit_decay_rate(series: DiagnosticsSeries) -> float:
    """Exponential rate of k_max - k_min over its final decade.

    Least-squares slope of log(k_max - k_min) against t, restricted to
    the contiguous tail where the gap is within 10x of its final value.
    NaN when fewer than four usable samples exist.
    """
    t = series.column("t")
    gap = series.column("k_max") - series.column("k_min")
    if len(gap) == 0 or gap[-1] <= 0.0:
        return math.nan
    cutoff = 10.0 * gap[-1]
    j = len(gap) - 1
    while j >= 0 and 0.0 < gap[j] <= cutoff:
        j -= 1
    lo = j + 1
    if len(gap) - lo < 4:
        return math.nan
    slope = np.polyfit(t[lo:], np.log(gap[lo:]), 1)[0]
    return float(slope)
