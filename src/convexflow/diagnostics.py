"""Run-time functionals and inequality audits for the nonlocal flows.

Everything here is a pure function of a curvature profile plus, at most,
scalars the integrator accumulates (time, the running time integral of
the curvature-power quadrature). A collector threads the per-sample
results into a time-ordered series; the audit helpers then re-check the
recorded series as a whole: conservation, monotone functionals, the
support bound on Q, and finite-difference consistency of the rate
formulas.

Margins are oriented so that nonnegative means the inequality holds.
Every margin carries its own magnitude scale; equality cases (circles)
produce values and scales near zero, so the scale is floored by a
flow-level unit to keep round-off from being judged against round-off.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import geometry
from .geometry import CurvatureProfile
from .laws import FlowKind, FlowLaw, lambda_value, nonlocal_lambda, power
from .spectral import (
    TWO_PI,
    deriv_values,
    integrate_values,
    refined_extremum_values,
    resample_values,
)

AUDIT_NAMES = ("rates", "radii", "tso", "psi", "phi", "entropy", "margins")
DEFAULT_BETAS = (0.0, 0.5, 1.0, 2.0, 3.0)

# default slack for "nonnegative" margins and monotone sequences, relative
# to the quantity's own scale
MARGIN_RTOL = 1e-9
MONOTONE_RTOL = 1e-9
# absolute allowance for monotone diffs whose values pass through zero:
# a few ulps of an O(1) quadrature over a few hundred nodes
MONOTONE_ATOL = 5e-13
PSI_RTOL = 1e-6
TSO_RTOL = 1e-6

# resample factor for the pointwise-extremum functionals; 32x keeps the
# parabolic-vertex residual below 1e-8 relative even for the sharp
# asymmetric peaks that k^3-type speeds develop
_DENSE_FACTOR = 32


class AuditError(ValueError):
    pass


@dataclass(frozen=True)
class Margin:
    """One audited inequality: value = large side - small side."""

    value: float
    scale: float

    def ok(self, rtol: float = MARGIN_RTOL) -> bool:
        return self.value >= -rtol * self.scale


@lru_cache(maxsize=16)
def _margin_index(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


class _MarginTable(Mapping):
    """One sample's margins as the series keeps them: the name index is
    shared by every sample with the same names, and the (value, scale)
    pairs sit in one array of doubles, about a tenth of the memory of a
    dict of Margin objects. Reading a name returns its Margin."""

    __slots__ = ("_index", "_pairs")

    def __init__(self, margins: Mapping[str, Margin]):
        self._index = _margin_index(tuple(margins))
        self._pairs = array("d")
        for m in margins.values():
            self._pairs.append(m.value)
            self._pairs.append(m.scale)

    def __getitem__(self, name: str) -> Margin:
        i = 2 * self._index[name]
        return Margin(self._pairs[i], self._pairs[i + 1])

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


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
        T1 = root ** (1.0 + alpha) / (2.0 + 2.0 * alpha)
        Q0 = (2.0 * (alpha + 1.0) / (alpha * beta ** (1.0 + 1.0 / alpha))) ** alpha
        return cls(alpha=alpha, beta=beta, sigma=sigma, T1=T1, Q0=Q0)

    def bound_at(self, t: float) -> float:
        """max(Q0, 1/((alpha+1) t)); only meaningful for 0 < t <= T1."""
        if t <= 0.0:
            return math.inf
        return max(self.Q0, 1.0 / ((self.alpha + 1.0) * t))


@dataclass(frozen=True)
class SampleRecord:
    """Scalars recorded at one sample time."""

    t: float
    L: float
    A: float
    I: float
    k_min: float
    k_max: float
    lam: float
    closure_defect: float
    r_in: float
    r_out: float
    dA_dt_formula: float
    dL_dt_formula: float
    Q_max: float
    Q_ok: bool
    Psi_max: float
    Phi_max: float
    entropy: float
    oscillation: float
    margins: Mapping[str, Margin] = field(default_factory=dict)


# the scalar fields in CSV column order; `lam` is written as "lambda"
_RECORD_FIELDS = tuple(f.name for f in fields(SampleRecord) if f.name != "margins")
_CSV_FIELDS = tuple("lambda" if f == "lam" else f for f in _RECORD_FIELDS)


class DiagnosticsSeries:
    """Time-ordered sample records for one run."""

    def __init__(self, law: FlowLaw, tso: TsoContext | None, phi_enabled: bool):
        self.law = law
        self.tso = tso
        self.phi_enabled = phi_enabled
        self.samples: list[SampleRecord] = []

    def append(self, record: SampleRecord) -> None:
        if self.samples and record.t <= self.samples[-1].t:
            raise AuditError(
                f"sample times must increase: got t={record.t!r} after "
                f"t={self.samples[-1].t!r}"
            )
        self.samples.append(record)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[SampleRecord]:
        return iter(self.samples)

    def __getitem__(self, idx):
        return self.samples[idx]

    def column(self, name: str) -> np.ndarray:
        """One scalar per sample; margin columns via 'margin_<name>'."""
        if name.startswith("margin_"):
            key = name[len("margin_"):]
            return np.array(
                [s.margins[key].value if key in s.margins else math.nan
                 for s in self.samples]
            )
        attr = "lam" if name == "lambda" else name
        return np.array([float(getattr(s, attr)) for s in self.samples])

    @property
    def margin_names(self) -> tuple[str, ...]:
        names: set[str] = set()
        for s in self.samples:
            names.update(s.margins)
        return tuple(sorted(names))

    def column_names(self) -> tuple[str, ...]:
        return _CSV_FIELDS + tuple("margin_" + m for m in self.margin_names)


def to_csv(series: DiagnosticsSeries) -> str:
    """Render the series as CSV, one row per sample, 17 significant digits."""
    names = series.column_names()
    lines = [",".join(names)]
    margins = series.margin_names
    for s in series:
        row = [float(getattr(s, f)) for f in _RECORD_FIELDS]
        row.extend(
            s.margins[m].value if m in s.margins else math.nan for m in margins
        )
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def oscillation(kp: CurvatureProfile) -> float:
    """(k_max - k_min)/k_mean, the convergence metric."""
    k = kp.k
    return float((k.max() - k.min()) / k.mean())


def rate_formulas(law: FlowLaw, kp: CurvatureProfile) -> tuple[float, float]:
    """Instantaneous (dA_dt, dL_dt) = (lambda L - qw, 2 pi lambda - q),
    q and qw the integrals of k^alpha and k^alpha/k.

    LP pins dL_dt to literally 0.0 and AP pins dA_dt to 0.0; those are
    the conserved quantities, and reporting the algebraic zero keeps the
    conservation audit independent of this function.
    """
    v = power(kp.k, law.alpha)
    q = integrate_values(v)
    qw = integrate_values(v * kp.w)
    L = geometry.length(kp)
    A = geometry.parseval_area(kp.W)
    lam = nonlocal_lambda(law.kind, q, qw, L, A)
    dA_dt, dL_dt = lam * L - qw, TWO_PI * lam - q
    if law.kind is FlowKind.LP:
        dL_dt = 0.0
    elif law.kind is FlowKind.AP:
        dA_dt = 0.0
    return dA_dt, dL_dt


def tso_quantity(
    kp: CurvatureProfile,
    ctx: TsoContext,
    u: np.ndarray | None = None,
    v_fine: np.ndarray | None = None,
) -> tuple[float, bool]:
    """(Q_max, precondition_ok) for Q = k^alpha/(u - beta).

    Q_max is NaN when u dips to beta or below (the quotient loses
    meaning); precondition_ok reports the stronger condition min u >= 2
    beta under which the a-priori bound is proved. Extrema are taken on
    a 32x (`_DENSE_FACTOR`) trigonometric resample with parabolic
    refinement so the value does not depend on where the grid happens to
    land. Callers that already hold the centroid support samples pass
    them as `u`, and that resample of k^alpha as `v_fine`.
    """
    if u is None:
        u, _ = geometry.support_about_centroid(kp)
    u_fine = resample_values(u, _DENSE_FACTOR * u.shape[0])
    u_min = refined_extremum_values(u_fine, False)
    ok = u_min >= 2.0 * ctx.beta
    if u_min <= ctx.beta:
        return math.nan, False
    if v_fine is None:
        v_fine = resample_values(power(kp.k, ctx.alpha), u_fine.shape[0])
    return refined_extremum_values(v_fine / (u_fine - ctx.beta), True), ok


def gradient_functional(
    kp: CurvatureProfile, alpha: float, v_fine: np.ndarray | None = None
) -> float:
    """max of k^(2 alpha) + ((k^alpha)')^2, grid-independent.

    The maximizer generally falls between nodes, so the square sum is
    evaluated on a 32x (`_DENSE_FACTOR`) resample and the peak refined
    parabolically. Callers that already hold that resample of k^alpha
    pass it as `v_fine`.
    """
    v = power(kp.k, alpha)
    n_fine = _DENSE_FACTOR * kp.grid.n
    if v_fine is None:
        v_fine = resample_values(v, n_fine)
    vp_fine = resample_values(deriv_values(v, 1), n_fine)
    return refined_extremum_values(v_fine * v_fine + vp_fine * vp_fine, True)


def lower_bound_functional(s_accum: float | None, kp: CurvatureProfile) -> float:
    """max of 1/k - L/(2 pi) - s_accum/(2 pi).

    s_accum is the integrator's running time integral of the curvature
    power quadrature; None (no accumulator available) yields NaN and the
    series flags the diagnostic as disabled.
    """
    if s_accum is None:
        return math.nan
    w_max = refined_extremum_values(
        resample_values(kp.w, _DENSE_FACTOR * kp.grid.n), True
    )
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


def entropy(law: FlowLaw, kp: CurvatureProfile) -> float:
    """The law-and-alpha-appropriate entropy integral.

    LP tracks the curvature-power integral of order alpha-1 (constant 2
    pi when alpha = 1, recorded but exempt from monotonicity); AP weights
    it by L^(alpha-1), except alpha = 1 where the logarithmic integral of
    k L takes over. The remaining laws record the LP integrand with no
    monotonicity claim attached; `entropy_direction` gives the claim.
    """
    w = kp.w
    base = integrate_values(power(kp.k, law.alpha) * w)
    if law.kind is FlowKind.AP:
        L = integrate_values(w)
        if law.alpha == 1.0:
            return integrate_values(np.log(kp.k * L))
        return L ** (law.alpha - 1.0) * base
    return base


def _named_phi_margins(
    name: str,
    phi: np.ndarray,
    w: np.ndarray,
    A: float,
    unit: float,
    out: dict[str, Margin],
) -> None:
    # both inequalities share the core integral of phi (phi'' + phi)
    core = integrate_values(phi * (deriv_values(phi, 2) + phi))
    lhs1 = integrate_values(phi) ** 2
    out[f"mink1_{name}"] = Margin(
        lhs1 - TWO_PI * core,
        max(abs(lhs1), abs(TWO_PI * core), TWO_PI * unit),
    )
    lhs2 = integrate_values(phi * w) ** 2
    out[f"mink2_{name}"] = Margin(
        lhs2 - 2.0 * A * core,
        max(abs(lhs2), abs(2.0 * A * core), 2.0 * A * unit),
    )


def inequality_audit(
    kp: CurvatureProfile,
    alpha: float = 1.0,
    betas: Sequence[float] = DEFAULT_BETAS,
) -> dict[str, Margin]:
    """Every audited inequality as named margins (large - small side).

    Exponent-family margins run over `betas` (each >= 0). The quadratic
    test-function margins take the two flow speeds (curvature power
    minus the length- resp. area-stabilizing nonlocal term), for which
    one side vanishes identically. Margins comparing the four nonlocal
    terms appear only for alpha >= 1, their domain of validity.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise AuditError(f"alpha must be finite and positive, got {alpha}")
    k = kp.k
    w = kp.w
    L = geometry.length(kp)
    A = geometry.parseval_area(kp.W)

    v = power(k, alpha)
    iv = integrate_values(v)
    ivw = integrate_values(v * w)
    lam_lp, lam_ap, lam_g1, lam_g2 = (
        nonlocal_lambda(kind, iv, ivw, L, A)
        for kind in (FlowKind.LP, FlowKind.AP, FlowKind.G1, FlowKind.G2)
    )
    lam_scale = max(abs(lam_lp), abs(lam_ap))

    margins: dict[str, Margin] = {}
    margins["holder"] = Margin(lam_lp - lam_ap, lam_scale)

    for b in betas:
        b = float(b)
        if not (math.isfinite(b) and b >= 0.0):
            raise AuditError(f"beta exponents must be finite and >= 0, got {b}")
        kb = power(k, b)
        int_kb = integrate_values(kb)
        tag = f"{b:g}"
        large = (L / TWO_PI) * int_kb
        small = integrate_values(kb * w)
        margins[f"ineq11_b{tag}"] = Margin(large - small, max(large, small))
        large = (2.0 * A / L) * integrate_values(kb * k)
        margins[f"ineq22_b{tag}"] = Margin(large - int_kb, max(large, int_kb))

    # classical isoperimetric-type bound on the total turning
    gage_large = (2.0 * A / L) * integrate_values(k)
    margins["gage"] = Margin(gage_large - TWO_PI, max(gage_large, TWO_PI))

    if alpha >= 1.0:
        margins["gage1_lower"] = Margin(lam_g1 - lam_ap, lam_scale)
        margins["gage1_upper"] = Margin(lam_lp - lam_g1, lam_scale)
        margins["gage2_lower"] = Margin(lam_g2 - lam_ap, lam_scale)
        margins["gage2_upper"] = Margin(lam_lp - lam_g2, lam_scale)

    unit = lam_scale * lam_scale
    _named_phi_margins("lp", v - lam_lp, w, A, unit, margins)
    _named_phi_margins("ap", v - lam_ap, w, A, unit, margins)

    andrews_large = L * iv
    andrews_small = TWO_PI * ivw
    margins["andrews"] = Margin(
        andrews_large - andrews_small, max(andrews_large, andrews_small)
    )
    return margins


def failed_margins(
    margins: Mapping[str, Margin], rtol: float = MARGIN_RTOL
) -> list[str]:
    return [name for name, m in sorted(margins.items()) if not m.ok(rtol)]


class DiagnosticsCollector:
    """Accumulates a DiagnosticsSeries sample by sample during a run.

    `audits` selects which diagnostics are computed; disabled ones record
    NaN columns. The support pipeline (reconstruction and centroid) is
    evaluated once per sample and shared by everything that needs it, as
    is the 32x resample of k^alpha that the Tso quotient and Psi read;
    the area comes from `geometry.parseval_area`, with no closure check,
    so a run that drifts open is recorded (closure_defect) rather than
    stopped. The collector carries the certified inscribed and
    circumscribed circles of the previous sample, from whose contacts
    the next sample's radii are solved (`geometry.inradius_outradius`);
    it is one run's state, so each run needs its own collector.
    """

    def __init__(
        self,
        law: FlowLaw,
        kp0: CurvatureProfile,
        audits: Sequence[str] = AUDIT_NAMES,
    ):
        unknown = sorted(set(audits) - set(AUDIT_NAMES))
        if unknown:
            raise AuditError(
                f"unknown audit name(s) {', '.join(unknown)}; "
                f"expected among {', '.join(AUDIT_NAMES)}"
            )
        self.law = law
        self.audits = frozenset(audits)
        tso = TsoContext.from_initial(kp0, law.alpha) if "tso" in self.audits else None
        self.series = DiagnosticsSeries(law, tso, phi_enabled="phi" in self.audits)
        self._circles: tuple[geometry.TouchingCircle, ...] | None = None

    def collect(
        self,
        t: float,
        kp: CurvatureProfile,
        s_accum: float | None = None,
    ) -> SampleRecord:
        law = self.law
        k = kp.k
        L = geometry.length(kp)
        A = geometry.parseval_area(kp.W)
        u, _ = geometry._support_pipeline(kp)

        nan = math.nan
        r_in = r_out = nan
        if "radii" in self.audits:
            self._circles = geometry.inradius_outradius(kp, u=u, start=self._circles)
            r_in, r_out = (circle.radius for circle in self._circles)

        dA_dt = dL_dt = nan
        if "rates" in self.audits:
            dA_dt, dL_dt = rate_formulas(law, kp)

        v_fine = None
        if self.series.tso is not None or "psi" in self.audits:
            v_fine = resample_values(power(k, law.alpha), _DENSE_FACTOR * kp.grid.n)

        q_max, q_ok = nan, False
        if self.series.tso is not None:
            q_max, q_ok = tso_quantity(kp, self.series.tso, u=u, v_fine=v_fine)

        psi = nan
        if "psi" in self.audits:
            psi = gradient_functional(kp, law.alpha, v_fine=v_fine)

        phi = nan
        if self.series.phi_enabled:
            phi = lower_bound_functional(s_accum, kp)

        ent = entropy(law, kp) if "entropy" in self.audits else nan

        margins: Mapping[str, Margin] = {}
        if "margins" in self.audits:
            margins = _MarginTable(inequality_audit(kp, alpha=law.alpha))

        record = SampleRecord(
            t=t,
            L=L,
            A=A,
            I=L * L / (2.0 * TWO_PI * A),
            k_min=float(k.min()),
            k_max=float(k.max()),
            lam=lambda_value(law, kp),
            closure_defect=geometry.closure_defect(kp),
            r_in=r_in,
            r_out=r_out,
            dA_dt_formula=dA_dt,
            dL_dt_formula=dL_dt,
            Q_max=q_max,
            Q_ok=q_ok,
            Psi_max=psi,
            Phi_max=phi,
            entropy=ent,
            oscillation=oscillation(kp),
            margins=margins,
        )
        self.series.append(record)
        return record


# ---------------------------------------------------------------------------
# series-level audits


def _mono_violations(
    t: np.ndarray,
    q: np.ndarray,
    direction: int,
    label: str,
    rtol: float,
) -> list[str]:
    out = []
    for j in range(len(q) - 1):
        a, b = q[j], q[j + 1]
        slack = rtol * max(abs(a), abs(b)) + MONOTONE_ATOL
        drift = (b - a) if direction < 0 else (a - b)
        if drift > slack:
            out.append(
                f"{label} moved {'up' if direction < 0 else 'down'} by "
                f"{drift:.3e} at t={t[j + 1]:.6g} (allowed {slack:.3e})"
            )
    return out


def monotonicity_violations(
    series: DiagnosticsSeries, rtol: float = MONOTONE_RTOL
) -> list[str]:
    """Per-sample monotonicity checks appropriate to the series' law."""
    law = series.law
    t = series.column("t")
    out: list[str] = []
    if law.kind is not FlowKind.CONTRACTION:
        out += _mono_violations(t, series.column("I"), -1, "isoperimetric ratio", rtol)
    if law.kind in (FlowKind.G1, FlowKind.G2):
        out += _mono_violations(t, series.column("L"), -1, "length", rtol)
        out += _mono_violations(t, series.column("A"), +1, "area", rtol)
    direction = entropy_direction(law)
    if direction:
        out += _mono_violations(t, series.column("entropy"), direction, "entropy", rtol)
    if series.phi_enabled:
        out += _mono_violations(t, series.column("Phi_max"), -1, "Phi_max", rtol)
    return out


def psi_violations(series: DiagnosticsSeries, rtol: float = PSI_RTOL) -> list[str]:
    """Running max of Psi must not exceed max(Psi(0), running max of v^2)."""
    alpha = series.law.alpha
    out: list[str] = []
    if not len(series):
        return out
    psi0 = series[0].Psi_max
    if math.isnan(psi0):
        return out
    run_psi = -math.inf
    run_v2 = -math.inf
    for s in series:
        run_v2 = max(run_v2, s.k_max ** (2.0 * alpha))
        run_psi = max(run_psi, s.Psi_max)
        bound = max(psi0, run_v2) * (1.0 + rtol)
        if run_psi > bound:
            out.append(
                f"Psi running max {run_psi:.12e} exceeds bound {bound:.12e} "
                f"at t={s.t:.6g}"
            )
    return out


def tso_violations(series: DiagnosticsSeries, rtol: float = TSO_RTOL) -> list[str]:
    """Q_max against its a-priori bound, asserted only where proved.

    The bound applies to the two conserving laws, on 0 < t <= T1, and
    only while the support stays two offsets above the origin shift.
    """
    ctx = series.tso
    out: list[str] = []
    if ctx is None or series.law.kind not in (FlowKind.LP, FlowKind.AP):
        return out
    for s in series:
        if not (0.0 < s.t <= ctx.T1) or not s.Q_ok or math.isnan(s.Q_max):
            continue
        bound = ctx.bound_at(s.t) * (1.0 + rtol)
        if s.Q_max > bound:
            out.append(
                f"Q_max {s.Q_max:.12e} exceeds bound {bound:.12e} at t={s.t:.6g}"
            )
    return out


def margin_violations(
    series: DiagnosticsSeries, rtol: float = MARGIN_RTOL
) -> list[str]:
    out: list[str] = []
    for j, s in enumerate(series):
        for name in failed_margins(s.margins, rtol):
            m = s.margins[name]
            out.append(
                f"margin {name} = {m.value:.3e} below -{rtol:.0e}*scale "
                f"(scale {m.scale:.3e}) at sample {j}, t={s.t:.6g}"
            )
    return out


def conservation_violations(
    series: DiagnosticsSeries, rtol: float = 1e-6
) -> list[str]:
    """LP must hold L, AP must hold A, within rtol of the initial value."""
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
    if drift[worst] > rtol:
        out.append(
            f"{name} drifted {drift[worst]:.3e} relative at "
            f"t={series[worst].t:.6g} (allowed {rtol:.0e})"
        )
    return out


def closure_violations(series: DiagnosticsSeries, rtol: float = 1e-6) -> list[str]:
    out: list[str] = []
    if not len(series):
        return out
    limit = rtol * series[0].L
    for s in series:
        if s.closure_defect > limit:
            out.append(
                f"closure defect {s.closure_defect:.3e} exceeds "
                f"{rtol:.0e}*L(0) = {limit:.3e} at t={s.t:.6g}"
            )
    return out


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
    fd, avg = [], []
    for j in range(1, len(t) - 1):
        h0 = t[j] - t[j - 1]
        h1 = t[j + 1] - t[j]
        if abs(h1 - h0) > 1e-9 * max(h0, h1):
            continue
        fd.append((col[j + 1] - col[j - 1]) / (h0 + h1))
        avg.append((f[j - 1] + 4.0 * f[j] + f[j + 1]) / 6.0)
    return np.asarray(fd), np.asarray(avg)


def rate_violations(
    series: DiagnosticsSeries, rtol: float = 1e-4, atol: float = 1e-10
) -> list[str]:
    out: list[str] = []
    for quantity in ("A", "L"):
        fd, avg = rate_fd_pairs(series, quantity)
        for x, y in zip(fd, avg):
            if abs(x - y) > max(rtol * abs(y), atol):
                out.append(
                    f"d{quantity}/dt finite difference {x:.12e} vs formula "
                    f"{y:.12e} beyond max({rtol:.0e} rel, {atol:.0e} abs)"
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
