"""Geometry of closed convex plane curves given by curvature in normal angle.

A convex closed curve with strictly positive curvature is stored as samples
k(theta_j) over the outward normal angle. Everything else is derived from
w = 1/k by spectral calculus: arc length element ds = w dtheta, tangent
T(theta) = (-sin theta, cos theta), position by antidifferentiation, support
function u = <X - c, N> about the area centroid c. Closure holds iff the
first Fourier moments of w vanish; the residual norm is reported as the
closure defect rather than silently projected away. A `CurvatureProfile`
holds one profile or a (B, n) block of them, and the functionals that
need no closed curve give a numpy scalar for the one or a row of values
for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import (
    TWO_PI,
    AngularGrid,
    antiderivative_values,
    deriv_spectrum,
    deriv_values,
    first_harmonics_values,
    integrate_values,
    resample_spectrum,
)


class ConvexityError(ValueError):
    pass


class ClosureError(ValueError):
    pass


class DomainError(ValueError):
    pass


# relative closure tolerance for operations that require a closed curve
CLOSURE_RTOL = 1e-6


@dataclass(frozen=True)
class CurvatureProfile:
    """Positive curvature samples of a convex curve over the normal angle.

    k holds one profile as (n,) samples, or a block of B profiles of one
    grid as (B, n) rows. The functionals of k compute along the last
    axis: a block gives one value per row, bit for bit what that row
    gives alone, and one profile gives a numpy scalar.
    """

    grid: AngularGrid
    k: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=np.float64)
        n = self.grid.n
        if k.ndim not in (1, 2) or k.shape[-1] != n:
            raise ConvexityError(
                f"expected {n} curvature samples per profile, got shape {k.shape}"
            )
        if not np.all(np.isfinite(k)):
            j = int(np.flatnonzero(~np.isfinite(k))[0]) % n
            raise ConvexityError(
                f"non-finite curvature at theta={self.grid.theta[j]:.6f} (index {j})"
            )
        if k.min() <= 0.0:
            j = int(k.argmin()) % n
            raise ConvexityError(
                f"curvature must be positive; k={k.min():.6g} at "
                f"theta={self.grid.theta[j]:.6f} (index {j})"
            )
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "k", k)

    @cached_property
    def w(self) -> np.ndarray:
        """Radius of curvature samples 1/k (read-only)."""
        w = 1.0 / self.k
        w.setflags(write=False)
        return w

    @cached_property
    def W(self) -> np.ndarray:
        """rfft of the radius of curvature 1/k (read-only)."""
        W = np.fft.rfft(self.w)
        W.setflags(write=False)
        return W


def length(kp: CurvatureProfile):
    """Arc length, integral of 1/k over the normal angle."""
    return integrate_values(kp.w)


# math.hypot per row: np.hypot is not guaranteed to give the same bits
_hypot = np.vectorize(math.hypot, otypes=[float])


def closure_defect(kp: CurvatureProfile):
    """Norm of the first Fourier moments of 1/k; zero iff the curve closes."""
    return _hypot(*first_harmonics_values(kp.w))[()]


def _require_closed(kp: CurvatureProfile, where: str) -> None:
    if kp.k.ndim != 1:
        raise ValueError(f"{where} takes one profile, got a block of {len(kp.k)}")
    defect = closure_defect(kp)
    scale = length(kp)
    if defect > CLOSURE_RTOL * scale:
        raise ClosureError(
            f"{where} requires a closed curve; closure defect "
            f"{defect:.3e} exceeds {CLOSURE_RTOL:.0e} * L = {CLOSURE_RTOL * scale:.3e}"
        )


def _nodes(
    kp: CurvatureProfile,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, mx, my): the points X(theta_j) - X(0) as the tangent
    integrates to them, and the mean of each tangent component, which
    times 2 pi is the closure gap."""
    grid = kp.grid
    w = kp.w
    Gx, mx = antiderivative_values(-grid.sin * w)
    Gy, my = antiderivative_values(grid.cos * w)
    mx, my = np.expand_dims(mx, -1), np.expand_dims(my, -1)
    return Gx + mx * grid.theta, Gy + my * grid.theta, mx, my


def reconstruct_points(
    kp: CurvatureProfile, anchor: tuple[float, float] = (0.0, 0.0)
) -> np.ndarray:
    """Integrate the tangent to recover points X(theta_j), anchored at X(0).

    Returns an (n+1, 2) array including the wrap-around endpoint X(2*pi);
    the gap between last and first rows equals the closure defect.
    """
    x, y, mx, my = _nodes(kp)
    n = kp.grid.n
    pts = np.empty((n + 1, 2))
    pts[:n, 0] = anchor[0] + x
    pts[:n, 1] = anchor[1] + y
    pts[n, 0] = anchor[0] + mx[0] * TWO_PI
    pts[n, 1] = anchor[1] + my[0] * TWO_PI
    return pts


def _support_pipeline(kp: CurvatureProfile) -> tuple[np.ndarray, tuple]:
    """Reconstruct, find the area centroid, return (u, center); for a
    block, u holds one row per profile and center one (cx, cy) array pair."""
    grid = kp.grid
    w = kp.w
    x, y, _, _ = _nodes(kp)
    cos, sin = grid.cos, grid.sin
    # Green's theorem with dx = -sin*w dtheta, dy = cos*w dtheta
    area0 = 0.5 * integrate_values(w * (x * cos + y * sin))
    cx = integrate_values(x * x * cos * w) / (2.0 * area0)
    cy = integrate_values(y * y * sin * w) / (2.0 * area0)
    u = (x - np.expand_dims(cx, -1)) * cos + (y - np.expand_dims(cy, -1)) * sin
    return u, (cx, cy)


@lru_cache(maxsize=32)
def _area_weights(n: int) -> np.ndarray:
    """Parseval area weight c_m * s_m of each rfft bin, once per (re, im).

    s_m is the symbol of the inverse of (d^2 + 1) on the complement of
    mode 1 (s_0 = 1, s_1 = 0), c_m the rfft weight, 1/n at m = 0 and
    m = n/2 and 2/n otherwise.
    """
    m = np.arange(n // 2 + 1, dtype=np.float64)
    solve = np.zeros(n // 2 + 1)
    solve[0] = 1.0
    solve[2:] = 1.0 / (1.0 - m[2:] * m[2:])
    weight = np.full(n // 2 + 1, 2.0 / n)
    weight[0] = weight[-1] = 1.0 / n
    area = np.repeat(weight * solve, 2)
    area.setflags(write=False)
    return area


def parseval_area(W: np.ndarray):
    """Enclosed area from W = rfft(1/k), with no closure check.

    u = (d^2 + 1)^-1 (1/k) off mode 1 is the support function about some
    center, and A = (1/2) integral of u/k, which Parseval turns into
    (1/2) dtheta sum of c_m s_m |W_m|^2 (weights in `_area_weights`).
    """
    pairs = W.view(np.float64)
    n = pairs.shape[-1] - 2
    total = np.vecdot(pairs * pairs, _area_weights(n))
    return 0.5 * (TWO_PI / n) * total


def area(kp: CurvatureProfile) -> float:
    """Enclosed area of a closed curve (`parseval_area` of its 1/k)."""
    _require_closed(kp, "area")
    return parseval_area(kp.W)


def support_about_centroid(
    kp: CurvatureProfile,
) -> tuple[np.ndarray, tuple[float, float]]:
    """(u, center): support samples u = <X - center, N> about the area
    centroid of a closed curve."""
    _require_closed(kp, "support_about_centroid")
    u, center = _support_pipeline(kp)
    # centroid of a convex region is interior, so u > 0 must hold
    assert u.min() > 0.0, "support about centroid not positive"
    return u, center


# The inradius is the linear program max r subject to u(theta) - c.N(theta)
# >= r for every theta, over the center offset c from the centroid; the
# outradius is the same program for -u. Each is seeded by an exchange on
# the _OVERSAMPLE-fold resample, or by the contacts of a nearby curve, and
# polished by Newton on the KKT system of the trigonometric interpolant.
_OVERSAMPLE = 4
_MAX_PIVOTS = 100
_MAX_NEWTON = 30
_MAX_ROUNDS = 10
# radius tolerance relative to max |u|, and that of the weight equations
_RADIUS_RTOL = 1e-13
_WEIGHT_TOL = 1e-13


@dataclass(frozen=True)
class TouchingCircle:
    """A radius with its optimality certificate.

    center is the circle's offset from the centroid. The circle touches
    the curve at the normal angles theta, whose weights are >= 0, sum to
    1 and balance: sum(weights * N(theta)) = 0, so no shift of the center
    can enlarge an inscribed (or shrink a circumscribed) circle.
    """

    radius: float
    center: np.ndarray
    theta: np.ndarray
    weights: np.ndarray


def _negated(circle: TouchingCircle) -> TouchingCircle:
    """The circumscribed circle of u as the max-min circle of -u, and back."""
    return TouchingCircle(-circle.radius, -circle.center, circle.theta, circle.weights)


def _exchange(
    v: np.ndarray, cols: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete max-min over the samples by a three-point exchange.

    A dual simplex on max r s.t. r + c.N_j <= v_j: the basis is three
    samples whose normals hold the origin in their convex hull (weights
    lam >= 0), and the most violated sample enters in place of the one
    the ratio test removes. Returns (basis, lam, (r, cx, cy)).
    """
    m = v.size
    basis = np.array([0, m // 3, 2 * m // 3])
    for _ in range(_MAX_PIVOTS):
        inv = np.linalg.inv(cols[:, basis])
        y = v[basis] @ inv
        slack = v - y @ cols
        j = int(slack.argmin())
        lam = inv[:, 0]
        if slack[j] >= -tol:
            return basis, lam, y
        step = inv @ cols[:, j]
        ratio = np.full(3, np.inf)
        up = step > 0.0
        ratio[up] = lam[up] / step[up]
        basis[int(ratio.argmin())] = j
    raise RuntimeError(f"exchange did not settle in {_MAX_PIVOTS} pivots")


def _contacts(
    basis: np.ndarray, lam: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Basis samples as contact guesses: neighbours on the grid are one
    contact (the weight-averaged angle), weightless samples are dropped."""
    order = np.argsort(basis)
    idx, lam = basis[order].astype(float), lam[order]
    groups = [[0]]
    for i in range(1, idx.size):
        if idx[i] - idx[groups[-1][-1]] <= 2:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) > 1 and idx[0] + m - idx[-1] <= 2:
        idx[groups[0]] += m
        groups[-1] += groups.pop(0)
    theta, weight = [], []
    for g in groups:
        w = lam[g].sum()
        if w > 0.0:
            theta.append(float(np.dot(lam[g], idx[g])) / w)
            weight.append(w)
    return np.array(theta) * (TWO_PI / m), np.array(weight)


def _kkt_polish(
    coef: np.ndarray,
    c: np.ndarray,
    r: float,
    theta: np.ndarray,
    lam: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Newton on the KKT system of max-min of the interpolant f_c = v - c.N.

    Unknowns c, r, theta_i, lam_i; equations f_c(theta_i) = r,
    f_c'(theta_i) = 0, sum lam_i N(theta_i) = 0, sum lam_i = 1. Square
    for any number of contacts, and solved as such; only a singular
    Jacobian falls back to least squares. coef holds the interpolant and
    its first two derivatives as (modes, 3) coefficients of
    exp(i m theta). A contact counts as settled once the quadratic model
    leaves less than tol of descent, f'^2 <= 2 tol |f''|, which also
    holds where the interpolant is flat and its stationary point is
    ill-determined. The per-contact arithmetic is on Python floats: with
    two or three contacts, numpy calls would cost more than the work.
    """
    k = theta.size
    modes = 1j * np.arange(coef.shape[0])
    cx, cy, r = float(c[0]), float(c[1]), float(r)
    theta, lam = theta.tolist(), lam.tolist()
    zeros = [0.0] * k
    for _ in range(_MAX_NEWTON):
        interp = (np.exp(np.outer(theta, modes)) @ coef).real.tolist()
        cos = [math.cos(x) for x in theta]
        sin = [math.sin(x) for x in theta]
        gap, f1, f2 = [], [], []
        for (p, p1, p2), ci, si in zip(interp, cos, sin):
            gap.append(p - cx * ci - cy * si - r)
            f1.append(p1 + cx * si - cy * ci)
            f2.append(p2 + cx * ci + cy * si)
        balance = [
            sum(l * ci for l, ci in zip(lam, cos)),
            sum(l * si for l, si in zip(lam, sin)),
            sum(lam) - 1.0,
        ]
        if (
            max(map(abs, gap)) <= tol
            and all(d * d <= 2.0 * tol * abs(dd) for d, dd in zip(f1, f2))
            and max(map(abs, balance)) <= _WEIGHT_TOL
        ):
            return np.array([cx, cy]), r, np.array(theta), np.array(lam)
        # columns: cx, cy, r, theta_0.., lam_0..
        J = []
        for i in range(k):
            row = [-cos[i], -sin[i], -1.0] + zeros + zeros
            row[3 + i] = f1[i]
            J.append(row)
        for i in range(k):
            row = [sin[i], -cos[i], 0.0] + zeros + zeros
            row[3 + i] = f2[i]
            J.append(row)
        J.append([0.0, 0.0, 0.0] + [-l * si for l, si in zip(lam, sin)] + cos)
        J.append([0.0, 0.0, 0.0] + [l * ci for l, ci in zip(lam, cos)] + sin)
        J.append([0.0, 0.0, 0.0] + zeros + [1.0] * k)
        F = np.array(gap + f1 + balance)
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
        step = step.tolist()
        cx, cy, r = cx + step[0], cy + step[1], r + step[2]
        theta = [x + d for x, d in zip(theta, step[3 : 3 + k])]
        lam = [x + d for x, d in zip(lam, step[3 + k :])]
    raise RuntimeError(f"KKT polish did not converge in {_MAX_NEWTON} steps")


def _active_set(
    coef: np.ndarray,
    v_fine: np.ndarray,
    cols: np.ndarray,
    tol: float,
    c: np.ndarray,
    r: float,
    theta: np.ndarray,
    lam: np.ndarray,
) -> TouchingCircle:
    """Polish the contacts; drop a contact whose weight turns negative, or
    add the resample point furthest across the circle, and polish again,
    until the answer is certified."""
    for _ in range(_MAX_ROUNDS):
        c, r, theta, lam = _kkt_polish(coef, c, r, theta, lam, tol)
        slack = v_fine - np.array([r, c[0], c[1]]) @ cols
        j = int(slack.argmin())
        if lam.min() < 0.0:
            keep = np.arange(lam.size) != lam.argmin()
            theta, lam = theta[keep], lam[keep]
        elif slack[j] < -tol:
            theta = np.append(theta, AngularGrid(v_fine.size).theta[j])
            lam = np.append(lam, 0.0)
        else:
            return TouchingCircle(r, c, theta, lam)
    raise RuntimeError(
        f"no certificate after {_MAX_ROUNDS} active-set rounds (weights "
        f"{np.array2string(lam, precision=3)}, a resample point "
        f"{-slack[j]:.3e} across the circle)"
    )


def _max_min(
    coef: np.ndarray,
    v_fine: np.ndarray,
    v2_fine: np.ndarray,
    start: TouchingCircle | None,
) -> TouchingCircle:
    """max over c of min over theta of the interpolant of v minus c.N.

    coef is the interpolant of v with its first two derivatives (see
    `_kkt_polish`); v_fine and v2_fine are v and v'' on the resample. A
    start is the answer for a nearby v: its contacts replace the exchange,
    and if they lead to no certificate the exchange runs after all.
    """
    fine = AngularGrid(v_fine.size)
    cols = np.stack([np.ones(fine.n), fine.cos, fine.sin])
    tol = _RADIUS_RTOL * float(np.abs(v_fine).max())

    # Between samples f_c dips at most max|f_c''| h^2/8 below them, and the
    # optimum lies within that dip of the discrete one. Where it is below
    # tol (near-circles, whose f_c is flat up to round-off) the discrete
    # answer is exact and there is no well-posed contact to polish.
    def flat(c: np.ndarray) -> bool:
        dip = np.abs(v2_fine + c @ cols[1:]).max() * fine.dtheta**2 / 8.0
        return bool(dip <= tol)

    if start is not None and not flat(start.center):
        try:
            return _active_set(
                coef, v_fine, cols, tol,
                start.center, start.radius, start.theta, start.weights,
            )
        except (RuntimeError, np.linalg.LinAlgError):
            pass  # the start led to no certificate: solve without it
    basis, lam, y = _exchange(v_fine, cols, tol)
    c, r = y[1:], float(y[0])
    if flat(c):
        held = lam > 0.0
        return TouchingCircle(r, c, fine.theta[basis[held]], lam[held])
    theta, lam = _contacts(basis, lam, fine.n)
    return _active_set(coef, v_fine, cols, tol, c, r, theta, lam)


def inradius_outradius(
    kp: CurvatureProfile,
    u: np.ndarray | None = None,
    start: tuple[TouchingCircle, TouchingCircle] | None = None,
) -> tuple[TouchingCircle, TouchingCircle]:
    """Largest inscribed and smallest circumscribed circle, certified.

    Both are exact for the trigonometric interpolant of the support
    function: an exchange on a 4x resample finds the touching samples,
    and Newton on the optimality conditions moves them onto the true
    contacts. Each answer is certified (nonnegative contact weights
    whose normals balance, no resample point inside the inscribed circle
    or outside the circumscribed one); an uncertified answer raises.
    Callers that already hold the centroid support samples pass them as
    `u`. `start` is the pair returned for a nearby curve, such as the
    previous sample of a run: Newton then begins at its contacts, and
    the exchange runs only where that yields no certificate.
    """
    if u is None:
        u, _ = support_about_centroid(kp)
    n = u.size
    U = np.fft.rfft(u)
    coef = U / n
    coef[1 : n // 2] *= 2.0
    modes = np.arange(coef.size)
    coef = np.stack([coef, 1j * modes * coef, -(modes * modes) * coef], axis=1)
    n_fine = _OVERSAMPLE * n
    u_fine = resample_spectrum(U, n, n_fine)
    u2_fine = resample_spectrum(deriv_spectrum(U, 2), n, n_fine)
    inner_start = outer_start = None
    if start is not None:
        inner_start, outer_start = start[0], _negated(start[1])
    # min over c of max (u - c.N) is -(max over c of min (-u - c.N)) at -c;
    # negating u negates its spectrum and resamples exactly
    solved = []
    for label, (c, v, v2), s in (
        ("inradius", (coef, u_fine, u2_fine), inner_start),
        ("outradius", (-coef, -u_fine, -u2_fine), outer_start),
    ):
        try:
            solved.append(_max_min(c, v, v2, s))
        except RuntimeError as exc:
            raise RuntimeError(f"{label}: {exc}") from exc
    return solved[0], _negated(solved[1])


def bonnesen_sigma(I: float) -> float:
    """sigma(I) = (sqrt(I) + sqrt(I - 1))^2, the Bonnesen radius ratio bound."""
    if I < 1.0 - 1e-10:
        raise DomainError(f"isoperimetric ratio must be >= 1, got {I}")
    I = max(I, 1.0)
    return (math.sqrt(I) + math.sqrt(I - 1.0)) ** 2


def isoperimetric_ratio(kp: CurvatureProfile) -> float:
    L = length(kp)
    return L * L / (4.0 * math.pi * area(kp))


def support_identity_residual(kp: CurvatureProfile) -> float:
    """Max |u'' + u - 1/k| over the grid, u taken about the centroid."""
    u, _ = support_about_centroid(kp)
    return float(np.abs(deriv_values(u, 2) + u - kp.w).max())
