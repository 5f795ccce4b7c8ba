"""Geometry of closed convex plane curves given by curvature in normal angle.

A convex closed curve with strictly positive curvature is stored as samples
k(theta_j) over the outward normal angle. Everything else is derived from
w = 1/k by spectral calculus: arc length element ds = w dtheta, tangent
T(theta) = (-sin theta, cos theta), position by antidifferentiation, support
function u = <X - c, N> about the area centroid c. The enclosed area has
one formula, `parseval_area` of the spectrum of w, which the stepping
kernel, the diagnostics and the centroid all use. Closure holds iff the
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
    first_harmonics_values,
    integrate_values,
    interpolant_derivatives,
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


def reconstruct_points(kp: CurvatureProfile) -> np.ndarray:
    """Integrate the tangent to recover points X(theta_j), with X(0) at the
    origin.

    Returns an (n+1, 2) array including the wrap-around endpoint X(2*pi);
    the gap between last and first rows equals the closure defect.
    """
    x, y, mx, my = _nodes(kp)
    n = kp.grid.n
    pts = np.empty((n + 1, 2))
    pts[:n, 0] = x
    pts[:n, 1] = y
    pts[n, 0] = mx[0] * TWO_PI
    pts[n, 1] = my[0] * TWO_PI
    return pts


def _support_pipeline(kp: CurvatureProfile) -> tuple[np.ndarray, tuple]:
    """Reconstruct, find the area centroid, return (u, center); for a
    block, u holds one row per profile and center one (cx, cy) array pair.

    The centroid is (integral of x^2 dy, -integral of y^2 dx) / 2A, with
    dx = -sin w dtheta, dy = cos w dtheta and A the `parseval_area`."""
    grid = kp.grid
    w = kp.w
    x, y, _, _ = _nodes(kp)
    cos, sin = grid.cos, grid.sin
    twice_area = 2.0 * parseval_area(kp.W)
    cx = integrate_values(x * x * cos * w) / twice_area
    cy = integrate_values(y * y * sin * w) / twice_area
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
# outradius is the same program for -u. Both are solved as the program for
# v = sign * u, on u itself rather than a negated copy, and a
# TouchingCircle always holds the circle of u: radius and center are
# sign times those of v's. Each is seeded by an exchange on the
# _OVERSAMPLE-fold resample, or by the contacts of a nearby curve, and
# polished by Newton on the KKT system of the trigonometric interpolant.
_OVERSAMPLE = 4
_MAX_PIVOTS = 100
_MAX_NEWTON = 30
_MAX_ROUNDS = 10
# radius tolerance relative to max |u|, and that of the weight equations
_RADIUS_RTOL = 1e-13
_WEIGHT_TOL = 1e-13
# the inscribed circle, then the circumscribed one
_SIGNS = (1.0, -1.0)


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


@lru_cache(maxsize=8)
def _fine_columns(n_fine: int) -> np.ndarray:
    """[1, cos, sin] on the resample grid as (3, n_fine) rows (read-only)."""
    fine = AngularGrid(n_fine)
    cols = np.stack([np.ones(n_fine), fine.cos, fine.sin])
    cols.setflags(write=False)
    return cols


def _slack(
    u_fine: np.ndarray, sign: float, r: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """v - r - c.N on the resample for v = sign * u, one row per circle."""
    slack = np.column_stack([r, c]) @ _fine_columns(u_fine.shape[-1])
    if sign > 0.0:
        np.subtract(u_fine, slack, out=slack)
    else:
        np.add(u_fine, slack, out=slack)
        np.negative(slack, out=slack)
    return slack


def _flat(u2_fine: np.ndarray, center: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Rows on which u - center.N is flat up to tol between resample
    points, from u'' on the resample, one row each.

    Between samples f = v - c.N dips at most max|f''| h^2/8 below them,
    and the optimum lies within that dip of the discrete one. Where it is
    below tol (near-circles, whose f is flat up to round-off) the
    discrete answer is exact and there is no well-posed contact to
    polish. |f''| = |u'' + center.N| for either sign, with center = sign c.
    """
    n_fine = u2_fine.shape[-1]
    dip = u2_fine + center @ _fine_columns(n_fine)[1:]
    np.abs(dip, out=dip)
    return dip.max(axis=-1) * (TWO_PI / n_fine) ** 2 / 8.0 <= tol


def _exchange(
    v: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete max-min over the samples by a three-point exchange.

    A dual simplex on max r s.t. r + c.N_j <= v_j: the basis is three
    samples whose normals hold the origin in their convex hull (weights
    lam >= 0), and the most violated sample enters in place of the one
    the ratio test removes. Returns (basis, lam, (r, cx, cy)).
    """
    m = v.size
    cols = _fine_columns(m)
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
    sign: float,
    c: np.ndarray,
    r: np.ndarray,
    theta: np.ndarray,
    lam: np.ndarray,
    tol: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Newton on the KKT system of max-min of the interpolant f_c = v - c.N,
    for rows of one contact count at once.

    coef holds the rfft of each row of u (rows, modes), whose interpolant
    `spectral.interpolant_derivatives` evaluates, and v = sign * u. Per
    row the unknowns are c (rows, 2), r (rows,), and theta_i and lam_i
    (rows, k); the equations f_c(theta_i) = r, f_c'(theta_i) = 0,
    sum lam_i N(theta_i) = 0 and sum lam_i = 1 are square for any number
    of contacts. A contact counts
    as settled once the quadratic model leaves less than tol of descent,
    f'^2 <= 2 tol |f''|, which also holds where the interpolant is flat
    and its stationary point is ill-determined. A row that passes is
    frozen, so its iterates do not depend on the other rows.

    The rows' systems are stacked into one `np.linalg.solve`, which
    raises for the whole stack if one is singular: then the unfinished
    rows of a block are left undone, and a single row takes least
    squares. Returns the new (c, r, theta, lam) and `done`, the rows that
    passed the test.
    """
    rows, k = theta.shape
    c, r, theta, lam = c.copy(), r.copy(), theta.copy(), lam.copy()
    done = np.zeros(rows, dtype=bool)
    todo = np.arange(rows)
    i = np.arange(k)
    size = 3 + 2 * k
    for _ in range(_MAX_NEWTON):
        th, lm, tl = theta[todo], lam[todo], tol[todo]
        cx, cy, rr = c[todo, :1], c[todo, 1:], r[todo, None]
        u0, u1, u2, _ = interpolant_derivatives(
            coef, th.ravel(), np.repeat(todo, k)
        ).reshape(4, todo.size, k)
        cos, sin = np.cos(th), np.sin(th)
        gap = sign * u0 - cx * cos - cy * sin - rr
        f1 = sign * u1 + cx * sin - cy * cos
        f2 = sign * u2 + cx * cos + cy * sin
        balance = np.stack(
            [(lm * cos).sum(-1), (lm * sin).sum(-1), lm.sum(-1) - 1.0], -1
        )
        settled = (
            (np.abs(gap).max(-1) <= tl)
            & (f1 * f1 <= 2.0 * tl[:, None] * np.abs(f2)).all(-1)
            & (np.abs(balance).max(-1) <= _WEIGHT_TOL)
        )
        done[todo[settled]] = True
        left = ~settled
        todo = todo[left]
        if not todo.size:
            break
        lm, cos, sin = lm[left], cos[left], sin[left]
        # columns: cx, cy, r, theta_0.., lam_0..
        J = np.zeros((todo.size, size, size))
        J[:, :k, 0] = -cos
        J[:, :k, 1] = -sin
        J[:, :k, 2] = -1.0
        J[:, i, 3 + i] = f1[left]
        J[:, k:-3, 0] = sin
        J[:, k:-3, 1] = -cos
        J[:, k + i, 3 + i] = f2[left]
        J[:, -3, 3 : 3 + k] = -lm * sin
        J[:, -3, 3 + k :] = cos
        J[:, -2, 3 : 3 + k] = lm * cos
        J[:, -2, 3 + k :] = sin
        J[:, -1, 3 + k :] = 1.0
        F = np.concatenate([gap[left], f1[left], balance[left]], -1)
        try:
            step = np.linalg.solve(J, -F[..., None])[..., 0]
        except np.linalg.LinAlgError:
            if rows > 1:
                break
            step = np.linalg.lstsq(J[0], -F[0], rcond=None)[0][None]
        c[todo] += step[:, :2]
        r[todo] += step[:, 2]
        theta[todo] += step[:, 3 : 3 + k]
        lam[todo] += step[:, 3 + k :]
    return c, r, theta, lam, done


def _active_set(
    coef: np.ndarray,
    sign: float,
    u_fine: np.ndarray,
    tol: float,
    c: np.ndarray,
    r: float,
    theta: np.ndarray,
    lam: np.ndarray,
) -> TouchingCircle:
    """Polish the contacts of one row; drop a contact whose weight turns
    negative, or add the resample point furthest across the circle, and
    polish again, until the answer is certified. coef and u_fine are
    the row's as (1, modes) and (1, n_fine), c and r are v's."""
    c, r, theta, lam = c[None], np.array([r]), theta[None], lam[None]
    tols = np.array([tol])
    for _ in range(_MAX_ROUNDS):
        c, r, theta, lam, done = _kkt_polish(coef, sign, c, r, theta, lam, tols)
        if not done[0]:
            raise RuntimeError(f"KKT polish did not converge in {_MAX_NEWTON} steps")
        slack = _slack(u_fine, sign, r, c)[0]
        j = int(slack.argmin())
        if lam.min() < 0.0:
            keep = np.arange(lam.size) != lam.argmin()
            theta, lam = theta[:, keep], lam[:, keep]
        elif slack[j] < -tol:
            theta = np.append(theta, AngularGrid(slack.size).theta[j])[None]
            lam = np.append(lam, 0.0)[None]
        else:
            return TouchingCircle(sign * float(r[0]), sign * c[0], theta[0], lam[0])
    raise RuntimeError(
        f"no certificate after {_MAX_ROUNDS} active-set rounds (weights "
        f"{np.array2string(lam[0], precision=3)}, a resample point "
        f"{-slack[j]:.3e} across the circle)"
    )


def _max_min(
    coef: np.ndarray,
    sign: float,
    u_fine: np.ndarray,
    u2_fine: np.ndarray,
    tol: float,
    start: TouchingCircle | None,
) -> TouchingCircle:
    """The circle of max over c of min over theta of the interpolant of
    v minus c.N, for v = sign * u on one row.

    coef is the rfft of the row's u (see `_kkt_polish`); u_fine and
    u2_fine are its u and u'' on the resample, each as one row. A start
    is the same circle of a nearby u: its contacts replace the exchange,
    and if they lead to no certificate the exchange runs after all.
    """
    tols = np.array([tol])
    if start is not None and not _flat(u2_fine, start.center, tols)[0]:
        try:
            return _active_set(
                coef, sign, u_fine, tol,
                sign * start.center, sign * start.radius, start.theta, start.weights,
            )
        except (RuntimeError, np.linalg.LinAlgError):
            pass  # the start led to no certificate: solve without it
    basis, lam, y = _exchange(sign * u_fine[0], tol)
    center, radius = sign * y[1:], sign * float(y[0])
    if _flat(u2_fine, center, tols)[0]:
        held = lam > 0.0
        theta = AngularGrid(u_fine.shape[-1]).theta
        return TouchingCircle(radius, center, theta[basis[held]], lam[held])
    theta, lam = _contacts(basis, lam, u_fine.shape[-1])
    return _active_set(coef, sign, u_fine, tol, y[1:], float(y[0]), theta, lam)


def _polish_from(
    coef: np.ndarray, sign: float, tol: np.ndarray, start: TouchingCircle
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of coef polished at once from one circle of u: v's (c, r,
    theta, lam, done), one row each (see `_kkt_polish`)."""
    b = coef.shape[0]
    return _kkt_polish(
        coef,
        sign,
        np.tile(sign * start.center, (b, 1)),
        np.full(b, sign * float(start.radius)),
        np.tile(start.theta, (b, 1)),
        np.tile(start.weights, (b, 1)),
        tol,
    )


def _certified(
    u_fine: np.ndarray,
    sign: float,
    tol: np.ndarray,
    polished: tuple[np.ndarray, ...],
) -> list[TouchingCircle | None]:
    """The polished rows whose weights are >= 0 and whose circle no
    resample point crosses, as circles of u; None for the others."""
    c, r, theta, lam, done = polished
    ok = done & (lam.min(axis=-1) >= 0.0)
    ok &= _slack(u_fine, sign, r, c).min(axis=-1) >= -tol
    radius, center = (sign * r).tolist(), sign * c
    return [
        TouchingCircle(radius[i], center[i], theta[i], lam[i]) if ok[i] else None
        for i in range(len(ok))
    ]


def inradius_outradius(
    kp: CurvatureProfile,
    u: np.ndarray | None = None,
    start: tuple[TouchingCircle, TouchingCircle] | None = None,
) -> (
    tuple[TouchingCircle, TouchingCircle]
    | list[tuple[TouchingCircle, TouchingCircle]]
):
    """Largest inscribed and smallest circumscribed circle, certified.

    Both are exact for the trigonometric interpolant of the support
    function: an exchange on a 4x resample finds the touching samples,
    and Newton on the optimality conditions moves them onto the true
    contacts. Each answer is certified (nonnegative contact weights
    whose normals balance, no resample point inside the inscribed circle
    or outside the circumscribed one); an uncertified answer raises.

    Callers that already hold the centroid support samples pass them as
    `u`: one profile's (n,) samples give one (inner, outer) pair, and a
    (B, n) block of rows, which only the caller can supply, gives a list
    of one pair per row. `start` is the pair returned for a nearby curve,
    such as the previous sample of a run, and every row of a block starts
    Newton at its contacts: all rows at once, with one rfft for the
    block and one stacked solve per Newton iteration. Without a start the
    first row is solved cold and starts the others. A row that is flat
    at the start's center, or whose polish does not converge or is not
    certified, is solved alone from the row before it, where the exchange
    runs if that start yields no certificate.
    """
    if u is None:
        u, _ = support_about_centroid(kp)
    rows = np.atleast_2d(u)
    b, n = rows.shape
    n_fine = _OVERSAMPLE * n
    U = np.fft.rfft(rows)
    U2 = deriv_spectrum(U, 2)
    # u on the resample sets the tolerance now and the certificates after
    # the polish. Neither it nor u'' is held through the polish, whose
    # temporaries come on top: a (B, n_fine) array is four times a
    # block's (B, n) rows, and the collector's block memory is pinned
    u_fine = resample_spectrum(U, n, n_fine)
    tol = _RADIUS_RTOL * np.maximum(u_fine.max(axis=-1), -u_fine.min(axis=-1))
    del u_fine

    def alone(i: int, sign: float, start: TouchingCircle | None) -> TouchingCircle:
        row = slice(i, i + 1)
        u_fine = resample_spectrum(U[row], n, n_fine)
        u2_fine = resample_spectrum(U2[row], n, n_fine)
        try:
            return _max_min(U[row], sign, u_fine, u2_fine, tol[i], start)
        except RuntimeError as exc:
            label = "inradius" if sign > 0.0 else "outradius"
            raise RuntimeError(f"{label}: {exc}") from exc

    first = 0
    if start is None:
        start = tuple(alone(0, sign, None) for sign in _SIGNS)
        if b == 1:
            return [start] if np.ndim(u) == 2 else start
        first = 1
    # the rows still to solve, but for those flat at a start's center
    # (see `_flat`), are polished from it at once and certified
    rest = slice(first, b)
    u2_fine = resample_spectrum(U2[rest], n, n_fine)
    tried = [
        first + np.flatnonzero(~_flat(u2_fine, s.center, tol[rest])) for s in start
    ]
    del u2_fine
    polished = [
        _polish_from(U[ix], sign, tol[ix], s) if ix.size else None
        for sign, s, ix in zip(_SIGNS, start, tried)
    ]
    u_fine = resample_spectrum(U[rest], n, n_fine)
    solved = []
    for sign, s, ix, p in zip(_SIGNS, start, tried, polished):
        circles = [s] * first + [None] * (b - first)
        if p is not None:
            certified = _certified(u_fine[ix - first], sign, tol[ix], p)
            for row, circle in zip(ix.tolist(), certified):
                circles[row] = circle
        for row in range(first, b):
            if circles[row] is None:
                circles[row] = alone(row, sign, circles[row - 1] if row else s)
        solved.append(circles)
    pairs = list(zip(*solved))
    return pairs if np.ndim(u) == 2 else pairs[0]


def bonnesen_sigma(I: float) -> float:
    """sigma(I) = (sqrt(I) + sqrt(I - 1))^2, the Bonnesen radius ratio bound."""
    if I < 1.0 - 1e-10:
        raise DomainError(f"isoperimetric ratio must be >= 1, got {I}")
    I = max(I, 1.0)
    return (math.sqrt(I) + math.sqrt(I - 1.0)) ** 2


def isoperimetric_ratio(kp: CurvatureProfile) -> float:
    L = length(kp)
    return L * L / (4.0 * math.pi * area(kp))

