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
    _cell_bound,
    _derivative_weights,
    _mode_sums,
    _refined_max,
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
    gives alone, and one profile gives a numpy scalar. What they share
    is formed once, on first use, and kept here: 1/k and its rfft, the
    support function about the centroid, and k^alpha with its rfft and
    integrals for each alpha that is asked for.
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

    @cached_property
    def support(self) -> tuple[np.ndarray, tuple, np.ndarray]:
        """(u, center, U): the support samples about the area centroid,
        that centroid and the rfft of u, from one `_support_pipeline` call
        (u and U read-only). One profile must be closed; a block is read
        unchecked."""
        if self.k.ndim == 1:
            _require_closed(self, "support_about_centroid")
        u, center = _support_pipeline(self)
        # the centroid of a convex region is interior, so u > 0 must hold
        assert self.k.ndim == 2 or u.min() > 0.0, "support about centroid not positive"
        U = np.fft.rfft(u)
        for a in (u, U):
            a.setflags(write=False)
        return u, center, U

    @cached_property
    def powers(self) -> dict:
        """k^alpha with its rfft and integrals, by alpha, each formed once
        by `laws.integrals`."""
        return {}


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


def _centroid(kp: CurvatureProfile, x: np.ndarray, y: np.ndarray) -> tuple:
    """The area centroid (cx, cy) from the points x, y of `_nodes`:
    (integral of x^2 dy, -integral of y^2 dx) / 2A, with dx = -sin w
    dtheta, dy = cos w dtheta and A the `parseval_area`."""
    twice_area = 2.0 * parseval_area(kp.W)
    cx = integrate_values(x * x * kp.grid.cos * kp.w) / twice_area
    cy = integrate_values(y * y * kp.grid.sin * kp.w) / twice_area
    return cx, cy


def _support_pipeline(kp: CurvatureProfile) -> tuple[np.ndarray, tuple]:
    """Reconstruct, find the area centroid, return (u, center); for a
    block, u holds one row per profile and center one (cx, cy) array pair."""
    x, y, _, _ = _nodes(kp)
    cx, cy = _centroid(kp, x, y)
    cos, sin = kp.grid.cos, kp.grid.sin
    u = (x - np.expand_dims(cx, -1)) * cos + (y - np.expand_dims(cy, -1)) * sin
    return u, (cx, cy)


def points_about_centroid(kp: CurvatureProfile) -> np.ndarray:
    """`reconstruct_points` of a closed curve, moved so that its area
    centroid is at the origin, from one reconstruction."""
    _require_closed(kp, "points_about_centroid")
    pts = reconstruct_points(kp)
    return pts - np.asarray(_centroid(kp, pts[:-1, 0], pts[:-1, 1]))


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
    area = np.repeat(_derivative_weights(n // 2 + 1)[0] * solve, 2)
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
    centroid of a closed curve (`CurvatureProfile.support`, read-only)."""
    _require_closed(kp, "support_about_centroid")
    return kp.support[:2]


# The inradius is the linear program max r subject to v(theta) - c.N(theta)
# >= r for every theta, over the center offset c from the centroid, for
# v = u: the inscribed circle of v, which `_circles` solves. The outradius
# is the same program for v = -u, whose inscribed circle (r, c) is the
# circumscribed circle (-r, -c) of u. Each is seeded by an exchange on the
# _OVERSAMPLE-fold resample, the only resample left, or by the contacts
# of a nearby curve, polished by Newton on the KKT system of the
# trigonometric interpolant, and certified by that interpolant's exact
# extremum (`_crossing`).
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
    can enlarge an inscribed (or shrink a circumscribed) circle. A circle
    with no certificate has a NaN radius and center and no contacts.
    """

    radius: float
    center: np.ndarray
    theta: np.ndarray
    weights: np.ndarray


def _with_center(coef: np.ndarray, center: np.ndarray) -> np.ndarray:
    """The rfft of the interpolant with rfft `coef` (rows, modes) plus
    center.N, center (2,) or one per row (a new array): over n samples,
    cos and sin have n/2 and -i n/2 in bin 1."""
    out = coef.copy()
    out[:, 1] += (coef.shape[-1] - 1) * (center[..., 0] - 1j * center[..., 1])
    return out


def _flat(V2: np.ndarray, center: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Rows on which v - center.N is flat up to tol between resample
    points, from the rfft V2 of v'', one row each.

    Between resample points f = v - c.N dips at most max|f''| h^2/8 below
    them, and the optimum lies within that dip of the discrete one. Where
    it is below tol (near-circles, whose f is flat up to round-off) the
    discrete answer is exact and there is no well-posed contact to
    polish. |f''| = |v'' + c.N|, and the mode sum of its spectrum bounds
    it.
    """
    n_fine = _OVERSAMPLE * 2 * (V2.shape[-1] - 1)
    dip = _mode_sums(_with_center(V2, center), 0)
    return dip * (TWO_PI / n_fine) ** 2 / 8.0 <= tol


def _crossing(V, c, r, theta, tol) -> tuple[np.ndarray, np.ndarray]:
    """(crossed, angle): the rows whose inscribed circle (r, c) the
    interpolant of v, with rfft V, crosses by more than tol, and where it
    crosses most: where g = c.N - v exceeds tol - r, by its exact maximum
    (`spectral._refined_max`). That leaves out the cells whose
    `_cell_bound` stays below tol - r, and the two cells next to the node
    nearest each contact theta: a settled contact is the maximum of the
    cell that holds it, within tol, and with one extremum to a cell, as
    `_refined_max` reads a resolved interpolant, the other cell's maximum
    is at its end next to the contact, and no higher."""
    rows, modes = V.shape
    n = 2 * (modes - 1)
    G = _with_center(-V, c)
    spectra = np.stack([G, deriv_spectrum(G, 1), deriv_spectrum(G, 2)])
    g, *slopes = np.fft.irfft(spectra, n)
    level = tol - r
    excess = _cell_bound(g, *slopes, _mode_sums(G, 3))
    excess -= level[:, None]
    node = np.rint(np.mod(theta, TWO_PI) * (n / TWO_PI)).astype(np.intp)
    excess[np.arange(rows)[:, None], node - 1] = -np.inf
    excess[np.arange(rows)[:, None], node % n] = -np.inf
    if not (excess > 0.0).any():
        return np.zeros(rows, dtype=bool), np.zeros(rows)
    top, at = _refined_max(
        g, slopes, excess, lambda i, th: interpolant_derivatives(G, th, i)
    )
    return top > level, at


def _ratio_test(lam: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The ratios of a simplex pivot along the last axis: lam / step where
    step > 0, inf elsewhere. As the entering contact gains weight t, the
    weights lam - t step stay >= 0 up to the least ratio, where the one
    at its index reaches 0 and leaves."""
    ratio = np.full(lam.shape, np.inf)
    np.divide(lam, step, out=ratio, where=step > 0.0)
    return ratio


def _exchange(
    v: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Discrete max-min over the samples by a three-point exchange.

    A dual simplex on max r s.t. r + c.N_j <= v_j: the basis is three
    samples whose normals hold the origin in their convex hull (weights
    lam >= 0), and the most violated sample enters in place of the one
    `_ratio_test` removes. Returns (basis, lam, (r, cx, cy)), or None if
    it does not settle in _MAX_PIVOTS pivots.
    """
    m = v.size
    fine = AngularGrid(m)
    cols = np.stack([np.ones(m), fine.cos, fine.sin])
    basis = np.array([0, m // 3, 2 * m // 3])
    for _ in range(_MAX_PIVOTS):
        inv = np.linalg.inv(cols[:, basis])
        y = v[basis] @ inv
        slack = v - y @ cols
        j = int(slack.argmin())
        lam = inv[:, 0]
        if slack[j] >= -tol:
            return basis, lam, y
        basis[_ratio_test(lam, inv @ cols[:, j]).argmin()] = j
    return None


def _enter(
    theta: np.ndarray, lam: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The contacts (theta, lam) of each row once the angle `at` enters.
    Among three, it takes the place of the one `_ratio_test` picks, as in
    `_exchange`, and the weights move with that pivot, so they stay >= 0
    and balanced. Otherwise, or with two contacts at one angle, it is
    added with weight 0."""
    if theta.shape[1] == 3:
        def columns(th):
            return np.stack([np.ones_like(th), np.cos(th), np.sin(th)], -2)
        try:
            # some step is positive: the first row of the basis is ones
            step = np.linalg.solve(columns(theta), columns(at[:, None]))[..., 0]
        except np.linalg.LinAlgError:
            pass
        else:
            ratio = _ratio_test(lam, step)
            out = ratio.argmin(-1)[:, None]
            t = np.take_along_axis(ratio, out, -1)
            lam, theta = lam - t * step, theta.copy()
            np.put_along_axis(lam, out, t, -1)
            np.put_along_axis(theta, out, at[:, None], -1)
            return theta, lam
    return np.column_stack([theta, at]), np.column_stack([lam, np.zeros(at.size)])


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
    r: np.ndarray,
    theta: np.ndarray,
    lam: np.ndarray,
    tol: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Newton on the KKT system of max-min of the interpolant f_c = v - c.N,
    for rows of one contact count at once.

    coef holds the rfft of each row of v (rows, modes), whose interpolant
    `spectral.interpolant_derivatives` evaluates. Per row the unknowns
    are c (rows, 2), r (rows,), and theta_i and lam_i (rows, k); the
    equations f_c(theta_i) = r, f_c'(theta_i) = 0, sum lam_i N(theta_i)
    = 0 and sum lam_i = 1 are square for any number of contacts. A
    contact counts as settled once the quadratic model leaves less than
    tol of descent, f'^2 <= 2 tol |f''|, which also holds where the
    interpolant is flat and its stationary point is ill-determined. A
    row that passes is frozen, so its iterates do not depend on the
    other rows.

    The rows' systems are stacked into one `np.linalg.solve`; a row whose
    system is singular or whose step is not finite is left undone, and
    the others step on. Returns the new (c, r, theta, lam) and `done`,
    the rows that passed the test.
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
        v0, v1, v2, _ = interpolant_derivatives(
            coef, th.ravel(), np.repeat(todo, k)
        ).reshape(4, todo.size, k)
        cos, sin = np.cos(th), np.sin(th)
        gap = v0 - cx * cos - cy * sin - rr
        f1 = v1 + cx * sin - cy * cos
        f2 = v2 + cx * cos + cy * sin
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
            # LU meets the same zero pivot when it counts the determinant
            keep = np.linalg.slogdet(J)[0] != 0.0
            todo, J, F = todo[keep], J[keep], F[keep]
            step = np.linalg.solve(J, -F[..., None])[..., 0]
        if not np.isfinite(step).all():
            keep = np.isfinite(step).all(-1)
            todo, step = todo[keep], step[keep]
        c[todo] += step[:, :2]
        r[todo] += step[:, 2]
        theta[todo] += step[:, 3 : 3 + k]
        lam[todo] += step[:, 3 + k :]
    return c, r, theta, lam, done


def _circles(
    V: np.ndarray, tol: np.ndarray, start: TouchingCircle | None
) -> list[TouchingCircle]:
    """The inscribed circle of each row of v: the circle of max over c of
    min over theta of the interpolant of v minus c.N.

    V is the rfft of the rows of v (rows, modes), tol the rows' radius
    tolerances, start the circle of a nearby v; without one, row 0 is
    solved from the exchange and starts the others. A row not flat at the
    start's center (see `_flat`) starts Newton at its contacts; any other
    starts from the exchange, whose answer is final where it is flat.
    Each round, the rows of one contact count take one stacked
    `_kkt_polish`: a row whose weights turn negative drops its lightest
    contact, a row that the interpolant crosses (`_crossing`) takes the
    angle where it crosses most as a contact (`_enter`), and the others
    are certified. A row whose polish fails, or with no certificate after
    _MAX_ROUNDS rounds, falls back a stage: from the start to the start
    without its lightest contact, if it has more than two, then to the
    exchange. A row with no stage left, or whose exchange does not
    settle, is a NaN circle.
    """
    b = V.shape[0]
    if start is None and b > 1:
        first = _circles(V[:1], tol[:1], None)
        return first + _circles(V[1:], tol[1:], first[0])
    n = 2 * (V.shape[-1] - 1)
    n_fine = _OVERSAMPLE * n
    V2 = deriv_spectrum(V, 2)
    circles: list[TouchingCircle | None] = [None] * b
    # rows in Newton as parts (rows, c, r, theta, lam, stages left, rounds
    # left) of one contact count
    live = []

    def begin(rows: np.ndarray, circle: TouchingCircle, stages: int):
        g = rows.size
        c, theta, lam = (
            np.tile(a, (g, 1)) for a in (circle.center, circle.theta, circle.weights)
        )
        return (rows, c, np.full(g, circle.radius), theta, lam,
                np.full(g, stages), np.full(g, _MAX_ROUNDS))

    cold = np.arange(b)
    if start is not None and math.isfinite(start.radius):
        flat = _flat(V2, start.center, tol)
        cold = np.flatnonzero(flat)
        if not flat.all():
            stages = 1 + (start.theta.size > 2)
            live.append(begin(np.flatnonzero(~flat), start, stages))
    while True:
        if cold.size:
            v_fine = resample_spectrum(V[cold], n, n_fine)
            for row, v in zip(cold.tolist(), v_fine):
                solved = _exchange(v, tol[row])
                if solved is None:
                    continue
                basis, lam, y = solved
                center, radius = y[1:], float(y[0])
                if _flat(V2[row : row + 1], center, tol[row : row + 1])[0]:
                    held = lam > 0.0
                    theta = AngularGrid(n_fine).theta[basis[held]]
                    circles[row] = TouchingCircle(radius, center, theta, lam[held])
                else:
                    contacts = _contacts(basis, lam, n_fine)
                    circle = TouchingCircle(radius, center, *contacts)
                    live.append(begin(np.array([row]), circle, 0))
            del v_fine
        if not live:
            break
        groups = {}
        for part in live:
            groups.setdefault(part[3].shape[1], []).append(part)
        live, cold = [], [np.arange(0)]
        for k, parts in sorted(groups.items()):
            rows, c, r, theta, lam, stages, rounds = (
                np.concatenate(a) if len(a) > 1 else a[0] for a in zip(*parts)
            )
            rounds = rounds - 1
            c, r, theta, lam, done = _kkt_polish(V[rows], c, r, theta, lam, tol[rows])
            negative = lam.min(axis=-1) < 0.0
            crossed, at = np.zeros(rows.size, dtype=bool), np.zeros(rows.size)
            held = np.flatnonzero(done & ~negative)
            if held.size:
                crossed[held], at[held] = _crossing(
                    V[rows[held]], c[held], r[held], theta[held], tol[rows[held]]
                )
            ok = done & ~negative & ~crossed
            radius = r.tolist()
            for j in np.flatnonzero(ok).tolist():
                circles[rows[j]] = TouchingCircle(radius[j], c[j], theta[j], lam[j])
            if ok.all():
                continue
            failed = ~done | (~ok & (rounds == 0))
            drop = np.flatnonzero(negative & ~failed)
            heavy = np.arange(k) != lam[drop].argmin(axis=-1)[:, None]
            add = np.flatnonzero(crossed & ~negative & ~failed)
            for j, th, lm in (
                (drop, theta[drop][heavy].reshape(drop.size, k - 1),
                 lam[drop][heavy].reshape(drop.size, k - 1)),
                (add, *_enter(theta[add], lam[add], at[add])),
            ):
                if j.size:
                    live.append((rows[j], c[j], r[j], th, lm, stages[j], rounds[j]))
            retry = failed & (stages == 2)
            if retry.any():
                keep = np.arange(start.theta.size) != start.weights.argmin()
                lighter = TouchingCircle(
                    start.radius, start.center, start.theta[keep], start.weights[keep]
                )
                live.append(begin(rows[retry], lighter, 1))
            cold.append(rows[failed & (stages == 1)])
        cold = np.concatenate(cold)
    nan = TouchingCircle(math.nan, np.full(2, math.nan), np.empty(0), np.empty(0))
    return [nan if circle is None else circle for circle in circles]


def inradius_outradius(
    kp: CurvatureProfile,
    start: tuple[TouchingCircle, TouchingCircle] | None = None,
) -> (
    tuple[TouchingCircle, TouchingCircle]
    | list[tuple[TouchingCircle, TouchingCircle]]
):
    """Largest inscribed and smallest circumscribed circle, certified.

    Both are exact for the trigonometric interpolant of the support
    function: an exchange on a 4x resample finds the touching samples,
    and Newton on the optimality conditions moves them onto the true
    contacts. Each answer is certified: its contact weights are
    nonnegative and their normals balance, and the exact extremum of the
    interpolant, found between the samples too, lies nowhere inside the
    inscribed circle or outside the circumscribed one by more than the
    radius tolerance. A circle for which no certificate is found has a
    NaN radius and center and no contacts.

    One profile, which must be closed, gives one (inner, outer) pair, and
    a (B, n) block, read unchecked, a list of one pair per row; both read
    the support function kept on the profile (`CurvatureProfile.support`).
    `start` is the pair returned for a nearby curve, such as the previous
    sample of a run, and every row of a block starts Newton at its
    contacts: all rows at once, with one stacked solve per Newton
    iteration. Without a start the first row is solved cold and starts
    the others. Each circle is one batched active-set loop over all rows,
    `_circles`, which also says what a row does when its start leads to
    no certificate. It solves inscribed circles: of u for the inradius,
    and of -u for the outradius, whose radius and center are negated here.
    """
    u, _, U = kp.support
    rows, U = np.atleast_2d(u, U)
    tol = _RADIUS_RTOL * np.maximum(rows.max(axis=-1), -rows.min(axis=-1))

    def negated(c: TouchingCircle) -> TouchingCircle:
        return TouchingCircle(-c.radius, -c.center, c.theta, c.weights)

    inner = _circles(U, tol, None if start is None else start[0])
    outer = _circles(-U, tol, None if start is None else negated(start[1]))
    pairs = [(i, negated(o)) for i, o in zip(inner, outer)]
    return pairs if kp.k.ndim == 2 else pairs[0]


def bonnesen_sigma(I: float) -> float:
    """sigma(I) = (sqrt(I) + sqrt(I - 1))^2, the Bonnesen radius ratio bound."""
    if I < 1.0 - 1e-10:
        raise DomainError(f"isoperimetric ratio must be >= 1, got {I}")
    I = max(I, 1.0)
    return (math.sqrt(I) + math.sqrt(I - 1.0)) ** 2


def isoperimetric_ratio(kp: CurvatureProfile) -> float:
    L = length(kp)
    return L * L / (4.0 * math.pi * area(kp))

