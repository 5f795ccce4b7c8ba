"""Independent reference computations used to pin test expectations.

Every function here recomputes a quantity by a route disjoint from the
library implementation: closed forms, adaptive quadrature in the parametric
angle, dense finite-difference stencils, dense trigonometric resamples
with a parabola through the largest sample, the support identity
u'' + u = 1/k, and the curvature form
k_t = k^2 ((k^a)'' + k^a - lambda) of the flow, which the stepping kernel
takes in its radius-of-curvature form instead. Tests compare two
derivations instead of comparing the code against itself, so the closed
forms that the library also needs (the ellipse curvature in `generators`,
Bonnesen's window in `diagnostics`) keep their own copies here.
"""

from __future__ import annotations

import math

import numpy as np

from convexflow.geometry import CurvatureProfile, support_about_centroid
from convexflow.laws import FlowLaw, lambda_value
from convexflow.spectral import TWO_PI, deriv_values, resample_spectrum


def power(k: np.ndarray, alpha) -> np.ndarray:
    """k^alpha as exp(alpha log k), from the curvature itself; the library
    forms it from the radius of curvature 1/k (`laws.power`)."""
    return np.exp(alpha * np.log(k))


def ellipse_perimeter(a: float, b: float) -> float:
    """Arc length by adaptive quadrature over the parametric angle."""
    from scipy.integrate import quad  # lazy: only the scipy oracles load scipy

    val, err = quad(
        lambda p: math.hypot(a * math.sin(p), b * math.cos(p)),
        0.0,
        TWO_PI,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    if err > 1e-9:
        raise RuntimeError(f"perimeter quadrature error estimate {err:.2e}")
    return val


def ellipse_area(a: float, b: float) -> float:
    return math.pi * a * b


def support_polynomial_area(r0: float, modes) -> float:
    """Area of the PerturbedCircle u = r0 + sum of amp*cos(m*theta - phase)
    over its (m, amp, phase) modes, each m distinct, in closed form.

    A = (1/2) integral of u (u'' + u); the modes are orthogonal, so each
    adds (pi/2) (1 - m^2) amp^2 to the pi r0^2 of the circle.
    """
    return math.pi * r0 * r0 + 0.5 * math.pi * sum(
        (1 - m * m) * amp * amp for m, amp, _ in modes
    )


def ellipse_curvature(a: float, b: float, theta) -> np.ndarray:
    """Curvature at normal angle theta: (a^2 cos^2 + b^2 sin^2)^(3/2)/(a b)^2."""
    theta = np.asarray(theta, dtype=float)
    g = a * a * np.cos(theta) ** 2 + b * b * np.sin(theta) ** 2
    return g**1.5 / (a * a * b * b)


def ellipse_curvature_integral(a: float, b: float, alpha: float) -> float:
    """Integral of k^alpha over the normal angle by adaptive quadrature.

    Not the total turning: that is the arc-length integral of k. Averaging
    k^alpha in theta weights by curvature, so even alpha = 1 needs quadrature.
    """
    from scipy.integrate import quad

    val, err = quad(
        lambda th: float(ellipse_curvature(a, b, th)) ** alpha,
        0.0,
        TWO_PI,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    if err > 1e-9:
        raise RuntimeError(f"curvature quadrature error estimate {err:.2e}")
    return val


def ellipse_support(a: float, b: float, theta) -> np.ndarray:
    """Support function about the center at normal angle theta."""
    theta = np.asarray(theta, dtype=float)
    return np.sqrt(a * a * np.cos(theta) ** 2 + b * b * np.sin(theta) ** 2)


def ellipse_point(a: float, b: float, theta) -> np.ndarray:
    """Boundary point whose outward normal is (cos theta, sin theta)."""
    theta = np.asarray(theta, dtype=float)
    g = np.sqrt(a * a * np.cos(theta) ** 2 + b * b * np.sin(theta) ** 2)
    return np.stack([a * a * np.cos(theta) / g, b * b * np.sin(theta) / g], axis=-1)


def shrinking_circle_radius(r0: float, alpha: float, t: float) -> float:
    """Radius under pure k^alpha contraction, valid before extinction."""
    p = 1.0 + alpha
    inner = r0**p - p * t
    if inner <= 0.0:
        raise ValueError(f"t={t} is at or past extinction {extinction_time(r0, alpha)}")
    return inner ** (1.0 / p)


def extinction_time(r0: float, alpha: float) -> float:
    return r0 ** (1.0 + alpha) / (1.0 + alpha)


def affine_ellipse_scale(a0: float, b0: float, t):
    """a(t)/a0 = b(t)/b0 of the ellipse under affine curve shortening
    (Contraction at alpha = 1/3), which it shrinks homothetically with
    (ab)^(2/3)(t) = (a0 b0)^(2/3) - 4t/3 (Sapiro & Tannenbaum 1993):
    the integral of k^(alpha - 1) over the normal angle is 2 pi (ab)^(1/3)
    on every ellipse. Valid before the extinction time, `affine_ellipse_end`."""
    ab = (a0 * b0) ** (2.0 / 3.0) - 4.0 * np.asarray(t) / 3.0
    return ab ** 0.75 / math.sqrt(a0 * b0)


def affine_ellipse_end(a0: float, b0: float) -> float:
    """T* = (3/4)(a0 b0)^(2/3), where the affine flow shrinks the ellipse
    to a point."""
    return 0.75 * (a0 * b0) ** (2.0 / 3.0)


def integral_inv_two_plus_sin() -> float:
    """Closed form of the periodic integral of 1/(2+sin): 2*pi/sqrt(3)."""
    return TWO_PI / math.sqrt(3.0)


def fd_deriv_callable(f, theta, order: int, h: float) -> np.ndarray:
    """4th-order centered finite differences of a callable at points theta."""
    theta = np.asarray(theta, dtype=float)
    fm2, fm1, f0, fp1, fp2 = (f(theta + s * h) for s in (-2, -1, 0, 1, 2))
    if order == 1:
        return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    if order == 2:
        return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
    raise ValueError("order must be 1 or 2")


def perturbed_circle_rhs_at_zero(eps: float = 0.1) -> float:
    """Hand expansion of the LP right-hand side for k = 1 + eps*cos(2 theta),
    alpha = 1, evaluated at theta = 0.

    lambda is the plain average (= 1), k_thth(0) = -4 eps, k(0) = 1 + eps, so
    rhs = (1+eps)^2 (-4 eps + (1+eps) - 1) = -3 eps (1+eps)^2.
    """
    return -3.0 * eps * (1.0 + eps) ** 2


def gradient_functional_perturbed(eps: float) -> float:
    """max over theta of (1+eps cos)^2 + eps^2 sin^2 for alpha=1 is (1+eps)^2."""
    return (1.0 + eps) ** 2


def fourier_quadratic_core(values: np.ndarray) -> float:
    """Integral of phi*(phi'' + phi) assembled from DFT coefficients.

    Parseval gives 2*pi * sum_m w_m * (1 - m^2) * |c_m|^2 with c = rfft/n and
    w = 1 for the mean and Nyquist bins, 2 otherwise. A coefficient-space
    route with no differentiation, for cross-checking the grid evaluation.
    """
    n = values.size
    c = np.fft.rfft(np.asarray(values, dtype=float)) / n
    m = np.arange(c.size, dtype=float)
    w = np.full(c.size, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return TWO_PI * float(np.sum(w * (1.0 - m * m) * np.abs(c) ** 2))


def bonnesen_window(L, A):
    """(lo, hi) = (L -+ sqrt(L^2 - 4 pi A)) / 2 pi: Bonnesen's bounds on
    the inradius (lo <= r_in) and the outradius (r_out <= hi), for
    floats or arrays of L and A."""
    s = np.sqrt(np.maximum(L * L - 4.0 * math.pi * A, 0.0))
    return (L - s) / TWO_PI, (L + s) / TWO_PI


def tso_constants(A0: float, I0: float, alpha: float) -> dict[str, float]:
    """beta, sigma, T1, Q0 from the initial area and isoperimetric ratio."""
    sigma = (math.sqrt(I0) + math.sqrt(max(I0 - 1.0, 0.0))) ** 2
    root = math.sqrt(A0 / math.pi) / sigma
    beta = 0.5 ** ((2.0 + alpha) / (1.0 + alpha)) * root
    T1 = root ** (1.0 + alpha) / (2.0 + 2.0 * alpha)
    Q0 = (2.0 * (alpha + 1.0) / (alpha * beta ** (1.0 + 1.0 / alpha))) ** alpha
    return {"beta": beta, "sigma": sigma, "T1": T1, "Q0": Q0}


def linearized_decay_rate(alpha: float, k_inf: float) -> float:
    """Slowest linearized decay rate about the limit circle (mode 2):
    alpha*(m^2-1)*k^(alpha+1) with m = 2."""
    return 3.0 * alpha * k_inf ** (1.0 + alpha)


def phi_functions(z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi_1, phi_2, phi_3) of real z, elementwise, by the matrix
    exponential of the augmented matrix [[z, 1, 0, 0], [0, 0, 1, 0],
    [0, 0, 0, 1], [0, 0, 0, 0]], whose first row is
    (e^z, phi_1(z), phi_2(z), phi_3(z))."""
    from scipy.linalg import expm

    z = np.asarray(z, dtype=np.float64)
    aug = np.zeros(z.shape + (4, 4))
    aug[..., 0, 0] = z
    aug[..., 0, 1] = aug[..., 1, 2] = aug[..., 2, 3] = 1.0
    row = expm(aug)[..., 0, :]
    return row[..., 1], row[..., 2], row[..., 3]


def curvature_rhs(law: FlowLaw, kp: CurvatureProfile) -> np.ndarray:
    """Pointwise k_t = k^2 ((k^a)_thth + k^a - lambda); the stepping
    kernel's w-form rate is -k_t / k^2, and the tests compare the two."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = power(kp.k, law.alpha)
        lam = lambda_value(law, kp)
        rhs = kp.k * kp.k * (deriv_values(v, 2) + v - lam)
    if not np.all(np.isfinite(rhs)):
        raise FloatingPointError(
            f"curvature power overflow at k_max={kp.k.max():.6e}, "
            f"alpha={law.alpha}"
        )
    return rhs


def normal_speed(law: FlowLaw, kp: CurvatureProfile) -> np.ndarray:
    """k^alpha - lambda; positive where the curve moves inward."""
    v = power(kp.k, law.alpha)
    lam = lambda_value(law, kp)
    return v - lam


def resample_values(values: np.ndarray, n_fine: int) -> np.ndarray:
    """Trigonometric interpolation of samples onto a finer uniform grid."""
    return resample_spectrum(np.fft.rfft(values), values.shape[-1], n_fine)


def refined_extremum_values(values: np.ndarray, want_max: bool):
    """Grid extremum sharpened by a parabola through the three samples
    (`parabola_vertex`); of a dense resample, the tests' reference for
    the library's exact extrema of the interpolant."""
    n = values.shape[-1]
    j = values.argmax(axis=-1) if want_max else values.argmin(axis=-1)
    j = j[..., None]
    f0 = np.take_along_axis(values, j, -1)[..., 0]
    fm = np.take_along_axis(values, (j - 1) % n, -1)[..., 0]
    fp = np.take_along_axis(values, (j + 1) % n, -1)[..., 0]
    return parabola_vertex(fm, f0, fp)


def parabola_vertex(fm: np.ndarray, f0: np.ndarray, fp: np.ndarray):
    """The vertex value of the parabola through three equally spaced
    samples, f0 in the middle.

    The vertex correction is bounded by the local sample variation, so
    flat or noisy data cannot send it far from the middle sample.
    """
    curv = fp - 2.0 * f0 + fm
    flat = np.abs(curv) < 1e-14 * np.maximum(1.0, np.abs(f0))
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = f0 - (fp - fm) ** 2 / (8.0 * curv)
    return np.where(flat, f0, vertex)[()]


def support_identity_residual(kp: CurvatureProfile) -> float:
    """Max |u'' + u - 1/k| over the grid, u taken about the centroid."""
    u, _ = support_about_centroid(kp)
    return float(np.abs(deriv_values(u, 2) + u - kp.w).max())

