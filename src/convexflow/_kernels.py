"""The hot advance loop: adaptive RK4 with the operator applied spectrally.

Each stage evaluates k_t = k^2 ((d^2/dtheta^2 + 1) k^alpha - lambda) with
one real FFT forward and one back. The forward transform V of v = k^alpha
is multiplied by the symbol 1 - m^2 of (d^2 + 1), which keeps the Nyquist
bin with the real symbol as `spectral.deriv_values` does; lambda enters
mode 0 before the inverse. lambda is `laws.nonlocal_lambda` of the
quadratures the law reads, each computed only where it is read: the
quadrature of v is dtheta * V[0]; AP, G1 and G2 read w = 1/k; G1 and G2
transform (v, w) together, so the length is dtheta * W[0] and the area is
`geometry.parseval_area` of W.

The loop never writes the array it is given; the returned array is the
new state.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import parseval_area
from .laws import FlowKind, nonlocal_lambda
from .spectral import TWO_PI, _grid_arrays

# The gufuncs behind np.fft.rfft and np.fft.irfft, called as (x, fct, out=)
# with fct the normalisation the wrappers pass: 1 forward, 1/n back. Called
# directly they skip argument handling that costs as much as an n = 128
# transform, with bit-identical results (tests/test_stepping.py checks).
# rfft_n_even needs even n, which every AngularGrid has.
try:
    from numpy.fft._pocketfft_umath import irfft as _irfft
    from numpy.fft._pocketfft_umath import rfft_n_even as _rfft
except ImportError:  # pragma: no cover - a numpy without that module

    def _rfft(x, fct, out):
        return np.fft.rfft(x, axis=-1, out=out)

    def _irfft(x, fct, out):
        return np.fft.irfft(x, out.shape[-1], out=out)


# status codes returned by advance
STATUS_OK = 0
STATUS_BUDGET = 1
STATUS_CONVEXITY = 2
STATUS_BLOWUP = 3
STATUS_NONFINITE = 4


@lru_cache(maxsize=32)
def _symbol(n: int) -> np.ndarray:
    """Symbol 1 - m^2 of d^2 + 1, per rfft bin."""
    m = np.arange(n // 2 + 1, dtype=np.float64)
    lin = 1.0 - m * m
    lin.setflags(write=False)
    return lin


class Derivative:
    """Right-hand side of one law on an n-point grid, with its own buffers.

    Calling it writes k_t into `out` and returns the quadrature of k^alpha.
    Buffers are per instance, so concurrent runs never share one.
    """

    def __init__(self, n: int, alpha: float, kind: FlowKind):
        self.n = n
        self.inv_n = 1.0 / n
        self.dtheta = TWO_PI / n
        self.alpha = alpha
        self.lin = _symbol(n)
        self.kind = kind
        # the quadratures lambda reads beyond that of v (see nonlocal_lambda):
        # G1 and G2 transform the rows v = k^alpha and w = 1/k together for
        # L and A, AP sums w, AP and G2 integrate v w
        self.stacked = kind in (FlowKind.G1, FlowKind.G2)
        self.reads_w = self.stacked or kind is FlowKind.AP
        self.reads_vw = kind in (FlowKind.AP, FlowKind.G2)
        self.fields = np.empty((2, n))
        self.w = self.fields[1]
        self.spectra = np.empty((2, n // 2 + 1), dtype=complex)
        self.V, self.W = self.spectra
        # the bins as (re, im) pairs, so mode 0 reads and writes as a float
        self.pairs = self.spectra.view(np.float64)
        self.Vf = self.pairs[0]
        self.bracket = np.empty(n)

    def length_area(self) -> tuple[float, float]:
        """(L, A) of the curve whose 1/k the last call transformed (G1, G2)."""
        return self.dtheta * self.pairs[1, 0], parseval_area(self.W)

    def __call__(self, k: np.ndarray, out: np.ndarray) -> float:
        v = k if self.alpha == 1.0 else np.exp(self.alpha * np.log(k))
        w = self.w
        L = A = vw = math.nan
        if self.reads_w:
            np.divide(1.0, k, out=w)
        if self.stacked:
            self.fields[0] = v
            _rfft(self.fields, 1.0, out=self.spectra)
            L, A = self.length_area()
        else:
            _rfft(v, 1.0, out=self.V)
            if self.reads_w:
                L = self.dtheta * w.sum()
        if self.reads_vw:
            vw = self.dtheta * float(np.dot(v, w))
        Vf = self.Vf
        q = self.dtheta * Vf[0]
        lam = nonlocal_lambda(self.kind, q, vw, L, A)
        # (d^2 + 1) v - lambda, then k^2 times it
        V = self.V
        V *= self.lin
        Vf[0] -= self.n * lam
        _irfft(V, self.inv_n, out=self.bracket)
        np.multiply(k, self.bracket, out=out)
        out *= k
        return q


def _guard(kmin: float, kmax: float, blowup_k: float) -> int:
    """Status of a state from its extrema. A NaN anywhere makes both NaN,
    +inf reaches the max and -inf the min, so no separate scan is needed."""
    if not (-np.inf < kmin and kmax < np.inf):
        return STATUS_NONFINITE
    if kmin <= 0.0:
        return STATUS_CONVEXITY
    if kmax >= blowup_k:
        return STATUS_BLOWUP
    return STATUS_OK


def advance(k, s_accum, span, alpha, kind, safety, dt_min, dt_max, blowup_k,
            project, step_budget):
    """Advance curvature samples by `span` with adaptive RK4.

    Returns (k, s_accum, t_local, steps, status). The state is guarded on
    entry and after every step; on a guard trip the returned state is the
    last good one and t_local is how far it got. s_accum integrates the
    quadrature of k^alpha over time (feeds the lower-bound functional).
    """
    n = k.shape[0]
    kmax = k.max()
    status = _guard(k.min(), kmax, blowup_k)
    if status != STATUS_OK:
        return k, s_accum, 0.0, 0, status
    dtheta = TWO_PI / n
    rhs = Derivative(n, alpha, kind)
    _, cos_t, sin_t = _grid_arrays(n)
    f = np.empty(n)
    ks = np.empty(n)
    f_acc = np.empty(n)
    t_local = 0.0
    steps = 0
    while t_local < span:
        if steps >= step_budget:
            return k, s_accum, t_local, steps, STATUS_BUDGET
        dt = safety * dtheta * dtheta / (alpha * kmax ** (alpha + 1.0))
        if dt < dt_min:
            dt = dt_min
        if dt > dt_max:
            dt = dt_max
        rem = span - t_local
        last = rem <= dt
        if last:
            dt = rem

        # classical RK4; each stage state feeds the next, lambda recomputed
        q_acc = rhs(k, f)
        f_acc[:] = f
        for stage in (1, 2, 3):
            np.multiply(f, dt if stage == 3 else 0.5 * dt, out=ks)
            ks += k
            if ks.min() <= 0.0:
                return k, s_accum, t_local, steps, STATUS_CONVEXITY
            q = rhs(ks, f)
            if stage == 3:
                f_acc += f
                q_acc += q
            else:
                f_acc += 2.0 * f
                q_acc += 2.0 * q

        f_acc *= dt / 6.0
        k_new = f_acc + k
        kmax_new = k_new.max()
        status = _guard(k_new.min(), kmax_new, blowup_k)
        if status != STATUS_OK:
            return k, s_accum, t_local, steps, status

        if project:
            # re-close: strip the first Fourier harmonic of 1/k
            w = 1.0 / k_new
            c1 = (2.0 / n) * (w * cos_t).sum()
            s1 = (2.0 / n) * (w * sin_t).sum()
            w = w - c1 * cos_t - s1 * sin_t
            wmin = w.min()
            if wmin <= 0.0:
                return k, s_accum, t_local, steps, STATUS_CONVEXITY
            k_new = 1.0 / w
            kmax_new = 1.0 / wmin

        k = k_new
        kmax = kmax_new
        s_accum = s_accum + (dt / 6.0) * q_acc
        steps += 1
        if last:
            t_local = span
        else:
            t_local = t_local + dt
    return k, s_accum, t_local, steps, STATUS_OK
