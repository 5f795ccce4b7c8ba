"""The hot advance loop: adaptive RK4 on the radius of curvature w = 1/k.

In w every law reads w_t = lambda - (d^2/dtheta^2 + 1) k^alpha. Each stage
evaluates it with one real FFT forward and one back: the forward transform
V of v = k^alpha is multiplied by m^2 - 1, the symbol of -(d^2 + 1), which
keeps the Nyquist bin with the real symbol as `spectral.deriv_values`
does, and lambda enters mode 0 before the inverse. lambda is
`laws.nonlocal_lambda` of the quadratures the law reads, each computed
only where it is read: the quadrature of v is dtheta * V[0]; AP, G1 and G2
read w itself; G1 and G2 transform (v, w) together, so the length is
dtheta * W[0] and the area is `geometry.parseval_area` of W.

The symbol vanishes at m = 1, so mode 1 of w_t is zero for every state,
and mode 0 is n (lambda - mean k^alpha), which is zero for LP. Closure
(mode 1 of w) and, under LP, the length L = dtheta * W[0] are therefore
linear invariants, which RK4 keeps to round-off.

`advance` takes and returns k and holds w only inside its loop. It never
writes the array it is given; the returned array is the new state.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import parseval_area
from .laws import FlowKind, nonlocal_lambda
from .spectral import TWO_PI

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
    """Symbol m^2 - 1 of -(d^2 + 1), per rfft bin."""
    m = np.arange(n // 2 + 1, dtype=np.float64)
    lin = m * m - 1.0
    lin.setflags(write=False)
    return lin


def step_bound(safety: float, dtheta: float, alpha: float, kmax: float) -> float:
    """safety * dtheta^2 / (alpha * kmax^(alpha + 1)): the parabolic
    stability bound of the stiffest mode. It is 0 once the power overflows,
    which `advance` reports as a non-finite state."""
    return safety * dtheta * dtheta / (alpha * kmax ** (alpha + 1.0))


class Derivative:
    """Right-hand side of one law on an n-point grid, with its own buffers.

    Calling it on w = 1/k writes w_t into `out` and returns the quadrature
    of k^alpha. Buffers are per instance, so concurrent runs never share one.
    """

    def __init__(self, n: int, alpha: float, kind: FlowKind):
        self.n = n
        self.inv_n = 1.0 / n
        self.dtheta = TWO_PI / n
        self.alpha = alpha
        self.lin = _symbol(n)
        self.kind = kind
        # the quadratures lambda reads beyond that of v (see nonlocal_lambda):
        # G1 and G2 transform the rows v = k^alpha and w together for L and
        # A, AP sums w, AP and G2 integrate v w
        self.stacked = kind in (FlowKind.G1, FlowKind.G2)
        self.reads_w = self.stacked or kind is FlowKind.AP
        self.reads_vw = kind in (FlowKind.AP, FlowKind.G2)
        self.fields = np.empty((2, n))
        self.v = self.fields[0]
        self.spectra = np.empty((2, n // 2 + 1), dtype=complex)
        self.V, self.W = self.spectra
        # the bins as (re, im) pairs, so mode 0 reads and writes as a float
        self.pairs = self.spectra.view(np.float64)
        self.Vf = self.pairs[0]

    def length_area(self) -> tuple[float, float]:
        """(L, A) of the curve whose w the last call transformed (G1, G2)."""
        return self.dtheta * self.pairs[1, 0], parseval_area(self.W)

    def __call__(self, w: np.ndarray, out: np.ndarray) -> float:
        v = self.v
        if self.alpha == 1.0:
            np.divide(1.0, w, out=v)
        else:
            np.log(w, out=v)
            v *= -self.alpha
            np.exp(v, out=v)
        L = A = vw = math.nan
        if self.stacked:
            self.fields[1] = w
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
        # lambda - (d^2 + 1) v
        V = self.V
        V *= self.lin
        Vf[0] += self.n * lam
        _irfft(V, self.inv_n, out=out)
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


def advance(k, s_accum, span, alpha, kind, safety, dt_max, blowup_k, step_budget):
    """Advance curvature samples by `span` with adaptive RK4 on w = 1/k.

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
    w = 1.0 / k
    f = np.empty(n)
    ws = np.empty(n)
    f_acc = np.empty(n)
    t_local = 0.0
    steps = 0
    while t_local < span:
        if steps >= step_budget:
            return 1.0 / w, s_accum, t_local, steps, STATUS_BUDGET
        dt = step_bound(safety, dtheta, alpha, kmax)
        if not dt > 0.0:
            return 1.0 / w, s_accum, t_local, steps, STATUS_NONFINITE
        if dt > dt_max:
            dt = dt_max
        rem = span - t_local
        last = rem <= dt
        if last:
            dt = rem

        # classical RK4; each stage state feeds the next, lambda recomputed
        q_acc = rhs(w, f)
        f_acc[:] = f
        for stage in (1, 2, 3):
            np.multiply(f, dt if stage == 3 else 0.5 * dt, out=ws)
            ws += w
            if ws.min() <= 0.0:
                return 1.0 / w, s_accum, t_local, steps, STATUS_CONVEXITY
            q = rhs(ws, f)
            if stage == 3:
                f_acc += f
                q_acc += q
            else:
                f_acc += 2.0 * f
                q_acc += 2.0 * q

        f_acc *= dt / 6.0
        w_new = f_acc + w
        wmin = w_new.min()
        # w and k = 1/w are finite and positive together
        status = _guard(wmin, w_new.max(), math.inf)
        if status == STATUS_OK and 1.0 / wmin >= blowup_k:
            status = STATUS_BLOWUP
        if status != STATUS_OK:
            return 1.0 / w, s_accum, t_local, steps, status

        w = w_new
        kmax = 1.0 / wmin
        s_accum = s_accum + (dt / 6.0) * q_acc
        steps += 1
        if last:
            t_local = span
        else:
            t_local = t_local + dt
    return 1.0 / w, s_accum, t_local, steps, STATUS_OK
