"""The hot advance loop: ETDRK4 with step-doubling error control on the
radius of curvature w = 1/k.

In w every law reads w_t = lambda - (d^2/dtheta^2 + 1) k^alpha. Each
evaluation takes the spectrum of w, applies one inverse real FFT (the
stage's w, its positivity check and v = k^alpha, which `laws.power`
forms from w as it does for every profile) and one forward FFT of v,
whose bins are multiplied by m^2 - 1, the symbol of -(d^2 + 1), with
the Nyquist bin kept as `spectral.deriv_values` keeps it; lambda enters
mode 0. lambda is `laws.nonlocal_lambda` of the quadratures the law
reads, each computed only where it is read: the quadrature of v is
dtheta * V[0]; AP, G1 and G2 read the length dtheta * W[0] off the
spectrum W of w, G1 and G2 the area `geometry.parseval_area` of W, and
AP and G2 integrate v w.

The time scheme is Cox and Matthews' exponential time differencing RK4
(2002, J. Comput. Phys. 176) on the split w_t = c w + N(w). The linear
part is diagonal in the rfft bins, c_m = sigma (1 - m^2) for m >= 2 and
0 on modes 0 and 1; N is the rest of the rate, treated explicitly. Its
coefficients are phi_1, phi_2 and phi_3 of the real z = h c_m <= 0
(`phi_functions`). Stage states are combined in spectral space.

sigma is half the stiffest diffusion coefficient, not all of it. The
local coefficient is a = alpha k^(alpha + 1); sigma is refreshed when its
maximum moves by more than SIGMA_DRIFT (5%) and set to (1 + SIGMA_DRIFT)/2
of it, so every a the band admits until the next refresh is at most
2 sigma. The explicit remainder then carries (sigma - a)(d^2 + 1), whose
factor |1 - a/sigma| <= 1 is the large-step stability condition of
semi-implicit diffusion splittings (Douglas and Dupont 1971; Smereka
2003, J. Sci. Comput. 19). sigma at the maximum puts the whole remainder
on the anti-diffusive side where k is small, and takes 1.6 to 1.75
times the steps for the same accuracy.

The symbol vanishes at m = 1, so mode 1 of the rate is zero for every
state, and mode 0 is n (lambda - mean k^alpha), which is zero for LP. As
c is zero there too, N is zero on those modes and the scheme leaves them
alone: closure (mode 1 of w) and, under LP, the length L = dtheta * W[0]
are invariants to round-off.

The step size comes from step doubling: one step of h against two of
h/2, with the local error of the pair measured as max |w2 - w1| / (15 w2)
and the extrapolated w2 + (w2 - w1)/15 kept. Within a span the steps are
equal, span / ceil(span / h), which lands its end exactly and lets the
coefficients repeat. `Stepper` holds one run's state, spectrum, step
size and sigma across `advance` calls.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import parseval_area
from .laws import FlowKind, nonlocal_lambda, power
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


# extrema without the argument handling of ndarray.min/max
_min = np.minimum.reduce
_max = np.maximum.reduce

# status codes returned by Stepper.advance and Stepper.force
STATUS_OK = 0
STATUS_BUDGET = 1
STATUS_CONVEXITY = 2
STATUS_BLOWUP = 3
STATUS_NONFINITE = 4

# local error tolerance of one step per unit of StepControl.safety
TOL_PER_SAFETY = 4e-9
# sigma is refreshed once the stiffest coefficient alpha k_max^(alpha + 1)
# has moved by more than this share, to (1 + SIGMA_DRIFT)/2 of it: half
# the largest coefficient the band admits, the least that keeps the
# explicit remainder stable
SIGMA_DRIFT = 0.05
# step-size factors: the share of the optimal step aimed at (Hairer,
# Norsett and Wanner's 0.8), the range one decision may move h by, the cut
# after a stage leaves w > 0, and the growth band inside which an accepted
# h is kept, so that its coefficients repeat
_AIM = 0.8
_FAC_MIN, _FAC_MAX = 0.2, 5.0
_POSITIVITY_CUT = 0.25
_KEEP_BELOW = 1.2

# 1/(j + 3)! for j = 0..15: the Taylor series of phi_3 below |z| = 1/2
_PHI3_TAYLOR = tuple(1.0 / math.factorial(j + 3) for j in range(16))


@lru_cache(maxsize=32)
def _symbol(n: int) -> np.ndarray:
    """Symbol m^2 - 1 of -(d^2 + 1) per rfft bin, repeated for the (re, im)
    pairs of the float view the kernel computes on."""
    m = np.arange(n // 2 + 1, dtype=np.float64)
    lin = np.repeat(m * m - 1.0, 2)
    lin.setflags(write=False)
    return lin


def phi_functions(z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi_1, phi_2, phi_3) of real z <= 0, elementwise.

    phi_k(z) = sum_j z^j / (j + k)!, with phi_k(0) = 1/k!. Below |z| = 1/2
    a 16-term Taylor series gives phi_3, and phi_k = 1/k! + z phi_(k+1) the
    others. From 1/2 on the closed forms phi_1 = expm1(z)/z and
    phi_(k+1) = (phi_k - 1/k!)/z lose at most a few bits to cancellation.
    """
    z = np.asarray(z, dtype=np.float64)
    big = np.abs(z) >= 0.5
    p1, p2, p3 = np.empty((3,) + z.shape)
    zs = z[~big]
    acc = np.full(zs.shape, _PHI3_TAYLOR[-1])
    for coef in _PHI3_TAYLOR[-2::-1]:
        acc *= zs
        acc += coef
    p3[~big] = acc
    p2[~big] = 0.5 + zs * acc
    p1[~big] = 1.0 + zs * p2[~big]
    zb = z[big]
    b1 = np.expm1(zb) / zb
    b2 = (b1 - 1.0) / zb
    p1[big] = b1
    p2[big] = b2
    p3[big] = (b2 - 0.5) / zb
    return p1, p2, p3


def _etd_coefficients(c: np.ndarray, h: float) -> np.ndarray:
    """Cox-Matthews coefficients of one step h and of one step h/2 for the
    linear part c: shape (2, 6, len(c)), the rows E, E2, Q, f1, f2, f3.

    With z = h c: E = e^z, E2 = e^(z/2), Q = (h/2) phi_1(z/2), and the
    final weights f1 = h (phi_1 - 3 phi_2 + 4 phi_3), f2 = 2 h (phi_2 -
    2 phi_3) (it multiplies N_a + N_b) and f3 = h (4 phi_3 - phi_2), all
    at z.
    """
    z = h * c
    zz = np.stack((z, 0.5 * z, 0.25 * z))
    p1, p2, p3 = phi_functions(zz)
    ez = np.exp(zz)
    out = np.empty((2, 6, c.size))
    for half in (0, 1):
        step = h * 0.5**half
        out[half, 0] = ez[half]
        out[half, 1] = ez[half + 1]
        out[half, 2] = (0.5 * step) * p1[half + 1]
        out[half, 3] = step * (p1[half] - 3.0 * p2[half] + 4.0 * p3[half])
        out[half, 4] = (2.0 * step) * (p2[half] - 2.0 * p3[half])
        out[half, 5] = step * (4.0 * p3[half] - p2[half])
    return out


class Derivative:
    """Right-hand side of one law on an n-point grid, with its own buffers.

    Calling it on the spectrum S of a state w (as the float view of its
    rfft bins) writes w into `w_out` and the spectrum of w_t into `out`,
    and returns the quadrature of k^alpha; it returns None, writing
    nothing into `out`, when w is not positive. Buffers are per instance,
    so concurrent runs never share one.
    """

    def __init__(self, n: int, alpha: float, kind: FlowKind):
        self.n = n
        self.inv_n = 1.0 / n
        self.dtheta = TWO_PI / n
        self.alpha = alpha
        self.lin = _symbol(n)
        self.kind = kind
        # the quadratures lambda reads beyond that of v (see nonlocal_lambda):
        # AP the length, G1 and G2 the length and the area, AP and G2 of v w
        self.reads_L = kind is FlowKind.AP
        self.reads_A = kind in (FlowKind.G1, FlowKind.G2)
        self.reads_vw = kind in (FlowKind.AP, FlowKind.G2)
        self.v = np.empty(n)
        self.V = np.empty(n // 2 + 1, dtype=complex)
        self.Vf = self.V.view(np.float64)

    def length_area(self, S: np.ndarray) -> tuple[float, float]:
        """(L, A) of the curve whose w has the spectrum S."""
        return self.dtheta * S[0], parseval_area(S)

    def __call__(self, S: np.ndarray, w_out: np.ndarray, out: np.ndarray):
        _irfft(S.view(complex), self.inv_n, out=w_out)
        if _min(w_out) <= 0.0:
            return None
        v = power(w_out, self.alpha, self.v)
        _rfft(v, 1.0, out=self.V)
        L = A = vw = math.nan
        if self.reads_A:
            L, A = self.length_area(S)
        elif self.reads_L:
            L = self.dtheta * S[0]
        if self.reads_vw:
            vw = self.dtheta * float(np.dot(v, w_out))
        q = self.dtheta * self.Vf[0]
        lam = nonlocal_lambda(self.kind, q, vw, L, A)
        # lambda - (d^2 + 1) v
        np.multiply(self.Vf, self.lin, out=out)
        out[0] += self.n * lam
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


class Stepper:
    """One run's integrator: the state w = 1/k as its spectrum, the step
    size and sigma, carried across `advance` calls.

    The state is guarded on construction (`status`) and after every step;
    a step that would trip a guard is not taken, so the held state is
    always the last good one, at flow time `t`. `s` integrates the
    quadrature of k^alpha over time by Simpson's rule on the start, middle
    and end of each step (it feeds the lower-bound functional). `rejected`
    counts thrown-away step attempts and `h_min`/`h_max` the range of
    accepted steps.
    """

    def __init__(self, k, alpha, kind, safety, blowup_k):
        n = k.shape[0]
        self.rhs = Derivative(n, alpha, kind)
        self.alpha = alpha
        self.tol = TOL_PER_SAFETY * safety
        self.blowup_k = blowup_k
        self.t = 0.0
        self.s = 0.0
        self.rejected = 0
        self.h_min = math.inf
        self.h_max = 0.0
        self.a_sigma = self.sigma = math.nan
        self._coef_key = None
        pairs = 2 * (n // 2 + 1)
        # held state (spectrum S, rate spectrum R, samples w, quadrature q)
        # and the candidate of the step being tried, swapped on acceptance
        self.S, self.R, self._S_new, self._R_new = np.empty((4, pairs))
        self.w, self._w_new = np.empty((2, n))
        # Cox-Matthews work buffers, and the other states of one attempt
        (self._Nu, self._Na, self._Nb, self._Nc, self._a, self._b, self._cs,
         self._ES, self._tmp, self._stage_R, self._S1, self._mid, self._mid_R,
         self._dS) = np.empty((14, pairs))
        self._stage_w, self._w2, self._d = np.empty((3, n))
        self.status = _guard(k.min(), k.max(), blowup_k)
        with np.errstate(divide="ignore"):
            self.w[:] = 1.0 / k
        if self.status != STATUS_OK:
            return
        _rfft(self.w, 1.0, out=self.S.view(complex))
        self.q = self.rhs(self.S, self.w, self.R)
        if self.q is None:  # round-off of the transform pair
            self.status = STATUS_CONVEXITY
            return
        # first step from the state's own time scale: half the step that
        # changes w by tol^(1/5) relative at its largest relative rate
        rate = np.fft.irfft(self.R.view(complex), n)
        fastest = float(np.max(np.abs(rate) / self.w))
        self.h = 0.5 * self.tol**0.2 / fastest if fastest > 0.0 else math.inf

    def k(self) -> np.ndarray:
        """Curvature samples of the held state (a new array)."""
        with np.errstate(divide="ignore"):
            return 1.0 / self.w

    def _refresh_sigma(self) -> bool:
        """Refresh sigma and c once the stiffest coefficient has drifted;
        False if it is not finite."""
        a = self.alpha * (1.0 / _min(self.w)) ** (self.alpha + 1.0)
        if abs(a - self.a_sigma) <= SIGMA_DRIFT * self.a_sigma:
            return True
        if not math.isfinite(a):
            return False
        self.a_sigma = a
        self.sigma = sigma = 0.5 * (1.0 + SIGMA_DRIFT) * a
        c = -sigma * self.rhs.lin
        c[:2] = 0.0  # mode 0 is explicit; the symbol already zeroes mode 1
        self.c = c
        self._coef_key = None
        return True

    def _count(self, rem: float) -> int:
        """The fewest equal steps, of at most h up to round-off, in rem."""
        return max(1, math.ceil(rem / self.h * (1.0 - 1e-12)))

    def _coefficients(self, h: float) -> np.ndarray:
        """Coefficients of steps h and h/2; only the latest set is kept."""
        if self._coef_key != h:
            self._coef = _etd_coefficients(self.c, h)
            self._coef_key = h
        return self._coef

    def _etd(self, co, S, R, out) -> bool:
        """One ETDRK4 step with coefficients `co` from spectrum S, whose
        rate spectrum is R, into `out`; False when a stage leaves w > 0."""
        E, E2, Q, f1, f2, f3 = co
        c, rhs, w, Rs, tmp = self.c, self.rhs, self._stage_w, self._stage_R, self._tmp
        Nu, Na, Nb, Nc, a, b, cs, ES = (
            self._Nu, self._Na, self._Nb, self._Nc, self._a, self._b, self._cs, self._ES
        )
        np.multiply(c, S, out=Nu)
        np.subtract(R, Nu, out=Nu)
        np.multiply(E2, S, out=ES)
        np.multiply(Q, Nu, out=a)
        a += ES
        if rhs(a, w, Rs) is None:
            return False
        np.multiply(c, a, out=Na)
        np.subtract(Rs, Na, out=Na)
        np.multiply(Q, Na, out=b)
        b += ES
        if rhs(b, w, Rs) is None:
            return False
        np.multiply(c, b, out=Nb)
        np.subtract(Rs, Nb, out=Nb)
        np.multiply(Nb, 2.0, out=cs)
        cs -= Nu
        cs *= Q
        np.multiply(E2, a, out=tmp)
        cs += tmp
        if rhs(cs, w, Rs) is None:
            return False
        np.multiply(c, cs, out=Nc)
        np.subtract(Rs, Nc, out=Nc)
        np.multiply(E, S, out=out)
        np.multiply(f1, Nu, out=tmp)
        out += tmp
        Na += Nb
        Na *= f2
        out += Na
        Nc *= f3
        out += Nc
        return True

    def _accept(self, h: float, q_new: float) -> None:
        """Make the candidate the held state."""
        self.S, self._S_new = self._S_new, self.S
        self.R, self._R_new = self._R_new, self.R
        self.w, self._w_new = self._w_new, self.w
        self.q = q_new
        self.h_min = min(self.h_min, h)
        self.h_max = max(self.h_max, h)

    def _candidate_status(self, q_new) -> int | None:
        """Guard status of the candidate just evaluated (None: w > 0 lost)."""
        if q_new is None:
            return None
        wmin = _min(self._w_new)
        status = _guard(wmin, _max(self._w_new), math.inf)
        if status == STATUS_OK and 1.0 / wmin >= self.blowup_k:
            status = STATUS_BLOWUP
        return status

    def _attempt(self, h: float):
        """Step doubling from the held state into the candidate buffers:
        (status, err, q_new, q_mid), status None for a rejection, with
        err = inf when it was a stage or the result that left w > 0."""
        rejected = None, math.inf, None, None
        full, half = self._coefficients(h)
        if not self._etd(full, self.S, self.R, self._S1):
            return rejected
        if not self._etd(half, self.S, self.R, self._mid):
            return rejected
        q_mid = self.rhs(self._mid, self._stage_w, self._mid_R)
        if q_mid is None:
            return rejected
        S2, dS = self._S_new, self._dS
        if not self._etd(half, self._mid, self._mid_R, S2):
            return rejected
        np.subtract(S2, self._S1, out=dS)
        inv_n = self.rhs.inv_n
        _irfft(S2.view(complex), inv_n, out=self._w2)
        _irfft(dS.view(complex), inv_n, out=self._d)
        if _min(self._w2) <= 0.0:
            return rejected
        d = np.abs(self._d, out=self._d)
        d /= self._w2
        err = float(_max(d)) / 15.0
        if not math.isfinite(err):
            return STATUS_NONFINITE, err, None, None
        if err > self.tol:
            return None, err, None, None
        # local extrapolation of the two-step result
        dS *= 1.0 / 15.0
        S2 += dS
        q_new = self.rhs(S2, self._w_new, self._R_new)
        status = self._candidate_status(q_new)
        if status is None:
            return rejected
        return status, err, q_new, q_mid

    def advance(self, t_end: float, budget: int) -> tuple[int, int]:
        """Advance the held state from `t` to `t_end`, taking at most
        `budget` accepted steps. Returns (steps, status): the accepted
        steps, and STATUS_OK or the guard that stopped the state short of
        t_end; `t` is where it got to, exactly t_end on STATUS_OK."""
        if self.status != STATUS_OK:
            return 0, self.status
        steps = 0
        left = 0  # equal steps of size hs still planned up to t_end
        hs = 0.0
        while self.t < t_end:
            if steps >= budget:
                return steps, STATUS_BUDGET
            if not self._refresh_sigma():
                return steps, STATUS_NONFINITE
            if left == 0:
                if not self.t + self.h > self.t:
                    return steps, STATUS_CONVEXITY
                rem = t_end - self.t
                left = self._count(rem)
                hs = rem / left
            if not self.t + hs > self.t:  # no representable step is left
                return steps, STATUS_CONVEXITY
            status, err, q_new, q_mid = self._attempt(hs)
            if status is None:
                self.rejected += 1
                if math.isinf(err):  # a stage or the result left w > 0
                    fac = _POSITIVITY_CUT
                else:
                    fac = max(_FAC_MIN, _AIM * (self.tol / err) ** 0.2)
                self.h = hs * fac
                left = 0
                continue
            if status != STATUS_OK:
                return steps, status
            self.s += (hs / 6.0) * (self.q + 4.0 * q_mid + q_new)
            self._accept(hs, q_new)
            steps += 1
            left -= 1
            self.t = t_end if left == 0 else self.t + hs
            fac = _FAC_MAX if err == 0.0 else _AIM * (self.tol / err) ** 0.2
            fac = min(fac, _FAC_MAX)
            if 1.0 <= fac < _KEEP_BELOW:
                self.h = hs
                continue
            self.h = hs * fac
            if left > 0 and (fac < 1.0 or self._count(t_end - self.t) < left):
                left = 0
        return steps, STATUS_OK

    def force(self, h: float) -> int:
        """One ETDRK4 step of exactly h, with no error control and no
        quadrature; the status of the result, STATUS_CONVEXITY when a stage
        or the result left w > 0."""
        if self.status != STATUS_OK:
            return self.status
        if not self._refresh_sigma():
            return STATUS_NONFINITE
        if not self._etd(self._coefficients(h)[0], self.S, self.R, self._S_new):
            return STATUS_CONVEXITY
        q_new = self.rhs(self._S_new, self._w_new, self._R_new)
        status = self._candidate_status(q_new)
        if status is None:
            return STATUS_CONVEXITY
        if status == STATUS_OK:
            self._accept(h, q_new)
        return status
