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
and the extrapolated w2 + (w2 - w1)/15 kept. The h step and the first
h/2 step start from the same state, so they are the two rows of one
pass (`Derivative` evaluates rows, each with the bits it would get
alone): an attempt makes 8 sequential evaluations, not 11. Within a
span the steps are equal, span / ceil(span / h), which lands its end
exactly and lets the coefficients repeat. `Stepper` holds one run's
state, spectrum, step size and sigma across `advance` calls, and how the
run stopped.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import _area_weights
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
    linear part c: shape (6, 2, len(c)), the rows E, E2, Q, f1, f2, f3,
    each with the h step in row 0 and the h/2 step in row 1.

    With z = h c: E = e^z, E2 = e^(z/2), Q = (h/2) phi_1(z/2), and the
    final weights f1 = h (phi_1 - 3 phi_2 + 4 phi_3), f2 = 2 h (phi_2 -
    2 phi_3) (it multiplies N_a + N_b) and f3 = h (4 phi_3 - phi_2), all
    at z.
    """
    z = h * c
    zz = np.stack((z, 0.5 * z, 0.25 * z))
    p1, p2, p3 = phi_functions(zz)
    ez = np.exp(zz)
    step = np.array([[h], [0.5 * h]])
    out = np.empty((6, 2, c.size))
    out[0] = ez[:2]
    out[1] = ez[1:]
    np.multiply(0.5 * step, p1[1:], out=out[2])
    out[3] = step * (p1[:2] - 3.0 * p2[:2] + 4.0 * p3[:2])
    out[4] = (2.0 * step) * (p2[:2] - 2.0 * p3[:2])
    out[5] = step * (4.0 * p3[:2] - p2[:2])
    return out


class Derivative:
    """Right-hand side of one law on an n-point grid, for up to `rows`
    states at once, with its own buffers.

    Calling it on the spectra S of B <= rows states w, shape (B, pairs)
    as the float view of their rfft bins, writes the w into `w_out`
    (B, n) and the spectra of their w_t into `out` (B, pairs), and returns
    the quadratures of k^alpha, one per row; it returns None, writing
    nothing into `out`, when some w is not positive. Each row gets the bits
    it would get alone. Buffers are per instance, so concurrent runs never
    share one.
    """

    def __init__(self, n: int, alpha: float, kind: FlowKind, rows: int = 1):
        self.n = n
        self.inv_n = 1.0 / n
        self.dtheta = TWO_PI / n
        self.half_dtheta = 0.5 * self.dtheta
        self.area_weights = _area_weights(n)
        self.alpha = alpha
        self.lin = _symbol(n)
        self.kind = kind
        # the quadratures lambda reads beyond that of v (see nonlocal_lambda):
        # AP, G1 and G2 the length, G1 and G2 the area, AP and G2 of v w
        self.reads_L = kind in (FlowKind.AP, FlowKind.G1, FlowKind.G2)
        self.reads_A = kind in (FlowKind.G1, FlowKind.G2)
        self.reads_vw = kind in (FlowKind.AP, FlowKind.G2)
        self._nans = (math.nan,) * rows
        v = np.empty((rows, n))
        V = np.empty((rows, n // 2 + 1), dtype=complex)
        # (v, V, V as floats) for B rows at index B
        self._buffers = [None] + [(v[:b], V[:b], V[:b].view(np.float64))
                                  for b in range(1, rows + 1)]

    def __call__(self, S: np.ndarray, w_out: np.ndarray, out: np.ndarray):
        v, V, Vf = self._buffers[S.shape[0]]
        _irfft(S.view(complex), self.inv_n, out=w_out)
        if _min(w_out, None) <= 0.0:
            return None
        power(w_out, self.alpha, v)
        _rfft(v, 1.0, out=V)
        # lambda - (d^2 + 1) v, lambda from the integrals it reads, as
        # Python floats: the few scalar operations of a law cost less on
        # floats than on small arrays. The quadrature of v is dtheta V_0,
        # the length dtheta W_0, the area `geometry.parseval_area` of W.
        np.multiply(Vf, self.lin, out=out)
        q = Vf[:, 0].tolist()
        L = S[:, 0].tolist() if self.reads_L else self._nans
        A = np.vecdot(S * S, self.area_weights).tolist() if self.reads_A else self._nans
        vw = np.vecdot(v, w_out).tolist() if self.reads_vw else self._nans
        dtheta = self.dtheta
        for i, qi in enumerate(q):
            q[i] = qi = dtheta * qi
            lam = nonlocal_lambda(
                self.kind, qi, dtheta * vw[i], dtheta * L[i], self.half_dtheta * A[i]
            )
            out[i, 0] += self.n * lam
        return q


def _guard(kmin: float, kmax: float, blowup_k: float) -> str | None:
    """The guard a state trips (or None), from its extrema. A NaN makes
    both NaN, +inf reaches the max and -inf the min: no scan is needed."""
    if not (-np.inf < kmin and kmax < np.inf):
        return "nonfinite"
    if kmin <= 0.0:
        return "convexity"
    if kmax >= blowup_k:
        return "blowup"
    return None


class Stepper:
    """One run's integrator and its record: the state w = 1/k as its
    spectrum, the step size and sigma, carried across `advance` calls.

    The state is guarded on construction and after every step; a step
    that would trip a guard is not taken, so the held state is always the
    last good one, at flow time `t`. `guard` names the guard that stopped
    the stepper for good: None, "convexity", "blowup", "nonfinite", or
    "step_limit" once `steps` accepted steps reach `max_steps` short of an
    end time. `rejected` counts thrown-away step attempts, `h_min`/`h_max`
    bound the accepted steps, and `s` integrates the quadrature of k^alpha
    over time by Simpson's rule on the start, middle and end of each step
    (it feeds the lower-bound functional).
    """

    def __init__(self, k, alpha, kind, safety, blowup_k, max_steps):
        n = k.shape[0]
        self.rhs = Derivative(n, alpha, kind, rows=2)
        self.alpha = alpha
        self.tol = TOL_PER_SAFETY * safety
        self.blowup_k = blowup_k
        self.max_steps = max_steps
        self.t = 0.0
        self.s = 0.0
        self.steps = 0
        self.rejected = 0
        self.h_min = math.inf
        self.h_max = 0.0
        self.a_sigma = self.sigma = math.nan
        self._coef_key = None
        pairs = 2 * (n // 2 + 1)
        # held state (spectrum S, rate spectrum R, samples w, quadrature q)
        # and the candidate of the step being tried, swapped on acceptance;
        # each state is one row
        self.S, self.R, self._S_new, self._R_new = np.empty((4, 1, pairs))
        self.w, self._w_new = np.empty((2, 1, n))
        # the other states of one attempt: the held state twice, its h and
        # first h/2 steps as the rows of one pass from it, the h/2 state's
        # rate and samples, and the two results' difference and samples
        self._S0, self._R0, pair = np.empty((3, 2, pairs))
        self._pair, self._S1, self._mid = pair, pair[:1], pair[1:]
        self._mid_R, self._dS = np.empty((2, 1, pairs))
        self._mid_w, self._w2, self._d = np.empty((3, 1, n))
        # Cox-Matthews work buffers of a pass on B rows, at index B
        work = np.empty((10, 2, pairs))
        stage_w = np.empty((2, n))
        self._work = [None] + [(stage_w[:b], *work[:, :b]) for b in (1, 2)]
        self.guard = _guard(k.min(), k.max(), blowup_k)
        with np.errstate(divide="ignore"):
            self.w[0] = 1.0 / k
        if self.guard is not None:
            return
        _rfft(self.w, 1.0, out=self.S.view(complex))
        q = self.rhs(self.S, self.w, self.R)
        if q is None:  # round-off of the transform pair
            self.guard = "convexity"
            return
        self.q = q[0]
        # first step from the state's own time scale: half the step that
        # changes w by tol^(1/5) relative at its largest relative rate
        rate = np.fft.irfft(self.R.view(complex), n)
        fastest = float(np.max(np.abs(rate) / self.w))
        self.h = 0.5 * self.tol**0.2 / fastest if fastest > 0.0 else math.inf

    def k(self) -> np.ndarray:
        """Curvature samples of the held state (a new array)."""
        with np.errstate(divide="ignore"):
            return 1.0 / self.w[0]

    def _refresh_sigma(self) -> bool:
        """Refresh sigma and c once the stiffest coefficient has drifted;
        False if it is not finite."""
        a = self.alpha * (1.0 / _min(self.w, None)) ** (self.alpha + 1.0)
        if abs(a - self.a_sigma) <= SIGMA_DRIFT * self.a_sigma:
            return True
        if not math.isfinite(a):
            return False
        self.a_sigma = a
        self.sigma = sigma = 0.5 * (1.0 + SIGMA_DRIFT) * a
        c = -sigma * self.rhs.lin
        c[:2] = 0.0  # mode 0 is explicit; the symbol already zeroes mode 1
        # one row of c per row of a pass: ufuncs broadcast a row slowly
        self.c = np.stack((c, c))
        self._coef_key = None
        return True

    def _count(self, rem: float) -> int:
        """The fewest equal steps, of at most h up to round-off, in rem."""
        return max(1, math.ceil(rem / self.h * (1.0 - 1e-12)))

    def _coefficients(self, h: float) -> np.ndarray:
        """Coefficients of steps h and h/2 (`_etd_coefficients`); only the
        latest set is kept."""
        if self._coef_key != h:
            self._coef = _etd_coefficients(self.c[0], h)
            self._coef_key = h
        return self._coef

    def _etd(self, co, S, R, out) -> bool:
        """One ETDRK4 pass on B rows: row i steps from the state with
        spectrum S[i], whose rate spectrum is R[i], with the coefficients
        co[:, i] into out[i], so the rows may be steps of different sizes.
        False when a stage leaves w > 0."""
        E, E2, Q, f1, f2, f3 = co
        B = co.shape[1]
        c, rhs = self.c[:B], self.rhs
        w, Rs, Nu, Na, Nb, Nc, a, b, cs, ES, tmp = self._work[B]
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
        self.steps += 1
        self.h_min = min(self.h_min, h)
        self.h_max = max(self.h_max, h)

    def _trip(self, guard: str) -> str:
        self.guard = guard
        return guard

    def _candidate_guard(self) -> str | None:
        """The guard the candidate just evaluated (w > 0) trips, or None."""
        wmin = _min(self._w_new, None)
        guard = _guard(wmin, _max(self._w_new, None), math.inf)
        if guard is None and 1.0 / wmin >= self.blowup_k:
            guard = "blowup"
        return guard

    def _attempt(self, h: float):
        """Step doubling from the held state into the candidate buffers:
        (err, q_new, q_mid). The h step and the first h/2 step are the two
        rows of one pass. q_new is None for a rejection, with err = inf
        when it was a stage or the result that left w > 0; a candidate
        that trips a guard, or a nonfinite err, sets `guard`."""
        rejected = math.inf, None, None
        co = self._coefficients(h)
        S0, R0 = self._S0, self._R0
        np.copyto(S0, self.S)
        np.copyto(R0, self.R)
        if not self._etd(co, S0, R0, self._pair):
            return rejected
        q_mid = self.rhs(self._mid, self._mid_w, self._mid_R)
        if q_mid is None:
            return rejected
        S2, dS = self._S_new, self._dS
        if not self._etd(co[:, 1:], self._mid, self._mid_R, S2):
            return rejected
        np.subtract(S2, self._S1, out=dS)
        inv_n = self.rhs.inv_n
        _irfft(S2.view(complex), inv_n, out=self._w2)
        _irfft(dS.view(complex), inv_n, out=self._d)
        if _min(self._w2, None) <= 0.0:
            return rejected
        d = np.abs(self._d, out=self._d)
        d /= self._w2
        err = float(_max(d, None)) / 15.0
        if not math.isfinite(err):
            self.guard = "nonfinite"
            return err, None, None
        if err > self.tol:
            return err, None, None
        # local extrapolation of the two-step result
        dS *= 1.0 / 15.0
        S2 += dS
        q_new = self.rhs(S2, self._w_new, self._R_new)
        if q_new is None:
            return rejected
        self.guard = self._candidate_guard()
        return err, q_new[0], q_mid[0]

    def advance(self, t_end: float, budget: float = math.inf) -> str | None:
        """Advance the held state from `t` towards `t_end`, taking at most
        `budget` accepted steps in this call. Returns `guard`: None when
        the state reached t_end, exactly, or used up the budget short of
        it; `t` is where it got to."""
        if self.guard is not None:
            return self.guard
        until = self.steps + budget
        left = 0  # equal steps of size hs still planned up to t_end
        hs = 0.0
        while self.t < t_end:
            if self.steps >= self.max_steps:
                return self._trip("step_limit")
            if self.steps >= until:
                return None
            if not self._refresh_sigma():
                return self._trip("nonfinite")
            if left == 0:
                if not self.t + self.h > self.t:
                    return self._trip("convexity")
                rem = t_end - self.t
                left = self._count(rem)
                hs = rem / left
            if not self.t + hs > self.t:  # no representable step is left
                return self._trip("convexity")
            err, q_new, q_mid = self._attempt(hs)
            if self.guard is not None:
                return self.guard
            if q_new is None:
                self.rejected += 1
                if math.isinf(err):  # a stage or the result left w > 0
                    fac = _POSITIVITY_CUT
                else:
                    fac = max(_FAC_MIN, _AIM * (self.tol / err) ** 0.2)
                self.h = hs * fac
                left = 0
                continue
            self.s += (hs / 6.0) * (self.q + 4.0 * q_mid + q_new)
            self._accept(hs, q_new)
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
        return None

    def force(self, h: float) -> str | None:
        """One ETDRK4 step of exactly h, with no error control and no
        quadrature (`t` stays); returns `guard`, "convexity" when a stage
        or the result left w > 0."""
        if self.guard is not None:
            return self.guard
        if not self._refresh_sigma():
            return self._trip("nonfinite")
        if not self._etd(self._coefficients(h)[:, :1], self.S, self.R, self._S_new):
            return self._trip("convexity")
        q_new = self.rhs(self._S_new, self._w_new, self._R_new)
        if q_new is None:
            return self._trip("convexity")
        self.guard = self._candidate_guard()
        if self.guard is None:
            self._accept(h, q_new[0])
        return self.guard
