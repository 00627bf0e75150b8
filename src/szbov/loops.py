"""Discrete loops in the blown-up plane and the time reparametrization.

Loops are stored as N uniform samples of a 1-periodic (or twisted-periodic)
complex map on nodes ``tau_j = j/N`` and manipulated spectrally: derivatives,
interpolation, and antiderivatives all go through the trigonometric
interpolant, so every identity of the continuum model is testable at
near-machine tolerances for smooth loops.

A twisted loop satisfies ``z(tau + 1) = 1/z(tau)``; its pointwise inversions
appended to the original samples form a genuine 2-periodic loop (the double
cover) which is what gets differentiated and interpolated.

Off the nodes, every Fourier sum (the interpolant in ``eval_loop`` and
``lift``, the time map t(tau) and its derivative) is evaluated by one
baby-step/giant-step routine, ``_fourier_sum``: two small tables of phases,
of about sqrt(N) columns each, and one matrix product, so that M points cost
about 2 sqrt(N) M complex exponentials instead of an M x N phase matrix.
Several coefficient rows at the same points share the tables: the time map
sums t and its slope t' in one pass.

The inverse time map tau(t), which every physical loop q(t) = B(z(tau(t)))
needs, is a safeguarded Newton iteration that costs one such pass per step.
It starts from the cubic Hermite interpolant of tau(t) on each node cell,
whose end slopes zhat/w_j are known at the nodes, wherever the node slopes
keep that cubic monotone; most points then converge in one Newton step.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .geometry import birkhoff_derivative, birkhoff_map, center_distance, conformal_weight

__all__ = [
    "LoopError",
    "DegenerateLoopError",
    "LiftError",
    "DiscreteLoop",
    "TimeMap",
    "PhysicalLoop",
    "derivative",
    "chain_rule_state",
    "second_derivative",
    "double_cover",
    "zhat",
    "time_map",
    "reconstruct",
    "lift",
    "loop_to_dict",
    "loop_from_dict",
    "save_loop",
    "load_loop",
]

EPS_ZHAT = 1e-10
# the one collision radius (PhysicalLoop.collision_times): no lift, winding or
# unregularized action is taken through it, and integrate stops at it
EPS_COLLISION = 1e-6
# conformal weight below which chain_rule_state leaves the velocity undefined
_EPS_WEIGHT = 1e-12

# TimeMap.inverse: residual and bracket width at which a point has converged
# (t and tau both lie in [0, 1], so these are round-off), and a step cap
# above the ~45 bisections that collapse a node cell at n = 1024
_INVERSE_RTOL = np.finfo(float).eps
_INVERSE_XTOL = 2.0 * np.finfo(float).eps
_INVERSE_MAX_STEPS = 64


class LoopError(ValueError):
    """Invalid loop data."""


class DegenerateLoopError(LoopError):
    """Loop excluded from the admissible space because zhat vanishes."""


class LiftError(ValueError):
    """Branch tracking through the double cover failed."""


@dataclass(frozen=True)
class DiscreteLoop:
    """Uniformly sampled loop in the punctured plane.

    samples : complex array of length N at nodes tau_j = j/N
    twisted : interpret the samples as the [0,1) restriction of a map with
        z(tau+1) = 1/z(tau)
    """

    samples: np.ndarray
    twisted: bool = False

    def __post_init__(self):
        z = np.asarray(self.samples, dtype=complex)
        if z.ndim != 1:
            raise LoopError("loop samples must be one-dimensional")
        n = len(z)
        if n < 16 or n % 2 != 0:
            raise LoopError("loop needs an even number of samples, at least 16")
        if not np.all(np.isfinite(z)):
            raise LoopError("loop samples must be finite")
        if np.any(z == 0):
            raise LoopError("loop samples must avoid the origin")
        z = z.copy()
        z.flags.writeable = False
        object.__setattr__(self, "samples", z)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def tau(self) -> np.ndarray:
        return np.arange(self.n) / self.n


def double_cover(loop: DiscreteLoop) -> np.ndarray:
    """2N samples of the genuine loop induced on [0, 2): z followed by 1/z."""
    z = loop.samples
    return np.concatenate([z, 1.0 / z])


# Largest n at which _spectral_derivative applies the dense derivative matrix
# instead of an FFT pair.  On a 2-CPU host with 1 BLAS thread, one complex
# row takes 15 us with D against 37 us with the FFT pair at n = 256, and 80
# against 48 us at n = 512, where D also takes 2 MiB (the cover of a twisted
# n = 1024 loop would take 32 MiB): the crossover lies between the two.
_DENSE_DERIVATIVE_MAX_N = 256


def _spectral_derivative(samples: np.ndarray, period: float = 1.0, order: int = 1) -> np.ndarray:
    """Spectral derivative along the last axis.

    Up to ``_DENSE_DERIVATIVE_MAX_N`` samples it applies the cached
    ``derivative_matrix(n, period)`` ``order`` times: several times faster
    than an FFT pair there, and the same D that the Hessian assembles from.
    Above it, the FFT pair, whose cost grows as n log n against D's n^2, and
    which forms no n x n array.  The two agree to round-off.  D is real, so
    it multiplies the interleaved real and imaginary parts in one real
    product: a product with the complex samples would cast D to complex.
    """
    n = np.shape(samples)[-1]
    if n > _DENSE_DERIVATIVE_MAX_N:
        return _fft_derivative(samples, period, order)
    dmat = derivative_matrix(n, period)
    out = np.ascontiguousarray(samples, dtype=complex)
    for _ in range(order):
        out = (dmat @ out.view(float).reshape(out.shape + (2,))).view(complex).reshape(out.shape)
    return out


def _fft_derivative(samples: np.ndarray, period: float, order: int = 1) -> np.ndarray:
    """Spectral derivative along the last axis by an FFT pair."""
    n = np.shape(samples)[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k = k.copy()
    k[n // 2] = 0.0  # keep the differentiation matrix real antisymmetric
    sym = (2j * np.pi * k / period) ** order
    return np.fft.ifft(np.fft.fft(samples) * sym)


def _fourier_sum(c: np.ndarray, x) -> np.ndarray:
    """sum_k c_k exp(2 pi i k x) over the modes of ``np.fft.fftfreq(n, 1/n)``,
    for coefficients c in that order, with the Nyquist mode k = -n/2 taken as
    cos(pi n x) (the symmetric convention).

    c is one row of n coefficients or a stack of p rows shaped (p, n), and the
    result is shaped (m,) or (p, m) to match: the phase tables depend on x
    alone, so every row is summed from the same two tables.

    Baby-step/giant-step: with B a power of two near sqrt(n), each mode but
    the Nyquist one is k = a*B + b with -B/2 <= b < B/2.  The coefficients,
    zero-padded into a table with one row per a and one column per b, are
    contracted against the m x B baby-step phases exp(2 pi i b x) in one
    matmul, and the result against the giant-step phases exp(2 pi i a B x).
    So each point costs about 2 sqrt(n) complex exponentials instead of n.
    The steps are centred on k = 0 so that the low modes, which carry the
    largest coefficients of a smooth loop, keep phase arguments of size |k|
    and with them the round-off of a direct sum; x is shifted by an integer
    to |x| <= 1/2 for the same reason (the shift is exact).
    """
    c = np.asarray(c)
    stack = np.atleast_2d(c)
    p, n = stack.shape
    half = n // 2
    baby = 1 << (n.bit_length() // 2)
    first = (baby // 2 - half) // baby
    rows = (half - 1 + baby // 2) // baby - first + 1
    zero = baby // 2 - first * baby  # table slot of k = 0
    table = np.zeros((p, rows * baby), dtype=complex)
    table[:, zero : zero + half] = stack[:, :half]
    table[:, zero - half + 1 : zero] = stack[:, half + 1 :]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x = x - np.round(x)
    baby_phase = _phases(x, np.arange(-(baby // 2), baby // 2))
    giant_phase = _phases(x, baby * np.arange(first, first + rows))
    partial = (baby_phase @ table.reshape(p * rows, baby).T).reshape(len(x), p, rows)
    out = np.einsum("ik,ipk->pi", giant_phase, partial)
    out += np.multiply.outer(stack[:, half], np.cos(np.pi * n * x))
    return out if c.ndim == 2 else out[0]


def _phases(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(2 pi i x_j k_l) as a len(x) x len(k) matrix (cos and sin of the
    real argument: the same values as complex exp, computed faster)."""
    arg = np.multiply.outer(2.0 * np.pi * x, k)
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _trig_eval(samples: np.ndarray, x, period: float = 1.0) -> np.ndarray:
    """Evaluate the trigonometric interpolant of uniform samples at x."""
    c = np.fft.fft(samples) / len(samples)
    return _fourier_sum(c, np.asarray(x, dtype=float) / period)


def _periodic_cover(z: np.ndarray, twisted: bool) -> tuple[np.ndarray, float]:
    """The genuine periodic loop behind samples shaped (..., n) and its
    period: z on [0, 1), or for a twisted loop the double cover z, 1/z on
    [0, 2)."""
    if twisted:
        return np.concatenate([z, 1.0 / z], axis=-1), 2.0
    return z, 1.0


def derivative(loop: DiscreteLoop) -> np.ndarray:
    """Spectral derivative z' at the nodes (via the double cover if twisted)."""
    zc, period = _periodic_cover(loop.samples, loop.twisted)
    return _spectral_derivative(zc, period=period)[: loop.n]


def second_derivative(loop: DiscreteLoop) -> np.ndarray:
    """Spectral second derivative z'' at the nodes."""
    zc, period = _periodic_cover(loop.samples, loop.twisted)
    return _spectral_derivative(zc, period=period, order=2)[: loop.n]


def eval_loop(loop: DiscreteLoop, tau) -> np.ndarray:
    """Evaluate the loop at arbitrary parameters by trigonometric interpolation."""
    zc, period = _periodic_cover(loop.samples, loop.twisted)
    return _trig_eval(zc, tau, period=period)


def chain_rule_state(loop: DiscreteLoop, tau=None):
    """Physical position q = B(z) and velocity of a blown-up loop, at the
    nodes (``tau`` None) or at the loop parameters ``tau``.

    Since dt/dtau = w(z)/zhat, the chain rule gives
    qdot = B'(z) z' zhat / w(z), with z' the spectral derivative (interpolated
    off the nodes).  At a collision the weight vanishes and the speed is
    unbounded; the velocity is NaN there.
    """
    zh = zhat(loop)
    if tau is None:
        z, zp = loop.samples, derivative(loop)
    else:
        zc, period = _periodic_cover(loop.samples, loop.twisted)
        z = _trig_eval(zc, tau, period=period)
        zp = _trig_eval(_spectral_derivative(zc, period=period), tau, period=period)
    w = conformal_weight(z)
    safe = w > _EPS_WEIGHT
    qdot = np.full(z.shape, np.nan, dtype=complex)
    qdot[safe] = birkhoff_derivative(z[safe]) * (zh / w[safe]) * zp[safe]
    return birkhoff_map(z), qdot


def _circulant(col: np.ndarray) -> np.ndarray:
    """The matrix C[j, l] = col[(j - l) mod n] as a new C-contiguous array.

    Each row is a window of n consecutive entries of col, tiled twice and
    reversed, so the copy of those windows is the only n x n array made.
    """
    n = len(col)
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(col, 2)[::-1], n)
    return windows[n - 1 :: -1].copy()


@functools.lru_cache(maxsize=8)
def derivative_matrix(n: int, period: float = 1.0) -> np.ndarray:
    """Dense real matrix D with D @ f the spectral derivative of f.

    The spectral derivative commutes with shifts, so D is the circulant of
    one column, the derivative d of the unit vector e_0 by the FFT pair
    (``_spectral_derivative`` applies D itself at small n): D[j, l] =
    d[(j - l) mod n].  With the Nyquist mode zeroed, D is real and
    antisymmetric; d is made exactly odd, d[-m] = -d[m], so that D.T = -D
    holds exactly.  Built in O(n^2) as a C-contiguous float64 array, and
    read-only, since the cached array is shared.
    """
    unit = np.zeros(n)
    unit[0] = 1.0
    d = _fft_derivative(unit, period).real
    d = 0.5 * (d - d[-np.arange(n)])  # d[-m] is d[(-m) mod n]
    out = _circulant(d)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def integration_matrix(n: int) -> np.ndarray:
    """Dense real matrix K with (K @ f)_j = integral of the trigonometric
    interpolant of f from 0 to j/n.

    Linear in the samples, which is what the exact discrete gradient of the
    time-reparametrized electric term differentiates through.  Mode k of the
    interpolant integrates to (exp(2 pi i k tau) - 1) / (2 pi i k), the mean
    to tau, and the Nyquist cosine to a sine that vanishes at the nodes.  So
    K[j, l] = (j/n + h[(j - l) mod n] - h[(-l) mod n]) / n, with h = n
    ifft(c) the periodic part, c_k = 1 / (2 pi i k) and the mean and Nyquist
    modes zeroed: one circulant plus a row and a column, built in O(n^2) as
    a C-contiguous float64 array, read-only since the cached array is shared.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    modes = k != 0
    modes[n // 2] = False
    coef = np.zeros(n, dtype=complex)
    coef[modes] = 1.0 / (2j * np.pi * k[modes])
    h = n * np.fft.ifft(coef).real
    out = _circulant(h)
    out += (np.arange(n) / n)[:, None]
    out -= h[-np.arange(n)]
    out /= n
    out.flags.writeable = False
    return out


def _tail_integral(f: np.ndarray) -> np.ndarray:
    """Integral of the trigonometric interpolant of f from each node to 1."""
    return float(np.mean(f)) - integration_matrix(len(f)) @ f


@dataclass(frozen=True)
class TimeMap:
    """Cumulative reparametrization data between loop parameter and time.

    t(tau) is the normalized antiderivative of the conformal weight along the
    loop.  The Fourier coefficients of the weights and of their antiderivative
    are computed once per map and kept as one two-row stack (``_spectral``);
    ``t`` sums the antiderivative row at any tau with ``_fourier_sum`` and,
    asked for the slope as well, sums both rows from the same phase tables.
    The continuous inverse is realized by a safeguarded Newton iteration
    inside the node brackets of ``t_of_tau``, one such pass per step, started
    from the cubic Hermite interpolant of tau(t) on each node cell and
    falling back to bisection where t' vanishes (collisions) or the Newton
    step leaves the bracket.
    """

    zhat: float
    t_of_tau: np.ndarray  # length n+1, from 0 to 1
    weights: np.ndarray = field(repr=False)  # w(z_j) at the nodes

    @property
    def n(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def _spectral(self):
        """The stack of two coefficient rows: the antiderivative's,
        c_k / (2 pi i k) with the mean and Nyquist modes zeroed, above the
        weights' own c_k; and that antiderivative's value at tau = 0."""
        n = self.n
        c = np.fft.fft(self.weights) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        coef = np.zeros(n, dtype=complex)
        nz = k != 0
        coef[nz] = c[nz] / (2j * np.pi * k[nz])
        coef[n // 2] = 0.0  # Nyquist handled as a cosine below
        return np.stack([coef, c]), np.real(np.sum(coef))

    def t(self, tau, with_slope: bool = False):
        """Continuous evaluation of t(tau); extends by t(tau+1) = t(tau)+1.

        With ``with_slope``, returns (t, t') where t' = w(z(tau))/zhat is the
        trigonometric interpolant of the weights, clipped at 0, summed in the
        same pass as t.
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        base = np.floor(tau)
        frac = tau - base
        stack, at_zero = self._spectral
        c = stack[1]
        m = self.n // 2
        sums = np.real(_fourier_sum(stack[: 2 if with_slope else 1], frac))
        osc = sums[0] - at_zero
        # Nyquist mode interpolated as cos: antiderivative sin(2 pi m tau)/(2 pi m)
        osc += np.real(c[m]) * np.sin(2.0 * np.pi * m * frac) / (2.0 * np.pi * m)
        raw = np.real(c[0]) * frac + osc
        t = base + raw / self.zhat
        if not with_slope:
            return t
        return t, np.clip(sums[1], 0.0, None) / self.zhat

    def _start(self, frac: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Where in node cell ``idx`` (0 at its left node, 1 at its right) the
        inverse starts for times ``frac``: the inverse cubic Hermite
        interpolant, tau as a function of t with end slopes 1/t'_j = zhat/w_j,
        where both normalized slopes s = t'_j (1/n) / rise are >= 1/3
        (Fritsch-Carlson: the cubic is then monotone and stays in its cell),
        and linear interpolation elsewhere (collisions, grazing and flat
        cells)."""
        n = self.n
        nodes = self.t_of_tau
        rise = nodes[idx + 1] - nodes[idx]
        flat = rise <= 0
        rise = np.where(flat, 1.0, rise)
        u = np.clip((frac - nodes[idx]) / rise, 0.0, 1.0)
        scale = 1.0 / (n * self.zhat * rise)
        s0 = self.weights[idx] * scale
        s1 = self.weights[(idx + 1) % n] * scale
        hermite = ~flat & (s0 >= 1.0 / 3.0) & (s1 >= 1.0 / 3.0)
        d0 = 1.0 / np.where(hermite, s0, 1.0)
        d1 = 1.0 / np.where(hermite, s1, 1.0)
        # Hermite basis on [0, 1] with values 0, 1 and slopes d0, d1
        cubic = u * u * (3.0 - 2.0 * u) + u * (1.0 - u) * ((1.0 - u) * d0 - u * d1)
        return np.where(hermite, np.clip(cubic, 0.0, 1.0), u)

    def inverse(self, t) -> np.ndarray:
        """tau(t) with residual |t(tau) - t| below ~1e-13.

        Safeguarded Newton iteration, vectorized over the points.  Each point
        starts from the cubic Hermite interpolant of tau(t) between its
        bracketing nodes of ``t_of_tau`` (linear interpolation where a node
        slope is too small for the cubic to stay monotone, see ``_start``) and
        keeps that node cell as a bracket, shrunk by the sign of the residual
        at every step.  Each step evaluates t and t' in one pass,
        ``t(tau, with_slope=True)``.  The Newton step is taken when t' > 0
        and it lands strictly inside the bracket; otherwise the bracket is
        bisected, which is what converges where the conformal weight (so t')
        vanishes at a collision, or where the interpolant is locally
        non-monotone.  A point retires once its residual is at round-off or
        its bracket has collapsed; later steps evaluate the map only on the
        points still active.  The output stays inside its node bracket and,
        wherever t is increasing, is non-decreasing in t.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        base = np.floor(t)
        frac = t - base
        n = self.n
        idx = np.clip(np.searchsorted(self.t_of_tau, frac, side="right") - 1, 0, n - 1)
        lo = idx / n
        hi = (idx + 1) / n
        tau = lo + self._start(frac, idx) * (hi - lo)
        active = np.arange(len(frac))
        for _ in range(_INVERSE_MAX_STEPS):
            ta, fa, la, ha = tau[active], frac[active], lo[active], hi[active]
            value, deriv = self.t(ta, with_slope=True)
            resid = value - fa
            above = resid > 0
            la = np.where(above, la, ta)
            ha = np.where(above, ta, ha)
            lo[active], hi[active] = la, ha
            newton = ta - resid / np.where(deriv > 0, deriv, 1.0)
            inside = (deriv > 0) & (newton > la) & (newton < ha)
            step = np.where(inside, newton, 0.5 * (la + ha))
            done = (np.abs(resid) <= _INVERSE_RTOL) | (step == ta) | (ha - la <= _INVERSE_XTOL)
            tau[active] = np.where(done, ta, step)
            active = active[~done]
            if active.size == 0:
                break
        return base + tau


@dataclass(frozen=True)
class PhysicalLoop:
    """Closed physical loop sampled at uniform times t_j = j/M."""

    samples: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.samples, dtype=complex)
        if q.ndim != 1 or len(q) < 16:
            raise LoopError("physical loop needs at least 16 samples")
        if not np.all(np.isfinite(q)):
            raise LoopError("physical loop samples must be finite")
        q = q.copy()
        q.flags.writeable = False
        object.__setattr__(self, "samples", q)

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.m) / self.m

    @property
    def collision_times(self) -> tuple:
        """The times t_j of the samples within EPS_COLLISION of a center."""
        return tuple(float(t) for t in self.times[center_distance(self.samples) < EPS_COLLISION])


def zhat(loop: DiscreteLoop) -> float:
    """Mean of the conformal weight along the loop (periodic trapezoid rule)."""
    value = float(np.mean(conformal_weight(loop.samples)))
    if value <= EPS_ZHAT:
        raise DegenerateLoopError("degenerate loop: zhat vanishes")
    return value


def _time_map_from_weights(w: np.ndarray) -> TimeMap:
    """The map whose t(tau) is the normalized antiderivative of the weights
    w, with its node values made monotone against round-off."""
    n = len(w)
    total = float(np.mean(w))
    nodes = np.empty(n + 1)
    nodes[:n] = np.maximum.accumulate(np.clip(integration_matrix(n) @ w / total, 0.0, 1.0))
    nodes[0] = 0.0
    nodes[n] = 1.0
    return TimeMap(zhat=total, t_of_tau=nodes, weights=w)


def time_map(loop: DiscreteLoop) -> TimeMap:
    """Reparametrization t(tau) between loop parameter and physical time."""
    w = conformal_weight(loop.samples)
    if float(np.mean(w)) <= EPS_ZHAT:
        raise DegenerateLoopError("degenerate loop: zhat vanishes")
    return _time_map_from_weights(w)


def reconstruct(loop: DiscreteLoop, m: int) -> PhysicalLoop:
    """Physical loop q(t_j) = B(z(tau(t_j))) on M uniform times.

    Closed in both sectors: for twisted z the cover map folds the twisted
    periodicity back to genuine 1-periodicity of q.
    """
    tau = time_map(loop).inverse(np.arange(m) / m)
    return PhysicalLoop(samples=birkhoff_map(eval_loop(loop, tau)))


def _track_branch(q: np.ndarray) -> tuple[np.ndarray, bool]:
    """Continuously track z = q + sqrt(q^2 - 1) along the samples.

    Returns the tracked branch and whether one traversal returns to the
    inversion of the start (odd total winding, i.e. a twisted lift).
    """
    if np.min(center_distance(q)) <= EPS_COLLISION:
        raise LiftError("cannot lift through branch point")
    root = np.sqrt(q * q - 1.0)
    z = np.empty_like(q)
    prev = q[0] + root[0]
    z[0] = prev
    for j in range(1, len(q)):
        plus = q[j] + root[j]
        minus = q[j] - root[j]
        d_plus = abs(plus - prev)
        d_minus = abs(minus - prev)
        if abs(d_plus - d_minus) <= 1e-9 * max(d_plus, d_minus, 1e-30):
            raise LiftError("undersampled lift")
        prev = plus if d_plus < d_minus else minus
        z[j] = prev
    # close the loop: which preimage of q[0] does the branch return to?
    plus = q[0] + root[0]
    minus = q[0] - root[0]
    closed = abs(plus - prev) < abs(minus - prev)
    end = plus if closed else minus
    if abs(end - prev) > 0.5 * abs(z[0] - 1.0 / z[0]) + 1e-6:
        raise LiftError("undersampled lift")
    twisted = not np.isclose(abs(end - z[0]), 0.0, atol=1e-6 * (1 + abs(z[0])))
    return z, twisted


def lift(q: PhysicalLoop) -> DiscreteLoop:
    """Lift a physical loop through the double cover to a blown-up loop.

    The branch is tracked sample by sample; odd total winding returns the
    inversion of the starting point after one traversal and yields a twisted
    loop.  The tracked curve (parametrized by physical time) is resampled to
    uniform loop parameter so that ``reconstruct(lift(q))`` reproduces ``q``.
    A sample within EPS_COLLISION of a center raises LiftError.
    """
    qs = q.samples
    zt, twisted = _track_branch(qs)
    m = len(zt)
    # reparametrize: dtau/dt proportional to 1/w(z(t)); normalize tau(1) = 1
    aux = _time_map_from_weights(1.0 / conformal_weight(zt))
    t_of_uniform_tau = aux.inverse(np.arange(m) / m)
    zc, period = _periodic_cover(zt, twisted)
    return DiscreteLoop(samples=_trig_eval(zc, t_of_uniform_tau, period=period), twisted=twisted)


def loop_to_dict(loop: DiscreteLoop) -> dict:
    return {
        "n": loop.n,
        "twisted": bool(loop.twisted),
        "samples": [[float(z.real), float(z.imag)] for z in loop.samples],
    }


def _require_bool(value, name: str) -> bool:
    """A JSON boolean as it is: "false" or 1 is rejected, not cast."""
    if not isinstance(value, bool):
        raise LoopError(f"{name} must be true or false, not {value!r}")
    return value


def _require_int(value, name: str, error: type = LoopError) -> int:
    """A JSON integer as it is: 16.7 or true is rejected, not cast."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, not {value!r}")
    return int(value)


def _require_real(value, name: str, error: type = LoopError) -> float:
    """A JSON number as it is: true or "2" is rejected, not cast."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise error(f"{name} must be a number, not {value!r}")
    return float(value)


def loop_from_dict(data: dict) -> DiscreteLoop:
    try:
        n, twisted = data["n"], data["twisted"]
        samples = np.array([complex(re, im) for re, im in data["samples"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise LoopError(f"malformed loop object: {exc}") from exc
    _require_bool(twisted, "loop object: 'twisted'")
    if len(samples) != _require_int(n, "loop object: 'n'"):
        raise LoopError("loop object: 'n' does not match number of samples")
    return DiscreteLoop(samples=samples, twisted=twisted)


def save_loop(loop: DiscreteLoop, path) -> None:
    with open(path, "w") as fh:
        json.dump(loop_to_dict(loop), fh)


def load_loop(path) -> DiscreteLoop:
    with open(path) as fh:
        return loop_from_dict(json.load(fh))
