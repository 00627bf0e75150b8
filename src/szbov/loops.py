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
baby-step/giant-step routine, ``_fourier_sum``, over the real rows of the
modes k >= 0 only: two small tables of phases, of about sqrt(N) and
sqrt(N)/2 rows, and one matrix product, instead of an M x N phase matrix.
A complex loop is two real rows, its real and imaginary parts, and the
interpolant's Nyquist convention is kept there alone, so that derivative
and antiderivative rows need no special case.  Each table takes cos and sin
of its power-of-two step rows alone and fills the others by complex
products (``_phases``), so that M points cost about log2(N) M cos/sin pairs
and 1.5 sqrt(N) M products.  Several coefficient rows at the same points
share the tables: the time map sums t and its slope t' in one pass.  The
time map's node values come from the same coefficients by one inverse FFT,
so the dense ``integration_matrix`` is left to the action's node object and
Hessian and to the solver's anchor measure.

The inverse time map tau(t), which every physical loop q(t) = B(z(tau(t)))
needs, is a safeguarded Newton iteration that costs one such pass per step.
It starts from the cubic Hermite interpolant of tau(t) on each node cell,
whose end slopes zhat/w_j are known at the nodes, wherever the node slopes
keep that cubic monotone.  A point retires after a Newton step that
Newton's error formula, with Bernstein's bound on t'', puts at round-off,
so no further pass confirms it: at N = 1024 most points take one pass, at
N = 64 about two.  Only the flat spots of t at collisions still take the
bisection tail.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .geometry import (
    WindingError,
    WindingReport,
    birkhoff_derivative,
    birkhoff_map,
    center_distance,
    conformal_weight,
    winding_report,
)

__all__ = [
    "EPS_ZHAT",
    "EPS_COLLISION",
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
    "eval_loop",
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
# the one node radius: within it of a center the chain-rule velocity is NaN,
# and the energy defect, verify's start nodes and phi_profile's mask drop it
EPS_NODE = 10.0 * EPS_COLLISION
# The most uniform times a physical loop is built at.  reconstruct's work
# arrays take about 0.8 KB a sample at n = 256 (53 MB at this bound), and the
# finest grid in use is m = 1024; a larger m, as from an edited record file,
# is refused before anything is allocated.
MAX_M = 2**16
# The finest loop grid taken.  A solve's dense arrays grow as n^2: at this
# bound its (2n)^2 real Hessian takes 128 MiB, each of its complex n x n
# blocks 64 MiB and the n x n integration_matrix 32 MiB, and the finest grid
# in use is n = 1024; a larger n, as from an edited record file, is refused
# before any of them is allocated.
MAX_N = 2**11

# TimeMap.inverse: residual and bracket width at which a point has converged
# (t and tau both lie in [0, 1], so these are round-off; the residual's eps
# also sets the bound that retires a Newton step), and a step cap above the
# ~45 bisections that collapse a node cell at n = 1024
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

    ``winding`` is computed on its first read and kept with the loop object,
    so every reader of one loop (a solve's seed, the record that holds it,
    the next continuation step seeded with it) shares one computation.
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

    @functools.cached_property
    def winding(self) -> Optional[WindingReport]:
        """The winding of B(z) about -1 and +1 at the loop's own nodes, or None
        where it is undefined (a node within EPS_COLLISION of a center, or
        too coarse a loop).  The winding does not depend on the
        parametrization, so the nodes need no time map."""
        try:
            return winding_report(birkhoff_map(self.samples), clearance=EPS_COLLISION)
        except WindingError:
            return None


def double_cover(loop: DiscreteLoop) -> np.ndarray:
    """2N samples of the genuine loop induced on [0, 2): z followed by 1/z."""
    return _periodic_cover(loop.samples, True)[0]


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
    """The real trigonometric sum of coefficient rows c at the points x.

    Each row holds the n/2 + 1 coefficients c_0 ... c_n/2 of the modes
    k >= 0, in the order of ``np.fft.rfft``, and sums to
    Re c_0 + 2 Re sum_{0<k<n/2} c_k exp(2 pi i k x) + Re(c_n/2 exp(i pi n x)).
    For the spectrum of real samples (``rfft(f) / n``, whose c_n/2 is real)
    this is their trigonometric interpolant, the Nyquist mode taken as
    c_n/2 cos(pi n x) (the symmetric convention); and since the Nyquist term
    keeps its phase, the rows (2 pi i k)^{+-1} c_k are the interpolant's
    derivative and periodic antiderivative at every k <= n/2, the Nyquist
    cosine's slope -pi n c_n/2 sin(pi n x) included, with no special case.
    A complex series is two rows, its real and imaginary parts.

    c has any leading shape (..., n/2 + 1), and the result is shaped
    (..., m): the phase tables depend on x alone, so every row is summed
    from the same two tables.

    Baby-step/giant-step: with B a power of two near sqrt(n), each mode
    0 <= k < n/2 is k = a*B + b with 0 <= b < B.  The coefficients,
    zero-padded into a table with one row per a and one column per b, are
    multiplied by the B x m baby-step phases exp(2 pi i b x) in one matmul;
    the product, times the giant-step phases exp(2 pi i a B x) entry by
    entry, is summed over a.  Both tables come from ``_phases``, which takes
    cos and sin of about log2 of its row count and fills the rest by complex
    products: with the Nyquist phase, each point costs about log2(n)
    cos/sin pairs and 1.5 sqrt(n) table products (10 and 48 at n = 1024).
    Each table is built outward from k = 0, so that the low modes, which
    carry the largest coefficients of a smooth loop, keep phase errors of
    size |k| and with them the round-off of a direct sum; x is shifted by an
    integer to |x| <= 1/2 for the same reason (the shift is exact, and so is
    the giant steps' scaling B x, B a power of two).
    """
    c = np.asarray(c)
    stack = c.reshape(-1, c.shape[-1])
    half = c.shape[-1] - 1
    baby = 1 << ((2 * half).bit_length() // 2)
    rows = -(-half // baby)
    table = np.zeros((len(stack), rows * baby), dtype=complex)
    table[:, :half] = 2.0 * stack[:, :half]
    table[:, 0] = stack[:, 0]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x = x - np.round(x)
    partial = (table.reshape(-1, baby) @ _phases(x, baby)).reshape(len(table), rows, len(x))
    partial *= _phases(baby * x, rows)
    nyquist = np.multiply.outer(stack[:, half], np.exp(2j * np.pi * half * x))
    out = partial.sum(axis=1).real + nyquist.real
    return out.reshape(c.shape[:-1] + (len(x),))


def _phases(x: np.ndarray, count: int) -> np.ndarray:
    """The rows exp(2 pi i k x), k < count, as a count x len(x) table.

    Row 0 is 1; the table takes cos and sin of the power-of-two step rows
    exp(2 pi i f x), f < count, in one call each (the cos and sin of the
    real argument: the same values as complex exp, computed faster), and
    fills the other rows by doubling: rows [f, 2f) are rows [0, f) times the
    step-f row.  So it costs about log2(count) cos/sin rows and count complex
    products per point, against count cos/sin pairs.  Each entry is a
    product of at most log2(count) + 1 rounded factors whose arguments add
    up to 2 pi k x, and its error stays at eps (1 + 2 pi |k x|), the level
    of the argument's own rounding.
    """
    out = np.empty((count, len(x)), dtype=complex)
    out[0] = 1.0
    steps = [1 << i for i in range((count - 1).bit_length())]
    arg = np.array(steps, dtype=float)[:, None] * (2.0 * np.pi * x)
    trig = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=trig.real)
    np.sin(arg, out=trig.imag)
    for f, step in zip(steps, trig):
        end = min(2 * f, count)
        np.multiply(out[: end - f], step, out=out[f:end])
    return out


def _trig_eval(samples: np.ndarray, x, period: float = 1.0) -> np.ndarray:
    """Evaluate the trigonometric interpolant of uniform complex samples at x,
    summed as two real rows."""
    c = np.fft.rfft([samples.real, samples.imag]) / len(samples)
    re, im = _fourier_sum(c, np.asarray(x, dtype=float) / period)
    return re + 1j * im


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


def chain_rule_state(loop: DiscreteLoop):
    """Physical position q = B(z) and velocity of a blown-up loop at its
    nodes.

    Since dt/dtau = w(z)/zhat, the chain rule gives
    qdot = B'(z) z' zhat / w(z), with z' the spectral derivative.  At a
    collision the weight vanishes and the speed is unbounded; the velocity
    is NaN at the nodes within EPS_NODE of a center.
    """
    z = loop.samples
    q = birkhoff_map(z)
    return q, _chain_rule_velocity(q, conformal_weight(z), zhat(loop), derivative(loop), birkhoff_derivative(z))


def _chain_rule_velocity(q: np.ndarray, w: np.ndarray, zh: float, zp: np.ndarray, bp: np.ndarray) -> np.ndarray:
    """qdot = B'(z) z' zhat / w at the nodes, from q = B(z), the weights w,
    their mean zhat, z' and B'(z); NaN where q lies within EPS_NODE of a center."""
    safe = center_distance(q) > EPS_NODE
    qdot = np.full(w.shape, np.nan, dtype=complex)
    qdot[safe] = bp[safe] * (zh / w[safe]) * zp[safe]
    return qdot


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
    holds exactly.  Zeroing the Nyquist mode is exact at the nodes for one
    derivative, since its cosine's slope, a multiple of sin(pi j), vanishes
    there; off the nodes ``_fourier_sum`` keeps that slope.  Built in O(n^2)
    as a C-contiguous float64 array, and read-only, since the cached array
    is shared.
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
    time-reparametrized electric term differentiates through: the node
    object ``action._Nodes`` (its times and the electric tail), the electric
    Hessian and ``selection.anchor_measure`` apply it.  The time map takes
    the same node values from an FFT of the weights instead.  Mode k of the
    interpolant integrates to (exp(2 pi i k tau) - 1) / (2 pi i k), the mean
    to tau, and the Nyquist cosine to a sine that vanishes at the nodes.  So
    K[j, l] = (j/n + h[(j - l) mod n] - h[(-l) mod n]) / n, with h = n
    ifft(c) the periodic part, c_k = 1 / (2 pi i k) and the mean and Nyquist
    modes zeroed (exact at the nodes; off them ``_fourier_sum`` keeps the
    Nyquist sine): one circulant plus a row and a column, built in O(n^2) as
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


@dataclass(frozen=True)
class TimeMap:
    """Cumulative reparametrization data between loop parameter and time.

    t(tau) is the normalized antiderivative of the conformal weight along the
    loop, built from the weights w(z_j) at the nodes alone; the mean weight
    ``zhat`` and everything else are read from them on first use.  The
    Fourier coefficients of the weights and of their antiderivative are
    computed once per map, by one real FFT, and kept as one two-row stack of
    the modes k >= 0 (``_spectral``), from which the node values
    ``t_of_tau`` are taken as well; ``t`` sums the antiderivative row at any
    tau with ``_fourier_sum`` and, asked for the slope as well, sums both
    rows from the same phase tables.
    The continuous inverse is realized by a safeguarded Newton iteration
    inside the node brackets of ``t_of_tau``, one such pass per step, started
    from the cubic Hermite interpolant of tau(t) on each node cell and
    falling back to bisection where t' vanishes (collisions) or the Newton
    step leaves the bracket.  A Newton step retires its point unevaluated
    when its error bound, from ``_curvature_bound`` >= sup |t''|, is at
    round-off.
    """

    weights: np.ndarray = field(repr=False)  # w(z_j) at the nodes

    @property
    def n(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def zhat(self) -> float:
        """The mean weight, t's normalization."""
        return float(np.mean(self.weights))

    @functools.cached_property
    def t_of_tau(self) -> np.ndarray:
        """t at the nodes tau = j/n, j = 0..n, made monotone against
        round-off, from the map's own coefficients, the ones ``t`` sums: at
        tau = j/n the periodic part is (n irfft(coef))_j, since the Nyquist
        mode's sine vanishes there (``np.fft.irfft`` ignores its imaginary
        coefficient).  So one FFT of the weights serves the nodes and every
        later ``t``, and no n x n matrix is formed."""
        n = self.n
        coef, c = self._spectral
        raw = (c[0].real / n) * np.arange(n) + n * np.fft.irfft(coef, n)
        nodes = np.empty(n + 1)
        nodes[:n] = np.maximum.accumulate(np.clip(raw / self.zhat, 0.0, 1.0))
        nodes[0] = 0.0
        nodes[n] = 1.0
        return nodes

    @functools.cached_property
    def _spectral(self):
        """The two coefficient rows of the modes 0 <= k <= n/2 that
        ``_fourier_sum`` sums: the weights' own c_k in row 1 and, in row 0,
        their periodic antiderivative c_k / (2 pi i k), whose mean entry is
        minus its value at tau = 0, so that it vanishes there."""
        n = self.n
        half = n // 2
        stack = np.zeros((2, half + 1), dtype=complex)
        stack[1] = np.fft.rfft(self.weights) / n
        stack[0, 1:] = stack[1, 1:] / (2j * np.pi * np.arange(1, half + 1))
        # the Nyquist entry is imaginary, so it adds nothing at tau = 0
        stack[0, 0] = -2.0 * np.sum(stack[0].real)
        return stack

    @functools.cached_property
    def _curvature_bound(self) -> float:
        """C >= sup |t''|, from the weights' coefficients c_k.

        t' = w/zhat, with w the weights' trigonometric interpolant, of
        degree n/2 in tau on a period of 1.  Bernstein's inequality for such
        a polynomial bounds its derivative by 2 pi (n/2) times its own sup
        (Zygmund, Trigonometric Series, ch. X), so sup |t''| <= pi n sup |t'|;
        and sup |w| <= |c_0| + 2 sum_{0<k<n/2} |c_k| + |c_n/2|."""
        c = np.abs(self._spectral[1])
        n = self.n
        return math.pi * n * (c[0] + 2.0 * np.sum(c[1 : n // 2]) + c[n // 2]) / self.zhat

    def t(self, tau, with_slope: bool = False):
        """Continuous evaluation of t(tau); extends by t(tau+1) = t(tau)+1.

        With ``with_slope``, returns (t, t') where t' = w(z(tau))/zhat is the
        trigonometric interpolant of the weights, clipped at 0, summed in the
        same pass as t.
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        base = np.floor(tau)
        frac = tau - base
        stack = self._spectral
        sums = _fourier_sum(stack[: 2 if with_slope else 1], frac)
        raw = np.real(stack[1, 0]) * frac + sums[0]
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

        A point also retires right after a Newton step that lands inside its
        bracket, at that step and with no further evaluation, when the
        step's error bound is at most eps/2.  Newton's error formula gives
        tau_1 - tau* = t''(xi) (tau_0 - tau*)^2 / (2 t'(tau_0)) for some xi
        between tau_0 and tau*, and |tau_0 - tau*| is the step
        tau_1 - tau_0 up to a term of second order, so the bound is
        C (tau_1 - tau_0)^2 / (2 t'(tau_0)) with C >= sup |t''|
        (``_curvature_bound``).  At n = 1024 the Hermite start is within
        ~1e-11 of the answer on smooth loops, so the first step retires most
        points: one pass where the residual test alone needs two.
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
            # a step whose error bound C (newton - ta)^2 / (2 t') is at most
            # eps/2 is the answer: it retires unevaluated
            final = inside & (self._curvature_bound * (newton - ta) ** 2 <= _INVERSE_RTOL * deriv)
            active = active[~(done | final)]
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
    return time_map(loop).zhat


def time_map(loop: DiscreteLoop) -> TimeMap:
    """Reparametrization t(tau) between loop parameter and physical time."""
    out = TimeMap(conformal_weight(loop.samples))
    if out.zhat <= EPS_ZHAT:
        raise DegenerateLoopError("degenerate loop: zhat vanishes")
    return out


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

    Sample j takes the preimage nearer the one chosen at sample j - 1, so
    the choice is a map on the two states {plus, minus}: identity, swap or
    constant, read from the four distances between the preimages of samples
    j - 1 and j.  Starting from plus at sample 0, the state at sample j is
    the value of the last constant map, flipped by the parity of the swaps
    since; the tie test is read along that path.
    """
    if np.min(center_distance(q)) <= EPS_COLLISION:
        raise LiftError("cannot lift through branch point")
    root = np.sqrt(q * q - 1.0)
    plus = q + root
    minus = q - root
    # from either preimage at sample j - 1: is minus the nearer one at
    # sample j (True) or plus, and do the two tie
    to_minus, tie = [], []
    for prev in (plus[:-1], minus[:-1]):
        d_plus = np.abs(plus[1:] - prev)
        d_minus = np.abs(minus[1:] - prev)
        to_minus.append(~(d_plus < d_minus))
        tie.append(np.abs(d_plus - d_minus) <= 1e-9 * np.maximum(np.maximum(d_plus, d_minus), 1e-30))
    from_plus, from_minus = to_minus
    # the map at each sample, sample 0 being the constant map to plus
    constant = np.concatenate([[True], from_plus == from_minus])
    value = np.concatenate([[False], from_plus])
    swaps = np.concatenate([[0], from_plus & ~from_minus]).cumsum()
    last = np.maximum.accumulate(np.where(constant, np.arange(len(q)), 0))
    on_minus = value[last] ^ ((swaps - swaps[last]) % 2 == 1)
    if np.any(np.where(on_minus[:-1], tie[1], tie[0])):
        raise LiftError("undersampled lift")
    z = np.where(on_minus, minus, plus)
    prev = z[-1]
    # close the loop: which preimage of q[0] does the branch return to?
    closed = abs(plus[0] - prev) < abs(minus[0] - prev)
    end = plus[0] if closed else minus[0]
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
    aux = TimeMap(1.0 / conformal_weight(zt))
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


def _require_point(value, name: str, error: type = LoopError) -> complex:
    """A point of the plane as given: a JSON [re, im] pair or number, or a
    complex number from the library; true or "1" is rejected, not cast, and
    so is a list of any other length than two."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise error(f"{name} must be a number or an [re, im] pair, not {value!r}")
        re, im = value
        return complex(_require_real(re, name, error), _require_real(im, name, error))
    if isinstance(value, complex):
        return complex(value)
    return complex(_require_real(value, name, error))


# JSON has no number for a NaN or an infinity: a record holds its text, keyed
# here by the float's repr, as dumps_canonical writes it.
_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        return f'"{_NONFINITE_TEXT[repr(x)]}"'
    text = format(x, ".17g")
    # "-0" would read back as the integer 0, which has no sign
    return "-0.0" if text == "-0" else text


def dumps_canonical(obj, indent: int = 0) -> str:
    """Serialize to JSON with 17-significant-digit floats, as every file is written.

    Plain ``json.dumps`` formats floats by shortest round trip, which is also
    deterministic but version-sensitive; the fixed format pins the bytes.
    A NaN or an infinity is written as its text in ``_NONFINITE_TEXT``,
    which ``record_from_dict`` reads back.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_canonical(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        # numbers and nulls on one line (an empty list too), else one item a line
        if all(isinstance(v, (int, float)) or v is None for v in obj):
            return "[" + ", ".join(map(dumps_canonical, obj)) + "]"
        items = [f"{pad}  {dumps_canonical(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    # a float in the fixed format; a bool, None, an int or a string as json.dumps writes it
    return _fmt_float(obj) if isinstance(obj, float) else json.dumps(obj)


def _read_json(path):
    """The JSON in the file at ``path``, for loop, record and config files
    alike; text that is not JSON, or not UTF-8, raises LoopError naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise LoopError(f"{path}: invalid JSON near line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise LoopError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")


def _require_diagnostic(value, name: str) -> float:
    """A JSON number as it is, or the text of a NaN or an infinity."""
    if isinstance(value, str) and value in _NONFINITE_TEXT.values():
        return float(value)
    return _require_real(value, name)


def loop_from_dict(data: dict) -> DiscreteLoop:
    try:
        n, twisted = data["n"], data["twisted"]
        samples = np.array([_require_point(p, "loop object: a sample") for p in data["samples"]])
    except (KeyError, TypeError) as exc:
        raise LoopError(f"malformed loop object: {exc}") from exc
    _require_bool(twisted, "loop object: 'twisted'")
    n = _require_int(n, "loop object: 'n'")
    if n > MAX_N:
        raise LoopError(f"loop object: 'n' must be at most MAX_N = {MAX_N}, not {n!r}")
    if len(samples) != n:
        raise LoopError("loop object: 'n' does not match number of samples")
    return DiscreteLoop(samples=samples, twisted=twisted)


def save_loop(loop: DiscreteLoop, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(loop_to_dict(loop)) + "\n")


def load_loop(path) -> DiscreteLoop:
    return loop_from_dict(_read_json(path))
