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
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import birkhoff_map, conformal_weight

__all__ = [
    "LoopError",
    "DegenerateLoopError",
    "LiftError",
    "DiscreteLoop",
    "TimeMap",
    "PhysicalLoop",
    "derivative",
    "second_derivative",
    "double_cover",
    "zhat",
    "time_map",
    "inverse_time",
    "reconstruct",
    "lift",
    "loop_to_dict",
    "loop_from_dict",
    "save_loop",
    "load_loop",
]

EPS_ZHAT = 1e-10
EPS_COLLISION = 1e-6

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


def _spectral_derivative(samples: np.ndarray, period: float = 1.0, order: int = 1) -> np.ndarray:
    """Spectral derivative along the last axis."""
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
    n = len(c)
    half = n // 2
    baby = 1 << (n.bit_length() // 2)
    first = (baby // 2 - half) // baby
    rows = (half - 1 + baby // 2) // baby - first + 1
    zero = baby // 2 - first * baby  # table slot of k = 0
    table = np.zeros(rows * baby, dtype=complex)
    table[zero : zero + half] = c[:half]
    table[zero - half + 1 : zero] = c[half + 1 :]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x = x - np.round(x)
    baby_phase = _phases(x, np.arange(-(baby // 2), baby // 2))
    giant_phase = _phases(x, baby * np.arange(first, first + rows))
    out = np.einsum("ij,ij->i", giant_phase, baby_phase @ table.reshape(rows, baby).T)
    return out + c[half] * np.cos(np.pi * n * x)


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


def derivative(loop: DiscreteLoop) -> np.ndarray:
    """Spectral derivative z' at the nodes (via the double cover if twisted)."""
    if loop.twisted:
        return _spectral_derivative(double_cover(loop), period=2.0)[: loop.n]
    return _spectral_derivative(loop.samples, period=1.0)


def second_derivative(loop: DiscreteLoop) -> np.ndarray:
    """Spectral second derivative z'' at the nodes."""
    if loop.twisted:
        return _spectral_derivative(double_cover(loop), period=2.0, order=2)[: loop.n]
    return _spectral_derivative(loop.samples, period=1.0, order=2)


def eval_loop(loop: DiscreteLoop, tau) -> np.ndarray:
    """Evaluate the loop at arbitrary parameters by trigonometric interpolation."""
    if loop.twisted:
        return _trig_eval(double_cover(loop), tau, period=2.0)
    return _trig_eval(loop.samples, tau, period=1.0)


@functools.lru_cache(maxsize=8)
def integration_matrix(n: int) -> np.ndarray:
    """Dense real matrix K with (K @ f)_j = integral of the trigonometric
    interpolant of f from 0 to j/n.

    Linear in the samples, which is what the exact discrete gradient of the
    time-reparametrized electric term differentiates through.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    tau = np.arange(n) / n
    dft = np.fft.fft(np.eye(n), axis=0) / n  # c = dft @ f
    phase = np.exp(2j * np.pi * np.outer(tau, k))
    coef = np.zeros(n, dtype=complex)
    nz = k != 0
    coef[nz] = 1.0 / (2j * np.pi * k[nz])
    p = (phase - 1.0) * coef
    p[:, 0] = tau  # mean term integrates to c0 * tau
    p[:, n // 2] = 0.0  # Nyquist cosine integrates to sin, zero at the nodes
    return np.real(p @ dft)


@dataclass(frozen=True)
class TimeMap:
    """Cumulative reparametrization data between loop parameter and time.

    t(tau) is the normalized antiderivative of the conformal weight along the
    loop.  The Fourier coefficients of the weights and of their antiderivative
    are computed once per map (``_spectral``); ``t`` and ``t_prime`` then sum
    them at any tau with ``_fourier_sum``.  The continuous inverse is realized
    by a safeguarded Newton iteration inside the node brackets of
    ``t_of_tau``, falling back to bisection where t' vanishes (collisions) or
    the Newton step leaves the bracket.
    """

    zhat: float
    t_of_tau: np.ndarray  # length n+1, from 0 to 1
    weights: np.ndarray = field(repr=False)  # w(z_j) at the nodes

    @property
    def n(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def _spectral(self):
        """Fourier coefficients c of the weights; coefficients of their
        antiderivative, c_k / (2 pi i k) with the mean and Nyquist modes
        zeroed; and that antiderivative's value at tau = 0."""
        n = self.n
        c = np.fft.fft(self.weights) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        coef = np.zeros(n, dtype=complex)
        nz = k != 0
        coef[nz] = c[nz] / (2j * np.pi * k[nz])
        coef[n // 2] = 0.0  # Nyquist handled as a cosine below
        return c, coef, np.real(np.sum(coef))

    def t(self, tau) -> np.ndarray:
        """Continuous evaluation of t(tau); extends by t(tau+1) = t(tau)+1."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        base = np.floor(tau)
        frac = tau - base
        c, coef, at_zero = self._spectral
        m = self.n // 2
        osc = np.real(_fourier_sum(coef, frac)) - at_zero
        # Nyquist mode interpolated as cos: antiderivative sin(2 pi m tau)/(2 pi m)
        osc += np.real(c[m]) * np.sin(2.0 * np.pi * m * frac) / (2.0 * np.pi * m)
        raw = np.real(c[0]) * frac + osc
        return base + raw / self.zhat

    def t_prime(self, tau) -> np.ndarray:
        """dt/dtau = w(z(tau))/zhat via trigonometric interpolation of w."""
        w = np.real(_fourier_sum(self._spectral[0], tau))
        return np.clip(w, 0.0, None) / self.zhat

    def inverse(self, t) -> np.ndarray:
        """tau(t) with residual |t(tau) - t| below ~1e-13.

        Safeguarded Newton iteration, vectorized over the points.  Each point
        starts from linear interpolation between its bracketing nodes of
        ``t_of_tau`` and keeps that node cell as a bracket, shrunk by the sign
        of the residual at every step.  The Newton step is taken when t' > 0
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
        nodes = self.t_of_tau
        n = self.n
        idx = np.clip(np.searchsorted(nodes, frac, side="right") - 1, 0, n - 1)
        lo = idx / n
        hi = (idx + 1) / n
        rise = nodes[idx + 1] - nodes[idx]
        share = np.clip((frac - nodes[idx]) / np.where(rise > 0, rise, 1.0), 0.0, 1.0)
        tau = lo + share * (hi - lo)
        active = np.arange(len(frac))
        for _ in range(_INVERSE_MAX_STEPS):
            ta, fa, la, ha = tau[active], frac[active], lo[active], hi[active]
            resid = self.t(ta) - fa
            above = resid > 0
            la = np.where(above, la, ta)
            ha = np.where(above, ta, ha)
            lo[active], hi[active] = la, ha
            deriv = self.t_prime(ta)
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
    collision_times: tuple = ()

    def __post_init__(self):
        q = np.asarray(self.samples, dtype=complex)
        if q.ndim != 1 or len(q) < 16:
            raise LoopError("physical loop needs at least 16 samples")
        if not np.all(np.isfinite(q)):
            raise LoopError("physical loop samples must be finite")
        q = q.copy()
        q.flags.writeable = False
        object.__setattr__(self, "samples", q)
        object.__setattr__(self, "collision_times", tuple(float(t) for t in self.collision_times))

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.m) / self.m


def zhat(loop: DiscreteLoop, eps: float = EPS_ZHAT) -> float:
    """Mean of the conformal weight along the loop (periodic trapezoid rule)."""
    value = float(np.mean(conformal_weight(loop.samples)))
    if value <= eps:
        raise DegenerateLoopError("degenerate loop: zhat vanishes")
    return value


def _monotone_nodes(scaled: np.ndarray, n: int) -> np.ndarray:
    nodes = np.empty(n + 1)
    nodes[:n] = np.maximum.accumulate(np.clip(scaled, 0.0, 1.0))
    nodes[0] = 0.0
    nodes[n] = 1.0
    return nodes


def time_map(loop: DiscreteLoop, eps: float = EPS_ZHAT) -> TimeMap:
    """Reparametrization t(tau) between loop parameter and physical time."""
    w = conformal_weight(loop.samples)
    zh = float(np.mean(w))
    if zh <= eps:
        raise DegenerateLoopError("degenerate loop: zhat vanishes")
    nodes = _monotone_nodes(integration_matrix(loop.n) @ w / zh, loop.n)
    return TimeMap(zhat=zh, t_of_tau=nodes, weights=w)


def inverse_time(tm: TimeMap, t) -> np.ndarray:
    """tau(t), the continuous inverse of the reparametrization."""
    return tm.inverse(t)


def reconstruct(loop: DiscreteLoop, m: int, eps_col: float = EPS_COLLISION) -> PhysicalLoop:
    """Physical loop q(t_j) = B(z(tau(t_j))) on M uniform times.

    Closed in both sectors: for twisted z the cover map folds the twisted
    periodicity back to genuine 1-periodicity of q.
    """
    tm = time_map(loop)
    t = np.arange(m) / m
    tau = tm.inverse(t)
    q = birkhoff_map(eval_loop(loop, tau))
    near = np.minimum(np.abs(q - 1.0), np.abs(q + 1.0)) < eps_col
    return PhysicalLoop(samples=q, collision_times=tuple(t[near]))


def _track_branch(q: np.ndarray, eps_col: float) -> tuple[np.ndarray, bool]:
    """Continuously track z = q + sqrt(q^2 - 1) along the samples.

    Returns the tracked branch and whether one traversal returns to the
    inversion of the start (odd total winding, i.e. a twisted lift).
    """
    if np.min(np.minimum(np.abs(q - 1.0), np.abs(q + 1.0))) <= eps_col:
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


def lift(q: PhysicalLoop, eps_col: float = EPS_COLLISION) -> DiscreteLoop:
    """Lift a physical loop through the double cover to a blown-up loop.

    The branch is tracked sample by sample; odd total winding returns the
    inversion of the starting point after one traversal and yields a twisted
    loop.  The tracked curve (parametrized by physical time) is resampled to
    uniform loop parameter so that ``reconstruct(lift(q))`` reproduces ``q``.
    """
    qs = q.samples
    zt, twisted = _track_branch(qs, eps_col)
    m = len(zt)
    # reparametrize: dtau/dt proportional to 1/w(z(t)); normalize tau(1) = 1
    w = conformal_weight(zt)
    u = 1.0 / w
    raw = integration_matrix(m) @ u
    total = float(np.mean(u))
    aux = TimeMap(zhat=total, t_of_tau=_monotone_nodes(raw / total, m), weights=u)
    t_of_uniform_tau = aux.inverse(np.arange(m) / m)
    if twisted:
        samples = _trig_eval(np.concatenate([zt, 1.0 / zt]), t_of_uniform_tau, period=2.0)
    else:
        samples = _trig_eval(zt, t_of_uniform_tau, period=1.0)
    return DiscreteLoop(samples=samples, twisted=twisted)


def loop_to_dict(loop: DiscreteLoop) -> dict:
    return {
        "n": loop.n,
        "twisted": bool(loop.twisted),
        "samples": [[float(z.real), float(z.imag)] for z in loop.samples],
    }


def loop_from_dict(data: dict) -> DiscreteLoop:
    try:
        n = int(data["n"])
        twisted = bool(data["twisted"])
        samples = np.array([complex(re, im) for re, im in data["samples"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise LoopError(f"malformed loop object: {exc}") from exc
    if len(samples) != n:
        raise LoopError("loop object: 'n' does not match number of samples")
    return DiscreteLoop(samples=samples, twisted=twisted)


def save_loop(loop: DiscreteLoop, path) -> None:
    with open(path, "w") as fh:
        json.dump(loop_to_dict(loop), fh)


def load_loop(path) -> DiscreteLoop:
    with open(path) as fh:
        return loop_from_dict(json.load(fh))
