"""Physical-side dynamics: Newtonian right-hand side, adaptive integration,
the first-integral profile, and the generalized-solution verifier.

The integrator is the independent oracle for reconstructed orbits: it knows
nothing about the blown-up loop space and simply integrates the second-order
equation with the adaptive Dormand-Prince 8(5,3) Runge-Kutta scheme.  It is
Hairer's DOP853 (coefficients in ``_dop853``) with the step control of
SciPy's ``solve_ivp``, stepped here on the complex scalars (q, v): a step
costs its 12 right-hand sides and a few hundred scalar operations, and the
package needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._dop853 import A, B, C, D, E3, E5, N_STAGES
from .action import _Nodes
from .fields import FieldConfig
from .geometry import center_distance
from .loops import EPS_COLLISION, EPS_NODE, DiscreteLoop, PhysicalLoop, _fft_derivative

__all__ = [
    "SingularityError",
    "Trajectory",
    "PhiProfile",
    "VerificationReport",
    "newtonian_rhs",
    "integrate",
    "phi_profile",
    "verify_generalized",
]

COMPLETED = "completed"
COLLISION_PROXIMITY = "collision_proximity"
STEP_FAILURE = "step_failure"


class SingularityError(ValueError):
    """Evaluation at (or integration into) a Coulomb center."""


@dataclass(frozen=True)
class Trajectory:
    """Integrated physical trajectory with a termination status."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    terminated: str

    def __post_init__(self):
        if not (len(self.times) == len(self.positions) == len(self.velocities)):
            raise ValueError("trajectory arrays must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")


def _node_defect(nodes: _Nodes, C: float) -> tuple[np.ndarray, float]:
    """The defect phi_j = C - |qdot_j|^2/2 - U(q_j) - tail_j - e(t_j, q_j) at
    the nodes of ``nodes`` (the tail is the delay residual's, ``_Nodes.tail``),
    and its sup over the energy scale max |C| + |qdot|^2/2 + |U|.  A node
    within EPS_NODE of a center (qdot NaN) reads 0 and is left out of the sup."""
    q, qdot = nodes.q, nodes.qdot
    safe = np.isfinite(qdot)
    u = _potential(q[safe], nodes.cfg.mu)
    kin = 0.5 * np.abs(qdot[safe]) ** 2
    phi = np.zeros(len(q))
    phi[safe] = C - kin - u - nodes.tail[safe] - nodes.e[safe]
    return phi, float(np.max(np.abs(phi[safe])) / np.max(np.abs(C) + kin + np.abs(u)))


@dataclass(frozen=True)
class PhiProfile:
    """Energy-defect profile of a physical loop.

    phi lives on the closed uniform time grid (M+1 nodes).  When a source
    loop in the blown-up plane is supplied, ``source_sup`` is the relative
    sup of the same defect at its own nodes, from the chain-rule velocity
    (``_node_defect``).
    """

    C: float
    phi: np.ndarray
    mask: np.ndarray  # True where the node is usable (off collisions)
    source_sup: Optional[float] = None

    @property
    def mean_phi(self) -> float:
        """Trapezoid mean of phi over the period; NaN when mask drops a node,
        since the defect is not defined there."""
        if not np.all(self.mask):
            return float("nan")
        return float(np.trapezoid(self.phi, dx=1.0 / (len(self.phi) - 1)))

    @property
    def sup_phi(self) -> float:
        return float(np.max(np.abs(self.phi[self.mask])))

    @property
    def sup_phi_relative(self) -> float:
        """sup of the source loop's defect at its nodes, where velocities
        stay accurate arbitrarily close to collisions, relative to the energy
        scale."""
        if self.source_sup is None:
            raise ValueError("no source loop was supplied to phi_profile")
        return self.source_sup


def newtonian_rhs(t, q, v, cfg: FieldConfig):
    """Acceleration of the charged particle at position q with velocity v.

    q and v are complex scalars or arrays of one shape, and the result takes
    the same form; ``integrate`` passes scalars, once per Runge-Kutta stage.
    Scalars stay Python numbers: they skip the conversion to arrays, and the
    Coulomb-center test reads the product of the distances directly, since
    ``np.all`` on a number costs most of a zero-field call.  The field
    evaluators take and return Python numbers for a scalar, so the result is
    a Python complex for every field and the stages that use it run on
    Python numbers.  A field that is zero adds no term.
    """
    scalar = isinstance(q, (complex, float, int))
    if not scalar:
        q = np.asarray(q, dtype=complex)
        v = np.asarray(v, dtype=complex)
    rp = abs(q + 1.0)
    rm = abs(q - 1.0)
    if not (rp * rm if scalar else np.all(rp * rm)):
        raise SingularityError("position at a Coulomb center")
    acc = -(1 - cfg.mu) * (q + 1.0) / rp**3 - cfg.mu * (q - 1.0) / rm**3
    if not cfg.magnetic.is_zero:
        # Lorentz force B i qdot: sign fixed by consistency with the loop
        # functional, whose magnetic circulation term satisfies
        # d/ds \oint (q+s xi)^*A = <-B i qdot, xi>
        acc = acc + cfg.magnetic.field_at(q) * 1j * v
    if not cfg.electric.is_zero:
        acc = acc - cfg.electric.grad(t, q)
    return acc


# Step-size control of Hairer's DOP853, as SciPy's solve_ivp has it.  The
# error estimate is of order 7, so the step scales as the error to the
# power -1/8.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_MAX_STEP = 0.25


def _scales(tol, q, v, q_new, v_new):
    """Per real component of (q, v): tol (1 + |y|), with |y| the larger of
    its old and new value."""
    return (
        tol + max(abs(q.real), abs(q_new.real)) * tol,
        tol + max(abs(q.imag), abs(q_new.imag)) * tol,
        tol + max(abs(v.real), abs(v_new.real)) * tol,
        tol + max(abs(v.imag), abs(v_new.imag)) * tol,
    )


def _scaled_square(s, dq, dv):
    """Sum of squares of the four real components of (dq, dv), each divided
    by its scale."""
    return (dq.real / s[0]) ** 2 + (dq.imag / s[1]) ** 2 + (dv.real / s[2]) ** 2 + (dv.imag / s[3]) ** 2


def _initial_step(cfg, t0, q, v, a, t1, direction, tol):
    """Hairer's starting step (Solving ODEs I, Sec. II.4), as SciPy's
    ``select_initial_step`` takes it: one explicit Euler probe of the
    derivative's change."""
    interval = abs(t1 - t0)
    if interval == 0.0:
        return 0.0
    s = _scales(tol, q, v, q, v)
    d0 = math.sqrt(_scaled_square(s, q, v) / 4)
    d1 = math.sqrt(_scaled_square(s, v, a) / 4)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    q1 = q + h0 * direction * v
    v1 = v + h0 * direction * a
    a1 = newtonian_rhs(t0 + h0 * direction, q1, v1, cfg)
    d2 = math.sqrt(_scaled_square(s, v1 - v, a1 - a) / 4) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval, _MAX_STEP)


def _error_norm(h, s, kq, ka):
    """Hairer's blended error norm: the 5th-order estimate, damped where the
    3rd-order one is large, over the four real components."""
    e5q = e5v = e3q = e3v = 0j
    for j, e in E5:
        e5q += e * kq[j]
        e5v += e * ka[j]
    for j, e in E3:
        e3q += e * kq[j]
        e3v += e * ka[j]
    n5 = _scaled_square(s, e5q, e5v)
    n3 = _scaled_square(s, e3q, e3v)
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * 4)


def _dense_coefficients(cfg, t_old, h, q_old, v_old, q_new, v_new, kq, ka):
    """The 7 coefficients of DOP853's interpolant on each of a stack of steps,
    for the q part and the v part.

    The arguments are arrays over the steps; kq and ka are shaped (steps, 13),
    the step's stages (velocities and accelerations).  The three extra
    stages are evaluated here, for all the steps at once.
    """
    kq = list(kq.T)
    ka = list(ka.T)
    for s in range(N_STAGES + 1, len(C)):
        dq = sum(a * kq[j] for j, a in A[s])
        dv = sum(a * ka[j] for j, a in A[s])
        v_s = v_old + dv * h
        kq.append(v_s)
        ka.append(newtonian_rhs(t_old + C[s] * h, q_old + dq * h, v_s, cfg))
    out = []
    for y_old, y_new, k in ((q_old, q_new, kq), (v_old, v_new, ka)):
        dy = y_new - y_old
        f = [dy, h * k[0] - dy, 2 * dy - h * (k[N_STAGES] + k[0])]
        f += [h * sum(a * k[j] for j, a in row) for row in D]
        out.append(f)
    return out


def _interpolate(f, y_old, x):
    """DOP853's interpolant at the fraction x of its step."""
    y = 0.0
    for i, c in enumerate(reversed(f)):
        y = (y + c) * (x if i % 2 == 0 else 1 - x)
    return y + y_old


def _crossing(cfg, step, gap):
    """(t, q, v) where gap(q) falls through 0 inside an accepted step, bisected
    on the step's interpolant down to adjacent floats."""
    t_old, h, q_old, v_old = step[:4]
    fq, fv = _dense_coefficients(cfg, *(np.array([x]) for x in step))
    fq = [complex(c[0]) for c in fq]
    fv = [complex(c[0]) for c in fv]
    lo, hi = t_old, t_old + h
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if gap(_interpolate(fq, q_old, (mid - t_old) / h)) > 0:
            lo = mid
        else:
            hi = mid
    x = (hi - t_old) / h
    return hi, _interpolate(fq, q_old, x), _interpolate(fv, v_old, x)


# the stages 1-11 of a step, as (c_i, row i of A)
_STAGES = tuple(zip(C[1:N_STAGES], A[1:N_STAGES]))


def integrate(
    q0,
    v0,
    t0: float,
    t1: float,
    cfg: FieldConfig,
    tol: float = 1e-10,
    sample_times=None,
) -> Trajectory:
    """Adaptive Dormand-Prince 8(5,3) integration of the Newtonian equation.

    Hairer's DOP853 as SciPy's ``solve_ivp(method="DOP853")`` runs it, with
    rtol = atol = ``tol`` and steps of at most 0.25, on the complex scalars
    (q, v): the same starting step, blended error norm and step control.
    Aborts with ``collision_proximity`` when the distance to the nearer
    center falls to ``EPS_COLLISION`` at a step end; the crossing is located
    on that step's interpolant.  When ``sample_times`` are given, the
    interpolant is evaluated at those the run reached, in one pass over the
    steps that hold them, otherwise the accepted step ends are returned.
    ``step_failure`` means the step fell below 10 ulp of the time.
    """
    q0 = complex(q0)
    v0 = complex(v0)
    if min(abs(q0 - 1.0), abs(q0 + 1.0)) < EPS_COLLISION:
        raise SingularityError("initial position at a Coulomb center")
    if not math.isfinite(abs(q0) + abs(v0)):
        # as the chain-rule velocity is at a node within EPS_NODE of a center
        raise SingularityError("initial state is not finite")

    def gap(q):
        return min(abs(q - 1.0), abs(q + 1.0)) - EPS_COLLISION

    direction = 1.0 if t1 >= t0 else -1.0
    t, q, v = float(t0), q0, v0
    a = newtonian_rhs(t, q, v, cfg)
    h_abs = _initial_step(cfg, t, q, v, a, t1, direction, tol)
    times, qs, vs, steps = [t], [q], [v], []
    terminated = COMPLETED
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(h_abs, min_step), _MAX_STEP)
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            kq, ka = [v], [a]
            for c, row in _STAGES:
                dq = dv = 0j
                for j, coef in row:
                    dq += coef * kq[j]
                    dv += coef * ka[j]
                v_s = v + dv * h
                kq.append(v_s)
                ka.append(newtonian_rhs(t + c * h, q + dq * h, v_s, cfg))
            dq = dv = 0j
            for j, b in B:
                dq += b * kq[j]
                dv += b * ka[j]
            q_new = q + h * dq
            v_new = v + h * dv
            a_new = newtonian_rhs(t + h, q_new, v_new, cfg)
            kq.append(v_new)
            ka.append(a_new)
            err = _error_norm(h, _scales(tol, q, v, q_new, v_new), kq, ka)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            rejected = True
        else:
            terminated = STEP_FAILURE
            break
        step = (t, h, q, v, q_new, v_new, kq, ka)
        t, q, v, a = t_new, q_new, v_new, a_new
        # the start lies at least EPS_COLLISION from both centers, and the run
        # ends at the first step end that does not
        if gap(q) <= 0:
            t, q, v = _crossing(cfg, step, gap)
            terminated = COLLISION_PROXIMITY
        times.append(t)
        qs.append(q)
        vs.append(v)
        steps.append(step)
        if terminated == COLLISION_PROXIMITY:
            break

    if sample_times is not None:
        ts = np.asarray(sample_times, dtype=float)
        if terminated != COMPLETED:  # only the sample times it reached
            ts = ts[direction * (ts - t) <= 0]
        if steps and ts.size:
            positions, velocities = _sample(cfg, steps, np.array(times), ts, direction)
        else:  # no step or no sample: the solution is the initial state
            positions, velocities = np.full(ts.shape, q0), np.full(ts.shape, v0)
    else:
        ts = np.array(times)
        positions = np.array(qs)
        velocities = np.array(vs)
    if len(ts) > 1 and ts[-1] < ts[0]:  # backward integration
        ts, positions, velocities = ts[::-1], positions[::-1], velocities[::-1]
    return Trajectory(times=ts, positions=positions, velocities=velocities, terminated=terminated)


def _sample(cfg, steps, ends, ts, direction):
    """(q, v) at the times ts, each on the interpolant of the step that holds
    it; a time on a step end takes the step that ends there, as SciPy's
    ``OdeSolution`` does, and times outside the span take the nearer end's
    step."""
    n = len(steps)
    if direction > 0:
        seg = np.searchsorted(ends, ts, side="left") - 1
    else:
        seg = n - 1 - (np.searchsorted(ends[::-1], ts, side="right") - 1)
    seg = np.clip(seg, 0, n - 1)
    used, which = np.unique(seg, return_inverse=True)
    t_old, h, q_old, v_old, q_new, v_new, kq, ka = (np.array(x) for x in zip(*(steps[i] for i in used)))
    fq, fv = _dense_coefficients(cfg, t_old, h, q_old, v_old, q_new, v_new, kq, ka)
    x = (ts - t_old[which]) / h[which]
    positions = _interpolate([c[which] for c in fq], q_old[which], x)
    velocities = _interpolate([c[which] for c in fv], v_old[which], x)
    return positions, velocities


def _potential(q, mu):
    return -(1 - mu) / np.abs(q + 1.0) - mu / np.abs(q - 1.0)


def phi_profile(
    q: PhysicalLoop,
    cfg: FieldConfig,
    C: Optional[float] = None,
    z_loop: Optional[DiscreteLoop] = None,
) -> PhiProfile:
    """Energy defect Phi(t) = C - |qdot|^2/2 - U(q) - tail(t) - E_t(q).

    When C is not supplied it is assembled from the loop by the defining
    quadratures, which makes the trapezoid mean of Phi vanish identically for
    every loop, critical or not.  ``mask`` drops the nodes within EPS_NODE of
    a center, as the node defect does.  When a source loop z is supplied, the
    defect is also evaluated at its own nodes from the chain-rule velocity,
    which stays accurate between collisions.
    """
    # the closed grid t_0..t_M, with the wrap value
    m = q.m
    qs = np.concatenate([q.samples, q.samples[:1]])
    t = np.arange(m + 1) / m
    # by an FFT pair: at the record's m (256 in a solve at n = 64) the dense
    # D would take 512 KiB, built and cached for this one call per solve
    qdot = _fft_derivative(q.samples, 1.0)
    qdot = np.concatenate([qdot, qdot[:1]])
    kin = 0.5 * np.abs(qdot) ** 2
    with np.errstate(divide="ignore"):  # infinite on a node at a center, which mask drops
        u = _potential(qs, cfg.mu)
    e = cfg.electric.e(t, qs)
    edot = cfg.electric.dot(t, qs)
    # tail(t) = integral of Edot from t to 1, by reverse cumulative trapezoid
    inc = 0.5 * (edot[:-1] + edot[1:]) / m
    tail = np.concatenate([np.cumsum(inc[::-1])[::-1], [0.0]])
    energy = kin + u + tail + e
    if C is None:
        C = float(np.trapezoid(energy, dx=1.0 / m))
    phi = C - energy
    mask = center_distance(qs) > EPS_NODE

    source_sup = None if z_loop is None else _node_defect(_Nodes(z_loop.samples, z_loop.twisted, cfg), C)[1]
    return PhiProfile(C=float(C), phi=phi, mask=mask, source_sup=source_sup)


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail per generalized-solution condition, with measured defects."""

    collision_count: int
    checks: tuple  # of (name, value, tolerance, passed)

    @property
    def ok(self) -> bool:
        return all(passed for _, _, _, passed in self.checks)

    def __str__(self):
        lines = [f"collisions: {self.collision_count}"]
        for name, value, tol, passed in self.checks:
            lines.append(f"{'ok  ' if passed else 'FAIL'} {name}: {value:.3e} (tol {tol:.1e})")
        return "\n".join(lines)


def _arcs(collisions) -> list:
    """The arcs (ta, tb) between consecutive collisions, or the period."""
    return list(zip(collisions, (*collisions[1:], collisions[0] + 1.0))) if collisions else [(0.0, 1.0)]


def _arc_runs(nodes: _Nodes, usable: np.ndarray, m: int, ta: float, tb: float, margin: float, tol: float) -> list:
    """The RK runs on the collision-free arc [ta, tb], forward and backward from
    the usable node nearest its midpoint to ``margin`` inside its ends, at the grid
    times k/m in the arc's period; none if the arc is under 4 margins or has no such node."""
    if tb - ta < 4 * margin:
        return []
    t_arc = ta + (nodes.t - ta) % 1.0  # the node times, in the arc's period
    inside = np.flatnonzero(usable & (t_arc >= ta + margin) & (t_arc <= tb - margin))
    if len(inside) == 0:
        return []
    j = inside[np.argmin(np.abs(t_arc[inside] - 0.5 * (ta + tb)))]
    runs = []
    for lo, hi in ((t_arc[j], tb - margin), (t_arc[j], ta + margin)):
        ka, kb = sorted((lo, hi))
        kk = np.arange(int(np.ceil(ka * m)), int(np.floor(kb * m)) + 1)
        if len(kk) >= 2:
            runs.append(integrate(nodes.q[j], nodes.qdot[j], lo, hi, nodes.cfg, tol=tol, sample_times=kk / m))
    return runs


def _arc_defect(nodes: _Nodes, usable: np.ndarray, qs: np.ndarray, ta: float, tb: float) -> float:
    """The Newtonian defect on the arc [ta, tb]: the largest miss |q(t_k) - q_k|
    of its runs to margins of 5 grid steps at t_k = k/m (``_arc_runs``); inf if
    a run stops early or there is none: an arc that is not checked does not pass."""
    m = len(qs)
    misses = []
    for traj in _arc_runs(nodes, usable, m, ta, tb, 5.0 / m, 1e-13):
        idx = np.round((traj.times % 1.0) * m).astype(int) % m
        misses.append(float(np.max(np.abs(traj.positions - qs[idx]))) if traj.terminated == COMPLETED else np.inf)
    return max(misses, default=np.inf)


def verify_generalized(orbit, cfg: FieldConfig, tol: float = 1e-5) -> VerificationReport:
    """Check the generalized-solution conditions for a computed orbit.

    orbit must expose ``z`` (DiscreteLoop), ``q`` (PhysicalLoop), and ``C``.
    Conditions: finitely many collisions (``q.collision_times``); the
    Newtonian equation holds on each collision-free arc (``_arc_defect``);
    the energy extension is continuous across collisions; the loop closes up.
    The states it starts from and compares are z's own node times, positions
    and velocities (``action._Nodes``), with the defect there (``_node_defect``).
    """
    z_loop: DiscreteLoop = orbit.z
    q_loop: PhysicalLoop = orbit.q
    c_const = float(orbit.C)
    m = q_loop.m
    qs = q_loop.samples
    nodes = _Nodes(z_loop.samples, z_loop.twisted, cfg)
    phi = _node_defect(nodes, c_const)[0]
    usable = np.isfinite(nodes.qdot)  # the nodes off EPS_NODE of a center

    checks = []

    # (1) finite collision set
    collisions = list(q_loop.collision_times)
    checks.append(("finite collision set", float(len(collisions)), float(m // 4), len(collisions) < m // 4))

    # (2) Newtonian defect on each arc between collisions (the whole circle
    # if none)
    worst = max(_arc_defect(nodes, usable, qs, ta, tb) for ta, tb in _arcs(collisions))
    checks.append(("newtonian defect (re-integration)", worst, tol, worst <= tol))

    # (3) continuity of the energy extension across collisions, evaluated at
    # the source loop's nodes where chain-rule velocities stay accurate near
    # a collision, and compared between the closest usable nodes on either side
    ut, ue = nodes.t[usable], c_const - phi[usable]
    jump = 0.0
    for tc in collisions if len(ut) else ():
        gap = (ut - tc) % 1.0
        jump = max(jump, abs(ue[np.argmin(gap)] - ue[np.argmax(gap)]))
    rel_jump = jump / max(abs(c_const), float(np.max(np.abs(ue), initial=0.0)), 1.0)
    checks.append(("energy continuity across collisions", rel_jump, 10 * tol, rel_jump <= 10 * tol))

    # (4) closure: B(z_0), which is q(1) = B(z(1)) on either sheet as
    # B(1/z) = B(z), against the stored q's first sample.  It catches a
    # stored q edited apart from z; on a q rebuilt from z, whose first
    # sample ``reconstruct`` sets to B(z_0), it reads round-off
    closure = float(abs(nodes.q[0] - qs[0]))
    checks.append(("loop closure", closure, tol, closure <= tol))

    return VerificationReport(collision_count=len(collisions), checks=tuple(checks))
