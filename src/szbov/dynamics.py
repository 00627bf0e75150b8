"""Physical-side dynamics: Newtonian right-hand side, adaptive integration,
the first-integral profile, and the generalized-solution verifier.

The integrator is the independent oracle for reconstructed orbits: it knows
nothing about the blown-up loop space and simply integrates the second-order
equation with the adaptive Dormand-Prince 8(5,3) Runge-Kutta scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import FieldConfig
from .geometry import birkhoff_map
from .loops import (
    EPS_COLLISION,
    DiscreteLoop,
    PhysicalLoop,
    TimeMap,
    _spectral_derivative,
    _tail_integral,
    chain_rule_state,
    eval_loop,
    time_map,
)

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


@dataclass(frozen=True)
class PhiProfile:
    """Energy-defect profile of a physical loop.

    phi lives on the closed uniform time grid (M+1 nodes).  When a source
    loop in the blown-up plane is supplied, phi_source is the same defect on
    its tau grid, from the chain-rule velocity, and psi_mask marks the nodes
    where that velocity is defined (off collisions).
    """

    C: float
    phi: np.ndarray
    mask: np.ndarray  # True where the node is usable (off collisions)
    psi_mask: Optional[np.ndarray] = None
    phi_source: Optional[np.ndarray] = None  # chain-rule profile on the tau grid
    energy_scale: Optional[float] = None

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
        """sup of the chain-rule profile, relative to the energy scale.

        Computed on the source-loop tau grid, where velocities follow from the
        regularized loop and stay accurate arbitrarily close to collisions."""
        if self.phi_source is None or self.energy_scale is None:
            raise ValueError("no source loop was supplied to phi_profile")
        if not np.any(self.psi_mask):
            return float("nan")
        return float(np.max(np.abs(self.phi_source[self.psi_mask])) / self.energy_scale)


def newtonian_rhs(t, q, v, cfg: FieldConfig):
    """Acceleration of the charged particle at position q with velocity v.

    q and v are complex scalars or arrays of one shape, and the result takes
    the same form; ``integrate`` passes scalars, once per Runge-Kutta stage.
    Scalars stay Python numbers: they skip the conversion to arrays, and the
    Coulomb-center test reads the product of the distances directly, since
    ``np.all`` on a number costs most of a zero-field call.  A field that is
    zero adds no term.
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


def integrate(
    q0,
    v0,
    t0: float,
    t1: float,
    cfg: FieldConfig,
    tol: float = 1e-10,
    eps_col: float = EPS_COLLISION,
    sample_times=None,
) -> Trajectory:
    """Adaptive Dormand-Prince 8(5,3) integration of the Newtonian equation.

    Aborts with ``collision_proximity`` when the particle comes within
    ``eps_col`` of a center; dense output is evaluated at ``sample_times``
    when given, otherwise the accepted steps are returned.
    """
    q0 = complex(q0)
    v0 = complex(v0)
    if min(abs(q0 - 1.0), abs(q0 + 1.0)) < eps_col:
        raise SingularityError("initial position at a Coulomb center")

    def rhs(t, y):
        a = newtonian_rhs(t, complex(y[0], y[1]), complex(y[2], y[3]), cfg)
        return [y[2], y[3], a.real, a.imag]

    def near_collision(t, y):
        q = complex(y[0], y[1])
        return min(abs(q - 1.0), abs(q + 1.0)) - eps_col

    near_collision.terminal = True
    near_collision.direction = -1

    # imported here, not at module level: it is most of the import time of
    # the package, and only this function needs it
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (t0, t1),
        [q0.real, q0.imag, v0.real, v0.imag],
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=sample_times is not None,
        events=near_collision,
        max_step=0.25,
    )
    if sol.status == -1:
        terminated = STEP_FAILURE
    elif sol.status == 1:
        terminated = COLLISION_PROXIMITY
    else:
        terminated = COMPLETED

    if sample_times is not None and sol.status == 0:
        ts = np.asarray(sample_times, dtype=float)
        y = sol.sol(ts)
    else:
        ts = sol.t
        y = sol.y
    if len(ts) > 1 and ts[-1] < ts[0]:  # backward integration
        ts = ts[::-1]
        y = y[:, ::-1]
    return Trajectory(
        times=ts,
        positions=y[0] + 1j * y[1],
        velocities=y[2] + 1j * y[3],
        terminated=terminated,
    )


def _potential(q, mu):
    return -(1 - mu) / np.abs(q + 1.0) - mu / np.abs(q - 1.0)


def _closed_grid(q: PhysicalLoop):
    """Samples and times on the closed grid t_0..t_M with the wrap value."""
    qs = np.concatenate([q.samples, q.samples[:1]])
    t = np.arange(len(qs)) / q.m
    return qs, t


def phi_profile(
    q: PhysicalLoop,
    cfg: FieldConfig,
    C: Optional[float] = None,
    z_loop: Optional[DiscreteLoop] = None,
    eps_col: float = EPS_COLLISION,
    tm: Optional[TimeMap] = None,
) -> PhiProfile:
    """Energy defect Phi(t) = C - |qdot|^2/2 - U(q) - tail(t) - E_t(q).

    When C is not supplied it is assembled from the loop by the defining
    quadratures, which makes the trapezoid mean of Phi vanish identically for
    every loop, critical or not.  When a source loop z is supplied, the
    defect is also evaluated on its tau grid from the chain-rule velocity,
    which stays accurate between collisions; ``tm`` is that loop's time map,
    built here when not given.
    """
    qs, t = _closed_grid(q)
    m = q.m
    qdot = _spectral_derivative(q.samples, period=1.0)
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
    mask = np.minimum(np.abs(qs - 1.0), np.abs(qs + 1.0)) > 10.0 * eps_col

    if z_loop is None:
        return PhiProfile(C=float(C), phi=phi, mask=mask)
    if tm is None:
        tm = time_map(z_loop)
    qz, qdot_z = chain_rule_state(z_loop, tm=tm)
    safe = np.isfinite(qdot_z)
    tz = tm.t(z_loop.tau) % 1.0
    ez = cfg.electric.e(tz, qz)
    tail_z = _tail_integral(cfg.electric.dot(tz, qz) * tm.weights) / tm.zhat
    # the potential is singular where a node sits on a collision; those
    # nodes are left out (psi_mask) and read 0
    u_z = _potential(qz[safe], cfg.mu)
    phi_z = np.zeros(len(qz))
    phi_z[safe] = C - 0.5 * np.abs(qdot_z[safe]) ** 2 - u_z - tail_z[safe] - ez[safe]
    energy_scale = float(np.max(np.abs(C) + 0.5 * np.abs(qdot_z[safe]) ** 2 + np.abs(u_z)))
    return PhiProfile(
        C=float(C), phi=phi, mask=mask, psi_mask=safe, phi_source=phi_z, energy_scale=energy_scale,
    )


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


def verify_generalized(orbit, cfg: FieldConfig, tol: float = 1e-5, eps_col: float = EPS_COLLISION) -> VerificationReport:
    """Check the generalized-solution conditions for a computed orbit.

    orbit must expose ``z`` (DiscreteLoop), ``q`` (PhysicalLoop), and ``C``.
    Conditions: finitely many collisions; the Newtonian equation holds on each
    collision-free arc (via re-integration with the RK oracle); the energy
    extension is continuous across collisions; the loop closes up.
    """
    z_loop: DiscreteLoop = orbit.z
    q_loop: PhysicalLoop = orbit.q
    c_const = float(orbit.C)
    tm = time_map(z_loop)
    m = q_loop.m
    qs = q_loop.samples
    dist = np.minimum(np.abs(qs - 1.0), np.abs(qs + 1.0))

    checks = []

    # (1) finite collision set: isolated groups of near-collision nodes; each
    # group's closest-approach node is treated as a collision event below
    near = dist < 10.0 * eps_col
    groups = 0
    collisions = []
    if np.all(near):
        groups = m
    elif np.any(near):
        starts = np.where(near & ~np.roll(near, 1))[0]
        groups = len(starts)
        for s in starts:
            idx = [int(s)]
            j = (int(s) + 1) % m
            while near[j] and j != int(s):
                idx.append(j)
                j = (j + 1) % m
            sub = np.asarray(idx)
            collisions.append(float(sub[np.argmin(dist[sub])] / m))
    collisions = sorted(set(collisions) | set(float(t) for t in q_loop.collision_times))
    checks.append(("finite collision set", float(groups), float(m // 4), groups < m // 4))

    # arcs between collisions (whole circle if none)
    if collisions:
        bounds = collisions + [collisions[0] + 1.0]
        arcs = [(bounds[i], bounds[i + 1]) for i in range(len(collisions))]
    else:
        arcs = [(0.0, 1.0)]

    # (2) Newtonian defect via re-integration from each arc midpoint
    margin = max(5.0 / m, 20.0 * eps_col)
    worst = 0.0
    for (ta, tb) in arcs:
        if tb - ta < 4 * margin:
            continue
        tmid = 0.5 * (ta + tb)
        q0, v0 = chain_rule_state(z_loop, tm.inverse([tmid]), tm)
        for lo, hi in ((tmid, tb - margin), (tmid, ta + margin)):
            # compare at the uniform grid times inside the integration window
            ka, kb = sorted((lo, hi))
            kk = np.arange(int(np.ceil(ka * m)), int(np.floor(kb * m)) + 1)
            if len(kk) < 2:
                continue
            ts = kk / m
            traj = integrate(q0[0], v0[0], lo, hi, cfg, tol=1e-13, eps_col=0.5 * eps_col, sample_times=ts)
            if traj.terminated != COMPLETED:
                worst = max(worst, np.inf)
                continue
            idx = np.round((traj.times % 1.0) * m).astype(int) % m
            worst = max(worst, float(np.max(np.abs(traj.positions - qs[idx]))))
    checks.append(("newtonian defect (re-integration)", worst, tol, worst <= tol))

    # (3) continuity of the energy extension across collisions, evaluated on
    # the source-loop grid where chain-rule velocities stay accurate near a
    # collision, and compared between the closest usable nodes on either side
    prof = phi_profile(q_loop, cfg, C=c_const, z_loop=z_loop, eps_col=eps_col, tm=tm)
    energy_z = c_const - prof.phi_source
    qz = birkhoff_map(z_loop.samples)
    dist_z = np.minimum(np.abs(qz - 1.0), np.abs(qz + 1.0))
    tz = tm.t(z_loop.tau) % 1.0
    usable = prof.psi_mask & (dist_z > 10.0 * eps_col)
    jump = 0.0
    if np.any(usable):
        ut = tz[usable]
        ue = energy_z[usable]
        for tc in collisions:
            gap = (ut - tc) % 1.0
            ja = int(np.argmin(gap))
            jb = int(np.argmax(gap))
            jump = max(jump, abs(ue[ja] - ue[jb]))
        scale = max(abs(c_const), float(np.max(np.abs(ue))), 1.0)
    else:
        scale = 1.0
    rel_jump = jump / scale
    checks.append(("energy continuity across collisions", rel_jump, 10 * tol, rel_jump <= 10 * tol))

    # (4) closure
    z_end = eval_loop(z_loop, tm.inverse([1.0]))
    q_end = 0.5 * (z_end + 1.0 / z_end)
    closure = float(abs(q_end[0] - qs[0]))
    checks.append(("loop closure", closure, tol, closure <= tol))

    return VerificationReport(collision_count=len(collisions), checks=tuple(checks))
