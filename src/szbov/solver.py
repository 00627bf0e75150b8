"""Critical-point search for the regularized functional.

A damped Gauss-Newton (Levenberg-Marquardt) iteration with geodesic
acceleration drives the exact discrete gradient to zero, so it does not rely
on the critical point being a minimum.  The residual is the gradient alone,
scaled by 1/sqrt(n), so its norm is the gradient norm and every accepted
iterate is the best so far.  Each iteration assembles its Jacobian densely,
once: the scaled exact Hessian (``action.second_variation_matrix``),
symmetric to round-off, which gives the damped normal equations and the
right-hand sides of the step and of the acceleration.  Without the
acceleration the bench's `euler` solve does not converge in 200 iterations.
A trial point's residual builds the point's node object (``action._Nodes``)
once; its gradient reads it, and so does the next Jacobian once the point is
accepted.  A point with a sample within _MIN_ABS_Z of 0, a non-finite
sample, or a vanishing mean conformal weight gets no residual.  The time map
is inverted only for the record, and by the member selection when it moves;
the seed's winding is read at the seed's own nodes.  The settings are module
constants; ``SolveOptions`` holds only the grid, the tolerance and the
iteration cap.

The converged loop then goes to ``selection.select_member``, which returns
the member of its family of critical points that the record holds, with the
Hessian's spectrum there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from . import action as _action
from .action import delay_residual, eval_components, gradient, pack, second_variation_matrix, unpack
from .dynamics import phi_profile
from .fields import FieldConfig, config_from_dict, config_to_dict
from .geometry import WindingError, WindingReport, birkhoff_map, winding_report
from .loops import (
    EPS_COLLISION,
    EPS_ZHAT,
    DegenerateLoopError,
    DiscreteLoop,
    PhysicalLoop,
    LoopError,
    lift,
    load_loop,
    loop_from_dict,
    loop_to_dict,
    reconstruct,
    _require_bool,
    _require_int,
    _require_real,
)
from .selection import select_member, spectrum

log = logging.getLogger(__name__)

__all__ = [
    "SolveError",
    "NoConvergenceError",
    "SolveOptions",
    "OrbitRecord",
    "seed_circle",
    "seed_ellipse_lift",
    "seed_kepler_guess",
    "seed_from_file",
    "make_seed",
    "solve",
    "continue_family",
]


class SolveError(RuntimeError):
    """Solve failed."""


class NoConvergenceError(SolveError):
    """Iteration cap reached; carries the best iterate found."""

    def __init__(self, message, best_loop=None, best_grad_norm=None):
        super().__init__(message)
        self.best_loop = best_loop
        self.best_grad_norm = best_grad_norm


@dataclass(frozen=True)
class SolveOptions:
    """Grid, tolerance and iteration cap of the critical-point iteration."""

    n: int = 256
    m: int = 512
    g_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        # written so that a NaN tolerance fails it too: the iteration could
        # never meet it, nor tell that it had not.  A bool is no number here:
        # True would pass as a tolerance of 1 or a cap of one iteration.
        if isinstance(self.g_tol, bool) or not 0 < self.g_tol < np.inf:
            raise ValueError(f"g_tol must be positive and finite, not {self.g_tol!r}")
        for name in ("n", "m", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, not {value!r}")


@dataclass(frozen=True)
class OrbitRecord:
    """A converged critical point with its reconstruction and diagnostics."""

    z: DiscreteLoop
    q: PhysicalLoop
    breakdown: "_action.ActionBreakdown"
    C: float
    grad_norm: float
    delay_sup: float
    phi_sup: float
    winding: Optional[WindingReport]
    twisted: bool
    cfg: FieldConfig = field(repr=False)
    iterations: int = 0
    # the Hessian's spectrum at z (``selection.spectrum``); None on older records
    morse_index: Optional[int] = None
    nullity: Optional[int] = None
    gap: Optional[float] = None

    @property
    def action(self) -> float:
        return self.breakdown.total

    def to_dict(self) -> dict:
        b = self.breakdown
        wind = None
        if self.winding is not None:
            wind = {
                "minus": self.winding.around_minus_one,
                "plus": self.winding.around_plus_one,
                "total": self.winding.total,
            }
        return {
            "z": loop_to_dict(self.z),
            "twisted": bool(self.twisted),
            "mu": self.cfg.mu,
            "fields": config_to_dict(self.cfg),
            "diagnostics": {
                "action": b.total,
                "components": {
                    "F": b.F,
                    "G": b.G,
                    "H1": b.H1,
                    "H2": b.H2,
                    "M": b.M,
                    "E": b.E_val,
                    "E1": b.E1,
                },
                "C": self.C,
                "grad_norm": self.grad_norm,
                "delay_sup": self.delay_sup,
                "phi_sup": self.phi_sup,
                "winding": wind,
                "iterations": self.iterations,
                "morse_index": self.morse_index,
                "nullity": self.nullity,
                "gap": self.gap,
            },
            "q": {
                "m": self.q.m,
                "samples": [[float(v.real), float(v.imag)] for v in self.q.samples],
                "collision_times": list(self.q.collision_times),
            },
        }


def record_from_dict(data: dict, cfg: Optional[FieldConfig] = None) -> OrbitRecord:
    """Rebuild an OrbitRecord from its JSON form (recomputing the breakdown)."""
    z = loop_from_dict(data["z"])
    if cfg is None:
        cfg = config_from_dict(data["fields"])
    diag = data["diagnostics"]
    q = PhysicalLoop(samples=np.array([complex(re, im) for re, im in data["q"]["samples"]]))
    wind = None
    if diag.get("winding") is not None:
        wd = diag["winding"]
        wind = WindingReport(
            around_minus_one=_require_int(wd["minus"], "record: winding 'minus'"),
            around_plus_one=_require_int(wd["plus"], "record: winding 'plus'"),
        )
    return OrbitRecord(
        z=z,
        q=q,
        breakdown=eval_components(z, cfg),
        C=float(diag["C"]),
        grad_norm=float(diag["grad_norm"]),
        delay_sup=float(diag["delay_sup"]),
        phi_sup=float(diag["phi_sup"]),
        winding=wind,
        twisted=_require_bool(data["twisted"], "record: 'twisted'"),
        cfg=cfg,
        iterations=_require_int(diag.get("iterations", 0), "record: 'iterations'"),
        morse_index=_optional(diag, "morse_index", _require_int),
        nullity=_optional(diag, "nullity", _require_int),
        gap=_optional(diag, "gap", lambda v, name: float(v)),
    )


def _optional(diag: dict, key: str, read):
    """diag[key] read by ``read``, or None where the key is absent or null."""
    value = diag.get(key)
    return None if value is None else read(value, f"record: '{key}'")


# ----------------------------------------------------------------- seeding

def seed_circle(center, radius: float, n: int = 256) -> DiscreteLoop:
    """Plain loop: a circle in the blown-up plane."""
    tau = np.arange(n) / n
    return DiscreteLoop(samples=complex(center) + float(radius) * np.exp(2j * np.pi * tau))


def seed_ellipse_lift(a: float, b: float, n: int = 256) -> DiscreteLoop:
    """Lift of the physical ellipse t -> a cos + i b sin through the cover."""
    t = np.arange(n) / n
    q = PhysicalLoop(samples=a * np.cos(2 * np.pi * t) + 1j * b * np.sin(2 * np.pi * t))
    return lift(q)


def seed_ejection(side: int, n: int = 256) -> DiscreteLoop:
    """Period-one ejection-collision orbit of one center, pointing away from
    the other.

    The physical trace is the segment swept by a rectilinear Kepler arc of
    period one; its blown-up loop runs along the real axis straight through
    the branch point, which is exactly where the regularized functional stays
    smooth.  Nodes are offset half a cell so none lands on the collision.
    """
    if isinstance(side, bool) or side not in (-1, 1):  # True == 1, yet is no side
        raise ValueError(f"side must be -1 or +1, not {side!r}")
    a = (4.0 * np.pi**2) ** (-1.0 / 3.0)
    ecc_anom = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    q = side * (1.0 + a * (1.0 - np.cos(ecc_anom)))
    z = q - side * np.sqrt(q * q - 1.0)
    return DiscreteLoop(samples=z.astype(complex), twisted=True)


def seed_kepler_guess(side: int, radius: float, n: int = 256) -> DiscreteLoop:
    """Lift of a circle about one of the centers (twisted when winding is odd)."""
    if isinstance(side, bool) or side not in (-1, 1):
        raise ValueError(f"side must be -1 or +1, not {side!r}")
    t = np.arange(n) / n
    q = PhysicalLoop(samples=side + radius * np.exp(2j * np.pi * t))
    return lift(q)


def seed_from_file(path) -> DiscreteLoop:
    return load_loop(path)


def _number(spec: dict, key: str) -> float:
    """spec[key] read as given: a missing key or true is no radius."""
    return _require_real(spec.get(key), f"seed: {key!r}")


def make_seed(spec, n: int = 256) -> DiscreteLoop:
    """Build a seed from its config form.

    {"kind": "circle", "center": [re, im], "radius": r}
    {"kind": "ellipse_lift", "a": a, "b": b}
    {"kind": "kepler_guess", "side": -1, "radius": r}
    {"kind": "ejection", "side": -1}
    {"kind": "file", "path": "loop.json"}
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise LoopError("seed spec must be an object with a 'kind'")
    kind = spec["kind"]
    extra = set(spec) - {"kind", "center", "radius", "a", "b", "side", "path"}
    if extra:
        raise LoopError(f"unknown seed keys: {sorted(extra)}")
    if kind == "circle":
        c = spec.get("center", [0.0, 0.0])
        if isinstance(c, (list, tuple)):
            c = complex(*(_require_real(x, "seed: 'center'") for x in c[:2]))
        return seed_circle(complex(c), _number(spec, "radius"), n)
    if kind == "ellipse_lift":
        return seed_ellipse_lift(_number(spec, "a"), _number(spec, "b"), n)
    # read as given: a side of 0.5 or true is rejected, not cast
    if kind == "kepler_guess":
        side = _require_int(spec.get("side", -1), "seed: 'side'")
        return seed_kepler_guess(side, _number(spec, "radius"), n)
    if kind == "ejection":
        return seed_ejection(_require_int(spec.get("side", -1), "seed: 'side'"), n)
    if kind == "file":
        return seed_from_file(spec["path"])
    raise LoopError(f"unknown seed kind {kind!r}")


# ------------------------------------------------------------------- solve

# Levenberg-Marquardt damping: its start, and the factors it grows by on a
# rejected step and shrinks by on an accepted one.
_LAM0 = 1e-4
_LAM_UP = 4.0
_LAM_DOWN = 0.25
# An iterate with a sample this close to 0, the pole of the conformal
# weight, is refused before its residual is evaluated.
_MIN_ABS_Z = 1e-6


def _residual_factory(cfg: FieldConfig, twisted: bool, n: int):
    """Residual map of the damped Gauss-Newton iteration: the exact discrete
    gradient, scaled by 1/sqrt(n), so that its norm is the gradient norm.

    The residual at x comes with the node object (``action._Nodes``) of x's
    loop, which it builds once: the gradient reads it, and so does the
    Jacobian at x once x is accepted.  An inadmissible x gets no residual:
    one with a sample within _MIN_ABS_Z of 0 or a non-finite one, or whose
    mean conformal weight F is at most EPS_ZHAT, raises LoopError.
    """
    scale = 1.0 / np.sqrt(n)

    def residual(x: np.ndarray) -> tuple[np.ndarray, _action._Nodes]:
        z = unpack(x)
        if np.any(np.abs(z) < _MIN_ABS_Z):
            raise DegenerateLoopError(f"a sample lies within {_MIN_ABS_Z} of 0")
        loop = DiscreteLoop(z, twisted=twisted)
        nodes = _action._Nodes(loop.samples, twisted, cfg)
        return pack(gradient(loop, cfg, nodes=nodes)) * scale, nodes

    return residual


def _trial(residual, x: np.ndarray):
    """residual(x), or None where x is inadmissible."""
    try:
        return residual(x)
    except LoopError:
        return None


# Step, relative to the iterate, below which no geodesic acceleration is
# taken.  Across a tenth of a smaller step the residual's second difference
# is round-off, and a correction made of it spoils the step: with the gate at
# 1e-12, criterion 10's continuation steps take 2-3 iterations instead of
# 1-2.  Gates from 1e-6 to 1e-4 give the same counts there but for one
# iteration less on the first two mass-ratio solves.
_ACCEL_MIN_STEP = 1e-8


def solve(seed: DiscreteLoop, cfg: FieldConfig, opts: SolveOptions = SolveOptions()) -> OrbitRecord:
    """Levenberg-Marquardt on the gradient residual from the given seed,
    then the selection of one member of the converged loop's critical set.

    The grid is the seed's: a seed whose n is not ``opts.n`` is rejected.
    """
    n = seed.n
    if n != opts.n:
        raise ValueError(f"seed has n={n} samples, but the solve options ask for n={opts.n}")
    twisted = seed.twisted
    x = pack(np.asarray(seed.samples))
    residual = _residual_factory(cfg, twisted, n)
    r, nodes = residual(x)
    gn = float(np.linalg.norm(r))
    # winding does not depend on the parametrization: the physical loop at
    # the seed's own nodes needs no time map
    seed_winding = _safe_winding(birkhoff_map(seed.samples))

    lam = _LAM0
    iterations = 0

    # an iteration is counted once its Jacobian is assembled, so a seed
    # already at tolerance takes none
    while iterations < opts.max_iter:
        if gn < opts.g_tol:
            break
        iterations += 1
        # the scaled Hessian, symmetric: the Jacobian of the residual
        jmat = second_variation_matrix(nodes.z, twisted, cfg, nodes=nodes)
        jmat /= np.sqrt(n)
        ata = jmat.T @ jmat
        rhs = -(jmat.T @ r)

        accepted = False
        for _ in range(10):
            normal = _action._add_diag(ata.copy(), lam)
            delta = np.linalg.solve(normal, rhs)
            # geodesic acceleration: second-order correction along the step,
            # which keeps long narrow valleys from throttling the step size.
            # Below _ACCEL_MIN_STEP the residual's second difference is
            # round-off, and a correction made of it only spoils the step.
            hg = 0.1
            if np.linalg.norm(delta) > _ACCEL_MIN_STEP * max(1.0, np.linalg.norm(x)):
                plus = _trial(residual, x + hg * delta)
                minus = None if plus is None else _trial(residual, x - hg * delta)
                if minus is not None:
                    second = (plus[0] - 2.0 * r + minus[0]) / hg**2
                    accel = np.linalg.solve(normal, -(jmat.T @ second))
                    if np.linalg.norm(accel) < 0.75 * np.linalg.norm(delta):
                        delta = delta + 0.5 * accel
            xt = x + delta
            trial = _trial(residual, xt)
            # the residual is the gradient: an accepted point is the best so far
            if trial is not None and np.linalg.norm(trial[0]) < gn:
                x, (r, nodes) = xt, trial
                gn = float(np.linalg.norm(r))
                lam = max(lam * _LAM_DOWN, 1e-14)
                accepted = True
                break
            lam *= _LAM_UP
        if not accepted:
            if nodes.f < 10.0 * EPS_ZHAT:
                raise SolveError("degenerated toward excluded locus")
            # stop when damping explodes without producing an acceptable step
            if lam > 1e12:
                break
            continue
        log.debug("iter %d: gn=%.3e step=%.3e lam=%.1e", iterations, gn, float(np.linalg.norm(delta)), lam)

    if gn >= opts.g_tol:
        raise NoConvergenceError(
            f"no convergence: gradient norm {gn:.3e} after {iterations} iterations",
            best_loop=DiscreteLoop(unpack(x), twisted=twisted),
            best_grad_norm=gn,
        )
    member = select_member(x, gn, seed, cfg, opts.max_iter - iterations, opts.g_tol)
    if member is None:
        raise NoConvergenceError(
            f"no convergence: the member selection did not settle after {opts.max_iter} iterations",
            best_loop=DiscreteLoop(unpack(x), twisted=twisted),
            best_grad_norm=gn,
        )
    x, gn, steps, evals = member
    loop = DiscreteLoop(unpack(x), twisted=twisted)
    return _finalize(loop, cfg, opts, gn, iterations + steps, seed_winding, evals)


def _safe_winding(q: np.ndarray) -> Optional[WindingReport]:
    """The winding of the physical samples q, or None where it is undefined."""
    try:
        return winding_report(q, clearance=EPS_COLLISION)
    except WindingError:
        return None


def _finalize(loop, cfg, opts, gn, iterations, seed_winding, evals) -> OrbitRecord:
    breakdown = eval_components(loop, cfg)
    delay = delay_residual(loop, cfg)
    q = reconstruct(loop, opts.m)
    wind = _safe_winding(q.samples)
    if seed_winding is not None and wind is not None and wind != seed_winding:
        log.warning("winding changed during iteration: seed %s -> converged %s", seed_winding, wind)
    prof = phi_profile(q, cfg, C=breakdown.C, z_loop=loop)
    phi_sup = prof.sup_phi_relative
    morse_index, nullity, gap = spectrum(evals)
    return OrbitRecord(
        z=loop,
        q=q,
        breakdown=breakdown,
        C=breakdown.C,
        grad_norm=gn,
        delay_sup=delay.sup_relative,
        phi_sup=phi_sup,
        winding=wind,
        twisted=loop.twisted,
        cfg=cfg,
        iterations=iterations,
        morse_index=morse_index,
        nullity=nullity,
        gap=gap,
    )


# ------------------------------------------------------------ continuation

def continue_family(
    start: OrbitRecord,
    path: Sequence[FieldConfig],
    opts: SolveOptions = SolveOptions(),
) -> list[OrbitRecord]:
    """Continuation along a sequence of configurations, with a secant
    predictor.

    The first configuration is seeded with the start orbit, and each later
    one with the secant 2 z_k - z_(k-1) through the last two converged
    loops.  A failure on the very first configuration raises; a later
    failure returns the partial family.
    """
    records = [start]
    for i, cfg in enumerate(path):
        seed = records[-1].z
        if i > 0:
            seed = DiscreteLoop(2.0 * seed.samples - records[-2].z.samples, twisted=seed.twisted)
        try:
            rec = solve(seed, cfg, opts)
        except SolveError as exc:
            if i == 0:
                raise SolveError(f"continuation failed at the first configuration: {exc}") from exc
            log.warning("continuation stopped at step %d/%d: %s", i + 1, len(path), exc)
            break
        records.append(rec)
    return records
