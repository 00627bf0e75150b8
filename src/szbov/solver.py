"""Critical-point search for the regularized functional.

A damped Gauss-Newton (Levenberg-Marquardt) iteration with geodesic
acceleration drives the exact discrete gradient to zero, so it does not rely
on the critical point being a minimum.  The residual is the gradient alone,
scaled by 1/sqrt(n), so its norm is the gradient norm and every accepted
iterate is the best so far.  Each iteration assembles its Jacobian densely,
once: the scaled exact Hessian on the unknowns (``action._hessian_blocks``),
symmetric to round-off, which gives the damped normal equations and the
right-hand sides of the step and of the acceleration.  Without the
acceleration the bench's `euler` solve does not converge in 200 iterations.
A trial point's residual checks the point once, that every sample is finite
and at least _MIN_ABS_Z from 0, and builds the point's node object
(``action._Nodes``) from its samples, with no loop object; the node object
computes the moduli of the samples once, for every quadrature and Hessian
term.  Its gradient reads it, and so does the next Jacobian once the point
is accepted.  The last accepted point's object goes on to the member
selection's first Hessian and, where no member moves, to the record.  A
point that fails the check, or whose mean conformal weight vanishes, gets no
residual.  Each damping ladder forms its normal matrix once and resets its
diagonal for each trial's damping, so its trials copy no (2n, 2n) matrix.
A solve inverts no time map unless the member selection moves: the record's
q is built when it is first read, and the windings of the seed and of the
record are read at their loops' own nodes, once per loop object
(``DiscreteLoop.winding``).  The record's delay_sup and phi_sup are
computed when first read too, and its spectrum at solve time, where the
Hessian is.  A NoConvergenceError's message names its cause: the iteration cap, or
a damping ladder spent with no step accepted.  The settings are module
constants; ``SolveOptions`` holds only the grid, the tolerance and the
iteration cap.

The unknowns are those of the Hessian's first block.  For a loop whose every
sample is exactly real, on a field even under q -> conj(q)
(``action.on_real_line``), they are Re z alone: the real loops are invariant
there, the gradient is real and the Hessian's Re-Im blocks vanish, so by
symmetric criticality a critical point in Re z alone is one of the full
action.  The block is then H_rr = Re(A + B), assembled in real arithmetic
with no complex (2n, 2n) Hessian; the right-hand sides take the residual's
first n entries, and each step's imaginary part is exactly 0, so every
iterate stays real: the normal matrix is n x n, not 2n x 2n.  Each
iteration's debug line names the block, "real n x n" or "full 2n x 2n".
Acceptance and convergence still test the full gradient norm.  No option
selects the unknowns; the seed and the field do, so a continuation family's
secant seeds and a real record read back from an archive stay real.

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
from .action import _components_from_dict, _components_to_dict, gradient, pack, unpack
from .dynamics import _node_defect
from .fields import FieldConfig, config_from_dict, config_to_dict
from .geometry import WindingReport
from .loops import (
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
    _require_diagnostic,
    _require_int,
    _require_point,
    _require_points,
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
    """No critical point within the iteration cap, or a damping ladder spent
    with no step accepted (the message says which); carries the best iterate
    found, its gradient norm and the iterations taken."""

    def __init__(self, message, best_loop=None, best_grad_norm=None, iterations=None):
        super().__init__(message)
        self.best_loop = best_loop
        self.best_grad_norm = best_grad_norm
        self.iterations = iterations


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
        # a record builds its q only when it is read, so a grid too small for
        # a PhysicalLoop is refused here, not at that read
        if self.m < 16:
            raise ValueError(f"m must be at least 16, not {self.m!r}")


class _GivenOrDerived:
    """A record field: the value it was given, or else ``derive(rec)``'s,
    computed on the first read and kept.  As the field's default it reads
    None, which stands for "not given", and a None is not stored.
    ``derive`` returns a dict of one or more fields' values, computed
    together: each one that was not given is kept, so a later read of
    another of them computes nothing."""

    def __init__(self, derive):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, rec, owner=None):
        if rec is None:
            return None
        if self.name not in rec.__dict__:
            for name, value in self.derive(rec).items():
                rec.__dict__.setdefault(name, value)
        return rec.__dict__[self.name]

    def __set__(self, rec, value):
        if value is not None:
            rec.__dict__[self.name] = value


def _sups(rec) -> dict:
    """The sups of the delay residual (``action._delay_residual``) and of
    the energy defect at the breakdown's C (``dynamics._node_defect``), from
    one node object of z."""
    nodes = _action._Nodes(rec.z.samples, rec.z.twisted, rec.cfg)
    return {
        "delay_sup": _action._delay_residual(nodes).sup_relative,
        "phi_sup": _node_defect(nodes, rec.breakdown.C)[1],
    }


@dataclass(frozen=True)
class OrbitRecord:
    """A converged critical point with its diagnostics.  The breakdown, the
    gradient norm, the iteration count and the spectrum are as the solve
    measured them.  C is derived from the breakdown, and the winding (None
    where it is undefined) is z's own (``DiscreteLoop.winding``), read from
    B(z) at z's nodes once per loop object.

    q, delay_sup and phi_sup are given or derived on their first read
    (``_GivenOrDerived``), so a record pays only for what is read of it.
    q, the physical loop at m uniform times, is a view of z: a record given
    no q builds ``reconstruct(z, m)`` the first time q is read, so a solve
    whose q nobody reads inverts no time map.  A record given its q (as one
    read from a file is) keeps it, and takes its m from it.  A record given
    no sups computes both from one node object of z the first time either is
    read (``_sups``), so a family member that nobody writes skips them; a
    record given them (as one read from a file is) computes nothing."""

    z: DiscreteLoop
    breakdown: "_action.ActionBreakdown"
    grad_norm: float
    cfg: FieldConfig = field(repr=False)
    iterations: int = 0
    # the Hessian's spectrum at z (``selection.spectrum``); None on older records
    morse_index: Optional[int] = None
    nullity: Optional[int] = None
    gap: Optional[float] = None
    delay_sup: float = _GivenOrDerived(_sups)
    phi_sup: float = _GivenOrDerived(_sups)
    q: PhysicalLoop = _GivenOrDerived(lambda rec: {"q": reconstruct(rec.z, rec.m)})
    m: Optional[int] = None

    def __post_init__(self):
        q = self.__dict__.get("q")
        if q is not None:
            object.__setattr__(self, "m", q.m)
        elif self.m is None:
            raise ValueError("a record needs its q, or the m to reconstruct it at")

    @property
    def action(self) -> float:
        return self.breakdown.total

    @property
    def C(self) -> float:
        return self.breakdown.C

    @property
    def winding(self) -> Optional[WindingReport]:
        return self.z.winding

    @property
    def twisted(self) -> bool:
        """The sector of z, which the record's "twisted" restates."""
        return self.z.twisted

    def to_dict(self) -> dict:
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
                "action": self.action,
                "components": _components_to_dict(self.breakdown),
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


def record_from_dict(data: dict) -> OrbitRecord:
    """The OrbitRecord as it was written: the breakdown is the components
    block's, not recomputed, and q is the stored samples, not rebuilt from z
    (``reconstruct`` would differ from them in the last bits).  The keys that restate another value (twisted,
    mu, action, C, winding, collision_times) are not read back, but a
    contradicting twisted is rejected.  A malformed record raises LoopError."""
    if not isinstance(data, dict):
        raise LoopError(f"malformed record: a JSON object is needed, not {type(data).__name__}")
    try:
        z = loop_from_dict(data["z"])
        twisted = _require_bool(data["twisted"], "record: 'twisted'")
        if twisted != z.twisted:
            raise LoopError(f"record: 'twisted' is {twisted}, but its loop object's is {z.twisted}")
        cfg = config_from_dict(data["fields"])
        diag = data["diagnostics"]
        return OrbitRecord(
            z=z,
            q=PhysicalLoop(samples=_require_points(data["q"]["samples"], "record: a q sample")),
            breakdown=_components_from_dict(diag["components"], cfg.mu),
            grad_norm=_require_diagnostic(diag["grad_norm"], "record: 'grad_norm'"),
            delay_sup=_require_diagnostic(diag["delay_sup"], "record: 'delay_sup'"),
            phi_sup=_require_diagnostic(diag["phi_sup"], "record: 'phi_sup'"),
            cfg=cfg,
            iterations=_require_int(diag.get("iterations", 0), "record: 'iterations'"),
            morse_index=_optional(diag, "morse_index", _require_int),
            nullity=_optional(diag, "nullity", _require_int),
            gap=_optional(diag, "gap", _require_diagnostic),
        )
    except KeyError as exc:
        raise LoopError(f"malformed record: no {exc} key") from exc
    except TypeError as exc:
        raise LoopError(f"malformed record: {exc}") from exc


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
        center = _require_point(spec.get("center", [0.0, 0.0]), "seed: 'center'")
        return seed_circle(center, _number(spec, "radius"), n)
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

# Levenberg-Marquardt damping: its start, the factors it grows by on a
# rejected step and shrinks by on an accepted one, and the cap past which a
# ladder of rejected steps ends the solve.
_LAM0 = 1e-4
_LAM_UP = 4.0
_LAM_DOWN = 0.25
_LAM_MAX = 1e12
# An iterate with a sample this close to 0, the pole of the conformal
# weight, is refused before its residual is evaluated.
_MIN_ABS_Z = 1e-6


def _residual_factory(cfg: FieldConfig, twisted: bool, n: int):
    """Residual map of the damped Gauss-Newton iteration: the exact discrete
    gradient, scaled by 1/sqrt(n), so that its norm is the gradient norm.

    The residual at x comes with the node object (``action._Nodes``) of x's
    samples, which it builds once, with no loop object: the gradient reads
    it, and so does the Jacobian at x once x is accepted.  An inadmissible x
    gets no residual: one with a non-finite sample or one within _MIN_ABS_Z
    of 0, checked here before the node object is built, or whose mean
    conformal weight F is at most EPS_ZHAT, raises LoopError.
    """
    scale = 1.0 / np.sqrt(n)

    def residual(x: np.ndarray) -> tuple[np.ndarray, _action._Nodes]:
        if not np.isfinite(x).all():
            raise LoopError("loop samples must be finite")
        z = unpack(x)
        if np.abs(z).min() < _MIN_ABS_Z:
            raise DegenerateLoopError(f"a sample lies within {_MIN_ABS_Z} of 0")
        nodes = _action._Nodes(z, twisted, cfg)
        return pack(gradient(None, cfg, nodes=nodes)) * scale, nodes

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

    lam = _LAM0
    iterations = 0
    cause = "the iteration cap was reached"

    # an iteration is counted once its Jacobian is assembled, so a seed
    # already at tolerance takes none
    while iterations < opts.max_iter:
        if gn < opts.g_tol:
            break
        iterations += 1
        # the scaled Hessian, symmetric: the Jacobian of the residual, in the
        # unknowns; the residual is the full gradient all the same
        jmat = _action._hessian_blocks(nodes)[0]
        jmat /= np.sqrt(n)
        size = len(jmat)
        path = "real n x n" if size == n else "full 2n x 2n"
        # the normal matrix J^T J + lam I: formed once per ladder, and each
        # trial resets its diagonal to that of J^T J plus its own lam
        normal = jmat.T @ jmat
        diag = normal.diagonal().copy()
        rhs = -(jmat.T @ r[:size])

        # one damping ladder, until a trial is accepted or lam passes _LAM_MAX
        while lam <= _LAM_MAX:
            normal.flat[:: size + 1] = diag + lam
            delta = np.zeros_like(x)
            delta[:size] = np.linalg.solve(normal, rhs)
            # geodesic acceleration: second-order correction along the step,
            # which keeps long narrow valleys from throttling the step size.
            # Below _ACCEL_MIN_STEP the residual's second difference is
            # round-off, and a correction made of it only spoils the step.
            hg = 0.1
            if np.linalg.norm(delta) > _ACCEL_MIN_STEP * max(1.0, np.linalg.norm(x)):
                plus = _trial(residual, x + hg * delta)
                minus = None if plus is None else _trial(residual, x - hg * delta)
                if minus is not None:
                    second = (plus[0] - 2.0 * r + minus[0])[:size] / hg**2
                    accel = np.linalg.solve(normal, -(jmat.T @ second))
                    if np.linalg.norm(accel) < 0.75 * np.linalg.norm(delta):
                        delta[:size] += 0.5 * accel
            xt = x + delta
            trial = _trial(residual, xt)
            # the residual is the gradient: an accepted point is the best so far
            if trial is not None and np.linalg.norm(trial[0]) < gn:
                break
            lam *= _LAM_UP
        else:  # lam passed _LAM_MAX with no trial accepted
            if nodes.f < 10.0 * EPS_ZHAT:
                raise SolveError("degenerated toward excluded locus")
            cause = f"a damping ladder passed lambda = {_LAM_MAX:.0e} with no step accepted"
            break
        x, (r, nodes) = xt, trial
        gn = float(np.linalg.norm(r))
        lam = max(lam * _LAM_DOWN, 1e-14)
        log.debug(
            "iter %d: gn=%.3e step=%.3e lam=%.1e solve=%s", iterations, gn, float(np.linalg.norm(delta)), lam, path
        )

    if gn >= opts.g_tol:
        raise NoConvergenceError(
            f"no convergence: {cause}; gradient norm {gn:.3e} after {iterations} iterations",
            best_loop=DiscreteLoop(unpack(x), twisted=twisted),
            best_grad_norm=gn,
            iterations=iterations,
        )
    member = select_member(nodes, gn, seed, opts.max_iter - iterations, opts.g_tol)
    if member is None:
        raise NoConvergenceError(
            f"no convergence: the member selection did not settle after {opts.max_iter} iterations",
            best_loop=DiscreteLoop(unpack(x), twisted=twisted),
            best_grad_norm=gn,
            iterations=opts.max_iter,
        )
    nodes, gn, steps, evals = member
    return _finalize(nodes, opts, gn, iterations + steps, seed.winding, evals)


def _finalize(nodes, opts, gn, iterations, seed_winding, evals) -> OrbitRecord:
    """The record of the selected member, read from its node object: the
    breakdown and the spectrum.  Its q is built at ``opts.m``, and its
    delay_sup and phi_sup from a node object of z, only when first read.
    Its winding, compared here with the seed's, is read at z's nodes:
    nothing here inverts a time map."""
    morse_index, nullity, gap = spectrum(evals)
    rec = OrbitRecord(
        z=DiscreteLoop(nodes.z, twisted=nodes.twisted),
        m=opts.m,
        breakdown=nodes.breakdown(),
        grad_norm=gn,
        cfg=nodes.cfg,
        iterations=iterations,
        morse_index=morse_index,
        nullity=nullity,
        gap=gap,
    )
    if seed_winding is not None and rec.winding is not None and rec.winding != seed_winding:
        log.warning("winding changed during iteration: seed %s -> converged %s", seed_winding, rec.winding)
    return rec


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
    loops.  A failure on the very first configuration raises, of the
    failure's own type, so a NoConvergenceError keeps its best iterate; a
    later failure returns the partial family.  Seeded with the last
    member's z, a step reads that loop object's winding, which the member's
    solve has already computed.
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
                message = f"continuation failed at the first configuration: {exc}"
                if isinstance(exc, NoConvergenceError):
                    raise NoConvergenceError(message, exc.best_loop, exc.best_grad_norm, exc.iterations) from exc
                raise SolveError(message) from exc
            log.warning("continuation stopped at step %d/%d: %s", i + 1, len(path), exc)
            break
        records.append(rec)
    return records
