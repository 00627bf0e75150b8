"""Critical-point search for the regularized functional.

Critical points are generically saddles, so instead of descending the
functional we drive its exact discrete gradient to zero with a damped
Gauss-Newton (Levenberg-Marquardt) iteration.  The residual stacks the scaled
gradient, a proximal anchor that is weakened in stages as the iteration
settles, and, for autonomous fields, a phase row.  Its Jacobian is never
hand-coded: the gradient block is the second variation, taken by central
differences of the analytic gradient.

Grids up to ``SolveOptions.dense_threshold`` nodes (every grid the tests and
examples use) assemble that Jacobian densely, the gradient block from
stacked coordinate perturbations evaluated a block of loops per gradient
call, and solve the damped normal equations directly.  Larger grids solve
them matrix-free by conjugate gradients on Jacobian-vector products, with a
Fourier-diagonal preconditioner that captures the spectral-differentiation
part of the operator.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from . import action as _action
from .action import eval_components, gradient, grad_norm, pack, stacked_gradient, unpack
from .dynamics import phi_profile, verify_generalized
from .fields import FieldConfig, config_to_dict
from .geometry import WindingError, WindingReport, birkhoff_map, winding_report
from .loops import (
    EPS_COLLISION,
    EPS_ZHAT,
    DegenerateLoopError,
    DiscreteLoop,
    PhysicalLoop,
    LoopError,
    conformal_weight,
    lift,
    load_loop,
    loop_from_dict,
    loop_to_dict,
    reconstruct,
)

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
    "solve_many",
    "continue_family",
    "thread_limit",
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
    """Tolerances and controls of the critical-point iteration."""

    n: int = 256
    m: int = 512
    g_tol: float = 1e-9
    max_iter: int = 200
    lam0: float = 1e-4
    lam_up: float = 4.0
    lam_down: float = 0.25
    phase_fix: bool = True
    eps_zhat: float = EPS_ZHAT
    fd_step: float = 1e-5
    cg_maxiter: int = 300
    warmup_threshold: float = 1e3
    warmup_steps: int = 10
    min_abs_z: float = 1e-6
    prox0: float = 1e-2
    prox_min: float = 1e-12
    prox_decay: float = 1e-2
    prox_release: float = 1e-8
    prox_patience: int = 15
    dense_threshold: int = 384

    def __post_init__(self):
        for name in ("g_tol", "lam0", "eps_zhat", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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
            },
            "q": {
                "m": self.q.m,
                "samples": [[float(v.real), float(v.imag)] for v in self.q.samples],
                "collision_times": list(self.q.collision_times),
            },
        }


def record_from_dict(data: dict, cfg: Optional[FieldConfig] = None) -> OrbitRecord:
    """Rebuild an OrbitRecord from its JSON form (recomputing the breakdown)."""
    from .fields import config_from_dict

    z = loop_from_dict(data["z"])
    if cfg is None:
        cfg = config_from_dict(data["fields"])
    diag = data["diagnostics"]
    qd = data["q"]
    q = PhysicalLoop(
        samples=np.array([complex(re, im) for re, im in qd["samples"]]),
        collision_times=tuple(qd.get("collision_times", ())),
    )
    wind = None
    if diag.get("winding") is not None:
        wd = diag["winding"]
        wind = WindingReport(around_minus_one=int(wd["minus"]), around_plus_one=int(wd["plus"]))
    return OrbitRecord(
        z=z,
        q=q,
        breakdown=eval_components(z, cfg),
        C=float(diag["C"]),
        grad_norm=float(diag["grad_norm"]),
        delay_sup=float(diag["delay_sup"]),
        phi_sup=float(diag["phi_sup"]),
        winding=wind,
        twisted=bool(data["twisted"]),
        cfg=cfg,
        iterations=int(diag.get("iterations", 0)),
    )


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
    if side not in (-1, 1):
        raise ValueError("side must be -1 or +1")
    a = (4.0 * np.pi**2) ** (-1.0 / 3.0)
    ecc_anom = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    q = side * (1.0 + a * (1.0 - np.cos(ecc_anom)))
    z = q - side * np.sqrt(q * q - 1.0)
    return DiscreteLoop(samples=z.astype(complex), twisted=True)


def seed_kepler_guess(side: int, radius: float, n: int = 256) -> DiscreteLoop:
    """Lift of a circle about one of the centers (twisted when winding is odd)."""
    if side not in (-1, 1):
        raise ValueError("side must be -1 or +1")
    t = np.arange(n) / n
    q = PhysicalLoop(samples=side + radius * np.exp(2j * np.pi * t))
    return lift(q)


def seed_from_file(path) -> DiscreteLoop:
    return load_loop(path)


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
        center = complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
        return seed_circle(center, float(spec["radius"]), n)
    if kind == "ellipse_lift":
        return seed_ellipse_lift(float(spec["a"]), float(spec["b"]), n)
    if kind == "kepler_guess":
        return seed_kepler_guess(int(spec.get("side", -1)), float(spec["radius"]), n)
    if kind == "ejection":
        return seed_ejection(int(spec.get("side", -1)), n)
    if kind == "file":
        return seed_from_file(spec["path"])
    raise LoopError(f"unknown seed kind {kind!r}")


# ------------------------------------------------------------------- solve

def _admissible(x: np.ndarray, twisted: bool, opts: SolveOptions) -> bool:
    z = unpack(x)
    if np.any(np.abs(z) < opts.min_abs_z):
        return False
    return float(np.mean(conformal_weight(z))) > opts.eps_zhat


def _anchor_points(loop: DiscreteLoop, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tau(t) at the given physical times, through the loop's time map, and
    the loop z(tau) there."""
    from .loops import eval_loop, time_map

    tau = time_map(loop).inverse(t)
    return tau, eval_loop(loop, tau)


def _residual_factory(cfg: FieldConfig, twisted: bool, opts: SolveOptions, x0: np.ndarray):
    """Residual map of the damped Gauss-Newton iteration.

    Two stacked blocks: the exact discrete gradient (the equation being
    solved), and a proximal anchor sqrt(lam_prox) * (q(t) - q_seed(t)) on the
    uniform physical time grid.  Critical points can come in families
    (symmetries of the physical problem make the second variation singular
    along them); the anchor, driven toward zero as the iteration converges,
    selects the member of the family nearest the seed in the physical-plane
    L2 distance instead of leaving that choice to round-off.  An optional
    scalar phase row removes the parameter-shift direction in the autonomous
    case.

    ``residual(x)`` returns the residual and the anchor points
    ``(tau(t_grid), z(tau))`` of x, which the Jacobian at x reuses instead of
    inverting the time map again.
    """
    n2 = len(x0)
    n = n2 // 2
    scale = 1.0 / np.sqrt(n)

    use_phase = opts.phase_fix and cfg.autonomous
    if use_phase:
        from .loops import _spectral_derivative, double_cover

        z0 = unpack(x0)
        loop0 = DiscreteLoop(z0, twisted=twisted)
        if twisted:
            d0 = _spectral_derivative(double_cover(loop0), period=2.0)[:n]
        else:
            d0 = _spectral_derivative(z0, period=1.0)
        phase_dir = pack(d0)
        phase_dir = phase_dir / max(np.linalg.norm(phase_dir), 1e-300)
    else:
        phase_dir = None

    t_grid = np.arange(n) / n
    q0 = birkhoff_map(_anchor_points(DiscreteLoop(unpack(x0), twisted=twisted), t_grid)[1])
    state = {"lam_prox": opts.prox0}

    def residual(x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        loop = DiscreteLoop(unpack(x), twisted=twisted)
        g = gradient(loop, cfg, opts.eps_zhat)
        parts = [pack(g) * scale]
        lam = state["lam_prox"]
        anchor = _anchor_points(loop, t_grid)
        dq = birkhoff_map(anchor[1]) - q0
        parts.append(np.sqrt(lam) * scale * np.concatenate([dq.real, dq.imag]))
        if phase_dir is not None:
            parts.append(np.array([float(phase_dir @ (x - x0))]))
        return np.concatenate(parts), anchor

    return residual, phase_dir, state


def _interp_kernel(n_samples: int, period: float, x: np.ndarray) -> np.ndarray:
    """Trigonometric-interpolation weight matrix: row i gives the weights that
    evaluate the band-limited interpolant of samples on the uniform grid
    j*period/n at the point x_i (Nyquist mode interpolated as cosine)."""
    grid = np.arange(n_samples) * (period / n_samples)
    d = (x[:, None] - grid[None, :]) / period
    half = n_samples // 2
    s = np.sin(np.pi * d)
    # 1 + 2 sum_{m<half} cos(2 pi m d) + cos(2 pi half d), via the Dirichlet kernel
    near = np.abs(s) < 1e-12
    safe = np.where(near, 1.0, s)
    out = np.sin((n_samples - 1) * np.pi * d) / safe + np.cos(np.pi * n_samples * d)
    out = np.where(near, float(n_samples) * np.cos(np.pi * n_samples * d) ** 2, out)
    return out / n_samples


def _prox_jacobian(loop: DiscreteLoop, tau: np.ndarray, z_tau: np.ndarray) -> np.ndarray:
    """Complex n x n matrix C with (C v)_i = d q(t_i) under sample variation v,
    holding the time map (hence tau(t_i)) frozen at the current iterate;
    z_tau is the loop at tau."""
    from .geometry import birkhoff_derivative

    z = np.asarray(loop.samples)
    n = loop.n
    if loop.twisted:
        k = _interp_kernel(2 * n, 2.0, tau)
        a = k[:, :n] - k[:, n:] * (1.0 / z**2)[None, :]
    else:
        a = _interp_kernel(n, 1.0, tau).astype(complex)
    bp = birkhoff_derivative(z_tau)
    return bp[:, None] * a


# Rows of the stacked +-h perturbations per gradient call in the dense
# Jacobian.  Blocks this size already amortize the per-call overhead; the
# whole stack at once would grow the temporaries (and the peak resident set)
# with the grid for no further gain.
_JACOBIAN_BLOCK = 32


def _dense_jacobian(
    xc: np.ndarray,
    twisted: bool,
    cfg: FieldConfig,
    opts: SolveOptions,
    cmat: np.ndarray,
    sq: float,
    phase_dir: Optional[np.ndarray],
) -> np.ndarray:
    """The frozen Gauss-Newton Jacobian of the residual at xc, as a dense matrix.

    Gradient block: column i is the central difference of the scaled gradient
    along the coordinate direction e_i, with the step of ``hvp``; the
    perturbed loops are stacked and evaluated a block of rows at a time.
    Anchor block: sq * C acting on [Re; Im] coordinates, with C from
    ``_prox_jacobian``.  Phase row: ``phase_dir``.
    """
    n2 = len(xc)
    scale = 1.0 / np.sqrt(n2 // 2)
    h = opts.fd_step * max(1.0, np.linalg.norm(xc))

    def grad_rows(xs):
        return pack(stacked_gradient(unpack(xs), twisted, cfg, opts.eps_zhat)) * scale

    grad_block = np.empty((n2, n2))
    for start in range(0, n2, _JACOBIAN_BLOCK):
        cols = np.arange(start, min(start + _JACOBIAN_BLOCK, n2))
        step = np.zeros((len(cols), n2))
        step[np.arange(len(cols)), cols] = h
        grad_block[:, cols] = ((grad_rows(xc + step) - grad_rows(xc - step)) / (2.0 * h)).T
    blocks = [grad_block, sq * np.block([[cmat.real, -cmat.imag], [cmat.imag, cmat.real]])]
    if phase_dir is not None:
        blocks.append(phase_dir[None, :])
    return np.vstack(blocks)


def _preconditioner(z: np.ndarray, f: float, lam: float, lam_prox: float, n: int) -> np.ndarray:
    """Fourier symbol of the dominant (spectral-differentiation) block of the
    Gauss-Newton normal operator."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    a = float(np.mean(1.0 / np.abs(z) ** 2))
    sym = f * a * (2 * np.pi * k) ** 2 + 1.0 + f
    bp2 = float(np.mean(np.abs(1.0 - 1.0 / z**2) ** 2)) * 0.25
    return 1.0 / (sym**2 / n + lam_prox * bp2 / n + lam)


def _apply_precond(v: np.ndarray, diag_hat: np.ndarray) -> np.ndarray:
    n = len(v) // 2
    zv = v[:n] + 1j * v[n:]
    out = np.fft.ifft(np.fft.fft(zv) * diag_hat)
    return np.concatenate([out.real, out.imag])


def solve(seed: DiscreteLoop, cfg: FieldConfig, opts: SolveOptions = SolveOptions()) -> OrbitRecord:
    """Levenberg-Marquardt on the gradient residual from the given seed."""
    twisted = seed.twisted
    n = seed.n
    x = pack(np.asarray(seed.samples))
    x0 = x.copy()
    residual, phase_dir, state = _residual_factory(cfg, twisted, opts, x0)
    scale = 1.0 / np.sqrt(n)

    def grad_block(xv: np.ndarray) -> np.ndarray:
        g = gradient(DiscreteLoop(unpack(xv), twisted=twisted), cfg, opts.eps_zhat)
        return pack(g) * scale

    def hvp(xc: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Second-variation product by central differences of the gradient."""
        vn = np.linalg.norm(v)
        if vn == 0:
            return np.zeros_like(v)
        h = opts.fd_step * max(1.0, np.linalg.norm(xc)) / vn
        return (grad_block(xc + h * v) - grad_block(xc - h * v)) / (2.0 * h)

    def gn_of(r: np.ndarray) -> float:
        return float(np.linalg.norm(r[: 2 * n]))

    r, anchor = residual(x)
    gn = gn_of(r)
    seed_winding = _safe_winding(reconstruct(seed, opts.m))

    def make_ops(xc, anchor_c):
        """The frozen Gauss-Newton Jacobian at xc, whose anchor points
        ``residual(xc)`` returned as anchor_c: its anchor block (complex
        matrix and weight) and its forward/transpose products."""
        cmat = _prox_jacobian(DiscreteLoop(unpack(xc), twisted=twisted), *anchor_c)
        sq = np.sqrt(state["lam_prox"]) * scale

        def forward(v):
            parts = [hvp(xc, v), sq * pack(cmat @ unpack(v))]
            if phase_dir is not None:
                parts.append(np.array([float(phase_dir @ v)]))
            return np.concatenate(parts)

        def transpose(u):
            out = hvp(xc, u[: 2 * n])
            out = out + sq * pack(cmat.conj().T @ unpack(u[2 * n : 4 * n]))
            if phase_dir is not None:
                out = out + u[-1] * phase_dir
            return out

        return cmat, sq, forward, transpose

    # optional gradient-flow style warm-up when the seed is very rough
    if gn > opts.warmup_threshold:
        for _ in range(opts.warmup_steps):
            *_, transpose = make_ops(x, anchor)
            d = -transpose(r)
            step = 1.0
            base = np.linalg.norm(r)
            while step > 1e-8:
                xt = x + step * d
                if _admissible(xt, twisted, opts):
                    rt, at = residual(xt)
                    if np.linalg.norm(rt) < base:
                        x, r, anchor = xt, rt, at
                        break
                step *= 0.5
            else:
                break
        gn = gn_of(r)

    dense = n <= opts.dense_threshold
    lam = opts.lam0
    best_x, best_gn = x.copy(), gn
    iterations = 0
    stage_start, stage_gn = 0, gn

    def decay_anchor():
        """Weaken the anchor one stage and restart the damping and the stage
        bookkeeping: lam grown against the stronger anchor would otherwise
        throttle the steps that the weaker one allows."""
        nonlocal lam, gn, stage_start, stage_gn
        new_prox = max(state["lam_prox"] * opts.prox_decay, opts.prox_min)
        r[2 * n : 4 * n] *= np.sqrt(new_prox / state["lam_prox"])
        state["lam_prox"] = new_prox
        lam = opts.lam0
        gn = gn_of(r)
        stage_start, stage_gn = iterations, gn

    for iterations in range(1, opts.max_iter + 1):
        if gn < opts.g_tol:
            break

        xc, rc = x, r
        cmat, sq, forward, transpose = make_ops(xc, anchor)
        rhs = -transpose(rc)

        if dense:
            # the dense Gauss-Newton normal matrix resolves, at desk-scale
            # grids, the near-null symmetry directions that a truncated
            # Krylov solve cannot reach
            eye = np.eye(len(xc))
            jmat = _dense_jacobian(xc, twisted, cfg, opts, cmat, sq, phase_dir)
            ata = jmat.T @ jmat

            def solve_with(lam_cur, b):
                return np.linalg.solve(ata + lam_cur * eye, b)

        else:
            zc = unpack(xc)
            f = float(np.mean(conformal_weight(zc)))

            def solve_with(lam_cur, b):
                def normal_op(v):
                    return transpose(forward(v)) + lam_cur * v

                diag_hat = _preconditioner(zc, f, lam_cur, state["lam_prox"], n)
                op = LinearOperator((len(xc), len(xc)), matvec=normal_op)
                pre = LinearOperator(
                    (len(xc), len(xc)), matvec=lambda v: _apply_precond(v, diag_hat)
                )
                delta, _ = cg(op, b, rtol=1e-8, atol=0.0, maxiter=opts.cg_maxiter, M=pre)
                return delta

        accepted = False
        for _ in range(10):
            delta = solve_with(lam, rhs)
            # geodesic acceleration: second-order correction along the step,
            # which keeps long narrow valleys from throttling the step size
            hg = 0.1
            if (
                np.linalg.norm(delta) > 1e-13
                and _admissible(x + hg * delta, twisted, opts)
                and _admissible(x - hg * delta, twisted, opts)
            ):
                second = (
                    residual(x + hg * delta)[0] - 2.0 * rc + residual(x - hg * delta)[0]
                ) / hg**2
                accel = solve_with(lam, -transpose(second))
                if np.linalg.norm(accel) < 0.75 * np.linalg.norm(delta):
                    delta = delta + 0.5 * accel
            xt = x + delta
            if _admissible(xt, twisted, opts):
                rt, at = residual(xt)
                if np.linalg.norm(rt) < np.linalg.norm(r):
                    x, r, anchor = xt, rt, at
                    lam = max(lam * opts.lam_down, 1e-14)
                    accepted = True
                    break
            lam *= opts.lam_up
        if not accepted:
            zc2 = unpack(x)
            if float(np.mean(conformal_weight(zc2))) < 10.0 * opts.eps_zhat:
                raise SolveError("degenerated toward excluded locus")
            if state["lam_prox"] > opts.prox_min:
                # anchored phase stalled at its stationary point: weaken the
                # anchor one stage and continue, so that near-degenerate
                # directions stay regularized throughout the hand-off
                decay_anchor()
                continue
            # stop when damping explodes without producing an acceptable step
            if lam > 1e12:
                break
            continue

        gn = gn_of(r)
        # weaken the proximal anchor once the anchored iteration has settled:
        # either steps have gone quadratically small, or the gradient block
        # has stopped improving at this anchor strength
        if state["lam_prox"] > opts.prox_min:
            if gn < 0.5 * stage_gn:
                stage_start, stage_gn = iterations, gn
            settled = np.linalg.norm(delta) < opts.prox_release * max(
                1.0, np.linalg.norm(x)
            )
            if settled or iterations - stage_start >= opts.prox_patience:
                decay_anchor()
        if gn < best_gn:
            best_x, best_gn = x.copy(), gn
        log.debug(
            "iter %d: gn=%.3e step=%.3e lam=%.1e prox=%.1e",
            iterations, gn, float(np.linalg.norm(delta)), lam, state["lam_prox"],
        )

    loop = DiscreteLoop(unpack(best_x), twisted=twisted)
    if best_gn >= opts.g_tol:
        raise NoConvergenceError(
            f"no convergence: gradient norm {best_gn:.3e} after {iterations} iterations",
            best_loop=loop,
            best_grad_norm=best_gn,
        )
    return _finalize(loop, cfg, opts, best_gn, iterations, seed_winding)


def _safe_winding(q: PhysicalLoop) -> Optional[WindingReport]:
    try:
        return winding_report(q.samples, clearance=1e-6)
    except WindingError:
        return None


def _finalize(loop, cfg, opts, gn, iterations, seed_winding) -> OrbitRecord:
    breakdown = eval_components(loop, cfg, opts.eps_zhat)
    from .action import delay_residual

    delay = delay_residual(loop, cfg, opts.eps_zhat)
    q = reconstruct(loop, opts.m)
    wind = _safe_winding(q)
    if seed_winding is not None and wind is not None and wind != seed_winding:
        log.warning("winding changed during iteration: seed %s -> converged %s", seed_winding, wind)
    prof = phi_profile(q, cfg, C=breakdown.C, z_loop=loop)
    phi_sup = prof.sup_phi_relative
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
    )


# ------------------------------------------------------------ continuation

def continue_family(
    start: OrbitRecord,
    path: Sequence[FieldConfig],
    opts: SolveOptions = SolveOptions(),
) -> list[OrbitRecord]:
    """Natural-parameter continuation along a sequence of configurations.

    Each converged orbit seeds the next configuration.  A failure on the very
    first configuration raises; a later failure returns the partial family.
    """
    records = [start]
    for i, cfg in enumerate(path):
        try:
            rec = solve(records[-1].z, cfg, opts)
        except SolveError as exc:
            if i == 0:
                raise SolveError(f"continuation failed at the first configuration: {exc}") from exc
            log.warning("continuation stopped at step %d/%d: %s", i + 1, len(path), exc)
            break
        records.append(rec)
    return records


def thread_limit() -> int:
    """Solver parallelism cap from the SZBOV_THREADS environment variable."""
    raw = os.environ.get("SZBOV_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return os.cpu_count() or 1


def solve_many(seeds: Sequence[DiscreteLoop], cfg: FieldConfig, opts: SolveOptions = SolveOptions()):
    """Solve several seeds concurrently (bounded by thread_limit()).

    Returns a list of OrbitRecord or SolveError per seed, in order.
    """
    from concurrent.futures import ThreadPoolExecutor

    def run(seed):
        try:
            return solve(seed, cfg, opts)
        except SolveError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=min(thread_limit(), max(len(seeds), 1))) as pool:
        return list(pool.map(run, seeds))
