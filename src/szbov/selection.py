"""Which member of a family of critical points a solve returns.

Critical points of the discretized action come in families wherever the
physical problem has a symmetry: the time shift for an autonomous field, and
in the Kepler limit also the ellipses of one period.  The solve finds one
critical point; which member of its family to return is a separate question,
answered here by a stated rule.  The exact Hessian's spectrum at the critical
point gives the Morse index, the nullity (eigenvalues below _NULL_REL of the
largest in modulus) and the smallest non-null eigenvalue.  On a real loop of
a reflection-even field the Hessian is block-diagonal in [Re; Im], and the
spectrum is read from its two n x n diagonal blocks, which are assembled in
real arithmetic (``action._real_line_hessian``) without the full matrix.
Where the nullity is more than the time shift's one, the member returned is
the one closest to the seed in physical time (``anchor_measure``), reached by
moving along the family (``select_member``).
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from . import action as _action
from .action import gradient, pack, second_variation_matrix, unpack
from .fields import FieldConfig
from .loops import DiscreteLoop, _fourier_sum, integration_matrix, reconstruct

log = logging.getLogger(__name__)

# An eigenvalue of the exact Hessian whose modulus is below this fraction of
# the largest one counts as null.  On the bench's orbits at n=64 the null
# eigenvalues read below 1e-12 and the others 8e-7 or more.
_NULL_REL = 1e-9
# The move along a family stops once its next step is below this fraction of
# the iterate: at 1e-10 the `kepler` member's measure gradient is orthogonal
# to the null space to 3e-11 of its norm.
_MOVE_TOL = 1e-10


def on_real_line(z: np.ndarray, cfg: FieldConfig) -> bool:
    """Whether the loop of samples z lies on the real line, every sample
    exactly real, in a field even under q -> conj(q)
    (``FieldConfig.reflection_even``).  The real loops are then an invariant
    subspace: the gradient there is real, and the exact Hessian's Re-Im
    blocks vanish, so a critical point of the action on Re z alone is one of
    the full action (symmetric criticality)."""
    return cfg.reflection_even and not np.any(z.imag)


def _eigenvalues(nodes: _action._Nodes, hess: Optional[np.ndarray]) -> np.ndarray:
    """The exact Hessian's eigenvalues at the loop of the node object
    ``nodes``.  On the real line (``on_real_line``) they are the union of
    those of its two diagonal blocks, assembled in real arithmetic from
    ``nodes`` (``action._real_line_hessian``), since the off-diagonal blocks
    vanish there, and hess is not read; elsewhere they are those of hess,
    the full matrix at ``nodes``."""
    if on_real_line(nodes.z, nodes.cfg):
        return np.concatenate([np.linalg.eigvalsh(block) for block in _action._real_line_hessian(nodes)])
    return np.linalg.eigvalsh(hess)


def spectrum(evals: np.ndarray) -> tuple[int, int, float]:
    """Morse index, nullity and the smallest non-null |eigenvalue| relative
    to the largest, from the eigenvalues of the exact Hessian, in any order:
    on the real line ``select_member`` passes those of the Hessian's two
    diagonal blocks, one after the other."""
    rel = evals / np.max(np.abs(evals))
    null = np.abs(rel) < _NULL_REL
    return int(np.sum(rel <= -_NULL_REL)), int(np.sum(null)), float(np.min(np.abs(rel[~null])))


def anchor_measure(seed: DiscreteLoop, cfg: FieldConfig):
    """The map nodes -> (value, gradient, curv) of the anchor measure at the
    loop of the node object ``nodes``, in the seed's sector and field: half
    the squared L2 distance in physical time from the seed, mean_j rho_j
    |d_j|^2 / 2, with rho_j = w_j/zhat = dt/dtau and d_j = B(z_j) - q0(t_j) - o_j.

    q0 is the seed reconstructed at n uniform times and interpolated in t,
    and t_j = (K w)_j / zhat are the loop's node times, so no time map is
    inverted.  Where the seed has a collision, q0 rings there and misses the
    seed's own nodes; the fixed offset o_j, that miss, makes the measure
    zero at the seed.  The gradient is exact, through B(z_j) and through w_j
    in rho_j and t_j; curv, the diagonal of its Gauss-Newton Hessian with
    rho_j and t_j held, is rho_j |B'(z_j)|^2 / n on both coordinates of z_j.
    """
    n, twisted = seed.n, seed.twisted
    c = np.fft.fft(reconstruct(seed, n).samples) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    stack = np.stack([c, 2j * np.pi * k * c])
    stack[1, n // 2] = 0.0  # the Nyquist cosine's slope is added below
    kmat = integration_matrix(n)

    def miss(nodes):
        q0, slope = _fourier_sum(stack, nodes.t)
        slope -= np.pi * n * c[n // 2] * np.sin(np.pi * n * nodes.t)
        return nodes.q - q0, slope

    offset = miss(_action._Nodes(seed.samples, twisted, cfg))[0]

    def measure(nodes: _action._Nodes):
        dq, slope = miss(nodes)
        d = dq - offset
        f, t = nodes.f, nodes.t
        rho = nodes.w / f
        d2 = np.abs(d) ** 2
        # d(value)/dt_j, then through dt = (K dw - t dF)/F and through rho
        e = -rho * np.real(np.conj(d) * slope) / n
        dw = (d2 / f - np.mean(nodes.w * d2) / f**2) / (2 * n) + (e @ kmat - e @ t / n) / f
        grad = rho * np.conj(nodes.bp) * d / n + dw * nodes.phi
        curv = rho * np.abs(nodes.bp) ** 2 / n
        return float(np.mean(rho * d2)) / 2, pack(grad), np.concatenate([curv, curv])

    return measure


def select_member(
    nodes: _action._Nodes, gn: float, seed: DiscreteLoop, budget: int, g_tol: float
) -> Optional[tuple[_action._Nodes, float, int, np.ndarray]]:
    """The member of the critical set through the critical point x of the
    node object ``nodes`` (gradient norm gn) that the solve returns: the
    member's node object, its gradient norm, the steps taken and the
    Hessian's eigenvalues there; None where the move has not settled after
    ``budget`` steps.  The first Hessian reads ``nodes``, and so does the
    record once it is returned.

    Where the nullity k is at most one, x itself.  One null direction is the
    time shift.  For an autonomous field it is a symmetry, and the time
    shift is the one at which the iteration reached the critical set.  On
    the bench's `electric` orbit it is near null (2.3e-13 of the largest
    eigenvalue), the flat direction of an isolated critical point: a move
    along it raised the gradient norm from 8e-10 to 1e-4 in three steps.
    Where k is larger, x moves along the
    k-dimensional family to the member with the smallest anchor measure,
    whose gradient is there orthogonal to the Hessian's null space.

    Each step solves the bordered system [[H, N0], [N0^T, 0]], N0 the null
    basis at x, for the Newton step on the non-null part, which returns to
    the family, and the tangent map T, which spans the current null space
    with N0^T T = I.  Along the family the step is quasi-Newton on the
    reduced gradient T^T grad, from the measure's Gauss-Newton Hessian with
    Broyden updates, which supply its second-order terms and the family's
    curvature.  It stops once the next step is below _MOVE_TOL of x with the
    gradient norm below g_tol, so a member already selected stops at once.

    On the real line (``on_real_line``) every spectrum, at x and after a
    move, is read from the node object's two real diagonal blocks
    (``_eigenvalues``), so where k is at most one no (2n, 2n) Hessian is
    assembled; only the bordered system of a move reads the full matrix.
    Each step is projected onto Re z, so the member returned is exactly real.
    """
    n, twisted, cfg = nodes.n, nodes.twisted, nodes.cfg
    real = on_real_line(nodes.z, cfg)
    x = pack(nodes.z)
    hess = None if real else second_variation_matrix(nodes.z, twisted, cfg, nodes=nodes)
    evals = _eigenvalues(nodes, hess)
    k = spectrum(evals)[1]
    if k <= 1:
        return nodes, gn, 0, evals
    if real:  # the bordered step reads the full matrix
        hess = second_variation_matrix(nodes.z, twisted, cfg, nodes=nodes)
    vals, vecs = np.linalg.eigh(hess)
    frame = vecs[:, np.argsort(np.abs(vals))[:k]]
    measure = anchor_measure(seed, cfg)
    model = None
    steps = 0
    while True:
        g = pack(gradient(None, cfg, nodes=nodes))
        gn = float(np.linalg.norm(g)) / np.sqrt(n)
        border = np.block([[hess, frame], [frame.T, np.zeros((k, k))]])
        rhs = np.block([[-g[:, None], np.zeros((2 * n, k))], [np.zeros((k, 1)), np.eye(k)]])
        sol = np.linalg.solve(border, rhs)[: 2 * n]
        newton, tmap = sol[:, 0], sol[:, 1:]
        grad, curv = measure(nodes)[1:]
        reduced = tmap.T @ grad
        if model is None:
            model = tmap.T @ (curv[:, None] * tmap)
        else:  # Broyden, from the last step ds and the change it made
            model += np.outer(reduced - prev - model @ ds, ds) / (ds @ ds)
        move = tmap @ np.linalg.solve(model, -reduced)
        if real:  # the member stays on the real line
            move[n:] = newton[n:] = 0.0
        log.debug("select %d: gn=%.3e move=%.3e", steps, gn, float(np.linalg.norm(move)))
        if gn < g_tol and np.linalg.norm(move) <= _MOVE_TOL * max(1.0, np.linalg.norm(x)):
            # unmoved, x's eigenvalues are the ones already computed
            return nodes, gn, steps, evals if steps == 0 else _eigenvalues(nodes, hess)
        if steps == budget:
            return None
        ds, prev = frame.T @ (move + newton), reduced
        x = x + move + newton
        steps += 1
        nodes = _action._Nodes(unpack(x), twisted, cfg)
        hess = second_variation_matrix(nodes.z, twisted, cfg, nodes=nodes)
