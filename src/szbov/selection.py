"""Which member of a family of critical points a solve returns.

Critical points of the discretized action come in families wherever the
physical problem has a symmetry: the time shift for an autonomous field, and
in the Kepler limit also the ellipses of one period.  The solve finds one
critical point; which member of its family to return is a separate question,
answered here by a stated rule.  The exact Hessian's spectrum at the critical
point gives the Morse index, the nullity (eigenvalues below _NULL_REL of the
largest in modulus) and the smallest non-null eigenvalue.  It is read as the
union of the spectra of the Hessian's diagonal blocks
(``action._hessian_blocks``): on a real loop of a reflection-even field the
two n x n blocks, assembled in real arithmetic, and elsewhere the one full
matrix.  Where the nullity is more than the time shift's one, the member
returned is the one closest to the seed in physical time
(``anchor_measure``), reached by moving along the family (``select_member``).
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from . import action as _action
from .action import gradient, pack, unpack
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


def spectrum(evals: np.ndarray) -> tuple[int, int, float]:
    """Morse index, nullity and the smallest non-null |eigenvalue| relative
    to the largest, from the eigenvalues of the exact Hessian, in any order:
    ``select_member`` passes those of the Hessian's diagonal blocks, one
    block after the other."""
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
    Where k is larger, x moves along the family to the member with the
    smallest anchor measure, whose gradient is there orthogonal to the
    Hessian's null space.

    The move is made in the unknowns of the first block H, as the solve's
    steps are, so on the real line the member stays exactly real.  N0 is
    H's null basis at x, counted against the largest |eigenvalue| of all the
    blocks.  Each step solves
    the bordered system [[H, N0], [N0^T, 0]] for the Newton step on the
    non-null part, which returns to the family, and the tangent map T,
    which spans the current null space with N0^T T = I.  Along the family
    the step is quasi-Newton on the reduced gradient T^T grad, from the
    measure's Gauss-Newton Hessian with Broyden updates, which supply its
    second-order terms and the family's curvature.  It stops once the next
    step is below _MOVE_TOL of x with the gradient norm below g_tol, so a
    member already selected stops at once.
    """
    n, twisted, cfg = nodes.n, nodes.twisted, nodes.cfg
    blocks = _action._hessian_blocks(nodes)
    evals = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
    k = spectrum(evals)[1]
    if k <= 1:
        return nodes, gn, 0, evals
    vals, vecs = np.linalg.eigh(blocks[0])
    size = len(vals)
    k = int(np.sum(np.abs(vals) / np.max(np.abs(evals)) < _NULL_REL))
    frame = vecs[:, np.argsort(np.abs(vals))[:k]]
    measure = anchor_measure(seed, cfg)
    x = pack(nodes.z)[:size]
    # the bordered system's frame rows and columns and the tangent map's
    # right-hand sides are fixed: each step overwrites only H and -grad
    border = np.zeros((size + k, size + k))
    border[:size, size:] = frame
    border[size:, :size] = frame.T
    rhs = np.zeros((size + k, 1 + k))
    rhs[size:, 1:] = np.eye(k)
    model = None
    steps = 0
    while True:
        g = pack(gradient(None, cfg, nodes=nodes))
        gn = float(np.linalg.norm(g)) / np.sqrt(n)
        border[:size, :size] = blocks[0]
        rhs[:size, 0] = -g[:size]
        sol = np.linalg.solve(border, rhs)[:size]
        newton, tmap = sol[:, 0], sol[:, 1:]
        grad, curv = (v[:size] for v in measure(nodes)[1:])
        reduced = tmap.T @ grad
        if model is None:
            model = tmap.T @ (curv[:, None] * tmap)
        else:  # Broyden, from the last step ds and the change it made
            model += np.outer(reduced - prev - model @ ds, ds) / (ds @ ds)
        move = tmap @ np.linalg.solve(model, -reduced)
        log.debug("select %d: gn=%.3e move=%.3e", steps, gn, float(np.linalg.norm(move)))
        if gn < g_tol and np.linalg.norm(move) <= _MOVE_TOL * max(1.0, np.linalg.norm(x)):
            # unmoved, x's eigenvalues are the ones already computed
            if steps:
                evals = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
            return nodes, gn, steps, evals
        if steps == budget:
            return None
        ds, prev = frame.T @ (move + newton), reduced
        x = x + move + newton
        steps += 1
        nodes = _action._Nodes(unpack(np.pad(x, (0, 2 * n - size))), twisted, cfg)
        blocks = _action._hessian_blocks(nodes)
