"""The regularized action functional, its components, its exact discrete
gradient, and the delay equation residual.

The functional evaluated here is

    B(z) = F G + ((1-mu) H1 + mu H2)/F - M - E

with F the mean conformal weight, G the kinetic term, H1/H2 the two-center
terms, M the magnetic circulation of the reconstructed loop, and E the
time-reparametrized electric term.  The gradient differentiates the
*discretized* quadratures exactly (discretize-then-differentiate), so the
solver's zero-gradient points are genuine critical points of the computed
functional; the continuum differential formulas serve as test oracles.

Each public function reads one loop's node quantities from one ``_Nodes``
object (the weights and F, the cover, H1/H2, q = B(z), the fields at q and at
the discrete times), which computes each of them on first use, once.
``gradient`` and ``_hessian_blocks`` also take the caller's object, so that
the solver's gradient and Hessian at one point share it.

Gradients use the L2 pairing  dB(z)xi = mean_j Re(conj(g_j) xi_j).

The second variation, the derivative of that gradient, is linearized by hand
term by term and assembled as a matrix (``second_variation_matrix``).  Every
term varies real-linearly, as  A xi + B conj(xi):  a pointwise term g(z) with
its Wirtinger derivatives g_z, g_zbar on the diagonals, the kinetic, magnetic
and electric terms through the spectral derivative matrix D (on a twisted
loop, the double cover's D folded to n x n blocks), the gauge's
second derivatives and the integration matrix of the cumulative time map, and
the means F and G as rank-one products.  So the solver's Jacobian is exact to
round-off and symmetric in ``pack`` coordinates, as the Hessian of the
discretized functional.

On a real loop of a field even under q -> conj(q) (``on_real_line``) every
one of these terms is real and the Re-Im blocks vanish.  ``_hessian_blocks``
decides this once: it returns the Hessian as its diagonal blocks, the first
on the solve's unknowns, which are Re(A + B) and Re(A - B) in real
arithmetic on the real line, and the full matrix elsewhere.
``second_variation_matrix`` stays the general assembly and the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import FieldConfig
from .geometry import birkhoff_derivative, birkhoff_map
from .loops import (
    EPS_ZHAT,
    DegenerateLoopError,
    DiscreteLoop,
    LoopError,
    PhysicalLoop,
    _chain_rule_velocity,
    _periodic_cover,
    _require_diagnostic,
    _spectral_derivative,
    derivative_matrix,
    integration_matrix,
)

__all__ = [
    "ActionBreakdown",
    "DelayResidual",
    "eval_components",
    "eval_action",
    "eval_unregularized",
    "gradient",
    "second_variation_matrix",
    "component_gradients",
    "delay_residual",
    "pack",
    "unpack",
    "grad_norm",
]


@dataclass(frozen=True)
class ActionBreakdown:
    """Component values of the regularized functional."""

    F: float
    G: float
    H1: float
    H2: float
    M: float
    E_val: float
    E1: float
    mu: float

    @property
    def total(self) -> float:
        return self.F * self.G + ((1 - self.mu) * self.H1 + self.mu * self.H2) / self.F - self.M - self.E_val

    @property
    def C(self) -> float:
        """The global constant of the delay equation (the orbit energy)."""
        return _energy_constant(self.F, self.G, self.H1, self.H2, self.E_val, self.E1, self.mu)


def _energy_constant(f, g, h1, h2, e_val, e1, mu) -> float:
    """C = F G - ((1 - mu) H1 + mu H2) / F + E + E1, which has no M term."""
    return f * g - ((1 - mu) * h1 + mu * h2) / f + e_val + e1


# The JSON form of a breakdown's components, each key with its field ("E"
# is E_val); mu is the field configuration's, so it is no component.
_COMPONENT_KEYS = {"F": "F", "G": "G", "H1": "H1", "H2": "H2", "M": "M", "E": "E_val", "E1": "E1"}


def _components_to_dict(b: ActionBreakdown) -> dict:
    return {key: getattr(b, name) for key, name in _COMPONENT_KEYS.items()}


def _components_from_dict(block: dict, mu: float) -> ActionBreakdown:
    return ActionBreakdown(
        mu=mu, **{name: _require_diagnostic(block[key], f"record: {key!r}") for key, name in _COMPONENT_KEYS.items()}
    )


@dataclass(frozen=True)
class DelayResidual:
    """Pointwise defect of the second-order delay equation at the nodes,
    with the global constant C it was evaluated at and the scale max |z''|
    that ``sup_relative`` divides its sup by."""

    C: float
    residual: np.ndarray
    z_second_scale: float

    @property
    def sup_relative(self) -> float:
        return float(np.max(np.abs(self.residual))) / max(self.z_second_scale, 1e-300)


class _Nodes:
    """The node quantities of the discretized functional at one loop z: the
    moduli |z| and |z -+ 1|^2, w and F on construction, which rejects a
    sample that is not finite or is 0 (LoopError) and a degenerate loop, and
    each other one on first use.  Each modulus, those of the cover and of zp
    too, is computed once and read by every quadrature, gradient and Hessian
    term that needs it; each mean is a sum over the count, as ``np.mean``
    computes it, with the same bits.  Values (the gauge at q = B(z), the
    potential e and its time derivative edot at the node times) are kept
    apart from derivatives, so a value evaluates no derivative of a field.

    The electric term goes through the time map t = K w / F.  N := F E is
    mean(e w); its gradient n c phi + force has a dW channel, with
    coefficients c, and a position channel, force = w conj(B'(z)) grad E.
    beta = edot w weighs dt in N, as beta K and mean(beta t), and gives the
    tail, the integral of edot dt from each node time to 1."""

    def __init__(self, z: np.ndarray, twisted: bool, cfg: FieldConfig):
        self.z, self.twisted, self.cfg = z, twisted, cfg
        self.n = len(z)
        self.period = 2.0 if twisted else 1.0
        # the moduli |z|, |z|^2 and |z -+ 1|^2, which w, H1, H2, phi, the
        # centers' gradient and the Hessian share
        self.absz = np.abs(z)
        if not (np.isfinite(self.absz).all() and self.absz.all()):
            raise LoopError("loop samples must be finite and avoid the origin")
        self.abs2 = self.absz**2
        self.am2, self.ap2 = np.abs(z - 1.0) ** 2, np.abs(z + 1.0) ** 2
        # geometry.conformal_weight, from the shared moduli
        self.w = self.am2 * self.ap2 / (4.0 * self.abs2)
        self.f = float(self.w.sum()) / self.n
        if self.f <= EPS_ZHAT:
            raise DegenerateLoopError("degenerate loop: zhat vanishes")

    def breakdown(self) -> ActionBreakdown:
        return ActionBreakdown(self.f, self.g, self.h1, self.h2, self.m, self.e_val, self.e1, self.cfg.mu)

    @cached_property
    def zc(self) -> np.ndarray:
        """The periodic loop behind the samples: z, or the double cover z, 1/z."""
        return _periodic_cover(self.z, self.twisted)[0]

    @cached_property
    def zp(self) -> np.ndarray:
        return _spectral_derivative(self.zc, period=self.period)

    @cached_property
    def abs_zc(self) -> np.ndarray:
        return np.abs(self.zc) if self.twisted else self.absz

    @cached_property
    def zc2(self) -> np.ndarray:
        """|zc|^2, shared by G, its gradient and the kinetic Hessian."""
        return self.abs_zc**2

    @cached_property
    def zp2(self) -> np.ndarray:
        """|zp|^2, shared as zc2 is."""
        return np.abs(self.zp) ** 2

    @cached_property
    def g(self) -> float:
        """G, averaged over the whole cover, which its gradient differentiates."""
        return 0.5 * float((self.zp2 / self.zc2).sum()) / len(self.zc)

    @cached_property
    def g_cover(self) -> np.ndarray:
        """Gradient of G in the samples of the cover."""
        zc, zp = self.zc, self.zp
        return -_spectral_derivative(zp / self.zc2, period=self.period) - zc * self.zp2 / self.abs_zc**4

    @cached_property
    def grad_g(self) -> np.ndarray:
        """g_cover pulled back to the samples; z, 1/z varies as xi, -xi/z^2."""
        if not self.twisted:
            return self.g_cover
        return 0.5 * (self.g_cover[: self.n] - self.g_cover[self.n :] / np.conj(self.z) ** 2)

    @cached_property
    def h1(self) -> float:
        return 0.5 * float((self.am2 / self.absz).sum()) / self.n

    @cached_property
    def h2(self) -> float:
        return 0.5 * float((self.ap2 / self.absz).sum()) / self.n

    @cached_property
    def grad_centers(self) -> np.ndarray:
        """Gradient of the mass-weighted two-center term (1-mu) H1 + mu H2."""
        z, den = self.z, 2.0 * self.absz**3
        return (1 - self.cfg.mu) * _grad_center(z, 1.0, den) + self.cfg.mu * _grad_center(z, -1.0, den)

    @cached_property
    def phi(self) -> np.ndarray:
        """Pointwise gradient of the conformal weight: dw = Re(conj(phi) xi)."""
        z = self.z
        return z * (z**2 - 1.0) * (np.conj(z) ** 2 + 1.0) / (2.0 * self.absz**4)

    @cached_property
    def phi_wirtinger(self) -> tuple[np.ndarray, np.ndarray]:
        """d/dz and d/dzbar of phi = a conj(b), a = (z - 1/z)/2, b = 1 + 1/z^2."""
        z = self.z
        return 0.5 * np.abs(1.0 + 1.0 / z**2) ** 2, -(z - 1.0 / z) / np.conj(z) ** 3

    @cached_property
    def q(self) -> np.ndarray:
        return birkhoff_map(self.z)

    @cached_property
    def bp(self) -> np.ndarray:
        return birkhoff_derivative(self.z)

    @cached_property
    def qdot(self) -> np.ndarray:
        """The chain-rule velocity at the nodes (``loops.chain_rule_state``)."""
        return _chain_rule_velocity(self.q, self.w, self.f, self.zp[: self.n], self.bp)

    @cached_property
    def qp(self) -> np.ndarray:
        return _spectral_derivative(self.q, period=1.0)

    @cached_property
    def gauge(self) -> np.ndarray:
        return self.cfg.magnetic.gauge_at(self.q)

    @cached_property
    def m(self) -> float:
        """M, the circulation of the gauge along q."""
        if self.cfg.magnetic.is_zero:
            return 0.0
        return float(np.real(np.conj(self.gauge) * self.qp).sum()) / self.n

    @cached_property
    def gauge_jac(self) -> tuple[np.ndarray, np.ndarray]:
        """The gauge's first derivatives d1, d2 at q."""
        return self.cfg.magnetic.gauge_jac_at(self.q)

    @cached_property
    def gq(self) -> np.ndarray:
        """Gradient of the circulation in the q-plane, zeta - D a."""
        d1, d2 = self.gauge_jac
        zeta = np.real(np.conj(d1) * self.qp) + 1j * np.real(np.conj(d2) * self.qp)
        return zeta - _spectral_derivative(self.gauge, period=1.0)

    @cached_property
    def raw(self) -> np.ndarray:
        """Raw cumulative integral T_j = (K w)_j of the weights."""
        return self.w @ integration_matrix(self.n).T

    @cached_property
    def t(self) -> np.ndarray:
        return self.raw / self.f

    @cached_property
    def e(self) -> np.ndarray:
        return self.cfg.electric.e(self.t, self.q)

    @cached_property
    def edot(self) -> np.ndarray:
        return self.cfg.electric.dot(self.t, self.q)

    @cached_property
    def e_val(self) -> float:
        if self.cfg.electric.is_zero:
            return 0.0
        return float((self.e * self.w).sum()) / self.n / self.f

    @cached_property
    def e1(self) -> float:
        if self.cfg.electric.is_zero:
            return 0.0
        return float((self.edot * self.raw * self.w).sum()) / self.n / (self.f * self.f)

    @cached_property
    def ge(self) -> np.ndarray:
        return self.cfg.electric.grad(self.t, self.q)

    @cached_property
    def force(self) -> np.ndarray:
        return self.w * np.conj(self.bp) * self.ge

    @cached_property
    def beta(self) -> np.ndarray:
        return self.edot * self.w

    @cached_property
    def tail(self) -> np.ndarray:
        """tail_j, the integral of edot dt from t_j to 1: the interpolant of
        beta = edot w integrated from node j to the end, over F."""
        return (float(self.beta.sum()) / self.n - integration_matrix(self.n) @ self.beta) / self.f

    @cached_property
    def beta_k(self) -> np.ndarray:
        return self.beta @ integration_matrix(self.n)

    @cached_property
    def beta_t(self) -> float:
        return float((self.beta * self.t).sum()) / self.n

    @cached_property
    def c(self) -> np.ndarray:
        n, f = self.n, self.f
        return self.e / n + self.beta_k / (n * f) - self.beta_t / (n * f)

    @cached_property
    def grad_e(self) -> np.ndarray:
        """Exact gradient of the discretized electric term, (grad N - E phi)/F."""
        return (self.n * self.c * self.phi + self.force - self.e_val * self.phi) / self.f


def eval_components(loop: DiscreteLoop, cfg: FieldConfig) -> ActionBreakdown:
    """All component quadratures of the regularized functional."""
    return _Nodes(loop.samples, loop.twisted, cfg).breakdown()


def eval_action(loop: DiscreteLoop, cfg: FieldConfig) -> float:
    """Value of the regularized functional."""
    return eval_components(loop, cfg).total


def eval_unregularized(q: PhysicalLoop, cfg: FieldConfig) -> float:
    """The classical action of a collision-free physical loop.

    Independent of the blown-up quadratures: spectral derivative and trapezoid
    rule directly on the uniform time grid; refused if q.collision_times.
    """
    qs = q.samples
    if q.collision_times:
        raise ValueError("unregularized action singular near collision")
    qdot = _spectral_derivative(qs, period=1.0)
    t = q.times
    kinetic = 0.5 * float(np.mean(np.abs(qdot) ** 2))
    circulation = float(np.mean(np.real(np.conj(cfg.magnetic.gauge_at(qs)) * qdot)))
    attract = float(np.mean((1 - cfg.mu) / np.abs(qs + 1.0) + cfg.mu / np.abs(qs - 1.0)))
    electric = float(np.mean(cfg.electric.e(t, qs)))
    return kinetic - circulation + attract - electric


def _grad_center(z: np.ndarray, s: float, den: np.ndarray) -> np.ndarray:
    """Gradient of the two-center term of the center at s (H1 at 1, H2 at
    -1), given den = 2 |z|^3."""
    return z * (z - s) * (np.conj(z) + s) / den


def component_gradients(loop: DiscreteLoop, cfg: FieldConfig) -> dict:
    """Per-component (value, gradient) pairs, for isolating each formula."""
    nodes = _Nodes(loop.samples, loop.twisted, cfg)
    den = 2.0 * nodes.absz**3
    out = {
        "F": (nodes.f, nodes.phi),
        "G": (nodes.g, nodes.grad_g),
        "H1": (nodes.h1, _grad_center(nodes.z, 1.0, den)),
        "H2": (nodes.h2, _grad_center(nodes.z, -1.0, den)),
        "M": (nodes.m, np.conj(nodes.bp) * nodes.gq),
    }
    if not cfg.electric.is_zero:
        out["E"] = (nodes.e_val, nodes.grad_e)
    return out


def gradient(loop: DiscreteLoop | None, cfg: FieldConfig, nodes: _Nodes | None = None) -> np.ndarray:
    """Exact gradient of the discretized regularized functional.

    ``nodes``, where the caller has it, is the node object of this loop and
    cfg, whose cached quantities are then read instead of computed again;
    the loop is then not read, and may be None.
    """
    if nodes is None:
        nodes = _Nodes(loop.samples, loop.twisted, cfg)
    f, phi = nodes.f, nodes.phi
    h_mu = (1 - cfg.mu) * nodes.h1 + cfg.mu * nodes.h2
    grad = nodes.g * phi + f * nodes.grad_g
    grad += nodes.grad_centers / f
    grad -= h_mu / (f * f) * phi
    if not cfg.magnetic.is_zero:
        grad -= np.conj(nodes.bp) * nodes.gq
    if not cfg.electric.is_zero:
        grad -= nodes.grad_e
    return grad


def _wirtinger_centers(z: np.ndarray, absz: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """d/dz and d/dzbar of ``_Nodes.grad_centers``, given absz = |z|: the
    center at s contributes (z - s)(1 + s/conj(z)) / (2|z|), s = 1 for H1
    and s = -1 for H2."""
    zb = np.conj(z)
    d_z, d_zb = 0.0, 0.0
    for s, weight in ((1.0, 1.0 - mu), (-1.0, mu)):
        d_z = d_z + weight * np.abs(1.0 + s / z) ** 2 / (4.0 * absz)
        d_zb = d_zb - weight * (z - s) * (1.0 + 3.0 * s / zb) / (4.0 * absz * zb)
    return d_z, d_zb


def _add_diag(m: np.ndarray, d) -> np.ndarray:
    """Add d to the diagonal of the square matrix m, in place; returns m."""
    m.flat[:: m.shape[0] + 1] += d
    return m


def _fold_diag(d: np.ndarray, n: int) -> np.ndarray:
    """[I, I, ...] diag(d) [I; I; ...] as a vector: the sum of d's n-blocks."""
    return d.reshape(-1, n).sum(axis=0)


def _fold_columns(lmat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """lmat diag(y) [I; I; ...]: the n-wide column blocks of lmat, shaped
    (n, h n), each scaled by its n-block of y, summed."""
    n = lmat.shape[0]
    return np.einsum("jhk,hk->jk", lmat.reshape(n, -1, n), y.reshape(-1, n))


def _kinetic_hessian(nodes: _Nodes):
    """(A, B) with  d grad_g = A xi + B conj(xi).

    On the cover, g_cover = -D(r zp) - r^2 |zp|^2 zc, with zp = D zc
    and r = 1/|zc|^2, varies along zeta as A_c zeta + B_c conj(zeta):

        A_c = diag(r^2 |zp|^2) - D diag(r) D + D diag(u) - diag(conj(u)) D
        B_c = diag(2 r^3 |zp|^2 zc^2) + D diag(v) - diag(v) D

    with u = r^2 zp conj(zc) and v = r^2 zp zc.  A twisted loop's cover
    z, 1/z moves by zeta = T xi, T = [I; diag(s)] with s = -1/z^2, and
    grad_g pulls g_cover back by weight T^H, weight = 1/2.  So
    A = weight T^H A_c T and B = weight T^H B_c conj(T), and the fold's own
    variation adds conj(xi) g_cover[n:]/conj(z)^3 to B.  A plain loop is the
    one-block case: T = I and weight 1.

    No cover operator is formed.  On the period-2 cover D = [[P, Q], [Q, P]]
    with P and Q real and antisymmetric, so T^H D is the n x 2n row
    L = [Lp, Lq], Lp = P + diag(conj s) Q and Lq = Q + diag(conj s) P, and
    D T = -L^H, D conj(T) = -L^T.  With the n x n column scalings
    X = L diag(u) T = Lp diag(u_0) + Lq diag(u_1 s) and
    Y = L diag(v) conj(T), each term folds to n x n:

        A = weight (diag(T^H diag(r^2 |zp|^2) T) + L diag(r) L^H + X + X^H)
        B = weight (diag(T^H diag(2 r^3 |zp|^2 zc^2) conj(T)) + Y + Y^T)

    a diagonal, the column scalings X and Y with their transposes (the
    row scalings diag(conj u) D and diag(v) D fold to -X^H and -Y^T), and
    L diag(r) L^H = Lp diag(r_0) Lp^H + Lq diag(r_1) Lq^H, one matmul."""
    n, zc, zp = nodes.n, nodes.zc, nodes.zp
    dmat = derivative_matrix(len(zc), nodes.period)
    # t is the diagonal of T
    if nodes.twisted:
        s = -1.0 / nodes.z**2
        t, weight = np.concatenate([np.ones(n), s]), 0.5
        # L = D[:n] + diag(conj s) D[n:], written in its real and imaginary
        # parts: a complex product with the real D would buffer a cast of it
        lmat = np.empty((n, 2 * n), dtype=complex)
        np.multiply(s.real[:, None], dmat[n:], out=lmat.real)
        np.multiply(-s.imag[:, None], dmat[n:], out=lmat.imag)
        lmat.real += dmat[:n]
    else:
        t, weight, lmat = np.ones(n), 1.0, dmat
    r = 1.0 / nodes.zc2
    zp2 = nodes.zp2
    u = r**2 * zp * np.conj(zc)
    v = r**2 * zp * zc

    # L diag(r) L^H as the conjugate of conj(L) diag(r) L^T, so that the one
    # scaled copy of L is the only one made; the factor takes L's dtype, so
    # that no cast is buffered
    lr = np.conj(lmat)
    lr *= (weight * r).astype(lr.dtype)
    a = lr @ lmat.T
    del lr
    np.conj(a, out=a)
    x = _fold_columns(lmat, weight * u * t)
    a = a + x  # a new array: on a plain loop, a is real
    a += np.conj(x.T)
    _add_diag(a, _fold_diag(weight * np.abs(t) ** 2 * r**2 * zp2, n))
    y = _fold_columns(lmat, weight * v * np.conj(t))
    b = y + y.T
    _add_diag(b, _fold_diag(weight * np.conj(t) ** 2 * 2.0 * r**3 * zp2 * zc**2, n))
    if nodes.twisted:
        _add_diag(b, nodes.g_cover[n:] / np.conj(nodes.z) ** 3)
    return a, b


def _magnetic_hessian(nodes: _Nodes):
    """(A, B) with  d grad_M = A xi + B conj(xi).

    grad_M is conj(B'(z)) gq, and gq = zeta - D a, with a the gauge at
    q = B(z) and zeta = Re(conj(d1) qp) + i Re(conj(d2) qp), varies along a
    q-plane move eta as A_q eta + B_q conj(eta).  The gauge's derivatives d1,
    d2 vary as p eta + pb conj(eta), with p and pb their Wirtinger derivatives
    (from the gauge's Hessian).  Then eta = B'(z) xi, and conj(B'(z)) varies
    by conj(xi/z^3)."""
    qp, bp = nodes.qp, nodes.bp
    d1, d2 = nodes.gauge_jac
    h11, h12, h22 = nodes.cfg.magnetic.gauge_hess_at(nodes.q)
    dmat = derivative_matrix(nodes.n, 1.0)
    qpb = np.conj(qp)
    p1, p1b = 0.5 * (h11 - 1j * h12), 0.5 * (h11 + 1j * h12)
    p2, p2b = 0.5 * (h12 - 1j * h22), 0.5 * (h12 + 1j * h22)
    d_minus, d_plus = 0.5 * (d1 - 1j * d2), 0.5 * (d1 + 1j * d2)
    a_q = _add_diag(
        np.conj(d_minus)[:, None] * dmat - dmat * d_minus,
        0.5 * (qp * np.conj(p1b) + qpb * p1 + 1j * (qp * np.conj(p2b) + qpb * p2)),
    )
    b_q = _add_diag(
        d_plus[:, None] * dmat - dmat * d_plus,
        0.5 * (qp * np.conj(p1) + qpb * p1b + 1j * (qp * np.conj(p2) + qpb * p2b)),
    )
    bpb = np.conj(bp)
    a = bpb[:, None] * a_q * bp
    b = _add_diag(bpb[:, None] * b_q * bpb, np.conj(1.0 / nodes.z**3) * nodes.gq)
    return a, b


def _electric_hessian(nodes: _Nodes):
    """(A, B) with  d grad_e = A xi + B conj(xi): through the discrete
    time map t = K w / F, and through the field's second derivatives at the
    nodes.  Names follow the electric quantities of ``_Nodes``: N = F E is
    the quadrature mean(e w) and grad_n its gradient n c phi + force.

    A real variation r is kept as the one matrix p with r = p xi + conj(p
    xi): the weights' dw = Re(conj(phi) xi) is diagonal, dF = mean(dw) one
    row, and the time map's dt = (K dw - t dF)/F a full matrix."""
    n, f, w, t = nodes.n, nodes.f, nodes.w, nodes.t
    kmat = integration_matrix(n)
    e, edot, ge, e_val = nodes.e, nodes.edot, nodes.ge, nodes.e_val
    beta, beta_k, beta_t, c = nodes.beta, nodes.beta_k, nodes.beta_t, nodes.c
    e_tt, ge_t, g1, g2 = nodes.cfg.electric.hess(t, nodes.q)
    phi, bp, grad_e = nodes.phi, nodes.bp, nodes.grad_e
    phi_z, phi_zb = nodes.phi_wirtinger
    bpb = np.conj(bp)

    # the real K, and the real vectors that scale rows, multiply complex
    # operands through their real and imaginary parts: a product with the
    # complex operand itself would cast the real one to complex
    p_w = 0.5 * np.conj(phi)
    p_f = p_w / n
    p_t = np.empty((n, n), dtype=complex)
    np.multiply(kmat, p_w.real, out=p_t.real)
    np.multiply(kmat, p_w.imag, out=p_t.imag)
    p_t -= np.outer(t, p_f)
    p_t /= f
    p_e = _add_diag(_scale_rows(edot, p_t), 0.5 * np.conj(ge) * bp)
    p_edot = _add_diag(_scale_rows(e_tt, p_t), 0.5 * np.conj(ge_t) * bp)
    p_beta = _add_diag(_scale_rows(w, p_edot), edot * p_w)
    del p_edot
    p_c = _real_matmul(kmat.T, p_beta)
    p_c -= np.outer(beta_k, p_f) / f
    p_c -= (_real_matmul(t, p_beta) + _real_matmul(beta, p_t)) / n
    p_c += beta_t * p_f / f
    p_c /= n * f
    p_c += p_e / n
    p_e_val = (_real_matmul(w, p_e) / n + e * p_w / n - e_val * p_f) / f
    del p_beta, p_e

    # the complex dge = ge_t dt + g1 Re(eta) + g2 Im(eta) with eta = B'(z) xi,
    # and d grad_n = n (dc phi + c dphi) + conj(B'(z)) (dw ge + w dge)
    # + w conj(xi/z^3) ge
    n_phi, wb_ge_t = (n * phi)[:, None], (w * bpb)[:, None] * ge_t[:, None]
    a = n_phi * p_c
    a += wb_ge_t * p_t
    _add_diag(a, n * c * phi_z + bpb * ge * p_w + w * np.abs(bp) ** 2 * 0.5 * (g1 - 1j * g2))
    b = np.conj(p_c, out=p_c)
    b *= n_phi
    p_t = np.conj(p_t, out=p_t)
    p_t *= wb_ge_t
    b += p_t
    _add_diag(
        b,
        n * c * phi_zb + bpb * ge * np.conj(p_w) + w * bpb**2 * 0.5 * (g1 + 1j * g2)
        + w * np.conj(1.0 / nodes.z**3) * ge,
    )
    # E = N/F:  dE_grad = (d grad_n - dE phi - E dphi - grad_E dF)/F
    a -= np.outer(phi, p_e_val)
    a -= np.outer(grad_e, p_f)
    b -= np.outer(phi, np.conj(p_e_val))
    b -= np.outer(grad_e, np.conj(p_f))
    _add_diag(a, -e_val * phi_z)
    _add_diag(b, -e_val * phi_zb)
    a /= f
    b /= f
    return a, b


def _scale_rows(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """diag(v) m for a real vector v and a C-contiguous complex matrix m, on
    m's real view, whose rows interleave the real and imaginary parts."""
    return (v[:, None] * m.view(float)).view(complex)


def _real_matmul(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """r @ m for a real r (a vector or a matrix) and a C-contiguous complex
    matrix m, as one real product on m's real view."""
    return (r @ m.view(float)).view(complex)


def _pointwise_terms(nodes: _Nodes):
    """(diag_a, diag_b, along_df, dm), the Hessian's terms outside the
    kinetic, magnetic and electric ones.  The gradient  G phi + F g_kin +
    g_cen / F - h_mu phi / F^2  varies pointwise, on the diagonals diag_a of
    A and diag_b of B, plus F times the kinetic variation, plus the means:
    dF = mean Re(conj(phi) xi) along along_df, and dG - dh_mu / F^2 =
    mean Re(conj(dm) xi) along phi."""
    cfg, f = nodes.cfg, nodes.f
    h_mu = (1 - cfg.mu) * nodes.h1 + cfg.mu * nodes.h2
    phi_z, phi_zb = nodes.phi_wirtinger
    cen_z, cen_zb = _wirtinger_centers(nodes.z, nodes.absz, cfg.mu)
    a0 = nodes.g - h_mu / f**2
    dm = nodes.grad_g - nodes.grad_centers / f**2
    along_df = dm + 2.0 * h_mu / f**3 * nodes.phi
    return a0 * phi_z + cen_z / f, a0 * phi_zb + cen_zb / f, along_df, dm


def on_real_line(z: np.ndarray, cfg: FieldConfig) -> bool:
    """Whether every sample of z is exactly real, in a field even under
    q -> conj(q) (``FieldConfig.reflection_even``).  The real loops are then
    invariant, the gradient there is real and the Hessian's Re-Im blocks
    vanish, so a critical point in Re z alone is one of the full action
    (symmetric criticality)."""
    return cfg.reflection_even and not np.any(z.imag)


def _hessian_blocks(nodes: _Nodes) -> tuple[np.ndarray, ...]:
    """The exact Hessian at the loop of the node object ``nodes`` as its
    diagonal blocks, the first one on the solve's unknowns: on the real line
    (``on_real_line``), (H_rr, H_ii) from ``_real_line_hessian``, with
    unknowns Re z; elsewhere (H,), the full matrix, with unknowns pack(z).
    The Hessian's spectrum is the union of the blocks'."""
    if on_real_line(nodes.z, nodes.cfg):
        return _real_line_hessian(nodes)
    return (_second_variation_matrix(nodes),)


def _real_line_hessian(nodes: _Nodes) -> tuple[np.ndarray, np.ndarray]:
    """The two diagonal blocks H_rr = Re(A + B) and H_ii = Re(A - B) of
    ``second_variation_matrix`` at a loop on the real line
    (``on_real_line``), where its Re-Im blocks vanish, assembled
    in real arithmetic: two (n, n) arrays.

    On a real loop z, the cover, zp, s = -1/z^2, L, u = v, phi, its
    Wirtinger derivatives and the centers' are all real.  So the kinetic X
    and Y of ``_kinetic_hessian`` are equal, and so are the rank-one terms
    of A and B: both enter H_rr twice and H_ii not at all,

        H_rr = f weight (L diag(r) L^T + 2 (X + X^T)) + diagonals + 2 rank-one
        H_ii = f weight L diag(r) L^T + diagonals

    and the blocks share the one real (n, 2n) x (2n, n) product.  A
    reflection-even field has no magnetic term; the electric term of
    ``uniform_oscillating`` with a real d is Re(A_e +- B_e), from the
    complex ``_electric_hessian``."""
    n, f, zc, zp = nodes.n, nodes.f, nodes.zc.real, nodes.zp.real
    dmat = derivative_matrix(len(zc), nodes.period)
    if nodes.twisted:
        s = -1.0 / nodes.z.real**2
        t, weight = np.concatenate([np.ones(n), s]), 0.5
        lmat = s[:, None] * dmat[n:]
        lmat += dmat[:n]
    else:
        t, weight, lmat = np.ones(n), 1.0, dmat
    fw, r, zp2 = f * weight, 1.0 / zc**2, zp**2
    lr = lmat * (fw * r)
    h_ii = lr @ lmat.T
    del lr
    h_rr = h_ii.copy()
    x = _fold_columns(lmat, 2.0 * fw * r**2 * zp * zc * t)
    h_rr += x
    h_rr += x.T
    del x
    d_a = fw * _fold_diag(t**2 * r**2 * zp2, n)
    d_b = fw * _fold_diag(t**2 * 2.0 * r**3 * zp2 * zc**2, n)
    if nodes.twisted:
        d_b += f * nodes.g_cover[n:].real / nodes.z.real**3
    diag_a, diag_b, along_df, dm = (v.real for v in _pointwise_terms(nodes))
    _add_diag(h_rr, d_a + d_b + diag_a + diag_b)
    _add_diag(h_ii, d_a - d_b + diag_a - diag_b)
    # the rank-one pair as one product: an outer product of two vectors
    # buffers twice its own size
    phi = nodes.phi.real
    h_rr += np.stack([along_df / n, phi / n], axis=1) @ np.stack([phi, dm])
    if not nodes.cfg.electric.is_zero:
        a_e, b_e = _electric_hessian(nodes)
        h_rr -= a_e.real
        h_rr -= b_e.real
        h_ii -= a_e.real
        h_ii += b_e.real
    return h_rr, h_ii


def second_variation_matrix(z: np.ndarray, twisted: bool, cfg: FieldConfig) -> np.ndarray:
    """The exact Hessian of the discretized functional at the one loop z
    (shape (n,)): the (2n, 2n) real Jacobian of pack(gradient) in pack
    coordinates, symmetric to round-off.

    Every term of the gradient varies real-linearly, as A xi + B conj(xi)
    with complex (n, n) matrices A and B.  These are assembled directly from
    the pointwise Wirtinger derivatives (diagonals), the spectral derivative
    matrix D folded to n x n blocks on a twisted loop's double cover,
    rank-one products for the means F and G, and the integration matrix K
    of the electric time map.  The real block [[Re(A+B), -Im(A-B)],
    [Im(A+B), Re(A-B)]] is written into one (2n, 2n) array."""
    return _second_variation_matrix(_Nodes(np.asarray(z, dtype=complex), twisted, cfg))


def _second_variation_matrix(nodes: _Nodes) -> np.ndarray:
    """``second_variation_matrix`` read from the loop's node object."""
    cfg, n, f, phi = nodes.cfg, nodes.n, nodes.f, nodes.phi
    diag_a, diag_b, along_df, dm = _pointwise_terms(nodes)
    a, b = _kinetic_hessian(nodes)
    a *= f
    b *= f
    _add_diag(a, diag_a)
    _add_diag(b, diag_b)
    a += np.outer(along_df / (2 * n), np.conj(phi))
    a += np.outer(phi / (2 * n), np.conj(dm))
    b += np.outer(along_df / (2 * n), phi)
    b += np.outer(phi / (2 * n), dm)
    if not cfg.magnetic.is_zero:
        a_m, b_m = _magnetic_hessian(nodes)
        a -= a_m
        b -= b_m
    if not cfg.electric.is_zero:
        a_e, b_e = _electric_hessian(nodes)
        a -= a_e
        b -= b_e
    out = np.empty((2 * n, 2 * n))
    np.add(a.real, b.real, out=out[:n, :n])
    np.subtract(b.imag, a.imag, out=out[:n, n:])
    np.add(a.imag, b.imag, out=out[n:, :n])
    np.subtract(a.real, b.real, out=out[n:, n:])
    return out


def pack(g: np.ndarray) -> np.ndarray:
    """Complex samples to the real coordinate vector [Re; Im]."""
    return np.concatenate([g.real, g.imag])


def unpack(x: np.ndarray) -> np.ndarray:
    n = len(x) // 2
    return x[:n] + 1j * x[n:]


def grad_norm(g: np.ndarray) -> float:
    """L2 functional norm sqrt(mean |g_j|^2) of a gradient."""
    return float(np.sqrt(np.mean(np.abs(g) ** 2)))


def delay_residual(loop: DiscreteLoop, cfg: FieldConfig) -> DelayResidual:
    """Pointwise defect of the delay equation z'' = RHS(z, z', nonlocal data).

    Evaluates the right-hand side with spectral derivatives and cumulative
    quadratures and subtracts the spectral z''.
    """
    return _delay_residual(_Nodes(loop.samples, loop.twisted, cfg))


def _delay_residual(nodes: _Nodes) -> DelayResidual:
    """``delay_residual`` read from the loop's node object."""
    cfg = nodes.cfg
    z, w, f, phi = nodes.z, nodes.w, nodes.f, nodes.phi
    c_const = _energy_constant(f, nodes.g, nodes.h1, nodes.h2, nodes.e_val, nodes.e1, cfg.mu)
    zp = nodes.zp[: nodes.n]
    zpp = _spectral_derivative(nodes.zc, period=nodes.period, order=2)[: nodes.n]
    absz2 = nodes.abs2

    rhs = c_const * phi * absz2 / f**2
    rhs = rhs + np.conj(z) * zp**2 / absz2
    rhs = rhs + absz2 * nodes.grad_centers / f**2
    # magnetic delay term, same orientation as the Lorentz force B i qdot
    rhs = rhs + (w / f) * cfg.magnetic.field_at(nodes.q) * 1j * zp

    if not cfg.electric.is_zero:
        rhs = rhs - (absz2 / f**2) * (nodes.tail * phi + nodes.force + nodes.e * phi)

    return DelayResidual(C=c_const, residual=rhs - zpp, z_second_scale=float(np.max(np.abs(zpp))))
