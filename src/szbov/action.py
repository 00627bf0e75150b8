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

Gradients use the L2 pairing  dB(z)xi = mean_j Re(conj(g_j) xi_j).

The second variation, the derivative of that gradient, is linearized by hand
term by term and assembled as a matrix (``second_variation_matrix``).  Every
term varies real-linearly, as  A xi + B conj(xi):  a pointwise term g(z) with
its Wirtinger derivatives g_z, g_zbar on the diagonals, the kinetic, magnetic
and electric terms through the spectral derivative matrix D, the gauge's
second derivatives and the integration matrix of the cumulative time map, and
the means F and G as rank-one products.  So the solver's Jacobian is exact to
round-off and symmetric in ``pack`` coordinates, as the Hessian of the
discretized functional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldConfig
from .geometry import birkhoff_derivative, birkhoff_map, conformal_weight
from .loops import (
    EPS_COLLISION,
    EPS_ZHAT,
    DegenerateLoopError,
    DiscreteLoop,
    PhysicalLoop,
    _periodic_cover,
    _spectral_derivative,
    _tail_integral,
    derivative,
    derivative_matrix,
    integration_matrix,
    second_derivative,
)

__all__ = [
    "ActionBreakdown",
    "DelayResidual",
    "eval_components",
    "eval_action",
    "eval_unregularized",
    "gradient",
    "stacked_gradient",
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
        return self.F * self.G - ((1 - self.mu) * self.H1 + self.mu * self.H2) / self.F + self.E_val + self.E1


@dataclass(frozen=True)
class DelayResidual:
    """Pointwise defect of the second-order delay equation at the nodes."""

    C: float
    residual: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    eps3: np.ndarray
    z_second_scale: float

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.residual)))

    @property
    def sup_relative(self) -> float:
        return self.sup_norm / max(self.z_second_scale, 1e-300)


def _mean(x: np.ndarray) -> np.ndarray:
    """Mean over the samples (the last axis), kept as an axis of length one."""
    return np.mean(x, axis=-1, keepdims=True)


def _prepare(z: np.ndarray):
    """Conformal weights of samples shaped (..., n) and their means F."""
    w = conformal_weight(z)
    f = _mean(w)
    if np.any(f <= EPS_ZHAT):
        raise DegenerateLoopError("degenerate loop: zhat vanishes")
    return w, f


def _cover(z: np.ndarray, twisted: bool):
    """The genuine periodic loop behind the samples and its spectral
    derivative: z itself, or for twisted loops the double cover z, 1/z."""
    zc, period = _periodic_cover(z, twisted)
    return zc, _spectral_derivative(zc, period=period)


def _kinetic(zc: np.ndarray, zp: np.ndarray) -> np.ndarray:
    """G as a quadrature; for twisted loops averaged over the full double cover
    so that the discrete gradient differentiates exactly what is evaluated."""
    return 0.5 * _mean(np.abs(zp) ** 2 / np.abs(zc) ** 2)


def _centers(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-center quadratures H1 and H2."""
    absz = np.abs(z)
    return 0.5 * _mean(np.abs(z - 1.0) ** 2 / absz), 0.5 * _mean(np.abs(z + 1.0) ** 2 / absz)


def _gauge_complex(cfg: FieldConfig, q: np.ndarray) -> np.ndarray:
    return cfg.magnetic.gauge_at(q)


def _electric_times(w: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    """Raw cumulative integral T_j of w and normalized times t_j = T_j/F."""
    raw = w @ integration_matrix(w.shape[-1]).T
    return raw, raw / f


def _df_integrand(z: np.ndarray) -> np.ndarray:
    """Pointwise gradient of the conformal weight: dw = Re(conj(phi) xi)."""
    return z * (z**2 - 1.0) * (np.conj(z) ** 2 + 1.0) / (2.0 * np.abs(z) ** 4)


def eval_components(loop: DiscreteLoop, cfg: FieldConfig) -> ActionBreakdown:
    """All component quadratures of the regularized functional."""
    z = loop.samples
    w, f = _prepare(z)
    h1, h2 = _centers(z)

    q = birkhoff_map(z)
    if cfg.magnetic.is_zero:
        m_val = 0.0
    else:
        qp = _spectral_derivative(q, period=1.0)
        m_val = float(np.mean(np.real(np.conj(_gauge_complex(cfg, q)) * qp)))

    if cfg.electric.is_zero:
        e_val = 0.0
        e1 = 0.0
    else:
        raw, t = _electric_times(w, f)
        e_val = (_mean(cfg.electric.e(t, q) * w) / f).item()
        e1 = (_mean(cfg.electric.dot(t, q) * raw * w) / f**2).item()
    return ActionBreakdown(
        F=f.item(), G=_kinetic(*_cover(z, loop.twisted)).item(), H1=h1.item(), H2=h2.item(),
        M=m_val, E_val=e_val, E1=e1, mu=cfg.mu,
    )


def eval_action(loop: DiscreteLoop, cfg: FieldConfig) -> float:
    """Value of the regularized functional."""
    return eval_components(loop, cfg).total


def eval_unregularized(q: PhysicalLoop, cfg: FieldConfig, eps_col: float = EPS_COLLISION) -> float:
    """The classical action of a collision-free physical loop.

    Independent of the blown-up quadratures: spectral derivative and trapezoid
    rule directly on the uniform time grid.
    """
    qs = q.samples
    if np.min(np.minimum(np.abs(qs - 1.0), np.abs(qs + 1.0))) < eps_col:
        raise ValueError("unregularized action singular near collision")
    qdot = _spectral_derivative(qs, period=1.0)
    t = q.times
    kinetic = 0.5 * float(np.mean(np.abs(qdot) ** 2))
    circulation = float(np.mean(np.real(np.conj(_gauge_complex(cfg, qs)) * qdot)))
    attract = float(np.mean((1 - cfg.mu) / np.abs(qs + 1.0) + cfg.mu / np.abs(qs - 1.0)))
    electric = float(np.mean(cfg.electric.e(t, qs)))
    return kinetic - circulation + attract - electric


def _grad_G_cover(zc: np.ndarray, zp: np.ndarray, period: float) -> np.ndarray:
    """Gradient of the kinetic quadrature in the samples of the cover."""
    return -_spectral_derivative(zp / np.abs(zc) ** 2, period=period) - zc * np.abs(zp) ** 2 / np.abs(zc) ** 4


def _fold(gz: np.ndarray, z: np.ndarray, twisted: bool) -> np.ndarray:
    """Pull a gradient on the cover back to the samples: for twisted loops
    the cover is z, 1/z, whose second half varies as -xi/z^2."""
    if not twisted:
        return gz
    n = z.shape[-1]
    return 0.5 * (gz[..., :n] - gz[..., n:] / np.conj(z) ** 2)


def _grad_G(z: np.ndarray, twisted: bool, zc: np.ndarray, zp: np.ndarray) -> np.ndarray:
    return _fold(_grad_G_cover(zc, zp, 2.0 if twisted else 1.0), z, twisted)


def _grad_H1(z: np.ndarray) -> np.ndarray:
    return z * (z - 1.0) * (np.conj(z) + 1.0) / (2.0 * np.abs(z) ** 3)


def _grad_H2(z: np.ndarray) -> np.ndarray:
    return z * (z + 1.0) * (np.conj(z) - 1.0) / (2.0 * np.abs(z) ** 3)


def _grad_centers(z: np.ndarray, mu: float) -> np.ndarray:
    """Gradient of the mass-weighted two-center term (1-mu) H1 + mu H2."""
    return (1 - mu) * _grad_H1(z) + mu * _grad_H2(z)


def _magnetic_base(z: np.ndarray, cfg: FieldConfig):
    """The circulation's base point: q = B(z), its spectral derivative qp, the
    gauge's first derivatives d1, d2 at q, and the gradient gq of the
    circulation in the q-plane."""
    q = birkhoff_map(z)
    qp = _spectral_derivative(q, period=1.0)
    ac = _gauge_complex(cfg, q)
    d1, d2 = cfg.magnetic.gauge_jac_at(q)
    zeta = np.real(np.conj(d1) * qp) + 1j * np.real(np.conj(d2) * qp)
    gq = zeta - _spectral_derivative(ac, period=1.0)
    return q, qp, d1, d2, gq


def _grad_M(z: np.ndarray, cfg: FieldConfig) -> np.ndarray:
    return np.conj(birkhoff_derivative(z)) * _magnetic_base(z, cfg)[-1]


def _electric_fields(z: np.ndarray, cfg: FieldConfig, w, f):
    """At the discrete times t_j: t, the potential E, its time derivative and
    its gradient at q = B(z)."""
    q = birkhoff_map(z)
    t = _electric_times(w, f)[1]
    return t, cfg.electric.e(t, q), cfg.electric.dot(t, q), cfg.electric.grad(t, q)


def _electric_base(z: np.ndarray, cfg: FieldConfig, w, f):
    """The electric term's base point, chain rule through the discrete
    cumulative time map.  N := F E is the quadrature mean(e w); its gradient
    grad_n = n c phi + force collects a dW channel, with coefficients c, and
    a position channel, force = w conj(B'(z)) grad E.  Returns the fields at
    the nodes (t, e, edot, ge), the weights beta = edot w of dt inside the
    quadrature with beta K and mean(beta t), c, grad_n and the value E."""
    n = z.shape[-1]
    t, e, edot, ge = _electric_fields(z, cfg, w, f)
    phi = _df_integrand(z)
    beta = edot * w
    beta_k = beta @ integration_matrix(n)
    beta_t = _mean(beta * t)
    c = e / n + beta_k / (n * f) - beta_t / (n * f)
    grad_n = n * c * phi + w * np.conj(birkhoff_derivative(z)) * ge
    e_val = _mean(e * w) / f
    return t, e, edot, ge, beta, beta_k, beta_t, c, grad_n, e_val


def _grad_E(z: np.ndarray, cfg: FieldConfig, w, f) -> tuple[np.ndarray, np.ndarray]:
    """Value and exact gradient of the discretized electric term."""
    grad_n, e_val = _electric_base(z, cfg, w, f)[-2:]
    return e_val, (grad_n - e_val * _df_integrand(z)) / f


def component_gradients(loop: DiscreteLoop, cfg: FieldConfig) -> dict:
    """Per-component (value, gradient) pairs, for isolating each formula."""
    z = loop.samples
    w, f = _prepare(z)
    zc, zp = _cover(z, loop.twisted)
    h1, h2 = _centers(z)
    out = {
        "F": (f.item(), _df_integrand(z)),
        "G": (_kinetic(zc, zp).item(), _grad_G(z, loop.twisted, zc, zp)),
        "H1": (h1.item(), _grad_H1(z)),
        "H2": (h2.item(), _grad_H2(z)),
        "M": (eval_components(loop, cfg).M, _grad_M(z, cfg)),
    }
    if not cfg.electric.is_zero:
        e_val, grad_e = _grad_E(z, cfg, w, f)
        out["E"] = (e_val.item(), grad_e)
    return out


def stacked_gradient(z: np.ndarray, twisted: bool, cfg: FieldConfig) -> np.ndarray:
    """Exact gradients of the discretized regularized functional for a stack
    of loops: z has shape (..., n), one loop's samples along the last axis,
    and every loop shares the sector ``twisted``.  Raises DegenerateLoopError
    if any loop in the stack is degenerate."""
    w, f = _prepare(z)
    zc, zp = _cover(z, twisted)
    mu = cfg.mu
    h1, h2 = _centers(z)
    h_mu = (1 - mu) * h1 + mu * h2
    phi = _df_integrand(z)

    grad = _kinetic(zc, zp) * phi + f * _grad_G(z, twisted, zc, zp)
    grad += _grad_centers(z, mu) / f
    grad -= h_mu / f**2 * phi
    if not cfg.magnetic.is_zero:
        grad -= _grad_M(z, cfg)
    if not cfg.electric.is_zero:
        grad -= _grad_E(z, cfg, w, f)[1]
    return grad


def gradient(loop: DiscreteLoop, cfg: FieldConfig) -> np.ndarray:
    """Exact gradient of the discretized regularized functional."""
    return stacked_gradient(loop.samples, loop.twisted, cfg)


def _wirtinger_phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d/dz and d/dzbar of ``_df_integrand``, which is a(z) conj(b(z)) with
    a = (z - 1/z)/2 and b = 1 + 1/z^2."""
    return 0.5 * np.abs(1.0 + 1.0 / z**2) ** 2, -(z - 1.0 / z) / np.conj(z) ** 3


def _wirtinger_centers(z: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """d/dz and d/dzbar of ``_grad_centers``: the center at s contributes
    (z - s)(1 + s/conj(z)) / (2|z|), s = 1 for H1 and s = -1 for H2."""
    absz, zb = np.abs(z), np.conj(z)
    d_z, d_zb = 0.0, 0.0
    for s, weight in ((1.0, 1.0 - mu), (-1.0, mu)):
        d_z = d_z + weight * np.abs(1.0 + s / z) ** 2 / (4.0 * absz)
        d_zb = d_zb - weight * (z - s) * (1.0 + 3.0 * s / zb) / (4.0 * absz * zb)
    return d_z, d_zb


def _add_diag(m: np.ndarray, d) -> np.ndarray:
    """Add d to the diagonal of the square matrix m, in place; returns m."""
    m.flat[:: m.shape[0] + 1] += d
    return m


def _fold_cover(m: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Pull an operator m on the double cover, shaped (2n, 2n), back to the
    samples: 0.5 [I, diag(left)] m [I; diag(right)], by slices."""
    n = m.shape[-1] // 2
    top = m[:n, :n] + m[:n, n:] * right
    bottom = m[n:, :n] + m[n:, n:] * right
    return 0.5 * (top + left[:, None] * bottom)


def _kinetic_hessian(z: np.ndarray, twisted: bool, zc: np.ndarray, zp: np.ndarray, g_cover: np.ndarray):
    """(A, B) with  d ``_grad_G`` = A xi + B conj(xi).

    On the cover, ``_grad_G_cover`` = -D(r zp) - r^2 |zp|^2 zc, with zp = D zc
    and r = 1/|zc|^2, varies along zeta as A_c zeta + B_c conj(zeta):

        A_c = diag(r^2 |zp|^2) - D diag(r) D + D diag(u) - diag(conj(u)) D
        B_c = diag(2 r^3 |zp|^2 zc^2) + D diag(v) - diag(v) D

    with u = r^2 zp conj(zc) and v = r^2 zp zc.  A twisted loop's cover z, 1/z
    moves by xi, s xi with s = -1/z^2, ``_fold`` pulls its halves back with
    conj(s), and the fold's own variation adds conj(xi) g_cover[n:]/conj(z)^3.
    g_cover is ``_grad_G_cover`` at the base."""
    n = z.shape[-1]
    dmat = derivative_matrix(zc.shape[-1], 2.0 if twisted else 1.0)
    r = 1.0 / np.abs(zc) ** 2
    zp2 = np.abs(zp) ** 2
    u = r**2 * zp * np.conj(zc)
    v = r**2 * zp * zc
    a = _add_diag(dmat * u - np.conj(u)[:, None] * dmat - (dmat * r) @ dmat, r**2 * zp2)
    b = _add_diag(dmat * v - v[:, None] * dmat, 2.0 * r**3 * zp2 * zc**2)
    if not twisted:
        return a, b
    s = -1.0 / z**2
    a = _fold_cover(a, np.conj(s), s)
    b = _add_diag(_fold_cover(b, np.conj(s), np.conj(s)), g_cover[n:] / np.conj(z) ** 3)
    return a, b


def _magnetic_hessian(z: np.ndarray, cfg: FieldConfig):
    """(A, B) with  d ``_grad_M`` = A xi + B conj(xi).

    ``_grad_M`` is conj(B'(z)) gq, and gq = zeta - D a, with a the gauge at
    q = B(z) and zeta = Re(conj(d1) qp) + i Re(conj(d2) qp), varies along a
    q-plane move eta as A_q eta + B_q conj(eta).  The gauge's derivatives d1,
    d2 vary as p eta + pb conj(eta), with p and pb their Wirtinger derivatives
    (from the gauge's Hessian).  Then eta = B'(z) xi, and conj(B'(z)) varies
    by conj(xi/z^3)."""
    q, qp, d1, d2, gq = _magnetic_base(z, cfg)
    h11, h12, h22 = cfg.magnetic.gauge_hess_at(q)
    dmat = derivative_matrix(z.shape[-1])
    bp = birkhoff_derivative(z)
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
    b = _add_diag(bpb[:, None] * b_q * bpb, np.conj(1.0 / z**3) * gq)
    return a, b


def _electric_hessian(z: np.ndarray, cfg: FieldConfig, w: np.ndarray, f: float):
    """(A, B) with  d ``_grad_E`` = A xi + B conj(xi): through the discrete
    time map t = K w / F, and through the field's second derivatives at the
    nodes.  Names follow ``_electric_base``: N = F E is the quadrature
    mean(e w) and grad_n its gradient n c phi + force.

    A real variation r is kept as the one matrix p with r = p xi + conj(p
    xi): the weights' dw = Re(conj(phi) xi) is diagonal, dF = mean(dw) one
    row, and the time map's dt = (K dw - t dF)/F a full matrix."""
    n = z.shape[-1]
    kmat = integration_matrix(n)
    t, e, edot, ge, beta, beta_k, beta_t, c, grad_n, e_val = _electric_base(z, cfg, w, f)
    e_tt, ge_t, g1, g2 = cfg.electric.hess(t, birkhoff_map(z))
    phi = _df_integrand(z)
    phi_z, phi_zb = _wirtinger_phi(z)
    bp = birkhoff_derivative(z)
    bpb = np.conj(bp)
    grad_e = (grad_n - e_val * phi) / f

    p_w = 0.5 * np.conj(phi)
    p_f = p_w / n
    p_t = (kmat * p_w - np.outer(t, p_f)) / f
    p_e = _add_diag(edot[:, None] * p_t, 0.5 * np.conj(ge) * bp)
    p_edot = _add_diag(e_tt[:, None] * p_t, 0.5 * np.conj(ge_t) * bp)
    p_beta = _add_diag(w[:, None] * p_edot, edot * p_w)
    p_c = p_e / n + (
        kmat.T @ p_beta - np.outer(beta_k, p_f) / f
        - np.mean(t[:, None] * p_beta + beta[:, None] * p_t, axis=0) + beta_t * p_f / f
    ) / (n * f)
    p_e_val = (np.mean(w[:, None] * p_e, axis=0) + e * p_w / n - e_val * p_f) / f

    # the complex dge = ge_t dt + g1 Re(eta) + g2 Im(eta) with eta = B'(z) xi,
    # and d grad_n = n (dc phi + c dphi) + conj(B'(z)) (dw ge + w dge)
    # + w conj(xi/z^3) ge
    wb = (w * bpb)[:, None]
    a = _add_diag(
        n * phi[:, None] * p_c + wb * ge_t[:, None] * p_t,
        n * c * phi_z + bpb * ge * p_w + w * np.abs(bp) ** 2 * 0.5 * (g1 - 1j * g2),
    )
    b = _add_diag(
        n * phi[:, None] * np.conj(p_c) + wb * ge_t[:, None] * np.conj(p_t),
        n * c * phi_zb + bpb * ge * np.conj(p_w) + w * bpb**2 * 0.5 * (g1 + 1j * g2)
        + w * np.conj(1.0 / z**3) * ge,
    )
    # E = N/F:  dE_grad = (d grad_n - dE phi - E dphi - grad_E dF)/F
    a -= np.outer(phi, p_e_val) + np.outer(grad_e, p_f)
    b -= np.outer(phi, np.conj(p_e_val)) + np.outer(grad_e, np.conj(p_f))
    _add_diag(a, -e_val * phi_z)
    _add_diag(b, -e_val * phi_zb)
    return a / f, b / f


def second_variation_matrix(z: np.ndarray, twisted: bool, cfg: FieldConfig) -> np.ndarray:
    """The exact Hessian of the discretized functional at the one loop z
    (shape (n,)): the (2n, 2n) real Jacobian of pack(stacked_gradient) in
    pack coordinates, symmetric to round-off.

    Every term of the gradient varies real-linearly, as A xi + B conj(xi)
    with complex (n, n) matrices A and B.  These are assembled directly from
    the pointwise Wirtinger derivatives (diagonals), the spectral derivative
    matrix D, the double cover's fold (slices), rank-one products for the
    means F and G, and the integration matrix K of the electric time map.
    The real block is then [[Re(A+B), -Im(A-B)], [Im(A+B), Re(A-B)]]."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    w, f = _prepare(z)
    f = f.item()
    zc, zp = _cover(z, twisted)
    mu = cfg.mu
    h1, h2 = _centers(z)
    h_mu = ((1 - mu) * h1 + mu * h2).item()
    phi = _df_integrand(z)
    g_cover = _grad_G_cover(zc, zp, 2.0 if twisted else 1.0)
    g_kin = _fold(g_cover, z, twisted)
    g_cen = _grad_centers(z, mu)
    phi_z, phi_zb = _wirtinger_phi(z)
    cen_z, cen_zb = _wirtinger_centers(z, mu)

    # the gradient  G phi + F g_kin + g_cen / F - h_mu phi / F^2  varies
    # pointwise, plus F times the kinetic variation, plus the means: dF =
    # mean Re(conj(phi) xi) along along_df, and dG - dh_mu / F^2 =
    # mean Re(conj(dm) xi) along phi
    a0 = _kinetic(zc, zp).item() - h_mu / f**2
    dm = g_kin - g_cen / f**2
    along_df = dm + 2.0 * h_mu / f**3 * phi
    a, b = _kinetic_hessian(z, twisted, zc, zp, g_cover)
    a = _add_diag(f * a, a0 * phi_z + cen_z / f)
    b = _add_diag(f * b, a0 * phi_zb + cen_zb / f)
    a += (np.outer(along_df, np.conj(phi)) + np.outer(phi, np.conj(dm))) / (2 * n)
    b += (np.outer(along_df, phi) + np.outer(phi, dm)) / (2 * n)
    if not cfg.magnetic.is_zero:
        a_m, b_m = _magnetic_hessian(z, cfg)
        a -= a_m
        b -= b_m
    if not cfg.electric.is_zero:
        a_e, b_e = _electric_hessian(z, cfg, w, f)
        a -= a_e
        b -= b_e
    p, m = a + b, a - b
    return np.block([[p.real, -m.imag], [p.imag, m.real]])


def pack(g: np.ndarray) -> np.ndarray:
    """Complex samples to the real coordinate vector [Re; Im] (along the last
    axis, so a stack of loops packs row by row)."""
    return np.concatenate([g.real, g.imag], axis=-1)


def unpack(x: np.ndarray) -> np.ndarray:
    n = np.shape(x)[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


def grad_norm(g: np.ndarray) -> float:
    """L2 functional norm sqrt(mean |g_j|^2) of a gradient."""
    return float(np.sqrt(np.mean(np.abs(g) ** 2)))


def delay_residual(loop: DiscreteLoop, cfg: FieldConfig) -> DelayResidual:
    """Pointwise defect of the delay equation z'' = RHS(z, z', nonlocal data).

    Evaluates the right-hand side with spectral derivatives and cumulative
    quadratures and subtracts the spectral z''.
    """
    z = loop.samples
    w, f = _prepare(z)
    f = f.item()
    c_const = eval_components(loop, cfg).C
    zp = derivative(loop)
    zpp = second_derivative(loop)
    phi = _df_integrand(z)
    absz2 = np.abs(z) ** 2

    rhs = c_const * phi * absz2 / f**2
    rhs = rhs + np.conj(z) * zp**2 / absz2
    rhs = rhs + absz2 * _grad_centers(z, cfg.mu) / f**2
    # magnetic delay term, same orientation as the Lorentz force B i qdot
    rhs = rhs + (w / f) * cfg.magnetic.field_at(birkhoff_map(z)) * 1j * zp

    if cfg.electric.is_zero:
        eps1, eps2, eps3 = np.zeros((3, loop.n), dtype=complex)
    else:
        _, e, edot, ge = _electric_fields(z, cfg, w, f)
        eps2 = w * np.conj(birkhoff_derivative(z)) * ge
        eps1 = (_tail_integral(edot * w) / f) * phi
        eps3 = e * phi
        rhs = rhs - (absz2 / f**2) * (eps1 + eps2 + eps3)

    return DelayResidual(
        C=c_const,
        residual=rhs - zpp,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        z_second_scale=float(np.max(np.abs(zpp))),
    )
