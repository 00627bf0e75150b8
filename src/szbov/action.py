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

The second variation, the derivative of that gradient along a direction xi,
is linearized by hand term by term (``stacked_second_variation``).  A
pointwise term g(z) varies as  g_z xi + g_zbar conj(xi)  with its Wirtinger
derivatives in closed form; the kinetic, magnetic and electric terms vary
through the spectral derivative, the gauge and the cumulative time map.  So
the solver's Jacobian is exact to round-off and symmetric in ``pack``
coordinates, as the Hessian of the discretized functional.
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
    "stacked_second_variation",
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


def _pairing(u: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """mean_j Re(conj(u_ij) xi_kj) for rows u (m, n) and directions xi (k, n),
    shaped (k, m)."""
    return (xi.real @ u.real.T + xi.imag @ u.imag.T) / xi.shape[-1]


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


def _kinetic_variation(z: np.ndarray, twisted: bool, zc: np.ndarray, zp: np.ndarray, g_cover: np.ndarray):
    """Derivative of ``_grad_G`` along a stack of directions, through the
    cover: a direction xi moves the cover by xi, and for twisted loops its
    second half 1/z by -xi/z^2, whose own variation gives the fold a
    conj(xi)/conj(z)^3 term.  g_cover is ``_grad_G_cover`` at the base."""
    n = z.shape[-1]
    period = 2.0 if twisted else 1.0
    # _grad_G_cover is -D(r zp) - r^2 |zp|^2 zc with r = 1/|zc|^2; a cover
    # variation zeta moves r by -2 r^2 Re(conj(zc) zeta) and |zp|^2 by
    # 2 Re(conj(zp) zeta')
    r = 1.0 / np.abs(zc) ** 2
    zp2 = np.abs(zp) ** 2
    zc_bar, zp_bar = np.conj(zc), np.conj(zp)
    c_s = 2.0 * r**2 * zp
    c_zeta = r**2 * zp2
    c_zp2 = 2.0 * r**2 * zc
    c_s_out = 4.0 * r**3 * zp2 * zc
    inv_z2 = 1.0 / z**2
    if twisted:
        fold_xi = g_cover[n:] / np.conj(z) ** 3

    def vary(xi):
        zeta = np.concatenate([xi, -xi * inv_z2], axis=-1) if twisted else xi
        zetap = _spectral_derivative(zeta, period=period)
        s = np.real(zc_bar * zeta)
        dgz = (
            c_s_out * s
            - _spectral_derivative(r * zetap - c_s * s, period=period)
            - c_zeta * zeta
            - c_zp2 * np.real(zp_bar * zetap)
        )
        dg = _fold(dgz, z, twisted)
        if twisted:
            dg += fold_xi * np.conj(xi)
        return dg

    return vary


def _magnetic_variation(z: np.ndarray, cfg: FieldConfig):
    """Derivative of ``_grad_M`` along a stack of directions, through the
    gauge's first and second derivatives at q = B(z)."""
    q, qp, d1, d2, gq = _magnetic_base(z, cfg)
    h11, h12, h22 = cfg.magnetic.gauge_hess_at(q)
    bp = birkhoff_derivative(z)
    bpp = 1.0 / z**3

    def vary(xi):
        eta = bp * xi
        etap = _spectral_derivative(eta, period=1.0)
        e1, e2 = eta.real, eta.imag
        dd1 = h11 * e1 + h12 * e2
        dd2 = h12 * e1 + h22 * e2
        dzeta = np.real(np.conj(dd1) * qp + np.conj(d1) * etap) + 1j * np.real(
            np.conj(dd2) * qp + np.conj(d2) * etap
        )
        dgq = dzeta - _spectral_derivative(d1 * e1 + d2 * e2, period=1.0)
        return np.conj(bpp * xi) * gq + np.conj(bp) * dgq

    return vary


def _electric_variation(z: np.ndarray, cfg: FieldConfig, w: np.ndarray, f: float):
    """Derivative of ``_grad_E`` along a stack of directions: through the
    discrete time map t = K w / F, and through the field's second
    derivatives at the nodes.  Names follow ``_grad_E``: N = F E is the
    quadrature mean(e w) and grad_n its gradient n c phi + force."""
    n = z.shape[-1]
    kmat = integration_matrix(n)
    t, e, edot, ge, beta, beta_k, beta_t, c, grad_n, e_val = _electric_base(z, cfg, w, f)
    e_tt, ge_t, g1, g2 = cfg.electric.hess(t, birkhoff_map(z))
    phi = _df_integrand(z)
    phi_z, phi_zb = _wirtinger_phi(z)
    bp = birkhoff_derivative(z)
    bpp = 1.0 / z**3
    grad_e = (grad_n - e_val * phi) / f

    def vary(xi):
        dw = np.real(np.conj(phi) * xi)
        df = _mean(dw)
        eta = bp * xi
        dt = (dw @ kmat.T - t * df) / f
        de = edot * dt + np.real(np.conj(ge) * eta)
        dedot = e_tt * dt + np.real(np.conj(ge_t) * eta)
        dge = ge_t * dt + g1 * eta.real + g2 * eta.imag
        dbeta = dedot * w + edot * dw
        dc = de / n + (
            dbeta @ kmat - beta_k * (df / f) - _mean(dbeta * t + beta * dt) + beta_t * (df / f)
        ) / (n * f)
        dphi = phi_z * xi + phi_zb * np.conj(xi)
        dforce = np.conj(bp) * (dw * ge + w * dge) + w * np.conj(bpp * xi) * ge
        dgrad_n = n * (dc * phi + c * dphi) + dforce
        de_val = (_mean(de * w + e * dw) - e_val * df) / f
        return (dgrad_n - de_val * phi - e_val * dphi - grad_e * df) / f

    return vary


# Directions per pass of ``stacked_second_variation``.  Blocks this size
# already amortize the per-pass overhead; a larger stack at once would grow
# the temporaries (and the peak resident set) with the grid for no gain.
_VARIATION_BLOCK = 32


def stacked_second_variation(z: np.ndarray, dz: np.ndarray, twisted: bool, cfg: FieldConfig) -> np.ndarray:
    """Exact directional derivatives of ``stacked_gradient`` at the one loop z
    (shape (n,)) along each direction of the stack dz (shape (k, n)): row i
    is d/ds stacked_gradient(z + s dz_i) at s = 0.

    Every quantity of the base point is computed once; only the terms that
    depend on the direction are evaluated, ``_VARIATION_BLOCK`` directions
    at a time, so the temporaries stay O(block n) however many rows dz has."""
    z = np.asarray(z, dtype=complex)
    dz = np.asarray(dz, dtype=complex)
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
    # pointwise as a_z xi + a_zb conj(xi), plus F times the kinetic
    # variation, plus the means dF = <phi, xi> and dG - dh_mu / F^2
    a0 = _kinetic(zc, zp).item() - h_mu / f**2
    a_z = a0 * phi_z + cen_z / f
    a_zb = a0 * phi_zb + cen_zb / f
    along_df = g_kin - g_cen / f**2 + 2.0 * h_mu / f**3 * phi
    means = np.stack([phi, g_kin - g_cen / f**2])
    kinetic = _kinetic_variation(z, twisted, zc, zp, g_cover)
    fields = []
    if not cfg.magnetic.is_zero:
        fields.append(_magnetic_variation(z, cfg))
    if not cfg.electric.is_zero:
        fields.append(_electric_variation(z, cfg, w, f))

    out = np.empty(dz.shape, dtype=complex)
    for start in range(0, dz.shape[0], _VARIATION_BLOCK):
        xi = dz[start:start + _VARIATION_BLOCK]
        df, dm = np.split(_pairing(means, xi), 2, axis=-1)
        rows = a_z * xi + a_zb * np.conj(xi) + f * kinetic(xi) + df * along_df + dm * phi
        for vary in fields:
            rows -= vary(xi)
        out[start:start + _VARIATION_BLOCK] = rows
    return out


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
