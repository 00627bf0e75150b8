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


def _prepare(z: np.ndarray, eps_zhat: float):
    """Conformal weights of samples shaped (..., n) and their means F."""
    w = conformal_weight(z)
    f = _mean(w)
    if np.any(f <= eps_zhat):
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


def eval_components(loop: DiscreteLoop, cfg: FieldConfig, eps_zhat: float = EPS_ZHAT) -> ActionBreakdown:
    """All component quadratures of the regularized functional."""
    z = loop.samples
    w, f = _prepare(z, eps_zhat)
    h1, h2 = _centers(z)

    q = birkhoff_map(z)
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


def eval_action(loop: DiscreteLoop, cfg: FieldConfig, eps_zhat: float = EPS_ZHAT) -> float:
    """Value of the regularized functional."""
    return eval_components(loop, cfg, eps_zhat).total


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


def _grad_G(z: np.ndarray, twisted: bool, zc: np.ndarray, zp: np.ndarray) -> np.ndarray:
    period = 2.0 if twisted else 1.0
    gz = -_spectral_derivative(zp / np.abs(zc) ** 2, period=period) - zc * np.abs(zp) ** 2 / np.abs(zc) ** 4
    if not twisted:
        return gz
    n = z.shape[-1]
    return 0.5 * (gz[..., :n] - gz[..., n:] / np.conj(z) ** 2)


def _grad_H1(z: np.ndarray) -> np.ndarray:
    return z * (z - 1.0) * (np.conj(z) + 1.0) / (2.0 * np.abs(z) ** 3)


def _grad_H2(z: np.ndarray) -> np.ndarray:
    return z * (z + 1.0) * (np.conj(z) - 1.0) / (2.0 * np.abs(z) ** 3)


def _grad_centers(z: np.ndarray, mu: float) -> np.ndarray:
    """Gradient of the mass-weighted two-center term (1-mu) H1 + mu H2."""
    return (1 - mu) * _grad_H1(z) + mu * _grad_H2(z)


def _grad_M(z: np.ndarray, cfg: FieldConfig) -> np.ndarray:
    q = birkhoff_map(z)
    qp = _spectral_derivative(q, period=1.0)
    ac = _gauge_complex(cfg, q)
    d1, d2 = cfg.magnetic.gauge_jac_at(q)
    zeta = np.real(np.conj(d1) * qp) + 1j * np.real(np.conj(d2) * qp)
    gq = zeta - _spectral_derivative(ac, period=1.0)
    return np.conj(birkhoff_derivative(z)) * gq


def _electric_fields(z: np.ndarray, cfg: FieldConfig, w, f):
    """At the discrete times t_j: t, the potential E, its time derivative,
    and the force term w conj(B'(z)) grad E pulled back to the z-plane."""
    q = birkhoff_map(z)
    t = _electric_times(w, f)[1]
    force = w * np.conj(birkhoff_derivative(z)) * cfg.electric.grad(t, q)
    return t, cfg.electric.e(t, q), cfg.electric.dot(t, q), force


def _grad_E(z: np.ndarray, cfg: FieldConfig, w, f) -> tuple[np.ndarray, np.ndarray]:
    """Value and exact gradient of the discretized electric term, chain rule
    through the discrete cumulative time map."""
    n = z.shape[-1]
    t, e, edot, force = _electric_fields(z, cfg, w, f)
    phi = _df_integrand(z)

    # N := F * E;  dN collects a dW channel and a position channel
    beta = edot * w  # multiplies dt_j inside the quadrature, before 1/N weight
    # coefficient vector c with  (dW-channel of dN) = c . dW
    c = e / n + (beta @ integration_matrix(n)) / (n * f) - (_mean(beta * t) / (n * f))
    grad_n = n * c * phi + force
    e_val = _mean(e * w) / f
    return e_val, (grad_n - e_val * phi) / f


def component_gradients(loop: DiscreteLoop, cfg: FieldConfig, eps_zhat: float = EPS_ZHAT) -> dict:
    """Per-component (value, gradient) pairs, for isolating each formula."""
    z = loop.samples
    w, f = _prepare(z, eps_zhat)
    zc, zp = _cover(z, loop.twisted)
    h1, h2 = _centers(z)
    out = {
        "F": (f.item(), _df_integrand(z)),
        "G": (_kinetic(zc, zp).item(), _grad_G(z, loop.twisted, zc, zp)),
        "H1": (h1.item(), _grad_H1(z)),
        "H2": (h2.item(), _grad_H2(z)),
        "M": (eval_components(loop, cfg, eps_zhat).M, _grad_M(z, cfg)),
    }
    if not cfg.electric.is_zero:
        e_val, grad_e = _grad_E(z, cfg, w, f)
        out["E"] = (e_val.item(), grad_e)
    return out


def stacked_gradient(
    z: np.ndarray, twisted: bool, cfg: FieldConfig, eps_zhat: float = EPS_ZHAT
) -> np.ndarray:
    """Exact gradients of the discretized regularized functional for a stack
    of loops: z has shape (..., n), one loop's samples along the last axis,
    and every loop shares the sector ``twisted``.  Raises DegenerateLoopError
    if any loop in the stack is degenerate."""
    w, f = _prepare(z, eps_zhat)
    zc, zp = _cover(z, twisted)
    mu = cfg.mu
    h1, h2 = _centers(z)
    h_mu = (1 - mu) * h1 + mu * h2
    phi = _df_integrand(z)

    grad = _kinetic(zc, zp) * phi + f * _grad_G(z, twisted, zc, zp)
    grad += _grad_centers(z, mu) / f
    grad -= h_mu / f**2 * phi
    grad -= _grad_M(z, cfg)
    if not cfg.electric.is_zero:
        grad -= _grad_E(z, cfg, w, f)[1]
    return grad


def gradient(loop: DiscreteLoop, cfg: FieldConfig, eps_zhat: float = EPS_ZHAT) -> np.ndarray:
    """Exact gradient of the discretized regularized functional."""
    return stacked_gradient(loop.samples, loop.twisted, cfg, eps_zhat)


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


def delay_residual(loop: DiscreteLoop, cfg: FieldConfig, eps_zhat: float = EPS_ZHAT) -> DelayResidual:
    """Pointwise defect of the delay equation z'' = RHS(z, z', nonlocal data).

    Evaluates the right-hand side with spectral derivatives and cumulative
    quadratures and subtracts the spectral z''.
    """
    z = loop.samples
    w, f = _prepare(z, eps_zhat)
    f = f.item()
    c_const = eval_components(loop, cfg, eps_zhat).C
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
        _, e, edot, eps2 = _electric_fields(z, cfg, w, f)
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
