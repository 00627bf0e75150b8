"""Problem data: mass ratio, magnetic field with a gauge primitive, and the
1-periodic time-dependent electric potential.

All evaluators are vectorized over numpy arrays: the magnetic field and gauge
take a complex position array, the electric evaluators take matching time and
position arrays.  The integrator evaluates the field strength and the
electric gradient at one point at a time: ``field_at`` and ``grad`` hand such
a point to the evaluator as Python numbers and return a Python number, and
the ``constant`` and ``uniform_oscillating`` presets compute it on numbers.
Custom evaluators must follow the same convention (numpy's ufuncs take
numbers as they take arrays) and be pure; they are trusted but can be
checked with :func:`validate`.

The exact Hessian of the action (``action.second_variation_matrix``) needs
the second derivatives of the gauge and of the electric potential at the
nodes, which it places on the diagonals of its field terms.  Every preset
has them in closed form.  A custom spec takes central differences of its own
first-derivative evaluators, pointwise, so only that field's terms of the
Hessian carry a truncation error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .loops import _require_int, _require_point, _require_real

__all__ = [
    "FieldConfigError",
    "MagneticSpec",
    "ElectricSpec",
    "FieldConfig",
    "magnetic_preset",
    "electric_preset",
    "preset",
    "config_from_dict",
    "config_to_dict",
    "validate",
    "ValidationReport",
]


class FieldConfigError(ValueError):
    """Invalid field configuration."""


@dataclass(frozen=True)
class MagneticSpec:
    """Magnetic field strength with an explicit gauge primitive.

    field(q) -> real array; gauge(q) -> complex array a1 + i a2 (covector
    components); gauge_jac(q) -> (dAc/dq1, dAc/dq2) complex arrays, or None to
    fall back on central differences of the gauge.  The presets also set
    gauge_hess(q) -> (d2Ac/dq1^2, d2Ac/dq1dq2, d2Ac/dq2^2) complex arrays; a
    custom spec leaves it None and falls back on central differences of
    ``gauge_jac_at``.
    """

    kind: str
    field_fn: Callable = field(repr=False, default=None)
    gauge_fn: Callable = field(repr=False, default=None)
    gauge_jac_fn: Optional[Callable] = field(repr=False, default=None)
    gauge_hess_fn: Optional[Callable] = field(repr=False, default=None)
    params: dict = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def field_at(self, q):
        if isinstance(q, _NUMBER):
            return float(self.field_fn(complex(q)))
        return np.asarray(self.field_fn(np.asarray(q, dtype=complex)), dtype=float)

    def gauge_at(self, q):
        return np.asarray(self.gauge_fn(np.asarray(q, dtype=complex)), dtype=complex)

    def gauge_jac_at(self, q, h: float = 1e-6):
        q = np.asarray(q, dtype=complex)
        if self.gauge_jac_fn is not None:
            d1, d2 = self.gauge_jac_fn(q)
            return np.asarray(d1, dtype=complex), np.asarray(d2, dtype=complex)
        d1 = (self.gauge_at(q + h) - self.gauge_at(q - h)) / (2.0 * h)
        d2 = (self.gauge_at(q + 1j * h) - self.gauge_at(q - 1j * h)) / (2.0 * h)
        return d1, d2

    def gauge_hess_at(self, q, h: float = 1e-4):
        """(d11, d12, d22), the second derivatives of the gauge.  The fallback
        differences ``gauge_jac_at`` at step h, passing h on, so that without
        a gauge_jac either it is a second difference of the gauge at step 2h;
        the mixed derivative is one symmetric average."""
        q = np.asarray(q, dtype=complex)
        if self.gauge_hess_fn is not None:
            return tuple(np.asarray(d, dtype=complex) for d in self.gauge_hess_fn(q))
        p1, p2 = self.gauge_jac_at(q + h, h)
        m1, m2 = self.gauge_jac_at(q - h, h)
        u1, u2 = self.gauge_jac_at(q + 1j * h, h)
        v1, v2 = self.gauge_jac_at(q - 1j * h, h)
        return (p1 - m1) / (2.0 * h), (p2 - m2 + u1 - v1) / (4.0 * h), (u2 - v2) / (2.0 * h)


@dataclass(frozen=True)
class ElectricSpec:
    """Time-periodic electric potential with gradient and time derivative.

    e(t, q) -> real array; grad(t, q) -> complex array gx + i gy;
    dot(t, q) -> real array (partial derivative in t).  All 1-periodic in t.
    The presets also set hess(t, q) -> (d2E/dt2, d grad/dt, d grad/dq1,
    d grad/dq2), a real array and three complex ones; a custom spec leaves it
    None and falls back on central differences of ``grad`` and ``dot``.
    """

    kind: str
    e_fn: Callable = field(repr=False, default=None)
    grad_fn: Callable = field(repr=False, default=None)
    dot_fn: Callable = field(repr=False, default=None)
    hess_fn: Optional[Callable] = field(repr=False, default=None)
    params: dict = field(default_factory=dict)

    def e(self, t, q):
        return np.asarray(self.e_fn(np.asarray(t, dtype=float), np.asarray(q, dtype=complex)), dtype=float)

    def grad(self, t, q):
        if isinstance(q, _NUMBER) and isinstance(t, _NUMBER):
            return complex(self.grad_fn(float(t), complex(q)))
        return np.asarray(self.grad_fn(np.asarray(t, dtype=float), np.asarray(q, dtype=complex)), dtype=complex)

    def dot(self, t, q):
        return np.asarray(self.dot_fn(np.asarray(t, dtype=float), np.asarray(q, dtype=complex)), dtype=float)

    def hess(self, t, q, h: float = 1e-5):
        """Second derivatives (e_tt, grad_t, grad_q1, grad_q2) at (t, q).  The
        fallback takes central differences of ``dot`` in t and of ``grad`` in
        t, q1 and q2, with one symmetric average for the mixed q1-q2 entry."""
        t = np.asarray(t, dtype=float)
        q = np.asarray(q, dtype=complex)
        if self.hess_fn is not None:
            e_tt, g_t, g1, g2 = self.hess_fn(t, q)
            return (np.asarray(e_tt, dtype=float), np.asarray(g_t, dtype=complex),
                    np.asarray(g1, dtype=complex), np.asarray(g2, dtype=complex))
        e_tt = (self.dot(t + h, q) - self.dot(t - h, q)) / (2.0 * h)
        g_t = (self.grad(t + h, q) - self.grad(t - h, q)) / (2.0 * h)
        g1 = (self.grad(t, q + h) - self.grad(t, q - h)) / (2.0 * h)
        g2 = (self.grad(t, q + 1j * h) - self.grad(t, q - 1j * h)) / (2.0 * h)
        mixed = 0.5 * (g1.imag + g2.real)
        return e_tt, g_t, g1.real + 1j * mixed, mixed + 1j * g2.imag

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


@dataclass(frozen=True)
class FieldConfig:
    """Mass parameter plus magnetic and electric specifications.

    mu is the mass of the +1 center; 1-mu sits at -1.  The endpoints 0 and 1
    are allowed as single-center Kepler limits.
    """

    mu: float
    magnetic: MagneticSpec
    electric: ElectricSpec

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise FieldConfigError("mu must lie in [0, 1]")

    @property
    def reflection_even(self) -> bool:
        """Whether the field is even under the reflection q -> conj(q) at
        every time, so that the real loops are an invariant subspace of the
        action: no magnetic field (a field strength is odd under a
        reflection), and an electric field that is zero or
        ``uniform_oscillating`` with a real d.  A custom spec is never taken
        to be even."""
        electric = self.electric
        return self.magnetic.is_zero and (
            electric.is_zero or (electric.kind == "uniform_oscillating" and electric.params["d"].imag == 0)
        )


# A Python number, as the integrator passes one point at a time.
_NUMBER = (complex, float, int)


def _ones(q):
    """1 at each point of q: an array of ones shaped like q, or the number
    1.0 at a Python number, so that a preset keeps a number a number."""
    return 1.0 if isinstance(q, _NUMBER) else np.ones(np.shape(q))


def _zero_gauge_hess(q):
    """The gauge of the zero and the constant field is linear in q."""
    zero = np.zeros(np.shape(q), dtype=complex)
    return zero, zero, zero


def _require(params: dict, name: str, kind: str, default: Optional[float] = None) -> float:
    """A preset's real parameter, read as given; required without a default."""
    value = params.pop(name, default)
    if value is None:
        raise FieldConfigError(f"{kind!r} preset requires parameter {name!r}")
    return _require_real(value, f"{kind} {name}", FieldConfigError)


def _reject_rest(params: dict, kind: str) -> None:
    """A preset takes only its own parameters: what is left is an error."""
    if params:
        raise FieldConfigError(f"unknown {kind!r} parameters: {sorted(params)}")


def magnetic_preset(kind: str, **params) -> MagneticSpec:
    if kind == "zero":
        _reject_rest(params, kind)
        return MagneticSpec(
            kind="zero",
            field_fn=lambda q: np.zeros_like(q, dtype=float),
            gauge_fn=lambda q: np.zeros_like(q, dtype=complex),
            gauge_jac_fn=lambda q: (np.zeros_like(q, dtype=complex), np.zeros_like(q, dtype=complex)),
            gauge_hess_fn=_zero_gauge_hess,
        )
    if kind == "constant":
        b = _require(params, "b", kind)
        _reject_rest(params, kind)
        # symmetric gauge A = (-b q2/2, b q1/2), i.e. Ac = (i b / 2) q
        return MagneticSpec(
            kind="constant",
            field_fn=lambda q: b * _ones(q),
            gauge_fn=lambda q: 0.5j * b * q,
            gauge_jac_fn=lambda q: (
                np.full(np.shape(q), 0.5j * b, dtype=complex),
                np.full(np.shape(q), -0.5 * b, dtype=complex),
            ),
            gauge_hess_fn=_zero_gauge_hess,
            params={"b": b},
        )
    if kind == "custom":
        spec = MagneticSpec(
            kind="custom",
            field_fn=params.pop("field"),
            gauge_fn=params.pop("gauge"),
            gauge_jac_fn=params.pop("gauge_jac", None),
            params=params,
        )
        return spec
    raise FieldConfigError(f"unknown magnetic preset {kind!r}")


def electric_preset(kind: str, **params) -> ElectricSpec:
    if kind == "zero":
        _reject_rest(params, kind)
        return ElectricSpec(
            kind="zero",
            e_fn=lambda t, q: np.zeros(np.broadcast(t, q).shape),
            grad_fn=lambda t, q: np.zeros(np.broadcast(t, q).shape, dtype=complex),
            dot_fn=lambda t, q: np.zeros(np.broadcast(t, q).shape),
        )
    if kind == "uniform_oscillating":
        eps = _require(params, "epsilon", kind)
        d = _require_point(params.pop("d", 1.0), f"{kind} d", FieldConfigError)
        _reject_rest(params, kind)
        # E(t, q) = eps cos(2 pi t) <d, q>.  The gradient puts d first: at a
        # Python number t, d times numpy's float64 is a Python complex, while
        # the other order makes a numpy complex, some 20x slower
        proj = lambda q: np.real(np.conj(d) * q)
        return ElectricSpec(
            kind="uniform_oscillating",
            e_fn=lambda t, q: eps * np.cos(2 * np.pi * t) * proj(q),
            grad_fn=lambda t, q: d * (eps * np.cos(2 * np.pi * t)) * _ones(q),
            dot_fn=lambda t, q: -2 * np.pi * eps * np.sin(2 * np.pi * t) * proj(q),
            hess_fn=lambda t, q: (
                -4 * np.pi**2 * eps * np.cos(2 * np.pi * t) * proj(q),
                -2 * np.pi * eps * np.sin(2 * np.pi * t) * d * np.ones(np.shape(q)),
                np.zeros(np.shape(q), dtype=complex),
                np.zeros(np.shape(q), dtype=complex),
            ),
            params={"epsilon": eps, "d": d},
        )
    if kind == "rotating_charge":
        mu_s = _require(params, "mu_s", kind)
        r_s = _require(params, "r_s", kind)
        # read as given: k = 1.5 would not make the potential 1-periodic
        k = _require_int(params.pop("k", 1), "rotating_charge k", FieldConfigError)
        theta0 = _require(params, "theta0", kind, default=0.0)
        _reject_rest(params, kind)
        if r_s <= 1.0:
            warnings.warn("third center may intersect orbit region", stacklevel=2)
        omega = 2 * np.pi * k  # quantized so the potential is genuinely 1-periodic

        def q_s(t):
            return r_s * np.exp(1j * (omega * np.asarray(t, dtype=float) + theta0))

        def e_fn(t, q):
            return -mu_s / np.abs(q - q_s(t))

        def grad_fn(t, q):
            rel = q - q_s(t)
            return mu_s * rel / np.abs(rel) ** 3

        def dot_fn(t, q):
            rel = q - q_s(t)
            vs = 1j * omega * q_s(t)
            return -mu_s * np.real(np.conj(rel) * vs) / np.abs(rel) ** 3

        def hess_fn(t, q):
            qs = q_s(t)
            rel = q - qs
            vs = 1j * omega * qs
            r3 = np.abs(rel) ** 3
            r5 = np.abs(rel) ** 5
            g = mu_s * rel / r3
            g1 = mu_s * (1.0 / r3 - 3.0 * rel * rel.real / r5)
            g2 = mu_s * (1j / r3 - 3.0 * rel * rel.imag / r5)
            # the charge moves with velocity vs, so d/dt = -vs . grad_q
            g_t = mu_s * (3.0 * rel * np.real(np.conj(rel) * vs) / r5 - vs / r3)
            e_tt = omega**2 * np.real(np.conj(g) * qs) - np.real(np.conj(g_t) * vs)
            return e_tt, g_t, g1, g2

        return ElectricSpec(
            kind="rotating_charge",
            e_fn=e_fn,
            grad_fn=grad_fn,
            dot_fn=dot_fn,
            hess_fn=hess_fn,
            params={"mu_s": mu_s, "r_s": r_s, "k": k, "theta0": theta0},
        )
    if kind == "custom":
        return ElectricSpec(
            kind="custom",
            e_fn=params.pop("e"),
            grad_fn=params.pop("grad"),
            dot_fn=params.pop("dot"),
            params=params,
        )
    raise FieldConfigError(f"unknown electric preset {kind!r}")


def preset(name: str, mu: float = 0.5, **params) -> FieldConfig:
    """Convenience constructor for the built-in field configurations."""
    if name == "zero":
        return FieldConfig(mu=mu, magnetic=magnetic_preset("zero", **params), electric=electric_preset("zero"))
    if name == "constant":
        return FieldConfig(mu=mu, magnetic=magnetic_preset("constant", **params), electric=electric_preset("zero"))
    if name in ("uniform_oscillating", "rotating_charge"):
        return FieldConfig(mu=mu, magnetic=magnetic_preset("zero"), electric=electric_preset(name, **params))
    raise FieldConfigError(f"unknown preset {name!r}")


def config_from_dict(data: dict) -> FieldConfig:
    """Build a FieldConfig from its JSON block; each preset rejects the keys it does not take."""
    if not isinstance(data, dict):
        raise FieldConfigError("fields block must be an object")
    unknown = set(data) - {"mu", "magnetic", "electric"}
    if unknown:
        raise FieldConfigError(f"unknown fields keys: {sorted(unknown)}")
    mu = _require_real(data.get("mu", 0.5), "fields: 'mu'", FieldConfigError)
    blocks = {key: data.get(key, {"kind": "zero"}) for key in ("magnetic", "electric")}
    for key, block in blocks.items():
        if not isinstance(block, dict):
            raise FieldConfigError(f"fields: {key!r} must be an object, not {block!r}")
    mag_block, ele_block = (dict(block) for block in blocks.values())
    mag_kind = mag_block.pop("kind", None)
    ele_kind = ele_block.pop("kind", None)
    # a custom spec is made of functions, which no JSON block holds
    if "custom" in (mag_kind, ele_kind):
        raise FieldConfigError("a custom field spec cannot be read from JSON")
    return FieldConfig(
        mu=mu,
        magnetic=magnetic_preset(mag_kind, **mag_block),
        electric=electric_preset(ele_kind, **ele_block),
    )


def config_to_dict(cfg: FieldConfig) -> dict:
    if cfg.magnetic.kind == "custom" or cfg.electric.kind == "custom":
        raise FieldConfigError("custom field specs are not serializable")
    mag = {"kind": cfg.magnetic.kind, **cfg.magnetic.params}
    ele = {"kind": cfg.electric.kind, **cfg.electric.params}
    if "d" in ele:  # complex, as uniform_oscillating reads it
        ele["d"] = [ele["d"].real, ele["d"].imag]
    return {"mu": cfg.mu, "magnetic": mag, "electric": ele}


@dataclass(frozen=True)
class ValidationReport:
    """Per-check maximum violations of the field-consistency requirements."""

    checks: tuple  # of (name, violation, tolerance)

    @property
    def ok(self) -> bool:
        return all(v <= tol for _, v, tol in self.checks)

    @property
    def failures(self) -> list:
        return [name for name, v, tol in self.checks if v > tol]

    def __str__(self):
        lines = []
        for name, v, tol in self.checks:
            flag = "ok  " if v <= tol else "FAIL"
            lines.append(f"{flag} {name}: max violation {v:.3e} (tol {tol:.1e})")
        return "\n".join(lines)


def validate(cfg: FieldConfig, seed: int = 0, n_points: int = 64) -> ValidationReport:
    """Check gauge/curl, periodicity, and derivative consistency on a seeded
    pseudo-random point cloud."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-3, 3, n_points) + 1j * rng.uniform(-3, 3, n_points)
    t = rng.uniform(0, 1, n_points)
    h = 1e-5
    checks = []

    # curl of the gauge primitive against the field strength
    a_q1p = cfg.magnetic.gauge_at(q + h)
    a_q1m = cfg.magnetic.gauge_at(q - h)
    a_q2p = cfg.magnetic.gauge_at(q + 1j * h)
    a_q2m = cfg.magnetic.gauge_at(q - 1j * h)
    curl = (a_q1p.imag - a_q1m.imag) / (2 * h) - (a_q2p.real - a_q2m.real) / (2 * h)
    b = cfg.magnetic.field_at(q)
    checks.append(("gauge curl mismatch", float(np.max(np.abs(curl - b) / (1.0 + np.abs(b)))), 1e-6))

    # 1-periodicity of the electric potential in time
    per = np.abs(cfg.electric.e(t + 1.0, q) - cfg.electric.e(t, q))
    checks.append(("electric periodicity", float(np.max(per / (1.0 + np.abs(cfg.electric.e(t, q))))), 1e-10))

    # spatial gradient of E against central differences
    gx = (cfg.electric.e(t, q + h) - cfg.electric.e(t, q - h)) / (2 * h)
    gy = (cfg.electric.e(t, q + 1j * h) - cfg.electric.e(t, q - 1j * h)) / (2 * h)
    g = cfg.electric.grad(t, q)
    gerr = np.abs((gx + 1j * gy) - g) / (1.0 + np.abs(g))
    checks.append(("grad_E mismatch", float(np.max(gerr)), 1e-6))

    # time derivative of E against central differences
    dt = (cfg.electric.e(t + h, q) - cfg.electric.e(t - h, q)) / (2 * h)
    de = cfg.electric.dot(t, q)
    derr = np.abs(dt - de) / (1.0 + np.abs(de))
    checks.append(("dot_E mismatch", float(np.max(derr)), 1e-6))

    return ValidationReport(checks=tuple(checks))
