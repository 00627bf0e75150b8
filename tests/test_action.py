import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import random_real_loop, random_smooth_loop
from szbov import (
    DegenerateLoopError,
    DiscreteLoop,
    FieldConfig,
    PhysicalLoop,
    delay_residual,
    eval_action,
    eval_components,
    eval_unregularized,
    component_gradients,
    electric_preset,
    grad_norm,
    gradient,
    magnetic_preset,
    pack,
    preset,
    reconstruct,
    unpack,
)
from szbov.action import _kinetic_hessian, _Nodes, _real_line_hessian, _wirtinger_centers, second_variation_matrix
from szbov.geometry import conformal_weight
from szbov.loops import LoopError, _spectral_derivative, derivative_matrix, integration_matrix

ZERO = preset("zero", mu=0.5)


def circle_loop(radius, n=128, center=0.0):
    tau = np.arange(n) / n
    return DiscreteLoop(samples=center + radius * np.exp(2j * np.pi * tau))


class TestClosedForms:
    def test_unit_circle_components(self):
        # the unit circle passes through both centers, yet every component of
        # the regularized functional stays finite and has a closed form
        b = eval_components(circle_loop(1.0), ZERO)
        assert b.F == pytest.approx(0.5, abs=1e-10)
        assert b.G == pytest.approx(2 * np.pi**2, abs=1e-10)
        assert b.H1 == pytest.approx(1.0, abs=1e-10)
        assert b.H2 == pytest.approx(1.0, abs=1e-10)
        assert b.M == pytest.approx(0.0, abs=1e-12)

    def test_radius_two_circle_components(self):
        b = eval_components(circle_loop(2.0), ZERO)
        assert b.F == pytest.approx(17.0 / 16.0, abs=1e-10)
        assert b.G == pytest.approx(2 * np.pi**2, abs=1e-10)
        assert b.H1 == pytest.approx(1.25, abs=1e-10)
        assert b.H2 == pytest.approx(1.25, abs=1e-10)
        expected_total = (17 / 16) * 2 * np.pi**2 + 1.25 / (17 / 16)
        assert b.total == pytest.approx(expected_total, rel=1e-12)

    def test_constant_loop_total_is_one(self):
        loop = DiscreteLoop(samples=np.full(64, 1j))
        for mu in (0.0, 0.3, 1.0):
            assert eval_action(loop, preset("zero", mu=mu)) == pytest.approx(1.0, rel=1e-12)

    def test_breakdown_identities(self):
        b = eval_components(circle_loop(2.0, center=0.3), ZERO)
        blend = (1 - b.mu) * b.H1 + b.mu * b.H2
        assert b.total == pytest.approx(b.F * b.G + blend / b.F - b.M - b.E_val, rel=1e-14)
        assert b.C == pytest.approx(b.F * b.G - blend / b.F + b.E_val + b.E1, rel=1e-14)


class TestGradient:
    CONFIGS = [
        ("zero", preset("zero", mu=0.3)),
        ("magnetic", preset("constant", mu=0.5, b=2.0)),
        ("oscillating", preset("uniform_oscillating", mu=0.5, epsilon=0.1)),
        ("rotating", preset("rotating_charge", mu=0.5, mu_s=0.01, r_s=3.0, k=1)),
    ]

    @pytest.mark.parametrize("name,cfg", CONFIGS, ids=[c[0] for c in CONFIGS])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_matches_finite_differences(self, rng, name, cfg, twisted):
        n = 64
        loop = random_smooth_loop(rng, n, twisted=twisted)
        v = random_smooth_loop(rng, n, twisted=twisted).samples - (1.9 + 0.4j)
        g = pack(gradient(loop, cfg))
        analytic = float(g @ np.concatenate([v.real, v.imag])) / n
        h = 1e-6
        plus = DiscreteLoop(loop.samples + h * v, twisted=twisted)
        minus = DiscreteLoop(loop.samples - h * v, twisted=twisted)
        fd = (eval_action(plus, cfg) - eval_action(minus, cfg)) / (2 * h)
        assert abs(fd - analytic) <= 1e-7 * max(abs(analytic), 1.0)

    def test_component_gradients_assemble_the_total(self, rng):
        cfg = preset("uniform_oscillating", mu=0.5, epsilon=0.1)
        loop = random_smooth_loop(rng, 64)
        parts = component_gradients(loop, cfg)
        b = eval_components(loop, cfg)
        blend = (1 - b.mu) * parts["H1"][1] + b.mu * parts["H2"][1]
        blend_val = (1 - b.mu) * b.H1 + b.mu * b.H2
        assembled = (
            parts["F"][1] * (b.G - blend_val / b.F**2)
            + b.F * parts["G"][1]
            + blend / b.F
            - parts["M"][1]
            - parts["E"][1]
        )
        np.testing.assert_allclose(assembled, gradient(loop, cfg), rtol=1e-10)
        assert parts["F"][0] == pytest.approx(b.F, rel=1e-14)
        assert parts["E"][0] == pytest.approx(b.E_val, rel=1e-12)

    def test_finite_on_collision_loop(self):
        g = gradient(circle_loop(1.0), ZERO)
        assert np.all(np.isfinite(g))

    def test_degenerate_loop_rejected(self):
        # a loop collapsed onto a branch point has vanishing mean weight
        samples = np.full(64, 1.0 + 1e-9 + 0j)
        with pytest.raises(DegenerateLoopError):
            gradient(DiscreteLoop(samples=samples), ZERO)

    def test_large_loop_forms_no_dense_derivative(self, rng):
        # a twisted n = 1024 loop is differentiated on its 2048-sample cover,
        # whose dense derivative matrix would take 32 MiB: above the dense
        # size, the FFT pair keeps the peak to a few n-vectors
        loop = random_smooth_loop(rng, 1024, twisted=True)
        tracemalloc.start()
        try:
            gradient(loop, ZERO)
            eval_action(loop, ZERO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**21


def counted_custom_config(calls: Counter) -> FieldConfig:
    """Custom magnetic and electric fields whose callables count their calls
    in ``calls``.  A custom gauge has no closed-form derivatives, so its
    Jacobian is a 4-point stencil of the gauge and its Hessian 4 Jacobians;
    the potential's Hessian is 2 calls of dot and 6 of grad."""

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    c = lambda t: np.cos(2 * np.pi * t)
    s = lambda t: np.sin(2 * np.pi * t)
    magnetic = magnetic_preset(
        "custom",
        field=counted("field", lambda q: 1.5 * (1.0 + 0.2 * np.abs(q) ** 2)),
        gauge=counted("gauge", lambda q: 0.75j * q * (1.0 + 0.1 * np.abs(q) ** 2)),
    )
    electric = electric_preset(
        "custom",
        e=counted("e", lambda t, q: 0.2 * (c(t) * np.abs(q) ** 2 / 2 + s(t) * q.real)),
        grad=counted("grad", lambda t, q: 0.2 * (c(t) * q + s(t))),
        dot=counted("dot", lambda t, q: 0.4 * np.pi * (c(t) * q.real - s(t) * np.abs(q) ** 2 / 2)),
    )
    return FieldConfig(mu=0.5, magnetic=magnetic, electric=electric)


class TestFieldEvaluations:
    # the most calls of each field callable per call of each function: a
    # value evaluates no derivative, and no function evaluates the same
    # callable at the same points twice
    BOUNDS = {
        "eval_components": dict(gauge=1, e=1, dot=1, grad=0, field=0),
        "delay_residual": dict(gauge=0, e=1, dot=1, grad=1, field=1),
        "component_gradients": dict(gauge=5, e=1, dot=1, grad=1, field=0),
        "gradient": dict(gauge=5, e=1, dot=1, grad=1, field=0),
        "second_variation_matrix": dict(gauge=21, e=1, dot=3, grad=7, field=0),
    }
    CALLS = {
        "eval_components": eval_components,
        "delay_residual": delay_residual,
        "component_gradients": component_gradients,
        "gradient": gradient,
        "second_variation_matrix": lambda loop, cfg: second_variation_matrix(loop.samples, loop.twisted, cfg),
    }

    @pytest.mark.parametrize("name", list(BOUNDS))
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_each_field_is_evaluated_at_most_once_per_use(self, rng, name, twisted):
        calls = Counter()
        cfg = counted_custom_config(calls)
        loop = random_smooth_loop(rng, 32, twisted=twisted)
        self.CALLS[name](loop, cfg)
        assert calls["e"] == 1
        for key, bound in self.BOUNDS[name].items():
            assert calls[key] <= bound, f"{key} called {calls[key]} times, at most {bound}"


class TestKineticHessian:
    @staticmethod
    def cover_oracle(nodes):
        """The kinetic (A, B) from the (N, N) cover operators A_c and B_c of
        the ``_kinetic_hessian`` docstring, built explicitly and, on a twisted
        loop, folded by slices: 0.5 [I, diag(left)] M [I; diag(right)]."""
        zc, zp, n = nodes.zc, nodes.zp, nodes.n
        dmat = derivative_matrix(len(zc), nodes.period)
        r = 1.0 / np.abs(zc) ** 2
        zp2 = np.abs(zp) ** 2
        u = r**2 * zp * np.conj(zc)
        v = r**2 * zp * zc
        a_c = np.diag(r**2 * zp2) - dmat @ np.diag(r) @ dmat + dmat @ np.diag(u) - np.diag(np.conj(u)) @ dmat
        b_c = np.diag(2.0 * r**3 * zp2 * zc**2) + dmat @ np.diag(v) - np.diag(v) @ dmat
        if not nodes.twisted:
            return a_c, b_c

        def fold(m, left, right):
            top = m[:n, :n] + m[:n, n:] * right
            bottom = m[n:, :n] + m[n:, n:] * right
            return 0.5 * (top + left[:, None] * bottom)

        z = nodes.z
        s = -1.0 / z**2
        b = fold(b_c, np.conj(s), np.conj(s)) + np.diag(nodes.g_cover[n:] / np.conj(z) ** 3)
        return fold(a_c, np.conj(s), s), b

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_folded_blocks_match_the_cover_operators(self, rng, n, twisted):
        nodes = _Nodes(random_smooth_loop(rng, n, twisted=twisted).samples, twisted, ZERO)
        a, b = _kinetic_hessian(nodes)
        a_ref, b_ref = self.cover_oracle(nodes)
        scale = max(np.max(np.abs(a_ref)), np.max(np.abs(b_ref)))
        assert np.max(np.abs(a - a_ref)) <= 1e-14 * scale
        assert np.max(np.abs(b - b_ref)) <= 1e-14 * scale

    def test_hessian_is_assembled_in_little_memory(self, rng):
        # the fold forms no (2n, 2n) complex cover operator, each twice the
        # size of the (2n, 2n) real result, so the peak stays within four
        # results (after a first call, which caches the derivative matrix).
        # The electric term adds n x n complex arrays, each half a result,
        # and multiplies the real K without casting it to complex: 4.8
        # results, against 6.8 with the casts
        z = random_smooth_loop(rng, 64, twisted=True).samples
        oscillating = preset("uniform_oscillating", mu=0.5, epsilon=0.1)
        for cfg, results in ((ZERO, 4), (oscillating, 5)):
            second_variation_matrix(z, True, cfg)
            tracemalloc.start()
            try:
                out = second_variation_matrix(z, True, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.nbytes == 128 * 128 * 8
            assert peak <= results * out.nbytes

    def test_real_line_blocks_are_assembled_in_half_the_memory(self, rng):
        # the two real (n, n) blocks of a real twisted loop stay within half
        # the full assembly's allowance of four (2n, 2n) results, which is 8
        # blocks.  Measured: 6.4 blocks at n=64 (the (n, 2n) L and its
        # scaled copy during the product, and numpy's 64 KiB ufunc buffer
        # for the broadcast scaling, 2 blocks at this n)
        z = random_real_loop(rng, 64, twisted=True).samples
        _real_line_hessian(_Nodes(z, True, ZERO))
        tracemalloc.start()
        try:
            h_rr, h_ii = _real_line_hessian(_Nodes(z, True, ZERO))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h_rr.dtype == h_ii.dtype == np.float64
        assert h_rr.nbytes == h_ii.nbytes == 64 * 64 * 8
        assert peak <= 8 * h_rr.nbytes


class TestRealLineHessian:
    """On a real loop of a reflection-even field the Hessian's two diagonal
    blocks, assembled in real arithmetic, are the complex assembly's."""

    EVEN = [
        ("zero", preset("zero", mu=0.3)),
        ("real_d", preset("uniform_oscillating", mu=0.3, epsilon=0.05, d=-0.6)),
    ]

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    @pytest.mark.parametrize("cfg", [c for _, c in EVEN], ids=[name for name, _ in EVEN])
    def test_blocks_are_the_complex_assemblys(self, rng, cfg, twisted, n):
        for _ in range(3):
            z = random_real_loop(rng, n, twisted).samples
            assert not np.any(z.imag)
            hess = second_variation_matrix(z, twisted, cfg)
            h_rr, h_ii = _real_line_hessian(_Nodes(z, twisted, cfg))
            scale = np.max(np.abs(hess))
            assert np.max(np.abs(h_rr - hess[:n, :n])) <= 1e-14 * scale
            assert np.max(np.abs(h_ii - hess[n:, n:])) <= 1e-14 * scale
            full = np.linalg.eigvalsh(hess)
            merged = np.sort(np.concatenate([np.linalg.eigvalsh(h_rr), np.linalg.eigvalsh(h_ii)]))
            assert np.max(np.abs(merged - full)) <= 1e-12 * np.max(np.abs(full))


class TestSharedModuli:
    """The node object computes |z|, |z -+ 1|^2, |zc|^2 and |zp|^2 once and
    writes each mean as a sum over the count.  Every quantity that reads
    them has the very bits of the expressions written out in full, as they
    were before they shared them: equal arrays, with no tolerance."""

    CONFIGS = [
        ("zero", preset("zero", mu=0.3)),
        ("constant", preset("constant", mu=0.5, b=2.0)),
        ("oscillating", preset("uniform_oscillating", mu=0.5, epsilon=0.1)),
    ]

    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    @pytest.mark.parametrize("cfg", [c for _, c in CONFIGS], ids=[name for name, _ in CONFIGS])
    def test_quantities_are_bit_identical_to_the_full_expressions(self, rng, cfg, twisted):
        mu = cfg.mu
        for n in (32, 64, 128):
            z = random_smooth_loop(rng, n, twisted=twisted).samples
            nodes = _Nodes(z, twisted, cfg)
            zc, zp = nodes.zc, nodes.zp

            def grad_center(s):
                return z * (z - s) * (np.conj(z) + s) / (2.0 * np.abs(z) ** 3)

            w = conformal_weight(z)
            f = float(np.mean(w))
            expected = {
                "absz": np.abs(z),
                "abs2": np.abs(z) ** 2,
                "zc2": np.abs(zc) ** 2,
                "zp2": np.abs(zp) ** 2,
                "w": w,
                "f": f,
                "g": 0.5 * float(np.mean(np.abs(zp) ** 2 / np.abs(zc) ** 2)),
                "g_cover": -_spectral_derivative(zp / np.abs(zc) ** 2, period=nodes.period)
                - zc * np.abs(zp) ** 2 / np.abs(zc) ** 4,
                "h1": 0.5 * float(np.mean(np.abs(z - 1.0) ** 2 / np.abs(z))),
                "h2": 0.5 * float(np.mean(np.abs(z + 1.0) ** 2 / np.abs(z))),
                "grad_centers": (1 - mu) * grad_center(1.0) + mu * grad_center(-1.0),
                "phi": z * (z**2 - 1.0) * (np.conj(z) ** 2 + 1.0) / (2.0 * np.abs(z) ** 4),
            }
            if not cfg.magnetic.is_zero:
                expected["m"] = float(np.mean(np.real(np.conj(nodes.gauge) * nodes.qp)))
            if not cfg.electric.is_zero:
                beta, t = nodes.edot * w, nodes.raw / f
                expected.update(
                    e_val=float(np.mean(nodes.e * w)) / f,
                    e1=float(np.mean(nodes.edot * nodes.raw * w)) / (f * f),
                    beta_t=float(np.mean(beta * t)),
                    tail=(float(np.mean(beta)) - integration_matrix(n) @ beta) / f,
                )
            for name, value in expected.items():
                assert np.array_equal(getattr(nodes, name), value), name
            # the centers' Wirtinger derivatives read the shared |z|
            for got, want in zip(_wirtinger_centers(z, nodes.absz, mu), _wirtinger_centers(z, np.abs(z), mu)):
                assert np.array_equal(got, want)

    def test_node_samples_must_be_finite_and_nonzero(self, rng):
        # the one guard of the node object, for callers that build no loop
        z = random_smooth_loop(rng, 32).samples
        for bad in (np.nan, np.inf, complex(np.nan, 1.0), 0.0):
            samples = z.copy()
            samples[7] = bad
            with pytest.raises(LoopError, match="finite and avoid the origin"):
                _Nodes(samples, False, ZERO)


class TestPacking:
    def test_round_trip(self, rng):
        g = rng.normal(0, 1, 32) + 1j * rng.normal(0, 1, 32)
        np.testing.assert_array_equal(unpack(pack(g)), g)

    def test_grad_norm_is_scaled_euclidean(self, rng):
        g = rng.normal(0, 1, 32) + 1j * rng.normal(0, 1, 32)
        assert grad_norm(g) > 0


class TestPullback:
    def test_matches_unregularized_action_off_collisions(self, rng):
        # the regularized value equals the classical loop action whenever the
        # physical trace stays away from the centers; the loops below keep a
        # clearance of several tenths so both sides resolve spectrally
        n = 512
        tau = np.arange(n) / n
        plain = DiscreteLoop(samples=3.0 + 0.4j + 0.3 * np.exp(2j * np.pi * tau))
        twisted = DiscreteLoop(
            samples=np.exp(
                np.exp(1j * np.pi * tau) + 0.1j * np.exp(-3j * np.pi * tau)
            ),
            twisted=True,
        )
        for loop in (plain, twisted):
            a_z = eval_action(loop, ZERO)
            a_q = eval_unregularized(reconstruct(loop, n), ZERO)
            assert abs(a_q - a_z) <= 1e-10 * abs(a_z)

    def test_unregularized_action_refuses_a_sample_on_a_center(self):
        q = 1.0 + 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        q[16] = 1.0
        with pytest.raises(ValueError, match="singular near collision"):
            eval_unregularized(PhysicalLoop(samples=q), ZERO)


class TestDelayResidual:
    def test_nonzero_for_arbitrary_loop(self, rng):
        res = delay_residual(random_smooth_loop(rng, 64), ZERO)
        assert res.sup_relative > 1e-4

    def test_scale_invariant_fields(self, rng):
        loop = random_smooth_loop(rng, 64)
        res = delay_residual(loop, ZERO)
        assert np.isfinite(res.C)
        assert len(res.residual) == 64
