import numpy as np
import pytest

from conftest import random_smooth_loop
from szbov import (
    DegenerateLoopError,
    DiscreteLoop,
    delay_residual,
    eval_action,
    eval_components,
    eval_unregularized,
    component_gradients,
    grad_norm,
    gradient,
    pack,
    preset,
    reconstruct,
    unpack,
)
from szbov.action import stacked_gradient

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

    @pytest.mark.parametrize("name,cfg", CONFIGS, ids=[c[0] for c in CONFIGS])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_stack_matches_single_loops(self, rng, name, cfg, twisted):
        loops = [random_smooth_loop(rng, 64, twisted=twisted) for _ in range(5)]
        stacked = stacked_gradient(np.array([lp.samples for lp in loops]), twisted, cfg)
        for row, loop in zip(stacked, loops):
            g = gradient(loop, cfg)
            assert np.max(np.abs(row - g)) <= 1e-13 * np.max(np.abs(g))

    def test_stack_with_a_degenerate_row_rejected(self, rng):
        stack = np.array([random_smooth_loop(rng, 64).samples, np.full(64, 1.0 + 1e-9 + 0j)])
        with pytest.raises(DegenerateLoopError):
            stacked_gradient(stack, False, ZERO)


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


class TestDelayResidual:
    def test_nonzero_for_arbitrary_loop(self, rng):
        res = delay_residual(random_smooth_loop(rng, 64), ZERO)
        assert res.sup_relative > 1e-4

    def test_scale_invariant_fields(self, rng):
        loop = random_smooth_loop(rng, 64)
        res = delay_residual(loop, ZERO)
        assert np.isfinite(res.C)
        assert len(res.residual) == 64
