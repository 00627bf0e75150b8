import numpy as np
import pytest

from szbov import (
    DiscreteLoop,
    LoopError,
    PhysicalLoop,
    birkhoff_map,
    derivative,
    double_cover,
    eval_loop,
    lift,
    load_loop,
    loop_from_dict,
    loop_to_dict,
    reconstruct,
    save_loop,
    second_derivative,
    time_map,
    zhat,
)
from szbov.loops import _trig_eval

TAU64 = np.arange(64) / 64


def direct_phases(n, x):
    """exp(2 pi i k x) for the modes k of np.fft.fftfreq(n, 1/n), one row per
    point, with the Nyquist mode k = -n/2 taken as cos(pi n x)."""
    phase = np.exp(2j * np.pi * np.outer(x, np.fft.fftfreq(n, d=1.0 / n)))
    phase[:, n // 2] = np.cos(np.pi * n * x)
    return phase


class TestDiscreteLoop:
    def test_rejects_odd_or_tiny_grids(self):
        with pytest.raises(LoopError):
            DiscreteLoop(samples=np.ones(15, complex))
        with pytest.raises(LoopError):
            DiscreteLoop(samples=np.ones(8, complex))

    def test_rejects_zero_sample(self):
        z = 2.0 + np.exp(2j * np.pi * TAU64)
        z[3] = 0.0
        with pytest.raises(LoopError):
            DiscreteLoop(samples=z)

    def test_double_cover_of_twisted_loop_appends_inversion(self):
        loop = DiscreteLoop(samples=2.0 + np.exp(1j * np.pi * TAU64), twisted=True)
        cover = double_cover(loop)
        assert len(cover) == 2 * loop.n
        np.testing.assert_allclose(cover[loop.n :], 1.0 / loop.samples, rtol=1e-14)


class TestSpectralCalculus:
    def test_derivative_exact_on_trig_monomial(self):
        z = 3.0 + 0.5 * np.exp(2j * np.pi * 3 * TAU64)
        loop = DiscreteLoop(samples=z)
        expected = 0.5 * 2j * np.pi * 3 * np.exp(2j * np.pi * 3 * TAU64)
        np.testing.assert_allclose(derivative(loop), expected, rtol=1e-12)

    def test_second_derivative_exact_on_trig_monomial(self):
        z = 3.0 + 0.5 * np.exp(2j * np.pi * 2 * TAU64)
        loop = DiscreteLoop(samples=z)
        expected = 0.5 * (2j * np.pi * 2) ** 2 * np.exp(2j * np.pi * 2 * TAU64)
        np.testing.assert_allclose(second_derivative(loop), expected, rtol=1e-11)

    def test_twisted_derivative_uses_the_double_period(self):
        # z(tau) = exp(c e^{i pi tau}) satisfies z(tau+1) = 1/z(tau), so its
        # samples form a genuine twisted loop; the derivative must come from
        # the period-2 double cover, not period-1 aliasing
        c = 0.3
        z = np.exp(c * np.exp(1j * np.pi * TAU64))
        loop = DiscreteLoop(samples=z, twisted=True)
        expected = c * 1j * np.pi * np.exp(1j * np.pi * TAU64) * z
        np.testing.assert_allclose(derivative(loop), expected, rtol=1e-9)

    def test_eval_loop_interpolates_between_nodes(self):
        z = 2.0 + 0.3 * np.exp(2j * np.pi * TAU64)
        loop = DiscreteLoop(samples=z)
        probe = np.array([0.123, 0.777])
        expected = 2.0 + 0.3 * np.exp(2j * np.pi * probe)
        np.testing.assert_allclose(eval_loop(loop, probe), expected, rtol=1e-12)

    @pytest.mark.parametrize("period", [1.0, 2.0])
    @pytest.mark.parametrize("n", [16, 48, 100, 1024])
    def test_trig_eval_matches_direct_sum(self, n, period):
        rng = np.random.default_rng(n)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        c = np.fft.fft(samples) / n
        assert abs(c[n // 2]) > 1e-3 * np.max(np.abs(c))  # Nyquist mode exercised
        x = np.concatenate([[-1.5, 0.0, 0.5, 2.5], rng.uniform(-1.5, 2.5, 200)])
        direct = direct_phases(n, x / period) @ c
        error = np.max(np.abs(_trig_eval(samples, x, period) - direct))
        assert error <= 1e-13 * np.sum(np.abs(c))


class TestTimeMap:
    def test_zhat_of_centered_circle(self):
        # w on the circle |z| = r about 0 averages to (r^2 + r^{-2})/4 - cos
        # term; spot check against direct quadrature
        z = 2.0 * np.exp(2j * np.pi * TAU64)
        loop = DiscreteLoop(samples=z)
        w = np.abs(z * z - 1) ** 2 / (4 * np.abs(z) ** 2)
        assert zhat(loop) == pytest.approx(float(np.mean(w)), rel=1e-12)

    def test_time_map_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(0)
        z = 2.1 + 0.4 * np.exp(2j * np.pi * TAU64) + 0.05 * np.exp(-4j * np.pi * TAU64)
        tm = time_map(DiscreteLoop(samples=z))
        t = tm.t(np.linspace(0, 1, 200))
        assert t[0] == pytest.approx(0.0, abs=1e-12)
        assert t[-1] == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(t) > 0)

    def test_t_and_t_prime_match_direct_sums(self):
        n = 100
        rng = np.random.default_rng(1)
        # noise in the samples gives the weights a sizeable Nyquist mode
        noise = 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        z = 2.0 + 0.99 * np.exp(2j * np.pi * np.arange(n) / n) + noise
        tm = time_map(DiscreteLoop(samples=z))
        c = np.fft.fft(tm.weights) / n
        assert abs(c[n // 2]) > 1e-3 * np.max(np.abs(c))
        x = np.concatenate([[0.0, 0.5], rng.uniform(0.0, 1.0, 200)])
        phase = direct_phases(n, x)
        bound = 1e-13 * np.sum(np.abs(c)) / tm.zhat
        w = np.real(phase @ c)
        expected = np.clip(w, 0.0, None) / tm.zhat
        np.testing.assert_allclose(tm.t_prime(x), expected, rtol=0, atol=bound)
        # t: the antiderivative of the same sum, from 0, over zhat
        k = np.fft.fftfreq(n, d=1.0 / n)
        osc = (k != 0) & (k != -n // 2)  # the mean and Nyquist terms are added below
        coef = np.zeros(n, dtype=complex)
        coef[osc] = c[osc] / (2j * np.pi * k[osc])
        raw = np.real((phase - 1.0) @ coef)
        raw += np.real(c[0]) * x + np.real(c[n // 2]) * np.sin(np.pi * n * x) / (np.pi * n)
        np.testing.assert_allclose(tm.t(x), raw / tm.zhat, rtol=0, atol=bound)

    def test_inverse_round_trip(self):
        z = 2.1 + 0.4 * np.exp(2j * np.pi * TAU64)
        tm = time_map(DiscreteLoop(samples=z))
        t = np.linspace(0.0, 0.99, 57)
        np.testing.assert_allclose(tm.t(tm.inverse(t)), t, atol=1e-10)

    @pytest.mark.parametrize(
        "z",
        [
            # the unit circle runs through both branch points, where the
            # conformal weight and so t' vanish: t is flat (cubic) there
            np.exp(2j * np.pi * np.arange(1024) / 1024),
            # passes within 1e-2 of the branch point +1
            2.0 + 0.99 * np.exp(2j * np.pi * np.arange(1024) / 1024),
            # the same two at a grid size that is not a power of two
            np.exp(2j * np.pi * np.arange(100) / 100),
            2.0 + 0.99 * np.exp(2j * np.pi * np.arange(100) / 100),
        ],
        ids=["collision", "grazing", "collision_n100", "grazing_n100"],
    )
    def test_inverse_at_round_off_and_monotone(self, z):
        tm = time_map(DiscreteLoop(samples=z))
        # the uniform grid, plus queries clustered at the flat value t = 1/2
        # of the collision loop, which Newton alone does not reach
        offsets = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-4])
        t = np.sort(np.concatenate([np.arange(1024) / 1024, 0.5 - offsets, 0.5 + offsets]))
        tau = tm.inverse(t)
        assert np.max(np.abs(tm.t(tau) - t)) <= 1e-13
        assert np.all(np.diff(tau) >= 0)


class TestLiftReconstruct:
    def test_reconstruct_then_lift_round_trip(self):
        z = 2.0 + 0.5 * np.exp(2j * np.pi * np.arange(256) / 256)
        loop = DiscreteLoop(samples=z)
        q = reconstruct(loop, 256)
        lifted = lift(q)
        assert lifted.twisted == loop.twisted
        q2 = reconstruct(lifted, 64)
        q1 = reconstruct(loop, 64)
        np.testing.assert_allclose(q2.samples, q1.samples, atol=1e-8)

    def test_lift_of_odd_winding_loop_is_twisted(self):
        t = np.arange(512) / 512
        q = PhysicalLoop(samples=-1.0 + 0.3 * np.exp(2j * np.pi * t))
        assert lift(q).twisted

    def test_lift_of_even_winding_loop_is_plain(self):
        t = np.arange(512) / 512
        q = PhysicalLoop(samples=3.0 * np.exp(2j * np.pi * t))
        assert not lift(q).twisted

    def test_reconstruct_marks_collision_times(self):
        # the unit circle maps onto the segment [-1, 1], touching both centers
        z = np.exp(2j * np.pi * np.arange(128) / 128)
        q = reconstruct(DiscreteLoop(samples=z), 256, eps_col=1e-3)
        assert len(q.collision_times) > 0


class TestSerialization:
    def test_dict_round_trip(self):
        z = 2.0 + 0.5 * np.exp(1j * np.pi * TAU64)
        loop = DiscreteLoop(samples=z, twisted=True)
        again = loop_from_dict(loop_to_dict(loop))
        np.testing.assert_array_equal(again.samples, loop.samples)
        assert again.twisted

    def test_file_round_trip(self, tmp_path):
        z = 2.0 + 0.5 * np.exp(2j * np.pi * TAU64)
        loop = DiscreteLoop(samples=z)
        path = tmp_path / "loop.json"
        save_loop(loop, path)
        again = load_loop(path)
        np.testing.assert_array_equal(again.samples, loop.samples)

    def test_malformed_dict_rejected(self):
        with pytest.raises(LoopError):
            loop_from_dict({"n": 4, "twisted": False, "samples": [[1, 0]]})
