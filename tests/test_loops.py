import tracemalloc

import numpy as np
import pytest

from szbov import (
    DiscreteLoop,
    LoopError,
    PhysicalLoop,
    birkhoff_derivative,
    birkhoff_map,
    chain_rule_state,
    conformal_weight,
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
from conftest import random_smooth_loop
from szbov.loops import (
    _DENSE_DERIVATIVE_MAX_N,
    TimeMap,
    _fourier_sum,
    _spectral_derivative,
    _trig_eval,
    derivative_matrix,
    integration_matrix,
)

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


def fft_derivative(x, period, order=1):
    """The spectral derivative of the samples x along their last axis by the
    FFT formula, with the Nyquist mode zeroed."""
    n = x.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(x) * (2j * np.pi * k / period) ** order)


def assert_shared_operator(mat, n):
    """A cached operator: n x n float64, C-contiguous, and read-only, since
    every caller gets the same array."""
    assert mat.shape == (n, n)
    assert mat.dtype == np.float64
    assert mat.flags.c_contiguous
    assert not mat.flags.writeable


def traced_build(cached, *args):
    """An uncached build of a cached operator, with the memory it keeps and
    its peak, as traced by tracemalloc."""
    tracemalloc.start()
    try:
        out = cached.__wrapped__(*args)
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


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
        # a (2, n) stack: each row summed from the same phase tables
        other = np.fft.fft(rng.normal(size=n) + 1j * rng.normal(size=n)) / n
        assert abs(other[n // 2]) > 1e-3 * np.max(np.abs(other))
        sums = _fourier_sum(np.stack([c, other]), x / period)
        assert sums.shape == (2, len(x))
        for row, coef in zip(sums, [c, other]):
            error = np.max(np.abs(row - direct_phases(n, x / period) @ coef))
            assert error <= 1e-13 * np.sum(np.abs(coef))

    @pytest.mark.parametrize("period", [1.0, 2.0])
    @pytest.mark.parametrize("n", [16, 64])
    def test_derivative_matrix_applies_the_spectral_derivative(self, n, period):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        d = derivative_matrix(n, period)
        assert_shared_operator(d, n)
        assert np.array_equal(d.T, -d)
        expected = fft_derivative(x, period)
        assert np.max(np.abs(x @ d.T - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("period", [1.0, 2.0])
    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_spectral_derivative_on_both_sides_of_the_dense_size(self, n, period, order):
        # at most _DENSE_DERIVATIVE_MAX_N samples take the dense D, more take
        # the FFT pair; both must be the FFT formula's derivative
        assert 64 <= _DENSE_DERIVATIVE_MAX_N < 512
        rng = np.random.default_rng(n)
        x = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        for samples in (x, x[0]):
            expected = fft_derivative(samples, period, order)
            got = _spectral_derivative(samples, period=period, order=order)
            assert got.shape == samples.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_integration_matrix_integrates_the_interpolant(self, n):
        # closed-form antiderivatives from 0 to each node: a constant gives
        # tau, cos(2 pi k tau) gives sin(2 pi k tau) / (2 pi k), sin gives
        # (1 - cos) / (2 pi k), and the Nyquist cosine gives a sine that
        # vanishes at every node
        kmat = integration_matrix(n)
        assert_shared_operator(kmat, n)
        tau = np.arange(n) / n
        k = np.arange(1, n // 2)
        arg = 2 * np.pi * np.outer(tau, k)
        atol = 1e-16 * n  # round-off of a sum of n terms
        np.testing.assert_allclose(kmat @ np.ones(n), tau, rtol=0, atol=atol)
        np.testing.assert_allclose(kmat @ np.cos(arg), np.sin(arg) / (2 * np.pi * k), rtol=0, atol=atol)
        np.testing.assert_allclose(kmat @ np.sin(arg), (1 - np.cos(arg)) / (2 * np.pi * k), rtol=0, atol=atol)
        np.testing.assert_allclose(kmat @ np.cos(np.pi * n * tau), 0.0, rtol=0, atol=atol)

    def test_operators_are_built_in_quadratic_memory(self):
        # built from one column, not from a transform of the identity: the
        # peak stays near the result, and only the result is kept (uncached
        # calls, so the shared arrays stay as they are)
        result = 1024 * 1024 * 8
        kmat, kept, peak = traced_build(integration_matrix, 1024)
        assert kmat.nbytes == result
        assert peak <= 2.5 * result
        assert kept <= 1.1 * result
        _, _, peak = traced_build(derivative_matrix, 256, 2.0)
        assert peak <= 1.5 * 2**20


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
        t, slope = tm.t(x, with_slope=True)
        np.testing.assert_allclose(slope, expected, rtol=0, atol=bound)
        # t: the antiderivative of the same sum, from 0, over zhat
        k = np.fft.fftfreq(n, d=1.0 / n)
        osc = (k != 0) & (k != -n // 2)  # the mean and Nyquist terms are added below
        coef = np.zeros(n, dtype=complex)
        coef[osc] = c[osc] / (2j * np.pi * k[osc])
        raw = np.real((phase - 1.0) @ coef)
        raw += np.real(c[0]) * x + np.real(c[n // 2]) * np.sin(np.pi * n * x) / (np.pi * n)
        np.testing.assert_allclose(t, raw / tm.zhat, rtol=0, atol=bound)
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

    def test_inverse_takes_about_two_passes_per_point(self, rng, monkeypatch):
        # the cubic Hermite start leaves most points one Newton step from
        # round-off, and each step is one pass of t with its slope
        n = 1024
        circle = np.exp(2j * np.pi * np.arange(n) / n)
        loops = [
            DiscreteLoop(2.1 + 0.4 * circle),
            DiscreteLoop(2.0 + 0.99 * circle),
            DiscreteLoop(circle),
            random_smooth_loop(rng, n, center=3.0 + 0.5j),
            random_smooth_loop(rng, n, center=3.0 + 0.5j),
            random_smooth_loop(rng, n, twisted=True),
            random_smooth_loop(rng, n, twisted=True),
        ]
        points = []
        t_eval = TimeMap.t

        def counted(self, tau, *args, **kwargs):
            points.append(np.size(tau))
            return t_eval(self, tau, *args, **kwargs)

        t = np.arange(1024) / 1024
        for loop in loops:
            tm = time_map(loop)
            points.clear()
            with monkeypatch.context() as patch:
                patch.setattr(TimeMap, "t", counted)
                tau = tm.inverse(t)
            assert sum(points) <= 2.1 * len(t)
            assert np.max(np.abs(tm.t(tau) - t)) <= 1e-13
            assert np.all(np.diff(tau) >= 0)


def collision_free_loops(rng, n=64):
    return [
        random_smooth_loop(rng, n, center=3.0 + 0.5j),
        random_smooth_loop(rng, n, center=3.0 + 0.5j),
        random_smooth_loop(rng, n, twisted=True),
        random_smooth_loop(rng, n, twisted=True),
    ]


class TestChainRuleState:
    def test_velocity_matches_the_reconstructed_loop(self, rng):
        for loop in collision_free_loops(rng):
            q = reconstruct(loop, 1024)
            tm = time_map(loop)
            pos, vel = chain_rule_state(loop, tm.inverse(q.times))
            reference = _spectral_derivative(q.samples)
            np.testing.assert_array_equal(pos, q.samples)
            assert np.max(np.abs(vel - reference)) < 1e-8 * np.max(np.abs(reference))

    def test_node_values_are_the_phi_profile_formula(self, rng):
        for loop in collision_free_loops(rng):
            z = loop.samples
            expected = birkhoff_derivative(z) * (zhat(loop) / conformal_weight(z)) * derivative(loop)
            pos, vel = chain_rule_state(loop)
            np.testing.assert_array_equal(vel, expected)
            np.testing.assert_array_equal(pos, birkhoff_map(z))

    def test_velocity_is_undefined_at_a_collision(self):
        loop = DiscreteLoop(np.exp(2j * np.pi * TAU64))
        vel = chain_rule_state(loop)[1]
        assert np.isnan(vel[0]) and np.isnan(vel[32])
        assert np.all(np.isfinite(np.delete(vel, [0, 32])))


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
        q = reconstruct(DiscreteLoop(samples=z), 256)
        assert q.collision_times == (0.0, 0.5)
        # derived from the samples alone, by the one collision rule
        assert PhysicalLoop(samples=q.samples).collision_times == q.collision_times


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
        samples = [[2.0 + np.cos(x), np.sin(x)] for x in 2 * np.pi * np.arange(16) / 16]
        cases = [
            {"n": 4, "twisted": False, "samples": [[1, 0]]},
            # a string or a number is not read as a flag: bool("false") is True
            {"n": 16, "twisted": "false", "samples": samples},
            {"n": 16, "twisted": 0, "samples": samples},
            # nor is a fractional or boolean n truncated to the sample count
            {"n": 16.7, "twisted": False, "samples": samples},
            {"n": 16.0, "twisted": False, "samples": samples},
        ]
        assert loop_from_dict({"n": 16, "twisted": False, "samples": samples}).n == 16
        for data in cases:
            with pytest.raises(LoopError):
                loop_from_dict(data)
