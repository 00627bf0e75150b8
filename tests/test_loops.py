import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from szbov import (
    EPS_COLLISION,
    DiscreteLoop,
    LiftError,
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
    preset,
    reconstruct,
    record_from_dict,
    save_loop,
    second_derivative,
    seed_circle,
    seed_ellipse_lift,
    seed_kepler_guess,
    time_map,
    WindingError,
    zhat,
)
from conftest import random_smooth_loop
from szbov import loops as loops_module
from szbov.action import _Nodes
from szbov.geometry import center_distance
from szbov.loops import (
    _DENSE_DERIVATIVE_MAX_N,
    TimeMap,
    _fourier_sum,
    _phases,
    _spectral_derivative,
    _trig_eval,
    derivative_matrix,
    dumps_canonical,
    integration_matrix,
)

TAU64 = np.arange(64) / 64
ARCHIVES = Path(__file__).resolve().parents[1] / "perfbench" / "archives"


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

    def test_winding_is_read_at_the_nodes_once_per_loop(self, monkeypatch):
        # B(z)'s winding at the loop's own nodes, computed on the first read
        # and kept; None where winding_report raises, as on the unit circle,
        # whose nodes hit both centers
        calls = []
        report = loops_module.winding_report

        def counted(*args, **kwargs):
            calls.append(1)
            return report(*args, **kwargs)

        monkeypatch.setattr(loops_module, "winding_report", counted)
        for loop in (seed_kepler_guess(-1, 0.3, 64), seed_circle(2.0, 0.5, 64), seed_circle(0.0, 1.0, 64)):
            try:
                expected = report(birkhoff_map(loop.samples), clearance=EPS_COLLISION)
            except WindingError:
                expected = None
            before = len(calls)
            assert loop.winding == expected
            assert loop.winding == expected
            assert len(calls) == before + 1
        assert expected is None

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
    @pytest.mark.parametrize("n", [16, 48, 100, 1024, 2048])
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

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("n", [16, 64, 1024, 2048])
    def test_fourier_sum_matches_direct_sum_over_all_modes(self, n, real):
        # summed over k >= 0 only: a complex row with c_-k far from conj(c_k)
        # through its two stacked halves, a real row as 2 Re of its k >= 0
        # half; both with a sizeable Nyquist mode and at x outside [0, 1)
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(2, n))
        if not real:
            samples = samples + 1j * rng.normal(size=(2, n))
        c = np.fft.fft(samples) / n
        assert np.min(np.abs(c[:, n // 2])) > 1e-3 * np.max(np.abs(c))
        if not real:
            mirror = np.conj(c[:, -np.arange(n)])  # conj(c_-k) at mode k
            assert np.max(np.abs(c - mirror)) > 0.5 * np.max(np.abs(c))
        x = np.concatenate([[-2.5, -1.0, -0.5, 1.0, 1.5], rng.uniform(-3.0, -1e-3, 100), rng.uniform(1.0, 4.0, 100)])
        # a real row takes the n/2 + 1 coefficients of rfft's order
        rows = c[:, : n // 2 + 1] if real else c
        sums = _fourier_sum(rows, x, real=real)
        assert sums.shape == (2, len(x))
        assert sums.dtype == (float if real else complex)
        for row, coef in zip(sums, c):
            direct = direct_phases(n, x) @ coef
            expected = direct.real if real else direct
            assert np.max(np.abs(row - expected)) <= 1e-13 * np.sum(np.abs(coef))
        np.testing.assert_array_equal(_fourier_sum(rows[1], x, real=real), sums[1])

    @pytest.mark.parametrize(
        "scale, start, count",
        [
            (1, 0, 1),
            (1, -1, 2),
            (1, -3, 7),
            (1, 3, 7),
            (1, -40, 7),
            (1, -8, 16),
            (1, -16, 33),
            (1, -29, 33),
            (1, 5, 33),
            (1, -100, 33),
            # the giant steps at n = 2048, k = 64 a for |a| <= 16
            (64, -16, 33),
        ],
    )
    def test_phases_match_an_exactly_reduced_phase(self, scale, start, count):
        # the phase of mode k = scale (start + j), j < count, as the Fourier
        # sums take it: row k of the table for k >= 0 and the conjugate of
        # row -k below, on x scaled exactly (scale is a power of two); the
        # reference reduces k x to [-1/2, 1/2) in rational arithmetic before
        # its cos and sin, so its own error is a few eps, and the table's
        # error must stay at the level of the rounding of its argument
        # 2 pi k x
        rng = np.random.default_rng(count)
        x = np.concatenate([[-0.5, 0.0, 0.5], rng.uniform(-0.5, 0.5, 40), rng.uniform(-1e-3, 1e-3, 8)])
        rows = max(-start, start + count - 1) + 1
        table = _phases(scale * x, rows)
        assert table.shape == (rows, len(x))
        assert _phases(np.empty(0), rows).shape == (rows, 0)
        np.testing.assert_array_equal(table[0], 1.0)
        eps = np.finfo(float).eps
        half = Fraction(1, 2)
        for mode in range(start, start + count):
            row = table[mode] if mode >= 0 else np.conj(table[-mode])
            k = scale * mode
            turns = np.array([float((Fraction(v) * k + half) % 1 - half) for v in x])
            ref = np.cos(2 * np.pi * turns) + 1j * np.sin(2 * np.pi * turns)
            bound = 8 * eps * (1 + 2 * np.pi * np.abs(k * x))
            assert np.all(np.abs(row - ref) <= bound), k

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

    @pytest.mark.parametrize("kind", ["plain", "twisted", "grazing"])
    @pytest.mark.parametrize("n", [64, 100, 1024])
    def test_node_values_are_the_nodal_antiderivative(self, rng, kind, n):
        # the node values come from the map's own FFT; K, the dense nodal
        # antiderivative, is the oracle, and t sums the same coefficients
        if kind == "grazing":
            loop = DiscreteLoop(2.0 + 0.99 * np.exp(2j * np.pi * np.arange(n) / n))
        else:
            loop = random_smooth_loop(rng, n, twisted=kind == "twisted")
        tm = time_map(loop)
        assert tm.t_of_tau.shape == (n + 1,)
        assert tm.t_of_tau[0] == 0.0 and tm.t_of_tau[n] == 1.0
        expected = integration_matrix(n) @ tm.weights / tm.zhat
        assert np.max(np.abs(tm.t_of_tau[:n] - expected)) <= 1e-14
        assert np.max(np.abs(tm.t(np.arange(n) / n) - tm.t_of_tau[:n])) <= 1e-15

    def test_reconstruct_and_lift_build_no_integration_matrix(self, rng, monkeypatch):
        # the dense K takes 8 MiB at n = 1024: the time map, reconstruct and
        # lift take their node values from an FFT instead
        calls = []
        build = loops_module.integration_matrix

        def counted(n):
            calls.append(n)
            return build(n)

        monkeypatch.setattr(loops_module, "integration_matrix", counted)
        for loop in (random_smooth_loop(rng, 1024, center=3.0 + 0.5j), random_smooth_loop(rng, 1024, twisted=True)):
            back = lift(reconstruct(loop, 1024))
            assert back.twisted == loop.twisted
        assert calls == []

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


    @pytest.mark.parametrize("n, limit", [(64, 2.1), (1024, 1.1)])
    def test_inverse_retires_a_point_after_its_round_off_newton_step(self, rng, monkeypatch, n, limit):
        # Newton's error bound puts the step from the Hermite start at
        # round-off at n = 1024, so no second pass confirms it; at n = 64 the
        # second step is the last
        t = np.arange(1024) / 1024
        for loop in bound_test_loops(rng, n):
            tm = time_map(loop)
            tau, evaluated = inverse_with_evaluations(tm, t, monkeypatch)
            assert sum(map(len, evaluated)) <= limit * len(t)
            assert np.max(np.abs(tm.t(tau) - t)) <= 1e-13
            assert np.all(np.diff(tau) >= 0)

    @pytest.mark.parametrize("n", [64, 100, 1024])
    def test_curvature_bound_bounds_t_second_derivative(self, rng, n):
        # t'' = w'/zhat, w' the spectral derivative of the weight interpolant,
        # sampled 16 times finer than the nodes by zero padding; the Nyquist
        # mode is the cosine, split in half between the modes +-n/2.  Weights
        # 1 + 0.99 cos(2 pi k tau) at the top modes k put the bound at about
        # twice max |t''|.
        fine = 16 * n
        maps = [time_map(loop) for loop in bound_test_loops(rng, n) + [noisy_loop(rng, n)]]
        for k in (n // 2 - 1, n // 2):
            maps.append(TimeMap(1.0 + 0.99 * np.cos(2.0 * np.pi * k * np.arange(n) / n)))
        for tm in maps:
            c = np.fft.rfft(tm.weights) / n
            padded = np.zeros(fine // 2 + 1, dtype=complex)
            padded[: n // 2 + 1] = c
            padded[n // 2] *= 0.5
            k = np.arange(fine // 2 + 1)
            second = fine * np.fft.irfft(2j * np.pi * k * padded, fine) / tm.zhat
            assert tm._curvature_bound >= np.max(np.abs(second))

    @pytest.mark.parametrize("n", [64, 100, 1024])
    def test_points_retired_by_the_bound_are_at_round_off(self, rng, monkeypatch, n):
        # a point the bound retires returns a Newton step that t never
        # evaluated; its residual, evaluated now, is at round-off
        t = np.arange(1024) / 1024
        retired = 0
        for loop in bound_test_loops(rng, n) + [noisy_loop(rng, n)]:
            tm = time_map(loop)
            tau, evaluated = inverse_with_evaluations(tm, t, monkeypatch)
            unseen = ~np.isin(tau, np.concatenate(evaluated))
            retired += np.count_nonzero(unseen)
            assert np.max(np.abs(tm.t(tau[unseen]) - t[unseen]), initial=0.0) <= 4 * np.finfo(float).eps
        assert retired >= 0.5 * len(t)


def bound_test_loops(rng, n):
    """Collision-free plain, twisted and grazing loops."""
    return [
        random_smooth_loop(rng, n, center=3.0 + 0.5j),
        random_smooth_loop(rng, n, center=3.0 + 0.5j),
        random_smooth_loop(rng, n, twisted=True),
        random_smooth_loop(rng, n, twisted=True),
        DiscreteLoop(2.0 + 0.99 * np.exp(2j * np.pi * np.arange(n) / n)),
    ]


def noisy_loop(rng, n):
    """A loop whose weights carry every mode up to the Nyquist one."""
    noise = 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return DiscreteLoop(2.0 + 0.99 * np.exp(2j * np.pi * np.arange(n) / n) + noise)


def inverse_with_evaluations(tm, t, monkeypatch):
    """tm.inverse(t) and the list of the tau arrays at which it evaluated t."""
    evaluated = []
    t_eval = TimeMap.t

    def recorded(self, tau, *args, **kwargs):
        evaluated.append(np.atleast_1d(tau).copy())
        return t_eval(self, tau, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(TimeMap, "t", recorded)
        tau = tm.inverse(t)
    return tau, evaluated


def collision_free_loops(rng, n=64):
    return [
        random_smooth_loop(rng, n, center=3.0 + 0.5j),
        random_smooth_loop(rng, n, center=3.0 + 0.5j),
        random_smooth_loop(rng, n, twisted=True),
        random_smooth_loop(rng, n, twisted=True),
    ]


class TestChainRuleState:
    def test_velocity_matches_the_reconstructed_loop(self, rng):
        # at each node, against the reconstructed loop's spectral derivative
        # interpolated at the node's own time t_j = (K w)_j / F
        for loop in collision_free_loops(rng):
            q = reconstruct(loop, 1024)
            t = _Nodes(loop.samples, loop.twisted, preset("zero")).t
            pos, vel = chain_rule_state(loop)
            reference = _trig_eval(_spectral_derivative(q.samples), t)
            np.testing.assert_allclose(pos, _trig_eval(q.samples, t), rtol=0, atol=1e-12)
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


    def test_lift_refuses_a_sample_on_a_center(self):
        q = 3.0 * np.exp(2j * np.pi * np.arange(64) / 64)
        q[5] = 1.0
        with pytest.raises(LiftError, match="branch point"):
            lift(PhysicalLoop(samples=q))

    def test_lift_refuses_a_tie_between_the_branches(self):
        # q = 0 lifts to +-i, equally far from the real lift 2 + sqrt(3) of
        # the sample before it
        q = np.full(16, 2.0 + 0j)
        q[1] = 0.0
        with pytest.raises(LiftError, match="undersampled"):
            lift(PhysicalLoop(samples=q))

    def test_lift_refuses_a_jump_at_the_close(self):
        # half a circle: the branch tracked to q = -3 ends near -5.8, far
        # from both preimages of the first sample q = 3
        q = 3.0 * np.exp(1j * np.pi * np.arange(16) / 15)
        with pytest.raises(LiftError, match="undersampled"):
            lift(PhysicalLoop(samples=q))


    def test_branch_tracking_matches_the_sample_by_sample_loop(self, rng):
        # reconstructions of seeded and random loops, and random walks, whose
        # large steps take the constant and swap maps as well as the identity
        loops = [seed_circle(3.0, 1.0, 64), seed_ellipse_lift(2.0, 1.0, 64), seed_kepler_guess(1, 0.5, 64)]
        samples = [reconstruct(loop, 1024).samples for loop in loops + collision_free_loops(rng)]
        for scale in (0.3, 1.0):
            samples += [np.cumsum(rng.normal(0, scale, 256) + 1j * rng.normal(0, scale, 256)) for _ in range(10)]
        outcomes = set()
        for q in samples:
            expected = branch_outcome(track_branch_by_loop, q)
            got = branch_outcome(loops_module._track_branch, q)
            if isinstance(expected, str):
                assert got == expected
                outcomes.add(expected)
            else:
                np.testing.assert_array_equal(got[0].view(float), expected[0].view(float))
                assert got[1] == expected[1]
                outcomes.add(expected[1])
        assert outcomes == {False, True, "undersampled lift"}

    def test_branch_tracking_raises_as_the_sample_by_sample_loop(self):
        on_center = 3.0 * np.exp(2j * np.pi * np.arange(64) / 64)
        on_center[5] = 1.0
        tie = np.full(16, 2.0 + 0j)
        tie[1] = 0.0
        jump = 3.0 * np.exp(1j * np.pi * np.arange(16) / 15)
        for q, message in ((on_center, "cannot lift through branch point"), (tie, "undersampled lift"), (jump, "undersampled lift")):
            assert branch_outcome(track_branch_by_loop, q) == message
            assert branch_outcome(loops_module._track_branch, q) == message


def track_branch_by_loop(q):
    """The branch tracked one sample at a time: the oracle for
    ``loops._track_branch``."""
    if np.min(center_distance(q)) <= loops_module.EPS_COLLISION:
        raise LiftError("cannot lift through branch point")
    root = np.sqrt(q * q - 1.0)
    z = np.empty_like(q)
    prev = q[0] + root[0]
    z[0] = prev
    for j in range(1, len(q)):
        plus = q[j] + root[j]
        minus = q[j] - root[j]
        d_plus = abs(plus - prev)
        d_minus = abs(minus - prev)
        if abs(d_plus - d_minus) <= 1e-9 * max(d_plus, d_minus, 1e-30):
            raise LiftError("undersampled lift")
        prev = plus if d_plus < d_minus else minus
        z[j] = prev
    plus = q[0] + root[0]
    minus = q[0] - root[0]
    closed = abs(plus - prev) < abs(minus - prev)
    end = plus if closed else minus
    if abs(end - prev) > 0.5 * abs(z[0] - 1.0 / z[0]) + 1e-6:
        raise LiftError("undersampled lift")
    twisted = not np.isclose(abs(end - z[0]), 0.0, atol=1e-6 * (1 + abs(z[0])))
    return z, twisted


def branch_outcome(track, q):
    """track(q), or the message of the LiftError it raises."""
    try:
        return track(q)
    except LiftError as exc:
        return str(exc)


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
        # canonical text, as every other file the package writes
        assert path.read_text() == dumps_canonical(loop_to_dict(loop)) + "\n"

    @staticmethod
    def general_case(obj):
        """obj with every [re, im] list made a tuple, which dumps_canonical
        writes through its general case, one call per pair."""
        if isinstance(obj, dict):
            return {k: TestSerialization.general_case(v) for k, v in obj.items()}
        if isinstance(obj, list):
            if obj and all(isinstance(v, list) and len(v) == 2 for v in obj):
                return [tuple(v) for v in obj]
            return [TestSerialization.general_case(v) for v in obj]
        return obj

    @pytest.mark.parametrize("path", sorted(ARCHIVES.glob("*.json")), ids=lambda p: p.stem)
    def test_sample_blocks_are_written_as_the_general_case(self, path):
        # the z and q blocks of a record take the pair-list case of
        # dumps_canonical: read back and written again, each archive is its
        # own text, and the general case writes the same bytes.  JSON reads
        # a sample written "1" back as an int, so the record's own blocks,
        # all floats, are written too
        text = path.read_text()
        data = json.loads(text)
        assert dumps_canonical(data) + "\n" == text
        assert dumps_canonical(self.general_case(data)) + "\n" == text
        written = record_from_dict(data).to_dict()
        assert loops_module._is_pair_list(written["z"]["samples"])
        assert loops_module._is_pair_list(written["q"]["samples"])
        assert dumps_canonical(written) == dumps_canonical(self.general_case(written))

    def test_pair_list_case_writes_every_float_as_the_general_case(self, tmp_path):
        # signed zeros, non-finite values and both exponent forms, in a pair
        # list and as tuples; and a saved loop file, read back and rewritten
        pairs = [[-0.0, 0.0], [float("nan"), float("inf")], [-float("inf"), 1e-300], [1.0 / 3.0, -2.5e17]]
        for indent in (0, 2, 6):
            assert dumps_canonical(pairs, indent) == dumps_canonical([tuple(p) for p in pairs], indent)
        assert "[-0.0, 0]," in dumps_canonical(pairs)
        # int, bool or null entries are no float pair: the general case
        assert not loops_module._is_pair_list([[1.0, 2]])
        assert not loops_module._is_pair_list([[1.0, True]])
        assert not loops_module._is_pair_list([[1.0, 2.0, 3.0]])
        assert dumps_canonical([[1.5, 2], [3.5, None]]) == "[\n  [1.5, 2],\n  [3.5, null]\n]"
        path = tmp_path / "loop.json"
        save_loop(DiscreteLoop(samples=np.concatenate([[complex(-0.0, 1.5)], 2.0 + np.exp(2j * np.pi * TAU64[1:])])), path)
        text = path.read_text()
        assert "[-0.0, 1.5]" in text
        data = json.loads(text)
        assert dumps_canonical(data) + "\n" == text
        assert dumps_canonical(self.general_case(data)) + "\n" == text

    def test_file_that_is_not_json_is_named(self, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text('{"n": 16,\n "twisted": false,\n samples}')
        with pytest.raises(LoopError, match=re.escape(f"{path}: invalid JSON near line 3")):
            load_loop(path)

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
