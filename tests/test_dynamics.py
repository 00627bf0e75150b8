import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import szbov
import test_solver

from conftest import random_smooth_loop
from szbov import (
    FieldConfig,
    PhysicalLoop,
    SingularityError,
    SolveOptions,
    Trajectory,
    electric_preset,
    integrate,
    magnetic_preset,
    newtonian_rhs,
    phi_profile,
    preset,
    reconstruct,
    seed_circle,
    seed_kepler_guess,
    solve,
    verify_generalized,
)
from szbov.loops import EPS_COLLISION, derivative_matrix

ZERO = preset("zero", mu=0.5)
KEPLER = preset("zero", mu=0.0)


def circular_kepler(radius, m=256):
    """Closed-form circular orbit about the center at -1 when mu = 0."""
    omega = radius ** (-1.5)
    t = np.arange(m) / m
    period = 2 * np.pi / omega
    q = -1.0 + radius * np.exp(1j * omega * t * period)
    return t * period, q, period, omega


def circular_orbit(radius, b, periods, m=256):
    """Closed-form circle of the given radius about the center at -1 when
    mu = 0, under a constant magnetic field b: gravity and the Lorentz force
    together give the centripetal acceleration, omega^2 = b omega + r^-3."""
    omega = 0.5 * (b + np.sqrt(b**2 + 4.0 / radius**3))
    t = np.arange(periods * m + 1) / m * (2 * np.pi / omega)
    return t, -1.0 + radius * np.exp(1j * omega * t), omega


def _custom_field(mu=0.5):
    # B = 1 + q1/10 from the gauge Ac = i (q1 + q1^2/20); E = sin(2 pi t) |q|^2 / 10
    magnetic = magnetic_preset(
        "custom",
        field=lambda q: 1.0 + 0.1 * q.real,
        gauge=lambda q: 1j * (q.real + 0.05 * q.real**2),
    )
    electric = electric_preset(
        "custom",
        e=lambda t, q: 0.1 * np.sin(2 * np.pi * t) * np.abs(q) ** 2,
        grad=lambda t, q: 0.2 * np.sin(2 * np.pi * t) * q,
        dot=lambda t, q: 0.2 * np.pi * np.cos(2 * np.pi * t) * np.abs(q) ** 2,
    )
    return FieldConfig(mu=mu, magnetic=magnetic, electric=electric)


SCALAR_CASES = {
    "zero": ZERO,
    "constant": preset("constant", mu=0.3, b=0.7),
    "uniform_oscillating": preset("uniform_oscillating", mu=0.5, epsilon=0.05, d=0.6 + 0.8j),
    "rotating_charge": preset("rotating_charge", mu=0.4, mu_s=0.2, r_s=3.0),
    "custom": _custom_field(),
    # and the fields the exact Hessian is checked on
    **{f"jacobian-{name}": cfg for name, cfg in test_solver.TestDenseJacobian.FIELDS},
}


class TestNewtonianRhs:
    def test_pure_gravity_points_at_the_centers(self):
        q = np.array([0.0 + 1.0j])
        v = np.array([0.0 + 0.0j])
        a = newtonian_rhs(0.0, q, v, ZERO)
        # by symmetry the two half-strength pulls combine straight downward
        assert a[0].real == pytest.approx(0.0, abs=1e-15)
        assert a[0].imag < 0

    def test_magnetic_force_rotates_the_velocity(self):
        cfg = preset("constant", mu=0.5, b=2.0)
        q = np.array([5.0 + 0.0j])
        v = np.array([1.0 + 0.0j])
        diff = newtonian_rhs(0.0, q, v, cfg) - newtonian_rhs(0.0, q, v, ZERO)
        np.testing.assert_allclose(diff, 2.0 * 1j * v, rtol=1e-12)

    def test_rejects_positions_at_a_center(self):
        with pytest.raises(SingularityError):
            newtonian_rhs(0.0, np.array([1.0 + 0j]), np.array([0j]), ZERO)

    @pytest.mark.parametrize("name", sorted(SCALAR_CASES))
    def test_scalar_matches_array(self, name):
        cfg = SCALAR_CASES[name]
        points = [(0.0, 0.3 + 0.7j, -0.4 + 0.2j), (0.37, -1.6 - 0.2j, 0.9j), (0.81, 2.5 + 1.1j, 1.3 - 0.6j)]
        for t, q, v in points:
            a = newtonian_rhs(t, q, v, cfg)
            ref = newtonian_rhs(t, np.array([q]), np.array([v]), cfg)[0]
            # a Python complex, so that the stages of integrate() that use it
            # run on Python numbers
            assert type(a) is complex
            assert abs(a - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("q", [1.0 + 0j, -1.0 + 0j])
    def test_rejects_a_scalar_at_a_center(self, q):
        with pytest.raises(SingularityError):
            newtonian_rhs(0.0, q, 0.5j, ZERO)


class TestIntegrate:
    def test_circular_kepler_closed_form(self):
        radius = 0.7
        times, q_exact, period, omega = circular_kepler(radius)
        q0 = q_exact[0]
        v0 = 1j * omega * radius
        traj = integrate(q0, v0, 0.0, period, KEPLER, tol=1e-12, sample_times=times)
        assert traj.terminated == "completed"
        np.testing.assert_allclose(traj.positions, q_exact, atol=1e-8)

    @pytest.mark.parametrize(
        "cfg, b, radius",
        [(KEPLER, 0.0, 0.7), (preset("constant", mu=0.0, b=2.0), 2.0, 0.5)],
        ids=["kepler", "constant_field"],
    )
    def test_circle_over_five_periods(self, cfg, b, radius):
        # b = 2 at r = 0.5 has omega = 4 and exercises the Lorentz term
        times, q_exact, omega = circular_orbit(radius, b, periods=5)
        traj = integrate(q_exact[0], 1j * omega * radius, 0.0, times[-1], cfg, tol=1e-12, sample_times=times)
        assert traj.terminated == "completed"
        assert np.max(np.abs(traj.positions - q_exact)) <= 1e-9

    def test_collision_proximity_termination(self):
        # radial free fall onto the center at -1
        traj = integrate(-0.7 + 0j, 0j, 0.0, 10.0, KEPLER)
        assert traj.terminated == "collision_proximity"
        assert abs(traj.positions[-1] + 1.0) < 2 * EPS_COLLISION

    def test_backward_integration_returns_increasing_times(self):
        traj = integrate(-1.0 + 0.7j, 0.7 ** (-0.5) + 0j, 1.0, 0.0, KEPLER)
        assert np.all(np.diff(traj.times) > 0)

    def test_rejects_start_at_a_center(self):
        with pytest.raises(SingularityError):
            integrate(1.0 + 0j, 1j, 0.0, 1.0, ZERO)

    def test_empty_span_returns_the_initial_state(self):
        for samples in (None, [1.0]):
            traj = integrate(0.3 + 0.5j, 0.1j, 1.0, 1.0, ZERO, sample_times=samples)
            assert traj.terminated == "completed"
            assert list(traj.times) == [1.0]
            assert list(traj.positions) == [0.3 + 0.5j]
            assert list(traj.velocities) == [0.1j]


class TestIntegrateAgainstScipy:
    """The in-house DOP853 against SciPy's solve_ivp(method="DOP853") with the
    same tolerances and maximum step: the same algorithm, so the same
    accepted steps, and the same interpolant up to round-off."""

    CASES = {
        "zero": ZERO,
        "constant": preset("constant", mu=0.3, b=0.7),
        "uniform_oscillating": preset("uniform_oscillating", mu=0.5, epsilon=0.05, d=0.6 + 0.8j),
        "kepler": KEPLER,
    }

    @staticmethod
    def reference(q0, v0, t0, t1, cfg, tol, sample_times):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

        def rhs(t, y):
            a = newtonian_rhs(t, complex(y[0], y[1]), complex(y[2], y[3]), cfg)
            return [y[2], y[3], a.real, a.imag]

        sol = solve_ivp(
            rhs, (t0, t1), [q0.real, q0.imag, v0.real, v0.imag],
            method="DOP853", rtol=tol, atol=tol, dense_output=True, max_step=0.25,
        )
        y = sol.sol(sample_times)
        return len(sol.t) - 1, y[0] + 1j * y[1]

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("t0, t1", [(0.0, 2.5), (2.5, 0.0)], ids=["forward", "backward"])
    def test_same_steps_and_samples(self, name, t0, t1):
        cfg = self.CASES[name]
        q0, v0 = 0.3 + 1.2j, 0.8 - 0.2j
        ts = np.linspace(0.0, 2.5, 101)
        steps, ref = self.reference(q0, v0, t0, t1, cfg, 1e-13, ts)
        assert len(integrate(q0, v0, t0, t1, cfg, tol=1e-13).times) - 1 == steps
        traj = integrate(q0, v0, t0, t1, cfg, tol=1e-13, sample_times=ts)
        assert traj.terminated == "completed"
        assert np.max(np.abs(traj.positions - ref)) <= 1e-12

    def test_collision_end_point_lies_on_the_event_circle(self):
        # radial free fall onto the center at -1: the run ends where the
        # distance to the center crosses EPS_COLLISION, located on the interpolant
        traj = integrate(-0.7 + 0j, 0j, 0.0, 10.0, KEPLER)
        assert traj.terminated == "collision_proximity"
        assert abs(abs(traj.positions[-1] + 1.0) - EPS_COLLISION) <= 1e-9


class TestTrajectoryValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.arange(3.0),
                positions=np.zeros(2, complex),
                velocities=np.zeros(3, complex),
                terminated="completed",
            )

    def test_non_monotone_times_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.array([0.0, 2.0, 1.0]),
                positions=np.zeros(3, complex),
                velocities=np.zeros(3, complex),
                terminated="completed",
            )


class TestPhiProfile:
    def test_default_constant_removes_the_mean(self, rng):
        # with no constant supplied, the assembled one makes the trapezoid
        # mean of the defect vanish identically, for any loop whatsoever
        for _ in range(5):
            loop = random_smooth_loop(rng, 64)
            prof = phi_profile(reconstruct(loop, 128), ZERO, z_loop=loop)
            assert abs(prof.mean_phi) < 1e-10

    def test_flat_on_a_true_circular_orbit(self):
        times, q, period, omega = circular_kepler(1.0, m=256)
        # rescale to the unit time period used by loop quadratures
        prof = phi_profile(PhysicalLoop(samples=q), KEPLER)
        assert prof.sup_phi < 1e-8

    def test_explicit_constant_shifts_the_profile(self, rng):
        loop = random_smooth_loop(rng, 64)
        q = reconstruct(loop, 128)
        base = phi_profile(q, ZERO, C=0.0)
        shifted = phi_profile(q, ZERO, C=1.0)
        np.testing.assert_allclose(shifted.phi - base.phi, 1.0, atol=1e-12)

    def test_builds_no_dense_derivative_matrix(self):
        # the physical loop is differentiated by an FFT pair: at m = 256 the
        # dense D would take 512 KiB, kept in the cache for one call per solve
        times, q, period, omega = circular_kepler(1.0, m=256)
        derivative_matrix.cache_clear()
        phi_profile(PhysicalLoop(samples=q), KEPLER)
        assert derivative_matrix.cache_info().currsize == 0

    def test_mean_is_undefined_when_mask_drops_a_node(self):
        # the unit-circle collision orbit has reconstructed samples on the
        # centers, where the defect is infinite and mask drops the node
        rec = solve(seed_circle(0.0, 1.0, 64), ZERO, SolveOptions(n=64, m=256))
        prof = phi_profile(rec.q, ZERO, C=rec.C, z_loop=rec.z)
        assert not np.all(prof.mask)
        assert np.isnan(prof.mean_phi)
        assert np.isfinite(prof.sup_phi)


class TestVerifyGeneralized:
    def test_accepts_a_converged_orbit(self):
        opts = SolveOptions(n=64, m=256)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, opts)
        report = verify_generalized(rec, KEPLER, tol=1e-5)
        assert report.ok, str(report.checks)

    def test_counts_the_unit_circle_collisions(self):
        # the collision set is q.collision_times: the unit-circle orbit's
        # samples hit both centers, at t = 0 and 1/2, and the energy
        # extension is compared across each of them
        rec = solve(seed_circle(0.0, 1.0, 64), ZERO, SolveOptions(n=64, m=256))
        report = verify_generalized(rec, ZERO)
        assert report.ok, str(report)
        assert rec.q.collision_times == (0.0, 0.5)
        assert report.collision_count == 2
        values = {name: value for name, value, _, _ in report.checks}
        assert values["finite collision set"] == 2.0
        assert values["energy continuity across collisions"] > 0.0

    def test_rejects_an_arbitrary_loop(self, rng):
        opts = SolveOptions(n=64, m=256)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, opts)
        # perturb the record's loop into a non-critical curve
        from szbov import DiscreteLoop, OrbitRecord, eval_components, gradient, grad_norm

        z = DiscreteLoop(rec.z.samples * (1.0 + 0.05j), twisted=rec.z.twisted)
        bad = OrbitRecord(
            z=z,
            q=reconstruct(z, 256),
            breakdown=rec.breakdown,
            C=rec.C,
            grad_norm=grad_norm(gradient(z, KEPLER)),
            delay_sup=rec.delay_sup,
            phi_sup=rec.phi_sup,
            winding=rec.winding,
            twisted=rec.twisted,
            cfg=KEPLER,
        )
        report = verify_generalized(bad, KEPLER, tol=1e-5)
        assert not report.ok


def test_import_leaves_the_integrator_unloaded():
    # importing scipy.integrate takes 0.5-0.7 s and ~50 MB of peak RSS; the
    # package imports no scipy module at all (see the next two tests)
    env = {**os.environ, "PYTHONPATH": str(Path(szbov.__file__).resolve().parents[1])}
    code = (
        "import sys, szbov; "
        "print([m for m in ('scipy.integrate', 'scipy.sparse') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_solve_leaves_scipy_unloaded():
    # the solve path needs only numpy: importing scipy.linalg alone takes
    # ~0.2 s and ~26 MB of peak RSS (2-CPU host, after numpy and szbov),
    # which a solve's set-up would pay
    env = {**os.environ, "PYTHONPATH": str(Path(szbov.__file__).resolve().parents[1])}
    code = (
        "import sys, szbov; "
        "szbov.solve(szbov.seed_kepler_guess(-1, 0.3, 32), szbov.preset('zero', mu=0.5), "
        "szbov.SolveOptions(n=32, m=64)); "
        "print([m for m in ('scipy.linalg', 'scipy.integrate') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_no_scipy_module_loads():
    # the runtime depends on numpy alone: importing, solving, verifying
    # (which re-integrates) and integrating load no scipy module
    env = {**os.environ, "PYTHONPATH": str(Path(szbov.__file__).resolve().parents[1])}
    code = (
        "import sys, szbov; "
        "cfg = szbov.preset('zero', mu=0.0); "
        "rec = szbov.solve(szbov.seed_kepler_guess(-1, 0.3, 32), cfg, szbov.SolveOptions(n=32, m=64)); "
        "szbov.verify_generalized(rec, cfg); "
        "szbov.integrate(-0.7 + 0j, 0j, 0.0, 10.0, cfg); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
