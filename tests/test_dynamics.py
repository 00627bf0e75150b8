import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import szbov

from conftest import random_smooth_loop
from szbov import (
    PhysicalLoop,
    SingularityError,
    SolveOptions,
    Trajectory,
    integrate,
    newtonian_rhs,
    phi_profile,
    preset,
    reconstruct,
    seed_kepler_guess,
    solve,
    verify_generalized,
)

ZERO = preset("zero", mu=0.5)
KEPLER = preset("zero", mu=0.0)


def circular_kepler(radius, m=256):
    """Closed-form circular orbit about the center at -1 when mu = 0."""
    omega = radius ** (-1.5)
    t = np.arange(m) / m
    period = 2 * np.pi / omega
    q = -1.0 + radius * np.exp(1j * omega * t * period)
    return t * period, q, period, omega


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


class TestIntegrate:
    def test_circular_kepler_closed_form(self):
        radius = 0.7
        times, q_exact, period, omega = circular_kepler(radius)
        q0 = q_exact[0]
        v0 = 1j * omega * radius
        traj = integrate(q0, v0, 0.0, period, KEPLER, tol=1e-12, sample_times=times)
        assert traj.terminated == "completed"
        np.testing.assert_allclose(traj.positions, q_exact, atol=1e-8)

    def test_collision_proximity_termination(self):
        # radial free fall onto the center at -1
        traj = integrate(-0.7 + 0j, 0j, 0.0, 10.0, KEPLER, eps_col=1e-3)
        assert traj.terminated == "collision_proximity"
        assert abs(traj.positions[-1] + 1.0) < 2e-3

    def test_backward_integration_returns_increasing_times(self):
        traj = integrate(-1.0 + 0.7j, 0.7 ** (-0.5) + 0j, 1.0, 0.0, KEPLER)
        assert np.all(np.diff(traj.times) > 0)

    def test_rejects_start_at_a_center(self):
        with pytest.raises(SingularityError):
            integrate(1.0 + 0j, 1j, 0.0, 1.0, ZERO)


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


class TestVerifyGeneralized:
    def test_accepts_a_converged_orbit(self):
        opts = SolveOptions(n=64, m=256)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, opts)
        report = verify_generalized(rec, KEPLER, tol=1e-5)
        assert report.ok, str(report.checks)

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
    # scipy.integrate is most of the package's import time, and only
    # integrate() needs it
    env = {**os.environ, "PYTHONPATH": str(Path(szbov.__file__).resolve().parents[1])}
    code = "import sys, szbov; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
