import numpy as np
import pytest

from szbov import (
    DiscreteLoop,
    LoopError,
    NoConvergenceError,
    SolveError,
    SolveOptions,
    continue_family,
    derivative,
    eval_action,
    grad_norm,
    gradient,
    involution,
    make_seed,
    pack,
    preset,
    record_from_dict,
    save_loop,
    seed_circle,
    seed_ejection,
    seed_kepler_guess,
    solve,
    solve_many,
    thread_limit,
    time_map,
    unpack,
    winding_report,
)
from szbov.solver import _dense_jacobian, _prox_jacobian

KEPLER = preset("zero", mu=0.0)
EULER = preset("zero", mu=0.5)
OPTS = SolveOptions(n=64, m=256)


class TestSeeds:
    def test_circle_physical_trace_winds_around_both_centers(self):
        from szbov import reconstruct

        q = reconstruct(seed_circle(0.0, 2.0, 64), 256)
        rep = winding_report(q.samples)
        assert rep.total == 2

    def test_kepler_guess_is_twisted(self):
        assert seed_kepler_guess(-1, 0.3, 64).twisted

    def test_ejection_seed_is_a_real_twisted_loop(self):
        loop = seed_ejection(-1, 64)
        assert loop.twisted
        np.testing.assert_allclose(loop.samples.imag, 0.0, atol=1e-15)
        # samples stay inside the unit disk on the negative real axis
        assert np.all(loop.samples.real < 0)
        assert np.all(np.abs(loop.samples) < 1.0)

    def test_ejection_seed_converges_to_the_rectilinear_orbit(self):
        rec = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        assert rec.grad_norm < 1e-9
        # the trace is the radial segment of a period-one ejection orbit:
        # it reaches the center and turns at apoapsis 2a beyond it
        a = (4 * np.pi**2) ** (-1 / 3)
        r = np.abs(rec.q.samples + 1.0)
        assert np.max(np.abs(rec.q.samples.imag)) < 1e-6
        assert np.min(r) < 1e-2
        assert np.max(r) == pytest.approx(2 * a, rel=1e-3)

    def test_ejection_requires_valid_side(self):
        with pytest.raises(ValueError):
            seed_ejection(0)

    def test_make_seed_round_trip_through_file(self, tmp_path):
        loop = seed_circle(0.1 + 0.2j, 2.0, 64)
        path = tmp_path / "seed.json"
        save_loop(loop, path)
        again = make_seed({"kind": "file", "path": str(path)})
        np.testing.assert_array_equal(again.samples, loop.samples)

    def test_make_seed_rejects_unknown_keys(self):
        with pytest.raises(LoopError):
            make_seed({"kind": "circle", "radius": 2.0, "bogus": 1})
        with pytest.raises(LoopError):
            make_seed({"kind": "banana"})
        with pytest.raises(LoopError):
            make_seed("circle")


class TestSolve:
    def test_kepler_circular_orbit(self):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        assert rec.grad_norm < 1e-9
        radius = (4 * np.pi**2) ** (-1 / 3)
        dists = np.abs(rec.q.samples + 1.0)
        np.testing.assert_allclose(dists, radius, rtol=1e-5)

    def test_twisted_closure_is_preserved(self):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        assert rec.twisted
        assert rec.z.twisted

    def test_collisional_euler_orbit_from_unit_circle(self):
        rec = solve(seed_circle(0.0, 1.0, 64), EULER, OPTS)
        assert rec.grad_norm < 1e-9
        # the critical loop stays the unit circle: its trace is the segment
        # joining the two centers, a genuine collision orbit
        np.testing.assert_allclose(np.abs(rec.z.samples), 1.0, atol=1e-6)
        assert len(rec.q.collision_times) > 0

    def test_involution_composed_with_time_shift_fixes_critical_value(self):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        mirrored = DiscreteLoop(involution(rec.z.samples), twisted=rec.twisted)
        assert eval_action(mirrored, KEPLER) == pytest.approx(rec.action, rel=1e-10)

    def test_phase_fix_off_still_converges(self):
        opts = SolveOptions(n=64, m=256, phase_fix=False)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, opts)
        assert rec.grad_norm < 1e-9

    def test_no_convergence_raises(self):
        opts = SolveOptions(n=64, m=256, max_iter=2)
        with pytest.raises(NoConvergenceError):
            solve(seed_circle(0.3 + 0.2j, 2.5, 64), EULER, opts)

    def test_record_serialization_round_trip(self):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        again = record_from_dict(rec.to_dict())
        np.testing.assert_allclose(again.z.samples, rec.z.samples, atol=1e-15)
        assert again.twisted == rec.twisted
        assert again.action == pytest.approx(rec.action, rel=1e-12)
        assert again.grad_norm == pytest.approx(rec.grad_norm, rel=1e-6)
        assert again.cfg.mu == rec.cfg.mu


class TestDenseJacobian:
    @staticmethod
    def column_by_column(xc, twisted, cfg, opts, cmat, sq, phase_dir):
        """Reference assembly: one forward product per coordinate direction,
        its gradient block a central difference of two single-loop gradients."""
        n = len(xc) // 2

        def grad_block(x):
            return pack(gradient(DiscreteLoop(unpack(x), twisted=twisted), cfg)) / np.sqrt(n)

        def forward(v):
            h = opts.fd_step * max(1.0, np.linalg.norm(xc)) / np.linalg.norm(v)
            hvp = (grad_block(xc + h * v) - grad_block(xc - h * v)) / (2.0 * h)
            return np.concatenate([hvp, sq * pack(cmat @ unpack(v)), [phase_dir @ v]])

        eye = np.eye(len(xc))
        return np.column_stack([forward(eye[:, i]) for i in range(len(xc))])

    @pytest.mark.parametrize(
        "seed,cfg",
        [(seed_kepler_guess(-1, 0.3, 64), KEPLER), (seed_circle(0.0, 1.0, 64), EULER)],
        ids=["kepler", "unit_circle"],
    )
    def test_matches_column_by_column_assembly(self, seed, cfg):
        n = seed.n
        xc = pack(seed.samples)
        cmat = _prox_jacobian(seed, time_map(seed).inverse(np.arange(n) / n))
        sq = np.sqrt(OPTS.prox0 / n)
        phase_dir = pack(derivative(seed))
        phase_dir /= np.linalg.norm(phase_dir)
        args = (xc, seed.twisted, cfg, OPTS, cmat, sq, phase_dir)
        jmat = _dense_jacobian(*args)
        ref = self.column_by_column(*args)
        assert jmat.shape == (4 * n + 1, 2 * n)
        assert np.max(np.abs(jmat - ref)) <= 1e-8 * np.max(np.abs(ref))


class TestContinuation:
    def test_empty_path_returns_the_start(self):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        assert continue_family(rec, []) == [rec]

    def test_short_mass_ratio_path(self):
        rec = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        path = [preset("zero", mu=m) for m in (0.01, 0.02)]
        fam = continue_family(rec, path, OPTS)
        assert len(fam) == 3
        assert all(r.grad_norm < 1e-9 for r in fam)

    def test_failure_on_first_step_raises(self):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        bad = SolveOptions(n=64, m=256, max_iter=1)
        with pytest.raises(SolveError):
            continue_family(rec, [preset("zero", mu=0.4)], bad)


class TestParallel:
    def test_thread_limit_env(self, monkeypatch):
        monkeypatch.setenv("SZBOV_THREADS", "3")
        assert thread_limit() == 3
        monkeypatch.setenv("SZBOV_THREADS", "junk")
        assert thread_limit() >= 1

    def test_solve_many_preserves_order_and_wraps_errors(self):
        seeds = [seed_kepler_guess(-1, 0.3, 64), seed_circle(0.3 + 0.2j, 2.5, 64)]
        opts = SolveOptions(n=64, m=256, max_iter=30)
        out = solve_many(seeds, KEPLER, opts)
        assert len(out) == 2
        assert out[0].grad_norm < 1e-9
        assert isinstance(out[1], SolveError)
