import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_smooth_loop
from szbov import (
    DegenerateLoopError,
    DiscreteLoop,
    FieldConfig,
    LoopError,
    NoConvergenceError,
    SolveError,
    SolveOptions,
    continue_family,
    electric_preset,
    eval_action,
    grad_norm,
    gradient,
    involution,
    magnetic_preset,
    make_seed,
    pack,
    preset,
    reconstruct,
    record_from_dict,
    save_loop,
    seed_circle,
    seed_ejection,
    seed_kepler_guess,
    solve,
    unpack,
    winding_report,
)
import szbov.solver
from szbov.cli import dumps_canonical
from szbov.loops import TimeMap
from szbov.action import _Nodes, second_variation_matrix
from szbov.selection import _NULL_REL, anchor_measure

KEPLER = preset("zero", mu=0.0)
EULER = preset("zero", mu=0.5)
OPTS = SolveOptions(n=64, m=256)


class TestSeeds:
    def test_circle_physical_trace_winds_around_both_centers(self):
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

    @pytest.mark.parametrize("a, b", [(2.0, 1.5), (0.5, 0.3)])
    def test_ellipse_lift_reconstructs_the_ellipse(self, a, b):
        loop = make_seed({"kind": "ellipse_lift", "a": a, "b": b}, n=64)
        assert not loop.twisted
        t = np.arange(64) / 64
        ellipse = a * np.cos(2 * np.pi * t) + 1j * b * np.sin(2 * np.pi * t)
        assert np.max(np.abs(reconstruct(loop, 64).samples - ellipse)) <= 1e-13

    def test_make_seed_round_trip_through_file(self, tmp_path):
        loop = seed_circle(0.1 + 0.2j, 2.0, 64)
        path = tmp_path / "seed.json"
        save_loop(loop, path)
        again = make_seed({"kind": "file", "path": str(path)})
        np.testing.assert_array_equal(again.samples, loop.samples)

    @pytest.mark.parametrize("kind", ["kepler_guess", "ejection"])
    @pytest.mark.parametrize("side", [-0.5, True, "-1"])
    def test_make_seed_reads_side_as_given(self, kind, side):
        # not truncated: int(-0.5) would seed about the wrong center
        with pytest.raises(LoopError, match="'side' must be an integer"):
            make_seed({"kind": kind, "side": side, "radius": 0.3}, n=64)

    @pytest.mark.parametrize("make", [
        lambda side: seed_kepler_guess(side, 0.3, 64),
        lambda side: seed_ejection(side, 64),
    ], ids=["kepler_guess", "ejection"])
    def test_library_seeds_reject_a_bool_side(self, make):
        # True == 1, so a test of membership in (-1, 1) would seed side +1
        with pytest.raises(ValueError, match="side must be -1 or \\+1"):
            make(True)

    @pytest.mark.parametrize("spec", [
        {"kind": "circle", "radius": True},
        {"kind": "circle", "center": [True, 0.0], "radius": 2.0},
        {"kind": "circle"},
        {"kind": "ellipse_lift", "a": 2.0, "b": True},
        {"kind": "kepler_guess", "side": -1, "radius": True},
    ], ids=["radius", "center", "no_radius", "ellipse_b", "kepler_radius"])
    def test_make_seed_reads_numbers_as_given(self, spec):
        # not cast: true would seed a circle of radius 1
        with pytest.raises(LoopError, match="must be a number"):
            make_seed(spec, n=64)

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

    def test_no_convergence_raises(self):
        opts = SolveOptions(n=64, m=256, max_iter=2)
        with pytest.raises(NoConvergenceError):
            solve(seed_circle(0.3 + 0.2j, 2.5, 64), EULER, opts)

    def test_no_convergence_carries_the_best_iterate(self):
        # the residual is the scaled gradient, and a step is accepted only
        # where it lowers its norm: the last iterate is the best one
        seed = seed_circle(0.3 + 0.2j, 2.5, 64)
        with pytest.raises(NoConvergenceError) as err:
            solve(seed, EULER, SolveOptions(n=64, m=256, max_iter=3))
        best = err.value.best_loop
        assert err.value.best_grad_norm == pytest.approx(grad_norm(gradient(best, EULER)), rel=1e-12)
        assert err.value.best_grad_norm < grad_norm(gradient(seed, EULER))

    def test_inadmissible_seed_is_refused(self):
        # no residual at a seed collapsed onto a branch point, where F
        # vanishes, nor at one with a sample at the pole of the weight
        near_pole = seed_circle(3.0, 1.0, 64).samples.copy()
        near_pole[5] = 1e-8
        for samples in (np.full(64, 1.0 + 1e-9 + 0j), near_pole):
            with pytest.raises(DegenerateLoopError):
                solve(DiscreteLoop(samples), EULER, OPTS)

    def test_member_selection_shares_the_iteration_cap(self):
        # kepler converges in 2 iterations, then moves along its family for
        # 9 more; with a cap of 4 the error carries the unmoved critical point
        with pytest.raises(NoConvergenceError, match="selection") as err:
            solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, SolveOptions(n=64, m=256, max_iter=4))
        assert err.value.best_grad_norm < 1e-9

    @pytest.mark.parametrize("g_tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, g_tol):
        # solve compares the gradient norm with g_tol: a NaN one would return
        # an unconverged iterate as a converged record, an infinite one the seed
        with pytest.raises(ValueError, match="g_tol must be positive"):
            SolveOptions(n=64, m=256, g_tol=g_tol)

    @pytest.mark.parametrize("name", ["n", "m", "max_iter", "g_tol"])
    def test_a_bool_option_is_rejected(self, name):
        # bool is an Integral, and True passes 0 < g_tol < inf: without the
        # check g_tol=True solves at tolerance 1 and max_iter=True runs once
        with pytest.raises(ValueError, match=f"{name} must be"):
            SolveOptions(**{"n": 64, "m": 256, name: True})

    def test_seed_grid_must_match_the_options(self):
        with pytest.raises(ValueError, match="n=64.*n=128"):
            solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, SolveOptions(n=128, m=256))

    def test_time_map_is_inverted_outside_the_iteration_only(self, monkeypatch):
        # the record's reconstruction only: the seed's winding is read at its
        # own nodes, no residual inverts the time map, and a solve that moves
        # no member along its family reconstructs no seed for the anchor
        # measure
        seed = seed_kepler_guess(-1, 0.3, 64)
        calls = []
        inverse = TimeMap.inverse

        def counted(self, t):
            calls.append(len(np.atleast_1d(t)))
            return inverse(self, t)

        monkeypatch.setattr(TimeMap, "inverse", counted)
        rec = solve(seed, EULER, OPTS)
        assert rec.iterations > 10
        assert len(calls) <= 1

    def test_iterations_count_jacobian_assemblies(self, monkeypatch):
        # not the passes of the loop, which end with one more convergence
        # test; so a seed already at tolerance takes no iteration
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return second_variation_matrix(*args, **kwargs)

        monkeypatch.setattr(szbov.solver, "second_variation_matrix", counted)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), EULER, OPTS)
        assert rec.iterations == len(calls) > 10
        again = solve(rec.z, EULER, OPTS)
        assert again.iterations == 0 and len(calls) == rec.iterations
        np.testing.assert_array_equal(again.z.samples, rec.z.samples)

    @pytest.mark.parametrize("cfg", [KEPLER, EULER], ids=["kepler", "euler"])
    def test_record_carries_the_spectrum(self, cfg):
        # both orbits are local minima of the discrete action; kepler's
        # critical points form a family of three dimensions (the time shift
        # and the equal-period ellipses), and an autonomous field's orbit
        # always has the time shift
        rec = solve(seed_kepler_guess(-1, 0.3, 64), cfg, OPTS)
        assert rec.morse_index == 0
        if cfg is KEPLER:
            assert rec.nullity == 3
        assert rec.nullity >= 1
        assert _NULL_REL <= rec.gap <= 1.0

    def test_selected_member_minimizes_the_anchor_measure_on_its_family(self):
        seed = seed_kepler_guess(-1, 0.3, 64)
        rec = solve(seed, KEPLER, OPTS)
        measure = anchor_measure(seed, KEPLER)
        x = pack(rec.z.samples)
        _, grad, _ = measure(rec.z.samples)
        # the gradient is exact: central differences approach it as h^2
        d = np.cos(np.arange(len(x)))
        err_h, err_h2 = (
            abs((measure(unpack(x + h * d))[0] - measure(unpack(x - h * d))[0]) / (2 * h) - grad @ d)
            for h in (1e-4, 1e-5)
        )
        assert err_h2 <= 1e-6 * abs(grad @ d)
        assert err_h >= 30.0 * err_h2
        # and orthogonal to the Hessian's null space, to round-off
        evals, vecs = np.linalg.eigh(second_variation_matrix(rec.z.samples, rec.twisted, KEPLER))
        null = vecs[:, np.abs(evals) < _NULL_REL * np.max(np.abs(evals))]
        assert null.shape[1] == 3
        assert np.linalg.norm(null.T @ grad) <= 1e-9 * np.linalg.norm(grad)

    def test_spectrum_and_kepler_member_do_not_depend_on_blas_threads(self):
        code = (
            "import json, numpy as np; "
            "from szbov import SolveOptions, preset, seed_kepler_guess, solve; "
            "rec = solve(seed_kepler_guess(-1, 0.3, 64), preset('zero', mu=0.0), SolveOptions(n=64, m=256)); "
            "r = (4 * np.pi**2) ** (-1 / 3); "
            "print(json.dumps([rec.morse_index, rec.nullity, "
            "float(np.max(np.abs(np.abs(rec.q.samples + 1.0) - r)) / r)]))"
        )
        found = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": str(Path(szbov.__file__).resolve().parents[1]),
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
            }
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            found.append(json.loads(out.stdout))
        assert found[0][:2] == found[1][:2] == [0, 3]
        assert max(radius_error for _, _, radius_error in found) < 1e-6

    def test_anchor_vanishes_at_a_collisional_seed(self):
        # the ejection seed's physical loop reaches a center, where its
        # interpolant in t rings; the offset still zeroes the anchor measure
        # there, and its gradient with it
        seed = seed_ejection(-1, 64)
        measure = anchor_measure(seed, KEPLER)
        value, grad, _ = measure(seed.samples)
        assert value == 0.0 and np.all(grad == 0.0)
        moved = seed.samples + 1e-3 * np.exp(1j * np.arange(seed.n))
        assert measure(moved)[0] > 1e-9

    def test_record_serialization_round_trip(self):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        again = record_from_dict(rec.to_dict())
        np.testing.assert_allclose(again.z.samples, rec.z.samples, atol=1e-15)
        assert again.twisted == rec.twisted
        assert again.action == pytest.approx(rec.action, rel=1e-12)
        assert again.grad_norm == pytest.approx(rec.grad_norm, rel=1e-6)
        assert again.cfg.mu == rec.cfg.mu
        assert (again.morse_index, again.nullity, again.gap) == (rec.morse_index, rec.nullity, rec.gap)
        # records archived before the spectrum was stored still load
        data = rec.to_dict()
        for key in ("morse_index", "nullity", "gap"):
            del data["diagnostics"][key]
        old = record_from_dict(data)
        assert (old.morse_index, old.nullity, old.gap) == (None, None, None)
        # a record's sector is a JSON boolean; the string "false" is not cast
        data = rec.to_dict()
        data["twisted"] = "false"
        with pytest.raises(LoopError, match="'twisted' must be true or false"):
            record_from_dict(data)
        # counts are JSON integers; 3.7 is not truncated to 3, nor true taken as 1
        assert rec.to_dict()["diagnostics"]["winding"] is not None
        for key, value in [
            ("iterations", 3.7), ("iterations", True), ("nullity", 1.5), ("morse_index", True),
            ("minus", 1.5), ("plus", True),
        ]:
            data = rec.to_dict()
            target = data["diagnostics"]["winding"] if key in ("minus", "plus") else data["diagnostics"]
            target[key] = value
            with pytest.raises(LoopError, match=f"'{key}' must be an integer"):
                record_from_dict(data)


ARCHIVES = Path(__file__).resolve().parents[1] / "perfbench" / "archives"


@pytest.mark.parametrize("path", sorted(ARCHIVES.glob("*.json")), ids=lambda p: p.stem)
def test_archived_q_block_survives_a_round_trip(path):
    # the record derives collision_times from the samples and writes them
    # back: the archive's q block, samples and collision times, is unchanged
    text = path.read_text()
    rec = record_from_dict(json.loads(text))
    block = f'"q": {dumps_canonical(rec.to_dict()["q"], 2)}'
    assert block in text
    assert '"collision_times"' in block


def _custom_magnetic(b=1.5):
    """A non-uniform field b (1 + 0.2|q|^2) given by its gauge alone, so the
    gauge's first and second derivatives fall back to central differences."""
    return magnetic_preset(
        "custom",
        field=lambda q: b * (1.0 + 0.2 * np.abs(q) ** 2),
        gauge=lambda q: 0.5j * b * q * (1.0 + 0.1 * np.abs(q) ** 2),
    )


def _custom_electric(eps=0.2):
    """E = eps (cos(2 pi t) |q|^2 / 2 + sin(2 pi t) q1), without second
    derivatives: they fall back to central differences of grad and dot."""
    c = lambda t: np.cos(2 * np.pi * t)
    s = lambda t: np.sin(2 * np.pi * t)
    return electric_preset(
        "custom",
        e=lambda t, q: eps * (c(t) * np.abs(q) ** 2 / 2 + s(t) * q.real),
        grad=lambda t, q: eps * (c(t) * q + s(t)),
        dot=lambda t, q: 2 * np.pi * eps * (c(t) * q.real - s(t) * np.abs(q) ** 2 / 2),
    )


class TestDenseJacobian:
    FIELDS = [
        ("zero", preset("zero", mu=0.3)),
        ("constant", preset("constant", mu=0.5, b=2.0)),
        ("oscillating", preset("uniform_oscillating", mu=0.5, epsilon=0.1)),
        ("rotating", preset("rotating_charge", mu=0.5, mu_s=0.01, r_s=3.0, k=1)),
        ("custom-magnetic", FieldConfig(mu=0.4, magnetic=_custom_magnetic(), electric=electric_preset("zero"))),
        ("custom-electric", FieldConfig(mu=0.4, magnetic=magnetic_preset("zero"), electric=_custom_electric())),
    ]

    @staticmethod
    def gradient_block(loop, cfg):
        return second_variation_matrix(loop.samples, loop.twisted, cfg) / np.sqrt(loop.n)

    @staticmethod
    def central_differences(loop, cfg, h):
        """Reference block: column i is the central difference of the scaled
        single-loop gradient along the coordinate direction e_i."""
        n = loop.n
        xc = pack(loop.samples)

        def grad(x):
            return pack(gradient(DiscreteLoop(unpack(x), twisted=loop.twisted), cfg)) / np.sqrt(n)

        eye = np.eye(2 * n)
        return np.column_stack([(grad(xc + h * e) - grad(xc - h * e)) / (2.0 * h) for e in eye])

    @pytest.mark.parametrize("name,cfg", FIELDS, ids=[f[0] for f in FIELDS])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_exact_block_is_the_limit_of_central_differences(self, rng, name, cfg, twisted):
        loop = random_smooth_loop(rng, 32, twisted=twisted)
        zero = preset("zero", mu=cfg.mu)
        block, block0 = self.gradient_block(loop, cfg), self.gradient_block(loop, zero)
        # the block converges as h^2, and so do the field's own terms, which
        # are small beside the kinetic ones: the part that the zero field lacks
        h = 1e-3
        whole, part = [], []
        for step in (h, h / 2):
            fd, fd0 = self.central_differences(loop, cfg, step), self.central_differences(loop, zero, step)
            whole.append(np.max(np.abs(fd - block)) / np.max(np.abs(block)))
            if name != "zero":
                field_part = block - block0
                part.append(np.max(np.abs(fd - fd0 - field_part)) / np.max(np.abs(field_part)))
        for err_h, err_h2 in (whole, part) if part else (whole,):
            assert err_h2 <= 1e-4
            assert err_h >= 3.0 * err_h2
        # the Hessian of the discretized action is symmetric in pack coordinates
        assert np.linalg.norm(block - block.T) <= 1e-12 * np.linalg.norm(block)

    @pytest.mark.parametrize("name,cfg", FIELDS, ids=[f[0] for f in FIELDS])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_shared_nodes_change_nothing(self, rng, name, cfg, twisted):
        # the solver reads one node object for a point's gradient and its
        # Hessian: neither may write into the arrays that object caches
        loop = random_smooth_loop(rng, 32, twisted=twisted)
        nodes = _Nodes(loop.samples, twisted, cfg)
        first = gradient(loop, cfg, nodes=nodes)
        hess = second_variation_matrix(loop.samples, twisted, cfg, nodes=nodes)
        again = gradient(loop, cfg, nodes=nodes)
        np.testing.assert_array_equal(hess, second_variation_matrix(loop.samples, twisted, cfg))
        for g in (first, again):
            np.testing.assert_array_equal(g, gradient(loop, cfg))

    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_block_applies_the_second_variation(self, rng, twisted):
        # an oracle apart from the assembly: the block applied to a complex
        # direction is the derivative of ``gradient`` along it, which central
        # differences approach as h^2
        cfg = preset("rotating_charge", mu=0.5, mu_s=0.01, r_s=3.0, k=1)
        loop = random_smooth_loop(rng, 32, twisted=twisted)
        block = self.gradient_block(loop, cfg) * np.sqrt(loop.n)

        def grad(dz):
            return pack(gradient(DiscreteLoop(loop.samples + dz, twisted=twisted), cfg))

        h = 1e-4
        for dz in rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32)):
            applied = block @ pack(dz)
            err_h, err_h2 = (
                np.max(np.abs((grad(step * dz) - grad(-step * dz)) / (2.0 * step) - applied))
                / np.max(np.abs(applied))
                for step in (h, h / 2)
            )
            assert err_h2 <= 1e-5
            assert err_h >= 3.0 * err_h2

    @staticmethod
    def column_by_column(xc, twisted, cfg, h=1e-6):
        """Reference assembly: one forward product per coordinate direction,
        a central difference of two single-loop gradients at step
        h * max(1, |xc|)."""
        n = len(xc) // 2

        def grad_block(x):
            return pack(gradient(DiscreteLoop(unpack(x), twisted=twisted), cfg)) / np.sqrt(n)

        def forward(v):
            step = h * max(1.0, np.linalg.norm(xc))
            return (grad_block(xc + step * v) - grad_block(xc - step * v)) / (2.0 * step)

        eye = np.eye(len(xc))
        return np.column_stack([forward(eye[:, i]) for i in range(len(xc))])

    @pytest.mark.parametrize(
        "seed,cfg",
        [(seed_kepler_guess(-1, 0.3, 64), KEPLER), (seed_circle(0.0, 1.0, 64), EULER)],
        ids=["kepler", "unit_circle"],
    )
    def test_matches_column_by_column_assembly(self, seed, cfg):
        n = seed.n
        jmat = self.gradient_block(seed, cfg)
        ref = self.column_by_column(pack(seed.samples), seed.twisted, cfg)
        assert jmat.shape == (2 * n, 2 * n)
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

    def test_later_steps_are_seeded_by_the_secant(self, monkeypatch):
        seeds = []
        real = szbov.solver.solve

        def recorded(seed, cfg, opts):
            seeds.append(seed.samples)
            return real(seed, cfg, opts)

        monkeypatch.setattr(szbov.solver, "solve", recorded)
        rec = real(seed_ejection(-1, 64), KEPLER, OPTS)
        fam = continue_family(rec, [preset("zero", mu=m) for m in (0.01, 0.02, 0.03)], OPTS)
        assert len(fam) == 4
        np.testing.assert_array_equal(seeds[0], fam[0].z.samples)
        for k in (1, 2):
            np.testing.assert_array_equal(seeds[k], 2.0 * fam[k].z.samples - fam[k - 1].z.samples)

    def test_failure_on_first_step_raises(self):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        bad = SolveOptions(n=64, m=256, max_iter=1)
        with pytest.raises(SolveError):
            continue_family(rec, [preset("zero", mu=0.4)], bad)
