import contextlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_real_loop, random_smooth_loop
from szbov import (
    EPS_COLLISION,
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
    verify_generalized,
    winding_report,
    WindingError,
)
import szbov.action
import szbov.selection
import szbov.solver
from szbov.cli import dumps_canonical
from szbov.loops import TimeMap
from szbov.action import _hessian_blocks, _Nodes, _second_variation_matrix, second_variation_matrix
from szbov.selection import _NULL_REL, anchor_measure, spectrum

KEPLER = preset("zero", mu=0.0)
EULER = preset("zero", mu=0.5)
OPTS = SolveOptions(n=64, m=256)


def _count_node_builds(monkeypatch) -> list:
    """A one-item list that counts the node objects (``_Nodes``) built."""
    built = [0]
    init = _Nodes.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(_Nodes, "__init__", counted)
    return built


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
        {"kind": "circle", "center": True, "radius": 2.0},
        {"kind": "circle", "center": "1", "radius": 2.0},
        {"kind": "circle", "center": [1.0, 2.0, 3.0], "radius": 2.0},
        {"kind": "circle", "center": [1.0], "radius": 2.0},
        {"kind": "circle", "center": [], "radius": 2.0},
        {"kind": "circle"},
        {"kind": "ellipse_lift", "a": 2.0, "b": True},
        {"kind": "kepler_guess", "side": -1, "radius": True},
    ], ids=["radius", "center", "center_bool", "center_string", "center_three", "center_one",
            "center_empty", "no_radius", "ellipse_b", "kepler_radius"])
    def test_make_seed_reads_numbers_as_given(self, spec):
        # not cast: true would seed a circle of radius 1, or about 1; nor
        # cut: [1, 2, 3] would seed about 1+2j, and [] about 0
        with pytest.raises(LoopError, match="must be a number"):
            make_seed(spec, n=64)

    def test_make_seed_takes_a_scalar_center(self):
        seed = make_seed({"kind": "circle", "center": 1.5, "radius": 2.0}, n=64)
        assert seed.samples[0] == 3.5

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

    def test_collapse_onto_a_center_is_an_error(self, monkeypatch):
        # a small circle around the massless center +1 at mu = 0: the
        # iteration drives it onto the branch point, where trials fall out
        # of the admissible space (F at most EPS_ZHAT) and are refused, and
        # the damping ladder runs out with F below 10 EPS_ZHAT
        refused = []
        trial = szbov.solver._trial

        def recorded(residual, x):
            out = trial(residual, x)
            refused.append(out is None)
            return out

        monkeypatch.setattr(szbov.solver, "_trial", recorded)
        seed = DiscreteLoop(1.0 + 2e-5 * np.exp(2j * np.pi * np.arange(16) / 16))
        with pytest.raises(SolveError, match="degenerated toward excluded locus"):
            solve(seed, KEPLER, SolveOptions(n=16, m=64))
        assert any(refused)

    def test_one_damping_ladder_per_jacobian(self, monkeypatch):
        # re-solved at an unreachable tolerance, a converged loop ends once
        # one ladder raises lam past its cap with no step accepted: no
        # Hessian is assembled twice at the same point
        rec = solve(seed_kepler_guess(-1, 0.3, 64), EULER, OPTS)
        points = []
        assemble = szbov.action._hessian_blocks

        def recorded(nodes):
            points.append(np.array(nodes.z))
            return assemble(nodes)

        monkeypatch.setattr(szbov.action, "_hessian_blocks", recorded)
        with pytest.raises(NoConvergenceError):
            solve(rec.z, EULER, replace(OPTS, g_tol=1e-30))
        assert len(points) > 1
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))

    def test_a_ladder_that_runs_out_off_the_excluded_locus_ends_the_solve(self):
        # at an unreachable tolerance the iteration stalls at round-off: the
        # last ladder raises lam past its cap at a loop far from degenerate,
        # which is no convergence, well before the iteration cap
        opts = SolveOptions(n=32, m=128, g_tol=1e-30)
        with pytest.raises(NoConvergenceError) as err:
            solve(seed_kepler_guess(-1, 0.3, 32), KEPLER, opts)
        iterations = int(re.search(r"after (\d+) iterations", str(err.value)).group(1))
        assert 0 < iterations < opts.max_iter
        assert err.value.best_grad_norm < 1e-10
        # the message names the cause, a spent ladder, and not the cap
        assert "damping ladder passed lambda = 1e+12 with no step accepted" in str(err.value)
        assert "iteration cap" not in str(err.value)
        assert err.value.iterations == iterations

    def test_the_iteration_cap_is_named(self):
        opts = SolveOptions(n=32, m=128, g_tol=1e-30, max_iter=1)
        with pytest.raises(NoConvergenceError, match="the iteration cap was reached; gradient norm") as err:
            solve(seed_kepler_guess(-1, 0.3, 32), KEPLER, opts)
        assert "after 1 iterations" in str(err.value)
        assert "damping ladder" not in str(err.value)
        assert err.value.iterations == 1

    def test_a_nan_gradient_is_no_convergence(self, monkeypatch):
        # every comparison with NaN is false: a NaN gradient norm must not
        # pass the convergence test on to the member selection
        selected = []
        monkeypatch.setattr(szbov.solver, "select_member", lambda *args: selected.append(args))
        nan_grad = electric_preset(
            "custom", e=lambda t, q: 0.0 * q.real, grad=lambda t, q: np.full(np.shape(q), np.nan + 0j),
            dot=lambda t, q: 0.0 * q.real,
        )
        cfg = FieldConfig(mu=0.5, magnetic=magnetic_preset("zero"), electric=nan_grad)
        with pytest.raises(NoConvergenceError, match="gradient norm nan") as err:
            solve(seed_circle(0.0, 2.0, 32), cfg, SolveOptions(n=32, m=64))
        assert np.isnan(err.value.best_grad_norm)
        assert selected == []

    def test_inadmissible_seed_is_refused(self):
        # no residual at a seed collapsed onto a branch point, where F
        # vanishes, nor at one with a sample at the pole of the weight
        near_pole = seed_circle(3.0, 1.0, 64).samples.copy()
        near_pole[5] = 1e-8
        for samples in (np.full(64, 1.0 + 1e-9 + 0j), near_pole):
            with pytest.raises(DegenerateLoopError):
                solve(DiscreteLoop(samples), EULER, OPTS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_trial_point_is_refused(self, bad):
        # the residual checks its point itself, with no loop object: a trial
        # with a NaN or infinite coordinate, real or imaginary, gets none
        seed = seed_kepler_guess(-1, 0.3, 64)
        residual = szbov.solver._residual_factory(EULER, seed.twisted, 64)
        x = pack(seed.samples)
        assert szbov.solver._trial(residual, x) is not None
        for i in (5, 64 + 5):
            point = x.copy()
            point[i] = bad
            assert szbov.solver._trial(residual, point) is None

    def test_no_probe_is_taken_below_the_floor(self, monkeypatch):
        # the acceleration's probes sit at x +- _ACCEL_PROBE delta about the
        # iterate x, so a pair of residual points whose midpoint is x is a
        # probe pair: across one euler solve, every pair's step is above the
        # floor, sqrt(eps) / _ACCEL_PROBE times the margin, of the iterate,
        # and some accepted step is below it
        floor = szbov.solver._ACCEL_MARGIN * np.sqrt(np.finfo(float).eps) / szbov.solver._ACCEL_PROBE
        assert szbov.solver._ACCEL_MIN_STEP == floor
        events = []
        trial = szbov.solver._trial
        assemble = szbov.action._hessian_blocks

        def recorded(residual, x):
            events.append(x.copy())
            return trial(residual, x)

        def marked(nodes):
            if sys._getframe(1).f_globals["__name__"] == "szbov.solver":
                events.append(("iterate", pack(nodes.z)))
            return assemble(nodes)

        monkeypatch.setattr(szbov.solver, "_trial", recorded)
        monkeypatch.setattr(szbov.action, "_hessian_blocks", marked)
        solve(seed_kepler_guess(-1, 0.3, 64), EULER, OPTS)
        probed, small = [], []
        k = 0
        while k < len(events):
            if isinstance(events[k], tuple):
                x = events[k][1]
                gate = floor * max(1.0, np.linalg.norm(x))
                k += 1
                continue
            point = events[k]
            pair = k + 1 < len(events) and not isinstance(events[k + 1], tuple)
            if pair and np.linalg.norm(0.5 * (point + events[k + 1]) - x) <= 1e-13 * np.linalg.norm(x):
                probed.append(np.linalg.norm(point - x) / szbov.solver._ACCEL_PROBE / gate)
                k += 2
                continue
            if np.linalg.norm(point - x) <= gate:
                small.append(point)
            k += 1
        assert probed and min(probed) > 1.0
        assert small

    def test_one_normal_matrix_per_damping_ladder(self, monkeypatch):
        # every linear solve of one damping ladder, the step and the
        # acceleration of each of its trials, is handed the same normal
        # matrix J^T J + lam I, its diagonal reset per trial, and not a new
        # (2n, 2n) copy per trial.  A marker splits the solves by ladder.
        calls = []
        linear_solve = np.linalg.solve
        assemble = szbov.action._hessian_blocks

        def recorded(a, b):
            calls.append(a)
            return linear_solve(a, b)

        def marked(nodes):
            if sys._getframe(1).f_globals["__name__"] == "szbov.solver":
                calls.append(None)
            return assemble(nodes)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        monkeypatch.setattr(szbov.action, "_hessian_blocks", marked)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), EULER, OPTS)
        assert calls[0] is None
        ladders = []
        for a in calls:
            if a is None:
                ladders.append([])
            else:
                ladders[-1].append(a)
        assert len(ladders) == rec.iterations
        # some ladder rejects a trial: more solves than one trial's two
        assert max(map(len, ladders)) > 2
        for ladder in ladders:
            assert all(a is ladder[0] for a in ladder)

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

    def test_a_physical_grid_too_small_for_q_is_rejected(self):
        # q is built only when read: a record it could never be built for is
        # refused with the options
        with pytest.raises(ValueError, match="m must be at least 16"):
            SolveOptions(n=64, m=8)

    def test_a_physical_grid_above_the_bound_is_rejected(self):
        # nor is one larger than loops.MAX_M taken, which would be built at
        # the first read of q; the message names the bound
        SolveOptions(n=64, m=szbov.loops.MAX_M)
        with pytest.raises(ValueError, match=f"m must be at most MAX_M = {szbov.loops.MAX_M}"):
            SolveOptions(n=64, m=szbov.loops.MAX_M + 1)

    def test_a_loop_grid_above_the_bound_is_rejected(self):
        # nor a loop grid above loops.MAX_N, whose (2n)^2 Hessian the first
        # iteration would build
        SolveOptions(n=szbov.loops.MAX_N, m=256)
        with pytest.raises(ValueError, match=f"n must be at most MAX_N = {szbov.loops.MAX_N}"):
            SolveOptions(n=szbov.loops.MAX_N + 1, m=256)

    def test_seed_grid_must_match_the_options(self):
        with pytest.raises(ValueError, match="n=64.*n=128"):
            solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, SolveOptions(n=128, m=256))

    def test_time_map_is_inverted_outside_the_iteration_only(self, monkeypatch):
        # the solve inverts no time map: the seed's and the record's windings
        # are read at their own nodes, no residual inverts the time map, a
        # solve that moves no member along its family reconstructs no seed for
        # the anchor measure, and the record's q is left to its first read,
        # which reconstructs it once
        seed = seed_kepler_guess(-1, 0.3, 64)
        calls = []
        inverse = TimeMap.inverse

        def counted(self, t):
            calls.append(len(np.atleast_1d(t)))
            return inverse(self, t)

        monkeypatch.setattr(TimeMap, "inverse", counted)
        rec = solve(seed, EULER, OPTS)
        assert rec.iterations > 10
        assert calls == []
        assert rec.q.m == OPTS.m
        assert calls == [OPTS.m]

    def test_iterations_count_jacobian_assemblies(self, monkeypatch):
        # not the passes of the loop, which end with one more convergence
        # test; so a seed already at tolerance takes no iteration
        calls = []
        assemble = szbov.action._hessian_blocks

        def counted(nodes):
            if sys._getframe(1).f_globals["__name__"] == "szbov.solver":
                calls.append(1)
            return assemble(nodes)

        monkeypatch.setattr(szbov.action, "_hessian_blocks", counted)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), EULER, OPTS)
        assert rec.iterations == len(calls) > 10
        again = solve(rec.z, EULER, OPTS)
        assert again.iterations == 0 and len(calls) == rec.iterations
        np.testing.assert_array_equal(again.z.samples, rec.z.samples)

    def test_record_reads_the_last_node_object(self, monkeypatch):
        # the selection's first Hessian, and the record's breakdown, read the
        # node object of the last accepted point: where no member moves,
        # neither builds one
        built = _count_node_builds(monkeypatch)
        inside = {}
        for name in ("select_member", "_finalize"):
            def wrapped(*args, _call=getattr(szbov.solver, name), _name=name):
                before = built[0]
                out = _call(*args)
                inside[_name] = built[0] - before
                return out

            monkeypatch.setattr(szbov.solver, name, wrapped)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), EULER, OPTS)
        assert rec.nullity == 1
        assert inside == {"select_member": 0, "_finalize": 0}

    def test_anchor_measure_reads_the_step_node_object(self, monkeypatch):
        # each step of the move along kepler's family builds one node object,
        # which its Hessian, gradient and anchor measure share; the anchor
        # builds one more, the seed's
        built = _count_node_builds(monkeypatch)
        select = szbov.solver.select_member
        inside = []

        def wrapped(*args):
            before = built[0]
            out = select(*args)
            inside.append((built[0] - before, out[2]))
            return out

        monkeypatch.setattr(szbov.solver, "select_member", wrapped)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        assert rec.nullity == 3
        assert inside == [(10, 9)]

    def test_one_bordered_system_per_selection(self, monkeypatch):
        # each step of the move along kepler's family solves its bordered
        # system in the same matrix and right-hand sides, allocated once per
        # selection: a step overwrites only the Hessian block and the
        # gradient column
        systems = []
        linear_solve = np.linalg.solve

        def recorded(a, b):
            if sys._getframe(1).f_globals["__name__"] == "szbov.selection" and b.ndim == 2:
                systems.append((a, b))
            return linear_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        assert rec.nullity == 3 and rec.iterations == 11
        # one system per pass: 9 steps and the pass that stops
        assert len(systems) == 10
        assert all(a is systems[0][0] and b is systems[0][1] for a, b in systems)

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
        _, grad, _ = measure(_Nodes(rec.z.samples, True, KEPLER))
        # the gradient is exact: central differences approach it as h^2
        d = np.cos(np.arange(len(x)))
        value = lambda x: measure(_Nodes(unpack(x), True, KEPLER))[0]
        err_h, err_h2 = (
            abs((value(x + h * d) - value(x - h * d)) / (2 * h) - grad @ d) for h in (1e-4, 1e-5)
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
        value, grad, _ = measure(_Nodes(seed.samples, True, KEPLER))
        assert value == 0.0 and np.all(grad == 0.0)
        moved = seed.samples + 1e-3 * np.exp(1j * np.arange(seed.n))
        assert measure(_Nodes(moved, True, KEPLER))[0] > 1e-9

    def test_record_serialization_round_trip(self, monkeypatch):
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        # the written record holds q's grid, not q: writing it inverts no
        # time map, and its text reads back to the same bytes
        inverted = _count_inversions(monkeypatch)
        text = dumps_canonical(rec.to_dict())
        assert inverted == [0]
        assert json.loads(text)["q"] == {"m": OPTS.m} and len(text) < 5000
        again = record_from_dict(json.loads(text))
        assert dumps_canonical(again.to_dict()) == text
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
        for key, value in [("iterations", 3.7), ("iterations", True), ("nullity", 1.5), ("morse_index", True)]:
            data = rec.to_dict()
            data["diagnostics"][key] = value
            with pytest.raises(LoopError, match=f"'{key}' must be an integer"):
                record_from_dict(data)


ARCHIVES = Path(__file__).resolve().parents[1] / "perfbench" / "archives"


def test_record_sector_is_its_loops():
    # the record's "twisted" restates its z block's: it is written as z's,
    # and a file where the two disagree is rejected
    data = json.loads((ARCHIVES / "euler.json").read_text())
    rec = record_from_dict(data)
    assert rec.twisted == rec.z.twisted == data["twisted"]
    assert rec.to_dict()["twisted"] == data["twisted"]
    data["twisted"] = not data["twisted"]
    with pytest.raises(LoopError, match="'twisted' is"):
        record_from_dict(data)


def _count_inversions(monkeypatch) -> list:
    """A one-item list that counts the calls of ``TimeMap.inverse``."""
    calls = [0]
    inverse = TimeMap.inverse

    def counted(self, *args):
        calls[0] += 1
        return inverse(self, *args)

    monkeypatch.setattr(TimeMap, "inverse", counted)
    return calls


@pytest.mark.parametrize("path", sorted(ARCHIVES.glob("*.json")), ids=lambda p: p.stem)
def test_archived_q_block_survives_a_round_trip(path):
    # of an archive's q block only its grid is read and written back: the
    # record's q is reconstruct(z, m), collision times and all
    data = json.loads(path.read_text())
    rec = record_from_dict(data)
    assert rec.to_dict()["q"] == {"m": data["q"]["m"]} == {"m": rec.q.m}
    rebuilt = reconstruct(rec.z, rec.m)
    np.testing.assert_array_equal(rec.q.samples, rebuilt.samples)
    assert rec.q.collision_times == rebuilt.collision_times == tuple(data["q"]["collision_times"])


@pytest.mark.parametrize("path", sorted(ARCHIVES.glob("*.json")), ids=lambda p: p.stem)
def test_archive_reads_back_as_it_was_written(path, monkeypatch):
    # the record holds what the file holds, and loading and writing it
    # evaluates nothing: it writes the file's text back without the q
    # samples and collision times, and for the null spectrum keys of an
    # archive older than the spectrum
    built = _count_node_builds(monkeypatch)
    inverted = _count_inversions(monkeypatch)
    written = json.loads(path.read_text())
    data = record_from_dict(written).to_dict()
    assert built == inverted == [0]
    for key in ("morse_index", "nullity", "gap"):
        if key not in written["diagnostics"]:
            assert data["diagnostics"].pop(key) is None
    del written["q"]["samples"], written["q"]["collision_times"]
    assert dumps_canonical(data) == dumps_canonical(written)


def test_an_old_files_q_samples_are_ignored():
    # a q sample edited, or no number at all, and a collision time made up:
    # the record read back, its q, its file and its verify report are the
    # unedited file's
    data = json.loads((ARCHIVES / "unit_circle.json").read_text())
    rec = record_from_dict(data)
    data["q"]["samples"][5][0] += 1.0
    data["q"]["samples"][7] = [True, "0.5", 0.0]
    data["q"]["collision_times"] = [0.25]
    edited = record_from_dict(data)
    assert dumps_canonical(edited.to_dict()) == dumps_canonical(rec.to_dict())
    np.testing.assert_array_equal(edited.q.samples, rec.q.samples)
    assert edited.q.collision_times == rec.q.collision_times == (0.0, 0.5)
    assert verify_generalized(edited, edited.cfg) == verify_generalized(rec, rec.cfg)


def test_given_sups_are_read_back_and_computed_sups_fill_only_the_rest(monkeypatch):
    # a record read from a file returns its stored sups and computes
    # neither; a record given one sup keeps it and derives the other
    def computed(*args):
        raise AssertionError("a sup was computed")

    data = json.loads((ARCHIVES / "euler.json").read_text())
    with monkeypatch.context() as patched:
        patched.setattr(szbov.action, "_delay_residual", computed)
        patched.setattr(szbov.solver, "_node_defect", computed)
        rec = record_from_dict(data)
        assert (rec.delay_sup, rec.phi_sup) == (data["diagnostics"]["delay_sup"], data["diagnostics"]["phi_sup"])
    given = szbov.solver.OrbitRecord(
        z=rec.z, breakdown=rec.breakdown, grad_norm=rec.grad_norm, cfg=rec.cfg, m=64, delay_sup=1.0
    )
    derived = szbov.solver.OrbitRecord(z=rec.z, breakdown=rec.breakdown, grad_norm=rec.grad_norm, cfg=rec.cfg, m=64)
    assert given.delay_sup == 1.0
    assert given.phi_sup == derived.phi_sup < 1e-6
    assert derived.delay_sup < 1e-6


def test_loaded_record_derives_its_C_and_winding():
    # C is the breakdown's and the winding is z's, read at z's nodes, so a
    # record given a new q keeps its own winding
    kepler, circle = (
        record_from_dict(json.loads((ARCHIVES / f"{name}.json").read_text())) for name in ("kepler", "unit_circle")
    )
    assert kepler.C == kepler.breakdown.C
    fine = replace(kepler, q=reconstruct(kepler.z, 1024))
    assert fine.winding == winding_report(fine.q.samples) == kepler.winding
    # unit_circle's samples hit the centers, where the winding is undefined
    assert circle.winding is None
    assert replace(circle, q=kepler.q).winding is None


@pytest.mark.parametrize("path", sorted(ARCHIVES.glob("*.json")), ids=lambda p: p.stem)
def test_archive_winding_at_the_nodes_is_its_qs(path):
    # the winding is read from B(z) at z's nodes; on every archive it is the
    # winding of the stored q samples, undefined on unit_circle's, which hit
    # the centers
    rec = record_from_dict(json.loads(path.read_text()))
    try:
        expected = winding_report(rec.q.samples, clearance=EPS_COLLISION)
    except WindingError:
        expected = None
    assert rec.winding == expected
    assert (expected is None) == (path.stem == "unit_circle")


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
        hess = _second_variation_matrix(nodes)
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

    def test_members_invert_no_time_map(self, monkeypatch):
        # a member's q is built only when it is read, and its winding is read
        # at its nodes: a family whose q nobody reads builds, evaluates and
        # inverts no time map
        rec = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(szbov.loops, "time_map", counted("time_map", szbov.loops.time_map))
        for name in ("t", "inverse"):
            monkeypatch.setattr(TimeMap, name, counted(name, getattr(TimeMap, name)))
        fam = continue_family(rec, [preset("zero", mu=m) for m in (0.01, 0.02)], OPTS)
        assert len(fam) == 3
        assert calls == []

    def test_q_is_built_on_its_first_read(self):
        # bit-equal to the reconstruction at the options' m, and kept
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        assert rec.m == OPTS.m
        q = rec.q
        assert q.samples.tobytes() == reconstruct(rec.z, OPTS.m).samples.tobytes()
        assert rec.q is q
        # a record given its q keeps it and takes its m from it
        fine = replace(rec, q=reconstruct(rec.z, 1024))
        assert fine.m == fine.q.m == 1024
        with pytest.raises(ValueError, match="needs its q"):
            replace(rec, q=None, m=None)

    def test_failure_on_a_later_step_returns_the_partial_family(self, caplog):
        # the first step, at the start's own field, is met at once; the jump
        # to mu = 0.4 is not met in one iteration
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        bad = SolveOptions(n=64, m=256, max_iter=1)
        fam = continue_family(rec, [KEPLER, preset("zero", mu=0.4)], bad)
        assert len(fam) == 2 and fam[0] is rec
        assert fam[1].grad_norm < bad.g_tol
        assert "continuation stopped at step 2/2" in caplog.text

    def test_failure_on_first_step_raises(self):
        # a first step that does not converge raises NoConvergenceError, as
        # a solve does, with the step's best iterate and its iterations
        rec = solve(seed_kepler_guess(-1, 0.3, 64), KEPLER, OPTS)
        bad = SolveOptions(n=64, m=256, max_iter=1)
        cfg = preset("zero", mu=0.4)
        with pytest.raises(NoConvergenceError, match="first configuration: no convergence") as err:
            continue_family(rec, [cfg], bad)
        assert err.value.iterations == 1
        assert err.value.best_grad_norm == pytest.approx(grad_norm(gradient(err.value.best_loop, cfg)), rel=1e-12)
        assert err.value.best_grad_norm < grad_norm(gradient(rec.z, cfg))

    def test_a_step_from_a_member_computes_only_what_its_record_holds(self, monkeypatch):
        # seeded with the member's z, a step reads that loop object's
        # winding, which the member's solve computed, and computes one: its
        # record's.  The record's sups are left to their first read, which
        # computes both from one node object, bit for bit the values of the
        # node object the solve ended with.
        rec = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        assert rec.winding is not None
        calls = {"winding_report": 0, "_delay_residual": 0, "_node_defect": 0}
        last = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
            return fn

        winding_report = counted(szbov.loops, "winding_report")
        delay_residual = counted(szbov.action, "_delay_residual")
        node_defect = counted(szbov.solver, "_node_defect")
        finalize = szbov.solver._finalize

        def recorded(nodes, *args):
            last.append(nodes)
            return finalize(nodes, *args)

        monkeypatch.setattr(szbov.solver, "_finalize", recorded)
        member = continue_family(rec, [preset("zero", mu=0.01)], OPTS)[-1]
        assert calls == {"winding_report": 1, "_delay_residual": 0, "_node_defect": 0}
        expected = (
            delay_residual(last[0]).sup_relative,
            node_defect(last[0], last[0].breakdown().C)[1],
        )
        assert (member.delay_sup, member.phi_sup) == expected
        assert calls == {"winding_report": 1, "_delay_residual": 1, "_node_defect": 1}
        assert member.winding == winding_report(szbov.loops.birkhoff_map(member.z.samples), clearance=EPS_COLLISION)

    def test_a_warm_step_takes_no_probe_at_round_off(self, monkeypatch):
        # a step seeded with a converged member takes two iterations: the
        # first probes and accelerates, the second's step (~1e-7, below the
        # acceleration's floor) is a trial alone.  That is the seed's
        # residual and 4 through _trial, and 3 linear solves.
        rec = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        counts = {"residual": 0, "trial": 0, "solve": 0}
        factory = szbov.solver._residual_factory
        trial = szbov.solver._trial
        linear_solve = np.linalg.solve

        def counted_factory(*args):
            residual = factory(*args)

            def counted(x):
                counts["residual"] += 1
                return residual(x)

            return counted

        def counted_trial(residual, x):
            counts["trial"] += 1
            return trial(residual, x)

        def counted_solve(a, b):
            counts["solve"] += 1
            return linear_solve(a, b)

        monkeypatch.setattr(szbov.solver, "_residual_factory", counted_factory)
        monkeypatch.setattr(szbov.solver, "_trial", counted_trial)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        member = continue_family(rec, [preset("zero", mu=0.01)], OPTS)[-1]
        assert member.iterations == 2
        assert counts == {"residual": 5, "trial": 4, "solve": 3}

    def test_the_debug_line_reports_the_acceleration(self, caplog):
        # each iteration's line counts its ladder's trials and residuals and
        # names the accepted trial's acceleration outcome
        rec = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        caplog.set_level("DEBUG", logger="szbov.solver")
        member = continue_family(rec, [preset("zero", mu=0.01)], OPTS)[-1]
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iter ")]
        assert len(lines) == member.iterations == 2
        assert "trials=1 residuals=3 accel=taken " in lines[0]
        assert "trials=1 residuals=1 accel=below_floor " in lines[1]

        caplog.clear()
        euler = solve(seed_kepler_guess(-1, 0.3, 64), EULER, OPTS)
        found = [
            re.search(r"trials=(\d+) residuals=(\d+) accel=(\w+) ", r.getMessage())
            for r in caplog.records if r.getMessage().startswith("iter ")
        ]
        assert len(found) == euler.iterations and all(found)
        outcomes = {"taken", "below_floor", "refused", "probe_inadmissible"}
        for trials, residuals, accel in (f.groups() for f in found):
            assert accel in outcomes
            # one trial residual per trial and at most two probes each
            assert int(trials) <= int(residuals) <= 3 * int(trials)
            if accel == "taken":
                assert int(residuals) >= 3
        assert found[0].group(3) == "taken" and found[-1].group(3) == "below_floor"


class TestRealLine:
    """A real loop on a field even under q -> conj(q) stays on the real
    line: the solve moves Re z alone and the spectrum is read from the
    Hessian's two diagonal blocks."""

    EVEN = [
        ("zero", preset("zero", mu=0.3)),
        ("real_d", preset("uniform_oscillating", mu=0.3, epsilon=0.05, d=-0.6)),
    ]

    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    @pytest.mark.parametrize("cfg", [c for _, c in EVEN], ids=[name for name, _ in EVEN])
    def test_hessian_is_block_diagonal(self, rng, cfg, twisted):
        # the Re-Im blocks vanish and the gradient is real, so the spectra
        # of the two diagonal blocks, which the selection assembles in real
        # arithmetic, are the full matrix's
        n = 64
        for _ in range(3):
            loop = random_real_loop(rng, n, twisted)
            hess = second_variation_matrix(loop.samples, twisted, cfg)
            scale = np.max(np.abs(hess))
            assert np.max(np.abs(hess[:n, n:])) <= 1e-13 * scale
            assert np.max(np.abs(hess[n:, :n])) <= 1e-13 * scale
            g = gradient(loop, cfg)
            assert np.max(np.abs(g.imag)) <= 1e-13 * np.max(np.abs(g))
            full = np.linalg.eigvalsh(hess)
            blocks = _hessian_blocks(_Nodes(loop.samples, twisted, cfg))
            merged = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))
            assert np.max(np.abs(merged - full)) <= 1e-12 * np.max(np.abs(full))

    def test_mu_family_spectrum_is_the_full_matrixs(self):
        # criterion 10's family at n=64: every member is exactly real, its
        # unreduced gradient norm is below the tolerance, and the spectrum
        # read from the blocks is the full Hessian's
        start = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        family = continue_family(start, [preset("zero", mu=m) for m in np.linspace(0.01, 0.2, 20)], OPTS)
        assert len(family) == 21
        for rec in family:
            assert not np.any(rec.z.samples.imag)
            assert grad_norm(gradient(rec.z, rec.cfg)) < OPTS.g_tol
            hess = second_variation_matrix(rec.z.samples, rec.twisted, rec.cfg)
            index, nullity, gap = spectrum(np.linalg.eigvalsh(hess))
            assert (rec.morse_index, rec.nullity) == (index, nullity)
            assert rec.gap == pytest.approx(gap, rel=1e-9)

    @pytest.mark.parametrize("cfg, nudge, real", [
        (preset("zero", mu=0.1), 0.0, True),
        (preset("uniform_oscillating", mu=0.1, epsilon=0.01), 0.0, True),
        (preset("zero", mu=0.1), 1e-12j, False),
        (preset("constant", mu=0.1, b=0.1), 0.0, False),
        (preset("rotating_charge", mu=0.1, mu_s=0.01, r_s=3.0), 0.0, False),
        (preset("uniform_oscillating", mu=0.1, epsilon=0.01, d=1.0 + 0.5j), 0.0, False),
    ], ids=["zero", "real_d", "off_the_line", "constant", "rotating_charge", "complex_d"])
    def test_path_is_chosen_from_the_seed_and_field(self, solve_sizes, caplog, cfg, nudge, real):
        # an ejection solve on the real line hands n x n systems to the
        # linear solver and returns a real loop; one sample off the line by
        # 1e-12, or a field that is not reflection-even, keeps the full
        # 2n x 2n systems.  Four iterations show the path, and each
        # iteration's debug line names it.
        n = 64
        samples = seed_ejection(-1, n).samples.copy()
        samples[5] += nudge
        caplog.set_level("DEBUG", logger="szbov.solver")
        with contextlib.suppress(NoConvergenceError):
            rec = solve(DiscreteLoop(samples, twisted=True), cfg, replace(OPTS, max_iter=4))
            if real:
                assert not np.any(rec.z.samples.imag)
        assert solve_sizes and set(solve_sizes) == {n if real else 2 * n}
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iter ")]
        assert lines and all(line.endswith("solve=real n x n" if real else "solve=full 2n x 2n") for line in lines)

    def test_real_line_solve_assembles_no_full_hessian(self, monkeypatch):
        # criterion 10's first step from the ejection start: each Jacobian
        # of the solve, and the selection's spectrum, are the two real
        # blocks, so the complex (2n, 2n) Hessian is never assembled
        start = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        full, blocks = [], []

        def refused(nodes, _full=szbov.action._second_variation_matrix):
            full.append(nodes.n)
            return _full(nodes)

        def counted(nodes, _blocks=szbov.action._hessian_blocks):
            blocks.append(sys._getframe(1).f_globals["__name__"])
            return _blocks(nodes)

        monkeypatch.setattr(szbov.action, "_second_variation_matrix", refused)
        monkeypatch.setattr(szbov.action, "_hessian_blocks", counted)
        rec = solve(start.z, preset("zero", mu=0.01), OPTS)
        assert full == []
        assert rec.iterations == blocks.count("szbov.solver") > 0
        assert blocks.count("szbov.selection") == 1 and len(blocks) == rec.iterations + 1
        assert not np.any(rec.z.samples.imag) and rec.nullity == 1

    def test_real_line_member_move_assembles_no_full_hessian(self, monkeypatch, solve_sizes):
        # criterion 10's start at mu = 0 has nullity 3, the time shift in
        # Re z and two directions in Im z, so its selection moves.  The move
        # is made in Re z, as the solve's steps are: no complex (2n, 2n)
        # Hessian is assembled, and the largest system is the bordered one
        # on Re z and the time shift, n + 1
        n = 64
        full = []
        assemble = szbov.action._second_variation_matrix

        def recorded(nodes):
            full.append(nodes.n)
            return assemble(nodes)

        monkeypatch.setattr(szbov.action, "_second_variation_matrix", recorded)
        rec = solve(seed_ejection(-1, n), KEPLER, OPTS)
        assert rec.nullity == 3 and not np.any(rec.z.samples.imag)
        assert full == []
        assert max(solve_sizes) == n + 1

    def test_real_line_member_is_the_general_paths(self, monkeypatch):
        # the same start with the real line switched off: the solve and the
        # move run in pack(z) on the full Hessian, with no projection onto
        # Re z, and reach the same member, real to round-off
        rec = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        monkeypatch.setattr(szbov.action, "on_real_line", lambda z, cfg: False)
        general = solve(seed_ejection(-1, 64), KEPLER, OPTS)
        assert np.max(np.abs(general.z.samples - rec.z.samples)) <= 1e-12
        assert np.max(np.abs(general.z.samples.imag)) <= 1e-15
        assert (general.morse_index, general.nullity) == (rec.morse_index, rec.nullity)
