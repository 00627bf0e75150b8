import json

import numpy as np
import pytest

from szbov import cli, record_from_dict, save_loop, seed_circle
from szbov.loops import double_cover


def run(argv):
    return cli.main([str(a) for a in argv])


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


EULER = {"fields": {"mu": 0.5}}


class TestEval:
    def test_closed_form_components(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EULER)
        seed = '{"kind": "circle", "center": [0, 0], "radius": 2}'
        assert run(["eval", "--config", cfg, "--seed", seed, "--n", 128]) == 0
        out = capsys.readouterr().out
        assert "F  = 1.0625" in out
        assert "G  = 19.7392088022" in out
        assert "total = 22.1493799406" in out

    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EULER)
        out_path = tmp_path / "eval.json"
        seed = '{"kind": "circle", "center": [0, 0], "radius": 2}'
        code = run(
            ["eval", "--config", cfg, "--seed", seed, "--n", 128, "--out", out_path, "--quiet"]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["components"]["F"] == pytest.approx(1.0625)
        assert data["total"] == pytest.approx(22.14937994, rel=1e-9)

    def test_eval_explicit_loop_file(self, tmp_path, capsys):
        loop_path = tmp_path / "loop.json"
        save_loop(seed_circle(0.0, 2.0, 128), loop_path)
        cfg = write_config(tmp_path, EULER)
        assert run(["eval", "--config", cfg, loop_path]) == 0
        assert "F  = 1.0625" in capsys.readouterr().out


class TestGradCheck:
    def test_passes_at_small_grid(self, capsys):
        assert run(["grad-check", "--n", 16, "--quiet"]) == 0

    def test_twisted_loops_are_genuine(self):
        # z(tau + 1) = 1/z(tau) makes the double cover smooth, so the upper
        # half of its spectrum is negligible; a seam would leave it O(1e-2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            spectrum = np.abs(np.fft.fft(double_cover(cli._random_smooth_loop(rng, 64, True))))
            assert np.max(spectrum[32:97]) <= 1e-8 * np.max(spectrum)


@pytest.fixture(scope="module")
def orbit_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp, {"fields": {"mu": 0.0}, "grid": {"n": 64, "m": 256}})
    out = tmp / "orbit.json"
    seed = '{"kind": "kepler_guess", "side": -1, "radius": 0.3}'
    code = run(["solve", "--config", cfg, "--seed", seed, "--out", out, "--quiet"])
    assert code == 0
    return out


class TestPipeline:
    def test_solve_produces_a_record(self, orbit_path):
        data = json.loads(orbit_path.read_text())
        assert data["twisted"] is True
        assert data["diagnostics"]["grad_norm"] < 1e-9
        # circular period-one orbit: action = kinetic + potential terms; the
        # coarse 64-point grid limits agreement to a few parts in 1e4
        radius = (4 * np.pi**2) ** (-1 / 3)
        expected = 2 * np.pi**2 * radius**2 + 1.0 / radius
        assert data["diagnostics"]["action"] == pytest.approx(expected, rel=1e-3)

    def test_verify_accepts_the_record(self, orbit_path):
        assert run(["verify", orbit_path, "--quiet"]) == 0

    def test_plot_draws_both_curves(self, orbit_path, tmp_path):
        svg = tmp_path / "orbit.svg"
        assert run(["plot", orbit_path, "--out", svg, "--quiet"]) == 0
        text = svg.read_text()
        assert text.count("<path") == 2
        assert "<svg" in text

    def test_export_then_reseed(self, orbit_path, tmp_path, capsys):
        loop_path = tmp_path / "loop.json"
        assert run(["export", orbit_path, "--out", loop_path, "--quiet"]) == 0
        record = json.loads(orbit_path.read_text())
        loop = json.loads(loop_path.read_text())
        assert loop["samples"] == record["z"]["samples"]
        cfg = write_config(tmp_path, {"fields": {"mu": 0.0}})
        assert run(["eval", "--config", cfg, loop_path, "--quiet"]) == 0

    def test_integrate_writes_csv(self, orbit_path, tmp_path):
        csv_path = tmp_path / "traj.csv"
        assert run(["integrate", orbit_path, "--out", csv_path, "--quiet"]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,q_re,q_im,v_re,v_im"
        assert len(lines) > 10

    def test_non_finite_diagnostics_are_valid_json(self, orbit_path):
        data = json.loads(orbit_path.read_text())
        data["diagnostics"].update(grad_norm=float("nan"), delay_sup=float("inf"), phi_sup=float("-inf"))

        def reject(name):
            raise ValueError(f"bare {name} is not JSON")

        parsed = json.loads(cli.dumps_canonical(data), parse_constant=reject)
        record = record_from_dict(parsed)
        assert np.isnan(record.grad_norm)
        assert record.delay_sup == float("inf")
        assert record.phi_sup == float("-inf")

    def test_solve_is_deterministic(self, orbit_path, tmp_path):
        cfg = write_config(tmp_path, {"fields": {"mu": 0.0}, "grid": {"n": 64, "m": 256}})
        out2 = tmp_path / "orbit2.json"
        seed = '{"kind": "kepler_guess", "side": -1, "radius": 0.3}'
        assert run(["solve", "--config", cfg, "--seed", seed, "--out", out2, "--quiet"]) == 0
        assert out2.read_bytes() == orbit_path.read_bytes()


class TestExitCodes:
    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5}, "bogus": 1})
        assert run(["eval", "--config", cfg, "--seed", '{"kind": "circle", "radius": 2}']) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_field_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5, "charge": 3}})
        assert run(["eval", "--config", cfg, "--seed", '{"kind": "circle", "radius": 2}']) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["eval", "--config", tmp_path / "nope.json"]) == 4
        assert run(["verify", tmp_path / "nope.json"]) == 4

    def test_non_convergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "fields": {"mu": 0.5},
                "grid": {"n": 64, "m": 256},
                "solver": {"max_iter": 2},
            },
        )
        seed = '{"kind": "circle", "center": [0.3, 0.2], "radius": 2.5}'
        assert run(["solve", "--config", cfg, "--seed", seed, "--quiet"]) == 3

    def test_unknown_solver_option_rejected(self, tmp_path, capsys):
        # n and m are SolveOptions fields, but belong under "grid"
        seed = '{"kind": "circle", "radius": 2}'
        cases = [
            ({"warp_speed": True}, "unknown solver keys"),
            ({"fd_step": 1e-6}, "unknown solver keys"),
            ({"phase_fix": False}, "unknown solver keys"),
            ({"prox0": 1e-3}, "unknown solver keys"),
            ({"lam0": 1e-3}, "unknown solver keys"),
            ({"eps_zhat": 1e-8}, "unknown solver keys"),
            ({"m": 128}, "'grid'"),
        ]
        for block, message in cases:
            cfg = write_config(tmp_path, {"fields": {"mu": 0.5}, "solver": block})
            assert run(["eval", "--config", cfg, "--seed", seed]) == 2
            assert message in capsys.readouterr().err

    def test_seed_file_grid_must_match_n(self, tmp_path, capsys):
        # a loop file brings its own grid; a different --n is rejected, not ignored
        loop_path = tmp_path / "loop64.json"
        save_loop(seed_circle(0.0, 2.0, 64), loop_path)
        assert run(["solve", "--seed", loop_path, "--n", 128, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "64" in err and "128" in err

    @pytest.mark.parametrize("key, value", [("twisted", "false"), ("n", 128.5)])
    def test_loop_file_with_a_mistyped_field_rejected(self, tmp_path, capsys, key, value):
        # "false" is not cast to a flag (bool("false") is True), nor 128.5 to 128
        loop_path = tmp_path / "loop.json"
        save_loop(seed_circle(0.0, 2.0, 128), loop_path)
        data = json.loads(loop_path.read_text())
        data[key] = value
        loop_path.write_text(json.dumps(data))
        assert run(["eval", "--config", write_config(tmp_path, EULER), loop_path]) == 2
        assert f"'{key}' must be" in capsys.readouterr().err

    def test_record_with_a_fractional_count_rejected(self, orbit_path, tmp_path, capsys):
        # 3.7 iterations is not truncated to 3
        data = json.loads(orbit_path.read_text())
        data["diagnostics"]["iterations"] = 3.7
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(data))
        assert run(["verify", record_path, "--quiet"]) == 2
        assert "'iterations' must be an integer" in capsys.readouterr().err

    def test_nan_tolerance_rejected(self, capsys):
        # a NaN tolerance is never met, yet never reported as missed either
        seed = '{"kind": "circle", "radius": 2}'
        assert run(["solve", "--seed", seed, "--n", 32, "--tol", "nan", "--quiet"]) == 2
        assert "g_tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("max_iter", [2.5, -3, 0])
    def test_bad_max_iter_rejected(self, tmp_path, capsys, max_iter):
        # rejected before any iteration, not as a crash or a non-convergence
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5}, "solver": {"max_iter": max_iter}})
        seed = '{"kind": "circle", "radius": 2}'
        assert run(["solve", "--config", cfg, "--seed", seed, "--n", 32, "--quiet"]) == 2
        assert "max_iter must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["max_iter", "g_tol"])
    def test_bool_solver_option_rejected(self, tmp_path, capsys, key):
        # true would run as a tolerance of 1 or a cap of one iteration
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5}, "solver": {key: True}})
        seed = '{"kind": "circle", "radius": 2}'
        assert run(["solve", "--config", cfg, "--seed", seed, "--n", 32, "--quiet"]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, seed, message", [
        ({"mu": True}, '{"kind": "circle", "radius": 2}', "'mu' must be a number"),
        ({"mu": 0.5}, '{"kind": "circle", "radius": true}', "'radius' must be a number"),
    ], ids=["mu", "radius"])
    def test_bool_number_rejected(self, tmp_path, capsys, fields, seed, message):
        # true would run as mu = 1 or seed a circle of radius 1
        cfg = write_config(tmp_path, {"fields": fields})
        assert run(["eval", "--config", cfg, "--seed", seed, "--quiet"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "m"])
    @pytest.mark.parametrize("value", [40.9, 0, -8])
    def test_bad_grid_rejected(self, tmp_path, capsys, key, value):
        # rejected, not truncated to an integer grid or run at an empty one
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5}, "grid": {key: value}})
        seed = '{"kind": "circle", "radius": 2}'
        assert run(["eval", "--config", cfg, "--seed", seed, "--quiet"]) == 2
        assert f"{key} must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--n", 0, "n must be a positive integer"),
        ("--m", -8, "m must be a positive integer"),
        ("--tol", 0, "g_tol must be positive"),
    ], ids=["n", "m", "tol"])
    def test_bad_flag_rejected(self, capsys, flag, value, message):
        # a flag given as 0 is rejected, not taken as absent
        seed = '{"kind": "circle", "radius": 2}'
        assert run(["eval", "--seed", seed, flag, value, "--quiet"]) == 2
        assert message in capsys.readouterr().err
