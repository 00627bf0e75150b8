import json
import re

import numpy as np
import pytest

from szbov import (
    SolveOptions,
    cli,
    config_from_dict,
    continue_family,
    make_seed,
    record_from_dict,
    save_loop,
    seed_circle,
    solve,
)
from szbov import action, dynamics, loops, selection, solver
from test_solver import ARCHIVES
from szbov.loops import double_cover, loop_to_dict


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

    @pytest.mark.parametrize("flag, value", [("--n", 64), ("--seed", '{"kind": "circle", "radius": 3}')])
    def test_seed_flag_with_a_loop_file_rejected(self, tmp_path, capsys, flag, value):
        # the loop file is evaluated as it is; the flag is not dropped unread
        loop_path = tmp_path / "loop.json"
        save_loop(seed_circle(0.0, 2.0, 128), loop_path)
        assert run(["eval", loop_path, flag, value]) == 2
        assert "a loop file or --seed and --n, not both" in capsys.readouterr().err


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

    def test_export_writes_the_bytes_it_prints(self, orbit_path, tmp_path, capsys):
        # one writer: --out and stdout carry the same canonical text
        loop_path = tmp_path / "loop.json"
        assert run(["export", orbit_path, "--out", loop_path]) == 0
        capsys.readouterr()
        assert run(["export", orbit_path]) == 0
        printed = capsys.readouterr().out
        assert loop_path.read_bytes() == printed.encode()
        z = record_from_dict(json.loads(orbit_path.read_text())).z
        assert printed == cli.dumps_canonical(loop_to_dict(z)) + "\n"

    def test_export_of_a_bare_loop_file(self, tmp_path, capsys):
        # a loop file, as save_loop writes it, exports to its own bytes
        loop_path = tmp_path / "loop.json"
        save_loop(seed_circle(0.5, 2.0, 64), loop_path)
        assert run(["export", loop_path]) == 0
        assert capsys.readouterr().out.encode() == loop_path.read_bytes()

    def test_verify_prints_its_report(self, orbit_path, capsys):
        assert run(["verify", orbit_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "collisions: 0"
        names = [
            "finite collision set",
            "newtonian defect (re-integration)",
            "energy continuity across collisions",
            "loop closure",
            "energy constant",
        ]
        assert len(lines) == 1 + len(names)
        for line, name in zip(lines[1:], names):
            assert re.fullmatch(rf"ok   {re.escape(name)}: \d\.\d{{3}}e[+-]\d\d \(tol \d\.\de[+-]\d\d\)", line), line

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(G=10 * c["G"]),
        lambda c: c.update(F=-1.0),
    ], ids=["G_times_10", "negative_F"])
    def test_verify_fails_a_record_whose_c_is_not_its_z(self, orbit_path, tmp_path, capsys, edit):
        # C enters the continuity check only as C - phi_j, the node energy,
        # where it cancels: the energy constant check compares it with z's
        data = json.loads(orbit_path.read_text())
        edit(data["diagnostics"]["components"])
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(data))
        assert run(["verify", record_path]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == ["FAIL energy constant"]

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

    def test_negative_zero_reads_back(self, orbit_path):
        # "-0" would read back as the integer 0 and lose the sign
        assert cli.dumps_canonical([-0.0, 0.0, 1.0]) == "[-0.0, 0, 1]"
        data = json.loads(orbit_path.read_text())
        data["z"]["samples"][5][1] = -0.0
        data["z"]["samples"][7][0] = -0.0
        data["diagnostics"]["components"]["E1"] = -0.0
        text = cli.dumps_canonical(data)
        record = record_from_dict(json.loads(text))
        assert np.signbit(record.z.samples[5].imag)
        assert np.signbit(record.z.samples[7].real)
        assert np.signbit(record.breakdown.E1)
        assert cli.dumps_canonical(record.to_dict()) == text

    @pytest.mark.parametrize("command", ["solve", "continue"])
    def test_writing_records_inverts_no_time_map(self, tmp_path, monkeypatch, command):
        # from a circle seed, on a path along which no member moves, nothing
        # inverts a time map: a written record holds q's grid, not q
        case = {"fields": {"mu": 0.5}, "seed": {"kind": "circle", "radius": 2.0}, "grid": {"n": 64, "m": 256}}
        cfg = write_config(tmp_path, {**case, "path": [{"mu": 0.49}, {"mu": 0.48}]})
        calls = []
        inverse = loops.TimeMap.inverse
        monkeypatch.setattr(loops.TimeMap, "inverse", lambda self, t: calls.append(t) or inverse(self, t))
        out = tmp_path / "out.json"
        assert run([command, "--config", cfg, "--out", out, "--quiet"]) == 0
        assert calls == []
        data = json.loads(out.read_text())
        records = data["family"] if command == "continue" else [data]
        assert [rec["q"] for rec in records] == [{"m": 256}] * (3 if command == "continue" else 1)
        assert out.stat().st_size < 5000 * len(records)

    def test_a_list_of_floats_is_written_as_its_items(self):
        # a list of floats alone is formatted without the per-item dispatch:
        # its text is its items' own, as in a list that mixes in an int
        items = [0.1, -0.0, 1e300, float("nan"), float("-inf"), np.float64(2.5)]
        text = cli.dumps_canonical(items)
        assert text == "[" + ", ".join(cli.dumps_canonical(v) for v in items) + "]"
        assert text == '[0.10000000000000001, -0.0, 1.0000000000000001e+300, "NaN", "-Infinity", 2.5]'
        assert cli.dumps_canonical([*items, 3]) == text[:-1] + ", 3]"

    def test_solve_is_deterministic(self, orbit_path, tmp_path):
        cfg = write_config(tmp_path, {"fields": {"mu": 0.0}, "grid": {"n": 64, "m": 256}})
        out2 = tmp_path / "orbit2.json"
        seed = '{"kind": "kepler_guess", "side": -1, "radius": 0.3}'
        assert run(["solve", "--config", cfg, "--seed", seed, "--out", out2, "--quiet"]) == 0
        assert out2.read_bytes() == orbit_path.read_bytes()


class TestIntegrateArchives:
    """``szbov integrate`` prints the runs of verify's Newtonian check, with
    no margin: each arc between collisions from the usable node nearest its
    midpoint, forward and backward, at the grid times k/m."""

    # the fewest grid rows at m = 64: a run that meets a collision stops
    # before the grid time on it
    MIN_ROWS = {"kepler": 65, "magnetic": 65, "euler": 64, "electric": 64, "mu_family_end": 64, "unit_circle": 62}

    @pytest.mark.parametrize("name", sorted(MIN_ROWS))
    def test_prints_grid_rows(self, name, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        assert run(["integrate", ARCHIVES / f"{name}.json", "--m", 64, "--out", csv_path]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,q_re,q_im,v_re,v_im"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        k = rows[:, 0] * 64
        np.testing.assert_array_equal(k, np.round(k))
        assert np.all(np.diff(k) > 0)
        assert self.MIN_ROWS[name] <= len(rows) <= 65
        stopped = "integration terminated early: collision_proximity" in capsys.readouterr().err
        assert stopped == (len(rows) < 65)

    @pytest.mark.parametrize("name", sorted(MIN_ROWS))
    def test_starts_where_verify_does(self, name, monkeypatch):
        # the CLI (margin 0) and verify (margins of 5 grid steps) start each
        # arc's runs at the same node, at the same time and state
        rec = record_from_dict(json.loads((ARCHIVES / f"{name}.json").read_text()))
        starts = []
        integrate = dynamics.integrate

        def recorded(q0, v0, t0, *args, **kwargs):
            starts.append((t0, q0, v0))
            return integrate(q0, v0, t0, *args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate", recorded)
        assert dynamics.verify_generalized(rec, rec.cfg).ok
        verified, starts[:] = set(starts), []
        assert run(["integrate", ARCHIVES / f"{name}.json", "--m", 64, "--quiet"]) == 0
        assert set(starts) == verified
        assert len(verified) == max(1, len(rec.q.collision_times))


class TestContinue:
    CASE = {
        "fields": {"mu": 0.0},
        "seed": {"kind": "ejection", "side": -1},
        "grid": {"n": 64, "m": 256},
    }
    PATH = [{"mu": 0.01}, {"mu": 0.02}]

    def test_family_is_continue_familys(self, tmp_path):
        # the command writes the family that continue_family returns from
        # the solved start, in the bytes of dumps_canonical
        cfg = write_config(tmp_path, {**self.CASE, "path": self.PATH})
        out = tmp_path / "family.json"
        assert run(["continue", "--config", cfg, "--out", out, "--quiet"]) == 0
        opts = SolveOptions(n=64, m=256)
        start = solve(make_seed(self.CASE["seed"], n=64), config_from_dict(self.CASE["fields"]), opts)
        family = continue_family(start, [config_from_dict(block) for block in self.PATH], opts)
        assert len(family) == 3
        expected = cli.dumps_canonical({"family": [rec.to_dict() for rec in family]})
        assert out.read_text() == expected + "\n"

    def test_real_record_stays_real_through_its_archive(self, tmp_path):
        # a real record on a reflection-even field, read back from its text,
        # continues on the real line, by continue_family and by the command
        # seeded with its loop; two runs of the command write the same bytes
        opts = SolveOptions(n=64, m=256)
        rec = solve(make_seed(self.CASE["seed"], n=64), config_from_dict(self.CASE["fields"]), opts)
        back = record_from_dict(json.loads(cli.dumps_canonical(rec.to_dict())))
        assert not np.any(back.z.samples.imag)
        family = continue_family(back, [config_from_dict(block) for block in self.PATH], opts)
        assert len(family) == 3
        assert not any(np.any(member.z.samples.imag) for member in family)
        loop = tmp_path / "start.json"
        save_loop(back.z, loop)
        cfg = write_config(tmp_path, {**self.CASE, "seed": {"kind": "file", "path": str(loop)}, "path": self.PATH})
        texts = []
        for k in range(2):
            out = tmp_path / f"family{k}.json"
            assert run(["continue", "--config", cfg, "--out", out, "--quiet"]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        members = json.loads(texts[0])["family"]
        assert len(members) == 3
        assert all(im == 0.0 for member in members for _, im in member["z"]["samples"])

    def test_config_without_a_path_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CASE)
        assert run(["continue", "--config", cfg, "--quiet"]) == 2
        assert "'path' list" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5}, "bogus": 1})
        assert run(["eval", "--config", cfg, "--seed", '{"kind": "circle", "radius": 2}']) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_field_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5, "charge": 3}})
        assert run(["eval", "--config", cfg, "--seed", '{"kind": "circle", "radius": 2}']) == 2

    @pytest.mark.parametrize("key", ["magnetic", "electric"])
    def test_field_block_that_is_no_object(self, tmp_path, capsys, key):
        # rejected as a validation error, not a TypeError from dict(3)
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5, key: 3}})
        assert run(["eval", "--config", cfg, "--seed", '{"kind": "circle", "radius": 2}']) == 2
        assert f"'{key}' must be an object" in capsys.readouterr().err

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

    def test_continuation_that_does_not_converge_at_its_first_step(self, tmp_path, capsys):
        # the start converges; the first configuration does not within the
        # cap, which is no convergence (exit 3), not invalid input
        cfg = write_config(
            tmp_path,
            {
                "fields": {"mu": 0.5},
                "seed": {"kind": "kepler_guess", "side": -1, "radius": 0.3},
                "grid": {"n": 32, "m": 128},
                "solver": {"g_tol": 1e-9, "max_iter": 30},
                "path": [{"mu": 0.5, "electric": {"kind": "uniform_oscillating", "epsilon": 0.01}}],
            },
        )
        assert run(["continue", "--config", cfg, "--quiet"]) == 3
        assert "first configuration: no convergence" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["eval", "{path}"],
        ["solve", "--seed", "{path}", "--quiet"],
        ["eval", "--config", "{path}"],
        ["verify", "{path}"],
    ], ids=["eval_loop", "seed_loop", "config", "orbit"])
    def test_file_that_is_not_json_is_named(self, tmp_path, capsys, argv):
        # one reader for loop, config and orbit files: it names the file and
        # the line, and the command exits 2
        path = tmp_path / "input.json"
        path.write_text('{"n": 16,\n "twisted": false,\n samples}')
        assert run([a.format(path=path) for a in argv]) == 2
        assert f"{path}: invalid JSON near line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "{path}"],
        ["verify", "{path}"],
        ["solve", "--config", "{path}", "--quiet"],
    ], ids=["eval", "verify", "solve_config"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys, argv):
        # a byte-order mark of UTF-16 is no UTF-8: the message names the file
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe" + '{"n": 16}'.encode("utf-16-le"))
        assert run([a.format(path=path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err

    @pytest.mark.parametrize("payload, message", [
        ([{"mu": 0.5}], "config must be a JSON object"),
        ({"fields": {"mu": 0.5}, "grid": {"n": 32, "nodes": 64}}, "unknown grid keys: ['nodes']"),
        ({"fields": {"mu": 0.5}, "solver": {"g_tol": "1e-9"}}, "bad solver options"),
    ], ids=["not_an_object", "grid_key", "g_tol_text"])
    def test_malformed_config_rejected(self, tmp_path, capsys, payload, message):
        cfg = write_config(tmp_path, payload)
        assert run(["eval", "--config", cfg, "--seed", '{"kind": "circle", "radius": 2}']) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("grid", 5), ("grid", []), ("grid", [["n", 64]]),
        ("solver", 5), ("solver", "ab"),
        ("path", 5), ("path", {"mu": 0.1}),
        ("out", ["a"]), ("out", True), ("out", 7),
    ])
    def test_config_block_of_the_wrong_kind_rejected(self, tmp_path, capfd, monkeypatch, key, value):
        # grid and solver are objects, path a list and out a string: any
        # other JSON value is refused with its key named, before anything is
        # written (an out of true or 7 would be opened as a file descriptor)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5}, key: value})
        assert run(["eval", "--config", cfg, "--seed", '{"kind": "circle", "radius": 2}', "--n", 32, "--quiet"]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert f"config: {key!r} must be" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_seed_flag_that_is_not_json_rejected(self, capsys):
        assert run(["eval", "--seed", "{bad", "--quiet"]) == 2
        assert "--seed: invalid JSON" in capsys.readouterr().err

    def test_dumps_canonical_is_the_loop_writers(self):
        assert cli.dumps_canonical is loops.dumps_canonical

    @pytest.mark.parametrize("spec", ['{"kind": "file"}', '{"kind": "file", "path": 5}',
                                      '{"kind": "file", "path": true}'], ids=["missing", "number", "true"])
    def test_seed_file_path_must_be_a_string(self, tmp_path, capsys, spec):
        # 5 or true would be opened as a file descriptor, true as stdout's
        cfg = write_config(tmp_path, {**EULER, "grid": {"n": 64, "m": 256}})
        assert run(["solve", "--config", cfg, "--seed", spec]) == 2
        captured = capsys.readouterr()
        assert "seed: 'path' must be a string" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("spec, kind, keys", [
        ({"kind": "ejection", "side": -1, "radius": 0.3}, "ejection", ["radius"]),
        ({"kind": "ejection", "side": -1, "radius": 0.3, "path": 5, "center": "x"}, "ejection",
         ["center", "path", "radius"]),
        ({"kind": "circle", "radius": 2.0, "side": 1}, "circle", ["side"]),
        ({"kind": "file", "radius": 0.3}, "file", ["radius"]),
        ({"kind": "kepler_guess", "side": -1, "radius": 0.3, "path": "loop.json"}, "kepler_guess", ["path"]),
    ], ids=["ejection_radius", "ejection_all", "circle_side", "file_radius", "kepler_guess_path"])
    def test_seed_keys_of_another_kind_rejected(self, tmp_path, capsys, spec, kind, keys):
        # dropped unread, they would seed another orbit than the one asked for
        if kind == "file":
            save_loop(seed_circle(0.0, 2.0, 64), tmp_path / "loop.json")
            spec = {**spec, "path": str(tmp_path / "loop.json")}
        cfg = write_config(tmp_path, {**EULER, "grid": {"n": 64, "m": 256}})
        assert run(["solve", "--config", cfg, "--seed", json.dumps(spec), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert f"unknown {kind!r} seed keys: {keys}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fields, name", [
        ({"electric": {"kind": "uniform_oscillating", "epsilon": float("nan")}}, "epsilon"),
        ({"electric": {"kind": "uniform_oscillating", "epsilon": 0.1, "d": [float("nan"), 0.0]}}, "d"),
        ({"magnetic": {"kind": "constant", "b": float("inf")}}, "b"),
        ({"electric": {"kind": "rotating_charge", "mu_s": 0.01, "r_s": 3.0, "theta0": -float("inf")}}, "theta0"),
    ], ids=["epsilon", "d", "b", "theta0"])
    @pytest.mark.parametrize("command", ["eval", "solve"])
    def test_non_finite_field_parameter_rejected(self, tmp_path, capsys, fields, name, command):
        # json reads NaN and Infinity as numbers; a field made of them is no field
        cfg = write_config(tmp_path, {"fields": {"mu": 0.5, **fields}, "grid": {"n": 64, "m": 256}})
        assert run([command, "--config", cfg, "--seed", '{"kind": "circle", "radius": 2}']) == 2
        captured = capsys.readouterr()
        assert f"{name} must be finite" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["diagnostics"].update(grad_norm=True), "'grad_norm' must be a number"),
            (lambda d: d["diagnostics"].update(phi_sup="3e-11"), "'phi_sup' must be a number"),
            (lambda d: d["diagnostics"].update(delay_sup=None), "'delay_sup' must be a number"),
            (lambda d: d["diagnostics"].update(gap="Inf"), "'gap' must be a number"),
            (lambda d: d["diagnostics"]["components"].update(H1=False), "'H1' must be a number"),
            (lambda d: d["diagnostics"]["components"].update(E="0"), "'E' must be a number"),
            (lambda d: d["q"].update(m=True), "'m' must be an integer"),
            (lambda d: d["q"].update(m=256.5), "'m' must be an integer"),
            (lambda d: d["q"].update(m=8), "an m of at least 16"),
            (lambda d: d["z"]["samples"][0].__setitem__(1, True), "a sample must be a number"),
            (lambda d: d["z"]["samples"][0].__setitem__(1, "0.5"), "a sample must be a number"),
        ],
        ids=["bool_grad_norm", "text_phi_sup", "null_delay_sup", "misspelt_infinity", "bool_component",
             "text_component", "bool_m", "fractional_m", "small_m", "bool_z_sample", "text_z_sample"],
    )
    def test_record_number_read_as_given(self, orbit_path, tmp_path, capsys, edit, message):
        # true is not read as 1, nor "3e-11" as a number: only the NaN and
        # infinity texts that dumps_canonical writes stand for numbers
        data = json.loads(orbit_path.read_text())
        edit(data)
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(data))
        assert run(["verify", record_path, "--quiet"]) == 2
        assert message in capsys.readouterr().err

    def test_record_with_a_contradicting_sector_rejected(self, orbit_path, tmp_path, capsys):
        # the top-level "twisted" must restate the z block's
        data = json.loads(orbit_path.read_text())
        data["twisted"] = not data["z"]["twisted"]
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(data))
        assert run(["verify", record_path, "--quiet"]) == 2
        assert "'twisted' is" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "plot", "integrate"])
    def test_loop_file_given_as_a_record_rejected(self, orbit_path, tmp_path, capsys, command):
        # the loop file that export writes is no record: a message, not a traceback
        loop_path = tmp_path / "loop.json"
        assert run(["export", orbit_path, "--out", loop_path]) == 0
        out = [] if command == "verify" else ["--out", tmp_path / "out"]
        assert run([command, loop_path, *out, "--quiet"]) == 2
        assert "malformed record: no 'z' key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["diagnostics"].pop("grad_norm") and d, "no 'grad_norm' key"),
            (lambda d: d["q"].pop("m") and d, "no 'm' key"),
            (lambda d: [d], "a JSON object is needed, not list"),
            (lambda d: {**d, "diagnostics": [1.0]}, "malformed record: list indices"),
        ],
        ids=["no_grad_norm", "no_m", "not_an_object", "diagnostics_not_an_object"],
    )
    def test_malformed_record_rejected(self, orbit_path, tmp_path, capsys, edit, message):
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(edit(json.loads(orbit_path.read_text()))))
        assert run(["verify", record_path, "--quiet"]) == 2
        assert message in capsys.readouterr().err

    def test_a_record_m_above_the_bound_is_refused(self, orbit_path, tmp_path, capsys, monkeypatch):
        # a file's m sets how large a q its first read builds: one above
        # loops.MAX_M is refused, naming the bound, before any is built
        def refused(*args):
            raise AssertionError("reconstruct was called")

        monkeypatch.setattr(loops, "reconstruct", refused)
        monkeypatch.setattr(solver, "reconstruct", refused)
        data = json.loads(orbit_path.read_text())
        data["q"]["m"] = 1125899906842624
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(data))
        assert run(["verify", record_path, "--quiet"]) == 2
        assert f"m must be at most MAX_M = {loops.MAX_M}, not 1125899906842624" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "integrate"])
    def test_m_flag_above_the_bound_is_refused(self, orbit_path, capsys, command):
        # the same bound holds for the grid a flag asks for
        source = [orbit_path] if command == "integrate" else ["--seed", '{"kind": "circle", "radius": 2}']
        assert run([command, *source, "--m", loops.MAX_M + 1, "--quiet"]) == 2
        assert f"m must be at most MAX_M = {loops.MAX_M}" in capsys.readouterr().err

    @staticmethod
    def refuse(monkeypatch, *targets):
        """Make each (module, name) raise when called, so that a test shows
        the grid was refused before anything was built at it."""

        def refused(*args, **kwargs):
            raise AssertionError("an array was built at the refused grid")

        for module, name in targets:
            monkeypatch.setattr(module, name, refused)

    @pytest.mark.parametrize("source", ["flag", "flag_far_above", "grid"])
    def test_a_loop_grid_above_the_bound_is_refused(self, tmp_path, capsys, monkeypatch, source):
        # a solve's (2n)^2 Hessian: an n above loops.MAX_N is refused,
        # naming the bound, before the seed is built
        self.refuse(monkeypatch, (cli, "make_seed"))
        n = 100000 if source == "flag_far_above" else loops.MAX_N + 1
        seed = '{"kind": "circle", "radius": 2}'
        if source == "grid":
            cfg = write_config(tmp_path, {"fields": {"mu": 0.5}, "grid": {"n": n}})
            argv = ["solve", "--config", cfg, "--seed", seed]
        else:
            argv = ["solve", "--seed", seed, "--n", n]
        assert run([*argv, "--quiet"]) == 2
        assert f"n must be at most MAX_N = {loops.MAX_N}, not {n}" in capsys.readouterr().err

    def test_grad_check_n_above_the_bound_is_refused(self, capsys, monkeypatch):
        self.refuse(monkeypatch, (cli, "_random_smooth_loop"))
        assert run(["grad-check", "--n", loops.MAX_N + 1, "--quiet"]) == 2
        assert f"--n must be at most MAX_N = {loops.MAX_N}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "plot", "integrate", "export", "eval", "solve"])
    def test_a_file_loop_above_the_bound_is_refused(self, orbit_path, tmp_path, capsys, monkeypatch, command):
        # a record, loop or seed file whose z has n above loops.MAX_N is
        # refused as it is read, before the dense n x n integration matrix
        self.refuse(monkeypatch, *((module, "integration_matrix") for module in (loops, action, selection)))
        data = json.loads(orbit_path.read_text())
        n = loops.MAX_N + 1
        data["z"]["samples"] = (data["z"]["samples"] * n)[:n]
        data["z"]["n"] = n
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data if command in ("verify", "plot", "integrate") else data["z"]))
        argv = {
            "verify": [path],
            "plot": [path, "--out", tmp_path / "out.svg"],
            "integrate": [path, "--out", tmp_path / "out.csv"],
            "export": [path, "--out", tmp_path / "loop.json"],
            "eval": [path],
            "solve": ["--seed", path, "--n", n - 1],
        }[command]
        assert run([command, *argv, "--quiet"]) == 2
        assert f"'n' must be at most MAX_N = {loops.MAX_N}, not {n}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, kind", [('"zebra"', "str"), ("null", "NoneType"), ("5", "int"), ("[1, 2]", "list")]
    )
    def test_export_of_a_file_that_is_no_object(self, tmp_path, capsys, text, kind):
        # neither a record nor a loop object: a message naming what was
        # read, not a traceback
        path = tmp_path / "not_an_object.json"
        path.write_text(text)
        assert run(["export", path, "--quiet"]) == 2
        assert f"a JSON object is needed, not {kind}" in capsys.readouterr().err

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
        ({"mu": 0.5}, '{"kind": "circle", "center": [1, 2, 3], "radius": 2}', "an [re, im] pair"),
        ({"mu": 0.5}, '{"kind": "circle", "center": [], "radius": 2}', "an [re, im] pair"),
        ({"mu": 0.5, "electric": {"kind": "uniform_oscillating", "epsilon": 0.1, "d": [0.5, 0.2, 9]}},
         '{"kind": "circle", "radius": 2}', "an [re, im] pair"),
    ], ids=["mu", "radius", "center_three", "center_empty", "d_three"])
    def test_bool_number_rejected(self, tmp_path, capsys, fields, seed, message):
        # true would run as mu = 1 or seed a circle of radius 1; a point is
        # not cut to its first two entries
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

    @pytest.mark.parametrize("command, flag, value, message", [
        ("eval", "--n", 0, "n must be a positive integer"),
        ("solve", "--m", -8, "m must be a positive integer"),
        ("solve", "--tol", 0, "g_tol must be positive"),
    ], ids=["n", "m", "tol"])
    def test_bad_flag_rejected(self, capsys, command, flag, value, message):
        # a flag given as 0 is rejected, not taken as absent
        seed = '{"kind": "circle", "radius": 2}'
        assert run([command, "--seed", seed, flag, value, "--quiet"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("verify", "--tol", 0),
        ("integrate", "--tol", "nan"),
        ("integrate", "--m", 0),
        ("grad-check", "--n", 0),
        ("grad-check", "--tol", 0),
    ])
    def test_own_flag_must_be_positive(self, orbit_path, capsys, command, flag, value):
        # checked as the command's own value, not as g_tol, and a 0 does not
        # fall through to the default
        argv = [command, flag, value, "--quiet"]
        if command != "grad-check":
            argv.insert(1, orbit_path)
        assert run(argv) == 2
        assert f"{flag} must be positive and finite" in capsys.readouterr().err


# The flags each command reads; any other is a usage error.
FLAGS = {
    "eval": {"--config", "--seed", "--n", "--out", "--quiet"},
    "grad-check": {"--n", "--tol", "--quiet"},
    "solve": {"--config", "--seed", "--n", "--m", "--tol", "--out", "--quiet"},
    "continue": {"--config", "--seed", "--n", "--m", "--tol", "--out", "--quiet"},
    "integrate": {"--m", "--tol", "--out", "--quiet"},
    "verify": {"--tol", "--quiet"},
    "plot": {"--out", "--quiet"},
    "export": {"--out", "--quiet"},
}
VALUES = {
    "--config": "run.json", "--seed": "loop.json", "--n": "7", "--m": "3",
    "--tol": "5", "--out": "out.json", "--twisted": "true",
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in FLAGS for flag in VALUES if flag not in FLAGS[command]
])
def test_flag_a_command_does_not_read_is_a_usage_error(command, flag, capsys):
    argv = [command, flag, VALUES[flag]]
    if command not in ("eval", "grad-check", "solve", "continue"):
        argv.insert(1, "orbit.json")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", FLAGS)
def test_help_lists_exactly_the_flags_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == FLAGS[command] | {"--help"}
