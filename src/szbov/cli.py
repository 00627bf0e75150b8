"""Batch front end: configuration, subcommands, result archive, figures.

Subcommands
-----------
eval        component breakdown of the regularized functional on a loop
grad-check  analytic-vs-finite-difference gradient self test
solve       find one critical point and archive it as an orbit record
continue    secant-predictor continuation along a list of field configs
integrate   re-integrate a converged orbit with the adaptive RK oracle (CSV)
verify      run the generalized-solution checks on an archived orbit
plot        emit an SVG figure (blown-up curve and physical curve)
export      extract the blown-up loop of an archive so it can reseed a run

Each command takes only the flags it reads (``build_parser``); any other is
a usage error.  Only eval, solve and continue read a run configuration; the
orbit commands take the fields from the record.  --tol is g_tol for solve
and continue, and the command's own tolerance elsewhere.

Exit codes: 0 success, 2 validation failure, 3 no convergence, 4 I/O failure.
All floating-point output is serialized with 17 significant digits so that
identical inputs produce byte-identical archives, for a fixed BLAS thread
count: the thread count can change the solver's iteration count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from .action import _Nodes, _components_to_dict, eval_action, eval_components, gradient, pack
from .dynamics import SingularityError, _arc_runs, _arcs, verify_generalized
from .fields import FieldConfig, FieldConfigError, config_from_dict, preset
from .loops import (
    DiscreteLoop,
    LoopError,
    double_cover,
    dumps_canonical,
    load_loop,
    loop_from_dict,
    loop_to_dict,
    _read_json,
)
from .solver import (
    NoConvergenceError,
    SolveError,
    SolveOptions,
    continue_family,
    make_seed,
    record_from_dict,
    solve,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

_CONFIG_KEYS = {"fields", "grid", "solver", "seed", "out", "path"}
_DEFAULT_SEED = {"kind": "kepler_guess", "side": -1, "radius": 0.3}


# ------------------------------------------------------------------ output


def _write_text(path, text: str, quiet: bool) -> None:
    if path is None:
        if not quiet:
            print(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# ------------------------------------------------------------- configuration


@dataclasses.dataclass
class RunConfig:
    """Resolved run configuration: fields, grids, solver options, seed spec."""

    cfg: FieldConfig
    opts: SolveOptions = dataclasses.field(default_factory=SolveOptions)
    seed_spec: dict = dataclasses.field(default_factory=lambda: dict(_DEFAULT_SEED))
    out: str | None = None
    path: list = dataclasses.field(default_factory=list)


def load_run_config(args) -> RunConfig:
    """Merge the config file (if any) with the command's flags: ``eval``
    reads --config, --seed, --n and --out; ``solve`` and ``continue`` also
    --m and --tol."""
    data = {}
    if args.config:
        data = _read_json(args.config)
        if not isinstance(data, dict):
            raise FieldConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise FieldConfigError(f"unknown config keys: {sorted(unknown)}")

    cfg = config_from_dict(data.get("fields", {"mu": 0.5}))

    grid = dict(_config_block(data, "grid", dict, {}))
    unknown = set(grid) - {"n", "m"}
    if unknown:
        raise FieldConfigError(f"unknown grid keys: {sorted(unknown)}")
    # read as given: SolveOptions rejects a value that is not a positive integer
    n = grid.get("n", SolveOptions.n)
    m = grid.get("m", SolveOptions.m)

    solver_block = dict(_config_block(data, "solver", dict, {}))
    # n and m are SolveOptions fields too, but they are set from the grid
    option_names = {f.name for f in dataclasses.fields(SolveOptions)} - {"n", "m"}
    unknown = set(solver_block) - option_names
    if unknown:
        hint = " (n and m belong under 'grid')" if unknown & {"n", "m"} else ""
        raise FieldConfigError(f"unknown solver keys: {sorted(unknown)}{hint}")

    seed_spec = data.get("seed", dict(_DEFAULT_SEED))
    out = _config_block(data, "out", str, None)
    path = [config_from_dict(block) for block in _config_block(data, "path", list, [])]

    # a flag given as 0 is rejected by SolveOptions below, not ignored
    if args.n is not None:
        n = args.n
    if getattr(args, "m", None) is not None:
        m = args.m
    if getattr(args, "tol", None) is not None:
        solver_block["g_tol"] = args.tol
    if args.seed:
        seed_spec = _parse_seed_flag(args.seed)
    if args.out:
        out = args.out

    try:
        opts = SolveOptions(n=n, m=m, **solver_block)
    except TypeError as exc:
        raise FieldConfigError(f"bad solver options: {exc}")
    return RunConfig(cfg=cfg, opts=opts, seed_spec=seed_spec, out=out, path=path)


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _config_block(data: dict, key: str, kind: type, default):
    """data[key], which must be JSON of the given kind, or default where the
    key is absent."""
    value = data.get(key, default)
    if key in data and not isinstance(value, kind):
        raise FieldConfigError(f"config: {key!r} must be {_JSON_KINDS[kind]}, not {value!r}")
    return value


def _parse_seed_flag(text: str) -> dict:
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise LoopError(f"--seed: invalid JSON: {exc.msg}")
    return {"kind": "file", "path": text}


def _positive(args, flag: str, default):
    """The value of --flag, or default where it is not given.  A value given
    must be positive and finite: a 0 is rejected, not taken as absent."""
    value = getattr(args, flag)
    if value is None:
        return default
    if not 0 < value < np.inf:
        raise ValueError(f"--{flag} must be positive and finite, not {value!r}")
    return value


# ----------------------------------------------------------------- commands


def cmd_eval(args) -> int:
    run = load_run_config(args)
    if args.loop:
        # the file brings its own loop: a seed flag would be dropped unread
        if args.seed or args.n is not None:
            raise ValueError("eval takes a loop file or --seed and --n, not both")
        loop = load_loop(args.loop)
    else:
        loop = make_seed(run.seed_spec, n=run.opts.n)
    b = eval_components(loop, run.cfg)
    components = _components_to_dict(b)
    lines = [f"{key:<2} = {value:.12g}" for key, value in components.items()]
    lines += [f"total = {b.total:.12g}", f"C  = {b.C:.12g}"]
    if not args.quiet:
        print("\n".join(lines))
    if run.out:
        payload = {"components": components, "total": b.total, "C": b.C}
        _write_text(run.out, dumps_canonical(payload), args.quiet)
    return EXIT_OK


def _random_smooth_loop(rng, n: int, twisted: bool) -> DiscreteLoop:
    """Band-limited random loop away from the origin and the centers: plain,
    1.8 + 0.4i plus harmonics |k| <= 3; twisted, z = exp(g) with g = 1.2
    exp(i pi tau) plus odd half-harmonics, antiperiodic, so that
    z(tau + 1) = 1/z(tau)."""
    k = np.arange(-3, 4)
    coef = rng.normal(0, 0.25, len(k)) + 1j * rng.normal(0, 0.25, len(k))
    tau = np.arange(n) / n
    if twisted:
        odd = k % 2 == 1
        g = 1.2 * np.exp(1j * np.pi * tau) + 0.6 * np.exp(1j * np.pi * np.outer(tau, k[odd])) @ coef[odd]
        return DiscreteLoop(samples=np.exp(g), twisted=True)
    z = 1.8 + 0.4j + sum(c * np.exp(2j * np.pi * kk * tau) for c, kk in zip(coef, k))
    return DiscreteLoop(samples=z)


def cmd_grad_check(args) -> int:
    n = _positive(args, "n", 64)
    tol = _positive(args, "tol", 1e-6)
    rng = np.random.default_rng(7)
    configs = [
        preset("zero", mu=0.3),
        preset("constant", mu=0.5, b=2.0),
        preset("uniform_oscillating", mu=0.5, epsilon=0.1),
        preset("rotating_charge", mu=0.5, mu_s=0.01, r_s=3.0, k=1),
    ]
    worst = 0.0
    for cfg in configs:
        for twisted in (False, True):
            for _ in range(3):
                loop = _random_smooth_loop(rng, n, twisted)
                other = _random_smooth_loop(rng, n, twisted).samples
                # a twisted loop exp(g) moves along z dg, dg antiperiodic, so
                # that the perturbed loop is twisted too
                direction = loop.samples * np.log(other) if twisted else other - 1.8 - 0.4j
                # the discrete gradient pairs against perturbations through
                # the mean-value quadrature, hence the 1/n weight
                g = pack(gradient(loop, cfg))
                analytic = float(
                    g @ np.concatenate([direction.real, direction.imag])
                ) / n
                best = np.inf
                for h in (1e-4, 1e-5, 1e-6, 1e-7):
                    plus = DiscreteLoop(loop.samples + h * direction, twisted=twisted)
                    minus = DiscreteLoop(loop.samples - h * direction, twisted=twisted)
                    fd = (eval_action(plus, cfg) - eval_action(minus, cfg)) / (2 * h)
                    best = min(best, abs(fd - analytic) / max(abs(analytic), 1e-12))
                worst = max(worst, best)
    ok = worst < tol
    if not args.quiet:
        print(f"max relative gradient error: {worst:.3e} (tolerance {tol:.1e})")
        print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_solve(args) -> int:
    run = load_run_config(args)
    seed = make_seed(run.seed_spec, n=run.opts.n)
    record = solve(seed, run.cfg, run.opts)
    text = dumps_canonical(record.to_dict())
    _write_text(run.out, text, quiet=run.out is None and args.quiet)
    if not args.quiet:
        print(
            f"converged in {record.iterations} iterations: "
            f"action={record.action:.10g} grad_norm={record.grad_norm:.3e} "
            f"delay_sup={record.delay_sup:.3e} phi_sup={record.phi_sup:.3e}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_continue(args) -> int:
    run = load_run_config(args)
    if not run.path:
        raise FieldConfigError("continue requires a 'path' list in the config")
    seed = make_seed(run.seed_spec, n=run.opts.n)
    start = solve(seed, run.cfg, run.opts)
    family = continue_family(start, run.path, run.opts)
    payload = {"family": [rec.to_dict() for rec in family]}
    _write_text(run.out, dumps_canonical(payload), quiet=run.out is None and args.quiet)
    if not args.quiet:
        steps = ", ".join(str(rec.iterations) for rec in family)
        print(f"{len(family)} converged records (iterations: {steps})", file=sys.stderr)
    return EXIT_OK


def cmd_integrate(args) -> int:
    m = _positive(args, "m", SolveOptions.m)
    tol = _positive(args, "tol", 1e-10)
    record = record_from_dict(_read_json(args.orbit))
    nodes = _Nodes(record.z.samples, record.z.twisted, record.cfg)
    states = {}
    for ta, tb in _arcs(record.q.collision_times):
        for traj in _arc_runs(nodes, np.isfinite(nodes.qdot), m, ta, tb, 0.0, tol):
            states.update(zip(traj.times, zip(traj.positions, traj.velocities)))
            if not args.quiet and traj.terminated != "completed":
                print(f"integration terminated early: {traj.terminated}", file=sys.stderr)
    rows = ["t,q_re,q_im,v_re,v_im"] + [
        f"{t:.17g},{q.real:.17g},{q.imag:.17g},{v.real:.17g},{v.imag:.17g}" for t, (q, v) in sorted(states.items())
    ]
    _write_text(args.out, "\n".join(rows), args.quiet)
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = _positive(args, "tol", 1e-5)
    record = record_from_dict(_read_json(args.orbit))
    report = verify_generalized(record, record.cfg, tol=tol)
    if not args.quiet:
        print(report)
    return EXIT_OK if report.ok else EXIT_NO_CONVERGENCE


def _svg_path(points, scale: float, offset_x: float, offset_y: float) -> str:
    cmds = []
    for j, p in enumerate(points):
        x = offset_x + scale * p.real
        y = offset_y - scale * p.imag
        cmds.append(f"{'M' if j == 0 else 'L'} {x:.2f} {y:.2f}")
    cmds.append("Z")
    return " ".join(cmds)


def cmd_plot(args) -> int:
    record = record_from_dict(_read_json(args.orbit))
    zc = double_cover(record.z)
    qc = record.q.samples
    size, half = 420.0, 210.0
    extent = max(
        1.5,
        float(np.max(np.abs(zc.real))),
        float(np.max(np.abs(zc.imag))),
        float(np.max(np.abs(qc.real))),
        float(np.max(np.abs(qc.imag))),
    )
    scale = (half - 20.0) / extent
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {2 * size:.0f} {size:.0f}">',
        f'<circle cx="{half - scale:.2f}" cy="{half:.2f}" r="3" fill="black"/>',
        f'<circle cx="{half + scale:.2f}" cy="{half:.2f}" r="3" fill="black"/>',
        f'<circle cx="{half:.2f}" cy="{half:.2f}" r="{scale:.2f}" fill="none" '
        'stroke="gray" stroke-dasharray="6 4"/>',
        f'<path d="{_svg_path(zc, scale, half, half)}" fill="none" stroke="crimson"/>',
        f'<circle cx="{size + half - scale:.2f}" cy="{half:.2f}" r="3" fill="black"/>',
        f'<circle cx="{size + half + scale:.2f}" cy="{half:.2f}" r="3" fill="black"/>',
        f'<path d="{_svg_path(qc, scale, size + half, half)}" fill="none" '
        'stroke="steelblue"/>',
        "</svg>",
    ]
    _write_text(args.out or "orbit.svg", "\n".join(parts), args.quiet)
    return EXIT_OK


def cmd_export(args) -> int:
    data = _read_json(args.orbit)
    loop = loop_from_dict(data["z"] if "z" in data and isinstance(data["z"], dict) else data)
    _write_text(args.out, dumps_canonical(loop_to_dict(loop)), args.quiet)
    return EXIT_OK


# --------------------------------------------------------------- entry point


# The flags: each command takes --quiet and those of the others it reads
_FLAGS = {
    "config": dict(help="run configuration JSON"),
    "seed": dict(help="seed spec (JSON object or loop file path)"),
    "n": dict(type=int, help="loop grid size"),
    "m": dict(type=int, help="physical grid size"),
    "tol": dict(type=float, help="tolerance"),
    "out": dict(help="output path (stdout when omitted)"),
    "quiet": dict(action="store_true"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szbov",
        description="Periodic-orbit solver for planar two-center Stark-Zeeman systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, text, *flags):
        p = sub.add_parser(name, help=text)
        for flag in (*flags, "quiet"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    p = add("eval", cmd_eval, "component breakdown of the functional", "config", "seed", "n", "out")
    p.add_argument("loop", nargs="?", help="loop JSON file (defaults to the seed)")
    add("grad-check", cmd_grad_check, "gradient self test", "n", "tol")
    add("solve", cmd_solve, "find one critical point", "config", "seed", "n", "m", "tol", "out")
    add("continue", cmd_continue, "parameter continuation", "config", "seed", "n", "m", "tol", "out")
    p = add("integrate", cmd_integrate, "RK re-integration of an orbit (CSV)", "m", "tol", "out")
    p.add_argument("orbit", help="orbit record JSON")
    p = add("verify", cmd_verify, "generalized-solution checks", "tol")
    p.add_argument("orbit", help="orbit record JSON")
    p = add("plot", cmd_plot, "SVG figure of an orbit", "out")
    p.add_argument("orbit", help="orbit record JSON")
    p = add("export", cmd_export, "extract the blown-up loop of an archive", "out")
    p.add_argument("orbit", help="orbit record or loop JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (FieldConfigError, LoopError, SingularityError, SolveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
