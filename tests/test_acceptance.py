"""End-to-end acceptance checks: closed-form oracles and cross-validation.

Each test prints a single summary line (visible even under output capture)
and enforces its own wall-clock budget.
"""

import time

import numpy as np
import pytest

from conftest import random_smooth_loop
from szbov import (
    DiscreteLoop,
    PhysicalLoop,
    SolveOptions,
    birkhoff_map,
    chain_rule_state,
    continue_family,
    eval_action,
    eval_components,
    eval_unregularized,
    grad_norm,
    gradient,
    integrate,
    involution,
    lift,
    pack,
    phi_profile,
    preset,
    reconstruct,
    seed_circle,
    seed_ejection,
    seed_kepler_guess,
    solve,
    verify_generalized,
    winding_report,
)
from szbov.action import _Nodes
from szbov.dynamics import _node_defect, _potential
from szbov.geometry import center_distance
from szbov.loops import EPS_NODE

OPTS = SolveOptions(n=128, m=512)

MATRIX = {
    "euler": preset("zero", mu=0.5),
    "magnetic": preset("constant", mu=0.5, b=0.5),
    "electric": preset("uniform_oscillating", mu=0.5, epsilon=0.01),
}

_cache = {}


def matrix_records():
    """Converged orbits of the shared test matrix (computed once)."""
    if "matrix" not in _cache:
        _cache["matrix"] = {
            name: solve(seed_kepler_guess(-1, 0.3, 128), cfg, OPTS)
            for name, cfg in MATRIX.items()
        }
    return _cache["matrix"]


def kepler_record():
    """Converged circular orbit of the one-center limit (computed once)."""
    if "kepler" not in _cache:
        _cache["kepler"] = solve(
            seed_kepler_guess(-1, 0.3, 128), preset("zero", mu=0.0), OPTS
        )
    return _cache["kepler"]


def report(capsys, n, budget, elapsed, detail):
    line = f"[criterion {n}] PASS: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)"
    with capsys.disabled():
        print(line)
    assert elapsed < budget, f"runtime budget exceeded: {elapsed:.1f}s >= {budget}s"


def test_criterion_01_gradient_matches_finite_differences(rng, capsys):
    t0 = time.perf_counter()
    magnetics = [("zero", {}), ("constant", {"b": 2.0})]
    electrics = [
        ("zero", {}),
        ("uniform_oscillating", {"epsilon": 0.1}),
        ("rotating_charge", {"mu_s": 0.01, "r_s": 3.0, "k": 1}),
    ]
    configs = []
    for mk, mkw in magnetics:
        for ek, ekw in electrics:
            from szbov import FieldConfig, electric_preset, magnetic_preset

            configs.append(
                FieldConfig(
                    mu=0.5,
                    magnetic=magnetic_preset(mk, **mkw),
                    electric=electric_preset(ek, **ekw),
                )
            )
    n = 256
    worst = 0.0
    for i in range(20):
        twisted = i % 2 == 1
        loop = random_smooth_loop(rng, n, twisted=twisted)
        v = random_smooth_loop(rng, n, twisted=twisted).samples - (1.9 + 0.4j)
        vx = np.concatenate([v.real, v.imag])
        for cfg in configs:
            analytic = float(pack(gradient(loop, cfg)) @ vx) / n
            best = np.inf
            for h in (1e-5, 1e-6, 1e-7):
                plus = DiscreteLoop(loop.samples + h * v, twisted=twisted)
                minus = DiscreteLoop(loop.samples - h * v, twisted=twisted)
                fd = (eval_action(plus, cfg) - eval_action(minus, cfg)) / (2 * h)
                best = min(best, abs(fd - analytic) / max(abs(analytic), 1e-12))
            worst = max(worst, best)
    assert worst < 1e-6, f"worst relative gradient error {worst:.3e}"
    report(capsys, 1, 30, time.perf_counter() - t0,
           f"20 loops x 6 field combos, worst rel error {worst:.1e} < 1e-6")


def test_criterion_02_pullback_identity(rng, capsys):
    t0 = time.perf_counter()
    cfg = preset("zero", mu=0.4)
    # (a) collision-free loops: the two evaluations agree to round-off
    worst = 0.0
    for i in range(10):
        twisted = i % 2 == 1
        if twisted:
            tau = np.arange(512) / 512
            wob = 0.1 * float(rng.normal(1.0, 0.2))
            z = np.exp(np.exp(1j * np.pi * tau) + wob * 1j * np.exp(-3j * np.pi * tau))
            loop = DiscreteLoop(samples=z, twisted=True)
        else:
            loop = DiscreteLoop(
                samples=3.8 + 0.5j + random_smooth_loop(rng, 512, scale=0.3).samples
                - (1.9 + 0.4j)
            )
        a_z = eval_action(loop, cfg)
        a_q = eval_unregularized(reconstruct(loop, 512), cfg)
        worst = max(worst, abs(a_q - a_z) / abs(a_z))
    assert worst < 1e-8, f"worst pullback mismatch {worst:.3e}"

    # (b) a loop whose physical trace grazes a center is under-resolved, and
    # the mismatch between the two quadratures shrinks >= 4x per refinement
    probe_rng = np.random.default_rng(3)
    k = np.arange(-8, 9)
    coef = (probe_rng.normal(0, 1, len(k)) + 1j * probe_rng.normal(0, 1, len(k))) * np.exp(
        -0.5 * np.abs(k)
    )
    big = 2048
    tau = np.arange(big) / big
    z_fine = 2.2 + 0.3j + 0.5 * sum(
        c * np.exp(2j * np.pi * kk * tau) for c, kk in zip(coef, k)
    )
    errs = []
    for n in (512, 1024):
        loop = DiscreteLoop(z_fine[:: big // n])
        a_z = eval_action(loop, cfg)
        a_q = eval_unregularized(reconstruct(loop, n), cfg)
        errs.append(abs(a_q - a_z) / abs(a_z))
    ratio = errs[0] / errs[1]
    assert ratio >= 4.0, f"refinement ratio {ratio:.2f}"
    report(capsys, 2, 10, time.perf_counter() - t0,
           f"10 loops rel error {worst:.1e} < 1e-8; refinement ratio {ratio:.1f} >= 4")


def test_criterion_03_involution_symmetry(rng, capsys):
    t0 = time.perf_counter()
    cfg = preset("zero", mu=0.3)
    worst_val, worst_grad = 0.0, 0.0
    for _ in range(100):
        loop = random_smooth_loop(rng, 256, scale=0.15)
        z = loop.samples
        mirrored = DiscreteLoop(involution(z))
        a = eval_action(loop, cfg)
        worst_val = max(worst_val, abs(eval_action(mirrored, cfg) - a) / abs(a))
        g = gradient(loop, cfg)
        gi = gradient(mirrored, cfg)
        pred = -gi / np.conj(z**2)
        worst_grad = max(
            worst_grad, float(grad_norm(g - pred) / max(grad_norm(g), 1e-300))
        )
    assert worst_val < 1e-12, f"value symmetry error {worst_val:.3e}"
    assert worst_grad < 1e-10, f"gradient equivariance error {worst_grad:.3e}"
    report(capsys, 3, 5, time.perf_counter() - t0,
           f"100 loops: value {worst_val:.1e} < 1e-12, gradient {worst_grad:.1e} < 1e-10")


def test_criterion_04_kepler_limit(capsys):
    t0 = time.perf_counter()
    rec = kepler_record()
    assert rec.iterations <= 50, f"{rec.iterations} iterations"
    radius = (4 * np.pi**2) ** (-1.0 / 3.0)
    action = 1.5 * (4 * np.pi**2) ** (1.0 / 3.0)
    r = np.abs(rec.q.samples + 1.0)
    rad_err = float(np.max(np.abs(r - radius)) / radius)
    act_err = abs(rec.action - action) / action
    assert rad_err < 1e-6, f"radius error {rad_err:.3e}"
    assert act_err < 1e-6, f"action error {act_err:.3e}"
    report(capsys, 4, 20, time.perf_counter() - t0,
           f"{rec.iterations} iterations, radius err {rad_err:.1e}, action err {act_err:.1e}")


def test_criterion_05_four_way_equivalence(capsys):
    t0 = time.perf_counter()
    details = []
    for name, rec in matrix_records().items():
        cfg = MATRIX[name]
        assert rec.grad_norm < 1e-9, f"{name}: grad_norm {rec.grad_norm:.3e}"
        assert rec.delay_sup < 1e-6, f"{name}: delay residual {rec.delay_sup:.3e}"
        assert rec.phi_sup < 1e-6, f"{name}: energy defect {rec.phi_sup:.3e}"
        ver = verify_generalized(rec, cfg, tol=1e-5)
        assert ver.ok, f"{name}: {ver.checks}"
        details.append(f"{name} grad {rec.grad_norm:.1e}")
    report(capsys, 5, 120, time.perf_counter() - t0, "; ".join(details))


def test_electric_phi_sup_is_the_sup_over_verifys_usable_nodes():
    # the n=128 electric orbit has one node 3.4e-6 from a center, inside
    # EPS_NODE, where its chain-rule speed is ~540: counted, that node's
    # kinetic energy would set the energy scale, and phi_sup would read
    # 1.6e-11.  phi_sup is the defect's sup over the nodes that verify
    # starts from, those farther than EPS_NODE from both centers
    rec = matrix_records()["electric"]
    cfg = MATRIX["electric"]
    nodes = _Nodes(rec.z.samples, rec.z.twisted, cfg)
    dist = center_distance(nodes.q)
    assert np.any((dist > 5e-13) & (dist <= EPS_NODE))
    usable = dist > EPS_NODE
    q, qdot = nodes.q[usable], nodes.qdot[usable]
    kin = 0.5 * np.abs(qdot) ** 2
    u = _potential(q, cfg.mu)
    phi = rec.C - kin - u - nodes.tail[usable] - nodes.e[usable]
    expected = np.max(np.abs(phi)) / np.max(np.abs(rec.C) + kin + np.abs(u))
    assert rec.phi_sup == pytest.approx(expected, rel=1e-12)
    assert rec.phi_sup < 1e-12


def test_criterion_06_oracle_cross_integration(capsys):
    pool = dict(matrix_records(), kepler=kepler_record())
    t0 = time.perf_counter()
    checked = []
    for name, rec in pool.items():
        dist = np.min(np.minimum(np.abs(rec.q.samples - 1), np.abs(rec.q.samples + 1)))
        if dist <= 1e-2:
            continue  # collisional trace: the RK oracle cannot follow it
        q0, v0 = chain_rule_state(rec.z)
        times = np.arange(rec.q.m + 1) / rec.q.m
        traj = integrate(q0[0], v0[0], 0.0, 1.0, rec.cfg, tol=1e-10, sample_times=times)
        assert traj.terminated == "completed", f"{name}: {traj.terminated}"
        closed = np.concatenate([rec.q.samples, rec.q.samples[:1]])
        sup = float(np.max(np.abs(traj.positions - closed)))
        assert sup < 1e-5, f"{name}: sup reintegration error {sup:.3e}"
        checked.append(f"{name} {sup:.1e}")
    assert checked, "no collision-free orbit in the matrix"
    report(capsys, 6, 30, time.perf_counter() - t0,
           f"re-integrated {len(checked)} orbits: " + "; ".join(checked))


def test_criterion_07_energy_defect_mean_zero(rng, capsys):
    t0 = time.perf_counter()
    cfg = preset("uniform_oscillating", mu=0.5, epsilon=0.1)
    worst = 0.0
    for _ in range(100):
        loop = random_smooth_loop(rng, 64)
        prof = phi_profile(reconstruct(loop, 128), cfg, z_loop=loop)
        worst = max(worst, abs(prof.mean_phi))
    assert worst < 1e-10, f"worst |mean| {worst:.3e}"
    report(capsys, 7, 5, time.perf_counter() - t0,
           f"100 loops, worst |mean defect| {worst:.1e} < 1e-10")


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("cfg", [preset("zero", mu=0.3), preset("constant", mu=0.5, b=2.0)], ids=["zero", "constant"])
def test_node_defect_mean_vanishes_at_the_breakdowns_C(rng, cfg, twisted):
    # criterion 7 takes the mean-removing C; with C from the breakdown, the
    # weighted node mean of the defect, mean_j (w_j/F) phi_j, is 0 for any
    # loop where the field has no time dependence
    worst = 0.0
    for _ in range(30):
        loop = random_smooth_loop(rng, 64, twisted=twisted)
        nodes = _Nodes(loop.samples, loop.twisted, cfg)
        c_const = nodes.breakdown().C
        phi = _node_defect(nodes, c_const)[0]
        worst = max(worst, abs(float(np.mean(nodes.w / nodes.f * phi))) / abs(c_const))
    assert worst < 1e-12, f"worst relative mean {worst:.3e}"


def test_criterion_08_collision_regularity(capsys):
    t0 = time.perf_counter()
    cfg = preset("zero", mu=0.5)
    loop = seed_circle(0.0, 1.0, 64)
    b = eval_components(loop, cfg)
    assert b.F == pytest.approx(0.5, abs=1e-10)
    assert b.G == pytest.approx(2 * np.pi**2, abs=1e-10)
    assert b.H1 == pytest.approx(1.0, abs=1e-10)
    assert b.H2 == pytest.approx(1.0, abs=1e-10)
    g = gradient(loop, cfg)
    assert np.all(np.isfinite(g))
    rec = solve(loop, cfg, SolveOptions(n=64, m=256))
    assert rec.grad_norm < 1e-9
    report(capsys, 8, 5, time.perf_counter() - t0,
           f"unit circle: components at closed forms, solve in {rec.iterations} iterations")


def test_criterion_09_branched_cover_winding(capsys):
    t0 = time.perf_counter()
    tau = np.arange(256) / 256
    z = 1.0 + 0.1 * np.exp(2j * np.pi * tau)
    image = birkhoff_map(z)
    rep = winding_report(image)
    assert (rep.around_plus_one, rep.around_minus_one) == (2, 0)
    odd = PhysicalLoop(samples=-1.0 + 0.3 * np.exp(2j * np.pi * np.arange(512) / 512))
    assert lift(odd).twisted
    report(capsys, 9, 5, time.perf_counter() - t0,
           "double winding at the branch point; odd-winding lift is twisted")


def test_criterion_10_continuation_robustness(capsys):
    t0 = time.perf_counter()

    start_mu = solve(seed_ejection(-1, 128), preset("zero", mu=0.0), OPTS)
    mu_path = [preset("zero", mu=v) for v in np.linspace(0.01, 0.2, 20)]
    mu_family = continue_family(start_mu, mu_path, OPTS)
    assert len(mu_family) == 21, f"mass-ratio family stopped at {len(mu_family) - 1} steps"
    mu_worst = max(r.iterations for r in mu_family[1:])
    assert mu_worst <= 50, f"mass-ratio step took {mu_worst} iterations"

    start_eps = matrix_records()["euler"]
    eps_path = [
        preset("uniform_oscillating", mu=0.5, epsilon=e)
        for e in np.linspace(0.001, 0.01, 10)
    ]
    eps_family = continue_family(start_eps, eps_path, OPTS)
    assert len(eps_family) == 11, f"field-strength family stopped at {len(eps_family) - 1} steps"
    eps_worst = max(r.iterations for r in eps_family[1:])
    assert eps_worst <= 50, f"field-strength step took {eps_worst} iterations"

    for family in (mu_family, eps_family):
        for rec in family:
            assert rec.grad_norm < 1e-9
        end = family[-1]
        assert end.delay_sup < 1e-6, f"endpoint delay residual {end.delay_sup:.3e}"
        assert end.phi_sup < 1e-6, f"endpoint energy defect {end.phi_sup:.3e}"
        ver = verify_generalized(end, end.cfg, tol=1e-5)
        assert ver.ok, str(ver.checks)

    report(capsys, 10, 180, time.perf_counter() - t0,
           f"20 mass-ratio steps (max {mu_worst} its) + 10 field steps (max {eps_worst} its)")
