"""The three workloads: set-up, one round of items, and the checks.

Every call into the program goes through a module attribute (`sz.solve`,
`sz_cli.dumps_canonical`) so that the traced run sees it.  A round runs each
item through `Round.item`, which times it (less the time of the speed
sampler's handler, when one runs); the checks after an item run outside that
timed span and compare against computations made apart from the item or
against properties the method must have.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import szbov as sz
import szbov.cli as sz_cli

from cases import FAMILY, FINE, G_TOL, M, MATRIX, N

ARCHIVES = Path(__file__).resolve().parent / "archives"
OPTS = sz.SolveOptions(n=N, m=M, g_tol=G_TOL)
VERIFY_TOL = 1e-5
KEPLER_RADIUS = (4 * np.pi**2) ** (-1.0 / 3.0)
KEPLER_ACTION = 1.5 * (4 * np.pi**2) ** (1.0 / 3.0)


class Round:
    """Item timings, failures and check results of one round."""

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []
        self.iterations = 0

    def item(self, item_id, fn, *args):
        """Run one item and time it; an exception counts the item as failed."""
        self.attempted += 1
        busy = self.sampler.busy_s if self.sampler else 0.0
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args)
            with self.tracer.item(item_id):
                return fn(*args)
        except Exception as exc:  # a failed item is counted, the round goes on
            self.failed += 1
            self.errors.append(f"{item_id}: item failed: {exc!r}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self.sampler:
                elapsed -= self.sampler.busy_s - busy
            self.times.append(elapsed)

    def skip(self, count):
        """Items that cannot run because an earlier one failed."""
        self.attempted += count
        self.failed += count

    def check(self, ok, item_id, what):
        if not ok:
            self.problems.append(f"{item_id}: check failed: {what}")


def _config(case):
    return sz.config_from_dict(case["fields"])


def _check_solution(r, item_id, rec, cfg):
    """Properties every converged orbit has, recomputed from its loop."""
    gn = sz.grad_norm(sz.gradient(rec.z, cfg))
    r.check(gn < G_TOL, item_id, f"gradient norm {gn:.3e}")
    breakdown = sz.eval_components(rec.z, cfg)
    delay = sz.delay_residual(rec.z, cfg).sup_relative
    r.check(delay < 1e-6, item_id, f"delay residual {delay:.3e}")
    phi = sz.phi_profile(rec.q, cfg, C=breakdown.C, z_loop=rec.z).sup_phi_relative
    r.check(phi < 1e-6, item_id, f"energy defect {phi:.3e}")
    report = sz.verify_generalized(rec, cfg, tol=VERIFY_TOL)
    r.check(report.ok, item_id, f"verify_generalized: {report.checks}")
    return breakdown


class MatrixSolve:
    """Cold solves from the rough test seeds, each archived as `szbov solve`
    writes it.  The seed sets the order of the items in a round."""

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.cases = {}
        for name, case in MATRIX.items():
            cfg = _config(case)
            loop = sz.make_seed(case["seed"], n=N)
            # warm the integration_matrix cache and the FFT plans
            sz.time_map(loop)
            sz.gradient(loop, cfg)
            self.cases[name] = (loop, cfg)
        self.order = [list(MATRIX)[i] for i in rng.permutation(len(MATRIX))]

    @staticmethod
    def _solve(loop, cfg):
        rec = sz.solve(loop, cfg, OPTS)
        return rec, sz_cli.dumps_canonical(rec.to_dict())

    def run_round(self, r):
        for name in self.order:
            loop, cfg = self.cases[name]
            out = r.item(name, self._solve, loop, cfg)
            if out is None:
                continue
            rec, text = out
            r.iterations += rec.iterations
            breakdown = _check_solution(r, name, rec, cfg)
            back = sz.record_from_dict(json.loads(text))
            r.check(
                back.twisted == rec.twisted and np.array_equal(back.z.samples, rec.z.samples),
                name, "archive round trip changed z",
            )
            if name == "kepler":
                radius = np.max(np.abs(np.abs(rec.q.samples + 1.0) - KEPLER_RADIUS)) / KEPLER_RADIUS
                action = abs(breakdown.total - KEPLER_ACTION) / KEPLER_ACTION
                r.check(radius < 1e-6, name, f"Kepler radius error {radius:.3e}")
                r.check(action < 1e-6, name, f"Kepler action error {action:.3e}")
            if name == "unit_circle":
                # |z| = 1 with nonzero winding about 0 means the loop sweeps the
                # whole unit circle, so it passes through both branch points
                # (both centers): a collision orbit
                z = rec.z.samples
                off = float(np.max(np.abs(np.abs(z) - 1.0)))
                r.check(off < 1e-6, name, f"max ||z| - 1| = {off:.3e}")
                r.check(sz.winding(z, 0.0) != 0, name, "no winding about 0, so no collisions")


class Continuation:
    """Criterion 10's mass-ratio family; the start orbit is solved in set-up.
    The family is fixed, so the seed changes nothing in this workload."""

    def setup(self, seed):
        self.path = [sz.config_from_dict(block) for block in FAMILY["path"]]
        self.start = sz.solve(sz.make_seed(FAMILY["seed"], n=N), _config(FAMILY), OPTS)

    def run_round(self, r):
        prev = self.start
        prev_parts = sz.eval_components(prev.z, prev.cfg)
        action = abs(prev_parts.total - KEPLER_ACTION) / KEPLER_ACTION
        r.check(action < 1e-6, "start", f"rectilinear Kepler action error {action:.3e}")
        for k, cfg in enumerate(self.path):
            item_id = f"mu={cfg.mu:.2f}"
            family = r.item(item_id, sz.continue_family, prev, [cfg], OPTS)
            if family is None:
                r.skip(len(self.path) - k - 1)
                return
            rec = family[-1]
            r.iterations += rec.iterations
            gn = sz.grad_norm(sz.gradient(rec.z, cfg))
            r.check(gn < G_TOL, item_id, f"gradient norm {gn:.3e}")
            # envelope identity dA/dmu = (H2 - H1)/F along the family, by the
            # trapezoid rule; its truncation error is O(dmu^2) relative
            parts = sz.eval_components(rec.z, cfg)
            dmu = cfg.mu - prev.cfg.mu
            change = parts.total - prev_parts.total
            slope = 0.5 * ((prev_parts.H2 - prev_parts.H1) / prev_parts.F
                           + (parts.H2 - parts.H1) / parts.F)
            err = abs(change - dmu * slope) / abs(change)
            r.check(err < dmu**2, item_id, f"envelope identity error {err:.3e}")
            prev, prev_parts = rec, parts
        report = sz.verify_generalized(prev, prev.cfg, tol=VERIFY_TOL)
        r.check(report.ok, "endpoint", f"verify_generalized: {report.checks}")


def _band(rng, harmonics, period=1.0):
    """Band-limited periodic signal at FINE samples whose coefficients have
    unit l1 norm, so its modulus never exceeds 1."""
    tau = np.arange(FINE) / FINE
    c = rng.normal(size=len(harmonics)) + 1j * rng.normal(size=len(harmonics))
    c *= np.exp(-0.5 * np.abs(harmonics))
    c /= np.sum(np.abs(c))
    return np.exp(2j * np.pi * np.outer(tau, harmonics) / period) @ c


def seeded_loops(seed):
    """Three band-limited loops at n = FINE, kept clear of the centers by
    construction: plain, twisted, and one grazing the center +1."""
    rng = np.random.default_rng(seed)
    tau = np.arange(FINE) / FINE
    circle = np.exp(2j * np.pi * tau)
    plain = 3.8 + 0.5j + 0.8 * circle + 0.6 * _band(rng, np.arange(-3, 4))
    # exp of a signal odd under tau -> tau + 1 is twisted: z(tau + 1) = 1/z(tau);
    # |exponent| stays in [0.85, 1.15], away from 0 and i*pi, so z avoids +-1
    twisted = np.exp(np.exp(1j * np.pi * tau) + 0.15 * _band(rng, 2 * np.arange(-2, 3) + 1, 2.0))
    # unit circle whose nearest point lies 0.7 +- 0.07 from z = 1
    gap = 0.7
    toward = np.exp(1j * rng.uniform(-0.5, 0.5))
    graze = 1.0 + (1.0 + gap) * toward - toward * circle + 0.1 * gap * _band(rng, np.arange(-3, 4))
    return {
        "plain": sz.DiscreteLoop(plain),
        "twisted": sz.DiscreteLoop(twisted, twisted=True),
        "graze": sz.DiscreteLoop(graze),
    }


ORBIT_ARCHIVES = [*MATRIX, "mu_family_end"]
PULLBACK_CFG = sz.preset("zero", mu=0.4)


class ReconstructVerify:
    """Post-processing with no solve: band-limited loops through reconstruct,
    lift and the pullback identity, and archived orbits through reconstruct
    at FINE, verify_generalized, phi_profile and delay_residual.  The seed
    makes the loops."""

    def setup(self, seed):
        self.loops = seeded_loops(seed)
        self.texts = {name: (ARCHIVES / f"{name}.json").read_text() for name in ORBIT_ARCHIVES}
        # warm integration_matrix at the loops' and the archived orbits' grids
        for loop in self.loops.values():
            sz.time_map(loop)
        sz.time_map(sz.seed_circle(3.0, 1.0, N))

    @staticmethod
    def _loop_item(loop):
        q = sz.reconstruct(loop, FINE)
        back = sz.lift(q)
        again = sz.reconstruct(back, FINE)
        return q, back, again, sz.eval_action(loop, PULLBACK_CFG), sz.eval_unregularized(q, PULLBACK_CFG)

    @staticmethod
    def _orbit_item(text):
        rec = sz.record_from_dict(json.loads(text))
        fine = replace(rec, q=sz.reconstruct(rec.z, FINE))
        report = sz.verify_generalized(fine, rec.cfg, tol=VERIFY_TOL)
        prof = sz.phi_profile(fine.q, rec.cfg, C=rec.C, z_loop=rec.z)
        return report, prof, sz.delay_residual(rec.z, rec.cfg)

    def run_round(self, r):
        for name, loop in self.loops.items():
            self._check_loop(r, name, r.item(name, self._loop_item, loop))
        for name, text in self.texts.items():
            self._check_orbit(r, name, r.item(name, self._orbit_item, text))

    def _check_loop(self, r, name, out):
        if out is None:
            return
        q, back, again, a_reg, a_phys = out
        loop = self.loops[name]
        tm = sz.time_map(loop)
        t = np.arange(FINE) / FINE
        tau = tm.inverse(t)
        resid = float(np.max(np.abs(tm.t(tau) - t)))
        r.check(resid <= 1e-13, name, f"|t(tau(t)) - t| = {resid:.3e}")
        r.check(bool(np.all(np.diff(tau) >= 0)), name, "tau(t) decreases")
        r.check(back.twisted == loop.twisted, name, "lift changed the sector")
        trip = float(np.max(np.abs(again.samples - q.samples)))
        r.check(trip <= 1e-10, name, f"reconstruct(lift(q)) - q = {trip:.3e}")
        pull = abs(a_reg - a_phys) / abs(a_reg)
        r.check(pull <= 1e-8, name, f"pullback identity error {pull:.3e}")

    @staticmethod
    def _check_orbit(r, name, out):
        if out is None:
            return
        report, prof, delay = out
        r.check(report.ok, name, f"verify_generalized: {report.checks}")
        r.check(prof.sup_phi_relative < 1e-6, name, f"energy defect {prof.sup_phi_relative:.3e}")
        r.check(delay.sup_relative < 1e-6, name, f"delay residual {delay.sup_relative:.3e}")


WORKLOADS = {
    "matrix_solve": MatrixSolve,
    "continuation": Continuation,
    "reconstruct_verify": ReconstructVerify,
}
