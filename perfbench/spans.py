"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install` replaces each traced function by a wrapper under every name
a caller looks it up by (`szbov.solver.gradient` as well as
`szbov.action.gradient`), plus the `TimeMap.inverse` method and
`numpy.linalg.solve`.  Spans are recorded only inside an item, kept in
memory, and written out when the run ends.  A recursive call (as in
`dumps_canonical`) stays inside its outermost span.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import szbov
import szbov.cli  # noqa: F401  (imported so that its names get wrapped)

# span name -> (module, attribute) of the function as defined
FUNCTIONS = {
    "action.gradient": ("szbov.action", "gradient"),
    "action.eval_components": ("szbov.action", "eval_components"),
    "action.delay_residual": ("szbov.action", "delay_residual"),
    "loops.time_map": ("szbov.loops", "time_map"),
    "loops.eval_loop": ("szbov.loops", "eval_loop"),
    "loops.reconstruct": ("szbov.loops", "reconstruct"),
    "loops.lift": ("szbov.loops", "lift"),
    "dynamics.integrate": ("szbov.dynamics", "integrate"),
    "dynamics.phi_profile": ("szbov.dynamics", "phi_profile"),
    "dynamics.verify_generalized": ("szbov.dynamics", "verify_generalized"),
    "solver.solve": ("szbov.solver", "solve"),
    "solver.record_from_dict": ("szbov.solver", "record_from_dict"),
    "cli.dumps_canonical": ("szbov.cli", "dumps_canonical"),
}

PER_LAYER = [
    "action.gradient.calls", "action.gradient.self_s", "action.gradient.us_per_call",
    "action.eval_components.self_s", "action.delay_residual.self_s",
    "loops.time_map.calls", "loops.time_map.self_s",
    "loops.inverse.calls", "loops.inverse.points", "loops.inverse.t_evals_per_call",
    "loops.inverse.self_s", "loops.eval_loop.self_s", "loops.reconstruct.self_s",
    "loops.lift.self_s",
    "dynamics.integrate.calls", "dynamics.integrate.self_s",
    "dynamics.phi_profile.self_s", "dynamics.verify_generalized.self_s",
    "solver.iterations", "solver.gradient_calls_per_iteration",
    "solver.linear_solve.calls", "solver.linear_solve.self_s", "solver.solve.self_s",
    "solver.record_from_dict.self_s",
    "cli.dumps_canonical.self_s",
    "setup.import_s", "trace.overhead_s",
]


class Tracer:
    """In-memory spans: [name, start, end, parent index, item id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.current_item = None
        self.points = Counter()  # points queried per span name
        self.t_in_inverse = 0
        self._patches = []

    # ------------------------------------------------------------ recording

    @contextlib.contextmanager
    def item(self, item_id):
        self.current_item = item_id
        try:
            with self._span(f"item:{item_id}"):
                yield
        finally:
            self.current_item = None

    @contextlib.contextmanager
    def _span(self, name):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.current_item]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _inside(self, name) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def wrap(self, name, fn, points_arg=None):
        """fn recorded as a span called `name`; points_arg is the index of a
        positional argument whose length is counted as points."""

        def traced(*args, **kwargs):
            if self.current_item is None or self._inside(name):
                return fn(*args, **kwargs)
            if points_arg is not None:
                self.points[name] += np.size(args[points_arg])
            with self._span(name):
                return fn(*args, **kwargs)

        return traced

    def count_t(self, fn):
        def counted(*args, **kwargs):
            if self._inside("loops.inverse"):
                self.t_in_inverse += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "szbov" or name.startswith("szbov.")]
        for span_name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        time_map_cls = szbov.loops.TimeMap
        self._patch(time_map_cls, "inverse", self.wrap("loops.inverse", time_map_cls.inverse, points_arg=1))
        self._patch(time_map_cls, "t", self.count_t(time_map_cls.t))
        self._patch(np.linalg, "solve", self.wrap("solver.linear_solve", np.linalg.solve))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -------------------------------------------------------------- results

    def _under(self, index, name) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, iterations: int) -> dict:
        calls = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[index]
        grad_in_solve = sum(
            1 for i, s in enumerate(self.spans)
            if s[0] == "action.gradient" and self._under(i, "solver.solve")
        )
        linear = [i for i, s in enumerate(self.spans)
                  if s[0] == "solver.linear_solve" and self._under(i, "solver.solve")]
        out = {f"{name}.self_s": self_s[name] for name in FUNCTIONS}
        out.update({
            "action.gradient.calls": calls["action.gradient"],
            "action.gradient.us_per_call":
                1e6 * self_s["action.gradient"] / max(calls["action.gradient"], 1),
            "loops.time_map.calls": calls["loops.time_map"],
            "loops.inverse.calls": calls["loops.inverse"],
            "loops.inverse.points": self.points["loops.inverse"],
            "loops.inverse.t_evals_per_call": self.t_in_inverse / max(calls["loops.inverse"], 1),
            "loops.inverse.self_s": self_s["loops.inverse"],
            "dynamics.integrate.calls": calls["dynamics.integrate"],
            "solver.iterations": iterations,
            "solver.gradient_calls_per_iteration": grad_in_solve / max(iterations, 1),
            "solver.linear_solve.calls": len(linear),
            "solver.linear_solve.self_s": sum(
                (self.spans[i][2] - self.spans[i][1] - child[i] for i in linear), 0.0
            ),
        })
        return out

    def write(self, path):
        """Spans as tab-separated lines: name, start, end, parent, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\titem\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
