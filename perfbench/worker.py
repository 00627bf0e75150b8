"""One benchmark process: set up a workload, then run it untraced or traced.

Started by run.py with the environment of `cases.pinned_env`; prints one JSON
object as its last line of standard output.

  --mode setup  set up and stop (the untimed warm-up and the set-up samples)
  --mode run    whole rounds of items for about --seconds seconds, with the
                speed sampler (`speed.SpeedSampler`) running
  --mode trace  one round untraced, then the same round traced
"""

import argparse
import json
import resource
import time
from pathlib import Path

from speed import SpeedSampler, to_reference  # noqa: E402

# set-up is sampled from here to `ready`, the import included
setup_sampler = SpeedSampler().start()
import_start = time.perf_counter()
import szbov  # noqa: E402,F401

IMPORT_S = time.perf_counter() - import_start

from workloads import WORKLOADS, Round  # noqa: E402


def run_rounds(workload, seconds, sampler):
    """Whole rounds while the next one is expected to end within `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        r = Round(sampler=sampler)
        workload.run_round(r)
        rounds.append(r)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    result = {"ready": time.monotonic()}
    setup_sampler.stop()
    result.update(setup_busy_s=setup_sampler.busy_s, setup_kernel_s=setup_sampler.mean_kernel_s())
    if args.mode == "setup":
        print(json.dumps(result))
        return

    if args.mode == "run":
        with SpeedSampler() as sampler:
            rounds = run_rounds(workload, args.seconds, sampler)
        items_s = sum(t for r in rounds for t in r.times)
        result.update(
            ref_items_s=to_reference(items_s, sampler.mean_kernel_s()),
            kernel_ms=1e3 * sampler.mean_kernel_s(),
            samples=len(sampler.samples),
        )
    else:
        from spans import PER_LAYER, Tracer

        first = Round()
        workload.run_round(first)
        tracer = Tracer()
        traced = Round(tracer)
        tracer.install()
        try:
            workload.run_round(traced)
        finally:
            tracer.uninstall()
        rounds = [first, traced]
        layers = tracer.layer_metrics(traced.iterations)
        layers["setup.import_s"] = IMPORT_S
        layers["trace.overhead_s"] = sum(traced.times) - sum(first.times)
        result["layers"] = {name: layers[name] for name in PER_LAYER}
        tracer.write(args.trace_out)

    times = [t for r in rounds for t in r.times]
    result.update(
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        items=len(times),
        items_s=sum(times),
        errors=[e for r in rounds for e in r.errors],
        problems=[p for r in rounds for p in r.problems],
        iterations=[r.iterations for r in rounds],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
