"""Benchmark of szbov: cold solves, continuation, and post-processing.

Run from the root of a checkout (see README.md in this directory):

  python3 perfbench/run.py --workload matrix_solve --seed 1 --seconds 20 --trace 0

Each run starts an untimed warm-up process, then fresh processes that set the
workload up.  With --trace 0 it reports the end-to-end metrics: `setup_s` is
the median set-up time of SETUP_SAMPLES fresh processes, the last of which
goes on to run whole rounds of items for about --seconds seconds.  Both
timed metrics are given at the reference speed of `speed.py`.  With
--trace 1 one process runs a round untraced and the same round traced, and
the per-layer metrics come from the spans of the traced round.  The last
line of standard output is the result as one JSON object.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import pinned_env
from speed import to_reference

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_call"):
        return "us"
    return "count"


def spawn(mode, args, env, deadline):
    """Run one worker process.  Its result gains `setup_wall_s`, from spawn to
    ready, and `setup_s`, the same less the sampler's handler time, rescaled
    to the reference machine."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--trace-out", str(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.tsv.gz"),
    ]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} process passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - start
    result["setup_s"] = to_reference(result["setup_wall_s"] - result["setup_busy_s"],
                                     result["setup_kernel_s"])
    return result


def measure(args, env):
    deadline = time.monotonic() + DEADLINE_S
    spawn("setup", args, env, deadline)  # untimed warm-up
    if args.trace:
        res = spawn("trace", args, env, deadline)
        metrics = {name: (value, unit_of(name)) for name, value in res["layers"].items()}
    else:
        setups = [spawn("setup", args, env, deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = spawn("run", args, env, deadline)
        setups.append(res)
        res["setup_wall_median_s"] = statistics.median(r["setup_wall_s"] for r in setups)
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
            "items_per_ref_min": (60.0 * res["items"] / res["ref_items_s"], "1/min"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    return res, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "szbov" / "__init__.py").is_file():
        print(f"error: no szbov source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        res, metrics = measure(args, pinned_env(root))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in res["errors"] + res["problems"]:
        print(line, file=sys.stderr)
    summary = ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    if "samples" in res:
        summary += (f"; wall clock: setup {res['setup_wall_median_s']:.6g} s, "
                    f"items_per_min {60.0 * res['items'] / res['items_s']:.6g} 1/min; "
                    f"speed kernel {res['kernel_ms']:.4g} ms (mean of {res['samples']} samples)")
    print(f"{args.workload} seed {args.seed}: {summary}; attempted {res['attempted']}, "
          f"failed {res['failed']}, solver iterations per round {res['iterations']}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
