"""Inputs of the solve workloads, as run configurations of the `szbov` CLI.

Plain data, so that `make_archives.py` can hand the same inputs to
`szbov solve` and `szbov continue` that the workloads hand to the library.
"""

import os

# Solve grid of matrix_solve and continuation; reconstruct_verify works at FINE.
N, M = 64, 256
FINE = 1024
G_TOL = 1e-9

# BLAS threads change iteration counts (and so archive bytes); pin them.
BLAS_THREADS = "1"

# glibc raises its mmap threshold after freeing a large block, so whether a
# later large array lands on the heap (and stays resident) depends on the
# allocation history: peak RSS then varies by seed (191 vs 207 MB on
# reconstruct_verify).  A fixed threshold makes it count live arrays.
MMAP_THRESHOLD = "131072"

KEPLER_SEED = {"kind": "kepler_guess", "side": -1, "radius": 0.3}

# The four test-matrix fields on the shared test seed, and criterion 8's
# unit-circle collision orbit in the plain sector.
MATRIX = {
    "euler": {"fields": {"mu": 0.5}, "seed": KEPLER_SEED},
    "magnetic": {
        "fields": {"mu": 0.5, "magnetic": {"kind": "constant", "b": 0.5}},
        "seed": KEPLER_SEED,
    },
    "electric": {
        "fields": {"mu": 0.5, "electric": {"kind": "uniform_oscillating", "epsilon": 0.01}},
        "seed": KEPLER_SEED,
    },
    "kepler": {"fields": {"mu": 0.0}, "seed": KEPLER_SEED},
    "unit_circle": {
        "fields": {"mu": 0.5},
        "seed": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
    },
}

# Criterion 10's mass-ratio family: the rectilinear ejection orbit at mu = 0,
# continued in steps of 0.01 up to mu = 0.2.
FAMILY = {
    "fields": {"mu": 0.0},
    "seed": {"kind": "ejection", "side": -1},
    "path": [{"mu": round(0.01 * k, 2)} for k in range(1, 21)],
}


def run_config(case: dict) -> dict:
    """The CLI run configuration of a case, on the solve grid at G_TOL."""
    return {**case, "grid": {"n": N, "m": M}, "solver": {"g_tol": G_TOL}}


def pinned_env(root) -> dict:
    """Environment of every benchmark process: the checkout's `src` first on
    the import path, the BLAS thread count and the mmap threshold pinned."""
    env = dict(os.environ)
    src = os.path.join(str(root), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["MALLOC_MMAP_THRESHOLD_"] = MMAP_THRESHOLD
    return env
