"""Make anew the archived orbits that the reconstruct_verify workload reads.

Run from the root of a checkout:

  python3 perfbench/make_archives.py

Each matrix_solve case goes through `szbov solve`; the mass-ratio family goes
through `szbov continue` and its endpoint is kept.  The BLAS thread count is
pinned as in the benchmark, since it changes iteration counts and so the
archive bytes.  The archives are inputs of the workload, not expected
outputs: no check compares against them.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from cases import FAMILY, MATRIX, pinned_env, run_config

HERE = Path(__file__).resolve().parent
ARCHIVES = HERE / "archives"


def szbov(env, *args):
    subprocess.run([sys.executable, "-m", "szbov.cli", *args, "--quiet"], env=env, check=True)


def main():
    env = pinned_env(Path.cwd())
    ARCHIVES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        config = Path(tmp) / "config.json"
        for name, case in MATRIX.items():
            config.write_text(json.dumps(run_config(case)))
            szbov(env, "solve", "--config", str(config), "--out", str(ARCHIVES / f"{name}.json"))
            print(f"wrote {name}.json")
        config.write_text(json.dumps(run_config(FAMILY)))
        family = Path(tmp) / "family.json"
        szbov(env, "continue", "--config", str(config), "--out", str(family))
        # the endpoint, in the bytes `szbov solve` writes
        sys.path.insert(0, str(Path.cwd() / "src"))
        from szbov.cli import dumps_canonical

        end = json.loads(family.read_text())["family"][-1]
        (ARCHIVES / "mu_family_end.json").write_text(dumps_canonical(end) + "\n")
        print("wrote mu_family_end.json")


if __name__ == "__main__":
    main()
