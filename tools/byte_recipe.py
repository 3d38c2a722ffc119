"""Hash every fixed-seed output of this checkout, to compare two commits.

    python3 tools/byte_recipe.py INPUTS OUT

Runs, with BLAS pinned to one thread, ``configs/variant_bytes.json`` at
BFLO_THREADS 1 and 2, ``configs/synthetic_quick.json``, the mushroom, mnist
and dense suites that ``perfbench/workloads.prepare`` writes at seed 3,
``beliefflow trace`` of every snapshot file, and ``beliefflow verify``. It
prints ``sha256 path`` for each file under OUT; ``summary.json`` is hashed
without its ``wall_time_s`` fields, the one value that varies.

The perfbench inputs go to INPUTS and every output to OUT; nothing else is
written. Suite configs hold their dataset paths, so give two checkouts the
same INPUTS and their listings must be equal line for line.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
           PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def beliefflow(*args, threads: int = 1) -> str:
    return subprocess.run([sys.executable, "-m", "beliefflow", *map(str, args)], check=True,
                          env=dict(ENV, BFLO_THREADS=str(threads)), stdout=subprocess.PIPE,
                          text=True).stdout


def prepare_inputs(inputs: Path) -> dict:
    """The perfbench suite config of each workload, written under inputs."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return {name: workloads.prepare(w, SEED, inputs / name)["suite"]
            for name, w in workloads.WORKLOADS.items()}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        for run in summary["runs"]:
            del run["wall_time_s"]
        data = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    inputs, out = (Path(a).resolve() for a in argv)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for threads in (1, 2):
        beliefflow("suite", "--config", ROOT / "configs" / "variant_bytes.json",
                   "--out", out / f"variant_bytes-{threads}", threads=threads)
    beliefflow("run", "--config", ROOT / "configs" / "synthetic_quick.json",
               "--out", out / "synthetic_quick")
    for name, suite in prepare_inputs(inputs).items():
        beliefflow("suite", "--config", suite, "--out", out / name)
    for snap in sorted(out.rglob("snapshots.bin")):
        beliefflow("trace", "--snapshots", snap, "--out", snap.with_name("trace.csv"))
    (out / "verify.txt").write_text(beliefflow("verify"))
    for p in sorted(q for q in out.rglob("*") if q.is_file()):
        print(digest(p), p.relative_to(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
