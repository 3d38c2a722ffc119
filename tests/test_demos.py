"""Every demo under demos/ runs to completion and writes nothing into the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DATA = ROOT / "data"
# With these present, demo 05 runs the full benchmark tables into results/.
TABLE_DATA = (DATA / "mushrooms", DATA / "train-images-idx3-ubyte", DATA / "train-labels-idx1-ubyte")
BLAS_PINS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def checkout_files() -> set[Path]:
    found = set()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d != ".git"]
        found.update(Path(top, name) for name in files)
    return found


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_and_leaves_no_file(demo):
    if demo.name.startswith("05") and any(path.exists() for path in TABLE_DATA):
        pytest.skip("with dataset files under data/, demo 05 runs the full benchmark tables")
    env = {**os.environ, **BLAS_PINS, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    before = checkout_files()
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
    assert sorted(checkout_files() - before) == []
