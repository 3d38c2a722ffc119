"""The three benchmark workloads: seeded input generators and suite configs.

Every workload is a closed loop: the CLI replays each run's stream in
order and the next example goes in only after the previous update
returned. The program sees only the files written here; the workload seed
decides every byte of them.

The real mushrooms and MNIST files are not in the repository, so the
generators write files of the same shape:

* mushroom-shaped LIBSVM: 8124 rows x 112 one-hot features, 22 nonzeros
  per row. Labels are written as -1/+1, not the 1/2 of the real file:
  ``data.parse_libsvm`` rejects 1/2 labels today although the README
  documents them. That parser defect is to be fixed on its own and is not
  hidden here; the generator simply writes a label set the parser accepts.
* MNIST-shaped IDX pair: 28x28 uint8 images with about 20 % nonzero
  pixels, ten classes.
* dense CSV stream: 300 standard-normal features and a linear teacher.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path
from typing import Callable

import numpy as np

# One-hot group sizes of the 22 mushroom attributes; they sum to 112.
MUSHROOM_GROUPS = (6, 4, 9, 2, 9, 2, 2, 2, 10, 2, 5, 4, 4, 8, 8, 1, 4, 3, 5, 9, 6, 7)
MUSHROOM_ROWS = 8124
MUSHROOM_FEATURES = sum(MUSHROOM_GROUPS)

MNIST_SIDE = 28
MNIST_IMAGES = 100
MNIST_CLASSES = 10
# Pixels in a class's stroke set, and the odds of a pixel being lit inside
# and outside it; together about 20 % of the pixels are nonzero.
MNIST_STROKE_PIXELS = 150
MNIST_P_STROKE = 0.9
MNIST_P_BACKGROUND = 0.03

DENSE_ROWS = 250
DENSE_FEATURES = 300


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named input family plus the suite that runs on it.

    ``workers`` is the suite's BFLO_THREADS pin. ``error_bounds`` maps an
    experiment name to the loose, seed-independent bound its mean final
    error must stay under; it guards against a learner that silently stops
    learning, not against small accuracy changes. An experiment without a
    bound streams too few examples to learn anything measurable; its
    outputs are still checked for finiteness and determinism.
    """

    name: str
    why: str
    workers: int
    error_bounds: dict
    generate: Callable[[int, Path], tuple[dict, dict]]  # -> dataset spec, input sizes
    experiments: Callable[[dict], list[dict]]  # dataset spec -> experiment configs


def _libsvm_line(label: int, cols: np.ndarray) -> str:
    return " ".join([str(label)] + [f"{c + 1}:1" for c in cols])


def generate_mushroom(seed: int, input_dir: Path):
    """Mushroom-shaped one-hot LIBSVM file; labels -1/+1 (see module doc)."""
    rng = np.random.default_rng([seed, 1])
    labels = np.where(rng.random(MUSHROOM_ROWS) < 0.52, 1, -1)
    cls = (labels > 0).astype(np.int64)
    offsets = np.cumsum((0,) + MUSHROOM_GROUPS[:-1])
    cols = np.empty((MUSHROOM_ROWS, len(MUSHROOM_GROUPS)), dtype=np.int64)
    for g, (size, start) in enumerate(zip(MUSHROOM_GROUPS, offsets)):
        # One categorical distribution per class; a sharp Dirichlet makes
        # some attributes nearly decisive, as odor is in the real data.
        probs = rng.dirichlet(np.full(size, 0.5), size=2)
        cum = np.cumsum(probs, axis=1)
        draw = rng.random(MUSHROOM_ROWS)
        value = (draw[:, None] > cum[cls]).sum(axis=1)
        cols[:, g] = start + np.minimum(value, size - 1)
    path = input_dir / "mushrooms"
    path.write_text("".join(_libsvm_line(int(y), c) + "\n" for y, c in zip(labels, cols)),
                    encoding="ascii")
    spec = {"format": "libsvm", "path": str(path), "name": "mushroom",
            "n_features": MUSHROOM_FEATURES}
    return spec, {"rows": MUSHROOM_ROWS, "features": MUSHROOM_FEATURES,
                  "nonzeros_per_row": len(MUSHROOM_GROUPS), "bytes": path.stat().st_size}


def generate_mnist(seed: int, input_dir: Path):
    """MNIST-shaped IDX image/label pair with class-dependent stroke sets."""
    rng = np.random.default_rng([seed, 2])
    n_pix = MNIST_SIDE * MNIST_SIDE
    strokes = np.full((MNIST_CLASSES, n_pix), MNIST_P_BACKGROUND)
    for c in range(MNIST_CLASSES):
        strokes[c, rng.choice(n_pix, MNIST_STROKE_PIXELS, replace=False)] = MNIST_P_STROKE
    labels = rng.integers(0, MNIST_CLASSES, size=MNIST_IMAGES).astype(np.uint8)
    lit = rng.random((MNIST_IMAGES, n_pix)) < strokes[labels]
    pixels = np.where(lit, rng.integers(1, 256, size=(MNIST_IMAGES, n_pix)), 0).astype(np.uint8)
    images_path = input_dir / "train-images-idx3-ubyte"
    labels_path = input_dir / "train-labels-idx1-ubyte"
    images_path.write_bytes(struct.pack(">IIII", 2051, MNIST_IMAGES, MNIST_SIDE, MNIST_SIDE)
                            + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 2049, MNIST_IMAGES) + labels.tobytes())
    spec = {"format": "idx", "images": str(images_path), "labels": str(labels_path),
            "name": "mnist"}
    return spec, {"images": MNIST_IMAGES, "pixels": n_pix,
                  "nonzero_pixel_frac": float(np.mean(pixels > 0)),
                  "bytes": images_path.stat().st_size + labels_path.stat().st_size}


def generate_dense(seed: int, input_dir: Path):
    """Dense CSV stream labelled by a random linear teacher, label last."""
    rng = np.random.default_rng([seed, 3])
    teacher = rng.standard_normal(DENSE_FEATURES)
    X = rng.standard_normal((DENSE_ROWS, DENSE_FEATURES))
    labels = (X @ teacher >= 0.0).astype(np.int64)
    path = input_dir / "dense.csv"
    path.write_text("".join(",".join(f"{v:.6f}" for v in row) + f",{y}\n"
                            for row, y in zip(X, labels)), encoding="ascii")
    spec = {"format": "csv", "path": str(path), "name": "dense"}
    return spec, {"rows": DENSE_ROWS, "features": DENSE_FEATURES,
                  "bytes": path.stat().st_size}


def mushroom_experiments(dspec: dict) -> list[dict]:
    """configs/table_binary.json without the noise rows, 2 runs each."""
    learners = {
        "bflo": {"algorithm": "bflo", "variant": "diagonal", "eta": 0.001, "sigma_init": 0.2},
        "sgd": {"algorithm": "sgd", "eta": 0.001, "sigma_init": 0.2},
        "arow": {"algorithm": "arow", "r": 10.0},
        "blang": {"algorithm": "blang", "eta": 0.001, "sigma_init": 0.2},
    }
    return [{"name": f"mushroom-{tag}", "dataset": dspec, "learner": lcfg,
             "runs": 2, "base_seed": 1000} for tag, lcfg in learners.items()]


def mnist_experiments(dspec: dict) -> list[dict]:
    """configs/table_mnist.json at one run each, with a set snapshot cadence."""
    learners = {
        "bflo": {"algorithm": "bflo", "variant": "diagonal", "eta": 0.2, "sigma_init": 0.1, "m": 5},
        "sgd": {"algorithm": "sgd", "eta": 0.2, "sigma_init": 0.1, "m": 5},
        "dropout": {"algorithm": "dropout", "eta": 0.2, "sigma_init": 0.1, "m": 5, "p_drop": 0.5},
    }
    return [{"name": f"mnist-{tag}", "dataset": dspec, "model": {"kind": "mlp", "hidden": 200},
             "learner": lcfg, "runs": 1, "base_seed": 2000, "snapshot_every": 10}
            for tag, lcfg in learners.items()]


def dense_experiments(dspec: dict) -> list[dict]:
    """Full-covariance belief flow, plus the spherical variant as a cheap contrast."""
    return [{"name": f"dense-{variant}", "dataset": dspec,
             "learner": {"algorithm": "bflo", "variant": variant, "eta": 0.05, "sigma_init": 0.2},
             "runs": 1, "base_seed": 3000}
            for variant in ("full", "spherical")]


WORKLOADS = {
    w.name: w for w in (
        Workload("mushroom-suite",
                 "d=112 one-hot LIBSVM, 4 learners x 2 runs, 2 workers: per-round overhead, "
                 "row access, parsing and pool start-up dominate; labels written -1/+1",
                 workers=2,
                 error_bounds={f"mushroom-{t}": 40.0 for t in ("bflo", "sgd", "arow")},
                 generate=generate_mushroom, experiments=mushroom_experiments),
        Workload("mnist-suite",
                 "MLP 784-200-10, m=5 (d=159010) on a 20%-nonzero IDX pair, 1 worker: "
                 "O(d) sampling, flow solve and apply dominate",
                 workers=1, error_bounds={},
                 generate=generate_mnist, experiments=mnist_experiments),
        Workload("dense-full",
                 "full-covariance flow at d=300 on a dense CSV stream, 1 worker: per-round eigh, "
                 "spectrum drift check and O(d^3) pseudo trace dominate",
                 workers=1, error_bounds={"dense-full": 75.0, "dense-spherical": 75.0},
                 generate=generate_dense, experiments=dense_experiments),
    )
}


def prepare(workload: Workload, seed: int, work_dir: Path) -> dict:
    """Write the workload's inputs and configs under work_dir.

    Returns the paths the benchmark drives the CLI with and the generated
    input sizes. ``first.json`` is the suite's first experiment on its own,
    the config the set-up probe loads.
    """
    input_dir = work_dir / "inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    dspec, sizes = workload.generate(seed, input_dir)
    experiments = workload.experiments(dspec)
    suite_path = work_dir / "suite.json"
    suite_path.write_text(json.dumps({"experiments": experiments}, indent=2) + "\n")
    first_path = work_dir / "first.json"
    first_path.write_text(json.dumps(experiments[0], indent=2) + "\n")
    return {"suite": suite_path, "first": first_path, "experiments": experiments,
            "input_sizes": sizes}
