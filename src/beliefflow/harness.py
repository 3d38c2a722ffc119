"""Experiment harness: configuration, online runs, aggregation, CLI.

An experiment is (dataset, model, learner, run count, base seed). Each run
streams the training split once, predict-then-update, judging predictions
against true labels while updating from observed labels. Runs are seeded
base_seed + run_index, so a (config, seed) pair fully determines every
output byte except wall-clock timing fields.

Outputs per experiment directory:
  summary.json   config echo, per-run reports, aggregate statistics
  curve.csv      per-round cumulative mistakes and belief entropy (run 0)
  snapshots.bin  belief snapshots at the configured cadence (run 0)

The trace command turns a snapshot file into two more:
  trace.csv      one narrow row per snapshot interval (see write_trace)
  trace.bin      the pseudo datapoints' x and R vectors (see read_trace)
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import struct
import sys
import time
from pathlib import Path

import numpy as np

from . import belief as bel
from . import data as dat
from . import flow as fl

SCHEMA_VERSION = 1
LEARNER_TAGS = ("bflo", "sgd", "arow", "blang", "dropout")
# Every key some learner or model reads. One union for all algorithms,
# because `run --learner TAG` swaps the algorithm and keeps the other keys.
LEARNER_KEYS = ("algorithm", "variant", "eta", "sigma_init", "m", "non_expansive", "r", "p_drop")
MODEL_KEYS = ("kind", "hidden")
# The keys each dataset format reads.
DATASET_KEYS = {
    "libsvm": ("format", "path", "name", "n_features"),
    "csv": ("format", "path", "name", "label_column", "scale_minmax"),
    "idx": ("format", "images", "labels", "name"),
    "synthetic": ("format", "name", "n", "n_features", "seed", "flip_fraction"),
}
# The keys that name each format's files.
DATASET_FILE_KEYS = {"libsvm": ("path",), "csv": ("path",), "idx": ("images", "labels"),
                     "synthetic": ()}

# Full covariances above this dimension do not fit a desk-scale run: a full
# belief holds the 2 d^2 floats of L and W (snapshots hold one W per keyframe).
FULL_VARIANT_MAX_DIM = 2000
# Per-round entropy is recorded only below this dimension; above it the
# entropy trace falls back to snapshot rounds.
ENTROPY_EVERY_ROUND_MAX_DIM = 20000

SNAPSHOT_MAGIC = b"BFSN"
# Full beliefs are written as v3 (keyframes plus logged flows), the others as v2.
SNAPSHOT_VERSIONS = {bel.FULL: 3, bel.DIAGONAL: 2, bel.SPHERICAL: 2}
# After the magic: version, variant code, dimension, payload length.
_HEADER_V2 = struct.Struct("<IIII4x")
# A v2 record starts with its round.
_ROUND = struct.Struct("<Q")
# A v3 record starts with its round, its kind and its update count.
_RECORD_V3 = struct.Struct("<QII")
_KEYFRAME, _DELTA = 0, 1
_VARIANT_CODES = {bel.FULL: 0, bel.DIAGONAL: 1, bel.SPHERICAL: 2}
_VARIANT_NAMES = {v: k for k, v in _VARIANT_CODES.items()}
# The belief field a keyframe record holds after the mean, and its count of
# axes of length d: it is stored with shape (d,) * axes, as d ** axes floats.
_PAYLOADS = {bel.FULL: ("inv_factor", 2), bel.DIAGONAL: ("variances", 1),
             bel.SPHERICAL: ("variances", 0)}

TRACE_MAGIC = b"BFTR"
TRACE_VERSION = 1
TRACE_COLUMNS = "round,informative,forgetting,precision_gained,r_min,r_max,rho,cum_rho"
# A trace.bin record starts with its round and the lengths of x and R.
_TRACE_RECORD = struct.Struct("<QII")


# ---------------------------------------------------------------------------
# Configuration


@dataclasses.dataclass
class ExperimentConfig:
    name: str
    dataset: dict
    learner: dict
    model: dict = dataclasses.field(default_factory=dict)
    runs: int = 1
    base_seed: int = 0
    train_fraction: float = 0.8
    shuffle: bool = True
    noise_fraction: float = 0.0
    snapshot_every: int | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"name", "dataset", "learner"} - set(raw)
        if missing:
            raise ValueError(f"config is missing required keys: {sorted(missing)}")
        return cls(**raw)


def _load_object(path, expected: str) -> dict:
    """The JSON object a config or suite file holds. A syntax error, or a
    value that is not an object (expected says what the file must hold),
    fails naming the file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {expected}, got {type(raw).__name__}")
    return raw


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_load_object(path, "a config file must hold an object"))


def load_suite(path) -> list[ExperimentConfig]:
    """The experiments of a suite file: a JSON object whose one key,
    "experiments", holds a non-empty list of experiment objects."""
    raw = _load_object(path, "a suite file must hold an object with an 'experiments' list")
    unknown = sorted(set(raw) - {"experiments"})
    if unknown:
        raise ValueError(f"{path}: unknown suite keys {unknown}; the one key is 'experiments'")
    experiments = raw.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        raise ValueError(f"{path}: 'experiments' must be a non-empty list of experiment "
                         f"objects, got {experiments!r}")
    for i, entry in enumerate(experiments):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: experiments[{i}] must be an object, got {entry!r}")
    return [ExperimentConfig.from_dict(entry) for entry in experiments]


def config_key(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _unknown(what: str, value, known) -> ValueError:
    return ValueError(f"unknown {what} {value!r}; pick one of {tuple(known)}")


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass but not a count or a seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_config(config: ExperimentConfig) -> None:
    """Surface config and file errors before any computation or output."""
    from . import learners as lrn, models as mdl  # not loaded by the trace command

    if not isinstance(config.name, str):
        raise ValueError(f"name must be a string, got {config.name!r}")
    for key in ("dataset", "learner", "model"):
        value = getattr(config, key)
        if not isinstance(value, dict):
            raise ValueError(f"{key} must be an object, got {value!r}")
    dataset = config.dataset
    fmt = dataset.get("format")
    if fmt not in DATASET_KEYS:
        raise _unknown("dataset format", fmt, DATASET_KEYS)
    for section, keys, known in (("dataset", dataset, DATASET_KEYS[fmt]),
                                 ("learner", config.learner, LEARNER_KEYS),
                                 ("model", config.model, MODEL_KEYS)):
        unknown = sorted(set(keys) - set(known))
        if unknown:
            raise ValueError(f"unknown {section} keys {unknown}; known keys are {list(known)}")
    if not _is_int(config.runs) or config.runs < 1:
        raise ValueError(f"runs must be an integer of at least 1, got {config.runs!r}")
    if not _is_int(config.base_seed):
        raise ValueError(f"base_seed must be an integer, got {config.base_seed!r}")
    if config.snapshot_every is not None and (not _is_int(config.snapshot_every)
                                              or config.snapshot_every < 1):
        raise ValueError("snapshot_every must be null or an integer of at least 1, "
                         f"got {config.snapshot_every!r}")
    for key, value in (("shuffle", config.shuffle),
                       ("non_expansive", config.learner.get("non_expansive", False)),
                       ("scale_minmax", dataset.get("scale_minmax", False))):
        if not isinstance(value, bool):
            raise ValueError(f"{key} must be true or false, got {value!r}")
    numbers = [(key, getattr(config, key)) for key in ("train_fraction", "noise_fraction")]
    numbers += [(key, config.learner[key]) for key in ("eta", "sigma_init", "r", "p_drop")
                if key in config.learner]
    numbers += [(key, dataset[key]) for key in ("flip_fraction",) if key in dataset]
    for key, value in numbers:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{key} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, inf or an int no float can hold
            raise ValueError(f"{key} must be finite, got {value!r}")
    counts = [("hidden", config.model.get("hidden", 1))]
    # A libsvm n_features of null is left out: the file's largest index sets it.
    counts += [(key, dataset[key]) for key in ("n", "n_features")
               if key in dataset and not (fmt == "libsvm" and dataset[key] is None)]
    for key, value in counts:
        if not _is_int(value) or value < 1:
            raise ValueError(f"{key} must be an integer of at least 1, got {value!r}")
    for key in ("seed", "label_column"):
        if not _is_int(dataset.get(key, 0)):
            raise ValueError(f"{key} must be an integer, got {dataset[key]!r}")
    for key, value in (("base_seed", config.base_seed), ("seed", dataset.get("seed", 0))):
        if value < 0:
            raise ValueError(f"{key} must not be negative, got {value}")
    if not isinstance(dataset.get("name", ""), str):
        raise ValueError(f"dataset name must be a string, got {dataset['name']!r}")
    if not 0.0 < config.train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    for key, value in (("noise_fraction", config.noise_fraction),
                       ("flip_fraction", dataset.get("flip_fraction", 0.0))):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{key} must be in [0, 1]")
    tag = config.learner.get("algorithm")
    if tag not in LEARNER_TAGS:
        raise _unknown("learner algorithm", tag, LEARNER_TAGS)
    variant = config.learner.get("variant", bel.DIAGONAL)
    if tag == "bflo" and variant not in bel.VARIANTS:
        raise _unknown("belief variant", variant, bel.VARIANTS)
    kind = config.model.get("kind")
    if kind and kind not in mdl.KINDS:
        raise _unknown("model kind", kind, mdl.KINDS)
    lrn.update_count(config.learner.get("m", 1))
    for path in dataset_files(dataset):
        if not path.exists():
            raise ValueError(f"dataset file not found: {path}")


def dataset_files(dspec: dict) -> list[Path]:
    fmt = dspec.get("format")
    if fmt not in DATASET_FILE_KEYS:
        raise _unknown("dataset format", fmt, DATASET_FILE_KEYS)
    missing = [key for key in DATASET_FILE_KEYS[fmt] if dspec.get(key) is None]
    if missing:
        raise ValueError(f"{fmt} dataset is missing file keys {missing}")
    for key in DATASET_FILE_KEYS[fmt]:
        if not isinstance(dspec[key], str):
            raise ValueError(f"{key} must be a string, got {dspec[key]!r}")
    return [Path(dspec[key]) for key in DATASET_FILE_KEYS[fmt]]


def load_dataset(dspec: dict) -> dat.Dataset:
    files = dataset_files(dspec)  # rejects an unknown format or a missing file key
    fmt = dspec["format"]
    name = dspec.get("name")
    if fmt == "libsvm":
        return dat.parse_libsvm(files[0], n_features=dspec.get("n_features"), name=name)
    if fmt == "csv":
        return dat.parse_csv(files[0], label_column=dspec.get("label_column", -1),
                             scale_minmax=dspec.get("scale_minmax", False), name=name)
    if fmt == "idx":
        return dat.parse_idx(files[0], files[1], name=name)
    return dat.synthetic_linear(dspec.get("n", 2000), dspec.get("n_features", 20),
                                dspec.get("seed", 0),
                                flip_fraction=dspec.get("flip_fraction", 0.0),
                                name=name or "synthetic")


def build_model(mcfg: dict, dataset: dat.Dataset) -> mdl.ModelSpec:
    from . import models as mdl

    kind = mcfg.get("kind") or (mdl.LOGISTIC if dataset.n_classes == 2 else mdl.MLP)
    if kind == mdl.LOGISTIC:
        if dataset.n_classes != 2:
            raise ValueError("logistic model needs a binary dataset")
        return mdl.logistic_model(dataset.n_features)
    outputs = 1 if dataset.n_classes == 2 else dataset.n_classes
    return mdl.mlp_model(dataset.n_features, mcfg.get("hidden", 200), outputs)


def make_learner(lcfg: dict, spec: mdl.ModelSpec, rng: np.random.Generator):
    """Build the learner of a checked config (see :func:`validate_config`),
    drawing its initialization from rng."""
    from . import learners as lrn, models as mdl

    tag = lcfg.get("algorithm")
    eta = lcfg.get("eta", 0.001)
    sigma = lcfg.get("sigma_init", 0.2)
    m = lcfg.get("m", 1)
    d = spec.n_params
    if tag == "bflo":
        variant = lcfg.get("variant", bel.DIAGONAL)
        var0 = sigma * sigma
        if variant == bel.FULL:
            if d > FULL_VARIANT_MAX_DIM:
                raise ValueError(f"full covariance with {d} parameters is not desk-scale "
                                 f"(the limit is {FULL_VARIANT_MAX_DIM}); "
                                 "use the diagonal or spherical variant")
            prior = bel.full_belief(np.zeros(d), np.eye(d), np.full(d, var0))
        elif variant == bel.DIAGONAL:
            prior = bel.diagonal_belief(np.zeros(d), np.full(d, var0))
        else:
            prior = bel.spherical_belief(np.zeros(d), var0)
        return lrn.BeliefFlowLearner(spec, prior, eta, m=m,
                                     non_expansive=lcfg.get("non_expansive", False))
    if tag == "arow":
        if spec.kind != mdl.LOGISTIC:
            raise ValueError("arow is a linear binary learner; use the logistic model")
        return lrn.AROWLearner(spec.n_features, r=lcfg.get("r", 10.0))
    w0 = sigma * rng.standard_normal(d)
    if tag == "sgd":
        return lrn.SGDLearner(spec, w0, eta, m=m)
    if tag == "blang":
        return lrn.LangevinSGDLearner(spec, w0, eta, m=m)
    return lrn.DropoutSGDLearner(spec, w0, eta, p_drop=lcfg.get("p_drop", 0.5), m=m)


# ---------------------------------------------------------------------------
# Running


@dataclasses.dataclass
class RunReport:
    run_index: int
    seed: int
    n_train: int
    n_test: int
    mistakes: np.ndarray
    entropies: np.ndarray
    entropy_trace: list
    online_error_pct: float
    final_error_pct: float
    wall_time_s: float
    key: str


def evaluate_error_pct(spec: mdl.ModelSpec, params: np.ndarray, dataset: dat.Dataset) -> float:
    """Offline error of fixed weights against the true labels, in percent."""
    from . import models as mdl

    z = mdl.batch_forward(spec, params, dataset.X)
    if spec.n_outputs == 1:
        predicted = (z[:, 0] >= 0.5).astype(np.int64)
    else:
        predicted = np.argmax(z, axis=1)
    return 100.0 * float(np.mean(predicted != dataset.true_labels))


def run_online(config: ExperimentConfig, run_index: int,
               snapshot_path=None, dataset: dat.Dataset | None = None) -> RunReport:
    """One seeded pass over the training stream, then offline evaluation,
    of a config that :func:`validate_config` checks first.

    dataset is config.dataset already parsed, which runs in one process
    share (see :func:`run_experiment`); without it the run parses its own.

    The rng chain is: seed = base_seed + run_index; sub-seeds for the split
    and the label noise are drawn first, then learner initialization, then
    the per-round draws, so every byte of the outcome is reproducible.

    A belief learner's entropy is recorded every round up to
    ENTROPY_EVERY_ROUND_MAX_DIM parameters, and at every snapshot round.
    Given a snapshot_path, a belief learner's run streams its snapshots
    there, each written from the learner's own arrays when it is taken; a
    run that fails leaves no file. A full belief's snapshot is a delta, the
    steps' ``last_flows`` since the previous one (see
    :func:`write_snapshots`), unless a step rebuilt W or the flows would
    take more floats than W.
    """
    from . import learners as lrn

    validate_config(config)
    t0 = time.perf_counter()
    seed = config.base_seed + run_index
    rng = np.random.default_rng(seed)
    split_seed = int(rng.integers(2 ** 63))
    flip_seed = int(rng.integers(2 ** 63))
    if dataset is None:
        dataset = load_dataset(config.dataset)
    train, test = dat.split_shuffle(dataset, config.train_fraction, split_seed,
                                    shuffle=config.shuffle)
    if not len(train):
        raise ValueError(f"{len(dataset)} examples at train_fraction {config.train_fraction} "
                         "leave no training round")
    if config.noise_fraction > 0.0:
        train = dat.flip_labels(train, config.noise_fraction, flip_seed)
    spec = build_model(config.model, dataset)
    learner = make_learner(config.learner, spec, rng)

    n_train = len(train)
    cadence = config.snapshot_every or max(1, math.ceil(n_train / 200))
    is_belief = isinstance(learner, lrn.BeliefFlowLearner)
    every_round = is_belief and spec.n_params <= ENTROPY_EVERY_ROUND_MAX_DIM
    keep = is_belief and snapshot_path is not None
    deltas = keep and learner.belief.variant == bel.FULL
    # A delta holds 2 d + 4 floats a flow; past the d^2 of W, a keyframe is smaller.
    max_flows = spec.n_params ** 2 // (2 * spec.n_params + 4)
    mistakes = np.zeros(n_train, dtype=np.uint8)
    entropies = np.full(n_train, np.nan)
    snapshot_rounds = []
    flows = [] if deltas else None  # since the last snapshot; None makes a keyframe
    with _replacing(snapshot_path, "wb") if keep else contextlib.nullcontext() as snap:
        if keep:
            snap.write(_snapshot_header(learner.belief))
            _write_snapshot(snap, 0, learner.belief)
        for i in range(n_train):
            ex = train.example(i)
            try:
                predicted = learner.step(ex, rng)
            except lrn.NonFiniteStepError as exc:
                raise lrn.NonFiniteStepError(f"run {run_index} round {i + 1}: {exc}") from exc
            mistakes[i] = predicted != ex.true_label
            if flows is not None:
                applied = learner.last_flows
                if applied is None or len(flows) + len(applied) > max_flows:
                    flows = None
                else:
                    flows += applied
            rnd = i + 1
            snapshot = is_belief and (rnd % cadence == 0 or rnd == n_train)
            if every_round or snapshot:
                entropies[i] = bel.entropy(learner.belief)
            if snapshot:
                snapshot_rounds.append(rnd)
                if keep:
                    _write_snapshot(snap, rnd, learner.belief if flows is None
                                    else fl.FlowLog(learner.belief.mean, tuple(flows)))
                flows = [] if deltas else None
        # int(n * train_fraction) < n, so the split leaves test an example
        final_error = evaluate_error_pct(spec, learner.freeze(), test)
    return RunReport(
        run_index=run_index,
        seed=seed,
        n_train=n_train,
        n_test=len(test),
        mistakes=mistakes,
        entropies=entropies,
        entropy_trace=[(rnd, float(entropies[rnd - 1])) for rnd in snapshot_rounds],
        online_error_pct=100.0 * float(np.mean(mistakes)),
        final_error_pct=final_error,
        wall_time_s=time.perf_counter() - t0,
        key=config_key(config),
    )


def parallel_workers(runs: int) -> int:
    """Worker count for a suite of runs, capped by the BFLO_THREADS variable."""
    cap = os.cpu_count() or 1
    env = os.environ.get("BFLO_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"BFLO_THREADS must be an integer, got {env!r}") from None
        if cap < 1:
            raise ValueError("BFLO_THREADS must be >= 1")
    return max(1, min(runs, cap))


def run_experiment(config: ExperimentConfig, out_dir, dataset: dat.Dataset | None = None) -> dict:
    """Validate, run all runs (in parallel when allowed), write outputs.

    dataset, the parsed config.dataset (the suite command passes one), goes
    to every run; without it, config.dataset is parsed here, once, and set
    read-only. A pool gets it with one chunk of runs per worker, so each
    worker unpickles one copy. The output directory and its outputs appear
    only after all runs return, so a failed run leaves none. Run 0 writes
    its snapshots to a hidden file beside the directory (so they never
    travel through the pool), which becomes snapshots.bin once every run
    has returned and is removed if one fails, along with the parent
    directories made for it."""
    validate_config(config)
    if dataset is None:
        dataset = dat.read_only(load_dataset(config.dataset))
    out = Path(out_dir)
    workers = parallel_workers(config.runs)
    indices = range(config.runs)
    staged = out.parent / f".{out.name}.snapshots.{os.getpid()}.tmp"
    snap_paths = [staged if idx == 0 else None for idx in indices]
    made = [path for path in (out.parent, *out.parent.parents) if not path.exists()]
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        if workers > 1:
            import concurrent.futures  # only a pool needs it

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(run_online, [config] * config.runs, indices, snap_paths,
                                        [dataset] * config.runs,
                                        chunksize=math.ceil(config.runs / workers)))
        else:
            reports = [run_online(config, idx, path, dataset)
                       for idx, path in zip(indices, snap_paths)]
        reports.sort(key=lambda r: r.run_index)
        out.mkdir(parents=True, exist_ok=True)
        summary = summarize(config, reports)
        write_summary(out / "summary.json", summary)
        write_curve(out / "curve.csv", reports[0])
        if staged.exists():
            os.replace(staged, out / "snapshots.bin")
    except BaseException:
        staged.unlink(missing_ok=True)
        for path in made:  # deepest first; one that is not empty stays
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    return summary


def aggregate(reports: list[RunReport]) -> dict:
    """Mean and standard error of the online and final errors across runs.

    All reports must come from the same config; the standard error uses the
    sample standard deviation and is absent for a single run.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    keys = {r.key for r in reports}
    if len(keys) > 1:
        raise ValueError("reports mix experiment configurations")
    # canonical order makes aggregation permutation-invariant to the byte
    reports = sorted(reports, key=lambda r: r.run_index)

    def stats(values):
        values = np.asarray(values, dtype=float)
        out = {"mean": float(np.mean(values))}
        if values.shape[0] > 1:
            out["stderr"] = float(np.std(values, ddof=1) / math.sqrt(values.shape[0]))
        else:
            out["stderr"] = None
        return out

    return {
        "runs": len(reports),
        "online_error_pct": stats([r.online_error_pct for r in reports]),
        "final_error_pct": stats([r.final_error_pct for r in reports]),
        "total_mistakes": stats([int(r.mistakes.sum()) for r in reports]),
    }


def summarize(config: ExperimentConfig, reports: list[RunReport]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "config": config.to_dict(),
        "aggregate": aggregate(reports),
        "runs": [
            {
                "run_index": r.run_index,
                "seed": r.seed,
                "n_train": r.n_train,
                "n_test": r.n_test,
                "total_mistakes": int(r.mistakes.sum()),
                "online_error_pct": r.online_error_pct,
                "final_error_pct": r.final_error_pct,
                "entropy_trace": [[rnd, ent] for rnd, ent in r.entropy_trace],
                "wall_time_s": r.wall_time_s,
            }
            for r in reports
        ],
    }


def rank_table(rows: list[dict]) -> dict:
    """Per-dataset learner ranks (1 = lowest error, ties averaged) and the
    mean rank of each learner across datasets.

    rows carry keys dataset, learner, final_error_pct, online_error_pct.
    """
    datasets = sorted({r["dataset"] for r in rows})
    per_dataset = {}
    rank_sums: dict[str, list[float]] = {}
    for ds in datasets:
        group = [r for r in rows if r["dataset"] == ds]
        ranks = average_ranks([r["final_error_pct"] for r in group])
        per_dataset[ds] = {g["learner"]: float(rk) for g, rk in zip(group, ranks)}
        for g, rk in zip(group, ranks):
            rank_sums.setdefault(g["learner"], []).append(float(rk))
    mean_rank = {k: float(np.mean(v)) for k, v in sorted(rank_sums.items())}
    return {"per_dataset": per_dataset, "mean_rank": mean_rank}


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank; all nan if any value
    is nan (scipy's rankdata, method="average", nan_policy="propagate")."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


# ---------------------------------------------------------------------------
# File formats


def _fmt(v: float) -> str:
    return f"{v:.17g}"


@contextlib.contextmanager
def _replacing(path, mode: str, encoding: str | None = None):
    """Open a temporary file next to path for writing, and move it onto path
    once the block finishes; if the block raises, remove it instead. So a
    reader never sees a half-written output, and a failed write leaves none."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_summary(path, summary: dict) -> None:
    with _replacing(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_curve(path, report: RunReport) -> None:
    """Per-round curve for one run: round,cum_mistakes,entropy."""
    cum = np.cumsum(report.mistakes)
    with _replacing(path, "w", encoding="ascii") as fh:
        fh.write("round,cum_mistakes,entropy\n")
        for i in range(report.n_train):
            ent = report.entropies[i]
            ent_s = _fmt(ent) if np.isfinite(ent) else ""
            fh.write(f"{i + 1},{int(cum[i])},{ent_s}\n")


def _records(fh, path, record: struct.Struct, body):
    """Walk the records of an open little-endian file from its position on.

    A record is ``record``'s fields, then n float64 values, where
    ``body(offset, *fields)`` gives (n, what): what names the record in the
    error raised when its values run past the end of the file. Yields
    (offset, fields, values) one record at a time; values is a read-only
    view of a buffer of the record's own, so a caller holds what it keeps.
    """
    size = os.fstat(fh.fileno()).st_size
    offset = fh.tell()
    while offset < size:
        if offset + record.size > size:
            raise ValueError(f"{path}: truncated record at byte {offset}")
        fields = record.unpack(fh.read(record.size))
        n, what = body(offset, *fields)
        end = offset + record.size + 8 * n
        if end > size:
            raise ValueError(f"{path}: truncated {what}")
        yield offset, fields, np.frombuffer(fh.read(8 * n), dtype="<f8")
        offset = end


def _values_past_the_end(offset: int, *counts) -> str:
    return (f"record at byte {offset}: its {' + '.join(map(str, counts))} values run past the "
            "end of the file")


def _snapshot_header(first) -> bytes:
    """The file header of a snapshot stream whose first record is first."""
    if isinstance(first, fl.FlowLog):
        raise ValueError("the first snapshot must be a keyframe, not a flow log")
    variant, d = first.variant, first.dim
    return SNAPSHOT_MAGIC + _HEADER_V2.pack(SNAPSHOT_VERSIONS[variant], _VARIANT_CODES[variant], d,
                                            d ** _PAYLOADS[variant][1])


def _write_snapshot(fh, rnd: int, state) -> None:
    """One record of a snapshot stream (see write_snapshots), written from
    the arrays of state as they are; only a flow's basis is copied, to
    write it column by column."""
    if isinstance(state, fl.FlowLog):
        fh.write(_RECORD_V3.pack(rnd, _DELTA, len(state.flows)))
        arrays = [state.mean] + [a for f in state.flows for a in (f.basis.T, f.a2)]
    else:
        fh.write(_ROUND.pack(rnd) if SNAPSHOT_VERSIONS[state.variant] == 2
                 else _RECORD_V3.pack(rnd, _KEYFRAME, 0))
        arrays = [state.mean, getattr(state, _PAYLOADS[state.variant][0])]
    for arr in arrays:
        fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def write_snapshots(path, snapshots: list) -> None:
    """Belief snapshots as a versioned little-endian record stream.

    Header, 24 bytes: magic 'BFSN', u32 version, u32 variant code, u32
    dimension d, u32 payload length p, 4 zero bytes.

    Diagonal and spherical beliefs are v2. Records: u64 round, then d + p
    float64 values: the mean, then the variances (diagonal) or the variance
    (spherical).

    Full beliefs are v3, with p = d^2. A record starts with u64 round, u32
    kind and u32 update count k, then the d floats of the mean. A keyframe
    (kind 0, k = 0) goes on with W = L^{-1} row-major (the precision is
    W^T W). A delta (kind 1), a ``flow.FlowLog``, goes on with mu_hat,
    nu_hat and a2 (row-major) of each of the k flows applied since the
    previous record, 2 d + 4 floats each; its W is the previous one moved
    by each in turn (``flow.transport_inverse``). The first record is a
    keyframe; :func:`run_online` keeps a FlowLog only where it rebuilds W.

    Every float64 starts on an 8-byte boundary. The list is checked before
    anything is written; :func:`run_online` streams its records instead.
    """
    if not snapshots:
        raise ValueError("no snapshots to write")
    first = snapshots[0][1]
    header = _snapshot_header(first)
    if any(state.variant != first.variant or state.dim != first.dim for _, state in snapshots):
        raise ValueError("snapshots mix variants or dimensions")
    with _replacing(path, "wb") as fh:
        fh.write(header)
        for rnd, state in snapshots:
            _write_snapshot(fh, rnd, state)


def iter_snapshots(path):
    """The (round, record) pairs of a snapshot file (see write_snapshots).

    The header is checked on the call; each record is read, into a buffer
    of its own, only when iterated, so memory is O(d) per record held. A
    record is a BeliefState of read-only arrays, except for the deltas of a
    v3 file, which are ``flow.FlowLog``s that ``flow.replay`` turns into
    beliefs. A full belief read back carries the mean and W only (see
    ``belief.root``). Version 2 files hold full beliefs as keyframes only.
    """
    with open(path, "rb") as fh:
        head = fh.read(4 + _HEADER_V2.size)
    if len(head) < 8 or head[:4] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a snapshot file")
    version = struct.unpack_from("<I", head, 4)[0]
    if version not in (2, 3):
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if len(head) < 4 + _HEADER_V2.size:
        raise ValueError(f"{path}: truncated header")
    _, code, d, payload_len = _HEADER_V2.unpack_from(head, 4)
    variant = _VARIANT_NAMES.get(code)
    if variant is None:
        raise ValueError(f"{path}: unknown variant code {code}")
    if version == 3 and variant != bel.FULL:
        raise ValueError(f"{path}: version 3 holds full beliefs only, not {variant}")
    if payload_len != d ** _PAYLOADS[variant][1]:
        raise ValueError(f"{path}: payload length {payload_len} does not fit a {variant} "
                         f"belief of dimension {d}")
    return _snapshot_records(path, variant, d, version)


def read_snapshots(path) -> list:
    """[(round, record), ...]: :func:`iter_snapshots` as a list, which holds
    every record at once; the CLI streams instead."""
    return list(iter_snapshots(path))


def _snapshot_records(path, variant: str, d: int, version: int):
    """The records after a snapshot file's header, which iter_snapshots
    checked; a record that is not a belief fails naming its byte."""
    field, axes = _PAYLOADS[variant]
    step, v2_len = 2 * d + 4, d + d ** axes

    def body(at, rnd, kind=_KEYFRAME, count=0):
        if version == 2:
            return v2_len, _values_past_the_end(at, v2_len)
        if kind == _KEYFRAME:
            return d + d * d, f"keyframe at byte {at}"
        if kind == _DELTA:
            return d + count * step, (f"delta at byte {at}: its update count {count} runs past "
                                      "the end of the file")
        raise ValueError(f"{path}: unknown record kind {kind} at byte {at}")

    keyframe_seen = False
    with open(path, "rb") as fh:
        fh.seek(4 + _HEADER_V2.size)
        for at, (rnd, *kind), vals in _records(fh, path, _ROUND if version == 2 else _RECORD_V3,
                                               body):
            if not np.isfinite(vals).all():
                raise ValueError(f"{path}: record at byte {at} holds a non-finite value")
            mean, rest = vals[:d], vals[d:]
            if kind and kind[0] == _DELTA:
                if not keyframe_seen:
                    raise ValueError(f"{path}: delta at byte {at} comes before any keyframe")
                state = fl.FlowLog(mean, tuple(
                    # replay reads a C-ordered basis, as solve_full stacks it
                    fl.FlowSolution(bel.FULL, basis=v[:2 * d].reshape(2, d).T.copy(),
                                    a2=v[2 * d:].reshape(2, 2))
                    for v in rest.reshape(-1, step)))
            else:
                if axes < 2 and not np.all(rest > 0.0):  # variances, or the variance
                    raise ValueError(f"{path}: record at byte {at} holds a variance not above 0")
                keyframe_seen = True
                state = bel.BeliefState(variant, mean, **{
                    field: rest.reshape((d,) * axes) if axes else float(rest[0])})
            yield int(rnd), state


def write_trace(path, rows) -> int:
    """Pseudo-datapoint trace (``pseudo.TraceRow``s) as two files; returns
    the number of rows.

    path gets a CSV with one row per interval, TRACE_COLUMNS: the round; the
    count of finite R values (informative) and of those below 0
    (forgetting); over the finite R, the precision gained sum(1/R), min R
    and max R; then rho and cum_rho (spherical only). An idle interval,
    with no finite R, counts 0,0 and leaves the other fields empty, except
    a spherical row's cum_rho.

    path.with_suffix('.bin') gets the vectors as a little-endian record
    stream: magic 'BFTR', u32 version, then per row u64 round, u32 n_x,
    u32 n_r, and n_x float64 values of x and n_r of R (both 0 on an idle
    interval). Every float64 starts on an 8-byte boundary.

    rows may be any iterable, such as the generator ``pseudo.trace_rows``;
    each row is written and dropped before the next is drawn. Both files
    are moved onto their names only once both are complete.
    """
    path = Path(path)
    vectors = path.with_suffix(".bin")
    if vectors == path:
        raise ValueError(f"{path}: the trace CSV must not end in .bin; its vectors go there")
    count = 0
    with _replacing(path, "w", encoding="ascii") as fh, _replacing(vectors, "wb") as fb:
        fh.write(TRACE_COLUMNS + "\n")
        fb.write(TRACE_MAGIC + struct.pack("<I", TRACE_VERSION))
        for row in rows:
            _write_trace_row(fh, fb, row)
            count += 1
            del row  # so the next row is computed with this one's vectors freed
    return count


def _write_trace_row(fh, fb, row) -> None:
    x, r = (np.zeros(0) if v is None else np.ascontiguousarray(v, dtype="<f8").ravel()
            for v in (row.x, row.eigenvalues))
    fb.write(_TRACE_RECORD.pack(row.round, x.size, r.size))
    fb.write(x)
    fb.write(r)
    finite = r[np.isfinite(r)]
    fields = [row.round, finite.size, int(np.count_nonzero(finite < 0.0))]
    if finite.size:
        fields += [_fmt(np.sum(1.0 / finite)), _fmt(finite.min()), _fmt(finite.max())]
    else:
        fields += ["", "", ""]
    fields += ["" if v is None else _fmt(v) for v in (row.rho, row.cum_rho)]
    fh.write(",".join(map(str, fields)) + "\n")


def read_trace(path) -> list:
    """The vectors write_trace put in path (a trace.bin): [(round, x, R), ...].

    x and R are read-only views into a buffer of their record's own; both
    are empty on an idle interval, and x is empty on a full-covariance one.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8 or head[:4] != TRACE_MAGIC:
            raise ValueError(f"{path}: not a trace file")
        version = struct.unpack_from("<I", head, 4)[0]
        if version != TRACE_VERSION:
            raise ValueError(f"{path}: unsupported trace version {version}")
        return [(int(rnd), vals[:n_x], vals[n_x:]) for _, (rnd, n_x, n_r), vals in _records(
            fh, path, _TRACE_RECORD,
            lambda at, _, n_x, n_r: (n_x + n_r, _values_past_the_end(at, n_x, n_r)))]


# ---------------------------------------------------------------------------
# Verification (flow solver against the independent numerical oracles)


def verify_flow(dims=(1, 2, 3), cases: int = 200, seed: int = 0) -> list[dict]:
    """Compare the closed-form flow against the numerical minimizers.

    Returns one check row per metric: the worst KL gap against the oracle
    per dimension, the worst stationarity residual of the in-plane solver,
    and the worst flow-constraint violation across variants. A check over
    no case would pass vacuously, so cases, dims and each d must be >= 1.
    """
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    if not dims or min(dims) < 1:
        raise ValueError(f"dims must list one or more dimensions of at least 1, got {list(dims)}")
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    from . import oracles as orc  # scipy.optimize and scipy.integrate load only here

    checks = []
    rng = np.random.default_rng(seed)
    for d in dims:
        worst_gap = 0.0
        for _ in range(cases):
            prior = _random_belief(bel.FULL, d, rng)
            w = bel.sample(prior, rng)
            w_prime = w + rng.normal(scale=0.5, size=d)
            flow = fl.solve_full(prior, w, w_prime)
            post = fl.apply_flow(prior, flow, w, w_prime)
            kl_closed = bel.kl_divergence(post, prior)
            if d == 1:
                sig = math.sqrt(bel.covariance(prior)[0, 0])
                u = ((w - prior.mean) / sig).item()
                v = ((w_prime - prior.mean) / sig).item()
                _, kl_oracle = orc.minimize_scalar_flow(u, v)
            else:
                kl_oracle, _ = orc.minimize_matrix_flow(
                    prior.mean, bel.covariance(prior), w, w_prime, seed=int(rng.integers(2 ** 31)))
            worst_gap = max(worst_gap, kl_closed - kl_oracle)
        checks.append({"name": f"kl gap vs numerical oracle (d={d}, {cases} cases)",
                       "value": worst_gap, "threshold": 1e-5})
    worst_resid = 0.0
    for _ in range(cases):
        u = float(rng.uniform(0.05, 3.0))
        v_par = float(rng.normal(scale=1.5))
        v_perp = float(rng.uniform(0.05, 3.0))
        for d1 in (1, -1):
            for d2 in (1, -1):
                a2 = orc.branch_2x2(u, v_par, v_perp, d1, d2)
                worst_resid = max(worst_resid, orc.plane_optimality_residual(u, v_par, v_perp, a2))
    checks.append({"name": f"stationarity residual, all four branches ({cases} cases)",
                   "value": worst_resid, "threshold": 1e-8})
    worst_constraint = 0.0
    for variant in bel.VARIANTS:
        for d in (1, 2, 5, 20):
            for _ in range(max(1, cases // 8)):
                prior = _random_belief(variant, d, rng)
                w = bel.sample(prior, rng)
                w_prime = w + rng.normal(scale=0.5, size=d)
                flow = fl.solve(prior, w, w_prime)
                post = fl.apply_flow(prior, flow, w, w_prime)
                a = fl.flow_matrix(prior, flow, w)
                resid = float(np.linalg.norm(a @ w + (post.mean - a @ prior.mean) - w_prime))
                worst_constraint = max(worst_constraint, resid / (1.0 + float(np.linalg.norm(w_prime))))
    checks.append({"name": "flow constraint ||A w + b - w'|| (all variants, d in 1,2,5,20)",
                   "value": worst_constraint, "threshold": 1e-9})
    for chk in checks:
        chk["passed"] = bool(chk["value"] <= chk["threshold"])
    return checks


def _random_belief(variant: str, d: int, rng: np.random.Generator) -> bel.BeliefState:
    mean = rng.normal(size=d)
    if variant == bel.FULL:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return bel.full_belief(mean, q, rng.uniform(0.2, 3.0, size=d) ** 2)
    if variant == bel.DIAGONAL:
        return bel.diagonal_belief(mean, rng.uniform(0.2, 3.0, size=d) ** 2)
    return bel.spherical_belief(mean, float(rng.uniform(0.2, 3.0)) ** 2)


# ---------------------------------------------------------------------------
# CLI


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beliefflow",
        description="Online learning with Gaussian weight beliefs updated by linear flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--runs", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--learner", choices=LEARNER_TAGS, default=None)
    p_run.add_argument("--noise", type=float, default=None)

    p_suite = sub.add_parser("suite", help="run a grid of experiment configs")
    p_suite.add_argument("--config", required=True)
    p_suite.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="check the flow solver against numerical oracles")
    p_verify.add_argument("--dims", default="1,2,3")
    p_verify.add_argument("--cases", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)

    p_trace = sub.add_parser("trace", help="extract pseudo datapoints from belief snapshots")
    p_trace.add_argument("--snapshots", required=True)
    p_trace.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_trace(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.runs is not None:
        config.runs = args.runs
    if args.seed is not None:
        config.base_seed = args.seed
    if args.learner is not None:
        config.learner = dict(config.learner, algorithm=args.learner)
    if args.noise is not None:
        config.noise_fraction = args.noise
    summary = run_experiment(config, args.out)
    agg = summary["aggregate"]
    print(f"{config.name}: online {agg['online_error_pct']['mean']:.2f}% "
          f"final {agg['final_error_pct']['mean']:.2f}% over {agg['runs']} run(s) -> {args.out}")
    return 0


def _cmd_suite(args) -> int:
    experiments = load_suite(args.config)
    for config in experiments:
        validate_config(config)
    names = [e.name for e in experiments]
    if len(set(names)) != len(names):
        raise ValueError("experiment names in a suite must be unique")
    cells = [_suite_cell(config) for config in experiments]
    for i, cell in enumerate(cells):  # rank_table keys a dataset's ranks by learner
        if cell in cells[:i]:
            raise ValueError(f"experiments {names[cells.index(cell)]!r} and {names[i]!r} share "
                             f"the suite cell dataset {cell[0]!r}, learner {cell[1]!r}")
    out = Path(args.out)
    rows = []
    shared = None  # (spec, dataset): one parse for consecutive experiments on one dataset
    for config, (dataset_label, learner_label) in zip(experiments, cells):
        if shared is None or shared[0] != config.dataset:
            shared = None  # drop the previous parse before making the next
            shared = (config.dataset, dat.read_only(load_dataset(config.dataset)))
        summary = run_experiment(config, out / config.name, shared[1])
        agg = summary["aggregate"]
        rows.append({
            "dataset": dataset_label,
            "learner": learner_label,
            "experiment": config.name,
            "final_error_pct": agg["final_error_pct"]["mean"],
            "online_error_pct": agg["online_error_pct"]["mean"],
        })
        print(f"{config.name}: final {agg['final_error_pct']['mean']:.2f}%")
    write_summary(out / "suite_summary.json",
                  {"schema_version": SCHEMA_VERSION, "results": rows, "ranks": rank_table(rows)})
    return 0


def _suite_cell(config: ExperimentConfig) -> tuple[str, str]:
    """A suite row's (dataset, learner) labels: the dataset's name (else its
    first file) plus any noise fraction above 0, and the algorithm plus a
    bflo learner's variant."""
    files = dataset_files(config.dataset)
    dataset = config.dataset.get("name") or (str(files[0]) if files else "synthetic")
    if config.noise_fraction > 0:
        dataset += f" noise {config.noise_fraction:g}"
    learner = config.learner["algorithm"]
    if learner == "bflo":
        learner += f"-{config.learner.get('variant', bel.DIAGONAL)}"
    return dataset, learner


def _cmd_verify(args) -> int:
    try:
        dims = tuple(int(tok) for tok in str(args.dims).split(",") if tok)
    except ValueError:
        raise ValueError(f"dims must be integers separated by commas, got {args.dims!r}") from None
    checks = verify_flow(dims=dims, cases=args.cases, seed=args.seed)
    all_ok = True
    for chk in checks:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"{status} {chk['name']}: {chk['value']:.3e} (threshold {chk['threshold']:.0e})")
        all_ok = all_ok and chk["passed"]
    return 0 if all_ok else 1


def _cmd_trace(args) -> int:
    from . import pseudo as psd  # only the trace command extracts pseudo datapoints

    out = Path(args.out)
    if Path(args.snapshots).resolve() in (out.resolve(), out.with_suffix(".bin").resolve()):
        raise ValueError(f"{args.snapshots}: the trace CSV or its .bin would overwrite it")
    rows = write_trace(args.out, psd.trace_rows(iter_snapshots(args.snapshots)))
    print(f"{rows} trace rows -> {args.out}, {out.with_suffix('.bin')}")
    return 0
