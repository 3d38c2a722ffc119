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
"""

from __future__ import annotations

import argparse
import concurrent.futures
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
from . import learners as lrn
from . import models as mdl
from . import pseudo as psd

SCHEMA_VERSION = 1
LEARNER_TAGS = ("bflo", "sgd", "arow", "blang", "dropout")
BELIEF_VARIANTS = (bel.FULL, bel.DIAGONAL, bel.SPHERICAL)

# Full covariances above this dimension do not fit a desk-scale run.
FULL_VARIANT_MAX_DIM = 2000
# Per-round entropy is recorded only below this dimension; above it the
# entropy trace falls back to snapshot rounds.
ENTROPY_EVERY_ROUND_MAX_DIM = 20000

SNAPSHOT_MAGIC = b"BFSN"
SNAPSHOT_VERSION = 2
# After the magic: version, variant code, dimension, payload length.
_HEADER_V1 = struct.Struct("<IBII")
_HEADER_V2 = struct.Struct("<IIII4x")
_VARIANT_CODES = {bel.FULL: 0, bel.DIAGONAL: 1, bel.SPHERICAL: 2}
_VARIANT_NAMES = {v: k for k, v in _VARIANT_CODES.items()}


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


def load_config(path) -> ExperimentConfig:
    with Path(path).open("r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def config_key(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def validate_config(config: ExperimentConfig) -> None:
    """Surface config and file errors before any computation or output."""
    if config.runs < 1:
        raise ValueError("runs must be at least 1")
    if not 0.0 < config.train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if not 0.0 <= config.noise_fraction <= 1.0:
        raise ValueError("noise_fraction must be in [0, 1]")
    tag = config.learner.get("algorithm")
    if tag not in LEARNER_TAGS:
        raise ValueError(f"unknown learner algorithm {tag!r}; pick one of {LEARNER_TAGS}")
    variant = config.learner.get("variant", bel.DIAGONAL)
    if tag == "bflo" and variant not in BELIEF_VARIANTS:
        raise ValueError(f"unknown belief variant {variant!r}")
    lrn.update_count(config.learner.get("m", 1))
    for path in dataset_files(config.dataset):
        if not path.exists():
            raise ValueError(f"dataset file not found: {path}")


def dataset_files(dspec: dict) -> list[Path]:
    fmt = dspec.get("format")
    if fmt == "libsvm":
        return [Path(dspec["path"])]
    if fmt == "csv":
        return [Path(dspec["path"])]
    if fmt == "idx":
        return [Path(dspec["images"]), Path(dspec["labels"])]
    if fmt == "synthetic":
        return []
    raise ValueError(f"unknown dataset format {fmt!r}")


def load_dataset(dspec: dict) -> dat.Dataset:
    fmt = dspec["format"]
    name = dspec.get("name")
    if fmt == "libsvm":
        return dat.parse_libsvm(dspec["path"], n_features=dspec.get("n_features"), name=name)
    if fmt == "csv":
        return dat.parse_csv(dspec["path"], label_column=dspec.get("label_column", -1),
                             scale_minmax=dspec.get("scale_minmax", False), name=name)
    if fmt == "idx":
        return dat.parse_idx(dspec["images"], dspec["labels"], name=name)
    return dat.synthetic_linear(dspec.get("n", 2000), dspec.get("n_features", 20),
                                dspec.get("seed", 0),
                                flip_fraction=dspec.get("flip_fraction", 0.0),
                                name=name or "synthetic")


def build_model(mcfg: dict, dataset: dat.Dataset) -> mdl.ModelSpec:
    kind = mcfg.get("kind") or (mdl.LOGISTIC if dataset.n_classes == 2 else mdl.MLP)
    if kind == mdl.LOGISTIC:
        if dataset.n_classes != 2:
            raise ValueError("logistic model needs a binary dataset")
        return mdl.logistic_model(dataset.n_features)
    outputs = 1 if dataset.n_classes == 2 else dataset.n_classes
    return mdl.mlp_model(dataset.n_features, mcfg.get("hidden", 200), outputs)


def make_learner(lcfg: dict, spec: mdl.ModelSpec, rng: np.random.Generator):
    """Build the configured learner, drawing its initialization from rng."""
    tag = lcfg["algorithm"]
    eta = lcfg.get("eta", 0.001)
    sigma = lcfg.get("sigma_init", 0.2)
    m = lcfg.get("m", 1)
    d = spec.n_params
    if tag == "bflo":
        variant = lcfg.get("variant", bel.DIAGONAL)
        var0 = sigma * sigma
        if variant == bel.FULL:
            if d > FULL_VARIANT_MAX_DIM:
                raise ValueError(f"full covariance with {d} parameters is not desk-scale; "
                                 "use the diagonal or spherical variant")
            prior = bel.full_belief(np.zeros(d), np.eye(d), np.full(d, var0))
        elif variant == bel.DIAGONAL:
            prior = bel.diagonal_belief(np.zeros(d), np.full(d, var0))
        else:
            prior = bel.spherical_belief(np.zeros(d), var0)
        return lrn.BeliefFlowLearner(
            spec, prior, eta, m=m,
            non_expansive=lcfg.get("non_expansive", False),
            lam_min=lcfg.get("lambda_min", bel.LAMBDA_MIN),
            track_entropy=d <= ENTROPY_EVERY_ROUND_MAX_DIM)
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
    z = mdl.batch_forward(spec, params, dataset.X)
    if spec.n_outputs == 1:
        predicted = (z[:, 0] >= 0.5).astype(np.int64)
    else:
        predicted = np.argmax(z, axis=1)
    return 100.0 * float(np.mean(predicted != dataset.true_labels))


def run_online(config: ExperimentConfig, run_index: int,
               snapshot_path=None) -> RunReport:
    """One seeded pass over the training stream, then offline evaluation.

    The rng chain is: seed = base_seed + run_index; sub-seeds for the split
    and the label noise are drawn first, then learner initialization, then
    the per-round draws, so every byte of the outcome is reproducible.
    """
    t0 = time.perf_counter()
    seed = config.base_seed + run_index
    rng = np.random.default_rng(seed)
    split_seed = int(rng.integers(2 ** 63))
    flip_seed = int(rng.integers(2 ** 63))
    dataset = load_dataset(config.dataset)
    train, test = dat.split_shuffle(dataset, config.train_fraction, split_seed,
                                    shuffle=config.shuffle)
    if config.noise_fraction > 0.0:
        train = dat.flip_labels(train, config.noise_fraction, flip_seed)
    spec = build_model(config.model, dataset)
    learner = make_learner(config.learner, spec, rng)

    n_train = len(train)
    cadence = config.snapshot_every or max(1, math.ceil(n_train / 200))
    is_belief = isinstance(learner, lrn.BeliefFlowLearner)
    mistakes = np.zeros(n_train, dtype=np.uint8)
    entropies = np.full(n_train, np.nan)
    entropy_trace = []
    snapshots = [(0, bel.snapshot_view(learner.belief))] if is_belief else []
    for i in range(n_train):
        try:
            outcome = learner.step(train.example(i), rng)
        except lrn.NonFiniteStepError as exc:
            raise lrn.NonFiniteStepError(f"run {run_index} round {i + 1}: {exc}") from exc
        mistakes[i] = 0 if outcome.correct else 1
        if outcome.entropy is not None:
            entropies[i] = outcome.entropy
        rnd = i + 1
        if rnd % cadence == 0 or rnd == n_train:
            if is_belief:
                snapshots.append((rnd, bel.snapshot_view(learner.belief)))
                ent = outcome.entropy if outcome.entropy is not None else bel.entropy(learner.belief)
                entropies[i] = ent
                entropy_trace.append((rnd, ent))
    final_error = evaluate_error_pct(spec, learner.freeze(), test) if len(test) else float("nan")
    if snapshot_path is not None and is_belief:
        write_snapshots(snapshot_path, snapshots)
    return RunReport(
        run_index=run_index,
        seed=seed,
        n_train=n_train,
        n_test=len(test),
        mistakes=mistakes,
        entropies=entropies,
        entropy_trace=entropy_trace,
        online_error_pct=100.0 * float(np.mean(mistakes)) if n_train else float("nan"),
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


def _pool_entry(payload):
    raw, run_index, snapshot_path = payload
    config = ExperimentConfig.from_dict(raw)
    return run_online(config, run_index, snapshot_path)


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Validate, run all runs (in parallel when allowed), write outputs."""
    validate_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snap_path = out / "snapshots.bin"
    workers = parallel_workers(config.runs)
    jobs = [(config.to_dict(), idx, str(snap_path) if idx == 0 else None)
            for idx in range(config.runs)]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_pool_entry, jobs))
    else:
        reports = [_pool_entry(job) for job in jobs]
    reports.sort(key=lambda r: r.run_index)
    summary = summarize(config, reports)
    write_summary(out / "summary.json", summary)
    write_curve(out / "curve.csv", reports[0])
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


def write_summary(path, summary: dict) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_curve(path, report: RunReport) -> None:
    """Per-round curve for one run: round,cum_mistakes,entropy."""
    cum = np.cumsum(report.mistakes)
    with Path(path).open("w", encoding="ascii") as fh:
        fh.write("round,cum_mistakes,entropy\n")
        for i in range(report.n_train):
            ent = report.entropies[i]
            ent_s = _fmt(ent) if np.isfinite(ent) else ""
            fh.write(f"{i + 1},{int(cum[i])},{ent_s}\n")


def _payload_len(variant: str, d: int, version: int) -> int:
    if variant == bel.FULL:
        return d * d + d if version == 1 else d * d
    return d if variant == bel.DIAGONAL else 1


def write_snapshots(path, snapshots: list) -> None:
    """Belief snapshots as a versioned little-endian record stream (v2).

    Header, 24 bytes: magic 'BFSN', u32 version, u32 variant code, u32
    dimension d, u32 payload length p, 4 zero bytes. Records: u64 round,
    then d + p float64 values: the mean, then the covariance payload. That
    is W = L^{-1} row-major for full (the precision is W^T W), the
    variances for diagonal and the variance for spherical. Every float64
    starts on an 8-byte boundary, so a reader can use records in place.
    """
    if not snapshots:
        raise ValueError("no snapshots to write")
    first = snapshots[0][1]
    variant, d = first.variant, first.dim
    payload_len = _payload_len(variant, d, SNAPSHOT_VERSION)
    with Path(path).open("wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(_HEADER_V2.pack(SNAPSHOT_VERSION, _VARIANT_CODES[variant], d, payload_len))
        for rnd, state in snapshots:
            if state.variant != variant or state.dim != d:
                raise ValueError("snapshots mix variants or dimensions")
            if variant == bel.FULL:
                payload = state.inv_factor
            elif variant == bel.DIAGONAL:
                payload = state.variances
            else:
                payload = np.array([state.variance])
            fh.write(struct.pack("<Q", rnd))
            fh.write(np.ascontiguousarray(state.mean, dtype="<f8"))
            fh.write(np.ascontiguousarray(payload, dtype="<f8"))


def read_snapshots(path) -> list:
    """Inverse of write_snapshots; returns [(round, BeliefState), ...].

    v2 records are read-only views into one buffer holding the file, so the
    file is in memory once. A full v2 belief carries the mean and W only
    (see ``belief.root``). Version 1 files are still read: a 17-byte header
    (u8 variant code) and u32 rounds, with the full payload as U row-major
    plus the eigenvalues of Sigma = U diag(D) U^T.
    """
    buf = np.fromfile(path, dtype=np.uint8)
    if buf[:4].tobytes() != SNAPSHOT_MAGIC or buf.size < 8:
        raise ValueError(f"{path}: not a snapshot file")
    buf.flags.writeable = False
    version = struct.unpack_from("<I", buf, 4)[0]
    if version not in (1, 2):
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    header, round_fmt = (_HEADER_V1, "<I") if version == 1 else (_HEADER_V2, "<Q")
    offset = 4 + header.size
    if buf.size < offset:
        raise ValueError(f"{path}: truncated header")
    _, code, d, payload_len = header.unpack_from(buf, 4)
    variant = _VARIANT_NAMES.get(code)
    if variant is None:
        raise ValueError(f"{path}: unknown variant code {code}")
    if payload_len != _payload_len(variant, d, version):
        raise ValueError(f"{path}: payload length {payload_len} does not fit a {variant} "
                         f"belief of dimension {d}")
    round_size = struct.calcsize(round_fmt)
    record = round_size + 8 * (d + payload_len)
    if (buf.size - offset) % record:
        raise ValueError(f"{path}: truncated record stream")
    snapshots = []
    for start in range(offset, buf.size, record):
        rnd = struct.unpack_from(round_fmt, buf, start)[0]
        vals = buf[start + round_size:start + record].view("<f8")
        if version == 1:
            vals = vals.copy()  # v1 records are not 8-byte aligned
        mean, payload = vals[:d], vals[d:]
        if variant == bel.FULL and version == 1:
            state = bel.full_belief(mean, payload[:d * d].reshape(d, d), payload[d * d:])
        elif variant == bel.FULL:
            state = bel.BeliefState(bel.FULL, mean, inv_factor=payload.reshape(d, d))
        elif variant == bel.DIAGONAL:
            state = bel.BeliefState(bel.DIAGONAL, mean, variances=payload)
        else:
            state = bel.BeliefState(bel.SPHERICAL, mean, variance=float(payload[0]))
        snapshots.append((int(rnd), state))
    return snapshots


def write_trace(path, rows: list) -> None:
    """Pseudo-datapoint trace CSV: round,x,r_eigenvalues,rho,cum_rho.

    Vector fields are semicolon-joined; degenerate (identity) intervals keep
    their round number and leave the value fields empty.
    """

    def join(arr):
        if arr is None:
            return ""
        return ";".join(_fmt(float(v)) for v in np.atleast_1d(arr))

    with Path(path).open("w", encoding="ascii") as fh:
        fh.write("round,x,r_eigenvalues,rho,cum_rho\n")
        for row in rows:
            rho = "" if row.rho is None else _fmt(row.rho)
            cum = "" if row.cum_rho is None else _fmt(row.cum_rho)
            fh.write(f"{row.round},{join(row.x)},{join(row.eigenvalues)},{rho},{cum}\n")


# ---------------------------------------------------------------------------
# Verification (flow solver against the independent numerical oracles)


def verify_flow(dims=(1, 2, 3), cases: int = 200, seed: int = 0) -> list[dict]:
    """Compare the closed-form flow against the numerical minimizers.

    Returns one check row per metric: the worst KL gap against the oracle
    per dimension, the worst stationarity residual of the in-plane solver,
    and the worst flow-constraint violation across variants.
    """
    from . import oracles as orc  # scipy.optimize and scipy.integrate load only here

    checks = []
    rng = np.random.default_rng(seed)
    for d in dims:
        worst_gap = 0.0
        for _ in range(cases):
            mean = rng.normal(size=d)
            if d == 1:
                var = float(rng.uniform(0.2, 3.0)) ** 2
                prior = bel.full_belief(mean, np.eye(1), np.array([var]))
            else:
                q, _ = np.linalg.qr(rng.normal(size=(d, d)))
                evals = rng.uniform(0.2, 3.0, size=d) ** 2
                prior = bel.full_belief(mean, q, evals)
            w = bel.sample(prior, rng)
            w_prime = w + rng.normal(scale=0.5, size=d)
            flow = fl.solve_full(prior, w, w_prime)
            post = fl.apply_flow(prior, flow, w, w_prime)
            kl_closed = bel.kl_divergence(post, prior)
            if d == 1:
                sig = math.sqrt(bel.covariance(prior)[0, 0])
                u = ((w - mean) / sig).item()
                v = ((w_prime - mean) / sig).item()
                _, kl_oracle = orc.minimize_scalar_flow(u, v)
            else:
                kl_oracle, _ = orc.minimize_matrix_flow(mean, bel.covariance(prior), w, w_prime,
                                                        seed=int(rng.integers(2 ** 31)))
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
                a2 = fl.solve_2x2(u, v_par, v_perp, d1, d2)
                worst_resid = max(worst_resid, orc.plane_optimality_residual(u, v_par, v_perp, a2))
    checks.append({"name": f"stationarity residual, all four branches ({cases} cases)",
                   "value": worst_resid, "threshold": 1e-8})
    worst_constraint = 0.0
    for variant in BELIEF_VARIANTS:
        for d in (1, 2, 5, 20):
            for _ in range(max(1, cases // 8)):
                prior = _random_belief(variant, d, rng)
                w = bel.sample(prior, rng)
                w_prime = w + rng.normal(scale=0.5, size=d)
                flow = fl.solve(prior, w, w_prime)
                post = fl.apply_flow(prior, flow, w, w_prime)
                resid = _constraint_residual(prior, post, flow, w, w_prime)
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


def _constraint_residual(prior, post, flow, w, w_prime) -> float:
    """|| A w + b - w' || with b recovered from the posterior mean."""
    if flow.identity:
        return float(np.linalg.norm(w - w_prime))
    if flow.variant == bel.SPHERICAL:
        norm_dw = float(np.linalg.norm(w - prior.mean))
        aw_minus_amu = flow.scale * norm_dw * flow.d_hat
        return float(np.linalg.norm(aw_minus_amu + post.mean - w_prime))
    a = fl.flow_matrix(prior, flow)
    b = post.mean - a @ prior.mean
    return float(np.linalg.norm(a @ w + b - w_prime))


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
    with Path(args.config).open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    experiments = [ExperimentConfig.from_dict(e) for e in raw["experiments"]]
    names = [e.name for e in experiments]
    if len(set(names)) != len(names):
        raise ValueError("experiment names in a suite must be unique")
    for config in experiments:
        validate_config(config)
    out = Path(args.out)
    rows = []
    for config in experiments:
        summary = run_experiment(config, out / config.name)
        agg = summary["aggregate"]
        rows.append({
            "dataset": config.dataset.get("name") or config.dataset.get("path", "synthetic"),
            "learner": config.learner["algorithm"],
            "experiment": config.name,
            "final_error_pct": agg["final_error_pct"]["mean"],
            "online_error_pct": agg["online_error_pct"]["mean"],
        })
        print(f"{config.name}: final {agg['final_error_pct']['mean']:.2f}%")
    ranks = rank_table(rows)
    with (out / "suite_summary.json").open("w", encoding="utf-8") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "results": rows, "ranks": ranks},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def _cmd_verify(args) -> int:
    dims = tuple(int(tok) for tok in str(args.dims).split(",") if tok)
    checks = verify_flow(dims=dims, cases=args.cases, seed=args.seed)
    all_ok = True
    for chk in checks:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"{status} {chk['name']}: {chk['value']:.3e} (threshold {chk['threshold']:.0e})")
        all_ok = all_ok and chk["passed"]
    return 0 if all_ok else 1


def _cmd_trace(args) -> int:
    snapshots = read_snapshots(args.snapshots)
    rows = psd.pseudo_trace(snapshots)
    write_trace(args.out, rows)
    print(f"{len(rows)} trace rows -> {args.out}")
    return 0
