"""Harness: configs, seeded runs, aggregation, file formats, CLI."""

import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beliefflow
from beliefflow import belief as bel
from beliefflow import data as dat
from beliefflow import flow as fl
from beliefflow import harness as hns
from beliefflow import learners as lrn
from beliefflow import models as mdl
from beliefflow import pseudo as psd


def tiny_config(**overrides):
    raw = {
        "name": "tiny",
        "dataset": {"format": "synthetic", "n": 300, "n_features": 8, "seed": 5},
        "learner": {"algorithm": "bflo", "variant": "diagonal",
                    "eta": 0.05, "sigma_init": 0.2},
        "runs": 2,
        "base_seed": 40,
    }
    raw.update(overrides)
    return hns.ExperimentConfig.from_dict(raw)


def scrub_wall_times(summary):
    summary = json.loads(json.dumps(summary))
    for run in summary["runs"]:
        run["wall_time_s"] = 0.0
    return summary


# ---------------------------------------------------------------------------
# config


def test_config_round_trip():
    cfg = tiny_config()
    again = hns.ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown"):
        hns.ExperimentConfig.from_dict({"name": "x", "dataset": {}, "learner": {},
                                        "bogus": 1})
    with pytest.raises(ValueError, match="missing"):
        hns.ExperimentConfig.from_dict({"name": "x"})


def test_validate_rejects_bad_settings():
    with pytest.raises(ValueError):
        hns.validate_config(tiny_config(runs=0))
    with pytest.raises(ValueError):
        hns.validate_config(tiny_config(train_fraction=1.0))
    with pytest.raises(ValueError):
        hns.validate_config(tiny_config(learner={"algorithm": "adam"}))
    with pytest.raises(ValueError):
        hns.validate_config(tiny_config(
            learner={"algorithm": "bflo", "variant": "banana"}))
    with pytest.raises(ValueError, match="not found"):
        hns.validate_config(tiny_config(
            dataset={"format": "libsvm", "path": "/nonexistent/file.libsvm"}))
    with pytest.raises(ValueError, match="unknown model kind 'mlpp'"):
        hns.validate_config(tiny_config(model={"kind": "mlpp"}))
    with pytest.raises(ValueError, match=r"missing file keys \['labels'\]"):
        hns.validate_config(tiny_config(dataset={"format": "idx", "images": "a.idx"}))


@pytest.mark.parametrize("algorithm", ["bflo", "arow"])
@pytest.mark.parametrize("m", [0, 2.0, True])
def test_validate_rejects_m_that_is_not_an_integer_of_at_least_one(algorithm, m):
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        hns.validate_config(tiny_config(learner={"algorithm": algorithm, "m": m}))


@pytest.mark.parametrize("section, keys, bad", [
    ("learner", {"algorithm": "bflo", "sigma": 5.0}, "sigma"),
    ("learner", {"algorithm": "bflo", "lambda_min": 1e-8}, "lambda_min"),
    ("learner", {"algorithm": "sgd", "hidden": 4}, "hidden"),
    ("model", {"kind": "mlp", "hiden": 4}, "hiden"),
])
def test_validate_rejects_unknown_learner_and_model_keys(section, keys, bad):
    with pytest.raises(ValueError, match=f"unknown {section} keys .*'{bad}'"):
        hns.validate_config(tiny_config(**{section: keys}))


@pytest.mark.parametrize("dataset, bad", [
    ({"format": "synthetic", "n": 50, "flip_fracton": 0.3}, "flip_fracton"),
    ({"format": "libsvm", "path": "x.libsvm", "label_column": 0}, "label_column"),
    ({"format": "csv", "path": "x.csv", "n_features": 3}, "n_features"),
    ({"format": "idx", "images": "i", "labels": "l", "path": "p"}, "path"),
])
def test_validate_rejects_unknown_dataset_keys_per_format(dataset, bad):
    with pytest.raises(ValueError, match=f"unknown dataset keys .*'{bad}'"):
        hns.validate_config(tiny_config(dataset=dataset))


def test_validate_accepts_every_key_of_every_dataset_format(tmp_path):
    for name in ("x.libsvm", "x.csv", "images", "labels"):
        (tmp_path / name).write_bytes(b"")
    values = {"name": "ds", "n_features": 3, "label_column": 0, "scale_minmax": True,
              "n": 50, "seed": 1, "flip_fraction": 0.1,
              "images": str(tmp_path / "images"), "labels": str(tmp_path / "labels")}
    for fmt, keys in hns.DATASET_KEYS.items():
        # "path" (and "format", replaced below) fall back to the format's file
        dataset = {key: values.get(key, str(tmp_path / f"x.{fmt}")) for key in keys}
        hns.validate_config(tiny_config(dataset=dict(dataset, format=fmt)))


def test_validate_accepts_a_null_libsvm_n_features_and_the_file_sets_it(tmp_path):
    path = tmp_path / "x.libsvm"
    path.write_text("+1 1:0.5 4:2.0\n-1 2:1.0\n")
    dataset = {"format": "libsvm", "path": str(path), "n_features": None}
    hns.validate_config(tiny_config(dataset=dataset))
    assert hns.load_dataset(dataset).n_features == 4
    with pytest.raises(ValueError, match="n_features must be an integer of at least 1, got None"):
        hns.validate_config(tiny_config(dataset={"format": "synthetic", "n_features": None}))


def test_validate_accepts_every_key_of_every_learner_at_once():
    # run --learner TAG swaps the algorithm and keeps the other keys
    learner = {"algorithm": "bflo", "variant": "full", "eta": 0.1, "sigma_init": 0.2, "m": 2,
               "non_expansive": True, "r": 10.0, "p_drop": 0.5}
    for tag in hns.LEARNER_TAGS:
        hns.validate_config(tiny_config(learner=dict(learner, algorithm=tag),
                                        model={"kind": "mlp", "hidden": 4}))


def test_config_key_is_stable_and_sensitive():
    assert hns.config_key(tiny_config()) == hns.config_key(tiny_config())
    assert hns.config_key(tiny_config()) != hns.config_key(tiny_config(base_seed=41))


# ---------------------------------------------------------------------------
# runs


def test_run_online_is_deterministic():
    cfg = tiny_config()
    a = hns.run_online(cfg, 0)
    b = hns.run_online(cfg, 0)
    np.testing.assert_array_equal(a.mistakes, b.mistakes)
    assert a.final_error_pct == b.final_error_pct
    assert a.seed == cfg.base_seed
    c = hns.run_online(cfg, 1)
    assert c.seed == cfg.base_seed + 1
    assert not np.array_equal(a.mistakes, c.mistakes)


def test_run_online_splits_and_counts():
    cfg = tiny_config()
    rep = hns.run_online(cfg, 0)
    assert rep.n_train == 240 and rep.n_test == 60
    assert rep.mistakes.shape == (240,)
    assert 0.0 <= rep.online_error_pct <= 100.0
    assert rep.entropy_trace, "belief learners record an entropy trace"
    rounds = [r for r, _ in rep.entropy_trace]
    assert rounds[-1] == 240
    # cadence ceil(240/200) = 2
    assert rounds[0] == 2


def test_run_online_every_learner_tag():
    for algo in hns.LEARNER_TAGS:
        if algo == "dropout":
            cfg = tiny_config(learner={"algorithm": "dropout", "eta": 0.05},
                              model={"kind": "mlp", "hidden": 4})
        else:
            cfg = tiny_config(learner={"algorithm": algo, "eta": 0.05,
                                       "sigma_init": 0.2})
        rep = hns.run_online(cfg, 0)
        assert np.isfinite(rep.final_error_pct), algo


def test_run_online_judges_predictions_against_true_labels(monkeypatch):
    # the learner trains on noise-flipped labels; a mistake is a prediction
    # that misses the true label, not the observed one
    rounds = []
    real_step = lrn.BeliefFlowLearner.step

    def recording_step(self, ex, rng):
        predicted = real_step(self, ex, rng)
        rounds.append((predicted, ex.label, ex.true_label))
        return predicted

    monkeypatch.setattr(lrn.BeliefFlowLearner, "step", recording_step)
    rep = hns.run_online(tiny_config(noise_fraction=0.3), 0)
    predicted, observed, true = np.array(rounds).T
    assert np.any(observed != true)
    np.testing.assert_array_equal(rep.mistakes, predicted != true)
    assert not np.array_equal(rep.mistakes, predicted != observed)


def test_evaluate_error_pct_hand_case():
    spec = mdl.logistic_model(1)
    ds_x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    labels = np.array([1, 0, 0, 0])
    from beliefflow.data import Dataset
    ds = Dataset("t", ds_x, labels, labels.copy(), 1, 2, sparse=False)
    # w = +5: predicts 1,1,0,0 -> wrong on example 1 only
    assert hns.evaluate_error_pct(spec, np.array([5.0]), ds) == 25.0


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_stderr_frozen_case():
    base = hns.run_online(tiny_config(), 0)
    a = hns.RunReport(**{**base.__dict__, "online_error_pct": 10.0,
                         "final_error_pct": 10.0, "run_index": 0})
    b = hns.RunReport(**{**base.__dict__, "online_error_pct": 20.0,
                         "final_error_pct": 20.0, "run_index": 1})
    agg = hns.aggregate([a, b])
    assert agg["final_error_pct"]["mean"] == 15.0
    # sample std 7.0711 over sqrt(2) -> 5
    np.testing.assert_allclose(agg["final_error_pct"]["stderr"], 5.0, rtol=1e-12)


def test_aggregate_single_run_has_no_stderr():
    rep = hns.run_online(tiny_config(), 0)
    agg = hns.aggregate([rep])
    assert agg["final_error_pct"]["stderr"] is None


def test_aggregate_rejects_mixed_configs():
    a = hns.run_online(tiny_config(), 0)
    b = hns.run_online(tiny_config(base_seed=99), 0)
    with pytest.raises(ValueError):
        hns.aggregate([a, b])


def test_aggregate_is_permutation_invariant():
    reports = [hns.run_online(tiny_config(runs=3), i) for i in range(3)]
    forward = hns.aggregate(reports)
    backward = hns.aggregate(list(reversed(reports)))
    assert json.dumps(forward, sort_keys=True) == json.dumps(backward, sort_keys=True)


def test_rank_table():
    rows = [
        {"dataset": "d1", "learner": "sgd", "final_error_pct": 5.0, "online_error_pct": 0},
        {"dataset": "d1", "learner": "bflo", "final_error_pct": 2.0, "online_error_pct": 0},
        {"dataset": "d2", "learner": "sgd", "final_error_pct": 3.0, "online_error_pct": 0},
        {"dataset": "d2", "learner": "bflo", "final_error_pct": 3.0, "online_error_pct": 0},
    ]
    ranks = hns.rank_table(rows)
    assert ranks["per_dataset"]["d1"] == {"sgd": 2.0, "bflo": 1.0}
    assert ranks["per_dataset"]["d2"] == {"sgd": 1.5, "bflo": 1.5}
    assert ranks["mean_rank"] == {"bflo": 1.25, "sgd": 1.75}


def test_average_ranks_match_scipy_on_ties():
    from scipy import stats

    rng = np.random.default_rng(53)
    cases = [[3.0, 3.0], [1.0, 2.0, 2.0, 2.0, 0.5], [4.0, 4.0, 4.0, 4.0], [7.0], [],
             rng.integers(0, 4, size=25).astype(float), [2.0, np.nan, 1.0]]
    for values in cases:
        np.testing.assert_array_equal(hns.average_ranks(values),
                                      stats.rankdata(values, method="average"))


# A child's command line: beliefflow's CLI on the arguments after -c.
CLI = "import sys\nfrom beliefflow.harness import cli_main\nassert cli_main(sys.argv[1:]) == 0"


def run_child(code, *args):
    """Run code in a fresh interpreter with the package on its path; its stdout."""
    src = str(Path(beliefflow.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout


def child_peak_rss_kb(code, *args):
    """The peak resident set, in kB, of a child that runs code: its own
    VmHWM, which it reads from /proc/self/status (Linux) at exit. The
    ru_maxrss that wait4 reports would carry this process's high-water
    mark into the child's."""
    out = run_child(code + "\nprint(next(line.split()[1] for line in open('/proc/self/status')"
                           " if line.startswith('VmHWM:')))", *args)
    return int(out.split()[-1])


def write_csv_suite(directory, *experiments):
    """A small CSV stream and a suite of the given (name, learner, runs)
    experiments on it; returns the suite's path and its configs."""
    rng = np.random.default_rng(61)
    X = rng.normal(size=(40, 6))
    rows = np.column_stack([X, (X[:, 0] + X[:, 1] > 0).astype(int)])
    csv = directory / "stream.csv"
    csv.write_text("".join(",".join(f"{v:.6f}" for v in row[:-1]) + f",{int(row[-1])}\n"
                           for row in rows))
    configs = [tiny_config(name=name, runs=runs, learner=learner,
                           dataset={"format": "csv", "path": str(csv), "name": "stream"})
               for name, learner, runs in experiments]
    suite = directory / "suite.json"
    suite.write_text(json.dumps({"experiments": [c.to_dict() for c in configs]}))
    return suite, configs


def test_suite_and_trace_import_only_what_they_use(tmp_path):
    # a serial suite needs no pool, no pseudo datapoints and no scipy, and
    # a trace no scipy, no learners and no models; numpy.ma is what
    # np.unique used to pull in
    suite, _ = write_csv_suite(tmp_path, ("full", {"algorithm": "bflo", "variant": "full",
                                                   "eta": 0.05, "sigma_init": 0.2}, 1))
    loaded = ("\nprint('loaded:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
              "or m in ('numpy.ma', 'concurrent.futures', 'beliefflow.pseudo', "
              "'beliefflow.learners', 'beliefflow.models')))")
    out = tmp_path / "out"
    ran = run_child(CLI + loaded, "suite", "--config", str(suite), "--out", str(out))
    assert ran.splitlines()[-1].split()[1:] == ["beliefflow.learners", "beliefflow.models"]
    ran = run_child(CLI + loaded, "trace", "--snapshots", str(out / "full" / "snapshots.bin"),
                    "--out", str(out / "full" / "trace.csv"))
    assert ran.splitlines()[-1].split()[1:] == ["beliefflow.pseudo"]


def parse_here_only(monkeypatch, name="parse_csv"):
    """Make data.<name> count its calls and raise in any process but this
    one (a fork-started pool worker inherits the patch); returns the calls."""
    pid, real, calls = os.getpid(), getattr(dat, name), []

    def parse(*args, **kwargs):
        if os.getpid() != pid:
            raise RuntimeError(f"{name} ran in pool worker {os.getpid()}")
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dat, name, parse)
    return calls


def assert_same_outputs(a, b, names):
    """The experiment directories a and b hold the same outputs, summaries
    compared without their wall times."""
    for exp in names:
        for name in ("curve.csv", "snapshots.bin", "summary.json"):
            x, y = a / exp / name, b / exp / name
            assert x.exists() == y.exists(), (exp, name)
            if name == "summary.json":
                assert (scrub_wall_times(json.loads(x.read_text()))
                        == scrub_wall_times(json.loads(y.read_text())))
            elif x.exists():
                assert x.read_bytes() == y.read_bytes(), (exp, name)


def test_a_suite_parses_its_dataset_once_for_its_serial_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("BFLO_THREADS", "1")
    suite, configs = write_csv_suite(
        tmp_path, ("bflo", {"algorithm": "bflo", "variant": "diagonal", "eta": 0.05,
                            "sigma_init": 0.2}, 2),
        ("sgd", {"algorithm": "sgd", "eta": 0.05, "sigma_init": 0.2}, 2))
    parsed = []
    real_parse = dat.parse_csv

    def counting(*args, **kwargs):
        parsed.append(real_parse(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(dat, "parse_csv", counting)
    assert hns.cli_main(["suite", "--config", str(suite), "--out", str(tmp_path / "s")]) == 0
    assert len(parsed) == 1
    shared = parsed[0]
    for arr in (shared.X, shared.labels, shared.true_labels):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # each experiment alone, parsing its own copy once, writes the same bytes
    for config in configs:
        hns.run_experiment(config, tmp_path / "alone" / config.name)
    assert_same_outputs(tmp_path / "s", tmp_path / "alone", [c.name for c in configs])
    assert len(parsed) == 1 + 1 + 1


def test_a_pooled_suite_parses_its_dataset_once_in_the_command_process(tmp_path, monkeypatch):
    # 2 experiments x 4 runs on 2 workers parsed the CSV in every run's worker
    suite, configs = write_csv_suite(
        tmp_path, ("bflo", {"algorithm": "bflo", "variant": "diagonal", "eta": 0.05,
                            "sigma_init": 0.2}, 4),
        ("sgd", {"algorithm": "sgd", "eta": 0.05, "sigma_init": 0.2}, 4))
    calls = parse_here_only(monkeypatch)
    monkeypatch.setenv("BFLO_THREADS", "2")
    assert hns.cli_main(["suite", "--config", str(suite), "--out", str(tmp_path / "pool")]) == 0
    assert len(calls) == 1
    monkeypatch.setenv("BFLO_THREADS", "1")
    assert hns.cli_main(["suite", "--config", str(suite), "--out", str(tmp_path / "one")]) == 0
    assert_same_outputs(tmp_path / "pool", tmp_path / "one", [c.name for c in configs])
    assert ((tmp_path / "pool" / "suite_summary.json").read_bytes()
            == (tmp_path / "one" / "suite_summary.json").read_bytes())


def test_a_pooled_run_parses_its_dataset_once_in_the_command_process(tmp_path, monkeypatch):
    _, (config,) = write_csv_suite(tmp_path, ("bflo", {"algorithm": "bflo", "variant": "full",
                                                       "eta": 0.05, "sigma_init": 0.2}, 1))
    calls = parse_here_only(monkeypatch)
    p = write_config(tmp_path, config)
    for threads, out in (("2", "pool"), ("1", "one")):
        monkeypatch.setenv("BFLO_THREADS", threads)
        assert hns.cli_main(["run", "--config", str(p), "--out", str(tmp_path / out / "bflo"),
                             "--runs", "4"]) == 0
    assert len(calls) == 2
    assert_same_outputs(tmp_path / "pool", tmp_path / "one", ["bflo"])


def test_importing_the_harness_loads_no_scipy_sparse_stats_or_optimize():
    code = ("import sys, beliefflow.harness; "
            "print(sorted(m for m in ('scipy.sparse', 'scipy.stats', 'scipy.optimize', "
            "'scipy.integrate', 'beliefflow.oracles') if m in sys.modules))")
    src = str(Path(beliefflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_run_online_names_run_and_round_of_a_non_finite_step(monkeypatch):
    # the parsers reject inf, so the bad row comes from an in-memory dataset
    X = np.random.default_rng(59).normal(size=(10, 3))
    X[6, 1] = np.inf
    labels = (X[:, 0] > 0).astype(np.int64)
    ds = dat.Dataset("inf", X, labels, labels.copy(), 3, 2, sparse=False)
    monkeypatch.setattr(hns, "load_dataset", lambda dspec: ds)
    cfg = tiny_config(shuffle=False, train_fraction=0.9, base_seed=7)
    with pytest.raises(lrn.NonFiniteStepError, match=r"run 2 round 7: bflo-diagonal update 1"), \
            np.errstate(invalid="ignore"):
        hns.run_online(cfg, 2)


@pytest.mark.parametrize("overrides, message", [
    ({"dataset": {"format": "libsvmm", "path": "nope"}},
     f"unknown dataset format 'libsvmm'; pick one of {tuple(hns.DATASET_KEYS)}"),
    ({"learner": {"algorithm": "bflo", "variant": "diagnal"}},
     f"unknown belief variant 'diagnal'; pick one of {bel.VARIANTS}"),
    ({"learner": {"algorithm": "sgdd"}},
     f"unknown learner algorithm 'sgdd'; pick one of {hns.LEARNER_TAGS}"),
    ({"model": {"kind": "mlpp"}}, f"unknown model kind 'mlpp'; pick one of {mdl.KINDS}"),
    ({"dataset": {"format": "libsvm"}}, "libsvm dataset is missing file keys ['path']"),
    ({"dataset": {"format": "idx", "images": "i"}}, "idx dataset is missing file keys ['labels']"),
])
def test_run_online_rejects_an_unknown_config_value(overrides, message):
    # run_online checks its config, so a value no builder knows is refused
    # before any branch could fall through on it
    with pytest.raises(ValueError, match=re.escape(message)):
        hns.run_online(tiny_config(**overrides), 0)


def test_run_online_diagonal_snapshots_stay_intact(tmp_path, monkeypatch):
    # the learner writes its diagonal belief in place; each snapshot is a
    # copy, so consecutive ones differ exactly on the coordinates one round
    # moved (the active ones of its sparse example)
    rng = np.random.default_rng(61)
    X = rng.normal(size=(40, 8)) * (rng.random((40, 8)) < 0.3)
    labels = (X.sum(axis=1) > 0).astype(np.int64)
    ds = dat.Dataset("sparse", X, labels, labels.copy(), 8, 2, sparse=False)
    monkeypatch.setattr(hns, "load_dataset", lambda dspec: ds)
    active = []
    real_step = lrn.BeliefFlowLearner.step

    def recording_step(self, ex, rng):
        active.append(mdl.active_subproblem(self.spec, ex.x)[1])
        return real_step(self, ex, rng)

    monkeypatch.setattr(lrn.BeliefFlowLearner, "step", recording_step)
    path = tmp_path / "snapshots.bin"
    hns.run_online(tiny_config(runs=1, snapshot_every=1), 0, path)
    snaps = hns.read_snapshots(path)
    assert [rnd for rnd, _ in snaps] == list(range(33))
    prior = snaps[0][1]
    np.testing.assert_array_equal(prior.mean, np.zeros(8))
    np.testing.assert_array_equal(prior.variances, np.full(8, 0.2 * 0.2))
    assert any(idx.size for idx in active) and any(idx.size < 8 for idx in active)
    for (_, prev), (rnd, cur), idx in zip(snaps, snaps[1:], active):
        np.testing.assert_array_equal(np.flatnonzero(prev.mean != cur.mean), idx)
        np.testing.assert_array_equal(np.flatnonzero(prev.variances != cur.variances), idx)


# ---------------------------------------------------------------------------
# outputs


def test_run_experiment_writes_all_outputs(tmp_path):
    out = tmp_path / "exp"
    summary = hns.run_experiment(tiny_config(), out)
    assert (out / "summary.json").exists()
    assert (out / "curve.csv").exists()
    assert (out / "snapshots.bin").exists()
    assert summary["aggregate"]["runs"] == 2
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk["name"] == "tiny"
    assert len(on_disk["runs"]) == 2

    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "round,cum_mistakes,entropy"
    assert len(lines) == 1 + 240
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[2])  # belief learner: entropy present from round 1

    # cumulative mistakes reconcile with the summary
    last = lines[-1].split(",")
    assert int(last[1]) == on_disk["runs"][0]["total_mistakes"]


def curve_entropy_rounds(curve):
    rows = [line.split(",") for line in curve.read_text().splitlines()[1:]]
    return [int(r[0]) for r in rows if r[2]], len(rows)


def test_entropy_is_recorded_every_round_up_to_the_threshold(tmp_path, monkeypatch):
    cfg = tiny_config(runs=1)  # d = 8
    hns.run_experiment(cfg, tmp_path / "every")
    rounds, n = curve_entropy_rounds(tmp_path / "every" / "curve.csv")
    assert rounds == list(range(1, n + 1))
    monkeypatch.setattr(hns, "ENTROPY_EVERY_ROUND_MAX_DIM", 7)
    summary = hns.run_experiment(cfg, tmp_path / "snapshots")
    rounds, _ = curve_entropy_rounds(tmp_path / "snapshots" / "curve.csv")
    assert rounds == [r for r, _ in summary["runs"][0]["entropy_trace"]]
    assert rounds == list(range(2, n + 1, 2))  # cadence ceil(240 / 200) = 2
    # the same rounds carry the same bytes either way
    every = (tmp_path / "every" / "curve.csv").read_text().splitlines()
    sparse = (tmp_path / "snapshots" / "curve.csv").read_text().splitlines()
    assert [every[r] for r in rounds] == [sparse[r] for r in rounds]


def test_summary_is_deterministic_modulo_wall_time(tmp_path):
    s1 = hns.run_experiment(tiny_config(), tmp_path / "a")
    s2 = hns.run_experiment(tiny_config(), tmp_path / "b")
    assert json.dumps(scrub_wall_times(s1), sort_keys=True) == \
        json.dumps(scrub_wall_times(s2), sort_keys=True)


@pytest.mark.parametrize("variant", bel.VARIANTS)
def test_snapshot_round_trip(tmp_path, variant):
    # d = 8: a full interval of 7 flows (20 floats each) outgrows the 64 of W
    # and makes a keyframe; the last, of 2 flows, is a delta
    cfg = tiny_config(snapshot_every=7 if variant == bel.FULL else None,
                      learner={"algorithm": "bflo", "variant": variant, "eta": 0.05,
                               "sigma_init": 0.2})
    out = tmp_path / "exp"
    hns.run_experiment(cfg, out)
    snaps = hns.read_snapshots(out / "snapshots.bin")
    rounds = [r for r, _ in snaps]
    assert rounds[0] == 0 and rounds[-1] == 240
    assert rounds == sorted(rounds)
    state = snaps[-1][1]
    assert state.variant == variant and state.dim == 8
    if variant == bel.FULL:
        assert snapshot_kinds(out / "snapshots.bin") == ["keyframe"] * (len(snaps) - 1) + ["delta"]
    # rewrite and reread: identical bytes
    p2 = tmp_path / "again.bin"
    hns.write_snapshots(p2, snaps)
    assert p2.read_bytes() == (out / "snapshots.bin").read_bytes()
    # and the trace pipeline consumes them
    rows = psd.pseudo_trace(snaps)
    assert len(rows) == len(snaps) - 1


def test_read_snapshots_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a snapshot file"):
        hns.read_snapshots(p)
    good = tmp_path / "trunc.bin"
    header = hns.SNAPSHOT_MAGIC + hns._HEADER_V2.pack(2, 1, 2, 2)
    good.write_bytes(header + b"\x01\x02")  # partial record
    with pytest.raises(ValueError, match=re.escape(f"{good}: truncated record at byte 24")):
        hns.read_snapshots(good)
    good.write_bytes(hns.SNAPSHOT_MAGIC + struct.pack("<II", 2, 1))  # v2 header cut short
    with pytest.raises(ValueError, match="truncated header"):
        hns.read_snapshots(good)
    good.write_bytes(hns.SNAPSHOT_MAGIC + struct.pack("<IIII4x", 2, 0, 3, 12))  # full v2 needs 9
    with pytest.raises(ValueError, match="payload length"):
        hns.read_snapshots(good)


def test_parallel_workers_env_cap(monkeypatch):
    monkeypatch.setenv("BFLO_THREADS", "1")
    assert hns.parallel_workers(8) == 1
    monkeypatch.setenv("BFLO_THREADS", "4")
    assert hns.parallel_workers(8) == 4
    assert hns.parallel_workers(2) == 2
    monkeypatch.setenv("BFLO_THREADS", "zero")
    with pytest.raises(ValueError):
        hns.parallel_workers(8)


def test_parallel_runs_match_serial_runs(tmp_path, monkeypatch):
    cfg = tiny_config()
    monkeypatch.setenv("BFLO_THREADS", "1")
    s_serial = hns.run_experiment(cfg, tmp_path / "serial")
    monkeypatch.setenv("BFLO_THREADS", "2")
    s_par = hns.run_experiment(cfg, tmp_path / "par")
    assert json.dumps(scrub_wall_times(s_serial), sort_keys=True) == \
        json.dumps(scrub_wall_times(s_par), sort_keys=True)


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    return p


def test_cli_run_writes_outputs(tmp_path, capsys):
    p = write_config(tmp_path, tiny_config(runs=1))
    code = hns.cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o"),
                         "--seed", "7"])
    assert code == 0
    assert (tmp_path / "o" / "summary.json").exists()
    assert (tmp_path / "o" / "curve.csv").exists()
    out = capsys.readouterr().out
    assert "final" in out


def test_cli_run_missing_dataset_fails_without_partial_outputs(tmp_path, capsys):
    cfg = tiny_config(dataset={"format": "libsvm", "path": str(tmp_path / "nope.libsvm")})
    p = write_config(tmp_path, cfg)
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(p), "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["bflo", "sgd"])
def test_cli_run_rejects_m_zero_without_outputs(tmp_path, capsys, algorithm):
    # with m = 0 no update would run and every round would count as a mistake
    cfg = tiny_config(learner={"algorithm": algorithm, "eta": 0.05, "m": 0})
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert "m must be an integer >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("learner, model", [
    ({"algorithm": "bflo", "sigma_init": 0}, {}),
    ({"algorithm": "dropout", "p_drop": 2}, {"kind": "mlp", "hidden": 4}),
    ({"algorithm": "dropout"}, {"kind": "logistic"}),
    ({"algorithm": "arow"}, {"kind": "mlp", "hidden": 4}),
])
def test_cli_run_with_a_learner_that_cannot_be_built_leaves_no_directory(tmp_path, capsys,
                                                                         learner, model):
    cfg = tiny_config(learner=learner, model=model)
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    assert "error" in capsys.readouterr().err


def test_the_variant_bytes_suite_validates():
    # the byte gate's suite: every variant with the clamp off and on, plus a
    # full run that floors and re-syncs
    experiments = hns.load_suite(Path(__file__).parents[1] / "configs" / "variant_bytes.json")
    for config in experiments:
        hns.validate_config(config)
    cells = [hns._suite_cell(config) for config in experiments]
    assert len(set(cells)) == len(cells)
    assert ({(c.learner["variant"], c.learner["non_expansive"]) for c in experiments[:6]}
            == {(v, clamp) for v in bel.VARIANTS for clamp in (False, True)})


def test_cli_run_rejects_a_misspelt_dataset_key_without_outputs(tmp_path, capsys):
    raw = json.loads((Path(__file__).parents[1] / "configs" / "synthetic_quick.json").read_text())
    raw["dataset"]["flip_fracton"] = 0.3
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(p), "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert "flip_fracton" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("overrides, named", [
    ({"model": {"kind": "mlpp"}}, "'mlpp'"),
    ({"dataset": {"format": "csv", "label_column": 0}}, "'path'"),
    ({"dataset": {"format": "libsvm"}}, "'path'"),
    ({"dataset": {"format": "libsvm", "path": None}}, "'path'"),
    ({"dataset": {"format": "idx", "images": "train-images.idx"}}, "'labels'"),
])
def test_cli_run_rejects_a_malformed_config_without_outputs(tmp_path, capsys, overrides, named):
    # an unknown model kind used to build an MLP, a missing file key ended
    # in a KeyError traceback and a null one in a TypeError traceback
    cfg = tiny_config(**overrides)
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("snapshot_every", 0), ("snapshot_every", -3), ("snapshot_every", 2.5),
    ("runs", 1.5), ("runs", "2"), ("runs", True),
    ("train_fraction", "0.5"), ("noise_fraction", None),
    ("base_seed", 1.5), ("shuffle", "no"),
    ("name", 3), ("learner", "bflo"), ("model", None), ("dataset", []),
])
def test_cli_run_rejects_a_malformed_top_level_value_without_outputs(tmp_path, capsys,
                                                                     key, value):
    # a bad snapshot_every used to run at some other cadence, "shuffle": "no"
    # shuffled, a string or fractional count ended in a TypeError traceback,
    # and so did a section that is not an object
    raw = json.loads((Path(__file__).parents[1] / "configs" / "synthetic_quick.json").read_text())
    raw[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(p), "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert f"error: {key} must be" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, raw, args, named", [
    ("run", "[1, 2]", [], "{p}: a config file must hold an object, got list"),
    ("run", '{"name": "x",', [], "{p}: Expecting property name"),
    ("suite", '{"experiments": [', [], "{p}: Expecting value"),
    ("run", tiny_config(base_seed=-1), [], "base_seed must not be negative, got -1"),
    ("run", tiny_config(), ["--seed", "-5"], "base_seed must not be negative, got -5"),
    ("run", tiny_config(dataset={"format": "synthetic", "n": 300, "n_features": 8, "seed": -2}),
     [], "seed must not be negative, got -2"),
], ids=["config-list", "config-syntax", "suite-syntax", "base-seed", "seed-flag", "dataset-seed"])
def test_cli_names_the_file_or_key_of_a_bad_config(tmp_path, capsys, command, raw, args, named):
    # a config holding a list ended in a TypeError traceback, a syntax error
    # named no file, and a negative seed failed inside numpy, naming no key
    p = tmp_path / "cfg.json"
    p.write_text(raw if isinstance(raw, str) else json.dumps(raw.to_dict()))
    out_dir = tmp_path / "never"
    assert hns.cli_main([command, "--config", str(p), "--out", str(out_dir), *args]) == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + named.format(p=p))
    assert captured.out == ""


def test_cli_run_rejects_an_unknown_learner_key_without_outputs(tmp_path, capsys):
    cfg = tiny_config(learner={"algorithm": "bflo", "sigma": 5.0})
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    assert "'sigma'" in capsys.readouterr().err


def idx_pair_with_a_short_header(tmp_path, short):
    """A one-image IDX pair whose file `short` ends one byte before its
    header does."""
    headers = {"images": struct.pack(">IIII", 2051, 1, 1, 1), "labels": struct.pack(">II", 2049, 1)}
    for key, header in headers.items():
        (tmp_path / key).write_bytes(header[:-1] if key == short else header + b"\x00")
    return {"format": "idx", "images": str(tmp_path / "images"),
            "labels": str(tmp_path / "labels")}


MLP = {"kind": "mlp", "hidden": 2}


@pytest.mark.parametrize("learner, model, idx, named", [
    ({"eta": None}, {}, None, "eta must be a number, got None"),
    ({"eta": True}, {}, None, "eta must be a number, got True"),
    ({"sigma_init": None}, {}, None, "sigma_init must be a number, got None"),
    ({"algorithm": "arow", "r": None}, {}, None, "r must be a number, got None"),
    ({"algorithm": "dropout", "p_drop": None}, MLP, None, "p_drop must be a number, got None"),
    ({"non_expansive": "yes"}, {}, None, "non_expansive must be true or false, got 'yes'"),
    ({}, {"kind": "mlp", "hidden": None}, None, "hidden must be an integer of at least 1"),
    ({}, {"kind": "mlp", "hidden": 2.5}, None, "hidden must be an integer of at least 1"),
    ({}, {}, "images", "images: 15 bytes, shorter than its 16-byte header"),
    ({}, {}, "labels", "labels: 7 bytes, shorter than its 8-byte header"),
], ids=["eta-null", "eta-bool", "sigma_init-null", "r-null", "p_drop-null", "non_expansive-str",
        "hidden-null", "hidden-float", "idx-images-header", "idx-labels-header"])
def test_cli_run_rejects_a_bad_value_or_file_without_a_traceback(tmp_path, capsys, learner,
                                                                  model, idx, named):
    # each of these ended in a TypeError or struct.error traceback (exit 1),
    # or, for "yes" and true, was accepted
    overrides = {"learner": dict(tiny_config().learner, **learner), "model": model, "runs": 1}
    if idx is not None:
        overrides.update(dataset=idx_pair_with_a_short_header(tmp_path, idx), model=MLP)
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(write_config(tmp_path, tiny_config(**overrides))),
                         "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("learner, model, dataset, named", [
    ({"algorithm": "sgd", "eta": NAN}, {}, {}, "eta must be finite, got nan"),
    ({"sigma_init": INF}, {}, {}, "sigma_init must be finite, got inf"),
    ({"eta": 10 ** 400}, {}, {}, "eta must be finite, got 1000"),
    ({"algorithm": "arow", "r": NAN}, {}, {}, "r must be finite, got nan"),
    ({"algorithm": "dropout", "p_drop": NAN}, MLP, {}, "p_drop must be finite, got nan"),
    ({}, {}, {"n": "300"}, "n must be an integer of at least 1, got '300'"),
    ({}, {}, {"n": 0}, "n must be an integer of at least 1, got 0"),
    ({}, {}, {"n_features": 0}, "n_features must be an integer of at least 1, got 0"),
    ({}, {}, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({}, {}, {"flip_fraction": NAN}, "flip_fraction must be finite, got nan"),
    ({}, {}, {"flip_fraction": 1.5}, "flip_fraction must be in [0, 1]"),
    ({}, {}, {"name": 3}, "dataset name must be a string, got 3"),
    ({}, {}, {"format": "csv", "path": "rows.csv", "label_column": "x"},
     "label_column must be an integer, got 'x'"),
    ({}, {}, {"format": "csv", "path": "rows.csv", "scale_minmax": "yes"},
     "scale_minmax must be true or false, got 'yes'"),
    ({}, {}, {"format": "libsvm", "path": "rows.csv", "n_features": 0},
     "n_features must be an integer of at least 1, got 0"),
    ({}, {}, {"format": "csv", "path": 5}, "path must be a string, got 5"),
], ids=["sgd-eta-nan", "bflo-sigma_init-inf", "eta-int-beyond-float", "arow-r-nan", "dropout-p_drop-nan", "n-str",
        "n-zero", "n_features-zero", "seed-float", "flip_fraction-nan", "flip_fraction-above-1",
        "name-int", "csv-label_column-str", "csv-scale_minmax-str", "libsvm-n_features-zero",
        "csv-path-int"])
def test_cli_run_rejects_a_non_finite_or_mistyped_value_without_outputs(
        tmp_path, capsys, monkeypatch, learner, model, dataset, named):
    # a NaN eta ran to exit 0 with NaN weights, "n": 0 reported online nan%,
    # a string count or label column ended in a TypeError traceback, and an
    # eta beyond float range in an OverflowError one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.csv").write_text("0.5,1\n2.0,0\n")
    raw = json.loads((Path(__file__).parents[1] / "configs" / "synthetic_quick.json").read_text())
    raw["learner"].update(learner)
    raw["model"] = model
    raw["dataset"] = dataset if "format" in dataset else dict(raw["dataset"], **dataset)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(p), "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt, text, named", [
    ("csv", b"a,b,label\n1,2,1\n0.5,\xd9\xa1,0\n", "rows.csv row 3: non-numeric field"),
    ("libsvm", b"+1 1:0.5\n-1 2:\xd9\xa1\n", "rows.csv line 2: token '2:"),
], ids=["csv-row-3", "libsvm-line-2"])
def test_cli_run_names_the_line_of_a_non_ascii_byte(tmp_path, capsys, fmt, text, named):
    # the codec's message named neither file nor line; under UTF-8 numpy
    # would read the Arabic-Indic digit one as 1.0
    (tmp_path / "rows.csv").write_bytes(text)
    config = tiny_config(runs=1, dataset={"format": fmt, "path": str(tmp_path / "rows.csv")})
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt, files, named", [
    ("libsvm", {"rows": b""}, "rows: no examples"),
    ("idx", {"images": struct.pack(">IIII", 2051, 0, 1, 1), "labels": struct.pack(">II", 2049, 0)},
     "images: no examples"),
    ("libsvm", {"rows": b"+1 1:0.5\n"}, "1 examples at train_fraction 0.8 leave no training round"),
    ("csv", {"rows": b"0.5,1\n"}, "1 examples at train_fraction 0.8 leave no training round"),
], ids=["libsvm-empty", "idx-zero-images", "libsvm-one-row", "csv-one-row"])
def test_cli_run_rejects_a_stream_with_no_training_round(tmp_path, capsys, fmt, files, named):
    # each ran to exit 0 and wrote "mean": NaN, which is not JSON, into
    # summary.json
    for key, data in files.items():
        (tmp_path / key).write_bytes(data)
    dataset = {"format": fmt, **{("path" if key == "rows" else key): str(tmp_path / key)
                                 for key in files}}
    config = tiny_config(runs=1, dataset=dataset, model=MLP if fmt == "idx" else {})
    out_dir = tmp_path / "never"
    code = hns.cli_main(["run", "--config", str(write_config(tmp_path, config)),
                         "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


def test_cli_run_overrides_runs_and_noise(tmp_path, monkeypatch):
    monkeypatch.setenv("BFLO_THREADS", "1")
    p = write_config(tmp_path, tiny_config(runs=1))
    assert hns.cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o"),
                         "--runs", "3", "--noise", "0.25"]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["runs"] == 3
    assert summary["config"]["noise_fraction"] == 0.25
    assert [r["run_index"] for r in summary["runs"]] == [0, 1, 2]


def test_cli_run_reads_a_libsvm_file(tmp_path, capsys):
    rng = np.random.default_rng(53)
    lines = []
    for x in rng.normal(size=(40, 5)):
        features = [f"{j + 1}:{v:.6f}" for j, v in enumerate(x) if abs(v) > 0.3]
        lines.append(" ".join(["+1" if x[0] > 0 else "-1", *features]) + "\n")
    (tmp_path / "toy.libsvm").write_text("".join(lines))
    cfg = tiny_config(runs=1, dataset={"format": "libsvm", "path": str(tmp_path / "toy.libsvm"),
                                       "n_features": 5})
    assert hns.cli_main(["run", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["runs"][0]["n_train"] + summary["runs"][0]["n_test"] == 40
    assert "online" in capsys.readouterr().out


def test_cli_learner_override(tmp_path):
    p = write_config(tmp_path, tiny_config(runs=1))
    code = hns.cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o"),
                         "--learner", "sgd"])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["learner"]["algorithm"] == "sgd"
    # point learners have no belief to snapshot
    assert not (tmp_path / "o" / "snapshots.bin").exists()


def test_cli_verify_passes(capsys):
    code = hns.cli_main(["verify", "--dims", "1,2", "--cases", "10", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "kl gap" in out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("args, named", [
    (["--cases", "0"], "cases must be at least 1, got 0"),
    (["--dims", "", "--cases", "-3"], "cases must be at least 1, got -3"),
    (["--dims", ""], "dims must list one or more dimensions of at least 1, got []"),
    (["--dims", "0"], "dims must list one or more dimensions of at least 1, got [0]"),
    (["--dims", "2,-1"], "got [2, -1]"),
], ids=["cases-0", "cases-negative", "dims-empty", "dims-0", "dims-negative"])
def test_cli_verify_rejects_an_empty_check(capsys, args, named):
    # --cases 0 and an empty --dims printed PASS over no case, and --dims 0
    # ended in a zero-size reduction
    assert hns.cli_main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, named", [
    (["--seed", "-1"], "seed must not be negative, got -1"),
    (["--dims", "abc"], "dims must be integers separated by commas, got 'abc'"),
], ids=["seed-negative", "dims-not-integers"])
def test_cli_verify_names_a_bad_seed_or_dims(capsys, args, named):
    # a negative seed failed inside numpy and --dims abc in int(), neither
    # naming its argument
    assert hns.cli_main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {named}\n"
    assert captured.out == ""


def test_cli_trace_round_trip(tmp_path, capsys):
    p = write_config(tmp_path, tiny_config(runs=1))
    assert hns.cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    code = hns.cli_main(["trace", "--snapshots", str(tmp_path / "o" / "snapshots.bin"),
                         "--out", str(tmp_path / "o" / "trace.csv")])
    assert code == 0
    lines = (tmp_path / "o" / "trace.csv").read_text().splitlines()
    assert lines[0] == "round,informative,forgetting,precision_gained,r_min,r_max,rho,cum_rho"
    assert len(lines) > 1
    vectors = hns.read_trace(tmp_path / "o" / "trace.bin")
    assert len(vectors) == len(lines) - 1
    assert str(tmp_path / "o" / "trace.bin") in capsys.readouterr().out


def test_log_det_of_a_full_belief_read_back_with_w_only(tmp_path):
    # a snapshot file holds W, not log det: it is recomputed from W
    spec = mdl.logistic_model(5)
    learner = lrn.BeliefFlowLearner(spec, bel.full_belief(np.zeros(5), np.eye(5),
                                                          np.full(5, 0.04)), eta=0.5)
    rng = np.random.default_rng(61)
    for _ in range(8):
        x = rng.normal(size=5)
        learner.step(dat.LabeledExample(x, int(x[0] > 0), int(x[0] > 0)), rng)
    hns.write_snapshots(tmp_path / "s.bin", [(8, bel.snapshot(learner.belief))])
    (_, back), = hns.read_snapshots(tmp_path / "s.bin")
    assert back.logdet is None and back.factor is None
    np.testing.assert_allclose(bel.log_det(back), learner.belief.logdet, rtol=1e-9)
    np.testing.assert_allclose(bel.entropy(back), bel.entropy(learner.belief), rtol=1e-9)


def test_cli_full_variant_run_trace_round_trip(tmp_path):
    cfg = tiny_config(runs=1, dataset={"format": "synthetic", "n": 60, "n_features": 6, "seed": 5},
                      learner={"algorithm": "bflo", "variant": "full", "eta": 0.05,
                               "sigma_init": 0.2})
    p = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert hns.cli_main(["run", "--config", str(p), "--out", str(out)]) == 0
    snap = out / "snapshots.bin"
    version, code, d, payload_len = struct.unpack_from("<IIII", snap.read_bytes(), 4)
    assert (version, code, d, payload_len) == (3, 0, 6, 36)  # v3 full: keyframes hold W
    snaps = hns.read_snapshots(snap)
    assert [r for r, _ in snaps] == list(range(49))
    state = list(fl.replay(snaps))[-1][1]
    assert state.variant == bel.FULL and state.factor is None
    # W read back is the inverse of the covariance's square root
    np.testing.assert_allclose(state.inv_factor @ bel.covariance(state) @ state.inv_factor.T,
                               np.eye(6), atol=1e-10)
    again = tmp_path / "again.bin"
    hns.write_snapshots(again, snaps)
    assert again.read_bytes() == snap.read_bytes()
    assert hns.cli_main(["trace", "--snapshots", str(snap), "--out", str(out / "trace.csv")]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 48
    assert all(int(line.split(",")[1]) > 0 for line in lines[1:])  # informative eigenvalues


def test_a_v1_snapshot_file_is_rejected_by_name(tmp_path, capsys):
    # version 1 (17-byte header, u32 rounds, full beliefs as eigenvectors
    # plus eigenvalues) is retired; its files fail by version, naming the file
    d = 3
    raw = hns.SNAPSHOT_MAGIC + struct.pack("<IBII", 1, 0, d, d * d + d)
    raw += struct.pack("<I", 0) + np.arange(d + d * d + d, dtype="<f8").tobytes()
    p = tmp_path / "v1.bin"
    p.write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(f"{p}: unsupported snapshot version 1")):
        hns.iter_snapshots(p)  # the header is checked on the call, before any record
    with pytest.raises(ValueError, match=re.escape(f"{p}: unsupported snapshot version 1")):
        hns.read_snapshots(p)
    out = tmp_path / "t.csv"
    assert hns.cli_main(["trace", "--snapshots", str(p), "--out", str(out)]) == 2
    assert f"{p}: unsupported snapshot version 1" in capsys.readouterr().err
    assert sorted(q.name for q in tmp_path.iterdir()) == ["v1.bin"]


# ---------------------------------------------------------------------------
# snapshot v3: keyframes plus logged flows for full beliefs


def full_config(**overrides):
    raw = {"dataset": {"format": "synthetic", "n": 60, "n_features": 40, "seed": 5,
                       "flip_fraction": 0.1},
           "learner": {"algorithm": "bflo", "variant": "full", "eta": 0.5, "sigma_init": 0.2},
           "runs": 1, "base_seed": 3}
    learner = overrides.pop("learner", {})
    raw.update(overrides)
    raw["learner"] = dict(raw["learner"], **learner)
    return tiny_config(**raw)


def record_full_run(cfg, path, monkeypatch):
    """Run cfg with a snapshot path; return the learner's (mean, W) after
    each round, and whether correct_spectrum floored or re-synced in it."""
    states, fixed = [], []
    real_step, real_fix = lrn.BeliefFlowLearner.step, bel.correct_spectrum
    fixes = []

    def step(self, ex, rng):
        fixes.clear()
        out = real_step(self, ex, rng)
        states.append((self.belief.mean, self.belief.inv_factor.copy()))
        fixed.append(bool(fixes))
        return out

    def correct_spectrum(belief, *args):
        out = real_fix(belief, *args)
        if out is not belief:
            fixes.append(True)
        return out

    monkeypatch.setattr(lrn.BeliefFlowLearner, "step", step)
    monkeypatch.setattr(bel, "correct_spectrum", correct_spectrum)
    hns.run_online(cfg, 0, path)
    return states, fixed


def assert_replay_has_the_learners_bytes(path, states):
    records = hns.read_snapshots(path)
    replayed = list(fl.replay(records))
    assert replayed[0][2] is None  # round 0 is a keyframe
    for rnd, belief, _ in replayed[1:]:
        mean, inv_factor = states[rnd - 1]
        assert belief.mean.tobytes() == mean.tobytes(), rnd
        assert belief.inv_factor.tobytes() == inv_factor.tobytes(), rnd
    return records


@pytest.mark.parametrize("m, every, non_expansive", [
    (1, 1, False), (1, 1, True), (3, 5, False), (3, 5, True), (2, None, True)])
def test_replayed_w_has_the_learners_bytes_at_every_snapshot_round(tmp_path, monkeypatch,
                                                                  m, every, non_expansive):
    cfg = full_config(snapshot_every=every, learner={"m": m, "non_expansive": non_expansive})
    path = tmp_path / "snapshots.bin"
    states, fixed = record_full_run(cfg, path, monkeypatch)
    assert not any(fixed)
    records = assert_replay_has_the_learners_bytes(path, states)
    counts = [len(rec.flows) for _, rec in records[1:]]  # every later record is a delta
    assert max(counts) == m * (every or 1)


def test_a_flow_log_that_outgrows_w_makes_keyframes(tmp_path, monkeypatch):
    # d = 40: a flow takes 2 d + 4 = 84 floats, so 19 fit in the d^2 = 1600
    # of W and 20 do not; m = 4 and snapshot_every 5 log 20 a snapshot,
    # except over the last 3 of the 48 rounds
    path = tmp_path / "snapshots.bin"
    states, _ = record_full_run(full_config(snapshot_every=5, learner={"m": 4}), path,
                                monkeypatch)
    assert snapshot_kinds(path) == ["keyframe"] * 10 + ["delta"]
    assert_replay_has_the_learners_bytes(path, states)
    # stepped outside a run, the learner holds its last step's flows only
    spec = mdl.logistic_model(40)
    learner = lrn.BeliefFlowLearner(spec, bel.full_belief(np.zeros(40), np.eye(40),
                                                          np.full(40, 0.04)), 0.5, m=3)
    rng = np.random.default_rng(0)
    for i in range(25):
        x = rng.normal(size=40)
        learner.step(dat.LabeledExample(x, i % 2, i % 2), rng)
        assert len(learner.last_flows) == 3


def test_identity_rounds_log_no_flow(tmp_path, monkeypatch):
    # an all-zero x has a zero gradient, so w' == w and the flow is the
    # identity: nothing to log, and the delta after such a round is empty
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 5))
    X[::3] = 0.0
    labels = (X[:, 0] > 0).astype(np.int64)
    ds = dat.Dataset("zeros", X, labels, labels.copy(), 5, 2, sparse=False)
    monkeypatch.setattr(hns, "load_dataset", lambda dspec: ds)
    path = tmp_path / "snapshots.bin"
    cfg = full_config(snapshot_every=1, shuffle=False, train_fraction=0.9)
    states, _ = record_full_run(cfg, path, monkeypatch)
    records = assert_replay_has_the_learners_bytes(path, states)
    counts = [len(rec.flows) for _, rec in records[1:]]
    assert counts == [int(X[i].any()) for i in range(18)]
    rows = psd.pseudo_trace(records)
    assert [row.degenerate for row in rows] == [c == 0 for c in counts]


def snapshot_kinds(path):
    return ["delta" if isinstance(rec, fl.FlowLog) else "keyframe"
            for _, rec in hns.read_snapshots(path)]


def test_full_run_writes_keyframes_where_the_spectrum_floor_applies(tmp_path, monkeypatch):
    # at eta 0.05 this run's smallest variance starts at the prior's 0.04
    # and falls; a floor of 0.039 makes correct_spectrum lift it on some
    # rounds and pass the others (and the prior) through
    real_fix = bel.correct_spectrum
    monkeypatch.setattr(bel, "correct_spectrum", lambda belief: real_fix(belief, 0.039))
    path = tmp_path / "snapshots.bin"
    states, fixed = record_full_run(full_config(snapshot_every=1, learner={"eta": 0.05}), path,
                                    monkeypatch)
    assert 0 < sum(fixed) < len(fixed)
    assert snapshot_kinds(path) == ["keyframe"] + ["keyframe" if f else "delta" for f in fixed]
    assert_replay_has_the_learners_bytes(path, states)


def test_full_run_writes_keyframes_at_its_resyncs(tmp_path, monkeypatch):
    monkeypatch.setattr(bel, "RESYNC_EVERY", 3)
    path = tmp_path / "snapshots.bin"
    cfg = full_config(snapshot_every=2, learner={"non_expansive": True})
    states, fixed = record_full_run(cfg, path, monkeypatch)
    assert fixed[2::3] == [True] * len(fixed[2::3]) and sum(fixed) == len(fixed[2::3])
    # the record that closes an interval with a re-sync in it is a keyframe
    rounds = [rnd for rnd, _ in hns.read_snapshots(path)]
    want = ["keyframe"] + ["keyframe" if any(fixed[a:b]) else "delta"
                           for a, b in zip(rounds, rounds[1:])]
    assert snapshot_kinds(path) == want and "delta" in want
    assert_replay_has_the_learners_bytes(path, states)


@pytest.mark.parametrize("eta, lam_min", [(0.5, 1.0 / 900.0), (0.05, 0.039), (0.5, None)],
                         ids=["floor-lifts-nothing", "floor-lifts", "resync"])
def test_a_rebuild_in_a_round_without_flows_makes_a_keyframe(tmp_path, monkeypatch, eta, lam_min):
    # rows 1, 3 and 5 are all zero, so rounds 2, 4 and 6 apply no flow; a
    # rebuild in such a round leaves the belief at the age 0 that a rebuild
    # in the round before left it at. lam_min None re-syncs at every update.
    cfg = full_config(snapshot_every=1, shuffle=False, learner={"eta": eta})
    ds = hns.load_dataset(cfg.dataset)
    X = ds.X.copy()
    X[[1, 3, 5]] = 0.0
    monkeypatch.setattr(hns, "load_dataset", lambda dspec: dataclasses.replace(ds, X=X))
    real_fix = bel.correct_spectrum

    def fix(belief):
        if lam_min is None:
            return bel.full_belief_from_factor(belief.mean, bel.root(belief))
        return real_fix(belief, lam_min)

    monkeypatch.setattr(bel, "correct_spectrum", fix)
    path = tmp_path / "snapshots.bin"
    states, fixed = record_full_run(cfg, path, monkeypatch)
    assert snapshot_kinds(path) == ["keyframe"] + ["keyframe" if f else "delta" for f in fixed]
    assert_replay_has_the_learners_bytes(path, states)
    assert all(fixed) if lam_min is None else not all(fixed)


def small_flow_log_file(path, d=2):
    rng = np.random.default_rng(3)
    keyframe = bel.snapshot(bel.full_belief(rng.normal(size=d), np.eye(d), np.full(d, 0.5)))
    basis = np.linalg.qr(rng.normal(size=(d, 2)))[0]
    flow = fl.FlowSolution(bel.FULL, basis=basis, a2=fl.solve_2x2(1.0, 0.5, 0.7))
    hns.write_snapshots(path, [(0, keyframe), (1, fl.FlowLog(rng.normal(size=d), (flow, flow)))])
    return path.read_bytes()


def test_read_snapshots_rejects_malformed_v3_input(tmp_path):
    path = tmp_path / "v3.bin"
    raw = small_flow_log_file(path)
    header, record = 4 + hns._HEADER_V2.size, hns._RECORD_V3.size + 8 * (2 + 4)
    delta_at = header + record
    records = hns.read_snapshots(path)
    assert [type(rec) for _, rec in records] == [bel.BeliefState, fl.FlowLog]
    assert len(records[1][1].flows) == 2

    def rejects(data, message):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            hns.read_snapshots(path)

    rejects(raw[:header] + raw[delta_at:], "delta at byte 24 comes before any keyframe")
    rejects(raw[:-8], f"truncated delta at byte {delta_at}")
    rejects(raw[:delta_at + 10], f"truncated record at byte {delta_at}")
    rejects(raw[:header + 40], "truncated keyframe at byte 24")
    kind = bytearray(raw)
    struct.pack_into("<I", kind, delta_at + 8, 7)
    rejects(bytes(kind), f"unknown record kind 7 at byte {delta_at}")
    count = bytearray(raw)
    struct.pack_into("<I", count, delta_at + 12, 1000)
    rejects(bytes(count), "update count 1000 runs past the end of the file")
    diagonal = bytearray(raw)
    struct.pack_into("<I", diagonal, 8, 1)
    rejects(bytes(diagonal), "version 3 holds full beliefs only")
    with pytest.raises(ValueError, match="first snapshot must be a keyframe"):
        hns.write_snapshots(tmp_path / "x.bin", records[1:])


def test_trace_of_a_flow_log_file_holds_one_w_at_a_time(tmp_path):
    # d = 300 and 200 snapshots: a file of one W per snapshot would take
    # 144 MB, which the trace command held in memory before v3
    d, rng = 300, np.random.default_rng(17)
    flows = []
    for _ in range(199):
        basis = np.linalg.qr(rng.normal(size=(d, 2)))[0]
        u, v_par, v_perp = rng.uniform(0.2, 2.0, size=3)
        flows.append(fl.FlowSolution(bel.FULL, basis=basis, a2=fl.solve_2x2(u, v_par, v_perp)))
    prior = bel.snapshot(bel.full_belief(np.zeros(d), np.eye(d), np.full(d, 0.04)))
    snap = tmp_path / "snapshots.bin"
    hns.write_snapshots(snap, [(0, prior)] + [(r + 1, fl.FlowLog(np.zeros(d), (f,)))
                                              for r, f in enumerate(flows)])
    assert snap.stat().st_size < 3_000_000
    baseline = child_peak_rss_kb("import beliefflow.harness")
    traced = child_peak_rss_kb(CLI, "trace", "--snapshots", str(snap),
                               "--out", str(tmp_path / "trace.csv"))
    assert traced <= baseline + 20 * 1024, (traced, baseline)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 199 and all(int(line.split(",")[1]) > 0 for line in lines[1:])


def test_logged_trace_rows_match_the_dense_route(tmp_path):
    # the same run's rows, from the flow log and from every W as a keyframe
    cfg = full_config(snapshot_every=2, learner={"m": 2, "eta": 0.05},
                      dataset={"format": "synthetic", "n": 150, "n_features": 12, "seed": 8})
    path = tmp_path / "snapshots.bin"
    hns.run_online(cfg, 0, path)
    records = hns.read_snapshots(path)
    states = [(rnd, state) for rnd, state, _ in fl.replay(records)]
    assert sum(isinstance(rec, fl.FlowLog) for _, rec in records) == len(records) - 1
    logged, dense = psd.pseudo_trace(records), psd.pseudo_trace(states)
    assert [r.round for r in logged] == [r.round for r in dense]
    for a, b, (_, prev), (_, cur) in zip(logged, dense, states, states[1:]):
        assert a.degenerate == b.degenerate, a.round
        if a.degenerate:
            continue
        prec0 = prev.inv_factor.T @ prev.inv_factor
        prec1 = cur.inv_factor.T @ cur.inv_factor
        floor = 12 * np.finfo(float).eps * max(np.trace(prec0), np.trace(prec1))
        assert a.eigenvalues.shape == b.eigenvalues.shape, a.round
        np.testing.assert_allclose(1.0 / a.eigenvalues, 1.0 / b.eigenvalues, rtol=0, atol=floor)


def test_v2_full_snapshot_still_reads_and_traces(tmp_path):
    # version 2 wrote every full snapshot as the mean and W
    cfg = full_config(dataset={"format": "synthetic", "n": 40, "n_features": 5, "seed": 2},
                      snapshot_every=1)
    path = tmp_path / "snapshots.bin"
    hns.run_online(cfg, 0, path)
    states = [(rnd, state) for rnd, state, _ in fl.replay(hns.read_snapshots(path))]
    raw = hns.SNAPSHOT_MAGIC + hns._HEADER_V2.pack(2, 0, 5, 25)
    for rnd, state in states:
        raw += struct.pack("<Q", rnd) + state.mean.tobytes() + state.inv_factor.tobytes()
    v2 = tmp_path / "v2.bin"
    v2.write_bytes(raw)
    again = hns.read_snapshots(v2)
    assert [r for r, _ in again] == [r for r, _ in states]
    for (_, a), (_, b) in zip(again, states):
        assert a.inv_factor.tobytes() == b.inv_factor.tobytes()
    assert hns.cli_main(["trace", "--snapshots", str(v2), "--out", str(tmp_path / "t2.csv")]) == 0
    assert hns.cli_main(["trace", "--snapshots", str(path), "--out", str(tmp_path / "t3.csv")]) == 0
    rows2 = (tmp_path / "t2.csv").read_text().splitlines()
    rows3 = (tmp_path / "t3.csv").read_text().splitlines()
    assert len(rows2) == len(rows3) == 1 + 32
    assert [r.split(",")[:2] for r in rows2] == [r.split(",")[:2] for r in rows3]


# ---------------------------------------------------------------------------
# trace.csv and trace.bin


def trace_records(tmp_path, route):
    """Snapshot records of a small run of each variant; "full-dense" gives
    the full run's replayed beliefs, which take the dense trace route."""
    path = tmp_path / "snapshots.bin"
    if route.startswith("full"):
        cfg = full_config(snapshot_every=2, learner={"m": 2, "eta": 0.05},
                          dataset={"format": "synthetic", "n": 150, "n_features": 12, "seed": 8})
    else:
        cfg = tiny_config(runs=1, snapshot_every=3,
                          learner={"algorithm": "bflo", "variant": route, "eta": 0.05,
                                   "sigma_init": 0.2})
    hns.run_online(cfg, 0, path)
    records = hns.read_snapshots(path)
    if route == "full-dense":
        return [(rnd, state) for rnd, state, _ in fl.replay(records)]
    return records


def vector(values):
    return np.zeros(0) if values is None else np.asarray(values, dtype="<f8").ravel()


@pytest.mark.parametrize("route", ["diagonal", "spherical", "full-logged", "full-dense"])
def test_trace_files_hold_each_rows_vectors_and_their_summary(tmp_path, route):
    records = trace_records(tmp_path, route)
    rows = psd.pseudo_trace(records)
    assert rows and not all(row.degenerate for row in rows)
    hns.write_trace(tmp_path / "trace.csv", rows)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == hns.TRACE_COLUMNS
    vectors = hns.read_trace(tmp_path / "trace.bin")
    assert len(vectors) == len(lines) - 1 == len(rows)
    d = records[0][1].dim
    for row, line, (rnd, x, r) in zip(rows, lines[1:], vectors):
        assert rnd == row.round and not x.flags.writeable and not r.flags.writeable
        assert x.tobytes() == vector(row.x).tobytes(), rnd
        assert r.tobytes() == vector(row.eigenvalues).tobytes(), rnd
        if route == "diagonal" and not row.degenerate:
            assert x.size == r.size == d  # a value's position is its coordinate
        finite = r[np.isfinite(r)]
        fields = line.split(",")
        assert int(fields[0]) == rnd
        assert int(fields[1]) == finite.size and int(fields[2]) == np.sum(finite < 0)
        if finite.size:
            assert float(fields[3]) == np.sum(1.0 / finite)
            assert (float(fields[4]), float(fields[5])) == (finite.min(), finite.max())
        else:
            assert fields[3:6] == ["", "", ""]
        assert [float(f) if f else None for f in fields[6:]] == [row.rho, row.cum_rho]


def test_trace_csv_rows_for_each_kind_of_interval(tmp_path):
    rows = [psd.TraceRow(1, np.array([1.0, 2.0]), np.array([0.5]), 2.0, 2.0, False),
            psd.TraceRow(2, None, None, None, 2.0, True),  # spherical, idle
            psd.TraceRow(3, None, None, None, None, True),
            psd.TraceRow(4, np.array([3.0, 7.0, 5.0]), np.array([4.0, np.inf, -0.25]),
                         None, None, False),
            psd.TraceRow(5, None, np.array([-1.0, 0.5]), None, None, False)]
    hns.write_trace(tmp_path / "trace.csv", rows)
    assert (tmp_path / "trace.csv").read_text().splitlines()[1:] == [
        "1,1,0,2,0.5,0.5,2,2",
        "2,0,0,,,,,2",
        "3,0,0,,,,,",
        "4,2,1,-3.75,-0.25,4,,",
        "5,2,1,1,-1,0.5,,",
    ]
    raw = (tmp_path / "trace.bin").read_bytes()
    assert raw[:8] == b"BFTR" + struct.pack("<I", 1)
    assert raw[8:24] == struct.pack("<QII", 1, 2, 1)
    assert len(raw) == 8 + 5 * 16 + 8 * (3 + 0 + 0 + 6 + 2)
    got = hns.read_trace(tmp_path / "trace.bin")
    assert [(rnd, x.tolist(), r.tolist()) for rnd, x, r in got] == [
        (1, [1.0, 2.0], [0.5]), (2, [], []), (3, [], []),
        (4, [3.0, 7.0, 5.0], [4.0, np.inf, -0.25]), (5, [], [-1.0, 0.5])]


def test_read_trace_rejects_a_truncated_or_foreign_file(tmp_path):
    rows = [psd.TraceRow(1, np.ones(3), np.full(3, 2.0), None, None, False)]
    hns.write_trace(tmp_path / "trace.csv", rows)
    raw = (tmp_path / "trace.bin").read_bytes()
    bad = tmp_path / "bad.bin"

    def rejects(data, message):
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")):
            hns.read_trace(bad)

    rejects(raw[:3], "not a trace file")
    rejects(b"BFSN" + raw[4:], "not a trace file")
    rejects(raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported trace version 2")
    rejects(raw[:20], "truncated record at byte 8")
    rejects(raw[:-8], "truncated record at byte 8: its 3 + 3 values run past the end")
    hns.write_snapshots(bad, [(0, bel.spherical_belief(np.zeros(2), 1.0))])
    with pytest.raises(ValueError, match="not a trace file"):
        hns.read_trace(bad)
    # a CSV named *.bin would share its name with the vectors
    with pytest.raises(ValueError, match="must not end in .bin"):
        hns.write_trace(tmp_path / "t.bin", rows)
    assert not (tmp_path / "t.bin").exists()


# ---------------------------------------------------------------------------
# crash safety


def test_a_failing_later_run_leaves_no_output_directory(tmp_path, monkeypatch):
    # run 0 finishes, run 1 meets an inf feature; run 0's snapshots used to
    # be written (with the directory) before run 1 started, and the parent
    # directories made for the staging file used to stay
    monkeypatch.setenv("BFLO_THREADS", "1")
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    labels = (X[:, 0] > 0).astype(np.int64)
    bad = X.copy()
    bad[:, 1] = np.inf
    datasets = [dat.Dataset("ok", X, labels, labels.copy(), 3, 2, sparse=False),
                dat.Dataset("bad", bad, labels, labels.copy(), 3, 2, sparse=False)]
    real_run = hns.run_online

    def run(config, run_index, snapshot_path=None, dataset=None):
        return real_run(config, run_index, snapshot_path, datasets[run_index])

    monkeypatch.setattr(hns, "run_online", run)
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "exp", tmp_path / "a" / "b" / "exp", tmp_path / "kept" / "b" / "exp"):
        with pytest.raises(lrn.NonFiniteStepError, match="run 1 round 1"), \
                np.errstate(invalid="ignore"):
            hns.run_experiment(tiny_config(runs=2), out)
        assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_cli_run_rejects_a_full_belief_above_the_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(hns, "FULL_VARIANT_MAX_DIM", 39)
    d = mdl.logistic_model(40).n_params
    config = tmp_path / "full.json"
    config.write_text(json.dumps(full_config().to_dict()))
    out = tmp_path / "a" / "b" / "exp"
    assert hns.cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"full covariance with {d} parameters" in err and "the limit is 39" in err
    assert [p.name for p in tmp_path.iterdir()] == ["full.json"]


class _Exploding:
    round, x, eigenvalues, cum_rho = 2, None, None, None

    @property
    def rho(self):
        raise RuntimeError("interrupted")


def test_an_interrupted_write_leaves_neither_target_nor_temp_file(tmp_path):
    row = psd.TraceRow(1, None, np.array([0.5]), None, None, False)
    with pytest.raises(RuntimeError, match="interrupted"):
        hns.write_trace(tmp_path / "trace.csv", [row, _Exploding()])
    assert list(tmp_path.iterdir()) == []
    # a failed rewrite keeps the files that were there, both of the trace pair
    hns.write_trace(tmp_path / "trace.csv", [row])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["trace.bin", "trace.csv"]
    other = psd.TraceRow(2, np.ones(3), np.full(3, 2.0), None, None, False)
    with pytest.raises(RuntimeError, match="interrupted"):
        hns.write_trace(tmp_path / "trace.csv", [other, _Exploding()])
    diag = bel.diagonal_belief(np.zeros(2), np.ones(2))
    sph = bel.spherical_belief(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="mix variants"):
        hns.write_snapshots(tmp_path / "trace.csv", [(0, diag), (1, sph)])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# ---------------------------------------------------------------------------
# streaming: snapshots and the trace one record at a time


WIDE = 50_000  # features of a logistic model, so d = 50,000 parameters


def wide_sparse_dataset(rows=30, nnz=20, seed=7):
    """A binary dataset of 50,000 features, nnz of them set per row."""
    import scipy.sparse as sparse

    rng = np.random.default_rng(seed)
    X = sparse.csr_matrix((rng.normal(size=rows * nnz),
                           (np.repeat(np.arange(rows), nnz), rng.integers(0, WIDE, rows * nnz))),
                          shape=(rows, WIDE))
    labels = (rng.random(rows) < 0.5).astype(np.int64)
    return dat.Dataset("wide", X, labels, labels.copy(), WIDE, 2, sparse=True)


def traced_peak(fn):
    """fn's result and the peak of the memory it allocated, by tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One record of a diagonal snapshot file: its round, the mean and the variances.
WIDE_RECORD = 8 + 16 * WIDE


def wide_snapshot_file(tmp_path, monkeypatch):
    """A diagonal run of 24 rounds at snapshot_every 1, streamed to a file."""
    ds = wide_sparse_dataset()  # built outside the traced run
    monkeypatch.setattr(hns, "load_dataset", lambda dspec: ds)
    path = tmp_path / "snapshots.bin"
    _, peak = traced_peak(lambda: hns.run_online(tiny_config(runs=1, snapshot_every=1), 0, path))
    assert path.stat().st_size == 24 + 25 * WIDE_RECORD
    return path, peak


def test_run_online_streams_its_snapshots_in_o_d_memory(tmp_path, monkeypatch):
    # 25 records of 800 KB: a run that held a copy per snapshot peaked at
    # 27 records, one that streams them holds its learner's belief (and its
    # prior while the learner copies it)
    path, peak = wide_snapshot_file(tmp_path, monkeypatch)
    assert peak < 4 * WIDE_RECORD, peak / WIDE_RECORD
    rounds = [rnd for rnd, _ in hns.iter_snapshots(path)]
    assert rounds == list(range(25))


def test_cli_trace_streams_in_o_d_memory(tmp_path, monkeypatch):
    # the trace reads, traces and writes one record at a time: two beliefs
    # and one row's x and R at most, against 50 records when the file, every
    # belief and every row were held at once
    path, _ = wide_snapshot_file(tmp_path, monkeypatch)
    out = tmp_path / "trace.csv"
    code, peak = traced_peak(lambda: hns.cli_main(["trace", "--snapshots", str(path),
                                                  "--out", str(out)]))
    assert code == 0
    assert peak < 4 * WIDE_RECORD, peak / WIDE_RECORD
    # the same bytes as the list forms give
    hns.write_trace(tmp_path / "listed.csv", psd.pseudo_trace(hns.read_snapshots(path)))
    for suffix in (".csv", ".bin"):
        assert (out.with_suffix(suffix).read_bytes()
                == (tmp_path / "listed").with_suffix(suffix).read_bytes())
    assert len(hns.read_trace(out.with_suffix(".bin"))) == 24


def test_iter_snapshots_checks_the_header_on_the_call_and_reads_lazily(tmp_path):
    path = tmp_path / "snapshots.bin"
    hns.run_online(tiny_config(runs=1, snapshot_every=1), 0, path)
    records = hns.iter_snapshots(path)
    first = next(records)
    assert first[0] == 0 and not first[1].mean.flags.writeable
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported snapshot version 9")):
        hns.iter_snapshots(path)
    # a cut mid-file surfaces only once the walk reaches it
    record = 8 + 16 * 8
    path.write_bytes(raw[:24 + 3 * record + 20])
    records = hns.iter_snapshots(path)
    assert [next(records)[0] for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: truncated record at byte {24 + 3 * record}: its 16 values run past the end")):
        next(records)


def test_a_run_that_fails_mid_stream_leaves_no_output(tmp_path, monkeypatch):
    # run 0 meets an inf feature in round 5, after it has streamed the
    # records of rounds 0 to 4 into its staged file
    monkeypatch.setenv("BFLO_THREADS", "1")
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    X[4, 1] = np.inf
    labels = (X[:, 0] > 0).astype(np.int64)
    monkeypatch.setattr(hns, "load_dataset",
                        lambda dspec: dat.Dataset("bad", X, labels, labels.copy(), 3, 2,
                                                  sparse=False))
    written = []
    real_write = hns._write_snapshot

    def write(fh, rnd, state):
        written.append(rnd)
        real_write(fh, rnd, state)

    monkeypatch.setattr(hns, "_write_snapshot", write)
    out = tmp_path / "a" / "exp"
    with pytest.raises(lrn.NonFiniteStepError, match="run 0 round 5"), \
            np.errstate(invalid="ignore"):
        hns.run_experiment(tiny_config(runs=2, shuffle=False, snapshot_every=1), out)
    assert written == [0, 1, 2, 3, 4]
    assert list(tmp_path.iterdir()) == []


def truncated_snapshot_files(tmp_path):
    """(name, bytes, message) of snapshot files that fail mid-stream, each
    after at least one trace row."""
    diagonal = tmp_path / "diagonal.bin"
    hns.run_online(tiny_config(runs=1, snapshot_every=40), 0, diagonal)
    raw = diagonal.read_bytes()
    last = len(raw) - (8 + 16 * 8)
    full = tmp_path / "full.bin"
    hns.run_online(full_config(snapshot_every=4), 0, full)
    full_raw = full.read_bytes()
    _, delta = hns.read_snapshots(full)[-1]
    delta_at = len(full_raw) - (16 + 8 * (40 + 84 * len(delta.flows)))
    flow_log = small_flow_log_file(tmp_path / "flows.bin")
    header, keyframe = 24, 16 + 8 * (2 + 4)
    return [
        ("v2-mid-record", raw[:-8],
         f"truncated record at byte {last}: its 16 values run past the end of the file"),
        ("v3-delta", full_raw[:-8], f"truncated delta at byte {delta_at}: its update count "
                                    f"{len(delta.flows)} runs past the end of the file"),
        ("v3-delta-first", flow_log[:header] + flow_log[header + keyframe:] + flow_log[header:],
         f"delta at byte {header} comes before any keyframe"),
    ]


def test_cli_trace_of_a_file_that_fails_mid_stream_leaves_nothing(tmp_path, capsys):
    for name, raw, message in truncated_snapshot_files(tmp_path):
        work = tmp_path / name
        work.mkdir()
        snap = work / "snapshots.bin"
        snap.write_bytes(raw)
        assert hns.cli_main(["trace", "--snapshots", str(snap),
                             "--out", str(work / "trace.csv")]) == 2, name
        assert f"error: {snap}: {message}" in capsys.readouterr().err, name
        assert [p.name for p in work.iterdir()] == ["snapshots.bin"], name


@pytest.mark.parametrize("out", ["snapshots.csv", "sub/../snapshots.csv", "link/snapshots.csv",
                                 "link/snapshots.bin"])
def test_cli_trace_refuses_to_overwrite_its_snapshot_file(tmp_path, capsys, out):
    # the vectors of --out run.csv go to run.bin: a trace of run.bin used to
    # replace it with its own trace vectors
    work = tmp_path / "work"
    (work / "sub").mkdir(parents=True)
    (work / "link").symlink_to(work)
    snap = work / "snapshots.bin"
    hns.run_online(tiny_config(runs=1, snapshot_every=60), 0, snap)
    raw = snap.read_bytes()
    assert hns.cli_main(["trace", "--snapshots", str(snap), "--out", str(work / out)]) == 2
    assert capsys.readouterr().err == (f"error: {snap}: the trace CSV or its .bin would "
                                       "overwrite it\n")
    assert snap.read_bytes() == raw
    assert sorted(p.name for p in work.iterdir()) == ["link", "snapshots.bin", "sub"]


def patched_snapshot_file(path, variant, record, index, value):
    """A snapshot file of a short run whose record-th record has its
    index-th value (counting from the mean's first) set to value; returns
    the record's byte. The full file is small_flow_log_file's: a keyframe,
    then a delta of two flows (d = 2)."""
    if variant == bel.FULL:
        raw = bytearray(small_flow_log_file(path))
        at, head = 24 + (16 + 8 * (2 + 4)) * record, 16
    else:
        cfg = tiny_config(runs=1, snapshot_every=60,
                          learner={"algorithm": "bflo", "variant": variant, "eta": 0.05,
                                   "sigma_init": 0.2})
        hns.run_online(cfg, 0, path)
        raw = bytearray(path.read_bytes())
        d, payload_len = struct.unpack_from("<II", raw, 12)
        at, head = 24 + (8 + 8 * (d + payload_len)) * record, 8
    struct.pack_into("<d", raw, at + head + 8 * index, value)
    path.write_bytes(bytes(raw))
    return at


@pytest.mark.parametrize("variant, record, index, value, message", [
    ("diagonal", 1, 0, float("nan"), "holds a non-finite value"),
    ("diagonal", 1, 8, 0.0, "holds a variance not above 0"),
    ("diagonal", 0, 15, -1.0, "holds a variance not above 0"),
    ("spherical", 1, 8, float("nan"), "holds a non-finite value"),
    ("spherical", 2, 8, 0.0, "holds a variance not above 0"),
    ("full", 0, 3, float("inf"), "holds a non-finite value"),
    ("full", 1, 9, float("nan"), "holds a non-finite value"),
], ids=["diagonal-mean-nan", "diagonal-variance-0", "diagonal-variance-negative",
        "spherical-variance-nan", "spherical-variance-0", "full-keyframe-inf",
        "full-delta-nan"])
def test_cli_trace_rejects_a_snapshot_record_that_is_not_a_belief(tmp_path, capsys, variant,
                                                                  record, index, value, message):
    # a NaN mean traced with exit 0 into NaN x vectors, and a NaN variance
    # into nan,nan for rho,cum_rho
    work = tmp_path / "work"
    work.mkdir()
    snap = work / "snapshots.bin"
    at = patched_snapshot_file(snap, variant, record, index, value)
    assert hns.cli_main(["trace", "--snapshots", str(snap), "--out", str(work / "trace.csv")]) == 2
    assert capsys.readouterr().err == f"error: {snap}: record at byte {at} {message}\n"
    assert [p.name for p in work.iterdir()] == ["snapshots.bin"]


def test_write_snapshots_checks_its_list_before_it_opens_a_file(tmp_path, monkeypatch):
    def opened(*args, **kwargs):
        raise AssertionError("a file was opened")

    monkeypatch.setattr(hns, "_replacing", opened)
    diag = bel.diagonal_belief(np.zeros(2), np.ones(2))
    sph = bel.spherical_belief(np.zeros(2), 1.0)
    keyframe = bel.full_belief(np.zeros(2), np.eye(2), np.ones(2))
    cases = [([], "no snapshots to write"),
             ([(0, fl.FlowLog(np.zeros(2), ()))], "first snapshot must be a keyframe"),
             ([(0, diag), (1, sph)], "mix variants"),
             ([(0, keyframe), (1, fl.FlowLog(np.zeros(3), ()))], "mix variants or dimensions")]
    for snapshots, message in cases:
        with pytest.raises(ValueError, match=message):
            hns.write_snapshots(tmp_path / "snapshots.bin", snapshots)
    assert list(tmp_path.iterdir()) == []


def test_cli_suite(tmp_path):
    suite = {
        "experiments": [
            tiny_config(name="syn-bflo", runs=1).to_dict(),
            tiny_config(name="syn-sgd", runs=1,
                        learner={"algorithm": "sgd", "eta": 0.05,
                                 "sigma_init": 0.2}).to_dict(),
        ]
    }
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    code = hns.cli_main(["suite", "--config", str(p), "--out", str(tmp_path / "s")])
    assert code == 0
    summary = json.loads((tmp_path / "s" / "suite_summary.json").read_text())
    assert len(summary["results"]) == 2
    assert "mean_rank" in summary["ranks"]
    assert (tmp_path / "s" / "syn-bflo" / "summary.json").exists()


def write_idx_pair(directory, seed):
    rng = np.random.default_rng(seed)
    directory.mkdir()
    pixels = rng.integers(0, 256, size=(20, 2, 2)).astype(np.uint8)
    labels = rng.integers(0, 3, size=20).astype(np.uint8)
    (directory / "images").write_bytes(struct.pack(">IIII", 2051, 20, 2, 2) + pixels.tobytes())
    (directory / "labels").write_bytes(struct.pack(">II", 2049, 20) + labels.tobytes())
    return {"format": "idx", "images": str(directory / "images"),
            "labels": str(directory / "labels")}


def test_cli_suite_labels_unnamed_datasets_by_their_first_file(tmp_path):
    a, b = write_idx_pair(tmp_path / "a", 1), write_idx_pair(tmp_path / "b", 2)
    sgd = {"algorithm": "sgd", "eta": 0.05, "sigma_init": 0.2}
    experiments = [tiny_config(name=name, runs=1, dataset=ds, learner=sgd,
                               model={"kind": "mlp", "hidden": 3}).to_dict()
                   for name, ds in (("idx-a", a), ("idx-b", b))]
    experiments.append(tiny_config(name="syn", runs=1, learner=sgd).to_dict())
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"experiments": experiments}))
    assert hns.cli_main(["suite", "--config", str(p), "--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s" / "suite_summary.json").read_text())
    assert [r["dataset"] for r in summary["results"]] == [a["images"], b["images"], "synthetic"]
    assert sorted(summary["ranks"]["per_dataset"]) == sorted([a["images"], b["images"], "synthetic"])


def test_cli_rejects_duplicate_suite_names(tmp_path, capsys):
    suite = {"experiments": [tiny_config(runs=1).to_dict(),
                             tiny_config(runs=1).to_dict()]}
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    code = hns.cli_main(["suite", "--config", str(p), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "unique" in capsys.readouterr().err


def test_cli_suite_rejects_a_name_that_is_not_a_string(tmp_path, capsys):
    # names are compared for uniqueness, which used to raise a TypeError
    # traceback for a list before any config was checked
    suite = {"experiments": [dict(tiny_config(runs=1).to_dict(), name=["a"])]}
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    code = hns.cli_main(["suite", "--config", str(p), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "name must be a string" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("raw, named", [
    ({"experiment": []}, "'experiment'"),
    ([], "'experiments'"),
    ({"experiments": []}, "'experiments'"),
    ({"experiments": [3]}, "experiments[0]"),
])
def test_cli_suite_rejects_a_malformed_suite_file(tmp_path, capsys, raw, named):
    # a misspelt key ended in a KeyError traceback, a list in a TypeError
    # traceback, and an empty list in a missing temp file of suite_summary
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(raw))
    out_dir = tmp_path / "s"
    code = hns.cli_main(["suite", "--config", str(p), "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {p}: ")
    assert named in captured.err
    assert captured.out == ""


def write_csv_stream(path, rows=60, seed=59):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, 3))
    path.write_text("".join(",".join(f"{v:.6f}" for v in x) + f",{int(x[0] > 0)}\n" for x in X))
    return {"format": "csv", "path": str(path), "name": "toy"}


def test_cli_suite_ranks_clean_and_noisy_rows_apart(tmp_path):
    # with one label per dataset the noisy rows overwrote the clean ones
    dataset = write_csv_stream(tmp_path / "toy.csv")
    bflo = {"algorithm": "bflo", "variant": "diagonal", "eta": 0.05, "sigma_init": 0.2}
    sgd = {"algorithm": "sgd", "eta": 0.05, "sigma_init": 0.2}
    experiments = [tiny_config(name=f"{tag}-{noise}", runs=1, dataset=dataset, learner=lcfg,
                               noise_fraction=noise).to_dict()
                   for noise in (0.0, 0.2) for tag, lcfg in (("bflo", bflo), ("sgd", sgd))]
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"experiments": experiments}))
    assert hns.cli_main(["suite", "--config", str(p), "--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s" / "suite_summary.json").read_text())
    assert [(r["dataset"], r["learner"]) for r in summary["results"]] == [
        ("toy", "bflo-diagonal"), ("toy", "sgd"),
        ("toy noise 0.2", "bflo-diagonal"), ("toy noise 0.2", "sgd")]
    per_dataset = summary["ranks"]["per_dataset"]
    assert sorted(per_dataset) == ["toy", "toy noise 0.2"]
    for ranks in per_dataset.values():
        assert sorted(ranks) == ["bflo-diagonal", "sgd"]
        assert sum(ranks.values()) == 3.0
    assert sorted(summary["ranks"]["mean_rank"]) == ["bflo-diagonal", "sgd"]


def test_cli_suite_rejects_two_rows_in_one_cell(tmp_path, capsys):
    dataset = write_csv_stream(tmp_path / "toy.csv")
    experiments = [tiny_config(name=name, runs=1, dataset=dataset,
                               learner={"algorithm": "sgd", "eta": eta}).to_dict()
                   for name, eta in (("slow", 0.01), ("fast", 0.5))]
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"experiments": experiments}))
    out_dir = tmp_path / "s"
    assert hns.cli_main(["suite", "--config", str(p), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    captured = capsys.readouterr()
    assert "'slow' and 'fast'" in captured.err and "'toy'" in captured.err
    assert captured.out == ""
