"""Harness: configs, seeded runs, aggregation, file formats, CLI."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beliefflow
from beliefflow import belief as bel
from beliefflow import data as dat
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


@pytest.mark.parametrize("algorithm", ["bflo", "arow"])
@pytest.mark.parametrize("m", [0, 2.0, True])
def test_validate_rejects_m_that_is_not_an_integer_of_at_least_one(algorithm, m):
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        hns.validate_config(tiny_config(learner={"algorithm": algorithm, "m": m}))


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


def test_importing_the_harness_loads_no_scipy_stats_or_optimize():
    code = ("import sys, beliefflow.harness; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.integrate', "
            "'beliefflow.oracles') if m in sys.modules))")
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


def test_summary_is_deterministic_modulo_wall_time(tmp_path):
    s1 = hns.run_experiment(tiny_config(), tmp_path / "a")
    s2 = hns.run_experiment(tiny_config(), tmp_path / "b")
    assert json.dumps(scrub_wall_times(s1), sort_keys=True) == \
        json.dumps(scrub_wall_times(s2), sort_keys=True)


def test_snapshot_round_trip(tmp_path):
    cfg = tiny_config()
    out = tmp_path / "exp"
    hns.run_experiment(cfg, out)
    snaps = hns.read_snapshots(out / "snapshots.bin")
    rounds = [r for r, _ in snaps]
    assert rounds[0] == 0 and rounds[-1] == 240
    assert rounds == sorted(rounds)
    state = snaps[-1][1]
    assert state.variant == bel.DIAGONAL and state.dim == 8
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
    header = hns.SNAPSHOT_MAGIC + struct.pack("<IBII", 1, 1, 2, 2)
    good.write_bytes(header + b"\x01\x02")  # partial record
    with pytest.raises(ValueError, match="truncated"):
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


def test_cli_trace_round_trip(tmp_path):
    p = write_config(tmp_path, tiny_config(runs=1))
    assert hns.cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    code = hns.cli_main(["trace", "--snapshots", str(tmp_path / "o" / "snapshots.bin"),
                         "--out", str(tmp_path / "o" / "trace.csv")])
    assert code == 0
    lines = (tmp_path / "o" / "trace.csv").read_text().splitlines()
    assert lines[0] == "round,x,r_eigenvalues,rho,cum_rho"
    assert len(lines) > 1


def test_cli_full_variant_run_trace_round_trip(tmp_path):
    cfg = tiny_config(runs=1, dataset={"format": "synthetic", "n": 60, "n_features": 6, "seed": 5},
                      learner={"algorithm": "bflo", "variant": "full", "eta": 0.05,
                               "sigma_init": 0.2})
    p = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert hns.cli_main(["run", "--config", str(p), "--out", str(out)]) == 0
    snap = out / "snapshots.bin"
    version, code, d, payload_len = struct.unpack_from("<IIII", snap.read_bytes(), 4)
    assert (version, code, d, payload_len) == (2, 0, 6, 36)  # v2 full: W only
    snaps = hns.read_snapshots(snap)
    assert [r for r, _ in snaps] == list(range(49))
    state = snaps[-1][1]
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
    assert all(line.split(",")[2] for line in lines[1:])  # informative eigenvalues


def test_v1_full_snapshot_still_reads_and_traces(tmp_path):
    # version 1 stored full beliefs as eigenvectors (row-major) plus eigenvalues
    rng = np.random.default_rng(8)
    d = 3
    records = []
    for rnd in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        records.append((rnd, rng.normal(size=d), q, rng.uniform(0.5, 2.0, size=d)))
    raw = hns.SNAPSHOT_MAGIC + struct.pack("<IBII", 1, 0, d, d * d + d)
    for rnd, mean, q, evals in records:
        raw += struct.pack("<I", rnd) + np.concatenate([mean, q.ravel(), evals]).astype("<f8").tobytes()
    p = tmp_path / "v1.bin"
    p.write_bytes(raw)
    snaps = hns.read_snapshots(p)
    assert [r for r, _ in snaps] == [0, 1, 2]
    for (_, state), (_, mean, q, evals) in zip(snaps, records):
        np.testing.assert_array_equal(state.mean, mean)
        np.testing.assert_allclose(bel.covariance(state), (q * evals) @ q.T, atol=1e-12)
        np.testing.assert_allclose(bel.entropy(state),
                                   0.5 * (d * np.log(2 * np.pi * np.e) + np.sum(np.log(evals))))
    assert hns.cli_main(["trace", "--snapshots", str(p), "--out", str(tmp_path / "t.csv")]) == 0
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 3


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


def test_cli_rejects_duplicate_suite_names(tmp_path, capsys):
    suite = {"experiments": [tiny_config(runs=1).to_dict(),
                             tiny_config(runs=1).to_dict()]}
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    code = hns.cli_main(["suite", "--config", str(p), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "unique" in capsys.readouterr().err
