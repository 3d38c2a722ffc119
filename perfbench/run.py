#!/usr/bin/env python3
"""beliefflow benchmark: end-to-end CLI runs and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mnist-suite --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

--trace 0 drives the real ``beliefflow suite`` and ``beliefflow trace``
commands in child processes, untraced, and reports the end-to-end metrics.
--trace 1 runs the workload in this process with every layer wrapped and
reports the per-layer metrics (see traced.py). ``--workload all`` runs the
three workloads in turn and prints every metric by name and unit.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every correctness
check held, 1 when one failed and 2 when the program source is missing.
Generated inputs and outputs go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child process.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The trace stage of a repeat runs again until it has taken this long.
TRACE_MIN_S = 6.0
# Every child is killed once a workload has run this long, so a run ends
# well inside three minutes even when the program hangs.
RUN_DEADLINE_S = 170.0


class Ops:
    """Attempted and failed operations of one run; every failure is kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: list[str]) -> bool:
        """Count one operation; it failed when any problem was found."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(problems)
        return not problems


def child_env(workers: int) -> dict:
    return dict(os.environ, **BLAS_PIN, BFLO_THREADS=str(workers), PYTHONPATH=str(SRC))


def run_child(argv: list, env: dict, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run a child to completion: exit code, wall seconds and the peak
    resident set in MB of it and of every descendant it waited for."""
    with log.open("ab") as out:
        t0 = time.perf_counter()
        # A process group of its own, so a kill also reaches the suite's pool workers.
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        kill = functools.partial(os.killpg, proc.pid, signal.SIGKILL)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli(*args) -> list:
    return [sys.executable, "-m", "beliefflow", *args]


def setup_probe(prep: dict, work: Path, deadline: float) -> tuple[int, float]:
    """Seconds from interpreter start until the first learner is built.

    CLOCK_MONOTONIC is shared by all processes, so the child writes the
    instant it finished and the parent subtracts the instant it spawned.
    """
    stamp = work / "setup_probe.out"
    stamp.unlink(missing_ok=True)
    t0 = time.monotonic()
    rc, *_ = run_child([sys.executable, HERE / "setup_probe.py", prep["first"], stamp],
                         child_env(1), work / "setup_probe.log", deadline)
    if rc != 0 or not stamp.exists():
        return rc or 1, float("nan")
    return 0, float(stamp.read_text()) - t0


def suite_cycle(prep: dict, workload, workers: int, out: Path, deadline: float, ops: Ops,
                references: list[dict], with_trace: bool = True) -> dict:
    """One untraced suite invocation, then a trace of each snapshot file.

    The outputs are checked and compared with every reference; a cycle
    whose suite or trace fails is not used for the metrics.
    """
    names = [e["name"] for e in prep["experiments"]]
    shutil.rmtree(out, ignore_errors=True)
    log = out.with_suffix(".log")
    rc, wall, rss = run_child(cli("suite", "--config", prep["suite"], "--out", out),
                              child_env(workers), log, deadline)
    cycle = {"run_wall_s": wall, "peak_rss_mb": rss, "trace_walls": []}
    if not ops.record([] if rc == 0 else [f"{out.name}: suite exited {rc}"]):
        cycle["ok"] = False
        return cycle
    snaps = [out / n / "snapshots.bin" for n in names if (out / n / "snapshots.bin").exists()]
    ok = True
    # A cheap trace stage is repeated, so that its median rests on several
    # seconds of work; each repeat rewrites the same trace.csv files.
    while with_trace and snaps and ok and sum(cycle["trace_walls"]) < TRACE_MIN_S:
        stage = 0.0
        for snap in snaps:
            rc, wall, rss = run_child(cli("trace", "--snapshots", snap, "--out", snap.parent / "trace.csv"),
                                      child_env(1), log, deadline)
            stage += wall
            cycle["peak_rss_mb"] = max(cycle["peak_rss_mb"], rss)
            ok &= ops.record([] if rc == 0 else [f"{out.name}: trace of {snap.parent.name} exited {rc}"])
        cycle["trace_walls"].append(stage)
    files = checks.COMPARED_FILES if with_trace else checks.COMPARED_FILES[:3]
    cycle["digests"] = checks.digests(out, names, files)
    problems = [p for n in names for p in checks.check_experiment(out / n, workload.error_bounds.get(n))]
    for ref in references:
        shared = {k: v for k, v in cycle["digests"].items() if k.rsplit("/", 1)[1] in ref["files"]}
        problems += [f"{out.name}: {k} differs from {ref['label']}"
                     for k in checks.mismatches(ref["digests"], shared)]
    cycle["ok"] = ops.record(problems) and ok
    if cycle["ok"]:
        cycle["rounds"] = checks.total_rounds(out, names)
        cycle["snapshot_bytes"] = sum(s.stat().st_size for s in snaps)
        shutil.rmtree(out)  # checked and hashed; outputs of a failed repeat stay
    return cycle


def measure_end_to_end(workload, prep: dict, work: Path, seconds: float, deadline: float,
                       ops: Ops) -> tuple[dict, dict]:
    """Repeats of set-up probe, suite and trace until `seconds` have passed.

    The host's speed drifts over tens of seconds, so every metric is
    sampled in every repeat and its median covers the whole window. A new
    repeat starts only while at least half of a mean repeat still fits.
    Returns the medians and their sample counts.
    """
    references = []
    if workload.workers > 1:
        # Outputs must not depend on the worker count: every repeat is
        # compared with one run at a single worker. It also warms caches.
        one = suite_cycle(prep, workload, 1, work / "one-worker", deadline, ops, [],
                          with_trace=False)
        if "digests" in one:
            references.append({"label": "the 1-worker run", "digests": one["digests"],
                               "files": checks.COMPARED_FILES[:3]})
    else:
        setup_probe(prep, work, deadline)  # warm-up: compiles bytecode, not counted
    setups = []

    def probe():
        rc, value = setup_probe(prep, work, deadline)
        if ops.record([] if rc == 0 else [f"setup probe exited {rc}"]):
            setups.append(value)

    cycles = []
    start = time.monotonic()
    while time.monotonic() < deadline:
        elapsed = time.monotonic() - start
        if cycles and elapsed + elapsed / len(cycles) / 2 > seconds:
            break
        probe()
        cycle = suite_cycle(prep, workload, workload.workers, work / f"repeat-{len(cycles)}",
                            deadline, ops, references)
        if cycle["ok"] and not any(c["ok"] for c in cycles):
            references.append({"label": "the first repeat", "digests": cycle["digests"],
                               "files": checks.COMPARED_FILES})
        cycles.append(cycle)
    if time.monotonic() < deadline:
        probe()  # closes the window, so the probes bracket every repeat
    good = [c for c in cycles if c["ok"]]
    if not good or not setups:
        return {}, {}
    medians = {
        "setup_s": statistics.median(setups),
        "run_wall_s": statistics.median(c["run_wall_s"] for c in good),
        "rounds_per_s": statistics.median(c["rounds"] / c["run_wall_s"] for c in good),
        "trace_wall_s": statistics.median(w for c in good for w in c["trace_walls"]),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in good),
        "snapshot_mb": statistics.median(c["snapshot_bytes"] / 1e6 for c in good),
    }
    samples = {name: len(good) for name in medians}
    samples["setup_s"] = len(setups)
    samples["trace_wall_s"] = sum(len(c["trace_walls"]) for c in good)
    samples["window_s"] = time.monotonic() - start
    samples["repeats"] = [{k: v for k, v in c.items() if k != "digests"} for c in cycles]
    samples["setup_probes"] = setups
    return medians, samples


def measure_per_layer(workload, prep: dict, work: Path, ops: Ops) -> tuple[dict, dict]:
    """The traced run, in this process; returns metrics and the full report."""
    sys.path.insert(0, str(SRC))
    import traced

    try:
        result = traced.traced_run(workload, prep, work)
    except Exception as exc:  # the program failed: count it, report nothing
        ops.record([f"traced run failed: {exc!r}"])
        return {}, {}
    passes = result["passes"]
    untraced = passes.pop("untraced")
    ops.record([])
    for label, run in passes.items():
        ref = {k: v for k, v in untraced["digests"].items() if k.rsplit("/", 1)[1] in run["files"]}
        problems = [f"{label} pass: {k} differs from the untraced pass"
                    for k in checks.mismatches(ref, run["digests"])]
        ops.record(problems + (result["problems"] if label == "traced" else []))
    report = result["report"]
    return {k: v["value"] for k, v in report["metrics"].items()}, report


def environment(workload, prep: dict) -> dict:
    """What the numbers were measured on."""
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
        "workers": workload.workers,
        "input_sizes": prep["input_sizes"],
        "experiments": [e["name"] for e in prep["experiments"]],
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    prep = workloads.prepare(workload, seed, work)
    generate_s = time.perf_counter() - t0
    ops = Ops()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values, detail = measure_per_layer(workload, prep, work, ops)
    else:
        values, detail = measure_end_to_end(workload, prep, work, seconds, deadline, ops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not ops.failed:
        ops.record([f"metrics not measured: {missing}"])
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "generate_s": generate_s, "environment": environment(workload, prep),
        "metrics": metrics, "detail": detail, "attempted": ops.attempted,
        "failed": ops.failed, "failures": ops.failures,
    }
    (work / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    env = record["environment"]
    print(f"# {name} seed={record['seed']} sha={env['git_sha']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} nproc={env['nproc']} "
          f"workers={env['workers']} inputs={json.dumps(env['input_sizes'])}")
    detail = record["detail"]
    if record["trace"]:
        for key, m in sorted(detail.get("metrics", {}).items()):
            print(f"{name} {key} = {m['value']:.6g} {m['unit']} (n={m['count']})")
        for tag, part in detail.get("step_breakdown", {}).items():
            print(f"{name} step breakdown {tag} [base {part['base']}]")
            for child, c in part["children"].items():
                print(f"  child {child}: {c['total_s']:.4f} s = {100 * c['share_of_step']:.1f}% of step")
            for layer, c in part["self_by_layer"].items():
                print(f"  self {layer}: {c['self_s']:.4f} s = {100 * c['share_of_step']:.1f}% of step")
        layers = detail.get("layer_self", {})
        print(f"{name} layer self time [base {layers.get('base')}]")
        for layer, c in layers.get("layers", {}).items():
            print(f"  {layer}: {c['self_s']:.4f} s = {100 * c['share_of_traced_wall']:.1f}%")
        for key, value in detail.get("passes", {}).items():
            print(f"{name} pass {key} = {value:.6g}" if isinstance(value, float)
                  else f"{name} pass {key} = {value}")
    else:
        for key, m in record["metrics"].items():
            print(f"{name} {key} = {m['value']:.6g} {m['unit']} (median of {detail[key]})")
    frac = record["failed"] / max(1, record["attempted"])
    print(f"{name} failed_frac = {frac:.6g} ({record['failed']} of {record['attempted']} operations)")
    for failure in record["failures"]:
        print(f"{name} FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "beliefflow" / "harness.py").is_file():
        print(f"error: program source {SRC / 'beliefflow'} not found", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), spec)
        print_record(record)
        records.append(record)
    failed = sum(r["failed"] for r in records)
    metrics = (records[0]["metrics"] if len(records) == 1 else
               {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
