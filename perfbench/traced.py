"""Traced run: per-layer metrics of one workload, in one process.

The suite and trace commands run in-process through ``harness.cli_main``
with one worker, first untraced and then with every layer's public
functions wrapped (see ``tracer``). The difference between the two wall
times is the tracing overhead. Pool overhead is timed separately, from
outside ``run_experiment``, at the workload's own worker count.

Layers are the package modules: data, belief, flow, models, learners,
pseudo and harness. ``oracles`` only serves ``beliefflow verify`` and is
not on the run path.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import checks
from tracer import OBSERVE, Tracer, self_times

US, S = "us", "s"


class Counters:
    """Counts the observers gather at the traced boundaries."""

    def __init__(self):
        self.spectrum_fixes = 0
        self.identity_flows = 0
        self.active_frac: dict[str, list[float]] = {}
        self.snapshot_bytes = 0
        self.pseudo_rows = 0
        self.degenerate_rows = 0

    def on_correct_spectrum(self, args, kwargs, result):
        self.spectrum_fixes += result is not args[0]

    def on_solve(self, args, kwargs, result):
        self.identity_flows += bool(result.identity)

    def on_apply(self, args, kwargs, result):
        belief, _, w, w_prime = args[:4]
        frac = np.count_nonzero(np.asarray(w) != np.asarray(w_prime)) / belief.dim
        self.active_frac.setdefault(belief.variant, []).append(frac)

    def on_write_snapshots(self, args, kwargs, result):
        self.snapshot_bytes += os.path.getsize(args[0])

    def on_pseudo_trace(self, args, kwargs, result):
        self.pseudo_rows += len(result)
        self.degenerate_rows += sum(row.degenerate for row in result)


def install(tracer: Tracer, counters: Counters) -> None:
    """Wrap the public functions of every layer on the run path."""
    from beliefflow import belief, data, flow, harness, learners, models, pseudo

    for fn in ("parse_libsvm", "parse_idx", "parse_csv", "synthetic_linear"):
        tracer.patch(data, fn, "data.parse")
    tracer.patch(data.Dataset, "example", "data.example")
    tracer.patch(belief, "sample", "belief.sample")
    tracer.patch(belief, "correct_spectrum", "belief.correct_spectrum", counters.on_correct_spectrum)
    tracer.patch(belief, "entropy", "belief.entropy")
    tracer.patch(flow, "solve", "flow.solve", counters.on_solve)
    tracer.patch(flow, "apply_flow", "flow.apply", counters.on_apply)
    tracer.patch(models, "forward_backward", "models.forward_backward")
    tracer.patch(models, "batch_forward", "models.batch_forward")
    tracer.patch(learners.BeliefFlowLearner, "step",
                 lambda self, *_: f"learners.step.bflo-{self.belief.variant}")
    for cls, tag in ((learners.SGDLearner, "sgd"), (learners.LangevinSGDLearner, "blang"),
                     (learners.AROWLearner, "arow"), (learners.DropoutSGDLearner, "dropout")):
        tracer.patch(cls, "step", f"learners.step.{tag}")
    tracer.patch(harness, "run_experiment", "harness.run_experiment")
    tracer.patch(harness, "run_online", "harness.run_online")
    tracer.patch(harness, "evaluate_error_pct", "harness.evaluate")
    tracer.patch(harness, "write_snapshots", "harness.write_snapshots", counters.on_write_snapshots)
    tracer.patch(harness, "read_snapshots", "harness.read_snapshots")
    tracer.patch(harness, "write_trace", "harness.write_trace")
    tracer.patch(harness, "write_curve", "harness.write_curve")
    tracer.patch(harness, "write_summary", "harness.write_summary")
    tracer.patch(pseudo, "pseudo_trace", "pseudo.trace", counters.on_pseudo_trace)


def _cli(argv: list[str], log) -> None:
    from beliefflow import harness

    with contextlib.redirect_stdout(log):
        rc = harness.cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"beliefflow {' '.join(argv)} exited {rc}")


def run_pass(suite: Path, out_dir: Path, names: list[str]) -> float:
    """Suite, then a trace of every snapshot file it wrote; wall seconds.

    The commands' own output goes to a log next to out_dir.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    with out_dir.with_suffix(".log").open("w") as log:
        t0 = time.perf_counter()
        _cli(["suite", "--config", str(suite), "--out", str(out_dir)], log)
        for name in names:
            snap = out_dir / name / "snapshots.bin"
            if snap.exists():
                _cli(["trace", "--snapshots", str(snap), "--out", str(out_dir / name / "trace.csv")],
                     log)
        return time.perf_counter() - t0


def pool_overhead(prep: dict, out_dir: Path, workers: int) -> tuple[float, float]:
    """Wall of run_experiment at the given worker count minus the run time
    its summaries report, spread over the workers; also the summed wall."""
    from beliefflow import harness

    shutil.rmtree(out_dir, ignore_errors=True)
    previous = os.environ.get("BFLO_THREADS")
    os.environ["BFLO_THREADS"] = str(workers)
    try:
        overhead = wall = 0.0
        for raw in prep["experiments"]:
            config = harness.ExperimentConfig.from_dict(raw)
            t0 = time.perf_counter()
            summary = harness.run_experiment(config, out_dir / config.name)
            elapsed = time.perf_counter() - t0
            used = harness.parallel_workers(config.runs)
            overhead += elapsed - sum(r["wall_time_s"] for r in summary["runs"]) / used
            wall += elapsed
    finally:
        if previous is None:
            os.environ.pop("BFLO_THREADS", None)
        else:
            os.environ["BFLO_THREADS"] = previous
    return overhead, wall


def _metric(value, unit, count) -> dict:
    return {"value": float(value), "unit": unit, "count": int(count)}


def _stat(durations_ns) -> dict:
    value = statistics.median(durations_ns) * 1e-3 if durations_ns else 0.0
    return _metric(value, US, len(durations_ns))


def _p99(durations_ns) -> dict:
    value = float(np.percentile(durations_ns, 99)) * 1e-3 if durations_ns else 0.0
    return _metric(value, US, len(durations_ns))


def _total(durations_ns) -> dict:
    return _metric(sum(durations_ns) * 1e-9, S, len(durations_ns))


def summarize(tracer: Tracer, counters: Counters, primary_tag: str,
              traced_wall_s: float) -> dict:
    """Per-layer metrics, per-learner step breakdowns and layer self-time
    shares from the recorded spans."""
    names, parents = tracer.names, tracer.parents
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    selfs = self_times(tracer.starts, tracer.ends, parents)
    by_name: dict[str, list[int]] = {}
    self_by_name: dict[str, list[int]] = {}
    for name, dur, own in zip(names, durations, selfs):
        by_name.setdefault(name, []).append(dur)
        self_by_name.setdefault(name, []).append(own)

    # The learner step that encloses each span (parents precede children).
    step_of = [-1] * len(names)
    for idx, (name, parent) in enumerate(zip(names, parents)):
        if name.startswith("learners.step."):
            step_of[idx] = idx
        elif parent >= 0:
            step_of[idx] = step_of[parent]

    get = by_name.get
    metrics = {
        "data.parse_s": _total(get("data.parse", [])),
        "data.parse_calls": _metric(len(get("data.parse", [])), "count", len(get("data.parse", []))),
        "data.example_us": _stat(get("data.example", [])),
        "data.example_p99_us": _p99(get("data.example", [])),
        "data.example_calls": _metric(len(get("data.example", [])), "count",
                                      len(get("data.example", []))),
        "belief.sample_us": _stat(get("belief.sample", [])),
        "belief.correct_spectrum_us": _stat(get("belief.correct_spectrum", [])),
        "belief.spectrum_fixes": _metric(counters.spectrum_fixes, "count",
                                         len(get("belief.correct_spectrum", []))),
        "belief.entropy_us": _stat(get("belief.entropy", [])),
        "flow.solve_us": _stat(get("flow.solve", [])),
        "flow.solve_calls": _metric(len(get("flow.solve", [])), "count", len(get("flow.solve", []))),
        "flow.identity_frac": _metric(counters.identity_flows / max(1, len(get("flow.solve", []))),
                                      "ratio", len(get("flow.solve", []))),
        "flow.apply_us": _stat(get("flow.apply", [])),
        "models.forward_backward_us": _stat(get("models.forward_backward", [])),
        "models.batch_forward_s": _total(get("models.batch_forward", [])),
        "harness.run_online_s": _total(get("harness.run_online", [])),
        "harness.evaluate_s": _total(get("harness.evaluate", [])),
        "harness.write_snapshots_s": _total(get("harness.write_snapshots", [])),
        "harness.snapshot_bytes": _metric(counters.snapshot_bytes, "B",
                                          len(get("harness.write_snapshots", []))),
        "harness.read_snapshots_s": _total(get("harness.read_snapshots", [])),
        "harness.write_trace_s": _total(get("harness.write_trace", [])),
        "harness.write_curve_s": _total(get("harness.write_curve", [])),
        "harness.write_summary_s": _total(get("harness.write_summary", [])),
        "pseudo.trace_s": _total(get("pseudo.trace", [])),
        "pseudo.rows": _metric(counters.pseudo_rows, "count", len(get("pseudo.trace", []))),
        "pseudo.degenerate_rows": _metric(counters.degenerate_rows, "count",
                                          len(get("pseudo.trace", []))),
    }
    # Useful-work ratio of a flow update: coordinates with w' != w over d.
    # Diagonal calls when the workload has them, else every variant's.
    fracs = counters.active_frac.get("diagonal") or [
        f for values in counters.active_frac.values() for f in values]
    metrics["flow.active_coord_frac"] = _metric(np.mean(fracs) if fracs else 0.0, "ratio", len(fracs))
    for variant, values in sorted(counters.active_frac.items()):
        metrics[f"flow.active_coord_frac.{variant}"] = _metric(np.mean(values), "ratio", len(values))

    breakdown = {}
    for name in sorted(n for n in by_name if n.startswith("learners.step.")):
        tag = name[len("learners.step."):]
        metrics[f"learners.step_us.{tag}"] = _stat(by_name[name])
        metrics[f"learners.step_p99_us.{tag}"] = _p99(by_name[name])
        metrics[f"learners.step_self_us.{tag}"] = _stat(self_by_name[name])
        step_total = sum(by_name[name])
        children: dict[str, int] = {}
        layer_self: dict[str, int] = {}
        for idx, (child, parent) in enumerate(zip(names, parents)):
            if step_of[idx] < 0 or names[step_of[idx]] != name or child == OBSERVE:
                continue
            if parent >= 0 and names[parent] == name:
                children[child] = children.get(child, 0) + durations[idx]
            layer = child.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0) + selfs[idx]
        breakdown[tag] = {
            "base": f"learners.step.{tag}: {step_total * 1e-9:.6f} s over {len(by_name[name])} calls",
            "children": {c: {"total_s": t * 1e-9, "share_of_step": t / step_total}
                         for c, t in sorted(children.items(), key=lambda kv: -kv[1])},
            "self_by_layer": {l: {"self_s": t * 1e-9, "share_of_step": t / step_total}
                              for l, t in sorted(layer_self.items(), key=lambda kv: -kv[1])},
        }
    for suffix in ("step_us", "step_p99_us", "step_self_us"):
        key = f"learners.{suffix}.{primary_tag}"
        metrics[f"learners.bflo_{suffix}"] = dict(metrics.get(key, _metric(0.0, US, 0)))

    layer_self_total: dict[str, int] = {}
    for name, own in zip(names, selfs):
        layer = "tracer" if name == OBSERVE else name.split(".")[0]
        layer_self_total[layer] = layer_self_total.get(layer, 0) + own
    layers = {l: {"self_s": t * 1e-9, "share_of_traced_wall": t * 1e-9 / traced_wall_s}
              for l, t in sorted(layer_self_total.items(), key=lambda kv: -kv[1])}
    return {"metrics": metrics, "step_breakdown": breakdown,
            "layer_self": {"base": f"traced suite+trace wall {traced_wall_s:.6f} s", "layers": layers}}


def traced_run(workload, prep: dict, work_dir: Path) -> dict:
    """Pool pass, untraced pass and traced pass of one workload.

    Returns the per-layer summary plus the output digests of each pass, so
    the caller can check that all three wrote the same bytes.
    """
    names = [e["name"] for e in prep["experiments"]]
    primary = next(e["learner"] for e in prep["experiments"] if e["learner"]["algorithm"] == "bflo")
    primary_tag = f"bflo-{primary.get('variant', 'diagonal')}"
    os.environ["BFLO_THREADS"] = "1"
    import beliefflow.harness  # noqa: F401  (import cost stays out of both passes)

    # The pool pass goes first: it also warms the process, so the untraced
    # and traced passes after it pay the same first-call costs.
    pool_dir = work_dir / "pool"
    overhead, pool_wall = pool_overhead(prep, pool_dir, workload.workers)
    pool_files = checks.COMPARED_FILES[:3]
    untraced_dir, traced_dir = work_dir / "untraced", work_dir / "traced"
    untraced_wall = run_pass(prep["suite"], untraced_dir, names)
    passes = {"untraced": {"digests": checks.digests(untraced_dir, names),
                           "files": checks.COMPARED_FILES}}
    counters = Counters()
    with Tracer() as tracer:
        install(tracer, counters)
        traced_wall = run_pass(prep["suite"], traced_dir, names)
    passes["traced"] = {"digests": checks.digests(traced_dir, names),
                        "files": checks.COMPARED_FILES}
    problems = [p for name in names
                for p in checks.check_experiment(traced_dir / name, workload.error_bounds.get(name))]
    passes[f"pool-{workload.workers}-worker"] = {
        "digests": checks.digests(pool_dir, names, pool_files), "files": pool_files}
    report = summarize(tracer, counters, primary_tag, traced_wall)
    report["metrics"]["harness.pool_overhead_s"] = _metric(overhead, S, len(names))
    report["passes"] = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "tracing_overhead_s": traced_wall - untraced_wall,
        "pool_workers": workload.workers,
        "pool_run_experiment_wall_s": pool_wall,
        "spans": len(tracer.names),
    }
    report["primary_bflo_tag"] = primary_tag
    return {"report": report, "passes": passes, "problems": problems}
