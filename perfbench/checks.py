"""Correctness checks on the files a suite and its traces write.

Nothing is compared against frozen bytes: a change may legitimately consume
the RNG differently. Instead each repeat must match the first repeat of the
same run byte for byte, every reported number must be finite, and every
experiment's mean final error must stay under the workload's loose bound.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

COMPARED_FILES = ("summary.json", "curve.csv", "snapshots.bin", "trace.csv")


def _summary_without_wall_times(raw: bytes) -> bytes:
    try:
        summary = json.loads(raw)
    except ValueError:
        return raw  # check_experiment reports it
    for run in summary["runs"]:
        run.pop("wall_time_s", None)
    return json.dumps(summary, sort_keys=True).encode()


def digests(out_dir: Path, names: list[str], files=COMPARED_FILES) -> dict[str, str]:
    """sha256 of every compared file that exists, keyed 'experiment/file'.

    summary.json is hashed without its wall_time_s fields, the only bytes
    that may differ between identical runs.
    """
    out = {}
    for name in names:
        for fname in files:
            path = out_dir / name / fname
            if not path.exists():
                continue
            raw = path.read_bytes()
            if fname == "summary.json":
                raw = _summary_without_wall_times(raw)
            out[f"{name}/{fname}"] = hashlib.sha256(raw).hexdigest()
    return out


def mismatches(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    """Files whose digest differs, or that only one side wrote."""
    return sorted(k for k in reference.keys() | other.keys() if reference.get(k) != other.get(k))


def _numbers(node):
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)


def _csv_fields_finite(path: Path) -> bool:
    with path.open("r", encoding="ascii") as fh:
        next(fh)  # header
        for line in fh:
            for field in line.rstrip("\n").split(","):
                if field and not np.all(np.isfinite(np.array(field.split(";"), dtype=float))):
                    return False
    return True


def check_experiment(exp_dir: Path, max_error_pct: float | None) -> list[str]:
    """Problems found in one experiment's outputs; empty when all hold."""
    problems = []
    summary_path = exp_dir / "summary.json"
    if not summary_path.exists():
        return [f"{exp_dir.name}: summary.json missing"]
    try:
        summary = json.loads(summary_path.read_text())
    except ValueError:
        return [f"{exp_dir.name}: summary.json is not valid JSON"]
    if not all(math.isfinite(v) for v in _numbers(summary)):
        problems.append(f"{exp_dir.name}: non-finite number in summary.json")
    for fname in ("curve.csv", "trace.csv"):
        path = exp_dir / fname
        if path.exists() and not _csv_fields_finite(path):
            problems.append(f"{exp_dir.name}: non-finite field in {fname}")
    error = summary["aggregate"]["final_error_pct"]["mean"]
    if max_error_pct is not None and not error <= max_error_pct:
        problems.append(f"{exp_dir.name}: final error {error:.2f}% above the "
                        f"{max_error_pct:.0f}% bound")
    return problems


def total_rounds(out_dir: Path, names: list[str]) -> int:
    """Learner rounds over all runs and experiments: one round per example."""
    total = 0
    for name in names:
        summary = json.loads((out_dir / name / "summary.json").read_text())
        total += sum(run["n_train"] for run in summary["runs"])
    return total
