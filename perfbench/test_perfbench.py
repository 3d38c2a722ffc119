"""Tests of the benchmark itself: generators, span arithmetic, patching.

    python3 -m pytest perfbench -q
"""

import struct
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from tracer import OBSERVE, Tracer, self_times  # noqa: E402

from beliefflow import data, harness  # noqa: E402


def _generate(name, seed, tmp_path, copy=0):
    out = tmp_path / f"{name}-{seed}-{copy}"
    out.mkdir()
    spec, sizes = workloads.WORKLOADS[name].generate(seed, out)
    files = sorted(p for p in out.iterdir())
    return spec, sizes, {p.name: p.read_bytes() for p in files}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    _, _, first = _generate(name, 7, tmp_path)
    _, _, again = _generate(name, 7, tmp_path, copy=1)
    _, _, other = _generate(name, 8, tmp_path)
    assert first == again
    assert first != other


def test_mushroom_file_shape(tmp_path):
    spec, sizes, files = _generate("mushroom-suite", 3, tmp_path)
    lines = files["mushrooms"].decode().splitlines()
    assert len(lines) == workloads.MUSHROOM_ROWS == 8124
    offsets = np.cumsum((0,) + workloads.MUSHROOM_GROUPS)
    for line in lines:
        label, *tokens = line.split()
        assert label in ("1", "-1")
        cols = [int(t.split(":")[0]) - 1 for t in tokens]
        assert [t.split(":")[1] for t in tokens] == ["1"] * 22
        # exactly one nonzero inside each attribute's one-hot group
        assert list(np.searchsorted(offsets, cols, side="right") - 1) == list(range(22))
    ds = harness.load_dataset(spec)
    assert ds.X.shape == (8124, 112)
    assert set(np.diff(ds.X.indptr)) == {22}
    assert harness.build_model({}, ds).n_params == 112
    assert sizes["nonzeros_per_row"] == 22


def test_mnist_pair_shape(tmp_path):
    spec, sizes, files = _generate("mnist-suite", 3, tmp_path)
    magic, count, rows, cols = struct.unpack(">IIII", files["train-images-idx3-ubyte"][:16])
    assert (magic, count, rows, cols) == (2051, workloads.MNIST_IMAGES, 28, 28)
    ds = data.parse_idx(spec["images"], spec["labels"])
    assert 0.17 <= float(np.mean(ds.X > 0)) <= 0.23
    assert sizes["nonzero_pixel_frac"] == pytest.approx(float(np.mean(ds.X > 0)))
    assert set(np.unique(ds.labels)) <= set(range(10))
    model = workloads.mnist_experiments(spec)[0]["model"]
    assert harness.build_model(model, ds).n_params == 159010


def test_dense_stream_shape(tmp_path):
    spec, _, _ = _generate("dense-full", 3, tmp_path)
    ds = harness.load_dataset(spec)
    assert ds.X.shape == (workloads.DENSE_ROWS, 300)
    assert not ds.sparse and set(np.unique(ds.labels)) == {0, 1}
    assert harness.build_model({}, ds).n_params == 300


def test_self_times_on_a_toy_span_tree():
    # 0: [0, 100] root; 1 and 2 overlap; 3 has a child 4; 5 runs past the root's end
    starts = [0, 10, 20, 60, 62, 90]
    ends = [100, 30, 50, 70, 65, 120]
    parents = [-1, 0, 0, 0, 3, 0]
    # root is covered by [10, 50] + [60, 70] + [90, 100] = 60
    assert self_times(starts, ends, parents) == [40, 20, 30, 7, 3, 30]


def test_spans_nest_and_observers_stay_out_of_self_time():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    seen = []
    with Tracer() as tracer:
        tracer.patch(mod, "inner", "m.inner", lambda args, kwargs, result: seen.append(result))
        tracer.patch(mod, "outer", lambda x: f"m.outer.{x}")
        assert mod.outer(3) == 8
    assert seen == [4]
    assert tracer.names == ["m.outer.3", "m.inner", OBSERVE]
    assert tracer.parents == [-1, 0, 0]
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    total = tracer.ends[0] - tracer.starts[0]
    assert own[0] == total - sum(tracer.ends[i] - tracer.starts[i] for i in (1, 2))


def _patched_attributes():
    from beliefflow import belief, flow, learners, models, pseudo

    owners = [data, data.Dataset, belief, flow, models, harness, pseudo,
              learners.BeliefFlowLearner, learners.SGDLearner, learners.LangevinSGDLearner,
              learners.AROWLearner, learners.DropoutSGDLearner]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_traced_run_restores_every_wrapped_attribute():
    before = _patched_attributes()
    with Tracer() as tracer:
        traced.install(tracer, traced.Counters())
        during = _patched_attributes()
        changed = {key for key in before if during[key] is not before[key]}
    assert len(changed) == 26  # every attribute traced.install wraps
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)


def test_restore_also_runs_on_error():
    before = _patched_attributes()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            traced.install(tracer, traced.Counters())
            raise RuntimeError("boom")
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)


def test_digests_ignore_wall_times_only(tmp_path):
    exp = tmp_path / "e"
    exp.mkdir()
    summary = '{"aggregate": {}, "runs": [{"seed": 1, "wall_time_s": %s}]}'
    (exp / "summary.json").write_text(summary % "0.5")
    first = checks.digests(tmp_path, ["e"])
    (exp / "summary.json").write_text(summary % "0.7")
    assert checks.digests(tmp_path, ["e"]) == first
    (exp / "summary.json").write_text(summary.replace('"seed": 1', '"seed": 2') % "0.5")
    assert checks.mismatches(first, checks.digests(tmp_path, ["e"])) == ["e/summary.json"]
