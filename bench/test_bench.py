"""Fast tests of the benchmark itself: every workload end to end at a tiny
size, each correctness check against a deliberately wrong output, and the
span arithmetic. Run with ``python3 -m pytest bench``."""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import workloads
from spans import Tracer
from superevents import model
from superevents.evaluation import average_precision

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = workloads.Sizes(
    videos=30, train_videos=20, setups=2, warmup_iterations=1,
    round_iterations={"attended": 20, "relative": 10},
    checkpoint_iterations={"attended": 20, "relative": 10},
    long_videos=3, long_frames=(300, 500), pool_videos=10, sample_videos=1,
)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_end_to_end(tmp_path, workload, trace):
    result, run = workloads.run_workload(workload, 1, 0.01, trace, tmp_path, sizes=TINY,
                                         trace_path=tmp_path / "trace.json")
    assert run.failures == []
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    # one round; a traced run pairs it with a traced copy
    per_round = 2 if workload == "eval-long" else 1 + workloads.EVAL_REPEATS
    assert result["attempted"] == per_round * (2 if trace else 1)
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["workload"] == workload and doc["spans"]
        calls = result["metrics"]["filters.calls_per_video"]["value"]
        assert calls == {"train-attended": 3, "train-relative": 2}.get(workload, calls)
        assert result["metrics"]["model.calls_per_iter"]["value"] == 32
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _state(variant, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    state = model.init_model(variant, 4, 3, ["a", "b", "c"], 2, 3, 7, rng, dtype=dtype)
    for k in state.params:
        state.params[k] = (state.params[k]
                           + rng.normal(0, 0.5, state.params[k].shape)).astype(dtype)
    features = rng.normal(0, 1, (40, 4)).astype(dtype)
    labels = (rng.random((40, 3)) < 0.3).astype(np.uint8)
    return state, features, labels


@pytest.mark.parametrize("variant", ["attended", "relative"])
def test_forward_check_rejects_perturbed_probabilities(variant):
    state, features, _ = _state(variant)
    program = model.predict_probabilities(state, features)
    ref = reference.probabilities(state.params, variant, state.kernel_length, features)
    assert checks.forward(program, ref, "ok") is None
    program[17, 1] += 1e-3
    assert checks.forward(program, ref, "perturbed") is not None


def _report(scores, labels):
    aps = {f"c{c}": average_precision(scores[:, c], labels[:, c])
           for c in range(labels.shape[1])}
    return {"ap_per_class": aps, "mean_ap": float(np.mean(list(aps.values())))}


def test_ap_check_rejects_report_with_one_label_flipped():
    rng = np.random.default_rng(3)
    scores = rng.random((500, 3))
    labels = (rng.random((500, 3)) < 0.2).astype(np.uint8)
    assert checks.average_precisions(_report(scores, labels), scores, labels, "ok") is None
    flipped = labels.copy()
    flipped[int(np.argmax(scores[:, 0])), 0] ^= 1
    assert checks.average_precisions(_report(scores, flipped), scores, labels,
                                     "flipped") is not None


def test_above_chance_check():
    labels = np.zeros((100, 2), dtype=np.uint8)
    labels[:10, 0] = 1
    labels[:30, 1] = 1  # chance is the mean positive rate, 0.2
    assert checks.above_chance(0.25, labels, "ok") is None
    assert checks.above_chance(0.15, labels, "low") is not None


@pytest.mark.parametrize("variant", ["attended", "relative"])
def test_gradient_check_rejects_scaled_component(variant):
    state, features, labels = _state(variant, seed=1, dtype=np.float64)
    _, grads = model.loss_and_grads(state, features, labels)
    direction = {k: np.random.default_rng(2).standard_normal(p.shape)
                 for k, p in state.params.items()}
    fd = reference.directional_derivative(state.params, variant, state.kernel_length,
                                          features, labels, direction)
    assert checks.gradient(checks.directional(grads, direction), fd, "ok") is None
    flat = grads["filter_centers"].reshape(-1)
    flat[np.argmax(np.abs(flat))] *= 1.01
    assert checks.gradient(checks.directional(grads, direction), fd, "scaled") is not None


def test_losses_check():
    assert checks.losses(np.linspace(0.7, 0.2, 40), "ok") is None
    assert checks.losses(np.linspace(0.2, 0.7, 40), "rising") is not None
    nan = np.linspace(0.7, 0.2, 40)
    nan[5] = np.nan
    assert checks.losses(nan, "nan") is not None


def test_identical_check():
    assert checks.identical(["a", "a", "a"], "ok") is None
    assert checks.identical([b"x", b"x", b"y"], "differs") is not None


def test_span_self_times_and_unattributed_time_add_up():
    module = types.ModuleType("bench_fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) + module.inner(x)

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer(targets=((module.__name__, "outer", "a"),
                                 (module.__name__, "inner", "a.inner")))
        with tracer.region():
            assert module.outer(1) == 4
            module.inner(0)
        assert module.outer is outer and module.inner is inner
    finally:
        del sys.modules[module.__name__]
    labels = [s[0] for s in tracer.spans]
    assert labels == ["a", "a.inner", "a.inner", "a.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert tracer.roots() == [0, 0, 0, 3]
    own = tracer.self_times()
    durations = [end - start for _, start, end, _ in tracer.spans]
    assert own[0] == pytest.approx(durations[0] - durations[1] - durations[2])
    assert sum(own) + tracer.unattributed_seconds() == pytest.approx(tracer.region_seconds)


def test_run_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-attended", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
