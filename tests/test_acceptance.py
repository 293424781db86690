"""Acceptance suite: every criterion as one test printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 6-8 train real
models on the default synthetic benchmark (seeded, 200 train / 100 test) and
dominate the runtime; everything they need is computed once per session, in
two spawned worker processes with one BLAS thread each.

Criterion 8 is one-sided: relative must not trail attended by more than 0.05
mAP, and it may lead by any margin. Attended scores each frame from its own
feature plus a per-class constant for the whole video, so it cannot average
out per-frame noise; relative's length-L kernels also average neighbouring
frames, which smooths that noise, so on the default benchmark relative
outscores attended by a wide margin.
"""

import math
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    ap_oracle,
    pool_attended_oracle,
    pool_relative_oracle,
    pool_single_oracle,
    pyramid_oracle,
    rel_err,
)
from reports import mean_over
from superevents.data import (
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_features,
    load_labels,
    load_manifest,
    save_features,
    save_labels,
    save_manifest,
    split_manifest,
)
from superevents.evaluation import average_precision, evaluate
from superevents.filters import materialize_stack
from superevents.model import load_checkpoint, save_checkpoint
from superevents.pooling import (
    pool_attended,
    pool_baseline,
    pool_relative,
    pool_single,
    soft_attention,
)
from superevents.training import TrainConfig, gradcheck, train


DATASET_SEED = 2024
TRAIN_SEEDS = (1, 2, 3)
BENCH_ITERATIONS = 2000
RELATIVE_KERNEL = 101
AMBIGUOUS_CLASSES = [4, 5, 6, 7]

def bench_train_config(variant, seed):
    return TrainConfig(
        lr=0.05,
        lr_decay_every=800,
        lr_decay_factor=0.1,
        iterations=BENCH_ITERATIONS,
        batch_size=32,
        dropout=0.4,
        num_filters=5,
        num_distributions=3,
        kernel_length=RELATIVE_KERNEL,
        seed=seed,
        variant=variant,
    )


def report(criterion, name, ok, detail=""):
    line = f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(f"\n{line}")
    assert ok, line


# longest first, so the pool never waits on one late slow run
BENCH_RUNS = [("relative", TRAIN_SEEDS[0])] + [
    (variant, seed) for variant in ("attended", "single", "mean", "baseline")
    for seed in TRAIN_SEEDS
]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bench_run(task):
    """Train and evaluate one benchmark model; module level so that spawned
    worker processes can import it."""
    root, variant, seed = task
    train_ds = load_dataset(os.path.join(root, "manifest_train.json"))
    test_ds = load_dataset(os.path.join(root, "manifest_test.json"))
    t0 = time.time()
    state, _ = train(bench_train_config(variant, seed), train_ds)
    elapsed = time.time() - t0
    return (variant, seed), evaluate(state, test_ds), elapsed


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Default synthetic benchmark plus every training run criteria 6-8 share.

    Runs are independent and seeded, so they train in parallel worker
    processes; each timing is one run's own wall time in its worker.
    """
    root = tmp_path_factory.mktemp("acceptance_bench")
    cfg = SynthConfig(num_videos=300, seed=DATASET_SEED)
    generate_synthetic(cfg, root)
    manifest = load_manifest(root / "manifest.json")
    train_m, test_m = split_manifest(manifest, 200)
    save_manifest(train_m, root / "manifest_train.json")
    save_manifest(test_m, root / "manifest_test.json")

    runs = {}
    timings = {}
    workers = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    tasks = [(str(root), variant, seed) for variant, seed in BENCH_RUNS]
    with pytest.MonkeyPatch.context() as mp:
        # read by BLAS when a spawned worker loads numpy; the per-video GEMMs
        # are too small for a second BLAS thread to pay, so CPUs go to workers
        for name in BLAS_THREAD_VARS:
            mp.setenv(name, "1")
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            for key, rep, elapsed in pool.imap_unordered(_bench_run, tasks):
                runs[key] = rep
                timings[key] = elapsed

    return {"runs": runs, "timings": timings}


def random_stack(rng, m, T, n, dtype=np.float64):
    return materialize_stack(rng.normal(size=(m, n)).astype(dtype),
                             rng.normal(size=(m, n)).astype(dtype), T)[0]


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = {}
    for variant in ("attended", "relative"):
        for i in range(20):
            rep = gradcheck(TrainConfig(variant=variant), instance_seed=1000 + i)
            for group, err in rep.max_rel_err.items():
                worst[group] = max(worst.get(group, 0.0), err)
            assert rep.passed, rep.format()
    elapsed = time.time() - t0
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 30
    detail = (f"20 instances x (attended, relative), worst group err "
              f"{max(worst.values()):.2e}, {elapsed:.1f}s")
    report(1, "gradient correctness", ok, detail)


def test_criterion_2_filter_invariants():
    rng = np.random.default_rng(7)
    t0 = time.time()
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        T = int(rng.integers(1, 240))
        params = rng.normal(0, 3, n), rng.normal(0, 3, n)
        values, cache = materialize_stack(*params, T)
        centers, scales = cache["frame_centers"], cache["scales"]
        sums = values.sum(axis=0)
        worst_sum = max(worst_sum, float(np.max(np.abs(sums - 1.0))))
        assert np.all(values > 0)
        assert np.all(centers >= 0) and np.all(centers <= T - 1)
        assert np.all(scales > 1 / math.e) and np.all(scales <= math.e)
    elapsed = time.time() - t0
    ok = worst_sum <= 1e-6 and elapsed < 5
    report(2, "filter invariants", ok,
           f"1000 draws, worst column-sum dev {worst_sum:.2e}, {elapsed:.2f}s")


def test_criterion_3_attention_invariants():
    rng = np.random.default_rng(8)
    # rows on the simplex
    logits = rng.normal(0, 4, (64, 6))
    att = soft_attention(logits)
    simplex_dev = float(np.max(np.abs(att.sum(axis=1) - 1.0)))
    assert np.all(att > 0)

    # bitwise shift invariance: integer rows keep row + 7.3 in 7.3's binade,
    # so the shifted additions are exact and max-subtraction undoes them
    int_logits = rng.integers(-3, 1, (32, 5)).astype(np.float64)
    bitwise = np.array_equal(soft_attention(int_logits),
                             soft_attention(int_logits + 7.3))

    # saturated rows select a single filter
    sat = np.full((4, 5), 0.0)
    for c in range(4):
        sat[c, c] = 40.0
    a = soft_attention(sat)
    sat_dev = float(np.max(np.abs(a - np.eye(4, 5, k=0) - np.zeros((4, 5)))[np.eye(4, 5) == 1]))
    off = float(np.max(a[np.eye(4, 5) == 0]))
    ok = simplex_dev <= 1e-6 and bitwise and max(sat_dev, off) <= 1e-9
    report(3, "attention invariants", ok,
           f"simplex dev {simplex_dev:.2e}, bitwise shift {bitwise}, "
           f"saturation dev {max(sat_dev, off):.2e}")


def test_criterion_4_pooling_oracles():
    rng = np.random.default_rng(9)
    worst = {"single": 0.0, "attended": 0.0, "relative": 0.0, "baseline": 0.0}
    for _ in range(100):
        T = int(rng.integers(1, 8))
        N, D, M, C = (int(rng.integers(1, 4)) for _ in range(4))
        L = int(rng.choice([1, 3, 5]))
        v = rng.normal(size=(T, D))
        stack = random_stack(rng, M, T, N)
        logits = rng.normal(size=(C, M))

        worst["single"] = max(
            worst["single"],
            rel_err(pool_single(stack[0], v), pool_single_oracle(stack[0], v)),
            rel_err(pool_single(stack, v), [pool_single_oracle(f, v) for f in stack]),
        )
        worst["attended"] = max(
            worst["attended"],
            rel_err(pool_attended(stack, logits, v), pool_attended_oracle(stack, logits, v)),
        )
        kstack = random_stack(rng, M, L, N)
        w = rng.normal(size=(C, N * D))
        worst["relative"] = max(
            worst["relative"],
            rel_err(pool_relative(kstack, logits, w, v),
                    np.einsum("tck,ck->tc", pool_relative_oracle(kstack, logits, v, L), w)),
        )
        worst["baseline"] = max(
            worst["baseline"],
            rel_err(pool_baseline("pyramid3", v), pyramid_oracle(v)),
            rel_err(pool_baseline("mean", v), v.mean(axis=0)),
            rel_err(pool_baseline("max", v), v.max(axis=0)),
        )
    ok = all(err < 1e-9 for err in worst.values())
    report(4, "pooling oracles", ok,
           "worst rel err " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_5_ap_oracle():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        F = int(rng.integers(1, 51))
        scores = rng.random(F)
        labels = rng.integers(0, 2, F)
        if labels.sum() == 0:
            labels[int(rng.integers(F))] = 1
        worst = max(worst, abs(average_precision(scores, labels)
                               - ap_oracle(list(scores), list(labels))))
    # random ranking: AP approaches the positive rate
    F = 10_000
    max_gap = 0.0
    for rate in (0.1, 0.3, 0.5):
        labels = (rng.random(F) < rate).astype(int)
        ap = average_precision(rng.random(F), labels)
        max_gap = max(max_gap, abs(ap - labels.mean()))
    ok = worst < 1e-9 and max_gap < 0.05
    report(5, "AP oracle", ok,
           f"worst oracle dev {worst:.1e}, random-ranking gap {max_gap:.3f}")


def _mean_map(bench, variant, ambiguous=False):
    vals = []
    for seed in TRAIN_SEEDS:
        rep = bench["runs"][(variant, seed)]
        vals.append(mean_over(rep, AMBIGUOUS_CLASSES) if ambiguous else rep.mean_ap)
    return float(np.mean(vals))


def test_criterion_6_context_benefit(bench):
    overall_gap = _mean_map(bench, "attended") - _mean_map(bench, "baseline")
    amb_gap = (_mean_map(bench, "attended", ambiguous=True)
               - _mean_map(bench, "baseline", ambiguous=True))
    runtime = sum(bench["timings"][(v, s)] for v in ("baseline", "attended")
                  for s in TRAIN_SEEDS)
    ok = overall_gap >= 0.10 and amb_gap >= 0.20 and runtime < 600
    report(6, "context benefit", ok,
           f"overall gap {overall_gap:+.4f} (need >= 0.10), ambiguous gap "
           f"{amb_gap:+.4f} (need >= 0.20), 3-seed runtime {runtime:.0f}s")


def test_criterion_7_ablation_ordering(bench):
    satisfied = 0
    chains = []
    for seed in TRAIN_SEEDS:
        att, single, mean_, base = (bench["runs"][(v, seed)].mean_ap
                                    for v in ("attended", "single", "mean", "baseline"))
        ok = (att >= single - 0.01) and (single >= mean_ - 0.01) and (mean_ >= base - 0.01)
        satisfied += ok
        chains.append(f"seed{seed}: {att:.3f}/{single:.3f}/{mean_:.3f}/{base:.3f}"
                      f"{'' if ok else ' (violated)'}")
    report(7, "ablation ordering", satisfied >= 2,
           f"attended/single/mean/baseline per seed: " + "; ".join(chains))


def test_criterion_8_relative_variant(bench):
    # L = 1 kernels reproduce the frame features exactly: context weights
    # that read feature d of block n give feature d's column for every class
    rng = np.random.default_rng(11)
    v = rng.normal(size=(9, 4))
    one = random_stack(rng, 1, 1, 3)
    exact = True
    for block in range(3 * 4):
        w = np.zeros((2, 3 * 4))
        w[:, block] = 1.0
        out = pool_relative(one, np.zeros((2, 1)), w, v)
        exact &= all(np.array_equal(out[:, c], v[:, block % 4]) for c in range(2))

    rel = bench["runs"][("relative", TRAIN_SEEDS[0])]
    att = bench["runs"][("attended", TRAIN_SEEDS[0])]
    base_classes = [c for c in att.evaluated_classes if c not in AMBIGUOUS_CLASSES]
    gap = rel.mean_ap - att.mean_ap
    base_gap = mean_over(rel, base_classes) - mean_over(att, base_classes)
    amb_gap = mean_over(rel, AMBIGUOUS_CLASSES) - mean_over(att, AMBIGUOUS_CLASSES)
    # one-sided: relative may beat attended by any margin (its kernels smooth
    # per-frame noise), but must not trail it by more than 0.05
    ok = exact and rel.mean_ap >= att.mean_ap - 0.05
    report(8, "relative variant sanity", ok,
           f"L=1 identity exact {exact}; relative mAP {rel.mean_ap:.4f} vs attended "
           f"{att.mean_ap:.4f} (gap {gap:+.4f}, need >= -0.05; base-class gap "
           f"{base_gap:+.4f}, ambiguous gap {amb_gap:+.4f})")


def test_criterion_9_determinism_and_persistence(tmp_path):
    generate_synthetic(SynthConfig(num_videos=6, t_range=(40, 70), seed=55),
                       tmp_path / "ds")
    train_ds = load_dataset(tmp_path / "ds" / "manifest.json")
    cfg = TrainConfig(lr=0.02, lr_decay_every=20, iterations=16, batch_size=4,
                      dropout=0.5, num_filters=2, num_distributions=2, seed=77,
                      variant="attended")

    # same seed/config/dataset -> bitwise-identical checkpoint files
    a, _ = train(cfg, train_ds)
    b, _ = train(cfg, train_ds)
    save_checkpoint(a, tmp_path / "a.ckpt")
    save_checkpoint(b, tmp_path / "b.ckpt")
    identical = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    # save -> load -> resume matches the uninterrupted run bitwise
    half, _ = train(replace(cfg, iterations=8), train_ds)
    save_checkpoint(half, tmp_path / "half.ckpt")
    resumed, _ = train(cfg, train_ds, state=load_checkpoint(tmp_path / "half.ckpt"))
    resume_ok = all(
        a.params[k].tobytes() == resumed.params[k].tobytes() for k in a.params
    ) and all(
        a.adam_m[k].tobytes() == resumed.adam_m[k].tobytes() for k in a.adam_m
    )

    # feature/label files round-trip bitwise
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(23, 6)).astype(np.float32)
    labs = rng.integers(0, 2, (23, 4)).astype(np.uint8)
    save_features(tmp_path / "f.tsfv", feats)
    save_labels(tmp_path / "l.tsfl", labs)
    roundtrip = (load_features(tmp_path / "f.tsfv").tobytes() == feats.tobytes()
                 and load_labels(tmp_path / "l.tsfl").tobytes() == labs.tobytes())

    ok = identical and resume_ok and roundtrip
    report(9, "determinism and persistence", ok,
           f"identical checkpoints {identical}, resume bitwise {resume_ok}, "
           f"file round-trip {roundtrip}")
