"""The benchmark's workloads: set-up, timed phase, correctness checks and
metrics.

One process and one caller: every training iteration and every eval call
starts when the previous one has returned (a closed loop). The timed phase
repeats whole rounds of the same operations until ``seconds`` of round time
have passed:

* ``train-attended`` / ``train-relative``: one ``train()`` on the acceptance
  recipe, then ``EVAL_REPEATS`` ``superevents eval --json`` calls
  (``cli.main``) on the test split with the checkpoint that training saved.
* ``eval-long``: one ``superevents eval --json`` call per checkpoint
  (attended, relative) over long videos made in set-up.

Checks run after the timed phase, so their time and memory are not
measured.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import superevents.cli as cli
from superevents import data, model, training
from superevents.data import DatasetManifest, SynthConfig, VideoEntry

import checks
import reference
from clock import Clock
from spans import Tracer

WORKLOADS = ("train-attended", "train-relative", "eval-long")
DATASET_SEED = 2024  # the acceptance benchmark's dataset
CHECKPOINT_SEED = 1  # eval-long's checkpoints are the same for every --seed
# eval calls after each training round: a test-split call takes 35-100 ms,
# so a few calls per run leave eval throughput to transient load
EVAL_REPEATS = 10

END_TO_END = {
    "setup_s": "s",
    "train_iter_ms_p50": "ms",
    "train_iter_ms_p90": "ms",
    "train_frames_per_s": "frames/s",
    "eval_frames_per_s": "frames/s",
    "test_map": "mAP",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "filters.ms_per_iter": "ms",
    "filters.calls_per_video": "count",
    "pooling.ms_per_iter": "ms",
    "detector.ms_per_iter": "ms",
    "model.self_ms_per_iter": "ms",
    "model.calls_per_iter": "count",
    "training.self_ms_per_iter": "ms",
    "training.adam_ms_per_iter": "ms",
    "cli.self_ms_per_call": "ms",
    "data.load_ms_per_call": "ms",
    "model.checkpoint_load_ms_per_call": "ms",
    "model.self_ms_per_call": "ms",
    "filters.ms_per_call": "ms",
    "pooling.ms_per_call": "ms",
    "detector.ms_per_call": "ms",
    "evaluation.ap_ms_per_call": "ms",
    "evaluation.self_ms_per_call": "ms",
    "data.synth_s": "s",
    "data.load_s": "s",
    "training.setup_train_s": "s",
    "model.checkpoint_save_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "machine.slowdown": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    videos: int = 300  # standard dataset; the first train_videos train
    train_videos: int = 200
    setups: int = 3  # set-ups per run; setup_s is their median
    # train workloads' set-up training; it also keeps set-up time from being
    # mostly dataset synthesis, whose file-system work took 0.1 s in some runs
    # and 0.4 s in others at the same machine load
    warmup_iterations: int = 20
    # iterations per timed round: enough that test mAP varies by a few
    # percent between training seeds
    round_iterations: dict = field(default_factory=lambda: {"attended": 600,
                                                            "relative": 120})
    checkpoint_iterations: dict = field(default_factory=lambda: {"attended": 60,
                                                                 "relative": 20})
    long_videos: int = 60
    long_frames: tuple = (1000, 3000)
    pool_videos: int = 600  # unseen standard videos the long videos are cut from
    sample_videos: int = 2  # videos per model in the forward-pass check


def recipe(variant: str, iterations: int, seed: int) -> training.TrainConfig:
    """The acceptance recipe (tests/test_acceptance.py) at another length."""
    return training.TrainConfig(
        lr=0.05, lr_decay_every=800, lr_decay_factor=0.1, iterations=iterations,
        batch_size=32, dropout=0.4, num_filters=5, num_distributions=3,
        kernel_length=101, seed=seed, variant=variant,
    )


# Intervals are (start, end) pairs on the run's Clock.

@dataclass
class Training:
    variant: str
    state: model.ModelState
    losses: list
    iterations: list  # one interval per iteration
    frames: int


@dataclass
class Setup:
    phases: dict  # "synth", "load", "train", "save" -> interval
    train_set: data.Dataset
    eval_manifest: Path
    eval_frames: int
    trainings: dict  # variant -> Training
    checkpoints: dict  # variant -> Path


@dataclass
class EvalCall:
    variant: str
    text: str
    interval: tuple


@dataclass
class Round:
    index: int
    training: Training
    checkpoint: Path
    calls: list  # EvalCall of each eval call that succeeded


class FrameCounter:
    """Counts the frames ``train`` passes to ``loss_and_grads``: one Python
    call per video, installed for the whole run in both modes."""

    def __init__(self):
        self.frames = 0

    @contextmanager
    def installed(self):
        original = training.loss_and_grads

        def counted(state, features, labels):
            self.frames += features.shape[0]
            return original(state, features, labels)

        training.loss_and_grads = counted
        try:
            yield
        finally:
            training.loss_and_grads = original


@contextmanager
def sampled_file_io(clock: Clock):
    """Take a due calibration sample before each per-video feature read or
    write: the generator and the loader look these up in ``data`` per video,
    so set-up phases and eval calls are calibrated from inside as well as at
    their ends."""
    originals = {name: getattr(data, name) for name in ("save_features", "load_features")}

    def sampled(fn):
        def call(*args, **kwargs):
            clock.sample(due_only=True)
            return fn(*args, **kwargs)
        return call

    for name, fn in originals.items():
        setattr(data, name, sampled(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(data, name, fn)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path, sizes: Sizes):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.variants = (("attended", "relative") if workload == "eval-long"
                         else (workload.split("-", 1)[1],))
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = Path(work_dir)
        self.sizes = sizes
        self.tracer = Tracer()
        self.counter = FrameCounter()
        self.clock = Clock(self.variants)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds: list[Round] = []
        self.calls: dict[str, list[EvalCall]] = {v: [] for v in self.variants}
        self.round_intervals: dict[bool, list] = {False: [], True: []}  # by traced
        self.traced_intervals: list[tuple] = []
        self.measured: dict | None = None  # unscaled end-to-end values

    @contextmanager
    def traced(self, on: bool):
        """Trace the block if ``on``; the clock takes no calibration samples
        inside a traced block, so spans hold only the program's time."""
        if not on:
            yield
            return
        self.clock.enabled = False
        start = self.clock.now()
        try:
            with self.tracer.region():
                yield
        finally:
            self.clock.enabled = True
            self.traced_intervals.append((start, self.clock.now()))

    # -- set-up ----------------------------------------------------------

    def _standard_set(self, out: Path):
        manifest = data.generate_synthetic(
            SynthConfig(num_videos=self.sizes.videos, seed=DATASET_SEED), out)
        train_m, test_m = data.split_manifest(manifest, self.sizes.train_videos)
        data.save_manifest(train_m, out / "manifest_train.json")
        data.save_manifest(test_m, out / "manifest_test.json")
        return out / "manifest_train.json", out / "manifest_test.json", test_m

    def _long_set(self, out: Path):
        """Standard-split training manifest plus long videos cut from
        standard videos that neither split holds, chosen by the seed.

        Long videos reuse the standard generator's class emissions, which
        depend on its seed, so the trained checkpoints can recognise them."""
        s = self.sizes
        manifest = data.generate_synthetic(
            SynthConfig(num_videos=s.videos + s.pool_videos, seed=DATASET_SEED),
            out / "pool")
        train_m = DatasetManifest(manifest.class_names, manifest.feature_dim,
                                  manifest.videos[:s.train_videos])
        pool_m = DatasetManifest(manifest.class_names, manifest.feature_dim,
                                 manifest.videos[s.videos:])
        data.save_manifest(train_m, out / "pool" / "manifest_train.json")
        data.save_manifest(pool_m, out / "pool" / "manifest_pool.json")
        pool = data.load_dataset(out / "pool" / "manifest_pool.json").videos

        rng = np.random.default_rng(self.seed)
        (out / "long" / "features").mkdir(parents=True)
        (out / "long" / "labels").mkdir()
        entries = []
        for i in range(s.long_videos):
            length = int(rng.integers(s.long_frames[0], s.long_frames[1] + 1))
            parts, frames = [], 0
            while frames < length:
                parts.append(pool[int(rng.integers(len(pool)))])
                frames += parts[-1].features.shape[0]
            feats = np.concatenate([p.features for p in parts])[:length]
            labs = np.concatenate([p.labels for p in parts])[:length]
            entry = VideoEntry(f"long{i:03d}", f"features/long{i:03d}.tsfv",
                               f"labels/long{i:03d}.tsfl", length)
            data.save_features(out / "long" / entry.feature_path, feats)
            data.save_labels(out / "long" / entry.label_path, labs)
            entries.append(entry)
        long_m = DatasetManifest(manifest.class_names, manifest.feature_dim, entries)
        data.save_manifest(long_m, out / "long" / "manifest.json")
        return out / "pool" / "manifest_train.json", out / "long" / "manifest.json", long_m

    def setup(self, index: int) -> Setup:
        out = self.work_dir / f"setup{index}"
        now, sample = self.clock.now, self.clock.sample
        with self.traced(self.trace and index == self.sizes.setups - 1):
            t0 = now()
            make = self._long_set if self.workload == "eval-long" else self._standard_set
            train_path, eval_path, eval_m = make(out)
            t1 = now()
            sample()
            train_set = data.load_dataset(train_path)
            t2 = now()
            sample()
            trainings = {}
            for variant in self.variants:
                if self.workload == "eval-long":
                    config = recipe(variant, self.sizes.checkpoint_iterations[variant],
                                    CHECKPOINT_SEED)
                else:
                    config = recipe(variant, self.sizes.warmup_iterations, self.seed)
                trainings[variant] = self.train(config, train_set)
            t3 = now()
            sample()
            checkpoints = {}
            for variant, result in trainings.items():
                checkpoints[variant] = out / f"{variant}.ckpt"
                model.save_checkpoint(result.state, checkpoints[variant])
            t4 = now()
            sample()
        phases = {"synth": (t0, t1), "load": (t1, t2), "train": (t2, t3), "save": (t3, t4)}
        return Setup(phases, train_set, eval_path,
                     sum(v.length for v in eval_m.videos), trainings, checkpoints)

    # -- operations --------------------------------------------------------

    def train(self, config: training.TrainConfig, dataset: data.Dataset) -> Training:
        frames = self.counter.frames
        stamps = [self.clock.now()]

        def on_iteration(*_):
            stamps.append(self.clock.now())
            self.clock.sample(due_only=True)

        state, losses = training.train(config, dataset, on_iteration=on_iteration)
        return Training(config.variant, state, losses, list(zip(stamps[:-1], stamps[1:])),
                        self.counter.frames - frames)

    def eval_call(self, manifest: Path, checkpoint: Path, variant: str) -> EvalCall | None:
        self.attempted += 1
        out = io.StringIO()
        code = None
        t0 = self.clock.now()
        try:
            with redirect_stdout(out):
                code = cli.main(["eval", "--data", str(manifest), "--model",
                                 str(checkpoint), "--json"])
        except Exception:
            traceback.print_exc()
        t1 = self.clock.now()
        for _ in range(2):
            self.clock.sample()
        if code != 0:
            self.failed += 1
            return None
        return EvalCall(variant, out.getvalue(), (t0, t1))

    def round(self, setup: Setup, index: int, traced: bool) -> float:
        with self.traced(traced):
            t0 = self.clock.now()
            if self.workload == "eval-long":
                for variant in self.variants:
                    call = self.eval_call(setup.eval_manifest, setup.checkpoints[variant],
                                          variant)
                    if call is not None:
                        self.calls[variant].append(call)
            else:
                variant = self.variants[0]
                config = recipe(variant, self.sizes.round_iterations[variant],
                                self.seed * 1000 + index)
                self.attempted += 1
                try:
                    result = self.train(config, setup.train_set)
                except Exception:
                    traceback.print_exc()
                    # the train call and the eval calls that cannot follow
                    self.attempted += EVAL_REPEATS
                    self.failed += 1 + EVAL_REPEATS
                else:
                    path = self.work_dir / f"round{index}{'t' if traced else ''}.ckpt"
                    model.save_checkpoint(result.state, path)
                    calls = [self.eval_call(setup.eval_manifest, path, variant)
                             for _ in range(EVAL_REPEATS)]
                    self.rounds.append(Round(index, result, path,
                                             [c for c in calls if c is not None]))
            t1 = self.clock.now()
        self.round_intervals[traced].append((t0, t1))
        return t1 - t0

    def timed_phase(self, setup: Setup) -> None:
        """Whole rounds until ``seconds`` of round time; a traced run pairs
        each round with a traced copy of it, alternating which goes first."""
        elapsed = 0.0
        index = 0
        while index == 0 or elapsed < self.seconds:
            order = (False,)
            if self.trace:
                order = (False, True) if index % 2 == 0 else (True, False)
            for traced in order:
                elapsed += self.round(setup, index, traced)
            index += 1

    # -- checks ------------------------------------------------------------

    def expect(self, failure: str | None) -> None:
        if failure is not None:
            self.failures.append(failure)

    def check_model(self, state, call: EvalCall, eval_set: data.Dataset, what: str):
        """Forward pass on sampled videos, AP and mAP from reference scores
        of every video, and mAP above chance."""
        def ref(features):
            return reference.probabilities(state.params, state.variant,
                                           state.kernel_length, features)

        rng = np.random.default_rng(self.seed)
        sample = rng.choice(len(eval_set.videos),
                            size=min(self.sizes.sample_videos, len(eval_set.videos)),
                            replace=False)
        for i in sample:
            video = eval_set.videos[int(i)]
            program = model.predict_probabilities(state, video.features)
            self.expect(checks.forward(program, ref(video.features),
                                       f"{what}, video {video.id}"))
        scores = np.concatenate([ref(v.features) for v in eval_set.videos])
        labels = np.concatenate([v.labels for v in eval_set.videos])
        report = json.loads(call.text)
        self.expect(checks.average_precisions(report, scores, labels, what))
        self.expect(checks.above_chance(report["mean_ap"], labels, what))

    def check_round_trip(self, path: Path, what: str):
        again = self.work_dir / "round_trip.ckpt"
        model.save_checkpoint(model.load_checkpoint(path), again)
        self.expect(checks.identical([path.read_bytes(), again.read_bytes()],
                                     f"{what}: checkpoint save -> load -> save"))

    def check_gradient(self, state, train_set: data.Dataset, what: str):
        """Float64 ``loss_and_grads`` at the trained parameters on one video,
        along one random direction, against a central difference of the
        reference loss."""
        rng = np.random.default_rng(self.seed)
        video = train_set.videos[int(rng.integers(len(train_set.videos)))]
        params = {k: v.astype(np.float64) for k, v in state.params.items()}
        features = video.features.astype(np.float64)
        _, grads = model.loss_and_grads(replace(state, params=params), features,
                                        video.labels)
        direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        # |tanh(width)| has a kink at 0, where trained widths gather because
        # it gives the widest scale; a difference across it is no derivative
        direction["filter_widths"][np.abs(params["filter_widths"]) < 1e-3] = 0.0
        fd = reference.directional_derivative(params, state.variant, state.kernel_length,
                                              features, video.labels, direction)
        self.expect(checks.gradient(checks.directional(grads, direction), fd,
                                    f"{what}: gradient on video {video.id}"))

    def check(self, setups: list[Setup]) -> None:
        last = setups[-1]
        eval_set = data.load_dataset(last.eval_manifest)
        if self.workload != "eval-long":
            for r in self.rounds:
                what = f"round {r.index}"
                self.expect(checks.losses(r.training.losses, what))
                if r.calls:
                    self.expect(checks.identical([c.text for c in r.calls],
                                                 f"{what}: eval --json of repeated calls"))
                    self.check_model(r.training.state, r.calls[0], eval_set, what)
                self.check_round_trip(r.checkpoint, what)
                self.check_gradient(r.training.state, last.train_set, what)
            return
        for variant in self.variants:
            what = f"{variant} checkpoint"
            self.expect(checks.identical([s.checkpoints[variant].read_bytes()
                                          for s in setups],
                                         f"{what}: bytes from {len(setups)} set-ups"))
            self.expect(checks.losses(last.trainings[variant].losses, what))
            self.check_round_trip(last.checkpoints[variant], what)
            state = model.load_checkpoint(last.checkpoints[variant])
            self.check_gradient(state, last.train_set, what)
            calls = self.calls[variant]
            if calls:
                self.expect(checks.identical([c.text for c in calls],
                                             f"{what}: eval --json of repeated calls"))
                self.check_model(state, calls[0], eval_set, what)

    # -- metrics -----------------------------------------------------------

    def _seconds(self, interval, variants, scaled: bool) -> float:
        """Length of a clock interval that ran ``variants``; with ``scaled``,
        at reference speed."""
        start, end = interval
        return self.clock.at_reference(interval, variants) if scaled else end - start

    def end_to_end(self, setups: list[Setup], peak_rss_mb: float, scaled: bool) -> dict:
        """End-to-end values; with ``scaled``, times and rates at the
        clock's reference speed."""
        if self.workload == "eval-long":
            trainings = [t for s in setups for t in s.trainings.values()]
            calls = [c for cs in self.calls.values() for c in cs]
            maps = [json.loads(cs[0].text)["mean_ap"] for cs in self.calls.values() if cs]
        else:
            trainings = [r.training for r in self.rounds]
            calls = [c for r in self.rounds for c in r.calls]
            maps = [json.loads(r.calls[0].text)["mean_ap"] for r in self.rounds if r.calls]
        iteration_s = np.array([self._seconds(iv, [t.variant], scaled)
                                for t in trainings for iv in t.iterations])
        call_s = sum(self._seconds(c.interval, [c.variant], scaled) for c in calls)
        return {
            "setup_s": statistics.median(
                sum(self._seconds(iv, self.variants, scaled) for iv in s.phases.values())
                for s in setups),
            "train_iter_ms_p50": 1000.0 * float(np.percentile(iteration_s, 50)),
            "train_iter_ms_p90": 1000.0 * float(np.percentile(iteration_s, 90)),
            "train_frames_per_s": sum(t.frames for t in trainings) / iteration_s.sum(),
            "eval_frames_per_s": setups[-1].eval_frames * len(calls) / call_s,
            "test_map": float(np.mean(maps)),
            "peak_rss_mb": peak_rss_mb,
        }

    def _round_seconds(self, traced: bool) -> float:
        """Raw wall time of the traced or untraced rounds: no calibration
        samples are taken inside traced rounds, so none can scale them."""
        return sum(end - start for start, end in self.round_intervals[traced])

    def per_layer(self, setups: list[Setup]) -> dict:
        """Per-layer values from the spans, at the reference speed of the
        calibration samples next to the traced blocks."""
        t = self.tracer
        spans = t.spans
        own = t.self_times()
        roots = t.roots()
        phase = [spans[r][0] for r in roots]  # "training" or "cli" for the two phases
        sums: dict = {}
        counts: dict = {}
        for (label, *_), seconds, ph in zip(spans, own, phase):
            sums[ph, label] = sums.get((ph, label), 0.0) + seconds
            counts[ph, label] = counts.get((ph, label), 0) + 1
        iterations = counts.get(("training", "training.adam"), 0)
        calls = sum(1 for label, _, _, parent in spans if label == "cli" and parent < 0)
        scale = self.clock.scale(self.variants, self.traced_intervals)

        def per_iter(label):
            return 1000.0 * scale * sums.get(("training", label), 0.0) / iterations

        def per_call(label):
            return 1000.0 * scale * sums.get(("cli", label), 0.0) / calls

        def setup_median(name):
            return statistics.median(self._seconds(s.phases[name], self.variants, True)
                                     for s in setups)

        unattributed = t.unattributed_seconds()
        total = sum(own) + unattributed
        if abs(total - t.region_seconds) > 1e-6 * t.region_seconds:
            self.failures.append(f"trace: self times + unattributed {total:.6f} s != "
                                 f"traced wall {t.region_seconds:.6f} s")
        return {
            "filters.ms_per_iter": per_iter("filters"),
            "filters.calls_per_video": (counts.get(("training", "filters"), 0)
                                        / counts[("training", "model")]),
            "pooling.ms_per_iter": per_iter("pooling"),
            "detector.ms_per_iter": per_iter("detector"),
            "model.self_ms_per_iter": per_iter("model"),
            "model.calls_per_iter": counts[("training", "model")] / iterations,
            "training.self_ms_per_iter": per_iter("training"),
            "training.adam_ms_per_iter": per_iter("training.adam"),
            "cli.self_ms_per_call": per_call("cli"),
            "data.load_ms_per_call": per_call("data.load"),
            "model.checkpoint_load_ms_per_call": per_call("model.checkpoint_load"),
            "model.self_ms_per_call": per_call("model"),
            "filters.ms_per_call": per_call("filters"),
            "pooling.ms_per_call": per_call("pooling"),
            "detector.ms_per_call": per_call("detector"),
            "evaluation.ap_ms_per_call": per_call("evaluation.ap"),
            "evaluation.self_ms_per_call": per_call("evaluation"),
            "data.synth_s": setup_median("synth"),
            "data.load_s": setup_median("load"),
            "training.setup_train_s": setup_median("train"),
            "model.checkpoint_save_ms": 1000.0 * setup_median("save") / len(self.variants),
            "trace.overhead_pct": 100.0 * (self._round_seconds(True)
                                           / self._round_seconds(False) - 1.0),
            "trace.unattributed_pct": 100.0 * unattributed / t.region_seconds,
            "machine.slowdown": 1.0 / self.clock.scale(self.variants),
        }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work_dir,
                 sizes: Sizes = Sizes(), trace_path=None):
    """Set up, run the timed phase and check every output; returns the
    result object the benchmark prints and the ``Run``, which holds the
    failed checks, the clock and the unscaled measurements."""
    run = Run(workload, seed, seconds, trace, work_dir, sizes)
    with run.counter.installed(), sampled_file_io(run.clock):
        setups = [run.setup(i) for i in range(sizes.setups)]
        run.timed_phase(setups[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check(setups)
    if trace:
        values, units = run.per_layer(setups), PER_LAYER
        if trace_path is not None:
            run.tracer.write(trace_path, workload=workload, seed=seed)
    else:
        values, units = run.end_to_end(setups, peak_rss_mb, scaled=True), END_TO_END
        run.measured = run.end_to_end(setups, peak_rss_mb, scaled=False)
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    return result, run
