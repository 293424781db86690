import json
import shutil
import struct
from dataclasses import asdict

import numpy as np
import pytest

from superevents.cli import main
from superevents.data import (SynthConfig, load_dataset, load_features, load_manifest,
                              save_features)
from superevents.errors import FormatError, ModelDatasetMismatchError
from superevents.evaluation import evaluate
from superevents.model import load_checkpoint
from superevents.training import TrainConfig, train


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    cfg = {
        "num_videos": 8,
        "t_range": [30, 45],
        "feature_dim": 5,
        "base_classes": 2,
        "rules": [{"trigger_a": 0, "trigger_b": 1, "gap_range": [3, 6],
                   "band": [0.1, 0.6]}],
        "noise_sigma": 0.3,
        "event_len_range": [3, 6],
        "seed": 11,
    }
    cfg_path = out / "synth.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["synth", "--out", str(out / "data"), "--config", str(cfg_path),
                 "--split", "6"])
    assert code == 0
    return out / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_deterministic_and_stats(tmp_path, capsys):
    argv = lambda d: ["synth", "--out", str(d), "--videos", "4", "--dim", "4",
                      "--seed", "3"]
    code, out, _ = run(capsys, argv(tmp_path / "a"))
    assert code == 0
    assert "videos 4" in out
    assert "paired_rule_constraints" in out and "(100.0%)" in out
    code, _, _ = run(capsys, argv(tmp_path / "b"))
    assert code == 0
    for sub in ("manifest.json", "features/v00001.tsfv"):
        assert (tmp_path / "a" / sub).read_bytes() == (tmp_path / "b" / sub).read_bytes()


def test_synth_video_count_flag(tmp_path, capsys):
    code, out, _ = run(capsys, ["synth", "--out", str(tmp_path / "n10"),
                                "--videos", "10", "--dim", "4", "--seed", "1"])
    assert code == 0
    manifest = load_manifest(tmp_path / "n10" / "manifest.json")
    assert len(manifest.videos) == 10


def test_split_manifests(synth_dir):
    train = load_manifest(synth_dir / "manifest_train.json")
    test = load_manifest(synth_dir / "manifest_test.json")
    assert len(train.videos) == 6 and len(test.videos) == 2
    assert train.class_names == test.class_names


def test_train_single_iteration_and_eval_match(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    code, out, _ = run(capsys, [
        "train", "--data", str(synth_dir / "manifest_train.json"),
        "--variant", "attended", "--out", str(ckpt),
        "--iters", "1", "--batch", "2", "--lr", "0.01",
        "--filters", "2", "--gaussians", "2", "--dropout", "0", "--seed", "4",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "iter,lr,loss"
    data_rows = [l for l in lines if l and not l.startswith(("#", "iter"))]
    assert len(data_rows) == 1  # exactly one optimizer step
    it, lr, loss = data_rows[0].split(",")
    assert it == "1" and float(lr) == 0.01 and float(loss) > 0

    state = load_checkpoint(ckpt)
    assert state.iteration == 1

    reported = [l for l in lines if l.startswith("# final_train_map ")]
    assert len(reported) == 1
    train_map = float(reported[0].split()[-1])

    code, out, _ = run(capsys, ["eval", "--data", str(synth_dir / "manifest_train.json"),
                                "--model", str(ckpt), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["mean_ap"] == train_map  # same code path, exact match


def test_train_flag_defaults_are_the_config_defaults(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "defaults.ckpt"
    code, _, _ = run(capsys, ["train", "--data", str(synth_dir / "manifest_train.json"),
                              "--out", str(ckpt), "--iters", "1", "--quiet"])
    assert code == 0
    assert load_checkpoint(ckpt).config == asdict(TrainConfig(iterations=1))


def test_train_baseline_has_no_filter_params(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "b.ckpt"
    code, _, _ = run(capsys, [
        "train", "--data", str(synth_dir / "manifest_train.json"),
        "--variant", "baseline", "--out", str(ckpt), "--iters", "1",
        "--batch", "2", "--dropout", "0", "--quiet",
    ])
    assert code == 0
    state = load_checkpoint(ckpt)
    assert set(state.params) == {"classifier_weight", "classifier_bias"}


def test_train_resume(synth_dir, tmp_path, capsys):
    common = ["train", "--data", str(synth_dir / "manifest_train.json"),
              "--variant", "mean", "--batch", "2", "--lr", "0.01",
              "--dropout", "0.5", "--seed", "8", "--quiet"]
    full = tmp_path / "full.ckpt"
    code, _, _ = run(capsys, common + ["--out", str(full), "--iters", "4"])
    assert code == 0
    half = tmp_path / "half.ckpt"
    code, _, _ = run(capsys, common + ["--out", str(half), "--iters", "2"])
    assert code == 0
    resumed = tmp_path / "resumed.ckpt"
    code, _, _ = run(capsys, common + ["--out", str(resumed), "--iters", "4",
                                       "--resume", str(half)])
    assert code == 0
    a, b = load_checkpoint(full), load_checkpoint(resumed)
    for k in a.params:
        assert a.params[k].tobytes() == b.params[k].tobytes()
    # the config echo is the resumed run's, so the whole file matches too
    assert full.read_bytes() == resumed.read_bytes()


def test_eval_dimension_mismatch_is_io_error(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "wrongdim.ckpt"
    code, _, _ = run(capsys, [
        "synth", "--out", str(tmp_path / "otherdim"), "--videos", "2",
        "--dim", "7", "--seed", "0",
    ])
    assert code == 0
    code, _, _ = run(capsys, [
        "train", "--data", str(tmp_path / "otherdim" / "manifest.json"),
        "--variant", "baseline", "--out", str(ckpt), "--iters", "1",
        "--batch", "1", "--dropout", "0", "--quiet",
    ])
    assert code == 0
    code, _, err = run(capsys, ["eval", "--data", str(synth_dir / "manifest.json"),
                                "--model", str(ckpt)])
    assert code == 2
    assert "do not match" in err


def rewrite_header(src, dst, edit):
    """Copy checkpoint src to dst with edit(header_dict) applied to its JSON header."""
    raw = src.read_bytes()
    version, length = struct.unpack("<II", raw[4:12])
    header = json.loads(raw[12 : 12 + length])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:4] + struct.pack("<II", version, len(new)) + new
                    + raw[12 + length :])
    return header


@pytest.fixture
def baseline_ckpt(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "base.ckpt"
    code, _, _ = run(capsys, [
        "train", "--data", str(synth_dir / "manifest_train.json"),
        "--variant", "baseline", "--out", str(ckpt), "--iters", "1",
        "--batch", "1", "--dropout", "0", "--quiet",
    ])
    assert code == 0
    return ckpt


def test_eval_class_name_mismatch_is_io_error(synth_dir, baseline_ckpt, tmp_path,
                                              capsys):
    # same D and C, classes in another order: AP would be charged to the
    # wrong class names
    bad = tmp_path / "reordered.ckpt"
    names = rewrite_header(baseline_ckpt, bad,
                           lambda h: h["class_names"].reverse())["class_names"]
    dataset = load_dataset(synth_dir / "manifest.json")
    assert names == dataset.class_names[::-1]
    with pytest.raises(ModelDatasetMismatchError):
        evaluate(load_checkpoint(bad), dataset)
    code, _, err = run(capsys, ["eval", "--data", str(synth_dir / "manifest.json"),
                                "--model", str(bad)])
    assert code == 2 and str(names) in err and str(dataset.class_names) in err


def test_train_resume_class_name_mismatch_is_io_error(synth_dir, baseline_ckpt,
                                                    tmp_path, capsys):
    # same D and C, classes in another order: the resumed run would train each
    # class's weights on another class's labels
    doc = json.loads((synth_dir / "manifest_train.json").read_text())
    doc["class_names"].reverse()
    reordered = synth_dir / "manifest_train_reordered.json"
    reordered.write_text(json.dumps(doc))
    with pytest.raises(ModelDatasetMismatchError):
        train(TrainConfig(variant="baseline", iterations=2), load_dataset(reordered),
              state=load_checkpoint(baseline_ckpt))
    out = tmp_path / "resumed.ckpt"
    code, _, err = run(capsys, ["train", "--data", str(reordered), "--variant",
                                "baseline", "--out", str(out), "--iters", "2",
                                "--batch", "1", "--resume", str(baseline_ckpt),
                                "--quiet"])
    assert code == 2 and str(doc["class_names"]) in err and "Traceback" not in err
    assert not out.exists()  # refused before training, not at the final eval


def test_checkpoint_missing_header_key_is_format_error(synth_dir, baseline_ckpt,
                                                       tmp_path, capsys):
    keys = list(rewrite_header(baseline_ckpt, tmp_path / "copy.ckpt", lambda h: None))
    assert "iteration" in keys and "tensors" in keys
    bad = tmp_path / "bad.ckpt"
    for key in keys:
        rewrite_header(baseline_ckpt, bad, lambda h: h.pop(key))
        with pytest.raises(FormatError, match=key):
            load_checkpoint(bad)
        code, _, err = run(capsys, ["eval", "--data", str(synth_dir / "manifest.json"),
                                    "--model", str(bad)])
        assert code == 2 and key in err


@pytest.mark.parametrize("edit", [
    lambda h: h.update(tensors={"params/classifier_bias": [2]}),
    lambda h: h["tensors"].append("params/extra"),
    lambda h: h["tensors"][0].pop("dtype"),
    lambda h: h["tensors"][0].update(offset=0),
    lambda h: h["tensors"][0].update(shape="2"),
    lambda h: h["tensors"][0].update(dtype="no-such-dtype"),
    lambda h: h["tensors"][0].update(name="grads/classifier_bias"),
    lambda h: h["tensors"][0].update(name="classifier_bias"),
    lambda h: h.update(variant="bogus"),
    lambda h: h.update(feature_dim="5"),
    lambda h: h["tensors"][0].update(name="params/attention_logits"),
], ids=["not-a-list", "not-an-object", "missing-key", "extra-key", "bad-shape",
        "bad-dtype", "unknown-group", "no-group", "unknown-variant", "dim-not-int",
        "tensor-not-in-variant"])
def test_checkpoint_bad_tensor_directory_is_format_error(synth_dir, baseline_ckpt,
                                                         tmp_path, capsys, edit):
    bad = tmp_path / "bad.ckpt"
    rewrite_header(baseline_ckpt, bad, edit)
    with pytest.raises(FormatError):
        load_checkpoint(bad)
    code, _, _ = run(capsys, ["eval", "--data", str(synth_dir / "manifest.json"),
                              "--model", str(bad)])
    assert code == 2


@pytest.mark.parametrize("variant, tensor", [
    ("attended", "params/attention_logits"),
    ("relative", "params/classifier_weight"),
])
def test_checkpoint_shape_contradicting_header_is_format_error(synth_dir, tmp_path,
                                                               capsys, variant, tensor):
    ckpt = tmp_path / "good.ckpt"
    code, _, _ = run(capsys, [
        "train", "--data", str(synth_dir / "manifest_train.json"),
        "--variant", variant, "--out", str(ckpt), "--iters", "1", "--batch", "1",
        "--filters", "2", "--kernel", "3", "--dropout", "0", "--quiet",
    ])
    assert code == 0

    def flatten(header):  # same payload bytes, a shape the dims contradict
        entry = next(e for e in header["tensors"] if e["name"] == tensor)
        entry["shape"] = [int(np.prod(entry["shape"])), 1]

    bad = tmp_path / "bad.ckpt"
    rewrite_header(ckpt, bad, flatten)
    with pytest.raises(FormatError, match=tensor):
        load_checkpoint(bad)
    code, _, err = run(capsys, ["eval", "--data", str(synth_dir / "manifest.json"),
                                "--model", str(bad)])
    assert code == 2 and tensor in err


@pytest.mark.parametrize("length", [4, 0])
def test_relative_checkpoint_kernel_length_must_be_odd(synth_dir, tmp_path, capsys,
                                                       length):
    ckpt = tmp_path / "rel.ckpt"
    code, _, _ = run(capsys, [
        "train", "--data", str(synth_dir / "manifest_train.json"),
        "--variant", "relative", "--out", str(ckpt), "--iters", "1", "--batch", "1",
        "--filters", "2", "--kernel", "3", "--dropout", "0", "--quiet",
    ])
    assert code == 0
    bad = tmp_path / "bad.ckpt"
    rewrite_header(ckpt, bad, lambda h: h.update(kernel_length=length))
    with pytest.raises(FormatError, match="kernel_length"):
        load_checkpoint(bad)
    code, _, err = run(capsys, ["eval", "--data", str(synth_dir / "manifest.json"),
                                "--model", str(bad)])
    assert code == 2 and str(bad) in err and "kernel_length" in err
    assert "Traceback" not in err


def set_header(**fields):
    return lambda src, dst: rewrite_header(src, dst, lambda h: h.update(fields))


def shape_wrapping_int64(src, dst):
    # 8 * 2**61 elements: an int64 element count wraps to 0
    def edit(header):
        header.update(num_classes=8, class_names=[f"c{i}" for i in range(8)],
                      feature_dim=2**61)
        for entry in header["tensors"]:
            entry["shape"] = [8, 2**61] if entry["name"].endswith("weight") else [8]
    rewrite_header(src, dst, edit)


def nan_parameter(src, dst):
    raw = bytearray(src.read_bytes())
    start = 12 + struct.unpack("<I", raw[8:12])[0]  # params/classifier_bias[0]
    raw[start : start + 4] = np.float32(np.nan).tobytes()
    dst.write_bytes(bytes(raw))


CORRUPT_CHECKPOINTS = {
    "class-names-not-a-list": (set_header(class_names=5), "class_names"),
    "adam-t-not-an-int": (set_header(adam_t="x"), "adam_t"),
    "iteration-not-an-int": (set_header(iteration="x"), "iteration"),
    "rng-state-not-an-object": (set_header(rng_state=5), "rng_state"),
    "rng-state-pcg64-rejects": (
        set_header(rng_state={"bit_generator": "PCG64", "state": {"state": 1}}),
        "rng_state"),
    "config-not-an-object": (set_header(config=[1]), "config"),
    "class-names-not-num-classes": (set_header(class_names=["a"]), "class_names"),
    "appended-bytes": (lambda src, dst: dst.write_bytes(src.read_bytes() + b"\0"),
                       "trailing bytes"),
    "shape-wrapping-int64": (shape_wrapping_int64, "params/classifier_weight"),
    "nan-parameter": (nan_parameter, "params/classifier_bias"),
}


@pytest.mark.parametrize("case", CORRUPT_CHECKPOINTS)
def test_corrupt_checkpoint_is_format_error(synth_dir, baseline_ckpt, tmp_path, capsys,
                                            case):
    corrupt, field = CORRUPT_CHECKPOINTS[case]
    bad = tmp_path / "bad.ckpt"
    corrupt(baseline_ckpt, bad)
    with pytest.raises(FormatError, match=field):
        load_checkpoint(bad)
    out = tmp_path / "resumed.ckpt"
    for argv in (["eval", "--data", str(synth_dir / "manifest.json"),
                  "--model", str(bad)],
                 ["train", "--data", str(synth_dir / "manifest_train.json"), "--variant",
                  "baseline", "--out", str(out), "--iters", "2", "--batch", "1",
                  "--resume", str(bad), "--quiet"]):
        code, _, err = run(capsys, argv)
        assert code == 2 and str(bad) in err and field in err and "Traceback" not in err
    assert not out.exists()


def test_resume_without_generator_state_is_refused(synth_dir, baseline_ckpt, tmp_path,
                                                   capsys):
    # a state saved before training has no generator state: it evaluates, but
    # a resumed run could not continue the original's random stream
    bare = tmp_path / "bare.ckpt"
    rewrite_header(baseline_ckpt, bare, lambda h: h.update(rng_state=None))
    code, _, _ = run(capsys, ["eval", "--data", str(synth_dir / "manifest.json"),
                              "--model", str(bare)])
    assert code == 0
    code, _, err = run(capsys, ["train", "--data", str(synth_dir / "manifest_train.json"),
                                "--variant", "baseline", "--resume", str(bare),
                                "--out", str(tmp_path / "x.ckpt"), "--iters", "2",
                                "--quiet"])
    assert code == 2 and "generator state" in err and "Traceback" not in err


def test_undecodable_json_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for raw in (b"\xff\xfe{}", b'{"schema_version": 1,'):
        bad.write_bytes(raw)
        with pytest.raises(FormatError, match="not UTF-8 JSON"):
            load_manifest(bad)
        for argv in (["eval", "--data", str(bad), "--model", str(bad)],
                     ["synth", "--out", str(tmp_path / "out"), "--config", str(bad)]):
            code, _, err = run(capsys, argv)
            assert code == 2 and str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["train", "--dropout", "2"],
    ["train", "--variant", "relative", "--kernel", "4"],
    ["train", "--filters", "0"],
    ["export-filters", "--T", "0"],
    ["gradcheck", "--instances", "0"],
    ["gradcheck", "--filters", "0"],
    ["gradcheck", "--gaussians", "0"],
    ["synth", "--videos", "0"],
    ["synth", "--dim", "0"],
    ["synth", "--split", "0"],
    ["synth", "--split", "5", "--videos", "5"],
    ["synth", "--noise", "-1"],
    ["synth", "--noise", "nan"],
    ["synth", "--noise", "inf"],
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["train", "--lr-decay-factor", "nan"],
    ["train", "--lr-decay-factor", "inf"],
    ["train", "--lr-decay-factor", "-1"],
    ["train", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["synth", "--seed", "-1"],
], ids=["dropout-2", "even-kernel", "no-filters", "export-T-0", "no-instances",
        "no-gradcheck-filters", "no-gradcheck-gaussians", "synth-no-videos",
        "synth-dim-0", "synth-split-0", "synth-split-all", "synth-noise-negative",
        "synth-noise-nan", "synth-noise-inf", "lr-nan", "lr-inf", "lr-decay-factor-nan",
        "lr-decay-factor-inf", "lr-decay-factor-negative", "train-seed-negative",
        "gradcheck-seed-negative", "synth-seed-negative"])
def test_bad_flag_value_is_usage_error(synth_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    more = {"train": ["--data", str(synth_dir / "manifest_train.json"), "--out", str(out),
                      "--iters", "1", "--quiet"],
            "export-filters": ["--model", str(tmp_path / "none.ckpt"), "--out", str(out)],
            "gradcheck": [],
            "synth": ["--out", str(out)]}[argv[0]]
    code, stdout, err = run(capsys, argv + more)
    assert code == 1 and f"usage: superevents {argv[0]}" in err
    assert "Traceback" not in err and not stdout and not out.exists()


def test_train_lr_decay_every_zero_is_rejected(synth_dir, tmp_path, capsys):
    code, _, err = run(capsys, [
        "train", "--data", str(synth_dir / "manifest_train.json"),
        "--out", str(tmp_path / "x.ckpt"), "--iters", "2", "--batch", "1",
        "--lr-decay-every", "0", "--quiet",
    ])
    assert code == 1  # a bad flag value is a usage error
    assert "lr_decay_every" in err and "usage" in err and "Traceback" not in err


def test_malformed_manifest_is_format_error(synth_dir, tmp_path, capsys):
    good = json.loads((synth_dir / "manifest_train.json").read_text())
    bad = tmp_path / "manifest.json"
    docs = [[good]]  # not a JSON object
    for edit in (lambda d: d["videos"][0].pop("length"),
                 lambda d: d["videos"][0].update(fps=30),
                 lambda d: d.pop("videos"),
                 lambda d: d.update(videos=5),
                 lambda d: d["videos"][0].update(length=str(d["videos"][0]["length"])),
                 lambda d: d["videos"][0].update(length=-1),
                 lambda d: d.update(feature_dim=str(d["feature_dim"])),
                 lambda d: d.update(feature_dim=float(d["feature_dim"])),
                 lambda d: d.update(class_names=",".join(d["class_names"])),
                 lambda d: d.update(class_names=[None] * len(d["class_names"]))):
        doc = json.loads(json.dumps(good))
        edit(doc)
        docs.append(doc)
    for doc in docs:
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_manifest(bad)
        code, _, _ = run(capsys, ["train", "--data", str(bad), "--out",
                                  str(tmp_path / "x.ckpt"), "--iters", "1", "--quiet"])
        assert code == 2


@pytest.mark.parametrize("key, absolute", [("feature_path", True),
                                           ("label_path", True),
                                           ("feature_path", False)],
                         ids=["absolute-features", "absolute-labels", "not-a-string"])
def test_manifest_path_not_relative_is_format_error(synth_dir, baseline_ckpt, tmp_path,
                                                    capsys, key, absolute):
    doc = json.loads((synth_dir / "manifest.json").read_text())
    entry = doc["videos"][0]
    # an absolute path to the file itself, which exists
    entry[key] = str((synth_dir / entry[key]).resolve()) if absolute else 5
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="not a relative path"):
        load_manifest(bad)
    for argv in (["eval", "--data", str(bad), "--model", str(baseline_ckpt)],
                 ["train", "--data", str(bad), "--out", str(tmp_path / "x.ckpt"),
                  "--iters", "1", "--quiet"]):
        code, _, err = run(capsys, argv)
        assert code == 2 and key in err and "Traceback" not in err


def test_synth_config_unknown_field_is_rejected(tmp_path, capsys):
    fields = {"num_videos": 2, "frame_rate": 30}
    cfg = tmp_path / "synth.json"
    with pytest.raises(FormatError, match="frame_rate"):
        SynthConfig.from_dict(fields, cfg)
    cfg.write_text(json.dumps(fields))
    code, _, err = run(capsys, ["synth", "--out", str(tmp_path / "out"),
                                "--config", str(cfg)])
    assert code == 2 and "frame_rate" in err


@pytest.mark.parametrize("doc, problem", [
    ([{"num_videos": 2}], "JSON object"),
    ({"num_videos": 2, "rules": [{"trigger_a": 0}]}, "trigger_b"),
    ({"num_videos": 2, "t_range": 5}, "t_range"),
    ({"num_videos": 2, "rules": [{"trigger_a": None, "trigger_b": 1}]}, "trigger_a"),
    ({"num_videos": 2, "rules": [{"trigger_a": 0, "trigger_b": 1,
                                  "gap_rnage": [40, 50]}]}, "gap_rnage"),
    ({"num_videos": 2, "seed": -5}, "seed"),
    ({"num_videos": 2, "rules": [{"trigger_a": 0, "trigger_b": 1, "band": [1.5, 2.0]}]},
     "band"),
    ({"num_videos": 2, "rules": [{"trigger_a": 0, "trigger_b": 1, "band": [-1, -0.5]}]},
     "band"),
    ({"num_videos": 2, "rules": [{"trigger_a": 0, "trigger_b": 1, "band": [0.9, 0.1]}]},
     "band"),
    ({"num_videos": 2, "base_classes": 6, "background_events": [3, 1]},
     "background_events"),
    ({"num_videos": 0}, "num_videos"),
    ({"num_videos": 2, "base_classes": 0, "rules": []}, "base_classes"),
    # a background event at least event_len_range[0] long must fit each video
    ({"num_videos": 2, "t_range": [5, 5], "rules": []}, "event_len_range"),
    ({"num_videos": 2, "noise_sigma": 10**400}, "noise_sigma"),
], ids=["top-level-list", "rule-without-trigger-b", "t-range-not-a-pair",
        "trigger-a-null", "misspelled-rule-key", "negative-seed", "band-above-1",
        "band-below-0", "band-reversed", "background-events-reversed", "no-videos",
        "no-classes", "event-longer-than-video", "noise-beyond-float"])
def test_synth_config_malformed_is_format_error(tmp_path, capsys, doc, problem):
    cfg = tmp_path / "synth.json"
    if isinstance(doc, dict):
        with pytest.raises(FormatError, match=problem):
            SynthConfig.from_dict(doc, cfg)
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # the file must be valid on its own; flags override it only afterwards
    code, stdout, err = run(capsys, ["synth", "--out", str(out), "--config", str(cfg),
                                     "--videos", "2"])
    assert code == 2 and problem in err and str(cfg) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and not stdout and not out.exists()


def test_synth_config_no_video_fits_is_error(tmp_path, capsys):
    # the default rules' chains need up to 55 frames
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"t_range": [10, 10]}))
    code, _, err = run(capsys, ["synth", "--out", str(tmp_path / "out"),
                                "--config", str(cfg)])
    assert code == 2 and "Traceback" not in err
    assert err.startswith("superevents: error: rule 0: no chain")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
def test_synth_config_bad_noise_is_error(tmp_path, capsys, noise):
    with pytest.raises(ValueError, match="noise_sigma"):
        SynthConfig(noise_sigma=noise).validate()
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"num_videos": 2, "noise_sigma": noise}))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, ["synth", "--out", str(out), "--config", str(cfg)])
    assert code == 2 and "noise_sigma" in err and "Traceback" not in err
    assert not stdout and not out.exists()


def test_failed_synth_leaves_nothing_behind(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"t_range": [10, 10]}))  # no video fits
    new = tmp_path / "new" / "out"  # neither directory exists yet
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept")
    for out in (new, existing):
        code, _, err = run(capsys, ["synth", "--out", str(out), "--config", str(cfg)])
        assert code == 2 and "no chain" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "synth.json"]
    assert [p.name for p in existing.iterdir()] == ["notes.txt"]


def test_unallocatable_synth_is_io_error(tmp_path, capsys):
    # 5.68 PiB of emission vectors: numpy refuses the allocation at once
    out = tmp_path / "new" / "out"
    code, stdout, err = run(capsys, ["synth", "--out", str(out), "--videos", "1",
                                     "--dim", "100000000000000"])
    assert code == 2 and err.startswith("superevents: error: Unable to allocate")
    assert len(err.strip().splitlines()) == 1 and not stdout
    assert list(tmp_path.iterdir()) == []


def test_non_finite_feature_file_is_format_error(synth_dir, baseline_ckpt, tmp_path,
                                                 capsys):
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    path = data / "features" / "v00001.tsfv"
    features = load_features(path)
    features[3, 0] = np.nan
    save_features(path, features)
    code, stdout, err = run(capsys, ["eval", "--data", str(data / "manifest.json"),
                                     "--model", str(baseline_ckpt)])
    assert code == 2 and str(path) in err and "not finite" in err and not stdout


def test_missing_checkpoint_is_io_error(synth_dir, capsys):
    code, _, err = run(capsys, ["eval", "--data", str(synth_dir / "manifest.json"),
                                "--model", "/nonexistent/model.ckpt"])
    assert code == 2
    assert "error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, ["synth", "--out", "/tmp/x", "--bogus"])
    assert code == 1
    assert "usage" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["frobnicate"])[0] == 1


def test_gradcheck_command(capsys):
    code, out, _ = run(capsys, ["gradcheck", "--variant", "attended",
                                "--seed", "2", "--instances", "2",
                                "--filters", "2", "--gaussians", "2"])
    assert code == 0
    assert out.count("=> PASS") == 2


def test_export_filters(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "att.ckpt"
    code, _, _ = run(capsys, [
        "train", "--data", str(synth_dir / "manifest_train.json"),
        "--variant", "attended", "--out", str(ckpt), "--iters", "1",
        "--batch", "2", "--filters", "2", "--gaussians", "2",
        "--dropout", "0", "--quiet",
    ])
    assert code == 0
    out_json = tmp_path / "filters.json"
    code, _, _ = run(capsys, ["export-filters", "--model", str(ckpt),
                              "--T", "20", "--out", str(out_json)])
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["schema_version"] == 1
    assert doc["sequence_length"] == 20
    combined = np.array(doc["combined"][doc["class_names"][0]])
    assert combined.shape == (20, 2)
    np.testing.assert_allclose(combined.sum(axis=0), 1.0, atol=1e-6)
    att = np.array(doc["attention"])
    np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-6)

    # same parameters at two lengths keep relative center positions
    out2 = tmp_path / "filters2.json"
    code, _, _ = run(capsys, ["export-filters", "--model", str(ckpt),
                              "--T", "41", "--out", str(out2)])
    assert code == 0
    doc2 = json.loads(out2.read_text())
    c1 = np.array([f["frame_centers"] for f in doc["filters"]])
    c2 = np.array([f["frame_centers"] for f in doc2["filters"]])
    np.testing.assert_allclose(c1 / 19, c2 / 40, rtol=1e-6)


def test_export_filters_identical_filters_match_combination(tmp_path, capsys):
    # two identical filters under any attention combine to the same matrix
    from superevents.model import ModelState, save_checkpoint

    params = {
        "filter_centers": np.array([[0.2], [0.2]], dtype=np.float32),
        "filter_widths": np.array([[0.1], [0.1]], dtype=np.float32),
        "attention_logits": np.array([[0.7, -0.4]], dtype=np.float32),
        "classifier_weight": np.zeros((1, 2), dtype=np.float32),  # D + N*D wide
        "classifier_bias": np.zeros(1, dtype=np.float32),
    }
    state = ModelState(variant="attended", feature_dim=1, num_classes=1,
                       num_distributions=1, num_filters=2, kernel_length=0,
                       class_names=["only"], params=params)
    ckpt = tmp_path / "twin.ckpt"
    save_checkpoint(state, ckpt)
    out_json = tmp_path / "twin.json"
    code, _, _ = run(capsys, ["export-filters", "--model", str(ckpt),
                              "--T", "9", "--out", str(out_json)])
    assert code == 0
    doc = json.loads(out_json.read_text())
    f0 = np.array(doc["filters"][0]["values"])
    np.testing.assert_allclose(np.array(doc["combined"]["only"]), f0, rtol=1e-6)


def test_export_filters_baseline_rejected(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "nb.ckpt"
    run(capsys, ["train", "--data", str(synth_dir / "manifest_train.json"),
                 "--variant", "baseline", "--out", str(ckpt), "--iters", "1",
                 "--batch", "1", "--dropout", "0", "--quiet"])
    code, _, err = run(capsys, ["export-filters", "--model", str(ckpt),
                                "--T", "10", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "no temporal structure filters" in err
