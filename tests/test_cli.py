import json
import struct

import numpy as np
import pytest

from superevents.cli import main
from superevents.data import SynthConfig, load_manifest
from superevents.errors import FormatError
from superevents.model import load_checkpoint


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


def test_train_lr_decay_every_zero_is_rejected(synth_dir, tmp_path, capsys):
    code, _, err = run(capsys, [
        "train", "--data", str(synth_dir / "manifest_train.json"),
        "--out", str(tmp_path / "x.ckpt"), "--iters", "2", "--batch", "1",
        "--lr-decay-every", "0", "--quiet",
    ])
    assert code == 2
    assert "lr_decay_every" in err and "Traceback" not in err


def test_malformed_manifest_is_format_error(synth_dir, tmp_path, capsys):
    good = json.loads((synth_dir / "manifest_train.json").read_text())
    bad = tmp_path / "manifest.json"
    docs = [[good]]  # not a JSON object
    for edit in (lambda d: d["videos"][0].pop("length"),
                 lambda d: d["videos"][0].update(fps=30),
                 lambda d: d.pop("videos")):
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


def test_synth_config_unknown_field_is_rejected(tmp_path, capsys):
    fields = {"num_videos": 2, "frame_rate": 30}
    with pytest.raises(ValueError, match="frame_rate"):
        SynthConfig.from_dict(fields)
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(fields))
    code, _, err = run(capsys, ["synth", "--out", str(tmp_path / "out"),
                                "--config", str(cfg)])
    assert code == 2 and "frame_rate" in err


@pytest.mark.parametrize("doc, problem", [
    ([{"num_videos": 2}], "JSON object"),
    ({"num_videos": 2, "rules": [{"trigger_a": 0}]}, "trigger_b"),
], ids=["top-level-list", "rule-without-trigger-b"])
def test_synth_config_malformed_is_format_error(tmp_path, capsys, doc, problem):
    if isinstance(doc, dict):
        with pytest.raises(FormatError, match=problem):
            SynthConfig.from_dict(doc)
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["synth", "--out", str(tmp_path / "out"),
                                "--config", str(cfg)])
    assert code == 2 and problem in err and "Traceback" not in err


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
