import json
from dataclasses import asdict

import numpy as np
import pytest

from superevents.data import (
    Dataset,
    PairedRule,
    SynthConfig,
    dataset_stats,
    emission_vectors,
    generate_synthetic,
    load_dataset,
    load_features,
    load_labels,
    load_manifest,
    save_features,
    save_labels,
    split_manifest,
    verify_paired_rules,
)
from superevents.errors import (
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)


def small_cfg(**kw):
    base = dict(
        num_videos=8,
        t_range=(60, 90),
        feature_dim=5,
        base_classes=2,
        rules=(PairedRule(0, 1, (5, 10), (0.1, 0.6)),),
        noise_sigma=0.3,
        event_len_range=(4, 8),
        seed=123,
    )
    base.update(kw)
    return SynthConfig(**base)


# ---------------------------------------------------------------------------
# binary round trips
# ---------------------------------------------------------------------------

def test_feature_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(7, 3)).astype(np.float32)
    p = tmp_path / "a.tsfv"
    save_features(p, m)
    back = load_features(p)
    assert back.dtype == np.float32
    assert m.tobytes() == back.tobytes()


def test_feature_roundtrip_degenerate(tmp_path):
    p = tmp_path / "one.tsfv"
    save_features(p, np.array([[3.25]], dtype=np.float32))
    back = load_features(p)
    assert back.shape == (1, 1) and back[0, 0] == np.float32(3.25)


def test_label_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    z = rng.integers(0, 2, (11, 4)).astype(np.uint8)
    p = tmp_path / "a.tsfl"
    save_labels(p, z)
    assert np.array_equal(load_labels(p), z)


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.tsfv"
    save_features(p, np.ones((2, 2), dtype=np.float32))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_features(p)
    # feature file read as labels is also a magic error
    save_features(p, np.ones((2, 2), dtype=np.float32))
    with pytest.raises(BadMagicError):
        load_labels(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "t.tsfv"
    save_features(p, np.ones((4, 3), dtype=np.float32))
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(TruncatedPayloadError):
        load_features(p)
    p.write_bytes(raw[:10])  # shorter than the header itself
    with pytest.raises(TruncatedPayloadError):
        load_features(p)


def test_dimension_overflow(tmp_path):
    import struct

    p = tmp_path / "huge.tsfv"
    p.write_bytes(b"TSFV" + struct.pack("<III", 1, 2**20, 2**20))
    with pytest.raises(DimensionOverflowError):
        load_features(p)


def test_unsupported_version_and_zero_dim(tmp_path):
    import struct

    p = tmp_path / "v9.tsfv"
    p.write_bytes(b"TSFV" + struct.pack("<III", 9, 2, 2) + b"\0" * 16)
    with pytest.raises(UnsupportedVersionError):
        load_features(p)
    p.write_bytes(b"TSFV" + struct.pack("<III", 1, 0, 2))
    with pytest.raises(FormatError):
        load_features(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "x.tsfl"
    save_labels(p, np.zeros((2, 2), dtype=np.uint8))
    p.write_bytes(p.read_bytes() + b"\0\0")
    with pytest.raises(FormatError):
        load_labels(p)


def test_label_byte_validation(tmp_path):
    p = tmp_path / "z.tsfl"
    save_labels(p, np.zeros((2, 2), dtype=np.uint8))
    raw = bytearray(p.read_bytes())
    raw[-1] = 7
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_labels(p)
    with pytest.raises(ValueError):
        save_labels(p, np.full((2, 2), 3, dtype=np.uint8))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_features_rejected(tmp_path, value):
    p = tmp_path / "f.tsfv"
    features = np.ones((3, 2), dtype=np.float32)
    features[1, 0] = value
    save_features(p, features)
    with pytest.raises(FormatError, match="not finite") as info:
        load_features(p)
    assert str(p) in str(info.value)


@pytest.mark.parametrize("labels", [[[0.7, 1.0]], [[256, 1]], [[-255, 0]],
                                    [[np.nan, 1.0]]],
                         ids=["fraction", "wraps-to-0", "wraps-to-1", "nan"])
def test_save_labels_checks_values_before_casting(tmp_path, labels):
    p = tmp_path / "z.tsfl"
    with pytest.raises(ValueError, match="0 or 1"):
        save_labels(p, np.array(labels))
    assert not p.exists()


def test_save_labels_accepts_bools_and_whole_floats(tmp_path):
    p = tmp_path / "z.tsfl"
    save_labels(p, np.array([[True, False]]))
    assert load_labels(p).tolist() == [[1, 0]]
    save_labels(p, np.array([[0.0, 1.0]]))
    assert load_labels(p).tolist() == [[0, 1]]


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generator_deterministic_bytes(tmp_path):
    cfg = small_cfg()
    generate_synthetic(cfg, tmp_path / "a")
    generate_synthetic(cfg, tmp_path / "b")
    for sub in ("manifest.json", "features/v00003.tsfv", "labels/v00003.tsfl"):
        assert (tmp_path / "a" / sub).read_bytes() == (tmp_path / "b" / sub).read_bytes()


def test_generator_counts_and_consistency(tmp_path):
    cfg = small_cfg(num_videos=5)
    manifest = generate_synthetic(cfg, tmp_path)
    assert len(manifest.videos) == 5
    assert manifest.num_classes == cfg.num_classes == 4
    ds = load_dataset(tmp_path / "manifest.json")
    for v in ds.videos:
        assert cfg.t_range[0] <= v.features.shape[0] <= cfg.t_range[1]
        assert v.features.shape[1] == cfg.feature_dim
        assert v.labels.shape[1] == cfg.num_classes


def test_ambiguous_pairs_share_emissions():
    cfg = SynthConfig()
    e = emission_vectors(cfg)
    for i in range(len(cfg.rules)):
        a, b = cfg.ambiguous_pair(i)
        assert np.array_equal(e[a], e[b])
    np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, rtol=1e-6)


def test_paired_rule_constraints_hold(tmp_path):
    cfg = small_cfg(num_videos=20, rules=(PairedRule(0, 1, (5, 10), (0.1, 0.6)),))
    generate_synthetic(cfg, tmp_path)
    ds = load_dataset(tmp_path / "manifest.json")
    checked, satisfied = verify_paired_rules(ds, cfg)
    assert checked >= 20  # one chain per rule per video
    assert satisfied == checked


def test_noiseless_single_class_features(tmp_path):
    cfg = SynthConfig(
        num_videos=3,
        t_range=(40, 50),
        feature_dim=4,
        base_classes=1,
        rules=(),
        noise_sigma=0.0,
        event_len_range=(3, 6),
        seed=7,
    )
    generate_synthetic(cfg, tmp_path)
    ds = load_dataset(tmp_path / "manifest.json")
    e = emission_vectors(cfg)
    for v in ds.videos:
        active = v.labels[:, 0].astype(bool)
        assert active.any()
        np.testing.assert_allclose(
            v.features[active], np.tile(e[0], (int(active.sum()), 1)), atol=1e-6
        )
        np.testing.assert_allclose(v.features[~active], 0.0, atol=1e-6)


def test_generator_validation():
    with pytest.raises(ValueError):
        small_cfg(rules=(PairedRule(0, 0, (5, 10)),)).validate()
    with pytest.raises(ValueError):
        small_cfg(rules=(PairedRule(0, 7, (5, 10)),)).validate()
    with pytest.raises(ValueError):
        small_cfg(t_range=(0, 10)).validate()


def test_generator_failure_removes_what_it_wrote(tmp_path, monkeypatch):
    # a write that fails after two videos are on disk
    (tmp_path / "features").mkdir()
    (tmp_path / "features" / "notes.txt").write_text("kept")
    calls = []

    def failing_save_labels(path, labels):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        save_labels(path, labels)

    monkeypatch.setattr("superevents.data.save_labels", failing_save_labels)
    with pytest.raises(OSError, match="disk full"):
        generate_synthetic(small_cfg(), tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["features"]
    assert [p.name for p in (tmp_path / "features").iterdir()] == ["notes.txt"]


def test_config_dict_roundtrip(tmp_path):
    cfg = small_cfg()
    again = SynthConfig.from_dict(json.loads(json.dumps(asdict(cfg))), tmp_path / "c.json")
    assert again == cfg


# ---------------------------------------------------------------------------
# manifests and stats
# ---------------------------------------------------------------------------

def test_manifest_roundtrip_and_split(tmp_path):
    cfg = small_cfg(num_videos=6)
    manifest = generate_synthetic(cfg, tmp_path)
    again = load_manifest(tmp_path / "manifest.json")
    assert again == manifest
    train, test = split_manifest(manifest, 4)
    assert [v.id for v in train.videos] == [v.id for v in manifest.videos[:4]]
    assert len(test.videos) == 2
    with pytest.raises(ValueError):
        split_manifest(manifest, 6)


def test_load_dataset_rejects_mismatched_length(tmp_path):
    cfg = small_cfg(num_videos=2)
    generate_synthetic(cfg, tmp_path)
    manifest = load_manifest(tmp_path / "manifest.json")
    bad = manifest.videos[0]
    save_features(tmp_path / bad.feature_path,
                  np.zeros((bad.length + 3, cfg.feature_dim), dtype=np.float32))
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "manifest.json")


def test_dataset_stats(tmp_path):
    cfg = small_cfg(num_videos=4)
    generate_synthetic(cfg, tmp_path)
    ds = load_dataset(tmp_path / "manifest.json")
    stats = dataset_stats(ds)
    assert stats["videos"] == 4
    assert stats["classes"] == 4
    assert stats["frames"] == sum(v.features.shape[0] for v in ds.videos)
    assert all(0 <= r <= 1 for r in stats["positive_rate"].values())
