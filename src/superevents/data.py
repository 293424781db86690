"""Dataset I/O and the synthetic multi-activity benchmark generator.

Binary formats (the public data contract; little-endian throughout):

* features — magic ``TSFV``, u32 version (=1), u32 T, u32 D, then T*D
  float32 values, frame-major.
* labels   — magic ``TSFL``, u32 version (=1), u32 T, u32 C, then T*C
  bytes, each 0 or 1.
* manifest — UTF-8 JSON: schema_version, class_names, feature_dim, and a
  video list of {id, feature_path, label_path, length}; paths are relative
  to the manifest's directory.

The generator builds videos whose ambiguous class pairs share an identical
per-frame emission vector and differ only in which trigger class precedes
them, so no frame-level classifier can separate a pair while a model with
temporal context can. Each rule's trigger->ambiguous chain is placed inside
a per-rule band of the video's free span, giving the chains consistent
relative positions across videos of any length. Generation is single-
threaded and fully determined by the config seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    GenerationError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)

__all__ = [
    "FEATURE_MAGIC",
    "LABEL_MAGIC",
    "FORMAT_VERSION",
    "VideoEntry",
    "DatasetManifest",
    "Video",
    "Dataset",
    "save_features",
    "load_features",
    "save_labels",
    "load_labels",
    "save_manifest",
    "load_manifest",
    "load_dataset",
    "split_manifest",
    "PairedRule",
    "SynthConfig",
    "emission_vectors",
    "generate_synthetic",
    "verify_paired_rules",
    "dataset_stats",
]

FEATURE_MAGIC = b"TSFV"
LABEL_MAGIC = b"TSFL"
FORMAT_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1

# one tensor may not exceed this many elements; larger headers are garbage
MAX_ELEMENTS = 1 << 31


# ---------------------------------------------------------------------------
# binary tensor files
# ---------------------------------------------------------------------------

def _write_tensor(path, magic, rows, cols, payload: bytes):
    header = magic + struct.pack("<III", FORMAT_VERSION, rows, cols)
    Path(path).write_bytes(header + payload)


def _read_header(raw: bytes, magic: bytes, path):
    if len(raw) < 16:
        raise TruncatedPayloadError(f"{path}: file shorter than its header")
    if raw[:4] != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, found {raw[:4]!r}")
    version, rows, cols = struct.unpack("<III", raw[4:16])
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported format version {version}")
    if rows == 0 or cols == 0:
        raise FormatError(f"{path}: zero dimension ({rows} x {cols})")
    if rows * cols > MAX_ELEMENTS:
        raise DimensionOverflowError(
            f"{path}: declared {rows} x {cols} elements exceeds the "
            f"{MAX_ELEMENTS} sanity bound"
        )
    return rows, cols


def _read_payload(raw: bytes, rows, cols, itemsize, path):
    expected = 16 + rows * cols * itemsize
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"{path}: truncated payload, need {expected} bytes, have {len(raw)}"
        )
    if len(raw) > expected:
        raise FormatError(f"{path}: {len(raw) - expected} trailing bytes")
    return raw[16:expected]


def save_features(path, features: np.ndarray) -> None:
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise ValueError("features must be T x D")
    _write_tensor(path, FEATURE_MAGIC, features.shape[0], features.shape[1],
                  features.tobytes())


def load_features(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    t, d = _read_header(raw, FEATURE_MAGIC, path)
    payload = _read_payload(raw, t, d, 4, path)
    return np.frombuffer(payload, dtype="<f4").reshape(t, d).astype(np.float32)


def save_labels(path, labels: np.ndarray) -> None:
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if labels.ndim != 2:
        raise ValueError("labels must be T x C")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    _write_tensor(path, LABEL_MAGIC, labels.shape[0], labels.shape[1],
                  labels.tobytes())


def load_labels(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    t, c = _read_header(raw, LABEL_MAGIC, path)
    payload = _read_payload(raw, t, c, 1, path)
    z = np.frombuffer(payload, dtype=np.uint8).reshape(t, c).copy()
    if not np.isin(z, (0, 1)).all():
        raise FormatError(f"{path}: label bytes must be 0 or 1")
    return z


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

@dataclass
class VideoEntry:
    id: str
    feature_path: str
    label_path: str
    length: int


@dataclass
class DatasetManifest:
    class_names: list[str]
    feature_dim: int
    videos: list[VideoEntry]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "class_names": manifest.class_names,
        "feature_dim": manifest.feature_dim,
        "videos": [asdict(v) for v in manifest.videos],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_manifest(path) -> DatasetManifest:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    if doc.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported manifest schema {doc.get('schema_version')!r}"
        )
    missing = [key for key in ("class_names", "feature_dim", "videos") if key not in doc]
    if missing:
        raise FormatError(f"{path}: manifest lacks {', '.join(missing)}")
    video_keys = {f.name for f in fields(VideoEntry)}
    for v in doc["videos"]:
        if not isinstance(v, dict) or set(v) != video_keys:
            raise FormatError(
                f"{path}: video entry {v!r} must have exactly the keys "
                f"{', '.join(sorted(video_keys))}"
            )
    return DatasetManifest(
        class_names=list(doc["class_names"]),
        feature_dim=int(doc["feature_dim"]),
        videos=[VideoEntry(**v) for v in doc["videos"]],
    )


def split_manifest(manifest: DatasetManifest, n_train: int):
    """First n_train videos for training, the rest for testing."""
    if not 0 < n_train < len(manifest.videos):
        raise ValueError("split must leave at least one video on each side")
    head = DatasetManifest(manifest.class_names, manifest.feature_dim,
                           manifest.videos[:n_train])
    tail = DatasetManifest(manifest.class_names, manifest.feature_dim,
                           manifest.videos[n_train:])
    return head, tail


@dataclass
class Video:
    id: str
    features: np.ndarray  # (T, D) float32
    labels: np.ndarray  # (T, C) uint8


@dataclass
class Dataset:
    class_names: list[str]
    feature_dim: int
    videos: list[Video]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def load_dataset(manifest_path) -> Dataset:
    """Load every referenced video, checking T/D/C consistency."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    videos = []
    for entry in manifest.videos:
        feats = load_features(base / entry.feature_path)
        labs = load_labels(base / entry.label_path)
        if feats.shape[0] != entry.length or labs.shape[0] != entry.length:
            raise FormatError(
                f"{entry.id}: manifest declares length {entry.length}, files have "
                f"{feats.shape[0]}/{labs.shape[0]}"
            )
        if feats.shape[1] != manifest.feature_dim:
            raise FormatError(
                f"{entry.id}: feature dim {feats.shape[1]} != manifest "
                f"{manifest.feature_dim}"
            )
        if labs.shape[1] != manifest.num_classes:
            raise FormatError(
                f"{entry.id}: label width {labs.shape[1]} != {manifest.num_classes} "
                "classes"
            )
        videos.append(Video(entry.id, feats, labs))
    return Dataset(manifest.class_names, manifest.feature_dim, videos)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedRule:
    """One ambiguous class pair: class a follows trigger_a events, class b
    follows trigger_b events, after a gap drawn from gap_range (inclusive).
    band bounds (fractions of the free span) keep the chains at consistent
    relative positions across videos."""

    trigger_a: int
    trigger_b: int
    gap_range: tuple[int, int] = (5, 15)
    band: tuple[float, float] = (0.0, 1.0)


@dataclass
class SynthConfig:
    num_videos: int = 200
    t_range: tuple[int, int] = (100, 300)
    feature_dim: int = 16
    base_classes: int = 4
    rules: tuple[PairedRule, ...] = (
        PairedRule(0, 1, (5, 15), (0.28, 0.36)),
        PairedRule(2, 3, (5, 15), (0.62, 0.70)),
    )
    noise_sigma: float = 0.5
    event_len_range: tuple[int, int] = (8, 20)
    background_events: tuple[int, int] = (1, 2)  # per non-trigger base class
    seed: int = 0

    @property
    def num_classes(self) -> int:
        return self.base_classes + 2 * len(self.rules)

    def class_names(self) -> list[str]:
        names = [f"base{i}" for i in range(self.base_classes)]
        for i in range(len(self.rules)):
            names += [f"amb{i}a", f"amb{i}b"]
        return names

    def ambiguous_pair(self, rule_index: int) -> tuple[int, int]:
        a = self.base_classes + 2 * rule_index
        return a, a + 1

    def validate(self):
        if self.num_videos < 1:
            raise ValueError("num_videos must be >= 1")
        if self.t_range[0] < 1 or self.t_range[0] > self.t_range[1]:
            raise ValueError("bad t_range")
        if self.event_len_range[0] < 1 or self.event_len_range[0] > self.event_len_range[1]:
            raise ValueError("bad event_len_range")
        for r in self.rules:
            if not (0 <= r.trigger_a < self.base_classes
                    and 0 <= r.trigger_b < self.base_classes):
                raise ValueError("rule triggers must be base classes")
            if r.trigger_a == r.trigger_b:
                raise ValueError("a rule's two triggers must differ")
            if r.gap_range[0] < 0 or r.gap_range[0] > r.gap_range[1]:
                raise ValueError("bad gap_range")
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rules"] = [asdict(r) for r in self.rules]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown SynthConfig field(s): {', '.join(unknown)}")
        d = dict(d)
        if "rules" in d:
            rules = d["rules"]
            if not (isinstance(rules, list) and all(
                    isinstance(r, dict) and {"trigger_a", "trigger_b"} <= set(r)
                    for r in rules)):
                raise FormatError(
                    "SynthConfig rules must be a list of objects with trigger_a "
                    "and trigger_b"
                )
            d["rules"] = tuple(
                PairedRule(
                    trigger_a=int(r["trigger_a"]),
                    trigger_b=int(r["trigger_b"]),
                    gap_range=tuple(r.get("gap_range", (5, 15))),
                    band=tuple(r.get("band", (0.0, 1.0))),
                )
                for r in rules
            )
        for key in ("t_range", "event_len_range", "background_events"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


def emission_vectors(cfg: SynthConfig) -> np.ndarray:
    """Unit-norm per-class emission vectors; ambiguous pairs share theirs.

    Determined by cfg.seed alone, so separately generated datasets with the
    same seed share class identities.
    """
    rng = np.random.default_rng(cfg.seed)
    e = rng.normal(size=(cfg.num_classes, cfg.feature_dim))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    for i in range(len(cfg.rules)):
        a, b = cfg.ambiguous_pair(i)
        e[b] = e[a]
    return e.astype(np.float32)


def _place(rng, lo, hi, taken, length, tries=100):
    """Start frame in [lo, hi] whose [start, start+length) segment stays two
    frames clear of every segment in `taken` (same-class runs must not merge)."""
    for _ in range(tries):
        start = int(rng.integers(lo, hi + 1))
        end = start + length
        if all(end + 1 < s or e + 1 < start for s, e in taken):
            return start
    raise GenerationError(
        f"could not place a {length}-frame event in [{lo}, {hi}] after {tries} tries"
    )


def _generate_video(cfg: SynthConfig, rng, emissions):
    t_lo, t_hi = cfg.t_range
    T = int(rng.integers(t_lo, t_hi + 1))
    C = cfg.num_classes
    segments = {c: [] for c in range(C)}  # class -> [(start, end)), end exclusive

    triggers = {r.trigger_a for r in cfg.rules} | {r.trigger_b for r in cfg.rules}
    e_lo, e_hi = cfg.event_len_range

    for i, rule in enumerate(cfg.rules):
        pick_a = rng.random() < 0.5
        a, b = cfg.ambiguous_pair(i)
        trig_cls, amb_cls = (rule.trigger_a, a) if pick_a else (rule.trigger_b, b)
        for _ in range(100):
            tlen = int(rng.integers(e_lo, e_hi + 1))
            alen = int(rng.integers(e_lo, e_hi + 1))
            gap = int(rng.integers(rule.gap_range[0], rule.gap_range[1] + 1))
            span = tlen + gap + alen
            if span > T:
                continue
            free = T - span
            lo = int(np.floor(rule.band[0] * free))
            hi = int(np.floor(rule.band[1] * free))
            start = int(rng.integers(lo, hi + 1))
            break
        else:
            raise GenerationError(
                f"rule {i}: no chain of length <= {e_hi + rule.gap_range[1] + e_hi} "
                f"fits in a {T}-frame video"
            )
        segments[trig_cls].append((start, start + tlen))
        amb_start = start + tlen + gap
        segments[amb_cls].append((amb_start, amb_start + alen))

    for c in range(cfg.base_classes):
        if c in triggers:
            continue
        count = int(rng.integers(cfg.background_events[0], cfg.background_events[1] + 1))
        for _ in range(count):
            length = int(rng.integers(e_lo, min(e_hi, T) + 1))
            start = _place(rng, 0, T - length, segments[c], length)
            segments[c].append((start, start + length))

    labels = np.zeros((T, C), dtype=np.uint8)
    features = np.zeros((T, cfg.feature_dim), dtype=np.float64)
    for c, segs in segments.items():
        for s, e in segs:
            labels[s:e, c] = 1
            features[s:e] += emissions[c]
    features += rng.normal(0.0, cfg.noise_sigma, size=features.shape)
    return features.astype(np.float32), labels


def generate_synthetic(cfg: SynthConfig, out_dir) -> DatasetManifest:
    """Write feature/label files plus manifest.json under out_dir."""
    cfg.validate()
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(cfg.seed)
    emissions = emission_vectors(cfg)  # uses its own generator, same seed
    entries = []
    for i in range(cfg.num_videos):
        vid = f"v{i:05d}"
        features, labels = _generate_video(cfg, rng, emissions)
        fpath = f"features/{vid}.tsfv"
        lpath = f"labels/{vid}.tsfl"
        save_features(out_dir / fpath, features)
        save_labels(out_dir / lpath, labels)
        entries.append(VideoEntry(vid, fpath, lpath, features.shape[0]))

    manifest = DatasetManifest(cfg.class_names(), cfg.feature_dim, entries)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# label-scan verification and statistics
# ---------------------------------------------------------------------------

def _runs(column: np.ndarray):
    """Contiguous [start, end) runs of 1s."""
    padded = np.concatenate([[0], column, [0]])
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return list(zip(starts, ends))


def verify_paired_rules(dataset: Dataset, cfg: SynthConfig):
    """Scan labels only: every ambiguous segment must start gap frames after
    the end of a matching trigger segment, gap within the rule's range.
    Returns (checked, satisfied)."""
    checked = satisfied = 0
    for video in dataset.videos:
        for i, rule in enumerate(cfg.rules):
            a, b = cfg.ambiguous_pair(i)
            for amb_cls, trig_cls in ((a, rule.trigger_a), (b, rule.trigger_b)):
                trig_ends = [e for _, e in _runs(video.labels[:, trig_cls])]
                for start, _ in _runs(video.labels[:, amb_cls]):
                    checked += 1
                    if any(rule.gap_range[0] <= start - e <= rule.gap_range[1]
                           for e in trig_ends):
                        satisfied += 1
    return checked, satisfied


def dataset_stats(dataset: Dataset) -> dict:
    frames = sum(v.features.shape[0] for v in dataset.videos)
    positives = np.zeros(dataset.num_classes, dtype=np.int64)
    for v in dataset.videos:
        positives += v.labels.sum(axis=0, dtype=np.int64)
    return {
        "videos": len(dataset.videos),
        "classes": dataset.num_classes,
        "frames": frames,
        "positive_rate": {
            name: round(float(p) / frames, 6)
            for name, p in zip(dataset.class_names, positives)
        },
    }
