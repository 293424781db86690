"""Dataset I/O, the rules of every file format, and the synthetic
multi-activity benchmark generator.

File formats (the public data contract; little-endian throughout):

* features — magic ``TSFV``, u32 version (=1), u32 T, u32 D, then T*D
  finite float32 values, frame-major.
* labels   — magic ``TSFL``, u32 version (=1), u32 T, u32 C, then T*C
  bytes, each 0 or 1.
* manifest — UTF-8 JSON: schema_version, class_names, feature_dim, and a
  video list of {id, feature_path, label_path, length}; paths are relative
  to the manifest's directory.

Checkpoints (``model``) are the third binary format. ``write_container``
and ``read_container`` serve all three (reading checks every declared
size, truncation and trailing bytes); ``parse_json`` and ``check_fields``,
one table of field checks, serve all JSON. A malformed file is a
``FormatError`` naming the file and what is wrong with it.

The generator builds videos whose ambiguous class pairs share an identical
per-frame emission vector and differ only in which trigger class precedes
them, so no frame-level classifier can separate a pair while a model with
temporal context can. Each rule's trigger->ambiguous chain is placed inside
a per-rule band of the video's free span, giving the chains consistent
relative positions across videos of any length. Generation is single-
threaded and fully determined by the config seed.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
from dataclasses import dataclass, fields, asdict
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
    "write_container",
    "read_container",
    "parse_json",
    "check_fields",
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
# binary files
# ---------------------------------------------------------------------------

def write_container(path, magic: bytes, header: bytes, arrays) -> None:
    """Magic, u32 FORMAT_VERSION, the header, then each array's bytes,
    little-endian and C-ordered."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", FORMAT_VERSION) + header)
        for arr in arrays:
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def read_container(path, magic: bytes, layout):
    """(header, arrays) of a file write_container wrote. ``layout(take)``
    parses the header through ``take(n)``, the next n bytes, and returns it
    with a ``(name, numpy dtype, shape)`` per array. Sizes are Python ints,
    so no shape wraps."""
    raw = Path(path).read_bytes()
    offset = 0

    def take(n):
        nonlocal offset
        if len(raw) < offset + n:
            raise TruncatedPayloadError(f"{path}: file ends inside its header")
        offset += n
        return raw[offset - n : offset]

    if take(4) != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, found {raw[:4]!r}")
    (version,) = struct.unpack("<I", take(4))
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported format version {version}")
    header, specs = layout(take)
    for name, _, shape in specs:
        if math.prod(shape) > MAX_ELEMENTS:
            raise DimensionOverflowError(f"{path}: {name} of shape {list(shape)} "
                                         f"exceeds the {MAX_ELEMENTS}-element bound")
    expected = offset + sum(dt.itemsize * math.prod(shape) for _, dt, shape in specs)
    if len(raw) < expected:
        raise TruncatedPayloadError(f"{path}: truncated payload, need {expected} "
                                    f"bytes, have {len(raw)}")
    if len(raw) > expected:
        raise FormatError(f"{path}: {len(raw) - expected} trailing bytes")
    arrays = []
    for _, dtype, shape in specs:
        arr = np.frombuffer(raw, dtype, math.prod(shape), offset).reshape(shape)
        arrays.append(arr.astype(dtype.newbyteorder("=")))
        offset += arr.nbytes
    return header, arrays


def _load_matrix(path, magic: bytes, dtype: np.dtype) -> np.ndarray:
    def layout(take):
        rows, cols = struct.unpack("<II", take(8))
        if rows == 0 or cols == 0:
            raise FormatError(f"{path}: zero dimension ({rows} x {cols})")
        return None, [("payload", dtype, (rows, cols))]

    return read_container(path, magic, layout)[1][0]


def save_features(path, features: np.ndarray) -> None:
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise ValueError("features must be T x D")
    write_container(path, FEATURE_MAGIC, struct.pack("<II", *features.shape), [features])


def load_features(path) -> np.ndarray:
    features = _load_matrix(path, FEATURE_MAGIC, np.dtype("<f4"))
    if not np.isfinite(features).all():
        raise FormatError(f"{path}: features are not finite")
    return features


def save_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be T x C")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    write_container(path, LABEL_MAGIC, struct.pack("<II", *labels.shape), [labels])


def load_labels(path) -> np.ndarray:
    z = _load_matrix(path, LABEL_MAGIC, np.dtype(np.uint8))
    if z.max() > 1:
        raise FormatError(f"{path}: label bytes must be 0 or 1")
    return z


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def parse_json(raw: bytes, path, what: str):
    """The UTF-8 JSON document in raw; FormatError if it does not decode."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: {what} is not UTF-8 JSON: {exc}") from exc


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_rng_state(value) -> bool:
    try:
        np.random.PCG64(0).state = value
    except (TypeError, ValueError, KeyError, OverflowError):
        return value is None  # a model that has not trained
    return True


def _is_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_pair(check):
    return lambda v: isinstance(v, list) and len(v) == 2 and all(map(check, v))


# each field of the manifest, its videos, the checkpoint header and its
# tensors, and of a synth config and its rules: the check its value passes,
# and what that check asks for
_FIELD_CHECKS = {
    **dict.fromkeys(("feature_dim", "length", "num_classes", "num_distributions",
                     "num_filters", "kernel_length", "adam_t", "iteration",
                     "num_videos", "base_classes", "seed", "trigger_a", "trigger_b"),
                    (_is_count, "a non-negative integer")),
    **dict.fromkeys(("t_range", "event_len_range", "background_events", "gap_range"),
                    (_is_pair(_is_count), "a pair of non-negative integers")),
    "band": (_is_pair(_is_number), "a pair of finite numbers"),
    "noise_sigma": (_is_number, "a finite number"),
    **dict.fromkeys(("id", "variant", "name", "dtype"),
                    (lambda v: isinstance(v, str), "a string")),
    **dict.fromkeys(("videos", "tensors", "rules"),
                    (lambda v: isinstance(v, list), "a list")),
    **dict.fromkeys(("feature_path", "label_path"), (
        lambda v: isinstance(v, str) and not Path(v).is_absolute(), "a relative path")),
    "class_names": (lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
                    "a list of strings"),
    "shape": (lambda v: isinstance(v, list) and all(map(_is_count, v)),
              "a list of non-negative integers"),
    "config": (lambda v: isinstance(v, dict), "a JSON object"),
    "rng_state": (_is_rng_state, "null or a PCG64 generator state"),
}
_MANIFEST_FIELDS = ("class_names", "feature_dim", "videos")
_VIDEO_FIELDS = ("id", "feature_path", "label_path", "length")


def check_fields(doc, keys, path, what: str, exact: bool = False, optional=()) -> dict:
    """doc, if it is a JSON object holding each of keys, perhaps some of
    optional (and, if exact, no other key), each with a value that passes its
    check; FormatError otherwise."""
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: {what} is not a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise FormatError(f"{path}: {what} lacks {missing[0]}")
    unknown = sorted(set(doc) - {*keys, *optional})
    if exact and unknown:
        raise FormatError(f"{path}: {what} has unknown field(s) {', '.join(unknown)}")
    for key in (*keys, *optional):
        passes, wanted = _FIELD_CHECKS[key]
        if key in doc and not passes(doc[key]):
            raise FormatError(f"{path}: {what} {key} {doc[key]!r:.80} is not {wanted}")
    return doc


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
    doc = parse_json(Path(path).read_bytes(), path, "manifest")
    if isinstance(doc, dict) and doc.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported manifest schema {doc.get('schema_version')!r}"
        )
    check_fields(doc, _MANIFEST_FIELDS, path, "manifest")
    videos = [VideoEntry(**check_fields(v, _VIDEO_FIELDS, path, f"video {i}", exact=True))
              for i, v in enumerate(doc["videos"])]
    return DatasetManifest(doc["class_names"], doc["feature_dim"], videos)


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


def _tuples(doc: dict) -> dict:
    return {key: tuple(v) if isinstance(v, list) else v for key, v in doc.items()}


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

    def validate(self) -> "SynthConfig":
        """self, if every value is in range; ValueError naming the field and
        its range otherwise."""
        def require(ok, name, value, wanted):
            if not ok:
                raise ValueError(f"{name} {value!r} must be {wanted}")

        for name in ("num_videos", "feature_dim", "base_classes"):
            require(getattr(self, name) >= 1, name, getattr(self, name), ">= 1")
        require(self.seed >= 0, "seed", self.seed, ">= 0")
        require(0 <= self.noise_sigma < math.inf, "noise_sigma", self.noise_sigma,
                "finite and >= 0")
        for name, least in (("t_range", 1), ("event_len_range", 1), ("background_events", 0)):
            lo, hi = getattr(self, name)
            require(least <= lo <= hi, name, (lo, hi), f"a pair with {least} <= lo <= hi")
        require(self.event_len_range[0] <= self.t_range[0], "event_len_range",
                self.event_len_range, f"a pair whose lo is at most t_range's lo, "
                f"{self.t_range[0]}")
        for i, r in enumerate(self.rules):
            for name in ("trigger_a", "trigger_b"):
                require(0 <= getattr(r, name) < self.base_classes, f"rules[{i}].{name}",
                        getattr(r, name), f"a base class, below {self.base_classes}")
            require(r.trigger_b != r.trigger_a, f"rules[{i}].trigger_b", r.trigger_b,
                    "other than trigger_a")
            require(0 <= r.gap_range[0] <= r.gap_range[1], f"rules[{i}].gap_range",
                    r.gap_range, "a pair with 0 <= lo <= hi")
            require(0 <= r.band[0] <= r.band[1] <= 1, f"rules[{i}].band", r.band,
                    "a pair with 0 <= lo <= hi <= 1")
        return self

    @classmethod
    def from_dict(cls, doc, path) -> "SynthConfig":
        """The config a synth config JSON document read from path describes;
        FormatError naming path and the field if a value is malformed, or out
        of range on its own."""
        check_fields(doc, (), path, "synth config", exact=True,
                     optional=[f.name for f in fields(cls)])
        values = _tuples(doc)
        if "rules" in doc:
            values["rules"] = tuple(
                PairedRule(**_tuples(check_fields(
                    rule, ("trigger_a", "trigger_b"), path, f"synth config rules[{i}]",
                    exact=True, optional=("gap_range", "band"))))
                for i, rule in enumerate(doc["rules"]))
        try:
            return cls(**values).validate()
        except ValueError as exc:
            raise FormatError(f"{path}: synth config {exc}") from exc


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
    """Write feature/label files plus manifest.json under out_dir. If a step
    fails, every directory and file this call created is removed again."""
    cfg.validate()
    out_dir = Path(out_dir)
    made = []  # outermost first, so removing in reverse empties each directory

    def create(path: Path) -> Path:
        if not path.exists():
            made.append(path)
        return path

    try:
        for d in (*reversed(out_dir.parents), out_dir, out_dir / "features",
                  out_dir / "labels"):
            create(d).mkdir(exist_ok=True)
        rng = np.random.default_rng(cfg.seed)
        emissions = emission_vectors(cfg)  # uses its own generator, same seed
        entries = []
        for i in range(cfg.num_videos):
            vid = f"v{i:05d}"
            features, labels = _generate_video(cfg, rng, emissions)
            fpath, lpath = f"features/{vid}.tsfv", f"labels/{vid}.tsfl"
            save_features(create(out_dir / fpath), features)
            save_labels(create(out_dir / lpath), labels)
            entries.append(VideoEntry(vid, fpath, lpath, features.shape[0]))
        manifest = DatasetManifest(cfg.class_names(), cfg.feature_dim, entries)
        save_manifest(manifest, create(out_dir / "manifest.json"))
    except BaseException:
        for path in reversed(made):
            with contextlib.suppress(OSError):
                path.rmdir() if path.is_dir() else path.unlink()
        raise
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
