"""Whatever bytes a features, labels, checkpoint or manifest file holds, its
loader returns a value of the promised form or raises a FormatError that
names the file, and nothing else.

Each case starts from a small valid file, then truncates it, overwrites or
appends bytes, or, for the JSON of a checkpoint header or a manifest, edits
values anywhere in the document.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from superevents.data import (
    DatasetManifest,
    VideoEntry,
    load_features,
    load_labels,
    load_manifest,
    save_features,
    save_labels,
    save_manifest,
)
from superevents.errors import FormatError
from superevents.model import init_model, load_checkpoint, save_checkpoint

LOADERS = {
    "features": load_features,
    "labels": load_labels,
    "checkpoint": load_checkpoint,
    "manifest": load_manifest,
}
CLASSES = 8  # the checkpoint's classifier weight is (8, D): see the pinned shape


def valid_files():
    """Kind -> the bytes of a small valid file of that kind."""
    rng = np.random.default_rng(0)
    state = init_model("baseline", 2, CLASSES, [f"c{i}" for i in range(CLASSES)],
                       0, 0, 0, rng)
    state.adam_m = {k: np.full_like(v, 0.25) for k, v in state.params.items()}
    state.adam_v = {k: np.full_like(v, 0.5) for k, v in state.params.items()}
    state.adam_t = state.iteration = 3
    state.rng_state = rng.bit_generator.state
    state.config = {"lr": 0.1, "variant": "baseline"}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        save_features(out / "features", rng.normal(size=(3, 2)).astype(np.float32))
        save_labels(out / "labels", rng.integers(0, 2, (3, 2)))
        save_checkpoint(state, out / "checkpoint")
        save_manifest(DatasetManifest(["a", "b"], 2, [VideoEntry("v0", "f.tsfv",
                                                                 "l.tsfl", 3)]),
                      out / "manifest")
        return {kind: (out / kind).read_bytes() for kind in LOADERS}


VALID = valid_files()


def check_promised_form(kind, value):
    """What each loader promises of the value it returns."""
    if kind == "features":
        assert value.dtype == np.float32 and value.ndim == 2 and value.size > 0
    elif kind == "labels":
        assert value.dtype == np.uint8 and value.ndim == 2 and value.max() <= 1
    elif kind == "manifest":
        assert all(isinstance(name, str) for name in value.class_names)
        assert all(type(v.length) is int and v.length >= 0 for v in value.videos)
    else:
        assert [type(name) for name in value.class_names] == [str] * value.num_classes
        assert all(type(n) is int and n >= 0 for n in (value.adam_t, value.iteration))
        assert isinstance(value.config, dict)
        if value.rng_state is not None:  # training can resume from it
            np.random.PCG64().state = value.rng_state
        for arrays in (value.params, value.adam_m, value.adam_v):
            assert all(np.isfinite(arr).all() for arr in arrays.values())


def load(tmp_path_factory, kind, raw):
    """The loaded value, checked, or None when the loader raised FormatError."""
    path = tmp_path_factory.getbasetemp() / f"case.{kind}"
    path.write_bytes(raw)
    try:
        value = LOADERS[kind](path)
    except FormatError as exc:
        assert str(path) in str(exc)
        return None
    check_promised_form(kind, value)
    return value


# ---------------------------------------------------------------------------
# bytes
# ---------------------------------------------------------------------------

mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("overwrite"), st.integers(0, 1 << 16), st.binary(min_size=1,
                                                                        max_size=8)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
)


def mutate(raw: bytes, mutation) -> bytes:
    if mutation[0] == "truncate":
        return raw[: mutation[1] % len(raw)]
    if mutation[0] == "overwrite":
        at = mutation[1] % len(raw)
        return raw[:at] + mutation[2] + raw[at + len(mutation[2]):]
    return raw + mutation[1]


@pytest.mark.parametrize("kind", LOADERS)
@settings(deadline=None, max_examples=150)
@given(mutation=mutations)
@example(mutation=("append", b"\0"))
def test_mutated_bytes_load_or_raise_format_error(tmp_path_factory, kind, mutation):
    value = load(tmp_path_factory, kind, mutate(VALID[kind], mutation))
    if kind != "manifest" and mutation[0] != "overwrite":
        assert value is None, "a binary file shorter or longer than declared loaded"


# ---------------------------------------------------------------------------
# JSON values
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([-1, 0, 2**31, 2**61, 2**64, "<f4", ">f8", "<f16", "O", "<U3",
                       "V8", "(2,)f4", "f4,f4", "params/classifier_bias", "/abs"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
DELETE = object()


def paths(doc, prefix=()):
    """The path of every value in a JSON document, the document's own first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from paths(value, prefix + (key,))


def edited(doc, edits):
    """doc with each (path, value) edit applied; a value of DELETE removes the
    entry, and an edit whose path an earlier edit removed is skipped."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        if not path:
            doc = None if value is DELETE else value
            continue
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return doc


def edits_of(doc):
    return st.lists(st.tuples(st.sampled_from(list(paths(doc))),
                              json_values | st.just(DELETE)), min_size=1, max_size=4)


def checkpoint_with_header(raw: bytes, header) -> bytes:
    (length,) = struct.unpack("<I", raw[8:12])
    new = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length:]


def checkpoint_header(raw: bytes):
    (length,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12 : 12 + length])


HEADER = checkpoint_header(VALID["checkpoint"])
MANIFEST = json.loads(VALID["manifest"])
WEIGHTS = [i for i, entry in enumerate(HEADER["tensors"])
           if entry["name"].endswith("classifier_weight")]


@settings(deadline=None, max_examples=250)
@given(edits=edits_of(HEADER))
@example(edits=[(("class_names",), 5)])
@example(edits=[(("rng_state",), {"bit_generator": "PCG64", "state": {"state": 1}})])
@example(edits=[(("feature_dim",), 2**61)]  # the weights' int64 byte count wraps to 0
         + [(("tensors", i, "shape"), [CLASSES, 2**61]) for i in WEIGHTS])
def test_edited_checkpoint_header_loads_or_raises_format_error(tmp_path_factory, edits):
    load(tmp_path_factory, "checkpoint",
         checkpoint_with_header(VALID["checkpoint"], edited(HEADER, edits)))


@settings(deadline=None, max_examples=250)
@given(edits=edits_of(MANIFEST))
def test_edited_manifest_loads_or_raises_format_error(tmp_path_factory, edits):
    load(tmp_path_factory, "manifest",
         json.dumps(edited(MANIFEST, edits)).encode("utf-8"))
