import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ap_oracle, ap_stable_oracle
from reports import mean_over
import superevents.evaluation as ev
from superevents.data import Dataset, Video
from superevents.evaluation import average_precision, evaluate
from superevents.model import init_model


def make_dataset(rng, videos=3, T=6, D=4, C=3):
    vids = []
    for i in range(videos):
        vids.append(
            Video(
                f"v{i}",
                rng.normal(size=(T, D)).astype(np.float32),
                rng.integers(0, 2, (T, C)).astype(np.uint8),
            )
        )
    return Dataset([f"c{j}" for j in range(C)], D, vids)


def test_perfect_ranking_is_one():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert average_precision(scores, labels) == pytest.approx(1.0)


def test_explicit_interleaved_ranking():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1, 0, 1, 0])
    assert average_precision(scores, labels) == pytest.approx((1 + 2 / 3) / 2)


def test_single_positive_frame():
    assert average_precision(np.array([0.3]), np.array([1])) == pytest.approx(1.0)


def test_no_positives_is_undefined():
    with pytest.raises(ValueError):
        average_precision(np.array([0.5, 0.2]), np.array([0, 0]))


@pytest.mark.parametrize("labels", [[2, 0], [1, 2], [1, -1], [0.5, 0.5], [1, np.nan]])
def test_labels_outside_0_and_1_are_rejected(labels):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        average_precision(np.array([0.9, 0.1]), np.array(labels))


def test_bool_labels_are_valid():
    assert average_precision(np.array([0.9, 0.1]), np.array([False, True])) == 0.5


def test_matches_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        F = int(rng.integers(1, 51))
        scores = rng.random(F)
        labels = rng.integers(0, 2, F)
        if labels.sum() == 0:
            labels[int(rng.integers(F))] = 1
        got = average_precision(scores, labels)
        want = ap_oracle(list(scores), list(labels))
        assert abs(got - want) < 1e-9


def test_ties_broken_by_original_order():
    scores = np.array([0.5, 0.5, 0.5])
    labels = np.array([0, 1, 1])
    # ranking keeps original order: precision 1/2 at rank 2, 2/3 at rank 3
    assert average_precision(scores, labels) == pytest.approx((1 / 2 + 2 / 3) / 2)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    labels[0] = 1
    a = average_precision(scores, labels)
    b = average_precision(5 * scores - 2, labels)
    c = average_precision(np.exp(scores), labels)
    assert a == pytest.approx(b) == pytest.approx(c)


def test_random_ranking_ap_near_positive_rate():
    rng = np.random.default_rng(2)
    F = 10_000
    for rate in (0.1, 0.35):
        labels = (rng.random(F) < rate).astype(int)
        scores = rng.random(F)
        ap = average_precision(scores, labels)
        assert abs(ap - labels.mean()) < 0.05


def test_evaluate_oracle_scores_give_map_one():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng)
    state = init_model("baseline", ds.feature_dim, ds.num_classes, ds.class_names,
                       0, 0, 0, rng)

    # force the prediction to equal the labels via a stub state
    class Oracle:
        feature_dim = ds.feature_dim
        num_classes = ds.num_classes
        class_names = ds.class_names

    import superevents.evaluation as ev

    orig = ev.predict_probabilities
    k = iter([v.labels.astype(np.float64) for v in ds.videos])
    ev.predict_probabilities = lambda s, f: next(k)
    try:
        report = ev.evaluate(Oracle(), ds)
    finally:
        ev.predict_probabilities = orig
    assert report.mean_ap == pytest.approx(1.0)
    assert all(ap == pytest.approx(1.0) for ap in report.ap_per_class)


def test_evaluate_excludes_classes_without_positives():
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, videos=2, C=3)
    for v in ds.videos:
        v.labels[:, 1] = 0
    state = init_model("baseline", ds.feature_dim, 3, ds.class_names, 0, 0, 0, rng)
    report = evaluate(state, ds)
    assert report.ap_per_class[1] is None
    assert 1 in report.excluded_classes
    assert report.evaluated_classes == [0, 2]
    assert report.mean_ap == pytest.approx(
        np.mean([report.ap_per_class[0], report.ap_per_class[2]])
    )


def test_evaluate_video_order_invariance():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, videos=4)
    state = init_model("mean", ds.feature_dim, ds.num_classes, ds.class_names,
                       0, 0, 0, rng)
    a = evaluate(state, ds)
    shuffled = Dataset(ds.class_names, ds.feature_dim, ds.videos[::-1])
    b = evaluate(state, shuffled)
    assert a.mean_ap == pytest.approx(b.mean_ap, abs=1e-12)
    for x, y in zip(a.ap_per_class, b.ap_per_class):
        assert x == pytest.approx(y, abs=1e-12)


def test_evaluate_dimension_mismatch():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng)
    state = init_model("baseline", ds.feature_dim + 1, ds.num_classes,
                       ds.class_names, 0, 0, 0, rng)
    with pytest.raises(ValueError):
        evaluate(state, ds)


def test_report_json_schema_and_table():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng)
    state = init_model("baseline", ds.feature_dim, ds.num_classes, ds.class_names,
                       0, 0, 0, rng)
    report = evaluate(state, ds)
    doc = json.loads(report.to_json())
    assert doc["schema_version"] == 1
    assert set(doc["ap_per_class"]) == set(ds.class_names)
    assert "protocol" in doc and "ap" in doc["protocol"]
    table = report.format_table()
    assert "mAP" in table and ds.class_names[0] in table
    assert 0.0 <= report.mean_ap <= 1.0
    assert mean_over(report, [0]) == pytest.approx(report.ap_per_class[0])


def _saturated_sigmoid(rng, n):
    logits = rng.normal(0, 40, n)
    logits[:2] = np.array([-800.0, 800.0])[:n]  # exactly 0.0 and 1.0 in float32
    with np.errstate(over="ignore"):
        return (1 / (1 + np.exp(-logits))).astype(np.float32)


# float32 NaNs: quiet, sign bit set, signalling, negative with a full payload,
# quiet with a payload
NAN32 = np.array([0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFBFFFFF, 0x7FC00123],
                 np.uint32).view(np.float32)
LONGDOUBLE_1E17_APART = np.longdouble(0.5) + np.arange(4) * np.longdouble("1e-17")

TIED_SCORES = {
    "sigmoid-float32-saturated": _saturated_sigmoid,
    "float64-1-decimal": lambda rng, n: np.round(rng.random(n), 1),
    "float64-2-decimals": lambda rng, n: np.round(rng.random(n), 2),
    "uint8": lambda rng, n: rng.integers(0, 256, n).astype(np.uint8),
    "bool": lambda rng, n: rng.random(n) < 0.5,
    "negative-int": lambda rng, n: rng.integers(-5, 5, n),
    "int8-with-min": lambda rng, n: rng.choice(np.array([-128, -1, 0, 127], np.int8), n),
    "signed-zeros-nans-float64": lambda rng, n: rng.choice([0.0, -0.0, 0.5, np.nan], n),
    "signed-zeros-nans-float32": lambda rng, n: rng.choice(
        np.array([0.0, -0.0, -0.5, np.inf, np.nan], np.float32), n),
    "float64-merged-in-float32": lambda rng, n: rng.choice(
        [0.5, np.nextafter(0.5, 1), np.nextafter(0.5, 0), -0.5, np.nextafter(-0.5, 0)], n),
    "float64-beyond-float32-and-inf": lambda rng, n: rng.choice(
        [1e300, -1e300, np.inf, -np.inf, 3.5e38, 1.0], n),
    "float64-subnormals-and-zeros": lambda rng, n: rng.choice(
        [5e-324, -5e-324, 1e-310, -1e-310, 0.0, -0.0], n),
    "float16": lambda rng, n: rng.choice(
        np.array([0.0, -0.0, 0.1, 0.1001, 65504, -np.inf, np.nan], np.float16), n),
    "longdouble-1e-17-apart": lambda rng, n: rng.choice(LONGDOUBLE_1E17_APART, n),
    "float32-nan-payloads": lambda rng, n: rng.choice(
        np.r_[NAN32, np.float32(0.5), np.float32(-0.0), np.float32(np.inf)], n),
}


def test_tied_score_kinds_keep_their_distinctions():
    # each kind exercises what its name says: the longdouble values are distinct
    # in longdouble only, and the float32 NaNs keep their bit patterns
    assert np.unique(LONGDOUBLE_1E17_APART).size == 4
    if np.finfo(np.longdouble).eps < 1e-17:
        assert np.unique(LONGDOUBLE_1E17_APART.astype(np.float64)).size == 1
    assert np.unique(NAN32.view(np.uint32)).size == NAN32.size and np.isnan(NAN32).all()
    assert np.float32(np.nextafter(0.5, 1)) == np.float32(0.5)


@pytest.mark.parametrize("n", [1, 2, 37, 70_000])  # 70,000 > 2**16
@pytest.mark.parametrize("kind", sorted(TIED_SCORES))
def test_ap_bitwise_equals_stable_argsort(kind, n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        scores = TIED_SCORES[kind](rng, n)
        labels = rng.integers(0, 2, n).astype(np.uint8)
        labels[rng.integers(n)] = 1
        assert average_precision(scores, labels) == ap_stable_oracle(scores, labels)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, np.nextafter(0.5, 1), 1.0, 1e300,
                              -1e300, 5e-324, -5e-324, np.inf, -np.inf, np.nan]),
             min_size=1, max_size=40),
    st.sampled_from([np.float16, np.float32, np.float64, np.longdouble]),
    st.data(),
)
def test_ap_bitwise_equals_stable_argsort_on_tie_heavy_arrays(values, dtype, data):
    with np.errstate(over="ignore"):
        scores = np.array(values).astype(dtype)
    if dtype is np.float32:  # NaNs of every sign and payload tie
        nans = data.draw(st.lists(st.integers(0, NAN32.size - 1), min_size=len(values),
                                  max_size=len(values)))
        scores = np.where(np.isnan(scores), NAN32[nans], scores)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(values),
                                         max_size=len(values))))
    labels[data.draw(st.integers(0, len(values) - 1))] = 1
    assert average_precision(scores, labels) == ap_stable_oracle(scores, labels)


def test_ranking_refuses_more_frames_than_the_tie_break_key_holds(monkeypatch):
    monkeypatch.setattr(ev, "_INDEX_BITS", 4)  # the key holds indices below 16
    labels = np.tile([1, 0, 0], 5)
    scores = np.round(np.linspace(0, 1, 15), 1)
    assert average_precision(scores, labels) == ap_stable_oracle(scores, labels)
    with pytest.raises(ValueError, match="tie-break key"):
        average_precision(np.zeros(16), np.ones(16))


def test_evaluate_json_is_bytewise_the_stable_argsort_report(monkeypatch):
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, videos=5, T=40, D=4, C=4)
    attended = init_model("attended", ds.feature_dim, ds.num_classes, ds.class_names,
                          3, 2, 0, rng)
    attended64 = init_model("attended", ds.feature_dim, ds.num_classes, ds.class_names,
                            3, 2, 0, rng, dtype=np.float64)
    constant = init_model("baseline", ds.feature_dim, ds.num_classes, ds.class_names,
                          0, 0, 0, rng)
    for params in constant.params.values():
        params[...] = 0  # every probability is 0.5: one tie over all frames
    cases = [(attended, ds), (attended64, ds), (constant, ds)]
    long = make_dataset(rng, videos=3, T=25_000, D=4, C=3)  # 75,000 frames > 2**16
    for dtype in (np.float32, np.float64):
        saturated = init_model("baseline", long.feature_dim, long.num_classes,
                               long.class_names, 0, 0, 0, rng, dtype=dtype)
        saturated.params["classifier_weight"] *= 1000
        probs = ev.predict_probabilities(saturated, long.videos[0].features)
        with np.errstate(under="ignore"):
            narrow = probs.astype(np.float32)
        # many exact 0.0 and 1.0 ties; in float64, many more that float32 merges
        assert probs.dtype == dtype
        assert min((probs == 0).sum(), (probs == 1).sum()) > 1000
        assert dtype is np.float32 or ((narrow == 0) & (probs != 0)).sum() > 1000
        cases.append((saturated, long))
    for state, data in cases:
        got = evaluate(state, data).to_json()
        monkeypatch.setattr(ev, "average_precision", ap_stable_oracle)
        want = evaluate(state, data).to_json()
        monkeypatch.undo()
        assert got == want
