import json

import numpy as np
import pytest

from oracles import ap_oracle
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
    assert report.mean_over([0]) == pytest.approx(report.ap_per_class[0])
