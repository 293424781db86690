import numpy as np
import pytest

from reports import failing_groups
from superevents import training
from superevents.data import Dataset, PairedRule, SynthConfig, generate_synthetic, load_dataset
from superevents.errors import NumericError
from superevents.model import ModelState, load_checkpoint, loss_and_grads, save_checkpoint
from superevents.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainConfig,
    adam_step,
    effective_lr,
    gradcheck,
    train,
)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyds")
    cfg = SynthConfig(
        num_videos=4,
        t_range=(25, 40),
        feature_dim=5,
        base_classes=2,
        rules=(PairedRule(0, 1, (2, 4), (0.1, 0.6)),),
        noise_sigma=0.3,
        event_len_range=(3, 6),
        seed=99,
    )
    generate_synthetic(cfg, out)
    return load_dataset(out / "manifest.json")


def quick_config(**kw):
    base = dict(lr=0.01, iterations=3, batch_size=2, dropout=0.0,
                num_filters=2, num_distributions=2, seed=5, variant="attended")
    base.update(kw)
    return TrainConfig(**base)


def params_bytes(state: ModelState):
    return {k: v.tobytes() for k, v in state.params.items()}


# ---------------------------------------------------------------------------
# Adam and the schedule
# ---------------------------------------------------------------------------

def test_adam_matches_scalar_recurrence():
    # independent two-step scalar recurrence, plain Python floats
    lr, g1, g2, p = 0.1, 0.3, -0.2, 1.0
    m = v = 0.0
    expect = p
    for t, g in ((1, g1), (2, g2)):
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1**t)
        vhat = v / (1 - ADAM_BETA2**t)
        expect -= lr * mhat / (vhat**0.5 + ADAM_EPS)

    state = ModelState(
        variant="baseline", feature_dim=1, num_classes=1, num_distributions=0,
        num_filters=0, kernel_length=0, class_names=["a"],
        params={"w": np.array([1.0])},
    )
    adam_step(state, {"w": np.array([g1])}, lr)
    adam_step(state, {"w": np.array([g2])}, lr)
    assert state.params["w"][0] == pytest.approx(expect, rel=1e-12)
    assert state.adam_t == 2


def test_effective_lr_schedule():
    cfg = TrainConfig(lr=0.1, lr_decay_every=1000, lr_decay_factor=0.1)
    assert effective_lr(cfg, 0) == pytest.approx(0.1)
    assert effective_lr(cfg, 999) == pytest.approx(0.1)
    assert effective_lr(cfg, 1000) == pytest.approx(0.01)
    assert effective_lr(cfg, 2500) == pytest.approx(0.001)


def test_config_defaults_match_recipe():
    cfg = TrainConfig()
    assert cfg.lr == 0.1
    assert cfg.lr_decay_every == 1000 and cfg.lr_decay_factor == 0.1
    assert cfg.iterations == 5000
    assert cfg.batch_size == 32
    assert cfg.dropout == 0.5
    assert cfg.num_filters == 5 and cfg.num_distributions == 3


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1).validate()
    with pytest.raises(ValueError):
        TrainConfig(lr_decay_every=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(variant="relative", kernel_length=4).validate()
    TrainConfig(lr=0.0).validate()  # null step is allowed


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_same_seed_bitwise_identical(tiny_dataset):
    for dropout in (0.0, 0.5):
        a, _ = train(quick_config(dropout=dropout), tiny_dataset)
        b, _ = train(quick_config(dropout=dropout), tiny_dataset)
        assert params_bytes(a) == params_bytes(b)


def test_different_seed_differs(tiny_dataset):
    a, _ = train(quick_config(seed=1), tiny_dataset)
    b, _ = train(quick_config(seed=2), tiny_dataset)
    assert params_bytes(a) != params_bytes(b)


def test_zero_lr_is_null_step(tiny_dataset):
    cfg = quick_config(lr=0.0, iterations=4, batch_size=len(tiny_dataset.videos))
    state0, _ = train(quick_config(lr=0.0, iterations=0), tiny_dataset)
    state, losses = train(cfg, tiny_dataset)
    # batch == all videos without replacement and no dropout: constant history
    assert len(set(losses)) == 1
    fresh, _ = train(quick_config(lr=0.0, iterations=0, batch_size=4), tiny_dataset)
    assert params_bytes(state) == params_bytes(fresh)


def test_loss_stream_and_callback(tiny_dataset):
    seen = []
    _, losses = train(quick_config(iterations=5), tiny_dataset,
                      on_iteration=lambda i, lr, l: seen.append((i, lr, l)))
    assert len(losses) == 5
    assert [s[0] for s in seen] == [1, 2, 3, 4, 5]
    assert all(s[1] == 0.01 for s in seen)
    assert [s[2] for s in seen] == losses


def test_training_reduces_loss(tiny_dataset):
    _, losses = train(quick_config(iterations=60, lr=0.02, batch_size=4),
                      tiny_dataset)
    assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:5])


@pytest.mark.parametrize("variant", ["baseline", "max", "mean", "pyramid3",
                                     "single", "attended", "relative"])
def test_all_variants_train(tiny_dataset, variant):
    cfg = quick_config(variant=variant, iterations=2, kernel_length=5)
    state, losses = train(cfg, tiny_dataset)
    assert state.iteration == 2
    assert np.isfinite(losses).all()


def test_save_load_resume_matches_uninterrupted(tiny_dataset, tmp_path):
    full_cfg = quick_config(iterations=6, dropout=0.5)
    full, _ = train(full_cfg, tiny_dataset)

    half, _ = train(quick_config(iterations=3, dropout=0.5), tiny_dataset)
    path = tmp_path / "half.ckpt"
    save_checkpoint(half, path)
    resumed = load_checkpoint(path)
    resumed, _ = train(full_cfg, tiny_dataset, state=resumed)

    assert params_bytes(full) == params_bytes(resumed)
    assert {k: v.tobytes() for k, v in full.adam_m.items()} == {
        k: v.tobytes() for k, v in resumed.adam_m.items()
    }
    assert full.rng_state == resumed.rng_state


def test_resume_dimension_mismatch(tiny_dataset, tmp_path):
    state, _ = train(quick_config(iterations=1), tiny_dataset)
    state.feature_dim += 1
    with pytest.raises(ValueError):
        train(quick_config(iterations=2), tiny_dataset, state=state)
    state.feature_dim -= 1
    with pytest.raises(ValueError):
        train(quick_config(iterations=2, variant="baseline"), tiny_dataset, state=state)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train(quick_config(), Dataset(["a"], 3, []))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_loss_aborts(tiny_dataset):
    cfg = quick_config(iterations=1)
    state, _ = train(quick_config(iterations=0), tiny_dataset)
    state.params["classifier_bias"][0] = np.nan
    with pytest.raises(NumericError):
        train(cfg, tiny_dataset, state=state)


def test_dropout_changes_draws_but_not_eval(tiny_dataset):
    from superevents.model import predict_probabilities

    a, _ = train(quick_config(iterations=2, dropout=0.0, seed=3), tiny_dataset)
    b, _ = train(quick_config(iterations=2, dropout=0.6, seed=3), tiny_dataset)
    assert params_bytes(a) != params_bytes(b)
    # evaluation path is deterministic regardless of training dropout
    v = tiny_dataset.videos[0].features
    assert np.array_equal(predict_probabilities(b, v), predict_probabilities(b, v))


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_passes_default_instance():
    report = gradcheck(quick_config(), instance_seed=0)
    assert report.passed, report.format()
    assert set(report.max_rel_err) == {
        "filter_centers", "filter_widths", "attention_logits",
        "classifier_weight", "classifier_bias",
    }


def test_gradcheck_corrupted_backward_fails_named_group(monkeypatch):
    def corrupted(state, features, labels):
        loss, grads = loss_and_grads(state, features, labels)
        grads["filter_widths"] = grads["filter_widths"] + 1e-2
        return loss, grads

    monkeypatch.setattr(training, "loss_and_grads", corrupted)
    report = gradcheck(quick_config(), instance_seed=0)
    assert not report.passed
    assert failing_groups(report) == ["filter_widths"]
    assert "filter_widths" in report.format()


def test_gradcheck_ignores_dropout_setting():
    a = gradcheck(quick_config(dropout=0.0), instance_seed=4)
    b = gradcheck(quick_config(dropout=0.9), instance_seed=4)
    assert a.max_rel_err == b.max_rel_err


@pytest.mark.parametrize("variant", ["baseline", "mean", "pyramid3", "single",
                                     "attended", "relative"])
def test_gradcheck_variants(variant):
    report = gradcheck(quick_config(variant=variant), instance_seed=11)
    assert report.passed, report.format()
