import numpy as np
import pytest

from superevents import filters
from superevents.detector import bce_loss
from superevents.errors import BadMagicError, TruncatedPayloadError, UnsupportedVersionError
from superevents.model import (
    VARIANTS,
    context_dim,
    forward_logits,
    init_model,
    load_checkpoint,
    loss_and_grads,
    predict_probabilities,
    save_checkpoint,
)

LD = np.longdouble


def make_state(variant, rng, D=4, C=3, N=2, M=2, L=5, dtype=np.float64):
    state = init_model(variant, D, C, [f"c{i}" for i in range(C)], N, M, L, rng,
                       dtype=dtype)
    for k in state.params:
        state.params[k] = state.params[k] + rng.normal(0, 0.3, state.params[k].shape
                                                       ).astype(dtype)
    return state


def test_param_sets_per_variant():
    rng = np.random.default_rng(0)
    expect = {
        "baseline": {"classifier_weight", "classifier_bias"},
        "max": {"classifier_weight", "classifier_bias"},
        "mean": {"classifier_weight", "classifier_bias"},
        "pyramid3": {"classifier_weight", "classifier_bias"},
        "single": {"filter_centers", "filter_widths", "classifier_weight",
                   "classifier_bias"},
        "attended": {"filter_centers", "filter_widths", "attention_logits",
                     "classifier_weight", "classifier_bias"},
        "relative": {"filter_centers", "filter_widths", "attention_logits",
                     "classifier_weight", "classifier_bias"},
    }
    for variant in VARIANTS:
        state = make_state(variant, rng)
        assert set(state.params) == expect[variant]
    # widths
    s = make_state("pyramid3", rng, D=4, C=3)
    assert s.params["classifier_weight"].shape == (3, 4 + 7 * 4)
    s = make_state("single", rng, D=4, C=3, N=2)
    assert s.params["filter_centers"].shape == (3, 2)
    assert s.params["classifier_weight"].shape == (3, 4 + 2 * 4)
    s = make_state("attended", rng, D=4, C=3, N=2, M=2)
    assert s.params["filter_centers"].shape == (2, 2)
    assert s.params["attention_logits"].shape == (3, 2)


def test_context_dim():
    assert context_dim("baseline", 4, 3) == 0
    assert context_dim("max", 4, 3) == 4
    assert context_dim("pyramid3", 4, 3) == 28
    assert context_dim("attended", 4, 3) == 12


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        init_model("lstm", 4, 3, ["a", "b", "c"], 2, 2, 5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        init_model("relative", 4, 3, ["a", "b", "c"], 2, 2, 4, np.random.default_rng(0))


def test_probabilities_shape_and_range():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(9, 4))
    for variant in VARIANTS:
        state = make_state(variant, rng)
        p = predict_probabilities(state, v)
        assert p.shape == (9, 3)
        assert np.all((p > 0) & (p < 1))


def test_loss_decreases_along_gradient():
    # a tiny manual SGD step along -grad must reduce the loss for every variant
    rng = np.random.default_rng(2)
    v = rng.normal(size=(8, 4))
    z = rng.integers(0, 2, (8, 3)).astype(np.uint8)
    for variant in VARIANTS:
        state = make_state(variant, rng)
        loss0, grads = loss_and_grads(state, v, z)
        for k, g in grads.items():
            state.params[k] = state.params[k] - 0.05 * g
        loss1, _ = loss_and_grads(state, v, z)
        assert loss1 < loss0, variant


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_loss_is_bce_of_eval_logits_bitwise(dtype):
    # training, eval and gradcheck's finite differences share one forward
    rng = np.random.default_rng(9)
    for variant in VARIANTS:
        state = make_state(variant, rng, dtype=dtype)
        v = rng.normal(size=(11, 4)).astype(dtype)
        z = rng.integers(0, 2, (11, 3)).astype(np.uint8)
        loss, _ = loss_and_grads(state, v, z)
        assert loss == bce_loss(forward_logits(state, v), z), variant


def fd_check(state, v, z, h=1e-5, tol=1e-4):
    _, analytic = loss_and_grads(state, v, z)

    def loss():
        return bce_loss(forward_logits(state, v), z)

    for name, arr in state.params.items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss()
            flat[i] = orig - h
            lo = loss()
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            a = float(analytic[name].reshape(-1)[i])
            rel = abs(a - float(fd)) / max(abs(a), abs(float(fd)), 1e-8)
            assert rel < tol, (name, i, rel)


@pytest.mark.parametrize("variant", ["baseline", "mean", "pyramid3", "single",
                                     "attended", "relative"])
def test_variant_gradients_match_finite_differences(variant):
    rng = np.random.default_rng(3)
    for trial in range(3):
        state = make_state(variant, rng, dtype=LD)
        v = rng.normal(size=(8, 4)).astype(LD)
        z = rng.integers(0, 2, (8, 3)).astype(np.uint8)
        fd_check(state, v, z)


@pytest.mark.parametrize("variant, builds", [("single", 1), ("attended", 2),
                                             ("relative", 1)])
def test_filter_positions_computed_once_per_build(monkeypatch, variant, builds):
    # stack_backward reads materialize_stack's cache; only attended's backward
    # materializes its stack a second time
    calls = []
    positions = filters._frame_positions
    monkeypatch.setattr(filters, "_frame_positions",
                        lambda *args: calls.append(args) or positions(*args))
    rng = np.random.default_rng(4)
    state = make_state(variant, rng)
    v = rng.normal(size=(9, 4))
    z = rng.integers(0, 2, (9, 3)).astype(np.uint8)
    loss_and_grads(state, v, z)
    assert len(calls) == builds


def test_single_variant_uses_per_class_filters():
    rng = np.random.default_rng(4)
    state = make_state("single", rng, D=2, C=2, N=1)
    v = rng.normal(size=(6, 2))
    # swapping the two classes' filters must change per-class logits only
    # through the context block
    logits0 = forward_logits(state, v)
    state.params["filter_centers"] = state.params["filter_centers"][::-1].copy()
    state.params["filter_widths"] = state.params["filter_widths"][::-1].copy()
    logits1 = forward_logits(state, v)
    assert not np.allclose(logits0, logits1)


def test_global_context_is_constant_over_frames():
    # attended and single add one per-class constant per video to the frame's
    # own linear score, so within a video they rank frames like a per-frame
    # linear classifier; relative's per-frame context varies along time
    rng = np.random.default_rng(8)
    D = 4
    v = rng.normal(size=(12, D))
    for variant in ("attended", "single"):
        state = make_state(variant, rng, D=D)
        rest = forward_logits(state, v) - v @ state.params["classifier_weight"][:, :D].T
        np.testing.assert_allclose(rest, np.broadcast_to(rest[0], rest.shape),
                                   rtol=0, atol=1e-12)
    state = make_state("relative", rng, D=D, L=5)
    rest = forward_logits(state, v) - v @ state.params["classifier_weight"][:, :D].T
    assert np.ptp(rest, axis=0).min() > 1e-3


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    state = make_state("attended", rng, dtype=np.float32)
    state.adam_m = {k: np.full_like(v, 0.25) for k, v in state.params.items()}
    state.adam_v = {k: np.full_like(v, 0.5) for k, v in state.params.items()}
    state.adam_t = 7
    state.iteration = 42
    state.rng_state = np.random.default_rng(9).bit_generator.state
    state.config = {"lr": 0.1, "variant": "attended"}

    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    back = load_checkpoint(path)

    assert back.variant == state.variant
    assert back.iteration == 42 and back.adam_t == 7
    assert back.rng_state == state.rng_state
    assert back.config == state.config
    assert back.class_names == state.class_names
    assert set(back.params) == set(state.params)
    for k in state.params:
        assert state.params[k].tobytes() == back.params[k].tobytes()
        assert state.params[k].dtype == back.params[k].dtype
        assert state.adam_m[k].tobytes() == back.adam_m[k].tobytes()
        assert state.adam_v[k].tobytes() == back.adam_v[k].tobytes()


def test_checkpoint_error_paths(tmp_path):
    rng = np.random.default_rng(6)
    state = make_state("baseline", rng, dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BadMagicError):
        load_checkpoint(bad)
    bad.write_bytes(raw[:-3])
    with pytest.raises(TruncatedPayloadError):
        load_checkpoint(bad)
    import struct

    bad.write_bytes(raw[:4] + struct.pack("<II", 99, 0) + raw[12:])
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(bad)
