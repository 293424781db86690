import math
import tracemalloc

import numpy as np
import pytest

from oracles import (pool_attended_oracle, pool_relative_oracle,
                     pool_single_oracle, pyramid_oracle, rel_err)
from superevents.filters import materialize_stack
from superevents.pooling import (
    _BLOCK,
    _relative_grads,
    _relative_state,
    pool_attended,
    pool_attended_backward,
    pool_baseline,
    pool_relative,
    check_kernel_length,
    pool_single,
    soft_attention,
    soft_attention_backward,
)

LD = np.longdouble


def random_stack(rng, m, T, n):
    return materialize_stack(rng.normal(size=(m, n)), rng.normal(size=(m, n)), T)[0]


# ---------------------------------------------------------------------------
# soft attention
# ---------------------------------------------------------------------------

def test_uniform_softmax():
    a = soft_attention(np.full((1, 5), 3.3))
    np.testing.assert_allclose(a, 0.2, atol=1e-12)


def test_softmax_shift_invariance_bitwise():
    # integer logits keep logit + 7.3 inside 7.3's binade, so the additions
    # are exact and max-subtraction restores the original row bit for bit
    logits = np.array([[0.0, -1.0, -3.0, -2.0]])
    a = soft_attention(logits)
    b = soft_attention(logits + 7.3)
    assert np.array_equal(a, b)


def test_softmax_shift_invariance_general():
    rng = np.random.default_rng(44)
    logits = rng.normal(0, 2, (5, 4))
    a = soft_attention(logits)
    b = soft_attention(logits + 123.456)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_softmax_two_logits():
    a = soft_attention(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(a, [[0.7310585786300049, 0.2689414213699951]], rtol=1e-12)


def test_softmax_rows_on_simplex():
    rng = np.random.default_rng(0)
    logits = rng.normal(0, 5, (6, 4))
    a = soft_attention(logits)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(a > 0)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError):
        soft_attention(np.array([[1.0, np.nan]]))


def test_softmax_backward_rows_sum_to_zero():
    rng = np.random.default_rng(1)
    a = soft_attention(rng.normal(size=(5, 3)))
    d = soft_attention_backward(a, rng.normal(size=(5, 3)))
    np.testing.assert_allclose(d.sum(axis=1), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# pool_single
# ---------------------------------------------------------------------------

def test_pool_single_uniform_gives_mean():
    T, D = 6, 3
    F = np.full((T, 2), 1.0 / T)
    v = np.random.default_rng(2).normal(size=(T, D))
    out = pool_single(F, v)
    np.testing.assert_allclose(out[:D], v.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(out[D:], v.mean(axis=0), rtol=1e-12)


def test_pool_single_one_hot_selects_frame():
    F = np.zeros((5, 1))
    F[3, 0] = 1.0
    v = np.arange(10.0).reshape(5, 2)
    np.testing.assert_allclose(pool_single(F, v), v[3], rtol=1e-12)


def test_pool_single_explicit_product():
    F = np.array([[0.5, 0.1], [0.25, 0.2], [0.25, 0.7]])
    v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    # hand product: block n is sum_t F[t,n] * v[t]
    expected = np.array(
        [
            0.5 * 1 + 0.25 * 3 + 0.25 * 5,
            0.5 * 2 + 0.25 * 4 + 0.25 * 6,
            0.1 * 1 + 0.2 * 3 + 0.7 * 5,
            0.1 * 2 + 0.2 * 4 + 0.7 * 6,
        ]
    )
    np.testing.assert_allclose(pool_single(F, v), expected, rtol=1e-12)
    np.testing.assert_allclose(pool_single_oracle(F, v), expected, rtol=1e-12)


def test_pool_single_shape_mismatch():
    with pytest.raises(ValueError):
        pool_single(np.ones((4, 1)), np.ones((5, 2)))
    with pytest.raises(ValueError):
        pool_single(np.ones((3, 4, 1)), np.ones((5, 2)))


def test_pool_single_matches_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T, N, D = rng.integers(1, 8, 3)
        F = random_stack(rng, 1, T, N)[0]
        v = rng.normal(size=(T, D))
        assert rel_err(pool_single(F, v), pool_single_oracle(F, v)) < 1e-9
        # the per-class stack form the single variant trains through
        stack = np.stack([F, F[::-1]])
        expected = np.stack([pool_single_oracle(f, v) for f in stack])
        assert rel_err(pool_single(stack, v), expected) < 1e-9


def test_pool_single_stack_matches_per_filter():
    # a (C, T, N) stack pools each class with its own filter
    rng = np.random.default_rng(4)
    stack = random_stack(rng, 4, 7, 2)
    v = rng.normal(size=(7, 3))
    out = pool_single(stack, v)
    assert out.shape == (4, 2 * 3)
    for c in range(4):
        np.testing.assert_allclose(out[c], pool_single(stack[c], v), rtol=1e-12)
        assert rel_err(out[c], pool_single_oracle(stack[c], v)) < 1e-9


def test_convexity_bound():
    rng = np.random.default_rng(5)
    for _ in range(30):
        T, N, D = int(rng.integers(1, 30)), 2, 3
        F = random_stack(rng, 1, T, N)[0]
        v = rng.normal(size=(T, D))
        out = pool_single(F, v).reshape(N, D)
        lo, hi = v.min(axis=0), v.max(axis=0)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


# ---------------------------------------------------------------------------
# pool_attended
# ---------------------------------------------------------------------------

def test_attended_saturated_attention_selects_filter():
    rng = np.random.default_rng(6)
    stack = random_stack(rng, 3, 9, 2)
    v = rng.normal(size=(9, 4))
    logits = np.array([[40.0, 0.0, 0.0], [0.0, 0.0, 40.0]])
    rep = pool_attended(stack, logits, v)
    np.testing.assert_allclose(rep[0], pool_single(stack[0], v), atol=1e-9)
    np.testing.assert_allclose(rep[1], pool_single(stack[2], v), atol=1e-9)


def test_attended_identical_filters_ignore_attention():
    rng = np.random.default_rng(7)
    one = random_stack(rng, 1, 6, 2)[0]
    stack = np.stack([one, one])
    v = rng.normal(size=(6, 3))
    rep = pool_attended(stack, rng.normal(size=(4, 2)), v)
    for c in range(4):
        np.testing.assert_allclose(rep[c], pool_single(one, v), rtol=1e-9)


def test_attended_explicit_scalar_case():
    # C=2, M=2, T=3, D=1, N=1 mixture worked out by hand
    f1 = np.array([[0.2], [0.3], [0.5]])
    f2 = np.array([[0.6], [0.3], [0.1]])
    v = np.array([[1.0], [2.0], [4.0]])
    logits = np.array([[0.0, 0.0], [1.0, 0.0]])
    p1 = 0.2 * 1 + 0.3 * 2 + 0.5 * 4  # 2.8
    p2 = 0.6 * 1 + 0.3 * 2 + 0.1 * 4  # 1.6
    a1 = math.exp(1) / (math.exp(1) + 1)
    rep = pool_attended(np.stack([f1, f2]), logits, v)
    np.testing.assert_allclose(rep[0, 0], 0.5 * p1 + 0.5 * p2, rtol=1e-12)
    np.testing.assert_allclose(rep[1, 0], a1 * p1 + (1 - a1) * p2, rtol=1e-12)


def test_attended_matches_oracle_random():
    rng = np.random.default_rng(8)
    for _ in range(100):
        T = int(rng.integers(1, 8))
        N, D, M, C = (int(rng.integers(1, 4)) for _ in range(4))
        stack = random_stack(rng, M, T, N)
        logits = rng.normal(size=(C, M))
        v = rng.normal(size=(T, D))
        rep = pool_attended(stack, logits, v)
        assert rel_err(rep, pool_attended_oracle(stack, logits, v)) < 1e-9


def test_attended_mismatched_counts():
    rng = np.random.default_rng(9)
    stack = random_stack(rng, 3, 5, 2)
    with pytest.raises(ValueError):
        pool_attended(stack, np.zeros((2, 2)), rng.normal(size=(5, 2)))
    with pytest.raises(ValueError):
        pool_attended(stack, np.zeros((2, 3)), rng.normal(size=(6, 2)))


def test_attended_backward_zero_upstream():
    rng = np.random.default_rng(10)
    stack = random_stack(rng, 2, 5, 2)
    logits = rng.normal(size=(3, 2))
    v = rng.normal(size=(5, 3))
    ds, dl = pool_attended_backward(stack, logits, v, np.zeros((3, 2 * 3)))
    assert not ds.any() and not dl.any()


def fd_loss_check(loss, params, analytic, h=1e-4):
    for name, arr in params.items():
        fd = np.zeros_like(arr, dtype=LD)
        flat = arr.reshape(-1)
        fdflat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss()
            flat[i] = orig - h
            lo = loss()
            flat[i] = orig
            fdflat[i] = (hi - lo) / (2 * h)
        assert rel_err(analytic[name], fd) < 1e-4, name


def test_attended_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        T = int(rng.integers(2, 9))
        N, D, M, C = (int(rng.integers(1, 4)) for _ in range(4))
        stack = random_stack(rng, M, T, N).astype(LD)
        logits = rng.normal(size=(C, M)).astype(LD)
        v = rng.normal(size=(T, D)).astype(LD)
        upstream = rng.normal(size=(C, N * D)).astype(LD)

        ds, dl = pool_attended_backward(stack, logits, v, upstream)
        assert ds.shape == (M, T, N) and ds.flags.c_contiguous

        def loss():
            return float((upstream * pool_attended(stack, logits, v)).sum())

        fd_loss_check(loss, {"stack": stack, "logits": logits},
                      {"stack": ds, "logits": dl})


# ---------------------------------------------------------------------------
# pool_relative
# ---------------------------------------------------------------------------

def one_hot_weights(c, n, d, block):
    """(C, N*D) context weights reading feature d of distribution block n."""
    w = np.zeros((c, n * d))
    w[:, block] = 1.0
    return w


def test_relative_length_one_is_identity():
    rng = np.random.default_rng(12)
    stack = random_stack(rng, 2, 1, 3)  # L=1 kernels, each column normalizes to 1
    np.testing.assert_allclose(stack, 1.0, atol=1e-12)
    v = rng.normal(size=(6, 2))
    logits = rng.normal(size=(4, 2))
    for n in range(3):
        for d in range(2):
            w = one_hot_weights(4, 3, 2, n * 2 + d)
            out = pool_relative(stack, logits, w, v)
            for c in range(4):
                assert np.array_equal(out[:, c], v[:, d])


def test_relative_constant_input_matches_global():
    rng = np.random.default_rng(13)
    L = 5
    stack = random_stack(rng, 2, L, 2)
    logits = rng.normal(size=(3, 2))
    v = np.tile(np.array([[1.5, -2.0, 0.25]]), (9, 1))
    w = rng.normal(size=(3, 2 * 3))
    out = pool_relative(stack, logits, w, v)
    glob = (pool_attended(stack, logits, v[:L]) * w).sum(axis=1)
    for t in range(2, 7):  # interior frames: window never touches the padding
        np.testing.assert_allclose(out[t], glob, rtol=1e-9)


def test_relative_explicit_edges():
    # T=5, L=3, D=1, one kernel column; hand-computed sliding dot products
    kernel = np.array([[0.2], [0.5], [0.3]])
    stack = kernel[None]  # M=1, L=3, N=1
    v = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    logits = np.zeros((1, 1))
    out = pool_relative(stack, logits, np.ones((1, 1)), v)
    expected = [
        0.2 * 0 + 0.5 * 1 + 0.3 * 2,
        0.2 * 1 + 0.5 * 2 + 0.3 * 3,
        0.2 * 2 + 0.5 * 3 + 0.3 * 4,
        0.2 * 3 + 0.5 * 4 + 0.3 * 5,
        0.2 * 4 + 0.5 * 5 + 0.3 * 0,
    ]
    np.testing.assert_allclose(out[:, 0], expected, rtol=1e-12)


def test_relative_rejects_even_or_nonpositive_length():
    for length in (4, 0, -3):
        with pytest.raises(ValueError, match="kernel_length"):
            check_kernel_length(length)
    check_kernel_length(1)
    rng = np.random.default_rng(16)
    stack = random_stack(rng, 2, 4, 2)  # an even-length kernel has no center
    with pytest.raises(ValueError, match="kernel_length 4"):
        pool_relative(stack, np.zeros((3, 2)), np.zeros((3, 4)), rng.normal(size=(5, 2)))


def test_relative_matches_oracle_random():
    rng = np.random.default_rng(14)
    for _ in range(100):
        L = int(rng.choice([1, 3, 5]))
        T = int(rng.integers(1, 8))
        N, D, M, C = (int(rng.integers(1, 3)) for _ in range(4))
        stack = random_stack(rng, M, L, N)
        logits = rng.normal(size=(C, M))
        v = rng.normal(size=(T, D))
        w = rng.normal(size=(C, N * D))
        out = pool_relative(stack, logits, w, v)
        oracle = np.einsum("tck,ck->tc", pool_relative_oracle(stack, logits, v, L), w)
        assert rel_err(out, oracle) < 1e-9


def test_relative_backward_matches_finite_differences():
    rng = np.random.default_rng(15)
    for _ in range(25):
        L = int(rng.choice([1, 3, 5]))
        T = int(rng.integers(2, 8))
        N, D, M, C = (int(rng.integers(1, 3)) for _ in range(4))
        stack = random_stack(rng, M, L, N).astype(LD)
        logits = rng.normal(size=(C, M)).astype(LD)
        v = rng.normal(size=(T, D)).astype(LD)
        w = rng.normal(size=(C, N * D)).astype(LD)
        upstream = rng.normal(size=(T, C)).astype(LD)

        _, cache = _relative_state(stack, logits, w, v)
        ds, dl, dw = _relative_grads(cache, upstream)

        def loss():
            return float((upstream * pool_relative(stack, logits, w, v)).sum())

        fd_loss_check(loss, {"stack": stack, "logits": logits, "w": w},
                      {"stack": ds, "logits": dl, "w": dw})


def relative_instance(T, L=101, m=2, n=1, d=2, c=2):
    """Inputs of a relative pooling at kernel length L, rounded to float32 so
    that every dtype holds exactly the same values. At L = 1 every
    materialized filter is the constant 1 and the logits would not move the
    scores, so the one tap is drawn at random there."""
    rng = np.random.default_rng(T)
    stack = random_stack(rng, m, L, n) if L > 1 else rng.uniform(0.5, 1.5, (m, 1, n))
    arrays = (stack, rng.normal(size=(c, m)), rng.normal(size=(c, n * d)),
              rng.normal(size=(T, d)))
    return [a.astype(np.float32).astype(np.float64) for a in arrays]


# T = B-1, B, B+1 and 2B+1 straddle the correlation's blocks of B = _BLOCK
# output frames; at the recipe's L = 101 every T up to 2B+1 is shorter than
# the kernel, T = 101 fills one window exactly, and T = 3000 is a long video.
# Ids name L where it is not 101.
RELATIVE_CASES = [(T, L) for T in (1, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK + 1, 101, 3000)
                  for L in (101, 1, 3)]
RELATIVE_IDS = [f"{T}" if L == 101 else f"{T}-L{L}" for T, L in RELATIVE_CASES]


@pytest.mark.parametrize("T, L", RELATIVE_CASES, ids=RELATIVE_IDS)
def test_relative_long_kernel_matches_oracle_in_every_dtype(T, L):
    # scores and d_w_ctx against the brute-force context (the loss is linear
    # in w_ctx), and every gradient against the longdouble one, which
    # test_relative_long_kernel_grads_match_finite_differences checks
    stack, logits, w, v = relative_instance(T, L)
    upstream = np.random.default_rng(T + 1).normal(size=(T, 2))
    upstream = upstream.astype(np.float32).astype(np.float64)
    context = pool_relative_oracle(stack, logits, v, L)  # (T, C, N*D)
    oracle = np.einsum("tck,ck->tc", context, w)
    d_w_oracle = np.einsum("tc,tck->ck", upstream, context)
    exact = None  # the longdouble gradients
    for dtype, tol in ((LD, 1e-12), (np.float64, 1e-12), (np.float32, 1e-5)):
        args = [a.astype(dtype) for a in (stack, logits, w, v)]
        before = args[3].copy()
        scores, cache = _relative_state(*args)
        grads = _relative_grads(cache, upstream.astype(dtype))
        assert np.array_equal(args[3], before)  # the caller's features
        for out in (scores, *grads):
            assert out.dtype == dtype and out.flags.c_contiguous
        assert scores.shape == (T, 2)
        assert [g.shape for g in grads] == [stack.shape, logits.shape, w.shape]
        assert np.abs(scores - oracle).max() <= tol * np.abs(oracle).max()
        assert np.abs(grads[2] - d_w_oracle).max() <= tol * np.abs(d_w_oracle).max()
        if exact is None:
            exact = grads
        for g, ref in zip(grads, exact):
            assert np.abs(g - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize("T, L", RELATIVE_CASES, ids=RELATIVE_IDS)
def test_relative_long_kernel_grads_match_finite_differences(T, L):
    # one central difference per parameter group along a random direction,
    # in longdouble; the loss is linear in the stack and weights
    stack, logits, w, v = (a.astype(LD) for a in relative_instance(T, L))
    rng = np.random.default_rng(T + 1)
    upstream = rng.normal(size=(T, 2)).astype(LD)
    _, cache = _relative_state(stack, logits, w, v)
    params = [stack, logits, w]
    h = LD(1e-6)
    for i, grad in enumerate(_relative_grads(cache, upstream)):
        direction = rng.normal(size=grad.shape).astype(LD)

        def loss(sign):
            moved = [p + sign * h * direction if j == i else p
                     for j, p in enumerate(params)]
            return (upstream * pool_relative(*moved, v)).sum()

        fd = (loss(1) - loss(-1)) / (2 * h)
        analytic = (grad * direction).sum()
        assert abs(fd - analytic) <= 1e-9 * abs(analytic), i


def test_relative_state_memory_is_bounded():
    # the eval-long shape in float32: the (C*N, nb, B+L-1) frame blocks, about
    # 2.1 MB, are the largest array; an (L, T, C) array of per-tap products
    # would take 9.7 MB
    rng = np.random.default_rng(18)
    T, L, D, C, M, N = 3000, 101, 16, 8, 5, 3
    args = [a.astype(np.float32) for a in (
        random_stack(rng, M, L, N), rng.normal(size=(C, M)),
        rng.normal(size=(C, N * D)), rng.normal(size=(T, D)))]
    tracemalloc.start()
    try:
        _relative_state(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_relative_rejects_mismatched_context_weights():
    rng = np.random.default_rng(17)
    stack = random_stack(rng, 2, 3, 2)
    v = rng.normal(size=(5, 4))
    with pytest.raises(ValueError, match="context weights"):
        pool_relative(stack, np.zeros((3, 2)), np.zeros((3, 4)), v)


# ---------------------------------------------------------------------------
# pool_baseline
# ---------------------------------------------------------------------------

def test_baseline_constant_input():
    v = np.tile(np.array([[2.0, -1.0]]), (6, 1))
    np.testing.assert_allclose(pool_baseline("max", v), [2.0, -1.0])
    np.testing.assert_allclose(pool_baseline("mean", v), [2.0, -1.0])
    np.testing.assert_allclose(pool_baseline("pyramid3", v), np.tile([2.0, -1.0], 7))


def test_baseline_explicit_pyramid():
    v = np.array([[1.0], [2.0], [3.0], [4.0]])
    np.testing.assert_allclose(pool_baseline("mean", v), [2.5])
    np.testing.assert_allclose(pool_baseline("max", v), [4.0])
    np.testing.assert_allclose(
        pool_baseline("pyramid3", v), [2.5, 1.5, 3.5, 1.0, 2.0, 3.0, 4.0]
    )


def test_baseline_single_frame():
    v = np.array([[3.25, -1.5]])
    np.testing.assert_allclose(pool_baseline("pyramid3", v), np.tile(v[0], 7))


def test_baseline_matches_oracle_random():
    rng = np.random.default_rng(16)
    for _ in range(100):
        T = int(rng.integers(1, 12))
        D = int(rng.integers(1, 5))
        v = rng.normal(size=(T, D))
        assert rel_err(pool_baseline("pyramid3", v), pyramid_oracle(v)) < 1e-9
        assert rel_err(pool_baseline("mean", v), v.mean(axis=0)) < 1e-9
        assert rel_err(pool_baseline("max", v), v.max(axis=0)) < 1e-9


def test_baseline_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        pool_baseline("mean", np.zeros((0, 3)))
    with pytest.raises(ValueError):
        pool_baseline("median", np.ones((3, 2)))
