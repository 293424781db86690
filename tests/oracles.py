"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is written as direct nested-loop sums (or scalar math) so it
shares no code path with the library implementations it checks.
"""

import math

import numpy as np


def pool_single_oracle(F, v):
    T, N = F.shape
    D = v.shape[1]
    out = np.zeros(N * D)
    for n in range(N):
        for d in range(D):
            for t in range(T):
                out[n * D + d] += F[t, n] * v[t, d]
    return out


def softmax_oracle(row):
    e = [math.exp(x) for x in row]
    s = sum(e)
    return [x / s for x in e]


def pool_attended_oracle(stack, logits, v):
    C, M = logits.shape
    N = stack.shape[2]
    D = v.shape[1]
    out = np.zeros((C, N * D))
    for c in range(C):
        a = softmax_oracle(logits[c])
        for m in range(M):
            out[c] += a[m] * pool_single_oracle(stack[m], v)
    return out


def pool_relative_oracle(stack, logits, v, L):
    M, _, N = stack.shape
    T, D = v.shape
    C = logits.shape[0]
    half = (L - 1) // 2
    out = np.zeros((T, C, N * D))
    for t in range(T):
        for c in range(C):
            a = softmax_oracle(logits[c])
            for m in range(M):
                for n in range(N):
                    for d in range(D):
                        acc = 0.0
                        for l in range(L):
                            src = t - half + l
                            if 0 <= src < T:
                                acc += stack[m, l, n] * v[src, d]
                        out[t, c, n * D + d] += a[m] * acc
    return out


def pyramid_oracle(v):
    T = v.shape[0]
    out = []
    for k in (1, 2, 4):
        bounds = [i * T // k for i in range(k + 1)]
        segs = [(bounds[i], bounds[i + 1]) for i in range(k)]
        nonempty = [i for i, (s, e) in enumerate(segs) if e > s]
        for i, (s, e) in enumerate(segs):
            if e == s:
                j = min(nonempty, key=lambda j: (abs(j - i), j))
                s, e = segs[j]
            out.append(v[s:e].mean(axis=0))
    return np.concatenate(out)


def ap_oracle(scores, labels):
    """O(F^2): for each positive, recount precision over everything ranked
    at or above it under the (-score, original order) ranking."""
    F = len(scores)
    order = sorted(range(F), key=lambda i: (-scores[i], i))
    total_pos = sum(labels)
    acc = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            above = order[:rank]
            acc += sum(labels[j] for j in above) / rank
    return acc / total_pos


def ap_stable_oracle(scores, labels):
    """Frame AP ranked by one stable argsort of the -scores, in longdouble for
    longdouble scores and in float64 otherwise: the bitwise reference for
    evaluation.average_precision's ranking."""
    scores = np.asarray(scores)
    wide = np.longdouble if scores.dtype == np.longdouble else np.float64
    with np.errstate(invalid="ignore"):  # signalling NaNs stay NaNs
        scores = scores.astype(wide).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order].astype(np.float64)
    cum = np.cumsum(ranked)
    ranks = np.arange(1, ranked.size + 1)
    return float((cum[ranked == 1] / ranks[ranked == 1]).sum() / int(labels.sum()))


def cauchy_column_oracle(x, gamma, T):
    """Scalar re-evaluation of the filter construction with the full Cauchy
    density, 1 / (pi * scale) factor included, in plain Python floats."""
    xh = (T - 1) * (math.tanh(x) + 1) / 2
    gh = math.exp(1 - 2 * abs(math.tanh(gamma)))
    g = [1.0 / (math.pi * gh * (1 + ((t - xh) / gh) ** 2)) for t in range(T)]
    Z = sum(g)
    return xh, gh, [gi / Z for gi in g]


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))
