"""Brute-force relevance propagation: explicit per-neuron redistribution loops.

Written against the redistribution formulas directly, independent of the
vectorized implementation, so the two can cross-check each other.
"""

import numpy as np

from fedliab.nn import Conv2D, Dense, Flatten, MaxPool, ReLU, forward_batch


def _sign(z):
    return 1.0 if z >= 0 else -1.0


def dense_epsilon_oracle(a, w, b, r_out, eps):
    n_out, n_in = w.shape
    r_in = np.zeros(n_in)
    for j in range(n_out):
        z = b[j]
        for i in range(n_in):
            z += a[i] * w[j, i]
        denom = z + eps * _sign(z)
        if denom == 0:
            continue
        for i in range(n_in):
            r_in[i] += a[i] * w[j, i] * r_out[j] / denom
    return r_in


def dense_zplus_oracle(a, w, b, r_out, eps):
    n_out, n_in = w.shape
    r_in = np.zeros(n_in)
    for j in range(n_out):
        z = 0.0
        for i in range(n_in):
            if w[j, i] > 0:
                z += a[i] * w[j, i]
        denom = z + eps
        if denom == 0:
            continue
        for i in range(n_in):
            if w[j, i] > 0:
                r_in[i] += a[i] * w[j, i] * r_out[j] / denom
    return r_in


def conv_oracle(a, w, b, r_out, stride, padding, rule, eps):
    c_in, h, wd = a.shape
    c_out, _, k, _ = w.shape
    ap = np.pad(a, ((0, 0), (padding, padding), (padding, padding)))
    r_pad = np.zeros_like(ap)
    _, ho, wo = r_out.shape
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                z = 0.0 if rule == "zplus" else b[co]
                for ci in range(c_in):
                    for u in range(k):
                        for v in range(k):
                            wt = w[co, ci, u, v]
                            if rule == "zplus":
                                wt = max(wt, 0.0)
                            z += ap[ci, i * stride + u, j * stride + v] * wt
                denom = z + eps * _sign(z)
                if denom == 0:
                    continue
                for ci in range(c_in):
                    for u in range(k):
                        for v in range(k):
                            wt = w[co, ci, u, v]
                            if rule == "zplus":
                                wt = max(wt, 0.0)
                            r_pad[ci, i * stride + u, j * stride + v] += (
                                ap[ci, i * stride + u, j * stride + v]
                                * wt
                                * r_out[co, i, j]
                                / denom
                            )
    if padding:
        return r_pad[:, padding : padding + h, padding : padding + wd]
    return r_pad


def maxpool_oracle(a, r_out, kernel, stride):
    c, h, w = a.shape
    r_in = np.zeros_like(a)
    _, ho, wo = r_out.shape
    for ci in range(c):
        for i in range(ho):
            for j in range(wo):
                best, bu, bv = -np.inf, 0, 0
                for u in range(kernel):
                    for v in range(kernel):
                        val = a[ci, i * stride + u, j * stride + v]
                        if val > best:
                            best, bu, bv = val, u, v
                r_in[ci, i * stride + bu, j * stride + bv] += r_out[ci, i, j]
    return r_in


def oracle_propagate(net, params, sample, target_class, rules, eps):
    """Full backward relevance pass with the loop rules above."""
    boundaries = [b[0] for b in forward_batch(net, params, sample[None])]
    rel = [None] * len(boundaries)
    start = np.zeros(net.class_count)
    start[target_class] = boundaries[-1][target_class]
    rel[-1] = start
    pi = len(params.layers)
    for li in range(len(net.specs) - 1, -1, -1):
        spec = net.specs[li]
        a = boundaries[li]
        r_out = rel[li + 1]
        if isinstance(spec, Dense):
            pi -= 1
            w, b = params.layers[pi]
            fn = dense_zplus_oracle if rules["dense"] == "zplus" else dense_epsilon_oracle
            rel[li] = fn(a, w, b, r_out, eps)
        elif isinstance(spec, Conv2D):
            pi -= 1
            w, b = params.layers[pi]
            rel[li] = conv_oracle(a, w, b, r_out, spec.stride, spec.padding, rules["conv2d"], eps)
        elif isinstance(spec, ReLU):
            out = boundaries[li + 1]
            rel[li] = np.where(out > 0, r_out, 0.0)
        elif isinstance(spec, MaxPool):
            rel[li] = maxpool_oracle(a, r_out, spec.kernel, spec.stride)
        elif isinstance(spec, Flatten):
            rel[li] = r_out.reshape(a.shape)
    return rel
