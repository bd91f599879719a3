import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fedliab.nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    ReLU,
    ShapeError,
    build_network,
    flatten_layer_params,
    forward_batch,
    loss_and_grad,
    make_params,
    params_from_bytes,
    params_to_bytes,
    reference_network,
    sgd_step,
)
from fedliab import nn
from fedliab.lrp import lrp_propagate_batch
from netgen import random_conv_net, random_dense_net, random_mixed_net


# ---------------------------------------------------------------------------
# independent oracle: central finite differences on the loss
# ---------------------------------------------------------------------------


def _params_with_delta(params, layer, which, idx, delta):
    pairs = [[w.copy(), b.copy()] for w, b in params]
    pairs[layer][which][idx] += delta
    return make_params(pairs)


def fd_gradients(net, params, batch, h=1e-5):
    """Central-difference gradient of the batch loss, parameter by parameter."""
    grads = []
    for li, (w, b) in enumerate(params):
        pair = []
        for which, arr in enumerate((w, b)):
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                lp, _ = loss_and_grad(net, _params_with_delta(params, li, which, idx, +h), batch)
                lm, _ = loss_and_grad(net, _params_with_delta(params, li, which, idx, -h), batch)
                g[idx] = (lp - lm) / (2 * h)
            pair.append(g)
        grads.append(tuple(pair))
    return make_params(grads)


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestBuildNetwork:
    def test_same_seed_identical_bytes(self):
        specs = [Dense(4, 3), ReLU(), Dense(3, 2)]
        _, p1 = build_network(specs, (4,), seed=11)
        _, p2 = build_network(specs, (4,), seed=11)
        assert params_to_bytes(p1) == params_to_bytes(p2)

    def test_dense_shapes(self):
        _, params = build_network([Dense(4, 3)], (4,), seed=0)
        w, b = params.layers[0]
        assert w.shape == (3, 4)
        assert b.shape == (3,)
        assert np.all(b == 0)

    def test_seed_changes_parameters(self):
        specs = [Dense(4, 3)]
        _, p1 = build_network(specs, (4,), seed=1)
        _, p2 = build_network(specs, (4,), seed=2)
        assert np.any(p1.layers[0][0] != p2.layers[0][0])

    def test_incompatible_shapes_name_layer(self):
        with pytest.raises(ShapeError, match="layer 1"):
            build_network([Dense(4, 3), Dense(5, 2)], (4,), seed=0)

    def test_conv_kernel_too_large(self):
        with pytest.raises(ShapeError, match="layer 0"):
            build_network([Conv2D(1, 2, kernel=5), Flatten(), Dense(2, 2)], (1, 4, 4), seed=0)

    def test_pool_window_too_large(self):
        with pytest.raises(ShapeError, match="layer 1"):
            build_network([Conv2D(1, 2, kernel=3), MaxPool(), Flatten(), Dense(2, 2)], (1, 3, 5), seed=0)


class TestOneGeometry:
    """Convolutions run at stride 1 with no padding and pools over 2x2 windows
    at stride 2; the specs expose that as class constants and take no other."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Conv2D(1, 2, kernel=3, stride=2),
            lambda: Conv2D(1, 2, kernel=3, padding=1),
            lambda: MaxPool(3, 2),
        ],
        ids=["conv-stride", "conv-padding", "pool-size"],
    )
    def test_other_geometry_is_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    def test_constants(self):
        assert (Conv2D.stride, Conv2D.padding) == (1, 0)
        assert (Conv2D(1, 2, kernel=3).stride, Conv2D(1, 2, kernel=3).padding) == (1, 0)
        assert MaxPool.kernel == MaxPool.stride == 2
        assert MaxPool().kernel == MaxPool().stride == 2

    def test_odd_pool_input_drops_last_row_and_column(self):
        net, params = build_network([MaxPool(), Flatten(), Dense(2 * 3 * 4, 2)], (2, 7, 9), seed=0)
        assert net.boundary_shapes[1] == (2, 3, 4)
        x = np.random.default_rng(0).standard_normal((3, 2, 7, 9))
        assert forward_batch(net, params, x)[1].tobytes() == window_max_arg(x)[0].tobytes()


class TestForward:
    def test_zero_params_zero_logits(self):
        net, params = build_network([Dense(3, 2)], (3,), seed=0)
        zeros = make_params([(np.zeros((2, 3)), np.zeros(2))])
        logits = forward_batch(net, zeros, np.array([[1.0, -2.0, 3.0]]))[-1]
        np.testing.assert_array_equal(logits, [[0.0, 0.0]])

    def test_relu(self):
        net, _ = build_network([Dense(2, 2), ReLU()], (2,), seed=0)
        eye = make_params([(np.eye(2), np.zeros(2))])
        boundaries = forward_batch(net, eye, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(boundaries[-1], [[0.0, 2.0]])
        assert len(boundaries) == 3

    def test_hand_network(self):
        net, _ = build_network([Dense(2, 2), ReLU()], (2,), seed=0)
        eye = make_params([(np.eye(2), np.zeros(2))])
        logits = forward_batch(net, eye, np.array([[3.0, -1.0]]))[-1]
        np.testing.assert_array_equal(logits, [[3.0, 0.0]])

    def test_trace_boundaries(self):
        net, params = build_network(reference_network(10), (1, 28, 28), seed=3)
        x = np.random.default_rng(0).random((1, 28, 28))
        boundaries = forward_batch(net, params, x[None])
        assert len(boundaries) == len(net.specs) + 1
        np.testing.assert_array_equal(boundaries[0][0], x)
        for b, shape in zip(boundaries, net.boundary_shapes):
            assert b.shape == (1,) + tuple(shape)

    def test_shape_mismatch_raises(self):
        net, params = build_network([Dense(3, 2)], (3,), seed=0)
        with pytest.raises(ShapeError):
            forward_batch(net, params, np.zeros((1, 4)))

    def test_shape_soundness_random_nets(self):
        # forward on any constructible network produces the inferred shapes
        for seed in range(30):
            net, params, x = random_mixed_net(seed)
            boundaries = forward_batch(net, params, x[None])
            for b, shape in zip(boundaries, net.boundary_shapes):
                assert b.shape[1:] == tuple(shape)
            assert np.all(np.isfinite(boundaries[-1]))


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_c(self):
        net, _ = build_network([Dense(3, 4)], (3,), seed=0)
        zeros = make_params([(np.zeros((4, 3)), np.zeros(4))])
        loss, _ = loss_and_grad(net, zeros, (np.ones((2, 3)), np.array([0, 2])))
        assert loss == pytest.approx(np.log(4), abs=1e-12)

    def test_label_out_of_range(self):
        net, params = build_network([Dense(3, 2)], (3,), seed=0)
        with pytest.raises(ValueError, match="label"):
            loss_and_grad(net, params, (np.ones((1, 3)), np.array([2])))

    def test_duplicated_batch_invariance(self):
        net, params, x = random_dense_net(5)
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.05, 1, size=(3,) + net.input_shape)
        ys = rng.integers(0, net.class_count, size=3)
        loss1, g1 = loss_and_grad(net, params, (xs, ys))
        loss2, g2 = loss_and_grad(net, params, (np.tile(xs, (2, 1)), np.tile(ys, 2)))
        assert loss1 == pytest.approx(loss2, rel=1e-15)
        for (w1, b1), (w2, b2) in zip(g1, g2):
            np.testing.assert_allclose(w1, w2, rtol=0, atol=1e-15)
            np.testing.assert_allclose(b1, b2, rtol=0, atol=1e-15)

    def test_finite_difference_small_dense(self):
        net, params, _ = random_dense_net(2)
        rng = np.random.default_rng(2)
        xs = rng.uniform(0.05, 1, size=(5,) + net.input_shape)
        ys = rng.integers(0, net.class_count, size=5)
        _, analytic = loss_and_grad(net, params, (xs, ys))
        numeric = fd_gradients(net, params, (xs, ys))
        assert max_relative_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_mixed(self, seed):
        net, params, x = random_mixed_net(seed)
        if sum(w.size + b.size for w, b in params) > 900:
            pytest.skip("kept small for runtime")
        rng = np.random.default_rng(seed + 100)
        xs = rng.uniform(0.05, 1, size=(3,) + net.input_shape)
        ys = rng.integers(0, net.class_count, size=3)
        _, analytic = loss_and_grad(net, params, (xs, ys))
        numeric = fd_gradients(net, params, (xs, ys))
        assert max_relative_error(analytic, numeric) <= 1e-4


# ---------------------------------------------------------------------------
# bit-exact references: the kernels and the backward pass against literal
# loops, compared byte for byte so that signed zeros count
# ---------------------------------------------------------------------------


def window_max_arg(x):
    """Max and first row-major argmax of every 2x2 window at stride 2, by
    sliding windows; an odd last row or column is in no window."""
    win = sliding_window_view(x, (2, 2), axis=(2, 3))[:, :, ::2, ::2]
    flat = win.reshape(win.shape[:4] + (4,))
    return flat.max(-1), flat.argmax(-1)


def three_index_scatter(x, values, arg):
    """Winner scatter with one broadcast index array per axis."""
    b, c, h, w = x.shape
    ho, wo = arg.shape[2], arg.shape[3]
    rows = (np.arange(ho) * 2)[None, None, :, None] + arg // 2
    cols = (np.arange(wo) * 2)[None, None, None, :] + arg % 2
    out = np.zeros((b, c, h * w))
    bidx = np.arange(b)[:, None, None, None]
    cidx = np.arange(c)[None, :, None, None]
    out[bidx, cidx, rows * w + cols] = values
    return out.reshape(b, c, h, w)


def layer_by_layer_backward(net, params, inputs, labels):
    """Parameter gradients from a per-layer loop that computes every layer's
    input gradient, the first layer's too, and every ReLU gate at full size.
    Returns (grads, gated): `gated` maps each ReLU's layer index to the
    gradient at its input."""
    boundaries, conv_cols, _ = nn.forward_collect(net, params, inputs)
    n = len(labels)
    e = np.exp(boundaries[-1] - boundaries[-1].max(axis=1, keepdims=True))
    d = e / e.sum(axis=1, keepdims=True)
    d[np.arange(n), labels] -= 1.0
    d /= n
    grads = [None] * len(params)
    gated = {}
    pi = len(params)
    for li in range(len(net.specs) - 1, -1, -1):
        spec, x = net.specs[li], boundaries[li]
        if isinstance(spec, Dense):
            pi -= 1
            w, _ = params.layers[pi]
            grads[pi] = (d.T @ x, d.sum(axis=0))
            d = d @ w
        elif isinstance(spec, Conv2D):
            pi -= 1
            w, _ = params.layers[pi]
            b, co = d.shape[:2]
            dw = np.matmul(d.reshape(b, co, -1), conv_cols[li].transpose(0, 2, 1)).sum(axis=0)
            grads[pi] = (dw.reshape(w.shape), d.sum(axis=(0, 2, 3)))
            d = nn._conv_input_grad(d, w, x.shape[1:])
        elif isinstance(spec, ReLU):
            d = gated[li] = d * (x > 0)
        elif isinstance(spec, MaxPool):
            d = three_index_scatter(x, d, window_max_arg(x)[1])
        else:
            d = d.reshape(x.shape)
    return grads, gated


def _tied_inputs(shape, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "equal":
        return np.full(shape, 0.5)
    if kind == "signed-zero":  # -0.0 and +0.0 compare equal
        return rng.choice([-0.0, 0.0], size=shape)
    return rng.integers(-2, 3, size=shape) / 2.0  # quantized: many ties


class TestPoolKernels:
    @pytest.mark.parametrize("kind", ["equal", "signed-zero", "quantized"])
    @pytest.mark.parametrize("shape", [(2, 3, 6, 6), (3, 2, 7, 9), (1, 1, 5, 2)])
    def test_max_arg_is_first_row_major_argmax(self, kind, shape):
        x = _tied_inputs(shape, kind, seed=sum(shape))
        want_out, want_arg = window_max_arg(x)
        out, arg = nn._pool_max_arg(x)
        assert arg.tobytes() == want_arg.tobytes()
        assert out.tobytes() == want_out.tobytes()
        assert nn._pool_forward(x).tobytes() == want_out.tobytes()

    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (3, 2, 9, 7), (3, 2, 7, 9)])
    def test_winner_scatter_matches_three_index_scatter(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = _tied_inputs(shape, "quantized", seed=shape[2])
        _, arg = window_max_arg(x)
        values = rng.standard_normal(arg.shape)
        values[rng.random(arg.shape) < 0.3] = -0.0
        got = nn._pool_winner_scatter(x, values, arg)
        assert got.tobytes() == three_index_scatter(x, values, arg).tobytes()


def _grad_identity_net(name):
    if name.startswith("netgen"):
        net, params, _ = random_conv_net(int(name[6:]))
        return net, params
    if name.startswith("reference"):
        size = int(name[9:])
    return build_network(reference_network(6 if size == 28 else 10, size), (1, size, size), seed=size)


class TestGradientBitIdentity:
    @pytest.mark.parametrize("batch", [1, 7, 50])
    @pytest.mark.parametrize(
        "name",
        [f"netgen{s}" for s in range(8)] + ["reference20", "reference28"],
    )
    def test_matches_layer_by_layer_backward(self, name, batch, monkeypatch):
        net, params = _grad_identity_net(name)
        rng = np.random.default_rng(batch)
        xs = rng.standard_normal((batch,) + net.input_shape)  # both signs: dead ReLU windows
        ys = rng.integers(0, net.class_count, size=batch)
        scattered = []
        real_scatter = nn._pool_winner_scatter

        def recording_scatter(*args, **kwargs):
            scattered.append(real_scatter(*args, **kwargs))
            return scattered[-1]

        monkeypatch.setattr(nn, "_pool_winner_scatter", recording_scatter)
        _, grads = loss_and_grad(net, params, (xs, ys))
        want, gated = layer_by_layer_backward(net, params, xs, ys)
        for (gw, gb), (ww, wb) in zip(grads, want):
            assert gw.tobytes() == ww.tobytes()
            assert gb.tobytes() == wb.tobytes()
        # a pool scatter feeding a ReLU, gated once more, is that ReLU's input
        # gradient
        boundaries = forward_batch(net, params, xs)
        pools = [li for li in range(len(net.specs) - 1, 0, -1) if isinstance(net.specs[li], MaxPool)]
        assert len(scattered) == len(pools)
        for li, out in zip(pools, scattered):
            if isinstance(net.specs[li - 1], ReLU):
                assert (out * (boundaries[li - 1] > 0)).tobytes() == gated[li - 1].tobytes()


def loop_conv_cols(x, kernel):
    """im2col as one shifted copy per kernel offset."""
    b, c, h, w = x.shape
    ho, wo = h - kernel + 1, w - kernel + 1
    cols = np.empty((b, c, kernel, kernel, ho, wo))
    for u in range(kernel):
        for v in range(kernel):
            cols[:, :, u, v] = x[:, :, u : u + ho, v : v + wo]
    return cols.reshape(b, c * kernel * kernel, ho * wo), ho, wo


def loop_col2im_add(dcols, in_shape, kernel, ho, wo):
    """col2im as one shifted add per kernel offset, into zeros."""
    b = dcols.shape[0]
    buf = np.zeros((b,) + tuple(in_shape))
    d = dcols.reshape(b, in_shape[0], kernel, kernel, ho, wo)
    for u in range(kernel):
        for v in range(kernel):
            buf[:, :, u : u + ho, v : v + wo] += d[:, :, u, v]
    return buf


def _with_signed_zeros(a, rng):
    a[rng.random(a.shape) < 0.2] = -0.0
    a[rng.random(a.shape) < 0.1] = 0.0
    return a


def _conv_kernel_net(name):
    if name == "k4":
        specs = [Conv2D(2, 3, kernel=4), ReLU(), Conv2D(3, 2, kernel=4), Flatten(), Dense(2 * 5 * 5, 4)]
        return build_network(specs, (2, 11, 11), seed=4)
    return _grad_identity_net(name)


class TestConvKernels:
    """The gather im2col, the bincount col2im and the conv input gradient give
    the bytes of the per-offset loops, signed zeros included."""

    @pytest.mark.parametrize("batch", [1, 7, 50])
    @pytest.mark.parametrize(
        "name", [f"netgen{s}" for s in range(8)] + ["reference20", "reference28", "k4"]
    )
    def test_matches_loop_reference(self, name, batch):
        net, params = _conv_kernel_net(name)
        rng = np.random.default_rng(batch)
        convs = [(li, pi) for pi, li in enumerate(net.param_layer_indices) if isinstance(net.specs[li], Conv2D)]
        assert convs
        for li, pi in convs:
            spec, in_shape = net.specs[li], net.boundary_shapes[li]
            k = spec.kernel
            x = _with_signed_zeros(rng.standard_normal((batch,) + in_shape), rng)
            cols, ho, wo = nn._conv_cols(x, k)
            want, wh, ww = loop_conv_cols(x, k)
            assert (ho, wo) == (wh, ww)
            assert cols.tobytes() == want.tobytes()
            for dcols in (_with_signed_zeros(rng.standard_normal(cols.shape), rng), np.full(cols.shape, -0.0)):
                got = nn._col2im_add(dcols, in_shape, k)
                assert got.tobytes() == loop_col2im_add(dcols, in_shape, k, ho, wo).tobytes()
            w, _ = params.layers[pi]
            dout = _with_signed_zeros(rng.standard_normal((batch, spec.out_channels, ho, wo)), rng)
            dcols = np.matmul(w.reshape(w.shape[0], -1).T, dout.reshape(batch, w.shape[0], -1))
            want = loop_col2im_add(dcols, in_shape, k, ho, wo)
            assert nn._conv_input_grad(dout, w, in_shape).tobytes() == want.tobytes()


class TestSgd:
    def test_zero_grads_no_change(self):
        _, params = build_network([Dense(3, 2)], (3,), seed=1)
        zeros = make_params([(np.zeros((2, 3)), np.zeros(2))])
        out = sgd_step(params, zeros, lr=0.5)
        np.testing.assert_array_equal(out.layers[0][0], params.layers[0][0])

    def test_unit_lr_from_zero(self):
        zeros = make_params([(np.zeros((2, 3)), np.zeros(2))])
        g = make_params([(np.full((2, 3), 2.0), np.full(2, -1.0))])
        out = sgd_step(zeros, g, lr=1.0)
        np.testing.assert_array_equal(out.layers[0][0], -np.full((2, 3), 2.0))
        np.testing.assert_array_equal(out.layers[0][1], np.full(2, 1.0))

    def test_two_half_steps(self):
        _, params = build_network([Dense(3, 2)], (3,), seed=1)
        g = make_params([(np.ones((2, 3)), np.ones(2))])
        one = sgd_step(params, g, lr=0.2)
        two = sgd_step(sgd_step(params, g, lr=0.1), g, lr=0.1)
        np.testing.assert_allclose(one.layers[0][0], two.layers[0][0], atol=1e-15)

    def test_rejects_nonpositive_lr(self):
        _, params = build_network([Dense(3, 2)], (3,), seed=1)
        with pytest.raises(ValueError):
            sgd_step(params, params, lr=0.0)


class TestPredict:
    """The audited class when none is given: the argmax of the logits, ties
    broken to the lowest class index."""

    def test_argmax(self):
        net, _ = build_network([Dense(2, 3)], (2,), seed=0)
        w = make_params([(np.array([[0.1, 0.0], [0.9, 0.0], [0.3, 0.0]]), np.zeros(3))])
        assert lrp_propagate_batch(net, w, np.array([[1.0, 0.0]]))[1][0] == 1

    def test_tie_breaks_low(self):
        net, _ = build_network([Dense(2, 2)], (2,), seed=0)
        w = make_params([(np.ones((2, 2)), np.zeros(2))])
        assert lrp_propagate_batch(net, w, np.array([[0.5, 0.5]]))[1][0] == 0

    def test_all_equal_logits(self):
        net, _ = build_network([Dense(2, 3)], (2,), seed=0)
        zeros = make_params([(np.zeros((3, 2)), np.zeros(3))])
        assert lrp_propagate_batch(net, zeros, np.array([[1.0, 2.0]]))[1][0] == 0


class TestFlatten:
    def test_documented_order(self):
        params = make_params([(np.array([[3.0, 4.0]]), np.array([5.0]))])
        np.testing.assert_array_equal(flatten_layer_params(params, 0), [3.0, 4.0, 5.0])

    def test_round_trip(self):
        # the serialized payload is the layers' flat vectors in order, and
        # reading it back restores every layer's weights and biases
        net, params = build_network(reference_network(4, 12), (1, 12, 12), seed=9)
        raw = params_to_bytes(params)
        flat = np.concatenate([flatten_layer_params(params, i) for i in range(len(params))])
        assert raw.partition(b"\n")[2] == flat.astype("<f8").tobytes()
        for (w, b), (w2, b2) in zip(params, params_from_bytes(raw)):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)

    def test_length(self):
        net, params = build_network([Dense(4, 3)], (4,), seed=0)
        assert flatten_layer_params(params, 0).size == 4 * 3 + 3

    def test_out_of_range(self):
        _, params = build_network([Dense(4, 3)], (4,), seed=0)
        with pytest.raises(IndexError):
            flatten_layer_params(params, 1)


class TestSerialization:
    def test_round_trip(self):
        _, params = build_network(reference_network(6, 16), (1, 16, 16), seed=4)
        restored = params_from_bytes(params_to_bytes(params))
        assert params_to_bytes(restored) == params_to_bytes(params)

    def test_little_endian_payload(self):
        params = make_params([(np.array([[1.0]]), np.array([2.0]))])
        raw = params_to_bytes(params)
        _, _, payload = raw.partition(b"\n")
        np.testing.assert_array_equal(np.frombuffer(payload, "<f8"), [1.0, 2.0])

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw + b"junk1234",
            lambda raw: raw[:-8],
            lambda raw: raw.replace(b'"fedliab-params"', b'"fedliab-paramz"'),
            lambda raw: raw.partition(b"\n")[0],
        ],
        ids=["trailing", "short", "format", "no-payload"],
    )
    def test_malformed_rejected(self, damage):
        _, params = build_network([Dense(3, 2)], (3,), seed=0)
        with pytest.raises(ValueError, match="params"):
            params_from_bytes(damage(params_to_bytes(params)))

    def test_params_are_read_only(self):
        _, params = build_network([Dense(3, 2)], (3,), seed=0)
        with pytest.raises(ValueError):
            params.layers[0][0][0, 0] = 1.0

    def test_caller_array_stays_writable(self):
        w = np.ones((2, 2))
        params = make_params([(w, np.zeros(2))])
        assert w.flags.writeable
        assert not params.layers[0][0].flags.writeable
        assert not params.layers[0][1].flags.writeable


# ---------------------------------------------------------------------------
# allocator regime: kernel temporaries come from a warm heap in every process
# ---------------------------------------------------------------------------

_FAULT_PROBE = """
import resource, sys
import numpy as np
from fedliab import lrp, nn
if sys.argv[1] == "free":
    big = np.ones(30 << 17)  # 30 MB, freed at once: glibc's own threshold raise
    del big
net, params = nn.build_network(nn.reference_network(10, 28), (1, 28, 28), seed=1)
rng = np.random.default_rng(0)
x, y = rng.uniform(0, 1, (50, 1, 28, 28)), rng.integers(0, 10, 50)
def step():
    nn.forward_batch(net, params, x)
    lrp.lrp_propagate_batch(net, params, x)
    nn.loss_and_grad(net, params, (x, y))
for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the engine pins malloc thresholds only on glibc")
@pytest.mark.parametrize("prior_free", ["fresh", "free"])
def test_kernel_steps_do_not_fault_pages(prior_free):
    # a fresh process on glibc's default thresholds takes ~16,000 minor faults
    # per 28x28, B = 50 step: every temporary is a new mmap touched page by page
    src = str(Path(nn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, prior_free], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 100
