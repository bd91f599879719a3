import numpy as np
import pytest

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
    softmax,
    unflatten_layer_params,
)
from fedliab.lrp import lrp_propagate
from netgen import random_dense_net, random_mixed_net


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

    def test_finite_difference_overlapping_pool(self):
        # stride < kernel exercises the general pooling scatter path
        specs = [Conv2D(1, 3, kernel=3), ReLU(), MaxPool(3, 2), Flatten(), Dense(12, 3)]
        net, params = build_network(specs, (1, 7, 7), seed=21)
        rng = np.random.default_rng(21)
        xs = rng.uniform(0.05, 1, size=(3, 1, 7, 7))
        ys = rng.integers(0, 3, size=3)
        _, analytic = loss_and_grad(net, params, (xs, ys))
        numeric = fd_gradients(net, params, (xs, ys))
        assert max_relative_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_mixed(self, seed):
        net, params, x = random_mixed_net(seed)
        if params.param_count() > 900:
            pytest.skip("kept small for runtime")
        rng = np.random.default_rng(seed + 100)
        xs = rng.uniform(0.05, 1, size=(3,) + net.input_shape)
        ys = rng.integers(0, net.class_count, size=3)
        _, analytic = loss_and_grad(net, params, (xs, ys))
        numeric = fd_gradients(net, params, (xs, ys))
        assert max_relative_error(analytic, numeric) <= 1e-4


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
        assert lrp_propagate(net, w, np.array([1.0, 0.0])).target_class == 1

    def test_tie_breaks_low(self):
        net, _ = build_network([Dense(2, 2)], (2,), seed=0)
        w = make_params([(np.ones((2, 2)), np.zeros(2))])
        assert lrp_propagate(net, w, np.array([0.5, 0.5])).target_class == 0

    def test_all_equal_logits(self):
        net, _ = build_network([Dense(2, 3)], (2,), seed=0)
        zeros = make_params([(np.zeros((3, 2)), np.zeros(3))])
        assert lrp_propagate(net, zeros, np.array([1.0, 2.0])).target_class == 0


class TestFlatten:
    def test_documented_order(self):
        params = make_params([(np.array([[3.0, 4.0]]), np.array([5.0]))])
        np.testing.assert_array_equal(flatten_layer_params(params, 0), [3.0, 4.0, 5.0])

    def test_round_trip(self):
        net, params = build_network(reference_network(4, 12), (1, 12, 12), seed=9)
        for i in range(len(params)):
            w, b = params.layers[i]
            flat = flatten_layer_params(params, i)
            w2, b2 = unflatten_layer_params(flat, w.shape, b.shape)
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)

    def test_length(self):
        net, params = build_network([Dense(4, 3)], (4,), seed=0)
        assert flatten_layer_params(params, 0).size == 4 * 3 + 3

    def test_out_of_range(self):
        _, params = build_network([Dense(4, 3)], (4,), seed=0)
        with pytest.raises(IndexError):
            flatten_layer_params(params, 1)


class TestSoftmax:
    def test_probability_vector(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=30, size=(200, 7))
        p = softmax(z)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


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
