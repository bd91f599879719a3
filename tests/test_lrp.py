import json

import numpy as np
import pytest

from fedliab import lrp
from fedliab.lrp import (
    LrpConfig,
    RuleError,
    conservation_report,
    lrp_propagate_batch,
    reduce_to_layer_vector_batch,
    relevance_to_json,
    relevance_to_pgm,
)
from fedliab.nn import Dense, build_network, forward_batch, make_params, reference_network
from fedliab.seeding import stream
from lrp_oracle import oracle_propagate
from netgen import random_conv_net, random_dense_net, random_mixed_net

ZPLUS_EVERYWHERE = LrpConfig(epsilon=0.0, rules={"dense": "zplus", "conv2d": "zplus"})


class TestConfig:
    def test_rejects_unknown_rule(self):
        with pytest.raises(RuleError):
            LrpConfig(rules={"dense": "gamma"})

    def test_rejects_missing_layer_kind(self):
        with pytest.raises(RuleError, match="no rule assigned for layer kind 'conv2d'"):
            LrpConfig(rules={"dense": "zplus"})

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            LrpConfig(epsilon=-1e-9)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            LrpConfig(epsilon=float("nan"))


class TestPropagate:
    def test_single_dense_z_rule(self):
        # w=(2,1), no bias, x=(1,1), logit 3; shares split 2:1
        net, _ = build_network([Dense(2, 1)], (2,), seed=0)
        params = make_params([(np.array([[2.0, 1.0]]), np.zeros(1))])
        rel, _ = lrp_propagate_batch(net, params, np.array([[1.0, 1.0]]), [0], LrpConfig(epsilon=0.0))
        np.testing.assert_allclose(rel[0][0], [2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rel[-1][0], [3.0], atol=1e-12)

    def test_identity_network(self):
        net, _ = build_network([Dense(3, 3)], (3,), seed=0)
        params = make_params([(np.eye(3), np.zeros(3))])
        x = np.array([0.5, 2.0, 1.0])
        rel, _ = lrp_propagate_batch(net, params, x[None], [1], LrpConfig(epsilon=0.0))
        np.testing.assert_allclose(rel[0][0], [0.0, 2.0, 0.0], atol=1e-12)

    def test_shapes_match_trace(self):
        for seed in range(12):
            net, params, x = random_mixed_net(seed)
            boundaries = forward_batch(net, params, x[None])
            rel, _ = lrp_propagate_batch(net, params, x[None], [0])
            assert len(rel) == len(boundaries)
            for r, a in zip(rel, boundaries):
                assert r.shape == a.shape

    def test_target_class_out_of_range(self):
        net, params, x = random_dense_net(1)
        with pytest.raises(ValueError):
            lrp_propagate_batch(net, params, x[None], [net.class_count])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_neuron_oracle(self, seed):
        net, params, x = random_mixed_net(seed)
        for cfg in (
            LrpConfig(epsilon=1e-6),
            ZPLUS_EVERYWHERE,
            LrpConfig(epsilon=0.0),
        ):
            rel, _ = lrp_propagate_batch(net, params, x[None], [seed % net.class_count], cfg)
            oracle = oracle_propagate(
                net, params, x, seed % net.class_count, cfg.rules, cfg.epsilon
            )
            for got, want in zip(rel, oracle):
                np.testing.assert_allclose(got[0], want, atol=1e-10, rtol=0)


def _abs_epsilon(cfg, z, z_nonneg):
    """The adaptive stabilizer as defined, 1e-9 * mean|z| floored at 1e-12,
    with |z| taken whatever the layer's input."""
    per_sample = 1e-9 * np.abs(z).reshape(z.shape[0], -1).mean(axis=1)
    return np.maximum(per_sample, 1e-12).reshape((z.shape[0],) + (1,) * (z.ndim - 1))


class TestAdaptiveEpsilon:
    """A zplus layer reads mean z for the adaptive stabilizer only where its
    input has no negative entry; there mean z is mean|z| bit for bit, and
    elsewhere |z| must stay."""

    @pytest.mark.parametrize("pixels", ["signed", "non-negative"])
    @pytest.mark.parametrize("dense_rule", ["epsilon", "zplus"])
    @pytest.mark.parametrize("size", [20, 28])
    def test_matches_abs_formulation(self, size, dense_rule, pixels, monkeypatch):
        net, params = build_network(reference_network(6 if size == 28 else 10, size), (1, size, size), seed=size)
        rng = stream(size, "adaptive-epsilon")
        shape = (20,) + net.input_shape
        x = rng.standard_normal(shape) if pixels == "signed" else rng.uniform(0.0, 1.0, shape)
        assert (x.min() < 0) == (pixels == "signed")
        cfg = LrpConfig(rules={"dense": dense_rule, "conv2d": "zplus"})
        rel, targets = lrp_propagate_batch(net, params, x, None, cfg)
        monkeypatch.setattr(lrp, "_effective_epsilon", _abs_epsilon)
        want, want_targets = lrp_propagate_batch(net, params, x, None, cfg)
        assert np.array_equal(targets, want_targets)
        assert reduce_to_layer_vector_batch(rel, net).tobytes() == reduce_to_layer_vector_batch(want, net).tobytes()
        assert rel[0].tobytes() == want[0].tobytes()


class TestBatchInvariance:
    """A sample's boundaries, relevance, target and layer weights have the
    same bits in any batch as in a batch of one; the audit relies on it to
    reuse batched relevance where a re-audit recomputes one sample."""

    @pytest.mark.parametrize(
        "kind, seed",
        [("conv", s) for s in range(6)]
        + [("dense", s) for s in range(6)]
        + [("reference", 20), ("reference", 28)],
    )
    def test_batch_matches_batch_of_one(self, kind, seed):
        if kind == "reference":
            net, params = build_network(reference_network(10, seed), (1, seed, seed), seed=seed)
        else:
            net, params, _ = (random_conv_net if kind == "conv" else random_dense_net)(seed)
        rng = stream(seed, "batch-invariance")
        for batch in (1, 7, 50):
            x = rng.uniform(0.0, 1.0, size=(batch,) + net.input_shape)
            trace = forward_batch(net, params, x)
            for i in range(batch):
                one = forward_batch(net, params, x[i : i + 1])
                assert all(np.array_equal(a[i], b[0]) for a, b in zip(trace, one)), (batch, i)
            for cfg in (LrpConfig(), LrpConfig(epsilon=1e-6), ZPLUS_EVERYWHERE):
                rel, targets = lrp_propagate_batch(net, params, x, None, cfg)
                weights = reduce_to_layer_vector_batch(rel, net)
                for i in range(batch):
                    rel_one, target_one = lrp_propagate_batch(net, params, x[i : i + 1], None, cfg)
                    assert targets[i] == target_one[0]
                    assert all(np.array_equal(a[i], b[0]) for a, b in zip(rel, rel_one)), (batch, i, cfg)
                    assert np.array_equal(weights[i], reduce_to_layer_vector_batch(rel_one, net)[0])


class TestConservation:
    def test_exact_with_zplus_and_zero_biases(self):
        # positive inputs, zero biases: every redistribution step conserves
        for seed in range(10):
            net, params, x = random_mixed_net(seed, bias_scale=0.0)
            logits = forward_batch(net, params, x[None])[-1][0]
            t = int(np.argmax(logits))
            if logits[t] <= 0:
                continue
            rel, _ = lrp_propagate_batch(net, params, x[None], [t], ZPLUS_EVERYWHERE)
            leakage = conservation_report([r[0] for r in rel], logits[t])
            assert leakage.max() <= 1e-10

    def test_start_boundary_leakage_zero(self):
        net, params, x = random_dense_net(3)
        logits = forward_batch(net, params, x[None])[-1][0]
        rel, _ = lrp_propagate_batch(net, params, x[None], [0], LrpConfig(epsilon=0.0))
        assert conservation_report([r[0] for r in rel], logits[0])[-1] == 0.0

    def test_epsilon_leakage_reported(self):
        # with a stabilizer, leakage exists and is finite; recorded, not bounded
        net, params, x = random_dense_net(4)
        logits = forward_batch(net, params, x[None])[-1][0]
        t = int(np.argmax(logits))
        rel, _ = lrp_propagate_batch(net, params, x[None], [t], LrpConfig(epsilon=0.1))
        leakage = conservation_report([r[0] for r in rel], logits[t])
        assert np.all(np.isfinite(leakage))


class TestReduce:
    def test_one_hot_mass(self):
        net, params, x = random_dense_net(6)
        rel, _ = lrp_propagate_batch(net, params, x[None], [0])
        for li in net.param_layer_indices:
            rel[li] = np.zeros_like(rel[li])
        first = net.param_layer_indices[0]
        rel[first] = np.ones_like(rel[first])
        vec = reduce_to_layer_vector_batch(rel, net)[0]
        expected = np.zeros(net.num_param_layers)
        expected[0] = 1.0
        np.testing.assert_allclose(vec, expected, atol=1e-15)

    def test_zero_mass_uniform(self):
        net, params, x = random_dense_net(6)
        rel, _ = lrp_propagate_batch(net, params, x[None], [0])
        vec = reduce_to_layer_vector_batch([np.zeros_like(r) for r in rel], net)[0]
        np.testing.assert_allclose(vec, 1.0 / net.num_param_layers, atol=1e-15)

    def test_equal_mass_uniform(self):
        net, params, x = random_conv_net(2)
        rel, _ = lrp_propagate_batch(net, params, x[None], [0])
        rel = [np.zeros_like(r) for r in rel]
        for li in net.param_layer_indices:
            rel[li].flat[0] = 7.5
        vec = reduce_to_layer_vector_batch(rel, net)[0]
        np.testing.assert_allclose(vec, 1.0 / net.num_param_layers, atol=1e-15)

    def test_scale_covariance(self):
        net, params, x = random_mixed_net(8)
        rel, _ = lrp_propagate_batch(net, params, x[None], [0])
        np.testing.assert_allclose(
            reduce_to_layer_vector_batch(rel, net)[0],
            reduce_to_layer_vector_batch([3.7 * r for r in rel], net)[0],
            atol=1e-12,
        )

    def test_convex_weights(self):
        for seed in range(8):
            net, params, x = random_mixed_net(seed)
            rel, _ = lrp_propagate_batch(net, params, x[None], [0])
            vec = reduce_to_layer_vector_batch(rel, net)[0]
            assert np.all(vec >= 0)
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)
            assert vec.size == net.num_param_layers


class TestExports:
    def test_pgm_header_and_size(self, tmp_path):
        rel = np.linspace(-1, 1, 28 * 28).reshape(28, 28)
        path = tmp_path / "heat.pgm"
        relevance_to_pgm(rel, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n28 28\n255\n")
        assert len(raw) == len(b"P5\n28 28\n255\n") + 28 * 28

    def test_pgm_channel_sum(self, tmp_path):
        rel = np.ones((3, 4, 5))
        relevance_to_pgm(rel, tmp_path / "c.pgm")
        assert (tmp_path / "c.pgm").read_bytes().startswith(b"P5\n5 4\n255\n")

    def test_json_round_trip(self):
        rel = np.arange(6.0).reshape(2, 3)
        blob = json.loads(json.dumps(relevance_to_json(rel)))
        assert blob["shape"] == [2, 3]
        np.testing.assert_array_equal(
            np.array(blob["values"]).reshape(2, 3), rel
        )
