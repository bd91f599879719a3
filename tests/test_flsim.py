import numpy as np
import pytest

from fedliab.audit import DistanceRecorder
from fedliab.data import Dataset, synth_generate
from fedliab.flsim import (
    EVAL_BATCH,
    TrainConfig,
    aggregate,
    evaluate,
    local_train,
    model_inputs,
    predict_logits,
    run_training,
)
from fedliab.nn import (
    Dense,
    ReLU,
    build_network,
    forward_batch,
    loss_and_grad,
    make_params,
    params_to_bytes,
    reference_network,
    sgd_step,
)


def tiny_setup(n_nodes=3, per_node=12, classes=4, seed=0):
    ds = synth_generate(classes, per_node * n_nodes, seed=seed, image_size=8)
    net, params = build_network(
        [Dense(64, 8), ReLU(), Dense(8, classes)], (64,), seed=seed
    )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    parts = [ds.subset(order[i * per_node : (i + 1) * per_node]) for i in range(n_nodes)]
    return net, params, parts


class TestLocalTrain:
    def test_zero_lr_returns_global(self):
        net, params, nodes = tiny_setup()
        cfg = TrainConfig(rounds=1, lr=0.0, master_seed=1)
        out = local_train(net, 0, nodes[0], params, cfg, epoch=0)
        assert out is params

    def test_deterministic(self):
        net, params, nodes = tiny_setup()
        cfg = TrainConfig(rounds=1, lr=0.05, batch_size=4, master_seed=1)
        a = local_train(net, 1, nodes[1], params, cfg, epoch=3)
        b = local_train(net, 1, nodes[1], params, cfg, epoch=3)
        assert params_to_bytes(a) == params_to_bytes(b)

    def test_epoch_changes_batch_order(self):
        net, params, nodes = tiny_setup()
        cfg = TrainConfig(rounds=1, lr=0.05, batch_size=4, master_seed=1)
        a = local_train(net, 1, nodes[1], params, cfg, epoch=0)
        b = local_train(net, 1, nodes[1], params, cfg, epoch=1)
        assert params_to_bytes(a) != params_to_bytes(b)

    def test_single_sample_equals_sgd_step(self):
        net, params, nodes = tiny_setup()
        one = nodes[0].subset([0])
        cfg = TrainConfig(rounds=1, lr=0.1, batch_size=1, master_seed=5)
        out = local_train(net, 0, one, params, cfg, epoch=0)
        x = one.images.reshape(1, 64)
        _, grads = loss_and_grad(net, params, (x, one.labels))
        expected = sgd_step(params, grads, 0.1)
        assert params_to_bytes(out) == params_to_bytes(expected)


class TestAggregate:
    def test_identical_inputs(self):
        _, params, _ = tiny_setup()
        out = aggregate([params, params, params], [1, 1, 1])
        assert params_to_bytes(out) == params_to_bytes(params)

    def test_uniform_midpoint(self):
        a = make_params([(np.zeros((2, 2)), np.zeros(2))])
        b = make_params([(np.full((2, 2), 2.0), np.full(2, 2.0))])
        out = aggregate([a, b], [1, 1])
        np.testing.assert_array_equal(out.layers[0][0], np.ones((2, 2)))

    def test_weighted(self):
        a = make_params([(np.zeros((1, 1)), np.zeros(1))])
        b = make_params([(np.full((1, 1), 4.0), np.full(1, 4.0))])
        out = aggregate([a, b], [3, 1])
        np.testing.assert_array_equal(out.layers[0][0], [[1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])

    def test_zero_weight_sum_rejected(self):
        _, params, _ = tiny_setup()
        with pytest.raises(ValueError):
            aggregate([params], [0.0])

    def test_convex_bound(self):
        rng = np.random.default_rng(3)
        locals_ = [
            make_params([(rng.normal(size=(3, 4)), rng.normal(size=3))])
            for _ in range(5)
        ]
        out = aggregate(locals_, rng.uniform(0.1, 1, size=5))
        stack = np.stack([p.layers[0][0] for p in locals_])
        assert np.all(out.layers[0][0] >= stack.min(axis=0) - 1e-12)
        assert np.all(out.layers[0][0] <= stack.max(axis=0) + 1e-12)


class TestRunTraining:
    def test_single_node_global_is_local(self):
        net, params, nodes = tiny_setup(n_nodes=1)
        cfg = TrainConfig(rounds=2, lr=0.05, batch_size=4, master_seed=2)
        result = run_training(net, params, nodes[:1], cfg)
        manual = params
        for epoch in range(2):
            manual = local_train(net, 0, nodes[0], manual, cfg, epoch)
        assert params_to_bytes(result.final_params) == params_to_bytes(manual)

    def test_uploads_weighted_by_dataset_size(self):
        net, params, nodes = tiny_setup(n_nodes=2)
        datasets = [nodes[0], nodes[1].subset(range(4))]
        cfg = TrainConfig(rounds=1, lr=0.05, batch_size=4, master_seed=2)
        result = run_training(net, params, datasets, cfg)
        locals_ = [local_train(net, i, ds, params, cfg, 0) for i, ds in enumerate(datasets)]
        assert params_to_bytes(result.final_params) == params_to_bytes(aggregate(locals_, [12.0, 4.0]))

    def test_message_count_with_and_without_observer(self):
        net, params, nodes = tiny_setup(n_nodes=3)
        cfg = TrainConfig(rounds=4, lr=0.05, batch_size=4, master_seed=2)
        plain = run_training(net, params, nodes, cfg)
        recorder = DistanceRecorder(rounds=4, nodes=3, layers=len(params))
        observed = run_training(net, params, nodes, cfg, observers=[recorder])
        assert plain.message_count == observed.message_count == 2 * 3 * 4

    def test_observer_transparency(self):
        net, params, nodes = tiny_setup(n_nodes=3)
        cfg = TrainConfig(rounds=3, lr=0.05, batch_size=4, master_seed=2)
        recorder = DistanceRecorder(rounds=3, nodes=3, layers=len(params))
        with_obs = run_training(net, params, nodes, cfg, observers=[recorder])
        without = run_training(net, params, nodes, cfg)
        assert params_to_bytes(with_obs.final_params) == params_to_bytes(without.final_params)

    def test_fewer_nodes_fewer_messages(self):
        net, params, nodes = tiny_setup(n_nodes=3)
        cfg = TrainConfig(rounds=2, lr=0.05, batch_size=4, master_seed=2)
        result = run_training(net, params, nodes[:2], cfg)
        assert result.message_count == 2 * 2 * 2

    def test_empty_dataset_rejected(self):
        net, params, nodes = tiny_setup(n_nodes=3)
        empty = Dataset(np.zeros((0, 8, 8)), np.zeros(0, dtype=int), 4)
        with pytest.raises(ValueError, match="node 1: empty"):
            run_training(net, params, [nodes[0], empty, nodes[2]], TrainConfig(rounds=1))

    def test_non_finite_loss_names_round_node_and_step(self):
        # the first step's weights are ~1e299, so the second step's logits overflow
        net, params, nodes = tiny_setup(n_nodes=3)
        cfg = TrainConfig(rounds=2, lr=1e300, batch_size=4, master_seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="round 0, node 0, step 1: loss is nan"):
                run_training(net, params, nodes, cfg)


class TestEvaluate:
    def test_chunked_logits_equal_one_whole_pass(self):
        ds = synth_generate(10, 25, seed=4, image_size=20)  # two full chunks and a partial one
        assert 2 * EVAL_BATCH < len(ds) < 3 * EVAL_BATCH
        net, params = build_network(reference_network(10, 20), (1, 20, 20), seed=4)
        whole = forward_batch(net, params, model_inputs(net, ds.images))[-1]
        assert np.array_equal(predict_logits(net, params, ds), whole)

    def test_constant_predictor_on_its_class(self):
        net, _ = build_network([Dense(4, 3)], (4,), seed=0)
        zeros = make_params([(np.zeros((3, 4)), np.zeros(3))])  # always argmax 0
        ds = Dataset(np.random.default_rng(0).random((20, 2, 2)), np.zeros(20, dtype=int), 3)
        result = evaluate(net, zeros, ds)
        assert result.overall == 1.0
        assert result.per_class[0] == 1.0

    def test_absent_class_is_nan(self):
        net, _ = build_network([Dense(4, 3)], (4,), seed=0)
        zeros = make_params([(np.zeros((3, 4)), np.zeros(3))])
        ds = Dataset(np.zeros((5, 2, 2)), np.zeros(5, dtype=int), 3)
        result = evaluate(net, zeros, ds)
        assert np.isnan(result.per_class[1]) and np.isnan(result.per_class[2])

    def test_random_models_near_chance(self):
        # Monte Carlo: untrained networks average out to chance level
        ds = synth_generate(10, 120, seed=8)
        accs = []
        for seed in range(10):
            net, params = build_network(reference_network(10), (1, 28, 28), seed=seed)
            accs.append(evaluate(net, params, ds).overall)
        assert abs(float(np.mean(accs)) - 0.1) <= 0.05

    def test_per_class_weighted_mean_is_overall(self):
        net, params, nodes = tiny_setup()
        ds = nodes[0]
        result = evaluate(net, params, ds)
        hist = ds.class_histogram()
        present = hist > 0
        weighted = float(np.sum(result.per_class[present] * hist[present]) / len(ds))
        assert weighted == pytest.approx(result.overall, abs=1e-12)
