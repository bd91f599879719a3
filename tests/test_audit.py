import numpy as np
import pytest

from fedliab.audit import (
    AuditConfig,
    DistanceRecorder,
    DistanceTensor,
    ReputationTracker,
    baseline_cosine_score,
    compute_radist,
    cosine_distance,
    detect,
    distance_tensor_from_bytes,
    distance_tensor_to_bytes,
    log_round,
    normalize_scores,
    reputation_from_accuracies,
    write_scores_csv,
)
from fedliab.flsim import RoundRecord, TrainConfig, evaluate, run_training
from fedliab.nn import make_params
from test_flsim import tiny_setup


def radist_oracle(values, r):
    """Independent triple loop over (epoch, node, layer)."""
    e_dim, n_dim, l_dim = values.shape
    out = np.zeros((e_dim, n_dim))
    for e in range(e_dim):
        for n in range(n_dim):
            acc = 0.0
            for l in range(l_dim):
                acc += values[e, n, l] * r[l]
            out[e, n] = acc
    return out


class TestCosineDistance:
    def test_equal_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, v) == 0.0

    def test_opposite_vectors(self):
        v = np.array([1.0, -2.0])
        assert cosine_distance(v, -v) == pytest.approx(2.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_zero_conventions(self):
        z = np.zeros(3)
        v = np.array([1.0, 0.0, 0.0])
        assert cosine_distance(z, z) == 0.0
        assert cosine_distance(z, v) == 1.0
        assert cosine_distance(v, z) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_distance(np.zeros(2), np.zeros(3))

    def test_range_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = cosine_distance(rng.normal(size=8), rng.normal(size=8))
            assert 0.0 <= d <= 2.0


class TestLogRound:
    def test_single_node_zero_distance(self):
        net, params, nodes = tiny_setup(n_nodes=1)
        cfg = TrainConfig(rounds=2, lr=0.05, batch_size=4, master_seed=3)
        recorder = DistanceRecorder(rounds=2, nodes=1, layers=len(params))
        run_training(net, params, nodes[:1], cfg, observers=[recorder])
        np.testing.assert_allclose(recorder.tensor().values, 0.0, atol=1e-12)

    def test_identical_uploads_zero_rows(self):
        p = make_params([(np.array([[1.0, 2.0]]), np.array([0.5]))])
        values = np.zeros((1, 2, 1))
        log_round(RoundRecord(0, (p, p), p), values)
        np.testing.assert_array_equal(values, 0.0)

    def test_hand_distances(self):
        a = make_params([(np.array([[1.0, 0.0]]), np.zeros(0))])
        b = make_params([(np.array([[0.0, 1.0]]), np.zeros(0))])
        g = make_params([(np.array([[0.5, 0.5]]), np.zeros(0))])
        values = np.zeros((1, 2, 1))
        log_round(RoundRecord(0, (a, b), g), values)
        expected = 1.0 - np.sqrt(0.5)
        np.testing.assert_allclose(values[0, :, 0], expected, atol=1e-12)

    def test_epoch_out_of_range(self):
        p = make_params([(np.array([[1.0]]), np.zeros(1))])
        with pytest.raises(IndexError):
            log_round(RoundRecord(5, (p,), p), np.zeros((2, 1, 1)))

    def test_tensor_names_first_unrecorded_epoch(self):
        with pytest.raises(ValueError, match="epoch 0 was never recorded"):
            DistanceRecorder(3, 2, 4).tensor()
        p = make_params([(np.array([[1.0, 2.0]]), np.array([0.5]))])
        recorder = DistanceRecorder(3, 2, 1)
        recorder.on_round(RoundRecord(0, (p, p), p))
        recorder.on_round(RoundRecord(2, (p, p), p))
        with pytest.raises(ValueError, match="epoch 1 was never recorded"):
            recorder.tensor()
        recorder.on_round(RoundRecord(1, (p, p), p))
        np.testing.assert_array_equal(recorder.tensor().values, 0.0)


class TestRadist:
    def test_constant_tensor(self):
        t = DistanceTensor(np.full((3, 4, 5), 0.42))
        r = np.full(5, 0.2)
        np.testing.assert_allclose(compute_radist(t, r), 0.42, atol=1e-15)

    def test_hand_dot_product(self):
        values = np.array([[[0.1, 0.3], [0.2, 0.4]]])
        m = compute_radist(DistanceTensor(values), np.array([0.5, 0.5]))
        np.testing.assert_allclose(m, [[0.2, 0.3]], atol=1e-15)

    def test_one_hot_selects_slice(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 2, size=(4, 3, 5))
        t = DistanceTensor(values)
        r = np.zeros(5)
        r[3] = 1.0
        np.testing.assert_array_equal(compute_radist(t, r), values[:, :, 3])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            values = rng.uniform(0, 2, size=(5, 6, 4))
            r = rng.dirichlet(np.ones(4))
            np.testing.assert_allclose(
                compute_radist(DistanceTensor(values), r),
                radist_oracle(values, r),
                atol=1e-12,
                rtol=0,
            )

    def test_sandwich_bound(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 2, size=(6, 5, 4))
        r = rng.dirichlet(np.ones(4))
        m = compute_radist(DistanceTensor(values), r)
        assert np.all(m >= values.min(axis=2) - 1e-12)
        assert np.all(m <= values.max(axis=2) + 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_radist(DistanceTensor(np.zeros((1, 1, 3))), np.ones(2))


class TestDetect:
    def test_alpha_two_single_outlier(self):
        # one node at 0.9, nine at 0.1: global mean 0.18, only 0.9 > 0.36
        m = np.tile(np.array([[0.9] + [0.1] * 9]), (5, 1))
        report = detect(m, AuditConfig(alpha=2.0))
        assert report.flagged == (0,)
        assert report.global_mean == pytest.approx(0.18)

    def test_equal_means_no_flags(self):
        m = np.full((4, 6), 0.3)
        assert detect(m, AuditConfig(alpha=2.0)).flagged == ()

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(0, 1, size=(6, 8))
        base = detect(m, AuditConfig(alpha=1.5)).flagged
        assert detect(12.5 * m, AuditConfig(alpha=1.5)).flagged == base

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            detect(np.ones((3, 1)), AuditConfig())

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            AuditConfig(alpha=1.0)

    def test_report_invariant(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0, 2, size=(7, 9))
        report = detect(m, AuditConfig(alpha=1.2))
        expected = {
            int(n)
            for n in range(9)
            if report.per_node_mean[n] > 1.2 * report.global_mean
        }
        assert set(report.flagged) == expected


class TestBaselines:
    def test_cosine_equals_uniform_radist(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0, 2, size=(4, 5, 3))
        t = DistanceTensor(values)
        np.testing.assert_allclose(
            baseline_cosine_score(t),
            compute_radist(t, np.full(3, 1 / 3)),
            atol=1e-12,
        )

    def test_single_layer_slice(self):
        values = np.random.default_rng(7).uniform(0, 2, size=(4, 5, 1))
        np.testing.assert_array_equal(
            baseline_cosine_score(DistanceTensor(values)), values[:, :, 0]
        )

    def test_zero_tensor(self):
        t = DistanceTensor(np.zeros((2, 3, 4)))
        np.testing.assert_array_equal(baseline_cosine_score(t), 0.0)

    def test_reputation_perfect_classifier(self):
        acc = np.ones((5, 3))
        rep = reputation_from_accuracies(acc)
        np.testing.assert_array_equal(rep, 1.0)

    def test_reputation_constant_accuracy(self):
        acc = np.full((10, 2), 0.7)
        np.testing.assert_allclose(reputation_from_accuracies(acc), 0.7, atol=1e-15)

    def test_reputation_one_then_zero(self):
        acc = np.array([[1.0], [0.0]])
        rep = reputation_from_accuracies(acc)
        assert rep[1, 0] == pytest.approx(0.5)

    def test_baseline_reputation_from_records(self):
        # the observer's score against the same records replayed by hand
        net, params, datasets = tiny_setup(n_nodes=2, per_node=8)
        cfg = TrainConfig(rounds=3, lr=0.05, batch_size=4, master_seed=3)
        records = []

        class Keep:
            def on_round(self, record):
                records.append(record)

        tracker = ReputationTracker(net, datasets, rounds=3)
        run_training(net, params, datasets, cfg, observers=[Keep(), tracker])
        acc = np.array(
            [[evaluate(net, p, ds).overall for p, ds in zip(r.local_params, datasets)] for r in records]
        )
        score = tracker.score()
        assert score.shape == (3, 2)
        np.testing.assert_array_equal(score, 1.0 - reputation_from_accuracies(acc))
        assert np.all(score >= 0) and np.all(score <= 1)


class TestNormalize:
    def test_midpoint(self):
        out = normalize_scores(np.array([[2.0, 4.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.5]])

    def test_constant_maps_to_zero(self):
        np.testing.assert_array_equal(normalize_scores(np.full((2, 3), 7.0)), 0.0)

    def test_preserves_order(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=(5, 5))
        out = normalize_scores(t)
        assert np.array_equal(np.argsort(t, axis=None), np.argsort(out, axis=None))


class TestRangeInvariant:
    def test_distances_in_range_for_random_params(self):
        rng = np.random.default_rng(9)
        values = np.zeros((3, 4, 2))
        for e in range(3):
            locals_ = [
                make_params(
                    [
                        (rng.normal(size=(3, 5)), rng.normal(size=3)),
                        (rng.normal(size=(2, 3)), rng.normal(size=2)),
                    ]
                )
                for _ in range(4)
            ]
            g = make_params(
                [
                    (rng.normal(size=(3, 5)), rng.normal(size=3)),
                    (rng.normal(size=(2, 3)), rng.normal(size=2)),
                ]
            )
            log_round(RoundRecord(e, tuple(locals_), g), values)
        t = DistanceTensor(values)
        assert t.values.min() >= 0 and t.values.max() <= 2

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError, match=r"epoch 0, node 0, layer 0"):
            DistanceTensor(np.full((2, 3, 4), np.nan))

    def test_one_nan_rejected_before_it_hides_the_outlier(self):
        # NaN fails both sides of the [0, 2] check, so a NaN entry would
        # otherwise reach detect and turn the flagged set from (0,) into ()
        values = np.full((2, 3, 4), 0.1)
        values[:, 0, :] = 1.5
        matrix = compute_radist(DistanceTensor(values.copy()), np.full(4, 0.25))
        assert detect(matrix, AuditConfig(alpha=2.0)).flagged == (0,)
        values[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match=r"epoch 1, node 2, layer 3"):
            DistanceTensor(values)

    def test_caller_array_stays_writable(self):
        values = np.full((1, 2, 3), 0.5)
        t = DistanceTensor(values)
        assert values.flags.writeable and not t.values.flags.writeable
        values[0, 1, 2] = 1.5
        assert t.values[0, 1, 2] == 0.5

    def test_infinity_rejected(self):
        values = np.zeros((1, 2, 2))
        values[0, 1, 0] = np.inf
        with pytest.raises(ValueError, match=r"epoch 0, node 1, layer 0"):
            DistanceTensor(values)


class TestSerialization:
    def test_storage_accounting_exact(self):
        e, n, l = 5, 4, 3
        t = DistanceTensor(np.random.default_rng(10).uniform(0, 2, size=(e, n, l)))
        raw = distance_tensor_to_bytes(t)
        header = (
            '{"dims": [' + f"{e}, {n}, {l}" + '], "dtype": "<f8", '
            '"order": "epoch,node,layer"}'
        )
        assert len(raw) == len(header.encode()) + 1 + 8 * e * n * l

    def test_round_trip(self):
        t = DistanceTensor(np.random.default_rng(11).uniform(0, 2, size=(2, 3, 4)))
        back = distance_tensor_from_bytes(distance_tensor_to_bytes(t))
        np.testing.assert_array_equal(back.values, t.values)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw + b"junk1234",
            lambda raw: raw[:-8],
            lambda raw: raw.replace(b'"<f8"', b'">f8"'),
            lambda raw: raw.replace(b"epoch,node,layer", b"node,epoch,layer"),
            lambda raw: raw.replace(b'"dtype"', b'"dtypo"'),
            lambda raw: raw.partition(b"\n")[0],
        ],
        ids=["trailing", "short", "dtype", "order", "no-dtype", "no-payload"],
    )
    def test_malformed_rejected(self, damage):
        t = DistanceTensor(np.random.default_rng(11).uniform(0, 2, size=(2, 3, 4)))
        with pytest.raises(ValueError, match="distance"):
            distance_tensor_from_bytes(damage(distance_tensor_to_bytes(t)))

    def test_scores_csv_row_count(self, tmp_path):
        e, n = 4, 3
        traces = {
            "radist": np.zeros((e, n)),
            "cosine": np.zeros((e, n)),
            "reputation": np.zeros((e, n)),
        }
        path = tmp_path / "s.csv"
        write_scores_csv(traces, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3 * e * n

