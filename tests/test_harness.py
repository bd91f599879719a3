import json
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from fedliab import data, harness, lrp, nn
from fedliab.audit import DistanceTensor, save_distance_tensor
from fedliab.cli import main
from fedliab.flsim import EVAL_BATCH, accuracy, model_inputs, predict_logits
from fedliab.harness import (
    ConfigError,
    ExperimentConfig,
    audit_run_dir,
    build_model,
    config_from_mapping,
    config_to_mapping,
    load_config,
    load_experiment_data,
    load_test_sample,
    measure_overhead,
    node_datasets,
    parse_config_text,
    preferred_classes,
    rerun_from_manifest,
    run_and_export,
    run_scenario,
    select_audit_sample,
)
from fedliab.lrp import LrpConfig, lrp_propagate_batch
from fedliab.seeding import derive_seed

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# what audit.json and `fedliab audit` both report about the audited decision
AUDIT_SHARED_KEYS = (
    "alpha", "global_mean", "per_node_mean", "flagged", "sample_id", "target_class", "layer_weights"
)

TINY = dict(
    classes=6,
    train_per_class=80,
    test_per_class=25,
    image_size=12,
    nodes=4,
    per_node_size=60,
    bias_factor=5.0,
    rounds=3,
    batch_size=20,
    attack_source=2,
    attack_target=5,
    seed=3,
)


def tiny_config(**overrides):
    return ExperimentConfig(**{**TINY, **overrides})


class TestConfig:
    def test_parse_text(self):
        cfg = parse_config_text(
            """
            # comment
            nodes = 4
            lr = 0.1
            scenario = all_correct
            lrp_epsilon = auto
            """
        )
        assert cfg.nodes == 4 and cfg.lr == 0.1
        assert cfg.scenario == "all_correct"
        assert cfg.lrp_epsilon is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("nodes = 4\nbogus = 1\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="'nodes' repeated on lines 1 and 3"):
            parse_config_text("nodes = 4\nlr = 0.1\nnodes = 6\n")

    def test_repeated_json_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"nodes": 4, "nodes": 6}')
        with pytest.raises(ConfigError, match="'nodes' repeated"):
            load_config(path)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("nodes = many\n")

    def test_bad_scenario_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"scenario": "sideways"})

    def test_attacker_range_checked(self):
        with pytest.raises(ConfigError, match="attacker"):
            config_from_mapping({"nodes": 3, "attacker": 3})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lr", "-1"),
            ("lr", "nan"),
            ("lr", "inf"),
            ("rounds", "0"),
            ("batch_size", "0"),
            ("local_passes", "0"),
            ("lrp_epsilon", "nan"),
            ("lrp_epsilon", "-1e-9"),
            ("lrp_epsilon", "inf"),
            ("alpha", "1"),
            ("alpha", "nan"),
            ("alpha", "inf"),
            ("bias_factor", "nan"),
            ("bias_factor", "-0.5"),
            ("image_size", "4"),
            ("image_size", "9"),
            ("nodes", "1"),
            ("nodes", "0"),
            ("train_per_class", "5"),
            ("test_per_class", "0"),
            ("test_per_class", "-1"),
        ],
    )
    def test_bad_setting_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = {value}\n")

    @pytest.mark.parametrize(
        "mapping",
        [
            {"rounds": True},
            {"rounds": False},
            {"rounds": 2.7},
            {"nodes": 3.9},
            {"lr": True},
            {"out": None},
            {"idx_train_images": None},
            {"idx_train_labels": [1]},
            {"idx_test_images": 3},
            {"dataset": ["synthetic"]},
        ],
    )
    def test_bad_json_value_names_its_key(self, mapping):
        (key,) = mapping
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        assert isinstance(load_config(path), ExperimentConfig)

    def test_partition_must_fit_synthetic_corpus(self):
        # desk defaults: every class is one node's preferred class, 26 * 9 + 266 = 500
        assert config_from_mapping({"train_per_class": 500}).train_per_class == 500
        with pytest.raises(ConfigError, match="train_per_class 499: .* 500 samples"):
            config_from_mapping({"train_per_class": 499})
        idx = {k: "x" for k in ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")}
        assert config_from_mapping({"dataset": "idx", "train_per_class": 1, **idx}).train_per_class == 1

    def test_zero_lr_is_legal(self):
        assert parse_config_text("lr = 0\n").lr == 0.0

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError, match="idx"):
            config_from_mapping({"dataset": "idx"})

    def test_mapping_round_trip(self):
        cfg = tiny_config(lrp_epsilon=1e-7)
        back = config_from_mapping(config_to_mapping(cfg))
        assert back == cfg

    def test_manifest_loadable_as_json(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(config_to_mapping(cfg)))
        assert load_config(path) == cfg


class TestPreferredClasses:
    def test_coupling_override(self):
        cfg = tiny_config()
        prefs = preferred_classes(cfg)
        assert prefs[cfg.attacker] == cfg.attack_source
        assert all(0 <= p < cfg.classes for p in prefs)

    def test_default_draw_is_deterministic(self):
        cfg = tiny_config()
        assert preferred_classes(cfg) == preferred_classes(cfg)


@pytest.fixture(scope="module")
def retrain_result():
    return run_scenario(tiny_config(scenario="audited_retrain"))


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    result = run_and_export(tiny_config(scenario="with_misbehaving"), out)
    return out, result


class TestScenarios:
    def test_all_correct_single_phase(self):
        result = run_scenario(tiny_config(scenario="all_correct"))
        assert list(result.phases) == ["all_correct"]
        phase = result.phases["all_correct"]
        assert phase.message_count == 2 * 4 * 3
        assert phase.tensor.dims == (3, 4, 4)

    def test_retrain_excludes_flagged(self, retrain_result):
        faulty = retrain_result.phases["with_misbehaving"]
        retrained = retrain_result.phases["audited_retrain"]
        expected_survivors = tuple(
            i for i in range(4) if i not in faulty.audit.flagged
        )
        assert retrained.node_ids == expected_survivors
        assert retrained.message_count == 2 * len(expected_survivors) * 3

    def test_scores_shapes(self, retrain_result):
        phase = retrain_result.phases["with_misbehaving"]
        for trace in phase.scores.values():
            assert trace.shape == (3, 4)

    def test_audit_targets_predicted_class(self, retrain_result):
        phase = retrain_result.phases["with_misbehaving"]
        assert phase.selection.rule in ("misclassified", "lowest_margin")
        assert 0 <= phase.selection.target_class < 6
        assert np.isclose(phase.selection.layer_weights.sum(), 1.0)

    def test_corruption_applied_only_to_attacker(self):
        cfg = tiny_config()
        clean = node_datasets(cfg, load_experiment_data(cfg)[0], corrupted=False)
        bad = node_datasets(cfg, load_experiment_data(cfg)[0], corrupted=True)
        assert np.sum(bad[cfg.attacker].labels == cfg.attack_source) == 0
        for n in range(4):
            if n != cfg.attacker:
                np.testing.assert_array_equal(bad[n].labels, clean[n].labels)


class TestBoundedAuditPasses:
    """Evaluation and audit selection pass the test set in EVAL_BATCH chunks."""

    def test_peak_memory_does_not_grow_with_the_test_set(self):
        cfg = ExperimentConfig()  # the desk profile's 20x20 reference network
        net, params = build_model(cfg)
        layers = net.num_param_layers
        tensor = DistanceTensor(np.random.default_rng(0).uniform(0, 2, (cfg.rounds, cfg.nodes, layers)))
        images = data.synth_generate(10, 200, seed=1, image_size=20).images
        # label every sample with the class the untrained net predicts least,
        # so nearly every sample is a misclassified candidate at both sizes
        whole = predict_logits(net, params, data.Dataset(images, np.zeros(len(images), dtype=int), 10))
        audited = int(np.argmin(np.bincount(np.argmax(whole, axis=1), minlength=10)))
        peaks = {}
        for n in (2000, 500):
            test = data.Dataset(images[:n], np.full(n, audited), 10)
            tracemalloc.start()
            try:
                logits = predict_logits(net, params, test)
                accuracy(test, logits)
                selection = select_audit_sample(net, params, test, logits, tensor, audited, LrpConfig())
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert selection.rule == "misclassified"
        assert peaks[2000] <= 1.1 * peaks[500], peaks

    def test_run_path_passes_at_most_eval_batch_samples(self, monkeypatch):
        # every forward, relevance and training pass goes through forward_collect
        sizes, relevance = [], []
        collect, propagate = nn.forward_collect, harness.lrp_propagate_batch

        def recording_collect(net, params, inputs, *args, **kwargs):
            sizes.append(len(inputs))
            return collect(net, params, inputs, *args, **kwargs)

        def recording_propagate(net, params, inputs, *args, **kwargs):
            relevance.append(len(inputs))
            return propagate(net, params, inputs, *args, **kwargs)

        monkeypatch.setattr(nn, "forward_collect", recording_collect)
        monkeypatch.setattr(lrp, "forward_collect", recording_collect)
        monkeypatch.setattr(harness, "lrp_propagate_batch", recording_propagate)
        cfg = tiny_config(scenario="with_misbehaving", test_per_class=150)  # 900 test samples
        result = run_scenario(cfg)
        assert result.audit_phase.selection.rule == "misclassified"
        assert max(sizes) <= EVAL_BATCH
        assert sum(relevance) > EVAL_BATCH  # the candidates took more than one chunk

    def test_selection_matches_a_whole_candidate_pass(self):
        cfg = tiny_config(test_per_class=150)
        _, test = load_experiment_data(cfg)
        net, params = build_model(cfg)
        tensor = DistanceTensor(np.random.default_rng(1).uniform(0, 2, (cfg.rounds, cfg.nodes, 4)))
        logits = predict_logits(net, params, test)
        selection = select_audit_sample(net, params, test, logits, tensor, cfg.attack_source, LrpConfig())
        members = np.flatnonzero(test.labels == cfg.attack_source)
        candidates = members[np.argmax(logits[members], axis=1) != cfg.attack_source]
        assert len(candidates) > EVAL_BATCH
        rel, _ = lrp.lrp_propagate_batch(net, params, model_inputs(net, test.images[candidates]), None, LrpConfig())
        rows = lrp.reduce_to_layer_vector_batch(rel, net)
        suspicion = []
        for row in rows:
            matrix = harness.compute_radist(tensor, row)
            suspicion.append(matrix.mean(axis=0).max() / max(matrix.mean(), 1e-18))
        i = int(np.argmax(suspicion))  # the first of equal maxima, as the selection keeps it
        assert selection.sample_id == candidates[i]
        assert np.array_equal(rows[i], selection.layer_weights)
        assert np.array_equal(rel[0][i], selection.input_relevance)
        assert selection.relevance_mass == lrp.layer_masses_batch(rel, net)[i].sum() > 0


class TestExport:
    def test_files_written(self, exported):
        out, _ = exported
        for name in (
            "accuracy.csv",
            "scores.csv",
            "audit.json",
            "overhead.json",
            "manifest.json",
            "distances.bin",
            "model.bin",
            "relevance.json",
            "relevance.pgm",
        ):
            assert (out / name).exists(), name

    def test_scores_row_count(self, exported):
        out, _ = exported
        lines = (out / "scores.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 3 * 4  # header + 3 metrics * E * N

    def test_audit_json_matches_detect(self, exported):
        out, result = exported
        blob = json.loads((out / "audit.json").read_text())
        phase = result.phases["with_misbehaving"]
        assert blob["flagged"] == list(phase.audit.flagged)
        assert blob["sample_id"] == phase.audit.sample_id
        assert blob["selection_rule"] == phase.selection.rule

    def test_accuracy_rows(self, exported):
        out, result = exported
        lines = (out / "accuracy.csv").read_text().splitlines()
        assert lines[0] == "scenario,class,accuracy"
        assert len(lines) == 1 + (1 + 6)  # one phase: overall + per-class rows

    def test_manifest_rerun_reproduces(self, exported, tmp_path):
        out, _ = exported
        rerun_dir = tmp_path / "rerun"
        rerun_from_manifest(out / "manifest.json", rerun_dir)
        for name in ("accuracy.csv", "scores.csv", "audit.json", "manifest.json"):
            assert (rerun_dir / name).read_bytes() == (out / name).read_bytes(), name

    def test_audit_cli_surface(self, exported):
        out, result = exported
        phase = result.phases["with_misbehaving"]
        blob = audit_run_dir(out, phase.audit.sample_id)
        assert blob["per_node_mean"] == [float(v) for v in phase.audit.per_node_mean]
        assert blob["flagged"] == list(phase.audit.flagged)
        stored = json.loads((out / "audit.json").read_text())
        for key in AUDIT_SHARED_KEYS:
            assert blob[key] == stored[key], key
        # the exported heatmap is the single-sample relevance, bit for bit
        cfg = result.config
        net, _ = build_model(cfg)
        image, _ = load_test_sample(cfg, phase.audit.sample_id)
        rel, _ = lrp_propagate_batch(
            net, phase.final_params, model_inputs(net, image[None]), None, LrpConfig(epsilon=cfg.lrp_epsilon)
        )
        exported = json.loads((out / "relevance.json").read_text())["values"]
        assert exported == rel[0][0].ravel().tolist()

    def test_audit_bad_sample_id(self, exported):
        out, _ = exported
        with pytest.raises(RuntimeError, match="sample id"):
            audit_run_dir(out, 10**6)

    def test_audit_rejects_a_log_of_another_shape(self, exported, tmp_path):
        out, result = exported
        run = tmp_path / "run"
        run.mkdir()
        for name in ("manifest.json", "model.bin"):
            (run / name).write_bytes((out / name).read_bytes())
        cfg = result.config
        wider = DistanceTensor(np.zeros((cfg.rounds, cfg.nodes + 2, 4)))
        save_distance_tensor(wider, run / "distances.bin")
        want = f"\\({cfg.rounds}, {cfg.nodes + 2}, 4\\).*\\({cfg.rounds}, {cfg.nodes}, 4\\)"
        with pytest.raises(ValueError, match=f"distances.bin: .*{want}"):
            audit_run_dir(run, result.audit_phase.audit.sample_id)

    def test_audit_rejects_a_model_of_another_network(self, exported, tmp_path, capsys):
        # a 14x14 model beside a 12x12 manifest: the first dense layer's weights differ
        out, result = exported
        run = tmp_path / "run"
        run.mkdir()
        for name in ("manifest.json", "distances.bin"):
            (run / name).write_bytes((out / name).read_bytes())
        _, other = build_model(tiny_config(image_size=14))
        nn.save_params(other, run / "model.bin")
        want = r"parameter 2: expected weights \(64, 16\) biases \(64,\), got \(64, 64\) / \(64,\)"
        with pytest.raises(ValueError, match=f"run/model.bin does not fit manifest.json's network: {want}"):
            audit_run_dir(run, result.audit_phase.audit.sample_id)
        assert main(["audit", "--run-dir", str(run), "--sample-id", "0"]) == 2
        assert "runtime error: " in capsys.readouterr().err


    def test_audit_of_a_decision_without_relevance_mass_fails(self, exported, tmp_path):
        # an all-zero model: every logit is 0, so no relevance reaches any layer
        out, result = exported
        run = tmp_path / "run"
        run.mkdir()
        for name in ("manifest.json", "distances.bin"):
            (run / name).write_bytes((out / name).read_bytes())
        zero = nn.make_params((np.zeros_like(w), np.zeros_like(b)) for w, b in result.audit_phase.final_params)
        nn.save_params(zero, run / "model.bin")
        sample_id = result.audit_phase.audit.sample_id
        with pytest.raises(RuntimeError, match=f"run .*run, sample {sample_id}: .*no relevance mass \\(total 0.0\\)"):
            audit_run_dir(run, sample_id)

class TestLoadTestSample:
    def test_synthetic_matches_full_test_set(self):
        cfg = tiny_config()
        _, test = load_experiment_data(cfg)
        for sample_id in (0, 24, 25, 77, len(test) - 1):
            image, label = load_test_sample(cfg, sample_id)
            assert image.tobytes() == test.images[sample_id].tobytes()
            assert label == test.labels[sample_id]

    @pytest.mark.parametrize("sample_id", [-1, 6 * 25])
    def test_synthetic_bounds(self, sample_id):
        with pytest.raises(RuntimeError, match="sample id"):
            load_test_sample(tiny_config(), sample_id)

    def test_idx_reads_only_the_test_pair(self, tmp_path):
        ds = data.synth_generate(3, 4, seed=5, image_size=10)
        data.write_idx(ds, tmp_path / "test-images", tmp_path / "test-labels")
        cfg = ExperimentConfig(
            dataset="idx",
            classes=3,
            image_size=10,
            idx_train_images=str(tmp_path / "absent-train-images"),
            idx_train_labels=str(tmp_path / "absent-train-labels"),
            idx_test_images=str(tmp_path / "test-images"),
            idx_test_labels=str(tmp_path / "test-labels"),
            attack_source=0,
            attack_target=1,
        )
        for sample_id in (0, 5, 11):
            image, label = load_test_sample(cfg, sample_id)
            np.testing.assert_array_equal(image, ds.images[sample_id])
            assert label == ds.labels[sample_id]
        with pytest.raises(RuntimeError, match="sample id"):
            load_test_sample(cfg, 12)
        with pytest.raises(ConfigError, match="test-images: images are 10x10, but image_size = 12"):
            load_test_sample(replace(cfg, image_size=12), 0)

    def test_audit_generates_one_test_class(self, exported, monkeypatch):
        out, result = exported
        cfg = result.config
        generated = []
        glyphs = data._class_glyphs

        def counting(cls, class_count, per_class, seed, *args):
            generated.append((seed, per_class))
            return glyphs(cls, class_count, per_class, seed, *args)

        monkeypatch.setattr(data, "_class_glyphs", counting)
        blob = audit_run_dir(out, result.audit_phase.audit.sample_id)
        assert blob["flagged"] == list(result.audit_phase.audit.flagged)
        assert sum(n for _, n in generated) <= cfg.test_per_class
        assert derive_seed(cfg.seed, "synth-train") not in {seed for seed, _ in generated}


class TestOverhead:
    def test_report_fields(self):
        cfg = tiny_config(rounds=2)
        report = measure_overhead(cfg, inference_calls=40, train_repeats=1)
        blob = asdict(report)
        assert report.message_count == 2 * 4 * 2
        assert report.relevance_bytes_per_sample == 8 * 12 * 12
        assert report.similarity_bytes_per_epoch_per_node > 4 * 8
        assert report.inference_overhead_ratio > 0
        assert set(blob) == set(report.__dataclass_fields__)

    def test_plain_federation_trained_once(self, monkeypatch):
        # one plain run that is both the warmup and the reported model, then
        # one timed plain and one timed audited run per repeat
        audited = []
        train = harness.run_training

        def counting(*args, **kwargs):
            audited.append(bool(kwargs.get("observers")))
            return train(*args, **kwargs)

        monkeypatch.setattr(harness, "run_training", counting)
        measure_overhead(tiny_config(rounds=2), inference_calls=40, train_repeats=1)
        assert audited == [False, False, True]
