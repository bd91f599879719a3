import json

import pytest

from fedliab.cli import main
from fedliab.data import synth_generate, write_idx

CONFIG_TEXT = """
classes = 6
train_per_class = 80
test_per_class = 25
image_size = 12
nodes = 4
per_node_size = 60
bias_factor = 5.0
rounds = 2
batch_size = 20
attack_source = 2
attack_target = 5
seed = 3
scenario = with_misbehaving
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    return path


class TestRun:
    def test_run_writes_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "audit.json").exists()
        assert "flagged nodes" in capsys.readouterr().out

    def test_scenario_and_seed_overrides(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(config_file), "--scenario", "all_correct",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "all_correct"
        assert manifest["seed"] == 5

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key = 1\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "nope.cfg" in err

    def test_json_config_that_is_not_an_object_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "config error: config file " in err and "list.json: expected a JSON object, got list" in err

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin.cfg"
        bad.write_bytes(b"nodes = 4\xff\n")
        assert main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "config error: config file " in err and "latin.cfg: 'utf-8' codec can't decode byte 0xff" in err

    def test_directory_as_config_names_it(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: config file {tmp_path}: " in err and "Is a directory" in err

    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**63])
    def test_seed_outside_the_one_to_one_window_exits_1(self, config_file, tmp_path, capsys, seed):
        assert main(["run", "--config", str(config_file), "--seed", str(seed), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: seed {seed} outside [-2**63, 2**63)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # plan larger than an IDX corpus: valid config, fails once the data is read
        for split, per_class in (("train", 80), ("test", 25)):
            ds = synth_generate(6, per_class, seed=3, image_size=12)
            write_idx(ds, tmp_path / f"{split}-images", tmp_path / f"{split}-labels")
        paths = "".join(
            f"idx_{split}_{kind} = {tmp_path / f'{split}-{kind}'}\n"
            for split in ("train", "test")
            for kind in ("images", "labels")
        )
        bad = tmp_path / "big.cfg"
        bad.write_text(
            CONFIG_TEXT.replace("per_node_size = 60", "per_node_size = 400") + "dataset = idx\n" + paths
        )
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_idx_images_of_another_size_are_a_config_error(self, tmp_path, capsys):
        for split, per_class in (("train", 80), ("test", 25)):
            ds = synth_generate(6, per_class, seed=3, image_size=16)
            write_idx(ds, tmp_path / f"{split}-images", tmp_path / f"{split}-labels")
        paths = "".join(
            f"idx_{split}_{kind} = {tmp_path / f'{split}-{kind}'}\n"
            for split in ("train", "test")
            for kind in ("images", "labels")
        )
        bad = tmp_path / "sized.cfg"
        bad.write_text(CONFIG_TEXT + "dataset = idx\n" + paths)
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "train-images: images are 16x16, but image_size = 12" in err

    def test_partition_larger_than_synthetic_corpus_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "big.cfg"
        bad.write_text(CONFIG_TEXT.replace("per_node_size = 60", "per_node_size = 400"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "train_per_class 80" in capsys.readouterr().err


    def test_run_that_learned_nothing_fails_naming_phase_and_sample(self, tmp_path, capsys):
        # lr = 1e6 kills every ReLU while the losses stay finite: the audited
        # decision carries no relevance mass, and uniform layer weights would
        # silently turn RAdist into the cosine baseline
        dead = tmp_path / "dead.cfg"
        dead.write_text(
            CONFIG_TEXT.replace("classes = 6", "classes = 4")
            .replace("nodes = 4", "nodes = 3")
            .replace("rounds = 2", "rounds = 4")
            .replace("attack_target = 5", "attack_target = 3")
            + "lr = 1e6\n"
        )
        assert main(["run", "--config", str(dead), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "runtime error: phase with_misbehaving, sample " in err
        assert "carries no relevance mass (total 0.0)" in err
        assert not (tmp_path / "o" / "audit.json").exists()

class TestAudit:
    def test_audit_finished_run(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()  # drop the run command's output
        blob = json.loads((out / "audit.json").read_text())
        code = main(["audit", "--run-dir", str(out), "--sample-id", str(blob["sample_id"])])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["per_node_mean"] == blob["per_node_mean"]

    def test_missing_run_artifact_is_a_runtime_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_file), "--out", str(out)])
        (out / "model.bin").unlink()
        capsys.readouterr()
        assert main(["audit", "--run-dir", str(out), "--sample-id", "0"]) == 2
        err = capsys.readouterr().err
        assert "runtime error" in err and "model.bin" in err


class TestOverheadCommand:
    def test_overhead_json(self, config_file, tmp_path, capsys):
        out = tmp_path / "oh"
        code = main(["overhead", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        blob = json.loads((out / "overhead.json").read_text())
        assert blob["message_count"] == 2 * 4 * 2


@pytest.mark.parametrize("line", ["lr = -1", "rounds = 0", "lrp_epsilon = nan"])
def test_bad_setting_exits_1_before_training(tmp_path, capsys, line):
    key = line.split()[0]
    kept = [row for row in CONFIG_TEXT.splitlines() if row.split(" ")[0] != key]  # a key may appear once
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(kept + [line]) + "\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert line.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
