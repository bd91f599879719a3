import struct

import numpy as np
import pytest

from fedliab.data import (
    BadMagicError,
    CorruptionSpec,
    CountMismatchError,
    Dataset,
    IMAGES_MAGIC,
    LABELS_MAGIC,
    PartitionError,
    PartitionPlan,
    TruncatedFileError,
    class_template,
    corrupt,
    draw_preferred_classes,
    load_idx,
    partition_counts,
    partition_indices,
    partition_non_iid,
    synth_class_images,
    synth_generate,
    write_idx,
)
from fedliab.seeding import stream


def make_idx_pair(tmp_path, pixels, labels, image_magic=IMAGES_MAGIC, label_magic=LABELS_MAGIC,
                  truncate_images=0, label_count=None):
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    body = struct.pack(">4I", image_magic, n, rows, cols) + pixels.tobytes()
    if truncate_images:
        body = body[:-truncate_images]
    img_path.write_bytes(body)
    lbl_path.write_bytes(
        struct.pack(">2I", label_magic, label_count if label_count is not None else len(labels))
        + bytes(labels)
    )
    return img_path, lbl_path


class TestIdx:
    def test_hand_built_pair(self, tmp_path):
        pixels = np.array(
            [[[0, 128], [255, 64]], [[1, 2], [3, 4]]], dtype=np.uint8
        )
        img, lbl = make_idx_pair(tmp_path, pixels, [1, 0])
        ds = load_idx(img, lbl)
        assert len(ds) == 2
        np.testing.assert_allclose(ds.images[0], pixels[0] / 255.0)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_pixel_255_is_one(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, np.full((1, 1, 1), 255, np.uint8), [0])
        assert load_idx(img, lbl).images[0, 0, 0] == 1.0

    def test_images_magic_in_labels_file(self, tmp_path):
        img, lbl = make_idx_pair(
            tmp_path, np.zeros((1, 2, 2), np.uint8), [0], label_magic=IMAGES_MAGIC
        )
        with pytest.raises(BadMagicError):
            load_idx(img, lbl)

    def test_bad_image_magic(self, tmp_path):
        img, lbl = make_idx_pair(
            tmp_path, np.zeros((1, 2, 2), np.uint8), [0], image_magic=0xDEADBEEF
        )
        with pytest.raises(BadMagicError):
            load_idx(img, lbl)

    def test_truncated(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1], truncate_images=3)
        with pytest.raises(TruncatedFileError):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1, 1], label_count=3)
        with pytest.raises(CountMismatchError):
            load_idx(img, lbl)

    def test_round_trip_identity(self, tmp_path):
        ds = synth_generate(class_count=3, per_class=5, seed=9, image_size=8)
        write_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")
        back = load_idx(tmp_path / "i.idx", tmp_path / "l.idx", class_count=3)
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(4, 6, seed=3, image_size=10)
        b = synth_generate(4, 6, seed=3, image_size=10)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = synth_generate(4, 6, seed=3, image_size=10)
        b = synth_generate(4, 6, seed=4, image_size=10)
        assert np.any(a.images != b.images)

    def test_balanced(self):
        ds = synth_generate(10, 10, seed=0, image_size=8)
        assert len(ds) == 100
        np.testing.assert_array_equal(ds.class_histogram(), np.full(10, 10))

    def test_templates_distinct(self):
        templates = [class_template(c, 10) for c in range(10)]
        dists = [
            np.linalg.norm(templates[i] - templates[j])
            for i in range(10)
            for j in range(i + 1, 10)
        ]
        assert min(dists) > 0

    def test_pixels_in_range_and_quantized(self):
        ds = synth_generate(3, 4, seed=1, image_size=8)
        assert ds.images.min() >= 0 and ds.images.max() <= 1
        np.testing.assert_array_equal(ds.images, np.round(ds.images * 255) / 255)


def rolled_reference(class_count, per_class, seed, image_size, noise_sigma=0.1, max_shift=2):
    """The generator as a per-sample np.roll loop, kept as the bitwise reference."""
    n = class_count * per_class
    images = np.empty((n, image_size, image_size))
    for cls in range(class_count):
        rng = stream(seed, "synth", cls)
        template = class_template(cls, class_count, image_size)
        shifts = rng.integers(-max_shift, max_shift + 1, size=(per_class, 2))
        noise = rng.normal(0.0, noise_sigma, size=(per_class, image_size, image_size))
        for i in range(per_class):
            img = np.roll(template, tuple(shifts[i]), axis=(0, 1)) + noise[i]
            images[cls * per_class + i] = img
    return np.round(np.clip(images, 0.0, 1.0) * 255) / 255


class TestSynthBits:
    @pytest.mark.parametrize("image_size", [8, 20, 28])
    def test_matches_roll_loop_bitwise(self, image_size):
        want = rolled_reference(10, 12, 77, image_size)
        got = synth_generate(10, 12, seed=77, image_size=image_size).images
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("image_size", [8, 20, 28])
    def test_class_rows_match_per_class_entry(self, image_size):
        ds = synth_generate(10, 12, seed=77, image_size=image_size)
        for cls in range(10):
            rows = ds.images[cls * 12 : (cls + 1) * 12]
            alone = synth_class_images(cls, 10, 12, seed=77, image_size=image_size)
            assert alone.tobytes() == rows.tobytes(), cls

    def test_class_out_of_range(self):
        with pytest.raises(ValueError, match="class 4"):
            synth_class_images(4, 4, 3, seed=0, image_size=8)


class TestSanityBar:
    def test_reference_network_learns_synth(self):
        # documented bar: a freshly trained reference network reaches >= 95%
        # held-out accuracy on clean synthetic data
        from fedliab.flsim import TrainConfig, evaluate, local_train
        from fedliab.nn import build_network, reference_network

        train = synth_generate(10, 120, seed=901, image_size=20)
        test = synth_generate(10, 60, seed=902, image_size=20)
        net, params = build_network(reference_network(10, 20), (1, 20, 20), seed=3)
        cfg = TrainConfig(rounds=1, batch_size=50, lr=0.05, master_seed=3)
        for epoch in range(12):
            params = local_train(net, 0, train, params, cfg, epoch)
        assert evaluate(net, params, test).overall >= 0.95


class TestPartition:
    def test_balanced_when_bias_one(self):
        ds = synth_generate(5, 40, seed=2, image_size=8)
        plan = PartitionPlan(node_count=4, per_node_size=40, bias_factor=1.0, seed=7)
        parts = partition_non_iid(ds, plan)
        for p in parts:
            assert len(p) == 40
            np.testing.assert_array_equal(p.class_histogram(), np.full(5, 8))

    def test_bias_ratio(self):
        ds = synth_generate(10, 600, seed=5, image_size=8)
        plan = PartitionPlan(node_count=10, per_node_size=210, bias_factor=10.0, seed=11)
        parts = partition_non_iid(ds, plan)
        prefs = draw_preferred_classes(10, 10, 11)
        for node, part in enumerate(parts):
            hist = part.class_histogram()
            others = np.delete(hist, prefs[node])
            ratio = hist[prefs[node]] / others.mean()
            assert 9.5 <= ratio <= 10.5

    def test_disjoint_and_conserving(self):
        ds = synth_generate(5, 100, seed=2, image_size=8)
        plan = PartitionPlan(node_count=3, per_node_size=60, bias_factor=5.0, seed=3)
        index_sets = partition_indices(ds, plan)
        flat = np.concatenate(index_sets)
        assert len(flat) == len(set(flat.tolist())) == 3 * 60
        assert flat.max() < len(ds)

    def test_deterministic(self):
        ds = synth_generate(5, 100, seed=2, image_size=8)
        plan = PartitionPlan(node_count=3, per_node_size=60, bias_factor=5.0, seed=3)
        a = partition_indices(ds, plan)
        b = partition_indices(ds, plan)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_insufficient_samples(self):
        ds = synth_generate(5, 10, seed=2, image_size=8)
        plan = PartitionPlan(node_count=4, per_node_size=40, bias_factor=5.0, seed=3)
        with pytest.raises(PartitionError, match="class"):
            partition_non_iid(ds, plan)

    def test_preferred_without_repetition(self):
        prefs = draw_preferred_classes(10, 10, seed=4)
        assert sorted(prefs) == list(range(10))
        longer = draw_preferred_classes(25, 10, seed=4)
        assert sorted(longer[:10]) == list(range(10))
        assert sorted(longer[10:20]) == list(range(10))

    def test_counts_rounding(self):
        m, pref = partition_counts(500, 10, 10.0)
        assert m == 26 and pref == 500 - 9 * 26 == 266


class TestDataset:
    def test_freezes_a_view_not_the_callers_arrays(self):
        images = np.zeros((3, 2, 2))
        labels = np.array([0, 1, 1], dtype=np.int64)
        ds = Dataset(images, labels, 2)
        assert images.flags.writeable and labels.flags.writeable
        assert not ds.images.flags.writeable and not ds.labels.flags.writeable
        # a view, so a large training pool is not held twice
        assert np.shares_memory(ds.images, images) and np.shares_memory(ds.labels, labels)

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25, np.inf])
    def test_rejects_pixel_outside_unit_interval(self, bad):
        images = np.full((2, 3, 3), 0.5)
        images[1, 2, 0] = bad
        with pytest.raises(ValueError, match="pixel values outside"):
            Dataset(images, np.array([0, 1]), 2)


class TestCorrupt:
    def test_no_source_unchanged(self):
        ds = Dataset(np.zeros((3, 2, 2)), np.array([0, 1, 1]), 4)
        out = corrupt(ds, CorruptionSpec(2, 3))
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_all_source(self):
        ds = Dataset(np.zeros((3, 2, 2)), np.array([2, 2, 2]), 4)
        out = corrupt(ds, CorruptionSpec(2, 3))
        np.testing.assert_array_equal(out.labels, [3, 3, 3])

    def test_count_conservation(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=100)
        ds = Dataset(np.zeros((100, 2, 2)), labels, 5)
        out = corrupt(ds, CorruptionSpec(1, 4))
        before = np.bincount(labels, minlength=5)
        after = out.class_histogram()
        assert after[4] == before[4] + before[1]
        assert after[1] == 0

    def test_hamming_distance_is_source_count(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 5, size=200)
        ds = Dataset(np.zeros((200, 2, 2)), labels, 5)
        out = corrupt(ds, CorruptionSpec(3, 0))
        assert int(np.sum(out.labels != ds.labels)) == int(np.sum(labels == 3))

    def test_images_untouched(self):
        ds = synth_generate(4, 5, seed=0, image_size=8)
        out = corrupt(ds, CorruptionSpec(0, 1))
        assert out.images is ds.images

    def test_same_class_rejected(self):
        with pytest.raises(ValueError):
            CorruptionSpec(1, 1)
