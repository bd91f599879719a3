"""Dataset ingestion, synthesis, partitioning, and label corruption.

Images are float64 grids in [0, 1]. The IDX reader/writer speaks the
big-endian MNIST/EMNIST container; the synthetic generator produces
class-templated glyphs so the full experiment pipeline runs without any
external download. Partitioning skews each node toward one preferred class
by a configurable frequency factor, drawing samples disjointly across nodes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .seeding import stream

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX container."""


class BadMagicError(IdxFormatError):
    pass


class TruncatedFileError(IdxFormatError):
    pass


class CountMismatchError(IdxFormatError):
    pass


class PartitionError(ValueError):
    """The source dataset cannot satisfy the partition plan."""


@dataclass(frozen=True)
class Dataset:
    """Labeled image set: images (n, H, W) in [0, 1], integer labels."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        images = np.ascontiguousarray(self.images, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if len(images) != len(labels):
            raise ValueError(f"{len(images)} images vs {len(labels)} labels")
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise ValueError(f"labels outside [0, {self.class_count})")
        if images.size and (images.min() < 0 or images.max() > 1):
            raise ValueError("pixel values outside [0, 1]")
        # freeze views of writable inputs: no copy, and the caller's arrays stay writable
        images = images.view() if images.flags.writeable else images
        labels = labels.view() if labels.flags.writeable else labels
        images.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.images[idx], self.labels[idx], self.class_count)

    def class_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)


@dataclass(frozen=True)
class CorruptionSpec:
    """Relabel every source_class sample as target_class."""

    source_class: int
    target_class: int

    def __post_init__(self):
        if self.source_class == self.target_class:
            raise ValueError("source and target class must differ")


@dataclass(frozen=True)
class PartitionPlan:
    node_count: int
    per_node_size: int
    bias_factor: float = 10.0
    preferred_class_per_node: tuple[int, ...] | None = None
    seed: int = 0


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------


def _read_header(raw: bytes, n_dims: int, path) -> tuple[int, ...]:
    need = 4 * (1 + n_dims)
    if len(raw) < need:
        raise TruncatedFileError(f"{path}: header needs {need} bytes, file has {len(raw)}")
    return struct.unpack(f">{1 + n_dims}I", raw[:need])


def load_idx(images_path, labels_path, class_count: int | None = None) -> Dataset:
    """Parse an IDX image/label pair; pixels are scaled by 1/255."""
    with open(images_path, "rb") as fh:
        raw_images = fh.read()
    with open(labels_path, "rb") as fh:
        raw_labels = fh.read()

    magic, count, rows, cols = _read_header(raw_images, 3, images_path)
    if magic != IMAGES_MAGIC:
        raise BadMagicError(f"{images_path}: magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
    body = raw_images[16:]
    if len(body) != count * rows * cols:
        raise TruncatedFileError(
            f"{images_path}: expected {count * rows * cols} pixel bytes, got {len(body)}"
        )

    lmagic, lcount = _read_header(raw_labels, 1, labels_path)
    if lmagic != LABELS_MAGIC:
        raise BadMagicError(f"{labels_path}: magic 0x{lmagic:08x}, expected 0x{LABELS_MAGIC:08x}")
    lbody = raw_labels[8:]
    if len(lbody) != lcount:
        raise TruncatedFileError(f"{labels_path}: expected {lcount} label bytes, got {len(lbody)}")
    if count != lcount:
        raise CountMismatchError(f"{count} images vs {lcount} labels")

    images = np.frombuffer(body, dtype=np.uint8).reshape(count, rows, cols) / 255.0
    labels = np.frombuffer(lbody, dtype=np.uint8).astype(np.int64)
    if class_count is None:
        class_count = int(labels.max()) + 1 if count else 1
    return Dataset(images, labels, class_count)


def write_idx(ds: Dataset, images_path, labels_path) -> None:
    """Write the IDX pair; pixels quantized to the uint8 grid."""
    n, rows, cols = ds.images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">4I", IMAGES_MAGIC, n, rows, cols))
        fh.write(np.round(ds.images * 255).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">2I", LABELS_MAGIC, n))
        fh.write(ds.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic glyphs
# ---------------------------------------------------------------------------


GRATING_CLASS = 6  # one class is a fine diagonal grating: trivially separable,
                   # but its first-layer features are sensitive to pixel noise


def class_template(cls: int, class_count: int, size: int = 28) -> np.ndarray:
    """Deterministic glyph for one class: an oriented bar plus a class-placed blob.

    Stroke width, contrast, and texture vary per class so that first-layer
    features differ across classes, not just glyph positions; the grating
    class carries fine noise-sensitive texture.
    """
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy = cx = (size - 1) / 2
    pidx = cls
    if class_count > GRATING_CLASS and cls == GRATING_CLASS:
        disk = (yy - cy) ** 2 + (xx - cx) ** 2 < (size * 0.32) ** 2
        grating = 0.45 + 0.42 * np.sin(2 * np.pi * (xx + yy) / 3.0)
        return np.clip(grating * disk, 0.0, 1.0)
    theta = np.pi * pidx / class_count
    # distance from the line through the center with direction theta
    dist = np.abs(-(xx - cx) * np.sin(theta) + (yy - cy) * np.cos(theta))
    along = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
    width = 1.4 + 2.4 * ((pidx * 3) % class_count) / max(class_count - 1, 1)
    strength = 0.60 + 0.35 * ((pidx * 7) % class_count) / max(class_count - 1, 1)
    bar = strength * np.exp(-(dist**2) / width) * (np.abs(along) < size * 0.36)
    if pidx % 3 == 0:
        # crossing stroke: distinct local texture for every third class
        bar += 0.5 * strength * np.exp(-(along**2) / width) * (np.abs(dist) < size * 0.22)

    phi = 2 * np.pi * pidx / class_count
    by = cy + size * 0.30 * np.sin(phi)
    bx = cx + size * 0.30 * np.cos(phi)
    spread = 2.5 + 4.0 * ((pidx * 9) % class_count) / max(class_count - 1, 1)
    blob = 0.9 * np.exp(-((yy - by) ** 2 + (xx - bx) ** 2) / spread)
    return np.clip(bar + blob, 0.0, 1.0)


def _class_glyphs(cls, class_count, per_class, seed, image_size, noise_sigma, max_shift, out) -> None:
    """Write one class's unquantized glyphs into `out` (per_class, H, W).

    Each class draws from its own stream, so a class can be generated alone.
    The gather `template[(y - sy) % H, (x - sx) % W]` is `np.roll` by
    (sy, sx) for every sample at once.
    """
    rng = stream(seed, "synth", cls)
    template = class_template(cls, class_count, image_size)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(per_class, 2))
    noise = rng.normal(0.0, noise_sigma, size=(per_class, image_size, image_size))
    grid = np.arange(image_size)
    rows = (grid[None, :, None] - shifts[:, 0, None, None]) % image_size
    cols = (grid[None, None, :] - shifts[:, 1, None, None]) % image_size
    np.add(template[rows, cols], noise, out=out)


def _quantize(images: np.ndarray) -> np.ndarray:
    """Clip to [0, 1] and snap to the uint8 grid, so IDX round-trips are exact."""
    return np.round(np.clip(images, 0.0, 1.0) * 255) / 255


def synth_class_images(
    cls: int,
    class_count: int,
    per_class: int,
    seed: int,
    image_size: int = 28,
    noise_sigma: float = 0.1,
    max_shift: int = 2,
) -> np.ndarray:
    """Class `cls`'s rows of `synth_generate` with the same arguments, bit for
    bit, without generating the other classes."""
    if not 0 <= cls < class_count:
        raise ValueError(f"class {cls} outside 0..{class_count - 1}")
    images = np.empty((per_class, image_size, image_size))
    _class_glyphs(cls, class_count, per_class, seed, image_size, noise_sigma, max_shift, images)
    return _quantize(images)


def synth_generate(
    class_count: int,
    per_class: int,
    seed: int,
    image_size: int = 28,
    noise_sigma: float = 0.1,
    max_shift: int = 2,
) -> Dataset:
    """Deterministic synthetic dataset: jittered class glyphs plus pixel noise.

    Pixels are quantized to the uint8 grid so IDX round-trips are exact. The
    glyph geometry keeps classes separable enough that the reference network
    reaches at least 95% held-out accuracy when trained on clean data.
    """
    if class_count < 2:
        raise ValueError("need at least 2 classes")
    images = np.empty((class_count * per_class, image_size, image_size))
    labels = np.repeat(np.arange(class_count), per_class)
    for cls in range(class_count):
        rows = images[cls * per_class : (cls + 1) * per_class]
        _class_glyphs(cls, class_count, per_class, seed, image_size, noise_sigma, max_shift, rows)
    return Dataset(_quantize(images), labels, class_count)


# ---------------------------------------------------------------------------
# partitioning and corruption
# ---------------------------------------------------------------------------


def draw_preferred_classes(node_count: int, class_count: int, seed: int) -> tuple[int, ...]:
    """One preferred class per node: permutations without repetition while
    classes remain, then fresh permutations."""
    rng = stream(seed, "partition-preferred")
    out: list[int] = []
    while len(out) < node_count:
        out.extend(int(c) for c in rng.permutation(class_count))
    return tuple(out[:node_count])


def partition_counts(per_node_size: int, class_count: int, bias_factor: float) -> tuple[int, int]:
    """(non-preferred per-class count m, preferred count) for one node.

    m = floor(s / (bias + C - 1)) keeps node sizes exact; the realized ratio
    is slightly above bias_factor.
    """
    if not 0 <= bias_factor < np.inf:  # a negative bias gives a negative preferred count
        raise PartitionError(f"bias_factor must be finite and non-negative, got {bias_factor}")
    m = int(per_node_size // (bias_factor + class_count - 1))
    if m < 1:
        raise PartitionError(
            f"per_node_size {per_node_size} too small for {class_count} classes "
            f"at bias_factor {bias_factor}"
        )
    return m, per_node_size - (class_count - 1) * m


def partition_indices(ds: Dataset, plan: PartitionPlan) -> list[np.ndarray]:
    """Disjoint per-node sample indices satisfying the bias plan."""
    c = ds.class_count
    preferred = plan.preferred_class_per_node
    if preferred is None:
        preferred = draw_preferred_classes(plan.node_count, c, plan.seed)
    if len(preferred) != plan.node_count:
        raise PartitionError("preferred_class_per_node length != node_count")
    m, pref_count = partition_counts(plan.per_node_size, c, plan.bias_factor)

    demand = np.full(c, m * plan.node_count)
    for p in preferred:
        demand[p] += pref_count - m
    available = ds.class_histogram()
    for cls in range(c):
        if demand[cls] > available[cls]:
            raise PartitionError(
                f"class {cls}: plan needs {demand[cls]} samples, dataset has {available[cls]}"
            )

    pools = []
    for cls in range(c):
        idx = np.flatnonzero(ds.labels == cls)
        pools.append(idx[stream(plan.seed, "partition-pool", cls).permutation(len(idx))])
    cursors = np.zeros(c, dtype=np.int64)

    nodes = []
    for node_id in range(plan.node_count):
        take = []
        for cls in range(c):
            count = pref_count if cls == preferred[node_id] else m
            take.append(pools[cls][cursors[cls] : cursors[cls] + count])
            cursors[cls] += count
        idx = np.concatenate(take)
        order = stream(plan.seed, "partition-shuffle", node_id).permutation(len(idx))
        nodes.append(idx[order])
    return nodes


def partition_non_iid(ds: Dataset, plan: PartitionPlan) -> list[Dataset]:
    """Split the dataset into node-local datasets per the plan."""
    return [ds.subset(idx) for idx in partition_indices(ds, plan)]


def corrupt(ds: Dataset, spec: CorruptionSpec) -> Dataset:
    """Label-flipping fault: every source_class label becomes target_class."""
    if not (0 <= spec.source_class < ds.class_count and 0 <= spec.target_class < ds.class_count):
        raise ValueError("corruption classes outside dataset's class range")
    labels = ds.labels.copy()
    labels[labels == spec.source_class] = spec.target_class
    return Dataset(ds.images, labels, ds.class_count)
