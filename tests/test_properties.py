"""Property tests for the config parser and the three binary readers: every
round trip is exact, and any truncation or extension raises a named error.
The conv patch kernels are checked as an adjoint pair, and relevance is
checked to vanish wherever a ReLU output does."""

import json
import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedliab.audit import (
    DistanceTensor,
    distance_tensor_from_bytes,
    distance_tensor_to_bytes,
)
from fedliab.data import Dataset, IdxFormatError, load_idx, write_idx
from fedliab.harness import (
    SCENARIOS,
    ExperimentConfig,
    config_from_mapping,
    config_to_mapping,
    parse_config_text,
)
from fedliab import nn
from fedliab.lrp import LrpConfig, lrp_propagate_batch
from fedliab.nn import (
    ReLU,
    build_network,
    forward_batch,
    make_params,
    params_from_bytes,
    params_to_bytes,
    reference_network,
)
from netgen import random_mixed_net

PATH = st.text(alphabet=string.ascii_letters + string.digits + "/._-", min_size=1, max_size=24)
IDX_KEYS = ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")


@st.composite
def experiment_configs(draw):
    classes = draw(st.integers(2, 60))
    nodes = draw(st.integers(2, 40))
    source = draw(st.integers(0, classes - 1))
    target = draw(st.integers(0, classes - 2))
    bias = draw(st.floats(0, 1e6))
    # at least one sample per class on every node
    per_node_size = draw(st.integers(math.ceil(bias) + classes - 1, 2 * 10**6))
    dataset = draw(st.sampled_from(["synthetic", "idx"]))
    # a synthetic corpus must hold the partition; nodes * per_node_size always does
    least = nodes * per_node_size if dataset == "synthetic" else 1
    return ExperimentConfig(
        dataset=dataset,
        classes=classes,
        train_per_class=draw(st.integers(least, least + 10**6)),
        test_per_class=draw(st.integers(1, 10**6)),
        image_size=draw(st.integers(10, 64)),  # the smallest the reference network accepts
        **{key: draw(PATH) for key in IDX_KEYS},
        nodes=nodes,
        per_node_size=per_node_size,
        bias_factor=bias,
        rounds=draw(st.integers(1, 10**4)),
        local_passes=draw(st.integers(1, 10)),
        batch_size=draw(st.integers(1, 10**4)),
        lr=draw(st.floats(0, 10)),
        seed=draw(st.integers(-(2**63), 2**63)),
        attacker=draw(st.integers(0, nodes - 1)),
        attack_source=source,
        attack_target=target + (target >= source),
        alpha=draw(st.floats(1, 1e3, exclude_min=True)),
        lrp_epsilon=draw(st.none() | st.floats(0, 1e3)),
        scenario=draw(st.sampled_from(SCENARIOS)),
    )


@settings(deadline=None)
@given(experiment_configs())
def test_config_round_trips_through_text_and_json(cfg):
    mapping = config_to_mapping(cfg)
    assert parse_config_text("".join(f"{k} = {v}\n" for k, v in mapping.items())) == cfg
    assert config_from_mapping(json.loads(json.dumps(mapping))) == cfg


def _damaged(raw, data):
    """One truncation and one extension of `raw`."""
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    extra = data.draw(st.binary(min_size=1, max_size=24), label="extra")
    return raw[:cut], raw + extra


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SHAPES = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple)


@st.composite
def layered_params(draw):
    layers = draw(st.lists(st.tuples(SHAPES, st.integers(0, 4)), min_size=1, max_size=3))
    return make_params(
        (
            draw(arrays(np.float64, w_shape, elements=FLOATS)),
            draw(arrays(np.float64, (b_len,), elements=FLOATS)),
        )
        for w_shape, b_len in layers
    )


@settings(deadline=None)
@given(layered_params(), st.data())
def test_params_reader(params, data):
    raw = params_to_bytes(params)
    assert params_to_bytes(params_from_bytes(raw)) == raw
    for bad in _damaged(raw, data):
        with pytest.raises(ValueError, match="params"):
            params_from_bytes(bad)


@settings(deadline=None)
@given(
    arrays(np.float64, st.tuples(*[st.integers(1, 5)] * 3), elements=st.floats(0, 2)),
    st.data(),
)
def test_distance_reader(values, data):
    raw = distance_tensor_to_bytes(DistanceTensor(values))
    back = distance_tensor_from_bytes(raw)
    assert back.values.tobytes() == values.tobytes()
    assert distance_tensor_to_bytes(back) == raw
    for bad in _damaged(raw, data):
        with pytest.raises(ValueError, match="distance"):
            distance_tensor_from_bytes(bad)


@st.composite
def quantized_datasets(draw):
    n, rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    classes = draw(st.integers(1, 256))
    pixels = draw(arrays(np.uint8, (n, rows, cols)))
    labels = draw(arrays(np.int64, (n,), elements=st.integers(0, classes - 1)))
    return Dataset(pixels / 255.0, labels, classes)


@settings(deadline=None, max_examples=50)
@given(quantized_datasets(), st.data())
def test_idx_reader(ds, data):
    with tempfile.TemporaryDirectory() as tmp:
        images, labels = Path(tmp) / "images", Path(tmp) / "labels"
        write_idx(ds, images, labels)
        back = load_idx(images, labels, class_count=ds.class_count)
        assert back.images.tobytes() == ds.images.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        for path in (images, labels):
            raw = path.read_bytes()
            for bad in _damaged(raw, data):
                path.write_bytes(bad)
                with pytest.raises(IdxFormatError):
                    load_idx(images, labels, class_count=ds.class_count)
            path.write_bytes(raw)


@st.composite
def conv_geometries(draw):
    """(B, C, H, W, kernel) with the kernel inside the input."""
    kernel = draw(st.integers(1, 4))
    side = st.integers(kernel, 10)
    return draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(side), draw(side), kernel


@settings(deadline=None)
@given(conv_geometries(), st.integers(0, 2**32 - 1))
def test_col2im_is_the_adjoint_of_im2col(geometry, seed):
    b, c, h, w, kernel = geometry
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, c, h, w))
    cols, ho, wo = nn._conv_cols(x, kernel)
    assert cols.shape == (b, c * kernel * kernel, ho * wo)
    d = rng.standard_normal(cols.shape)
    lhs = float(np.dot(cols.ravel(), d.ravel()))
    rhs = float(np.dot(x.ravel(), nn._col2im_add(d, (c, h, w), kernel).ravel()))
    assert abs(lhs - rhs) <= 1e-12 * float(np.abs(cols * d).sum())


@settings(deadline=None)
@given(conv_geometries())
def test_col2im_of_ones_counts_window_memberships(geometry):
    b, c, h, w, kernel = geometry
    cols, ho, wo = nn._conv_cols(np.zeros((b, c, h, w)), kernel)
    counts = np.zeros((h, w))
    for i in range(ho):
        for j in range(wo):
            counts[i : i + kernel, j : j + kernel] += 1
    got = nn._col2im_add(np.ones(cols.shape), (c, h, w), kernel)
    assert np.array_equal(got, np.broadcast_to(counts, (b, c, h, w)))


RULE_SETS = [{"dense": d, "conv2d": c} for d in ("epsilon", "zplus") for c in ("epsilon", "zplus")]
RELEVANCE_NETS = [f"netgen{s}" for s in range(8)] + ["reference20", "reference28"]


def _relevance_net(name):
    if name.startswith("netgen"):
        net, params, _ = random_mixed_net(int(name[6:]))
        return net, params
    size = int(name[9:])
    return build_network(reference_network(6 if size == 28 else 10, size), (1, size, size), seed=size)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(RELEVANCE_NETS), st.integers(0, 2**32 - 1), st.booleans())
def test_relevance_vanishes_wherever_a_relu_output_does(name, seed, signed):
    """The ReLU passes relevance through ungated. That is exact only because
    the relevance arriving from above is already zero wherever the ReLU
    output is not positive; every rule and stabilizer must keep it so."""
    net, params = _relevance_net(name)
    rng = np.random.default_rng(seed)
    shape = (3,) + net.input_shape
    x = rng.standard_normal(shape) if signed else rng.uniform(0.0, 1.0, shape)
    boundaries = forward_batch(net, params, x)
    relus = [li + 1 for li, spec in enumerate(net.specs) if isinstance(spec, ReLU)]
    for rules in RULE_SETS:
        for epsilon in (None, 1e-6, 0.0):
            rel, _ = lrp_propagate_batch(net, params, x, None, LrpConfig(epsilon, rules))
            for b in relus:
                dead = boundaries[b] <= 0
                assert not rel[b][dead].any(), (b, rules, epsilon)
