"""Property tests for the config parser and the three binary readers: every
round trip is exact, and any truncation or extension raises a named error."""

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
    DISTANCE_REFERENCES,
    DistanceTensor,
    distance_tensor_from_bytes,
    distance_tensor_to_bytes,
)
from fedliab.data import Dataset, IdxFormatError, load_idx, write_idx
from fedliab.flsim import AGGREGATIONS
from fedliab.harness import (
    SCENARIOS,
    ExperimentConfig,
    config_from_mapping,
    config_to_mapping,
    parse_config_text,
)
from fedliab.nn import make_params, params_from_bytes, params_to_bytes

PATH = st.text(alphabet=string.ascii_letters + string.digits + "/._-", min_size=1, max_size=24)
IDX_KEYS = ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")


@st.composite
def experiment_configs(draw):
    classes = draw(st.integers(2, 60))
    nodes = draw(st.integers(1, 40))
    source = draw(st.integers(0, classes - 1))
    target = draw(st.integers(0, classes - 2))
    bias = draw(st.floats(0, 1e6))
    return ExperimentConfig(
        dataset=draw(st.sampled_from(["synthetic", "idx"])),
        classes=classes,
        train_per_class=draw(st.integers(1, 10**6)),
        test_per_class=draw(st.integers(1, 10**6)),
        image_size=draw(st.integers(10, 64)),  # the smallest the reference network accepts
        **{key: draw(PATH) for key in IDX_KEYS},
        nodes=nodes,
        # at least one sample per class on every node
        per_node_size=draw(st.integers(math.ceil(bias) + classes - 1, 2 * 10**6)),
        bias_factor=bias,
        rounds=draw(st.integers(1, 10**4)),
        local_passes=draw(st.integers(1, 10)),
        batch_size=draw(st.integers(1, 10**4)),
        lr=draw(st.floats(0, 10)),
        aggregation=draw(st.sampled_from(AGGREGATIONS)),
        seed=draw(st.integers(-(2**63), 2**63)),
        attacker=draw(st.integers(0, nodes - 1)),
        attack_source=source,
        attack_target=target + (target >= source),
        couple_attacker_preferred=draw(st.booleans()),
        alpha=draw(st.floats(1, 1e3, exclude_min=True)),
        lrp_epsilon=draw(st.none() | st.floats(0, 1e3)),
        distance_reference=draw(st.sampled_from(DISTANCE_REFERENCES)),
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
