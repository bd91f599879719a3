"""Round-based federated averaging over in-process nodes.

A node is its position in the list of local datasets: node i holds
datasets[i]. Each round: every node trains locally from the broadcast
global model, the server averages the uploads weighted by node dataset
size (FedAvg), and observers see an immutable record of the round.
Observers cannot influence training, and the message counter covers
exactly the N uploads and N downloads per round whether or not any
observer is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .data import Dataset
from .nn import (
    LayeredParams,
    Network,
    forward_batch,
    loss_and_grad,
    make_params,
    sgd_step,
)
from .seeding import stream

EVAL_BATCH = 100


@dataclass(frozen=True)
class TrainConfig:
    rounds: int = 50
    local_passes: int = 1
    batch_size: int = 32
    lr: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        for key in ("rounds", "local_passes", "batch_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0 <= self.lr < np.inf:  # NaN fails too
            raise ValueError(f"lr must be non-negative and finite, got {self.lr}")


@dataclass(frozen=True)
class RoundRecord:
    """Everything an auditor may see about one round."""

    epoch: int
    local_params: tuple[LayeredParams, ...]
    global_params: LayeredParams


@dataclass(frozen=True)
class TrainResult:
    final_params: LayeredParams
    message_count: int


class RoundObserver(Protocol):
    def on_round(self, record: RoundRecord) -> None: ...


def model_inputs(net: Network, images: np.ndarray) -> np.ndarray:
    """Reshape (n, H, W) images to the network's input layout."""
    return images.reshape((len(images),) + net.input_shape)


def local_train(
    net: Network,
    node_id: int,
    dataset: Dataset,
    global_params: LayeredParams,
    cfg: TrainConfig,
    epoch: int,
) -> LayeredParams:
    """Mini-batch SGD passes over the node's data, starting from the global
    model; batch order comes from a stream keyed on (seed, node, epoch).
    A non-finite loss stops training, naming the round, node and step."""
    params = global_params
    if cfg.lr == 0:
        return params
    rng = stream(cfg.master_seed, "batches", node_id, epoch)
    inputs = model_inputs(net, dataset.images)
    labels = dataset.labels
    step = 0
    for _ in range(cfg.local_passes):
        order = rng.permutation(len(labels))
        for start in range(0, len(labels), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grad(net, params, (inputs[idx], labels[idx]))
            if not np.isfinite(loss):
                raise FloatingPointError(f"round {epoch}, node {node_id}, step {step}: loss is {loss}")
            params = sgd_step(params, grads, cfg.lr)
            step += 1
    return params


def aggregate(local_params: Sequence[LayeredParams], weights: Sequence[float]) -> LayeredParams:
    """Elementwise convex combination of the uploads."""
    if not local_params:
        raise ValueError("no local parameter sets to aggregate")
    if len(weights) != len(local_params):
        raise ValueError("weights length != number of parameter sets")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    shapes = local_params[0].shapes()
    for p in local_params[1:]:
        if p.shapes() != shapes:
            raise ValueError("parameter shapes differ across nodes")
    w = w / w.sum()
    # anchor-plus-deviations form: exact when uploads coincide, and well
    # conditioned when they are close (the usual FL regime)
    anchor = local_params[0]
    pairs = []
    for li in range(len(shapes)):
        aw, ab = anchor.layers[li]
        dw = sum(wi * (p.layers[li][0] - aw) for wi, p in zip(w[1:], local_params[1:]))
        db = sum(wi * (p.layers[li][1] - ab) for wi, p in zip(w[1:], local_params[1:]))
        pairs.append((aw + dw, ab + db))
    return make_params(pairs)


def _check_upload(params: LayeredParams, epoch: int, node_id: int) -> None:
    for li, (w, b) in enumerate(params.layers):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise FloatingPointError(f"round {epoch}, node {node_id}, layer {li}: upload is not finite")


def run_training(
    net: Network,
    init_params: LayeredParams,
    datasets: Sequence[Dataset],
    cfg: TrainConfig,
    observers: Sequence[RoundObserver] = (),
) -> TrainResult:
    """E rounds of local training, aggregation, and broadcast; node i
    trains on datasets[i]. A non-finite upload stops training, naming the
    round, node and layer."""
    if not datasets:
        raise ValueError("need at least one node")
    for i, ds in enumerate(datasets):
        if len(ds) == 0:
            raise ValueError(f"node {i}: empty dataset")
    weights = [float(len(ds)) for ds in datasets]

    global_params = init_params
    messages = 0
    for epoch in range(cfg.rounds):
        locals_ = [local_train(net, i, ds, global_params, cfg, epoch) for i, ds in enumerate(datasets)]
        for i, upload in enumerate(locals_):
            _check_upload(upload, epoch, i)
        messages += len(datasets)  # uploads
        global_params = aggregate(locals_, weights)
        messages += len(datasets)  # broadcast of the new global
        record = RoundRecord(epoch, tuple(locals_), global_params)
        for obs in observers:
            obs.on_round(record)
    return TrainResult(global_params, messages)


@dataclass(frozen=True)
class EvalResult:
    """Overall accuracy plus per-class accuracy (NaN for absent classes)."""

    overall: float
    per_class: np.ndarray


def predict_logits(net: Network, params: LayeredParams, ds: Dataset) -> np.ndarray:
    """Logits of every sample, EVAL_BATCH samples per forward pass, so that no
    pass grows with the dataset; forward passes are batch-invariant, so the
    bits are those of one whole-set pass."""
    inputs = model_inputs(net, ds.images)
    logits = np.empty((len(ds), net.class_count))
    for start in range(0, len(ds), EVAL_BATCH):
        logits[start : start + EVAL_BATCH] = forward_batch(net, params, inputs[start : start + EVAL_BATCH])[-1]
    return logits


def accuracy(ds: Dataset, logits: np.ndarray) -> EvalResult:
    """Overall and per-class accuracy of the logits' argmax predictions."""
    if len(ds) == 0:
        raise ValueError("empty evaluation dataset")
    preds = np.argmax(logits, axis=1)
    seen = ds.class_histogram()
    correct = np.bincount(ds.labels[preds == ds.labels], minlength=ds.class_count)
    with np.errstate(invalid="ignore"):
        per_class = np.where(seen > 0, correct / np.maximum(seen, 1), np.nan)
    return EvalResult(float(correct.sum() / len(ds)), per_class)


def evaluate(net: Network, params: LayeredParams, ds: Dataset) -> EvalResult:
    """Accuracy of the model on `ds`."""
    return accuracy(ds, predict_logits(net, params, ds))
