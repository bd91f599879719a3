"""Relevance-aware update auditing.

During training, a round observer logs the cosine distance between every
node's upload and the aggregated model, per layer, into an epochs x nodes x
layers tensor. Reviewing a decision contracts that tensor with the decision's
layer-relevance weights into an epochs x nodes suspicion matrix; a node whose
epoch-averaged score exceeds alpha times the population mean is flagged.
Two baseline scorers (plain cosine distance, self-accuracy reputation) are
provided for comparison. Logging reads only what the protocol already
transmits, so it adds no network messages and no work at the nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .flsim import RoundRecord, evaluate
from .nn import Network, flatten_layer_params


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b) in [0, 2]; zero vectors: both -> 0, exactly one -> 1."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 and nb == 0:
        return 0.0
    if na == 0 or nb == 0:
        return 1.0
    cos = np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)
    return float(1.0 - cos)


@dataclass(frozen=True)
class DistanceTensor:
    """Per-(epoch, node, layer) cosine distances, all in [0, 2]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, order="C")  # copies: the caller's stays writable
        if v.ndim != 3:
            raise ValueError(f"expected (epochs, nodes, layers), got shape {v.shape}")
        bad = np.argwhere(~np.isfinite(v))
        if bad.size:
            e, n, l = (int(i) for i in bad[0])
            raise ValueError(f"distance at (epoch {e}, node {n}, layer {l}) is {v[e, n, l]}, not finite")
        if v.size and (v.min() < 0 or v.max() > 2):
            raise ValueError("cosine distances must lie in [0, 2]")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape


def log_round(record: RoundRecord, values: np.ndarray) -> None:
    """Fill row `record.epoch` of an (E, N, L) buffer with distances between
    each upload and this round's aggregated model."""
    e = record.epoch
    if not 0 <= e < values.shape[0]:
        raise IndexError(f"epoch {e} out of range [0, {values.shape[0]})")
    global_flat = [
        flatten_layer_params(record.global_params, l)
        for l in range(len(record.global_params))
    ]
    for n, local in enumerate(record.local_params):
        for l, gflat in enumerate(global_flat):
            values[e, n, l] = cosine_distance(flatten_layer_params(local, l), gflat)


class DistanceRecorder:
    """Round observer accumulating the distance tensor: each upload against
    the aggregate it produced."""

    def __init__(self, rounds: int, nodes: int, layers: int):
        self._values = np.zeros((rounds, nodes, layers))
        self._recorded = np.zeros(rounds, dtype=bool)

    def on_round(self, record: RoundRecord) -> None:
        log_round(record, self._values)
        self._recorded[record.epoch] = True

    def tensor(self) -> DistanceTensor:
        """The full log; raises if any epoch was never recorded."""
        missing = np.flatnonzero(~self._recorded)
        if missing.size:
            raise ValueError(f"epoch {missing[0]} was never recorded")
        return DistanceTensor(self._values)


def compute_radist(tensor: DistanceTensor, layer_weights: np.ndarray) -> np.ndarray:
    """Contract the distance tensor with an L-dim relevance weight vector."""
    r = np.asarray(layer_weights, dtype=np.float64)
    if r.shape != (tensor.dims[2],):
        raise ValueError(f"weight vector length {r.shape} != layer count {tensor.dims[2]}")
    return tensor.values @ r


@dataclass(frozen=True)
class AuditConfig:
    alpha: float = 2.0

    def __post_init__(self):
        if not 1 < self.alpha < np.inf:  # NaN fails too
            raise ValueError(f"alpha must be finite and exceed 1, got {self.alpha}")


@dataclass(frozen=True)
class AuditReport:
    per_node_mean: np.ndarray
    global_mean: float
    flagged: tuple[int, ...]
    alpha: float
    sample_id: int | None = None


def detect(matrix: np.ndarray, cfg: AuditConfig, sample_id: int | None = None) -> AuditReport:
    """Flag nodes whose epoch-averaged score exceeds alpha times the mean
    over all nodes and epochs. An empty flag set is a legal outcome."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValueError("score matrix must be (epochs, nodes) with epochs >= 1")
    if m.shape[1] < 2:
        raise ValueError("need at least 2 nodes to compare against")
    per_node = m.mean(axis=0)
    global_mean = float(m.mean())
    flagged = tuple(int(n) for n in np.flatnonzero(per_node > cfg.alpha * global_mean))
    return AuditReport(per_node, global_mean, flagged, cfg.alpha, sample_id)


def baseline_cosine_score(tensor: DistanceTensor) -> np.ndarray:
    """Uniform-layer mean distance: the plain cosine-distance scorer."""
    return tensor.values.mean(axis=2)


def reputation_from_accuracies(accuracies: np.ndarray) -> np.ndarray:
    """Exponential moving average over epochs at decay 0.5, seeded with the first value."""
    acc = np.asarray(accuracies, dtype=np.float64)
    out = np.empty_like(acc)
    out[0] = acc[0]
    for e in range(1, len(acc)):
        out[e] = 0.5 * acc[e] + 0.5 * out[e - 1]
    return out


class ReputationTracker:
    """Round observer scoring each node's upload on its own local data."""

    def __init__(self, net: Network, node_datasets: list[Dataset], rounds: int):
        self._net = net
        self._datasets = node_datasets
        self._acc = np.zeros((rounds, len(node_datasets)))

    def on_round(self, record: RoundRecord) -> None:
        for n, local in enumerate(record.local_params):
            self._acc[record.epoch, n] = evaluate(self._net, local, self._datasets[n]).overall

    def score(self) -> np.ndarray:
        """1 - reputation, so "higher = more suspicious" like the others."""
        return 1.0 - reputation_from_accuracies(self._acc)


def normalize_scores(trace: np.ndarray) -> np.ndarray:
    """Min-max rescale over all entries; a constant trace maps to all zeros."""
    t = np.asarray(trace, dtype=np.float64)
    lo, hi = float(t.min()), float(t.max())
    if hi == lo:
        return np.zeros_like(t)
    return (t - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


_LAYOUT = {"dtype": "<f8", "order": "epoch,node,layer"}


def _distance_header(dims) -> bytes:
    return json.dumps({"dims": list(dims), **_LAYOUT}, sort_keys=True).encode() + b"\n"


def distance_bytes_per_epoch_node(dims) -> float:
    """distances.bin size per (epoch, node) for an (E, N, L) log: one float64
    per layer plus an even share of the header."""
    epochs, nodes, layers = dims
    return layers * 8 + len(_distance_header(dims)) / (epochs * nodes)


def distance_tensor_to_bytes(tensor: DistanceTensor) -> bytes:
    return _distance_header(tensor.dims) + tensor.values.astype("<f8").tobytes()


def distance_tensor_from_bytes(raw: bytes) -> DistanceTensor:
    """Inverse of distance_tensor_to_bytes; raises ValueError for a foreign
    header or a payload that is not exactly the size the header declares."""
    head, newline, payload = raw.partition(b"\n")
    try:
        header = json.loads(head)
        if {k: header[k] for k in _LAYOUT} != _LAYOUT:
            raise ValueError(f"layout {header['dtype']!r}, {header['order']!r}")
        dims = tuple(int(d) for d in header["dims"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"not a distance-log header: {exc}") from None
    count = int(np.prod(dims))
    if not newline or len(payload) != 8 * count:
        raise ValueError(f"distance payload is {len(payload)} bytes, header declares {8 * count}")
    return DistanceTensor(np.frombuffer(payload, dtype="<f8").reshape(dims))


def save_distance_tensor(tensor: DistanceTensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(distance_tensor_to_bytes(tensor))


def load_distance_tensor(path) -> DistanceTensor:
    with open(path, "rb") as fh:
        return distance_tensor_from_bytes(fh.read())


def write_scores_csv(traces: dict[str, np.ndarray], path) -> None:
    """CSV rows epoch,node,metric,value; one row per entry per metric."""
    with open(path, "w", newline="\n") as fh:
        fh.write("epoch,node,metric,value\n")
        for metric, trace in traces.items():
            e_dim, n_dim = trace.shape
            for e in range(e_dim):
                for n in range(n_dim):
                    fh.write(f"{e},{n},{metric},{float(trace[e, n])!r}\n")
