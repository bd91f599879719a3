"""Minimal deterministic neural-network engine.

Float64 throughout, no autograd: each layer kind has an explicit forward and
backward. Forward passes keep every layer-boundary activation, which later
feeds both backpropagation and relevance propagation. All public operations
are pure functions of their arguments; parameter arrays are returned
read-only so they can be shared across threads.

Forward and relevance kernels are batch-invariant: a sample's bits do not
depend on the batch it is in, so the audit reuses a batched result that a
single-sample re-audit recomputes. Their GEMMs run per sample (stacked matmul).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .seeding import stream


class ShapeError(ValueError):
    """Layer shapes do not line up."""


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv2D:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class MaxPool:
    kernel: int
    stride: int


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Union[Dense, Conv2D, ReLU, MaxPool, Flatten]

PARAMETERIZED = (Dense, Conv2D)


def _frozen(a: np.ndarray) -> np.ndarray:
    # freeze a view of a writable input: no copy, and the caller's array stays writable
    a = np.ascontiguousarray(a, dtype=np.float64)
    a = a.view() if a.flags.writeable else a
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LayeredParams:
    """Ordered (weights, biases) pairs, one per parameterized layer."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def shapes(self) -> list[tuple[tuple, tuple]]:
        return [(w.shape, b.shape) for w, b in self.layers]

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)


def make_params(pairs) -> LayeredParams:
    return LayeredParams(tuple((_frozen(w), _frozen(b)) for w, b in pairs))


class Network:
    """Validated layer stack with inferred per-boundary shapes."""

    def __init__(self, specs, input_shape):
        self.specs = tuple(specs)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.boundary_shapes = [self.input_shape]
        shape = self.input_shape
        for i, spec in enumerate(self.specs):
            shape = _infer_shape(spec, shape, i)
            self.boundary_shapes.append(shape)
        if len(shape) != 1:
            raise ShapeError(
                f"network output must be a 1-D logit vector, got {shape} "
                f"after layer {len(self.specs) - 1}"
            )
        self.class_count = shape[0]
        self.param_layer_indices = tuple(
            i for i, s in enumerate(self.specs) if isinstance(s, PARAMETERIZED)
        )

    @property
    def num_param_layers(self) -> int:
        return len(self.param_layer_indices)

    def param_shapes(self) -> list[tuple[tuple, tuple]]:
        out = []
        for i in self.param_layer_indices:
            spec = self.specs[i]
            if isinstance(spec, Dense):
                out.append(((spec.out_dim, spec.in_dim), (spec.out_dim,)))
            else:
                out.append(
                    (
                        (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel),
                        (spec.out_channels,),
                    )
                )
        return out


def _infer_shape(spec, shape, index):
    if isinstance(spec, Dense):
        if len(shape) != 1 or shape[0] != spec.in_dim:
            raise ShapeError(f"layer {index}: Dense expects ({spec.in_dim},), got {shape}")
        return (spec.out_dim,)
    if isinstance(spec, Conv2D):
        if len(shape) != 3 or shape[0] != spec.in_channels:
            raise ShapeError(
                f"layer {index}: Conv2D expects ({spec.in_channels}, H, W), got {shape}"
            )
        _, h, w = shape
        k, s, p = spec.kernel, spec.stride, spec.padding
        if h + 2 * p < k or w + 2 * p < k:
            raise ShapeError(f"layer {index}: kernel {k} exceeds padded input {shape}")
        return (spec.out_channels, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
    if isinstance(spec, MaxPool):
        if len(shape) != 3:
            raise ShapeError(f"layer {index}: MaxPool expects (C, H, W), got {shape}")
        c, h, w = shape
        k, s = spec.kernel, spec.stride
        if h < k or w < k:
            raise ShapeError(f"layer {index}: pool window {k} exceeds input {shape}")
        return (c, (h - k) // s + 1, (w - k) // s + 1)
    if isinstance(spec, Flatten):
        return (int(np.prod(shape)),)
    if isinstance(spec, ReLU):
        return shape
    raise ShapeError(f"layer {index}: unknown layer kind {spec!r}")


def build_network(specs, input_shape, seed: int) -> tuple[Network, LayeredParams]:
    """Construct a network and He-initialized parameters.

    Weights are Normal(0, 2/fan_in) drawn from a Philox stream keyed on
    (seed, parameterized-layer ordinal); biases are zero. Identical
    (specs, input_shape, seed) give bit-identical parameters.
    """
    net = Network(specs, input_shape)
    pairs = []
    for ordinal, (wshape, bshape) in enumerate(net.param_shapes()):
        fan_in = int(np.prod(wshape[1:]))
        rng = stream(seed, "init", ordinal)
        w = rng.standard_normal(wshape) * np.sqrt(2.0 / fan_in)
        pairs.append((w, np.zeros(bshape)))
    return net, make_params(pairs)


# ---------------------------------------------------------------------------
# per-layer forward/backward (batched; leading axis is the batch)
# ---------------------------------------------------------------------------


def _dense(x, w):
    # x (B, in) @ w (in, out), one row-vector product per sample: a single
    # GEMM over the batch rounds a row differently from a batch of one
    return np.matmul(x[:, None, :], w)[:, 0]


def _conv_cols(x, kernel, stride, padding):
    # x (B, C, H, W) -> per-sample patches (B, C*k*k, Ho*Wo), so that every
    # conv GEMM is one stacked matmul over samples and a sample's bits do not
    # depend on its batch; written with one strided copy per kernel offset
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    b, c, h, w = x.shape
    ho = (h - kernel) // stride + 1
    wo = (w - kernel) // stride + 1
    he = (ho - 1) * stride + 1
    we = (wo - 1) * stride + 1
    cols = np.empty((b, c, kernel, kernel, ho, wo))
    for u in range(kernel):
        for v in range(kernel):
            cols[:, :, u, v] = x[:, :, u : u + he : stride, v : v + we : stride]
    return cols.reshape(b, c * kernel * kernel, ho * wo), ho, wo


def _conv_forward_cols(x, w, bias, stride, padding):
    co = w.shape[0]
    cols, ho, wo = _conv_cols(x, w.shape[2], stride, padding)
    out = np.matmul(w.reshape(co, -1), cols).reshape(x.shape[0], co, ho, wo)
    out += bias[:, None, None]
    return out, cols


def _col2im_add(dcols, in_shape, kernel, stride, padding, ho, wo):
    # inverse of _conv_cols: accumulate patch gradients back onto the input,
    # one kernel offset at a time (k*k vectorized adds, no big intermediate)
    b = dcols.shape[0]
    c, h, w = in_shape
    buf = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    d = dcols.reshape(b, c, kernel, kernel, ho, wo)
    he = (ho - 1) * stride + 1
    we = (wo - 1) * stride + 1
    for u in range(kernel):
        for v in range(kernel):
            buf[:, :, u : u + he : stride, v : v + we : stride] += d[:, :, u, v]
    return buf[:, :, padding : padding + h, padding : padding + w]


def _conv_input_grad(dout, w, in_shape, stride, padding):
    b, co, ho, wo = dout.shape
    dcols = np.matmul(w.reshape(co, -1).T, dout.reshape(b, co, ho * wo))  # (B, C*k*k, Ho*Wo)
    return _col2im_add(dcols, in_shape, w.shape[2], stride, padding, ho, wo)


def _pool_windows(x, kernel, stride):
    win = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    b, c, ho, wo, _, _ = win.shape
    return win.reshape(b, c, ho, wo, kernel * kernel), ho, wo


def _pool_quadrants(x, ho, wo):
    xc = x[:, :, : 2 * ho, : 2 * wo]
    return xc[:, :, 0::2, 0::2], xc[:, :, 0::2, 1::2], xc[:, :, 1::2, 0::2], xc[:, :, 1::2, 1::2]


def _pool_max_arg(x, kernel, stride):
    """(max, first-row-major argmax) per window."""
    b, c, h, w = x.shape
    if kernel == 2 and stride == 2:
        q00, q01, q10, q11 = _pool_quadrants(x, h // 2, w // 2)
        out = np.maximum(np.maximum(q00, q01), np.maximum(q10, q11))
        arg = np.where(q00 == out, 0, np.where(q01 == out, 1, np.where(q10 == out, 2, 3)))
        return out, arg
    flat_win, _, _ = _pool_windows(x, kernel, stride)
    return flat_win.max(-1), flat_win.argmax(-1)


def _pool_forward(x, kernel, stride):
    if kernel == 2 and stride == 2:
        q00, q01, q10, q11 = _pool_quadrants(x, x.shape[2] // 2, x.shape[3] // 2)
        return np.maximum(np.maximum(q00, q01), np.maximum(q10, q11))
    flat_win, _, _ = _pool_windows(x, kernel, stride)
    return flat_win.max(-1)


def _pool_winner_scatter(x, kernel, stride, values, arg):
    """Scatter per-window `values` onto each window's first row-major maximum,
    `arg` as `_pool_max_arg` returns it."""
    b, c, h, w = x.shape
    ho, wo = arg.shape[2], arg.shape[3]
    rows = (np.arange(ho) * stride)[None, None, :, None] + arg // kernel
    cols = (np.arange(wo) * stride)[None, None, None, :] + arg % kernel
    out = np.zeros((b, c, h * w))
    bidx = np.arange(b)[:, None, None, None]
    cidx = np.arange(c)[None, :, None, None]
    if stride >= kernel:
        out[bidx, cidx, rows * w + cols] = values  # disjoint windows: unique winners
    else:
        np.add.at(out, (bidx, cidx, rows * w + cols), values)
    return out.reshape(b, c, h, w)


def _layer_backward(spec, params, x, dout, cols=None, pool_arg=None):
    """Returns (dx, dw, db); dw/db are None for parameterless layers. Conv and
    max-pool layers take forward_collect's saved `cols` and `pool_arg`."""
    if isinstance(spec, Dense):
        w, _ = params
        return dout @ w, dout.T @ x, dout.sum(axis=0)
    if isinstance(spec, Conv2D):
        w, _ = params
        b, co = dout.shape[:2]
        dw = np.matmul(dout.reshape(b, co, -1), cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        db = dout.sum(axis=(0, 2, 3))
        dx = _conv_input_grad(dout, w, x.shape[1:], spec.stride, spec.padding)
        return dx, dw, db
    if isinstance(spec, ReLU):
        return dout * (x > 0), None, None
    if isinstance(spec, MaxPool):
        return _pool_winner_scatter(x, spec.kernel, spec.stride, dout, arg=pool_arg), None, None
    if isinstance(spec, Flatten):
        return dout.reshape(x.shape), None, None
    raise ShapeError(f"unknown layer kind {spec!r}")


def _check_params(net: Network, params: LayeredParams):
    expected = net.param_shapes()
    if len(params) != len(expected):
        raise ShapeError(
            f"expected {len(expected)} parameterized layers, got {len(params)}"
        )
    for i, ((w, b), (ws, bs)) in enumerate(zip(params, expected)):
        if w.shape != ws or b.shape != bs:
            raise ShapeError(
                f"parameter {i}: expected weights {ws} biases {bs}, "
                f"got {w.shape} / {b.shape}"
            )


def forward_collect(net: Network, params: LayeredParams, inputs: np.ndarray, keep: bool = True):
    """Batched forward keeping reusable intermediates.

    Returns (boundaries, conv_cols, pool_args): per-boundary activations,
    the patch matrix of each convolution, and each pooling layer's winner
    indices, keyed by layer index. Backpropagation and relevance propagation
    both reuse them; `keep=False` skips them for plain inference.
    """
    _check_params(net, params)
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ShapeError(f"input shape {x.shape[1:]} != network input {net.input_shape}")
    boundaries = [x]
    conv_cols: dict[int, np.ndarray] = {}
    pool_args: dict[int, np.ndarray] = {}
    pi = 0
    for li, spec in enumerate(net.specs):
        if isinstance(spec, Conv2D):
            w, b = params.layers[pi]
            pi += 1
            x, cols = _conv_forward_cols(x, w, b, spec.stride, spec.padding)
            if keep:
                conv_cols[li] = cols
        elif isinstance(spec, Dense):
            w, b = params.layers[pi]
            pi += 1
            x = _dense(x, w.T) + b
        elif isinstance(spec, ReLU):
            x = np.maximum(x, 0.0)
        elif isinstance(spec, MaxPool):
            if keep:
                x, pool_args[li] = _pool_max_arg(x, spec.kernel, spec.stride)
            else:
                x = _pool_forward(x, spec.kernel, spec.stride)
        else:  # Flatten; Network rejects any other kind
            x = x.reshape(x.shape[0], -1)
        boundaries.append(x)
    return boundaries, conv_cols, pool_args


def forward_batch(net: Network, params: LayeredParams, inputs: np.ndarray) -> list[np.ndarray]:
    """All boundary activations for a batch; boundaries[0] is the input,
    boundaries[-1] the logits."""
    return forward_collect(net, params, inputs, keep=False)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_grad(net: Network, params: LayeredParams, batch) -> tuple[float, LayeredParams]:
    """Mean softmax cross-entropy over the batch and its parameter gradients."""
    inputs, labels = batch
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= net.class_count:
        raise ValueError(
            f"label out of range [0, {net.class_count}): {labels.min()}..{labels.max()}"
        )
    boundaries, conv_cols, pool_args = forward_collect(net, params, inputs)

    logits = boundaries[-1]
    n = logits.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), labels]))

    dlogits = softmax(logits)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    grads: list = [None] * len(params)
    dout = dlogits
    pi = len(params)
    for li in range(len(net.specs) - 1, -1, -1):
        spec = net.specs[li]
        if isinstance(spec, PARAMETERIZED):
            pi -= 1
            dout, dw, db = _layer_backward(
                spec, params.layers[pi], boundaries[li], dout, cols=conv_cols.get(li)
            )
            grads[pi] = (dw, db)
        else:
            dout, _, _ = _layer_backward(
                spec, None, boundaries[li], dout, pool_arg=pool_args.get(li)
            )
    return loss, make_params(grads)


def sgd_step(params: LayeredParams, grads: LayeredParams, lr: float) -> LayeredParams:
    """One plain gradient step: params - lr * grads."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if params.shapes() != grads.shapes():
        raise ShapeError("gradient shapes do not match parameter shapes")
    return make_params(
        (w - lr * gw, b - lr * gb)
        for (w, b), (gw, gb) in zip(params, grads)
    )


def flatten_layer_params(params: LayeredParams, layer: int) -> np.ndarray:
    """1-D view of one layer's parameters: weights row-major, then biases."""
    if not 0 <= layer < len(params):
        raise IndexError(f"layer {layer} out of range [0, {len(params)})")
    w, b = params.layers[layer]
    return np.concatenate([w.ravel(), b.ravel()])


def unflatten_layer_params(flat: np.ndarray, w_shape, b_shape) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of flatten_layer_params for one layer."""
    wn = int(np.prod(w_shape))
    return flat[:wn].reshape(w_shape), flat[wn : wn + int(np.prod(b_shape))].reshape(b_shape)


# ---------------------------------------------------------------------------
# serialization: JSON header line + little-endian float64 blocks in
# flatten_layer_params order
# ---------------------------------------------------------------------------


def params_to_bytes(params: LayeredParams) -> bytes:
    header = {
        "format": "fedliab-params",
        "layers": [
            {"weights": list(w.shape), "biases": list(b.shape)} for w, b in params
        ],
    }
    payload = b"".join(
        flatten_layer_params(params, i).astype("<f8").tobytes()
        for i in range(len(params))
    )
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def params_from_bytes(raw: bytes) -> LayeredParams:
    """Inverse of params_to_bytes; raises ValueError for a foreign header or
    a payload that is not exactly the size the header declares."""
    head, newline, payload = raw.partition(b"\n")
    try:
        header = json.loads(head)
        if header["format"] != "fedliab-params":
            raise ValueError(f"format {header['format']!r}")
        shapes = [(tuple(e["weights"]), tuple(e["biases"])) for e in header["layers"]]
        sizes = [int(np.prod(ws)) + int(np.prod(bs)) for ws, bs in shapes]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"not a fedliab-params header: {exc}") from None
    if not newline or len(payload) != 8 * sum(sizes):
        raise ValueError(f"params payload is {len(payload)} bytes, header declares {8 * sum(sizes)}")
    chunks = np.split(np.frombuffer(payload, dtype="<f8").astype(np.float64), np.cumsum(sizes)[:-1])
    return make_params(unflatten_layer_params(c, ws, bs) for c, (ws, bs) in zip(chunks, shapes))


def save_params(params: LayeredParams, path):
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_params(path) -> LayeredParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())


def reference_network(class_count: int = 10, image_size: int = 28) -> list[LayerSpec]:
    """The small two-conv/two-dense classifier used by the experiments."""
    pooled = ((image_size - 2) // 2 - 2) // 2
    return [
        Conv2D(1, 8, kernel=3),
        ReLU(),
        MaxPool(2, 2),
        Conv2D(8, 16, kernel=3),
        ReLU(),
        MaxPool(2, 2),
        Flatten(),
        Dense(16 * pooled * pooled, 64),
        ReLU(),
        Dense(64, class_count),
    ]
