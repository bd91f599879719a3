"""Minimal deterministic neural-network engine.

Float64 throughout, no autograd: each layer kind has an explicit forward and
backward. Forward passes keep every layer-boundary activation, which later
feeds both backpropagation and relevance propagation. All public operations
are pure functions of their arguments; parameter arrays are returned
read-only so they can be shared across threads.

Forward and relevance kernels are batch-invariant: a sample's bits do not
depend on the batch it is in, so the audit reuses a batched result that a
single-sample re-audit recomputes. Their GEMMs run per sample (stacked matmul).

The engine builds one geometry, the reference network's: k x k convolutions
at stride 1 with no padding, and 2 x 2 max-pools at stride 2. Every conv patch
operation goes through one cached per-sample patch index: im2col is one
gather and col2im one bincount, which adds each pixel's contributions in
kernel-offset order from +0.0, as a per-offset loop would.

Backpropagation stops at the lowest parameterized layer, since nothing reads
the input's gradient, and a ReLU under a max-pool is gated at pooled size;
both leave every gradient bit as the full per-layer pass has it.

Importing the engine pins glibc's malloc thresholds for the whole process
(mmap at 32 MiB, trim at 64 MiB), so kernel temporaries are reused from a
warm heap instead of faulting in fresh pages on every call; off glibc it
does nothing. docs/decisions.md gives the measurements.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .seeding import stream


def _pin_malloc_thresholds() -> None:
    """On glibc, fix the mmap threshold at its 64-bit ceiling (32 MiB) and the
    trim threshold at 64 MiB. glibc starts both at 128 KiB and raises them
    only after a large block is freed; until then every kernel temporary is a
    fresh mmap that faults in page by page. Workspaces owned by the kernels
    could not avoid this: the kernels return their boundaries, and a
    workspace cannot hold what callers keep (docs/decisions.md)."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_pin_malloc_thresholds()


class ShapeError(ValueError):
    """Layer shapes do not line up."""


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv2D:
    """k x k convolution at stride 1 with no padding; `kernel` is k."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: ClassVar[int] = 1
    padding: ClassVar[int] = 0


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class MaxPool:
    """2 x 2 max-pool at stride 2; an odd last row or column is dropped."""

    kernel: ClassVar[int] = 2
    stride: ClassVar[int] = 2


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
        k = spec.kernel
        if h < k or w < k:
            raise ShapeError(f"layer {index}: kernel {k} exceeds input {shape}")
        return (spec.out_channels, h - k + 1, w - k + 1)
    if isinstance(spec, MaxPool):
        if len(shape) != 3:
            raise ShapeError(f"layer {index}: MaxPool expects (C, H, W), got {shape}")
        c, h, w = shape
        if h < 2 or w < 2:
            raise ShapeError(f"layer {index}: pool window 2 exceeds input {shape}")
        return (c, h // 2, w // 2)
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


@functools.lru_cache(maxsize=64)
def _patch_index(c, h, w, kernel):
    """Read-only flat offset of every patch entry (c, u, v, i, j) within one
    sample's (c, h, w) plane stack, shaped (c*k*k, ho*wo) in C order.

    Cached per sample shape, never per batch: a batch-sized index for a
    2,000-sample pass would hold ~100 MB for the life of the process."""
    ho = h - kernel + 1
    wo = w - kernel + 1
    k = np.arange(kernel)
    idx = (
        (np.arange(c) * (h * w))[:, None, None, None, None]
        + (k * w)[:, None, None, None]
        + k[:, None, None]
        + (np.arange(ho) * w)[:, None]
        + np.arange(wo)
    ).reshape(c * kernel * kernel, ho * wo)
    idx.flags.writeable = False
    return idx


def _conv_cols(x, kernel):
    # x (B, C, H, W) -> per-sample patches (B, C*k*k, Ho*Wo), so that every
    # conv GEMM is one stacked matmul over samples and a sample's bits do not
    # depend on its batch; one gather through the cached patch index
    b, c, h, w = x.shape
    cols = np.take(x.reshape(b, -1), _patch_index(c, h, w, kernel), axis=1)
    return cols, h - kernel + 1, w - kernel + 1


def _conv_forward_cols(x, w, bias):
    co = w.shape[0]
    cols, ho, wo = _conv_cols(x, w.shape[2])
    out = np.matmul(w.reshape(co, -1), cols).reshape(x.shape[0], co, ho, wo)
    out += bias[:, None, None]
    return out, cols


def _col2im_add(dcols, in_shape, kernel):
    # inverse of _conv_cols: one bincount through the patch index. It adds each
    # pixel's contributions in kernel-offset (u, v) order starting from +0.0,
    # as a loop of per-offset adds into zeros would, so -0.0 sums stay +0.0
    b = dcols.shape[0]
    c, h, w = in_shape
    plane = c * h * w
    flat = (np.arange(b) * plane)[:, None, None] + _patch_index(c, h, w, kernel)
    buf = np.bincount(flat.ravel(), weights=dcols.ravel(), minlength=b * plane)
    return buf.reshape(b, c, h, w)


def _conv_input_grad(dout, w, in_shape):
    b, co, ho, wo = dout.shape
    dcols = np.matmul(w.reshape(co, -1).T, dout.reshape(b, co, ho * wo))  # (B, C*k*k, Ho*Wo)
    return _col2im_add(dcols, in_shape, w.shape[2])


def _pool_quadrants(x):
    # the four corners of every 2 x 2 window; an odd last row or column is in none
    h, w = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    xc = x[:, :, :h, :w]
    return xc[:, :, 0::2, 0::2], xc[:, :, 0::2, 1::2], xc[:, :, 1::2, 0::2], xc[:, :, 1::2, 1::2]


def _pool_forward(x):
    q00, q01, q10, q11 = _pool_quadrants(x)
    return np.maximum(np.maximum(q00, q01), np.maximum(q10, q11))


def _pool_max_arg(x):
    """(max, first-row-major argmax) per window."""
    out = _pool_forward(x)
    q00, q01, q10, _ = _pool_quadrants(x)
    # 0 if q00 wins, else 1 if q01 does, else 2 if q10 does, else 3
    arg = (q00 != out) * (1 + (q01 != out) * (1 + (q10 != out)))
    return out, arg


def _pool_winner_scatter(x, values, arg):
    """Scatter per-window `values` onto each window's first row-major maximum,
    `arg` as `_pool_max_arg` returns it. Windows are disjoint, so no two
    winners share a pixel."""
    b, c, h, w = x.shape
    ho, wo = arg.shape[2], arg.shape[3]
    # flat index of each winner: its offset in the window, plus the window's
    # corner in its plane, plus the plane's start
    idx = np.array([0, 1, w, w + 1])[arg]
    idx += (np.arange(b * c) * (h * w)).reshape(b, c, 1, 1)
    idx += (np.arange(ho) * (2 * w))[:, None] + np.arange(wo) * 2
    out = np.zeros(b * c * h * w)
    out[idx] = values
    return out.reshape(b, c, h, w)


def _layer_backward(spec, params, x, dout, cols=None, pool_arg=None, input_grad=True):
    """Returns (dx, dw, db); dw/db are None for parameterless layers, and dx is
    None when `input_grad` is false. Conv and max-pool layers take
    forward_collect's saved `cols` and `pool_arg`."""
    if isinstance(spec, Dense):
        w, _ = params
        return (dout @ w if input_grad else None), dout.T @ x, dout.sum(axis=0)
    if isinstance(spec, Conv2D):
        w, _ = params
        b, co = dout.shape[:2]
        dw = np.matmul(dout.reshape(b, co, -1), cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        db = dout.sum(axis=(0, 2, 3))
        dx = _conv_input_grad(dout, w, x.shape[1:]) if input_grad else None
        return dx, dw, db
    if isinstance(spec, ReLU):
        return dout * (x > 0), None, None
    if isinstance(spec, MaxPool):
        return _pool_winner_scatter(x, dout, pool_arg), None, None
    return dout.reshape(x.shape), None, None  # Flatten; Network rejects any other kind


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
            x, cols = _conv_forward_cols(x, w, b)
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
                x, pool_args[li] = _pool_max_arg(x)
            else:
                x = _pool_forward(x)
        else:  # Flatten; Network rejects any other kind
            x = x.reshape(x.shape[0], -1)
        boundaries.append(x)
    return boundaries, conv_cols, pool_args


def forward_batch(net: Network, params: LayeredParams, inputs: np.ndarray) -> list[np.ndarray]:
    """All boundary activations for a batch; boundaries[0] is the input,
    boundaries[-1] the logits."""
    return forward_collect(net, params, inputs, keep=False)[0]


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
    e = np.exp(logits - zmax)
    esum = e.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(esum[:, 0])
    loss = float(np.mean(lse - logits[np.arange(n), labels]))

    dlogits = e / esum  # softmax(logits), from the loss's own exponentials
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    grads: list = [None] * len(params)
    dout = dlogits
    pi = len(params)
    lowest = min(net.param_layer_indices, default=len(net.specs))
    li = len(net.specs) - 1
    while li >= lowest:  # nothing reads the gradient below the lowest parameters
        spec = net.specs[li]
        if isinstance(spec, PARAMETERIZED):
            pi -= 1
            dout, dw, db = _layer_backward(
                spec, params.layers[pi], boundaries[li], dout, cols=conv_cols.get(li),
                input_grad=li > lowest,
            )
            grads[pi] = (dw, db)
        elif isinstance(spec, MaxPool) and isinstance(net.specs[li - 1], ReLU):
            # a ReLU under a pool: gate by the pooled output, which is the
            # winner's activation, and skip the ReLU's full-size pass
            gated = dout * (boundaries[li + 1] > 0)
            dout = _pool_winner_scatter(boundaries[li], gated, pool_args[li])
            li -= 1
        else:
            dout, _, _ = _layer_backward(
                spec, None, boundaries[li], dout, pool_arg=pool_args.get(li)
            )
        li -= 1
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
        # weights, then biases, of each layer in turn
        shapes = [tuple(e[key]) for e in header["layers"] for key in ("weights", "biases")]
        sizes = [int(np.prod(s)) for s in shapes]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"not a fedliab-params header: {exc}") from None
    if not newline or len(payload) != 8 * sum(sizes):
        raise ValueError(f"params payload is {len(payload)} bytes, header declares {8 * sum(sizes)}")
    blocks = np.split(np.frombuffer(payload, dtype="<f8").astype(np.float64), np.cumsum(sizes)[:-1])
    arrays = [block.reshape(s) for block, s in zip(blocks, shapes)]
    return make_params(zip(arrays[0::2], arrays[1::2]))


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
        MaxPool(),
        Conv2D(8, 16, kernel=3),
        ReLU(),
        MaxPool(),
        Flatten(),
        Dense(16 * pooled * pooled, 64),
        ReLU(),
        Dense(64, class_count),
    ]
