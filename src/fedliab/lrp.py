"""Layer-wise relevance propagation over the engine's networks.

Starting from one output neuron's logit, relevance is redistributed backward
boundary by boundary: a stabilized proportional rule for dense layers, a
positive-contributions-only rule for convolutions, winner-take-all through
max pooling, and activation-gated pass-through for ReLU. Every relevance
tensor has the shape of the matching activation, and with the positive-only
rule and no stabilizer the per-boundary totals are conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .nn import (
    Conv2D,
    Dense,
    LayeredParams,
    MaxPool,
    Network,
    ReLU,
    _conv_input_grad,
    _dense,
    _frozen,
    _pool_winner_scatter,
    forward_collect,
)

DEFAULT_RULES: Mapping[str, str] = {"dense": "epsilon", "conv2d": "zplus"}

_SUPPORTED = {"dense": {"epsilon", "zplus"}, "conv2d": {"epsilon", "zplus"}}


class RuleError(ValueError):
    """No usable redistribution rule for a layer kind."""


@dataclass(frozen=True)
class LrpConfig:
    """Stabilizer and per-kind rule assignment.

    epsilon None means the adaptive default 1e-9 * mean|z| per layer
    (floored at 1e-12); an explicit value, including 0.0, is used as-is.
    """

    epsilon: float | None = None
    rules: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_RULES))

    def __post_init__(self):
        if self.epsilon is not None and not 0 <= self.epsilon < np.inf:  # NaN fails too
            raise ValueError(f"epsilon must be non-negative and finite, got {self.epsilon}")
        for kind, rule in self.rules.items():
            if kind not in _SUPPORTED or rule not in _SUPPORTED[kind]:
                raise RuleError(f"unsupported rule {rule!r} for layer kind {kind!r}")
        for kind in _SUPPORTED:
            if kind not in self.rules:
                raise RuleError(f"no rule assigned for layer kind {kind!r}")


@dataclass(frozen=True)
class RelevanceMap:
    """Per-boundary relevance tensors, shaped exactly like the trace."""

    boundaries: tuple[np.ndarray, ...]
    target_class: int

    def __len__(self) -> int:
        return len(self.boundaries)

    @property
    def input_relevance(self) -> np.ndarray:
        return self.boundaries[0]


def _effective_epsilon(cfg: LrpConfig, z: np.ndarray):
    """Stabilizer magnitude: explicit value, or 1e-9 * mean|z| per sample."""
    if cfg.epsilon is not None:
        return cfg.epsilon
    per_sample = 1e-9 * np.abs(z).reshape(z.shape[0], -1).mean(axis=1)
    eps = np.maximum(per_sample, 1e-12)
    return eps.reshape((z.shape[0],) + (1,) * (z.ndim - 1))


def _redistribution_factor(r_out, z, cfg, nonneg: bool) -> np.ndarray:
    """r_out / (z + eps * sign(z)), sign(0) = +1; `nonneg` z needs no sign.
    A positive stabilizer keeps the denominator away from zero; with an
    explicit zero stabilizer, a zero denominator gives a zero factor."""
    eps = _effective_epsilon(cfg, z)
    if np.all(eps == 0):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(z != 0, r_out / z, 0.0)
    if not nonneg:
        eps = eps * (1.0 - 2.0 * (z < 0))
    return r_out / (z + eps)


def _dense_rule(w, a, r_out, z_out, cfg):
    # a (B, in), r_out/z_out (B, out)
    if cfg.rules["dense"] == "zplus":
        wp = np.maximum(w, 0.0)
        s = _redistribution_factor(r_out, _dense(a, wp.T), cfg, nonneg=True)
        return a * _dense(s, wp)
    s = _redistribution_factor(r_out, z_out, cfg, nonneg=False)
    return a * _dense(s, w)


def _conv_rule(spec, w, a, r_out, z_out, cols, cfg):
    # a (B, C, H, W); r_out/z_out (B, Co, Ho, Wo); cols (B, C*k*k, Ho*Wo)
    if cfg.rules["conv2d"] == "zplus":
        w = np.maximum(w, 0.0)
        z = np.matmul(w.reshape(w.shape[0], -1), cols).reshape(r_out.shape)
        s = _redistribution_factor(r_out, z, cfg, nonneg=True)
    else:
        # the epsilon rule's z is the layer's own output, already in the trace
        s = _redistribution_factor(r_out, z_out, cfg, nonneg=False)
    return a * _conv_input_grad(s, w, a.shape[1:], spec.stride, spec.padding)


def lrp_propagate_batch(
    net: Network,
    params: LayeredParams,
    inputs: np.ndarray,
    targets=None,
    cfg: LrpConfig = LrpConfig(),
) -> tuple[list[np.ndarray], np.ndarray]:
    """Relevance for a batch in one pass.

    Returns (per-boundary relevance arrays with a leading batch axis, the
    audited class per sample). targets None audits each sample's predicted
    class; relevance rules reuse the forward pass's patch matrices and
    pooling winners.
    """
    boundaries, conv_cols, pool_args = forward_collect(net, params, inputs)
    logits = boundaries[-1]
    n = logits.shape[0]
    if targets is None:
        targets = np.argmax(logits, axis=1)
    else:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.min() < 0 or targets.max() >= net.class_count:
            raise ValueError(
                f"target class outside [0, {net.class_count}): {targets.min()}..{targets.max()}"
            )
    rel: list = [None] * len(boundaries)
    start = np.zeros_like(logits)
    rows = np.arange(n)
    start[rows, targets] = logits[rows, targets]
    rel[-1] = start

    pi = len(params)
    for li in range(len(net.specs) - 1, -1, -1):
        spec = net.specs[li]
        a_in = boundaries[li]
        r_out = rel[li + 1]
        if isinstance(spec, Dense):
            pi -= 1
            w, _ = params.layers[pi]
            rel[li] = _dense_rule(w, a_in, r_out, boundaries[li + 1], cfg)
        elif isinstance(spec, Conv2D):
            pi -= 1
            w, _ = params.layers[pi]
            rel[li] = _conv_rule(spec, w, a_in, r_out, boundaries[li + 1], conv_cols.get(li), cfg)
        elif isinstance(spec, ReLU):
            rel[li] = np.where(boundaries[li + 1] > 0, r_out, 0.0)
        elif isinstance(spec, MaxPool):
            rel[li] = _pool_winner_scatter(
                a_in, spec.kernel, spec.stride, r_out, arg=pool_args.get(li)
            )
        else:  # Flatten; Network rejects any other kind
            rel[li] = r_out.reshape(a_in.shape)
    return rel, targets


def lrp_propagate(
    net: Network,
    params: LayeredParams,
    sample: np.ndarray,
    target_class: int | None = None,
    cfg: LrpConfig = LrpConfig(),
) -> RelevanceMap:
    """Relevance map for one sample, explaining the target class's logit.

    target_class None audits the predicted class (the highest-scoring output
    neuron); passing a class explicitly supports reviewing any decision,
    including the wrong winner of a misclassification.
    """
    batch = np.asarray(sample, dtype=np.float64)[None]
    targets = None if target_class is None else np.array([target_class])
    rel, targets = lrp_propagate_batch(net, params, batch, targets, cfg)
    return RelevanceMap(tuple(_frozen(r[0]) for r in rel), int(targets[0]))


def reduce_to_layer_vector(rmap: RelevanceMap, net: Network) -> np.ndarray:
    """reduce_to_layer_vector_batch for one sample's relevance map."""
    return _frozen(reduce_to_layer_vector_batch([r[None] for r in rmap.boundaries], net)[0])


def reduce_to_layer_vector_batch(rel: list[np.ndarray], net: Network) -> np.ndarray:
    """Per-sample layer weights (B, L): normalized absolute relevance mass at
    each parameterized layer's input boundary; uniform if total mass is zero."""
    mass = np.stack(
        [np.abs(rel[li]).reshape(rel[li].shape[0], -1).sum(axis=1) for li in net.param_layer_indices],
        axis=1,
    )
    totals = mass.sum(axis=1, keepdims=True)
    uniform = np.full_like(mass, 1.0 / mass.shape[1])
    with np.errstate(invalid="ignore"):
        return np.where(totals > 0, mass / np.where(totals > 0, totals, 1.0), uniform)


def conservation_report(rmap: RelevanceMap, logit_value: float) -> np.ndarray:
    """Relative leakage |sum(R_b) - logit| / max(|logit|, 1e-12) per boundary."""
    scale = max(abs(float(logit_value)), 1e-12)
    return np.array(
        [abs(float(b.sum()) - float(logit_value)) / scale for b in rmap.boundaries]
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def _as_image(rel: np.ndarray) -> np.ndarray:
    if rel.ndim == 3:
        return rel.sum(axis=0)
    if rel.ndim == 1:
        return rel[None, :]
    return rel


def relevance_to_pgm(rel: np.ndarray, path) -> None:
    """Min-max normalized grayscale heatmap (binary PGM, maxval 255)."""
    img = _as_image(np.asarray(rel, dtype=np.float64))
    lo, hi = float(img.min()), float(img.max())
    scaled = np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)
    data = np.round(scaled * 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + data.tobytes())


def relevance_to_json(rel: np.ndarray) -> dict:
    """shape + flat row-major values, for the experiment harness."""
    a = np.asarray(rel, dtype=np.float64)
    return {"shape": list(a.shape), "values": a.ravel().tolist()}
