"""Correctness checks computed apart from the program under test.

The forward pass, the cross-entropy loss, the distance-log reader and the
audit contraction here are written directly from their definitions; the
relevance oracle is the loop implementation in tests/lrp_oracle.py. Each
check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from fedliab import harness, lrp, nn
from lrp_oracle import oracle_propagate

ORACLE_EPSILON = 1e-6  # explicit stabilizer shared by the program and the oracle
ORACLE_TOL = 1e-10  # criterion 2, relative to the audited logit
GRAD_TOL = 1e-4  # criterion 3
FD_STEPS = (1e-6, 2e-7)
LOGIT_TOL = 1e-10  # relative to the largest logit of the batch
AUDIT_TOL = 1e-12


def reference_logits(net, params, x) -> np.ndarray:
    """Forward pass by sliding windows and einsum, independent of nn's GEMM path."""
    x = np.asarray(x, dtype=np.float64)
    layers = iter(params.layers)
    for spec in net.specs:
        if isinstance(spec, nn.Conv2D):
            w, b = next(layers)
            p, k, s = spec.padding, spec.kernel, spec.stride
            xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
            win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
            x = np.einsum("bchwij,ocij->bohw", win, w) + b[None, :, None, None]
        elif isinstance(spec, nn.Dense):
            w, b = next(layers)
            x = x @ w.T + b
        elif isinstance(spec, nn.ReLU):
            x = np.maximum(x, 0.0)
        elif isinstance(spec, nn.MaxPool):
            k, s = spec.kernel, spec.stride
            x = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s].max(axis=(4, 5))
        elif isinstance(spec, nn.Flatten):
            x = x.reshape(len(x), -1)
        else:
            raise TypeError(f"no reference for layer {spec!r}")
    return x


def reference_loss(net, params, x, y) -> float:
    z = reference_logits(net, params, x)
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def read_distance_log(path, rounds, nodes, layers) -> tuple[np.ndarray, list[str]]:
    """(E, N, L) values of distances.bin, parsed from its documented layout."""
    raw = Path(path).read_bytes()
    head, _, payload = raw.partition(b"\n")
    dims = tuple(json.loads(head)["dims"])
    fails = []
    if dims != (rounds, nodes, layers):
        fails.append(f"distance log dims {dims} != E,N,L {(rounds, nodes, layers)}")
    count = rounds * nodes * layers
    if len(raw) != len(head) + 1 + 8 * count:
        fails.append(f"distance log is {len(raw)} bytes, want header {len(head) + 1} + 8*{count}")
    values = np.frombuffer(payload[: 8 * count], dtype="<f8")
    if values.size != count:
        return np.zeros((rounds, nodes, layers)), fails + ["distance log payload truncated"]
    if not np.all(np.isfinite(values)) or values.min() < 0 or values.max() > 2:
        fails.append("distance log has values outside [0, 2] or not finite")
    return values.reshape(rounds, nodes, layers), fails


def check_audit(distances, blob, alpha, where) -> list[str]:
    """Layer weights are convex, and the per-node means, global mean and
    flagged set follow from the log by an independent contraction."""
    weights = np.asarray(blob["layer_weights"], dtype=np.float64)
    fails = []
    if weights.min() < 0 or abs(weights.sum() - 1.0) > AUDIT_TOL:
        fails.append(f"{where}: layer weights {weights.tolist()} are not convex")
    matrix = np.einsum("enl,l->en", distances, weights)
    per_node = matrix.mean(axis=0)
    global_mean = matrix.mean()
    flagged = [n for n in range(len(per_node)) if per_node[n] > alpha * global_mean]
    scale = max(float(np.abs(per_node).max()), 1e-300)
    if np.max(np.abs(per_node - np.asarray(blob["per_node_mean"]))) > AUDIT_TOL * scale:
        fails.append(f"{where}: per-node means differ from the recomputed contraction")
    if abs(global_mean - blob["global_mean"]) > AUDIT_TOL * scale:
        fails.append(f"{where}: global mean differs from the recomputed contraction")
    if list(blob["flagged"]) != flagged:
        fails.append(f"{where}: flagged {blob['flagged']} != recomputed {flagged}")
    return fails


def check_targets(net, params, inputs, targets, where) -> list[str]:
    """Each audited or predicted class is the argmax of the reference logits."""
    want = np.argmax(reference_logits(net, params, inputs), axis=1)
    bad = np.flatnonzero(np.asarray(targets) != want)
    return [f"{where}: target is not the argmax of the logits for rows {bad.tolist()}"] if bad.size else []


def check_logits(net, params, inputs, logits, where) -> list[str]:
    want = reference_logits(net, params, inputs)
    err = float(np.max(np.abs(np.asarray(logits) - want)))
    if err > LOGIT_TOL * max(float(np.abs(want).max()), 1.0):
        return [f"{where}: logits differ from the reference forward by {err:.3e}"]
    return []


def check_relevance(net, params, inputs, where) -> list[str]:
    """Batched relevance and layer weights against the loop oracle, with the
    same explicit stabilizer, auditing each sample's predicted class."""
    cfg = lrp.LrpConfig(epsilon=ORACLE_EPSILON)
    rel, targets = lrp.lrp_propagate_batch(net, params, inputs, None, cfg)
    weights = lrp.reduce_to_layer_vector_batch(rel, net)
    fails = []
    for i, x in enumerate(inputs):
        oracle = oracle_propagate(net, params, x, int(targets[i]), cfg.rules, ORACLE_EPSILON)
        scale = max(abs(float(oracle[-1][targets[i]])), 1.0)
        err = max(float(np.max(np.abs(rel[b][i] - oracle[b]))) for b in range(len(oracle)))
        mass = np.array([np.abs(oracle[li]).sum() for li in net.param_layer_indices])
        werr = float(np.max(np.abs(weights[i] - mass / mass.sum())))
        if err > ORACLE_TOL * scale or werr > ORACLE_TOL:
            fails.append(f"{where}: sample {i} relevance off the oracle by {err:.3e}, weights by {werr:.3e}")
    return fails


def check_gradient(net, params, x, y, rng, where, grads=None, coords=6) -> list[str]:
    """A few loss_and_grad coordinates against central differences of the
    reference loss, within criterion 3's relative error. A step that crosses
    a ReLU or max-pool kink gives a wrong difference quotient, so a
    coordinate passes when the quotient at either of two steps agrees."""
    if grads is None:
        _, grads = nn.loss_and_grad(net, params, (x, y))
    fails = []
    for _ in range(coords):
        li = int(rng.integers(len(params)))
        which = int(rng.integers(2))
        idx = tuple(int(rng.integers(d)) for d in params.layers[li][which].shape)
        analytic = float(grads.layers[li][which][idx])

        def rel_error(h):
            losses = []
            for delta in (h, -h):
                pairs = [[w.copy(), b.copy()] for w, b in params.layers]
                pairs[li][which][idx] += delta
                losses.append(reference_loss(net, nn.make_params(pairs), x, y))
            numeric = (losses[0] - losses[1]) / (2 * h)
            return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)

        errors = [rel_error(h) for h in FD_STEPS]
        if min(errors) > GRAD_TOL:
            fails.append(f"{where}: gradient of layer {li} {'wb'[which]}{idx} off by {min(errors):.2e}")
    return fails


def check_run_dir(run_dir, cfg, net, test_inputs, test_labels, rng) -> list[str]:
    """Everything a finished run directory promises, checked from its files."""
    run = Path(run_dir)
    where = run.name
    distances, fails = read_distance_log(run / "distances.bin", cfg.rounds, cfg.nodes, net.num_param_layers)
    blob = json.loads((run / "audit.json").read_text())
    fails += check_audit(distances, blob, cfg.alpha, f"{where}/audit.json")
    params = nn.load_params(run / "model.bin")
    sample = blob["sample_id"]
    fails += check_targets(net, params, test_inputs[[sample]], [blob["target_class"]], f"{where}/audit.json")
    extra = int(rng.integers(len(test_inputs)))
    fails += check_relevance(net, params, test_inputs[[sample, extra]], where)
    reaudit = harness.audit_run_dir(run, sample)
    for key in ("per_node_mean", "global_mean", "flagged", "target_class", "layer_weights"):
        if reaudit[key] != blob[key]:
            fails.append(f"{where}: re-audit of sample {sample} changes {key}")
    picks = rng.choice(len(test_inputs), size=8, replace=False)
    fails += check_gradient(net, params, test_inputs[picks], test_labels[picks], rng, where)
    return fails


def log_bytes_per_node_epoch(run_dir, cfg) -> float:
    return (Path(run_dir) / "distances.bin").stat().st_size / (cfg.rounds * cfg.nodes)
