"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them
live). The end-to-end detection criteria share one set of experiment runs.
"""

import struct
import time

import numpy as np
import pytest

from fedliab.audit import (
    AuditConfig,
    DistanceRecorder,
    DistanceTensor,
    compute_radist,
    detect,
)
from fedliab.data import (
    BadMagicError,
    IMAGES_MAGIC,
    LABELS_MAGIC,
    TruncatedFileError,
    load_idx,
)
from fedliab.flsim import TrainConfig, run_training
from fedliab.harness import (
    ExperimentConfig,
    measure_overhead,
    rerun_from_manifest,
    run_and_export,
    run_scenario,
)
from fedliab.lrp import LrpConfig, conservation_report, lrp_propagate_batch
from fedliab.nn import forward_batch, loss_and_grad
from lrp_oracle import oracle_propagate
from netgen import random_mixed_net
from test_audit import radist_oracle
from test_flsim import tiny_setup
from test_nn import fd_gradients, max_relative_error

MASTER_SEEDS = tuple(range(1, 11))

ZPLUS = LrpConfig(epsilon=0.0, rules={"dense": "zplus", "conv2d": "zplus"})


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def ci_profile(seed, scenario):
    # the desk-scale analogue profile: 10 nodes, 10 classes, 500 samples/node,
    # 10x bias, one label-flipping node, 20 rounds, alpha=2
    return ExperimentConfig(seed=seed, scenario=scenario)


@pytest.fixture(scope="module")
def detection_runs():
    """One clean run and one audited faulty run per master seed."""
    runs = []
    start = time.perf_counter()
    for seed in MASTER_SEEDS:
        clean = run_scenario(ci_profile(seed, "all_correct")).phases["all_correct"]
        scenario = run_scenario(ci_profile(seed, "audited_retrain"))
        runs.append(
            dict(
                seed=seed,
                clean=clean,
                faulty=scenario.phases["with_misbehaving"],
                retrained=scenario.phases["audited_retrain"],
            )
        )
    print(f"\n[detection runs] {len(runs)} seeds in {time.perf_counter() - start:.0f}s")
    return runs


def test_criterion_01_lrp_conservation():
    """Exact per-boundary conservation with zero stabilizer and positive-part rules."""
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 50:
        net, params, x = random_mixed_net(seed, bias_scale=0.0)
        seed += 1
        logits = forward_batch(net, params, x[None])[-1][0]
        target = int(np.argmax(logits))
        if logits[target] <= 0:
            continue  # no relevance to explain; the start mass would be <= 0
        rel, _ = lrp_propagate_batch(net, params, x[None], [target], ZPLUS)
        worst = max(worst, float(conservation_report([r[0] for r in rel], logits[target]).max()))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60
    assert report(1, ok, f"50 nets, worst relative leakage {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_lrp_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        net, params, x = random_mixed_net(seed)
        for cfg in (LrpConfig(epsilon=1e-6), ZPLUS):
            target = seed % net.class_count
            rel, _ = lrp_propagate_batch(net, params, x[None], [target], cfg)
            oracle = oracle_propagate(net, params, x, target, cfg.rules, cfg.epsilon)
            for got, want in zip(rel, oracle):
                worst = max(worst, float(np.max(np.abs(got[0] - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60
    assert report(2, ok, f"20 nets x 2 rule sets, worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 20:
        net, params, x = random_mixed_net(seed)
        seed += 1
        if sum(w.size + b.size for w, b in params) > 900:
            continue
        rng = np.random.default_rng(seed + 500)
        xs = rng.uniform(0.05, 1, size=(3,) + net.input_shape)
        ys = rng.integers(0, net.class_count, size=3)
        _, analytic = loss_and_grad(net, params, (xs, ys))
        numeric = fd_gradients(net, params, (xs, ys))
        worst = max(worst, max_relative_error(analytic, numeric))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60
    assert report(3, ok, f"20 nets, worst relative gradient error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_radist_detector_suite():
    rng = np.random.default_rng(7)
    failures = []

    # sandwich bound
    values = rng.uniform(0, 2, size=(6, 5, 4))
    r = rng.dirichlet(np.ones(4))
    m = compute_radist(DistanceTensor(values), r)
    if not (np.all(m >= values.min(axis=2) - 1e-12) and np.all(m <= values.max(axis=2) + 1e-12)):
        failures.append("sandwich bound")

    # flag-set invariance under positive scaling
    scores = rng.uniform(0, 1, size=(8, 6))
    base = detect(scores, AuditConfig(alpha=1.5)).flagged
    if any(detect(c * scores, AuditConfig(alpha=1.5)).flagged != base for c in (0.01, 3.7, 250.0)):
        failures.append("scaling invariance")

    # triple-loop oracle
    worst = 0.0
    for _ in range(10):
        values = rng.uniform(0, 2, size=(5, 6, 4))
        r = rng.dirichlet(np.ones(4))
        diff = np.abs(compute_radist(DistanceTensor(values), r) - radist_oracle(values, r))
        worst = max(worst, float(diff.max()))
    if worst > 1e-12:
        failures.append(f"oracle diff {worst:.2e}")

    # the alpha=2 arithmetic example: one node at 0.9, nine at 0.1
    m = np.tile(np.array([[0.9] + [0.1] * 9]), (5, 1))
    rep = detect(m, AuditConfig(alpha=2.0))
    if rep.flagged != (0,) or abs(rep.global_mean - 0.18) > 1e-12:
        failures.append("alpha=2 example")

    ok = not failures
    assert report(4, ok, "sandwich, scaling, oracle <=1e-12, alpha=2 example"
                  if ok else f"failed: {failures}")


def test_criterion_05_zero_message_overhead():
    net, params, nodes = tiny_setup(n_nodes=3)
    cfg = TrainConfig(rounds=4, lr=0.05, batch_size=4, master_seed=11)
    plain = run_training(net, params, nodes, cfg)
    recorder = DistanceRecorder(rounds=4, nodes=3, layers=len(params))
    audited = run_training(net, params, nodes, cfg, observers=[recorder])
    expected = 2 * 3 * 4
    ok = plain.message_count == audited.message_count == expected
    assert report(
        5, ok, f"messages plain={plain.message_count} audited={audited.message_count} expected={expected}"
    )


@pytest.mark.slow
def test_criterion_06_detection_end_to_end(detection_runs):
    radist_first = 0
    unique_flag = 0
    cosine_first = 0
    radist_epochs = 0
    cosine_epochs = 0
    total_epochs = 0
    for run in detection_runs:
        faulty = run["faulty"]
        per_node = faulty.audit.per_node_mean
        if int(np.argmax(per_node)) == 0:
            radist_first += 1
        if faulty.audit.flagged == (0,):
            unique_flag += 1
        if int(np.argmax(faulty.scores["cosine"].mean(axis=0))) == 0:
            cosine_first += 1
        radist_epochs += int(np.sum(np.argmax(faulty.scores["radist"], axis=1) == 0))
        cosine_epochs += int(np.sum(np.argmax(faulty.scores["cosine"], axis=1) == 0))
        total_epochs += faulty.scores["radist"].shape[0]
    print(
        f"[criterion 6] supplementary: attacker top per epoch in {radist_epochs}/{total_epochs} "
        f"epochs by RAdist vs {cosine_epochs}/{total_epochs} by cosine (reported, not asserted)"
    )
    for run in detection_runs:
        clean = run["clean"].audit
        print(
            f"[criterion 6] supplementary: clean seed {run['seed']} flags {list(clean.flagged)} at "
            f"max/mean {clean.per_node_mean.max() / clean.global_mean:.2f} "
            f"(alpha {clean.alpha}; reported, not asserted)"
        )

    clause_a = radist_first >= 9
    clause_b = unique_flag >= 8
    clause_c = cosine_first < radist_first
    report(6, clause_a, f"clause a: misbehaving node top by mean RAdist in {radist_first}/10 seeds (need >=9)")
    report(6, clause_b, f"clause b: unique flagged node in {unique_flag}/10 seeds (need >=8)")
    report(
        6,
        clause_c,
        f"clause c: cosine baseline top in {cosine_first}/10 vs RAdist {radist_first}/10 (need strictly fewer)",
    )
    if not clause_c and clause_a and clause_b:
        pytest.fail(
            "criterion 6 clause c: the per-node mean of every convex layer weighting "
            "(uniform cosine included) ranks the attacker first whenever RAdist does; "
            f"measured tie {cosine_first}={radist_first}. See the decisions ledger "
            "(docs/decisions.md, entry 3): in any regime satisfying clauses a/b and "
            "criterion 7, the attacker leads every layer's mean distance, so the strict "
            "inequality cannot hold."
        )
    assert clause_a and clause_b and clause_c


@pytest.mark.slow
def test_criterion_07_accuracy_restoration(detection_runs):
    src = ExperimentConfig().attack_source
    clean_attacked = np.mean([r["clean"].eval_result.per_class[src] for r in detection_runs])
    bad_attacked = np.mean([r["faulty"].eval_result.per_class[src] for r in detection_runs])
    ret_attacked = np.mean([r["retrained"].eval_result.per_class[src] for r in detection_runs])
    overall = {
        phase: float(np.mean([r[phase].eval_result.overall for r in detection_runs]))
        for phase in ("clean", "faulty", "retrained")
    }
    drop = clean_attacked - bad_attacked
    restore = abs(ret_attacked - clean_attacked)
    overall_spread = max(overall.values()) - min(overall.values())

    clause_a = drop >= 0.10
    clause_b = restore <= 0.05
    clause_c = overall_spread <= 0.03
    ok = clause_a and clause_b and clause_c
    assert report(
        7,
        ok,
        f"attacked-class drop {drop * 100:.1f}pts (need >=10), restoration gap "
        f"{restore * 100:.1f}pts (need <=5), overall spread {overall_spread * 100:.1f}pts (need <=3)",
    )


def test_criterion_08_overhead():
    cfg = ExperimentConfig(
        classes=6,
        train_per_class=120,
        test_per_class=40,
        image_size=28,
        nodes=4,
        per_node_size=150,
        bias_factor=5.0,
        rounds=3,
        attack_source=2,
        attack_target=5,
        seed=2,
    )
    start = time.perf_counter()
    rep = measure_overhead(cfg, inference_calls=1000, train_repeats=3)
    elapsed = time.perf_counter() - start

    clause_a = rep.inference_overhead_ratio <= 2.0
    clause_b = abs(rep.train_overhead_ratio - 1.0) <= 0.05
    clause_bytes = rep.relevance_bytes_per_sample == 28 * 28 * 8
    report(
        8,
        clause_a,
        f"clause a: inference with relevance {rep.inference_seconds_with_relevance * 1e6:.0f}us "
        f"vs plain {rep.inference_seconds_plain * 1e6:.0f}us per sample, ratio "
        f"{rep.inference_overhead_ratio:.2f} (need <=2.0)",
    )
    report(
        8,
        clause_b,
        f"clause b: training wall time ratio with audit observer {rep.train_overhead_ratio:.4f} "
        f"(need within 5%), {elapsed:.0f}s",
    )
    assert clause_bytes, "relevance bytes per 28x28 sample must be 6272"
    if not clause_a and clause_b:
        pytest.fail(
            "criterion 8 clause a: relevance propagation costs one stabilized forward "
            "re-evaluation plus a transposed redistribution per layer (~2 forward-"
            "equivalents beyond inference), so with desk-scale numpy kernels the "
            f"measured amortized ratio is {rep.inference_overhead_ratio:.2f}; the 2.0 "
            "bound presumes the compiled-framework regime of the hardware-specific "
            "reference numbers. See the decisions ledger (docs/decisions.md, entry 2)."
        )
    assert clause_a and clause_b


def test_criterion_09_reproducibility(tmp_path):
    start = time.perf_counter()
    first = tmp_path / "first"
    rerun = tmp_path / "rerun"
    run_and_export(ci_profile(3, "with_misbehaving"), first)
    rerun_from_manifest(first / "manifest.json", rerun)
    stable = ("accuracy.csv", "scores.csv", "audit.json", "manifest.json")
    mismatched = [
        name for name in stable if (first / name).read_bytes() != (rerun / name).read_bytes()
    ]

    # the multi-phase scenario, at reduced scale
    small = ExperimentConfig(
        classes=6, train_per_class=80, test_per_class=25, image_size=12, nodes=4,
        per_node_size=60, bias_factor=5.0, rounds=3, batch_size=20,
        attack_source=2, attack_target=5, seed=4, scenario="audited_retrain",
    )
    first2 = tmp_path / "first2"
    rerun2 = tmp_path / "rerun2"
    run_and_export(small, first2)
    rerun_from_manifest(first2 / "manifest.json", rerun2)
    mismatched += [
        "retrain:" + name
        for name in stable
        if (first2 / name).read_bytes() != (rerun2 / name).read_bytes()
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 900
    assert report(
        9, ok, f"byte-identical non-timing artifacts across reruns, {elapsed:.0f}s"
        if ok else f"mismatched: {mismatched}"
    )


def test_criterion_10_idx_parser(tmp_path):
    pixels = np.array([[[0, 128], [255, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)

    valid_images = tmp_path / "ok-images"
    valid_labels = tmp_path / "ok-labels"
    valid_images.write_bytes(struct.pack(">4I", IMAGES_MAGIC, 2, 2, 2) + pixels.tobytes())
    valid_labels.write_bytes(struct.pack(">2I", LABELS_MAGIC, 2) + bytes([1, 0]))
    ds = load_idx(valid_images, valid_labels)
    exact = (
        len(ds) == 2
        and np.array_equal(ds.images, pixels / 255.0)
        and np.array_equal(ds.labels, [1, 0])
        and ds.images[0, 1, 0] == 1.0
    )

    bad_magic = tmp_path / "bad-magic"
    bad_magic.write_bytes(struct.pack(">4I", 0x00000801, 2, 2, 2) + pixels.tobytes())
    try:
        load_idx(bad_magic, valid_labels)
        magic_ok = False
    except BadMagicError:
        magic_ok = True

    truncated = tmp_path / "truncated"
    truncated.write_bytes((struct.pack(">4I", IMAGES_MAGIC, 2, 2, 2) + pixels.tobytes())[:-3])
    try:
        load_idx(truncated, valid_labels)
        trunc_ok = False
    except TruncatedFileError:
        trunc_ok = True

    ok = exact and magic_ok and trunc_ok
    assert report(
        10, ok,
        f"valid pair bit-exact={exact}, bad magic rejected={magic_ok}, truncation rejected={trunc_ok}",
    )
