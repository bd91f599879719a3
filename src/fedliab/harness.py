"""Experiment orchestration: scenarios, metrics export, overhead accounting.

Three scenarios mirror the evaluation protocol: every node honest; one node
relabeling an entire class; and a third run that audits the faulty training,
removes the flagged nodes, and retrains from scratch with the survivors.
All outputs are deterministic functions of the resolved configuration except
wall-clock timings, and every run emits a manifest that reproduces it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import audit as auditmod
from .audit import (
    AuditConfig,
    DistanceRecorder,
    DistanceTensor,
    ReputationTracker,
    baseline_cosine_score,
    compute_radist,
    detect,
    save_distance_tensor,
    write_scores_csv,
)
from .data import (
    CorruptionSpec,
    Dataset,
    PartitionPlan,
    corrupt,
    draw_preferred_classes,
    load_idx,
    partition_demand,
    partition_non_iid,
    synth_class_images,
    synth_generate,
)
from .flsim import (
    EVAL_BATCH,
    EvalResult,
    TrainConfig,
    accuracy,
    model_inputs,
    predict_logits,
    run_training,
)
from .lrp import (
    LrpConfig,
    layer_masses_batch,
    layer_weights,
    lrp_propagate,
    lrp_propagate_batch,
    reduce_to_layer_vector_batch,
    relevance_to_json,
    relevance_to_pgm,
)
from .nn import (
    LayeredParams,
    Network,
    ShapeError,
    _check_params,
    build_network,
    forward_batch,
    load_params,
    params_to_bytes,
    reference_network,
    save_params,
)
from .seeding import derive_seed

SCENARIOS = ("all_correct", "with_misbehaving", "audited_retrain")
INFERENCE_BATCH = 50  # samples per timed batch in measure_overhead


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; the defaults are the desk-scale profile
    (synthetic 10-class corpus, 10 nodes x 500 samples, 20 rounds)."""

    dataset: str = "synthetic"
    classes: int = 10
    train_per_class: int = 520
    test_per_class: int = 200
    image_size: int = 20
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    nodes: int = 10
    per_node_size: int = 500
    bias_factor: float = 10.0
    rounds: int = 20
    local_passes: int = 1
    batch_size: int = 50
    lr: float = 0.05
    seed: int = 1
    attacker: int = 0
    attack_source: int = 3
    attack_target: int = 9
    alpha: float = 2.0
    lrp_epsilon: float | None = None
    scenario: str = "with_misbehaving"
    out: str = ""

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.dataset not in ("synthetic", "idx"):
            raise ConfigError(f"dataset must be 'synthetic' or 'idx', got {self.dataset!r}")
        if self.nodes < 2:
            raise ConfigError(f"nodes must be at least 2, to compare each node with the others; got {self.nodes}")
        if not -(2**63) <= self.seed < 2**63:  # seeding reduces seeds modulo 2**64
            raise ConfigError(f"seed {self.seed} outside [-2**63, 2**63), where each seed has its own streams")
        if not 0 <= self.attacker < self.nodes:
            raise ConfigError(f"attacker id {self.attacker} outside 0..{self.nodes - 1}")
        for name in ("attack_source", "attack_target"):
            v = getattr(self, name)
            if not 0 <= v < self.classes:
                raise ConfigError(f"{name}={v} outside 0..{self.classes - 1}")
        if self.attack_source == self.attack_target:
            raise ConfigError("attack_source and attack_target must differ")
        if self.dataset == "idx":
            missing = [
                k
                for k in ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")
                if not getattr(self, k)
            ]
            if missing:
                raise ConfigError(f"dataset=idx needs paths for {', '.join(missing)}")
        try:
            train_config(self)
            AuditConfig(self.alpha)
            demand = partition_demand(self.per_node_size, self.classes, self.bias_factor, preferred_classes(self))
            Network(reference_network(self.classes, self.image_size), (1, self.image_size, self.image_size))
        except ShapeError as exc:
            raise ConfigError(f"image_size {self.image_size}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.dataset == "synthetic" and self.test_per_class < 1:
            raise ConfigError(f"test_per_class must be >= 1, got {self.test_per_class}")
        if self.dataset == "synthetic" and demand.max() > self.train_per_class:
            cls = int(demand.argmax())
            raise ConfigError(
                f"train_per_class {self.train_per_class}: the node partition needs {demand[cls]} "
                f"samples of class {cls}"
            )
        try:
            LrpConfig(epsilon=self.lrp_epsilon)
        except ValueError as exc:
            raise ConfigError(f"lrp_epsilon: {exc}") from None


def train_config(cfg: ExperimentConfig) -> TrainConfig:
    """The federated-training settings of an experiment."""
    return TrainConfig(
        rounds=cfg.rounds,
        local_passes=cfg.local_passes,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        master_seed=cfg.seed,
    )


def _parse_epsilon(raw) -> float | None:
    """'auto' (or None) is the adaptive stabilizer; ExperimentConfig checks values."""
    if raw is None or str(raw).strip().lower() == "auto":
        return None
    return float(raw)


# one parser per ExperimentConfig field, chosen by its annotation
_PARSERS = {"str": str, "int": int, "float": float, "float | None": _parse_epsilon}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    kwargs = {}
    for key, raw in mapping.items():
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if isinstance(raw, bool):
                raise TypeError("no setting is a boolean")
            if parser is int and isinstance(raw, float):
                raise TypeError("expected an integer")
            if parser is str and not isinstance(raw, str):
                raise TypeError("expected a string")
            kwargs[key] = parser(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Flat `key = value` lines; '#' starts a comment; unknown or repeated keys are errors."""
    mapping, key_lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in key_lines:
            raise ConfigError(f"config key {key!r} repeated on lines {key_lines[key]} and {lineno}")
        key_lines[key] = lineno
        mapping[key] = value.strip()
    return config_from_mapping(mapping)


def _unique_json_keys(pairs) -> dict:
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ConfigError(f"config key {key!r} repeated")
        mapping[key] = value
    return mapping


def load_config(path) -> ExperimentConfig:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no config file {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if str(path).endswith(".json"):
        mapping = json.loads(raw, object_pairs_hook=_unique_json_keys)
        if not isinstance(mapping, dict):
            raise ConfigError(f"config file {path}: expected a JSON object, got {type(mapping).__name__}")
        return config_from_mapping(mapping)
    return parse_config_text(raw)


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    """Resolved config as a JSON/manifest mapping; `out` is run-local and
    excluded so manifests reproduce byte-identically."""
    out = {}
    for key in _KEY_PARSERS:
        if key == "out":
            continue
        value = getattr(cfg, key)
        if key == "lrp_epsilon":
            value = "auto" if value is None else value
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------


def _load_idx_pair(cfg: ExperimentConfig, images_path, labels_path) -> Dataset:
    """An IDX pair whose images must be image_size x image_size."""
    ds = load_idx(images_path, labels_path, class_count=cfg.classes)
    rows, cols = ds.images.shape[1:]
    if (rows, cols) != (cfg.image_size, cfg.image_size):
        raise ConfigError(f"{images_path}: images are {rows}x{cols}, but image_size = {cfg.image_size}")
    return ds


def load_experiment_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """(train pool, test set) per the config's dataset source."""
    if cfg.dataset == "synthetic":
        train = synth_generate(
            cfg.classes, cfg.train_per_class, derive_seed(cfg.seed, "synth-train"), cfg.image_size
        )
        test = synth_generate(
            cfg.classes, cfg.test_per_class, derive_seed(cfg.seed, "synth-test"), cfg.image_size
        )
        return train, test
    train = _load_idx_pair(cfg, cfg.idx_train_images, cfg.idx_train_labels)
    test = _load_idx_pair(cfg, cfg.idx_test_images, cfg.idx_test_labels)
    return train, test


def load_test_sample(cfg: ExperimentConfig, sample_id: int) -> tuple[np.ndarray, int]:
    """(image, label) of one test sample, reading only what it needs: for the
    synthetic corpus, the sample's own class; for IDX data, the test pair."""
    if cfg.dataset == "synthetic":
        size = cfg.classes * cfg.test_per_class
        if not 0 <= sample_id < size:
            raise RuntimeError(f"sample id {sample_id} outside test set of {size}")
        cls, row = divmod(sample_id, cfg.test_per_class)
        images = synth_class_images(
            cls, cfg.classes, cfg.test_per_class, derive_seed(cfg.seed, "synth-test"), cfg.image_size
        )
        return images[row], cls
    test = _load_idx_pair(cfg, cfg.idx_test_images, cfg.idx_test_labels)
    if not 0 <= sample_id < len(test):
        raise RuntimeError(f"sample id {sample_id} outside test set of {len(test)}")
    return test.images[sample_id], int(test.labels[sample_id])


def preferred_classes(cfg: ExperimentConfig) -> tuple[int, ...]:
    """Per-node preferred classes, with the attacker's preferred class swapped
    to the corrupted class (a no-op swap when it already prefers it)."""
    prefs = list(draw_preferred_classes(cfg.nodes, cfg.classes, derive_seed(cfg.seed, "partition")))
    try:
        j = prefs.index(cfg.attack_source)
        prefs[cfg.attacker], prefs[j] = prefs[j], prefs[cfg.attacker]
    except ValueError:
        prefs[cfg.attacker] = cfg.attack_source
    return tuple(prefs)


def node_datasets(cfg: ExperimentConfig, train_pool: Dataset, corrupted: bool) -> list[Dataset]:
    plan = PartitionPlan(
        node_count=cfg.nodes,
        per_node_size=cfg.per_node_size,
        bias_factor=cfg.bias_factor,
        preferred_class_per_node=preferred_classes(cfg),
        seed=derive_seed(cfg.seed, "partition"),
    )
    parts = partition_non_iid(train_pool, plan)
    if corrupted:
        spec = CorruptionSpec(cfg.attack_source, cfg.attack_target)
        parts[cfg.attacker] = corrupt(parts[cfg.attacker], spec)
    return parts


def build_model(cfg: ExperimentConfig) -> tuple[Network, LayeredParams]:
    specs = reference_network(cfg.classes, cfg.image_size)
    return build_network(specs, (1, cfg.image_size, cfg.image_size), seed=cfg.seed)


# ---------------------------------------------------------------------------
# one training phase
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """One explained decision: a test sample's audited class, the layer
    weights and RAdist matrix of its relevance, and that relevance."""

    sample_id: int
    target_class: int
    layer_weights: np.ndarray
    matrix: np.ndarray
    input_relevance: np.ndarray
    relevance_mass: float  # total absolute mass behind layer_weights


def decisions(net: Network, rel, targets, sample_ids, tensor: DistanceTensor) -> Iterator[Decision]:
    """The decisions of one relevance batch (`lrp_propagate_batch`'s return
    for the samples `sample_ids`), one at a time."""
    masses = layer_masses_batch(rel, net)
    for i, row in enumerate(layer_weights(masses)):
        matrix = compute_radist(tensor, row)
        yield Decision(int(sample_ids[i]), int(targets[i]), row, matrix, rel[0][i], float(masses[i].sum()))


def verdict(decision: Decision, alpha: float, where: str) -> tuple[auditmod.AuditReport, dict]:
    """Detect on one decision: the report, and the keys that audit.json and
    `fedliab audit` share. A decision with no relevance mass gets uniform
    layer weights, which would silently turn RAdist into the cosine
    baseline, so it stops the audit (docs/decisions.md, entry 5)."""
    if not decision.relevance_mass > 0:  # NaN fails too
        raise RuntimeError(
            f"{where}, sample {decision.sample_id}: the audited decision carries no relevance mass "
            f"(total {decision.relevance_mass!r}), so its layer weights would be the uniform fallback"
        )
    report = detect(decision.matrix, AuditConfig(alpha), sample_id=decision.sample_id)
    return report, {
        "alpha": report.alpha,
        "global_mean": report.global_mean,
        "per_node_mean": [float(v) for v in report.per_node_mean],
        "flagged": list(report.flagged),
        "sample_id": report.sample_id,
        "target_class": decision.target_class,
        "layer_weights": [float(v) for v in decision.layer_weights],
    }


@dataclass(frozen=True)
class PhaseResult:
    name: str
    node_ids: tuple[int, ...]
    eval_result: EvalResult
    tensor: DistanceTensor
    scores: dict
    audit: auditmod.AuditReport
    audit_keys: dict  # verdict's keys shared with `fedliab audit`
    decision: Decision
    selection_rule: str
    message_count: int
    train_seconds: float
    final_params: LayeredParams


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    config: ExperimentConfig
    phases: dict

    @property
    def audit_phase(self) -> PhaseResult:
        """The phase whose audit report the run emits."""
        return self.phases.get("with_misbehaving") or next(iter(self.phases.values()))


def select_audit_sample(
    net: Network,
    params: LayeredParams,
    test: Dataset,
    logits: np.ndarray,
    tensor: DistanceTensor,
    audited_class: int,
    lrp_cfg: LrpConfig,
) -> tuple[Decision, str]:
    """Pick the decision to investigate: the misclassified test sample of the
    audited class whose relevance-weighted distances single out a node most
    strongly; with no misclassification, the class's lowest-margin correct
    sample. The audited neuron is always the model's predicted class.
    Returns the decision and the rule that chose it.

    `logits` are the model's test-set logits (`predict_logits`). Relevance
    runs over the candidates EVAL_BATCH at a time; it is batch-invariant, so
    the chunks change no bit."""
    preds = np.argmax(logits, axis=1)
    members = np.flatnonzero(test.labels == audited_class)
    if members.size == 0:
        raise RuntimeError(f"test set has no samples of audited class {audited_class}")
    wrong = members[preds[members] != audited_class]
    if wrong.size:
        candidates, rule = wrong, "misclassified"
    else:
        others = np.delete(np.arange(test.class_count), audited_class)
        margins = logits[members, audited_class] - logits[members][:, others].max(axis=1)
        candidates, rule = members[[int(np.argmin(margins))]], "lowest_margin"

    inputs = model_inputs(net, test.images)
    best = None
    for start in range(0, len(candidates), EVAL_BATCH):
        chunk = candidates[start : start + EVAL_BATCH]
        rel, targets = lrp_propagate_batch(net, params, inputs[chunk], preds[chunk], lrp_cfg)
        for decision in decisions(net, rel, targets, chunk, tensor):
            suspicion = float(decision.matrix.mean(axis=0).max() / max(decision.matrix.mean(), 1e-18))
            if best is None or suspicion > best[0]:
                best = (suspicion, decision)
    return best[1], rule


def run_phase(
    cfg: ExperimentConfig,
    name: str,
    datasets: list[Dataset],
    node_ids: tuple[int, ...],
    test: Dataset,
    reputation: bool = True,
) -> PhaseResult:
    """Train one federation, then evaluate and audit it. The reputation
    baseline costs one evaluation per node per round, so a phase whose
    scores are not exported skips it (`reputation=False`)."""
    net, init_params = build_model(cfg)
    recorder = DistanceRecorder(cfg.rounds, len(datasets), len(init_params))
    observers = [recorder]
    if reputation:
        tracker = ReputationTracker(net, datasets, cfg.rounds)
        observers.append(tracker)
    start = time.perf_counter()
    result = run_training(net, init_params, datasets, train_config(cfg), observers=observers)
    elapsed = time.perf_counter() - start

    tensor = recorder.tensor()
    logits = predict_logits(net, result.final_params, test)
    eval_result = accuracy(test, logits)
    decision, rule = select_audit_sample(
        net, result.final_params, test, logits, tensor, cfg.attack_source, LrpConfig(epsilon=cfg.lrp_epsilon)
    )
    report, audit_keys = verdict(decision, cfg.alpha, f"phase {name}")
    scores = {"radist": decision.matrix, "cosine": baseline_cosine_score(tensor)}
    if reputation:
        scores["reputation"] = tracker.score()
    return PhaseResult(
        name=name,
        node_ids=node_ids,
        eval_result=eval_result,
        tensor=tensor,
        scores=scores,
        audit=report,
        audit_keys=audit_keys,
        decision=decision,
        selection_rule=rule,
        message_count=result.message_count,
        train_seconds=elapsed,
        final_params=result.final_params,
    )


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Train and audit per the configured scenario.

    audited_retrain runs the faulty federation first, flags nodes from its
    audit, then retrains from scratch with the survivors (re-indexed to
    contiguous ids; each keeps its original local dataset).
    """
    train_pool, test = load_experiment_data(cfg)
    phases = {}
    if cfg.scenario == "all_correct":
        datasets = node_datasets(cfg, train_pool, corrupted=False)
        phases["all_correct"] = run_phase(cfg, "all_correct", datasets, tuple(range(cfg.nodes)), test)
    else:
        datasets = node_datasets(cfg, train_pool, corrupted=True)
        faulty = run_phase(cfg, "with_misbehaving", datasets, tuple(range(cfg.nodes)), test)
        phases["with_misbehaving"] = faulty
        if cfg.scenario == "audited_retrain":
            survivors = tuple(i for i in range(cfg.nodes) if i not in faulty.audit.flagged)
            if len(survivors) < 1:
                raise RuntimeError("audit flagged every node; nothing left to retrain")
            surviving_data = [datasets[i] for i in survivors]
            phases["audited_retrain"] = run_phase(
                cfg, "audited_retrain", surviving_data, survivors, test, reputation=False
            )
    return ScenarioResult(cfg.scenario, cfg, phases)


# ---------------------------------------------------------------------------
# metrics export
# ---------------------------------------------------------------------------


def export_metrics(result: ScenarioResult, out_dir) -> None:
    """Write the run's artifacts.

    accuracy.csv, scores.csv, audit.json and manifest.json are byte-stable
    across reruns of the same manifest; overhead.json carries wall-clock
    timings and is excluded from that guarantee.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "accuracy.csv", "w", newline="\n") as fh:
        fh.write("scenario,class,accuracy\n")
        for phase in result.phases.values():
            fh.write(f"{phase.name},overall,{float(phase.eval_result.overall)!r}\n")
            for cls, acc in enumerate(phase.eval_result.per_class):
                fh.write(f"{phase.name},{cls},{float(acc)!r}\n")

    audit_phase = result.audit_phase
    write_scores_csv(
        {k: auditmod.normalize_scores(v) for k, v in audit_phase.scores.items()},
        out / "scores.csv",
    )

    report_blob = {**audit_phase.audit_keys, "selection_rule": audit_phase.selection_rule}
    with open(out / "audit.json", "w", newline="\n") as fh:
        json.dump(report_blob, fh, sort_keys=True, indent=2)
        fh.write("\n")

    overhead = {}
    for phase in result.phases.values():
        overhead[phase.name] = {
            "message_count": phase.message_count,
            "train_seconds": phase.train_seconds,
            "model_bytes": len(params_to_bytes(phase.final_params)),
            "similarity_bytes_per_epoch_per_node": auditmod.distance_bytes_per_epoch_node(phase.tensor.dims),
            "relevance_bytes_per_sample": 8 * result.config.image_size**2,
        }
    with open(out / "overhead.json", "w", newline="\n") as fh:
        json.dump(overhead, fh, sort_keys=True, indent=2)
        fh.write("\n")

    with open(out / "manifest.json", "w", newline="\n") as fh:
        json.dump(config_to_mapping(result.config), fh, sort_keys=True, indent=2)
        fh.write("\n")

    save_distance_tensor(audit_phase.tensor, out / "distances.bin")
    save_params(audit_phase.final_params, out / "model.bin")

    relevance = audit_phase.decision.input_relevance
    with open(out / "relevance.json", "w", newline="\n") as fh:
        json.dump(relevance_to_json(relevance), fh, sort_keys=True)
        fh.write("\n")
    relevance_to_pgm(relevance, out / "relevance.pgm")


def run_and_export(cfg: ExperimentConfig, out_dir) -> ScenarioResult:
    result = run_scenario(cfg)
    export_metrics(result, out_dir)
    return result


def rerun_from_manifest(manifest_path, out_dir) -> ScenarioResult:
    cfg = load_config(manifest_path)
    return run_and_export(cfg, out_dir)


# ---------------------------------------------------------------------------
# audit of an exported run
# ---------------------------------------------------------------------------


def audit_run_dir(run_dir, sample_id: int) -> dict:
    """Re-audit a finished run for one test sample: recompute its relevance
    against the stored model, contract the stored distance log, re-detect.
    model.bin and distances.bin must fit the manifest's network."""
    run = Path(run_dir)
    for name in ("manifest.json", "model.bin", "distances.bin"):
        if not (run / name).is_file():
            raise RuntimeError(f"{run / name}: run artifact missing")
    cfg = load_config(run / "manifest.json")
    net, _ = build_model(cfg)
    params = load_params(run / "model.bin")
    tensor = auditmod.load_distance_tensor(run / "distances.bin")
    logged = (cfg.rounds, cfg.nodes, net.num_param_layers)
    if tensor.dims != logged:
        raise ValueError(
            f"{run / 'distances.bin'}: (rounds, nodes, layers) is {tensor.dims}, manifest.json says {logged}"
        )
    try:
        _check_params(net, params)
    except ShapeError as exc:
        raise ValueError(f"{run / 'model.bin'} does not fit manifest.json's network: {exc}") from None
    image, label = load_test_sample(cfg, sample_id)
    sample = model_inputs(net, image[None])[0]
    rel, targets = lrp_propagate(net, params, sample, None, LrpConfig(epsilon=cfg.lrp_epsilon))
    (decision,) = decisions(net, rel, targets, [sample_id], tensor)
    _, blob = verdict(decision, cfg.alpha, f"run {run}")
    return {**blob, "true_class": label}


# ---------------------------------------------------------------------------
# overhead measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadReport:
    train_seconds_per_sample_plain: float
    train_seconds_per_sample_audited: float
    train_overhead_ratio: float
    inference_seconds_plain: float
    inference_seconds_with_relevance: float
    inference_overhead_ratio: float
    model_bytes: int
    similarity_bytes_per_epoch_per_node: float
    relevance_bytes_per_sample: int
    message_count: int


def _train_time_pair(net, init_params, datasets, train_cfg, audited_observers, repeats):
    """(plain result, median plain seconds, median audited seconds). The timed
    runs are interleaved after an untimed warmup run, so allocator and cache
    state cannot bias either side; training is deterministic, so the warmup's
    result stands for every plain run."""
    result = run_training(net, init_params, datasets, train_cfg)
    plain, audited = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        run_training(net, init_params, datasets, train_cfg)
        plain.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_training(net, init_params, datasets, train_cfg, observers=audited_observers())
        audited.append(time.perf_counter() - start)
    return result, float(np.median(plain)), float(np.median(audited))


def measure_overhead(
    cfg: ExperimentConfig,
    inference_calls: int = 1000,
    train_repeats: int = 3,
) -> OverheadReport:
    """Wall-clock and storage cost of auditing, on the configured workload.

    The audited training attaches only the distance recorder (the audit's
    own observer); the reputation baseline is a comparison scorer, not part
    of the audit, and is excluded. Timings are medians to resist scheduler
    noise; per-sample inference times are amortized over fixed-size batches,
    the way a serving pipeline would run them, with and without relevance
    computed for every sample.
    """
    train_pool, test = load_experiment_data(cfg)
    datasets = node_datasets(cfg, train_pool, corrupted=False)
    net, init_params = build_model(cfg)
    train_cfg = train_config(cfg)
    samples_per_run = cfg.rounds * cfg.local_passes * sum(len(d) for d in datasets)

    result, plain_seconds, audited_seconds = _train_time_pair(
        net,
        init_params,
        datasets,
        train_cfg,
        lambda: (DistanceRecorder(cfg.rounds, len(datasets), len(init_params)),),
        train_repeats,
    )
    params = result.final_params
    inputs = model_inputs(net, test.images)
    lrp_cfg = LrpConfig(epsilon=cfg.lrp_epsilon)

    def batched_median(work) -> float:
        per_sample = []
        for start in range(0, inference_calls, INFERENCE_BATCH):
            lo = start % len(inputs)
            chunk = inputs[lo : lo + INFERENCE_BATCH]
            t0 = time.perf_counter()
            work(chunk)
            per_sample.append((time.perf_counter() - t0) / len(chunk))
        return float(np.median(per_sample))

    def relevance_work(chunk):
        rel, _ = lrp_propagate_batch(net, params, chunk, None, lrp_cfg)
        reduce_to_layer_vector_batch(rel, net)

    plain_med = batched_median(lambda chunk: forward_batch(net, params, chunk))
    rel_med = batched_median(relevance_work)

    return OverheadReport(
        train_seconds_per_sample_plain=plain_seconds / samples_per_run,
        train_seconds_per_sample_audited=audited_seconds / samples_per_run,
        train_overhead_ratio=audited_seconds / plain_seconds,
        inference_seconds_plain=plain_med,
        inference_seconds_with_relevance=rel_med,
        inference_overhead_ratio=rel_med / plain_med,
        model_bytes=len(params_to_bytes(params)),
        similarity_bytes_per_epoch_per_node=auditmod.distance_bytes_per_epoch_node(
            (cfg.rounds, len(datasets), len(init_params))
        ),
        relevance_bytes_per_sample=8 * cfg.image_size**2,
        message_count=result.message_count,
    )
