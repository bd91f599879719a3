"""fedliab benchmark: one workload, one process, one caller, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run sets up its inputs three times (reporting the median as setup_s),
then repeats the workload's operation, one after another, until S seconds
have passed, then checks the outputs against computations made apart from
the program (checks.py). The last line of standard output is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json
(`end_to_end` with --trace 0, `per_layer` with --trace 1, the latter from
spans recorded by tracing.py). Run it from the repository root.
"""

import os

# one BLAS thread, fixed before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = ROOT / "configs"
WORK = BENCH / "work"
SETUPS = 3
BATCH = 50

if not (ROOT / "src" / "fedliab").is_dir():
    sys.exit(f"fedliab sources not found under {ROOT / 'src'}; run from a repository checkout")
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np

import checks
import tracing
from fedliab import flsim, harness, lrp, nn


class Workload:
    """setup() builds the inputs (timed, repeated); op(i) is one timed
    operation; check() returns failure messages; the rest are metrics."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng([seed, 1])
        self.results = []

    def test_inputs(self):
        _, test = harness.load_experiment_data(self.cfg)
        return flsim.model_inputs(self.net, test.images), test.labels


class DeskRetrain(Workload):
    """configs/ci.cfg, scenario audited_retrain, one run_and_export per operation."""

    def setup(self, k):
        self.cfg = replace(
            harness.load_config(CONFIGS / "ci.cfg"), seed=self.seed, scenario="audited_retrain"
        )
        train, test = harness.load_experiment_data(self.cfg)
        self.node_sizes = [len(d) for d in harness.node_datasets(self.cfg, train, corrupted=True)]
        self.net, _ = harness.build_model(self.cfg)
        self.inputs, self.labels = flsim.model_inputs(self.net, test.images), test.labels

    def op(self, i):
        out = self.work / f"op{i}"
        self.results.append((harness.run_and_export(self.cfg, out), out))
        self.run_dir = out

    def _train_samples_and_seconds(self, result, out):
        overhead = json.loads((out / "overhead.json").read_text())
        samples = seconds = 0
        for name, phase in result.phases.items():
            samples += self.cfg.rounds * self.cfg.local_passes * sum(self.node_sizes[n] for n in phase.node_ids)
            seconds += overhead[name]["train_seconds"]
        return samples, seconds

    def samples_per_s(self, op_times):
        pairs = [self._train_samples_and_seconds(r, out) for r, out in self.results]
        return sum(s for s, _ in pairs) / sum(t for _, t in pairs)

    def check(self):
        cfg = self.cfg
        fails = checks.check_run_dir(self.run_dir, cfg, self.net, self.inputs, self.labels, self.rng)
        for result, out in self.results:
            faulty = result.phases["with_misbehaving"]
            survivors = tuple(n for n in range(cfg.nodes) if n not in faulty.audit.flagged)
            if result.phases["audited_retrain"].node_ids != survivors:
                fails.append(f"{out.name}: retrained nodes are not all nodes minus {faulty.audit.flagged}")
            overhead = json.loads((out / "overhead.json").read_text())
            rows = [line.split(",") for line in (out / "accuracy.csv").read_text().splitlines()[1:]]
            for name, phase in result.phases.items():
                want = 2 * len(phase.node_ids) * cfg.rounds
                if overhead[name]["message_count"] != want or phase.message_count != want:
                    fails.append(f"{out.name}/{name}: message_count != 2*N*E = {want}")
                preds = np.argmax(checks.reference_logits(self.net, phase.final_params, self.inputs), axis=1)
                accs = {r[1]: float(r[2]) for r in rows if r[0] == name}
                for cls in range(cfg.classes):
                    members = self.labels == cls
                    if accs[str(cls)] != np.mean(preds[members] == cls):
                        fails.append(f"{out.name}/{name}: class {cls} accuracy differs from a reference evaluation")
        return fails

    def details(self, op_times):
        result, out = self.results[-1]
        acc = result.phases["audited_retrain"].eval_result.per_class[self.cfg.attack_source]
        return {"scenario_s": statistics.median(op_times), "retrain_attacked_acc": float(acc)}


class AuditQueries(Workload):
    """A stored desk-profile with_misbehaving run (rounds cut to 2),
    re-audited for a seeded sequence of test sample ids."""

    def setup(self, k):
        self.cfg = replace(
            harness.load_config(CONFIGS / "ci.cfg"), seed=self.seed, rounds=2, scenario="with_misbehaving"
        )
        self.run_dir = self.work / f"setup{k}"
        harness.run_and_export(self.cfg, self.run_dir)
        self.net, _ = harness.build_model(self.cfg)
        self.test_size = self.cfg.classes * self.cfg.test_per_class

    def op(self, i):
        sample = int(self.rng.integers(self.test_size))
        self.results.append((sample, harness.audit_run_dir(self.run_dir, sample)))

    def samples_per_s(self, op_times):
        return len(op_times) / sum(op_times)

    def check(self):
        cfg = self.cfg
        inputs, labels = self.test_inputs()
        fails = checks.check_run_dir(self.run_dir, cfg, self.net, inputs, labels, self.rng)
        distances, _ = checks.read_distance_log(
            self.run_dir / "distances.bin", cfg.rounds, cfg.nodes, self.net.num_param_layers
        )
        for sample, blob in self.results:
            fails += checks.check_audit(distances, blob, cfg.alpha, f"query {sample}")
            if blob["true_class"] != labels[sample] or blob["sample_id"] != sample:
                fails.append(f"query {sample}: wrong sample or true class")
        samples = [s for s, _ in self.results]
        targets = [b["target_class"] for _, b in self.results]
        params = nn.load_params(self.run_dir / "model.bin")
        fails += checks.check_targets(self.net, params, inputs[samples], targets, "queries")
        return fails

    def details(self, op_times):
        out = {"audit_ms_p50": 1e3 * statistics.median(op_times), "queries": len(op_times)}
        if len(op_times) >= 100:
            out["audit_ms_p90"] = 1e3 * float(np.percentile(op_times, 90))
        return out


class RelevanceBatch(Workload):
    """configs/overhead.cfg (28x28), model trained and exported in set-up.
    Each operation takes the next 50 test samples in a seeded order through
    inference, relevance with layer weights, and one training step, all from
    the stored model."""

    def setup(self, k):
        self.cfg = replace(harness.load_config(CONFIGS / "overhead.cfg"), seed=self.seed)
        self.run_dir = self.work / f"setup{k}"
        harness.run_and_export(self.cfg, self.run_dir)
        self.net, _ = harness.build_model(self.cfg)
        self.params = nn.load_params(self.run_dir / "model.bin")
        self.inputs, self.labels = self.test_inputs()
        self.lrp_cfg = lrp.LrpConfig(epsilon=self.cfg.lrp_epsilon)
        self.batches = []
        self.stage_times = []

    def batch(self, i):
        per_epoch = len(self.inputs) // BATCH
        while len(self.batches) <= i:
            order = self.rng.permutation(len(self.inputs))[: per_epoch * BATCH]
            self.batches.extend(order.reshape(per_epoch, BATCH))
        return self.batches[i]

    def op(self, i):
        idx = self.batch(i)
        x, y = self.inputs[idx], self.labels[idx]
        t0 = time.perf_counter()
        logits = nn.forward_batch(self.net, self.params, x)[-1]
        t1 = time.perf_counter()
        rel, targets = lrp.lrp_propagate_batch(self.net, self.params, x, None, self.lrp_cfg)
        weights = lrp.reduce_to_layer_vector_batch(rel, self.net)
        t2 = time.perf_counter()
        loss, grads = nn.loss_and_grad(self.net, self.params, (x, y))
        stepped = nn.sgd_step(self.params, grads, self.cfg.lr)
        t3 = time.perf_counter()
        self.stage_times.append((t1 - t0, t2 - t1, t3 - t2))
        keep = (logits, grads, stepped) if i == 0 else (logits, None, None)
        self.results.append((idx, targets, weights, loss) + keep)

    def samples_per_s(self, op_times):
        return BATCH * len(op_times) / sum(op_times)

    def check(self):
        net, params, lr = self.net, self.params, self.cfg.lr
        fails = checks.check_run_dir(self.run_dir, self.cfg, net, self.inputs, self.labels, self.rng)
        for idx, targets, weights, loss, *_ in self.results:
            if weights.min() < 0 or np.max(np.abs(weights.sum(axis=1) - 1)) > checks.AUDIT_TOL:
                fails.append(f"batch {idx[:3]}...: layer weights are not convex")
            if not np.isfinite(loss):
                fails.append(f"batch {idx[:3]}...: loss is not finite")
        for idx, targets, _, _, logits, _, _ in (self.results[0], self.results[-1]):
            fails += checks.check_logits(net, params, self.inputs[idx], logits, "forward_batch")
            fails += checks.check_targets(net, params, self.inputs[idx], targets, "relevance targets")
        idx, _, _, loss, _, grads, stepped = self.results[0]
        x, y = self.inputs[idx], self.labels[idx]
        fails += checks.check_relevance(net, params, x[:2], "lrp_propagate_batch")
        want = checks.reference_loss(net, params, x, y)
        if abs(loss - want) > 1e-12 * max(abs(want), 1.0):
            fails.append(f"loss_and_grad: loss {loss!r} != reference {want!r}")
        fails += checks.check_gradient(net, params, x, y, self.rng, "loss_and_grad", grads=grads)
        for (w, b), (gw, gb), (sw, sb) in zip(params.layers, grads.layers, stepped.layers):
            if not (np.array_equal(sw, w - lr * gw) and np.array_equal(sb, b - lr * gb)):
                fails.append("sgd_step: result != params - lr * grads")
        return fails

    def details(self, op_times):
        forward, relevance, train = (statistics.median(t) for t in zip(*self.stage_times))
        return {
            "batch_ms_p50": 1e3 * statistics.median(op_times),
            "batch_ms_p90": 1e3 * float(np.percentile(op_times, 90)),
            "batches": len(op_times),
            "inference_samples_per_s": BATCH / forward,
            "relevance_samples_per_s": BATCH / relevance,
            "train_step_samples_per_s": BATCH / train,
            "relevance_over_inference": relevance / forward,
        }


WORKLOADS = {
    "desk-retrain": DeskRetrain,
    "audit-queries": AuditQueries,
    "relevance-batch": RelevanceBatch,
}


def run(workload: Workload, seconds: float, tracer):
    span = tracer.span if tracer else (lambda name, op: nullcontext())
    setup_times = []
    for k in range(SETUPS):
        with span("bench.setup", f"setup{k}"):
            start = time.perf_counter()
            workload.setup(k)
            setup_times.append(time.perf_counter() - start)
    op_times, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not op_times or time.perf_counter() < deadline:
        i = len(op_times)
        with span("bench.op", f"op{i}"):
            start = time.perf_counter()
            try:
                workload.op(i)
            except Exception:  # a failing operation is counted, the run goes on
                traceback.print_exc()
                failed += 1
            op_times.append(time.perf_counter() - start)
    with span("bench.check", "check"):
        fails = workload.check()
    return setup_times, op_times, failed, fails


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = tracing.Tracer() if args.trace else None
    try:
        with tracing.installed(tracer) if tracer else nullcontext():
            setup_times, op_times, failed, fails = run(workload, args.seconds, tracer)
        if tracer:
            tracer.write(WORK / f"trace-{args.workload}.jsonl")
            loop_ops = [f"op{i}" for i in range(len(op_times))]
            names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.op_ms_p50"]
            values = tracing.layer_metrics(tracer.spans, loop_ops, names)
            values["trace.op_ms_p50"] = 1e3 * statistics.median(op_times)
            declared = spec["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "op_ms_p50": 1e3 * statistics.median(op_times),
                "samples_per_s": workload.samples_per_s(op_times),
                "log_bytes_per_node_epoch": checks.log_bytes_per_node_epoch(workload.run_dir, workload.cfg),
            }
            declared = spec["end_to_end"]
        details = workload.details(op_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in fails:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} " + json.dumps(details, sort_keys=True))
    result = {
        "correct": not fails,
        "attempted": len(op_times),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
