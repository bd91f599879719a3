"""Command-line entry points.

    fedliab run      --config FILE [--scenario S] [--alpha A] [--seed N] [--out DIR]
    fedliab audit    --run-dir DIR --sample-id K
    fedliab overhead --config FILE [--out DIR]

Exit codes: 0 success, 1 configuration error (a missing or invalid config
file or setting), 2 runtime error (including a missing data file or run
artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from .harness import (
    ConfigError,
    SCENARIOS,
    audit_run_dir,
    load_config,
    measure_overhead,
    run_and_export,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedliab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train a scenario and export its metrics")
    run.add_argument("--config", required=True, help="key=value config file or manifest.json")
    run.add_argument("--scenario", choices=SCENARIOS)
    run.add_argument("--alpha", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory (default: config's `out` or ./fedliab-out)")

    aud = sub.add_parser("audit", help="re-audit one test decision of a finished run")
    aud.add_argument("--run-dir", required=True)
    aud.add_argument("--sample-id", type=int, required=True)

    over = sub.add_parser("overhead", help="measure audit overhead on the configured workload")
    over.add_argument("--config", required=True)
    over.add_argument("--out", help="also write overhead report JSON here")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.scenario:
        overrides["scenario"] = args.scenario
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = replace(cfg, **overrides)
    out_dir = args.out or cfg.out or "fedliab-out"
    result = run_and_export(cfg, out_dir)
    phase = result.audit_phase
    print(f"scenario {result.scenario}: wrote metrics to {out_dir}")
    for name, p in result.phases.items():
        print(
            f"  {name}: overall accuracy {p.eval_result.overall:.4f}, "
            f"messages {p.message_count}"
        )
    print(f"  flagged nodes: {list(phase.audit.flagged)} (alpha={phase.audit.alpha})")
    return 0


def _cmd_audit(args) -> int:
    blob = audit_run_dir(args.run_dir, args.sample_id)
    print(json.dumps(blob, sort_keys=True, indent=2))
    return 0


def _cmd_overhead(args) -> int:
    cfg = load_config(args.config)
    report = asdict(measure_overhead(cfg))
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "overhead.json").write_text(text + "\n")
    print(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "audit":
            return _cmd_audit(args)
        return _cmd_overhead(args)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
