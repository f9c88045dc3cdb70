"""Command-line front-end.

    fedsim run <spec.json> [--seed N] [--out DIR] [--rounds N] [--strategy S]
    fedsim resume <checkpoint.bin> [--out DIR]
    fedsim verify <suite|all> [--seed N]
    fedsim partition-report <spec.json> [--seed N]

Flags override the spec file. The FEDSIM_OUT environment variable overrides
the spec's output directory and is itself overridden by --out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiment, verify
from .strategies import STRATEGIES


def _out_override(flag_value: str | None) -> str | None:
    if flag_value is not None:
        return flag_value
    return os.environ.get("FEDSIM_OUT")


def _cmd_run(args) -> int:
    spec = experiment.parse_spec(
        args.spec,
        seed=args.seed,
        out=_out_override(args.out),
        rounds=args.rounds,
        strategy=args.strategy,
    )
    summary = experiment.run_experiment(spec)
    print(
        f"run complete: {summary['rounds_completed']} rounds, "
        f"final global acc {summary['final_global_acc']:.4f}, "
        f"artifacts in {spec.out}"
    )
    return 0


def _cmd_resume(args) -> int:
    summary = experiment.resume_experiment(
        args.checkpoint, out=_out_override(args.out)
    )
    print(
        f"resume complete: {summary['rounds_completed']} rounds, "
        f"final global acc {summary['final_global_acc']:.4f}"
    )
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        report = verify.run_all(seed=args.seed, mutation=args.mutate)
    else:
        report = verify.run_suite(args.suite, seed=args.seed, mutation=args.mutate)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def _cmd_partition_report(args) -> int:
    spec = experiment.parse_spec(args.spec, seed=args.seed)
    print(experiment.partition_report(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim", description="deterministic federated-learning simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment spec to completion")
    p.add_argument("spec", help="path to the experiment spec (JSON)")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--rounds", type=int, help="override the round budget")
    p.add_argument(
        "--strategy", choices=sorted(STRATEGIES),
        help="override the aggregation strategy",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("resume", help="continue a checkpointed run")
    p.add_argument("checkpoint", help="path to a checkpoint file")
    p.add_argument("--out", help="output directory (default: checkpoint's)")
    p.set_defaults(fn=_cmd_resume)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite", choices=(*verify.SUITES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutate", choices=verify.MUTATIONS, help=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "partition-report", help="print per-client label histograms"
    )
    p.add_argument("spec", help="path to the experiment spec (JSON)")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(fn=_cmd_partition_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
