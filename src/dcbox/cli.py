"""Command-line interface.

Subcommands: verify, sweep, payments, adversary, opt. Exit codes: 0 on
success, 1 when a verification finds violations (or payments are refused
for a non-monotone rule), 2 on usage or config errors.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction

from .errors import DcboxError, NonMonotoneRuleError, ParameterError
from .harness import (
    ExperimentConfig,
    cmd_adversary,
    cmd_opt,
    cmd_payments,
    cmd_regime_sweep,
    cmd_verify,
    load_config,
    parse_param,
)
from .model import ValueLadder


def _common_flags(parser: argparse.ArgumentParser, *, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="config document path")
    parser.add_argument("--output", help="write the result document here")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workers", type=int, help="parallel workers for sweep cells")
    parser.add_argument("--enum-bound", type=int, help="override the enumeration bound")


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "output", None):
        config.output = args.output
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "workers", None) is not None:
        config.workers = args.workers
    if getattr(args, "enum_bound", None) is not None:
        config.enum_bound = args.enum_bound
    if getattr(args, "input", None):
        config.input_text = args.input
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcbox",
        description=(
            "Build, transform, and exhaustively verify allocation algorithms "
            "in downward-closed single-parameter environments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify a transformed algorithm")
    _common_flags(verify)

    sweep = sub.add_parser("sweep", help="run the regime sweep over (n, ratio) cells")
    _common_flags(sweep)

    payments = sub.add_parser("payments", help="allocation and payments at one input")
    _common_flags(payments)
    payments.add_argument("--input", help="input as level digits (or l/m/h)")

    adversary = sub.add_parser("adversary", help="generate an adversary document")
    adversary.add_argument("--config", help="config document path")
    adversary.add_argument("--generator", help="generator name")
    adversary.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="generator parameter, repeatable",
    )
    adversary.add_argument("--seed", type=int, help="generator seed")
    adversary.add_argument("--ladder", help="ladder values, space separated")
    adversary.add_argument("--output", help="write the document here")

    opt = sub.add_parser("opt", help="optimal welfare at one input")
    opt.add_argument("--config", help="config document path")
    opt.add_argument("--environment", help="environment document path")
    opt.add_argument("--input", required=True, help="input as level digits (or l/m/h)")

    return parser


def _adversary_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = ExperimentConfig()
    if args.generator:
        config.generator = args.generator
    params = list(config.params)
    for item in args.param:
        if "=" not in item:
            raise ParameterError(f"--param takes KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        params.append((key, value))
    config.params = tuple(params)
    if args.seed is not None:
        config.seed = args.seed
    if args.ladder:
        config.ladder = ValueLadder(
            tuple(parse_param("--ladder", token, Fraction) for token in args.ladder.split())
        )
    if args.output:
        config.output = args.output
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            config = _apply_overrides(load_config(args.config), args)
            record = cmd_verify(config)
            sys.stdout.write(record.to_document())
            return 0 if record.total_violations == 0 else 1
        if args.command == "sweep":
            config = _apply_overrides(load_config(args.config), args)
            records, document = cmd_regime_sweep(config)
            sys.stdout.write(document)
            return 0 if all(r.total_violations == 0 for r in records) else 1
        if args.command == "payments":
            config = _apply_overrides(load_config(args.config), args)
            try:
                document = cmd_payments(config)
            except NonMonotoneRuleError as exc:
                sys.stderr.write(f"refused: {exc}\n")
                for violation in exc.report.violations[:20]:
                    sys.stderr.write(
                        f"violation input {violation.input.levels} agent {violation.agent} "
                        f"raise {violation.level_low} {violation.level_high}\n"
                    )
                return 1
            sys.stdout.write(document)
            return 0
        if args.command == "adversary":
            config = _adversary_config(args)
            sys.stdout.write(cmd_adversary(config))
            return 0
        # opt
        if args.config:
            config = load_config(args.config)
        else:
            config = ExperimentConfig()
        if args.environment:
            config.environment_path = args.environment
        config.input_text = args.input
        # Degenerate environments warn rather than fail; report each warning
        # as a diagnostic line, not as a Python warning naming source lines.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = cmd_opt(config)
        for warning in caught:
            sys.stderr.write(f"warning: {warning.message}\n")
        sys.stdout.write(f"{value}\n")
        return 0
    except (DcboxError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
