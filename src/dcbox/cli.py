"""Command-line interface.

Subcommands: verify, sweep, payments, adversary, opt. Exit codes: 0 on
success, 1 when a verification finds violations (or payments are refused
for a non-monotone rule), 2 on usage or config errors.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .adversaries import GENERATORS
from .errors import DcboxError, NonMonotoneRuleError, ParameterError
from .harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    cmd_adversary,
    cmd_opt,
    cmd_payments,
    cmd_regime_sweep,
    cmd_verify,
    load_config,
    violation_line,
)

# How a flag's text splits into its config key's arguments; other flags give one.
_SPLIT = {"ladder": str.split, "param": lambda item: item.split("=", 1)}


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="config document path")
    parser.add_argument("--output", help="write the result document here")
    parser.add_argument("--seed", help="override the config seed")
    parser.add_argument("--workers", help="parallel workers for sweep cells")
    parser.add_argument("--enum-bound", help="override the enumeration bound")


def _configure(args: argparse.Namespace) -> ExperimentConfig:
    """The config document, if any, with each flag named after a config key
    applied through that key's row: a flag and its config line share one
    parser and one domain check. A flag replaces its key's value; for a
    repeating key, the value of each name the flags give."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    for key, row in CONFIG_KEYS.items():
        given = getattr(args, key.replace("-", "_"), None)
        if given is None:
            continue
        flag = f"--{key}"
        split = _SPLIT.get(key, lambda text: [text])
        if row.repeats:
            names = {split(text)[0] for text in given}
            kept = [pair for pair in getattr(config, row.field) if pair[0] not in names]
            setattr(config, row.field, tuple(kept))
        for text in given if row.repeats else [given]:
            tokens = split(text)
            if not row.fits(tokens):
                raise ParameterError(f"{flag} takes {row.takes}")
            try:
                row.set(config, tokens)
                if key == "param" and config.generator is not None:
                    GENERATORS[config.generator].parse(config.generator, config.params[-1:])
            except ParameterError as exc:
                raise ParameterError(f"{flag}: {exc}") from exc
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
        metavar="KEY=VALUE",
        help="generator parameter, repeatable",
    )
    adversary.add_argument("--seed", help="generator seed")
    adversary.add_argument("--ladder", help="ladder values, space separated")
    adversary.add_argument("--output", help="write the document here")

    opt = sub.add_parser("opt", help="optimal welfare at one input")
    opt.add_argument("--config", help="config document path")
    opt.add_argument("--environment", help="environment document path")
    opt.add_argument("--input", required=True, help="input as level digits (or l/m/h)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _configure(args)
        if args.command == "verify":
            record = cmd_verify(config)
            sys.stdout.write(record.to_document())
            return 0 if record.total_violations == 0 else 1
        if args.command == "sweep":
            records, document = cmd_regime_sweep(config)
            sys.stdout.write(document)
            return 0 if all(r.total_violations == 0 for r in records) else 1
        if args.command == "payments":
            try:
                document = cmd_payments(config)
            except NonMonotoneRuleError as exc:
                sys.stderr.write(f"refused: {exc}\n")
                for violation in exc.report.violations[:20]:
                    sys.stderr.write(violation_line(violation) + "\n")
                return 1
            sys.stdout.write(document)
            return 0
        if args.command == "adversary":
            sys.stdout.write(cmd_adversary(config))
            return 0
        # opt
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
