"""Experiment harness: config-driven verification runs and regime sweeps.

A config document selects an algorithm source (a generator by name, or an
adversary document on disk), a transformation, a ladder, and budgets; the
harness runs the verification engine and renders line-oriented result
documents. Identical config and seed reproduce byte-identical documents
except for the trailing duration line. Sweep cells may fan out to worker
processes; output order is deterministic regardless of completion order.

Each config key is one `serialize.Key` row of `CONFIG_KEYS`, whose setter
applies a config line and its CLI flag alike; the `generator`, `param`,
`ladder` and `seed` rows are the ones documents read those keys by.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, TypeVar

from . import adversaries
from .adversaries import (
    gen_all_ones,
    gen_knapsack,
    gen_random_algorithm,
    gen_random_environment,
    stable_rng,
)
from .blackbox import Algorithm
from .errors import NonMonotoneRuleError, ParameterError, ParseError
from .model import Environment, ValuationVector, ValueLadder, opt_welfare
from .serialize import (
    ADVERSARY_KEYS,
    CONFIG_HEADER,
    ENV_KEYS,
    PAYMENTS_HEADER,
    RESULT_HEADER,
    LEVEL_CHARACTERS,
    SWEEP_HEADER,
    Key,
    adversary_document_for,
    check_generator_params,
    dump_adversary,
    format_input,
    format_rational,
    load_adversary,
    load_environment,
    parse_input,
    parse_integer,
    parse_name,
    parse_rational,
    read_records,
)
from .transforms import TRANSFORMATION_IDS, TransformedRule
from .verify import (
    DEFAULT_ENUM_BOUND,
    CachedRule,
    MonotonicityReport,
    MonotonicityViolation,
    WelfareReport,
    check_monotone,
    myerson_payments,
    welfare_report,
)

T = TypeVar("T")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a run bit for bit."""

    transformation: str | None = None
    generator: str | None = None
    params: tuple[tuple[str, str], ...] = ()
    algorithm_path: str | None = None
    environment_path: str | None = None
    ladder: ValueLadder | None = None
    seed: int | None = None
    enum_bound: int = DEFAULT_ENUM_BOUND
    query_budget: tuple[int, int] | None = None  # (c, d): budget c * n^d per evaluation
    hamming_radius: int | None = None
    sweep_n: tuple[int, ...] = ()
    sweep_ratios: tuple[str, ...] = ()
    panel_random: int = 20
    threshold: Fraction = Fraction(1, 2)
    input_text: str | None = None
    workers: int = 1
    output: str | None = None

    def echo_lines(self) -> list[str]:
        """Config echo for result documents; sufficient to reproduce the run.

        Keys echo in table order, each set one as `config.<key> <value>` and
        each param as `config.param.<key> <value>`; panel-random and
        threshold echo only for sweeps."""
        sweep = bool(self.sweep_n or self.sweep_ratios)
        lines = []
        for key, row in CONFIG_KEYS.items():
            value = getattr(self, row.field)
            if row.render is None or value in (None, ()) or key in _SWEEP_KEYS and not sweep:
                continue
            if row.repeats:
                lines.extend(f"config.{key}.{name} {text}" for name, text in value)
            else:
                lines.append(f"config.{key} {row.render(value)}")
        return lines


def _one(parse: Callable[[str], T]) -> Callable[[list[str]], T]:
    return lambda args: parse(args[0])


def _integer(least: int) -> Callable[[list[str]], int]:
    return _one(lambda token: parse_integer(token, least))


def _integers(least: int) -> Callable[[list[str]], tuple[int, ...]]:
    return lambda args: tuple(parse_integer(a, least) for a in args)


def _joined(values: tuple) -> str:
    return " ".join(map(str, values))


def _ratio_tokens(args: list[str]) -> tuple[str, ...]:
    """Ratio tokens that evaluate (`ratio_value`); whether one exceeds 1
    depends on n, so that is checked per sweep cell."""
    for token in args:
        ratio_value(token, 1)
    return tuple(args)


def _input_text(args: list[str]) -> str:
    """An input string of level characters; its levels meet the ladder later."""
    text = args[0]
    for c in text:
        if c not in LEVEL_CHARACTERS:
            raise ParameterError(f"bad level character {c!r} in input {text!r}")
    return text


# One row per key, in echo order. Integer domains: seed any integer;
# enum-bound, hamming-radius, panel-random and query-budget's c and d at
# least 0; workers and each sweep-n value at least 1. Name domains:
# transformation in TRANSFORMATION_IDS, generator in GENERATOR_NAMES, each
# sweep-ratio token a rational or a formula in n; ladder at most 10 values.
CONFIG_KEYS: dict[str, Key] = {
    "transformation": Key(
        1,
        1,
        "one identifier",
        field="transformation",
        parse=_one(lambda name: parse_name(name, TRANSFORMATION_IDS, "transformation")),
    ),
    "generator": ADVERSARY_KEYS["generator"],
    "param": ADVERSARY_KEYS["param"],
    "algorithm": Key(1, 1, "one path", field="algorithm_path", parse=_one(str)),
    "environment": Key(1, 1, "one path", field="environment_path", parse=_one(str)),
    "ladder": ENV_KEYS["ladder"],
    "seed": ADVERSARY_KEYS["seed"],
    "enum-bound": Key(1, 1, "one integer", field="enum_bound", parse=_integer(0)),
    "query-budget": Key(
        2,
        2,
        "two integers c and d (budget c * n^d)",
        field="query_budget",
        parse=_integers(0),
        render=_joined,
    ),
    "hamming-radius": Key(1, 1, "one integer", field="hamming_radius", parse=_integer(0)),
    "sweep-n": Key(
        1, None, "one or more integers", field="sweep_n", parse=_integers(1), render=_joined
    ),
    "sweep-ratio": Key(
        1, None, "one or more tokens", field="sweep_ratios", parse=_ratio_tokens, render=_joined
    ),
    "panel-random": Key(1, 1, "one integer", field="panel_random", parse=_integer(0)),
    "threshold": Key(
        1, 1, "one rational", field="threshold", parse=_one(parse_rational), render=format_rational
    ),
    "input": Key(1, 1, "one input string", field="input_text", parse=_input_text),
    "workers": Key(1, 1, "one integer", field="workers", parse=_integer(1), render=None),
    "output": Key(1, 1, "one path", field="output", parse=_one(str), render=None),
}
_SWEEP_KEYS = ("panel-random", "threshold")


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    config = ExperimentConfig()

    def record(line: int, key: str, args: list[str]) -> None:
        CONFIG_KEYS[key].set(config, args)

    lines = read_records(text, CONFIG_HEADER, CONFIG_KEYS, source, record)
    check_generator_params(config.generator, config.params, lines, source)
    return config


def _read_document(path: str | Path) -> str:
    """The text of the document at `path`; bytes that are not UTF-8 name the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", source=str(path)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(_read_document(path), source=str(path))


_RATIO_PATTERN = re.compile(r"^(\d*)n(?:\^(\d+))?(?:\+(\d+))?$")


def ratio_value(token: str, n: int) -> Fraction:
    """Evaluate a high/low ratio token at agent count n.

    Tokens are exact rationals ("5", "7/2") or formulas in n: "n", "2n",
    "n^2", "n+1", "2n+1".
    """
    match = _RATIO_PATTERN.match(token)
    if match:
        coefficient = int(match.group(1)) if match.group(1) else 1
        exponent = int(match.group(2)) if match.group(2) else 1
        addend = int(match.group(3)) if match.group(3) else 0
        return Fraction(coefficient * n**exponent + addend)
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad ratio token {token!r}") from exc


def ladder_for_ratio(token: str, n: int) -> ValueLadder:
    ratio = ratio_value(token, n)
    if ratio <= 1:
        raise ParameterError(f"ratio {token!r} evaluates to {ratio} at n={n}; must exceed 1")
    return ValueLadder.of(1, ratio)


def build_algorithm(config: ExperimentConfig) -> Algorithm:
    """Resolve the configured algorithm source: generator or adversary document."""
    if (config.generator is None) == (config.algorithm_path is None):
        raise ParameterError("exactly one of 'generator' and 'algorithm' must be configured")
    if config.algorithm_path is not None:
        if config.ladder is not None:
            raise ParameterError("ladder comes from the algorithm document; drop the ladder key")
        if config.params:
            raise ParameterError("params come from the algorithm document; drop the param keys")
        doc = load_adversary(_read_document(config.algorithm_path), source=config.algorithm_path)
        return doc.build_algorithm()
    name = parse_name(config.generator, adversaries.GENERATOR_NAMES, "generator")
    ladder = config.ladder if config.ladder is not None else adversaries.DEFAULT_LADDER
    generator = adversaries.GENERATORS[name]
    return generator.build(config.seed, ladder, **generator.check(name, config.params, config.seed))


def standard_panel(
    n: int,
    ladder: ValueLadder,
    seed: int,
    *,
    random_count: int = 20,
    include_optimal: bool = False,
) -> list[Algorithm]:
    """The sweep panel: all-ones, knapsack-greedy (optionally the optimal
    policy too), and `random_count` seeded random algorithms over seeded
    random environments. Deterministic in (n, ladder, seed)."""
    rng = stable_rng("panel", n, seed)
    weights = [rng.randint(1, 3) for _ in range(n)]
    capacity = max(1, sum(weights) // 2)
    panel = [
        gen_all_ones(n, ladder),
        gen_knapsack(weights, capacity, "greedy", ladder),
    ]
    if include_optimal:
        panel.append(gen_knapsack(weights, capacity, "optimal", ladder))
    for i in range(random_count):
        env = gen_random_environment(n, ladder, seed + 1000 + i)
        panel.append(gen_random_algorithm(env, seed + 2000 + i))
    return panel


def violation_line(violation: MonotonicityViolation) -> str:
    """A monotonicity violation as result documents and the CLI write it."""
    return (
        f"violation {format_input(violation.input)} agent {violation.agent} "
        f"raise {violation.level_low} {violation.level_high}"
    )


@dataclass
class VerifyEntry:
    """Verification results for one (algorithm, transformation) pair."""

    algorithm: str
    n: int
    k: int
    monotone: MonotonicityReport
    welfare: WelfareReport
    max_queries: int
    max_radius: int

    def lines(self) -> list[str]:
        mono, wf = self.monotone, self.welfare

        def rational(x) -> str:
            return "none" if x is None else format_rational(x)

        return [
            f"algorithm {self.algorithm}",
            f"n {self.n}",
            f"k {self.k}",
            f"monotone.sampled {str(mono.sampled).lower()}",
            f"monotone.checked-pairs {mono.checked_pairs}",
            f"monotone.evaluations {mono.evaluations}",
            f"monotone.violations {len(mono.violations)}",
            *map(violation_line, mono.violations),
            f"welfare.sampled {str(wf.sampled).lower()}",
            f"welfare.total-inputs {wf.total_inputs}",
            f"welfare.full-count {wf.full_welfare_count}",
            f"welfare.zero-original {wf.zero_original_count}",
            f"welfare.pointwise-min {rational(wf.pointwise_min_fraction)}",
            f"welfare.sum-rule {format_rational(wf.sum_welfare_rule)}",
            f"welfare.sum-original {format_rational(wf.sum_welfare_original)}",
            f"welfare.opt-zero {wf.opt_zero_count}",
            f"approx.rule {rational(wf.approx_ratio_rule)}",
            f"approx.original {rational(wf.approx_ratio_original)}",
            f"queries.max-per-eval {self.max_queries}",
            f"queries.max-radius {self.max_radius}",
        ]


@dataclass
class ResultRecord:
    """One verification run (or one sweep cell): config echo plus entries."""

    config_lines: list[str]
    entries: list[VerifyEntry]
    cell: tuple[int, str] | None = None  # (n, ratio token) for sweep cells
    duration_ms: int = 0

    @property
    def total_violations(self) -> int:
        return sum(len(e.monotone.violations) for e in self.entries)

    def min_pointwise(self) -> Fraction | None:
        fractions = [
            e.welfare.pointwise_min_fraction
            for e in self.entries
            if e.welfare.pointwise_min_fraction is not None
        ]
        return min(fractions) if fractions else None

    def body_lines(self) -> list[str]:
        lines: list[str] = []
        if self.cell is not None:
            lines.append(f"cell.n {self.cell[0]}")
            lines.append(f"cell.ratio {self.cell[1]}")
        for entry in self.entries:
            lines.extend(entry.lines())
        return lines

    def to_document(self) -> str:
        lines = [RESULT_HEADER, *self.config_lines, *self.body_lines(), f"duration-ms {self.duration_ms}"]
        return "\n".join(lines) + "\n"


def _seed(config: ExperimentConfig) -> int:
    """The seed of sampled verification and of sweep panels: the configured one, else 0."""
    return config.seed if config.seed is not None else 0


def _checked_rule(
    config: ExperimentConfig, algorithm: Algorithm, transformation: str
) -> tuple[CachedRule, MonotonicityReport]:
    """`algorithm` transformed under the configured budget (c * n^d) and
    radius, behind its mask table, with its monotonicity report under the
    configured enumeration bound and seed."""
    budget = None
    if config.query_budget is not None:
        c, d = config.query_budget
        budget = c * algorithm.env.n**d
    transformed = TransformedRule(
        transformation, algorithm, query_budget=budget, hamming_radius=config.hamming_radius
    )
    rule = CachedRule(transformed)
    monotone = check_monotone(rule, algorithm.env, enum_bound=config.enum_bound, seed=_seed(config))
    return rule, monotone


def _verify_entry(
    config: ExperimentConfig, algorithm: Algorithm, transformation: str
) -> VerifyEntry:
    env = algorithm.env
    rule, monotone = _checked_rule(config, algorithm, transformation)
    # The algorithm answers from the rule's live black box: one call per input.
    welfare = welfare_report(rule, algorithm, env, enum_bound=config.enum_bound, seed=_seed(config))
    queries, radius = rule.rule.max_queries, rule.rule.max_radius
    return VerifyEntry(algorithm.name, env.n, env.k, monotone, welfare, queries, radius)


def _record(
    config: ExperimentConfig, started: float, transformation: str, algorithms: list[Algorithm], cell=None
) -> ResultRecord:
    """`algorithms` verified under `transformation` into a record with the
    config echo and sweep `cell` (or None), timed from `started`."""
    entries = [_verify_entry(config, algorithm, transformation) for algorithm in algorithms]
    duration_ms = int((time.monotonic() - started) * 1000)
    return ResultRecord(config.echo_lines(), entries, cell, duration_ms)


def _write(config: ExperimentConfig, document: str) -> str:
    """`document`, written first to the configured output, if any."""
    if config.output:
        Path(config.output).write_text(document, encoding="utf-8")
    return document


def _validate_transformation(config: ExperimentConfig) -> str:
    if config.transformation is None:
        raise ParameterError("config needs a transformation")
    return parse_name(config.transformation, TRANSFORMATION_IDS, "transformation")


def cmd_verify(config: ExperimentConfig) -> ResultRecord:
    """Run check_monotone + welfare_report + approximation ratios for the
    configured (transformation, algorithm, environment)."""
    started = time.monotonic()
    transformation = _validate_transformation(config)
    record = _record(config, started, transformation, [build_algorithm(config)])
    _write(config, record.to_document())
    return record


def _sweep_cell(config: ExperimentConfig, n: int, ratio_token: str) -> ResultRecord:
    started = time.monotonic()
    transformation = _validate_transformation(config)
    ladder = ladder_for_ratio(ratio_token, n)
    panel = standard_panel(n, ladder, _seed(config), random_count=config.panel_random)
    return _record(config, started, transformation, panel, cell=(n, ratio_token))


def cmd_regime_sweep(config: ExperimentConfig) -> tuple[list[ResultRecord], str]:
    """Run cmd_verify for every (n, ratio) cell against the standard panel.

    Returns the records in deterministic (n, ratio, algorithm) order plus
    the rendered sweep document.
    """
    started = time.monotonic()
    _validate_transformation(config)
    if not config.sweep_n or not config.sweep_ratios:
        raise ParameterError("sweep needs nonempty sweep-n and sweep-ratio ranges")
    cells = [(n, token) for n in config.sweep_n for token in config.sweep_ratios]
    if config.workers > 1:
        # Imported here: only a multi-worker sweep pays for concurrent.futures.
        from concurrent.futures import ProcessPoolExecutor

        ns, tokens = zip(*cells)
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_sweep_cell, [config] * len(cells), ns, tokens))
    else:
        records = [_sweep_cell(config, n, token) for n, token in cells]

    lines = [SWEEP_HEADER, *config.echo_lines()]
    for record in records:
        lines.extend(record.body_lines())
    for record in records:
        n, token = record.cell
        minimum = record.min_pointwise()
        meets = minimum is not None and minimum >= config.threshold
        lines.append(
            f"summary n {n} ratio {token} monotone {str(record.total_violations == 0).lower()} "
            f"pointwise-min {'none' if minimum is None else format_rational(minimum)} "
            f"meets-threshold {str(meets).lower()}"
        )
    lines.append(f"duration-ms {int((time.monotonic() - started) * 1000)}")
    return records, _write(config, "\n".join(lines) + "\n")


def _configured_input(config: ExperimentConfig, env: Environment) -> ValuationVector:
    """The config's input on env's ladder; a malformed one names the input key."""
    v = parse_input(config.input_text, env.k, source="input")
    if v.n != env.n:
        raise ParameterError(f"input has {v.n} agents, environment has {env.n}")
    return v


def cmd_payments(config: ExperimentConfig) -> str:
    """Allocation and critical-value payments at one input.

    Refuses (NonMonotoneRuleError, carrying the report) when the configured
    rule is not monotone.
    """
    transformation = _validate_transformation(config)
    if config.input_text is None:
        raise ParameterError("payments needs an input")
    algorithm = build_algorithm(config)
    env = algorithm.env
    v = _configured_input(config, env)
    rule, monotone = _checked_rule(config, algorithm, transformation)
    if not monotone.is_monotone:
        raise NonMonotoneRuleError(monotone)
    # After an exhaustive check these calls read the rule's mask table.
    allocation = rule(v)
    payments = myerson_payments(rule, v, env.ladder)
    lines = [
        PAYMENTS_HEADER,
        *config.echo_lines(),
        f"input {format_input(v)}",
        f"allocation {allocation.to_string()}",
    ]
    for agent, (bit, payment) in enumerate(zip(allocation.bits, payments)):
        lines.append(f"agent {agent} bit {bit} payment {format_rational(payment)}")
    return _write(config, "\n".join(lines) + "\n")


def cmd_adversary(config: ExperimentConfig) -> str:
    """Generate an adversary document: environment plus case-table algorithm,
    reloadable by cmd_verify."""
    if config.generator is None:
        raise ParameterError("adversary generation needs a generator")
    doc = adversary_document_for(
        build_algorithm(config),
        generator=config.generator,
        seed=config.seed,
        params=config.params,
    )
    return _write(config, dump_adversary(doc))


def cmd_opt(config: ExperimentConfig) -> Fraction:
    """Direct optimal-welfare query against an environment document or a
    generated algorithm's environment."""
    if config.input_text is None:
        raise ParameterError("opt needs an input")
    path = config.environment_path
    if path is not None:
        env = load_environment(_read_document(path), source=path)
    else:
        env = build_algorithm(config).env
    return opt_welfare(_configured_input(config, env), env.feasibility, env.ladder)
