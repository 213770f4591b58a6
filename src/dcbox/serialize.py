"""Line-oriented document formats.

Every document is plain text: a versioned header line, then one
"key value..." record per line (blank lines and #-comments ignored).
Rationals render exactly ("10", "3/2"); inputs are level-digit strings
(0 = lowest; letters l/m/h are accepted on input for ladders of two or
three values); allocations are 0/1 bit strings. Environment documents
round-trip bit-exactly: load(dump(env)) == env.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blackbox import Algorithm, CaseTable, InstrumentedBlackBox
from .errors import DcboxError, ParameterError, ParseError
from .model import (
    Allocation,
    Environment,
    FeasibilitySet,
    ValueLadder,
    ValuationVector,
    input_at,
    is_feasible,
)

ENV_HEADER = "dcbox-env 1"
ADVERSARY_HEADER = "dcbox-adversary 1"
CONFIG_HEADER = "dcbox-config 1"
RESULT_HEADER = "dcbox-result 1"
SWEEP_HEADER = "dcbox-sweep 1"
PAYMENTS_HEADER = "dcbox-payments 1"
QUERY_LOG_HEADER = "dcbox-query-log 1"

MAX_SERIALIZED_LEVELS = 10  # level digits 0..9


def format_rational(x) -> str:
    return str(Fraction(x))


def parse_rational(token: str, *, source: str = "<string>", line: int | None = None) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact rational: {token!r}", source=source, line=line) from exc


def format_input(v: ValuationVector) -> str:
    if any(not 0 <= lvl < MAX_SERIALIZED_LEVELS for lvl in v.levels):
        raise ParameterError("inputs serialize as level digits; levels must be in 0..9")
    return "".join(str(lvl) for lvl in v.levels)


def parse_input(
    text: str, k: int, *, source: str = "<string>", line: int | None = None
) -> ValuationVector:
    """Parse a level-digit string; l/m/h letters map onto two- and
    three-value ladders."""
    levels = []
    for c in text:
        if c.isdigit():
            lvl = int(c)
        elif c == "l":
            lvl = 0
        elif c == "h":
            lvl = k - 1
        elif c == "m" and k == 3:
            lvl = 1
        else:
            raise ParseError(f"bad level character {c!r} in input {text!r}", source=source, line=line)
        if not 0 <= lvl < k:
            raise ParseError(
                f"level {lvl} outside ladder of {k} values in input {text!r}",
                source=source,
                line=line,
            )
        levels.append(lvl)
    return ValuationVector(tuple(levels))


def parse_allocation(
    text: str, n: int, *, source: str = "<string>", line: int | None = None
) -> Allocation:
    if len(text) != n or any(c not in "01" for c in text):
        raise ParseError(f"allocation must be {n} bits over 0/1, got {text!r}", source=source, line=line)
    return Allocation(tuple(int(c) for c in text))


def _content_lines(text: str):
    """Yield (line_number, fields) for nonblank non-comment lines."""
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped.split()


def _check_header(text: str, expected: str, source: str, repeatable: frozenset[str]):
    """Yield the records after the header, each checked as it is handed on:
    a key outside `repeatable` may appear once."""
    lines = _content_lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty document", source=source)
    number, fields = header
    if " ".join(fields) != expected:
        raise ParseError(
            f"expected header {expected!r}, got {' '.join(fields)!r}", source=source, line=number
        )
    first_line: dict[str, int] = {}
    for number, fields in lines:
        key = fields[0]
        if key in first_line:
            message = f"repeated key {key!r}, first at line {first_line[key]}"
            raise ParseError(message, source=source, line=number)
        if key not in repeatable:
            first_line[key] = number
        yield number, fields


def _env_lines(env: Environment) -> list[str]:
    lines = [
        f"n {env.n}",
        "ladder " + " ".join(format_rational(v) for v in env.ladder.values),
    ]
    for a in env.feasibility.sorted_maximal():
        lines.append(f"maximal {a.to_string()}")
    return lines


def dump_environment(env: Environment) -> str:
    return "\n".join([ENV_HEADER, *_env_lines(env)]) + "\n"


class _EnvParser:
    """Accumulates n / ladder / maximal lines shared by several documents."""

    def __init__(self, source: str):
        self.source = source
        self.n: int | None = None
        self.ladder: ValueLadder | None = None
        self.maximal: list[Allocation] = []

    def feed(self, number: int, fields: list[str]) -> bool:
        key = fields[0]
        if key == "n":
            if len(fields) != 2 or not fields[1].isdigit():
                raise ParseError("n takes one integer", source=self.source, line=number)
            self.n = int(fields[1])
            return True
        if key == "ladder":
            values = [parse_rational(t, source=self.source, line=number) for t in fields[1:]]
            try:
                self.ladder = ValueLadder(tuple(values))
            except ParameterError as exc:
                raise ParseError(f"ladder: {exc}", source=self.source, line=number) from exc
            return True
        if key == "maximal":
            if self.n is None:
                raise ParseError("maximal before n", source=self.source, line=number)
            if len(fields) != 2:
                raise ParseError("maximal takes one bit string", source=self.source, line=number)
            self.maximal.append(parse_allocation(fields[1], self.n, source=self.source, line=number))
            return True
        return False

    def finish(self) -> Environment:
        if self.n is None:
            raise ParseError("missing n", source=self.source)
        if self.ladder is None:
            raise ParseError("missing ladder", source=self.source)
        try:
            feasibility = FeasibilitySet(self.n, frozenset(self.maximal))
        except DcboxError as exc:
            raise ParseError(f"maximal: {exc}", source=self.source) from exc
        return Environment(self.n, self.ladder, feasibility)


def load_environment(text: str, source: str = "<env>") -> Environment:
    parser = _EnvParser(source)
    for number, fields in _check_header(text, ENV_HEADER, source, frozenset({"maximal"})):
        if not parser.feed(number, fields):
            raise ParseError(f"unknown key {fields[0]!r}", source=source, line=number)
    return parser.finish()


@dataclass(frozen=True)
class AdversaryDocument:
    """Self-contained environment plus case-table algorithm description."""

    environment: Environment
    table: CaseTable
    name: str = "algorithm"
    generator: str | None = None
    seed: int | None = None
    params: tuple[tuple[str, str], ...] = ()

    def build_algorithm(self) -> Algorithm:
        return Algorithm(self.environment, self.table.lookup(), self.name, self.table)


def dump_adversary(doc: AdversaryDocument) -> str:
    lines = [ADVERSARY_HEADER, f"name {doc.name}"]
    if doc.generator is not None:
        lines.append(f"generator {doc.generator}")
    if doc.seed is not None:
        lines.append(f"seed {doc.seed}")
    for key, value in doc.params:
        lines.append(f"param {key} {value}")
    lines.extend(_env_lines(doc.environment))
    lines.append(f"default {doc.table.default.to_string()}")
    for v, x in sorted(doc.table.cases, key=lambda case: case[0].levels):
        lines.append(f"case {format_input(v)} {x.to_string()}")
    return "\n".join(lines) + "\n"


def load_adversary(text: str, source: str = "<adversary>") -> AdversaryDocument:
    parser = _EnvParser(source)
    name = "algorithm"
    generator: str | None = None
    seed: int | None = None
    params: list[tuple[str, str]] = []
    default: Allocation | None = None
    default_line = 0
    raw_cases: list[tuple[int, str, str]] = []
    repeatable = frozenset({"maximal", "case", "param"})
    # Per key: the fewest and the most fields on its line, and what it takes.
    arity = {
        "name": (2, None, "a name"),
        "generator": (2, 2, "one generator name"),
        "seed": (2, 2, "one integer"),
        "param": (3, None, "a key and a value"),
        "default": (2, 2, "one allocation"),
        "case": (3, 3, "an input and an allocation"),
    }
    for number, fields in _check_header(text, ADVERSARY_HEADER, source, repeatable):
        key = fields[0]
        if parser.feed(number, fields):
            continue
        if key not in arity:
            raise ParseError(f"unknown key {key!r}", source=source, line=number)
        least, most, what = arity[key]
        if len(fields) < least or most is not None and len(fields) > most:
            raise ParseError(f"{key} takes {what}", source=source, line=number)
        if key == "name":
            name = " ".join(fields[1:])
        elif key == "generator":
            generator = fields[1]
        elif key == "seed":
            try:
                seed = int(fields[1])
            except ValueError as exc:
                raise ParseError(f"bad seed {fields[1]!r}", source=source, line=number) from exc
        elif key == "param":
            params.append((fields[1], " ".join(fields[2:])))
        elif key == "default":
            if parser.n is None:
                raise ParseError("default before n", source=source, line=number)
            default = parse_allocation(fields[1], parser.n, source=source, line=number)
            default_line = number
        else:  # case
            raw_cases.append((number, fields[1], fields[2]))
    environment = parser.finish()
    if default is None:
        raise ParseError("missing default allocation", source=source)
    cases = []
    checked = [(default_line, default)]
    first_line: dict[tuple[int, ...], int] = {}
    for number, input_text, alloc_text in raw_cases:
        v = parse_input(input_text, environment.k, source=source, line=number)
        if v.n != environment.n:
            raise ParseError(
                f"case input has {v.n} agents, environment has {environment.n}",
                source=source,
                line=number,
            )
        if v.levels in first_line:
            message = f"duplicate case input {input_text!r}, first at line {first_line[v.levels]}"
            raise ParseError(message, source=source, line=number)
        first_line[v.levels] = number
        x = parse_allocation(alloc_text, environment.n, source=source, line=number)
        cases.append((v, x))
        checked.append((number, x))
    for number, x in checked:
        if not is_feasible(x, environment.feasibility):
            raise ParseError(f"infeasible allocation {x.to_string()}", source=source, line=number)
    table = CaseTable(environment.n, tuple(cases), default)
    return AdversaryDocument(
        environment=environment,
        table=table,
        name=name,
        generator=generator,
        seed=seed,
        params=tuple(params),
    )


def dump_query_log(bb: InstrumentedBlackBox) -> str:
    """Render an instrumented black box's log: one record per query with its
    position, the queried input, and the answered allocation."""
    n, k = bb.answers.n, bb.answers.k
    lines = [QUERY_LOG_HEADER]
    for position, (u, x) in enumerate(bb.log):
        lines.append(f"query {position} {format_input(input_at(u, n, k))} {x.to_string()}")
    return "\n".join(lines) + "\n"


def adversary_document_for(
    algorithm: Algorithm,
    *,
    generator: str | None = None,
    seed: int | None = None,
    params: tuple[tuple[str, str], ...] = (),
) -> AdversaryDocument:
    if algorithm.table is None:
        raise ParameterError(
            f"algorithm {algorithm.name!r} has no case table; tabulate it first"
        )
    return AdversaryDocument(
        environment=algorithm.env,
        table=algorithm.table,
        name=algorithm.name,
        generator=generator,
        seed=seed,
        params=params,
    )
