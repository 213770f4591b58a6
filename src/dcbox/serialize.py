"""Line-oriented document formats.

Every document is plain text: a versioned header line, then one
"key value..." record per line (blank lines and #-comments ignored).
Rationals render exactly ("10", "3/2"); inputs are level-digit strings
(0 = lowest; letters l/m/h are accepted on input for ladders of two or
three values); allocations are 0/1 bit strings. Environment documents
round-trip bit-exactly: load(dump(env)) == env.

Every record key is one `Key` row: its shape and, for a key that sets a
field, the field, the parser of its arguments and the setter. A key that
several kinds take is one row in all their tables: adversary documents
hold `ENV_KEYS`' rows, and configs (`harness.CONFIG_KEYS`) hold the
`ladder`, `generator`, `seed` and `param` rows, so such a key parses alike
in configs, CLI flags and documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .adversaries import GENERATOR_NAMES, GENERATORS
from .blackbox import Algorithm, CaseTable, tabulate
from .errors import DcboxError, ParameterError, ParseError
from .model import (
    Allocation,
    Environment,
    FeasibilitySet,
    ValueLadder,
    ValuationVector,
    is_feasible,
)

ENV_HEADER = "dcbox-env 1"
ADVERSARY_HEADER = "dcbox-adversary 1"
CONFIG_HEADER = "dcbox-config 1"
RESULT_HEADER = "dcbox-result 1"
SWEEP_HEADER = "dcbox-sweep 1"
PAYMENTS_HEADER = "dcbox-payments 1"

MAX_SERIALIZED_LEVELS = 10  # level digits 0..9


def format_rational(x) -> str:
    return str(Fraction(x))


def parse_rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"not an exact rational: {token!r}") from None


def parse_integer(token: str, least: int | None = None) -> int:
    """`token` as an integer, no smaller than `least` when that is given."""
    try:
        value = int(token)
    except ValueError:
        raise ParameterError(f"not an integer: {token!r}") from None
    if least is not None and value < least:
        raise ParameterError(f"must be at least {least}, got {value}")
    return value


def parse_ladder(tokens: list[str]) -> ValueLadder:
    """A ladder from its value tokens; documents write a level as one digit."""
    if len(tokens) > MAX_SERIALIZED_LEVELS:
        raise ParameterError(f"at most {MAX_SERIALIZED_LEVELS} values, one digit per level")
    return ValueLadder(tuple(parse_rational(t) for t in tokens))


def parse_name(token: str, names: tuple[str, ...], what: str) -> str:
    """`token` if it is one of `names`; another is refused, naming the known ones."""
    if token not in names:
        raise ParameterError(f"unknown {what} {token!r}; known: {', '.join(names)}")
    return token


def check_generator_params(
    generator: str | None,
    params: Sequence[tuple[str, str]],
    lines: Mapping[str, Sequence[int]],
    source: str,
) -> None:
    """Check a record's (param, text) pairs against its generator once it is
    read (`generator` may follow them); a refused one fails at its line, from
    `lines`, each key's record lines as `read_records` returns them."""
    if generator is None:
        return
    for number, param in zip(lines.get("param", ()), params):
        try:
            GENERATORS[generator].parse(generator, [param])
        except ParameterError as exc:
            raise ParseError(str(exc), source=source, line=number) from exc


LEVEL_CHARACTERS = "0123456789lmh"  # the characters parse_input accepts


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
        if "0" <= c <= "9":
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


@dataclass(frozen=True)
class Key:
    """A record key: the fewest and the most arguments it takes (`most`
    None: no limit), what it takes, for messages, and whether it may
    repeat. A key that sets a field names it, with the parser from its
    arguments to the field's value and the renderer of the value for the
    config echo (None: not echoed); `field` None: its reader handles it."""

    least: int
    most: int | None
    takes: str
    repeats: bool = False
    field: str | None = None
    parse: Callable[[list[str]], object] | None = None
    render: Callable[[object], str] | None = str

    def fits(self, args: list[str]) -> bool:
        return len(args) >= self.least and (self.most is None or len(args) <= self.most)

    def set(self, target: object, args: list[str]) -> None:
        """Set `target`'s field from the arguments, parsed; a repeating key
        appends a (name, value) pair, and a name the field already holds is
        refused. A bad value raises ParameterError."""
        value = self.parse(args)
        if self.repeats:
            held = getattr(target, self.field)
            if value[0] in dict(held):
                raise ParameterError(f"repeated name {value[0]!r}")
            value = (*held, value)
        setattr(target, self.field, value)


def read_records(
    text: str,
    header: str,
    keys: Mapping[str, Key],
    source: str,
    record: Callable[[int, str, list[str]], None],
) -> dict[str, list[int]]:
    """Check the header, then hand each "key args..." record to
    `record(line, key, args)`, skipping blank and #-comment lines; return
    each key's record lines, in order.

    An unknown key, a repeat of a key that may not repeat, and a wrong
    argument count raise ParseError at the record's line, and so does a
    ParameterError that `record` raises, prefixed with the key."""
    lines = (
        (number, raw.split())
        for number, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.lstrip().startswith("#")
    )
    number, fields = next(lines, (None, None))
    if fields is None:
        raise ParseError("empty document", source=source)
    if " ".join(fields) != header:
        message = f"expected header {header!r}, got {' '.join(fields)!r}"
        raise ParseError(message, source=source, line=number)
    read: dict[str, list[int]] = {}
    for number, (key, *args) in lines:
        shape = keys.get(key)
        if shape is None:
            message = f"unknown key {key!r}"
        elif key in read and not shape.repeats:
            message = f"repeated key {key!r}, first at line {read[key][0]}"
        elif not shape.fits(args):
            message = f"{key} takes {shape.takes}"
        else:
            read.setdefault(key, []).append(number)
            try:
                record(number, key, args)
            except ParameterError as exc:
                raise ParseError(f"{key}: {exc}", source=source, line=number) from exc
            continue
        raise ParseError(message, source=source, line=number)
    return read


def _format_ladder(ladder: ValueLadder) -> str:
    return " ".join(format_rational(v) for v in ladder.values)


ENV_KEYS = {
    "n": Key(1, 1, "one integer", field="n", parse=lambda args: parse_integer(args[0], 0)),
    "ladder": Key(
        0, None, "rational values", field="ladder", parse=parse_ladder, render=_format_ladder
    ),
    "maximal": Key(1, 1, "one bit string", repeats=True),
}
ADVERSARY_KEYS = {
    **ENV_KEYS,
    "name": Key(1, None, "a name", field="name", parse=" ".join),
    "generator": Key(
        1,
        1,
        "one generator name",
        field="generator",
        parse=lambda args: parse_name(args[0], GENERATOR_NAMES, "generator"),
    ),
    "seed": Key(1, 1, "one integer", field="seed", parse=lambda args: parse_integer(args[0])),
    "param": Key(
        2,
        None,
        "a key and a value",
        repeats=True,
        field="params",
        parse=lambda args: (args[0], " ".join(args[1:])),
    ),
    "default": Key(1, 1, "one allocation"),
    "case": Key(2, 2, "an input and an allocation", repeats=True),
}


def _env_lines(env: Environment) -> list[str]:
    lines = [f"n {env.n}", f"ladder {_format_ladder(env.ladder)}"]
    for a in env.feasibility.sorted_maximal():
        lines.append(f"maximal {a.to_string()}")
    return lines


def dump_environment(env: Environment) -> str:
    return "\n".join([ENV_HEADER, *_env_lines(env)]) + "\n"


class _Records:
    """The records of an environment or adversary document, as read."""

    def __init__(self, source: str):
        self.source = source
        self.n: int | None = None
        self.ladder: ValueLadder | None = None
        self.maximal: list[Allocation] = []
        self.name = "algorithm"
        self.generator: str | None = None
        self.seed: int | None = None
        self.params: tuple[tuple[str, str], ...] = ()
        self.default: tuple[int, Allocation] | None = None  # (line, allocation)
        self.cases: list[tuple[int, str, str]] = []  # (line, input, allocation), parsed at the end

    def feed(self, number: int, key: str, args: list[str]) -> None:
        row = ADVERSARY_KEYS[key]
        if row.field is not None:
            row.set(self, args)
        elif key == "case":
            self.cases.append((number, args[0], args[1]))
        else:  # maximal or default: an allocation over n agents
            if self.n is None:
                raise ParseError(f"{key} before n", source=self.source, line=number)
            x = parse_allocation(args[0], self.n, source=self.source, line=number)
            if key == "maximal":
                self.maximal.append(x)
            else:
                self.default = (number, x)

    def environment(self) -> Environment:
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
    records = _Records(source)
    read_records(text, ENV_HEADER, ENV_KEYS, source, records.feed)
    return records.environment()


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
    records = _Records(source)
    lines = read_records(text, ADVERSARY_HEADER, ADVERSARY_KEYS, source, records.feed)
    check_generator_params(records.generator, records.params, lines, source)
    if records.generator is not None:  # the metadata must suffice to regenerate the document
        try:
            GENERATORS[records.generator].check(records.generator, records.params, records.seed)
        except ParameterError as exc:
            raise ParseError(str(exc), source=source) from exc
    environment = records.environment()
    if records.default is None:
        raise ParseError("missing default allocation", source=source)
    cases = []
    checked = [records.default]
    first_line: dict[tuple[int, ...], int] = {}
    for number, input_text, alloc_text in records.cases:
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
    table = CaseTable(environment.n, tuple(cases), records.default[1])
    return AdversaryDocument(
        environment=environment,
        table=table,
        name=records.name,
        generator=records.generator,
        seed=records.seed,
        params=records.params,
    )


def adversary_document_for(
    algorithm: Algorithm,
    *,
    generator: str | None = None,
    seed: int | None = None,
    params: tuple[tuple[str, str], ...] = (),
) -> AdversaryDocument:
    """The algorithm's document, with its own case table or, without one,
    `tabulate`'s."""
    return AdversaryDocument(
        environment=algorithm.env,
        table=algorithm.table if algorithm.table is not None else tabulate(algorithm),
        name=algorithm.name,
        generator=generator,
        seed=seed,
        params=params,
    )
