"""Query layer between transformations and algorithms.

An `Algorithm` is a total deterministic allocation rule attached to its
environment. Transformations never call it directly: they go through an
`InstrumentedBlackBox`, which takes each query as an input index (see
`model.input_index`), logs it, enforces an optional query budget, measures
its Hamming distance from an optional center and optionally restricts it to
a strict radius. Below the box, an `AnswerTable`, the only memo of the
algorithm's answers, calls the algorithm once per distinct input. The
algorithm itself keeps a weak reference to its newest table and answers a
direct call from it on a hit, without ever writing to it.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (
    DimensionError,
    HammingRestrictionViolation,
    InfeasibleOutputError,
    ParameterError,
    QueryBudgetExceeded,
)
from .model import Allocation, Environment, ValuationVector, index_within, input_at, is_feasible


@dataclass(frozen=True)
class CaseTable:
    """Finite description of an algorithm: exceptional inputs plus a default.

    This is the persistable form used by adversary documents; a full truth
    table is just a case table whose default happens to be the most common
    output.
    """

    n: int
    cases: tuple[tuple[ValuationVector, Allocation], ...]
    default: Allocation

    def lookup(self) -> Callable[[ValuationVector], Allocation]:
        table = {v.levels: x for v, x in self.cases}
        default = self.default

        def rule(v: ValuationVector) -> Allocation:
            return table.get(v.levels, default)

        return rule


@dataclass(frozen=True)
class Algorithm:
    """A total deterministic allocation rule over its environment's inputs.

    Generators guarantee that every output is feasible; give its black box
    `answers=AnswerTable(algorithm, check_feasible=True)` to assert this in
    debug verification runs. `table` is the optional persistable case-table
    form that adversary documents write.

    Called directly, the algorithm answers from its newest AnswerTable while
    that table lives (`live_answers`, a weak reference set by the table), so
    an input some rule already asked is not computed again. A miss, or an
    input of another length or with a level off the ladder, calls `rule`
    and stores nothing: direct calls never change what a rule's black
    boxes see or count.
    """

    env: Environment
    rule: Callable[[ValuationVector], Allocation]
    name: str = "algorithm"
    table: Optional[CaseTable] = None
    live_answers: Optional[weakref.ref] = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, v: ValuationVector) -> Allocation:
        answers = None if self.live_answers is None else self.live_answers()
        u = None if answers is None else index_within(v.levels, answers.n, answers.k)
        x = None if u is None else answers.get(u)
        return self.rule(v) if x is None else x


class AnswerTable(dict):
    """An algorithm's answers by input index. A miss decodes the index,
    calls the rule once and checks the answer's length and, if asked, its
    feasibility; only answers that pass are stored, so entries are safe to
    reuse unchecked. The newest table of an algorithm is the one its direct
    calls read (`Algorithm.live_answers`); it dies with its owner."""

    def __init__(self, algorithm: Algorithm, check_feasible: bool = False):
        super().__init__()
        self.algorithm = algorithm
        self.check_feasible = check_feasible
        self.n = algorithm.env.n
        self.k = algorithm.env.ladder.k
        self.size = algorithm.env.input_count()
        object.__setattr__(algorithm, "live_answers", weakref.ref(self))

    def __missing__(self, u: int) -> Allocation:
        x = self.algorithm.rule(input_at(u, self.n, self.k))
        if x.n != self.n:
            raise DimensionError(f"allocation of length {x.n} vs input of length {self.n}")
        if self.check_feasible and not is_feasible(x, self.algorithm.env.feasibility):
            raise InfeasibleOutputError(
                f"algorithm {self.algorithm.name!r} returned infeasible {x.to_string()}"
            )
        self[u] = x
        return x


def _digit_distance(u: int, c: int, k: int) -> int:
    # Base-k digits in which two indices differ; stops at the highest one.
    d = 0
    while u != c:
        u, a = divmod(u, k)
        c, b = divmod(c, k)
        d += a != b
    return d


class InstrumentedBlackBox:
    """Query wrapper taking input indices in [0, k**n) (`input_index`) and
    recording (index, allocation) pairs; answers come from `answers`, a
    fresh AnswerTable unless one is given (which may check feasibility).

    The budget counts successful queries. `max_radius` is the largest
    Hamming distance of a successful query from the center index, if one
    is set, measured by the box itself. With a radius f set too, only
    inputs at distance < f are allowed. Budget exhaustion and radius
    violations raise distinct exception types.

    Kernels reuse answers as `known.get(u) or bb.query(u)`. `known` holds
    this box's answers, or with reuse_answers the whole table, whose
    answers from earlier boxes would then bypass a budget or radius.
    Single-owner mutable state: do not share one instance between workers.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        *,
        budget: int | None = None,
        hamming_center: int | None = None,
        hamming_radius: int | None = None,
        answers: AnswerTable | None = None,
        reuse_answers: bool = False,
    ):
        if hamming_radius is not None and hamming_center is None:
            raise ParameterError("hamming_radius needs a hamming_center")
        if hamming_radius is not None and hamming_radius < 0:
            raise ParameterError("hamming_radius must be nonnegative")
        if budget is not None and budget < 0:
            raise ParameterError("budget must be nonnegative")
        if reuse_answers and (budget is not None or hamming_radius is not None):
            raise ParameterError("reused answers would bypass the query budget and radius")
        if answers is None:
            answers = AnswerTable(algorithm)
        if hamming_center is not None and not 0 <= hamming_center < answers.size:
            raise ParameterError(f"center index {hamming_center} outside [0, {answers.size})")
        self.algorithm = algorithm
        self.answers = answers
        self.k = answers.k
        self.size = answers.size
        self.budget = budget
        self.hamming_center = hamming_center
        self.hamming_radius = hamming_radius
        self.known: dict[int, Allocation] = answers if reuse_answers else {}
        self.log: list[tuple[int, Allocation]] = []
        self.max_radius = 0

    def query(self, u: int) -> Allocation:
        if not 0 <= u < self.size:
            raise ParameterError(f"input index {u} outside [0, {self.size})")
        if self.budget is not None and len(self.log) >= self.budget:
            raise QueryBudgetExceeded(f"query budget of {self.budget} exhausted")
        d = 0
        c = self.hamming_center
        if c is not None:
            d = (u ^ c).bit_count() if self.k == 2 else _digit_distance(u, c, self.k)
            if self.hamming_radius is not None and d >= self.hamming_radius:
                raise HammingRestrictionViolation(
                    f"query at distance {d} from the center; allowed distance is < {self.hamming_radius}"
                )
        x = self.known[u] = self.answers[u]
        self.log.append((u, x))
        if d > self.max_radius:
            self.max_radius = d
        return x


MAX_TABULATED_INPUTS = 65536  # the largest input space a case table is built over


def tabulate(algorithm: Algorithm) -> CaseTable:
    """Tabulate an algorithm into a case table over the full input space,
    of at most MAX_TABULATED_INPUTS inputs.

    The default is the most common output (ties broken toward the
    lexicographically largest bit string); every input with a different
    output becomes an explicit case.
    """
    env = algorithm.env
    total = env.input_count()
    if total > MAX_TABULATED_INPUTS:
        raise ParameterError(
            f"cannot tabulate {total} inputs (limit {MAX_TABULATED_INPUTS}); "
            "use a generator with a built-in table"
        )
    outputs = [(v, algorithm(v)) for v in env.inputs()]
    counts = Counter(x for _, x in outputs)
    default = max(counts.items(), key=lambda item: (item[1], item[0].bits))[0]
    cases = tuple((v, x) for v, x in outputs if x != default)
    return CaseTable(env.n, cases, default)
