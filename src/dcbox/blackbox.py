"""Query layer between transformations and algorithms.

An `Algorithm` is a total deterministic allocation rule attached to its
environment. Transformations never call it directly: they go through an
`InstrumentedBlackBox` centred at the evaluated input's index, which takes
each query as an input index (see `model.input_index`), logs it, enforces an
optional query budget, measures its Hamming distance from the center and
optionally restricts it to a strict radius. The box also holds the
algorithm's checked answers, the only memo of them, so the algorithm runs
once per distinct input per box. The algorithm itself keeps a weak
reference to its newest box and answers a direct call from the box's
answers on a hit, without ever writing to them.
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

    Generators guarantee that every output is feasible; build its black box
    with `check_feasible=True` to assert this in debug verification runs.
    `table` is the optional persistable case-table form that adversary
    documents write.

    Called directly, the algorithm answers from the answers of its newest
    black box while that box lives (`live_box`, a weak reference set by the
    box), so an input some rule already asked is not computed again. It
    takes an input index, as exhaustive mask tables pass (`verify._table`),
    or a vector, as sampled and direct calls pass. A miss calls `rule` and
    stores nothing, so direct calls never change what a rule's black boxes
    see or count: a missed index is decoded (`input_at`) and an answer of
    another length refused (DimensionError); a vector of another length or
    with a level off the ladder always misses.
    """

    env: Environment
    rule: Callable[[ValuationVector], Allocation]
    name: str = "algorithm"
    table: Optional[CaseTable] = None
    live_box: Optional[weakref.ref] = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, v: ValuationVector | int) -> Allocation:
        box = None if self.live_box is None else self.live_box()
        if isinstance(v, int):
            x = None if box is None else box.answers.get(v)
            return self._answer_at(v) if x is None else x
        u = None if box is None else index_within(v.levels, box.n, box.k)
        x = None if u is None else box.answers.get(u)
        return self.rule(v) if x is None else x

    def _answer_at(self, u: int) -> Allocation:
        """The rule's answer at input index u, decoded with `input_at`, and
        stored nowhere. An index outside [0, k**n) raises ParameterError and
        an answer of another length DimensionError."""
        n, k = self.env.n, self.env.ladder.k
        if not 0 <= u < k**n:
            raise ParameterError(f"input index {u} outside [0, {k**n})")
        x = self.rule(input_at(u, n, k))
        if x.n != n:
            raise DimensionError(f"allocation of length {x.n} vs input of length {n}")
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
    recording (index, allocation) pairs.

    The box owns the algorithm's answers by index, `answers`, the only memo
    of them. A miss decodes the index and calls the rule once
    (`Algorithm._answer_at`, which checks the answer's length), then checks
    its feasibility under check_feasible; only answers that pass are
    stored, so entries are safe to reuse unchecked. The algorithm's direct
    calls read the answers of its newest box (`Algorithm.live_box`, a weak
    reference set here), so the answers die with the box.

    The center index (`hamming_center`, set by `recenter`, 0 until then) is
    the input under evaluation. The budget counts successful queries.
    `max_radius` is the largest Hamming distance of a successful query from
    the center, measured by the box itself. With a radius f set, only
    inputs at distance < f are allowed. Budget exhaustion and radius
    violations raise distinct exception types.

    The box holds every per-evaluation memo under one policy: `known`, the
    answers kernels reuse as `known.get(u) or bb.query(u)`, and `memo`, a
    kernel's allocations derived from them by index. Answers are reused
    (`reuse_answers`) only under shared_state with neither a budget nor a
    radius, which entries from earlier evaluations would bypass: `known` is
    then `answers` itself and `memo` persists. Otherwise `recenter` empties
    both. Single-owner mutable state: do not share one instance between
    workers.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        *,
        budget: int | None = None,
        hamming_radius: int | None = None,
        shared_state: bool = False,
        check_feasible: bool = False,
    ):
        if hamming_radius is not None and hamming_radius < 0:
            raise ParameterError("hamming_radius must be nonnegative")
        if budget is not None and budget < 0:
            raise ParameterError("budget must be nonnegative")
        self.algorithm = algorithm
        self.n = algorithm.env.n
        self.k = algorithm.env.ladder.k
        self.size = algorithm.env.input_count()
        self.budget = budget
        self.hamming_radius = hamming_radius
        self.check_feasible = check_feasible
        self.reuse_answers = shared_state and budget is None and hamming_radius is None
        self.answers: dict[int, Allocation] = {}
        self.known: dict[int, Allocation] = self.answers if self.reuse_answers else {}
        self.memo: dict[int, Allocation] = {}
        object.__setattr__(algorithm, "live_box", weakref.ref(self))
        self.recenter(0)

    def recenter(self, center: int) -> None:
        """Start a new evaluation around `center`: an empty log, `max_radius`
        0 and, unless answers are reused, empty `known` and `memo`. Budget,
        radius and answers stay."""
        if not 0 <= center < self.size:
            raise ParameterError(f"center index {center} outside [0, {self.size})")
        self.hamming_center = center
        if not self.reuse_answers:
            self.known = {}
            self.memo = {}
        self.log: list[tuple[int, Allocation]] = []
        self.max_radius = 0

    def query(self, u: int) -> Allocation:
        if not 0 <= u < self.size:
            raise ParameterError(f"input index {u} outside [0, {self.size})")
        if self.budget is not None and len(self.log) >= self.budget:
            raise QueryBudgetExceeded(f"query budget of {self.budget} exhausted")
        c = self.hamming_center
        d = (u ^ c).bit_count() if self.k == 2 else _digit_distance(u, c, self.k)
        if self.hamming_radius is not None and d >= self.hamming_radius:
            raise HammingRestrictionViolation(
                f"query at distance {d} from the center; allowed distance is < {self.hamming_radius}"
            )
        try:
            x = self.answers[u]
        except KeyError:
            x = self._answer(u)
        self.known[u] = x
        self.log.append((u, x))
        if d > self.max_radius:
            self.max_radius = d
        return x

    def _answer(self, u: int) -> Allocation:
        """The algorithm's answer at u, stored only once every check passes."""
        algorithm = self.algorithm
        x = algorithm._answer_at(u)
        if self.check_feasible and not is_feasible(x, algorithm.env.feasibility):
            raise InfeasibleOutputError(
                f"algorithm {algorithm.name!r} returned infeasible {x.to_string()}"
            )
        self.answers[u] = x
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
