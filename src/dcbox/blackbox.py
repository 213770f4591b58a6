"""Query layer between transformations and algorithms.

An `Algorithm` is a total deterministic allocation rule attached to its
environment. Transformations never call it directly: they go through an
`InstrumentedBlackBox`, which logs every query, enforces an optional query
budget, measures each query's Hamming distance from an optional center and
optionally restricts it to a strict radius. A `FeasibilityOracle` answers
membership queries about the feasibility set with its own counter and budget.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    DimensionError,
    HammingRestrictionViolation,
    InfeasibleOutputError,
    ParameterError,
    QueryBudgetExceeded,
)
from .model import Allocation, Environment, FeasibilitySet, ValuationVector, all_inputs, is_feasible


def hamming_distance(u: ValuationVector, v: ValuationVector) -> int:
    """Number of coordinates where the two inputs differ."""
    if u.n != v.n:
        raise DimensionError(f"hamming distance needs equal lengths, got {u.n} and {v.n}")
    return sum(map(operator.ne, u.levels, v.levels))


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

    Generators guarantee that every output is feasible; wrap the algorithm
    in an InstrumentedBlackBox with check_feasible=True to assert this in
    debug verification runs. `table` is the optional persistable case-table
    form used by the harness.
    """

    env: Environment
    rule: Callable[[ValuationVector], Allocation]
    name: str = "algorithm"
    table: Optional[CaseTable] = None

    def __call__(self, v: ValuationVector) -> Allocation:
        return self.rule(v)


class InstrumentedBlackBox:
    """Query wrapper recording (input, allocation) pairs.

    The budget counts successful queries. `max_radius` is the largest Hamming
    distance of a successful query from the center, if one is set. With a
    radius f set too, only inputs at distance < f are allowed. Budget
    exhaustion and radius violations raise distinct exception types.
    Single-owner mutable state: do not share one instance between workers.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        *,
        budget: int | None = None,
        hamming_center: ValuationVector | None = None,
        hamming_radius: int | None = None,
        check_feasible: bool = False,
    ):
        if hamming_radius is not None and hamming_center is None:
            raise ParameterError("hamming_radius needs a hamming_center")
        if hamming_radius is not None and hamming_radius < 0:
            raise ParameterError("hamming_radius must be nonnegative")
        if budget is not None and budget < 0:
            raise ParameterError("budget must be nonnegative")
        self.algorithm = algorithm
        self.budget = budget
        self.hamming_center = hamming_center
        self.hamming_radius = hamming_radius
        self.check_feasible = check_feasible
        self.log: list[tuple[ValuationVector, Allocation]] = []
        self.max_radius = 0

    @property
    def query_count(self) -> int:
        return len(self.log)

    def query(self, v: ValuationVector) -> Allocation:
        if self.budget is not None and len(self.log) >= self.budget:
            raise QueryBudgetExceeded(f"query budget of {self.budget} exhausted")
        d = 0
        if self.hamming_center is not None:
            d = hamming_distance(v, self.hamming_center)
            if self.hamming_radius is not None and d >= self.hamming_radius:
                raise HammingRestrictionViolation(
                    f"query at distance {d} from the center; allowed distance is < {self.hamming_radius}"
                )
        x = self.algorithm(v)
        if self.check_feasible and not is_feasible(x, self.algorithm.env.feasibility):
            raise InfeasibleOutputError(
                f"algorithm {self.algorithm.name!r} returned infeasible {x.to_string()}"
            )
        self.log.append((v, x))
        if d > self.max_radius:
            self.max_radius = d
        return x


class FeasibilityOracle:
    """Membership oracle over a feasibility set with a query counter and budget."""

    def __init__(self, feasibility: FeasibilitySet, *, budget: int | None = None):
        if budget is not None and budget < 0:
            raise ParameterError("budget must be nonnegative")
        self.feasibility = feasibility
        self.budget = budget
        self.counter = 0

    def query(self, x: Allocation) -> bool:
        if self.budget is not None and self.counter >= self.budget:
            raise QueryBudgetExceeded(f"feasibility query budget of {self.budget} exhausted")
        result = is_feasible(x, self.feasibility)
        self.counter += 1
        return result


def tabulate(algorithm: Algorithm, *, max_inputs: int = 65536) -> CaseTable:
    """Tabulate an algorithm into a case table over the full input space.

    The default is the most common output (ties broken toward the
    lexicographically largest bit string); every input with a different
    output becomes an explicit case.
    """
    env = algorithm.env
    total = env.ladder.k ** env.n
    if total > max_inputs:
        raise ParameterError(
            f"cannot tabulate {total} inputs (limit {max_inputs}); use a generator with a built-in table"
        )
    outputs = [(v, algorithm(v)) for v in all_inputs(env.n, env.ladder.k)]
    counts = Counter(x for _, x in outputs)
    default = max(counts.items(), key=lambda item: (item[1], item[0].bits))[0]
    cases = tuple((v, x) for v, x in outputs if x != default)
    return CaseTable(env.n, cases, default)
