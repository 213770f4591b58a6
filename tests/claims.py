"""The paper's panel bounds, one row per claim, read by the acceptance and
mutant suites over one verification pass per cell.

A row names its transformation kind, the n the acceptance suite checks it
at, the ladders it applies to at each n, the quantity it reads from each
verified panel member, and the bound on that quantity. A cell is one (kind,
n, ladder, panel); `entries` verifies each once per session, through
`harness._verify_entry`, the path of `dcbox verify` and `dcbox sweep`.
bench/gate.py recomputes its bounds on its own.
"""

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from dcbox import ValueLadder
from dcbox.harness import ExperimentConfig, _verify_entry, standard_panel
from oracles import sparse_table

PANEL_SEED = 20260809
SPARSE_SEEDS = 5  # sparse tables per answering-input count, so 20 per panel


def panel(n, ladder, sparse=False):
    """All-ones, both knapsack policies and 20 random algorithms; with
    `sparse`, also tables where one to four inputs answer anything and the
    rest answer empty, a shape the dense members never take."""
    members = standard_panel(n, ladder, PANEL_SEED, random_count=20, include_optimal=True)
    if sparse:
        members += [sparse_table(n, ladder, c, seed) for c in range(1, 5) for seed in range(SPARSE_SEEDS)]
    return members


@functools.cache
def entries(kind, n, ladder, sparse=False):
    """The panel on the ladder values `ladder`, verified under `kind` with
    the default config (exhaustive up to k^n = 2 000 000)."""
    algorithms = panel(n, ValueLadder.of(*ladder), sparse)
    return tuple(_verify_entry(ExperimentConfig(), algorithm, kind) for algorithm in algorithms)


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    sizes: range  # the n the acceptance suite checks the row at
    ladders: Callable  # n -> the ladders the row applies to, lowest value 1
    value: Callable  # entry -> the quantity; None where the claim is vacuous
    bound: Callable  # (n, ladder, entry) -> the bound on it
    relation: Callable = operator.ge
    floor: bool = False  # the cell's least value meets the bound exactly

    def holds(self, n, ladder, cell):
        pairs = [(self.value(e), self.bound(n, ladder, e)) for e in cell]
        pairs = [pair for pair in pairs if pair[0] is not None]
        return all(self.relation(*pair) for pair in ([min(pairs)] if self.floor else pairs))


def constant(bound):
    return lambda n, ladder, e: bound


def violations(e):
    return len(e.monotone.violations)


def pointwise(e):
    return e.welfare.pointwise_min_fraction  # None when no input has welfare to keep


def radius(e):
    return e.max_radius


# (kind, the n the acceptance suite checks a row at, n -> the ladders it applies to)
TWO = ("two", range(2, 11), lambda n: tuple(dict.fromkeys((1, r) for r in (n, 2 * n, n * n))))
C4 = ("two-plus", range(2, 9), lambda n: ((1, n + 1),))
C5 = ("two-plus", range(2, 9), lambda n: ((1, 2 * n + 1),))
TWO_PLUS = ("two-plus", range(2, 9), lambda n: C4[2](n) + C5[2](n))
MULTI = ("multi", range(2, 8), lambda n: ((1, n, n * n),))

CLAIMS = (
    Claim("C1 monotone", *TWO, violations, constant(0), operator.le),
    Claim("C2 half", *TWO, pointwise, constant(Fraction(1, 2))),
    # The exact floor over all algorithms, R/(R+n-1) with R = high/low. If
    # A(v) has a high 1, the output keeps only A(v)'s high 1s: at least R
    # against at most R + (n-1). Otherwise the output either carries a high
    # 1, at least R against at most n-1, or is A(v) itself. `all-ones`
    # reaches the floor at any input with one high position.
    Claim("C2 floor", *TWO, pointwise, lambda n, lad, e: Fraction(lad[1], lad[1] + n - 1), operator.eq,
          floor=True),
    Claim("radius 2", *TWO, radius, constant(2), operator.le),
    Claim("C4 monotone", *C4, violations, constant(0), operator.le),
    Claim("C4 fraction", *C4, lambda e: Fraction(e.welfare.full_welfare_count, e.welfare.total_inputs),
          lambda n, lad, e: Fraction(1, n)),
    Claim("C4 losses", *C4, lambda e: e.welfare.total_inputs - e.welfare.full_welfare_count,
          lambda n, lad, e: Fraction(n - 1, n) * 2**n, operator.le),
    Claim("C5", *C5, lambda e: e.welfare.sum_welfare_rule, lambda n, lad, e: e.welfare.sum_welfare_original),
    # The radius the docstrings of `two-plus` and `multi` state: min(n, 5).
    Claim("radius 5", *TWO_PLUS, radius, constant(5), operator.le),
    Claim("C8 monotone", *MULTI, violations, constant(0), operator.le),
    Claim("C8 third", *MULTI, pointwise, constant(Fraction(1, 3))),
    Claim("radius 5", *MULTI, radius, constant(5), operator.le),
)


def failed(kind, n, transformation=None, sparse=False):
    """The ids of `kind`'s rows that a cell at n breaks, its panel verified
    under `transformation` (the kind itself by default)."""
    return {
        row.id
        for row in CLAIMS
        if row.kind == kind
        for ladder in row.ladders(n)
        if not row.holds(n, ladder, entries(transformation or kind, n, ladder, sparse))
    }
