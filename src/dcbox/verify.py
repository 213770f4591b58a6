"""Verification engine: monotonicity, welfare preservation, approximation
ratios, and critical-value payments.

All metrics are exact; enumeration is exhaustive up to a configurable bound
on rule evaluations, and falls back to seeded sampling above it (counts are
reported as observed, with no statistical extrapolation). Reports merge
deterministically: violations are sorted canonically before emission.

The verifiers name inputs by index (`model.input_index`) and call a rule
only through `_evaluate`, which evaluates indices in order and checks each
allocation's length. A `TransformedRule`, or an `Algorithm`, over the
verifier's (n, k) is passed the index itself; any other rule gets the
input's `ValuationVector` (`input_at`), so a rule over another n still
refuses it. Exhaustively the verifiers work on mask tables: a rule's
allocation masks listed by input index, from one evaluation per input in
`all_inputs` order. A `CachedRule` keeps its table for `check_monotone`,
`welfare_report` and later calls. A raise of agent i from level lo to hi is
the index k**i * (hi - lo) further on, exhaustive or sampled; a vector is
built only for a violation reported. Welfare is scored, exhaustive or
sampled, from the inputs' above-level masks (`model.at_or_above` of one
input, `model.above_masks` of every input) with one popcount per level.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .blackbox import Algorithm
from .errors import DimensionError
from .model import (
    Allocation,
    Environment,
    ScaledWelfare,
    ValueLadder,
    ValuationVector,
    above_masks,
    at_or_above,
    index_within,
    input_at,
    input_index,
    input_weights,
)
from .transforms import TransformedRule

DEFAULT_ENUM_BOUND = 2_000_000
_BATCH = 4096  # drawn inputs welfare_report evaluates and scores at a time

AllocationRule = Callable[[ValuationVector], Allocation]


def _evaluate(rule: AllocationRule, n: int, k: int, inputs: Iterable[int]) -> Iterator[int]:
    """The masks of the rule's allocations at the input indices `inputs`,
    each evaluated when it is read, in order: the one place the verifiers
    call a rule. A CachedRule's rule is evaluated, not the CachedRule (only
    `_masks` reads its table). A TransformedRule or an Algorithm over (n, k)
    is passed the index; any other rule the input (`input_at`). An
    allocation over other than n agents raises DimensionError."""
    if isinstance(rule, CachedRule):
        rule = rule.rule
    env = rule.env if isinstance(rule, (TransformedRule, Algorithm)) else None
    if env is None or (env.n, env.k) != (n, k):
        inputs = (input_at(u, n, k) for u in inputs)
    for v in inputs:
        x = rule(v)
        if x.n != n:
            raise DimensionError(f"allocation of length {x.n} vs input of length {n}")
        yield x.mask


class CachedRule:
    """A deterministic allocation rule with its mask table; single-worker use.

    `masks` evaluates the rule once per input and keeps the table, which
    both exhaustive verifiers read; a table for another (n, k) replaces it.
    A call at an input the table covers answers from it; any other call
    evaluates the rule and keeps nothing. `cache` stays empty: it is kept
    only because the bench tracer reads it."""

    def __init__(self, rule: AllocationRule):
        self.rule = rule
        self.cache: dict[tuple[int, ...], Allocation] = {}
        self._shape = (0, 0)  # the (n, k) of _table
        self._table: list[int] = []

    def __call__(self, v: ValuationVector) -> Allocation:
        n, k = self._shape
        u = index_within(v.levels, n, k)
        return self.rule(v) if u is None else Allocation.from_mask(n, self._table[u])

    def masks(self, n: int, k: int) -> list[int]:
        """The rule's mask table over n agents and k levels."""
        if self._shape != (n, k):
            self._table = _table(self.rule, n, k)
            self._shape = (n, k)
        return self._table


def _table(rule: AllocationRule, n: int, k: int) -> list[int]:
    """The rule's mask table: its allocation's mask at every input, by input
    index, from one evaluation per input in `all_inputs` order."""
    table = [0] * k**n
    # The indices in all_inputs order: agent 0's level varies slowest.
    offsets = [[lvl * w for lvl in range(k)] for w in input_weights(n, k)]
    order, inputs = itertools.tee(map(sum, itertools.product(*offsets)))
    for u, mask in zip(order, _evaluate(rule, n, k, inputs)):
        table[u] = mask
    return table


def _masks(rule: AllocationRule, n: int, k: int) -> list[int]:
    return rule.masks(n, k) if isinstance(rule, CachedRule) else _table(rule, n, k)


@dataclass(frozen=True)
class MonotonicityViolation:
    """One failed level raise: the agent held a 1 at the lower level and a 0
    at the higher level, all other coordinates equal."""

    input: ValuationVector  # the input carrying the lower level
    agent: int
    level_low: int
    level_high: int

    def sort_key(self):
        return (self.input.levels, self.agent, self.level_low, self.level_high)


@dataclass
class MonotonicityReport:
    violations: list[MonotonicityViolation]
    checked_pairs: int
    evaluations: int
    sampled: bool = False
    seed: int | None = None

    @property
    def is_monotone(self) -> bool:
        return not self.violations


def check_monotone(
    rule: AllocationRule,
    env: Environment,
    *,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    seed: int = 0,
) -> MonotonicityReport:
    """Check every single-agent level raise j -> j' with j < j' (all pairs,
    not only adjacent levels).

    Exhaustive while k^n stays within the enumeration bound, on the rule's
    mask table (a CachedRule's is kept for welfare_report); above it,
    seeded sampling of random raise pairs with the report flagged as
    sampled.
    """
    k, n = env.ladder.k, env.n
    total = k**n
    violations: list[MonotonicityViolation] = []
    if total <= enum_bound:
        masks = _masks(rule, n, k)
        weights = input_weights(n, k)
        for u, mask in enumerate(masks):
            while mask:  # each agent i holding a 1 at u, as its bit
                bit = mask & -mask
                mask ^= bit
                i = bit.bit_length() - 1
                lo = u // weights[i] % k
                for hi in range(lo + 1, k):
                    if not masks[u + (hi - lo) * weights[i]] & bit:
                        violations.append(MonotonicityViolation(input_at(u, n, k), i, lo, hi))
        violations.sort(key=MonotonicityViolation.sort_key)
        # An agent has k(k-1)/2 raises per setting of the others: n * k**(n-1) * k(k-1)/2.
        return MonotonicityReport(violations, n * total * (k - 1) // 2, total)
    rng = random.Random(seed)
    pairs = max(1, enum_bound // 2)
    weights = input_weights(n, k)
    for _ in range(pairs):
        levels = [rng.randrange(k) for _ in range(n)]
        i = rng.randrange(n)
        lo = rng.randrange(k - 1)
        hi = rng.randrange(lo + 1, k)
        levels[i] = lo
        u = input_index(levels, k)
        x, y = _evaluate(rule, n, k, (u, u + (hi - lo) * weights[i]))
        if x >> i & 1 and not y >> i & 1:
            violations.append(MonotonicityViolation(input_at(u, n, k), i, lo, hi))
    violations.sort(key=MonotonicityViolation.sort_key)
    return MonotonicityReport(violations, pairs, 2 * pairs, sampled=True, seed=seed)


@dataclass
class WelfareReport:
    """Welfare comparison of a rule against the original algorithm.

    `pointwise_min_fraction` is the minimum of rule welfare / original
    welfare over inputs where the original welfare is positive; inputs with
    zero original welfare are excluded from the minimum and counted in
    `zero_original_count`. `full_welfare_count` counts inputs where the rule
    is at least as good as the original. The sum fields compare expected
    welfare under the uniform input distribution (the uniform weight scales
    both sides equally). Approximation ratios are None when every input has
    zero optimal welfare.
    """

    pointwise_min_fraction: Fraction | None
    full_welfare_count: int
    total_inputs: int
    zero_original_count: int
    sum_welfare_rule: Fraction
    sum_welfare_original: Fraction
    approx_ratio_rule: Fraction | None
    approx_ratio_original: Fraction | None
    opt_zero_count: int
    sampled: bool = False
    seed: int | None = None


class _MinRatio:
    """Running exact minimum of nonnegative fractions num/den (den > 0)."""

    def __init__(self) -> None:
        self.num: int | None = None
        self.den: int | None = None

    def offer(self, num: int, den: int) -> None:
        if self.num is None or num * self.den < self.num * den:
            self.num, self.den = num, den

    def value(self) -> Fraction | None:
        if self.num is None:
            return None
        return Fraction(self.num, self.den)


def welfare_report(
    rule: AllocationRule,
    original: AllocationRule,
    env: Environment,
    *,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    seed: int = 0,
) -> WelfareReport:
    """Enumerate all inputs (or a seeded sample above the bound) and compare
    rule welfare against original welfare and against the optimum.

    The rule and the original are each evaluated once per input: into mask
    tables exhaustively (the rule's is shared through CachedRule), in draw
    order when sampled. Both cases are scored from the inputs' above-level
    masks by the same kernels."""
    k, n = env.ladder.k, env.n
    scaled = ScaledWelfare(env.ladder, env.feasibility.maximal)
    sampled = k**n > enum_bound
    count = max(1, enum_bound // 2) if sampled else k**n
    # Per batch of inputs: a reader of a rule's masks there, and the inputs'
    # above-level masks. Sampled, _BATCH drawn inputs at a time, so a large
    # sample is never held whole.
    if sampled:
        rng = random.Random(seed)
        draws = (input_index([rng.randrange(k) for _ in range(n)], k) for _ in range(count))
        batches = (
            (
                lambda r: list(_evaluate(r, n, k, drawn)),
                list(zip(*(at_or_above(u, n, k)[1:k] for u in drawn))),
            )
            for drawn in iter(lambda: list(itertools.islice(draws, _BATCH)), [])
        )
    else:
        batches = [(lambda r: _masks(r, n, k), above_masks(n, k))]
    # (rule, original, optimum) scaled welfare per input; masks go once scored.
    score = scaled.scores
    rows = itertools.chain.from_iterable(
        zip(score(masks(rule), above), score(masks(original), above), scaled.optima(above))
        for masks, above in batches
    )

    full = 0
    zero_original = 0
    opt_zero = 0
    sum_rule = 0
    sum_original = 0
    min_fraction = _MinRatio()
    min_ratio_rule = _MinRatio()
    min_ratio_original = _MinRatio()
    for w_rule, w_orig, opt in rows:
        sum_rule += w_rule
        sum_original += w_orig
        if w_rule >= w_orig:
            full += 1
        if w_orig == 0:
            zero_original += 1
        else:
            min_fraction.offer(w_rule, w_orig)
        if opt == 0:
            opt_zero += 1
        else:
            min_ratio_rule.offer(w_rule, opt)
            min_ratio_original.offer(w_orig, opt)
    return WelfareReport(
        pointwise_min_fraction=min_fraction.value(),
        full_welfare_count=full,
        total_inputs=count,
        zero_original_count=zero_original,
        sum_welfare_rule=scaled.fraction(sum_rule),
        sum_welfare_original=scaled.fraction(sum_original),
        approx_ratio_rule=min_ratio_rule.value(),
        approx_ratio_original=min_ratio_original.value(),
        opt_zero_count=opt_zero,
        sampled=sampled,
        seed=seed if sampled else None,
    )


def myerson_payments(
    rule: AllocationRule, v: ValuationVector, ladder: ValueLadder
) -> list[Fraction]:
    """Critical-value payments at v: each winner pays the smallest ladder
    value it could have declared and still won; losers pay 0.

    For a monotone rule this is the unique payment rule making truth-telling
    optimal. The scan is well defined for any rule (the declared level
    always wins), but prices from a non-monotone rule carry no truthfulness
    guarantee; callers wanting a guarantee must check monotonicity first.
    """
    mask = rule(v).mask
    payments: list[Fraction] = []
    for agent, own in enumerate(v.levels):
        if not mask >> agent & 1:
            payments.append(Fraction(0))
            continue
        critical = own
        for level in range(own):
            if rule(v.with_level(agent, level)).mask >> agent & 1:
                critical = level
                break
        payments.append(ladder.value(critical))
    return payments
