"""Domain model for single-parameter downward-closed environments.

Private values are exact rationals. A feasibility set is stored as the
antichain of its maximal allocations; membership is domination testing
against that antichain, which makes the whole downward closure available
without enumerating it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, ParameterError

Rational = Fraction | int | str


@dataclass(frozen=True, slots=True)
class ValueLadder:
    """The ordered admissible private values a_1 < a_2 < ... < a_k.

    Two-value environments use k = 2 (low, high). Values are strictly
    positive exact rationals so that ratio thresholds such as high/low > n
    compare exactly.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ParameterError("a value ladder needs at least two values")
        if vals[0] <= 0:
            raise ParameterError("ladder values must be strictly positive")
        for a, b in zip(vals, vals[1:]):
            if a >= b:
                raise ParameterError(
                    f"ladder values must be strictly increasing, got {a} before {b}"
                )

    @classmethod
    def of(cls, *values: Rational) -> "ValueLadder":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def k(self) -> int:
        return len(self.values)

    def value(self, level: int) -> Fraction:
        if not 0 <= level < len(self.values):
            raise ParameterError(f"level {level} outside ladder of {len(self.values)} values")
        return self.values[level]


@dataclass(frozen=True, slots=True)
class ValuationVector:
    """One input to an allocation rule: per-agent level indices into a ladder.

    Levels are trusted to be in range for the ladder in use; `parse_input`
    checks untrusted input strings against the ladder.
    """

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.levels, tuple):
            object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def n(self) -> int:
        return len(self.levels)

    def with_level(self, agent: int, level: int) -> "ValuationVector":
        lv = list(self.levels)
        lv[agent] = level
        return ValuationVector(tuple(lv))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Allocation:
    """A binary allocation over n agents, stored as its bitmask: bit i of `mask`
    says whether agent i receives its unit. Build one from 0/1 bits or `from_mask`."""

    n: int
    mask: int

    def __init__(self, bits: Iterable[int]) -> None:
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise ParameterError("allocation bits must be 0 or 1")
        object.__setattr__(self, "n", len(bits))
        object.__setattr__(self, "mask", sum(b << i for i, b in enumerate(bits)))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Allocation":
        if mask < 0 or mask >> n:
            raise ParameterError(f"mask {mask} outside [0, 2**{n})")
        x = object.__new__(cls)
        object.__setattr__(x, "n", n)
        object.__setattr__(x, "mask", mask)
        return x

    @classmethod
    def zeros(cls, n: int) -> "Allocation":
        return cls.from_mask(n, 0)

    @classmethod
    def full(cls, n: int) -> "Allocation":
        return cls.from_mask(n, (1 << n) - 1)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple([self.mask >> i & 1 for i in range(self.n)])

    def to_string(self) -> str:
        return "".join(map(str, self.bits))

    def __repr__(self) -> str:
        return f"Allocation(bits={self.bits!r})"

    def dominated_by(self, other: "Allocation") -> bool:
        """Coordinatewise self <= other."""
        if self.n != other.n:
            raise DimensionError(f"cannot compare allocations of lengths {self.n} and {other.n}")
        return not self.mask & ~other.mask


@dataclass(frozen=True)
class FeasibilitySet:
    """A downward-closed feasibility set, stored as its maximal antichain.

    An allocation is feasible iff some maximal element dominates it, so the
    all-zero allocation is feasible whenever the set is nonempty. The
    constructor rejects non-antichain inputs; use `normalize_antichain` to
    build one from an arbitrary collection.
    """

    n: int
    maximal: frozenset[Allocation]

    def __post_init__(self) -> None:
        maximal = self.maximal if isinstance(self.maximal, frozenset) else frozenset(self.maximal)
        object.__setattr__(self, "maximal", maximal)
        for a in maximal:
            if a.n != self.n:
                raise DimensionError(f"maximal allocation of length {a.n} in a set over n={self.n}")
        for a, b in itertools.combinations(maximal, 2):
            if a.dominated_by(b) or b.dominated_by(a):
                raise ParameterError(
                    f"maximal elements must form an antichain: {a.to_string()} vs {b.to_string()}"
                )

    def sorted_maximal(self) -> list[Allocation]:
        """Maximal elements in canonical (lexicographic bit) order."""
        return sorted(self.maximal, key=lambda a: a.bits)


@dataclass(frozen=True)
class Environment:
    """Agent count, value ladder, and feasibility set bundled together."""

    n: int
    ladder: ValueLadder
    feasibility: FeasibilitySet

    def __post_init__(self) -> None:
        if self.feasibility.n != self.n:
            raise DimensionError(
                f"feasibility set over {self.feasibility.n} agents in an environment with n={self.n}"
            )

    @property
    def k(self) -> int:
        return self.ladder.k

    def input_count(self) -> int:
        return self.ladder.k ** self.n

    def inputs(self) -> Iterator[ValuationVector]:
        return all_inputs(self.n, self.ladder.k)


def is_feasible(x: Allocation, feasibility: FeasibilitySet) -> bool:
    """Membership in the downward closure: x is dominated by a maximal element."""
    if x.n != feasibility.n:
        raise DimensionError(f"allocation of length {x.n} vs feasibility over n={feasibility.n}")
    return any(x.dominated_by(m) for m in feasibility.maximal)


def opt_welfare(v: ValuationVector, feasibility: FeasibilitySet, ladder: ValueLadder) -> Fraction:
    """Maximum welfare at v over the feasibility set.

    Because all ladder values are strictly positive, an optimum is attained
    at a maximal element, so scanning the antichain suffices. An empty set
    yields 0 with a warning (degenerate inputs must not crash sweeps).
    """
    if v.n != feasibility.n:
        raise DimensionError(f"input of length {v.n} vs feasibility over n={feasibility.n}")
    if not feasibility.maximal:
        warnings.warn("optimal welfare over an empty feasibility set is 0", stacklevel=2)
    scaled = ScaledWelfare(ladder, feasibility.maximal)
    return scaled.fraction(scaled.optimum(v.levels)[0])


def normalize_antichain(allocs: Iterable[Allocation], n: int | None = None) -> FeasibilitySet:
    """Drop dominated allocations; the downward closure is unchanged.

    The agent count is inferred from the allocations; pass `n` explicitly
    to build an empty set.
    """
    unique = list(dict.fromkeys(allocs))
    if not unique:
        if n is None:
            raise ParameterError("cannot infer the agent count from an empty collection")
        return FeasibilitySet(n, frozenset())
    length = unique[0].n
    if n is not None and n != length:
        raise DimensionError(f"allocations of length {length} but n={n} requested")
    for a in unique:
        if a.n != length:
            raise DimensionError("allocations must all have the same length")
    keep = [
        a
        for a in unique
        if not any(a is not b and a != b and a.dominated_by(b) for b in unique)
    ]
    return FeasibilitySet(length, frozenset(keep))


def all_inputs(n: int, k: int) -> Iterator[ValuationVector]:
    """Every input in lexicographic order over level tuples."""
    for levels in itertools.product(range(k), repeat=n):
        yield ValuationVector(levels)


@functools.cache
def input_weights(n: int, k: int) -> tuple[int, ...]:
    """Weights of the input encoding over n agents and k levels: agent i has k**i."""
    return tuple(k**i for i in range(n))


def input_index(levels: tuple[int, ...], k: int) -> int:
    """An input's index, sum(level_i * k**i): on two values, its high positions' bitmask."""
    return sum(map(operator.mul, levels, input_weights(len(levels), k)))


def index_within(levels: tuple[int, ...], n: int, k: int) -> int | None:
    """The index of an input of n agents on k levels; None for levels of
    another length or off the ladder, which no index names."""
    if len(levels) == n and levels and min(levels) >= 0 and max(levels) < k:
        return input_index(levels, k)
    return None


def input_at(index: int, n: int, k: int) -> ValuationVector:
    """The input of n agents with this index; the inverse of `input_index`."""
    return ValuationVector(tuple([index // w % k for w in input_weights(n, k)]))


def at_or_above(index: int, n: int, k: int) -> tuple[int, ...]:
    """ge[c]: the positions of the input of n agents with this index at
    level c or above, for c in 0..k (ge[k] is empty). Its positions above
    level c are ge[c + 1] and its level-c positions ge[c] ^ ge[c + 1]."""
    ge = [0] * (k + 1)
    for i, w in enumerate(input_weights(n, k)):
        ge[index // w % k] |= 1 << i
    for c in range(k - 1, 0, -1):
        ge[c - 1] |= ge[c]
    return tuple(ge)


def above_masks(n: int, k: int) -> list[list[int]]:
    """Every input's positions above each level, by input index: bit i of
    `above_masks(n, k)[c][u]` is set when agent i's level in input u exceeds
    c, for c < k - 1 (`at_or_above(u, n, k)[c + 1]`). On two values the one
    list is the indices themselves."""
    lists: list[list[int]] = [[0] for _ in range(k - 1)]
    for i in range(n):
        bit = 1 << i
        # Agent i's level d is the digit of weight k**i: inputs with d = 0 come first.
        lists = [
            [a | bit if d > c else a for d in range(k) for a in above]
            for c, above in enumerate(lists)
        ]
    return lists


class ScaledWelfare:
    """Integer-scaled welfare evaluation for enumeration-heavy loops.

    Multiplies every ladder value by the common denominator so that welfare
    sums are plain integers; ratios of scaled welfares equal ratios of the
    exact values because the scale cancels.

    The scaled welfare of mask m (bit i for agent i) at an input is
    w_0 * popcount(m) plus, for each level c >= 1,
    (w_c - w_{c-1}) * popcount(m & above[c - 1]), where above[c - 1] holds
    the input's positions at level >= c (`above_masks`): one popcount per
    level above the lowest, so a single one on a two-value ladder. `scores`
    applies this to one mask per input, for a whole mask table at once.
    Three kernels maximise it over `candidates`, an environment's maximal
    allocations, encoded once as bitmasks with their base weights
    w_0 * popcount: `optima_table` at every input of the cube, `optima` at
    a list of inputs, and `optimum` at one input, with the mask attaining it.

    `optima_table` merges the masks agent by agent, the max-plus form of the
    subset-sum transform. Each mask starts with the table [0]. At agent i,
    the tables whose masks agree above agent i pair up: `without` (mask
    bit i clear) and `within` (set). Their merged table, over agents 0..i,
    holds for each of agent i's levels l the block
    max(without, within + w_l), or the one side that exists. After agent
    n - 1 one table is left, indexed by sum(level_i * k**i), in
    sum_i k * min(|candidates|, 2**(n - i - 1)) * k**i element steps
    whatever the antichain's size.
    """

    def __init__(self, ladder: ValueLadder, candidates: Iterable[Allocation]):
        self.denominator = lcm(*(v.denominator for v in ladder.values))
        self.weights = w = tuple(int(v * self.denominator) for v in ladder.values)
        self._steps = tuple(b - a for a, b in zip(w, w[1:]))
        # Descending bit order, so the first maximum is the lexicographically
        # largest bits among ties.
        ordered = sorted(candidates, key=lambda x: x.bits, reverse=True)
        self._masks = tuple(x.mask for x in ordered)
        self._bases = tuple(w[0] * m.bit_count() for m in self._masks)

    def of(self, levels: tuple[int, ...], mask: int) -> int:
        """The scaled welfare of `mask` at `levels`. No verifier calls it; it
        stays for the bench tracer, which wraps it."""
        w = self.weights
        return sum([w[lvl] for i, lvl in enumerate(levels) if mask >> i & 1])

    def scores(self, masks: Sequence[int], above: Sequence[Sequence[int]]) -> list[int]:
        """The scaled welfare of each masks[j] at the input whose positions
        above level c are above[c][j]."""
        out = [self.weights[0] * m.bit_count() for m in masks]
        for step, above_c in zip(self._steps, above):
            out = [s + step * (m & a).bit_count() for s, m, a in zip(out, masks, above_c)]
        return out

    def optima(self, above: Sequence[Sequence[int]]) -> list[int]:
        """The largest scaled welfare over the candidates at each input j,
        given as its positions above each level c, above[c][j]; 0 without
        candidates."""
        best = [0] * len(above[0])
        for m, base in zip(self._masks, self._bases):
            scores: Iterable[int] = itertools.repeat(base)
            for step, above_c in zip(self._steps, above):
                scores = [s + step * (m & a).bit_count() for s, a in zip(scores, above_c)]
            best = list(map(max, best, scores))
        return best

    def optima_table(self, n: int, k: int) -> list[int]:
        """The largest scaled welfare over the candidates at every input of
        n agents on k levels, by input index; all 0 without candidates."""
        if not self._masks:
            return [0] * k**n
        tables = dict.fromkeys(self._masks, [0])
        for _ in range(n):
            pairs: dict[int, list] = {}
            for m, table in tables.items():
                pairs.setdefault(m >> 1, [None, None])[m & 1] = table
            tables = {}
            for m, (without, within) in pairs.items():
                if within is None:
                    tables[m] = without * k
                    continue
                blocks = [map(operator.add, within, itertools.repeat(w)) for w in self.weights]
                if without is not None:
                    blocks = [map(max, without, block) for block in blocks]
                tables[m] = list(itertools.chain.from_iterable(blocks))
        return tables[0]

    def optimum(self, levels: tuple[int, ...]) -> tuple[int, int | None]:
        """The largest scaled welfare at `levels` over the candidates and the
        bitmask attaining it, ties going to the lexicographically largest
        bits; (0, None) when there are no candidates."""
        if not self._masks:
            return 0, None
        k = len(self.weights)
        ge = at_or_above(input_index(levels, k), len(levels), k)
        scores = self._bases
        for step, above in zip(self._steps, ge[1:]):
            scores = [s + step * (m & above).bit_count() for s, m in zip(scores, self._masks)]
        best = max(scores)
        return best, self._masks[scores.index(best)]

    def fraction(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.denominator)
