"""Generators for adversarial constructions and baseline algorithms.

The `thm1` and `block` constructions share one builder: a single hidden
"special" input is mapped to a special allocation, every other input to a
canonical default, and the feasibility set is the downward closure of the
named allocations (plus, for `thm1`, "fake" maximal allocations that make
unsuccessful membership probes uninformative). An instance holds its
algorithm, whose `env` is the environment, and its construction's parts.
The baselines (all-ones, knapsack, seeded random) serve as panels for
positive verification sweeps.

All randomness flows through `stable_rng`, so identical parameters and seed
reproduce identical algorithms bit for bit, across runs and platforms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .blackbox import Algorithm, CaseTable
from .errors import ParameterError
from .model import (
    Allocation,
    Environment,
    FeasibilitySet,
    Rational,
    ScaledWelfare,
    ValueLadder,
    ValuationVector,
    normalize_antichain,
)

DEFAULT_LADDER = ValueLadder.of(1, 2)


def stable_rng(*parts) -> random.Random:
    """Seeded RNG whose stream depends only on the stringified parts.

    String seeding hashes via SHA-512, so the stream is stable across
    platforms, processes, and interpreter versions.
    """
    return random.Random(":".join(str(p) for p in parts))


def _hidden_input_algorithm(
    name: str,
    ladder: ValueLadder,
    special_input: ValuationVector,
    special_allocation: Allocation,
    default_allocation: Allocation,
    fakes: tuple[Allocation, ...] = (),
) -> Algorithm:
    """The algorithm mapping `special_input` to `special_allocation` and every
    other input to `default_allocation`, with its one-case table, over the
    downward closure of the special, default and fake allocations."""
    n = special_input.n
    feasibility = normalize_antichain([special_allocation, default_allocation, *fakes], n)
    special_levels = special_input.levels

    def rule(v: ValuationVector) -> Allocation:
        return special_allocation if v.levels == special_levels else default_allocation

    table = CaseTable(n, ((special_input, special_allocation),), default_allocation)
    return Algorithm(Environment(n, ladder, feasibility), rule, name=name, table=table)


@dataclass(frozen=True)
class Thm1Instance:
    """Hidden-special-allocation construction at n = 4m (m even).

    Before permutation, the special input is high everywhere except the last
    m positions; its special allocation has m+1 randomized 1s in the first
    2m positions, zeros in the middle m, and 1s in the last m. Every other
    input maps to the default allocation (1s exactly on the last 2m
    positions). Fake maximal allocations with m/2 - 1 ones in the first 2m
    positions and 1s in the last m keep unsuccessful membership probes
    uninformative. The last 3m/2 positions are then permuted; both
    coordinate frames are stored so block structure can be asserted in
    canonical coordinates.
    """

    permutation: tuple[int, ...]  # permutation[i] = image of index i
    special_input_pre: ValuationVector
    special_allocation_pre: Allocation
    default_allocation_pre: Allocation
    fakes_pre: tuple[Allocation, ...]
    special_input: ValuationVector
    special_allocation: Allocation
    default_allocation: Allocation
    fakes: tuple[Allocation, ...]
    algorithm: Algorithm


def gen_thm1(m: int, seed: int, ladder: ValueLadder = DEFAULT_LADDER) -> Thm1Instance:
    if m < 2 or m % 2:
        raise ParameterError("m must be an even integer >= 2")
    if ladder.k != 2:
        raise ParameterError("this construction uses a two-value ladder")
    n = 4 * m
    rng = stable_rng("thm1", m, seed)
    one_positions = sorted(rng.sample(range(2 * m), m + 1))
    moved = list(range(n - 3 * m // 2, n))
    images = rng.sample(moved, len(moved))
    permutation = list(range(n))
    for src, dst in zip(moved, images):
        permutation[src] = dst

    def permute(seq):
        out = [None] * n
        for i, value in enumerate(seq):
            out[permutation[i]] = value
        return tuple(out)

    special_input_pre = ValuationVector((1,) * (3 * m) + (0,) * m)
    last_m = sum(1 << i for i in range(3 * m, n))
    special_allocation_pre = Allocation.from_mask(n, last_m | sum(1 << i for i in one_positions))
    default_pre = Allocation((0,) * (2 * m) + (1,) * (2 * m))
    fakes_pre = tuple(
        Allocation.from_mask(n, last_m | sum(1 << i for i in combo))
        for combo in itertools.combinations(range(2 * m), m // 2 - 1)
    )

    special_input = ValuationVector(permute(special_input_pre.levels))
    special_allocation = Allocation(permute(special_allocation_pre.bits))
    default_allocation = Allocation(permute(default_pre.bits))
    fakes = tuple(Allocation(permute(f.bits)) for f in fakes_pre)

    name = f"thm1(m={m},seed={seed})"
    algorithm = _hidden_input_algorithm(
        name, ladder, special_input, special_allocation, default_allocation, fakes
    )
    return Thm1Instance(
        permutation=tuple(permutation),
        special_input_pre=special_input_pre,
        special_allocation_pre=special_allocation_pre,
        default_allocation_pre=default_pre,
        fakes_pre=fakes_pre,
        special_input=special_input,
        special_allocation=special_allocation,
        default_allocation=default_allocation,
        fakes=fakes,
        algorithm=algorithm,
    )


@dataclass(frozen=True)
class BlockAdversaryInstance:
    """Three-block construction with a forcing chain.

    The input splits into a leading high block of length L1 - L2, a middle
    block of length L2, and a trailing block of length L3 (so n = L1 + L3).
    The special input is low exactly on the middle block; its special
    allocation hides `ones_count` 1s at chosen middle positions, while every
    other input maps to the default allocation covering the trailing block.
    The chain B_1..B_t raises the chosen positions to high one at a time,
    always leaving at least one chosen position low.
    """

    chosen_positions: tuple[int, ...]
    special_input: ValuationVector
    special_allocation: Allocation
    default_allocation: Allocation
    chain: tuple[ValuationVector, ...]
    algorithm: Algorithm


def gen_block_adversary(
    L1: int,
    L2: int,
    L3: int,
    ones_count: int,
    *,
    seed: int | None = None,
    positions=None,
    ladder: ValueLadder = DEFAULT_LADDER,
) -> BlockAdversaryInstance:
    if not (L1 > L2 > ones_count > L3 >= 1):
        raise ParameterError(
            f"block parameters must satisfy L1 > L2 > ones_count > L3 >= 1, "
            f"got L1={L1}, L2={L2}, ones_count={ones_count}, L3={L3}"
        )
    if ladder.k != 2:
        raise ParameterError("this construction uses a two-value ladder")
    n = L1 + L3
    offset = L1 - L2
    if positions is not None:
        chosen = tuple(sorted(int(p) for p in positions))
        if len(set(chosen)) != ones_count:
            raise ParameterError(f"need {ones_count} distinct positions, got {positions!r}")
        if any(not offset <= p < L1 for p in chosen):
            raise ParameterError(f"positions must lie in the middle block [{offset}, {L1})")
    else:
        if seed is None:
            raise ParameterError("provide a seed or explicit middle-block positions")
        rng = stable_rng("block", L1, L2, L3, ones_count, seed)
        chosen = tuple(sorted(rng.sample(range(offset, L1), ones_count)))

    base_levels = (1,) * offset + (0,) * L2 + (1,) * L3
    special_input = ValuationVector(base_levels)
    c_bits = [0] * n
    for p in chosen:
        c_bits[p] = 1
    special_allocation = Allocation(tuple(c_bits))
    default_allocation = Allocation((0,) * L1 + (1,) * L3)

    chain = [special_input]
    levels = list(base_levels)
    for p in chosen[: ones_count - 1]:  # keep at least one chosen position low
        levels[p] = 1
        chain.append(ValuationVector(tuple(levels)))

    name = f"block(L1={L1},L2={L2},L3={L3},ones={ones_count})"
    algorithm = _hidden_input_algorithm(
        name, ladder, special_input, special_allocation, default_allocation
    )
    return BlockAdversaryInstance(
        chosen_positions=chosen,
        special_input=special_input,
        special_allocation=special_allocation,
        default_allocation=default_allocation,
        chain=tuple(chain),
        algorithm=algorithm,
    )


@dataclass(frozen=True)
class HammingAdversaryInstance:
    """Threshold construction defeating distance-restricted transformations.

    At n = 2m, inputs with at most m + f high values map to the allocation
    covering the second half; everything else maps to the first half. The
    worst approximation ratio, low/high exactly, is attained at the input
    that is high on the first half and low on the second. The instance holds
    only the algorithm, which has no case table: documents tabulate it.
    """

    algorithm: Algorithm


def gen_hamming_adversary(
    m: int, f_value: int, ladder: ValueLadder = DEFAULT_LADDER
) -> HammingAdversaryInstance:
    if m < 1:
        raise ParameterError("m must be >= 1")
    if not 0 <= f_value <= m:
        raise ParameterError(f"f must lie in [0, m], got f={f_value} with m={m}")
    if ladder.k != 2:
        raise ParameterError("this construction uses a two-value ladder")
    n = 2 * m
    threshold = m + f_value
    second_half = Allocation((0,) * m + (1,) * m)
    first_half = Allocation((1,) * m + (0,) * m)

    def rule(v: ValuationVector) -> Allocation:
        return second_half if sum(v.levels) <= threshold else first_half

    environment = Environment(n, ladder, normalize_antichain([second_half, first_half], n))
    algorithm = Algorithm(environment, rule, name=f"hamming(m={m},f={f_value})")
    return HammingAdversaryInstance(algorithm)


def gen_all_ones(n: int, ladder: ValueLadder = DEFAULT_LADDER) -> Algorithm:
    """The constant algorithm allocating to everyone; feasibility is the full cube."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    everyone = Allocation.full(n)
    environment = Environment(n, ladder, FeasibilitySet(n, frozenset({everyone})))
    table = CaseTable(n, (), everyone)
    return Algorithm(environment, lambda v: everyone, name="all-ones", table=table)


def _density_ranks(weights: tuple[Fraction, ...], ladder: ValueLadder) -> list[list[int]]:
    """rank[i][level]: the position of agent i's density value / weight at
    that level among all distinct densities, highest first; equal densities
    share a rank. Sorting agents by (rank, index) is the greedy order."""
    density = [[value / w for value in ladder.values] for w in weights]
    distinct = sorted({d for row in density for d in row}, reverse=True)
    position = {d: r for r, d in enumerate(distinct)}
    return [[position[d] for d in row] for row in density]


def gen_knapsack(
    weights,
    capacity: Rational,
    policy: str = "greedy",
    ladder: ValueLadder = DEFAULT_LADDER,
) -> Algorithm:
    """Knapsack environment: public sizes, public capacity, private values.

    Feasible allocations are the subsets fitting the capacity; the stored
    antichain holds the maximal fitting subsets. Policies:

    - "greedy": scan agents by declared value / weight (descending, ties by
      agent index) and take whatever still fits.
    - "optimal": the welfare-maximizing allocation by brute force, which lies
      at a maximal subset because values are positive; welfare ties break
      toward the lexicographically largest bit string (lower indices win).
    """
    weights = tuple(Fraction(w) for w in weights)
    if any(w <= 0 for w in weights):
        raise ParameterError("weights must be strictly positive")
    capacity = Fraction(capacity)
    if capacity < 0:
        raise ParameterError("capacity must be nonnegative")
    n = len(weights)
    if not 1 <= n <= 16:
        raise ParameterError("knapsack generator supports 1 <= n <= 16 (explicit antichain)")
    if policy not in ("greedy", "optimal"):
        raise ParameterError(f"knapsack policy must be greedy or optimal, got {policy!r}")

    maximal = []
    for mask in range(2**n):
        total = sum(w for i, w in enumerate(weights) if mask >> i & 1)
        room = capacity - total
        if room >= 0 and all(w > room for i, w in enumerate(weights) if not mask >> i & 1):
            maximal.append(Allocation.from_mask(n, mask))
    feasibility = FeasibilitySet(n, frozenset(maximal))
    environment = Environment(n, ladder, feasibility)

    if policy == "greedy":
        rank = _density_ranks(weights, ladder)

        def rule(v: ValuationVector) -> Allocation:
            levels = v.levels
            # A stable sort of the agents by rank: ties stay in agent order.
            order = sorted(range(n), key=lambda i: rank[i][levels[i]])
            remaining = capacity
            mask = 0
            for i in order:
                if weights[i] <= remaining:
                    mask |= 1 << i
                    remaining -= weights[i]
            return Allocation.from_mask(n, mask)

    else:
        # Never empty: the empty subset fits any capacity >= 0.
        scaled = ScaledWelfare(ladder, maximal)

        def rule(v: ValuationVector) -> Allocation:
            return Allocation.from_mask(n, scaled.optimum(v.levels)[1])

    return Algorithm(environment, rule, name=f"knapsack-{policy}")


def gen_random_algorithm(env: Environment, seed: int) -> Algorithm:
    """Deterministic pseudorandom rule for fuzzing sweeps.

    Per input, a seeded choice picks one maximal allocation and keeps each
    of its 1s with probability 3/4; the whole map is reproducible from the
    seed and every output is feasible by construction.
    """
    maximal = env.feasibility.sorted_maximal()
    n = env.n

    def rule(v: ValuationVector) -> Allocation:
        if not maximal:
            return Allocation.zeros(n)
        rng = stable_rng("random-alg", seed, v.levels)
        rest = maximal[rng.randrange(len(maximal))].mask
        mask = 0
        while rest:  # one draw per 1 of the base, in agent order
            low = rest & -rest
            rest ^= low
            if rng.random() < 0.75:
                mask |= low
        return Allocation.from_mask(n, mask)

    return Algorithm(env, rule, name=f"random-{seed}")


def gen_random_environment(n: int, ladder: ValueLadder, seed: int) -> Environment:
    """Random downward-closed environment: a few random nonzero maximal
    allocations, normalized to an antichain. Reproducible from the seed."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = stable_rng("random-env", seed, n)
    count = rng.randint(1, 5)
    picked = []
    while len(picked) < count:
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        if any(bits):
            picked.append(Allocation(bits))
    return Environment(n, ladder, normalize_antichain(picked, n))


@dataclass(frozen=True)
class Generator:
    """A generator as configs name it: its params, each with the parser of
    its text; the params it may omit; whether it needs a seed, which a
    seeded generator's optional params replace when given; and
    `build(seed, ladder, **params)`, which calls its gen_* function by its
    module name, so a wrapper installed there is the one called."""

    params: dict[str, Callable[[str], object]]
    build: Callable[..., Algorithm]
    optional: tuple[str, ...] = ()
    seeded: bool = False

    def parse(self, name: str, params) -> dict[str, object]:
        """The (param, text) pairs, parsed; a param the generator does not
        take, or a value its parser refuses, raises ParameterError."""
        parsed = {}
        for key, text in params:
            if key not in self.params:
                takes = ", ".join(self.params)
                raise ParameterError(f"generator {name!r} takes no param {key!r}; it takes {takes}")
            try:
                parsed[key] = self.params[key](text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParameterError(f"param {key}: cannot parse {text!r}") from exc
        return parsed

    def check(self, name: str, params, seed: int | None) -> dict[str, object]:
        """The (param, text) pairs, parsed for `build`; a param it does not take,
        a missing or malformed one, or a missing seed is refused."""
        parsed = self.parse(name, params)
        if self.seeded and seed is None and not parsed.keys() & set(self.optional):
            instead = "".join(f" or param {key!r}" for key in self.optional)
            raise ParameterError(f"generator {name!r} is randomized and needs a seed{instead}")
        for key in self.params:
            if key not in parsed and key not in self.optional:
                raise ParameterError(f"generator {name!r} needs param {key!r}")
        return parsed


def _comma_separated(parse: Callable[[str], object]) -> Callable[[str], list]:
    return lambda text: [parse(item) for item in text.split(",")]


# One row per generator a config can name, keyed by the name. An optional
# param that is not given is not passed, so the gen_* default applies.
GENERATORS: dict[str, Generator] = {
    "thm1": Generator(
        {"m": int}, lambda seed, ladder, m: gen_thm1(m, seed, ladder).algorithm, seeded=True
    ),
    "block": Generator(
        {"L1": int, "L2": int, "L3": int, "ones": int, "positions": _comma_separated(int)},
        lambda seed, ladder, L1, L2, L3, ones, **optional: gen_block_adversary(
            L1, L2, L3, ones, seed=seed, ladder=ladder, **optional
        ).algorithm,
        optional=("positions",),
        seeded=True,
    ),
    "hamming": Generator(
        {"m": int, "f": int}, lambda seed, ladder, m, f: gen_hamming_adversary(m, f, ladder).algorithm
    ),
    "all-ones": Generator({"n": int}, lambda seed, ladder, n: gen_all_ones(n, ladder)),
    "knapsack": Generator(
        {"weights": _comma_separated(Fraction), "capacity": Fraction, "policy": str},
        lambda seed, ladder, **params: gen_knapsack(ladder=ladder, **params),
        optional=("policy",),
    ),
    "random": Generator(
        {"n": int},
        lambda seed, ladder, n: gen_random_algorithm(gen_random_environment(n, ladder, seed), seed + 1),
        seeded=True,
    ),
}
GENERATOR_NAMES = tuple(GENERATORS)
