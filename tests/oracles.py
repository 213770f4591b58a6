"""Literal reference implementations that the package's kernels are tested
against, and the test parameters several test modules share."""

import itertools
import operator
from collections import Counter
from fractions import Fraction

import pytest

from dcbox import (
    Allocation,
    DimensionError,
    FeasibilitySet,
    TransformedRule,
    ValueLadder,
    ValuationVector,
    gen_random_algorithm,
    gen_random_environment,
)
from dcbox.adversaries import stable_rng
from dcbox.blackbox import Algorithm, CaseTable
from dcbox.model import Environment, normalize_antichain
from dcbox.transforms import TRANSFORMATIONS, inputs_at_distance


def bits(text):
    """The Allocation written as a bit string, agent 0 first."""
    return Allocation(map(int, text))


def vec(*levels):
    """The ValuationVector with these levels."""
    return ValuationVector(tuple(levels))


def set_level(v, agent, level):
    """The ValuationVector v with agent's level set to `level`."""
    return ValuationVector(v.levels[:agent] + (level,) + v.levels[agent + 1 :])


def literal_antichain(allocs):
    """The allocations in `allocs` that no other one dominates, by comparing
    every pair coordinatewise over bits: what `normalize_antichain` keeps."""
    allocs = set(allocs)
    return frozenset(
        a
        for a in allocs
        if not any(a != b and all(map(operator.le, a.bits, b.bits)) for b in allocs)
    )


def literal_payments(rule, v, ladder):
    """Critical-value payments at v by a scan over level tuples, the spec of
    `myerson_payments`: the rule is called at v, then for each winner at v
    with its own level lowered to 0, 1, ... up to the first level that still
    wins; that level's value is its payment. Losers pay 0."""
    won = rule(v).bits
    payments = []
    for i, own in enumerate(v.levels):
        if not won[i]:
            payments.append(Fraction(0))
            continue
        lowered = (lvl for lvl in range(own) if rule(set_level(v, i, lvl)).bits[i])
        payments.append(ladder.values[next(lowered, own)])
    return payments


def brute_force_opt(v, feasibility, ladder):
    """Optimal welfare at v by brute force over the whole downward closure,
    with inline domination and dot-product logic (no `is_feasible`, no
    `welfare`)."""
    values = [ladder.values[lvl] for lvl in v.levels]
    maximal = [m.bits for m in feasibility.maximal]
    best = Fraction(0)
    for candidate in itertools.product((0, 1), repeat=v.n):
        if any(all(c <= m for c, m in zip(candidate, mx)) for mx in maximal):
            best = max(best, sum((x for x, b in zip(values, candidate) if b), Fraction(0)))
    return best


def naive_violations(rule, n, k):
    """Monotonicity violations of `rule` by a double loop over every input
    and every single-agent raise: (levels, agent, low, high), sorted."""
    found = []
    for base in itertools.product(range(k), repeat=n):
        x = rule(ValuationVector(base))
        for i in range(n):
            for hi in range(base[i] + 1, k):
                y = rule(ValuationVector(base[:i] + (hi,) + base[i + 1 :]))
                if x.bits[i] == 1 and y.bits[i] == 0:
                    found.append((base, i, base[i], hi))
    return sorted(found)


def counting(alg):
    """alg with its rule's calls counted by input levels."""
    calls = Counter()

    def rule(v):
        calls[v.levels] += 1
        return alg.rule(v)

    return Algorithm(alg.env, rule, alg.name), calls


def hamming_distance(u, v) -> int:
    """Number of coordinates where two ValuationVectors differ."""
    if u.n != v.n:
        raise DimensionError(f"hamming distance needs equal lengths, got {u.n} and {v.n}")
    return sum(map(operator.ne, u.levels, v.levels))


def welfare(v, x, ladder) -> Fraction:
    """Welfare of Allocation x at ValuationVector v: the dot product of values and bits."""
    if v.n != x.n:
        raise DimensionError(f"input of length {v.n} vs allocation of length {x.n}")
    vals = ladder.values
    total = Fraction(0)
    for lvl, bit in zip(v.levels, x.bits):
        if bit:
            total += vals[lvl]
    return total


def kind_ladders():
    """(kind, ladder values) for every row of TRANSFORMATIONS: the ladder
    size the row takes, or two and three values for a row that takes any."""
    sizes = {2: (1, 9), 3: (1, 5, 25)}
    for kind, (_, size) in TRANSFORMATIONS.items():
        for values in [sizes[size]] if size else sizes.values():
            yield pytest.param(kind, values, id=f"{kind}-{len(values)}")


def literal_multi3(alg, v):
    """Independent oracle for `multi` on the three-value ladder: the five
    scans written out one by one, no caching, no scan skipping."""

    def classify(x, u):
        best = -1
        for lvl, b in zip(u.levels, x.bits):
            if b and lvl > best:
                best = lvl
        return max(best, 0)

    cur = alg(v)
    c0 = classify(cur, v)
    for u in inputs_at_distance(v, 1, 3):  # class increase
        if classify(alg(u), v) > c0:
            cur = alg(u)
            break
    if classify(cur, v) == 0:
        for u in inputs_at_distance(v, 2, 3):  # low -> mid
            if classify(alg(u), v) == 1:
                cur = alg(u)
                break
    if classify(cur, v) != 2:
        for u in inputs_at_distance(v, 3, 3):  # below-high -> high
            if classify(alg(u), v) == 2:
                cur = alg(u)
                break
    if classify(cur, v) == 1:
        for u in inputs_at_distance(v, 4, 3):  # mid -> high
            if classify(alg(u), v) == 2:
                cur = alg(u)
                break
    if classify(cur, v) == 0:
        for u in inputs_at_distance(v, 5, 3):  # low -> high
            if classify(alg(u), v) == 2:
                cur = alg(u)
                break
    cls = classify(cur, v)
    return Allocation(tuple(b if lvl >= cls else 0 for b, lvl in zip(cur.bits, v.levels)))


def literal_greedy(weights, capacity, ladder, v):
    """What `gen_knapsack(weights, capacity, "greedy", ladder)` answers at v,
    in Fraction arithmetic: the agents by declared value / size, highest
    first and ties to the lower index, each taken if it still fits."""
    weights = [Fraction(w) for w in weights]
    values = [ladder.values[lvl] for lvl in v.levels]
    order = sorted(range(len(weights)), key=lambda i: (-(values[i] / weights[i]), i))
    remaining, taken = Fraction(capacity), [0] * len(weights)
    for i in order:
        if weights[i] <= remaining:
            taken[i] = 1
            remaining -= weights[i]
    return Allocation(taken)


def literal_two(alg, v):
    """Independent oracle for `two`: its four steps over level tuples, with no
    masks, memo or black box.

    1. If the allocation at v has a 1 on a high position, zero out the low
       positions and return it.
    2. Otherwise adopt the first input at distance 1, in canonical order,
       whose allocation has a 1 on a high position of v; zero the lows.
    3. Otherwise do the same at distance 2.
    4. Otherwise return the allocation at v unchanged."""

    def has_high(x):
        return any(b and lvl == 1 for b, lvl in zip(x.bits, v.levels))

    def zero_lows(x):
        return Allocation(tuple(b if lvl == 1 else 0 for b, lvl in zip(x.bits, v.levels)))

    x = alg(v)
    if has_high(x):
        return zero_lows(x)
    for distance in (1, 2):
        for u in inputs_at_distance(v, distance, 2):
            if has_high(alg(u)):
                return zero_lows(alg(u))
    return x


def literal_two_plus(alg, v):
    """Independent oracle for `two-plus`: an eager, unmemoized reimplementation
    of its seven steps over level tuples, recomputing every simulation from
    scratch."""

    def high_count(x, u):
        return sum(1 for lvl, b in zip(u.levels, x.bits) if b and lvl == 1)

    def zero_lows(x, u):
        return Allocation(tuple(b if lvl == 1 else 0 for b, lvl in zip(x.bits, u.levels)))

    def step1(u):
        x = alg(u)
        hc = high_count(x, u)
        if hc:
            for w in inputs_at_distance(u, 1, 2):
                c = alg(w)
                if high_count(c, u) > hc:
                    return c
        return x

    def steps_1_to_5(u):
        original = alg(u)
        cur = step1(u)
        if high_count(cur, u) == 0:
            for w in inputs_at_distance(u, 1, 2):
                c = step1(w)
                if high_count(c, u):
                    cur = c
                    break
        if high_count(cur, u) == 0:
            for w in inputs_at_distance(u, 2, 2):
                c = step1(w)
                if high_count(c, u):
                    cur = c
                    break
        if high_count(cur, u) > high_count(original, u):
            cur = zero_lows(cur, u)
        return cur

    cur = steps_1_to_5(v)
    result = list(cur.bits)
    for i, lvl in enumerate(v.levels):
        if lvl == 0 and result[i] == 1:
            if steps_1_to_5(set_level(v, i, 1)).bits[i] == 0:
                result[i] = 0
    return Allocation(tuple(result))


LITERAL_TWO_VALUE_SPECS = {"two": literal_two, "two-plus": literal_two_plus}


def two_value_tables():
    """The algorithms the two-value specs are checked on: every answer table
    at n=2 (an allocation at each of the 4 inputs, 4**4 = 256 tables),
    seeded sparse tables at n = 3..5 with one to four answering inputs, then
    four dense random algorithms at n=4."""
    ladder = ValueLadder.of(1, 9)
    env = Environment(2, ladder, FeasibilitySet(2, frozenset({Allocation.full(2)})))
    allocations = [Allocation.from_mask(2, mask) for mask in range(4)]
    for answers in itertools.product(allocations, repeat=4):
        # Agent 0's level is the low bit of the input index.
        yield Algorithm(env, lambda v, a=answers: a[v.levels[0] + 2 * v.levels[1]])
    for n in (3, 4, 5):
        for count in range(1, 5):
            for seed in range(3):
                yield sparse_table(n, ladder, count, seed)
    for seed in range(4):
        yield gen_random_algorithm(gen_random_environment(4, ladder, 5000 + seed), 5100 + seed)


def first_departure(kind, alg, spec, **options):
    """The levels of the first input, in `all_inputs` order, where
    `TransformedRule(kind, alg, **options)` answers other than `spec`; None
    when they agree everywhere."""
    rule = TransformedRule(kind, alg, **options)
    for v in alg.env.inputs():
        if rule(v) != spec(alg, v):
            return v.levels
    return None


def random_algorithm_answer(env, seed, v):
    """What `gen_random_algorithm(env, seed)` answers at v, drawn from a
    fresh `stable_rng("random-alg", seed, v.levels)`: one maximal allocation
    chosen, then each of its 1s kept with probability 3/4, in agent order."""
    maximal = env.feasibility.sorted_maximal()
    if not maximal:
        return Allocation.zeros(env.n)
    rng = stable_rng("random-alg", seed, v.levels)
    base = maximal[rng.randrange(len(maximal))]
    return Allocation(tuple(int(b and rng.random() < 0.75) for b in base.bits))


def sparse_table(n, ladder, count, seed):
    """An algorithm whose case table answers `count` seeded inputs with
    seeded nonempty allocations and every other input with the empty one,
    over the downward closure of those allocations."""
    rng = stable_rng("sparse", n, ladder.k, count, seed)
    answers = {}
    while len(answers) < count:
        levels = tuple(rng.randrange(ladder.k) for _ in range(n))
        answers[levels] = Allocation.from_mask(n, rng.randrange(1, 1 << n))
    cases = tuple((ValuationVector(levels), x) for levels, x in answers.items())
    table = CaseTable(n, cases, Allocation.zeros(n))
    env = Environment(n, ladder, normalize_antichain(answers.values(), n))
    return Algorithm(env, table.lookup(), name=f"sparse-{count}-{seed}", table=table)
