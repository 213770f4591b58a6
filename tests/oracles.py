"""Literal reference implementations that the package's kernels are tested
against, and the test parameters several test modules share."""

import operator
from fractions import Fraction

import pytest

from dcbox import Allocation, DimensionError, ValuationVector
from dcbox.adversaries import stable_rng
from dcbox.blackbox import Algorithm, CaseTable
from dcbox.model import Environment, normalize_antichain
from dcbox.transforms import TRANSFORMATIONS, inputs_at_distance


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
