"""The two optimum kernels against each other on random and knapsack
antichains.

`ScaledWelfare.optima_table(n, k)` gives the optimal welfare at every input
of the cube and serves exhaustive `welfare_report`; `ScaledWelfare.optima`
gives it at a list of inputs' above-level masks and serves sampled batches.
Here the table must equal `optima(above_masks(n, k))` at every input, over
seeded random antichains and knapsack environments at n <= 12 on two values
and n <= 8 on three, with integer and fractional ladders.

It takes a few seconds, which tier-1, close to its 20 s target, cannot
spare, so it lives outside tier-1's `testpaths`. Run it from the
repository root:

    PYTHONPATH=src python -m pytest -q checks/test_optimum_tables.py
"""

import random
from fractions import Fraction

import pytest

from dcbox import Allocation, ValueLadder, gen_knapsack, normalize_antichain
from dcbox.model import ScaledWelfare, above_masks

LADDERS = {
    2: [(1, 3), (Fraction(2, 3), Fraction(7, 2))],
    3: [(1, 4, 16), (Fraction(1, 3), Fraction(5, 2), 7)],
}
MAX_N = {2: 12, 3: 8}
CASES = 150  # per k: 300 antichains in all


def antichain(n, rng):
    """Seeded maximal allocations: a knapsack's or a random antichain's."""
    if rng.random() < 0.5:
        sizes = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(n)]
        capacity = sum(sizes) * Fraction(rng.randint(1, 4), 5)
        return gen_knapsack(sizes, capacity).env.feasibility.maximal
    drawn = [Allocation.from_mask(n, rng.randrange(1 << n)) for _ in range(rng.randint(1, 40))]
    return normalize_antichain(drawn, n).maximal


@pytest.mark.parametrize("k", sorted(LADDERS))
def test_table_equals_the_listed_optima(k):
    rng = random.Random(31 + k)
    above = {n: above_masks(n, k) for n in range(1, MAX_N[k] + 1)}
    for case in range(CASES):
        n = rng.randint(1, MAX_N[k])
        ladder = ValueLadder.of(*rng.choice(LADDERS[k]))
        maximal = antichain(n, rng)
        scaled = ScaledWelfare(ladder, maximal)
        masks = sorted(x.mask for x in maximal)
        assert scaled.optima_table(n, k) == scaled.optima(above[n]), (case, n, masks)
