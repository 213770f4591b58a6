"""Literal reference implementations that the package's kernels are tested against."""

import operator
from fractions import Fraction

from dcbox import DimensionError


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
